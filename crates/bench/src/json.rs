//! JSON for the `--json` report mode: the server's [`Json`] value and
//! emitter, plus the [`ToJson`] trait the report structs implement (the
//! build container cannot fetch `serde`, so nothing is derived).

pub use jqi_server::json::Json;

/// Report structs that can render themselves as JSON.
pub trait ToJson {
    /// The JSON value of `self`.
    fn to_json(&self) -> Json;
}

/// An array of anything convertible via [`ToJson`].
pub fn arr<'a, T: ToJson + 'a>(items: impl IntoIterator<Item = &'a T>) -> Json {
    Json::Arr(items.into_iter().map(ToJson::to_json).collect())
}
