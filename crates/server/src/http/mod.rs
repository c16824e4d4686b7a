//! The HTTP/JSON front end: multi-universe routing over `jqi_net`.
//!
//! The paper's interaction loop is a service protocol — questions go out
//! to (crowd) workers, labeled answers come back, possibly batched and
//! out of order. This module exposes that loop over the wire:
//!
//! * [`UniverseRegistry`] — multi-tenancy: one process hosts many
//!   universes, each with its own [`crate::SessionManager`] and
//!   (optionally) its own durability directory. A universe whose startup
//!   recovery failed is *kept* in the table so requests against it
//!   answer `503` with the real cause — a WAL stamped by a different
//!   [`jqi_core::Universe::fingerprint`] fails loudly over HTTP instead
//!   of replaying garbage.
//! * [`Gateway`] — the [`jqi_net::Handler`] mapping routes under
//!   `/v1/universes/{uid}/…` to session calls, with one JSON error shape
//!   and per-endpoint live latency histograms ([`GatewayMetrics`]).
//! * [`serve`] — one call to bind the whole stack to a socket address.
//!
//! The endpoint contract (schemas, curl examples, error codes) is
//! documented in `docs/API.md`; the layering in `docs/ARCHITECTURE.md`.

pub mod gateway;
pub mod metrics;
pub mod overload;
pub mod registry;

pub use gateway::{manager_stats_json, Gateway, MAX_ANSWER_BATCH};
pub use metrics::{GatewayMetrics, LatencyHistogram, LatencySummary};
pub use overload::{classify, EndpointClass, OverloadConfig};
pub use registry::{valid_universe_id, RegistryError, UniverseEntry, UniverseRegistry};

use std::net::ToSocketAddrs;
use std::sync::Arc;

/// Binds an HTTP server serving `registry` on `addr`.
///
/// Returns the running [`jqi_net::Server`] and the [`Gateway`] (for its
/// live metrics). The server stops when the returned handle is dropped.
///
/// ```no_run
/// use jqi_core::{paper::flight_hotel, Universe};
/// use jqi_server::http::{serve, UniverseRegistry};
/// use jqi_server::{ServerConfig, SessionManager};
/// use std::sync::Arc;
///
/// let registry = Arc::new(UniverseRegistry::new());
/// let universe = Arc::new(Universe::build(flight_hotel()));
/// let manager = SessionManager::new(universe, ServerConfig::default());
/// registry.register("demo", Arc::new(manager)).unwrap();
/// let (server, _gateway) = serve(
///     Arc::clone(&registry),
///     "127.0.0.1:0",
///     jqi_net::NetConfig::default(),
/// )
/// .unwrap();
/// println!("serving on http://{}", server.local_addr());
/// ```
pub fn serve(
    registry: Arc<UniverseRegistry>,
    addr: impl ToSocketAddrs,
    config: jqi_net::NetConfig,
) -> std::io::Result<(jqi_net::Server, Arc<Gateway>)> {
    serve_with(registry, addr, config, OverloadConfig::default())
}

/// [`serve`] with explicit admission-control thresholds — the bench's
/// `overload` phase and the chaos tests tighten these to force shedding
/// at small scale.
pub fn serve_with(
    registry: Arc<UniverseRegistry>,
    addr: impl ToSocketAddrs,
    config: jqi_net::NetConfig,
    overload: OverloadConfig,
) -> std::io::Result<(jqi_net::Server, Arc<Gateway>)> {
    let gateway = Arc::new(Gateway::with_overload(registry, overload));
    let handler: Arc<dyn jqi_net::Handler> = Arc::clone(&gateway) as Arc<dyn jqi_net::Handler>;
    let server = jqi_net::Server::bind(addr, handler, config)?;
    gateway.attach_transport(server.stats_handle());
    Ok((server, gateway))
}
