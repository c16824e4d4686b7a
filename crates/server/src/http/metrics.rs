//! Latency histograms: the live per-endpoint metrics of `GET /v1/stats`,
//! and the one latency summary the offline bench reports use too.
//!
//! [`LatencyHistogram`] is lock-free and log-linear: each power-of-two
//! octave of nanoseconds is split into 32 equal sub-buckets, so a bucket
//! spans at most 1/32 (about 3 %) of the values it holds. Recording is a
//! handful of relaxed atomic adds on the request path. A quantile is
//! located in its bucket, interpolated across it, and clamped to the
//! recorded maximum, so it lies within one bucket width of the exact
//! nearest-rank sample and never above `max_us`. [`LatencySummary`] is
//! the shape both the gateway and `jqi_bench::throughput` report:
//! `{count, mean_us, p50_us, p95_us, p99_us, max_us}`.

use crate::json::Json;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Sub-buckets per octave, as a power of two (2^5 = 32).
const SUB_BITS: u32 = 5;
const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Values below 2^40 ns (about 18 minutes) get their own bucket; larger
/// ones share the last bucket (their quantiles are still clamped to the
/// recorded maximum).
const MAX_BITS: u32 = 40;
/// Values below [`SUB_BUCKETS`] ns have one bucket each; every octave
/// above has [`SUB_BUCKETS`].
const BUCKETS: usize = ((MAX_BITS - SUB_BITS + 1) as usize) << SUB_BITS;

/// The bucket holding `ns`.
fn bucket_of(ns: u64) -> usize {
    let ns = ns.min((1 << MAX_BITS) - 1);
    if ns < SUB_BUCKETS {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros();
    let sub = (ns >> (octave - SUB_BITS)) & (SUB_BUCKETS - 1);
    ((((octave - SUB_BITS + 1) as u64) << SUB_BITS) | sub) as usize
}

/// Bucket `i`'s lower bound and width, in ns.
fn bucket_span(i: usize) -> (u64, u64) {
    let i = i as u64;
    if i < SUB_BUCKETS {
        return (i, 1);
    }
    let shift = (i >> SUB_BITS) as u32 - 1;
    ((SUB_BUCKETS | (i & (SUB_BUCKETS - 1))) << shift, 1 << shift)
}

/// Half-life of the rolling latency estimate while *no* samples arrive:
/// the stored EWMA is halved per this much wall-clock silence when read.
/// This is what keeps latency-based shedding from latching — once an
/// endpoint sheds, it stops producing samples, so without decay a single
/// slow burst (or one slow cold-start request seeding the estimate)
/// would 503 that endpoint class until restart. With decay, a shed
/// endpoint's estimate falls back under its threshold within a few
/// half-lives and traffic is readmitted; if the endpoint is still slow,
/// the readmitted requests re-raise the estimate and shedding resumes —
/// a bounded duty cycle instead of a lockout.
const EWMA_HALF_LIFE_NS: u64 = 500_000_000;

/// Monotonic nanoseconds since the first time any histogram looked at
/// the clock — a process-wide epoch so timestamps fit in an atomic.
fn monotonic_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH
        .get_or_init(Instant::now)
        .elapsed()
        .as_nanos()
        .min(u128::from(u64::MAX)) as u64
}

/// `ewma_ns` decayed by `elapsed_ns` of silence: halved per
/// [`EWMA_HALF_LIFE_NS`], with linear interpolation inside a half-life
/// so the estimate falls smoothly rather than in steps.
fn decayed(ewma_ns: u64, elapsed_ns: u64) -> u64 {
    let halves = elapsed_ns / EWMA_HALF_LIFE_NS;
    if halves >= 64 {
        return 0;
    }
    let base = ewma_ns >> halves;
    let frac = elapsed_ns % EWMA_HALF_LIFE_NS;
    base - ((u128::from(base / 2) * u128::from(frac)) / u128::from(EWMA_HALF_LIFE_NS)) as u64
}

/// A latency distribution in microseconds — what `GET /v1/stats` serves
/// per endpoint and what the bench reports carry per phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySummary {
    /// Number of samples.
    pub count: u64,
    /// Arithmetic mean (exact).
    pub mean_us: f64,
    /// Median.
    pub p50_us: f64,
    /// 95th percentile.
    pub p95_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// Maximum (exact).
    pub max_us: f64,
}

impl LatencySummary {
    fn fields(&self) -> Vec<(String, Json)> {
        vec![
            ("count".into(), Json::num(self.count as f64)),
            ("mean_us".into(), Json::Num(self.mean_us)),
            ("p50_us".into(), Json::Num(self.p50_us)),
            ("p95_us".into(), Json::Num(self.p95_us)),
            ("p99_us".into(), Json::Num(self.p99_us)),
            ("max_us".into(), Json::Num(self.max_us)),
        ]
    }

    /// `{count, mean_us, p50_us, p95_us, p99_us, max_us}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(self.fields())
    }
}

/// A concurrent log-linear latency histogram (see the module docs).
#[derive(Debug)]
pub struct LatencyHistogram {
    total_ns: AtomicU64,
    max_ns: AtomicU64,
    /// Rolling estimate (EWMA, α = 1/8) of recent latency — the signal
    /// admission control sheds on. Lossy under races, which is fine for
    /// a smoothed estimate. Time-decays toward zero while no samples
    /// arrive (see [`EWMA_HALF_LIFE_NS`]) so shedding can never latch.
    ewma_ns: AtomicU64,
    /// [`monotonic_ns`] timestamp of the last EWMA update.
    ewma_at_ns: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            total_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
            ewma_ns: AtomicU64::new(0),
            ewma_at_ns: AtomicU64::new(0),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> LatencyHistogram {
        LatencyHistogram::default()
    }

    /// Records one sample.
    pub fn record(&self, elapsed: Duration) {
        let ns = elapsed.as_nanos().min(u128::from(u64::MAX)) as u64;
        self.total_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
        let now = monotonic_ns();
        let old = decayed(
            self.ewma_ns.load(Ordering::Relaxed),
            now.saturating_sub(self.ewma_at_ns.load(Ordering::Relaxed)),
        );
        let new = if old == 0 { ns } else { old - old / 8 + ns / 8 };
        self.ewma_ns.store(new, Ordering::Relaxed);
        self.ewma_at_ns.store(now, Ordering::Relaxed);
        self.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `other`'s samples to `self`, which then summarizes as if
    /// every sample of both had been recorded into it. The rolling
    /// estimate stays `self`'s own: it describes one live stream.
    pub fn merge(&self, other: &LatencyHistogram) {
        self.total_ns
            .fetch_add(other.total_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_ns
            .fetch_max(other.max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    /// The rolling latency estimate in microseconds (0 before any
    /// sample) — what admission control compares against its
    /// thresholds. Decayed by the silence since the last sample, so a
    /// shed (hence sample-starved) endpoint recovers within a few
    /// half-lives instead of latching shut.
    pub fn ewma_us(&self) -> u64 {
        let at = self.ewma_at_ns.load(Ordering::Relaxed);
        let ewma = self.ewma_ns.load(Ordering::Relaxed);
        decayed(ewma, monotonic_ns().saturating_sub(at)) / 1_000
    }

    /// The summary of every sample recorded so far; `None` when there
    /// are none.
    pub fn summary(&self) -> Option<LatencySummary> {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        let count: u64 = counts.iter().sum();
        if count == 0 {
            return None;
        }
        let max_ns = self.max_ns.load(Ordering::Relaxed) as f64;
        // The sample a sorted vector would index at `round(q·(n−1))`,
        // placed in its bucket by its rank among the bucket's samples.
        let quantile_us = |q: f64| {
            let rank = (q * (count - 1) as f64).round() as u64;
            let mut before = 0u64;
            for (i, &c) in counts.iter().enumerate() {
                if rank < before + c {
                    let (lo, width) = bucket_span(i);
                    let within = ((rank - before) as f64 + 0.5) / c as f64;
                    return (lo as f64 + width as f64 * within).min(max_ns) / 1e3;
                }
                before += c;
            }
            max_ns / 1e3
        };
        Some(LatencySummary {
            count,
            mean_us: self.total_ns.load(Ordering::Relaxed) as f64 / count as f64 / 1e3,
            p50_us: quantile_us(0.50),
            p95_us: quantile_us(0.95),
            p99_us: quantile_us(0.99),
            max_us: max_ns / 1e3,
        })
    }

    /// The live summary as served by `GET /v1/stats`: the
    /// [`LatencySummary`] fields plus `ewma_us` — or `Json::Null` when
    /// nothing was recorded yet.
    pub fn summary_json(&self) -> Json {
        self.summary().map_or(Json::Null, |summary| {
            let mut fields = summary.fields();
            fields.push(("ewma_us".into(), Json::num(self.ewma_us() as f64)));
            Json::Obj(fields)
        })
    }
}

/// One histogram per gateway operation, named as they appear under
/// `"endpoints"` in the `GET /v1/stats` response.
#[derive(Debug, Default)]
pub struct GatewayMetrics {
    /// `POST /v1/universes/{uid}/sessions`.
    pub create_session: LatencyHistogram,
    /// `GET …/sessions/{sid}/question`.
    pub question: LatencyHistogram,
    /// `POST …/sessions/{sid}/answers`.
    pub answers: LatencyHistogram,
    /// `GET …/sessions/{sid}/snapshot`.
    pub snapshot: LatencyHistogram,
    /// `POST /v1/universes/{uid}/restore`.
    pub restore: LatencyHistogram,
    /// `POST /v1/universes/{uid}/delta`.
    pub delta: LatencyHistogram,
    /// `GET …/sessions/{sid}` and `DELETE …/sessions/{sid}`.
    pub session: LatencyHistogram,
    /// `GET /v1/stats` and `GET /v1/universes`.
    pub stats: LatencyHistogram,
}

impl GatewayMetrics {
    /// Creates a zeroed metrics table.
    pub fn new() -> GatewayMetrics {
        GatewayMetrics::default()
    }

    /// `(name, histogram)` pairs in stats-report order.
    pub fn all(&self) -> [(&'static str, &LatencyHistogram); 8] {
        [
            ("create_session", &self.create_session),
            ("question", &self.question),
            ("answers", &self.answers),
            ("snapshot", &self.snapshot),
            ("restore", &self.restore),
            ("delta", &self.delta),
            ("session", &self.session),
            ("stats", &self.stats),
        ]
    }

    /// The `"endpoints"` object for `GET /v1/stats`.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.all()
                .into_iter()
                .map(|(name, histogram)| (name.to_string(), histogram.summary_json()))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_histogram_summarizes_to_null() {
        assert_eq!(LatencyHistogram::new().summary(), None);
        assert_eq!(LatencyHistogram::new().summary_json(), Json::Null);
    }

    #[test]
    fn buckets_tile_the_range_at_about_three_percent() {
        let mut next = 0;
        for i in 0..BUCKETS {
            let (lo, width) = bucket_span(i);
            assert_eq!(lo, next, "bucket {i} leaves a gap");
            assert_eq!(bucket_of(lo), i);
            assert_eq!(bucket_of(lo + width - 1), i);
            assert!(lo < SUB_BUCKETS || width * SUB_BUCKETS <= lo, "bucket {i}");
            next = lo + width;
        }
        assert_eq!(next, 1 << MAX_BITS);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_track_bucket_upper_bounds() {
        let h = LatencyHistogram::new();
        for _ in 0..99 {
            h.record(Duration::from_micros(10));
        }
        h.record(Duration::from_millis(10)); // one slow outlier
        let summary = h.summary_json();
        let get = |k: &str| summary.get(k).and_then(Json::as_num).unwrap();
        assert_eq!(get("count"), 100.0);
        // p50 and p99 within one bucket width (256 ns) of 10 µs: the
        // outlier does not reach p99 of 100 samples.
        let width_us = bucket_span(bucket_of(10_000)).1 as f64 / 1e3;
        assert!(width_us <= 0.32, "{width_us}");
        for key in ["p50_us", "p95_us", "p99_us"] {
            assert!((get(key) - 10.0).abs() <= width_us, "{key}: {summary:?}");
        }
        // max sees the outlier exactly.
        assert_eq!(get("max_us"), 10_000.0);
        assert!(get("mean_us") > 10.0 && get("mean_us") < 200.0);
    }

    #[test]
    fn stats_quantiles_never_exceed_max_nor_fall_below_the_smallest_bucket() {
        // With log₂ buckets, one hundred 10 µs samples reported p50 as the
        // bucket's upper bound, 16.383 µs, above their 10 µs maximum.
        let m = GatewayMetrics::new();
        for _ in 0..100 {
            m.question.record(Duration::from_micros(10));
        }
        let json = m.to_json();
        let summary = json.get("question").expect("recorded endpoint");
        let get = |k: &str| summary.get(k).and_then(Json::as_num).unwrap();
        assert_eq!(get("max_us"), 10.0);
        let floor_us = bucket_span(bucket_of(10_000)).0 as f64 / 1e3;
        for key in ["p50_us", "p95_us", "p99_us"] {
            assert!(get(key) <= get("max_us"), "{key}: {summary:?}");
            assert!(get(key) >= floor_us, "{key}: {summary:?}");
        }
    }

    /// What the bench reported before the histogram: the sample at
    /// nearest rank `round(q·(n−1))` of the sorted samples, in ns.
    fn exact_quantile_ns(sorted: &[u64], q: f64) -> u64 {
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    }

    /// A log-uniform sample: `mantissa · 2^exponent` ns, up to ~4.6 min.
    fn spread((exponent, mantissa): (u32, u64)) -> u64 {
        mantissa << exponent
    }

    proptest! {
        #[test]
        fn summary_matches_exact_quantiles_within_one_bucket(
            shape in 0u8..3,
            repeat in 1usize..300,
            raw in prop::collection::vec((0u32..29, 0u64..1024), 1..300),
        ) {
            let samples: Vec<u64> = match shape {
                0 => vec![spread(raw[0])],
                1 => vec![spread(raw[0]); repeat],
                _ => raw.iter().copied().map(spread).collect(),
            };
            let whole = LatencyHistogram::new();
            // Three per-thread histograms merged must equal the one that
            // recorded everything.
            let parts: Vec<LatencyHistogram> = (0..3).map(|_| LatencyHistogram::new()).collect();
            for (k, &ns) in samples.iter().enumerate() {
                whole.record(Duration::from_nanos(ns));
                parts[k % 3].record(Duration::from_nanos(ns));
            }
            let merged = LatencyHistogram::new();
            for part in &parts {
                merged.merge(part);
            }
            let summary = whole.summary().expect("samples recorded");
            prop_assert_eq!(merged.summary(), Some(summary));

            let mut sorted = samples.clone();
            sorted.sort_unstable();
            let n = sorted.len() as u64;
            prop_assert_eq!(summary.count, n);
            prop_assert_eq!(summary.mean_us, sorted.iter().sum::<u64>() as f64 / n as f64 / 1e3);
            prop_assert_eq!(summary.max_us, sorted[sorted.len() - 1] as f64 / 1e3);
            for (q, got_us) in [(0.50, summary.p50_us), (0.95, summary.p95_us), (0.99, summary.p99_us)] {
                let exact = exact_quantile_ns(&sorted, q);
                let width = bucket_span(bucket_of(exact)).1 as f64;
                let got = got_us * 1e3;
                prop_assert!(
                    (got - exact as f64).abs() <= width,
                    "q{q}: {got} ns vs exact {exact} ns (bucket width {width})"
                );
                prop_assert!(got_us <= summary.max_us, "q{q} above max: {summary:?}");
            }
        }
    }

    #[test]
    fn ewma_tracks_recent_latency_and_decays() {
        let h = LatencyHistogram::new();
        assert_eq!(h.ewma_us(), 0, "no samples, no estimate");
        h.record(Duration::from_millis(10));
        let seeded = h.ewma_us();
        assert!(
            (9_900..=10_000).contains(&seeded),
            "first sample seeds the estimate, got {seeded}"
        );
        // A burst of fast samples pulls the estimate down toward them.
        for _ in 0..64 {
            h.record(Duration::from_micros(100));
        }
        assert!(h.ewma_us() < 500, "decayed to {}", h.ewma_us());
        assert!(h.ewma_us() >= 90);
    }

    #[test]
    fn ewma_decay_halves_per_half_life_of_silence() {
        // The pure decay curve: exact at whole half-lives, monotone and
        // interpolated inside one, zero once the shifts run out.
        assert_eq!(decayed(800_000, 0), 800_000);
        assert_eq!(decayed(800_000, EWMA_HALF_LIFE_NS), 400_000);
        assert_eq!(decayed(800_000, 3 * EWMA_HALF_LIFE_NS), 100_000);
        let mid = decayed(800_000, EWMA_HALF_LIFE_NS / 2);
        assert!(mid < 800_000 && mid > 400_000, "got {mid}");
        assert_eq!(decayed(u64::MAX, 64 * EWMA_HALF_LIFE_NS), 0);
        assert_eq!(decayed(0, 123), 0);
    }

    #[test]
    fn a_sample_starved_estimate_recovers_below_the_shed_threshold() {
        // The latch regression: one slow request seeds the estimate past
        // the soft threshold (250 ms); with every follow-up shed, no new
        // samples arrive — the estimate must fall back on its own.
        let h = LatencyHistogram::new();
        h.record(Duration::from_millis(400));
        assert!(h.ewma_us() > 250_000, "seeded hot: {}", h.ewma_us());
        std::thread::sleep(Duration::from_millis(2 * EWMA_HALF_LIFE_NS / 1_000_000));
        let recovered = h.ewma_us();
        assert!(
            recovered < 250_000,
            "the estimate must decay below the threshold, got {recovered}"
        );
        assert!(recovered > 0, "decay is gradual, not a reset");
        // A fresh slow sample blends with the *decayed* estimate, not
        // the stale stored one.
        h.record(Duration::from_millis(400));
        assert!(h.ewma_us() < 400_000, "got {}", h.ewma_us());
    }

    #[test]
    fn metrics_table_lists_every_endpoint() {
        let m = GatewayMetrics::new();
        m.answers.record(Duration::from_micros(3));
        let json = m.to_json();
        assert_eq!(json.get("create_session"), Some(&Json::Null));
        assert!(json.get("answers").unwrap().get("count").is_some());
    }
}
