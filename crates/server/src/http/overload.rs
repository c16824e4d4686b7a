//! Admission control: which requests to shed, and when.
//!
//! The transport ([`jqi_net`]) owns the *mechanism* — a fast `503
//! overloaded` with `Retry-After`, decided on the framed request head
//! before any routing, body transfer, or body parsing happens — and
//! consults the gateway for the *policy* through
//! [`jqi_net::Handler::admit`]. This module is that policy: endpoint
//! priority tiers plus thresholds over the two live pressure signals,
//! the transport's queue depth (requests in workers' hands) and the
//! per-endpoint rolling latency estimate
//! ([`crate::http::metrics::LatencyHistogram::ewma_us`]).
//!
//! Latency-based shedding cannot latch: the rolling estimate only gains
//! samples from requests that are actually served, so while an endpoint
//! sheds it is sample-starved — but the estimate time-decays (halving
//! per half-life of silence, see `metrics`), so within a few half-lives
//! it falls back under the threshold and traffic is readmitted. A still
//! -slow endpoint re-raises the estimate and sheds again: a bounded
//! duty cycle, never a lockout until restart.
//!
//! The shed order is deliberate for an interactive inference service:
//! read-only traffic (`question`, `snapshot`, listings, status) is cheap
//! for the *client* to retry and goes first; mutating traffic
//! (`answers`, session creation, `restore`) carries crowd work that is
//! expensive to re-collect and sheds only past the hard thresholds; and
//! `GET /v1/stats` never sheds — blinding the operators during the
//! incident is how an overload becomes an outage.

use jqi_net::{Admission, Pressure, RequestHead};

/// The priority tier a request belongs to, lowest-priority first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EndpointClass {
    /// Read-only traffic: shed first (past the *soft* thresholds).
    ReadOnly,
    /// Mutating traffic: shed only past the *hard* thresholds.
    Mutating,
    /// Observability (`GET /v1/stats`): never shed.
    Control,
}

/// Classifies a request into its shed tier without routing it.
pub fn classify(method: &str, path: &str) -> EndpointClass {
    if path == "/v1/stats" {
        return EndpointClass::Control;
    }
    // The read/write split tracks the HTTP method exactly: every
    // read-only endpoint (question, snapshot, session status, listings)
    // is a GET; every mutating one (create, answers, restore, delete)
    // is not.
    if method == "GET" {
        EndpointClass::ReadOnly
    } else {
        EndpointClass::Mutating
    }
}

/// Shedding thresholds. A request sheds when its tier's queue-depth
/// *or* rolling-latency threshold is exceeded.
#[derive(Debug, Clone, Copy)]
pub struct OverloadConfig {
    /// Queue depth above which [`EndpointClass::ReadOnly`] sheds.
    pub queue_soft: usize,
    /// Queue depth above which [`EndpointClass::Mutating`] sheds too.
    pub queue_hard: usize,
    /// Per-endpoint rolling latency (µs) above which read-only sheds.
    pub latency_soft_us: u64,
    /// Per-endpoint rolling latency (µs) above which mutating sheds.
    pub latency_hard_us: u64,
    /// The `Retry-After` hint (seconds) on shed responses.
    pub retry_after_s: u32,
}

impl Default for OverloadConfig {
    fn default() -> Self {
        OverloadConfig {
            // Depth counts requests a worker has taken and not yet
            // answered, so it never exceeds the worker count: with ≤ 32
            // workers these queue thresholds cannot fire, and by default
            // only the latency thresholds shed.
            queue_soft: 32,
            queue_hard: 128,
            latency_soft_us: 250_000,
            latency_hard_us: 1_000_000,
            retry_after_s: 1,
        }
    }
}

impl OverloadConfig {
    /// The admission decision for one request, given its framed head,
    /// the transport pressure, and the endpoint's rolling latency
    /// estimate (already time-decayed by the histogram, so a shed
    /// endpoint's estimate self-recovers — see the module docs).
    pub fn admit(&self, head: &RequestHead, pressure: Pressure, ewma_us: u64) -> Admission {
        let shed = Admission::Shed {
            retry_after_s: self.retry_after_s,
        };
        match classify(&head.method, &head.path) {
            EndpointClass::Control => Admission::Accept,
            EndpointClass::ReadOnly
                if pressure.queue_depth > self.queue_soft || ewma_us > self.latency_soft_us =>
            {
                shed
            }
            EndpointClass::Mutating
                if pressure.queue_depth > self.queue_hard || ewma_us > self.latency_hard_us =>
            {
                shed
            }
            _ => Admission::Accept,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(method: &str, path: &str) -> RequestHead {
        RequestHead::synthetic(method, path)
    }

    fn pressure(queue_depth: usize) -> Pressure {
        Pressure {
            queue_depth,
            open_connections: 10,
            workers: 8,
        }
    }

    #[test]
    fn tiers_follow_the_documented_shed_order() {
        assert_eq!(classify("GET", "/v1/stats"), EndpointClass::Control);
        assert_eq!(
            classify("GET", "/v1/universes/u/sessions/1/question"),
            EndpointClass::ReadOnly
        );
        assert_eq!(
            classify("GET", "/v1/universes/u/sessions/1/snapshot"),
            EndpointClass::ReadOnly
        );
        assert_eq!(classify("GET", "/v1/universes"), EndpointClass::ReadOnly);
        assert_eq!(
            classify("POST", "/v1/universes/u/sessions/1/answers"),
            EndpointClass::Mutating
        );
        assert_eq!(
            classify("POST", "/v1/universes/u/sessions"),
            EndpointClass::Mutating
        );
        assert_eq!(
            classify("POST", "/v1/universes/u/restore"),
            EndpointClass::Mutating
        );
        assert_eq!(
            classify("DELETE", "/v1/universes/u/sessions/1"),
            EndpointClass::Mutating
        );
    }

    #[test]
    fn read_only_sheds_before_mutating_and_stats_never_does() {
        let config = OverloadConfig {
            queue_soft: 4,
            queue_hard: 16,
            ..OverloadConfig::default()
        };
        let question = request("GET", "/v1/universes/u/sessions/1/question");
        let answers = request("POST", "/v1/universes/u/sessions/1/answers");
        let stats = request("GET", "/v1/stats");

        // Calm: everyone admitted.
        for r in [&question, &answers, &stats] {
            assert_eq!(config.admit(r, pressure(2), 0), Admission::Accept);
        }
        // Past soft: reads shed, writes and stats do not.
        assert!(matches!(
            config.admit(&question, pressure(8), 0),
            Admission::Shed { retry_after_s: 1 }
        ));
        assert_eq!(config.admit(&answers, pressure(8), 0), Admission::Accept);
        assert_eq!(config.admit(&stats, pressure(8), 0), Admission::Accept);
        // Past hard: writes shed too; stats still answers.
        assert!(matches!(
            config.admit(&answers, pressure(20), 0),
            Admission::Shed { .. }
        ));
        assert_eq!(config.admit(&stats, pressure(20), 0), Admission::Accept);
    }

    #[test]
    fn rolling_latency_sheds_even_at_low_queue_depth() {
        let config = OverloadConfig::default();
        let question = request("GET", "/v1/universes/u/sessions/1/question");
        let answers = request("POST", "/v1/universes/u/sessions/1/answers");
        // A slow endpoint sheds its own readers first.
        assert!(matches!(
            config.admit(&question, pressure(1), 300_000),
            Admission::Shed { .. }
        ));
        assert_eq!(
            config.admit(&answers, pressure(1), 300_000),
            Admission::Accept
        );
        assert!(matches!(
            config.admit(&answers, pressure(1), 1_500_000),
            Admission::Shed { .. }
        ));
    }
}
