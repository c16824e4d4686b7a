//! The `throughput` benchmark: the `jqi_server` session service under
//! concurrent load.
//!
//! M worker threads drive K sessions each over one shared
//! `SessionManager` on the paper's flight & hotel instance — every session
//! a different simulated user (goals cycle through the instance's
//! non-nullable predicates, strategies through the paper's mix). Six
//! phases are measured:
//!
//! 1. **interactive** — all `M·K` sessions live at once, each driven
//!    question-by-question to completion; the per-answer latency
//!    distribution covers the full service path (shard lookup, session
//!    lock, incremental state update, next-question strategy work).
//!    Afterwards the manager's [`SessionManager::stats`] are sampled, so
//!    the report carries the resident per-session memory (mask-compressed
//!    derived state + history log) and footprint regressions are visible.
//! 2. **batch** — fresh sessions fed their entire recorded label history
//!    through one `answer_batch` call each, the crowdsourcing arrival
//!    shape; latency is per batch, with the per-answer cost derived.
//! 3. **fleet** — the universe-level decision cache under a fleet of LkS
//!    sessions on a TPC-H workload: first-question latency with the cache
//!    disabled (*cold* — every session pays the full-candidate-set
//!    lookahead) versus enabled (*warm* — the first session computes,
//!    the rest answer from the shared cache), with the cache's
//!    hit/miss/eviction counters and resident bytes in the report.
//! 4. **hibernate** — the interactive fleet parked into the hibernation
//!    tier: resident vs parked bytes per session, and the wake (lazy
//!    re-materialization by replay) latency distribution.
//! 5. **durability** — the same interactive workload on a *durable*
//!    manager (real files, real fsync): per-answer latency with group
//!    commit (`wal_group`, one batched write + fsync per 2048 records,
//!    plus one final flush inside the timed region) and with an fsync per
//!    record (`wal_sync`, the cost ceiling), each also as a throughput
//!    ratio against the in-memory interactive phase (answers/s divided by
//!    WAL-on answers/s — the acceptance gate holds this within 3×); then
//!    the whole fleet is parked, spilled to segments, the manager dropped,
//!    and `SessionManager::recover` is timed — recovery wall clock and
//!    sessions/s.
//! 6. **overload** — the load shedder under several times more offered
//!    load than the worker pool serves, through the chaos proxy: an
//!    uncontended pass sets the latency baseline, then a client fleet
//!    alternates session creates (admitted writes) with each session's
//!    cold first LkS question (the expensive, sheddable read) while two
//!    faulted connections (delay, drip) ride along. Reported:
//!    accepted-vs-shed split, both latency distributions, the
//!    accepted-p99-over-baseline ratio, goodput, and the must-be-zero
//!    wedge/error counters.
//!
//! Snapshot/restore and HTTP request latency are perfbench's to measure
//! (`manager.snapshot_us_p50`, `manager.restore_us_p50`, `crowd`'s
//! `question_p50_us`); `docs/BENCHMARKS.md` maps each retired phase to
//! its replacement. Every latency distribution is recorded into
//! per-thread [`LatencyHistogram`]s outside the timed span and merged
//! after the threads join, so no thread contends on another's counters.
//!
//! The `throughput` binary renders a table and writes `BENCH_server.json`
//! at the repo root; see the README for the schema.

use crate::json::{arr, Json, ToJson};
use jqi_core::paper::flight_hotel;
use jqi_core::{ClassId, DecisionCacheStats, Label, StrategyConfig, Universe};
use jqi_relation::BitSet;
use jqi_server::http::{LatencyHistogram, LatencySummary};
use jqi_server::{DurabilityConfig, ManagerStats, ServerConfig, SessionManager};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load parameters.
#[derive(Debug, Clone, Copy)]
pub struct ThroughputParams {
    /// Worker threads (M).
    pub threads: usize,
    /// Sessions per worker thread (K); `M·K` sessions are live at once.
    pub sessions_per_thread: usize,
    /// Shards of the session table.
    pub shards: usize,
    /// Seed for the RND sessions in the strategy mix.
    pub seed: u64,
}

impl Default for ThroughputParams {
    fn default() -> Self {
        ThroughputParams {
            threads: 8,
            sessions_per_thread: 128,
            shards: 16,
            seed: 0xC0FFEE,
        }
    }
}

impl ThroughputParams {
    /// CI-smoke sizes.
    pub fn tiny() -> Self {
        ThroughputParams {
            threads: 2,
            sessions_per_thread: 8,
            ..Self::default()
        }
    }
}

/// The summary of a phase's merged histogram (every phase records at
/// least one sample).
fn summarize(histogram: &LatencyHistogram) -> LatencySummary {
    histogram.summary().expect("no latency samples recorded")
}

/// One measured phase.
#[derive(Debug, Clone)]
pub struct PhaseReport {
    /// `"interactive"`, `"batch"`, `"wal_group"` or `"wal_sync"`.
    pub name: &'static str,
    /// Wall-clock for the whole phase, in seconds.
    pub elapsed_s: f64,
    /// Operations per second over the phase wall-clock (answers for the
    /// interactive and WAL phases, batches for the batch phase).
    pub ops_per_sec: f64,
    /// Latency of one operation.
    pub latency: LatencySummary,
}

impl ToJson for PhaseReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("phase".into(), Json::str(self.name)),
            ("elapsed_s".into(), Json::Num(self.elapsed_s)),
            ("ops_per_sec".into(), Json::Num(self.ops_per_sec)),
            ("latency".into(), self.latency.to_json()),
        ])
    }
}

/// The decision-cache counters as a JSON object.
fn cache_json(stats: &DecisionCacheStats) -> Json {
    Json::Obj(vec![
        ("hits".into(), Json::num(stats.hits as f64)),
        ("misses".into(), Json::num(stats.misses as f64)),
        ("evictions".into(), Json::num(stats.evictions as f64)),
        ("entries".into(), Json::num(stats.entries as f64)),
        ("bytes".into(), Json::num(stats.bytes as f64)),
        ("budget_bytes".into(), Json::num(stats.budget_bytes as f64)),
    ])
}

/// The fleet phase: cold vs warm first-question latency of a deterministic
/// lookahead fleet over one shared TPC-H universe.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Workload label, e.g. `"tpch SF=small Join 4"`.
    pub instance: String,
    /// The fleet's strategy config string (e.g. `"LKS:2"`).
    pub strategy: String,
    /// Sessions in the cold fleet (decision cache disabled).
    pub cold_sessions: usize,
    /// Sessions in the warm fleet (shared decision cache enabled).
    pub warm_sessions: usize,
    /// First-question latency with every session computing the lookahead.
    pub cold_first_question: LatencySummary,
    /// First-question latency with the shared cache (first session
    /// computes, the rest probe).
    pub warm_first_question: LatencySummary,
    /// `cold mean / warm mean`.
    pub warm_speedup: f64,
    /// The warm universe's cache counters after the fleet ran.
    pub cache: DecisionCacheStats,
}

impl ToJson for FleetReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("instance".into(), Json::str(&self.instance)),
            ("strategy".into(), Json::str(&self.strategy)),
            ("cold_sessions".into(), Json::num(self.cold_sessions as f64)),
            ("warm_sessions".into(), Json::num(self.warm_sessions as f64)),
            (
                "cold_first_question".into(),
                self.cold_first_question.to_json(),
            ),
            (
                "warm_first_question".into(),
                self.warm_first_question.to_json(),
            ),
            ("warm_speedup".into(), Json::Num(self.warm_speedup)),
            ("decision_cache".into(), cache_json(&self.cache)),
        ])
    }
}

/// The hibernate phase: the interactive fleet parked and woken again.
#[derive(Debug, Clone)]
pub struct HibernateReport {
    /// Fleet size.
    pub sessions: usize,
    /// Sessions the zero-TTL sweep actually parked.
    pub parked: usize,
    /// Mean full resident footprint per materialized session before
    /// parking (session struct + derived-state heap + history heap).
    pub resident_bytes_per_session: f64,
    /// Mean derived-state heap per materialized session (the PR-4 metric,
    /// kept for continuity).
    pub state_bytes_per_session: f64,
    /// Mean resident bytes per parked session (replay log + pending
    /// marker).
    pub hibernated_bytes_per_session: f64,
    /// Latency of the first touch after parking: lazy re-materialization
    /// by replay through one `apply_batch`.
    pub wake: LatencySummary,
}

impl ToJson for HibernateReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("sessions".into(), Json::num(self.sessions as f64)),
            ("parked".into(), Json::num(self.parked as f64)),
            (
                "resident_bytes_per_session".into(),
                Json::Num(self.resident_bytes_per_session),
            ),
            (
                "state_bytes_per_session".into(),
                Json::Num(self.state_bytes_per_session),
            ),
            (
                "hibernated_bytes_per_session".into(),
                Json::Num(self.hibernated_bytes_per_session),
            ),
            ("wake".into(), self.wake.to_json()),
        ])
    }
}

/// The recovery half of the durability phase: a crashed (well, dropped)
/// fleet rebuilt from its WAL + spill segments.
#[derive(Debug, Clone)]
pub struct RecoveryBench {
    /// Sessions recovered.
    pub sessions: usize,
    /// …of which came back in the spilled (on-disk) tier.
    pub spilled: usize,
    /// WAL records replayed.
    pub wal_records: u64,
    /// Recovery wall clock, milliseconds.
    pub elapsed_ms: f64,
    /// Sessions recovered per second.
    pub sessions_per_sec: f64,
}

impl ToJson for RecoveryBench {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("sessions".into(), Json::num(self.sessions as f64)),
            ("spilled".into(), Json::num(self.spilled as f64)),
            ("wal_records".into(), Json::num(self.wal_records as f64)),
            ("elapsed_ms".into(), Json::Num(self.elapsed_ms)),
            ("sessions_per_sec".into(), Json::Num(self.sessions_per_sec)),
        ])
    }
}

/// The durability phase: the interactive workload with a real WAL under
/// it, plus a timed recovery.
#[derive(Debug, Clone)]
pub struct DurabilityReport {
    /// Fleet size.
    pub sessions: usize,
    /// The in-memory interactive phase's per-answer mean, the latency
    /// context for the WAL-on means below.
    pub in_memory_mean_us: f64,
    /// Per-answer latency with group commit (one batched write + fsync
    /// per 2048 records) — the recommended configuration.
    pub wal_group: PhaseReport,
    /// Per-answer latency with an fsync per record — the cost ceiling.
    pub wal_sync: PhaseReport,
    /// Throughput cost of group commit: in-memory answers/s divided by
    /// WAL-on answers/s. The acceptance gate: ≤ 3.
    pub overhead_group_x: f64,
    /// Throughput cost of an fsync per record, same ratio.
    pub overhead_sync_x: f64,
    /// WAL records the group-commit run appended.
    pub wal_records: u64,
    /// fsyncs the group-commit run issued (records / syncs is the
    /// realized group size).
    pub wal_syncs: u64,
    /// WAL bytes the group-commit run appended, frames included.
    pub wal_bytes: u64,
    /// The timed recovery of the group-commit run's directory.
    pub recovery: RecoveryBench,
}

impl ToJson for DurabilityReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("sessions".into(), Json::num(self.sessions as f64)),
            (
                "in_memory_mean_us".into(),
                Json::Num(self.in_memory_mean_us),
            ),
            ("wal_group".into(), self.wal_group.to_json()),
            ("wal_sync".into(), self.wal_sync.to_json()),
            ("overhead_group_x".into(), Json::Num(self.overhead_group_x)),
            ("overhead_sync_x".into(), Json::Num(self.overhead_sync_x)),
            ("wal_records".into(), Json::num(self.wal_records as f64)),
            ("wal_syncs".into(), Json::num(self.wal_syncs as f64)),
            ("wal_bytes".into(), Json::num(self.wal_bytes as f64)),
            ("recovery".into(), self.recovery.to_json()),
        ])
    }
}

/// The overload phase: the gateway behind the chaos proxy under more
/// offered load than its worker pool can serve, with tight admission
/// thresholds — the measurement of the load shedder itself. A clean
/// uncontended pass on the same wire path sets the latency baseline;
/// then a fleet of clients several times the worker pool hammers the
/// same endpoints. The acceptance shape: accepted requests stay within
/// a small factor of the uncontended p99 (the queue a request waits
/// behind is bounded by the shed thresholds), shed responses come back
/// in well under a millisecond (the 503 is written before routing or
/// body parsing), nothing wedges, and the wire stays clean.
#[derive(Debug, Clone)]
pub struct OverloadReport {
    /// Metered load clients (each one keep-alive connection through the
    /// chaos proxy).
    pub clients: usize,
    /// Extra fault-ridden clients (delayed / dripping connections) that
    /// ride along unmetered — they must not wedge or corrupt anything.
    pub chaos_clients: usize,
    /// Server worker threads the load is offered against.
    pub server_workers: usize,
    /// Requests the metered clients offered.
    pub offered: usize,
    /// …of which were admitted and served.
    pub accepted: usize,
    /// …of which were shed with `503 overloaded` + `Retry-After`.
    pub shed: usize,
    /// Responses on metered connections that were neither a served 200
    /// nor a well-formed shed — must be 0.
    pub client_errors: u64,
    /// Wire-level protocol errors the server observed — must be 0 (the
    /// phase's faults delay bytes, they never corrupt them).
    pub protocol_errors: u64,
    /// Clients still unfinished at the phase deadline — must be 0.
    pub wedged: usize,
    /// Faults the chaos proxy injected.
    pub faults_injected: u64,
    /// Same-wire-path latency with a single client (the baseline).
    pub uncontended: LatencySummary,
    /// Client-measured latency of accepted requests under overload.
    pub accepted_latency: LatencySummary,
    /// Client-measured latency of shed responses.
    pub shed_latency: LatencySummary,
    /// `accepted p99 / uncontended p99` — the queue-bounding headline.
    pub p99_ratio: f64,
    /// Accepted (served) requests per second over the contended window.
    pub goodput_per_sec: f64,
    /// Contended window wall clock, seconds.
    pub elapsed_s: f64,
}

impl ToJson for OverloadReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("clients".into(), Json::num(self.clients as f64)),
            ("chaos_clients".into(), Json::num(self.chaos_clients as f64)),
            (
                "server_workers".into(),
                Json::num(self.server_workers as f64),
            ),
            ("offered".into(), Json::num(self.offered as f64)),
            ("accepted".into(), Json::num(self.accepted as f64)),
            ("shed".into(), Json::num(self.shed as f64)),
            ("client_errors".into(), Json::num(self.client_errors as f64)),
            (
                "protocol_errors".into(),
                Json::num(self.protocol_errors as f64),
            ),
            ("wedged".into(), Json::num(self.wedged as f64)),
            (
                "faults_injected".into(),
                Json::num(self.faults_injected as f64),
            ),
            ("uncontended".into(), self.uncontended.to_json()),
            ("accepted_latency".into(), self.accepted_latency.to_json()),
            ("shed_latency".into(), self.shed_latency.to_json()),
            ("p99_ratio".into(), Json::Num(self.p99_ratio)),
            ("goodput_per_sec".into(), Json::Num(self.goodput_per_sec)),
            ("elapsed_s".into(), Json::Num(self.elapsed_s)),
        ])
    }
}

/// The full benchmark report.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// The parameters the run used.
    pub params: ThroughputParams,
    /// `threads · sessions_per_thread`.
    pub concurrent_sessions: usize,
    /// Total answers applied in the interactive phase.
    pub total_answers: usize,
    /// The measured phases.
    pub phases: Vec<PhaseReport>,
    /// Per-session resident memory, sampled after the interactive phase
    /// while all sessions are live and fully answered.
    pub session_memory: ManagerStats,
    /// The decision-cache fleet phase (cold vs warm first questions).
    pub fleet: FleetReport,
    /// The hibernation phase (park + wake the interactive fleet).
    pub hibernate: HibernateReport,
    /// The durability phase (WAL overhead + timed recovery).
    pub durability: DurabilityReport,
    /// The overload phase (load shedding under chaos-proxied pressure).
    pub overload: OverloadReport,
}

impl ToJson for ThroughputReport {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("bench".into(), Json::str("server_throughput")),
            ("instance".into(), Json::str("flight_hotel")),
            ("threads".into(), Json::num(self.params.threads as f64)),
            (
                "sessions_per_thread".into(),
                Json::num(self.params.sessions_per_thread as f64),
            ),
            (
                "concurrent_sessions".into(),
                Json::num(self.concurrent_sessions as f64),
            ),
            ("shards".into(), Json::num(self.params.shards as f64)),
            ("seed".into(), Json::num(self.params.seed as f64)),
            ("total_answers".into(), Json::num(self.total_answers as f64)),
            (
                "session_memory".into(),
                Json::Obj(vec![
                    (
                        "sessions".into(),
                        Json::num(self.session_memory.sessions as f64),
                    ),
                    (
                        "resident_sessions".into(),
                        Json::num(self.session_memory.resident_sessions as f64),
                    ),
                    (
                        "hibernated_sessions".into(),
                        Json::num(self.session_memory.hibernated_sessions as f64),
                    ),
                    (
                        "state_bytes_total".into(),
                        Json::num(self.session_memory.state_bytes as f64),
                    ),
                    (
                        "state_bytes_per_session".into(),
                        Json::Num(self.session_memory.state_bytes_per_session()),
                    ),
                    (
                        "resident_bytes_total".into(),
                        Json::num(self.session_memory.resident_bytes as f64),
                    ),
                    (
                        "resident_bytes_per_session".into(),
                        Json::Num(self.session_memory.resident_bytes_per_session()),
                    ),
                    (
                        "history_bytes_total".into(),
                        Json::num(self.session_memory.history_bytes as f64),
                    ),
                    (
                        "hibernated_bytes_total".into(),
                        Json::num(self.session_memory.hibernated_bytes as f64),
                    ),
                    (
                        "decision_cache".into(),
                        cache_json(&self.session_memory.decision_cache),
                    ),
                ]),
            ),
            ("phases".into(), arr(&self.phases)),
            ("fleet".into(), self.fleet.to_json()),
            ("hibernate".into(), self.hibernate.to_json()),
            ("durability".into(), self.durability.to_json()),
            ("overload".into(), self.overload.to_json()),
        ])
    }
}

impl ThroughputReport {
    /// Renders the phases as an aligned plain-text table.
    pub fn table(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} sessions ({} threads × {}), {} shards, {} interactive answers",
            self.concurrent_sessions,
            self.params.threads,
            self.params.sessions_per_thread,
            self.params.shards,
            self.total_answers,
        );
        let _ = writeln!(
            out,
            "session memory: {:.0} B derived state/session ({} B total), {} B history total",
            self.session_memory.state_bytes_per_session(),
            self.session_memory.state_bytes,
            self.session_memory.history_bytes,
        );
        let _ = writeln!(
            out,
            "{:<12} {:>10} {:>12} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "phase", "ops", "ops/s", "mean µs", "p50 µs", "p95 µs", "p99 µs", "max µs"
        );
        for p in &self.phases {
            let _ = writeln!(
                out,
                "{:<12} {:>10} {:>12.0} {:>10.1} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
                p.name,
                p.latency.count,
                p.ops_per_sec,
                p.latency.mean_us,
                p.latency.p50_us,
                p.latency.p95_us,
                p.latency.p99_us,
                p.latency.max_us,
            );
        }
        let _ = writeln!(
            out,
            "fleet ({} / {}): first question cold {:.1} µs mean ({} sessions) vs warm {:.3} µs \
             mean ({} sessions) — {:.0}× ({} hits / {} misses, {} B cache of {} B budget)",
            self.fleet.instance,
            self.fleet.strategy,
            self.fleet.cold_first_question.mean_us,
            self.fleet.cold_sessions,
            self.fleet.warm_first_question.mean_us,
            self.fleet.warm_sessions,
            self.fleet.warm_speedup,
            self.fleet.cache.hits,
            self.fleet.cache.misses,
            self.fleet.cache.bytes,
            self.fleet.cache.budget_bytes,
        );
        let _ = writeln!(
            out,
            "hibernate: {} of {} sessions parked, {:.0} B resident → {:.0} B parked per \
             session; wake mean {:.1} µs / p50 {:.1} µs",
            self.hibernate.parked,
            self.hibernate.sessions,
            self.hibernate.resident_bytes_per_session,
            self.hibernate.hibernated_bytes_per_session,
            self.hibernate.wake.mean_us,
            self.hibernate.wake.p50_us,
        );
        let _ = writeln!(
            out,
            "durability: group-commit {:.1} µs/answer ({:.2}× throughput cost, {} fsyncs \
             / {} records), fsync-per-record {:.1} µs ({:.2}×); recovery {} sessions \
             ({} spilled, {} WAL records) in {:.1} ms — {:.0} sessions/s",
            self.durability.wal_group.latency.mean_us,
            self.durability.overhead_group_x,
            self.durability.wal_syncs,
            self.durability.wal_records,
            self.durability.wal_sync.latency.mean_us,
            self.durability.overhead_sync_x,
            self.durability.recovery.sessions,
            self.durability.recovery.spilled,
            self.durability.recovery.wal_records,
            self.durability.recovery.elapsed_ms,
            self.durability.recovery.sessions_per_sec,
        );
        let _ = writeln!(
            out,
            "overload: {} clients (+{} chaos) → {} workers via chaos proxy; {} offered, \
             {} accepted at {:.0}/s (p99 {:.1} µs, {:.2}× uncontended), {} shed at mean \
             {:.1} µs; {} wedged, {} client errors, {} protocol errors, {} faults injected",
            self.overload.clients,
            self.overload.chaos_clients,
            self.overload.server_workers,
            self.overload.offered,
            self.overload.accepted,
            self.overload.goodput_per_sec,
            self.overload.accepted_latency.p99_us,
            self.overload.p99_ratio,
            self.overload.shed,
            self.overload.shed_latency.mean_us,
            self.overload.wedged,
            self.overload.client_errors,
            self.overload.protocol_errors,
            self.overload.faults_injected,
        );
        out
    }
}

/// The per-session setup the phases share: strategy mix + goal oracle.
struct SessionPlan {
    config: StrategyConfig,
    goal: BitSet,
}

fn plans(universe: &Universe, n: usize, seed: u64) -> Vec<SessionPlan> {
    let goals =
        jqi_core::lattice::non_nullable_predicates(universe, 100_000).expect("tiny lattice");
    assert!(!goals.is_empty(), "flight & hotel has non-nullable goals");
    (0..n)
        .map(|i| {
            let config = match i % 5 {
                0 => StrategyConfig::Bu,
                1 => StrategyConfig::Td,
                2 => StrategyConfig::Lks { depth: 1 },
                3 => StrategyConfig::Lks { depth: 2 },
                _ => StrategyConfig::Rnd {
                    seed: seed ^ i as u64,
                },
            };
            SessionPlan {
                config,
                goal: goals[i % goals.len()].clone(),
            }
        })
        .collect()
}

/// One recorded session: its plan index plus the answers it gave.
type RecordedHistory = (usize, Vec<(ClassId, Label)>);

fn oracle_label(universe: &Universe, goal: &BitSet, class: ClassId) -> Label {
    if goal.is_subset(universe.sig(class)) {
        Label::Positive
    } else {
        Label::Negative
    }
}

/// Runs the six phases and assembles the report.
pub fn run(tiny: bool, params: ThroughputParams) -> ThroughputReport {
    let params = if tiny {
        ThroughputParams::tiny()
    } else {
        params
    };
    let universe = Arc::new(Universe::build(flight_hotel()));
    let total_sessions = params.threads * params.sessions_per_thread;
    let plans = plans(&universe, total_sessions, params.seed);
    let manager = Arc::new(SessionManager::new(
        Arc::clone(&universe),
        ServerConfig {
            shards: params.shards,
            ..ServerConfig::default()
        },
    ));

    // All sessions exist before any is driven: the interactive phase
    // exercises `total_sessions` *concurrent* sessions, not a trickle.
    let ids: Vec<u64> = plans
        .iter()
        .map(|p| manager.create_session(p.config.clone()).expect("in-memory"))
        .collect();
    assert_eq!(manager.session_count(), total_sessions);

    // Phase 1: interactive question/answer loops, one slice per thread.
    let phase_start = Instant::now();
    let interactive_lat = LatencyHistogram::new();
    let mut histories: Vec<Vec<RecordedHistory>> = Vec::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..params.threads)
            .map(|t| {
                let manager = Arc::clone(&manager);
                let universe = Arc::clone(&universe);
                let plans = &plans;
                let ids = &ids;
                scope.spawn(move || {
                    let lo = t * params.sessions_per_thread;
                    let hi = lo + params.sessions_per_thread;
                    let lat = LatencyHistogram::new();
                    let mut recorded = Vec::new();
                    for i in lo..hi {
                        let id = ids[i];
                        loop {
                            // One timed sample = the full service cycle:
                            // question selection (strategy work under the
                            // session lock) plus the answer's incremental
                            // state update.
                            let t0 = Instant::now();
                            let q = match manager.next_question(id).expect("live session") {
                                Some(q) => q,
                                None => break,
                            };
                            let label = oracle_label(&universe, &plans[i].goal, q.class);
                            manager.answer(id, q.class, label).expect("consistent");
                            lat.record(t0.elapsed());
                        }
                        let snap = manager.snapshot(id).expect("live session");
                        recorded.push((i, snap.history));
                    }
                    (lat, recorded)
                })
            })
            .collect();
        for handle in handles {
            let (lat, recorded) = handle.join().expect("no panics");
            interactive_lat.merge(&lat);
            histories.push(recorded);
        }
    });
    let interactive_elapsed = phase_start.elapsed().as_secs_f64();
    let latency = summarize(&interactive_lat);
    let total_answers = latency.count as usize;
    let interactive = PhaseReport {
        name: "interactive",
        elapsed_s: interactive_elapsed,
        ops_per_sec: total_answers as f64 / interactive_elapsed,
        latency,
    };
    // Resident footprint while every session is live and fully answered.
    let session_memory = manager.stats();

    // Phase 2: the same answer streams folded in as one batch per fresh
    // session (the crowdsourcing arrival shape).
    let flat_histories: Vec<RecordedHistory> = histories.into_iter().flatten().collect();
    let batch_manager = Arc::new(SessionManager::new(
        Arc::clone(&universe),
        ServerConfig {
            shards: params.shards,
            ..ServerConfig::default()
        },
    ));
    let phase_start = Instant::now();
    let batch_lat = LatencyHistogram::new();
    std::thread::scope(|scope| {
        let chunks = flat_histories.chunks(params.sessions_per_thread.max(1));
        let handles: Vec<_> = chunks
            .map(|chunk| {
                let manager = Arc::clone(&batch_manager);
                let plans = &plans;
                scope.spawn(move || {
                    let lat = LatencyHistogram::new();
                    for (i, history) in chunk {
                        let id = manager
                            .create_session(plans[*i].config.clone())
                            .expect("in-memory");
                        let t0 = Instant::now();
                        let applied = manager.answer_batch(id, history).expect("consistent");
                        lat.record(t0.elapsed());
                        assert_eq!(applied, history.len());
                    }
                    lat
                })
            })
            .collect();
        for handle in handles {
            batch_lat.merge(&handle.join().expect("no panics"));
        }
    });
    let batch_elapsed = phase_start.elapsed().as_secs_f64();
    let latency = summarize(&batch_lat);
    let batch = PhaseReport {
        name: "batch",
        elapsed_s: batch_elapsed,
        ops_per_sec: latency.count as f64 / batch_elapsed,
        latency,
    };

    // Phase 3: the decision cache under an LkS fleet on TPC-H — cold
    // (cache disabled, every session pays the full first-question
    // lookahead) vs warm (shared cache; the first session computes, the
    // rest probe).
    let fleet = fleet_phase(tiny, params.seed);

    // Phase 4: hibernation — park the fully-answered interactive fleet,
    // then touch every session once so the wake path (lazy
    // re-materialization by replay) is measured at fleet scale.
    let parked = manager
        .hibernate_idle(Duration::ZERO)
        .expect("in-memory")
        .parked;
    let parked_stats = manager.stats();
    let wake_lat = LatencyHistogram::new();
    for &id in &ids {
        let t0 = Instant::now();
        let _ = manager.next_question(id).expect("live session");
        wake_lat.record(t0.elapsed());
    }
    let hibernate = HibernateReport {
        sessions: total_sessions,
        parked,
        resident_bytes_per_session: session_memory.resident_bytes_per_session(),
        state_bytes_per_session: session_memory.state_bytes_per_session(),
        hibernated_bytes_per_session: parked_stats.hibernated_bytes_per_session(),
        wake: summarize(&wake_lat),
    };

    // Phase 5: durability — the interactive workload again, this time
    // with a real WAL (and spill segments) under it, then a timed
    // recovery of the whole fleet.
    let durability = durability_phase(&params, &universe, &plans, &interactive);

    // Phase 6: overload — more load than the worker pool can serve,
    // offered through the chaos proxy against tight admission
    // thresholds; measures the shedder, not the service.
    let overload = overload_phase(tiny, params.seed);

    ThroughputReport {
        params,
        concurrent_sessions: total_sessions,
        total_answers,
        phases: vec![interactive, batch],
        session_memory,
        fleet,
        hibernate,
        durability,
        overload,
    }
}

/// Drives the overload phase (see [`OverloadReport`]).
///
/// Topology: a 4-worker gateway with `queue_soft: 2` / `queue_hard`
/// above the worker count, reached only through a [`jqi_net::ChaosProxy`]
/// whose script delays one connection and drip-feeds another (the two
/// unmetered chaos clients) and relays the rest untouched. One clean
/// client measures the uncontended baseline first; then every metered
/// client alternates a read (`GET` its session's first question — sheds
/// past the soft threshold) with a write (`POST` a new session — the
/// queue depth never exceeds the workers, so it is admitted), so under
/// pressure both outcomes occur: writes land, reads shed. Metered
/// clients run a fixed request budget, extended (bounded) until the
/// fleet has collectively seen a minimum number of sheds, so the
/// shed-latency summary is never empty on a fast machine.
fn overload_phase(tiny: bool, seed: u64) -> OverloadReport {
    use jqi_datagen::tpch::{workload, TpchJoin, TpchScale};
    use jqi_net::{ChaosProxy, ChaosScript, Client, Fault, NetConfig};
    use jqi_server::http::{serve_with, OverloadConfig, UniverseRegistry};
    use std::sync::atomic::{AtomicU64, Ordering};

    // 2× offered load: twice as many always-outstanding clients as
    // worker threads — the acceptance shape. The request mix is create →
    // first LkS question on a cold-cache TPC-H universe, so every
    // accepted read is milliseconds of real lookahead compute: the
    // accepted p99 then tracks the queue an admitted request waits
    // behind (what the shedder bounds), not per-request scheduler noise.
    let (clients_n, per_client, uncontended_n) = if tiny { (8, 40, 12) } else { (8, 200, 60) };
    let chaos_clients_n = 2usize;
    let min_shed = 25u64;
    let wedge_deadline = Duration::from_secs(30);
    let strategy_body = "{\"strategy\": \"LKS:2\"}";

    let tpch = workload(TpchScale::Small, TpchJoin::Join4, seed);
    let universe = Arc::new(Universe::build(tpch.instance).with_decision_cache_budget(0));
    let registry = Arc::new(UniverseRegistry::new());
    registry
        .register(
            "bench",
            Arc::new(SessionManager::new(
                Arc::clone(&universe),
                ServerConfig::default(),
            )),
        )
        .expect("fresh registry");
    // Twice as many clients as workers (the 2× offered shape). The
    // soft tier admits at most a couple of expensive reads at once, so
    // the spare workers stay free to write sheds immediately instead of
    // queueing them behind a lookahead in progress.
    let net = NetConfig {
        workers: 4,
        max_connections: clients_n + chaos_clients_n + 16,
        ..NetConfig::default()
    };
    let server_workers = net.workers;
    let overload = OverloadConfig {
        // Reads shed once more than two requests are in workers' hands,
        // which bounds the work an accepted read shares the CPUs with —
        // that bound, not the offered load, is what the accepted p99
        // tracks (the p99_ratio acceptance bar). Depth never exceeds
        // the 4 workers, so `queue_hard: 6` never sheds a write.
        queue_soft: 2,
        queue_hard: 6,
        retry_after_s: 1,
        ..OverloadConfig::default()
    };
    let (mut server, _gateway) =
        serve_with(Arc::clone(&registry), "127.0.0.1:0", net, overload).expect("loopback bind");
    // Connection 0 is the clean uncontended baseline; 1 and 2 are the
    // chaos clients' (delayed, dripping); everything after runs clean.
    let script = ChaosScript {
        seed: 0x10AD,
        faults: vec![
            Fault::None,
            Fault::Delay { ms: 10 },
            Fault::Drip { chunk: 16, ms: 1 },
        ],
    };
    let mut proxy = ChaosProxy::spawn(server.local_addr(), script).expect("proxy bind");
    let addr = proxy.local_addr();

    fn classify(resp: &jqi_net::ClientResponse) -> Result<bool, String> {
        // Ok(true) = served, Ok(false) = well-formed shed, Err = neither.
        let doc = resp
            .body_str()
            .ok()
            .and_then(|t| Json::parse(t).ok())
            .ok_or_else(|| format!("unparseable body at status {}", resp.status))?;
        match resp.status {
            200 | 201 => Ok(true),
            503 => {
                let code = doc
                    .get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str);
                let hinted = resp.headers.iter().any(|(n, _)| n == "retry-after");
                if code == Some("overloaded") && hinted {
                    Ok(false)
                } else {
                    Err(format!("503 without shed shape: {:?}", resp.body_str()))
                }
            }
            other => Err(format!("unexpected status {other}: {:?}", resp.body_str())),
        }
    }

    // Pulls the session id out of a 201 create response.
    fn created_sid(resp: &jqi_net::ClientResponse) -> Option<u64> {
        resp.body_str()
            .ok()
            .and_then(|t| Json::parse(t).ok())
            .and_then(|doc| doc.get("session").and_then(Json::as_num))
            .map(|n| n as u64)
    }

    // Uncontended baseline: one client, same wire path and request mix,
    // no competition. Each GET is a fresh session's first question, so
    // with the decision cache off every one pays the full lookahead.
    let baseline_lat = LatencyHistogram::new();
    let mut base = Client::connect(addr).expect("baseline connect");
    let mut base_sid = 0u64;
    for r in 0..uncontended_n {
        let t0 = Instant::now();
        let resp = if r % 2 == 0 {
            base.post("/v1/universes/bench/sessions", strategy_body)
        } else {
            base.get(&format!("/v1/universes/bench/sessions/{base_sid}/question"))
        }
        .expect("baseline request");
        baseline_lat.record(t0.elapsed());
        assert!(
            classify(&resp).expect("baseline must be clean"),
            "the uncontended pass must never shed"
        );
        if resp.status == 201 {
            base_sid = created_sid(&resp).expect("session id");
        }
    }
    let uncontended = summarize(&baseline_lat);

    // Connect everything up front, in order, so chaos connection indexes
    // are deterministic; each metered client gets its own session while
    // the wire is still calm.
    let chaos_conns: Vec<Client> = (0..chaos_clients_n)
        .map(|_| Client::connect(addr).expect("chaos connect"))
        .collect();
    let metered: Vec<(Client, u64)> = (0..clients_n)
        .map(|_| {
            let mut client = Client::connect(addr).expect("metered connect");
            let created = client
                .post("/v1/universes/bench/sessions", strategy_body)
                .expect("metered create");
            assert_eq!(created.status, 201, "{:?}", created.body_str());
            let sid = created_sid(&created).expect("session id");
            (client, sid)
        })
        .collect();

    let shed_total = AtomicU64::new(0);
    let phase_start = Instant::now();
    let accepted_lat = LatencyHistogram::new();
    let shed_lat = LatencyHistogram::new();
    let mut client_errors = 0u64;
    let mut wedged = 0usize;
    std::thread::scope(|scope| {
        // Chaos clients: unmetered read pressure over faulted
        // connections. They may be shed or served; they must finish.
        let chaos_handles: Vec<_> = chaos_conns
            .into_iter()
            .map(|mut client| {
                scope.spawn(move || {
                    let started = Instant::now();
                    let mut errors = 0u64;
                    for _ in 0..per_client / 2 {
                        match client.get("/v1/universes") {
                            Ok(resp) if classify(&resp).is_ok() => {}
                            _ => errors += 1,
                        }
                        // Paced: the chaos connections exist to push
                        // faulted bytes through the path, not to add
                        // offered load on top of the metered fleet.
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    (errors, started.elapsed())
                })
            })
            .collect();
        let metered_handles: Vec<_> = metered
            .into_iter()
            .map(|(mut client, mut sid)| {
                let shed_total = &shed_total;
                scope.spawn(move || {
                    let started = Instant::now();
                    let accepted = LatencyHistogram::new();
                    let shed = LatencyHistogram::new();
                    let mut errors = 0u64;
                    for r in 0..per_client * 4 {
                        // Past the base budget, keep offering load only
                        // until the fleet has its minimum shed sample.
                        if r >= per_client && shed_total.load(Ordering::Relaxed) >= min_shed {
                            break;
                        }
                        let t0 = Instant::now();
                        // Mutating create, then the cold first question
                        // on the session it made — the expensive read
                        // the soft tier sheds first.
                        let outcome = if r % 2 == 0 {
                            client.post("/v1/universes/bench/sessions", strategy_body)
                        } else {
                            client.get(&format!("/v1/universes/bench/sessions/{sid}/question"))
                        };
                        let elapsed = t0.elapsed();
                        match outcome {
                            Err(_) => errors += 1,
                            Ok(resp) => match classify(&resp) {
                                Ok(true) => {
                                    accepted.record(elapsed);
                                    if resp.status == 201 {
                                        sid = created_sid(&resp).unwrap_or(sid);
                                    }
                                }
                                Ok(false) => {
                                    shed.record(elapsed);
                                    shed_total.fetch_add(1, Ordering::Relaxed);
                                }
                                Err(_) => errors += 1,
                            },
                        }
                    }
                    (accepted, shed, errors, started.elapsed())
                })
            })
            .collect();
        for handle in chaos_handles {
            let (errors, elapsed) = handle.join().expect("no panics");
            client_errors += errors;
            if elapsed > wedge_deadline {
                wedged += 1;
            }
        }
        for handle in metered_handles {
            let (accepted, shed, errors, elapsed) = handle.join().expect("no panics");
            accepted_lat.merge(&accepted);
            shed_lat.merge(&shed);
            client_errors += errors;
            if elapsed > wedge_deadline {
                wedged += 1;
            }
        }
    });
    let elapsed_s = phase_start.elapsed().as_secs_f64();
    let chaos_stats = proxy.stats();
    let net_stats = server.stats();
    proxy.shutdown();
    server.shutdown();

    let count = |h: &LatencyHistogram| h.summary().map_or(0, |s| s.count as usize);
    let accepted = count(&accepted_lat);
    let shed = count(&shed_lat);
    let offered = accepted + shed + client_errors as usize;
    assert!(
        accepted > 0,
        "the overload mix must land some writes (all {offered} offered requests shed)"
    );
    assert!(
        shed > 0,
        "the overload mix must shed some reads (all {offered} offered requests served)"
    );
    let accepted_latency = summarize(&accepted_lat);
    let shed_latency = summarize(&shed_lat);
    OverloadReport {
        clients: clients_n,
        chaos_clients: chaos_clients_n,
        server_workers,
        offered,
        accepted,
        shed,
        client_errors,
        protocol_errors: net_stats.protocol_errors,
        wedged,
        faults_injected: chaos_stats.faults_injected,
        p99_ratio: accepted_latency.p99_us / uncontended.p99_us,
        goodput_per_sec: accepted as f64 / elapsed_s,
        uncontended,
        accepted_latency,
        shed_latency,
        elapsed_s,
    }
}

const GROUP_EVERY: usize = 2048;

fn durability_config(group_commit_every: usize) -> DurabilityConfig {
    DurabilityConfig {
        group_commit_every,
        // Zero watermark: a sweep spills every parked session, so the
        // recovery measurement covers segment reads, not just WAL replay.
        resident_watermark_bytes: Some(0),
        segment_max_bytes: 4 << 20,
    }
}

/// The interactive workload on a durable manager rooted at `dir`: same
/// fleet shape and thread layout as the in-memory interactive phase, so
/// the per-answer means are directly comparable. Returns the phase
/// report and the (still live) manager.
fn durable_drive(
    name: &'static str,
    params: &ThroughputParams,
    universe: &Arc<Universe>,
    plans: &[SessionPlan],
    dir: &std::path::Path,
    group_commit_every: usize,
) -> (PhaseReport, SessionManager) {
    let (manager, _) = SessionManager::recover(
        Arc::clone(universe),
        ServerConfig {
            shards: params.shards,
            ..ServerConfig::default()
        },
        durability_config(group_commit_every),
        dir,
    )
    .expect("fresh durable fleet");
    let manager = Arc::new(manager);
    let ids: Vec<u64> = plans
        .iter()
        .map(|p| {
            manager
                .create_session(p.config.clone())
                .expect("durable create")
        })
        .collect();
    let phase_start = Instant::now();
    let all = LatencyHistogram::new();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..params.threads)
            .map(|t| {
                let manager = Arc::clone(&manager);
                let universe = Arc::clone(universe);
                let ids = &ids;
                scope.spawn(move || {
                    let lo = t * params.sessions_per_thread;
                    let hi = lo + params.sessions_per_thread;
                    let lat = LatencyHistogram::new();
                    for i in lo..hi {
                        let id = ids[i];
                        loop {
                            let t0 = Instant::now();
                            let q = match manager.next_question(id).expect("live session") {
                                Some(q) => q,
                                None => break,
                            };
                            let label = oracle_label(&universe, &plans[i].goal, q.class);
                            manager.answer(id, q.class, label).expect("consistent");
                            lat.record(t0.elapsed());
                        }
                    }
                    lat
                })
            })
            .collect();
        for handle in handles {
            all.merge(&handle.join().expect("no panics"));
        }
    });
    // The batch the group-commit quota had not yet synced is part of the
    // workload's durability cost: flush inside the timed region so ops/s
    // stays honest.
    manager.flush_wal().expect("wal flush");
    let elapsed = phase_start.elapsed().as_secs_f64();
    let latency = summarize(&all);
    let report = PhaseReport {
        name,
        elapsed_s: elapsed,
        ops_per_sec: latency.count as f64 / elapsed,
        latency,
    };
    let manager = Arc::into_inner(manager).expect("worker threads joined");
    (report, manager)
}

/// Runs the durability phase (see the module docs). `in_memory` is the
/// in-memory interactive phase's report — the overhead baseline.
fn durability_phase(
    params: &ThroughputParams,
    universe: &Arc<Universe>,
    plans: &[SessionPlan],
    in_memory: &PhaseReport,
) -> DurabilityReport {
    let root =
        std::env::temp_dir().join(format!("jqi-throughput-durability-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Group commit — the recommended configuration, and the directory the
    // recovery measurement uses.
    let group_dir = root.join("group");
    let (wal_group, manager) = durable_drive(
        "wal_group",
        params,
        universe,
        plans,
        &group_dir,
        GROUP_EVERY,
    );
    // Park and spill the whole fleet so recovery exercises segment reads
    // and WAL replay together, then "crash" (drop without ceremony — the
    // data is already synced, which is the point).
    manager
        .hibernate_idle(Duration::ZERO)
        .expect("park the fleet");
    manager.sweep().expect("spill the fleet");
    let stats = manager.stats();
    let wal_stats = stats.durability.expect("durable manager has wal stats");
    drop(manager);

    let recover_start = Instant::now();
    let (recovered, recovery_report) = SessionManager::recover(
        Arc::clone(universe),
        ServerConfig {
            shards: params.shards,
            ..ServerConfig::default()
        },
        durability_config(GROUP_EVERY),
        &group_dir,
    )
    .expect("recovery of a cleanly synced fleet");
    let elapsed_ms = recover_start.elapsed().as_secs_f64() * 1000.0;
    assert_eq!(recovery_report.sessions, plans.len());
    drop(recovered);

    // fsync per record — the cost ceiling.
    let (wal_sync, sync_manager) =
        durable_drive("wal_sync", params, universe, plans, &root.join("sync"), 1);
    drop(sync_manager);
    let _ = std::fs::remove_dir_all(&root);

    DurabilityReport {
        sessions: plans.len(),
        in_memory_mean_us: in_memory.latency.mean_us,
        overhead_group_x: in_memory.ops_per_sec / wal_group.ops_per_sec,
        overhead_sync_x: in_memory.ops_per_sec / wal_sync.ops_per_sec,
        wal_records: wal_stats.wal_records,
        wal_syncs: wal_stats.wal_syncs,
        wal_bytes: wal_stats.wal_appended_bytes,
        recovery: RecoveryBench {
            sessions: recovery_report.sessions,
            spilled: recovery_report.spilled,
            wal_records: recovery_report.wal_records,
            elapsed_ms,
            sessions_per_sec: recovery_report.sessions as f64 / (elapsed_ms / 1000.0),
        },
        wal_group,
        wal_sync,
    }
}

/// Drives the cold and warm fleets of the fleet phase (see the module
/// docs): same TPC-H workload, same strategy, the only difference being
/// the universe's decision-cache budget.
fn fleet_phase(tiny: bool, seed: u64) -> FleetReport {
    use jqi_datagen::tpch::{workload, TpchJoin, TpchScale};
    let strategy = StrategyConfig::Lks { depth: 2 };
    let (cold_n, warm_n) = if tiny { (4, 16) } else { (32, 1024) };
    let workload = workload(TpchScale::Small, TpchJoin::Join4, seed);
    let warm_universe = Arc::new(Universe::build(workload.instance));
    // The cold universe is the warm one cloned (identical class ids;
    // cloning resets the cache) with caching disabled — no second
    // profile-dedup + closure build.
    let cold_universe = Arc::new((*warm_universe).clone().with_decision_cache_budget(0));
    let first_questions = |universe: &Arc<Universe>, n: usize| -> LatencySummary {
        let manager = SessionManager::new(Arc::clone(universe), ServerConfig::default());
        let ids: Vec<u64> = (0..n)
            .map(|_| manager.create_session(strategy.clone()).expect("in-memory"))
            .collect();
        let lat = LatencyHistogram::new();
        for id in ids {
            let t0 = Instant::now();
            let q = manager.next_question(id).expect("live session");
            lat.record(t0.elapsed());
            assert!(q.is_some(), "the tpch fleet must have a first question");
        }
        summarize(&lat)
    };
    let cold_first_question = first_questions(&cold_universe, cold_n);
    let warm_first_question = first_questions(&warm_universe, warm_n);
    let cache = warm_universe.decision_cache_stats();
    FleetReport {
        instance: format!("tpch {} {}", TpchScale::Small, TpchJoin::Join4),
        strategy: strategy.to_string(),
        cold_sessions: cold_n,
        warm_sessions: warm_n,
        warm_speedup: cold_first_question.mean_us / warm_first_question.mean_us,
        cold_first_question,
        warm_first_question,
        cache,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_reports_all_phases() {
        let report = run(true, ThroughputParams::default());
        assert_eq!(report.concurrent_sessions, 16);
        assert_eq!(report.phases.len(), 2);
        assert!(report.total_answers >= report.concurrent_sessions);
        for phase in &report.phases {
            assert!(phase.latency.count > 0);
            assert!(phase.latency.p50_us <= phase.latency.p95_us);
            assert!(phase.latency.p95_us <= phase.latency.max_us);
        }
        // Per-session memory was sampled while all sessions were live.
        assert_eq!(report.session_memory.sessions, 16);
        assert_eq!(report.session_memory.resident_sessions, 16);
        assert!(report.session_memory.state_bytes > 0);
        assert!(
            report.session_memory.state_bytes_per_session() <= 200.0,
            "session state ballooned: {} B/session",
            report.session_memory.state_bytes_per_session()
        );
        // The interactive mix contains deterministic strategies, so the
        // shared decision cache saw traffic and stayed inside its budget.
        let cache = &report.session_memory.decision_cache;
        assert!(cache.hits + cache.misses > 0);
        assert!(cache.bytes <= cache.budget_bytes);
        // Fleet phase: the warm fleet must beat the cold one (the real
        // margin — ≥5× — is asserted on the committed full-size run, not
        // here, where debug builds and CI noise would make it flaky).
        assert_eq!(report.fleet.cold_sessions, 4);
        assert_eq!(report.fleet.warm_sessions, 16);
        assert!(report.fleet.cache.hits >= (report.fleet.warm_sessions - 1) as u64);
        assert!(
            report.fleet.warm_speedup > 1.0,
            "warm fleet not faster than cold: {}",
            report.fleet.warm_speedup
        );
        assert!(report.fleet.cache.bytes <= report.fleet.cache.budget_bytes);
        // Hibernate phase: everything parked, parked sessions at most half
        // the resident footprint, and every wake measured.
        assert_eq!(report.hibernate.parked, 16);
        assert_eq!(report.hibernate.wake.count, 16);
        assert!(
            report.hibernate.hibernated_bytes_per_session * 2.0
                <= report.hibernate.resident_bytes_per_session,
            "parked sessions not at most half the resident bytes: {} vs {}",
            report.hibernate.hibernated_bytes_per_session,
            report.hibernate.resident_bytes_per_session
        );
        // Durability phase: both WAL configurations drove the full fleet,
        // overheads are real ratios, and recovery brought everyone back.
        let d = &report.durability;
        assert_eq!(d.sessions, 16);
        assert!(d.wal_group.latency.count >= report.concurrent_sessions as u64);
        assert!(d.wal_sync.latency.count >= report.concurrent_sessions as u64);
        assert!(d.overhead_group_x > 0.0 && d.overhead_sync_x > 0.0);
        assert!(d.wal_records > 0 && d.wal_syncs > 0 && d.wal_bytes > 0);
        assert_eq!(d.recovery.sessions, 16);
        assert!(
            d.recovery.spilled > 0,
            "zero watermark must spill the fleet"
        );
        assert!(d.recovery.wal_records > 0);
        assert!(d.recovery.sessions_per_sec > 0.0);
        // Overload phase: both outcomes occurred, nothing wedged, the
        // wire stayed clean, and sheds were fast even in a debug build.
        let o = &report.overload;
        assert_eq!(o.clients, 8);
        assert_eq!(o.offered, o.accepted + o.shed);
        assert!(o.accepted > 0 && o.shed > 0, "{o:?}");
        assert!(o.shed as u64 >= 25 || o.offered >= o.clients * 160, "{o:?}");
        assert_eq!(o.client_errors, 0, "{o:?}");
        assert_eq!(o.protocol_errors, 0, "{o:?}");
        assert_eq!(o.wedged, 0, "{o:?}");
        assert!(o.faults_injected >= 2, "{o:?}");
        assert!(o.goodput_per_sec > 0.0);
        assert!(
            o.shed_latency.mean_us < 5_000.0,
            "sheds must be fast even in debug: {:?}",
            o.shed_latency
        );
        // The JSON report carries the acceptance-relevant fields.
        let json = report.to_json().to_string_pretty();
        for needle in [
            "server_throughput",
            "concurrent_sessions",
            "interactive",
            "batch",
            "p95_us",
            "session_memory",
            "state_bytes_per_session",
            "decision_cache",
            "budget_bytes",
            "fleet",
            "warm_speedup",
            "cold_first_question",
            "warm_first_question",
            "hibernate",
            "hibernated_bytes_per_session",
            "resident_bytes_per_session",
            "wake",
            "durability",
            "wal_group",
            "wal_sync",
            "overhead_group_x",
            "sessions_per_sec",
            "overload",
            "goodput_per_sec",
            "p99_ratio",
            "shed_latency",
        ] {
            assert!(json.contains(needle), "missing {needle} in report");
        }
    }
}
