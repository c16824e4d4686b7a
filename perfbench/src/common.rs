//! What every workload reports the same way.

use crate::gen::GenStats;
use crate::layers::Inject;
use crate::ops::OpKind;
use crate::stats::{median_of, Report};
use jqi_core::{DecisionCacheStats, Universe};
use jqi_server::ManagerStats;

/// Command-line arguments of one run.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub inject: Inject,
}

/// Everything a workload run produced.
#[derive(Debug, Default)]
pub struct RunOut {
    pub report: Report,
    pub problems: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
}

impl RunOut {
    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// Checks a condition the run must satisfy; a violation fails the run.
    pub fn require(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// Wall-clock phases of one set-up (seconds).
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub datagen: f64,
    pub build: f64,
    pub bind: f64,
    pub warm: f64,
}

impl SetupTimes {
    pub fn total(&self) -> f64 {
        self.datagen + self.build + self.bind + self.warm
    }
}

/// Reports the median over repeated set-ups: `setup_s` and its split.
pub fn report_setup(out: &mut RunOut, setups: &[SetupTimes]) {
    let pick = |f: fn(&SetupTimes) -> f64| median_of(&setups.iter().map(f).collect::<Vec<_>>());
    out.report.put("setup_s", pick(SetupTimes::total), "s");
    out.report.put("setup.datagen_s", pick(|s| s.datagen), "s");
    out.report.put("setup.build_s", pick(|s| s.build), "s");
    out.report.put("setup.bind_s", pick(|s| s.bind), "s");
    out.report.put("setup.warm_s", pick(|s| s.warm), "s");
    out.report
        .put("setup.repeats", setups.len() as f64, "count");
}

/// Question/answer latency quantiles, failures, and completed-session
/// correctness from the generators.
pub fn report_traffic(out: &mut RunOut, stats: &mut GenStats) {
    for (name, kind, answer) in [
        ("question", OpKind::Question, false),
        ("answer", OpKind::Answer, true),
    ] {
        let (p50, p99, windows) = stats.windowed(answer);
        let all = stats.latency(kind);
        let (all_p50, all_p99, n) = (all.median(), all.p99(), all.len());
        out.report.put(format!("{name}_p50_us"), p50, "us");
        out.report.put(format!("{name}_p99_us"), p99, "us");
        out.report
            .put(format!("{name}.windows"), windows as f64, "count");
        out.report.put(format!("{name}.samples"), n as f64, "count");
        out.report.put(format!("{name}.all_p50_us"), all_p50, "us");
        out.report.put(format!("{name}.all_p99_us"), all_p99, "us");
        let due = &stats.due[usize::from(answer)];
        out.report
            .put(format!("{name}.due_p50_us"), due.median(), "us");
        out.report
            .put(format!("{name}.due_p99_us"), due.p99(), "us");
    }
    out.report
        .put("gen.lateness_us_p99", stats.lateness.p99(), "us");
    out.report
        .put("gen.lateness_us_p50", stats.lateness.median(), "us");
    out.report
        .put("sessions.completed", stats.completions as f64, "count");
    out.report
        .put("sessions.checked", stats.checked as f64, "count");
    out.report
        .put("sessions.unchecked", stats.unchecked as f64, "count");
    out.require(stats.completions > 0, || {
        "no session reached its inferred predicate".into()
    });
    for wrong in stats.wrong.iter().take(4) {
        out.problem(format!("wrong inferred predicate: {wrong}"));
    }
    out.require(stats.wrong.is_empty(), || {
        format!("{} sessions inferred a wrong predicate", stats.wrong.len())
    });
    for failure in &stats.failures {
        out.problem(format!("operation failed: {failure}"));
    }
    out.attempted += stats.attempted;
    out.failed += stats.failed;
}

/// `failed_frac` and `peak_rss_mb`, reported once all work is done.
pub fn report_totals(out: &mut RunOut) {
    let frac = if out.attempted == 0 {
        0.0
    } else {
        out.failed as f64 / out.attempted as f64
    };
    out.report.put("failed_frac", frac, "ratio");
    out.report
        .put("peak_rss_mb", crate::stats::peak_rss_mb(), "MiB");
}

pub fn report_cache(out: &mut RunOut, cache: &DecisionCacheStats) {
    let probes = cache.hits + cache.misses;
    let ratio = if probes == 0 {
        0.0
    } else {
        cache.hits as f64 / probes as f64
    };
    out.report.put("cache.hit_ratio", ratio, "ratio");
    out.report.put("cache.hits", cache.hits as f64, "count");
    out.report.put("cache.misses", cache.misses as f64, "count");
    out.report
        .put("cache.evictions", cache.evictions as f64, "count");
    out.report.put("cache.bytes", cache.bytes as f64, "B");
}

/// The cache activity between two samples of the same cache (the bytes
/// held are the later sample's).
pub fn cache_since(after: DecisionCacheStats, before: DecisionCacheStats) -> DecisionCacheStats {
    DecisionCacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        evictions: after.evictions - before.evictions,
        ..after
    }
}

pub fn sum_cache(a: DecisionCacheStats, b: DecisionCacheStats) -> DecisionCacheStats {
    DecisionCacheStats {
        hits: a.hits + b.hits,
        misses: a.misses + b.misses,
        evictions: a.evictions + b.evictions,
        entries: a.entries + b.entries,
        bytes: a.bytes + b.bytes,
        budget_bytes: a.budget_bytes.max(b.budget_bytes),
    }
}

pub fn report_manager(out: &mut RunOut, stats: &ManagerStats) {
    out.report.put(
        "manager.resident_bytes_per_session",
        stats.resident_bytes_per_session(),
        "B",
    );
    out.report.put(
        "state.bytes_per_session",
        stats.state_bytes_per_session(),
        "B",
    );
    out.report.put(
        "manager.hibernated_sessions",
        stats.hibernated_sessions as f64,
        "count",
    );
    out.report.put(
        "manager.spilled_sessions",
        stats.spilled_sessions as f64,
        "count",
    );
}

/// Shape of a universe: the work its build did and its yield.
#[derive(Debug, Clone, Copy, Default)]
pub struct UniverseShape {
    pub classes: f64,
    pub profile_pairs: f64,
    pub tuples_per_profile_pair: f64,
    pub empty_sig_share: f64,
    pub closure_bytes: f64,
}

impl UniverseShape {
    pub fn of(u: &Universe) -> UniverseShape {
        let pairs = (u.distinct_r_profiles() * u.distinct_p_profiles()) as f64;
        let total = u.total_tuples() as f64;
        let empty: u64 = u
            .iter()
            .filter(|(_, sig, _)| sig.is_empty())
            .map(|(_, _, n)| n)
            .sum();
        UniverseShape {
            classes: u.num_classes() as f64,
            profile_pairs: pairs,
            tuples_per_profile_pair: if pairs > 0.0 { total / pairs } else { 0.0 },
            empty_sig_share: if total > 0.0 {
                empty as f64 / total
            } else {
                0.0
            },
            closure_bytes: u.closure().resident_bytes() as f64,
        }
    }
}

/// Reports universe shape metrics as medians over the universes built.
pub fn report_universes(out: &mut RunOut, shapes: &[UniverseShape], build_ms: &[f64]) {
    let pick = |f: fn(&UniverseShape) -> f64| median_of(&shapes.iter().map(f).collect::<Vec<_>>());
    out.report
        .put("universe.build_ms_p50", median_of(build_ms), "ms");
    out.report
        .put("universe.classes", pick(|s| s.classes), "count");
    out.report
        .put("universe.profile_pairs", pick(|s| s.profile_pairs), "count");
    out.report.put(
        "universe.tuples_per_profile_pair",
        pick(|s| s.tuples_per_profile_pair),
        "ratio",
    );
    out.report.put(
        "universe.empty_sig_share",
        pick(|s| s.empty_sig_share),
        "ratio",
    );
    out.report
        .put("universe.closure_bytes", pick(|s| s.closure_bytes), "B");
}

/// Transport and gateway counters of a run's server.
pub fn report_net(out: &mut RunOut, stack: &crate::stack::Stack) {
    use std::sync::atomic::Ordering;
    let net = stack.net_stats();
    out.report.put("net.requests", net.requests as f64, "count");
    out.report
        .put("net.protocol_errors", net.protocol_errors as f64, "count");
    out.report.put("net.shed", net.shed as f64, "count");
    out.report.put(
        "net.deadlines_exceeded",
        net.deadlines_exceeded as f64,
        "count",
    );
    out.report.put(
        "net.queue_depth_max",
        stack.handler.queue_depth_max.load(Ordering::Relaxed) as f64,
        "count",
    );
    out.report.put(
        "gateway.status_4xx",
        stack.handler.status_4xx.load(Ordering::Relaxed) as f64,
        "count",
    );
    out.report.put(
        "gateway.status_5xx",
        stack.handler.status_5xx.load(Ordering::Relaxed) as f64,
        "count",
    );
}

/// Reports the metrics only `live` measures as zero counts elsewhere, so
/// every workload prints the same per-layer names.
pub fn report_absent_live_counts(out: &mut RunOut) {
    for name in [
        "wal.appends",
        "wal.syncs",
        "wal.bytes",
        "wal.records",
        "wal.records_per_sync",
        "wal.bytes_per_answer",
        "segments.spill_bytes",
        "segments.spill_reads",
        "recover.wal_records",
        "recover.replayed_answers",
        "migration.carried",
        "migration.replayed",
        "migration.dropped_labels",
        "migration.invalidated",
        "delta.edits",
    ] {
        let unit = match name {
            "wal.bytes" | "segments.spill_bytes" | "wal.bytes_per_answer" => "B",
            "wal.records_per_sync" => "ratio",
            _ => "count",
        };
        out.report.put(name, 0.0, unit);
    }
}
