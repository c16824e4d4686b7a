//! CI regression guard over the bench JSON reports.
//!
//! ```text
//! bench_guard --kind server|scaling|perfbench --fresh PATH --baseline PATH [--factor F]
//! ```
//!
//! Compares a freshly generated (tiny, CI-sized) bench report against the
//! committed baseline under `ci/` and exits nonzero when a guarded metric
//! regressed by more than `--factor` (default 3 — CI runners vary wildly,
//! so the guard only catches order-of-magnitude regressions, not noise):
//!
//! * `--kind server` — the interactive phase's per-answer `mean_us`, the
//!   batch phase's `mean_us`, per-session derived-state bytes
//!   (`state_bytes_per_session`, a hard factor on memory, not latency),
//!   the fleet phase's warm and cold first-question `mean_us` plus the
//!   warm-over-cold speedup (`warm_speedup` must not shrink below
//!   `baseline / factor`), the hibernation tier's parked-session
//!   resident bytes (`hibernated_bytes_per_session`), and the durability
//!   tier: group-commit per-answer `mean_us` vs the baseline,
//!   `overhead_group_x` (the in-memory/WAL-on throughput ratio) against
//!   an **absolute** ceiling of `factor` (WAL-on interactive throughput
//!   must stay within 3x of in-memory on any machine), and recovery
//!   `sessions_per_sec` as a floor. When the baseline carries an
//!   `overload` block, shed `mean_us` and the accepted `p99_ratio` are
//!   held `at_most`, `goodput_per_sec` must not shrink, and `wedged` /
//!   `protocol_errors` / `client_errors` must be zero at any factor.
//! * `--kind scaling` — per dataset point matched **by name**,
//!   `build_speedup` must not shrink below `baseline / factor` and
//!   `l1s_first_step_ms` / `l3s_first_step_ms` must not exceed
//!   `baseline · factor`; per `streaming` phase point (also matched by
//!   name), `build_wall_ms` and `peak_tracked_bytes` must not exceed
//!   `baseline · factor`; per `incremental` phase point (also matched by
//!   name), `delta_apply_ms` must not exceed `baseline · factor` and the
//!   rebuild-over-apply `speedup` must not shrink below
//!   `baseline / factor`. Points present on only one side are skipped
//!   (sweeps may grow, and baselines older than a phase lack its block),
//!   but zero matched points is an error.
//! * `--kind perfbench` — both files hold perfbench output, of which the
//!   last line is read (the benchmark's one-JSON-object contract). The
//!   fresh run must be `"correct": true`, and `question_p50_us` /
//!   `answer_p50_us` must not exceed `baseline · factor`. CI feeds it a
//!   short `crowd` run against `ci/bench_baseline_perfbench_crowd.json`:
//!   HTTP request latency through `jqi_net` and the gateway, measured
//!   per window by the repo's benchmark.

use jqi_server::json::Json;
use std::process::ExitCode;

struct Args {
    kind: String,
    fresh: String,
    baseline: String,
    factor: f64,
}

const USAGE: &str =
    "usage: bench_guard --kind server|scaling|perfbench --fresh PATH --baseline PATH [--factor F]";

fn parse_args() -> Result<Args, String> {
    let (mut kind, mut fresh, mut baseline) = (None, None, None);
    let mut factor = 3.0f64;
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--kind" => kind = Some(value("--kind")?),
            "--fresh" => fresh = Some(value("--fresh")?),
            "--baseline" => baseline = Some(value("--baseline")?),
            "--factor" => {
                factor = value("--factor")?
                    .parse()
                    .map_err(|e| format!("bad --factor: {e}"))?;
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--kind is required")?,
        fresh: fresh.ok_or("--fresh is required")?,
        baseline: baseline.ok_or("--baseline is required")?,
        factor,
    })
}

/// Parses the report at `path`: the whole file, or with `last_line` its
/// last non-empty line.
fn load(path: &str, last_line: bool) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let text = if last_line {
        text.lines()
            .rev()
            .find(|l| !l.trim().is_empty())
            .unwrap_or("")
    } else {
        &text
    };
    Json::parse(text).map_err(|e| format!("cannot parse {path}: {e}"))
}

/// Collects guard violations instead of failing fast, so one CI run shows
/// every regressed metric.
struct Guard {
    factor: f64,
    violations: Vec<String>,
    checked: usize,
}

impl Guard {
    fn new(factor: f64) -> Guard {
        Guard {
            factor,
            violations: Vec::new(),
            checked: 0,
        }
    }

    /// `fresh` must not exceed `baseline · factor` (latency-style metric).
    fn at_most(&mut self, what: &str, fresh: f64, baseline: f64) {
        self.checked += 1;
        if fresh > baseline * self.factor {
            self.violations.push(format!(
                "{what}: {fresh:.3} exceeds {:.3} ({baseline:.3} × {})",
                baseline * self.factor,
                self.factor
            ));
        }
    }

    /// `fresh` must not fall below `baseline / factor` (speedup metric).
    fn at_least(&mut self, what: &str, fresh: f64, baseline: f64) {
        self.checked += 1;
        if fresh < baseline / self.factor {
            self.violations.push(format!(
                "{what}: {fresh:.3} falls below {:.3} ({baseline:.3} / {})",
                baseline / self.factor,
                self.factor
            ));
        }
    }
}

fn num(doc: &Json, path: &[&str]) -> Option<f64> {
    let mut cur = doc;
    for key in path {
        cur = cur.get(key)?;
    }
    cur.as_num()
}

fn phase<'j>(doc: &'j Json, name: &str) -> Option<&'j Json> {
    doc.get("phases")?
        .as_arr()?
        .iter()
        .find(|p| p.get("phase").and_then(Json::as_str) == Some(name))
}

fn guard_server(guard: &mut Guard, fresh: &Json, baseline: &Json) -> Result<(), String> {
    for name in ["interactive", "batch"] {
        let f = phase(fresh, name)
            .and_then(|p| num(p, &["latency", "mean_us"]))
            .ok_or(format!("fresh report lacks {name} mean_us"))?;
        let b = phase(baseline, name)
            .and_then(|p| num(p, &["latency", "mean_us"]))
            .ok_or(format!("baseline lacks {name} mean_us"))?;
        guard.at_most(&format!("{name} mean_us"), f, b);
    }
    let f = num(fresh, &["session_memory", "state_bytes_per_session"])
        .ok_or("fresh report lacks state_bytes_per_session")?;
    let b = num(baseline, &["session_memory", "state_bytes_per_session"])
        .ok_or("baseline lacks state_bytes_per_session")?;
    // Memory is machine-independent: a tight factor would also be fine,
    // but share the guard's knob for simplicity.
    guard.at_most("state_bytes_per_session", f, b);
    // Fleet phase: cold and warm first-question latencies individually,
    // and the warm-over-cold speedup (the decision cache's headline
    // number) as a floor.
    for (leaf, what) in [
        ("cold_first_question", "fleet cold first-question mean_us"),
        ("warm_first_question", "fleet warm first-question mean_us"),
    ] {
        let f = num(fresh, &["fleet", leaf, "mean_us"])
            .ok_or(format!("fresh report lacks fleet {leaf}"))?;
        let b = num(baseline, &["fleet", leaf, "mean_us"])
            .ok_or(format!("baseline lacks fleet {leaf}"))?;
        guard.at_most(what, f, b);
    }
    let f = num(fresh, &["fleet", "warm_speedup"]).ok_or("fresh report lacks warm_speedup")?;
    let b = num(baseline, &["fleet", "warm_speedup"]).ok_or("baseline lacks warm_speedup")?;
    guard.at_least("fleet warm_speedup", f, b);
    // Hibernation tier: parked-session resident bytes are
    // machine-independent like the state bytes above.
    let f = num(fresh, &["hibernate", "hibernated_bytes_per_session"])
        .ok_or("fresh report lacks hibernated_bytes_per_session")?;
    let b = num(baseline, &["hibernate", "hibernated_bytes_per_session"])
        .ok_or("baseline lacks hibernated_bytes_per_session")?;
    guard.at_most("hibernated_bytes_per_session", f, b);
    // Durability tier: group-commit answer latency against the baseline,
    // the WAL-on/in-memory ratio against an absolute ceiling (the
    // acceptance bar: group commit must stay within 3x of in-memory on
    // any machine), and recovery throughput as a floor.
    let f = num(fresh, &["durability", "wal_group", "latency", "mean_us"])
        .ok_or("fresh report lacks durability wal_group mean_us")?;
    let b = num(baseline, &["durability", "wal_group", "latency", "mean_us"])
        .ok_or("baseline lacks durability wal_group mean_us")?;
    guard.at_most("durability wal_group mean_us", f, b);
    let f = num(fresh, &["durability", "overhead_group_x"])
        .ok_or("fresh report lacks durability overhead_group_x")?;
    // Baseline 1.0: the guard's factor itself becomes the absolute bound.
    guard.at_most("durability overhead_group_x (vs in-memory)", f, 1.0);
    let f = num(fresh, &["durability", "recovery", "sessions_per_sec"])
        .ok_or("fresh report lacks recovery sessions_per_sec")?;
    let b = num(baseline, &["durability", "recovery", "sessions_per_sec"])
        .ok_or("baseline lacks recovery sessions_per_sec")?;
    guard.at_least("durability recovery sessions_per_sec", f, b);
    // Overload phase: guarded only when the baseline carries it (older
    // baselines predate the load shedder). Shed responses must stay
    // fast, goodput under overload must not shrink, the accepted-p99
    // blow-up over the uncontended baseline is held like a latency, and
    // the absolute invariants — nothing wedged, no protocol or client
    // errors — are regressions at any count.
    if baseline.get("overload").is_some() {
        let f = num(fresh, &["overload", "shed_latency", "mean_us"])
            .ok_or("fresh report lacks overload shed mean_us")?;
        let b = num(baseline, &["overload", "shed_latency", "mean_us"])
            .ok_or("baseline lacks overload shed mean_us")?;
        guard.at_most("overload shed mean_us", f, b);
        let f = num(fresh, &["overload", "goodput_per_sec"])
            .ok_or("fresh report lacks overload goodput_per_sec")?;
        let b = num(baseline, &["overload", "goodput_per_sec"])
            .ok_or("baseline lacks overload goodput_per_sec")?;
        guard.at_least("overload goodput_per_sec", f, b);
        let f = num(fresh, &["overload", "p99_ratio"])
            .ok_or("fresh report lacks overload p99_ratio")?;
        let b =
            num(baseline, &["overload", "p99_ratio"]).ok_or("baseline lacks overload p99_ratio")?;
        guard.at_most("overload p99_ratio", f, b);
        for must_be_zero in ["wedged", "protocol_errors", "client_errors"] {
            let f = num(fresh, &["overload", must_be_zero])
                .ok_or(format!("fresh report lacks overload {must_be_zero}"))?;
            if f > 0.0 {
                guard
                    .violations
                    .push(format!("overload {must_be_zero}: {f:.0} (must be 0)"));
            }
            guard.checked += 1;
        }
    }
    Ok(())
}

fn guard_scaling(guard: &mut Guard, fresh: &Json, baseline: &Json) -> Result<(), String> {
    let points = |doc: &Json| -> Option<Vec<Json>> {
        doc.get("points")
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
    };
    let fresh_points = points(fresh).ok_or("fresh report lacks points")?;
    let baseline_points = points(baseline).ok_or("baseline lacks points")?;
    let mut matched = 0usize;
    for fp in &fresh_points {
        let Some(name) = fp.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(bp) = baseline_points
            .iter()
            .find(|p| p.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        matched += 1;
        if let (Some(f), Some(b)) = (num(fp, &["build_speedup"]), num(bp, &["build_speedup"])) {
            guard.at_least(&format!("{name}: build_speedup"), f, b);
        }
        for metric in ["l1s_first_step_ms", "l3s_first_step_ms"] {
            if let (Some(f), Some(b)) = (num(fp, &[metric]), num(bp, &[metric])) {
                guard.at_most(&format!("{name}: {metric}"), f, b);
            }
        }
    }
    // The streaming phase: wall clock (machine-dependent, order-of-
    // magnitude guard) and peak tracked ingestion bytes (machine-
    // independent — a blow-up here means profiles stopped collapsing).
    let block = |doc: &Json, key: &str| -> Vec<Json> {
        doc.get(key)
            .and_then(Json::as_arr)
            .map(<[Json]>::to_vec)
            .unwrap_or_default()
    };
    let baseline_streaming = block(baseline, "streaming");
    for fp in block(fresh, "streaming") {
        let Some(name) = fp.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(bp) = baseline_streaming
            .iter()
            .find(|p| p.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        matched += 1;
        for metric in ["build_wall_ms", "peak_tracked_bytes"] {
            if let (Some(f), Some(b)) = (num(&fp, &[metric]), num(bp, &[metric])) {
                guard.at_most(&format!("{name}: {metric}"), f, b);
            }
        }
    }
    // The incremental phase (tolerant of its absence — baselines older
    // than the delta layer lack the block): delta-apply wall clock is
    // held like a latency, and the rebuild-over-apply speedup — the
    // O(delta) payoff itself — must not shrink below `baseline / factor`.
    let baseline_incremental = block(baseline, "incremental");
    for fp in block(fresh, "incremental") {
        let Some(name) = fp.get("name").and_then(Json::as_str) else {
            continue;
        };
        let Some(bp) = baseline_incremental
            .iter()
            .find(|p| p.get("name").and_then(Json::as_str) == Some(name))
        else {
            continue;
        };
        matched += 1;
        if let (Some(f), Some(b)) = (num(&fp, &["delta_apply_ms"]), num(bp, &["delta_apply_ms"])) {
            guard.at_most(&format!("{name}: delta_apply_ms"), f, b);
        }
        if let (Some(f), Some(b)) = (num(&fp, &["speedup"]), num(bp, &["speedup"])) {
            guard.at_least(&format!("{name}: speedup"), f, b);
        }
    }
    if matched == 0 {
        return Err("no dataset points matched between fresh and baseline".into());
    }
    Ok(())
}

fn guard_perfbench(guard: &mut Guard, fresh: &Json, baseline: &Json) -> Result<(), String> {
    if fresh.get("correct") != Some(&Json::Bool(true)) {
        guard
            .violations
            .push("perfbench correct: not true (a check or an operation failed)".into());
    }
    guard.checked += 1;
    for metric in ["question_p50_us", "answer_p50_us"] {
        let f =
            num(fresh, &["metrics", metric, "value"]).ok_or(format!("fresh run lacks {metric}"))?;
        let b = num(baseline, &["metrics", metric, "value"])
            .ok_or(format!("baseline lacks {metric}"))?;
        guard.at_most(&format!("perfbench {metric}"), f, b);
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let run = || -> Result<Guard, String> {
        let last_line = args.kind == "perfbench";
        let fresh = load(&args.fresh, last_line)?;
        let baseline = load(&args.baseline, last_line)?;
        let mut guard = Guard::new(args.factor);
        match args.kind.as_str() {
            "server" => guard_server(&mut guard, &fresh, &baseline)?,
            "scaling" => guard_scaling(&mut guard, &fresh, &baseline)?,
            "perfbench" => guard_perfbench(&mut guard, &fresh, &baseline)?,
            other => return Err(format!("unknown --kind {other:?}")),
        }
        Ok(guard)
    };
    match run() {
        Ok(guard) if guard.violations.is_empty() => {
            println!(
                "bench_guard: {} {} metrics within {}x of baseline",
                guard.checked, args.kind, args.factor
            );
            ExitCode::SUCCESS
        }
        Ok(guard) => {
            eprintln!("bench_guard: {} regression(s):", guard.violations.len());
            for v in &guard.violations {
                eprintln!("  {v}");
            }
            ExitCode::FAILURE
        }
        Err(msg) => {
            eprintln!("bench_guard: {msg}");
            ExitCode::FAILURE
        }
    }
}
