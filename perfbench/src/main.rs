//! The repository's benchmark: one named workload per run, end-to-end
//! metrics from an untraced run (`--trace 0`) or per-layer metrics from a
//! traced replay (`--trace 1`), with the program's outputs checked.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload crowd --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every metric is printed as `name = value unit`; the last line of
//! standard output is one JSON object with `correct`, `attempted`,
//! `failed` and the metrics `BENCHMARK.json` names for the mode.

mod analyst;
mod common;
mod crowd;
mod gen;
mod layers;
mod live;
mod ops;
mod stack;
mod stats;
mod trace;

use common::{report_totals, Args};
use layers::Inject;
use stats::{json_num, json_str};

/// End-to-end metrics (`--trace 0`), as listed in `BENCHMARK.json`.
/// Every workload reports these; the rest of the end-to-end figures
/// (tails, build times, rates, delta and recovery times) are printed
/// above the JSON line — see the README for why they are not gated.
const END_TO_END: [&str; 4] = ["setup_s", "question_p50_us", "answer_p50_us", "peak_rss_mb"];

/// Per-layer metrics (`--trace 1`), as listed in `BENCHMARK.json`.
const PER_LAYER: [&str; 66] = [
    "net.self_us_p50",
    "net.self_us_p99",
    "net.admit_us_p50",
    "net.queue_depth_max",
    "net.requests",
    "net.protocol_errors",
    "net.shed",
    "net.deadlines_exceeded",
    "gen.lateness_us_p99",
    "gateway.handle_us_p50",
    "gateway.handle_us_p99",
    "gateway.self_us_p50",
    "gateway.status_4xx",
    "gateway.status_5xx",
    "manager.question_us_p50",
    "manager.answer_us_p50",
    "manager.create_us_p50",
    "manager.snapshot_us_p50",
    "manager.restore_us_p50",
    "manager.self_us_p50",
    "manager.resident_bytes_per_session",
    "manager.hibernated_sessions",
    "manager.spilled_sessions",
    "wal.appends",
    "wal.syncs",
    "wal.bytes",
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
    "strategy.bu.next_us_p50",
    "strategy.td.next_us_p50",
    "strategy.l1s.next_us_p50",
    "strategy.l2s.next_us_p50",
    "strategy.rnd.next_us_p50",
    "state.apply_us_p50",
    "state.bytes_per_session",
    "cache.hit_ratio",
    "cache.misses",
    "cache.evictions",
    "cache.bytes",
    "universe.build_ms_p50",
    "universe.classes",
    "universe.profile_pairs",
    "universe.tuples_per_profile_pair",
    "universe.empty_sig_share",
    "universe.closure_bytes",
    "setup.datagen_s",
    "setup.build_s",
    "setup.bind_s",
    "setup.warm_s",
    "interactions_mean",
    "failed_frac",
    "trace.overhead_us",
    "trace.sum_error",
    "trace.negative_self_share",
    "trace.untraced_question_p50_us",
    "trace.traced_question_p50_us",
    "session_ms",
];

const USAGE: &str = "usage: perfbench --workload crowd|analyst|live --seed N --seconds S \
                     --trace 0|1 [--inject handle_us=N,wal_sync_us=N]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut inject = Inject::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            "--inject" => inject = Inject::parse(&value()?)?,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["crowd", "analyst", "live"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        inject,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let record = stats::run_record(&args.workload, args.seed, args.seconds as u64, args.trace);
    let mut out = match args.workload.as_str() {
        "crowd" => crowd::run(&args),
        "analyst" => analyst::run(&args),
        _ => live::run(&args),
    };
    report_totals(&mut out);

    for (key, value) in &record {
        println!("record.{key} = {value}");
    }
    if args.inject.handle.as_nanos() + args.inject.wal_sync.as_nanos() > 0 {
        println!("record.inject = {:?}", args.inject);
    }
    for (name, value, unit) in out.report.entries() {
        println!("{name} = {value} {unit}");
    }
    for problem in &out.problems {
        println!("problem: {problem}");
    }

    let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Vec::new();
    for name in names {
        match out.report.get(name) {
            Some((value, unit)) if value.is_finite() => metrics.push(format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(value),
                json_str(unit)
            )),
            _ => {
                eprintln!("perfbench: metric {name} was not measured");
                std::process::exit(3);
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}
