//! `live`: a durable tenant on live customer⋈orders data. Open-loop
//! question/answer traffic runs beside a scheduled stream of row edits
//! (`POST …/delta`), each of which migrates the whole fleet under the
//! fleet lock; sweeps park and spill idle sessions; every answer goes
//! through the write-ahead log. At the end the server is dropped and the
//! durable directory recovered.

use crate::common::{
    report_cache, report_manager, report_net, report_setup, report_traffic, report_universes,
    sum_cache, Args, RunOut, SetupTimes, UniverseShape,
};
use crate::crowd::strategy_for;
use crate::gen::{interactions_mean, GenStats, Pool, Shared};
use crate::layers::{sleep_until, tighten_timer_slack, Inject, TimedWal, WalProbe};
use crate::ops::{
    Ctx, DeltaOutcome, DeltaScript, HttpTransport, Op, OpKind, Outcome, Plan, Recorded, Target,
    Tenant,
};
use crate::stack::{mix, workers, Stack, WorkDir};
use crate::stats::{median_of, ms_since, secs_since, Samples};
use crate::trace::{replay, Segment};
use jqi_core::{DecisionCacheStats, Universe};
use jqi_datagen::{SfConfig, SfJoin, SfStream};
use jqi_relation::{BitSet, RowChunk, Side, Tuple, Value};
use jqi_server::durability::{DirSegments, FileWal};
use jqi_server::{DurabilityConfig, RecoveryReport, ServerConfig, SessionManager};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// TPC-H scale of the live tables (165 k rows).
const SF: f64 = 0.1;
/// Offered question/answer rate per generator (requests/s): high enough
/// that the host's vCPUs do not park between requests — waking them
/// costs more, and varies more from run to run, than serving a question.
const RATE_PER_GENERATOR: f64 = 4500.0;
/// Sessions each generator keeps open.
const POOL: usize = 100;
/// Generator 0 sends a delta every this many of its ticks (500 ms)…
const DELTA_EVERY: usize = 2250;
/// …and every this-many-th delta (every 3 s) is a 1% batch; the rest
/// are one row. Batches stall the fleet for a few hundred milliseconds,
/// so they are spaced to keep the stalled share of time well under half:
/// the median then describes steady serving and the p99 the stall.
const BATCH_EVERY: usize = 6;
/// Latencies are summarized per window of this length (seconds), one
/// batch delta per window; the reported quantiles are medians over
/// windows.
const WINDOW_SECONDS: u64 = 3;
/// Generator 1 runs the manager's hibernation sweep every this many
/// ticks (50 ms) — the operator's maintenance timer.
const SWEEP_EVERY: usize = 225;
/// Set-ups per run (`setup_s` is their median).
const SETUPS: usize = 3;
/// Recoveries of the final directory (`recovery_ms` is their median).
const RECOVERIES: usize = 3;
/// Operations replayed by the traced run (a little over the first three
/// seconds: six deltas, the first 1% batch included).
const TRACE_OPS: usize = 28_000;

fn server_config() -> ServerConfig {
    ServerConfig {
        hibernate_ttl: Some(Duration::from_millis(30)),
        ..ServerConfig::default()
    }
}

fn durability_config() -> DurabilityConfig {
    DurabilityConfig {
        group_commit_every: 64,
        resident_watermark_bytes: Some(64 << 10),
        segment_max_bytes: 1 << 20,
    }
}

/// Opens (or recovers) the durable manager rooted at `dir`, its WAL
/// behind the timing wrapper.
fn open_durable(
    universe: Arc<Universe>,
    dir: &Path,
    probe: &Arc<WalProbe>,
    inject: Inject,
    trace: bool,
) -> (SessionManager, RecoveryReport) {
    std::fs::create_dir_all(dir).expect("durable directory");
    let wal = FileWal::open(&dir.join("wal.log")).expect("open wal");
    let segments = DirSegments::open(&dir.join("segments")).expect("open segments");
    SessionManager::recover_with_storage(
        universe,
        server_config(),
        durability_config(),
        Box::new(TimedWal::new(
            wal,
            Arc::clone(probe),
            inject.wal_sync,
            trace,
        )),
        Box::new(segments),
    )
    .expect("durable manager opens")
}

/// The edit stream: deterministic row deletes (rows the stream really
/// holds, each position used once) and inserts of fresh-key variants.
struct EditPlan {
    scripts: Vec<DeltaScript>,
}

fn edit_plan(stream: &SfStream, deltas: usize) -> EditPlan {
    let schema = stream.schema();
    let total = stream.config().rows(stream.join().r_table())
        + stream.config().rows(stream.join().p_table());
    let batch = (total as usize / 100).max(2);
    let batches = deltas / BATCH_EVERY + 1;
    // Deletes alternate sides in batches; single-row deltas touch orders.
    let need_r = batches * batch / 4 + 1;
    let need_p = batches * batch / 4 + deltas + 1;
    let mut rows: [Vec<Tuple>; 2] = [Vec::new(), Vec::new()];
    for chunk in stream.chunks() {
        let slot = usize::from(chunk.side == Side::P);
        let need = if slot == 0 { need_r } else { need_p };
        if rows[slot].len() < need {
            rows[slot].extend(chunk.rows.into_iter().take(need - rows[slot].len()));
        }
        if rows[0].len() >= need_r && rows[1].len() >= need_p {
            break;
        }
    }
    let values = |t: &Tuple| t.resolve(schema.interner());
    let side_of = |slot: usize| if slot == 0 { Side::R } else { Side::P };
    let mut next_delete = [0usize; 2];
    let mut fresh = 0i64;
    let mut scripts = Vec::with_capacity(deltas);
    let mut add = |script: &mut DeltaScript, slot: usize, insert: bool| {
        let side = side_of(slot);
        let row = if insert {
            let template = &rows[slot][fresh as usize % rows[slot].len()];
            let mut v = values(template);
            v[0] = Value::int(0x7E57_0000_0000 + fresh * 2 + slot as i64);
            fresh += 1;
            v
        } else {
            let v = values(&rows[slot][next_delete[slot]]);
            next_delete[slot] += 1;
            v
        };
        let list = match (side, insert) {
            (Side::R, true) => &mut script.insert_r,
            (Side::R, false) => &mut script.delete_r,
            (Side::P, true) => &mut script.insert_p,
            (Side::P, false) => &mut script.delete_p,
        };
        list.push(row);
    };
    for d in 0..deltas {
        let mut script = DeltaScript::default();
        if d % BATCH_EVERY == BATCH_EVERY - 1 {
            for i in 0..batch {
                add(&mut script, (i / 2) % 2, i % 2 == 0);
            }
        } else {
            add(&mut script, 1, d % 2 == 0);
        }
        scripts.push(script);
    }
    EditPlan { scripts }
}

/// Rebuilds the edited instance anew (the stream minus the
/// deleted rows plus the inserted ones) and compares it with the
/// delta-maintained universe: classes, tuple total and signatures.
fn check_against_rebuild(
    stream: &SfStream,
    plan: &EditPlan,
    applied: usize,
    live: &Universe,
    out: &mut RunOut,
) {
    let schema = stream.schema();
    let interner = schema.interner();
    let edits: usize = plan.scripts[..applied].iter().map(DeltaScript::len).sum();
    let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
    for script in &plan.scripts[..applied] {
        for (side, rows, insert) in [
            (Side::R, &script.insert_r, true),
            (Side::R, &script.delete_r, false),
            (Side::P, &script.insert_p, true),
            (Side::P, &script.delete_p, false),
        ] {
            for row in rows {
                let t = Tuple::intern(interner, row);
                if insert {
                    inserts.push((side, t));
                } else {
                    deletes.push((side, t));
                }
            }
        }
    }
    let mut budget: [HashMap<Tuple, usize>; 2] = [HashMap::new(), HashMap::new()];
    for (side, row) in &deletes {
        *budget[usize::from(*side == Side::P)]
            .entry(row.clone())
            .or_insert(0) += 1;
    }
    let extra: Vec<RowChunk> = [Side::R, Side::P]
        .into_iter()
        .map(|side| RowChunk {
            side,
            rows: inserts
                .iter()
                .filter(|(s, _)| *s == side)
                .map(|(_, r)| r.clone())
                .collect(),
        })
        .filter(|c| !c.is_empty())
        .collect();
    let source = || {
        let mut budget = budget.clone();
        stream
            .chunks()
            .map(move |mut chunk| {
                let b = &mut budget[usize::from(chunk.side == Side::P)];
                if !b.is_empty() {
                    chunk.rows.retain(|row| match b.get_mut(row) {
                        Some(n) if *n > 0 => {
                            *n -= 1;
                            false
                        }
                        _ => true,
                    });
                }
                chunk
            })
            .chain(extra.clone())
    };
    let (rebuilt, _) = Universe::build_streaming(schema.clone(), source, workers());
    let sigs = |u: &Universe| {
        let mut m: HashMap<BitSet, u64> = HashMap::new();
        for (_, sig, n) in u.iter() {
            *m.entry(sig.clone()).or_insert(0) += n;
        }
        m
    };
    out.require(rebuilt.num_classes() == live.num_classes(), || {
        format!(
            "delta-applied universe has {} classes, a fresh build of the edited data {}",
            live.num_classes(),
            rebuilt.num_classes()
        )
    });
    out.require(rebuilt.total_tuples() == live.total_tuples(), || {
        format!(
            "delta-applied universe has {} tuples, a fresh build {}",
            live.total_tuples(),
            rebuilt.total_tuples()
        )
    });
    out.require(sigs(&rebuilt) == sigs(live), || {
        "delta-applied universe's signatures differ from a fresh build's".into()
    });
    out.report.put("delta.checked_edits", edits as f64, "count");
}

struct Env {
    stack: Stack,
    manager: Arc<SessionManager>,
    universe: Arc<Universe>,
    stream: SfStream,
    plan: EditPlan,
    ctx: Arc<Ctx>,
    probe: Arc<WalProbe>,
    dir: std::path::PathBuf,
    ingest_ms: f64,
}

fn setup(args: &Args, work: &WorkDir, index: usize, deltas: usize) -> (Env, SetupTimes) {
    let t = Instant::now();
    let stream = SfStream::new(SfConfig::new(SF, args.seed), SfJoin::CustomerOrders)
        .expect("streaming schema is well-formed");
    let plan = edit_plan(&stream, deltas);
    let datagen = secs_since(t);

    let t = Instant::now();
    let (universe, _) =
        Universe::build_streaming_live(stream.schema().clone(), || stream.chunks(), workers());
    let universe = Arc::new(universe);
    let build = secs_since(t);

    // Every live session infers the key join (customer ⋈ orders).
    let ctx = Arc::new(Ctx::new(
        universe.instance(),
        vec![stream.goal()],
        plan.scripts.clone(),
    ));

    let t = Instant::now();
    let dir = work.path.join(format!("live{index}"));
    let probe = Arc::new(WalProbe::default());
    let (manager, _) = open_durable(Arc::clone(&universe), &dir, &probe, args.inject, args.trace);
    let manager = Arc::new(manager);
    let stack = Stack::bind(args.inject.handle, args.trace);
    stack
        .registry
        .register("live", Arc::clone(&manager))
        .expect("fresh registry");
    let bind = secs_since(t);

    let t = Instant::now();
    let mut client = jqi_net::Client::connect(stack.addr()).expect("connect");
    for _ in 0..200 {
        let r = client.get("/v1/universes").expect("warm request");
        assert_eq!(r.status, 200, "warm-up request refused");
    }
    let warm = secs_since(t);
    (
        Env {
            stack,
            manager,
            universe,
            stream,
            plan,
            ctx,
            probe,
            dir,
            ingest_ms: build * 1e3,
        },
        SetupTimes {
            datagen,
            build,
            bind,
            warm,
        },
    )
}

fn plan_of(seed: u64) -> Box<dyn FnMut(usize) -> Plan + Send> {
    Box::new(move |key| {
        let h = mix(seed ^ mix(key as u64 | 1 << 40));
        Plan {
            cfg: strategy_for(key, h),
            goal: 0,
            snapshot_after: h.is_multiple_of(8).then_some(1),
        }
    })
}

/// Sends delta `d` from generator 0's pool, holding the epoch gate so no
/// answer carrying an old class id can cross it.
fn send_delta(
    pool: &mut Pool,
    shared: &Shared,
    manager: &SessionManager,
    d: usize,
    due: Instant,
    outcomes: &mut Vec<DeltaOutcome>,
    cache: &mut DecisionCacheStats,
) {
    let gate = shared.gate.write().unwrap();
    let retired = shared.universe();
    shared.begin_delta();
    let op = Op::Delta { d };
    let sent = Instant::now();
    let result = pool.target.exec(pool.stats.attempted, &op);
    let done = Instant::now();
    shared.end_delta(manager.universe());
    drop(gate);
    *cache = sum_cache(*cache, retired.decision_cache_stats());
    pool.stats.attempted += 1;
    match result {
        Ok((Outcome::Delta(outcome), _)) => {
            pool.stats
                .latency(OpKind::Delta)
                .push(done.saturating_duration_since(due).as_secs_f64() * 1e6);
            outcomes.push(outcome);
            if pool.record {
                pool.stats.recorded.push(Recorded {
                    at_ns: shared.since_start_ns(sent),
                    op,
                    class: None,
                });
            }
        }
        Ok(_) => unreachable!("a delta answers with a delta outcome"),
        Err(failure) => pool.stats.fail(&op, failure),
    }
}

pub fn run(args: &Args) -> RunOut {
    let mut out = RunOut::default();
    let work = WorkDir::new("live");
    let ticks = (RATE_PER_GENERATOR * args.seconds).round().max(1.0) as usize;
    let deltas = ticks.div_ceil(DELTA_EVERY);
    let mut setups = Vec::new();
    let mut env = None;
    for i in 0..SETUPS {
        drop(env.take());
        let (e, times) = setup(args, &work, i, deltas);
        setups.push(times);
        env = Some(e);
    }
    let env = env.unwrap();
    report_setup(&mut out, &setups);
    let builds: Vec<f64> = setups.iter().map(|s| s.build * 1e3).collect();
    out.report.put("build_ms", median_of(&builds), "ms");
    out.report.put("ingest.build_ms", env.ingest_ms, "ms");
    let shape = UniverseShape::of(&env.universe);

    let tenant = Tenant {
        uid: "live".into(),
        universe: Arc::clone(&env.universe),
        manager: Some(Arc::clone(&env.manager)),
        ctx: Arc::clone(&env.ctx),
    };
    let shared = Shared::new(Arc::clone(&env.universe), Arc::clone(&env.ctx));
    let mut pools: Vec<Pool> = (0..2)
        .map(|t| {
            let mut pool = Pool::new(
                HttpTransport::connect(env.stack.addr(), false),
                &tenant,
                POOL,
                t,
                2,
                plan_of(args.seed),
            );
            pool.record = args.trace;
            pool
        })
        .collect();
    drop(tenant);

    // From the first timed request to the end of the run (the traced
    // replay included), no CPU halts between requests.
    let _keepalive = crate::layers::Keepalive::start();
    let mut retired_cache = DecisionCacheStats::default();
    let mut outcomes = Vec::new();
    let mut sweep_ms = Samples::new();
    let start = Instant::now() + Duration::from_millis(2);
    for pool in pools.iter_mut() {
        pool.windows = Some((start, Duration::from_secs(WINDOW_SECONDS)));
    }
    let period = 1.0 / RATE_PER_GENERATOR;
    {
        let (first, second) = pools.split_at_mut(1);
        let (p0, p1) = (&mut first[0], &mut second[0]);
        let (shared, manager, outcomes, sweep_ms, retired_cache) = (
            &shared,
            &env.manager,
            &mut outcomes,
            &mut sweep_ms,
            &mut retired_cache,
        );
        std::thread::scope(|scope| {
            scope.spawn(move || {
                tighten_timer_slack();
                let mut d = 0;
                for k in 0..ticks {
                    let due = start + Duration::from_secs_f64(k as f64 * period);
                    sleep_until(due);
                    if k % DELTA_EVERY == DELTA_EVERY / 2 && d < deltas {
                        send_delta(p0, shared, manager, d, due, outcomes, retired_cache);
                        d += 1;
                    }
                    p0.tick(shared, due);
                }
            });
            scope.spawn(move || {
                tighten_timer_slack();
                for k in 0..ticks {
                    let due = start + Duration::from_secs_f64(k as f64 * period);
                    sleep_until(due);
                    if k % SWEEP_EVERY == SWEEP_EVERY - 1 {
                        let t = Instant::now();
                        if let Err(e) = manager.sweep() {
                            panic!("sweep failed: {e}");
                        }
                        sweep_ms.push(ms_since(t));
                    }
                    p1.tick(shared, due);
                }
            });
        });
    }
    let mut stats = GenStats::default();
    for pool in pools.iter_mut() {
        stats.merge(std::mem::take(&mut pool.stats));
    }
    for pool in pools.iter_mut() {
        let rest = pool.finish_below(&shared, 2 * POOL);
        stats.merge_untimed(rest);
    }
    let final_universe = shared.universe();
    let delta = std::mem::take(stats.latency(OpKind::Delta));
    let applied = outcomes.len();
    out.report.put("delta_p50_ms", delta.median() / 1e3, "ms");
    out.report
        .put("delta_p90_ms", delta.quantile(0.9) / 1e3, "ms");
    out.report.put("deltas", applied as f64, "count");
    out.report.put("sweep_ms_p50", sweep_ms.median(), "ms");
    let sum = |f: fn(&DeltaOutcome) -> usize| outcomes.iter().map(f).sum::<usize>() as f64;
    out.report.put("delta.edits", sum(|o| o.edits), "count");
    out.report
        .put("migration.carried", sum(|o| o.carried), "count");
    out.report
        .put("migration.replayed", sum(|o| o.replayed), "count");
    out.report.put(
        "migration.dropped_labels",
        sum(|o| o.dropped_labels),
        "count",
    );
    out.report
        .put("migration.invalidated", sum(|o| o.invalidated), "count");
    let (mean, n) = interactions_mean(&stats.completed, 2 * POOL);
    out.report.put("interactions_mean", mean, "count");
    out.report.put("interactions.sessions", n as f64, "count");
    out.require(n == 2 * POOL, || {
        format!("only {n} of the first {} sessions completed", 2 * POOL)
    });
    out.report
        .put("session_ms", stats.session_ms.median(), "ms");
    let answers = stats.latency(OpKind::Answer).len();
    let recorded = std::mem::take(&mut stats.recorded);
    report_traffic(&mut out, &mut stats);

    report_cache(
        &mut out,
        &sum_cache(retired_cache, final_universe.decision_cache_stats()),
    );
    let manager_stats = env.manager.stats();
    report_manager(&mut out, &manager_stats);
    report_universes(&mut out, &[shape], &builds);
    report_net(&mut out, &env.stack);
    let durability = manager_stats.durability.unwrap_or_default();
    out.report
        .put("wal.records", durability.wal_records as f64, "count");
    out.report
        .put("wal.syncs", durability.wal_syncs as f64, "count");
    out.report
        .put("wal.bytes", durability.wal_appended_bytes as f64, "B");
    out.report.put(
        "wal.records_per_sync",
        durability.wal_records as f64 / durability.wal_syncs.max(1) as f64,
        "ratio",
    );
    out.report.put(
        "wal.bytes_per_answer",
        durability.wal_appended_bytes as f64 / answers.max(1) as f64,
        "B",
    );
    out.report.put(
        "segments.spill_bytes",
        durability.spill_bytes_written as f64,
        "B",
    );
    out.report.put(
        "segments.spill_reads",
        durability.spill_reads as f64,
        "count",
    );
    {
        let mut append = Samples::new();
        let mut sync = Samples::new();
        let appends = env.probe.append_ns.lock().unwrap();
        for &ns in appends.iter() {
            append.push_ns_as_us(ns);
        }
        for &ns in env.probe.sync_ns.lock().unwrap().iter() {
            sync.push_ns_as_us(ns);
        }
        if args.trace {
            out.report.put("wal.appends", appends.len() as f64, "count");
            out.report.put("wal.append_us_p50", append.median(), "us");
            out.report.put("wal.sync_us_p50", sync.median(), "us");
            out.report.put("wal.sync_us_p99", sync.p99(), "us");
        }
    }

    // The fleet the run leaves open, then a clean shutdown.
    let open: Vec<(u64, usize)> = pools
        .iter()
        .flat_map(|p| p.open_sids())
        .filter_map(|sid| env.manager.interactions(sid).ok().map(|n| (sid, n)))
        .collect();
    let open_count = env.manager.session_count();
    drop(pools);
    check_against_rebuild(&env.stream, &env.plan, applied, &final_universe, &mut out);
    let Env {
        stack,
        manager,
        stream,
        ctx,
        dir,
        probe,
        ..
    } = env;
    // The gateway keeps its server's stats handle, which keeps the
    // gateway: unregister the tenant so the manager (and its WAL) closes.
    stack.registry.remove("live");
    drop(stack);
    drop(shared);
    out.require(Arc::strong_count(&manager) == 1, || {
        "the live manager is still shared at shutdown".into()
    });
    drop(manager);

    let mut recovery_ms = Vec::new();
    for _ in 0..RECOVERIES {
        let t = Instant::now();
        let (recovered, report) = open_durable(
            Arc::clone(&final_universe),
            &dir,
            &probe,
            args.inject,
            false,
        );
        let ms = ms_since(t);
        recovery_ms.push(ms);
        out.report
            .put("recover.wal_records", report.wal_records as f64, "count");
        out.report.put(
            "recover.replayed_answers",
            report.replayed_answers as f64,
            "count",
        );
        out.report.put(
            "recover.sessions_per_s",
            report.sessions as f64 / (ms / 1e3),
            "1/s",
        );
        out.require(recovered.session_count() == open_count, || {
            format!(
                "recovered {} sessions, the run left {open_count} open",
                recovered.session_count()
            )
        });
        let mismatched = open
            .iter()
            .filter(|&&(sid, n)| recovered.interactions(sid).ok() != Some(n))
            .count();
        out.require(mismatched == 0, || {
            format!("{mismatched} recovered sessions differ in interactions from the run's")
        });
    }
    out.report.put("recovery_ms", median_of(&recovery_ms), "ms");
    out.report
        .put("recover.open_sessions", open_count as f64, "count");

    if args.trace {
        let mut ops = recorded;
        ops.sort_by_key(|r| r.at_ns);
        ops.truncate(TRACE_OPS);
        let inject = args.inject;
        let trace_dir = work.path.join("trace");
        let stream = Arc::new(stream);
        let build_stream = Arc::clone(&stream);
        let segment = Segment {
            build: Box::new(move || {
                let (u, _) = Universe::build_streaming_live(
                    build_stream.schema().clone(),
                    || build_stream.chunks(),
                    workers(),
                );
                Arc::new(u)
            }),
            manager: Box::new(move |u, tag| {
                let probe = Arc::new(WalProbe::default());
                Arc::new(open_durable(u, &trace_dir.join(tag), &probe, inject, false).0)
            }),
            ctx,
            ops,
        };
        drop(final_universe);
        replay(&[segment], args.inject, &mut out);
    }
    drop(work);
    out
}
