//! `crowd`: many independent crowd workers labelling one small universe
//! over HTTP, open loop. Transport and gateway do almost all the work;
//! the decision cache is warm, so the core stays cheap.

use crate::common::{
    cache_since, report_absent_live_counts, report_cache, report_manager, report_net, report_setup,
    report_traffic, report_universes, Args, RunOut, SetupTimes, UniverseShape,
};
use crate::gen::{interactions_mean, GenStats, Pool, Shared};
use crate::layers::{sleep_until, tighten_timer_slack, Keepalive};
use crate::ops::{oracle_label, Ctx, HttpTransport, Plan, Tenant};
use crate::stack::{mix, Stack};
use crate::stats::{ms_since, secs_since, Hist, Samples};
use crate::trace::{replay, Segment};
use jqi_core::{OwnedSession, StrategyConfig, Universe};
use jqi_datagen::{TpchJoin, TpchScale, TpchTables};
use jqi_relation::{BitSet, Instance};
use jqi_server::{ServerConfig, SessionManager};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sessions each of the two generators keeps open.
const POOL: usize = 500;
/// Goals in the skewed pool crowd workers draw from.
const GOALS: usize = 48;
/// Set-ups per run (`setup_s` is their median). Each but the last (the
/// one the run keeps, from the run's seed) loads a table pair of a fixed
/// panel, the same in every run: the warm-up's work depends on the
/// data's goal lattice — from one table pair to the next it took 0.1 to
/// 0.5 s — so a panel drawn from the run's seed set the figure more than
/// the program did.
const SETUPS: usize = 7;
/// Table pairs (one per derived seed) whose builds `build_ms` is the
/// median of, so one seed's data does not set the figure. Each build
/// starts after a short pause.
const BUILDS: usize = 24;
/// The fixed ladder of offered rates for `max_rate_rps`.
const LADDER_RPS: [f64; 10] = [
    6000.0, 7500.0, 9400.0, 11700.0, 14600.0, 18300.0, 22900.0, 28600.0, 35800.0, 44700.0,
];
/// A rung passes when the question p99, timed from when each request
/// was due, stays within this (µs)…
const RUNG_P99_LIMIT_US: f64 = 1000.0;
/// …at most this share of operations fails…
const RUNG_FAILED_LIMIT: f64 = 0.001;
/// …and the generator's lateness grows by no more than this (µs) from
/// the rung's first third to its last.
const RUNG_LATENESS_GROWTH_US: f64 = 200.0;
/// Latencies are summarized per window of this length (seconds): the
/// reported quantiles are medians over windows, so a stall of the shared
/// host inside a few windows does not set a run's figure.
const WINDOW_SECONDS: f64 = 0.1;
/// Share of `--seconds` spent in the closed-loop reference phase (the
/// reported latencies); the rate ladder gets the rest.
const REFERENCE_SHARE: f64 = 0.7;
/// Operations of the reference phase replayed by the traced run.
const TRACE_OPS: usize = 20_000;

/// The strategies crowd workers use: the paper's five.
pub fn strategy_for(key: usize, h: u64) -> StrategyConfig {
    match key % 5 {
        0 => StrategyConfig::Bu,
        1 => StrategyConfig::Td,
        2 => StrategyConfig::Lks { depth: 1 },
        3 => StrategyConfig::Lks { depth: 2 },
        _ => StrategyConfig::Rnd { seed: h },
    }
}

/// Runs every (goal, deterministic strategy) pair to completion on
/// `universe`, filling its decision cache the way a long-running crowd
/// deployment would have.
pub fn warm_cache(universe: &Arc<Universe>, goals: &[BitSet]) {
    for goal in goals {
        for cfg in [
            StrategyConfig::Bu,
            StrategyConfig::Td,
            StrategyConfig::Lks { depth: 1 },
            StrategyConfig::Lks { depth: 2 },
        ] {
            let mut session = OwnedSession::with_config(Arc::clone(universe), &cfg);
            while let Some(q) = session.next().expect("warm-up session runs") {
                session
                    .answer(oracle_label(universe, goal, q.class))
                    .expect("oracle answers are consistent");
            }
        }
    }
}

struct Env {
    stack: Stack,
    manager: Arc<SessionManager>,
    universe: Arc<Universe>,
    instance: Instance,
    ctx: Arc<Ctx>,
    /// Cumulative Zipf weights over the goal pool.
    weights: Arc<Vec<f64>>,
}

fn setup(args: &Args, seed: u64) -> (Env, SetupTimes) {
    let t = Instant::now();
    let workload = TpchTables::generate(TpchScale::Small, seed).workload(TpchJoin::Join4);
    let datagen = secs_since(t);

    let t = Instant::now();
    let universe = Arc::new(Universe::build(workload.instance.clone()));
    let build = secs_since(t);

    let t = Instant::now();
    // The goal pool: the join's own key join first (the most popular),
    // then a seeded draw from the non-nullable predicates of one or two
    // attribute pairs — the shape of the joins crowd workers are asked
    // about (TPC-H's own joins have one or two).
    let mut candidates = jqi_core::lattice::non_nullable_predicates(&universe, 100_000)
        .expect("small universe enumerates");
    candidates.retain(|g| *g != workload.goal && g.len() <= 2);
    candidates.sort_by(|a, b| a.len().cmp(&b.len()).then_with(|| a.words().cmp(b.words())));
    let mut goals = vec![workload.goal.clone()];
    goals.extend(candidates.into_iter().take(GOALS - 1));
    let mut weights = Vec::with_capacity(goals.len());
    let mut total = 0.0;
    for rank in 0..goals.len() {
        total += 1.0 / ((rank + 1) as f64).sqrt();
        weights.push(total);
    }
    let ctx = Arc::new(Ctx::new(universe.instance(), goals, Vec::new()));
    let datagen = datagen + secs_since(t);

    let t = Instant::now();
    let stack = Stack::bind(args.inject.handle, args.trace);
    let manager = Arc::new(SessionManager::new(
        Arc::clone(&universe),
        ServerConfig::default(),
    ));
    stack
        .registry
        .register("crowd", Arc::clone(&manager))
        .expect("fresh registry");
    let bind = secs_since(t);

    let t = Instant::now();
    warm_cache(&universe, &ctx.goals);
    let mut client = jqi_net::Client::connect(stack.addr()).expect("connect");
    for _ in 0..200 {
        let r = client.get("/v1/universes").expect("warm request");
        assert_eq!(r.status, 200, "warm-up request refused");
    }
    let warm = secs_since(t);

    let env = Env {
        stack,
        manager,
        universe,
        instance: workload.instance,
        ctx,
        weights: Arc::new(weights),
    };
    (
        env,
        SetupTimes {
            datagen,
            build,
            bind,
            warm,
        },
    )
}

fn plan_of(seed: u64, weights: Arc<Vec<f64>>) -> Box<dyn FnMut(usize) -> Plan + Send> {
    Box::new(move |key| {
        let h = mix(seed ^ mix(key as u64));
        let total = *weights.last().unwrap();
        let x = (h >> 11) as f64 / (1u64 << 53) as f64 * total;
        let goal = weights.partition_point(|&w| w <= x).min(weights.len() - 1);
        Plan {
            cfg: strategy_for(key, h),
            goal,
            snapshot_after: h.is_multiple_of(8).then_some(2),
        }
    })
}

/// Runs both generators for `seconds`: open loop at `rate` requests/s
/// (together), or closed loop (each sends when its previous request
/// returned) when `rate` is `None`. Returns each generator's stats.
fn phase(pools: &mut [Pool], shared: &Shared, rate: Option<f64>, seconds: f64) -> Vec<GenStats> {
    let start = Instant::now() + Duration::from_millis(2);
    let end = start + Duration::from_secs_f64(seconds);
    for pool in pools.iter_mut() {
        pool.windows = Some((start, Duration::from_secs_f64(WINDOW_SECONDS)));
    }
    let generators = pools.len() as f64;
    std::thread::scope(|scope| {
        for pool in pools.iter_mut() {
            scope.spawn(move || {
                tighten_timer_slack();
                match rate {
                    Some(rate) => {
                        let per = rate / generators;
                        let n = (per * seconds).round().max(1.0) as usize;
                        for k in 0..n {
                            let due = start + Duration::from_secs_f64(k as f64 / per);
                            sleep_until(due);
                            pool.tick(shared, due);
                        }
                    }
                    None => {
                        sleep_until(start);
                        while Instant::now() < end {
                            pool.tick(shared, Instant::now());
                        }
                    }
                }
            });
        }
    });
    pools
        .iter_mut()
        .map(|p| std::mem::take(&mut p.stats))
        .collect()
}

pub fn run(args: &Args) -> RunOut {
    let mut out = RunOut::default();
    let mut setups = Vec::new();
    let mut env = None;
    for i in 0..SETUPS {
        drop(env.take());
        let seed = if i + 1 == SETUPS {
            args.seed
        } else {
            mix(1000 + i as u64)
        };
        let (e, times) = setup(args, seed);
        setups.push(times);
        env = Some(e);
    }
    let mut build_ms = Vec::new();
    for j in 0..BUILDS as u64 {
        let tables = TpchTables::generate(TpchScale::Small, mix(args.seed ^ mix(j + 1)));
        let instance = tables.workload(TpchJoin::Join4).instance;
        // Builds are rare events on a serving host; back to back they
        // alternate between a warm and a cold mode 1.6× apart.
        std::thread::sleep(Duration::from_millis(10));
        let t = Instant::now();
        drop(Universe::build(instance));
        build_ms.push(ms_since(t));
    }
    let env = env.unwrap();
    report_setup(&mut out, &setups);
    let mut b = Samples::new();
    for &v in &build_ms {
        b.push(v);
    }
    out.report.put("build_ms", b.median(), "ms");

    let tenant = Tenant {
        uid: "crowd".into(),
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
                plan_of(args.seed, Arc::clone(&env.weights)),
            );
            pool.record = args.trace;
            pool
        })
        .collect();

    let cache_before = env.universe.decision_cache_stats();
    // From the first timed request to the end of the run (the traced
    // replay included), no CPU halts between requests.
    let _keepalive = Keepalive::start();
    // Reference phase: the reported latencies, in a closed loop over
    // both connections. In an open loop the 2-vCPU host parks its vCPUs
    // between requests, and waking them costs more, and varies more from
    // run to run, than the program's own work (see the README).
    let mut reference = GenStats::default();
    for s in phase(&mut pools, &shared, None, args.seconds * REFERENCE_SHARE) {
        reference.merge(s);
    }
    for pool in pools.iter_mut() {
        pool.record = false;
    }
    out.report
        .put("session_ms", reference.session_ms.median(), "ms");
    let recorded = std::mem::take(&mut reference.recorded);

    // Ladder: climb until a rung misses its limits.
    let rung_seconds = args.seconds * (1.0 - REFERENCE_SHARE) / LADDER_RPS.len() as f64;
    let mut max_rate = 0.0;
    let mut ladder_lateness = Hist::new();
    for rate in LADDER_RPS {
        let mut rung = GenStats::default();
        let mut growth = 0.0f64;
        for s in phase(&mut pools, &shared, Some(rate), rung_seconds) {
            growth = growth.max(s.lateness_growth());
            rung.merge(s);
        }
        ladder_lateness.merge(&rung.lateness);
        let p99 = rung.due[0].p99();
        let failed = rung.failed as f64 / rung.attempted.max(1) as f64;
        out.report
            .put(format!("ladder.{rate}.lateness_growth_us"), growth, "us");
        out.report
            .put(format!("ladder.{rate}.question_p99_us"), p99, "us");
        reference.merge_untimed(rung);
        if p99 > RUNG_P99_LIMIT_US || failed > RUNG_FAILED_LIMIT || growth > RUNG_LATENESS_GROWTH_US
        {
            break;
        }
        max_rate = rate;
    }
    out.report.put("max_rate_rps", max_rate, "1/s");

    // The first sessions of each generator are the same in every run of
    // a seed: finish them and average their effort.
    for pool in pools.iter_mut() {
        let rest = pool.finish_below(&shared, 2 * POOL);
        reference.merge_untimed(rest);
    }
    let (mean, n) = interactions_mean(&reference.completed, 2 * POOL);
    out.report.put("interactions_mean", mean, "count");
    out.report.put("interactions.sessions", n as f64, "count");
    out.require(n == 2 * POOL, || {
        format!("only {n} of the first {} sessions completed", 2 * POOL)
    });
    report_traffic(&mut out, &mut reference);
    // The generators' health is an open-loop notion: the ladder's.
    out.report
        .put("gen.lateness_us_p99", ladder_lateness.p99(), "us");
    out.report
        .put("gen.lateness_us_p50", ladder_lateness.median(), "us");

    report_net(&mut out, &env.stack);
    // The timed traffic's cache activity, the warm-up's excluded.
    report_cache(
        &mut out,
        &cache_since(env.universe.decision_cache_stats(), cache_before),
    );
    report_manager(&mut out, &env.manager.stats());
    report_universes(&mut out, &[UniverseShape::of(&env.universe)], &build_ms);
    report_absent_live_counts(&mut out);

    if args.trace {
        let mut ops = recorded;
        ops.sort_by_key(|r| r.at_ns);
        ops.truncate(TRACE_OPS);
        let instance = env.instance.clone();
        let goals = env.ctx.goals.clone();
        let segment = Segment {
            build: Box::new(move || {
                let universe = Arc::new(Universe::build(instance.clone()));
                warm_cache(&universe, &goals);
                universe
            }),
            manager: Box::new(|u, _| Arc::new(SessionManager::new(u, ServerConfig::default()))),
            ctx: Arc::clone(&env.ctx),
            ops,
        };
        drop(pools);
        drop(env);
        replay(&[segment], args.inject, &mut out);
    }
    out
}
