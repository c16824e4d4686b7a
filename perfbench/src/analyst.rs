//! `analyst`: a data owner loads a fresh table pair, builds its
//! universe, registers it as a new tenant and infers the join over HTTP
//! in a closed loop — the paper's Fig. 6 setting. Universe build and
//! cold lookahead do the work; every universe (and its decision cache)
//! is new.

use crate::common::{
    report_absent_live_counts, report_cache, report_manager, report_net, report_setup,
    report_traffic, report_universes, sum_cache, Args, RunOut, SetupTimes, UniverseShape,
};
use crate::gen::{run_closed, GenStats, Shared};
use crate::ops::{oracle_label, Ctx, HttpTransport, JsonTarget, Plan, SessionRun, Target, Tenant};
use crate::stack::{mix, Stack};
use crate::stats::{ms_since, secs_since, Samples};
use crate::trace::{replay, Segment};
use jqi_core::{DecisionCacheStats, StrategyConfig, Universe};
use jqi_datagen::{TpchJoin, TpchScale, TpchTables, TpchWorkload};
use jqi_server::{ManagerStats, ServerConfig, SessionManager};
use std::sync::Arc;
use std::time::Instant;

/// One rotation of datasets: TPC-H Joins 1–5 at SF 30, then Join 4 at
/// SF 100 (about 12.5 M product tuples).
const ROTATION: [(f64, TpchJoin); 6] = [
    (30.0, TpchJoin::Join1),
    (30.0, TpchJoin::Join2),
    (30.0, TpchJoin::Join3),
    (30.0, TpchJoin::Join4),
    (30.0, TpchJoin::Join5),
    (100.0, TpchJoin::Join4),
];
/// Set-ups per run (`setup_s` is their median).
const SETUPS: usize = 3;
/// Datasets of the run replayed by the traced run.
const TRACE_DATASETS: usize = 4;

/// The sessions an analyst runs per dataset: TD, L1S and L2S (the
/// interactive strategies of Fig. 6), plus BU and RND so every strategy
/// is exercised on cold universes. TD also snapshots and restores.
fn plans(seed: u64) -> Vec<Plan> {
    [
        StrategyConfig::Td,
        StrategyConfig::Lks { depth: 1 },
        StrategyConfig::Lks { depth: 2 },
        StrategyConfig::Bu,
        StrategyConfig::Rnd { seed },
    ]
    .into_iter()
    .enumerate()
    .map(|(i, cfg)| Plan {
        cfg,
        goal: 0,
        snapshot_after: (i == 0).then_some(2),
    })
    .collect()
}

fn dataset_seed(seed: u64, rotation: usize, index: usize) -> u64 {
    mix(seed ^ mix(((rotation as u64) << 8) | index as u64))
}

fn generate(seed: u64, rotation: usize) -> Vec<TpchWorkload> {
    ROTATION
        .iter()
        .enumerate()
        .map(|(i, &(sf, join))| {
            TpchTables::generate(TpchScale::new(sf), dataset_seed(seed, rotation, i)).workload(join)
        })
        .collect()
}

struct Env {
    stack: Stack,
    target: JsonTarget<HttpTransport>,
    first: Vec<TpchWorkload>,
    first_universe: Arc<Universe>,
    first_build_ms: f64,
}

/// Loads the first rotation's tables, builds the first universe, binds
/// the gateway and warms the HTTP path.
fn setup(args: &Args) -> (Env, SetupTimes) {
    let t = Instant::now();
    let first = generate(args.seed, 0);
    let datagen = secs_since(t);

    let t = Instant::now();
    let first_universe = Arc::new(Universe::build(first[0].instance.clone()));
    let build = secs_since(t);

    let t = Instant::now();
    let stack = Stack::bind(args.inject.handle, args.trace);
    let target = JsonTarget::new(HttpTransport::connect(stack.addr(), false));
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
            target,
            first,
            first_universe,
            first_build_ms: build * 1e3,
        },
        SetupTimes {
            datagen,
            build,
            bind,
            warm,
        },
    )
}

/// The footprint of resident sessions on a universe: one session per
/// strategy, two answers in, measured through the manager's own stats.
fn resident_probe(
    manager: &SessionManager,
    goal: &jqi_relation::BitSet,
    seed: u64,
) -> ManagerStats {
    let universe = manager.universe();
    let ids: Vec<u64> = plans(seed)
        .iter()
        .map(|p| manager.create_session(p.cfg.clone()).expect("create"))
        .collect();
    for &id in &ids {
        for _ in 0..2 {
            if let Some(q) = manager.next_question(id).expect("question") {
                manager
                    .answer(id, q.class, oracle_label(&universe, goal, q.class))
                    .expect("answer");
            }
        }
    }
    let stats = manager.stats();
    for id in ids {
        manager.remove(id).expect("remove");
    }
    stats
}

pub fn run(args: &Args) -> RunOut {
    let mut out = RunOut::default();
    let mut setups = Vec::new();
    let mut env = None;
    for _ in 0..SETUPS {
        drop(env.take());
        let (e, times) = setup(args);
        setups.push(times);
        env = Some(e);
    }
    let mut env = env.unwrap();
    report_setup(&mut out, &setups);

    let mut stats = GenStats::default();
    let mut build_ms = Vec::new();
    let mut shapes = Vec::new();
    let mut cache = DecisionCacheStats::default();
    let mut resident = Vec::new();
    let mut segments = Vec::new();
    let start = Instant::now();
    // From the first timed request to the end of the run (the traced
    // replay included), no CPU halts between requests.
    let _keepalive = crate::layers::Keepalive::start();
    let mut rotation = 0;
    // Whole rotations only, so every run measures the same mix of datasets.
    while rotation == 0 || start.elapsed().as_secs_f64() < args.seconds {
        stats.window = rotation;
        let workloads = if rotation == 0 {
            std::mem::take(&mut env.first)
        } else {
            generate(args.seed, rotation)
        };
        for (i, workload) in workloads.into_iter().enumerate() {
            let (universe, ms) = if rotation == 0 && i == 0 {
                (Arc::clone(&env.first_universe), env.first_build_ms)
            } else {
                let t = Instant::now();
                let u = Arc::new(Universe::build(workload.instance.clone()));
                (u, ms_since(t))
            };
            build_ms.push(ms);
            shapes.push(UniverseShape::of(&universe));
            let manager = Arc::new(SessionManager::new(
                Arc::clone(&universe),
                ServerConfig::default(),
            ));
            let uid = format!("ds{rotation}-{i}");
            env.stack
                .registry
                .register(&uid, Arc::clone(&manager))
                .expect("fresh tenant id");
            let ctx = Arc::new(Ctx::new(
                &workload.instance,
                vec![workload.goal.clone()],
                Vec::new(),
            ));
            let tenant = Tenant {
                uid: uid.clone(),
                universe: Arc::clone(&universe),
                manager: Some(Arc::clone(&manager)),
                ctx: Arc::clone(&ctx),
            };
            env.target.load(&tenant);
            let shared = Shared::new(Arc::clone(&universe), Arc::clone(&ctx));
            let recorded_before = stats.recorded.len();
            for (key, plan) in plans(dataset_seed(args.seed, rotation, i))
                .into_iter()
                .enumerate()
            {
                let mut run = SessionRun::new(key, plan);
                run_closed(&mut env.target, &shared, &mut run, &mut stats);
            }
            cache = sum_cache(cache, universe.decision_cache_stats());
            resident.push(resident_probe(&manager, &workload.goal, args.seed));
            env.stack.registry.remove(&uid);
            let ops = stats.recorded.split_off(recorded_before);
            if args.trace && segments.len() < TRACE_DATASETS {
                let instance = workload.instance.clone();
                segments.push(Segment {
                    build: Box::new(move || Arc::new(Universe::build(instance.clone()))),
                    manager: Box::new(|u, _| {
                        Arc::new(SessionManager::new(u, ServerConfig::default()))
                    }),
                    ctx,
                    ops,
                });
            }
        }
        if rotation == 0 {
            // The first rotation's sessions are the same in every run of
            // a seed, so their mean repeats exactly.
            let mut n = Samples::new();
            for &(_, k) in &stats.completed {
                n.push(k as f64);
            }
            out.report.put("interactions_mean", n.mean(), "count");
            out.report
                .put("interactions.sessions", n.len() as f64, "count");
        }
        rotation += 1;
    }
    out.report.put("datasets", build_ms.len() as f64, "count");
    let mut b = Samples::new();
    for &v in &build_ms {
        b.push(v);
    }
    out.report.put("build_ms", b.median(), "ms");
    out.report
        .put("session_ms", stats.session_ms.median(), "ms");
    report_traffic(&mut out, &mut stats);
    report_net(&mut out, &env.stack);
    report_cache(&mut out, &cache);
    let mid = resident.len() / 2;
    resident.sort_by(|a, b| {
        a.resident_bytes_per_session()
            .total_cmp(&b.resident_bytes_per_session())
    });
    report_manager(&mut out, &resident[mid]);
    report_universes(&mut out, &shapes, &build_ms);
    report_absent_live_counts(&mut out);

    if args.trace {
        drop(env);
        replay(&segments, args.inject, &mut out);
    }
    out
}
