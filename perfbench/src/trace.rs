//! The traced replay: one recorded operation sequence run through each
//! layer's public entry in turn, every level on its own universe built
//! from the same instance (so no warm decision cache leaks between
//! levels). A layer's self time is its span minus the next level's span
//! for the same operation id.

use crate::common::RunOut;
use crate::layers::{Inject, StrategyProbe, STRATEGY_KEYS};
use crate::ops::{
    selects_goal, CoreTarget, Ctx, DirectTransport, HttpTransport, JsonTarget, ManagerTarget, Op,
    OpKind, Outcome, Recorded, Target, Tenant,
};
use crate::stack::Stack;
use crate::stats::Samples;
use jqi_core::{ClassId, Universe};
use jqi_server::SessionManager;
use std::collections::HashMap;
use std::sync::Arc;

/// Serves a universe the way the recorded run did; the string names the
/// level and segment (for durable directories).
pub type ManagerFactory = Box<dyn Fn(Arc<Universe>, &str) -> Arc<SessionManager>>;

/// One tenant's worth of recorded operations.
pub struct Segment {
    /// Builds a fresh universe of the segment's instance.
    pub build: Box<dyn Fn() -> Arc<Universe>>,
    pub manager: ManagerFactory,
    pub ctx: Arc<Ctx>,
    pub ops: Vec<Recorded>,
}

/// Replay levels, outermost first. Level 0 is the untraced HTTP replay
/// the tracing overhead is measured against.
const LEVELS: [&str; 5] = ["http-untraced", "http", "handler", "manager", "core"];

/// Share of the client-observed total by which the level-by-level sum
/// of self times may miss it: the two `Handler::handle` spans it rests
/// on come from different replays.
pub const SUM_TOLERANCE: f64 = 0.25;

struct Level {
    spans: Vec<u64>,
    classes: Vec<Option<ClassId>>,
}

pub fn replay(segments: &[Segment], inject: Inject, out: &mut RunOut) {
    let kinds: Vec<OpKind> = segments
        .iter()
        .flat_map(|s| s.ops.iter().map(|r| r.op.kind()))
        .collect();
    let n = kinds.len();
    let strategy = Arc::new(StrategyProbe::default());
    let mut core_delta_ns = Vec::new();
    let mut nested: HashMap<u64, u64> = HashMap::new();
    let mut admit = Samples::new();
    let mut levels: Vec<Level> = Vec::new();

    for (li, name) in LEVELS.iter().enumerate() {
        let mut level = Level {
            spans: vec![0; n],
            classes: vec![None; n],
        };
        let stack = match li {
            0 | 1 => Some(Stack::bind(inject.handle, li == 1)),
            2 => Some(Stack::unbound(inject.handle, true)),
            _ => None,
        };
        let mut target: Box<dyn Target> = match li {
            0 | 1 => Box::new(JsonTarget::new(HttpTransport::connect(
                stack.as_ref().unwrap().addr(),
                li == 1,
            ))),
            2 => Box::new(JsonTarget::new(DirectTransport {
                handler: Arc::clone(&stack.as_ref().unwrap().handler),
            })),
            3 => Box::new(ManagerTarget::default()),
            _ => Box::new(CoreTarget::new(Arc::clone(&strategy))),
        };
        let mut op_id = 0u64;
        'segments: for (si, seg) in segments.iter().enumerate() {
            let universe = (seg.build)();
            let manager =
                (li < 4).then(|| (seg.manager)(Arc::clone(&universe), &format!("L{li}-s{si}")));
            let uid = format!("seg{si}");
            if let (Some(stack), Some(manager)) = (&stack, &manager) {
                stack
                    .registry
                    .register(&uid, Arc::clone(manager))
                    .expect("fresh tenant id");
            }
            let tenant = Tenant {
                uid: uid.clone(),
                universe,
                manager,
                ctx: Arc::clone(&seg.ctx),
            };
            target.load(&tenant);
            let mut goals: HashMap<usize, usize> = HashMap::new();
            for rec in &seg.ops {
                let id = op_id;
                op_id += 1;
                if let Op::Create { s, goal, .. } = &rec.op {
                    goals.insert(*s, *goal);
                }
                match target.exec(id, &rec.op) {
                    Ok((outcome, span)) => {
                        level.spans[id as usize] = span;
                        match outcome {
                            Outcome::Asked { class, .. } => {
                                level.classes[id as usize] = Some(class);
                                if let Some(expected) = rec.class {
                                    out.require(class == expected, || {
                                        format!(
                                            "trace level {name}: op {id} asked class {class}, \
                                             the recorded run asked {expected}"
                                        )
                                    });
                                }
                            }
                            Outcome::Finished { predicate, .. } => {
                                let universe = target
                                    .current_universe()
                                    .or_else(|| tenant.manager.as_ref().map(|m| m.universe()))
                                    .expect("a level with a universe");
                                let s = match rec.op {
                                    Op::Question { s } => s,
                                    _ => unreachable!(),
                                };
                                let goal = &seg.ctx.goals[goals[&s]];
                                out.require(selects_goal(&universe, &predicate, goal), || {
                                    format!(
                                        "trace level {name}: op {id} inferred a wrong predicate"
                                    )
                                });
                            }
                            _ => {}
                        }
                    }
                    Err(failure) => {
                        out.problem(format!(
                            "trace level {name}: op {id} ({:?}) failed: {} {}",
                            rec.op.kind(),
                            failure.status,
                            failure.detail
                        ));
                        break 'segments;
                    }
                }
            }
            if let Some(stack) = &stack {
                stack.registry.remove(&uid);
            }
        }
        if li == 1 {
            let handler = &stack.as_ref().unwrap().handler;
            nested = handler.take_spans().into_iter().collect();
            for ns in handler.take_admit_ns() {
                admit.push_ns_as_us(ns);
            }
        }
        if let Some(core) = target.core_delta_ns() {
            core_delta_ns = core;
        }
        drop(target);
        drop(stack);
        levels.push(level);
    }

    // Classes agree level by level (beyond the recorded run's own, which
    // each level was already checked against).
    for id in 0..n {
        let core = levels[4].classes[id];
        for (li, level) in levels.iter().enumerate().take(4) {
            if level.classes[id] != core {
                out.problem(format!(
                    "trace: op {id} asked {:?} at level {}, {:?} at the core",
                    level.classes[id], LEVELS[li], core
                ));
                break;
            }
        }
    }

    let us = |ns: u64| ns as f64 / 1e3;
    let signed_us = |a: u64, b: u64| (a as f64 - b as f64) / 1e3;
    let mut net_self = Samples::new();
    let mut handle = Samples::new();
    let mut gateway_self = Samples::new();
    let mut manager_self = Samples::new();
    let mut migrate_ms = Samples::new();
    let mut per_kind: HashMap<OpKind, Samples> = HashMap::new();
    let mut apply = Samples::new();
    let (mut client_sum, mut parts_sum) = (0.0f64, 0.0f64);
    let mut negative = 0usize;
    let mut nested_violations = 0usize;
    let (c0, c1, h2, m3, k4) = (
        &levels[0].spans,
        &levels[1].spans,
        &levels[2].spans,
        &levels[3].spans,
        &levels[4].spans,
    );
    let mut untraced_q = Samples::new();
    let mut traced_q = Samples::new();
    for (id, kind) in kinds.iter().enumerate() {
        let Some(&h1) = nested.get(&(id as u64)) else {
            continue;
        };
        if h1 > c1[id] {
            nested_violations += 1;
        }
        let net = signed_us(c1[id], h1);
        let gw = signed_us(h2[id], m3[id]);
        let mgr = signed_us(m3[id], k4[id]);
        net_self.push(net);
        handle.push(us(h1));
        gateway_self.push(gw);
        client_sum += us(c1[id]);
        parts_sum += net + gw + mgr + us(k4[id]);
        let tolerance = 1.0 + 0.1 * us(c1[id]);
        if gw < -tolerance || mgr < -tolerance {
            negative += 1;
        }
        match kind {
            OpKind::Delta => migrate_ms.push(mgr / 1e3),
            _ => manager_self.push(mgr),
        }
        per_kind.entry(*kind).or_default().push(us(m3[id]));
        if *kind == OpKind::Answer {
            apply.push(us(k4[id]));
        }
        if *kind == OpKind::Question {
            untraced_q.push(us(c0[id]));
            traced_q.push(us(c1[id]));
        }
    }
    out.require(nested.len() == n, || {
        format!(
            "trace: {} of {n} operations lack a handler span",
            n - nested.len()
        )
    });
    out.require(nested_violations == 0, || {
        format!("trace: {nested_violations} handler spans exceed their client span")
    });
    let sum_error = if client_sum > 0.0 {
        (parts_sum - client_sum).abs() / client_sum
    } else {
        0.0
    };
    out.require(sum_error <= SUM_TOLERANCE, || {
        format!(
            "trace: self times sum to {parts_sum:.0} µs against {client_sum:.0} µs \
             client-observed (tolerance {SUM_TOLERANCE})"
        )
    });
    for (label, samples) in [
        ("net.self_us", &mut net_self),
        ("gateway.self_us", &mut gateway_self),
        ("manager.self_us", &mut manager_self),
    ] {
        out.require(samples.median() >= 0.0, || {
            format!("trace: {label} median is negative")
        });
    }

    let r = &mut out.report;
    r.put("trace.operations", n as f64, "count");
    r.put("trace.sum_error", sum_error, "ratio");
    r.put(
        "trace.negative_self_share",
        negative as f64 / n.max(1) as f64,
        "ratio",
    );
    let (untraced, traced) = (untraced_q.median(), traced_q.median());
    r.put("trace.untraced_question_p50_us", untraced, "us");
    r.put("trace.traced_question_p50_us", traced, "us");
    r.put("trace.overhead_us", traced - untraced, "us");
    r.put("net.self_us_p50", net_self.median(), "us");
    r.put("net.self_us_p99", net_self.p99(), "us");
    r.put("net.admit_us_p50", admit.median(), "us");
    r.put("gateway.handle_us_p50", handle.median(), "us");
    r.put("gateway.handle_us_p99", handle.p99(), "us");
    r.put("gateway.self_us_p50", gateway_self.median(), "us");
    for kind in [
        OpKind::Question,
        OpKind::Answer,
        OpKind::Create,
        OpKind::Snapshot,
        OpKind::Restore,
    ] {
        let p50 = per_kind.get_mut(&kind).map_or(0.0, Samples::median);
        r.put(format!("manager.{}_us_p50", kind.name()), p50, "us");
    }
    r.put("manager.self_us_p50", manager_self.median(), "us");
    r.put("state.apply_us_p50", apply.median(), "us");
    let next = strategy.next_ns.lock().unwrap();
    for (key, spans) in STRATEGY_KEYS.iter().zip(next.iter()) {
        let mut s = Samples::new();
        for &ns in spans {
            s.push_ns_as_us(ns);
        }
        r.put(format!("strategy.{key}.next_us_p50"), s.median(), "us");
    }
    if !migrate_ms.is_empty() {
        let mut apply_ms = Samples::new();
        for ns in core_delta_ns {
            apply_ms.push(ns as f64 / 1e6);
        }
        r.put("manager.migrate_ms_p50", migrate_ms.median(), "ms");
        r.put("delta.apply_ms_p50", apply_ms.median(), "ms");
    }
}
