//! Operations, the per-session state machine that produces them, and the targets
//! that execute one operation at a given layer.
//!
//! Every workload is a sequence of [`Op`]s. The same sequence can run
//! against any [`Target`]: the HTTP client (through the real transport),
//! the gateway's `Handler` called directly, the `SessionManager`, or bare
//! `OwnedSession`s. Each target returns the span of its own layer's entry
//! point, which is what the traced replay subtracts level by level.

use crate::layers::{strategy_key, StrategyProbe, TimedHandler, TimedStrategy, OP_HEADER};
use jqi_core::{ClassId, Label, OwnedSession, StrategyConfig, Universe, UniverseDelta};
use jqi_net::{Client, Handler, Request};
use jqi_relation::{BitSet, Instance, Side, Tuple, Value};
use jqi_server::json::Json;
use jqi_server::{SessionManager, SessionSnapshot};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One request-sized step of a workload. `s` names a session by the
/// workload's own key (server ids differ per layer).
#[derive(Debug, Clone)]
pub enum Op {
    Create {
        s: usize,
        cfg: StrategyConfig,
        goal: usize,
    },
    Question {
        s: usize,
    },
    Answer {
        s: usize,
        class: ClassId,
        label: Label,
    },
    Snapshot {
        s: usize,
    },
    Drop {
        s: usize,
    },
    Restore {
        s: usize,
    },
    Delta {
        d: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    Create,
    Question,
    Answer,
    Snapshot,
    Drop,
    Restore,
    Delta,
}

pub const OP_KINDS: [OpKind; 7] = [
    OpKind::Create,
    OpKind::Question,
    OpKind::Answer,
    OpKind::Snapshot,
    OpKind::Drop,
    OpKind::Restore,
    OpKind::Delta,
];

impl OpKind {
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Create => "create",
            OpKind::Question => "question",
            OpKind::Answer => "answer",
            OpKind::Snapshot => "snapshot",
            OpKind::Drop => "drop",
            OpKind::Restore => "restore",
            OpKind::Delta => "delta",
        }
    }

    pub fn index(self) -> usize {
        OP_KINDS.iter().position(|&k| k == self).unwrap()
    }
}

impl Op {
    pub fn kind(&self) -> OpKind {
        match self {
            Op::Create { .. } => OpKind::Create,
            Op::Question { .. } => OpKind::Question,
            Op::Answer { .. } => OpKind::Answer,
            Op::Snapshot { .. } => OpKind::Snapshot,
            Op::Drop { .. } => OpKind::Drop,
            Op::Restore { .. } => OpKind::Restore,
            Op::Delta { .. } => OpKind::Delta,
        }
    }
}

/// What a live-data delta did, as reported by the layer that applied it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    pub edits: usize,
    pub carried: usize,
    pub replayed: usize,
    pub dropped_labels: usize,
    pub invalidated: usize,
}

#[derive(Debug, Clone)]
pub enum Outcome {
    Ok,
    Asked {
        class: ClassId,
        label: Label,
    },
    Finished {
        interactions: usize,
        predicate: BitSet,
    },
    Delta(DeltaOutcome),
}

#[derive(Debug, Clone)]
pub struct Failure {
    /// HTTP status, or 0 for a transport or in-process error.
    pub status: u16,
    pub detail: String,
}

impl Failure {
    fn new(status: u16, detail: impl Into<String>) -> Failure {
        Failure {
            status,
            detail: detail.into(),
        }
    }
}

/// One edit script: rows as plain values, so each layer interns them
/// against its own universe.
#[derive(Debug, Clone, Default)]
pub struct DeltaScript {
    pub insert_r: Vec<Vec<Value>>,
    pub delete_r: Vec<Vec<Value>>,
    pub insert_p: Vec<Vec<Value>>,
    pub delete_p: Vec<Vec<Value>>,
}

impl DeltaScript {
    pub fn len(&self) -> usize {
        self.insert_r.len() + self.delete_r.len() + self.insert_p.len() + self.delete_p.len()
    }

    fn json(&self) -> String {
        fn rows(rows: &[Vec<Value>]) -> String {
            let rows: Vec<String> = rows
                .iter()
                .map(|row| {
                    let cells: Vec<String> = row
                        .iter()
                        .map(|v| match (v.as_int(), v.as_str()) {
                            (Some(i), _) => i.to_string(),
                            (None, Some(s)) => crate::stats::json_str(s),
                            (None, None) => unreachable!("values are ints or strings"),
                        })
                        .collect();
                    format!("[{}]", cells.join(","))
                })
                .collect();
            format!("[{}]", rows.join(","))
        }
        format!(
            "{{\"insert_r\":{},\"delete_r\":{},\"insert_p\":{},\"delete_p\":{}}}",
            rows(&self.insert_r),
            rows(&self.delete_r),
            rows(&self.insert_p),
            rows(&self.delete_p)
        )
    }

    /// The script as a `UniverseDelta` over `universe`'s interner, in the
    /// gateway's edit order (insert R, delete R, insert P, delete P).
    pub fn to_delta(&self, universe: &Universe) -> UniverseDelta {
        let interner = universe.instance().interner();
        let mut delta = UniverseDelta::new();
        for row in &self.insert_r {
            delta.insert(Side::R, Tuple::intern(interner, row));
        }
        for row in &self.delete_r {
            delta.delete(Side::R, Tuple::intern(interner, row));
        }
        for row in &self.insert_p {
            delta.insert(Side::P, Tuple::intern(interner, row));
        }
        for row in &self.delete_p {
            delta.delete(Side::P, Tuple::intern(interner, row));
        }
        delta
    }
}

/// Per-dataset knowledge the targets share: the goal pool, how to label
/// a shown tuple for a goal, how to read a predicate back from its text,
/// and the workload's edit scripts.
pub struct Ctx {
    pub goals: Vec<BitSet>,
    goal_pairs: Vec<Vec<(usize, usize)>>,
    r_arity: usize,
    atoms: HashMap<String, usize>,
    nbits: usize,
    pub deltas: Vec<DeltaScript>,
}

impl Ctx {
    pub fn new(instance: &Instance, goals: Vec<BitSet>, deltas: Vec<DeltaScript>) -> Ctx {
        let pairs = instance.pairs();
        let goal_pairs = goals
            .iter()
            .map(|g| g.iter().map(|k| pairs.decode(k)).collect())
            .collect();
        let atoms = (0..pairs.len())
            .map(|k| {
                let mut single = pairs.bottom();
                single.insert(k);
                let text = instance.predicate_string(&single);
                (text.trim_matches(|c| c == '{' || c == '}').to_string(), k)
            })
            .collect();
        Ctx {
            goals,
            goal_pairs,
            r_arity: pairs.arity_r(),
            atoms,
            nbits: pairs.len(),
            deltas,
        }
    }

    /// The goal's label for a tuple shown by its values (R's then P's):
    /// positive exactly when every goal pair agrees.
    fn label_from_values(&self, goal: usize, values: &[Json]) -> Option<Label> {
        let mut positive = true;
        for &(a, b) in &self.goal_pairs[goal] {
            let (x, y) = (values.get(a)?, values.get(self.r_arity + b)?);
            positive &= x == y;
        }
        Some(if positive {
            Label::Positive
        } else {
            Label::Negative
        })
    }

    /// Reads a predicate back from the gateway's `{R.a=P.b ∧ …}` text.
    fn parse_predicate(&self, text: &str) -> Option<BitSet> {
        let mut theta = BitSet::empty(self.nbits);
        let inner = text.strip_prefix('{')?.strip_suffix('}')?;
        for atom in inner.split(" ∧ ").filter(|a| !a.is_empty()) {
            theta.insert(*self.atoms.get(atom)?);
        }
        Some(theta)
    }
}

/// The goal's label for `class` of `universe`.
pub fn oracle_label(universe: &Universe, goal: &BitSet, class: ClassId) -> Label {
    if goal.is_subset(universe.sig(class)) {
        Label::Positive
    } else {
        Label::Negative
    }
}

/// Whether `predicate` selects exactly the goal's tuples, checked class
/// by class (every tuple of a class shares its signature).
pub fn selects_goal(universe: &Universe, predicate: &BitSet, goal: &BitSet) -> bool {
    universe
        .sigs()
        .iter()
        .all(|sig| goal.is_subset(sig) == predicate.is_subset(sig))
}

/// One tenant as a layer sees it.
#[derive(Clone)]
pub struct Tenant {
    pub uid: String,
    pub universe: Arc<Universe>,
    pub manager: Option<Arc<SessionManager>>,
    pub ctx: Arc<Ctx>,
}

/// Executes operations at one layer and reports that layer's span.
pub trait Target {
    fn load(&mut self, tenant: &Tenant);
    fn exec(&mut self, op_id: u64, op: &Op) -> Result<(Outcome, u64), Failure>;

    /// The universe this level serves right now, when the level owns it.
    fn current_universe(&self) -> Option<Arc<Universe>> {
        None
    }

    /// `Universe::apply_delta` spans, for the core level.
    fn core_delta_ns(&mut self) -> Option<Vec<u64>> {
        None
    }
}

/// How a JSON target reaches the gateway.
pub trait Transport {
    /// Sends one request; returns status, body, and the span in ns.
    fn send(
        &mut self,
        op_id: u64,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, Vec<u8>, u64), Failure>;
}

/// Over a real keep-alive HTTP connection; `traced` tags each request
/// with its operation id.
pub struct HttpTransport {
    client: Client,
    traced: bool,
}

impl HttpTransport {
    pub fn connect(addr: std::net::SocketAddr, traced: bool) -> HttpTransport {
        HttpTransport {
            client: Client::connect(addr).expect("connect to the loopback gateway"),
            traced,
        }
    }
}

impl Transport for HttpTransport {
    fn send(
        &mut self,
        op_id: u64,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, Vec<u8>, u64), Failure> {
        let extra = if self.traced {
            vec![(OP_HEADER.to_string(), op_id.to_string())]
        } else {
            Vec::new()
        };
        let start = Instant::now();
        let response = self
            .client
            .request_with(method, path, body.map(str::as_bytes), &extra)
            .map_err(|e| Failure::new(0, format!("transport: {e}")))?;
        let span = start.elapsed().as_nanos() as u64;
        Ok((response.status, response.body, span))
    }
}

/// Calls the wrapped gateway's `Handler::handle` in-process.
pub struct DirectTransport {
    pub handler: Arc<TimedHandler>,
}

impl Transport for DirectTransport {
    fn send(
        &mut self,
        op_id: u64,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<(u16, Vec<u8>, u64), Failure> {
        let request = Request {
            method: method.to_string(),
            path: path.to_string(),
            headers: vec![(OP_HEADER.to_string(), op_id.to_string())],
            body: body.map_or_else(Vec::new, |b| b.as_bytes().to_vec()),
            close: false,
            deadline: None,
        };
        let start = Instant::now();
        let response = self.handler.handle(&request);
        let span = start.elapsed().as_nanos() as u64;
        Ok((response.status, response.body, span))
    }
}

struct JsonSession {
    sid: u64,
    goal: usize,
    snapshot: Option<String>,
}

/// A target speaking the gateway's JSON API over some transport.
pub struct JsonTarget<T: Transport> {
    transport: T,
    uid: String,
    ctx: Option<Arc<Ctx>>,
    sessions: HashMap<usize, JsonSession>,
}

impl<T: Transport> JsonTarget<T> {
    pub fn new(transport: T) -> JsonTarget<T> {
        JsonTarget {
            transport,
            uid: String::new(),
            ctx: None,
            sessions: HashMap::new(),
        }
    }

    /// The server id of an open (not dropped) session.
    pub fn sid(&self, s: usize) -> Option<u64> {
        self.sessions
            .get(&s)
            .filter(|js| js.snapshot.is_none())
            .map(|js| js.sid)
    }

    fn session(&self, s: usize) -> Result<&JsonSession, Failure> {
        self.sessions
            .get(&s)
            .ok_or_else(|| Failure::new(0, format!("session key {s} not open")))
    }

    fn call(
        &mut self,
        op_id: u64,
        method: &str,
        path: &str,
        body: Option<&str>,
        expect: u16,
    ) -> Result<(Json, u64), Failure> {
        let (status, body, span) = self.transport.send(op_id, method, path, body)?;
        let text = String::from_utf8_lossy(&body);
        if status != expect {
            return Err(Failure::new(status, format!("{method} {path}: {text}")));
        }
        let doc = if text.is_empty() {
            Json::Null
        } else {
            Json::parse(&text).map_err(|e| Failure::new(status, format!("bad json: {e:?}")))?
        };
        Ok((doc, span))
    }
}

fn json_u64(doc: &Json, key: &str) -> Result<u64, Failure> {
    doc.get(key)
        .and_then(Json::as_num)
        .map(|n| n as u64)
        .ok_or_else(|| Failure::new(0, format!("response lacks {key:?}")))
}

impl<T: Transport> Target for JsonTarget<T> {
    fn load(&mut self, tenant: &Tenant) {
        self.uid = tenant.uid.clone();
        self.ctx = Some(Arc::clone(&tenant.ctx));
        self.sessions.clear();
    }

    fn exec(&mut self, op_id: u64, op: &Op) -> Result<(Outcome, u64), Failure> {
        let ctx = Arc::clone(self.ctx.as_ref().expect("target loaded"));
        let base = format!("/v1/universes/{}", self.uid);
        match op {
            Op::Create { s, cfg, goal } => {
                let body = format!("{{\"strategy\":\"{cfg}\"}}");
                let (doc, span) =
                    self.call(op_id, "POST", &format!("{base}/sessions"), Some(&body), 201)?;
                let sid = json_u64(&doc, "session")?;
                self.sessions.insert(
                    *s,
                    JsonSession {
                        sid,
                        goal: *goal,
                        snapshot: None,
                    },
                );
                Ok((Outcome::Ok, span))
            }
            Op::Question { s } => {
                let (sid, goal) = {
                    let js = self.session(*s)?;
                    (js.sid, js.goal)
                };
                let path = format!("{base}/sessions/{sid}/question");
                let (doc, span) = self.call(op_id, "GET", &path, None, 200)?;
                let question = doc.get("question").cloned().unwrap_or(Json::Null);
                if question == Json::Null {
                    let text = doc.get("predicate").and_then(Json::as_str).unwrap_or("");
                    let predicate = ctx
                        .parse_predicate(text)
                        .ok_or_else(|| Failure::new(0, format!("unreadable predicate {text:?}")))?;
                    let interactions = json_u64(&doc, "interactions")? as usize;
                    return Ok((
                        Outcome::Finished {
                            interactions,
                            predicate,
                        },
                        span,
                    ));
                }
                let class = json_u64(&question, "class")? as ClassId;
                let values = question.get("values").and_then(Json::as_arr).unwrap_or(&[]);
                let label = ctx
                    .label_from_values(goal, values)
                    .ok_or_else(|| Failure::new(0, "question lacks its tuple's values"))?;
                Ok((Outcome::Asked { class, label }, span))
            }
            Op::Answer { s, class, label } => {
                let sid = self.session(*s)?.sid;
                let sign = if *label == Label::Positive { '+' } else { '-' };
                let body = format!("{{\"answers\":[{{\"class\":{class},\"label\":\"{sign}\"}}]}}");
                let path = format!("{base}/sessions/{sid}/answers");
                let (_, span) = self.call(op_id, "POST", &path, Some(&body), 200)?;
                Ok((Outcome::Ok, span))
            }
            Op::Snapshot { s } => {
                let sid = self.session(*s)?.sid;
                let path = format!("{base}/sessions/{sid}/snapshot");
                let (status, body, span) = self.transport.send(op_id, "GET", &path, None)?;
                if status != 200 {
                    return Err(Failure::new(status, "snapshot refused"));
                }
                let text = String::from_utf8_lossy(&body).into_owned();
                self.sessions.get_mut(s).unwrap().snapshot = Some(text);
                Ok((Outcome::Ok, span))
            }
            Op::Drop { s } => {
                let (sid, restorable) = {
                    let js = self.session(*s)?;
                    (js.sid, js.snapshot.is_some())
                };
                let path = format!("{base}/sessions/{sid}");
                let (_, span) = self.call(op_id, "DELETE", &path, None, 204)?;
                if !restorable {
                    self.sessions.remove(s);
                }
                Ok((Outcome::Ok, span))
            }
            Op::Restore { s } => {
                let body = self
                    .sessions
                    .get_mut(s)
                    .and_then(|js| js.snapshot.take())
                    .ok_or_else(|| Failure::new(0, "restore without snapshot"))?;
                let (doc, span) =
                    self.call(op_id, "POST", &format!("{base}/restore"), Some(&body), 201)?;
                let sid = json_u64(&doc, "session")?;
                self.sessions.get_mut(s).unwrap().sid = sid;
                Ok((Outcome::Ok, span))
            }
            Op::Delta { d } => {
                let body = ctx.deltas[*d].json();
                let (doc, span) =
                    self.call(op_id, "POST", &format!("{base}/delta"), Some(&body), 200)?;
                let outcome = DeltaOutcome {
                    edits: json_u64(&doc, "edits")? as usize,
                    carried: json_u64(&doc, "carried")? as usize,
                    replayed: json_u64(&doc, "replayed")? as usize,
                    dropped_labels: json_u64(&doc, "dropped_labels")? as usize,
                    invalidated: doc
                        .get("invalidated")
                        .and_then(Json::as_arr)
                        .map_or(0, <[Json]>::len),
                };
                Ok((Outcome::Delta(outcome), span))
            }
        }
    }
}

struct ManagedSession {
    id: u64,
    goal: usize,
    snapshot: Option<SessionSnapshot>,
}

/// Calls `SessionManager` methods directly — the same calls the gateway
/// makes for each endpoint.
#[derive(Default)]
pub struct ManagerTarget {
    tenant: Option<Tenant>,
    sessions: HashMap<usize, ManagedSession>,
}

fn server_failure(e: jqi_server::ServerError) -> Failure {
    Failure::new(0, e.to_string())
}

impl Target for ManagerTarget {
    fn current_universe(&self) -> Option<Arc<Universe>> {
        self.tenant
            .as_ref()
            .and_then(|t| t.manager.as_ref())
            .map(|m| m.universe())
    }

    fn load(&mut self, tenant: &Tenant) {
        assert!(tenant.manager.is_some(), "manager level needs a manager");
        self.tenant = Some(tenant.clone());
        self.sessions.clear();
    }

    fn exec(&mut self, _op_id: u64, op: &Op) -> Result<(Outcome, u64), Failure> {
        let tenant = self.tenant.as_ref().expect("target loaded");
        let manager = tenant.manager.as_ref().unwrap();
        let missing = |s: usize| Failure::new(0, format!("session key {s} not open"));
        let start = Instant::now();
        let outcome = match op {
            Op::Create { s, cfg, goal } => {
                let id = manager
                    .create_session(cfg.clone())
                    .map_err(server_failure)?;
                let span = start.elapsed().as_nanos() as u64;
                self.sessions.insert(
                    *s,
                    ManagedSession {
                        id,
                        goal: *goal,
                        snapshot: None,
                    },
                );
                return Ok((Outcome::Ok, span));
            }
            Op::Question { s } => {
                let ms = self.sessions.get(s).ok_or_else(|| missing(*s))?;
                let question = manager.next_question(ms.id).map_err(server_failure)?;
                let interactions = manager.interactions(ms.id).map_err(server_failure)?;
                match question {
                    Some(q) => {
                        let span = start.elapsed().as_nanos() as u64;
                        let universe = manager.universe();
                        let label = oracle_label(&universe, &tenant.ctx.goals[ms.goal], q.class);
                        return Ok((
                            Outcome::Asked {
                                class: q.class,
                                label,
                            },
                            span,
                        ));
                    }
                    None => Outcome::Finished {
                        interactions,
                        predicate: manager.inferred_predicate(ms.id).map_err(server_failure)?,
                    },
                }
            }
            Op::Answer { s, class, label } => {
                let id = self.sessions.get(s).ok_or_else(|| missing(*s))?.id;
                manager
                    .answer_batch(id, &[(*class, *label)])
                    .map_err(server_failure)?;
                manager.is_done(id).map_err(server_failure)?;
                manager.interactions(id).map_err(server_failure)?;
                Outcome::Ok
            }
            Op::Snapshot { s } => {
                let ms = self.sessions.get_mut(s).ok_or_else(|| missing(*s))?;
                ms.snapshot = Some(manager.snapshot(ms.id).map_err(server_failure)?);
                Outcome::Ok
            }
            Op::Drop { s } => {
                let ms = self.sessions.get(s).ok_or_else(|| missing(*s))?;
                let (id, restorable) = (ms.id, ms.snapshot.is_some());
                manager.remove(id).map_err(server_failure)?;
                let span = start.elapsed().as_nanos() as u64;
                if !restorable {
                    self.sessions.remove(s);
                }
                return Ok((Outcome::Ok, span));
            }
            Op::Restore { s } => {
                let ms = self.sessions.get_mut(s).ok_or_else(|| missing(*s))?;
                let snapshot = ms
                    .snapshot
                    .take()
                    .ok_or_else(|| Failure::new(0, "restore without snapshot"))?;
                ms.id = manager.restore(&snapshot).map_err(server_failure)?;
                Outcome::Ok
            }
            Op::Delta { d } => {
                let delta = tenant.ctx.deltas[*d].to_delta(&manager.universe());
                let start = Instant::now();
                let report = manager.apply_delta(&delta).map_err(server_failure)?;
                let span = start.elapsed().as_nanos() as u64;
                let outcome = DeltaOutcome {
                    edits: delta.len(),
                    carried: report.carried,
                    replayed: report.replayed,
                    dropped_labels: report.dropped_labels,
                    invalidated: report.invalidated.len(),
                };
                return Ok((Outcome::Delta(outcome), span));
            }
        };
        Ok((outcome, start.elapsed().as_nanos() as u64))
    }
}

struct CoreSession {
    session: OwnedSession,
    /// Whether the session still runs the timing wrapper (rebinding to a
    /// new universe and restoring rebuild the strategy from its config,
    /// so their `next` calls are timed at the `Session::next` call).
    timed: bool,
    cfg: StrategyConfig,
    goal: usize,
    snapshot: Option<CoreSnapshot>,
}

type CoreSnapshot = (Vec<(ClassId, Label)>, Option<ClassId>);

/// Drives bare `OwnedSession`s with timed strategies: the core level.
pub struct CoreTarget {
    universe: Option<Arc<Universe>>,
    ctx: Option<Arc<Ctx>>,
    sessions: HashMap<usize, CoreSession>,
    dropped: HashMap<usize, (StrategyConfig, usize, CoreSnapshot)>,
    pub strategy: Arc<StrategyProbe>,
    /// `Universe::apply_delta` spans (ns).
    pub delta_apply_ns: Vec<u64>,
    /// Sessions a delta's rebind could not carry.
    pub invalidated: usize,
}

impl CoreTarget {
    pub fn new(strategy: Arc<StrategyProbe>) -> CoreTarget {
        CoreTarget {
            universe: None,
            ctx: None,
            sessions: HashMap::new(),
            dropped: HashMap::new(),
            strategy,
            delta_apply_ns: Vec::new(),
            invalidated: 0,
        }
    }
}

fn core_failure(e: impl std::fmt::Display) -> Failure {
    Failure::new(0, e.to_string())
}

impl Target for CoreTarget {
    fn current_universe(&self) -> Option<Arc<Universe>> {
        self.universe.clone()
    }

    fn core_delta_ns(&mut self) -> Option<Vec<u64>> {
        Some(std::mem::take(&mut self.delta_apply_ns))
    }

    fn load(&mut self, tenant: &Tenant) {
        self.universe = Some(Arc::clone(&tenant.universe));
        self.ctx = Some(Arc::clone(&tenant.ctx));
        self.sessions.clear();
        self.dropped.clear();
    }

    fn exec(&mut self, _op_id: u64, op: &Op) -> Result<(Outcome, u64), Failure> {
        let universe = Arc::clone(self.universe.as_ref().expect("target loaded"));
        let ctx = Arc::clone(self.ctx.as_ref().unwrap());
        let missing = |s: usize| Failure::new(0, format!("session key {s} not open"));
        let start = Instant::now();
        let outcome = match op {
            Op::Create { s, cfg, goal } => {
                let session = OwnedSession::owned(
                    Arc::clone(&universe),
                    TimedStrategy::wrap(cfg, &self.strategy),
                );
                let span = start.elapsed().as_nanos() as u64;
                self.sessions.insert(
                    *s,
                    CoreSession {
                        session,
                        timed: true,
                        cfg: cfg.clone(),
                        goal: *goal,
                        snapshot: None,
                    },
                );
                return Ok((Outcome::Ok, span));
            }
            Op::Question { s } => {
                let cs = self.sessions.get_mut(s).ok_or_else(|| missing(*s))?;
                let question = match cs.session.pending_candidate() {
                    Some(c) => Some(c),
                    None => {
                        let t = Instant::now();
                        let q = cs.session.next().map_err(core_failure)?;
                        if !cs.timed {
                            let key = strategy_key(&cs.cfg).expect("paper strategy");
                            self.strategy.record(key, t.elapsed().as_nanos() as u64);
                        }
                        q
                    }
                };
                match question {
                    Some(q) => {
                        let span = start.elapsed().as_nanos() as u64;
                        let label = oracle_label(&universe, &ctx.goals[cs.goal], q.class);
                        return Ok((
                            Outcome::Asked {
                                class: q.class,
                                label,
                            },
                            span,
                        ));
                    }
                    None => Outcome::Finished {
                        interactions: cs.session.interactions(),
                        predicate: cs.session.inferred_predicate(),
                    },
                }
            }
            Op::Answer { s, class, label } => {
                let cs = self.sessions.get_mut(s).ok_or_else(|| missing(*s))?;
                cs.session
                    .apply_batch(&[(*class, *label)])
                    .map_err(core_failure)?;
                Outcome::Ok
            }
            Op::Snapshot { s } => {
                let cs = self.sessions.get_mut(s).ok_or_else(|| missing(*s))?;
                cs.snapshot = Some((cs.session.history().to_vec(), cs.session.pending_class()));
                Outcome::Ok
            }
            Op::Drop { s } => {
                let cs = self.sessions.remove(s).ok_or_else(|| missing(*s))?;
                let CoreSession {
                    session,
                    timed: _,
                    cfg,
                    goal,
                    snapshot,
                } = cs;
                drop(session);
                let span = start.elapsed().as_nanos() as u64;
                // A dropped session lives on only as its snapshot.
                if let Some(snapshot) = snapshot {
                    self.dropped.insert(*s, (cfg, goal, snapshot));
                }
                return Ok((Outcome::Ok, span));
            }
            Op::Restore { s } => {
                let (cfg, goal, (history, pending)) = self
                    .dropped
                    .remove(s)
                    .ok_or_else(|| Failure::new(0, "restore without snapshot"))?;
                let start = Instant::now();
                let session = OwnedSession::replay(Arc::clone(&universe), &cfg, &history, pending)
                    .map_err(core_failure)?;
                let span = start.elapsed().as_nanos() as u64;
                self.sessions.insert(
                    *s,
                    CoreSession {
                        session,
                        timed: false,
                        cfg,
                        goal,
                        snapshot: None,
                    },
                );
                return Ok((Outcome::Ok, span));
            }
            Op::Delta { d } => {
                let delta = ctx.deltas[*d].to_delta(&universe);
                let start = Instant::now();
                let next = Arc::new(universe.apply_delta(&delta).map_err(core_failure)?);
                let span = start.elapsed().as_nanos() as u64;
                self.delta_apply_ns.push(span);
                // Carry the sessions over outside the span: the core level's
                // delta cost is `Universe::apply_delta` alone.
                let mut invalidated = Vec::new();
                for (&s, cs) in self.sessions.iter_mut() {
                    cs.timed = false;
                    if cs.session.rebind(Arc::clone(&next), &cs.cfg).is_err() {
                        invalidated.push(s);
                    }
                }
                self.invalidated += invalidated.len();
                for s in invalidated {
                    self.sessions.remove(&s);
                }
                self.universe = Some(next);
                let outcome = DeltaOutcome {
                    edits: delta.len(),
                    ..DeltaOutcome::default()
                };
                return Ok((Outcome::Delta(outcome), span));
            }
        };
        Ok((outcome, start.elapsed().as_nanos() as u64))
    }
}

/// A session's lifecycle plan.
#[derive(Debug, Clone)]
pub struct Plan {
    pub cfg: StrategyConfig,
    pub goal: usize,
    /// Snapshot → drop → restore after this many answers.
    pub snapshot_after: Option<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Create,
    Ask,
    Answer,
    Snapshot,
    DropForRestore,
    Restore,
    Delete,
    Finished,
}

/// What a finished session left behind for the correctness check.
#[derive(Debug, Clone)]
pub struct Completed {
    pub goal: usize,
    pub interactions: usize,
    pub predicate: BitSet,
}

/// Steps one session through create → question/answer until done
/// (with an optional snapshot → drop → restore) → delete.
#[derive(Debug, Clone)]
pub struct SessionRun {
    pub s: usize,
    pub plan: Plan,
    stage: Stage,
    answers: usize,
    pending: Option<(ClassId, Label)>,
}

impl SessionRun {
    pub fn new(s: usize, plan: Plan) -> SessionRun {
        SessionRun {
            s,
            plan,
            stage: Stage::Create,
            answers: 0,
            pending: None,
        }
    }

    pub fn finished(&self) -> bool {
        self.stage == Stage::Finished
    }

    /// Whether the next op starts a snapshot → drop → restore cycle.
    pub fn snapshotting(&self) -> bool {
        self.stage == Stage::Snapshot
    }

    /// Whether the next op answers a question.
    pub fn answering(&self) -> bool {
        self.stage == Stage::Answer
    }

    /// Forget the outstanding question and ask again (its class id may
    /// belong to an older universe epoch).
    pub fn reask(&mut self) {
        if self.stage == Stage::Answer {
            self.stage = Stage::Ask;
            self.pending = None;
        }
    }

    /// Abandons the session after a failed operation.
    pub fn abandon(&mut self) {
        self.stage = Stage::Finished;
    }

    pub fn next_op(&self) -> Op {
        let s = self.s;
        match self.stage {
            Stage::Create => Op::Create {
                s,
                cfg: self.plan.cfg.clone(),
                goal: self.plan.goal,
            },
            Stage::Ask => Op::Question { s },
            Stage::Answer => {
                let (class, label) = self.pending.expect("answer stage has a question");
                Op::Answer { s, class, label }
            }
            Stage::Snapshot => Op::Snapshot { s },
            Stage::DropForRestore | Stage::Delete => Op::Drop { s },
            Stage::Restore => Op::Restore { s },
            Stage::Finished => unreachable!("finished sessions send no ops"),
        }
    }

    /// Advances on a successful outcome; returns the completion record
    /// when the session reached its inferred predicate.
    pub fn observe(&mut self, outcome: &Outcome) -> Option<Completed> {
        let mut completed = None;
        self.stage = match (self.stage, outcome) {
            (Stage::Create, _) => Stage::Ask,
            (Stage::Ask, Outcome::Asked { class, label }) => {
                self.pending = Some((*class, *label));
                Stage::Answer
            }
            (
                Stage::Ask,
                Outcome::Finished {
                    interactions,
                    predicate,
                },
            ) => {
                completed = Some(Completed {
                    goal: self.plan.goal,
                    interactions: *interactions,
                    predicate: predicate.clone(),
                });
                Stage::Delete
            }
            (Stage::Answer, _) => {
                self.answers += 1;
                self.pending = None;
                if self.plan.snapshot_after == Some(self.answers) {
                    Stage::Snapshot
                } else {
                    Stage::Ask
                }
            }
            (Stage::Snapshot, _) => Stage::DropForRestore,
            (Stage::DropForRestore, _) => Stage::Restore,
            (Stage::Restore, _) => Stage::Ask,
            (Stage::Delete, _) => Stage::Finished,
            (stage, outcome) => unreachable!("{stage:?} cannot observe {outcome:?}"),
        };
        completed
    }
}

/// One executed operation of a recorded run, for the traced replay.
#[derive(Debug, Clone)]
pub struct Recorded {
    /// When it was due (or sent, in a closed loop), ns since the run start.
    pub at_ns: u64,
    pub op: Op,
    /// The question class the run got, when it is comparable across
    /// layers (not straddling a live-data delta).
    pub class: Option<ClassId>,
}
