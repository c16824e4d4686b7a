//! Load generation: open-loop pools of sessions paced by a schedule, and
//! a closed loop for one caller at a time.

use crate::ops::{
    selects_goal, Completed, Ctx, Failure, HttpTransport, JsonTarget, Op, OpKind, Outcome, Plan,
    Recorded, SessionRun, Target, Tenant,
};
use crate::stats::{Hist, Samples};
use jqi_core::Universe;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// The serving universe as the generators know it, with a seqlock-style
/// epoch: odd while a live-data delta is in flight. Class ids are only
/// meaningful within one epoch, so an answer is sent only while the
/// epoch its question was asked in still holds (under `gate`, which a
/// delta holds exclusively); otherwise the question is asked again.
pub struct Shared {
    seq: AtomicU64,
    pub gate: RwLock<()>,
    current: Mutex<(u64, Arc<Universe>)>,
    pub ctx: Arc<Ctx>,
    pub start: Instant,
}

impl Shared {
    pub fn new(universe: Arc<Universe>, ctx: Arc<Ctx>) -> Shared {
        Shared {
            seq: AtomicU64::new(0),
            gate: RwLock::new(()),
            current: Mutex::new((0, universe)),
            ctx,
            start: Instant::now(),
        }
    }

    pub fn epoch(&self) -> u64 {
        self.seq.load(Ordering::Acquire)
    }

    /// Marks a delta as in flight (call with `gate` held exclusively).
    pub fn begin_delta(&self) {
        self.seq.fetch_add(1, Ordering::AcqRel);
    }

    /// Publishes the universe the delta produced and closes the epoch.
    pub fn end_delta(&self, universe: Arc<Universe>) {
        let epoch = self.seq.load(Ordering::Acquire) + 1;
        *self.current.lock().unwrap() = (epoch, universe);
        self.seq.store(epoch, Ordering::Release);
    }

    /// The universe of `epoch`, if it is still the current one.
    pub fn universe_at(&self, epoch: u64) -> Option<Arc<Universe>> {
        let current = self.current.lock().unwrap();
        (current.0 == epoch).then(|| Arc::clone(&current.1))
    }

    pub fn universe(&self) -> Arc<Universe> {
        Arc::clone(&self.current.lock().unwrap().1)
    }

    pub fn since_start_ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.start).as_nanos() as u64
    }
}

/// Fewer samples than this and a window does not count.
const MIN_WINDOW_SAMPLES: usize = 50;

/// What one generator thread measured. Per-operation figures go to
/// fixed-size histograms and per-window summaries, so the bookkeeping
/// takes the same memory however many operations a run makes.
#[derive(Debug, Default)]
pub struct GenStats {
    /// Latency per op kind (µs, from when the op was sent).
    pub latency: [Hist; 7],
    /// Question and answer latencies (µs) from when they were due —
    /// what an open loop's user waits, queueing behind stalls included.
    pub due: [Hist; 2],
    /// Question and answer latencies (µs, from send) of the measurement
    /// window being filled, and that window's index.
    open: [Samples; 2],
    open_window: usize,
    /// `(p50, p99)` of each closed window that had enough samples, for
    /// questions and answers.
    closed: [Vec<(f64, f64)>; 2],
    /// The window closed-loop ops land in.
    pub window: usize,
    /// How late each op was sent (µs).
    pub lateness: Hist,
    /// Summed lateness (µs) and op count per window, in window order.
    lateness_by_window: Vec<(f64, u64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Sessions that reached their inferred predicate.
    pub completions: u64,
    /// `(session key, interactions)` of the completed sessions whose
    /// effort `interactions_mean` averages (a pool's first sessions).
    pub completed: Vec<(usize, usize)>,
    /// Create → inferred predicate wall time of completed sessions (ms).
    pub session_ms: Hist,
    pub checked: u64,
    pub unchecked: u64,
    pub wrong: Vec<String>,
    pub recorded: Vec<Recorded>,
}

impl GenStats {
    /// Folds in the outcome of untimed operations: counts, completions
    /// and checks, but no latencies.
    pub fn merge_untimed(&mut self, other: GenStats) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.failures.extend(other.failures);
        self.completions += other.completions;
        self.completed.extend(other.completed);
        self.checked += other.checked;
        self.unchecked += other.unchecked;
        self.wrong.extend(other.wrong);
    }

    pub fn merge(&mut self, mut other: GenStats) {
        other.close_window();
        for (a, b) in self.latency.iter_mut().zip(other.latency.iter()) {
            a.merge(b);
        }
        for (a, b) in self.due.iter_mut().zip(other.due.iter()) {
            a.merge(b);
        }
        for (a, b) in self.closed.iter_mut().zip(other.closed.iter()) {
            a.extend_from_slice(b);
        }
        self.lateness.merge(&other.lateness);
        self.session_ms.merge(&other.session_ms);
        self.recorded.append(&mut other.recorded);
        self.merge_untimed(other);
    }

    /// Counts a failed operation (and keeps the first few causes).
    pub fn fail(&mut self, op: &Op, failure: Failure) {
        self.failed += 1;
        if self.failures.len() < 8 {
            self.failures.push(format!(
                "{:?}: {} {}",
                op.kind(),
                failure.status,
                failure.detail
            ));
        }
    }

    pub fn latency(&mut self, kind: OpKind) -> &mut Hist {
        &mut self.latency[kind.index()]
    }

    /// Records how late (µs) an op of `window` was sent.
    pub fn record_lateness(&mut self, late_us: f64, window: usize) {
        self.lateness.push(late_us);
        if self.lateness_by_window.len() <= window {
            self.lateness_by_window.resize(window + 1, (0.0, 0));
        }
        let w = &mut self.lateness_by_window[window];
        w.0 += late_us;
        w.1 += 1;
    }

    /// How much later ops were sent in the last third of the windows
    /// than in the first (µs): a growing backlog means the offered rate
    /// is more than the system absorbs.
    pub fn lateness_growth(&self) -> f64 {
        let w = &self.lateness_by_window;
        let third = w.len() / 3;
        if third == 0 {
            return 0.0;
        }
        let mean = |ws: &[(f64, u64)]| {
            let (sum, n) = ws.iter().fold((0.0, 0), |a, w| (a.0 + w.0, a.1 + w.1));
            sum / n.max(1) as f64
        };
        mean(&w[w.len() - third..]) - mean(&w[..third])
    }

    /// Records one op's latency from send (`sent_us`) and from due
    /// (`due_us`), in `window`. Windows arrive in order; a window's
    /// quantiles are taken when the next one opens.
    pub fn record_latency(&mut self, kind: OpKind, sent_us: f64, due_us: f64, window: usize) {
        self.latency[kind.index()].push(sent_us);
        let slot = match kind {
            OpKind::Question => 0,
            OpKind::Answer => 1,
            _ => return,
        };
        self.due[slot].push(due_us);
        if window != self.open_window {
            self.close_window();
            self.open_window = window;
        }
        self.open[slot].push(sent_us);
    }

    /// Summarizes the window being filled and empties it.
    fn close_window(&mut self) {
        for (open, closed) in self.open.iter_mut().zip(self.closed.iter_mut()) {
            if open.len() >= MIN_WINDOW_SAMPLES {
                closed.push((open.median(), open.p99()));
            }
            open.clear();
        }
    }

    /// Question (`answer == false`) or answer latency from send as the
    /// median over measurement windows of each window's p50 and p99 — so
    /// a stall of the shared machine in one window does not move the
    /// run's figure. Each generator's windows count separately.
    /// Returns `(p50, p99, windows used)`.
    pub fn windowed(&mut self, answer: bool) -> (f64, f64, usize) {
        self.close_window();
        let (mut p50s, mut p99s) = (Samples::new(), Samples::new());
        for &(p50, p99) in &self.closed[usize::from(answer)] {
            p50s.push(p50);
            p99s.push(p99);
        }
        (p50s.median(), p99s.median(), p50s.len())
    }

    /// Checks a completed session's predicate against the universe of
    /// the epoch it was reported in.
    fn check(&mut self, shared: &Shared, epoch: Option<u64>, done: &Completed) {
        match epoch.and_then(|e| shared.universe_at(e)) {
            Some(universe) => {
                self.checked += 1;
                if !selects_goal(&universe, &done.predicate, &shared.ctx.goals[done.goal]) {
                    self.wrong.push(format!(
                        "session inferred {} for goal {}",
                        universe.instance().predicate_string(&done.predicate),
                        universe
                            .instance()
                            .predicate_string(&shared.ctx.goals[done.goal])
                    ));
                }
            }
            None => self.unchecked += 1,
        }
    }
}

/// One generator's pool of sessions over one HTTP connection.
pub struct Pool {
    pub target: JsonTarget<HttpTransport>,
    runs: Vec<SessionRun>,
    /// Epoch each run's outstanding question was asked in (`None`
    /// when it straddled a delta).
    epochs: Vec<Option<u64>>,
    created_at: Vec<Instant>,
    plan_of: Box<dyn FnMut(usize) -> Plan + Send>,
    next_key: usize,
    key_step: usize,
    /// Keys below this are the pool's first sessions, the ones whose
    /// effort is kept (`GenStats::completed`).
    first_keys_end: usize,
    rr: usize,
    /// The run whose answer is due next, if any.
    sticky: Option<usize>,
    /// Start and length of the measurement windows ops are binned into.
    pub windows: Option<(Instant, Duration)>,
    pub record: bool,
    pub stats: GenStats,
}

impl Pool {
    /// A pool of `size` sessions; this generator's session keys are
    /// `first_key, first_key + key_step, …`.
    pub fn new(
        transport: HttpTransport,
        tenant: &Tenant,
        size: usize,
        first_key: usize,
        key_step: usize,
        mut plan_of: Box<dyn FnMut(usize) -> Plan + Send>,
    ) -> Pool {
        let mut target = JsonTarget::new(transport);
        target.load(tenant);
        let runs = (0..size)
            .map(|i| {
                let key = first_key + i * key_step;
                SessionRun::new(key, plan_of(key))
            })
            .collect();
        let now = Instant::now();
        Pool {
            target,
            runs,
            epochs: vec![None; size],
            created_at: vec![now; size],
            plan_of,
            next_key: first_key + size * key_step,
            key_step,
            first_keys_end: first_key + size * key_step,
            rr: 0,
            sticky: None,
            windows: None,
            record: false,
            stats: GenStats::default(),
        }
    }

    /// Runs the next session's next op, timed from `due`. A question's
    /// answer follows in the same session's next tick (a worker answers
    /// the tuple in front of them), and a snapshot → drop → restore cycle
    /// runs within one tick, inside one universe epoch.
    pub fn tick(&mut self, shared: &Shared, due: Instant) {
        let i = match self.sticky.take() {
            Some(i) => i,
            None => {
                let i = self.rr;
                self.rr = (self.rr + 1) % self.runs.len();
                i
            }
        };
        if self.runs[i].finished() {
            let key = self.next_key;
            self.next_key += self.key_step;
            self.runs[i] = SessionRun::new(key, (self.plan_of)(key));
            self.epochs[i] = None;
        }
        if self.runs[i].snapshotting() {
            let _gate = shared.gate.read().unwrap();
            let mut from = due;
            for _ in 0..3 {
                if !self.step(i, shared, from) {
                    break;
                }
                from = Instant::now();
            }
            return;
        }
        let mut guard = None;
        if self.runs[i].answering() {
            let g = shared.gate.read().unwrap();
            if self.epochs[i] == Some(shared.epoch()) {
                guard = Some(g);
            } else {
                self.runs[i].reask();
            }
        }
        self.step(i, shared, due);
        drop(guard);
        if self.runs[i].answering() {
            self.sticky = Some(i);
        }
    }

    /// Executes run `i`'s next op; latency is timed from `due`.
    /// Returns whether the op succeeded.
    fn step(&mut self, i: usize, shared: &Shared, due: Instant) -> bool {
        let op = self.runs[i].next_op();
        if matches!(op, Op::Create { .. }) {
            self.created_at[i] = due;
        }
        let e1 = shared.epoch();
        let sent = Instant::now();
        let op_id = self.stats.attempted;
        let result = self.target.exec(op_id, &op);
        let done = Instant::now();
        let e2 = shared.epoch();
        self.stats.attempted += 1;
        let window = self.windows.map_or(0, |(start, len)| {
            (due.saturating_duration_since(start).as_secs_f64() / len.as_secs_f64()) as usize
        });
        self.stats.record_lateness(
            sent.saturating_duration_since(due).as_secs_f64() * 1e6,
            window,
        );
        let stable = (e1 == e2 && e1.is_multiple_of(2)).then_some(e1);
        match result {
            Ok((outcome, _)) => {
                let us = |from: Instant| done.saturating_duration_since(from).as_secs_f64() * 1e6;
                self.stats
                    .record_latency(op.kind(), us(sent), us(due), window);
                if let Outcome::Asked { .. } = outcome {
                    self.epochs[i] = stable;
                }
                if self.record {
                    let class = match (&outcome, stable) {
                        (Outcome::Asked { class, .. }, Some(_)) => Some(*class),
                        _ => None,
                    };
                    self.stats.recorded.push(Recorded {
                        at_ns: shared.since_start_ns(sent),
                        op: op.clone(),
                        class,
                    });
                }
                if let Some(completed) = self.runs[i].observe(&outcome) {
                    self.stats.session_ms.push(
                        done.saturating_duration_since(self.created_at[i])
                            .as_secs_f64()
                            * 1e3,
                    );
                    self.stats.completions += 1;
                    if self.runs[i].s < self.first_keys_end {
                        self.stats
                            .completed
                            .push((self.runs[i].s, completed.interactions));
                    }
                    self.stats.check(shared, stable, &completed);
                }
                true
            }
            Err(failure) => {
                self.stats.fail(&op, failure);
                self.runs[i].abandon();
                false
            }
        }
    }

    /// Drives every still-open session with a key below `keys` to its
    /// inferred predicate (closed loop, after the timed phases), so the
    /// sessions `interactions_mean` averages are the same in every run of
    /// a seed. Returns what those operations did; their latencies are not
    /// part of any reported figure.
    pub fn finish_below(&mut self, shared: &Shared, keys: usize) -> GenStats {
        let saved = std::mem::take(&mut self.stats);
        let (windows, record) = (self.windows.take(), self.record);
        self.record = false;
        for i in 0..self.runs.len() {
            while self.runs[i].s < keys && !self.runs[i].finished() {
                if self.runs[i].answering() && self.epochs[i] != Some(shared.epoch()) {
                    self.runs[i].reask();
                }
                self.step(i, shared, Instant::now());
            }
        }
        self.windows = windows;
        self.record = record;
        std::mem::replace(&mut self.stats, saved)
    }

    /// Server ids of the sessions this pool holds open right now.
    pub fn open_sids(&self) -> Vec<u64> {
        self.runs
            .iter()
            .filter_map(|d| self.target.sid(d.s))
            .collect()
    }
}

/// Mean interactions over the sessions whose key is below `keys` — the
/// same sessions in every run of a seed, so the mean repeats exactly.
pub fn interactions_mean(completed: &[(usize, usize)], keys: usize) -> (f64, usize) {
    let picked: Vec<usize> = completed
        .iter()
        .filter(|(k, _)| *k < keys)
        .map(|&(_, n)| n)
        .collect();
    let mean = if picked.is_empty() {
        0.0
    } else {
        picked.iter().sum::<usize>() as f64 / picked.len() as f64
    };
    (mean, picked.len())
}

/// Drives one session to completion in a closed loop (each op sent when
/// the previous one returned).
pub fn run_closed(
    target: &mut JsonTarget<HttpTransport>,
    shared: &Shared,
    run: &mut SessionRun,
    stats: &mut GenStats,
) {
    let created = Instant::now();
    let mut due = created;
    while !run.finished() {
        let op = run.next_op();
        let sent = Instant::now();
        let window = stats.window;
        stats.record_lateness(
            sent.saturating_duration_since(due).as_secs_f64() * 1e6,
            window,
        );
        let op_id = stats.attempted;
        let result = target.exec(op_id, &op);
        let done = Instant::now();
        stats.attempted += 1;
        match result {
            Ok((outcome, _)) => {
                let us = done.saturating_duration_since(sent).as_secs_f64() * 1e6;
                stats.record_latency(op.kind(), us, us, window);
                let class = match &outcome {
                    Outcome::Asked { class, .. } => Some(*class),
                    _ => None,
                };
                stats.recorded.push(Recorded {
                    at_ns: shared.since_start_ns(sent),
                    op: op.clone(),
                    class,
                });
                if let Some(completed) = run.observe(&outcome) {
                    stats
                        .session_ms
                        .push(done.saturating_duration_since(created).as_secs_f64() * 1e3);
                    stats.completions += 1;
                    stats.completed.push((run.s, completed.interactions));
                    stats.check(shared, Some(shared.epoch()), &completed);
                }
            }
            Err(failure) => {
                stats.fail(&op, failure);
                run.abandon();
            }
        }
        due = Instant::now();
    }
}
