//! Timing wrappers around each layer's public entry points.
//!
//! The benchmark never reaches inside a layer: it wraps the trait or
//! method a layer exposes (`jqi_net::Handler`, `WalStorage`, `Strategy`)
//! and records spans around the call. The same wrappers carry the
//! sensitivity self-test's injected busy-waits.

use jqi_core::{ClassId, DynStrategy, InferenceState, Strategy, StrategyConfig};
use jqi_net::{Admission, Handler, Pressure, Request, RequestHead, Response};
use jqi_server::durability::{FileWal, WalStorage};
use jqi_server::Gateway;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The request header carrying the benchmark's operation id, so a
/// server-side span can be matched with the client's span of the same
/// operation.
pub const OP_HEADER: &str = "x-bench-op";

/// Busy-waits for `d` (the sensitivity self-test's injected delay).
pub fn busy_wait(d: Duration) {
    if d.is_zero() {
        return;
    }
    let start = Instant::now();
    while start.elapsed() < d {
        std::hint::spin_loop();
    }
}

/// Delays injected into wrapped layers (`--inject handle_us=N,wal_sync_us=N`).
#[derive(Debug, Clone, Copy, Default)]
pub struct Inject {
    pub handle: Duration,
    pub wal_sync: Duration,
}

impl Inject {
    pub fn parse(spec: &str) -> Result<Inject, String> {
        let mut inject = Inject::default();
        for part in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = part
                .split_once('=')
                .ok_or_else(|| format!("bad --inject item {part:?}"))?;
            let us: u64 = value
                .parse()
                .map_err(|_| format!("bad --inject value {value:?}"))?;
            match key {
                "handle_us" => inject.handle = Duration::from_micros(us),
                "wal_sync_us" => inject.wal_sync = Duration::from_micros(us),
                _ => return Err(format!("unknown --inject key {key:?}")),
            }
        }
        Ok(inject)
    }
}

/// `jqi_net::Handler` around the gateway: delegates `admit` and
/// `handle`, counts status classes, samples admission pressure, and —
/// when tracing — records the `handle` span per operation id.
pub struct TimedHandler {
    gateway: Arc<Gateway>,
    inject: Duration,
    trace: bool,
    spans: Mutex<Vec<(u64, u64)>>,
    admit_ns: Mutex<Vec<u64>>,
    pub status_4xx: AtomicU64,
    pub status_5xx: AtomicU64,
    pub queue_depth_max: AtomicUsize,
}

impl TimedHandler {
    pub fn new(gateway: Arc<Gateway>, inject: Duration, trace: bool) -> TimedHandler {
        TimedHandler {
            gateway,
            inject,
            trace,
            spans: Mutex::new(Vec::new()),
            admit_ns: Mutex::new(Vec::new()),
            status_4xx: AtomicU64::new(0),
            status_5xx: AtomicU64::new(0),
            queue_depth_max: AtomicUsize::new(0),
        }
    }

    pub fn gateway(&self) -> &Arc<Gateway> {
        &self.gateway
    }

    /// `(operation id, handle span ns)` pairs recorded so far.
    pub fn take_spans(&self) -> Vec<(u64, u64)> {
        std::mem::take(&mut *self.spans.lock().unwrap())
    }

    pub fn take_admit_ns(&self) -> Vec<u64> {
        std::mem::take(&mut *self.admit_ns.lock().unwrap())
    }
}

impl Handler for TimedHandler {
    fn handle(&self, request: &Request) -> Response {
        let start = Instant::now();
        busy_wait(self.inject);
        let response = self.gateway.handle(request);
        if self.trace {
            let span = start.elapsed().as_nanos() as u64;
            let op = request
                .header(OP_HEADER)
                .and_then(|v| v.parse().ok())
                .unwrap_or(u64::MAX);
            self.spans.lock().unwrap().push((op, span));
        }
        match response.status {
            400..=499 => self.status_4xx.fetch_add(1, Ordering::Relaxed),
            500..=599 => self.status_5xx.fetch_add(1, Ordering::Relaxed),
            _ => 0,
        };
        response
    }

    fn admit(&self, head: &RequestHead, pressure: Pressure) -> Admission {
        self.queue_depth_max
            .fetch_max(pressure.queue_depth, Ordering::Relaxed);
        if !self.trace {
            return self.gateway.admit(head, pressure);
        }
        let start = Instant::now();
        let admission = self.gateway.admit(head, pressure);
        let span = start.elapsed().as_nanos() as u64;
        self.admit_ns.lock().unwrap().push(span);
        admission
    }
}

/// What the wrapped WAL storage saw.
#[derive(Debug, Default)]
pub struct WalProbe {
    pub append_ns: Mutex<Vec<u64>>,
    pub sync_ns: Mutex<Vec<u64>>,
}

/// `WalStorage` around a real `FileWal`: times `append` and `sync`, and
/// busy-waits inside `sync` for the sensitivity self-test.
pub struct TimedWal {
    inner: FileWal,
    probe: Arc<WalProbe>,
    inject: Duration,
    trace: bool,
}

impl TimedWal {
    pub fn new(inner: FileWal, probe: Arc<WalProbe>, inject: Duration, trace: bool) -> TimedWal {
        TimedWal {
            inner,
            probe,
            inject,
            trace,
        }
    }
}

impl WalStorage for TimedWal {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let start = Instant::now();
        let result = self.inner.append(bytes);
        if self.trace {
            let span = start.elapsed().as_nanos() as u64;
            self.probe.append_ns.lock().unwrap().push(span);
        }
        result
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let start = Instant::now();
        busy_wait(self.inject);
        let result = self.inner.sync();
        if self.trace {
            let span = start.elapsed().as_nanos() as u64;
            self.probe.sync_ns.lock().unwrap().push(span);
        }
        result
    }

    fn read_all(&mut self) -> std::io::Result<Vec<u8>> {
        self.inner.read_all()
    }

    fn truncate(&mut self, len: u64) -> std::io::Result<()> {
        self.inner.truncate(len)
    }
}

/// The strategies the workloads run, in report order.
pub const STRATEGY_KEYS: [&str; 5] = ["bu", "td", "l1s", "l2s", "rnd"];

/// The report key of a strategy config (`None` for strategies the
/// workloads never run).
pub fn strategy_key(config: &StrategyConfig) -> Option<usize> {
    match config {
        StrategyConfig::Bu => Some(0),
        StrategyConfig::Td => Some(1),
        StrategyConfig::Lks { depth: 1 } => Some(2),
        StrategyConfig::Lks { depth: 2 } => Some(3),
        StrategyConfig::Rnd { .. } => Some(4),
        _ => None,
    }
}

/// `Strategy::next` spans per strategy key.
#[derive(Debug, Default)]
pub struct StrategyProbe {
    pub next_ns: Mutex<[Vec<u64>; 5]>,
}

impl StrategyProbe {
    pub fn record(&self, key: usize, ns: u64) {
        self.next_ns.lock().unwrap()[key].push(ns);
    }
}

/// A `Strategy` that times every `next` call of the strategy it wraps.
pub struct TimedStrategy {
    inner: DynStrategy,
    key: usize,
    probe: Arc<StrategyProbe>,
}

impl TimedStrategy {
    pub fn wrap(config: &StrategyConfig, probe: &Arc<StrategyProbe>) -> DynStrategy {
        Box::new(TimedStrategy {
            inner: config.build(),
            key: strategy_key(config).expect("workloads run the paper's five strategies"),
            probe: Arc::clone(probe),
        })
    }
}

impl Strategy for TimedStrategy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn next(&mut self, state: &InferenceState<'_>) -> jqi_core::Result<Option<ClassId>> {
        let start = Instant::now();
        let choice = self.inner.next(state);
        let span = start.elapsed().as_nanos() as u64;
        self.probe.record(self.key, span);
        choice
    }

    fn reset(&mut self) {
        self.inner.reset()
    }
}

/// Sets this thread's timer slack to 1 µs so a generator's sleeps wake
/// close to when the next request is due (the default slack is 50 µs).
pub fn tighten_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
        }
        const PR_SET_TIMERSLACK: i32 = 29;
        // SAFETY: PR_SET_TIMERSLACK takes a plain integer and only
        // changes the calling thread's timer slack.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1_000, 0, 0, 0);
        }
    }
}

/// Sleeps until `due` (returns at once when it has passed).
pub fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

/// One spinning thread per CPU at the lowest scheduling priority
/// (`SCHED_IDLE`) for as long as the guard lives, so no CPU halts
/// between requests. Any other thread that wakes preempts a spinner at
/// once. Without them each request also pays for waking halted virtual
/// CPUs, a cost set by the host's load that drifts from minute to
/// minute and moved a run's median latency by up to a fifth.
pub struct Keepalive {
    stop: Arc<AtomicBool>,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl Keepalive {
    pub fn start() -> Keepalive {
        let stop = Arc::new(AtomicBool::new(false));
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let threads = (0..cpus)
            .map(|_| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    // A spinner at normal priority would compete with the
                    // workload: without `SCHED_IDLE`, do not spin.
                    if !lowest_priority() {
                        return;
                    }
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Keepalive { stop, threads }
    }
}

impl Drop for Keepalive {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// Moves the calling thread to `SCHED_IDLE`, where it runs only when no
/// other thread wants the CPU. Returns whether that succeeded.
fn lowest_priority() -> bool {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct SchedParam {
            sched_priority: i32,
        }
        extern "C" {
            fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
        }
        const SCHED_IDLE: i32 = 5;
        let param = SchedParam { sched_priority: 0 };
        // SAFETY: `param` is a valid `sched_param` for the call's
        // duration; pid 0 is the calling thread.
        unsafe { sched_setscheduler(0, SCHED_IDLE, &param) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    false
}
