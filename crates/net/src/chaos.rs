//! A scripted in-process TCP fault-injection proxy.
//!
//! The durability tier proved its crash safety against a *scripted*,
//! deterministic fault plan (`CrashScript` in `jqi_server`); this module
//! extends the same discipline to the wire. A [`ChaosProxy`] sits between
//! a client and the real server, forwarding bytes — except where the
//! [`ChaosScript`] says otherwise: connection *n* suffers `faults[n]`
//! ([`Fault::None`] past the end of the script), so a test or bench run
//! with the same script and seed sees the same faults on the same
//! connections every time.
//!
//! Faults model the hostile-peer patterns the transport must survive:
//! delayed delivery, truncation mid-message, a hard RST, a slow-loris
//! drip, and duplicate delivery (which, for class-addressed answer
//! batches, must be a no-op end to end). The proxy is test/bench
//! equipment, not production code — one thread per connection is fine.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One scripted misbehavior, applied to a whole proxied connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Forward bytes untouched.
    None,
    /// Sleep a seeded-jittered `ms` before forwarding the first bytes.
    Delay {
        /// Nominal delay in milliseconds (actual is `ms/2 ..= ms`, seeded).
        ms: u64,
    },
    /// Forward only the first `bytes` toward the server, then close both
    /// sides — the peer that hangs up mid-message.
    Truncate {
        /// Client→server bytes forwarded before the close.
        bytes: usize,
    },
    /// Forward `after_bytes` toward the server, then hard-reset (RST)
    /// the server side instead of closing it politely.
    Reset {
        /// Client→server bytes forwarded before the reset.
        after_bytes: usize,
    },
    /// Slow-loris: forward client→server traffic `chunk` bytes at a
    /// time with a seeded-jittered `ms` pause between chunks.
    Drip {
        /// Bytes per forwarded piece (≥ 1).
        chunk: usize,
        /// Nominal pause between pieces in milliseconds.
        ms: u64,
    },
    /// Deliver every client→server segment twice — duplicate delivery,
    /// which an idempotent endpoint must absorb.
    Duplicate,
}

/// The deterministic fault plan: connection `n` through the proxy gets
/// `faults[n]`, and connections past the end of the script pass through
/// clean. `seed` drives the jitter inside [`Fault::Delay`] and
/// [`Fault::Drip`], so two runs with the same script behave identically.
#[derive(Debug, Clone, Default)]
pub struct ChaosScript {
    /// Seed for the per-connection jitter streams.
    pub seed: u64,
    /// Fault for connection index 0, 1, 2, …; missing entries are clean.
    pub faults: Vec<Fault>,
}

impl ChaosScript {
    /// A script that injects nothing — the proxy as a transparent relay.
    pub fn pass_through() -> ChaosScript {
        ChaosScript::default()
    }

    fn fault_for(&self, conn: usize) -> Fault {
        self.faults.get(conn).copied().unwrap_or(Fault::None)
    }
}

/// Live proxy counters (monotonic).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChaosStats {
    /// Connections accepted by the proxy.
    pub connections: u64,
    /// Connections that had a non-[`Fault::None`] fault applied.
    pub faults_injected: u64,
    /// Client→server bytes forwarded.
    pub bytes_up: u64,
    /// Server→client bytes forwarded.
    pub bytes_down: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    faults_injected: AtomicU64,
    bytes_up: AtomicU64,
    bytes_down: AtomicU64,
}

/// A running chaos proxy. Dropping it shuts it down.
pub struct ChaosProxy {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
    counters: Arc<Counters>,
}

impl ChaosProxy {
    /// Binds a loopback port and starts relaying every accepted
    /// connection to `upstream`, applying `script` faults by connection
    /// index.
    pub fn spawn(upstream: SocketAddr, script: ChaosScript) -> std::io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(Counters::default());
        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            std::thread::Builder::new()
                .name("jqi-chaos-accept".into())
                .spawn(move || {
                    let mut conn_index = 0usize;
                    for incoming in listener.incoming() {
                        if shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        let Ok(client) = incoming else { continue };
                        let fault = script.fault_for(conn_index);
                        // Per-connection jitter stream: same (seed, index)
                        // → same delays, run after run.
                        let rng = splitmix(script.seed ^ (conn_index as u64).wrapping_mul(0x9e37));
                        conn_index += 1;
                        counters.connections.fetch_add(1, Ordering::Relaxed);
                        if fault != Fault::None {
                            counters.faults_injected.fetch_add(1, Ordering::Relaxed);
                        }
                        let shutdown = Arc::clone(&shutdown);
                        let counters = Arc::clone(&counters);
                        let _ = std::thread::Builder::new()
                            .name("jqi-chaos-conn".into())
                            .spawn(move || relay(client, upstream, fault, rng, shutdown, counters));
                    }
                })?
        };
        Ok(ChaosProxy {
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            counters,
        })
    }

    /// The proxy's listening address — point clients here.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// A snapshot of the proxy counters.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            connections: self.counters.connections.load(Ordering::Relaxed),
            faults_injected: self.counters.faults_injected.load(Ordering::Relaxed),
            bytes_up: self.counters.bytes_up.load(Ordering::Relaxed),
            bytes_down: self.counters.bytes_down.load(Ordering::Relaxed),
        }
    }

    /// Stops accepting and joins the accept thread. Live relay threads
    /// notice the flag at their next 50 ms poll and exit.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ChaosProxy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChaosProxy")
            .field("local_addr", &self.local_addr)
            .field("stats", &self.stats())
            .finish()
    }
}

/// One step of splitmix64 — enough RNG for deterministic jitter.
fn splitmix(state: u64) -> u64 {
    let mut z = state.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A seeded delay in `ms/2 ..= ms`.
fn jittered(ms: u64, rng: &mut u64) -> Duration {
    *rng = splitmix(*rng);
    let lo = ms / 2;
    Duration::from_millis(lo + *rng % (ms - lo + 1).max(1))
}

const POLL: Duration = Duration::from_millis(50);

/// Copies `src` → `dst` until EOF, error, or shutdown; counts into
/// `bytes`. Used unfaulted for the server→client direction.
fn pump_clean(
    mut src: TcpStream,
    mut dst: TcpStream,
    bytes: Arc<Counters>,
    down: bool,
    shutdown: Arc<AtomicBool>,
) {
    let _ = src.set_read_timeout(Some(POLL));
    let mut chunk = [0u8; 4096];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match src.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                if dst.write_all(&chunk[..n]).is_err() {
                    break;
                }
                let counter = if down {
                    &bytes.bytes_down
                } else {
                    &bytes.bytes_up
                };
                counter.fetch_add(n as u64, Ordering::Relaxed);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => break,
        }
    }
    let _ = src.shutdown(Shutdown::Both);
    let _ = dst.shutdown(Shutdown::Both);
}

/// Relays one client connection through its fault.
fn relay(
    client: TcpStream,
    upstream_addr: SocketAddr,
    fault: Fault,
    mut rng: u64,
    shutdown: Arc<AtomicBool>,
    counters: Arc<Counters>,
) {
    let Ok(upstream) = TcpStream::connect(upstream_addr) else {
        let _ = client.shutdown(Shutdown::Both);
        return;
    };
    let _ = client.set_nodelay(true);
    let _ = upstream.set_nodelay(true);
    if let Fault::Delay { ms } = fault {
        std::thread::sleep(jittered(ms, &mut rng));
    }

    // Downstream direction is always clean; the fault lives on the
    // client→server path.
    let down_thread = {
        let (src, dst) = (upstream.try_clone(), client.try_clone());
        let (counters, shutdown) = (Arc::clone(&counters), Arc::clone(&shutdown));
        std::thread::Builder::new()
            .name("jqi-chaos-down".into())
            .spawn(move || {
                if let (Ok(src), Ok(dst)) = (src, dst) {
                    pump_clean(src, dst, counters, true, shutdown);
                }
            })
    };

    let mut client = client;
    let mut upstream = upstream;
    let _ = client.set_read_timeout(Some(POLL));
    let mut forwarded = 0usize;
    let mut chunk = [0u8; 4096];
    'pump: loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let n = match client.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                continue
            }
            Err(_) => break,
        };
        let segment = &chunk[..n];
        let write_ok = match fault {
            Fault::None | Fault::Delay { .. } => upstream.write_all(segment).is_ok(),
            Fault::Duplicate => {
                upstream.write_all(segment).is_ok() && upstream.write_all(segment).is_ok()
            }
            Fault::Truncate { bytes } => {
                let budget = bytes.saturating_sub(forwarded).min(n);
                let ok = upstream.write_all(&segment[..budget]).is_ok();
                if forwarded + n >= bytes {
                    // Budget spent: polite close of both sides.
                    break 'pump;
                }
                ok
            }
            Fault::Reset { after_bytes } => {
                let budget = after_bytes.saturating_sub(forwarded).min(n);
                let ok = upstream.write_all(&segment[..budget]).is_ok();
                if forwarded + n >= after_bytes {
                    hard_reset(&upstream);
                    break 'pump;
                }
                ok
            }
            Fault::Drip { chunk: piece, ms } => {
                let mut ok = true;
                for part in segment.chunks(piece.max(1)) {
                    if shutdown.load(Ordering::SeqCst) {
                        break 'pump;
                    }
                    if upstream.write_all(part).is_err() {
                        ok = false;
                        break;
                    }
                    std::thread::sleep(jittered(ms, &mut rng));
                }
                ok
            }
        };
        counters.bytes_up.fetch_add(n as u64, Ordering::Relaxed);
        forwarded += n;
        if !write_ok {
            break;
        }
    }
    let _ = upstream.shutdown(Shutdown::Both);
    let _ = client.shutdown(Shutdown::Both);
    if let Ok(thread) = down_thread {
        let _ = thread.join();
    }
}

/// Makes dropping `stream` send an RST instead of a FIN.
fn hard_reset(stream: &TcpStream) {
    use std::os::fd::AsRawFd;
    let _ = crate::sys::set_linger_zero(stream.as_raw_fd());
    let _ = stream.shutdown(Shutdown::Both);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::Client;
    use crate::server::{Handler, NetConfig, Server};
    use crate::wire::{Request, Response};
    use std::sync::Arc;

    fn echo() -> Server {
        let handler: Arc<dyn Handler> = Arc::new(|request: &Request| {
            Response::json(200, format!("{{\"len\": {}}}", request.body.len()))
        });
        Server::bind("127.0.0.1:0", handler, NetConfig::default()).expect("bind")
    }

    #[test]
    fn pass_through_relays_requests_untouched() {
        let mut server = echo();
        let mut proxy =
            ChaosProxy::spawn(server.local_addr(), ChaosScript::pass_through()).unwrap();
        let mut client = Client::connect(proxy.local_addr()).unwrap();
        for _ in 0..3 {
            let response = client.post("/x", "{\"a\": 1}").unwrap();
            assert_eq!(response.status, 200);
            assert_eq!(response.body_str().unwrap(), "{\"len\": 8}");
        }
        let stats = proxy.stats();
        assert_eq!(stats.connections, 1);
        assert_eq!(stats.faults_injected, 0);
        assert!(stats.bytes_up > 0 && stats.bytes_down > 0);
        proxy.shutdown();
        server.shutdown();
    }

    #[test]
    fn scripted_faults_hit_exactly_their_connection_index() {
        let mut server = echo();
        let script = ChaosScript {
            seed: 7,
            faults: vec![Fault::None, Fault::Truncate { bytes: 10 }],
        };
        let mut proxy = ChaosProxy::spawn(server.local_addr(), script).unwrap();

        // Connection 0: clean.
        let mut ok_client = Client::connect(proxy.local_addr()).unwrap();
        assert_eq!(ok_client.get("/fine").unwrap().status, 200);

        // Connection 1: truncated mid-head; the client sees the close.
        let mut cut_client = Client::connect(proxy.local_addr()).unwrap();
        assert!(cut_client.post("/x", "{\"a\": 1}").is_err());

        // Connection 2: past the script, clean again.
        let mut after = Client::connect(proxy.local_addr()).unwrap();
        assert_eq!(after.get("/fine").unwrap().status, 200);

        assert_eq!(proxy.stats().faults_injected, 1);
        assert_eq!(server.stats().protocol_errors, 1, "one truncated request");
        proxy.shutdown();
        server.shutdown();
    }

    #[test]
    fn duplicate_delivery_doubles_the_request() {
        let mut server = echo();
        let script = ChaosScript {
            seed: 3,
            faults: vec![Fault::Duplicate],
        };
        let mut proxy = ChaosProxy::spawn(server.local_addr(), script).unwrap();
        let mut client = Client::connect(proxy.local_addr()).unwrap();
        // The duplicated bytes are a second, identical pipelined request;
        // the server answers both, the client reads them in order.
        let first = client.post("/x", "{\"a\": 1}").unwrap();
        assert_eq!(first.status, 200);
        let second = client.get("/after").unwrap();
        assert_eq!(second.status, 200);
        assert_eq!(
            second.body_str().unwrap(),
            "{\"len\": 8}",
            "the duplicate of the first request answers before /after"
        );
        // Both requests were duplicated: 2 POSTs + 2 GETs reach the
        // server (the second GET's response may still be in flight).
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        while server.stats().requests < 4 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(server.stats().requests, 4, "every request arrived twice");
        proxy.shutdown();
        server.shutdown();
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut a = 42u64;
        let mut b = 42u64;
        let da: Vec<Duration> = (0..8).map(|_| jittered(100, &mut a)).collect();
        let db: Vec<Duration> = (0..8).map(|_| jittered(100, &mut b)).collect();
        assert_eq!(da, db);
        assert!(da
            .iter()
            .all(|d| (50..=100).contains(&(d.as_millis() as u64))));
        let mut c = 43u64;
        let dc: Vec<Duration> = (0..8).map(|_| jittered(100, &mut c)).collect();
        assert_ne!(da, dc, "different seeds, different streams");
    }
}
