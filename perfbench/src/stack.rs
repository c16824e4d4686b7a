//! The serving stack the workloads drive: registry → gateway → timed
//! handler → `jqi_net` server on loopback, plus the run's working
//! directory.

use crate::layers::TimedHandler;
use jqi_net::{Handler, NetConfig, Server};
use jqi_server::{Gateway, UniverseRegistry};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Worker threads for the server: never more than the machine's cores,
/// so the numbers describe the program rather than the scheduler.
pub fn workers() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2)
}

pub struct Stack {
    pub registry: Arc<UniverseRegistry>,
    pub handler: Arc<TimedHandler>,
    pub server: Option<Server>,
}

impl Stack {
    /// Registry, gateway and wrapped handler, without a socket.
    pub fn unbound(inject: Duration, trace: bool) -> Stack {
        let registry = Arc::new(UniverseRegistry::new());
        let gateway = Arc::new(Gateway::new(Arc::clone(&registry)));
        let handler = Arc::new(TimedHandler::new(gateway, inject, trace));
        Stack {
            registry,
            handler,
            server: None,
        }
    }

    /// The full stack, listening on a free loopback port.
    pub fn bind(inject: Duration, trace: bool) -> Stack {
        let mut stack = Stack::unbound(inject, trace);
        let config = NetConfig {
            workers: workers(),
            ..NetConfig::default()
        };
        let handler: Arc<dyn Handler> = Arc::clone(&stack.handler) as Arc<dyn Handler>;
        let server = Server::bind("127.0.0.1:0", handler, config).expect("bind loopback");
        stack
            .handler
            .gateway()
            .attach_transport(server.stats_handle());
        stack.server = Some(server);
        stack
    }

    pub fn addr(&self) -> std::net::SocketAddr {
        self.server.as_ref().expect("bound stack").local_addr()
    }

    pub fn net_stats(&self) -> jqi_net::NetStats {
        self.server.as_ref().expect("bound stack").stats()
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        if let Some(mut server) = self.server.take() {
            server.shutdown();
        }
    }
}

/// A directory for the run's files inside the working directory, removed
/// on drop.
pub struct WorkDir {
    pub path: PathBuf,
}

impl WorkDir {
    pub fn new(name: &str) -> WorkDir {
        let path = PathBuf::from(".bench_tmp").join(format!("{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the run's directory");
        WorkDir { path }
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".bench_tmp");
    }
}

/// SplitMix64: the benchmark's only source of randomness, keyed by the seed.
pub fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}
