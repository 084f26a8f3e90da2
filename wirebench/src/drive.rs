//! The daemon under test and the closed-loop clients that drive it.

use std::net::SocketAddr;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use rt_service::{
    Daemon, DaemonStats, ReconnectingClient, Response, ServiceConfig, ServiceError, ServiceStats,
};

use crate::sys;
use crate::workload::{Kind, Stream};

/// Closed-loop clients, one connection each — `nproc` on the reference
/// container, matching the pool's two workers.
pub const CLIENTS: usize = 2;

/// Timed set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 21;

/// Untimed set-ups before them. The first few set-ups of a process run
/// several times slower (first thread stacks, allocator arenas), which
/// is process start-up, not daemon set-up.
pub const SETUP_WARMUPS: usize = 5;

/// Binds a daemon with the default configuration on a loopback port and
/// waits for its first answered ping through the front-door client.
/// Returns the daemon and the seconds from `Daemon::bind` to the pong.
pub fn bind_until_first_pong() -> (Daemon, f64) {
    let started = Instant::now();
    let daemon =
        Daemon::bind(ServiceConfig::default(), "127.0.0.1:0").expect("bind a loopback port");
    let mut client =
        ReconnectingClient::connect(daemon.local_addr(), "setup").expect("connect to the daemon");
    client.ping(1).expect("first ping answered");
    let setup = started.elapsed().as_secs_f64();
    drop(client);
    (daemon, setup)
}

/// Times `count` throwaway set-ups.
pub fn time_setups(count: usize) -> Vec<f64> {
    (0..count)
        .map(|_| {
            let (daemon, setup) = bind_until_first_pong();
            daemon.shutdown();
            setup
        })
        .collect()
}

/// One answered (or refused) request of a timed window.
pub struct Sample {
    /// Index into `Stream::items`.
    pub item: usize,
    pub kind: Kind,
    pub latency_ms: f64,
    pub reply: Result<Response, ServiceError>,
}

#[derive(Default)]
pub struct Window {
    pub samples: Vec<Sample>,
    pub elapsed_s: f64,
    pub cpu_ms: f64,
    pub reconnects: u64,
    /// First play position not sent.
    pub next: usize,
}

impl Window {
    /// Appends a later window of the same run.
    pub fn absorb(&mut self, later: Window) {
        self.samples.extend(later.samples);
        self.elapsed_s += later.elapsed_s;
        self.cpu_ms += later.cpu_ms;
        self.reconnects += later.reconnects;
        self.next = later.next;
    }
}

/// Sends every item once, untimed and serially, through one client
/// (the `hot_repeat` cache fill).
pub fn warm_up(addr: SocketAddr, stream: &Stream) -> Vec<Sample> {
    let mut client = ReconnectingClient::connect(addr, "warmup").expect("connect to the daemon");
    (0..stream.items.len())
        .map(|item| {
            let started = Instant::now();
            let reply = client.submit(&stream.items[item].request);
            Sample {
                item,
                kind: stream.items[item].kind,
                latency_ms: started.elapsed().as_secs_f64() * 1e3,
                reply,
            }
        })
        .collect()
}

/// A closed loop of `clients` connections: each sends its next request
/// only once the previous reply arrived, drawing `stream.play` positions
/// from `positions` in order, until `seconds` have passed or the
/// positions run out.
pub fn closed_loop(
    addr: SocketAddr,
    stream: &Stream,
    positions: Range<usize>,
    clients: usize,
    seconds: f64,
) -> Window {
    let barrier = Barrier::new(clients + 1);
    let window = Duration::from_secs_f64(seconds);
    let cursor = AtomicUsize::new(positions.start);
    let end = positions.end.min(stream.play.len());
    let (per_client, started, cpu_before) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|index| {
                let (barrier, cursor) = (&barrier, &cursor);
                scope.spawn(move || {
                    let mut client = ReconnectingClient::connect(addr, &format!("bench-{index}"))
                        .expect("connect to the daemon");
                    let mut samples = Vec::new();
                    barrier.wait();
                    let deadline = Instant::now() + window;
                    while Instant::now() < deadline {
                        let position = cursor.fetch_add(1, Ordering::Relaxed);
                        if position >= end {
                            break;
                        }
                        let item = stream.play[position];
                        let sent = Instant::now();
                        let reply = client.submit(&stream.items[item].request);
                        samples.push(Sample {
                            item,
                            kind: stream.items[item].kind,
                            latency_ms: sent.elapsed().as_secs_f64() * 1e3,
                            reply,
                        });
                    }
                    (samples, client.reconnects())
                })
            })
            .collect();
        barrier.wait();
        let started = Instant::now();
        let cpu_before = sys::cpu_ms();
        let per_client: Vec<_> = handles
            .into_iter()
            .map(|handle| handle.join().expect("client thread panicked"))
            .collect();
        (per_client, started, cpu_before)
    });
    let mut out = Window {
        elapsed_s: started.elapsed().as_secs_f64(),
        cpu_ms: sys::cpu_ms() - cpu_before,
        next: cursor.into_inner().min(end),
        ..Window::default()
    };
    for (samples, reconnects) in per_client {
        out.samples.extend(samples);
        out.reconnects += reconnects;
    }
    out
}

/// Counters of every daemon one run used, summed, and the identity
/// checks that failed on any of them.
#[derive(Default)]
pub struct Counters {
    pub daemons: usize,
    pub service: ServiceStats,
    pub wire: DaemonStats,
    pub problems: Vec<String>,
}

impl Counters {
    /// Checks `daemon`'s counter identity, adds its counters, and shuts
    /// it down.
    pub fn retire(&mut self, daemon: Daemon) {
        let s = daemon.service_stats();
        let w = daemon.stats();
        daemon.shutdown();
        self.daemons += 1;
        if s.submitted != s.completed + s.shed + s.quota_sheds {
            self.problems.push(format!(
                "counter identity broken: submitted {} != completed {} + shed {} + quota_sheds {}",
                s.submitted, s.completed, s.shed, s.quota_sheds
            ));
        }
        let t = &mut self.service;
        t.submitted += s.submitted;
        t.admitted += s.admitted;
        t.completed += s.completed;
        t.shed += s.shed;
        t.cache_hits += s.cache_hits;
        t.cache_misses += s.cache_misses;
        t.batch_dedup_hits += s.batch_dedup_hits;
        t.quota_sheds += s.quota_sheds;
        t.idempotent_replays += s.idempotent_replays;
        t.retries += s.retries;
        t.quarantines += s.quarantines;
        t.worker_panics += s.worker_panics;
        t.degraded += s.degraded;
        t.errors += s.errors;
        let t = &mut self.wire;
        t.connections += w.connections;
        t.requests += w.requests;
        t.disconnects += w.disconnects;
        t.protocol_errors += w.protocol_errors;
        t.timeouts += w.timeouts;
    }
}
