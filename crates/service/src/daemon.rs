//! The TCP front-end: a [`Daemon`] owns a [`SynthService`] and serves
//! the [`crate::proto`] wire protocol over `std::net` — zero external
//! dependencies, one OS thread per connection (connection counts here
//! are a handful of synthesis clients, not a web fleet; a poll loop
//! would buy nothing but complexity).
//!
//! Per connection, the handler loop is: read a frame (under the
//! connection's I/O deadline), route it by message kind — `Ping` is
//! answered with `Pong` immediately, `Hello` re-binds the connection's
//! client identity, anything else decodes as a
//! [`Request`](crate::Request) — admit it into the service
//! (single-flight dedup, batching, per-client quotas and idempotent
//! replay all happen *inside* the service, so wire requests and
//! in-process requests coalesce with each other), wait for the reply,
//! write it back. Failure handling follows the protocol contract:
//!
//! * malformed frame or payload → answer with
//!   [`ServiceError::Protocol`], count it, close the connection (the
//!   stream may be desynchronized);
//! * clean EOF between frames → normal disconnect;
//! * EOF inside a frame, or a failed reply write → a mid-request
//!   disconnect, counted in [`DaemonStats::disconnects`]; the admitted
//!   request still runs to completion service-side (its ticket is
//!   dropped, the worker's send is ignored), keeping engine state and
//!   memo cache exactly as if the client had waited.
//!
//! # Survivability
//!
//! Every external edge carries a deadline
//! ([`crate::ServiceConfig::io_timeout`]): reading one frame — however
//! slowly its bytes trickle in — and writing one reply must each finish
//! within the allowance, enforced with `set_read_timeout` /
//! `set_write_timeout` and a per-frame deadline that *shrinks* the
//! socket timeout as bytes arrive, so a slow-loris client cannot keep a
//! connection thread alive by sending one byte per poll. An expired
//! read deadline mid-frame is answered with a typed
//! [`ServiceError::Protocol`] (best effort — the peer may not be
//! reading) before the close; a connection that timed out without
//! sending anything is closed quietly. Both count in
//! [`DaemonStats::timeouts`].
//!
//! The number of connections served at once is capped by
//! [`crate::ServiceConfig::max_connections`]. The accept thread answers
//! a connection past the cap itself, with one
//! [`ServiceError::ConnectionLimit`] frame, closes it without spawning
//! a handler, and counts it in [`DaemonStats::refused_connections`].
//!
//! [`Daemon::shutdown`] drains gracefully: it stops accepting, severs
//! idle connections, lets in-flight ones finish their reply for up to
//! [`crate::ServiceConfig::drain_deadline`], then severs whatever
//! remains and joins every thread.
//!
//! Under `--features fault-injection`,
//! [`rt_stg::faults::Fault::ServiceDropConnAt`] drops the connection
//! *after* admission and *before* the reply — the scripted version of a
//! client dying mid-request — selected by the daemon's 0-based wire
//! index.

use std::io::{self, Read};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rt_stg::faults;

use crate::error::ServiceError;
use crate::proto;
use crate::service::{ServiceConfig, ServiceStats, SynthService};

/// Monotonic counters of one daemon's lifetime, all observed relaxed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Connections accepted and handed to a handler.
    pub connections: u64,
    /// Connections refused at [`crate::ServiceConfig::max_connections`].
    pub refused_connections: u64,
    /// Requests successfully decoded and admitted.
    pub requests: u64,
    /// Connections lost mid-request or mid-frame (clean EOF between
    /// frames is not counted).
    pub disconnects: u64,
    /// Frames or payloads rejected as protocol violations.
    pub protocol_errors: u64,
    /// I/O deadlines expired: a frame read that ran past
    /// [`crate::ServiceConfig::io_timeout`] (half-open or slow-loris
    /// peers) or a reply write the peer would not accept in time.
    pub timeouts: u64,
}

/// One live connection as shutdown sees it: the severing handle plus
/// whether its handler is between frames (`busy == false`, safe to
/// sever immediately) or mid-request (given the drain deadline to
/// finish).
struct ConnEntry {
    id: u64,
    stream: TcpStream,
    busy: Arc<AtomicBool>,
}

struct DaemonShared {
    service: SynthService,
    open: AtomicBool,
    /// 0-based index of every decoded wire request, in admission order —
    /// the counter [`faults::Fault::ServiceDropConnAt`] selects on.
    wire_seq: AtomicUsize,
    connections: AtomicU64,
    refused_connections: AtomicU64,
    requests: AtomicU64,
    disconnects: AtomicU64,
    protocol_errors: AtomicU64,
    timeouts: AtomicU64,
    /// Per-connection I/O deadline (copied out of the service config).
    io_timeout: Duration,
    /// Graceful-drain allowance of [`Daemon::shutdown`].
    drain_deadline: Duration,
    /// Connections served at once (copied out of the service config).
    max_connections: usize,
    /// `try_clone`d handles of live connections, for shutdown: closing
    /// them unblocks handler threads parked in `read_frame`.
    streams: Mutex<Vec<ConnEntry>>,
    handlers: Mutex<Vec<JoinHandle<()>>>,
}

/// A TCP daemon serving the wire protocol over an owned
/// [`SynthService`]. Bind with [`Daemon::bind`], stop with
/// [`Daemon::shutdown`] (or `Drop`, which does the same and joins every
/// thread).
pub struct Daemon {
    shared: Arc<DaemonShared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Starts a service with `config` and listens on `addr` (use port 0
    /// for an ephemeral port; [`Daemon::local_addr`] reports the bound
    /// one).
    ///
    /// # Errors
    ///
    /// The bind error, verbatim. An invalid `config` should be caught
    /// earlier via [`ServiceConfig::builder`]; `bind` accepts whatever
    /// it is handed, exactly like [`SynthService::start`].
    pub fn bind(config: ServiceConfig, addr: impl ToSocketAddrs) -> io::Result<Daemon> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let io_timeout = config.io_timeout;
        let drain_deadline = config.drain_deadline;
        let max_connections = config.max_connections;
        let shared = Arc::new(DaemonShared {
            service: SynthService::start(config),
            open: AtomicBool::new(true),
            wire_seq: AtomicUsize::new(0),
            connections: AtomicU64::new(0),
            refused_connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
            disconnects: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            io_timeout,
            drain_deadline,
            max_connections,
            streams: Mutex::new(Vec::new()),
            handlers: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = std::thread::Builder::new()
            .name("rt-daemon-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept thread");
        Ok(Daemon {
            shared,
            addr,
            accept: Some(accept),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// This daemon's wire-level counters.
    pub fn stats(&self) -> DaemonStats {
        DaemonStats {
            connections: self.shared.connections.load(Ordering::Relaxed),
            refused_connections: self.shared.refused_connections.load(Ordering::Relaxed),
            requests: self.shared.requests.load(Ordering::Relaxed),
            disconnects: self.shared.disconnects.load(Ordering::Relaxed),
            protocol_errors: self.shared.protocol_errors.load(Ordering::Relaxed),
            timeouts: self.shared.timeouts.load(Ordering::Relaxed),
        }
    }

    /// Connection-handler threads the daemon still holds a join handle
    /// for. Finished handlers are reaped on every accept, so this tracks
    /// the live connections, not every connection ever served.
    pub fn retained_handlers(&self) -> usize {
        lock(&self.shared.handlers).len()
    }

    /// The owned service's counters (admissions, cache traffic,
    /// [`ServiceStats::batch_dedup_hits`], …).
    pub fn service_stats(&self) -> ServiceStats {
        self.shared.service.stats()
    }

    /// The owned service's drain order (see
    /// [`SynthService::drain_log`]). Test-only (`fault-injection`
    /// builds) — the exactly-once wire tests pin "one resubmit, one
    /// execution" on its length.
    #[cfg(feature = "fault-injection")]
    pub fn drain_log(&self) -> Vec<usize> {
        self.shared.service.drain_log()
    }

    /// Stops accepting, drains gracefully (in-flight connections get up
    /// to [`crate::ServiceConfig::drain_deadline`] to finish their
    /// reply; idle ones are severed immediately), then severs whatever
    /// remains, joins every thread, and shuts the owned service down.
    /// In-flight requests whose connections are severed still complete
    /// service-side.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.shared.open.store(false, Ordering::SeqCst);
        // Unblock the accept loop; it re-checks `open` per connection.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
        // Phase 1: sever idle connections — their handlers are parked
        // between frames and see a clean EOF. In-flight ones keep their
        // stream so the reply being computed can still be delivered.
        for entry in lock(&self.shared.streams).iter() {
            if !entry.busy.load(Ordering::SeqCst) {
                let _ = entry.stream.shutdown(Shutdown::Both);
            }
        }
        // Phase 2: bounded drain — wait for handlers to finish and
        // deregister themselves, up to the drain deadline.
        let deadline = Instant::now() + self.shared.drain_deadline;
        while Instant::now() < deadline {
            if lock(&self.shared.streams).is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        // Phase 3: the deadline is spent — sever whatever remains.
        for entry in lock(&self.shared.streams).drain(..) {
            let _ = entry.stream.shutdown(Shutdown::Both);
        }
        let handlers = std::mem::take(&mut *lock(&self.shared.handlers));
        for handler in handlers {
            let _ = handler.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop();
    }
}

fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn accept_loop(listener: &TcpListener, shared: &Arc<DaemonShared>) {
    let mut next_id = 0u64;
    for stream in listener.incoming() {
        if !shared.open.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        // Reap the handlers that have exited, so the list holds live
        // connections rather than every connection ever served.
        let live = {
            let mut handlers = lock(&shared.handlers);
            handlers.retain(|handler| !handler.is_finished());
            handlers.len()
        };
        if live >= shared.max_connections {
            refuse(stream, shared);
            continue;
        }
        let id = next_id;
        next_id += 1;
        shared.connections.fetch_add(1, Ordering::Relaxed);
        let busy = Arc::new(AtomicBool::new(false));
        if let Ok(clone) = stream.try_clone() {
            lock(&shared.streams).push(ConnEntry {
                id,
                stream: clone,
                busy: Arc::clone(&busy),
            });
        }
        let handler_shared = Arc::clone(shared);
        let serve = move || {
            serve_connection(stream, &handler_shared, id, &busy);
            lock(&handler_shared.streams).retain(|entry| entry.id != id);
        };
        let spawned = if faults::daemon_spawn_fail(id as usize) {
            Err(io::Error::other("injected handler spawn failure"))
        } else {
            std::thread::Builder::new()
                .name(format!("rt-daemon-conn-{id}"))
                .spawn(serve)
        };
        match spawned {
            Ok(handler) => lock(&shared.handlers).push(handler),
            Err(_) => {
                // No thread to serve it: close the connection (the
                // failed spawn dropped its stream; this drops the
                // shutdown clone), count it as lost, keep accepting.
                lock(&shared.streams).retain(|entry| entry.id != id);
                shared.disconnects.fetch_add(1, Ordering::Relaxed);
            }
        }
    }
}

/// Answers a connection past the cap with one
/// [`ServiceError::ConnectionLimit`] frame and closes it. The write is
/// non-blocking, so a peer that does not read cannot stall the accept
/// thread; the answer is best effort, like every answer before a close.
fn refuse(mut stream: TcpStream, shared: &DaemonShared) {
    shared.refused_connections.fetch_add(1, Ordering::Relaxed);
    let refusal = proto::encode_reply(&Err(ServiceError::ConnectionLimit {
        max_connections: shared.max_connections,
    }));
    if stream.set_nonblocking(true).is_ok() {
        let _ = proto::write_frame(&mut stream, &refusal);
    }
    let _ = stream.shutdown(Shutdown::Both);
}

/// A [`Read`] adapter enforcing one whole-frame deadline over a
/// `TcpStream`: the socket read timeout is re-armed with the
/// *remaining* allowance before every read, so a peer trickling one
/// byte per timeout window still hits the deadline. `progressed`
/// records whether any byte of the frame arrived — the
/// half-sent-vs-silent distinction the timeout answer path needs.
struct DeadlineReader<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
    progressed: bool,
}

impl<'a> DeadlineReader<'a> {
    fn new(stream: &'a TcpStream, allowance: Duration) -> Self {
        DeadlineReader {
            stream,
            deadline: Instant::now() + allowance,
            progressed: false,
        }
    }
}

impl Read for DeadlineReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        // `set_read_timeout(Some(ZERO))` is an error by the std
        // contract; an exhausted allowance is already a timeout.
        if remaining < Duration::from_millis(1) {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "frame deadline exhausted",
            ));
        }
        self.stream.set_read_timeout(Some(remaining))?;
        match (&mut &*self.stream).read(buf) {
            Ok(n) => {
                if n > 0 {
                    self.progressed = true;
                }
                Ok(n)
            }
            // Platforms surface an expired socket timeout as either
            // kind; normalize so the caller matches one.
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "frame read timed out",
                ))
            }
            Err(e) => Err(e),
        }
    }
}

/// Serves one connection until disconnect, protocol violation, I/O
/// timeout, or daemon shutdown.
fn serve_connection(mut stream: TcpStream, shared: &DaemonShared, conn_id: u64, busy: &AtomicBool) {
    let _ = stream.set_write_timeout(Some(shared.io_timeout));
    // Quota identity until (unless) a `Hello` frame re-binds it.
    let mut client_id = format!("conn-{conn_id}");
    loop {
        // Drain mode: finish the frame already being handled, never
        // start reading another.
        if !shared.open.load(Ordering::SeqCst) {
            return;
        }
        let mut reader = DeadlineReader::new(&stream, shared.io_timeout);
        let payload = match proto::read_frame(&mut reader) {
            Ok(Some(payload)) => payload,
            // Clean EOF at a frame boundary: the client is done.
            Ok(None) => return,
            Err(err) if err.kind() == io::ErrorKind::TimedOut => {
                shared.timeouts.fetch_add(1, Ordering::Relaxed);
                if reader.progressed {
                    // Slow-loris: a half-sent frame. Tell the peer (best
                    // effort) why it is being dropped, then close — the
                    // stream is desynchronized mid-frame.
                    answer(
                        &mut stream,
                        shared,
                        &Err(ServiceError::Protocol {
                            detail: format!(
                                "frame read exceeded the {:?} io_timeout mid-frame",
                                shared.io_timeout
                            ),
                        }),
                    );
                }
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            Err(err) if err.kind() == io::ErrorKind::InvalidData => {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                answer(
                    &mut stream,
                    shared,
                    &Err(ServiceError::Protocol {
                        detail: err.to_string(),
                    }),
                );
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            Err(_) => {
                shared.disconnects.fetch_add(1, Ordering::Relaxed);
                return;
            }
        };
        // Control frames bypass service admission entirely.
        match proto::frame_kind(&payload) {
            Some(proto::MSG_PING) => match proto::decode_ping(&payload) {
                Ok(nonce) => {
                    if !write_counted(&mut stream, shared, &proto::encode_pong(nonce)) {
                        return;
                    }
                    continue;
                }
                Err(err) => {
                    shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    answer(&mut stream, shared, &Err(err.into()));
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            },
            Some(proto::MSG_HELLO) => match proto::decode_hello(&payload) {
                // Fire-and-forget: TCP ordering makes the new identity
                // effective for every request framed after it.
                Ok(id) => {
                    client_id = id;
                    continue;
                }
                Err(err) => {
                    shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    answer(&mut stream, shared, &Err(err.into()));
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            },
            _ => {}
        }
        let request = match proto::decode_request(&payload) {
            Ok(request) => request.with_client(client_id.clone()),
            Err(err) => {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                answer(&mut stream, shared, &Err(err.into()));
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        };
        let wire_index = shared.wire_seq.fetch_add(1, Ordering::SeqCst);
        shared.requests.fetch_add(1, Ordering::Relaxed);
        // Mark the connection in-flight for the graceful drain: from
        // admission to reply it must not be severed out from under the
        // service's answer.
        busy.store(true, Ordering::SeqCst);
        // Admit first: the drop-connection fault models a client dying
        // *after* its request entered the queue, so the service must
        // still run it (and cache the answer) with nobody listening.
        let ticket = shared.service.enqueue(request);
        if faults::service_drop_conn(wire_index) {
            shared.disconnects.fetch_add(1, Ordering::Relaxed);
            drop(ticket);
            let _ = stream.shutdown(Shutdown::Both);
            busy.store(false, Ordering::SeqCst);
            return;
        }
        let reply = ticket.wait();
        let delivered = answer(&mut stream, shared, &reply);
        busy.store(false, Ordering::SeqCst);
        if !delivered {
            return;
        }
    }
}

/// Writes one reply frame; on failure counts it (timeout or
/// disconnect) and reports `false` (the connection is unusable).
fn answer(
    stream: &mut TcpStream,
    shared: &DaemonShared,
    reply: &Result<crate::Response, ServiceError>,
) -> bool {
    let payload = proto::encode_reply(reply);
    write_counted(stream, shared, &payload)
}

/// Writes one frame, attributing a failure to the right counter: an
/// expired write deadline is a timeout, anything else a disconnect.
fn write_counted(stream: &mut TcpStream, shared: &DaemonShared, payload: &[u8]) -> bool {
    match proto::write_frame(stream, payload) {
        Ok(()) => true,
        Err(err) => {
            if matches!(
                err.kind(),
                io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ) {
                shared.timeouts.fetch_add(1, Ordering::Relaxed);
            } else {
                shared.disconnects.fetch_add(1, Ordering::Relaxed);
            }
            false
        }
    }
}
