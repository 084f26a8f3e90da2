//! A minimal blocking client for the daemon wire protocol — the same
//! `Request → Result<Response, ServiceError>` surface as
//! [`SynthService::submit`](crate::SynthService::submit), carried over
//! one TCP connection. Used by the daemon tests and `bench_service` to
//! drive the full wire path; `rt-daemon`'s peers can reuse it or speak
//! the documented [`crate::proto`] frames directly. For automatic
//! reconnection with idempotent resubmission, wrap the address in a
//! [`ReconnectingClient`](crate::ReconnectingClient) instead.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use crate::error::ServiceError;
use crate::proto;
use crate::request::{Request, Response};

/// One blocking connection to a [`Daemon`](crate::Daemon). Requests are
/// strictly sequential per connection (the protocol has no request ids
/// to pair out-of-order replies); open one client per concurrent
/// stream.
///
/// # Poisoning
///
/// After any I/O failure ([`ServiceError::Disconnected`]) or
/// undecodable reply ([`ServiceError::Protocol`]), the connection is
/// **poisoned**: the stream may hold a half-written request or
/// half-read reply, so no further frame boundary can be trusted. Every
/// later call on a poisoned client returns
/// [`ServiceError::Disconnected`] immediately without touching the
/// socket. Typed *service* errors carried in a well-formed reply frame
/// (a shed, a quota refusal, an engine failure) do **not** poison —
/// the stream stayed in sync and the client remains usable. The one
/// exception is [`ServiceError::ConnectionLimit`]: the daemon closes a
/// refused connection, so that reply poisons too. Recovery
/// from poisoning means a new connection:
/// [`ReconnectingClient`](crate::ReconnectingClient) automates exactly
/// that, including safe resubmission of deadline-free requests under
/// an idempotency key.
pub struct DaemonClient {
    stream: TcpStream,
    poisoned: bool,
}

impl DaemonClient {
    /// Connects to a daemon.
    ///
    /// # Errors
    ///
    /// The connect error, verbatim.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<DaemonClient> {
        let stream = TcpStream::connect(addr)?;
        // Replies are single buffered frames; coalescing delay would
        // only add latency.
        let _ = stream.set_nodelay(true);
        Ok(DaemonClient {
            stream,
            poisoned: false,
        })
    }

    /// Whether this connection has been poisoned by an earlier I/O or
    /// protocol failure (see the type docs).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Sends `request` and blocks for the reply.
    ///
    /// # Errors
    ///
    /// Everything is the service's typed surface: server-side failures
    /// arrive verbatim off the wire; connection loss at any point maps
    /// to [`ServiceError::Disconnected`]; an undecodable or oversized
    /// reply maps to [`ServiceError::Protocol`]. Either of those two
    /// poisons the connection (see the type docs).
    pub fn submit(&mut self, request: &Request) -> Result<Response, ServiceError> {
        let payload = proto::encode_request(request);
        let reply = self.exchange(&payload)?;
        match proto::decode_reply(&reply) {
            Ok(Err(refusal @ ServiceError::ConnectionLimit { .. })) => Err(self.poison(refusal)),
            Ok(reply) => reply,
            Err(err) => Err(self.poison(err.into())),
        }
    }

    /// Health check: sends a `Ping` carrying `nonce` and blocks for the
    /// echoed `Pong`. No service admission is involved — a healthy
    /// daemon answers even when its queue is full.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Disconnected`] on connection loss,
    /// [`ServiceError::Protocol`] on a malformed answer (both poison).
    pub fn ping(&mut self, nonce: u64) -> Result<u64, ServiceError> {
        let reply = self.exchange(&proto::encode_ping(nonce))?;
        proto::decode_pong(&reply).map_err(|err| self.poison(err.into()))
    }

    /// Declares this connection's client identity for per-client
    /// fairness quotas
    /// ([`crate::ServiceConfig::max_inflight_per_client`]).
    /// Fire-and-forget — the daemon sends no acknowledgement, and TCP
    /// ordering guarantees the identity applies to every request
    /// submitted after this call.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Disconnected`] on connection loss (poisons).
    pub fn hello(&mut self, client_id: &str) -> Result<(), ServiceError> {
        if self.poisoned {
            return Err(ServiceError::Disconnected);
        }
        proto::write_frame(&mut self.stream, &proto::encode_hello(client_id))
            .map_err(|_| self.poison(ServiceError::Disconnected))
    }

    /// One request/reply frame exchange with poisoning on every I/O
    /// failure path.
    fn exchange(&mut self, payload: &[u8]) -> Result<Vec<u8>, ServiceError> {
        if self.poisoned {
            return Err(ServiceError::Disconnected);
        }
        proto::write_frame(&mut self.stream, payload)
            .map_err(|_| self.poison(ServiceError::Disconnected))?;
        match proto::read_frame(&mut self.stream) {
            Ok(Some(reply)) => Ok(reply),
            Ok(None) => Err(self.poison(ServiceError::Disconnected)),
            Err(err) if err.kind() == io::ErrorKind::InvalidData => {
                Err(self.poison(ServiceError::Protocol {
                    detail: err.to_string(),
                }))
            }
            Err(_) => Err(self.poison(ServiceError::Disconnected)),
        }
    }

    fn poison(&mut self, err: ServiceError) -> ServiceError {
        self.poisoned = true;
        err
    }
}
