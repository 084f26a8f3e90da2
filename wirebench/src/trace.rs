//! The traced run: serial, one client, every request peeled layer by
//! layer from the benchmark's own files — nothing inside the program is
//! instrumented.
//!
//! Per request, in order: the direct engine/synth/verify call on one
//! persistent engine (the pool's backend and budget), a submit on a
//! separate in-process `SynthService` with the same configuration, the
//! same submit again (a memo-cache hit), the four `proto` codec calls,
//! the wire submit through `ReconnectingClient` (right after a priming
//! ping on the same connection, as in the closed loop), and two
//! `DaemonClient::ping`s on a connection of their own: one after an idle
//! gap, one back to back. Spans share the request id, stay in memory, and
//! are written as Chrome trace-event JSON at the end.
//!
//! Not visible from here: queue wait inside the service and GC/sifting
//! time inside the BDD manager. They need spans inside the program.

use std::fmt::Write as _;
use std::net::SocketAddr;
use std::ops::Range;
use std::time::{Duration, Instant};

use rt_service::{
    proto, DaemonClient, ReconnectingClient, RequestPayload, Response, ServiceConfig, ServiceError,
    SynthService,
};
use rt_stg::ReachEngine;
use rt_synth::csc::resolve_csc_engine;
use rt_verify::verify_with_engine;

use crate::check::check;
use crate::workload::{Item, Kind, Stream};

/// Quiet time before the idle ping: longer than Linux's 40 ms
/// delayed-ACK timer, so the exchange starts with no ACK pending.
const IDLE_GAP: Duration = Duration::from_millis(60);

/// One timed call.
pub struct Span {
    pub name: &'static str,
    pub request: usize,
    pub start_us: f64,
    pub dur_us: f64,
}

/// Everything the traced pass measured.
#[derive(Default)]
pub struct Traced {
    pub spans: Vec<Span>,
    pub requests: usize,
    /// Kind of each traced request, by request id.
    pub kinds: Vec<Kind>,
    /// Wire submits: latency, success.
    pub wire_ms: Vec<f64>,
    pub wire_self_ms: Vec<f64>,
    pub service_self_ms: Vec<f64>,
    pub service_hit_us: Vec<f64>,
    /// Back-to-back pings (the closed-loop case) and pings after an
    /// idle gap, in microseconds.
    pub ping_us: Vec<f64>,
    pub ping_idle_us: Vec<f64>,
    pub encode_request_us: Vec<f64>,
    pub decode_request_us: Vec<f64>,
    pub encode_reply_us: Vec<f64>,
    pub decode_reply_us: Vec<f64>,
    pub request_bytes: Vec<f64>,
    pub reply_bytes: Vec<f64>,
    pub direct_ms: [Vec<f64>; 4],
    /// Explicit candidate graphs built per resolve (engine-stats delta).
    pub candidates_per_resolve: Vec<f64>,
    pub states_explored: Vec<f64>,
    pub degradations: usize,
    pub peak_live_nodes: usize,
    pub op_cache_entries: usize,
    pub collections: usize,
    pub manager_reuses: usize,
    /// Replies (wire or in-process) that failed or answered wrongly.
    pub failed: usize,
    pub errors: Vec<String>,
}

struct Clock {
    origin: Instant,
}

impl Clock {
    /// Runs `call`, records it as span `name` of `request`, and returns
    /// its result with its duration in microseconds.
    fn span<T>(
        &self,
        spans: &mut Vec<Span>,
        name: &'static str,
        request: usize,
        call: impl FnOnce() -> T,
    ) -> (T, f64) {
        let started = Instant::now();
        let out = call();
        let dur_us = started.elapsed().as_secs_f64() * 1e6;
        spans.push(Span {
            name,
            request,
            start_us: started.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us,
        });
        (out, dur_us)
    }
}

/// Runs the traced pass over the `positions` of `stream.play` until
/// `seconds` pass or the positions run out.
pub fn run(addr: SocketAddr, stream: &Stream, positions: Range<usize>, seconds: f64) -> Traced {
    let config = ServiceConfig::default();
    let mut engine = ReachEngine::new(config.backend).with_budget(config.budget.clone());
    let service = SynthService::start(config);
    let mut client = ReconnectingClient::connect(addr, "traced").expect("connect to the daemon");
    let mut pinger = DaemonClient::connect(addr).expect("connect the ping client");
    let clock = Clock {
        origin: Instant::now(),
    };
    let deadline = clock.origin + Duration::from_secs_f64(seconds);
    let mut out = Traced::default();
    let end = positions.end.min(stream.play.len());
    for &index in &stream.play[positions.start.min(end)..end] {
        if Instant::now() >= deadline {
            break;
        }
        let item = &stream.items[index];
        let id = out.requests;
        out.requests += 1;
        out.kinds.push(item.kind);
        let request_started = Instant::now();

        // 1. Direct call into the layer that does the work.
        let builds_before = engine.stats().graph_builds;
        let direct_us = match &item.request.payload {
            RequestPayload::Summary { stg } => {
                let (result, us) =
                    clock.span(&mut out.spans, "engine.summary", id, || engine.summary(stg));
                if let Err(err) = result {
                    fail(&mut out, "direct", item, err.to_string());
                }
                us
            }
            RequestPayload::CscCheck { stg } => {
                let (result, us) = clock.span(&mut out.spans, "engine.csc_check", id, || {
                    engine.csc_conflicts_symbolic(stg)
                });
                if let Err(err) = result {
                    fail(&mut out, "direct", item, err.to_string());
                }
                us
            }
            RequestPayload::ResolveCsc { stg, options } => {
                let (result, us) = clock.span(&mut out.spans, "synth.resolve", id, || {
                    resolve_csc_engine(stg, options, &mut engine)
                });
                if let Err(err) = result {
                    fail(&mut out, "direct", item, err.to_string());
                }
                out.candidates_per_resolve
                    .push((engine.stats().graph_builds - builds_before) as f64);
                us
            }
            RequestPayload::Verify {
                netlist,
                spec,
                orderings,
            } => {
                let (result, us) = clock.span(&mut out.spans, "verify.verify", id, || {
                    verify_with_engine(netlist, spec, orderings, &mut engine)
                });
                match result {
                    Ok(report) => out.states_explored.push(report.states_explored as f64),
                    Err(err) => fail(&mut out, "direct", item, err.to_string()),
                }
                us
            }
        };
        out.direct_ms[item.kind as usize].push(direct_us / 1e3);
        out.peak_live_nodes = out.peak_live_nodes.max(engine.manager_nodes());
        out.op_cache_entries = out.op_cache_entries.max(engine.manager_cache_len());

        // 2–3. In-process service: as the daemon would see it, then a hit.
        let (in_process, in_process_us) = clock.span(&mut out.spans, "service.submit", id, || {
            service.submit(item.request.clone())
        });
        let (hit, hit_us) = clock.span(&mut out.spans, "service.hit", id, || {
            service.submit(item.request.clone())
        });
        if matches!(&in_process, Ok(response) if !response.cached) {
            out.service_self_ms.push((in_process_us - direct_us) / 1e3);
        }
        if matches!(&hit, Ok(response) if response.cached) {
            out.service_hit_us.push(hit_us);
        }

        // 4. The codec, on this request and its in-process reply.
        let (encoded, encode_us) = clock.span(&mut out.spans, "proto.encode_request", id, || {
            proto::encode_request(&item.request)
        });
        let (decoded, decode_us) = clock.span(&mut out.spans, "proto.decode_request", id, || {
            proto::decode_request(&encoded)
        });
        if let Err(err) = decoded {
            fail(
                &mut out,
                "proto",
                item,
                format!("request does not decode: {err}"),
            );
        }
        let (reply_bytes, encode_reply_us) =
            clock.span(&mut out.spans, "proto.encode_reply", id, || {
                proto::encode_reply(&in_process)
            });
        let (decoded_reply, decode_reply_us) =
            clock.span(&mut out.spans, "proto.decode_reply", id, || {
                proto::decode_reply(&reply_bytes)
            });
        if let Err(err) = decoded_reply {
            fail(
                &mut out,
                "proto",
                item,
                format!("reply does not decode: {err}"),
            );
        }
        let proto_us = encode_us + decode_us + encode_reply_us + decode_reply_us;
        out.encode_request_us.push(encode_us);
        out.decode_request_us.push(decode_us);
        out.encode_reply_us.push(encode_reply_us);
        out.decode_reply_us.push(decode_reply_us);
        out.request_bytes.push(encoded.len() as f64);
        out.reply_bytes.push(reply_bytes.len() as f64);

        // 5. The wire, through the front door, sent right after another
        // exchange on the same connection, as every closed-loop request
        // is (an untimed ping primes it).
        let (primed, _) = clock.span(&mut out.spans, "daemon.prime", id, || {
            client.ping(id as u64)
        });
        let (wire, wire_us) = clock.span(&mut out.spans, "daemon.submit", id, || {
            client.submit(&item.request)
        });
        if let (Ok(_), Ok(response)) = (&primed, &wire) {
            out.wire_ms.push(wire_us / 1e3);
            // Subtract the in-process call in the same cache state.
            let same_state_us = if response.cached {
                hit_us
            } else {
                in_process_us
            };
            out.wire_self_ms
                .push((wire_us - same_state_us - proto_us) / 1e3);
        }

        // 6. Bare round trips on their own connection: one after an idle
        // gap long enough that no delayed ACK is pending, then one back
        // to back, as closed-loop exchanges run.
        std::thread::sleep(IDLE_GAP);
        let (idle, idle_us) = clock.span(&mut out.spans, "daemon.ping_idle", id, || {
            pinger.ping(2 * id as u64)
        });
        let (busy, busy_us) = clock.span(&mut out.spans, "daemon.ping", id, || {
            pinger.ping(2 * id as u64 + 1)
        });
        if idle.is_ok() && busy.is_ok() {
            out.ping_idle_us.push(idle_us);
            out.ping_us.push(busy_us);
        }

        for (path, reply) in [("wire", &wire), ("in-process", &in_process), ("hit", &hit)] {
            record(&mut out, path, item, reply);
        }
        out.spans.push(Span {
            name: "request",
            request: id,
            start_us: request_started.duration_since(clock.origin).as_secs_f64() * 1e6,
            dur_us: request_started.elapsed().as_secs_f64() * 1e6,
        });
    }
    let stats = engine.stats();
    out.degradations = stats.degradations.len();
    out.collections = stats.collections;
    out.manager_reuses = stats.manager_reuses;
    service.shutdown();
    out
}

fn record(out: &mut Traced, path: &str, item: &Item, reply: &Result<Response, ServiceError>) {
    if let Err(why) = check(item, reply) {
        fail(out, path, item, why);
    }
}

fn fail(out: &mut Traced, path: &str, item: &Item, why: String) {
    out.failed += 1;
    if out.errors.len() < 8 {
        out.errors.push(format!(
            "{} {} ({path}): {why}",
            item.kind.name(),
            item.base
        ));
    }
}

/// Chrome trace-event JSON (the object form Perfetto opens offline):
/// one complete (`"X"`) event per span, the request id in `args`, and
/// the request's kind as the thread, so each kind gets its own track.
pub fn chrome_json(traced: &Traced) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    for (i, span) in traced.spans.iter().enumerate() {
        let kind = traced.kinds[span.request];
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"request\":{},\"kind\":\"{}\"}}}}",
            if i == 0 { "" } else { ",\n" },
            span.name,
            span.name.split('.').next().unwrap_or(span.name),
            span.start_us,
            span.dur_us,
            kind as usize + 1,
            span.request,
            kind.name(),
        );
    }
    out.push_str("\n]}\n");
    out
}
