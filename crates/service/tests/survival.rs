//! Survivability tests for the daemon's hostile-peer defenses: I/O
//! deadlines against half-open and slow-loris connections, clients that
//! vanish between request and reply, `Ping`/`Pong` health checks,
//! per-client fairness quotas, and the graceful drain of
//! [`Daemon::shutdown`]. Every scenario must leave the pool, sibling
//! connections, and both counter sets consistent.

use std::io::Write as _;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use rt_service::{
    proto, Daemon, DaemonClient, Request, ResponsePayload, ServiceConfig, ServiceError,
};
use rt_stg::models;

#[cfg(feature = "fault-injection")]
fn suite_guard() -> rt_stg::faults::SuiteGuard {
    rt_stg::faults::suite()
}

/// Stand-in guard so `let _suite = suite_guard();` binds a value in
/// both builds.
#[cfg(not(feature = "fault-injection"))]
struct SuiteGuard;

#[cfg(not(feature = "fault-injection"))]
fn suite_guard() -> SuiteGuard {
    SuiteGuard
}

/// A daemon whose I/O deadline is short enough to test against without
/// slowing the suite down.
fn short_deadline_daemon(io_timeout: Duration) -> Daemon {
    let config = ServiceConfig::builder()
        .io_timeout(io_timeout)
        .build()
        .expect("valid config");
    Daemon::bind(config, "127.0.0.1:0").expect("bind ephemeral port")
}

/// Polls `probe` until it reports true or `deadline` passes.
fn wait_until(deadline: Duration, what: &str, mut probe: impl FnMut() -> bool) {
    let give_up = Instant::now() + deadline;
    while !probe() {
        assert!(Instant::now() < give_up, "timed out waiting for {what}");
        thread::sleep(Duration::from_millis(5));
    }
}

#[test]
fn half_open_connection_is_timed_out_quietly() {
    let _suite = suite_guard();
    let daemon = short_deadline_daemon(Duration::from_millis(100));
    // Connect and send nothing at all: no frame ever starts, so the
    // daemon owes this peer no protocol answer — just a close.
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
    wait_until(Duration::from_secs(10), "the idle timeout", || {
        daemon.stats().timeouts >= 1
    });
    assert_eq!(
        proto::read_frame(&mut stream).expect("clean close"),
        None,
        "a silent peer is closed without any answer frame"
    );
    let stats = daemon.stats();
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.timeouts, 1);
    assert_eq!(
        stats.protocol_errors, 0,
        "silence is not a protocol violation"
    );
    assert_eq!(
        stats.disconnects, 0,
        "the daemon closed it, the peer did not vanish"
    );
    assert_eq!(stats.requests, 0);
    daemon.shutdown();
}

#[test]
fn slow_loris_trickle_hits_the_whole_frame_deadline() {
    let _suite = suite_guard();
    let io_timeout = Duration::from_millis(150);
    let daemon = short_deadline_daemon(io_timeout);
    let stream = TcpStream::connect(daemon.local_addr()).expect("connect");

    // Announce a 64-byte frame, then trickle one byte per 30ms: every
    // individual gap is far below the timeout, but the *whole-frame*
    // deadline shrinks as bytes arrive, so the read still expires.
    let mut writer = stream.try_clone().expect("clone for the writer");
    let trickler = thread::spawn(move || {
        let _ = writer.write_all(&64u32.to_le_bytes());
        for _ in 0..64 {
            if writer.write_all(&[0u8]).is_err() {
                break; // The daemon gave up on us — mission accomplished.
            }
            let _ = writer.flush();
            thread::sleep(Duration::from_millis(30));
        }
    });

    // Mid-frame the daemon owes a best-effort explanation before the
    // close — the peer did make progress, it was just too slow.
    let mut reader = stream.try_clone().expect("clone for the reader");
    let reply = proto::read_frame(&mut reader)
        .expect("the daemon answers before closing")
        .expect("a reply frame");
    match proto::decode_reply(&reply).expect("reply decodes") {
        Err(ServiceError::Protocol { detail }) => {
            assert!(detail.contains("io_timeout"), "detail: {detail}");
        }
        other => panic!("expected the timeout's protocol error, got {other:?}"),
    }
    trickler.join().expect("trickler thread");
    let stats = daemon.stats();
    assert_eq!(stats.timeouts, 1);
    assert_eq!(stats.requests, 0, "the half-sent frame was never admitted");
    assert_eq!(
        stats.protocol_errors, 0,
        "a timeout is counted as a timeout, not garbage"
    );
    daemon.shutdown();
}

#[test]
fn client_vanishing_between_request_and_reply_leaves_everything_consistent() {
    let _suite = suite_guard();
    let daemon = short_deadline_daemon(Duration::from_millis(500));
    let addr = daemon.local_addr();

    // Send a complete, valid request — then disappear without reading
    // the reply.
    {
        let mut stream = TcpStream::connect(addr).expect("connect");
        let payload = proto::encode_request(&Request::summary(models::chain_stg(5)));
        proto::write_frame(&mut stream, &payload).expect("send request");
    } // Dropped here: the socket closes with the reply still pending.

    // The orphaned request runs to completion service-side.
    wait_until(Duration::from_secs(10), "the orphan to complete", || {
        daemon.service_stats().completed >= 1
    });

    // A sibling connection is untouched and the orphan's answer was
    // cached, exactly as if the client had waited.
    let mut sibling = DaemonClient::connect(addr).expect("connect sibling");
    let replay = sibling
        .submit(&Request::summary(models::chain_stg(5)))
        .expect("sibling replays the orphan's content");
    assert!(replay.cached, "the orphan's completed answer was cached");
    assert!(matches!(replay.payload, ResponsePayload::Summary(_)));

    let stats = daemon.stats();
    assert_eq!(stats.requests, 2);
    assert_eq!(stats.protocol_errors, 0);
    // Whether the vanished client counts as a disconnect is an OS
    // buffering race (the reply write may land in a buffer nobody will
    // read); what matters is nothing else was miscounted.
    assert!(stats.disconnects <= 1, "stats: {stats:?}");
    let service = daemon.service_stats();
    assert_eq!(
        service.admitted, 1,
        "the replay was a cache hit, not a second admission"
    );
    assert_eq!(service.cache_hits, 1);
    daemon.shutdown();
}

#[test]
fn ping_pong_health_checks_bypass_admission_and_count_no_requests() {
    let _suite = suite_guard();
    let daemon = Daemon::bind(ServiceConfig::default(), "127.0.0.1:0").expect("bind");
    let mut client = DaemonClient::connect(daemon.local_addr()).expect("connect");
    for nonce in [0u64, 1, 0x00DA_C99D_AC99, u64::MAX] {
        assert_eq!(client.ping(nonce).expect("pong"), nonce);
    }
    // Interleaved with real work on the same connection.
    client.hello("health-checked").expect("hello");
    let reply = client
        .submit(&Request::summary(models::fifo_stg()))
        .expect("work after pings");
    assert!(matches!(reply.payload, ResponsePayload::Summary(_)));
    assert_eq!(client.ping(7).expect("pong after work"), 7);

    let stats = daemon.stats();
    assert_eq!(
        stats.requests, 1,
        "pings and hellos are not admitted requests"
    );
    assert_eq!(stats.protocol_errors, 0);
    assert_eq!(stats.timeouts, 0);
    assert_eq!(
        daemon.service_stats().submitted,
        1,
        "control frames never touch the service"
    );
    daemon.shutdown();
}

#[test]
fn serial_submissions_under_a_quota_of_one_are_never_refused() {
    let _suite = suite_guard();
    let config = ServiceConfig::builder()
        .max_inflight_per_client(1)
        .build()
        .expect("valid config");
    let daemon = Daemon::bind(config, "127.0.0.1:0").expect("bind");
    let mut client = DaemonClient::connect(daemon.local_addr()).expect("connect");
    client.hello("serial").expect("hello");
    // Each reply releases the in-flight slot before the next submit, so
    // the tightest possible quota never fires for a well-behaved client.
    for stg in [
        models::fifo_stg(),
        models::chain_stg(4),
        models::chain_stg(6),
    ] {
        client
            .submit(&Request::summary(stg))
            .expect("serial work under quota 1");
    }
    assert_eq!(daemon.service_stats().quota_sheds, 0);
    daemon.shutdown();
}

#[cfg(feature = "fault-injection")]
mod faulted {
    use super::*;
    use rt_stg::faults::{arm, suite, Fault};

    /// The starvation pin: a greedy tenant saturating its quota is shed,
    /// while the polite tenant's request is served promptly — the greedy
    /// client never starves anyone else.
    #[test]
    fn quota_shields_one_tenant_from_another() {
        let _suite = suite();
        let config = ServiceConfig::builder()
            .workers(2)
            .max_inflight_per_client(1)
            .build()
            .expect("valid config");
        let daemon = Daemon::bind(config, "127.0.0.1:0").expect("bind");
        let addr = daemon.local_addr();
        // Admission index 0 — the greedy tenant's first request — stalls
        // in its worker, pinning the greedy quota slot as occupied.
        let _fault = arm(
            Fault::ServiceStallAt {
                request: 0,
                millis: 600,
            },
            1,
        );

        let greedy_first = thread::spawn(move || {
            let mut greedy = DaemonClient::connect(addr).expect("connect greedy");
            greedy.hello("greedy").expect("hello");
            greedy.submit(&Request::summary(models::chain_stg(4)))
        });
        // Let the stalled request reach its worker before probing.
        thread::sleep(Duration::from_millis(100));

        // Same identity, different connection, different content (so
        // nothing coalesces): refused with the typed quota error.
        let mut greedy_second = DaemonClient::connect(addr).expect("connect greedy#2");
        greedy_second.hello("greedy").expect("hello");
        match greedy_second.submit(&Request::summary(models::chain_stg(5))) {
            Err(ServiceError::QuotaExceeded { client, inflight }) => {
                assert_eq!(client, "greedy");
                assert_eq!(inflight, 1);
            }
            other => panic!("expected the quota refusal, got {other:?}"),
        }

        // The polite tenant is served while the greedy stall is still
        // holding its worker — well before the 600ms stall could end.
        let mut polite = DaemonClient::connect(addr).expect("connect polite");
        polite.hello("polite").expect("hello");
        let start = Instant::now();
        polite
            .submit(&Request::summary(models::fifo_stg()))
            .expect("the polite tenant is never starved");
        assert!(
            start.elapsed() < Duration::from_millis(400),
            "polite reply took {:?} — it queued behind the greedy stall",
            start.elapsed()
        );

        // The stalled request itself still completes normally.
        let first = greedy_first.join().expect("greedy thread");
        assert!(matches!(first, Ok(ref r) if matches!(r.payload, ResponsePayload::Summary(_))));
        let service = daemon.service_stats();
        assert_eq!(service.quota_sheds, 1);
        assert_eq!(service.admitted, 2, "only the refused request was kept out");
        daemon.shutdown();
    }

    /// A patient shutdown lets the in-flight reply finish: graceful
    /// drain delivers it before the connection is severed.
    #[test]
    fn shutdown_drains_an_inflight_reply_within_the_deadline() {
        let _suite = suite();
        let config = ServiceConfig::builder()
            .workers(1)
            .drain_deadline(Duration::from_secs(5))
            .build()
            .expect("valid config");
        let daemon = Daemon::bind(config, "127.0.0.1:0").expect("bind");
        let addr = daemon.local_addr();
        let _fault = arm(
            Fault::ServiceStallAt {
                request: 0,
                millis: 400,
            },
            1,
        );
        let client = thread::spawn(move || {
            let mut client = DaemonClient::connect(addr).expect("connect");
            client.submit(&Request::summary(models::chain_stg(4)))
        });
        thread::sleep(Duration::from_millis(100));
        daemon.shutdown();
        let reply = client.join().expect("client thread");
        let response = reply.expect("the drain delivered the in-flight reply");
        assert!(matches!(response.payload, ResponsePayload::Summary(_)));
    }

    /// An impatient shutdown severs what will not finish in time — the
    /// client sees a disconnect, and shutdown still joins every thread
    /// instead of hanging.
    #[test]
    fn shutdown_severs_connections_that_outlive_the_drain_deadline() {
        let _suite = suite();
        let config = ServiceConfig::builder()
            .workers(1)
            .drain_deadline(Duration::from_millis(1))
            .build()
            .expect("valid config");
        let daemon = Daemon::bind(config, "127.0.0.1:0").expect("bind");
        let addr = daemon.local_addr();
        let _fault = arm(
            Fault::ServiceStallAt {
                request: 0,
                millis: 500,
            },
            1,
        );
        let client = thread::spawn(move || {
            let mut client = DaemonClient::connect(addr).expect("connect");
            client.submit(&Request::summary(models::chain_stg(4)))
        });
        thread::sleep(Duration::from_millis(100));
        daemon.shutdown();
        let reply = client.join().expect("client thread");
        assert_eq!(
            reply,
            Err(ServiceError::Disconnected),
            "past the drain deadline the connection is severed, not served"
        );
    }
}

#[test]
fn finished_handlers_are_reaped_as_new_connections_arrive() {
    let _suite = suite_guard();
    let daemon = short_deadline_daemon(Duration::from_secs(10));
    for nonce in 0..16 {
        let mut client = DaemonClient::connect(daemon.local_addr()).expect("connect");
        assert_eq!(client.ping(nonce), Ok(nonce));
    }
    // Each accept reaps the handlers that have exited by then, so a
    // daemon that has served 16 short connections does not keep 16
    // join handles.
    wait_until(Duration::from_secs(10), "handlers to be reaped", || {
        let mut client = DaemonClient::connect(daemon.local_addr()).expect("connect");
        assert_eq!(client.ping(99), Ok(99));
        daemon.retained_handlers() <= 2
    });
    daemon.shutdown();
}

#[test]
fn header_announcing_the_largest_frame_then_eof_is_a_disconnect() {
    let _suite = suite_guard();
    let daemon = short_deadline_daemon(Duration::from_secs(10));
    let mut stream = TcpStream::connect(daemon.local_addr()).expect("connect");
    stream
        .write_all(&(proto::MAX_FRAME_LEN as u32).to_le_bytes())
        .expect("header");
    stream
        .shutdown(std::net::Shutdown::Write)
        .expect("half-close");
    wait_until(Duration::from_secs(10), "the mid-frame EOF", || {
        daemon.stats().disconnects >= 1
    });
    let mut client = DaemonClient::connect(daemon.local_addr()).expect("connect");
    assert_eq!(client.ping(7), Ok(7), "the daemon keeps serving");
    let stats = daemon.stats();
    assert_eq!((stats.disconnects, stats.protocol_errors), (1, 0));
    daemon.shutdown();
}

#[cfg(feature = "fault-injection")]
#[test]
fn failed_handler_spawn_drops_that_connection_and_keeps_accepting() {
    use rt_stg::faults::{arm, Fault};

    let _suite = suite_guard();
    let daemon = short_deadline_daemon(Duration::from_secs(10));
    let fault = arm(Fault::DaemonSpawnFailAt { connection: 0 }, 1);
    let mut doomed = DaemonClient::connect(daemon.local_addr()).expect("the accept succeeds");
    assert!(
        doomed.ping(1).is_err(),
        "no handler thread: the connection is closed unanswered"
    );
    drop(fault);
    let mut client = DaemonClient::connect(daemon.local_addr()).expect("connect");
    assert_eq!(client.ping(2), Ok(2), "the daemon still accepts");
    let response = client
        .submit(&Request::summary(models::fifo_stg()))
        .expect("and serves");
    match response.payload {
        ResponsePayload::Summary(outcome) => assert_eq!(outcome.markings, 18),
        other => panic!("wrong payload kind: {other:?}"),
    }
    let stats = daemon.stats();
    assert_eq!((stats.connections, stats.disconnects), (2, 1));
    daemon.shutdown();
}
