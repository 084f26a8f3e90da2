//! Socket-to-reply benchmark of the synthesis daemon.
//!
//! ```text
//! cargo run --release --manifest-path wirebench/Cargo.toml -- \
//!     --workload cold_mix|hot_repeat|wide_symbolic --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts an in-process `rt_service::Daemon` with `ServiceConfig::default()`
//! on a loopback port and drives the workload's seeded requests through
//! `ReconnectingClient` in a closed loop of two clients on two
//! connections. `--trace 0` measures the end-to-end metrics untraced;
//! `--trace 1` runs a short untraced loop (for the tracing overhead) and
//! then the serial, layer-peeled traced pass (see `trace.rs`), reporting
//! the per-layer metrics and writing a Chrome trace file.
//!
//! Every answer is checked outside the timed window against references
//! that do not come from the path under test, and the service's counter
//! identity is checked at the end. Either failing makes the run exit
//! non-zero after printing its result. The last stdout line is the
//! result object; a record of the run (seed, CPUs, commit, profile) and
//! informational figures come before it and go to `.wirebench/`.

mod check;
mod drive;
mod sys;
mod trace;
mod workload;

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use rt_service::{ResponsePayload, ServiceStats};

use crate::drive::{Sample, Window, CLIENTS, SETUP_REPEATS, SETUP_WARMUPS};
use crate::workload::{Kind, Stream, Workload};

const OUT_DIR: &str = ".wirebench";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Metrics of one result, in print order.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if i == 0 { "" } else { ", " },
                number(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit Rust keeps (`NaN`/infinite map to 0).
fn number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".into()
    }
}

/// Checks every sample's reply; repeated identical answers to one item
/// (the `hot_repeat` replays) are checked once.
struct Checker<'a> {
    stream: &'a Stream,
    passed: HashMap<usize, ResponsePayload>,
    wrong: usize,
    errors: usize,
    messages: Vec<String>,
}

impl<'a> Checker<'a> {
    fn new(stream: &'a Stream) -> Self {
        Checker {
            stream,
            passed: HashMap::new(),
            wrong: 0,
            errors: 0,
            messages: Vec::new(),
        }
    }

    fn check(&mut self, sample: &Sample) {
        let item = &self.stream.items[sample.item];
        if let Ok(response) = &sample.reply {
            if self.passed.get(&sample.item) == Some(&response.payload) {
                return;
            }
        }
        match check::check(item, &sample.reply) {
            Ok(()) => {
                let payload = sample.reply.as_ref().expect("checked Ok").payload.clone();
                self.passed.insert(sample.item, payload);
            }
            Err(why) => {
                if sample.reply.is_err() {
                    self.errors += 1;
                } else {
                    self.wrong += 1;
                }
                if self.messages.len() < 8 {
                    self.messages
                        .push(format!("{} {}: {why}", item.kind.name(), item.base));
                }
            }
        }
    }

    fn failed(&self) -> usize {
        self.wrong + self.errors
    }
}

fn ms_of(samples: &[Sample], kind: Option<Kind>) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.reply.is_ok() && kind.is_none_or(|k| s.kind == k))
        .map(|s| s.latency_ms)
        .collect()
}

fn p50(values: &[f64]) -> f64 {
    sys::median(values).unwrap_or(f64::NAN)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(err) => {
            eprintln!("wirebench: {err}");
            eprintln!(
                "usage: --workload cold_mix|hot_repeat|wide_symbolic --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let name = args.workload.name();
    // Set-up is timed first, before the stream's references use memory
    // and CPU, after a few untimed set-ups have paid the process's own
    // first-thread costs; the last daemon set up serves the run.
    drive::time_setups(SETUP_WARMUPS);
    let mut setups = drive::time_setups(SETUP_REPEATS - 1);
    let (mut daemon, setup) = drive::bind_until_first_pong();
    setups.push(setup);
    let setup_s = sys::median(&setups).expect("at least one set-up");
    let stream = workload::build(args.workload, args.seed);
    let mut checker = Checker::new(&stream);
    let mut info = Metrics::default();
    let mut metrics = Metrics::default();

    if stream.warmup {
        for sample in drive::warm_up(daemon.local_addr(), &stream) {
            checker.check(&sample);
        }
    }
    let warm = daemon.service_stats();
    let mut counters = drive::Counters::default();
    // `--trace 1` spends a third of its time untraced (the overhead
    // baseline) and the rest on the traced pass.
    let loop_seconds = if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    let started = Instant::now();
    let after = |position: usize, marks: &[usize]| {
        marks
            .iter()
            .copied()
            .find(|&mark| mark > position)
            .unwrap_or(stream.play.len())
    };
    let mut parts: Vec<Window> = Vec::new();
    let mut next = 0;
    loop {
        let left = loop_seconds - started.elapsed().as_secs_f64();
        if left <= 0.0 {
            break;
        }
        let end = after(next, &stream.breaks);
        let part = drive::closed_loop(daemon.local_addr(), &stream, next..end, CLIENTS, left);
        next = part.next;
        parts.push(part);
        if next < end || end >= stream.play.len() {
            break;
        }
        // A break: the rest runs on a fresh daemon.
        counters.retire(daemon);
        daemon = drive::bind_until_first_pong().0;
    }
    let mut window = Window::default();
    for part in parts {
        window.absorb(part);
    }
    let traced = args.trace.then(|| {
        // Cold workloads trace a fresh lap on a fresh daemon, so that no
        // engine on any peeled path has seen its structures; hot_repeat
        // keeps replaying on its warm daemon.
        let start = if stream.warmup {
            window.next
        } else {
            counters.retire(std::mem::replace(
                &mut daemon,
                drive::bind_until_first_pong().0,
            ));
            after(window.next.saturating_sub(1), &stream.laps)
        };
        let end = if stream.warmup {
            stream.play.len()
        } else {
            after(start, &stream.laps)
        };
        trace::run(
            daemon.local_addr(),
            &stream,
            start..end,
            args.seconds - loop_seconds,
        )
    });
    counters.retire(daemon);
    let (service, wire, daemons) = (counters.service, counters.wire, counters.daemons);
    let mut problems = counters.problems;

    // Checks, all outside the timed window.
    for sample in &window.samples {
        checker.check(sample);
    }
    let all_ms = ms_of(&window.samples, None);
    let replies = all_ms.len();
    let latency_p50 = p50(&all_ms);
    let cpu_per_reply = window.cpu_ms / replies.max(1) as f64;
    if wire.protocol_errors + wire.timeouts + wire.disconnects + window.reconnects != 0 {
        problems.push(format!(
            "wire faults on a well-behaved run: protocol_errors {} timeouts {} disconnects {} reconnects {}",
            wire.protocol_errors, wire.timeouts, wire.disconnects, window.reconnects
        ));
    }
    if args.workload != Workload::HotRepeat && service.cache_hits != warm.cache_hits {
        problems.push(format!(
            "{} memo-cache hits on a cold workload: the stream repeated a request",
            service.cache_hits - warm.cache_hits
        ));
    }
    if args.workload == Workload::HotRepeat && service.cache_misses != warm.cache_misses {
        problems.push(format!(
            "{} memo-cache misses after the warm-up: the working set did not stay cached",
            service.cache_misses - warm.cache_misses
        ));
    }
    // Sheds and engine failures reach the clients as typed errors, which
    // the checker counts; daemon-side disconnects are added here.
    let mut attempted = window.samples.len();
    let mut failed = checker.failed() + wire.disconnects as usize;
    if let Some(traced) = &traced {
        attempted += traced.requests;
        failed += traced.failed;
        for message in &traced.errors {
            problems.push(format!("traced: {message}"));
        }
        let error_ratio = failed as f64 / attempted.max(1) as f64;
        per_layer(
            &mut metrics,
            &mut info,
            traced,
            &service,
            latency_p50,
            cpu_per_reply,
            error_ratio,
        );
        let path = format!("{OUT_DIR}/trace-{name}-seed{}.json", args.seed);
        match write_file(&path, &trace::chrome_json(traced)) {
            Ok(()) => println!("trace: {} spans written to {path}", traced.spans.len()),
            Err(err) => problems.push(format!("cannot write {path}: {err}")),
        }
    } else {
        let p90 = sys::quantile(&all_ms, 0.9).unwrap_or(f64::NAN);
        metrics.put("setup_s", setup_s, "s");
        metrics.put("throughput_rps", replies as f64 / window.elapsed_s, "1/s");
        metrics.put("latency_p50_ms", latency_p50, "ms");
        metrics.put("latency_p90_ms", p90, "ms");
        let summary = ms_of(&window.samples, Some(Kind::Summary));
        metrics.put("summary_p50_ms", p50(&summary), "ms");
        let csc_check = ms_of(&window.samples, Some(Kind::CscCheck));
        metrics.put("csc_check_p50_ms", p50(&csc_check), "ms");
        metrics.put("peak_rss_mb", sys::peak_rss_mb(), "MB");
        // Not gated: on hot_repeat it is mostly the cost of waking threads
        // that sat out the delayed-ACK floor, which the host sets (see
        // METRICS.md). The traced run reports it as a per-layer figure.
        info.put("cpu_ms_per_req", cpu_per_reply, "ms");
        // Kinds absent from some workload's mix: info only.
        for (kind, label) in [
            (Kind::Resolve, "resolve_p50_ms"),
            (Kind::Verify, "verify_p50_ms"),
        ] {
            let values = ms_of(&window.samples, Some(kind));
            if !values.is_empty() {
                info.put(label, p50(&values), "ms");
            }
        }
        info.put(
            "error_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        );
        let fastest = setups.iter().copied().fold(f64::INFINITY, f64::min);
        info.put("setup_min_s", fastest, "s");
        let slowest = setups.iter().copied().fold(0.0, f64::max);
        info.put("setup_max_s", slowest, "s");
        let tail = all_ms.iter().filter(|&&ms| ms > p90).count();
        info.put("samples_beyond_p90", tail as f64, "count");
        if replies < 100 {
            println!("warning: only {replies} replies, so fewer than 10 samples lie beyond p90");
        }
    }
    for message in &checker.messages {
        problems.push(format!("wrong answer: {message}"));
    }

    let correct = failed == 0 && problems.is_empty();
    let record = format!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"cpus\": {}, \
         \"commit\": \"{}\", \"profile\": \"{}\", \"clients\": {CLIENTS}, \"workers\": {}, \
         \"window_s\": {}, \"replies\": {replies}, \"laps\": {}, \"daemons\": {}}}",
        args.seed,
        number(args.seconds),
        u8::from(args.trace),
        sys::cpus(),
        sys::commit(),
        sys::profile(),
        rt_service::ServiceConfig::default().workers,
        number(window.elapsed_s),
        stream.laps.iter().filter(|&&lap| lap < window.next).count(),
        daemons,
    );
    let result = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {}}}",
        attempted.max(1),
        metrics.json()
    );
    println!("record: {record}");
    println!("info: {}", info.json());
    for problem in &problems {
        println!("problem: {problem}");
    }
    let path = format!(
        "{OUT_DIR}/result-{name}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    );
    let saved = format!(
        "{{\"record\": {record}, \"info\": {}, \"result\": {result}}}\n",
        info.json()
    );
    if let Err(err) = write_file(&path, &saved) {
        println!("problem: cannot write {path}: {err}");
    }
    println!("{result}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The per-layer metrics of a traced run, in `BENCHMARK.json` order, plus
/// the synth and verify figures of workloads that have those kinds.
fn per_layer(
    metrics: &mut Metrics,
    info: &mut Metrics,
    traced: &trace::Traced,
    service: &ServiceStats,
    untraced_p50_ms: f64,
    untraced_cpu_ms_per_req: f64,
    error_ratio: f64,
) {
    let count = |value: u64| value as f64;
    metrics.put("process.cpu_ms_per_req", untraced_cpu_ms_per_req, "ms");
    metrics.put("daemon.ping_rtt_p50_us", p50(&traced.ping_us), "us");
    metrics.put(
        "daemon.ping_idle_rtt_p50_us",
        p50(&traced.ping_idle_us),
        "us",
    );
    metrics.put("daemon.wire_self_p50_ms", p50(&traced.wire_self_ms), "ms");
    metrics.put(
        "proto.encode_request_us",
        p50(&traced.encode_request_us),
        "us",
    );
    metrics.put(
        "proto.decode_request_us",
        p50(&traced.decode_request_us),
        "us",
    );
    metrics.put("proto.encode_reply_us", p50(&traced.encode_reply_us), "us");
    metrics.put("proto.decode_reply_us", p50(&traced.decode_reply_us), "us");
    metrics.put("proto.request_bytes", p50(&traced.request_bytes), "bytes");
    metrics.put("proto.reply_bytes", p50(&traced.reply_bytes), "bytes");
    metrics.put("service.self_p50_ms", p50(&traced.service_self_ms), "ms");
    metrics.put("service.hit_p50_us", p50(&traced.service_hit_us), "us");
    metrics.put("service.cache_hit_rate", service.cache_hit_rate(), "ratio");
    metrics.put(
        "service.batch_dedup_hits",
        count(service.batch_dedup_hits),
        "count",
    );
    metrics.put(
        "service.idempotent_replays",
        count(service.idempotent_replays),
        "count",
    );
    metrics.put("service.shed", count(service.shed), "count");
    metrics.put("service.retries", count(service.retries), "count");
    metrics.put("service.quarantines", count(service.quarantines), "count");
    metrics.put("service.degraded", count(service.degraded), "count");
    metrics.put("service.errors", count(service.errors), "count");
    let direct = |kind: Kind| &traced.direct_ms[kind as usize];
    metrics.put("engine.summary_p50_ms", p50(direct(Kind::Summary)), "ms");
    metrics.put("engine.csc_check_p50_ms", p50(direct(Kind::CscCheck)), "ms");
    metrics.put("engine.degradations", traced.degradations as f64, "count");
    metrics.put(
        "bdd.peak_live_nodes",
        traced.peak_live_nodes as f64,
        "count",
    );
    metrics.put(
        "bdd.op_cache_entries",
        traced.op_cache_entries as f64,
        "count",
    );
    metrics.put("bdd.collections", traced.collections as f64, "count");
    metrics.put("bdd.manager_reuses", traced.manager_reuses as f64, "count");
    metrics.put("trace.requests", traced.requests as f64, "count");
    let overhead = p50(&traced.wire_ms) - untraced_p50_ms;
    metrics.put("trace.overhead_ms", overhead, "ms");
    metrics.put("error_ratio", error_ratio, "ratio");
    if !direct(Kind::Resolve).is_empty() {
        info.put("synth.resolve_p50_ms", p50(direct(Kind::Resolve)), "ms");
        let candidates = p50(&traced.candidates_per_resolve);
        info.put("synth.candidates_per_resolve", candidates, "count");
    }
    if !direct(Kind::Verify).is_empty() {
        info.put("verify.verify_p50_ms", p50(direct(Kind::Verify)), "ms");
        info.put(
            "verify.states_explored",
            p50(&traced.states_explored),
            "count",
        );
    }
}

fn write_file(path: &str, contents: &str) -> std::io::Result<()> {
    if let Some(dir) = Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, contents)
}
