//! `serve-open`: an in-process daemon on loopback, driven by a seeded
//! open-loop generator at fixed rates and then up a rate ladder.

use crate::corpus::{self, timed_setup, Input};
use crate::util::{self, mean, ms, pct, process_cpu, Deck, Rng, Sheet, Tracer};
use crate::Args;
use padfa_core::{flight, MetricsRegistry};
use padfa_service::{Server, ServiceDeps, ServicePolicy};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// The two fixed offered rates (requests per second), both below the
/// knee of the default two-worker policy on a 2-core host.
const LOW_RPS: f64 = 8.0;
const HIGH_RPS: f64 = 12.0;
/// Requests sent at each fixed rate in a 30-second run: p90 then has
/// 10 samples above it.
const PHASE_REQUESTS: f64 = 100.0;
/// Closed-loop passes over the corpus in a run.
const PASSES: usize = 2;
/// Closed-loop requests and fixed-rate blocks alternate over this many
/// rounds, so a host stall hits part of each figure rather than all of
/// one; the ladder follows.
const ROUNDS: usize = 4;
/// The ladder: one stream from `LADDER_START` up by `LADDER_STEP` every
/// `RUNG_REQUESTS` requests (in a 30-second run), for at most
/// `LADDER_RUNGS` steps.
const LADDER_START: f64 = 18.0;
const LADDER_STEP: f64 = 1.1;
const RUNG_REQUESTS: f64 = 20.0;
const LADDER_RUNGS: usize = 12;
/// A rate is sustained while request p90 (from due time) stays under
/// this limit.
const LIMIT_MS: f64 = 500.0;
/// In-flight requests beyond this count mean the backlog is growing:
/// the sender stops (well before the admission queue would shed).
const BACKLOG_CAP: usize = 12;

/// One request of a schedule.
#[derive(Clone)]
struct Planned {
    id: u64,
    program: usize,
    explain: bool,
    /// Offset from the phase start.
    due: Duration,
}

/// One finished request.
struct Done {
    plan: Planned,
    due: Instant,
    sent: Instant,
    done: Instant,
    body_bytes: usize,
    failure: Option<String>,
}

impl Done {
    fn latency_ms(&self) -> f64 {
        ms(self.done - self.due)
    }
}

fn trace_id(seed: u64, id: u64) -> String {
    format!("pb-{seed}-{id}")
}

fn request_bytes(inp: &Input, explain: bool, trace: Option<&str>) -> Vec<u8> {
    let path = if explain { "/explain" } else { "/analyze" };
    let mut head = format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\nContent-Length: {}\r\n",
        inp.source.len()
    );
    if let Some(t) = trace {
        head.push_str(&format!("X-Padfa-Trace-Id: {t}\r\n"));
    }
    head.push_str("\r\n");
    let mut out = head.into_bytes();
    out.extend_from_slice(inp.source.as_bytes());
    out
}

/// Every `(label, parallelized)` verdict in an `/analyze` or `/explain`
/// body. Loop objects start `{"id":N,"label":...,"proc":"...","depth":N,
/// "outcome":"..."`; `/explain` marks non-candidates in a later
/// `not_candidate` field, `/analyze` in the outcome itself.
fn verdicts(body: &str) -> HashMap<String, bool> {
    let mut out = HashMap::new();
    for chunk in body.split("{\"id\":").skip(1) {
        let digits = chunk.trim_start_matches(|c: char| c.is_ascii_digit());
        let Some(rest) = digits.strip_prefix(",\"label\":\"") else {
            continue;
        };
        let Some((label, rest)) = rest.split_once('"') else {
            continue;
        };
        if !rest.starts_with(",\"proc\":\"") {
            continue;
        }
        let Some((_, rest)) = rest.split_once(",\"outcome\":\"") else {
            continue;
        };
        let Some((outcome, rest)) = rest.split_once('"') else {
            continue;
        };
        let candidate = rest
            .split_once(",\"not_candidate\":")
            .is_none_or(|(_, v)| v.starts_with("null"));
        let parallel = matches!(outcome, "parallel" | "parallel-if") && candidate;
        out.insert(label.to_string(), parallel);
    }
    out
}

/// Check one raw response: status 200, a Content-Length matching the
/// body, and every labeled verdict equal to its expectation. Returns
/// the body length.
fn validate(raw: &[u8], inp: &Input) -> Result<usize, String> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("incomplete response head")?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| "head is not UTF-8")?;
    let body = &raw[split + 4..];
    let status = head.split(' ').nth(1).unwrap_or("?");
    if status != "200" {
        return Err(format!("status {status}"));
    }
    let declared = content_length(head).ok_or("no Content-Length")?;
    if declared != body.len() {
        return Err(format!(
            "Content-Length {declared}, body {} bytes",
            body.len()
        ));
    }
    let got = verdicts(std::str::from_utf8(body).map_err(|_| "body is not UTF-8")?);
    let mut bad = Vec::new();
    for (label, want) in &inp.expect {
        match got.get(label) {
            None => bad.push(format!("loop {label} missing")),
            Some(p) if p != want => bad.push(format!(
                "loop {label} expected parallelized={want}, got {p}"
            )),
            Some(_) => {}
        }
    }
    if bad.is_empty() {
        Ok(body.len())
    } else {
        Err(bad.join("; "))
    }
}

/// One blocking request (closed loop); returns the body or the failure.
fn call(addr: SocketAddr, bytes: &[u8]) -> Result<Vec<u8>, String> {
    let mut s = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    s.write_all(bytes).map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    while !complete(&raw) {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(k) => raw.extend_from_slice(&buf[..k]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("read: {e}")),
        }
    }
    Ok(raw)
}

/// Whether `raw` holds a whole response: a head and as many body bytes
/// as its Content-Length declares. A response counts as answered at
/// that moment, before the daemon closes the connection.
fn complete(raw: &[u8]) -> bool {
    let Some(split) = raw.windows(4).position(|w| w == b"\r\n\r\n") else {
        return false;
    };
    content_length(&String::from_utf8_lossy(&raw[..split]))
        .is_some_and(|n| raw.len() - split - 4 >= n)
}

fn content_length(head: &str) -> Option<usize> {
    head.lines().find_map(|l| {
        let (k, v) = l.split_once(':')?;
        k.eq_ignore_ascii_case("content-length")
            .then(|| v.trim().parse().ok())?
    })
}

/// A request mix: programs drawn in seeded shuffled rounds, so each is
/// sent equally often, and every program's `k`-th request is an
/// `/explain` when `k + program` is a multiple of four. Over any four
/// rounds the mix is the same whatever the seed (3:1 analyze:explain,
/// each program explained once); the seed sets the order.
struct Mix {
    programs: Deck,
    sent: Vec<usize>,
}

impl Mix {
    fn new(programs: usize) -> Mix {
        Mix {
            programs: Deck::new(programs),
            sent: vec![0; programs],
        }
    }

    fn next(&mut self, rng: &mut Rng, id: u64, due: Duration) -> Planned {
        let program = self.programs.draw(rng);
        let k = self.sent[program];
        self.sent[program] += 1;
        Planned {
            id,
            program,
            explain: (k + program).is_multiple_of(4),
            due,
        }
    }
}

/// `rate * span` requests: seeded exponential gaps rescaled so the
/// schedule fills `span` exactly (a Poisson process conditioned on its
/// count).
fn schedule(
    rng: &mut Rng,
    mix: &mut Mix,
    rate: f64,
    span: Duration,
    first_id: u64,
) -> Vec<Planned> {
    let n = ((rate * span.as_secs_f64()).round() as usize).max(1);
    let gaps: Vec<f64> = (0..=n).map(|_| rng.exp_gap(1.0).as_secs_f64()).collect();
    let total: f64 = gaps.iter().sum();
    let mut at = 0.0;
    (0..n)
        .map(|i| {
            at += gaps[i];
            mix.next(rng, first_id + i as u64, span.mul_f64(at / total))
        })
        .collect()
}

#[repr(C)]
struct PollFd {
    fd: std::os::raw::c_int,
    events: std::os::raw::c_short,
    revents: std::os::raw::c_short,
}

extern "C" {
    fn poll(
        fds: *mut PollFd,
        nfds: std::os::raw::c_ulong,
        timeout: std::os::raw::c_int,
    ) -> std::os::raw::c_int;
}

const POLLIN: std::os::raw::c_short = 1;

/// Wait up to `timeout_ms` for any of `streams` to become readable;
/// returns which are.
fn readable(streams: &[&TcpStream], timeout_ms: i32) -> Vec<bool> {
    let mut fds: Vec<PollFd> = streams
        .iter()
        .map(|s| PollFd {
            fd: s.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // pollfd records laid out as the C struct, and every descriptor in it
    // belongs to a stream that outlives the call.
    let n = unsafe {
        poll(
            fds.as_mut_ptr(),
            fds.len() as std::os::raw::c_ulong,
            timeout_ms,
        )
    };
    if n <= 0 {
        return vec![false; fds.len()];
    }
    fds.iter().map(|f| f.revents != 0).collect()
}

/// A request on the wire: what was planned, when it was due and sent,
/// and the response bytes so far.
struct Open {
    plan: Planned,
    due: Instant,
    sent: Instant,
    stream: TcpStream,
    raw: Vec<u8>,
}

/// Send `plan` open-loop: one sender thread connects and writes each
/// request at its due time without waiting for replies; one reader
/// thread polls every open connection and timestamps each response as
/// it completes. Sending stops early (reported as `true`) when more
/// than `BACKLOG_CAP` requests are in flight.
fn open_loop(
    addr: SocketAddr,
    inputs: &[Input],
    plan: &[Planned],
    trace: Option<u64>,
) -> (Vec<Done>, bool) {
    let inflight = AtomicUsize::new(0);
    let overflow = AtomicBool::new(false);
    let (tx, rx) = mpsc::channel::<Result<Open, Done>>();
    let start = Instant::now();
    let mut done = std::thread::scope(|s| {
        s.spawn(|| {
            for p in plan {
                let due = start + p.due;
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                if inflight.load(Ordering::SeqCst) > BACKLOG_CAP {
                    overflow.store(true, Ordering::SeqCst);
                    break;
                }
                let tid = trace
                    .filter(|_| p.id % 2 == 1)
                    .map(|seed| trace_id(seed, p.id));
                let bytes = request_bytes(&inputs[p.program], p.explain, tid.as_deref());
                let sent = Instant::now();
                let stream = TcpStream::connect(addr).and_then(|mut st| {
                    st.set_nodelay(true)?;
                    st.write_all(&bytes)?;
                    st.set_nonblocking(true)?;
                    Ok(st)
                });
                inflight.fetch_add(1, Ordering::SeqCst);
                let msg = match stream {
                    Ok(stream) => Ok(Open {
                        plan: p.clone(),
                        due,
                        sent,
                        stream,
                        raw: Vec::new(),
                    }),
                    Err(e) => Err(Done {
                        plan: p.clone(),
                        due,
                        sent,
                        done: Instant::now(),
                        body_bytes: 0,
                        failure: Some(format!("send: {e}")),
                    }),
                };
                if tx.send(msg).is_err() {
                    break;
                }
            }
            drop(tx);
        });
        let mut open: Vec<Open> = Vec::new();
        let mut finished = Vec::new();
        let mut sending = true;
        let mut buf = vec![0u8; 64 * 1024];
        while sending || !open.is_empty() {
            loop {
                let next = if open.is_empty() && sending {
                    rx.recv().map_err(|_| mpsc::TryRecvError::Disconnected)
                } else {
                    rx.try_recv()
                };
                match next {
                    Ok(Ok(o)) => open.push(o),
                    Ok(Err(d)) => {
                        inflight.fetch_sub(1, Ordering::SeqCst);
                        finished.push(d);
                    }
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        sending = false;
                        break;
                    }
                }
            }
            // A short timeout picks up newly sent requests promptly; their
            // responses take far longer than it to arrive.
            let ready = readable(&open.iter().map(|o| &o.stream).collect::<Vec<_>>(), 1);
            for i in (0..open.len()).rev().filter(|&i| ready[i]) {
                let ended = loop {
                    match open[i].stream.read(&mut buf) {
                        Ok(0) => break Some(None),
                        Ok(k) => {
                            open[i].raw.extend_from_slice(&buf[..k]);
                            if complete(&open[i].raw) {
                                break Some(None);
                            }
                        }
                        Err(e) if e.kind() == ErrorKind::WouldBlock => break None,
                        Err(e) if e.kind() == ErrorKind::Interrupted => {}
                        Err(e) => break Some(Some(format!("read: {e}"))),
                    }
                };
                let Some(err) = ended else { continue };
                let now = Instant::now();
                let o = open.swap_remove(i);
                inflight.fetch_sub(1, Ordering::SeqCst);
                let checked = match err {
                    Some(e) => Err(e),
                    None => validate(&o.raw, &inputs[o.plan.program]),
                };
                let (body_bytes, failure) = match checked {
                    Ok(b) => (b, None),
                    Err(e) => (0, Some(e)),
                };
                finished.push(Done {
                    plan: o.plan,
                    due: o.due,
                    sent: o.sent,
                    done: now,
                    body_bytes,
                    failure,
                });
            }
        }
        finished
    });
    done.sort_by_key(|d| d.plan.id);
    (done, overflow.load(Ordering::SeqCst))
}

/// The running daemon and what the benchmark keeps of its set-up.
struct Daemon {
    server: Option<Server>,
    addr: SocketAddr,
    registry: Arc<MetricsRegistry>,
    inputs: Vec<Input>,
    /// This process's thread count before the daemon started.
    threads_before: usize,
}

impl Daemon {
    /// Drain the daemon, then wait (up to 2 s) until its threads have
    /// exited, so one set-up's threads are gone before the next starts.
    fn stop(&mut self) -> Option<String> {
        let report = self.server.take()?.shutdown();
        let deadline = Instant::now() + Duration::from_secs(2);
        while threads() > self.threads_before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        (!report.clean).then(|| format!("unclean drain: {report:?}"))
    }
}

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count())
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(e) = self.stop() {
            eprintln!("{e}");
        }
    }
}

/// What `/debug/requests` says about one request.
#[derive(Clone, Copy)]
struct Record {
    total_us: f64,
    /// Time under the request span spent in its child phases (parse,
    /// driver and below): the analysis proper.
    analyze_us: f64,
    /// Self time of the driver, summarize and loop phases.
    phase_self_us: [f64; 3],
}

fn num_after(s: &str, key: &str) -> Option<f64> {
    let rest = &s[s.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn phase_us(rec: &str, phase: &str, field: &str) -> f64 {
    rec.split_once(&format!("{{\"phase\":\"{phase}\""))
        .and_then(|(_, r)| num_after(&r[..r.find('}').unwrap_or(r.len())], field))
        .unwrap_or(0.0)
}

/// The daemon's request records, by trace id.
fn debug_records(addr: SocketAddr) -> HashMap<String, Record> {
    let req = b"GET /debug/requests HTTP/1.1\r\nHost: perfbench\r\nConnection: close\r\n\r\n";
    let raw = call(addr, req).unwrap_or_default();
    let body = String::from_utf8_lossy(&raw);
    let mut out = HashMap::new();
    for rec in body.split("{\"admission\":").skip(1) {
        let Some((id, _)) = rec
            .split_once("\"trace_id\":\"")
            .and_then(|(_, r)| r.split_once('"'))
        else {
            continue;
        };
        out.insert(
            id.to_string(),
            Record {
                total_us: num_after(rec, "\"total_us\":").unwrap_or(0.0),
                analyze_us: phase_us(rec, "request", "\"total_us\":")
                    - phase_us(rec, "request", "\"self_us\":"),
                phase_self_us: ["driver", "summarize", "loop"]
                    .map(|p| phase_us(rec, p, "\"self_us\":")),
            },
        );
    }
    out
}

fn start_daemon(sheet: &mut Sheet, traced: bool, work: &std::path::Path) -> Daemon {
    let inputs = corpus::inputs();
    let registry = MetricsRegistry::new();
    let policy = ServicePolicy {
        // The traced run keeps every request's record for the join.
        debug_ring: if traced {
            1 << 15
        } else {
            ServicePolicy::default().debug_ring
        },
        flight_dump_dir: Some(work.to_path_buf()),
        ..Default::default()
    };
    let deps = ServiceDeps {
        metrics: Arc::clone(&registry),
        git_rev: "perfbench".to_string(),
        ..Default::default()
    };
    let threads_before = threads();
    let server = Server::start("127.0.0.1:0", policy, deps).expect("start the daemon on loopback");
    let addr = server.addr();
    // Warm-up: every program once as an `/explain`, largest first, from
    // two clients, so the two largest requests run together.
    let mut by_size: Vec<usize> = (0..inputs.len()).collect();
    by_size.sort_by_key(|&p| std::cmp::Reverse(inputs[p].source.len()));
    let failures: Vec<String> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|half| {
                let (inputs, by_size) = (&inputs, &by_size);
                s.spawn(move || {
                    by_size[half..]
                        .iter()
                        .step_by(2)
                        .filter_map(|&p| {
                            let r = call(addr, &request_bytes(&inputs[p], true, None));
                            r.and_then(|raw| validate(&raw, &inputs[p]))
                                .err()
                                .map(|e| format!("{}: {e}", inputs[p].name))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("warm-up client"))
            .collect()
    });
    sheet.attempted += inputs.len() as u64;
    for f in failures {
        sheet.fail(format!("warm-up {f}"));
    }
    Daemon {
        server: Some(server),
        addr,
        registry,
        inputs,
        threads_before,
    }
}

fn query_ns(registry: &MetricsRegistry) -> [u64; 7] {
    let hist = registry.histograms_snapshot();
    corpus::KINDS.map(|k| {
        hist.get(&format!("latency.query.{k}"))
            .map_or(0, |h| h.sum_ns())
    })
}

/// One rate of the ladder and how the daemon held it.
struct Rung {
    rate: f64,
    /// The rate the generator actually sent at, from its send times.
    sent_rate: f64,
    p90: f64,
    pass: bool,
    n: usize,
}

impl Rung {
    fn new(rate: f64, done: &[&Done], cut: bool) -> Rung {
        let lat: Vec<f64> = done.iter().map(|d| d.latency_ms()).collect();
        Rung {
            rate,
            sent_rate: sent_rate(done.iter().copied()),
            p90: pct(&lat, 0.9),
            pass: !cut && done.iter().all(|d| d.failure.is_none()) && pct(&lat, 0.9) <= LIMIT_MS,
            n: done.len(),
        }
    }
}

/// Requests per second between the first and the last send.
fn sent_rate<'a>(done: impl Iterator<Item = &'a Done>) -> f64 {
    let sent: Vec<Instant> = done.map(|d| d.sent).collect();
    match (sent.iter().min(), sent.iter().max()) {
        (Some(a), Some(b)) if b > a => (sent.len() - 1) as f64 / (*b - *a).as_secs_f64(),
        _ => 0.0,
    }
}

/// The highest rate that held: the measured send rate of the highest
/// step that held (all requests correct, p90 under the limit, not cut
/// short by the backlog), or of the `high` phase when none did.
fn max_rate(rungs: &[Rung], high_rate: f64) -> (f64, String) {
    match rungs.iter().rfind(|r| r.pass) {
        Some(r) => (
            r.sent_rate,
            format!("the {:.1} rps rung, n={}", r.rate, r.n),
        ),
        None => (high_rate, format!("no rung held: the {HIGH_RPS} rps phase")),
    }
}

/// The ladder: one open-loop stream whose rate steps up every
/// `RUNG_REQUESTS` requests without draining in between, so a rate above
/// capacity shows as a backlog that keeps growing; sending stops once it
/// passes `BACKLOG_CAP`.
fn ladder(
    addr: SocketAddr,
    inputs: &[Input],
    rng: &mut Rng,
    mix: &mut Mix,
    next_id: &mut u64,
    scale: f64,
    trace: Option<u64>,
) -> (Vec<Rung>, Vec<Done>) {
    let mut plan = Vec::new();
    let mut steps = Vec::new();
    let (mut rate, mut offset) = (LADDER_START, Duration::ZERO);
    for _ in 0..LADDER_RUNGS {
        let span = Duration::from_secs_f64((RUNG_REQUESTS * scale).max(5.0) / rate);
        let mut step = schedule(rng, mix, rate, span, *next_id);
        for p in &mut step {
            p.due += offset;
        }
        *next_id += step.len() as u64;
        offset += span;
        steps.push((rate, step.first().map_or(*next_id, |p| p.id)..*next_id));
        plan.extend(step);
        rate *= LADDER_STEP;
    }
    let (done, overflow) = open_loop(addr, inputs, &plan, trace);
    let rungs = steps
        .into_iter()
        .map(|(rate, ids)| {
            let planned = ids.end - ids.start;
            let step: Vec<&Done> = done.iter().filter(|d| ids.contains(&d.plan.id)).collect();
            // The step the sender stopped in is cut short: it failed.
            let cut = overflow && (step.len() as u64) < planned;
            Rung::new(rate, &step, cut)
        })
        .take_while(|r| r.n > 0)
        .collect();
    (rungs, done)
}

pub fn serve_open(args: &Args, sheet: &mut Sheet) {
    let work = util::work_dir(&format!("serve-open-{}", std::process::id()));
    let mut daemon = timed_setup(sheet, |sheet| start_daemon(sheet, args.trace, &work));
    let log = if args.trace {
        traced_run(args, sheet, &daemon)
    } else {
        timed_run(args, sheet, &daemon)
    };
    for d in &log {
        sheet.attempted += 1;
        if let Some(f) = &d.failure {
            sheet.fail(format!(
                "request {} ({}): {f}",
                d.plan.id, daemon.inputs[d.plan.program].name
            ));
        }
    }
    if let Some(e) = daemon.stop() {
        sheet.fail(e);
    }
    let _ = std::fs::remove_dir_all(&work);
}

/// The timed run: one client sends the mix closed-loop, each request
/// after the previous reply, in whole mixes (`4 × 30` requests: every
/// program four times, once as an `/explain`). A request's on-CPU cost
/// is the process's CPU time from send to reply: the daemon's acceptor
/// and worker plus the client's connect, write and read. The client runs
/// the calibration kernel just before each request.
fn timed_run(args: &Args, sheet: &mut Sheet, daemon: &Daemon) -> Vec<Done> {
    let (addr, inputs) = (daemon.addr, &daemon.inputs);
    let mix_len = 4 * inputs.len();
    let mut rng = Rng::new(args.seed);
    let mut mix = Mix::new(inputs.len());
    let (mut log, mut cal_ms, mut references) = (Vec::new(), Vec::new(), Vec::new());
    let (t0, cpu0) = (Instant::now(), process_cpu());
    let deadline = t0 + Duration::from_secs(args.seconds);
    while Instant::now() < deadline || !log.len().is_multiple_of(mix_len) {
        let plan = mix.next(&mut rng, log.len() as u64, Duration::ZERO);
        let inp = &inputs[plan.program];
        let bytes = request_bytes(inp, plan.explain, None);
        let reference = util::calibrate();
        let (sent, c0) = (Instant::now(), process_cpu());
        let raw = call(addr, &bytes);
        let done = Instant::now();
        let cpu = ms(process_cpu() - c0);
        let input = 2 * plan.program + usize::from(plan.explain);
        cal_ms.push((input, util::calibrated(cpu, reference)));
        references.push(reference);
        let (body_bytes, failure) = match raw.and_then(|raw| validate(&raw, inp)) {
            Ok(b) => (b, None),
            Err(e) => (0, Some(e)),
        };
        log.push(Done {
            plan,
            due: sent,
            sent,
            done,
            body_bytes,
            failure,
        });
    }
    let (elapsed, cpu) = (t0.elapsed(), process_cpu() - cpu0);
    let k = log.len();
    let what = "requests, closed loop, 1 client";
    corpus::op_cpu_e2e(sheet, &cal_ms, &references, what);
    let note = "on-CPU, uncalibrated, client and daemon";
    let calibration: f64 = references.iter().sum();
    sheet.info(
        "cpu_ms_per_op",
        (ms(cpu) - calibration) / k as f64,
        "ms",
        note,
    );
    let wall: Vec<f64> = log.iter().map(Done::latency_ms).collect();
    let rate = k as f64 / elapsed.as_secs_f64();
    sheet.info("requests_per_s", rate, "1/s", "closed loop, 1 client");
    corpus::wall_pcts(
        sheet,
        "request_ms",
        &wall,
        "requests, closed loop, 1 client",
    );
    log
}

/// The traced run: closed-loop requests and open-loop blocks at the two
/// fixed rates alternate over `ROUNDS` rounds, then the ladder; the
/// service figures join the traced requests with the daemon's records.
fn traced_run(args: &Args, sheet: &mut Sheet, daemon: &Daemon) -> Vec<Done> {
    let (addr, inputs) = (daemon.addr, &daemon.inputs);
    let n = inputs.len();
    let mut rng = Rng::new(args.seed);
    // Each figure draws from its own mix, so each sees the same balanced
    // set of requests whatever the seed.
    let (mut mix, mut low_mix, mut high_mix, mut ladder_mix) =
        (Mix::new(n), Mix::new(n), Mix::new(n), Mix::new(n));
    let tracer = Tracer::new(true);
    let mut log: Vec<Done> = Vec::new();
    let (mut low, mut high) = (Vec::new(), Vec::new());
    let (mut query_ns_delta, mut probe_events) = ([0u64; 7], 0);
    let mut high_rate = 0.0;
    let mut next_id = 0u64;
    let trace = Some(args.seed);
    // Request counts scale with the run length; 30 s is the design point.
    let scale = args.seconds as f64 / 30.0;
    let per_round = PHASE_REQUESTS * scale / ROUNDS as f64;
    for _ in 0..ROUNDS {
        let q0 = query_ns(&daemon.registry);
        let wm = flight::watermark();
        for _ in 0..PASSES * n / ROUNDS {
            let plan = mix.next(&mut rng, next_id, Duration::ZERO);
            next_id += 1;
            let inp = &inputs[plan.program];
            let sent = Instant::now();
            let out = call(addr, &request_bytes(inp, plan.explain, None))
                .and_then(|raw| validate(&raw, inp));
            let (body_bytes, failure) = match out {
                Ok(b) => (b, None),
                Err(e) => (0, Some(e)),
            };
            log.push(Done {
                plan,
                due: sent,
                sent,
                done: Instant::now(),
                body_bytes,
                failure,
            });
        }
        probe_events += flight::watermark() - wm;
        for (d, (a, b)) in query_ns_delta
            .iter_mut()
            .zip(q0.iter().zip(query_ns(&daemon.registry)))
        {
            *d += b - a;
        }
        let mut block = |rate: f64, mix: &mut Mix| {
            let span = Duration::from_secs_f64(per_round / rate);
            let plan = schedule(&mut rng, mix, rate, span, next_id);
            next_id += plan.len() as u64;
            open_loop(addr, inputs, &plan, trace).0
        };
        low.extend(block(LOW_RPS, &mut low_mix));
        let b = block(HIGH_RPS, &mut high_mix);
        high_rate += sent_rate(b.iter()) / ROUNDS as f64;
        high.extend(b);
    }
    let closed = log.len();
    let (rungs, done) = ladder(
        addr,
        inputs,
        &mut rng,
        &mut ladder_mix,
        &mut next_id,
        scale,
        trace,
    );
    log.extend(done);

    let ladder: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!(
                "{:.1} rps: p90 {:.0} ms, n={}{}",
                r.rate,
                r.p90,
                r.n,
                if r.pass { "" } else { " (fails)" }
            )
        })
        .collect();
    println!("ladder, limit p90 <= {LIMIT_MS} ms: {}", ladder.join("; "));
    let (max_rate, max_note) = max_rate(&rungs, high_rate);
    sheet.layer("service.max_rate_rps", max_rate, "1/s", max_note);
    let lat = |d: &[Done]| d.iter().map(Done::latency_ms).collect::<Vec<f64>>();
    let (l, h) = (lat(&low), lat(&high));
    for (name, v, r, q) in [
        ("service.request_ms_p50.low", &l, LOW_RPS, 0.5),
        ("service.request_ms_p90.low", &l, LOW_RPS, 0.9),
        ("service.request_ms_p50.high", &h, HIGH_RPS, 0.5),
        ("service.request_ms_p90.high", &h, HIGH_RPS, 0.9),
    ] {
        let note = format!("n={} at {r} rps, from due time", v.len());
        sheet.layer(name, pct(v, q), "ms", note);
    }

    let records = debug_records(addr);
    traced_layers(sheet, args, &records, &low, &high);
    for (k, ns) in corpus::KINDS.iter().zip(query_ns_delta) {
        let v = ns as f64 / 1e6 / (closed / n) as f64;
        let note = format!("per closed-loop pass of {n} requests, daemon registry");
        sheet.layer(&format!("session.{k}.query_ms"), v, "ms", note);
    }
    let per_op = probe_events as f64 / closed as f64;
    sheet.layer(
        "flight.events_per_op",
        per_op,
        "count",
        "closed-loop requests",
    );
    log.extend(low);
    log.extend(high);
    // Spans: each request, with the daemon's handling time as its child
    // (placed to end at completion), so the request's self time is its
    // wait outside the handler.
    for d in &log {
        let span = tracer.record("request", d.plan.id, None, d.sent, d.done);
        if let Some(r) = records.get(&trace_id(args.seed, d.plan.id)) {
            let handle = Duration::from_secs_f64(r.total_us / 1e6);
            let start = d.done.checked_sub(handle).unwrap_or(d.sent);
            tracer.record("service.handle", d.plan.id, span, start, d.done);
        }
    }
    crate::write_spans(args, &tracer);
    log
}

/// The service layer's figures from the traced requests (odd ids carry
/// a trace id), joined with the daemon's records.
fn traced_layers(
    sheet: &mut Sheet,
    args: &Args,
    records: &HashMap<String, Record>,
    low: &[Done],
    high: &[Done],
) {
    let joined = |d: &[Done]| -> Vec<(f64, f64, Record)> {
        d.iter()
            .filter(|x| x.plan.id % 2 == 1 && x.failure.is_none())
            .filter_map(|x| {
                records
                    .get(&trace_id(args.seed, x.plan.id))
                    .map(|r| (ms(x.done - x.sent), x.body_bytes as f64, *r))
            })
            .collect()
    };
    let (tl, th) = (joined(low), joined(high));
    let (nl, nh) = (tl.len(), th.len());
    let wait: Vec<f64> = th.iter().map(|(c, _, r)| c - r.total_us / 1e3).collect();
    let handle: Vec<f64> = tl.iter().map(|(_, _, r)| r.total_us / 1e3).collect();
    let analyze: Vec<f64> = tl.iter().map(|(_, _, r)| r.analyze_us / 1e3).collect();
    let render: Vec<f64> = tl
        .iter()
        .map(|(_, _, r)| (r.total_us - r.analyze_us) / 1e3)
        .collect();
    let kb: Vec<f64> = tl.iter().map(|(_, b, _)| b / 1024.0).collect();
    let at_high = format!("n={nh} traced requests at {HIGH_RPS} rps");
    let at_low = format!("n={nl} traced requests at {LOW_RPS} rps");
    sheet.layer(
        "service.wait_ms_p50",
        pct(&wait, 0.5),
        "ms",
        at_high.clone(),
    );
    sheet.layer("service.wait_ms_p90", pct(&wait, 0.9), "ms", at_high);
    sheet.layer(
        "service.handle_ms_p50",
        pct(&handle, 0.5),
        "ms",
        at_low.clone(),
    );
    sheet.layer(
        "service.handle_ms_p90",
        pct(&handle, 0.9),
        "ms",
        at_low.clone(),
    );
    sheet.layer(
        "service.analyze_ms_p50",
        pct(&analyze, 0.5),
        "ms",
        at_low.clone(),
    );
    sheet.layer(
        "service.render_ms_p50",
        pct(&render, 0.5),
        "ms",
        format!("{at_low}, handle minus analyze"),
    );
    sheet.layer(
        "service.response_kb_p50",
        pct(&kb, 0.5),
        "KiB",
        at_low.clone(),
    );
    for (i, name) in [
        "flight.driver.self_ms",
        "flight.summarize.self_ms",
        "flight.loop.self_ms",
    ]
    .into_iter()
    .enumerate()
    {
        let v: Vec<f64> = tl
            .iter()
            .map(|(_, _, r)| r.phase_self_us[i] / 1e3)
            .collect();
        sheet.layer(
            name,
            mean(&v),
            "ms",
            format!("per request, daemon side, {at_low}"),
        );
    }
    let lag: Vec<f64> = low.iter().chain(high).map(|d| ms(d.sent - d.due)).collect();
    sheet.layer(
        "loadgen.lag_ms_p90",
        pct(&lag, 0.9),
        "ms",
        format!("n={}", lag.len()),
    );
    // Untraced (even ids) against traced (odd ids) at the fixed rates.
    let split = |odd: bool| -> Vec<f64> {
        low.iter()
            .chain(high)
            .filter(|d| (d.plan.id % 2 == 1) == odd)
            .map(Done::latency_ms)
            .collect()
    };
    corpus::overhead(
        sheet,
        &split(false),
        &split(true),
        "request latency at the fixed rates",
    );
}
