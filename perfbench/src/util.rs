//! Shared pieces: the seeded generator, percentiles, process counters,
//! the span recorder and the metric sheet every workload fills.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// splitmix64: the benchmark's only source of randomness, so one seed
/// fixes every choice a workload makes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }

    /// Exponential gap for a Poisson process of `rate` per second.
    pub fn exp_gap(&mut self, rate: f64) -> Duration {
        Duration::from_secs_f64(-(1.0 - self.unit()).ln() / rate)
    }
}

/// Draws from `0..n` in seeded shuffled rounds, so every value comes up
/// equally often and a seed changes only the order.
pub struct Deck {
    order: Vec<usize>,
    pos: usize,
}

impl Deck {
    pub fn new(n: usize) -> Deck {
        Deck {
            order: (0..n).collect(),
            pos: n,
        }
    }

    pub fn draw(&mut self, rng: &mut Rng) -> usize {
        if self.pos == self.order.len() {
            rng.shuffle(&mut self.order);
            self.pos = 0;
        }
        self.pos += 1;
        self.order[self.pos - 1]
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile of `q` in (0, 1]; 0 for an empty sample.
pub fn pct(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    pct(values, 0.5)
}

/// Half-width of the rank band a smoothed percentile averages over.
const BAND: f64 = 0.05;

/// Smoothed percentile: the mean of the values ranked within `BAND` of
/// `q` (the 45th to 55th percentile for `q` = 0.5). Where the values
/// come in clusters, as the costs of a fixed mix of inputs do, the
/// nearest rank can sit in a gap between two clusters and jump from one
/// to the other between runs; the band mean moves smoothly.
pub fn band_pct(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len() as f64;
    let lo = ((q - BAND) * n).floor().max(0.0) as usize;
    let hi = (((q + BAND) * n).ceil() as usize).clamp(lo + 1, v.len());
    mean(&v[lo.min(v.len() - 1)..hi])
}

/// Smoothed percentile ([`band_pct`]) of a run over a fixed mix of
/// inputs, where `samples` are (input, value) pairs and each input
/// recurs. Each sample counts as the median of its input's samples, so
/// the percentile reads the typical cost of the inputs at that rank
/// rather than their most extreme repeats.
pub fn mix_pct(samples: &[(usize, f64)], q: f64) -> f64 {
    band_pct(&typical(samples), q)
}

/// Mean of a run over a fixed mix of inputs, each sample counted as the
/// median of its input's samples (as [`mix_pct`]).
pub fn mix_mean(samples: &[(usize, f64)]) -> f64 {
    mean(&typical(samples))
}

fn typical(samples: &[(usize, f64)]) -> Vec<f64> {
    let mut by_input: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(input, v) in samples {
        by_input.entry(input).or_default().push(v);
    }
    let medians: BTreeMap<usize, f64> = by_input
        .into_iter()
        .map(|(input, v)| (input, median(&v)))
        .collect();
    samples.iter().map(|(input, _)| medians[input]).collect()
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

/// Linux's `CLOCK_PROCESS_CPUTIME_ID` and `CLOCK_THREAD_CPUTIME_ID`.
const PROCESS_CLOCK: std::os::raw::c_int = 2;
const THREAD_CLOCK: std::os::raw::c_int = 3;

fn cpu_clock(clock: std::os::raw::c_int) -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, exclusively borrowed timespec laid out as
    // the C struct, and `clock` is a clock id Linux always provides.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// On-CPU time (user + system, nanosecond resolution) of every thread of
/// this process. The kernel leaves out time the hypervisor took the
/// virtual CPU away (steal) and time spent waiting to run, so on a
/// shared host it measures the work done, not the neighbours.
pub fn process_cpu() -> Duration {
    cpu_clock(PROCESS_CLOCK)
}

/// On-CPU time of the calling thread, as [`process_cpu`].
pub fn thread_cpu() -> Duration {
    cpu_clock(THREAD_CLOCK)
}

/// On-CPU ms the calibration kernel takes at the reference speed: its
/// median on an otherwise idle 2-vCPU KVM guest (Xeon, 2.1 GHz).
pub const REFERENCE_MS: f64 = 2.5;

/// Run the calibration kernel on the calling thread and return its
/// on-CPU ms. The kernel is fixed work of the kind the analysis does
/// (hash-map updates over a working set of about a megabyte, small
/// allocations, a sort) and shares no code with the system under test,
/// so a change to the system leaves it alone while the host's speed at
/// that moment (neighbours contending for caches, memory and cores)
/// moves it as it moves the op run right after it.
pub fn calibrate() -> f64 {
    let c0 = thread_cpu();
    let mut rng = Rng::new(42);
    let mut map = std::collections::HashMap::new();
    let mut acc = 0u64;
    for i in 0..20_000u64 {
        let k = rng.next_u64() % 50_000;
        *map.entry(k).or_insert(0u64) += i;
        let v: Vec<u64> = (0..k % 8).map(|j| j ^ k).collect();
        acc = acc.wrapping_add(v.iter().sum::<u64>());
    }
    let mut keys: Vec<u64> = map.into_keys().collect();
    keys.sort_unstable();
    std::hint::black_box(acc ^ keys.iter().fold(0, |a: u64, k| a.rotate_left(5) ^ k));
    ms(thread_cpu() - c0)
}

/// `cpu_ms` of an op scaled to the reference speed, given the
/// calibration kernel's `reference_ms` measured just before the op on
/// the same thread.
pub fn calibrated(cpu_ms: f64, reference_ms: f64) -> f64 {
    cpu_ms * REFERENCE_MS / reference_ms
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn lanes() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Scratch space under the current directory: `.perfbench-work/<name>`.
pub fn work_dir(name: &str) -> PathBuf {
    let dir = Path::new(".perfbench-work").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cannot create .perfbench-work in the current directory");
    dir
}

pub fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("create directory");
    for entry in std::fs::read_dir(from).expect("read directory") {
        let entry = entry.expect("directory entry");
        let target = to.join(entry.file_name());
        if entry.file_type().expect("file type").is_dir() {
            copy_dir(&entry.path(), &target);
        } else {
            std::fs::copy(entry.path(), target).expect("copy file");
        }
    }
}

pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| match e.metadata() {
                    Ok(m) if m.is_dir() => dir_bytes(&e.path()),
                    Ok(m) => m.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

/// One recorded span: a call from the benchmark into a layer.
pub struct Span {
    pub name: &'static str,
    pub op: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder. Disarmed, `start`/`end` do nothing, so the
/// timed runs pay one branch per call.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn start(&self, name: &'static str, op: u64, parent: Option<usize>) -> Option<usize> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            op,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(spans.len() - 1)
    }

    pub fn end(&self, id: Option<usize>) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            self.spans.lock().expect("span list poisoned")[id].end_ns = end_ns;
        }
    }

    /// Record a span whose interval was measured elsewhere (client-side
    /// request timing), as an offset from the recorder's epoch.
    pub fn record(
        &self,
        name: &'static str,
        op: u64,
        parent: Option<usize>,
        from: Instant,
        to: Instant,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let mut spans = self.spans.lock().expect("span list poisoned");
        spans.push(Span {
            name,
            op,
            parent,
            start_ns: at(from),
            end_ns: at(to),
        });
        Some(spans.len() - 1)
    }

    /// Per span name: (count, total ms, self ms), where self time is the
    /// span minus the part of it its child spans cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += dur as f64 / 1e6;
            e.2 += dur.saturating_sub(child_ns[i]) as f64 / 1e6;
        }
        out
    }

    /// Total ms of every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.self_times().get(name).map_or(0.0, |t| t.1)
    }

    /// Write every span as one JSON array.
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span list poisoned");
        let mut out = String::from("[\n");
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"op\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}{}\n",
                s.name,
                s.op,
                s.start_ns,
                s.end_ns,
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]\n");
        std::fs::write(path, out)
    }
}

/// The metrics one run reports: end-to-end figures from the timed part,
/// per-layer figures from the traced part. Each entry is (value, unit,
/// note); the note carries sample counts for the human-readable table.
#[derive(Default)]
pub struct Sheet {
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<String, (f64, String, String)>,
    pub per_layer: BTreeMap<String, (f64, String, String)>,
    /// Figures of the timed run that move with the host's load (wall
    /// clock, uncalibrated CPU time): printed in the table, not reported
    /// as metrics (see `perfbench/README.md`, "Why calibrated CPU time").
    pub info: BTreeMap<String, (f64, String, String)>,
    /// Every failed op, as one line each.
    pub failures: Vec<String>,
}

impl Sheet {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &str, note: impl Into<String>) {
        self.end_to_end
            .insert(name.to_string(), (value, unit.to_string(), note.into()));
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &str, note: impl Into<String>) {
        self.per_layer
            .insert(name.to_string(), (value, unit.to_string(), note.into()));
    }

    pub fn info(&mut self, name: &str, value: f64, unit: &str, note: impl Into<String>) {
        self.info
            .insert(name.to_string(), (value, unit.to_string(), note.into()));
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}
