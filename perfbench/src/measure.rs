//! Measurement plumbing shared by the workloads: the seeded shuffle,
//! process CPU/RSS/allocation probes, percentiles, the metric list and
//! the in-memory span recorder of the traced run.

use diaframe_core::fuzz::FuzzRng;
use diaframe_core::CounterSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Allocation calls made by the whole process (every thread, the
/// in-process daemon included). Counted by the benchmark's own
/// `#[global_allocator]` in `main.rs`.
pub static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes requested by those allocation calls.
pub static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// Fisher-Yates shuffle of `items`. The seed only permutes and draws
/// the inputs; the program sees the generated requests.
pub fn shuffle<T>(rng: &mut FuzzRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s followed by fourteen `long` counters.
#[repr(C)]
struct Rusage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

fn rusage() -> Rusage {
    let mut usage = Rusage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` of the size and
    // layout the C library expects, and `RUSAGE_SELF` (0) is a valid
    // `who`; the call writes only into it.
    let rc = unsafe { getrusage(0, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
    );
    usage
}

/// Process user + system CPU time (all threads).
pub fn cpu_time() -> Duration {
    let u = rusage();
    let micros = (u.utime[0] + u.stime[0]) * 1_000_000 + u.utime[1] + u.stime[1];
    Duration::from_micros(u64::try_from(micros).expect("CPU time is non-negative"))
}

/// Peak resident set size of the process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    rusage().maxrss as f64 * 1024.0 / 1e6
}

/// Allocation calls the process has made so far.
pub fn alloc_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// A point in time with the process's CPU and allocation totals.
#[derive(Clone, Copy)]
pub struct Probe {
    wall: Instant,
    cpu: Duration,
    allocs: u64,
    alloc_bytes: u64,
}

/// What happened between two probes.
#[derive(Clone, Copy, Default)]
pub struct Delta {
    pub wall: Duration,
    pub cpu: Duration,
    pub allocs: u64,
    pub alloc_bytes: u64,
}

impl Probe {
    pub fn now() -> Probe {
        Probe {
            cpu: cpu_time(),
            allocs: alloc_count(),
            alloc_bytes: ALLOC_BYTES.load(Ordering::Relaxed),
            wall: Instant::now(),
        }
    }

    pub fn elapsed(&self) -> Delta {
        let now = Probe::now();
        Delta {
            wall: now.wall - self.wall,
            cpu: now.cpu.saturating_sub(self.cpu),
            allocs: now.allocs - self.allocs,
            alloc_bytes: now.alloc_bytes - self.alloc_bytes,
        }
    }
}

/// Nearest-rank percentile of sorted samples (`q` in 0..=100), the
/// convention the engine's own span statistics use.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((q / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no values");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One measured pass (or daemon round): its op count and resources.
pub struct Pass {
    pub ops: u64,
    pub delta: Delta,
    /// Whether the traced run's shadow calls ran inside it.
    pub traced: bool,
}

/// Everything the timed phase of a run produces.
#[derive(Default)]
pub struct Phase {
    /// Per-op latency, nanoseconds.
    pub latencies_ns: Vec<f64>,
    pub passes: Vec<Pass>,
    pub attempted: u64,
    pub failed: u64,
}

impl Phase {
    /// The fewest latency samples a run takes, so that its p99 has at
    /// least ten samples beyond it.
    pub const MIN_SAMPLES: usize = 1000;

    /// Whether the timed phase is over: the requested seconds have
    /// passed and there are enough samples for the p99.
    pub fn done(&self, start: Instant, seconds: u64) -> bool {
        start.elapsed() >= Duration::from_secs(seconds)
            && self.latencies_ns.len() >= Self::MIN_SAMPLES
    }

    pub fn record(&mut self, latency: Duration, ok: bool) {
        self.latencies_ns.push(latency.as_nanos() as f64);
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// The end-to-end metrics every workload reports. Throughput and
    /// CPU per op are totals over the whole timed phase: the host's
    /// speed switches between two levels every few seconds, and a
    /// median over passes would jump between them.
    pub fn end_to_end(&self, setup_s: &[f64], store_bytes: u64) -> Metrics {
        let mut lat = self.latencies_ns.clone();
        lat.sort_by(f64::total_cmp);
        let ops: u64 = self.passes.iter().map(|p| p.ops).sum();
        let wall: f64 = self.passes.iter().map(|p| p.delta.wall.as_secs_f64()).sum();
        let cpu: f64 = self.passes.iter().map(|p| p.delta.cpu.as_secs_f64()).sum();
        let mut m = Metrics::default();
        m.set("setup_s", median(setup_s), "s");
        m.set("ops_per_s", ops as f64 / wall, "1/s");
        m.set("latency_p50_ms", percentile(&lat, 50.0) / 1e6, "ms");
        m.set("latency_p99_ms", percentile(&lat, 99.0) / 1e6, "ms");
        m.set("cpu_ms_per_op", cpu * 1e3 / ops as f64, "ms");
        m.set("peak_rss_mb", peak_rss_mb(), "MB");
        m.set("store_mb", store_bytes as f64 / 1e6, "MB");
        m
    }

    /// Allocation totals per op over the untraced passes.
    pub fn alloc_metrics(&self, m: &mut Metrics) {
        let plain = || self.passes.iter().filter(|p| !p.traced);
        let ops: u64 = plain().map(|p| p.ops).sum();
        let allocs: u64 = plain().map(|p| p.delta.allocs).sum();
        let bytes: u64 = plain().map(|p| p.delta.alloc_bytes).sum();
        m.set(
            "alloc.count_per_op",
            ratio(allocs as f64, ops as f64),
            "count",
        );
        m.set(
            "alloc.mb_per_op",
            ratio(bytes as f64, ops as f64) / 1e6,
            "MB",
        );
    }
}

/// Named metrics with units, in name order.
#[derive(Default)]
pub struct Metrics(pub BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name.to_owned(), (value, unit));
    }

    pub fn json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, (value, unit))) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// The per-layer metrics derived from the engine's own counters,
/// summed over `ops` ops.
pub fn counter_metrics(m: &mut Metrics, c: &CounterSnapshot, ops: f64) {
    let f = |v: u64| v as f64;
    m.set("search.probes_per_op", f(c.probes_attempted) / ops, "count");
    m.set(
        "search.probe_match_ratio",
        ratio(f(c.probes_matched), f(c.probes_indexed_hit)),
        "ratio",
    );
    m.set(
        "search.index_skip_ratio",
        ratio(f(c.probes_skipped), f(c.probes_attempted)),
        "ratio",
    );
    m.set("search.backtracks_per_op", f(c.backtracks) / ops, "count");
    m.set(
        "search.evar_solves_per_op",
        f(c.evar_solve_events) / ops,
        "count",
    );
    m.set("checker.steps_per_op", f(c.checker_steps) / ops, "count");
    m.set(
        "intern.hit_ratio",
        ratio(f(c.interner_hits), f(c.interner_hits + c.interner_misses)),
        "ratio",
    );
    m.set("zonk.hits_per_op", f(c.zonk_cache_hits) / ops, "count");
    let queries = c.solver_verdict_hits + c.solver_verdict_misses;
    m.set("solver.queries_per_op", f(queries) / ops, "count");
    m.set(
        "solver.rebuild_share",
        ratio(
            f(c.solver_queries_rebuild),
            f(c.solver_queries_incremental + c.solver_queries_rebuild),
        ),
        "ratio",
    );
    m.set(
        "solver.memo_hit_ratio",
        ratio(f(c.solver_verdict_hits), f(queries)),
        "ratio",
    );
    m.set(
        "solver.undo_ops_per_op",
        f(c.solver_undo_ops) / ops,
        "count",
    );
}

/// Sum of the sizes of the store's entry files: the store's bytes on
/// disk, without the index (whose LRU clock grows with the number of
/// hits served).
pub fn store_bytes(root: &Path) -> u64 {
    let Ok(dir) = std::fs::read_dir(root.join("objects")) else {
        return 0;
    };
    dir.filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// The host-drift diagnostic: a fixed integer loop that calls no code
/// of the repository, timed five times; the median in milliseconds.
/// Reported with every run and never divided into another metric.
pub fn host_calib_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut x = std::hint::black_box(0x2545_F491_4F6C_DD1Du64);
            for _ in 0..4_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&times)
}

/// One span of the traced run: a timed call into a layer, made by the
/// benchmark (`measured`), or a duration the engine returned with a
/// call's result (`reported`, placed at its parent's start).
struct Span {
    op: u64,
    parent: Option<u32>,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    reported: bool,
}

/// The root span of one traced op.
pub struct Op {
    op: u64,
    id: Option<u32>,
    start: Instant,
}

/// The traced run's spans, kept in memory and written when the run
/// ends. At most [`Spans::CAP`] are kept; the rest are counted, and the
/// metrics still cover every traced op.
pub struct Spans {
    base: Instant,
    spans: Mutex<Vec<Span>>,
    dropped: AtomicU64,
}

impl Spans {
    pub const CAP: usize = 60_000;

    pub fn new() -> Spans {
        Spans {
            base: Instant::now(),
            spans: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        (t - self.base).as_nanos() as u64
    }

    fn push(
        &self,
        op: u64,
        parent: Option<u32>,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        reported: bool,
    ) -> Option<u32> {
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        if spans.len() >= Self::CAP {
            self.dropped.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        spans.push(Span {
            op,
            parent,
            name,
            start_ns,
            end_ns,
            reported,
        });
        Some(u32::try_from(spans.len() - 1).expect("CAP fits in u32"))
    }

    /// Opens the root span of op number `op` when the pass is traced.
    pub fn begin(&self, op: u64, traced: bool) -> Option<Op> {
        traced.then(|| {
            let start = Instant::now();
            let s = self.ns(start);
            Op {
                op,
                id: self.push(op, None, "op", s, s, false),
                start,
            }
        })
    }

    /// Closes an op's root span and returns its length.
    pub fn end(&self, op: Op) -> Duration {
        let end = Instant::now();
        if let Some(id) = op.id {
            self.spans.lock().expect("span recorder poisoned")[id as usize].end_ns = self.ns(end);
        }
        end - op.start
    }

    /// Records a measured call of `op` that ran from `start` to `end`.
    pub fn measured(
        &self,
        op: &Op,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> Option<u32> {
        self.push(op.op, op.id, name, self.ns(start), self.ns(end), false)
    }

    /// Records a duration the engine reported for the call `parent`.
    pub fn reported(
        &self,
        op: &Op,
        parent: Option<u32>,
        name: &'static str,
        start: Instant,
        dur: Duration,
    ) {
        let s = self.ns(start);
        self.push(op.op, parent, name, s, s + dur.as_nanos() as u64, true);
    }

    /// Times `f` as a measured call of `op`.
    pub fn time<T>(&self, op: &Op, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let t0 = Instant::now();
        let out = f();
        let t1 = Instant::now();
        self.measured(op, name, t0, t1);
        (out, t1 - t0)
    }

    /// Writes every kept span as one JSON line, then the `extra` lines
    /// and the count of spans past the cap.
    pub fn write(&self, path: &Path, extra: &[String]) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span recorder poisoned");
        let mut out = String::new();
        for (id, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"span\":{id},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"reported\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns, s.reported
            );
        }
        for line in extra {
            out.push_str(line);
            out.push('\n');
        }
        let _ = writeln!(
            out,
            "{{\"dropped_spans\":{}}}",
            self.dropped.load(Ordering::Relaxed)
        );
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}
