//! The repository benchmark: three seeded, closed-loop workloads driven
//! through the public API of `diaframe-bench` and `diaframe-core`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cold-verify|store-restart|daemon-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. The last line of standard output is
//! one JSON object: `correct`, `attempted`, `failed` and `metrics`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! they are the per-layer ones, and the run's spans are written to
//! `perfbench/out/trace-<workload>-seed<N>.jsonl`. See
//! `perfbench/README.md` for every metric and why each workload exists.

mod cold;
mod daemon;
mod measure;
mod oracle;
mod restart;

use measure::{Metrics, ALLOCS, ALLOC_BYTES};
use std::alloc::{GlobalAlloc, Layout, System};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;

/// The system allocator, counting calls and requested bytes.
struct Counting;

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over unchanged; the
// counters are relaxed atomics that publish no other data.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded from the caller, who upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        // SAFETY: forwarded from the caller, who upholds `alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        // SAFETY: forwarded from the caller, who upholds `realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded from the caller, who upholds `dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The command line, checked.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Scratch directory of this run (stores, sockets); removed at exit.
    pub work: PathBuf,
}

/// What a workload hands back for printing.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Metrics,
}

/// The per-layer metrics every traced run prints, with their units. A
/// layer that a workload does not exercise reads 0 there (README.md
/// lists which layers each workload reaches).
const PER_LAYER: &[(&str, &str)] = &[
    ("parser.ms_per_op", "ms"),
    ("search.ms_per_op", "ms"),
    ("search.self_ms_per_op", "ms"),
    ("search.probes_per_op", "count"),
    ("search.probe_match_ratio", "ratio"),
    ("search.index_skip_ratio", "ratio"),
    ("search.backtracks_per_op", "count"),
    ("search.evar_solves_per_op", "count"),
    ("search.find_hint_ms_per_op", "ms"),
    ("intern.hit_ratio", "ratio"),
    ("zonk.hits_per_op", "count"),
    ("solver.queries_per_op", "count"),
    ("solver.rebuild_share", "ratio"),
    ("solver.memo_hit_ratio", "ratio"),
    ("solver.undo_ops_per_op", "count"),
    ("checker.ms_per_op", "ms"),
    ("checker.steps_per_op", "count"),
    ("checker.us_per_step", "us"),
    ("checker.overlap_share", "ratio"),
    ("codec.encode_ms_per_op", "ms"),
    ("codec.decode_ms_per_op", "ms"),
    ("codec.bundle_kb_per_op", "kB"),
    ("fingerprint.us_per_op", "us"),
    ("store.open_ms", "ms"),
    ("store.hit_ms_per_op", "ms"),
    ("store.io_self_ms_per_op", "ms"),
    ("store.insert_ms_per_op", "ms"),
    ("store.hit_ratio", "ratio"),
    ("store.corruptions", "count"),
    ("memtier.hit_us_per_op", "us"),
    ("memtier.hit_ratio", "ratio"),
    ("wire.rtt_us_p50", "us"),
    ("wire.frame_us_per_op", "us"),
    ("wire.response_kb_per_op", "kB"),
    ("server.self_us_per_op", "us"),
    ("driver.batch_ms_per_op", "ms"),
    ("driver.parallel_efficiency", "ratio"),
    ("alloc.count_per_op", "count"),
    ("alloc.mb_per_op", "MB"),
    ("trace.residual_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("host.calib_ms", "ms"),
];

const USAGE: &str =
    "usage: perfbench --workload cold-verify|store-restart|daemon-mix --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["cold-verify", "store-restart", "daemon-mix"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        work: PathBuf::from(format!("perfbench/out/work-{}", std::process::id())),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !PathBuf::from("perfbench/expected_verdicts.txt").is_file() {
        eprintln!("perfbench: run from the repository root");
        return ExitCode::from(2);
    }
    let calib = measure::host_calib_ms();
    let result = match args.workload.as_str() {
        "cold-verify" => cold::run(&args),
        "store-restart" => restart::run(&args),
        _ => daemon::run(&args),
    };
    let _ = std::fs::remove_dir_all(&args.work);
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if args.trace {
        out.metrics.set("host.calib_ms", calib, "ms");
        for (name, unit) in PER_LAYER {
            if !out.metrics.0.contains_key(*name) {
                out.metrics.set(name, 0.0, unit);
            }
        }
        let extra: Vec<&String> = out
            .metrics
            .0
            .keys()
            .filter(|k| !PER_LAYER.iter().any(|(n, _)| n == k))
            .collect();
        assert!(extra.is_empty(), "unlisted per-layer metrics: {extra:?}");
    }
    println!(
        "host: {{\"host.calib_ms\": {calib}, \"cores\": {}, \"error_rate\": {}}}",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        measure::ratio(out.failed as f64, out.attempted as f64)
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct,
        out.attempted,
        out.failed,
        out.metrics.json()
    );
    ExitCode::SUCCESS
}
