//! `store-restart`: set-up populates a proof store with the 24
//! published proofs. Each pass reopens the store with
//! `ProofStore::open` (the restart) and asks `ProofStore::get_or_run`
//! for every example in seeded order, with no `SuiteCache` in front:
//! every op is a store hit that reads, checksums, decodes and replays a
//! stored proof, and searches nothing.

use crate::measure::{alloc_count, median, ratio, shuffle, Metrics, Op, Pass, Phase, Probe, Spans};
use crate::oracle::{self, Registry, Verdict};
use crate::{Args, Outcome};
use diaframe_bench::{store_key, ProofStore, SuiteCache, Variant};
use diaframe_core::fuzz::FuzzRng;
use diaframe_core::telemetry::CounterSnapshot;
use diaframe_core::trace_json::{parse_json_value, traces_from_compact_value};
use diaframe_core::Ablation;
use diaframe_examples::{all_examples, Example};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The deterministic counts of one pass, which must equal the
/// committed ones.
#[derive(Default)]
struct Digest {
    checker_steps: u64,
    store_bytes: u64,
    allocs: u64,
}

impl Digest {
    fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("checker_steps", self.checker_steps),
            ("store_bytes", self.store_bytes),
            ("allocs", self.allocs),
        ]
    }
}

#[derive(Default)]
struct Layers {
    ops: u64,
    call: Duration,
    op_span: Duration,
    fingerprint: Duration,
    read: Duration,
    decode: Duration,
    check: Duration,
    bytes: u64,
    counters: CounterSnapshot,
}

/// Verifies the 24 published examples into a fresh store at `dir` and
/// closes it. Shared with `daemon-mix`, whose daemon serves this store.
pub fn populate(dir: &Path) -> Result<(), String> {
    let store = Arc::new(ProofStore::open(dir, None).map_err(|e| format!("open store: {e}"))?);
    let cache = SuiteCache::with_store(Arc::clone(&store));
    for ex in all_examples() {
        let run = cache.get_or_run(ex.as_ref(), Variant::Ok);
        if oracle::classify(&run) != Ok(Verdict::Verified) {
            return Err(format!("populate: {} did not verify", ex.name()));
        }
    }
    drop(cache);
    store.flush().map_err(|e| format!("flush store: {e}"))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut state: Option<(Registry, PathBuf)> = None;
    for n in 0..3 {
        let t0 = Instant::now();
        let examples = all_examples();
        let dir = args.work.join(format!("store-{n}"));
        populate(&dir)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if let Some((_, old)) = state.replace((examples, dir)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }
    let (examples, dir) = state.expect("set-up ran");

    let spans = Spans::new();
    let mut rng = FuzzRng::new(args.seed);
    let mut phase = Phase::default();
    let mut layers = Layers::default();
    let mut untraced = (0u64, Duration::ZERO);
    let mut digests: Vec<Digest> = Vec::new();
    let mut open_ms = Vec::new();
    let (mut hits, mut misses, mut corruptions) = (0, 0, 0);
    let mut errors: Vec<String> = Vec::new();
    let mut op_id = 0u64;
    let start = Instant::now();
    for pass in 0usize.. {
        if phase.done(start, args.seconds) {
            break;
        }
        let traced = args.trace && pass % 2 == 1;
        let mut order: Vec<usize> = (0..examples.len()).collect();
        shuffle(&mut rng, &mut order);
        let mut digest = Digest::default();
        let probe = Probe::now();
        let t_open = Instant::now();
        let store = ProofStore::open(&dir, None).map_err(|e| format!("reopen store: {e}"))?;
        open_ms.push(t_open.elapsed().as_secs_f64() * 1e3);
        for &i in &order {
            let ex = examples[i].as_ref();
            op_id += 1;
            let op_span = spans.begin(op_id, traced);
            let before = alloc_count();
            let t0 = Instant::now();
            let run = store.get_or_run(ex, Variant::Ok);
            let t1 = Instant::now();
            digest.allocs += alloc_count() - before;
            let latency = t1 - t0;
            let verdict = oracle::classify(&run);
            let ok = run.from_store && verdict == Ok(Verdict::Verified);
            if !ok && errors.len() < 5 {
                errors.push(format!(
                    "{}: {verdict:?}, from_store={}",
                    ex.name(),
                    run.from_store
                ));
            }
            phase.record(latency, ok);
            digest.checker_steps += run.counters.checker_steps;
            let Some(op_span) = op_span else {
                untraced.0 += 1;
                untraced.1 += latency;
                continue;
            };
            let call = spans.measured(&op_span, "bench::store.get_or_run", t0, t1);
            spans.reported(&op_span, call, "bench::store.replay", t0, run.check_time);
            let shadow = replay_shadow(&spans, &op_span, &store, ex)?;
            layers.ops += 1;
            layers.call += latency;
            layers.fingerprint += shadow.fingerprint;
            layers.read += shadow.read;
            layers.decode += shadow.decode;
            layers.check += shadow.check;
            layers.bytes += shadow.bytes;
            layers.counters.merge(&run.counters);
            layers.op_span += spans.end(op_span);
        }
        let stats = store.stats();
        hits += stats.hits;
        misses += stats.misses;
        corruptions += stats.corruptions;
        digest.store_bytes = store.total_bytes();
        // Dropping the handle persists the LRU clocks: part of a restart.
        drop(store);
        phase.passes.push(Pass {
            ops: order.len() as u64,
            delta: probe.elapsed(),
            traced,
        });
        digests.push(digest);
    }

    let passes: Vec<_> = digests.iter().map(Digest::fields).collect();
    let repeat_ok = oracle::counts_match("store-restart", &passes);
    for e in &errors {
        eprintln!("store-restart: {e}");
    }
    let correct = repeat_ok && phase.failed == 0 && corruptions == 0 && misses == 0;
    let metrics = if args.trace {
        let l = &layers;
        let ops = l.ops as f64;
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        let mut m = Metrics::default();
        crate::measure::counter_metrics(&mut m, &l.counters, ops);
        phase.alloc_metrics(&mut m);
        m.set("checker.ms_per_op", ms(l.check) / ops, "ms");
        m.set(
            "checker.us_per_step",
            ratio(ms(l.check) * 1e3, l.counters.checker_steps as f64),
            "us",
        );
        m.set("codec.decode_ms_per_op", ms(l.decode) / ops, "ms");
        m.set("codec.bundle_kb_per_op", l.bytes as f64 / 1e3 / ops, "kB");
        m.set("fingerprint.us_per_op", ms(l.fingerprint) * 1e3 / ops, "us");
        m.set("store.open_ms", median(&open_ms), "ms");
        m.set("store.hit_ms_per_op", ms(l.call) / ops, "ms");
        let io_self = ms(l.call) - ms(l.decode) - ms(l.check) - ms(l.fingerprint);
        m.set("store.io_self_ms_per_op", io_self / ops, "ms");
        m.set(
            "store.hit_ratio",
            ratio(hits as f64, (hits + misses) as f64),
            "ratio",
        );
        m.set("store.corruptions", corruptions as f64, "count");
        m.set(
            "trace.residual_share",
            (io_self - ms(l.read)) / ms(l.call),
            "ratio",
        );
        let untraced_mean = ms(untraced.1) / untraced.0 as f64;
        m.set(
            "trace.overhead_share",
            (ms(l.op_span) / ops) / untraced_mean - 1.0,
            "ratio",
        );
        let path = args
            .work
            .parent()
            .expect("work dir has a parent")
            .join(format!("trace-store-restart-seed{}.jsonl", args.seed));
        spans
            .write(&path, &[])
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        m
    } else {
        phase.end_to_end(&setup_s, crate::measure::store_bytes(&dir))
    };
    Ok(Outcome {
        correct,
        attempted: phase.attempted,
        failed: phase.failed,
        metrics,
    })
}

struct Shadow {
    fingerprint: Duration,
    read: Duration,
    decode: Duration,
    check: Duration,
    bytes: u64,
}

/// Repeats the hit path's layer calls on the same entry, each timed as
/// its own span: the key fingerprint, the entry read, the bundle decode
/// and the checker replay of every decoded trace.
fn replay_shadow(
    spans: &Spans,
    op: &Op,
    store: &ProofStore,
    ex: &dyn Example,
) -> Result<Shadow, String> {
    let (key, fingerprint) = spans.time(op, "core::fingerprint", || {
        store_key(ex, Variant::Ok, Ablation::none())
    });
    let (text, read) = spans.time(op, "bench::store.read", || {
        std::fs::read_to_string(store.entry_path(&key))
    });
    let text = text.map_err(|e| format!("{}: read entry: {e}", ex.name()))?;
    let (traces, decode) = spans.time(op, "core::trace_json.decode", || {
        let v = parse_json_value(&text).map_err(|e| e.to_string())?;
        let bundle = v
            .get("payload")
            .and_then(|p| p.get("bundle"))
            .ok_or("entry has no bundle")?;
        traces_from_compact_value(bundle).map_err(|e| e.to_string())
    });
    let traces = traces.map_err(|e| format!("{}: decode entry: {e}", ex.name()))?;
    let (checked, check) = spans.time(op, "core::checker.check", || {
        traces
            .iter()
            .try_for_each(|(_, t)| diaframe_core::checker::check(t))
    });
    checked.map_err(|e| format!("{}: stored trace failed replay: {e}", ex.name()))?;
    Ok(Shadow {
        fingerprint,
        read,
        decode,
        check,
        bytes: text.len() as u64,
    })
}
