//! `cold-verify`: one caller verifies the `figure6 --all` task list in
//! seeded order. Every op goes through a fresh `SuiteCache` over the
//! pass's store, which starts empty, so neither the memory tier nor the
//! store ever answers: each op pays search, pipelined check, trace
//! encode and a store write.

use crate::measure::{
    alloc_count, median, ratio, shuffle, Delta, Metrics, Op, Pass, Phase, Probe, Spans,
};
use crate::oracle::{self, Registry, Task, Verdict};
use crate::{Args, Outcome};
use diaframe_bench::{store_key, ProofStore, SuiteCache, Variant};
use diaframe_core::fuzz::FuzzRng;
use diaframe_core::telemetry::CounterSnapshot;
use diaframe_core::trace_json::traces_to_compact_json;
use diaframe_core::{sha256_hex, with_ablation_override};
use diaframe_examples::all_examples;
use diaframe_heaplang::parse_program;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The deterministic counts of one pass, which must equal the committed
/// ones. The pass's allocation count is printed beside them but not
/// compared: speculative workers and the pipelined checker make it
/// depend on timing (README.md, "Exact-repeat self-check").
#[derive(Default)]
struct Digest {
    probes: u64,
    checker_steps: u64,
    store_bytes: u64,
}

impl Digest {
    fn fields(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("probes", self.probes),
            ("checker_steps", self.checker_steps),
            ("store_bytes", self.store_bytes),
        ]
    }
}

/// Sums over the traced passes.
#[derive(Default)]
struct Layers {
    ops: u64,
    call: Duration,
    op_span: Duration,
    parse: Duration,
    search: Duration,
    check: Duration,
    check_tail: Duration,
    overlap_ms: u64,
    find_hint_ns: u64,
    fingerprint: Duration,
    encode: Duration,
    checksum: Duration,
    write: Duration,
    bundle_bytes: u64,
    counters: CounterSnapshot,
}

/// Per-task figures of the traced passes, for the per-example rows.
#[derive(Default, Clone)]
struct Row {
    search_ms: Vec<f64>,
    check_ms: Vec<f64>,
    counters: Option<CounterSnapshot>,
}

/// Builds the registry and the task list, and warms the engine by
/// verifying the 24 published examples once into a fresh store.
fn setup(args: &Args, n: usize) -> Result<(Registry, Vec<Task>), String> {
    let examples = all_examples();
    let tasks = oracle::tasks(&examples)?;
    let dir = args.work.join(format!("warm-{n}"));
    let store = Arc::new(ProofStore::open(&dir, None).map_err(|e| format!("open store: {e}"))?);
    let cache = SuiteCache::with_store(store);
    for ex in &examples {
        let run = cache.get_or_run(ex.as_ref(), Variant::Ok);
        if oracle::classify(&run) != Ok(Verdict::Verified) {
            return Err(format!("warm-up: {} did not verify", ex.name()));
        }
    }
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
    Ok((examples, tasks))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut state = None;
    for n in 0..3 {
        let t0 = Instant::now();
        state = Some(setup(args, n)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (examples, tasks) = state.expect("set-up ran");

    let spans = Spans::new();
    let mut rng = FuzzRng::new(args.seed);
    let mut phase = Phase::default();
    let mut layers = Layers::default();
    let mut rows = vec![Row::default(); tasks.len()];
    let mut untraced = (0u64, Duration::ZERO);
    let mut digests: Vec<Digest> = Vec::new();
    let mut pass_allocs: Vec<u64> = Vec::new();
    let mut open_ms = Vec::new();
    let mut store_bytes = 0;
    let mut corruptions = 0;
    let mut errors: Vec<String> = Vec::new();
    let mut op_id = 0u64;
    let shadow_dir = args.work.join("shadow");
    std::fs::create_dir_all(&shadow_dir).map_err(|e| format!("create shadow dir: {e}"))?;
    let start = Instant::now();
    for pass in 0usize.. {
        if phase.done(start, args.seconds) {
            break;
        }
        let traced = args.trace && pass % 2 == 1;
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        shuffle(&mut rng, &mut order);
        let dir = args.work.join(format!("pass-{pass}"));
        let t_open = Instant::now();
        let store = Arc::new(ProofStore::open(&dir, None).map_err(|e| format!("open store: {e}"))?);
        open_ms.push(t_open.elapsed().as_secs_f64() * 1e3);
        let mut digest = Digest::default();
        let mut allocs = 0;
        let probe = Probe::now();
        for &t in &order {
            let task = &tasks[t];
            let ex = examples[task.example].as_ref();
            op_id += 1;
            let op_span = spans.begin(op_id, traced);
            let before = alloc_count();
            let t0 = Instant::now();
            let cache = SuiteCache::with_store(Arc::clone(&store));
            let run = with_ablation_override(task.ablation, || cache.get_or_run(ex, task.variant));
            let t1 = Instant::now();
            allocs += alloc_count() - before;
            let latency = t1 - t0;
            let verdict = oracle::classify(&run);
            let ok = verdict == Ok(task.expect);
            if !ok && errors.len() < 5 {
                errors.push(format!(
                    "{} ({}): {verdict:?}, expected {:?}",
                    ex.name(),
                    task.label,
                    task.expect
                ));
            }
            phase.record(latency, ok);
            digest.probes += run.counters.probes_attempted;
            digest.checker_steps += run.counters.checker_steps;
            if !traced {
                untraced.0 += 1;
                untraced.1 += latency;
                continue;
            }
            let op_span = op_span.expect("traced op has a span");
            let call = spans.measured(&op_span, "bench::cache.get_or_run", t0, t1);
            spans.reported(&op_span, call, "core::verify.search", t0, run.search_time);
            spans.reported(&op_span, call, "core::checker.check", t0, run.check_time);
            let find_hint_ns: u64 = run
                .session
                .span_stats()
                .iter()
                .filter(|(name, _)| *name == "find_hint")
                .map(|(_, s)| s.total_ns)
                .sum();
            spans.reported(
                &op_span,
                call,
                "core::hint.find_hint",
                t0,
                Duration::from_nanos(find_hint_ns),
            );
            let (_, parse) =
                spans.time(&op_span, "heaplang::parser", || parse_program(ex.source()));
            let (key, fingerprint) = spans.time(&op_span, "core::fingerprint", || {
                store_key(ex, task.variant, task.ablation)
            });
            if let (Variant::Ok, Some(Ok(outcome))) = (task.variant, &run.outcome) {
                let specs: Vec<(&str, &diaframe_core::ProofTrace)> = outcome
                    .proofs
                    .iter()
                    .map(|p| (p.name.as_str(), &p.trace))
                    .collect();
                let (bundle, encode) = spans.time(&op_span, "core::trace_json.encode", || {
                    traces_to_compact_json(&specs)
                });
                layers.encode += encode;
                layers.bundle_bytes += bundle.len() as u64;
                let (checksum, write) = insert_shadow(&spans, &op_span, &store, &key, &shadow_dir)?;
                layers.checksum += checksum;
                layers.write += write;
            }
            let overlap = Duration::from_millis(run.counters.check_overlap_ms);
            layers.ops += 1;
            layers.call += latency;
            layers.op_span += spans.end(op_span);
            layers.parse += parse;
            layers.search += run.search_time;
            layers.check += run.check_time;
            layers.check_tail += run.check_time.saturating_sub(overlap);
            layers.overlap_ms += run.counters.check_overlap_ms;
            layers.find_hint_ns += find_hint_ns;
            layers.fingerprint += fingerprint;
            layers.counters.merge(&run.counters);
            let row = &mut rows[t];
            row.search_ms.push(run.search_time.as_secs_f64() * 1e3);
            row.check_ms.push(run.check_time.as_secs_f64() * 1e3);
            row.counters.get_or_insert_with(|| run.counters.clone());
        }
        let delta: Delta = probe.elapsed();
        let stats = store.stats();
        corruptions += stats.corruptions;
        digest.store_bytes = store.total_bytes();
        store_bytes = crate::measure::store_bytes(&dir);
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
        phase.passes.push(Pass {
            ops: order.len() as u64,
            delta,
            traced,
        });
        digests.push(digest);
        pass_allocs.push(allocs);
    }

    let passes: Vec<_> = digests.iter().map(Digest::fields).collect();
    let repeat_ok = oracle::counts_match("cold-verify", &passes);
    eprintln!(
        "cold-verify: allocs per pass (not compared) {}..{}",
        pass_allocs.iter().min().expect("at least one pass"),
        pass_allocs.iter().max().expect("at least one pass")
    );
    for e in &errors {
        eprintln!("cold-verify: {e}");
    }
    let correct = repeat_ok && phase.failed == 0 && corruptions == 0;
    let metrics = if args.trace {
        let mut m = per_layer(&layers, untraced, median(&open_ms), corruptions);
        phase.alloc_metrics(&mut m);
        let lines = rows
            .iter()
            .zip(&tasks)
            .map(|(row, task)| example_row(row, task, examples[task.example].name()))
            .collect::<Vec<_>>();
        let path = args
            .work
            .parent()
            .expect("work dir has a parent")
            .join(format!("trace-cold-verify-seed{}.jsonl", args.seed));
        spans
            .write(&path, &lines)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        m
    } else {
        phase.end_to_end(&setup_s, store_bytes)
    };
    Ok(Outcome {
        correct,
        attempted: phase.attempted,
        failed: phase.failed,
        metrics,
    })
}

/// Repeats the write side of a store insert for the entry `key` that
/// the op just stored: a checksum over the entry's bytes, and the
/// entry and index files written to `dir` as the store writes them (a
/// temporary file, then a rename). Returns the two times.
fn insert_shadow(
    spans: &Spans,
    op: &Op,
    store: &ProofStore,
    key: &str,
    dir: &Path,
) -> Result<(Duration, Duration), String> {
    let entry =
        std::fs::read(store.entry_path(key)).map_err(|e| format!("read entry {key}: {e}"))?;
    let index =
        std::fs::read(store.root().join("index.json")).map_err(|e| format!("read index: {e}"))?;
    let (_, checksum) = spans.time(op, "core::fingerprint.checksum", || sha256_hex(&entry));
    let (written, write) = spans.time(op, "bench::store.write", || {
        [("entry", &entry), ("index", &index)]
            .iter()
            .try_for_each(|(name, bytes)| {
                let tmp = dir.join(format!("tmp-{name}"));
                std::fs::write(&tmp, bytes)?;
                std::fs::rename(&tmp, dir.join(name))
            })
    });
    written.map_err(|e| format!("shadow write: {e}"))?;
    Ok((checksum, write))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn per_layer(l: &Layers, untraced: (u64, Duration), open_ms: f64, corruptions: u64) -> Metrics {
    let ops = l.ops as f64;
    let c = &l.counters;
    let mut m = Metrics::default();
    crate::measure::counter_metrics(&mut m, c, ops);
    m.set("parser.ms_per_op", ms(l.parse) / ops, "ms");
    m.set("search.ms_per_op", ms(l.search) / ops, "ms");
    m.set(
        "search.self_ms_per_op",
        ms(l.search.saturating_sub(l.parse)) / ops,
        "ms",
    );
    m.set(
        "search.find_hint_ms_per_op",
        l.find_hint_ns as f64 / 1e6 / ops,
        "ms",
    );
    m.set("checker.ms_per_op", ms(l.check) / ops, "ms");
    m.set(
        "checker.us_per_step",
        ratio(ms(l.check) * 1e3, c.checker_steps as f64),
        "us",
    );
    m.set(
        "checker.overlap_share",
        ratio(l.overlap_ms as f64, ms(l.check)),
        "ratio",
    );
    m.set("codec.encode_ms_per_op", ms(l.encode) / ops, "ms");
    m.set(
        "codec.bundle_kb_per_op",
        l.bundle_bytes as f64 / 1e3 / ops,
        "kB",
    );
    m.set("fingerprint.us_per_op", ms(l.fingerprint) * 1e3 / ops, "us");
    // The store's part of a miss, from the shadow calls: the key, the
    // bundle encode, the entry checksum and the entry and index writes.
    let insert = ms(l.fingerprint) + ms(l.encode) + ms(l.checksum) + ms(l.write);
    m.set("store.open_ms", open_ms, "ms");
    m.set("store.insert_ms_per_op", insert / ops, "ms");
    m.set("store.io_self_ms_per_op", ms(l.write) / ops, "ms");
    m.set(
        "store.hit_ratio",
        ratio(c.store_hits as f64, (c.store_hits + c.store_misses) as f64),
        "ratio",
    );
    m.set("store.corruptions", corruptions as f64, "count");
    // The engine reports the overlapped check time in whole
    // milliseconds per run, truncated, so `check_tail` reads up to 1 ms
    // per op long and the residual up to that much short; it is
    // clamped at 0.
    let residual = ms(l.call) - ms(l.search) - ms(l.check_tail) - insert;
    m.set(
        "trace.residual_share",
        (residual / ms(l.call)).max(0.0),
        "ratio",
    );
    let untraced_mean = ms(untraced.1) / untraced.0 as f64;
    m.set(
        "trace.overhead_share",
        (ms(l.op_span) / ops) / untraced_mean - 1.0,
        "ratio",
    );
    m
}

/// One per-example row of the traced output: the task, its median
/// search and check milliseconds over the traced passes, and its
/// counter deltas.
fn example_row(row: &Row, task: &Task, name: &str) -> String {
    let variant = match task.variant {
        Variant::Ok => "ok",
        Variant::Broken => "broken",
    };
    format!(
        "{{\"row\":\"{name}\",\"variant\":\"{variant}\",\"config\":\"{}\",\"expect\":\"{:?}\",\"search_ms\":{},\"check_ms\":{},\"counters\":{}}}",
        task.label,
        task.expect,
        if row.search_ms.is_empty() { 0.0 } else { median(&row.search_ms) },
        if row.check_ms.is_empty() { 0.0 } else { median(&row.check_ms) },
        row.counters.as_ref().map_or("null".to_owned(), CounterSnapshot::json_object)
    )
}
