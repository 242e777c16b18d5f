//! `daemon-mix`: an in-process `server::serve` on a Unix socket over
//! the populated store, with `jobs` = the core count, driven by two
//! `server::Client` connections in a closed loop. Set-up warms the
//! daemon's memory tier with one `verify_all`, so every verify in the
//! timed phase is answered from memory: wire framing, JSON, verdict
//! tables and the batch fan-out do the work; search and replay do none.

use crate::measure::{median, ratio, shuffle, Metrics, Op, Pass, Phase, Probe, Spans};
use crate::oracle::{self, Registry, Verdict};
use crate::restart::populate;
use crate::{Args, Outcome};
use diaframe_bench::proto::{read_frame, write_frame};
use diaframe_bench::server::{serve, Client, Endpoint, ServerConfig};
use diaframe_bench::{verdict_table_for, ProofStore, SuiteCache, Variant};
use diaframe_core::fuzz::FuzzRng;
use diaframe_core::run_ordered;
use diaframe_core::trace_json::{parse_json_value, JsonValue};
use diaframe_examples::{all_examples, Example};
use std::io::Cursor;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests each connection sends per round.
const ROUND: usize = 50;
const CONNECTIONS: usize = 2;

/// What a request asks for, and so what its response must hold.
enum Request {
    /// `verify` of these examples (one or a batch).
    Verify(Vec<usize>),
    /// `verify_all`: every example.
    All,
    Stats,
}

impl Request {
    /// Mostly single-example verifies, some batches, some whole-suite
    /// requests and rare stats. The weights are assumed, not measured:
    /// no request log exists to ground them, so they stay fixed.
    fn draw(rng: &mut FuzzRng, n: usize) -> Request {
        match rng.below(100) {
            0..=79 => Request::Verify(vec![rng.below(n as u64) as usize]),
            80..=91 => {
                let mut all: Vec<usize> = (0..n).collect();
                shuffle(rng, &mut all);
                all.truncate(2 + rng.below(5) as usize);
                Request::Verify(all)
            }
            92..=97 => Request::All,
            _ => Request::Stats,
        }
    }

    fn examples(&self, n: usize) -> Vec<usize> {
        match self {
            Request::Verify(v) => v.clone(),
            Request::All => (0..n).collect(),
            Request::Stats => Vec::new(),
        }
    }

    fn body(&self, examples: &[Box<dyn Example>]) -> String {
        match self {
            Request::Verify(v) => {
                let names: Vec<String> = v
                    .iter()
                    .map(|&i| format!("\"{}\"", examples[i].name()))
                    .collect();
                format!("{{\"op\":\"verify\",\"examples\":[{}]}}", names.join(","))
            }
            Request::All => "{\"op\":\"verify_all\"}".to_owned(),
            Request::Stats => "{\"op\":\"stats\"}".to_owned(),
        }
    }
}

/// Whether `response` is a correct answer to `req`: `ok`, and for a
/// verify one `verified` row per requested example, in order, plus the
/// verdict table.
fn response_ok(req: &Request, response: &str, examples: &[Box<dyn Example>]) -> bool {
    let Ok(v) = parse_json_value(response) else {
        return false;
    };
    if v.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        return false;
    }
    if matches!(req, Request::Stats) {
        return v.get("cache").is_some();
    }
    let wanted = req.examples(examples.len());
    let Some(rows) = v.get("results").and_then(JsonValue::as_array) else {
        return false;
    };
    rows.len() == wanted.len()
        && rows.iter().zip(&wanted).all(|(row, &i)| {
            row.get("example").and_then(JsonValue::as_str) == Some(examples[i].name())
                && row.get("verdict").and_then(JsonValue::as_str) == Some("verified")
        })
        && v.get("table")
            .and_then(JsonValue::as_str)
            .is_some_and(|t| !t.is_empty())
}

/// Sums over the traced rounds of one connection.
#[derive(Default)]
struct Layers {
    ops: u64,
    rtt_us: Vec<f64>,
    op_span: Duration,
    frame: Duration,
    response_bytes: u64,
    server_self: f64,
    lookups: u64,
    memtier: Duration,
    batches: u64,
    batch: Duration,
    batch_capacity: Duration,
    batch_tasks_ns: u64,
}

impl Layers {
    fn absorb(&mut self, other: Layers) {
        self.ops += other.ops;
        self.rtt_us.extend(other.rtt_us);
        self.op_span += other.op_span;
        self.frame += other.frame;
        self.response_bytes += other.response_bytes;
        self.server_self += other.server_self;
        self.lookups += other.lookups;
        self.memtier += other.memtier;
        self.batches += other.batches;
        self.batch += other.batch;
        self.batch_capacity += other.batch_capacity;
        self.batch_tasks_ns += other.batch_tasks_ns;
    }
}

/// What one connection's thread hands back.
#[derive(Default)]
struct Conn {
    latencies: Vec<(Duration, bool)>,
    untraced: (u64, Duration),
    layers: Layers,
    errors: Vec<String>,
}

/// Shared by the connections and, in the traced run, the main thread
/// that paces their rounds.
struct Shared<'a> {
    endpoint: Endpoint,
    examples: &'a [Box<dyn Example>],
    jobs: usize,
    seed: u64,
    start: Barrier,
    end: Barrier,
    stop: AtomicBool,
    traced: AtomicBool,
    spans: &'a Spans,
    next_op: AtomicU64,
    /// The shadow memory tier of the traced run, warmed like the
    /// daemon's.
    local: Option<&'a SuiteCache>,
}

struct Daemon {
    endpoint: Endpoint,
    handle: JoinHandle<std::io::Result<()>>,
}

/// Starts the daemon over the store at `dir` and waits until it
/// accepts connections.
fn start(dir: &Path, socket: PathBuf, jobs: usize) -> Result<Daemon, String> {
    let endpoint = Endpoint::Unix(socket);
    let config = ServerConfig {
        store_dir: Some(dir.to_owned()),
        budget: None,
        jobs,
    };
    let ep = endpoint.clone();
    let handle = std::thread::spawn(move || serve(&ep, &config));
    let t0 = Instant::now();
    while Client::connect(&endpoint).is_err() {
        if handle.is_finished() || t0.elapsed() > Duration::from_secs(20) {
            return Err("daemon did not start".to_owned());
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(Daemon { endpoint, handle })
}

fn call(endpoint: &Endpoint, body: &str) -> Result<String, String> {
    let mut client = Client::connect(endpoint).map_err(|e| format!("connect: {e}"))?;
    client.call(body).map_err(|e| format!("call {body}: {e}"))
}

/// Asks the daemon to stop and waits for it.
fn stop(daemon: Daemon) -> Result<(), String> {
    call(&daemon.endpoint, "{\"op\":\"shutdown\"}")?;
    daemon
        .handle
        .join()
        .map_err(|_| "daemon panicked".to_owned())?
        .map_err(|e| format!("daemon: {e}"))
}

/// The daemon's `(cache hits, cache misses, store hits, store misses,
/// store corruptions)`.
fn stats(endpoint: &Endpoint) -> Result<[u64; 5], String> {
    let text = call(endpoint, "{\"op\":\"stats\"}")?;
    let v = parse_json_value(&text).map_err(|e| format!("stats: {e}"))?;
    let n = |path: &[&str]| {
        path.iter()
            .try_fold(&v, |v, k| v.get(k))
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("stats lacks {path:?}: {text}"))
    };
    Ok([
        n(&["cache", "hits"])?,
        n(&["cache", "misses"])?,
        n(&["store", "counters", "hits"])?,
        n(&["store", "counters", "misses"])?,
        n(&["store", "counters", "corruptions"])?,
    ])
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let jobs = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut setup_s = Vec::new();
    let mut state: Option<(Registry, PathBuf, Daemon)> = None;
    for n in 0..3 {
        if let Some((_, dir, daemon)) = state.take() {
            stop(daemon)?;
            let _ = std::fs::remove_dir_all(dir);
        }
        let t0 = Instant::now();
        let examples = all_examples();
        let dir = args.work.join(format!("store-{n}"));
        populate(&dir)?;
        let daemon = start(&dir, args.work.join(format!("d{n}.sock")), jobs)?;
        let warm = call(&daemon.endpoint, &Request::All.body(&examples))?;
        if !response_ok(&Request::All, &warm, &examples) {
            return Err(format!("warm-up verify_all failed: {warm}"));
        }
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some((examples, dir, daemon));
    }
    let (examples, dir, daemon) = state.expect("set-up ran");

    let local = if args.trace {
        let cache = SuiteCache::with_store(Arc::new(
            ProofStore::open(&dir, None).map_err(|e| format!("open store: {e}"))?,
        ));
        for ex in &examples {
            if oracle::classify(&cache.get_or_run(ex.as_ref(), Variant::Ok))
                != Ok(Verdict::Verified)
            {
                return Err(format!("shadow cache: {} did not verify", ex.name()));
            }
        }
        Some(cache)
    } else {
        None
    };
    let spans = Spans::new();
    let shared = Shared {
        endpoint: daemon.endpoint.clone(),
        examples: &examples,
        jobs,
        seed: args.seed,
        start: Barrier::new(CONNECTIONS + 1),
        end: Barrier::new(CONNECTIONS + 1),
        stop: AtomicBool::new(false),
        traced: AtomicBool::new(false),
        spans: &spans,
        next_op: AtomicU64::new(0),
        local: local.as_ref(),
    };
    let before = stats(&daemon.endpoint)?;
    let mut phase = Phase::default();
    let conns = if args.trace {
        rounds(&shared, args.seconds, &mut phase)
    } else {
        free_running(&shared, args.seconds, &mut phase)
    };
    let after = stats(&daemon.endpoint)?;
    drop(local);
    stop(daemon)?;

    let mut layers = Layers::default();
    let mut untraced = (0u64, Duration::ZERO);
    for conn in conns {
        for (latency, ok) in conn.latencies {
            phase.record(latency, ok);
        }
        for e in conn.errors.iter().take(5) {
            eprintln!("daemon-mix: {e}");
        }
        untraced.0 += conn.untraced.0;
        untraced.1 += conn.untraced.1;
        layers.absorb(conn.layers);
    }
    let [cache_hits, cache_misses, store_hits, store_misses, corruptions] =
        [0, 1, 2, 3, 4].map(|i| after[i] - before[i]);
    let correct = phase.failed == 0 && corruptions == 0;
    let metrics = if args.trace {
        let l = &layers;
        let ops = l.ops as f64;
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        let mut m = Metrics::default();
        phase.alloc_metrics(&mut m);
        m.set(
            "memtier.hit_us_per_op",
            ratio(us(l.memtier), l.lookups as f64),
            "us",
        );
        m.set(
            "memtier.hit_ratio",
            ratio(cache_hits as f64, (cache_hits + cache_misses) as f64),
            "ratio",
        );
        m.set(
            "store.hit_ratio",
            ratio(store_hits as f64, (store_hits + store_misses) as f64),
            "ratio",
        );
        m.set("store.corruptions", corruptions as f64, "count");
        m.set("wire.rtt_us_p50", median(&l.rtt_us), "us");
        m.set("wire.frame_us_per_op", us(l.frame) / ops, "us");
        m.set(
            "wire.response_kb_per_op",
            l.response_bytes as f64 / 1e3 / ops,
            "kB",
        );
        m.set("server.self_us_per_op", l.server_self / ops, "us");
        m.set(
            "driver.batch_ms_per_op",
            ratio(us(l.batch) / 1e3, l.batches as f64),
            "ms",
        );
        m.set(
            "driver.parallel_efficiency",
            ratio(l.batch_tasks_ns as f64 / 1e3, us(l.batch_capacity)),
            "ratio",
        );
        m.set(
            "trace.residual_share",
            l.server_self / l.rtt_us.iter().sum::<f64>(),
            "ratio",
        );
        let untraced_mean = us(untraced.1) / untraced.0 as f64;
        m.set(
            "trace.overhead_share",
            (us(l.op_span) / ops) / untraced_mean - 1.0,
            "ratio",
        );
        let path = args
            .work
            .parent()
            .expect("work dir has a parent")
            .join(format!("trace-daemon-mix-seed{}.jsonl", args.seed));
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

/// The traced run: the main thread paces rounds of [`ROUND`] requests
/// per connection, alternating untraced and traced rounds, so that each
/// round's process-wide allocation count belongs to one kind.
fn rounds(shared: &Shared<'_>, seconds: u64, phase: &mut Phase) -> Vec<Conn> {
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CONNECTIONS)
            .map(|k| {
                scope.spawn(move || {
                    let mut c = Caller::new(k, shared);
                    loop {
                        shared.start.wait();
                        if shared.stop.load(Ordering::SeqCst) {
                            return c.conn;
                        }
                        let traced = shared.traced.load(Ordering::SeqCst);
                        for _ in 0..ROUND {
                            c.send(shared, traced);
                        }
                        shared.end.wait();
                    }
                })
            })
            .collect();
        let t_start = Instant::now();
        for round in 0usize.. {
            let samples = round * ROUND * CONNECTIONS;
            if t_start.elapsed() >= Duration::from_secs(seconds) && samples >= Phase::MIN_SAMPLES {
                shared.stop.store(true, Ordering::SeqCst);
                shared.start.wait();
                break;
            }
            let traced = round % 2 == 1;
            shared.traced.store(traced, Ordering::SeqCst);
            let probe = Probe::now();
            shared.start.wait();
            shared.end.wait();
            phase.passes.push(Pass {
                ops: (ROUND * CONNECTIONS) as u64,
                delta: probe.elapsed(),
                traced,
            });
        }
        threads
            .into_iter()
            .map(|t| t.join().expect("connection thread panicked"))
            .collect()
    })
}

/// The untraced run: each connection sends requests back to back until
/// the time is up, without waiting for the other, so neither idles
/// while the other finishes a round. The whole phase is one pass.
fn free_running(shared: &Shared<'_>, seconds: u64, phase: &mut Phase) -> Vec<Conn> {
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let probe = Probe::now();
    let conns: Vec<Conn> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..CONNECTIONS)
            .map(|k| {
                scope.spawn(move || {
                    let mut c = Caller::new(k, shared);
                    while Instant::now() < deadline
                        || c.conn.latencies.len() < Phase::MIN_SAMPLES / CONNECTIONS
                    {
                        c.send(shared, false);
                    }
                    c.conn
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("connection thread panicked"))
            .collect()
    });
    phase.passes.push(Pass {
        ops: conns.iter().map(|c| c.latencies.len() as u64).sum(),
        delta: probe.elapsed(),
        traced: false,
    });
    conns
}

/// One connection: its own request stream and client.
struct Caller {
    rng: FuzzRng,
    client: std::io::Result<Client>,
    conn: Conn,
}

impl Caller {
    fn new(k: usize, shared: &Shared<'_>) -> Caller {
        Caller {
            rng: FuzzRng::new(shared.seed).fork(k as u64),
            client: Client::connect(&shared.endpoint),
            conn: Conn::default(),
        }
    }

    /// Sends one drawn request, waits for the reply and checks it; in a
    /// traced round, also repeats the request's layer calls.
    fn send(&mut self, shared: &Shared<'_>, traced: bool) {
        let examples = shared.examples;
        let conn = &mut self.conn;
        let req = Request::draw(&mut self.rng, examples.len());
        let body = req.body(examples);
        let op = shared.next_op.fetch_add(1, Ordering::Relaxed);
        let op_span = shared.spans.begin(op, traced);
        let t0 = Instant::now();
        let response = match self.client.as_mut() {
            Ok(c) => c.call(&body).map_err(|e| e.to_string()),
            Err(e) => Err(format!("connect: {e}")),
        };
        let t1 = Instant::now();
        let latency = t1 - t0;
        let ok = response
            .as_ref()
            .is_ok_and(|r| response_ok(&req, r, examples));
        if !ok {
            conn.errors.push(format!("{body}: {response:?}"));
        }
        conn.latencies.push((latency, ok));
        let (Some(op_span), Ok(response)) = (op_span, response) else {
            conn.untraced.0 += 1;
            conn.untraced.1 += latency;
            return;
        };
        shared
            .spans
            .measured(&op_span, "bench::server.call", t0, t1);
        let local = shared.local.expect("traced run has a shadow cache");
        shadow(
            shared,
            local,
            &op_span,
            &req,
            &body,
            &response,
            latency,
            &mut conn.layers,
        );
        conn.layers.op_span += shared.spans.end(op_span);
    }
}

/// Repeats the daemon's layer calls for one request from outside, each
/// timed as its own span: framing of request and response, the request
/// parse, the memory-tier lookups, the batch fan-out and the verdict
/// table. The round trip minus these is the server's own time (socket
/// I/O, thread hand-off, response rendering).
#[allow(clippy::too_many_arguments)]
fn shadow(
    shared: &Shared<'_>,
    local: &SuiteCache,
    op: &Op,
    req: &Request,
    body: &str,
    response: &str,
    rtt: Duration,
    l: &mut Layers,
) {
    let spans = shared.spans;
    let (_, frame) = spans.time(op, "bench::proto.frame", || {
        let mut buf = Vec::with_capacity(body.len() + response.len() + 8);
        write_frame(&mut buf, body).expect("frame fits in memory");
        write_frame(&mut buf, response).expect("frame fits in memory");
        let mut r = Cursor::new(buf);
        (read_frame(&mut r), read_frame(&mut r))
    });
    let (_, parse) = spans.time(op, "core::trace_json.parse_request", || {
        parse_json_value(body)
    });
    let selected: Vec<&dyn Example> = req
        .examples(shared.examples.len())
        .into_iter()
        .map(|i| shared.examples[i].as_ref())
        .collect();
    let (mut batch, mut table) = (Duration::ZERO, Duration::ZERO);
    if !selected.is_empty() {
        let (_, memtier) = spans.time(op, "bench::cache.memtier", || {
            for ex in &selected {
                local.get_or_run(*ex, Variant::Ok);
            }
        });
        let tasks_ns = AtomicU64::new(0);
        let (_, b) = spans.time(op, "core::driver.run_ordered", || {
            run_ordered(&selected, shared.jobs, |_, ex| {
                let t = Instant::now();
                local.get_or_run(*ex, Variant::Ok);
                tasks_ns.fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
            })
        });
        let (_, t) = spans.time(op, "bench::verdict_table", || {
            verdict_table_for(local, &selected)
        });
        batch = b;
        table = t;
        l.lookups += selected.len() as u64;
        l.memtier += memtier;
        l.batches += 1;
        l.batch += b;
        l.batch_capacity += b * u32::try_from(shared.jobs.min(selected.len())).expect("few jobs");
        l.batch_tasks_ns += tasks_ns.into_inner();
    }
    let sec = |d: Duration| d.as_secs_f64() * 1e6;
    l.ops += 1;
    l.rtt_us.push(sec(rtt));
    l.frame += frame;
    l.response_bytes += response.len() as u64;
    l.server_self += sec(rtt) - sec(frame) - sec(parse) - sec(batch) - sec(table);
}
