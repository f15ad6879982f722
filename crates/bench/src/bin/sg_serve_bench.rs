//! `sg-serve-bench`: the load generator for the `sg-serve` query daemon.
//!
//! Drives `--connections` concurrent TCP connections, each issuing
//! `--queries` JSONL queries drawn from a fixed cross-family workload,
//! then writes the `BENCH_serve.json` trajectory file (queries/sec,
//! cache hit rate, latency percentiles, single-flight verification).
//!
//! With no `--addr`, an in-process server is started on a free port and
//! gracefully shut down (drain verified) at the end — the default for
//! local runs. With `--addr`, an already-running daemon is targeted and
//! drain is the caller's to verify (CI sends SIGTERM and checks the
//! exit code).
//!
//! Exits nonzero on any non-shed error reply, a failed drain, or a
//! single-flight violation (more computes than distinct queries).

use sg_bench::{bench_json_path, outln, Trajectory};
use sg_serve::json::{self, Json};
use sg_serve::server::{Server, ServerConfig};
use sg_serve::Client;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The query mix: small, cross-family, heavily repeated — the shape a
/// daemon fronting table lookups actually sees. Every line is valid, so
/// any error reply is a server defect (or load shedding, counted apart).
const WORKLOAD: &[&str] = &[
    r#"{"op":"bound","net":"hypercube:5","mode":"fd","period":4}"#,
    r#"{"op":"bound","net":"hypercube:5","mode":"fd","period":"inf"}"#,
    r#"{"op":"bound","net":"hypercube:6","mode":"hd","period":3}"#,
    r#"{"op":"bound","net":"cycle:16","mode":"fd","period":2}"#,
    r#"{"op":"bound","net":"cycle:16","mode":"fd","period":3}"#,
    r#"{"op":"bound","net":"path:32","mode":"hd","period":4}"#,
    r#"{"op":"bound","net":"complete:12","mode":"fd","period":3}"#,
    r#"{"op":"bound","net":"grid:6x6","mode":"hd","period":4}"#,
    r#"{"op":"bound","net":"torus:6x6","mode":"fd","period":4}"#,
    r#"{"op":"bound","net":"tree:2,5","mode":"hd","period":3}"#,
    r#"{"op":"bound","net":"db:2,6","mode":"hd","period":4}"#,
    r#"{"op":"bound","net":"dbdir:2,6","mode":"directed","period":4}"#,
    r#"{"op":"bound","net":"kautz:2,5","mode":"hd","period":4}"#,
    r#"{"op":"bound","net":"kautzdir:2,5","mode":"directed","period":3}"#,
    r#"{"op":"bound","net":"se:6","mode":"hd","period":4}"#,
    r#"{"op":"bound","net":"ccc:4","mode":"fd","period":4}"#,
    r#"{"op":"bound","net":"bf:2,4","mode":"hd","period":3}"#,
    r#"{"op":"bound","net":"wbf:2,4","mode":"fd","period":4}"#,
    r#"{"op":"bound","net":"wbfdir:2,4","mode":"directed","period":4}"#,
    r#"{"op":"bound","net":"knodel:3,16","mode":"fd","period":3}"#,
    r#"{"op":"bound","net":"rr:64,3,7","mode":"fd","period":4}"#,
    r#"{"op":"certificate","net":"path:16","mode":"hd"}"#,
    r#"{"op":"certificate","net":"cycle:16","mode":"fd"}"#,
    r#"{"op":"certificate","net":"hypercube:4","mode":"fd"}"#,
];

struct Opts {
    addr: Option<String>,
    connections: usize,
    queries: usize,
    max_inflight: usize,
    out: std::path::PathBuf,
}

const USAGE: &str = "usage: sg-serve-bench [--addr HOST:PORT] [--connections N] [--queries N] \
                     [--max-inflight N] [--out FILE]";

/// Prints the usage to stderr and exits 2: the end of every bad command line.
fn usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}

fn parse_opts() -> Opts {
    let mut opts = Opts {
        addr: None,
        connections: 1000,
        queries: 6,
        max_inflight: 4096,
        out: bench_json_path("serve"),
    };
    // Each flag is matched before its value is read, so `--help` and an
    // unknown flag are never mistaken for a flag missing its value.
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next().unwrap_or_else(|| {
                eprintln!("sg-serve-bench: {flag} needs a value");
                usage()
            })
        };
        let number = |v: String| -> usize {
            v.parse().unwrap_or_else(|_| {
                eprintln!("sg-serve-bench: {flag} needs a number, got `{v}`");
                usage()
            })
        };
        match flag.as_str() {
            "--help" | "-h" => {
                outln!("{USAGE}");
                std::process::exit(0);
            }
            "--addr" => opts.addr = Some(value()),
            "--connections" => opts.connections = number(value()),
            "--queries" => opts.queries = number(value()),
            "--max-inflight" => opts.max_inflight = number(value()),
            "--out" => opts.out = value().into(),
            other => {
                eprintln!("sg-serve-bench: unknown flag `{other}`");
                usage()
            }
        }
    }
    if opts.connections == 0 || opts.queries == 0 {
        eprintln!("sg-serve-bench: --connections and --queries must be positive");
        usage()
    }
    opts
}

/// What one connection worker measured.
#[derive(Default)]
struct WorkerOutcome {
    latencies_us: Vec<u64>,
    errors: usize,
    shed: usize,
    io_failures: usize,
}

fn run_worker(addr: &str, queries: usize, offset: usize, barrier: &Barrier) -> WorkerOutcome {
    let mut out = WorkerOutcome::default();
    let mut client = match Client::connect_retry(addr, 100) {
        Ok(c) => c,
        Err(_) => {
            // Count the whole quota as I/O failures so the totals add up.
            barrier.wait();
            out.io_failures = queries;
            return out;
        }
    };
    let _ = client.set_timeout(Some(Duration::from_secs(60)));
    barrier.wait();
    for q in 0..queries {
        let line = WORKLOAD[(offset + q) % WORKLOAD.len()];
        let t0 = Instant::now();
        match client.roundtrip(line) {
            Ok(reply) => {
                out.latencies_us.push(t0.elapsed().as_micros() as u64);
                match json::parse(&reply).ok().and_then(|v| {
                    v.get("ok")
                        .and_then(Json::as_bool)
                        .map(|ok| (ok, v.get("error").and_then(Json::as_str).map(String::from)))
                }) {
                    Some((true, _)) => {}
                    Some((false, Some(e))) if e == "overloaded" => out.shed += 1,
                    _ => out.errors += 1,
                }
            }
            Err(_) => out.io_failures += 1,
        }
    }
    out
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn main() {
    let opts = parse_opts();

    // In-process server unless an external address was given.
    let server = if opts.addr.is_none() {
        let cfg = ServerConfig {
            max_inflight: opts.max_inflight,
            ..ServerConfig::default()
        };
        Some(Server::bind(cfg).unwrap_or_else(|e| {
            eprintln!("sg-serve-bench: bind failed: {e}");
            std::process::exit(1);
        }))
    } else {
        None
    };
    let addr = opts
        .addr
        .clone()
        .unwrap_or_else(|| server.as_ref().unwrap().local_addr().to_string());
    outln!(
        "sg-serve-bench: {} connections x {} queries against {addr}",
        opts.connections,
        opts.queries
    );

    // All workers connect, meet at the barrier, then fire together.
    let barrier = Arc::new(Barrier::new(opts.connections + 1));
    let handles: Vec<_> = (0..opts.connections)
        .map(|c| {
            let (addr, barrier, queries) = (addr.clone(), Arc::clone(&barrier), opts.queries);
            std::thread::Builder::new()
                .name(format!("lg-{c}"))
                .stack_size(128 * 1024)
                .spawn(move || run_worker(&addr, queries, c, &barrier))
                .expect("spawn worker")
        })
        .collect();
    barrier.wait();
    let t0 = Instant::now();
    let outcomes: Vec<WorkerOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("worker"))
        .collect();
    let elapsed = t0.elapsed();

    let mut latencies: Vec<u64> = outcomes
        .iter()
        .flat_map(|o| o.latencies_us.iter().copied())
        .collect();
    latencies.sort_unstable();
    let errors: usize = outcomes.iter().map(|o| o.errors).sum();
    let shed: usize = outcomes.iter().map(|o| o.shed).sum();
    let io_failures: usize = outcomes.iter().map(|o| o.io_failures).sum();
    let answered = latencies.len();
    let qps = answered as f64 / elapsed.as_secs_f64().max(1e-9);

    // Cache counters from the server itself.
    let stats_line = Client::connect_retry(addr.as_str(), 10)
        .and_then(|mut c| c.roundtrip(r#"{"op":"stats"}"#))
        .ok();
    let stat = |key: &str| -> i64 {
        stats_line
            .as_deref()
            .and_then(|l| json::parse(l).ok())
            .and_then(|v| v.get(key).and_then(Json::as_int))
            .unwrap_or(-1)
    };
    let sf_lookups = stat("singleflight_lookups");
    let sf_computes = stat("singleflight_computes");
    let oracle_computes = stat("oracle_computes");
    let cache_hit_rate = if sf_lookups > 0 {
        (sf_lookups - sf_computes) as f64 / sf_lookups as f64
    } else {
        0.0
    };
    // Single-flight end-to-end: thousands of concurrent identical
    // queries must collapse to at most one compute per distinct line.
    let distinct = WORKLOAD.len().min(opts.connections * opts.queries);
    let singleflight_ok = sf_computes >= 0 && (sf_computes as usize) <= distinct;

    // Graceful shutdown of the in-process server, drain verified.
    let graceful_drain = match server {
        Some(server) => {
            server.handle().shutdown();
            let report = server.join();
            report.drained
        }
        // External daemon: its own SIGTERM exit code certifies the drain.
        None => true,
    };

    let json_out = Trajectory::new("serve")
        .scalar("connections", opts.connections)
        .scalar("queries_per_connection", opts.queries)
        .scalar("total_queries", opts.connections * opts.queries)
        .scalar("answered", answered)
        .scalar("errors", errors)
        .scalar("shed", shed)
        .scalar("io_failures", io_failures)
        .scalar("elapsed_ms", elapsed.as_millis() as usize)
        .scalar("queries_per_sec", qps)
        .scalar("latency_p50_us", percentile(&latencies, 0.50) as usize)
        .scalar("latency_p99_us", percentile(&latencies, 0.99) as usize)
        .scalar(
            "latency_max_us",
            latencies.last().copied().unwrap_or(0) as usize,
        )
        .scalar("cache_hit_rate", cache_hit_rate)
        .scalar("singleflight_lookups", sf_lookups)
        .scalar("singleflight_computes", sf_computes)
        .scalar("distinct_queries", distinct)
        .scalar("singleflight_ok", singleflight_ok)
        .scalar("oracle_computes", oracle_computes)
        .scalar("graceful_drain", graceful_drain)
        .render();
    if let Err(e) = std::fs::write(&opts.out, &json_out) {
        eprintln!("sg-serve-bench: writing {} failed: {e}", opts.out.display());
        std::process::exit(1);
    }
    // The verdict first: a closed stdout ends the process with status 0.
    if errors > 0 || io_failures > 0 || !graceful_drain || !singleflight_ok {
        eprintln!(
            "sg-serve-bench: FAILED (errors {errors}, io failures {io_failures}, \
             drained {graceful_drain}, single-flight ok {singleflight_ok})"
        );
        std::process::exit(1);
    }
    outln!("{json_out}sg-serve-bench: wrote {}", opts.out.display());
}
