//! `perfbench`: the end-to-end and per-layer benchmark of the
//! systolic-gossip workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run is one workload in a fresh process. It builds its inputs from
//! the seed, sets up several times and reports the median, measures for
//! the given number of seconds, checks every output, and prints its
//! metrics: a readable table, then one JSON object as the last line.
//! With `--trace 0` these are the end-to-end metrics; with `--trace 1`
//! the run instead replays a pass on one thread with a span around every
//! call into a layer, and prints the per-layer metrics.

mod batch;
mod inputs;
mod replay;
mod serve;
mod stats;
mod trace;

use inputs::Workload;
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics, printed by every untraced run and reported in its
/// JSON result.
const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB")];

/// End-to-end metrics that only the daemon workload has. An untraced run
/// prints those it has in its readable report, but leaves them out of the
/// JSON result.
const PRINTED_ONLY: &[(&str, &str)] = &[("p50_ms", "ms"), ("p99_ms", "ms"), ("max_qps", "1/s")];

/// Span names and the per-layer metric that reports their busy time.
const SPAN_METRICS: &[(&str, &str)] = &[
    ("graphs.build", "graphs.build_s"),
    ("graphs.diameter", "graphs.diameter_s"),
    ("graphs.group", "graphs.group_s"),
    ("graphs.separator", "graphs.separator_s"),
    ("protocol.compile", "protocol.compile_s"),
    ("delay.fold", "delay.fold_s"),
    ("delay.lambda", "delay.lambda_s"),
    ("core.oracle", "core.oracle_s"),
    ("core.report", "core.report_s"),
    ("bounds.coeff", "bounds.coeff_s"),
    ("sim.dense", "sim.dense_s"),
    ("sim.sparse", "sim.sparse_s"),
    ("sim.greedy", "sim.greedy_s"),
    ("search.enumerate", "search.enumerate_s"),
    ("search.certify", "search.certify_s"),
];

/// Per-layer metrics, printed by every traced run. A layer a workload
/// never calls reads 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("graphs.build_s", "s"),
    ("graphs.diameter_s", "s"),
    ("graphs.group_s", "s"),
    ("graphs.separator_s", "s"),
    ("protocol.compile_s", "s"),
    ("delay.fold_s", "s"),
    ("delay.lambda_s", "s"),
    ("core.oracle_s", "s"),
    ("core.oracle_computes", "count"),
    ("core.audit_self_s", "s"),
    ("core.report_s", "s"),
    ("core.report_bytes", "bytes"),
    ("bounds.coeff_s", "s"),
    ("sim.dense_s", "s"),
    ("sim.sparse_s", "s"),
    ("sim.greedy_s", "s"),
    ("sim.rounds", "count"),
    ("sim.peak_state_mib", "MiB"),
    ("search.enumerate_s", "s"),
    ("search.nodes", "count"),
    ("search.nodes_per_s", "1/s"),
    ("search.memo_hits", "count"),
    ("search.prune_ratio", "ratio"),
    ("search.certify_s", "s"),
    ("scenario.self_s", "s"),
    ("scenario.cache_hit_ratio", "ratio"),
    ("serve.parse_us", "us"),
    ("serve.hot_us", "us"),
    ("serve.wire_us", "us"),
    ("serve.cold_ms", "ms"),
    ("serve.memo_hit_ratio", "ratio"),
    ("serve.computes", "count"),
    ("serve.late_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.closed_qps", "1/s"),
    ("proc.cpu_s", "s"),
    ("proc.pass_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

/// What one invocation asked for.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// The thread budget every run pins: the number of CPUs, never the
    /// runner's automatic default.
    pub threads: usize,
}

/// Operations attempted and failed, with the first few failures.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 10 {
                self.failures.push(what());
            }
        }
    }
}

/// Named metric values.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&mut self, name: &'static str, v: f64) {
        self.0.insert(name, v);
    }
}

pub struct Outcome {
    pub tally: Tally,
    pub metrics: Metrics,
    /// How many timed samples the headline timing is a median of.
    pub samples: usize,
    /// Lines for the readable report, such as the raw samples.
    pub notes: Vec<String>,
}

/// Runs `setup` several times (at least three, and until `secs` have been
/// spent) and returns the last result with the time of each run; the
/// caller reports their median as `setup_s`.
pub fn repeated_setup<T>(secs: f64, mut setup: impl FnMut() -> T) -> (T, Vec<f64>) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t = Instant::now();
        let out = std::hint::black_box(setup());
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= 3 && started.elapsed().as_secs_f64() >= secs {
            return (out, times);
        }
    }
}

/// `name (count): v1 v2 …`, the first dozen samples, for the readable
/// report.
pub fn sample_note(name: &str, samples: &[f64]) -> String {
    let shown: Vec<String> = samples.iter().take(12).map(|v| format!("{v:.6}")).collect();
    let more = samples.len().saturating_sub(shown.len());
    let tail = if more > 0 {
        format!(" (+{more} more)")
    } else {
        String::new()
    };
    format!("{name} ({}): {}{tail}", samples.len(), shown.join(" "))
}

/// The per-layer metrics a traced replay yields: busy time per layer,
/// the audit's self time, the counters, and the replay's coverage and
/// overhead. `traced_s` and `untraced_s` are the replay's wall time with
/// tracing on and off.
pub fn layer_metrics(tr: &Tracer, traced_s: f64, untraced_s: f64) -> Metrics {
    let layers = tr.layers();
    let mut m = Metrics::new();
    for &(span, metric) in SPAN_METRICS {
        m.set(metric, layers.get(span).map_or(0.0, |l| l.busy));
    }
    m.set(
        "core.audit_self_s",
        layers.get("core.audit").map_or(0.0, |l| l.self_time),
    );
    for name in [
        "core.oracle_computes",
        "core.report_bytes",
        "sim.rounds",
        "sim.peak_state_mib",
        "search.nodes",
        "search.memo_hits",
    ] {
        m.set(name, tr.counter(name));
    }
    let nodes = tr.counter("search.nodes");
    let enumerate_s = layers.get("search.enumerate").map_or(0.0, |l| l.busy);
    if enumerate_s > 0.0 {
        m.set("search.nodes_per_s", nodes / enumerate_s);
    }
    let pruned = tr.counter("search.pruned");
    if nodes + pruned > 0.0 {
        m.set("search.prune_ratio", pruned / (nodes + pruned));
    }
    let top = tr.top_level_time();
    m.set("scenario.self_s", traced_s - top);
    m.set("trace.wall_s", traced_s);
    m.set("trace.coverage", top / traced_s.max(1e-12));
    m.set("trace.overhead_s", traced_s - untraced_s);

    println!(
        "{:<20} {:>11} {:>11} {:>8}",
        "span", "busy s", "self s", "calls"
    );
    for (name, l) in &layers {
        println!(
            "{name:<20} {:>11.6} {:>11.6} {:>8}",
            l.busy, l.self_time, l.calls
        );
    }
    m
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        Workload::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Result<(Workload, RunArgs), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut run = RunArgs {
        seed: inputs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => run.seed = value.parse().map_err(|_| bad("a seed"))?,
            "--seconds" => {
                run.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| bad("a positive number of seconds"))?
            }
            "--trace" => {
                run.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok((workload.ok_or("--workload is required")?, run))
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() {
    let (workload, args) = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        usage()
    });
    let outcome = match workload {
        Workload::ServeMixed => serve::run(&args),
        w => batch::run(w, &args),
    };
    let Outcome {
        tally,
        metrics,
        samples,
        notes,
    } = outcome;
    for f in &tally.failures {
        eprintln!("perfbench: FAILED {f}");
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    for n in &notes {
        println!("{n}");
    }
    println!(
        "{} seed {} threads {} trace {} — {} timed sample(s)",
        workload.name(),
        args.seed,
        args.threads,
        u8::from(args.trace),
        samples
    );
    let mut body = Vec::new();
    for &(name, unit) in wanted {
        let v = metrics.0.get(name).copied().unwrap_or(0.0);
        println!("  {name:<26} {v:>16.6} {unit}");
        body.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        ));
    }
    if !args.trace {
        for &(name, unit) in PRINTED_ONLY {
            if let Some(v) = metrics.0.get(name) {
                println!("  {name:<26} {v:>16.6} {unit}  (printed, not in the result)");
            }
        }
    }
    println!(
        "  {:<26} {:>16.6} ratio  ({} of {} operations failed)",
        "error_rate",
        tally.failed as f64 / tally.attempted.max(1) as f64,
        tally.failed,
        tally.attempted
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
}
