//! The batch workloads: passes through `sg_scenario::run_batch`, their
//! output checks, and the traced replay that splits a pass into layers.

use crate::inputs::{batches, unstructured_net, Workload, DEFAULT_SEED, STRUCTURED_NETS};
use crate::replay::{comparable_line, replay};
use crate::stats::{cpu_seconds, median, peak_rss_mib, reset_peak_rss};
use crate::trace::Tracer;
use crate::{repeated_setup, sample_note, Metrics, Outcome, RunArgs, Tally};
use sg_scenario::{run_batch, BatchOptions, BatchReport, BuildCache, CacheStats, Scenario, Task};
use std::time::Instant;
use systolic_gossip::{Row, Value};

/// Seconds spent repeating set-up before the first pass. Set-up is only
/// sampled there: after a pass, the same set-up takes up to four times as
/// long, depending on what the pass left of the heap.
const SETUP_S: f64 = 1.5;

/// A large-sim instance as a function of the workload seed.
type NetOfSeed = fn(u64) -> systolic_gossip::Network;

/// Completion rounds of the large-sim instances at [`DEFAULT_SEED`]:
/// `(network, rounds)`. The Knödel instances do not depend on the seed.
const PINNED_ROUNDS: [(NetOfSeed, usize); 3] = [
    (unstructured_net, 92),
    (|_| STRUCTURED_NETS[0], 20),
    (|_| STRUCTURED_NETS[1], 17),
];

/// Settled enumeration optima, `(scenario, s, optimum)`; `None` means
/// no period-`s` schedule gossips.
const SETTLED: &[(&str, usize, Option<usize>)] = &[
    ("enum-hypercube", 2, Some(4)),
    ("enum-cycle", 3, Some(5)),
    ("enum-cycle-directed", 2, Some(6)),
    ("enum-cycle-directed", 3, Some(7)),
    ("enum-path-directed", 3, None),
    ("enum-path-directed", 4, Some(8)),
    ("enum-knodel", 2, Some(4)),
    ("enum-knodel", 3, Some(3)),
    ("enum-torus-3x3", 2, Some(9)),
    ("enum-torus-3x3", 3, Some(5)),
    ("enum-debruijn-directed", 2, Some(8)),
    ("enum-debruijn-directed", 3, Some(9)),
    ("enum-knodel-w416", 2, Some(8)),
    ("enum-path7-directed", 4, Some(12)),
    ("enum-cycle8-hd", 4, Some(7)),
];

fn field<'r>(row: &'r Row, name: &str) -> Option<&'r Value> {
    row.get(name)
}

fn int(row: &Row, name: &str) -> Option<i64> {
    match field(row, name) {
        Some(Value::Int(i)) => Some(*i),
        _ => None,
    }
}

fn text<'r>(row: &'r Row, name: &str) -> &'r str {
    match field(row, name) {
        Some(Value::Text(t)) => t,
        _ => "",
    }
}

/// Checks one pass. Each paper check and each row that carries a
/// verdict is one operation; a wrong result is a failed one.
fn check(w: Workload, seed: u64, reports: &[BatchReport], tally: &mut Tally) {
    for report in reports {
        for o in &report.outcomes {
            for c in &o.checks {
                tally.record(c.ok, || {
                    format!(
                        "{}: {} computed {} (paper {})",
                        o.name, c.label, c.got, c.expected
                    )
                });
            }
        }
        for row in report.tagged_rows() {
            let scenario = text(&row, "scenario");
            let network = text(&row, "network");
            match text(&row, "kind") {
                "audit" | "greedy" | "separator" | "diameter" => {
                    let sound = matches!(field(&row, "sound"), Some(Value::Bool(true)));
                    tally.record(sound, || format!("{scenario}: {network} is not sound"));
                }
                "bound" => {
                    let ok =
                        matches!(field(&row, "best_rounds"), Some(Value::Float(b)) if *b > 0.0);
                    tally.record(ok, || format!("{scenario}: {network} has no bound"));
                }
                "large-sim" => check_large_sim(w, seed, &row, tally),
                "enumerate" => {
                    let s = int(&row, "s").unwrap_or(0) as usize;
                    let got = int(&row, "optimal_rounds").map(|r| r as usize);
                    let want = SETTLED
                        .iter()
                        .find(|(name, ps, _)| *name == scenario && *ps == s)
                        .map(|e| e.2);
                    let verdict_ok = got.is_some() || text(&row, "verdict") == "infeasible";
                    tally.record(want == Some(got) && verdict_ok, || {
                        format!("{scenario}: {network} s = {s} optimum {got:?}, settled {want:?}")
                    });
                }
                _ => {}
            }
        }
    }
    // The paper figures assert their checks as a whole, too.
    let all_ok = reports.iter().all(BatchReport::checks_ok);
    tally.record(all_ok, || "BatchReport::checks_ok() is false".into());
}

fn check_large_sim(w: Workload, seed: u64, row: &Row, tally: &mut Tally) {
    let network = text(row, "network");
    let n = int(row, "n").unwrap_or(0).max(2) as usize;
    let rounds = int(row, "measured_rounds").map(|r| r as usize);
    let completed = text(row, "verdict") == "completed";
    let pinned = PINNED_ROUNDS
        .iter()
        .find(|(net, _)| net(seed).name() == network)
        .map(|p| p.1);
    // Seeds other than the default change the random graph, so only
    // the doubling floor is checked there.
    let seed_independent = w == Workload::SimStructured;
    let ok = completed
        && match (pinned, seed == DEFAULT_SEED || seed_independent) {
            (Some(p), true) => rounds == Some(p),
            _ => rounds.is_some_and(|r| r >= systolic_gossip::ceil_log2(n)),
        };
    tally.record(ok, || {
        format!(
            "{network}: completion {rounds:?} ({}), pinned {pinned:?}",
            text(row, "verdict")
        )
    });
}

fn run_pass(input: &[Vec<Scenario>], opts: &BatchOptions) -> Vec<BatchReport> {
    input.iter().map(|b| run_batch(b, opts)).collect()
}

/// Set-up: the workload's scenarios from the seed, then every graph they
/// name built once, and for the enumeration scenarios the automorphism
/// group as well. A pass builds these again in its own `run_batch`
/// cache, so set-up times making the inputs, not warming the pass.
fn set_up(w: Workload, seed: u64) -> Vec<Vec<Scenario>> {
    let input = batches(w, seed);
    let cache = BuildCache::new();
    for s in input.iter().flatten() {
        for net in &s.networks {
            cache.digraph(net);
            if s.task == Task::Enumerate {
                cache.perm_group(net);
            }
        }
    }
    input
}

pub fn run(w: Workload, args: &RunArgs) -> Outcome {
    let (input, setups) = repeated_setup(SETUP_S, || set_up(w, args.seed));
    let opts = BatchOptions {
        threads: args.threads,
        ..BatchOptions::default()
    };
    if args.trace {
        return traced(w, args, &input, &opts);
    }
    let mut tally = Tally::default();
    let (mut pass_s, mut peaks) = (Vec::new(), Vec::new());
    let started = Instant::now();
    loop {
        // Each pass's own peak, so the set-up's graphs and an earlier
        // pass's high point do not decide it.
        reset_peak_rss();
        let t = Instant::now();
        let reports = run_pass(&input, &opts);
        pass_s.push(t.elapsed().as_secs_f64());
        peaks.push(peak_rss_mib());
        check(w, args.seed, &reports, &mut tally);
        drop(reports);
        // Start another pass only if at least half of it is expected to
        // fit in the remaining time.
        let last = pass_s[pass_s.len() - 1];
        if started.elapsed().as_secs_f64() + last / 2.0 > args.seconds {
            break;
        }
    }
    let mut m = Metrics::new();
    m.set("setup_s", median(&setups));
    m.set("wall_s", median(&pass_s));
    m.set("peak_rss_mib", median(&peaks));
    Outcome {
        tally,
        metrics: m,
        samples: pass_s.len(),
        notes: vec![
            sample_note("setup seconds", &setups),
            sample_note("pass seconds", &pass_s),
            sample_note("pass peak MiB", &peaks),
        ],
    }
}

fn cache_hit_ratio(stats: &[CacheStats]) -> f64 {
    let (mut hits, mut builds) = (0usize, 0usize);
    for s in stats {
        hits += s.graph_hits + s.diameter_hits + s.delay_hits + s.group_hits + s.protocol_hits;
        builds += s.graph_builds
            + s.diameter_builds
            + s.delay_builds
            + s.group_builds
            + s.protocol_builds;
    }
    hits as f64 / (hits + builds).max(1) as f64
}

/// One checked pass through `run_batch`, then the replay on one thread
/// three times: tracing off, on, and off again. The overhead is the
/// traced wall time minus the mean of the two untraced ones, which
/// cancels the warm-up the first replay pays.
fn traced(w: Workload, args: &RunArgs, input: &[Vec<Scenario>], opts: &BatchOptions) -> Outcome {
    let mut tally = Tally::default();
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    let reports = run_pass(input, opts);
    let pass_s = t.elapsed().as_secs_f64();
    let cpu_s = cpu_seconds() - cpu0;
    check(w, args.seed, &reports, &mut tally);
    let expected: Vec<String> = reports
        .iter()
        .flat_map(BatchReport::tagged_rows)
        .map(|r| comparable_line(&r))
        .collect();
    let hit_ratio = cache_hit_ratio(&reports.iter().map(|r| r.cache).collect::<Vec<_>>());
    drop(reports);

    let replay_opts = BatchOptions {
        threads: 1,
        sim_threads: 1,
        ..*opts
    };
    let untraced = || {
        let t = Instant::now();
        for b in input {
            replay(b, &replay_opts, &Tracer::new(false));
        }
        t.elapsed().as_secs_f64()
    };
    let before = untraced();

    let tr = Tracer::new(true);
    let t = Instant::now();
    let got: Vec<String> = input
        .iter()
        .flat_map(|b| replay(b, &replay_opts, &tr))
        .collect();
    let traced_s = t.elapsed().as_secs_f64();
    let untraced_s = (before + untraced()) / 2.0;
    let first_diff = expected.iter().zip(&got).position(|(a, b)| a != b);
    tally.record(got.len() == expected.len() && first_diff.is_none(), || {
        let i = first_diff.unwrap_or(expected.len().min(got.len()));
        format!(
            "replay rows differ from run_batch ({} vs {} rows) at row {i}:\n  run_batch {}\n  replay    {}",
            expected.len(),
            got.len(),
            expected.get(i).map_or("—", String::as_str),
            got.get(i).map_or("—", String::as_str),
        )
    });

    let mut m = crate::layer_metrics(&tr, traced_s, untraced_s);
    m.set("scenario.cache_hit_ratio", hit_ratio);
    m.set("proc.cpu_s", cpu_s);
    m.set("proc.pass_s", pass_s);
    Outcome {
        tally,
        metrics: m,
        samples: 1,
        notes: Vec::new(),
    }
}
