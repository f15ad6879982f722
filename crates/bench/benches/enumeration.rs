//! Criterion-shim bench for the exact-enumeration subsystem, and the
//! third file of the repo's perf trajectory: alongside the stdout report
//! it serializes every recorded timing — plus the settled optima of the
//! benchmarked enumerations — into `BENCH_enum.json` at the workspace
//! root through [`sg_bench::Trajectory`], uploaded by CI next to
//! `BENCH_sim.json` / `BENCH_search.json`.
//!
//! The workload is the registry's settled-theorem table: `Q₃` at `s = 2`
//! full-duplex (optimum 4), `C₈` at `s = 3` full-duplex (optimum 5),
//! directed `C₆` at `s = 2` (optimum 6), the provably infeasible
//! directed `P₆` at `s = 3`, plus the stabilizer-chain-era instances —
//! `Torus(3×3)` at `s = 3` full-duplex (optimum 5, |Aut| = 72),
//! `W(3,8)` at `s = 3` full-duplex (optimum 3, the doubling floor),
//! directed `DB(2,3)` at `s = 2` (optimum 8) and the parallel-era
//! heavyweight `W(4,16)` at `s = 2` full-duplex (optimum 8, twice the
//! doubling floor of 4). The run *fails* if any previously
//! `ProvenOptimal` point regresses to a different value or loses its
//! proven verdict — a settled theorem must stay settled.
//!
//! A second group, `enumeration_thread_scaling`, is an ablation: the
//! current engine at 1 and 2 threads (the cores of the 2-CPU reference
//! box) on `Torus(3×3)` at `s = 3`, with the medians and the speedup
//! summarized in the JSON's `ablation` block. No seed protocol completes
//! there, so the engine deepens its cap from the floor 4 (passes at caps
//! 4 and 5), and each pass fans out over the thread budget. The
//! instance takes ~16 ms, so the speedup mostly measures the host and
//! gates nothing; the run fails instead if either budget visits other
//! than the pinned 10 355 enumerated and 6 553 pruned nodes.

use criterion::{black_box, BenchmarkId, Criterion};
use sg_bench::{fast_mode, median_ns, Trajectory};
use sg_search::{enumerate, EnumerateConfig, Verdict};
use systolic_gossip::prelude::*;
use systolic_gossip::Row;

/// One settled workload: label, network, mode, period, proven optimum
/// (`None` = proven infeasible).
fn workloads() -> Vec<(&'static str, Network, Mode, usize, Option<usize>)> {
    vec![
        (
            "hypercube3_fd",
            Network::Hypercube { k: 3 },
            Mode::FullDuplex,
            2,
            Some(4),
        ),
        (
            "cycle8_fd",
            Network::Cycle { n: 8 },
            Mode::FullDuplex,
            3,
            Some(5),
        ),
        (
            "cycle6_dir",
            Network::Cycle { n: 6 },
            Mode::Directed,
            2,
            Some(6),
        ),
        (
            "path6_dir_infeasible",
            Network::Path { n: 6 },
            Mode::Directed,
            3,
            None,
        ),
        (
            "torus3x3_fd",
            Network::Torus2d { w: 3, h: 3 },
            Mode::FullDuplex,
            3,
            Some(5),
        ),
        (
            "knodel38_fd",
            Network::Knodel { delta: 3, n: 8 },
            Mode::FullDuplex,
            3,
            Some(3),
        ),
        (
            "debruijn23_dir",
            Network::DeBruijnDirected { d: 2, dd: 3 },
            Mode::Directed,
            2,
            Some(8),
        ),
        (
            "knodel_w416_fd",
            Network::Knodel { delta: 4, n: 16 },
            Mode::FullDuplex,
            2,
            Some(8),
        ),
    ]
}

fn bench_enumeration(c: &mut Criterion) {
    let mut g = c.benchmark_group("exact_enumeration");
    g.sample_size(if fast_mode() { 2 } else { 10 });
    for (label, net, mode, period, _) in workloads() {
        g.bench_with_input(BenchmarkId::new(label, period), &period, |b, &s| {
            b.iter(|| {
                black_box(enumerate(
                    &net,
                    mode,
                    &EnumerateConfig::default().exact_period(s),
                ))
            })
        });
    }
    g.finish();
}

/// The instance and period of the thread-scaling ablation (the heaviest
/// full-duplex point of the settled table).
const ABLATION: (Network, usize) = (Network::Torus2d { w: 3, h: 3 }, 3);

/// Node counters every thread budget must reproduce on [`ABLATION`]:
/// `(enumerated, pruned)`.
const ABLATION_COUNTERS: (usize, usize) = (10_355, 6_553);

/// The current engine's deepened passes on one thread and on two; both
/// settle the identical optimum over the identical node set, and only
/// wall-clock differs.
fn bench_thread_ablation(c: &mut Criterion) {
    let (net, s) = ABLATION;
    let mut g = c.benchmark_group("enumeration_thread_scaling");
    g.sample_size(if fast_mode() { 2 } else { 10 });
    for threads in [1usize, 2] {
        let cfg = EnumerateConfig::default().exact_period(s).threads(threads);
        let out = enumerate(&net, Mode::FullDuplex, &cfg);
        assert_eq!(
            (out.enumerated, out.pruned),
            ABLATION_COUNTERS,
            "torus3x3_fd at {threads} thread(s): (enumerated, pruned) moved"
        );
        g.bench_function(&format!("torus3x3_fd/threads{threads}"), |b| {
            b.iter(|| black_box(enumerate(&net, Mode::FullDuplex, &cfg)))
        });
    }
    g.finish();
}

fn write_bench_json(c: &Criterion) {
    // The thread-scaling ablation in one digestible block.
    let median_of = |engine: &str| -> u128 {
        let name = format!("enumeration_thread_scaling/torus3x3_fd/{engine}");
        median_ns(c, &name).unwrap_or_else(|| panic!("ablation bench {name} missing"))
    };
    let t1 = median_of("threads1");
    let t2 = median_of("threads2");
    let ablation = Row::new()
        .with("workload", "torus3x3_fd")
        .with("period", ABLATION.1)
        .with("t1_median_ns", t1 as usize)
        .with("t2_median_ns", t2 as usize)
        .with("speedup_t2_vs_t1", t1 as f64 / t2.max(1) as f64);

    // The settled outcomes, re-run once each: the trajectory pins *what*
    // the timed work proved, and regressing a settled theorem fails the
    // run.
    let outcomes: Vec<(&str, usize, Option<usize>, sg_search::EnumerateOutcome)> = workloads()
        .into_iter()
        .map(|(label, net, mode, period, want)| {
            (
                label,
                period,
                want,
                enumerate(&net, mode, &EnumerateConfig::default().exact_period(period)),
            )
        })
        .collect();
    let rows = outcomes
        .iter()
        .map(|(label, period, _, o)| {
            let (optimal, floor, verdict) = match (&o.certificate, o.best_rounds) {
                (Some(c), Some(t)) => (Some(t), Some(c.floor_rounds), c.verdict.label()),
                _ => (None, None, "infeasible"),
            };
            Row::new()
                .with("workload", *label)
                .with("period", *period)
                .with("optimal_rounds", optimal)
                .with("floor_rounds", floor)
                .with("verdict", verdict)
                .with("enumerated", o.enumerated)
                .with("pruned", o.pruned)
        })
        .collect();
    Trajectory::bench("enumeration")
        .results(c)
        .row("ablation", ablation)
        .rows("enumerations", rows)
        .save("enum");
    for (label, period, want, o) in &outcomes {
        let verdict = o
            .certificate
            .as_ref()
            .map_or("infeasible", |c| c.verdict.label());
        println!(
            "  {label} s={period}: optimum {:?} — {verdict}",
            o.best_rounds
        );
        // A settled theorem must stay settled: same optimum, proven
        // verdict (or exact infeasibility where that is the theorem).
        assert_eq!(
            o.best_rounds, *want,
            "{label}: settled optimum changed — enumeration or bound regression"
        );
        match want {
            Some(_) => assert!(
                matches!(
                    o.certificate.as_ref().map(|c| c.verdict),
                    Some(Verdict::ProvenOptimal { .. })
                ),
                "{label}: previously ProvenOptimal point regressed to a weaker verdict"
            ),
            None => assert!(
                o.proven_infeasible,
                "{label}: previously proven-infeasible point regressed"
            ),
        }
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_enumeration(&mut criterion);
    bench_thread_ablation(&mut criterion);
    write_bench_json(&criterion);
}
