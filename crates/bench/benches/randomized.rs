//! Criterion-shim bench for the randomized-gossip baselines, and the
//! sixth file of the repo's perf trajectory: alongside the stdout
//! report it serializes every recorded timing — plus the deterministic
//! push/pull/exchange comparison table (mean/median/p95/max stopping
//! times and the ratio to the systolic optimum or lower-bound floor) —
//! into `BENCH_rand.json` at the workspace root through
//! [`sg_bench::Trajectory`], uploaded by CI next to the other trajectory
//! files.
//!
//! The workload is four topologies spanning the repo's yardstick
//! spectrum: `C₆₄` (Θ(n) stopping times, where randomized Exchange
//! legitimately lands *under* the non-optimal s = 4 reference
//! schedule), the proven-optimal `Q₈` and `W(6,64)` (randomized can
//! never beat those), and a random 3-regular graph at n = 10⁵ run
//! through the sparse row table against the ⌈lg n⌉ doubling floor.
//! Trials are pure counter-based functions of `(seed, trial, round)`,
//! so every recorded stopping time is bit-deterministic. The run
//! *fails* if any mean lands under the universal floor, or under a
//! proven optimum — the soundness theorems the comparison is built on
//! must stay settled.

use criterion::{black_box, BenchmarkId, Criterion};
use sg_bench::{fast_mode, Trajectory};
use systolic_gossip::ceil_log2;
use systolic_gossip::prelude::*;
use systolic_gossip::sg_graphs::traversal::diameter;
use systolic_gossip::sg_sim::random::{
    run_randomized, summarize, ActivationModel, RandomizedConfig, RandomizedSummary,
};
use systolic_gossip::sg_sim::run_systolic;
use systolic_gossip::Row;

/// The master seed every recorded point uses: fixed, so the trajectory
/// compares like with like across commits.
const RAND_SEED: u64 = 1997;

/// Per-trial sparse-state ceiling, matching the batch runner's
/// large-sim budget.
const MEM_LIMIT: usize = 6 << 30;

/// One compared workload.
struct Workload {
    label: &'static str,
    net: Network,
    /// Independent trials per activation model.
    trials: usize,
    /// Exact measured time of the network's deterministic reference
    /// protocol (absent at large n, where running it densely is off
    /// the table).
    optimum: Option<usize>,
    /// Universal lower bound on *any* gossip in this model:
    /// max(diameter, ⌈lg n⌉) — items travel one hop per round and
    /// knowledge at best doubles. Sound for randomized protocols too,
    /// unlike the systolic-specific bounds.
    floor: usize,
}

fn workloads() -> Vec<Workload> {
    let small_trials = if fast_mode() { 25 } else { 100 };
    let large_trials = if fast_mode() { 1 } else { 2 };
    let mut out = Vec::new();
    for (label, net) in [
        ("cycle64", Network::Cycle { n: 64 }),
        ("hypercube8", Network::Hypercube { k: 8 }),
        ("knodel64", Network::Knodel { delta: 6, n: 64 }),
    ] {
        let g = net.build();
        let n = g.vertex_count();
        let sp = net.reference_protocol().expect("reference protocol");
        let optimum = run_systolic(&sp, n, 40 * n + 200, false)
            .completed_at
            .expect("reference protocol completes");
        let floor = (diameter(&g).expect("connected") as usize).max(ceil_log2(n));
        out.push(Workload {
            label,
            net,
            trials: small_trials,
            optimum: Some(optimum),
            floor,
        });
    }
    // The n = 10⁵ point: no dense reference run, no Ω(n²) diameter —
    // the ⌈lg n⌉ doubling floor is the yardstick.
    out.push(Workload {
        label: "rr100k",
        net: Network::RandomRegular {
            n: 100_000,
            d: 3,
            seed: 1997,
        },
        trials: large_trials,
        optimum: None,
        floor: ceil_log2(100_000),
    });
    out
}

fn batch_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

fn run_batch_for(g: &Digraph, model: ActivationModel, trials: usize) -> Option<RandomizedSummary> {
    let cfg = RandomizedConfig {
        model,
        trials,
        seed: RAND_SEED,
        max_rounds: 1_000_000,
        threads: batch_threads(),
        mem_limit: Some(MEM_LIMIT),
    };
    summarize(&run_randomized(g, &cfg))
}

fn bench_randomized(c: &mut Criterion) {
    let mut group = c.benchmark_group("randomized");
    group.sample_size(if fast_mode() { 2 } else { 10 });
    // Timed points stay on the small workloads (a single trial each);
    // the n = 10⁵ point is recorded once in the comparison table below,
    // not timed in a loop.
    for (label, net) in [
        ("cycle64", Network::Cycle { n: 64 }),
        ("hypercube8", Network::Hypercube { k: 8 }),
    ] {
        let g = net.build();
        for model in ActivationModel::ALL {
            group.bench_with_input(BenchmarkId::new(label, model.label()), &g, |b, g| {
                b.iter(|| {
                    black_box(systolic_gossip::sg_sim::random::run_trial(
                        g, model, RAND_SEED, 0, 1_000_000, None,
                    ))
                })
            });
        }
    }
    group.finish();
}

fn write_bench_json(c: &Criterion) {
    // The deterministic comparison table: every workload × activation
    // model, with the ratio to the exact systolic optimum (small n) or
    // the universal floor (the n = 10⁵ point). The trajectory pins
    // *what* the timed machinery computes; a mean under the universal
    // floor — or under a proven optimum — fails the run.
    struct CompRow {
        label: &'static str,
        n: usize,
        model: &'static str,
        trials: usize,
        optimum: Option<usize>,
        floor: usize,
        s: RandomizedSummary,
    }
    let mut rows: Vec<CompRow> = Vec::new();
    for w in workloads() {
        let g = w.net.build();
        let n = g.vertex_count();
        for model in ActivationModel::ALL {
            let s = run_batch_for(&g, model, w.trials)
                .unwrap_or_else(|| panic!("{}/{}: no trial completed", w.label, model.label()));
            rows.push(CompRow {
                label: w.label,
                n,
                model: model.label(),
                trials: w.trials,
                optimum: w.optimum,
                floor: w.floor,
                s,
            });
        }
    }
    let comparison = rows
        .iter()
        .map(|r| {
            let denominator = r.optimum.unwrap_or(r.floor) as f64;
            Row::new()
                .with("workload", r.label)
                .with("n", r.n)
                .with("model", r.model)
                .with("trials", r.trials)
                .with("completed", r.s.completed)
                .with("mean_rounds", r.s.mean)
                .with("median_rounds", r.s.median)
                .with("p95_rounds", r.s.p95)
                .with("max_rounds", r.s.max)
                .with("optimum_rounds", r.optimum)
                .with("floor_rounds", r.floor)
                .with("ratio_to_optimum", r.s.mean / denominator)
        })
        .collect();
    Trajectory::bench("randomized")
        .scalar("seed", RAND_SEED as usize)
        .results(c)
        .rows("comparison", comparison)
        .save("rand");
    for CompRow {
        label,
        model,
        trials,
        optimum,
        floor,
        s,
        ..
    } in &rows
    {
        println!(
            "  {label}/{model}: mean {:.1} median {} p95 {} max {} (optimum {:?}, floor {floor})",
            s.mean, s.median, s.p95, s.max, optimum
        );
        assert_eq!(
            s.completed, *trials,
            "{label}/{model}: not every trial completed"
        );
        // Universal soundness: no gossip — randomized or not — beats
        // max(diameter, ⌈lg n⌉).
        assert!(
            s.mean >= *floor as f64,
            "{label}/{model}: mean {:.2} under the universal floor {floor}",
            s.mean
        );
        // Proven optima stay unbeaten: where the reference schedule
        // meets the universal floor it is exactly optimal (Q₈ and
        // W(6,64)), and an oblivious randomized mean can never land
        // under it. (C₆₄'s s = 4 reference is *not* optimal —
        // Exchange lands under it, which is the interesting row.)
        if let Some(opt) = optimum {
            if opt == floor {
                assert!(
                    s.mean >= *opt as f64,
                    "{label}/{model}: mean {:.2} beat the proven optimum {opt}",
                    s.mean
                );
            }
        }
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_randomized(&mut criterion);
    write_bench_json(&criterion);
}
