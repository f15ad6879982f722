//! Criterion-shim benches for the dissemination engine, and the start of
//! the repo's perf trajectory: alongside the usual stdout report this
//! harness serializes every recorded timing — plus
//! reference-vs-optimized speedups — into `BENCH_sim.json` at the
//! workspace root through [`sg_bench::Trajectory`], so regressions in
//! the simulation hot path become diffable.
//!
//! The headline ablation pits the four engines against each other on
//! n ≥ 1024 gossip executions: the retained naive `reference` oracle,
//! the `compiled` schedule hot path, the `sliced` 256-item-slice engine
//! on several threads (what the batch runner runs for a dense gossip
//! time at n ≥ 2048 given more than one thread), and the run-compressed
//! `sparse` row engine. One short run (hypercube, 11 rounds) and two
//! long ones (de Bruijn colouring, grid traffic light at 127 rounds)
//! bracket the compiled-versus-sliced choice. A second group,
//! `sim_large`, records the large-instance driver's production sizes —
//! up to the n ≈ 10⁶ Knödel gossip point that dense engines cannot
//! represent (the n × n bit table alone would be 125 GB). Knödel rows
//! stay interval runs, so those points stay on the sparse engine; the
//! random 3-regular points hand off to the item-sliced engine.
//! `SG_BENCH_FAST=1` shrinks sample counts and sizes for CI smoke runs.
//! The compiled-vs-reference speedup on hypercube n = 2048 is a hard
//! floor: below 1.0× the harness panics.

use criterion::{black_box, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sg_bench::{fast_mode, median_ns, Trajectory};
use systolic_gossip::prelude::*;
use systolic_gossip::sg_sim::reference::systolic_gossip_time_reference;
use systolic_gossip::sg_sim::sliced::{run_systolic_large, run_systolic_sliced};
use systolic_gossip::sg_sim::sparse::systolic_gossip_time_sparse;
use systolic_gossip::Row;

/// Thread count for the sliced and large-driver entries: one per core,
/// capped at 8 — an n = 2048 run has only 8 slices.
fn sim_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(8)
}

/// The engine ablation: three workloads, four engines each, identical
/// results — only the wall time differs. Labels are
/// `engine_ablation/<engine>/<workload>/<n>`.
fn bench_engine_ablation(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine_ablation");
    g.sample_size(if fast_mode() { 3 } else { 10 });

    // Hypercube sweep, n = 2048: full-duplex dimension rounds, the
    // snapshot-heavy case (every source is also a target), 11 rounds.
    let k = 11;
    let hypercube = builders::hypercube_sweep(k);
    // De Bruijn edge-coloring, n = 1024: half-duplex matchings, the
    // snapshot-free case with a long round count.
    let dd = 10;
    let debruijn = builders::edge_coloring_periodic(&Network::DeBruijn { d: 2, dd }.build());
    // Grid 64×64 traffic light, n = 4096: 127 rounds, a long dense run
    // over which the sliced engine's per-call plan is amortised.
    let side = 64;
    let grid = builders::grid_traffic_light(side, side);
    let workloads = [
        ("hypercube", hypercube, 1usize << k, 4 * k),
        ("debruijn", debruijn, 1 << dd, 200 * dd),
        ("grid", grid, side * side, 8 * side),
    ];
    let threads = sim_threads();
    for (name, sp, n, budget) in &workloads {
        let (n, budget) = (*n, *budget);
        let id = |engine: &str| BenchmarkId::new(format!("{engine}/{name}"), n);
        g.bench_with_input(id("reference"), sp, |b, sp| {
            b.iter(|| black_box(systolic_gossip_time_reference(sp, n, budget)))
        });
        g.bench_with_input(id("compiled"), sp, |b, sp| {
            b.iter(|| black_box(systolic_gossip_time(sp, n, budget)))
        });
        // Plan built per call, exactly as the batch runner drives it.
        g.bench_with_input(id("sliced"), sp, |b, sp| {
            b.iter(|| black_box(run_systolic_sliced(sp, n, budget, false, threads).completed_at))
        });
        g.bench_with_input(id("sparse"), sp, |b, sp| {
            b.iter(|| black_box(systolic_gossip_time_sparse(sp, n, budget)))
        });
    }
    g.finish();
}

/// The large-instance driver's production sizes: networks whose dense
/// bit table would not fit in memory. Each entry times one full gossip
/// execution (protocol construction excluded) on `sim_threads()`
/// threads; the headline is the n = 2²⁰ Knödel graph — a
/// million-vertex gossip measured in seconds. Labels are
/// `sim_large/<family>/<n>`; `rr3-trace` also builds the min-count
/// trace, as the batch runner's large-sim unit always does. Five
/// samples per point, so the median is the middle sample rather than
/// the mean of two.
fn bench_sim_large(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_large");
    g.sample_size(if fast_mode() { 1 } else { 5 });

    // What the batch runner's large-sim unit runs: the traced driver.
    let traced = (
        "rr3-trace",
        Network::RandomRegular {
            n: 50_000,
            d: 3,
            seed: 1997,
        },
        true,
    );
    let workloads: Vec<(&str, Network, bool)> = if fast_mode() {
        // CI smoke: one mid-size Knödel point keeps the group's labels
        // (and the JSON shape) exercised without the multi-second runs;
        // the traced point (~1.5 s) runs the runner's path.
        vec![
            (
                "knodel",
                Network::Knodel {
                    delta: 16,
                    n: 65_536,
                },
                false,
            ),
            traced,
        ]
    } else {
        vec![
            (
                "knodel",
                Network::Knodel {
                    delta: 16,
                    n: 100_000,
                },
                false,
            ),
            (
                "knodel",
                Network::Knodel {
                    delta: 20,
                    n: 1_048_576,
                },
                false,
            ),
            (
                "rr3",
                Network::RandomRegular {
                    n: 50_000,
                    d: 3,
                    seed: 1997,
                },
                false,
            ),
            (
                "rr3",
                Network::RandomRegular {
                    n: 100_000,
                    d: 3,
                    seed: 1997,
                },
                false,
            ),
            traced,
        ]
    };
    for (family, net, trace) in workloads {
        let n = net
            .order_hint()
            .expect("sim_large nets have closed-form orders");
        let sp = net
            .reference_protocol()
            .expect("sim_large nets have reference protocols");
        // Generous: every workload either completes or reaches the
        // fixed-point early exit well within this.
        let budget = 64 * sp.s() + 4096;
        let threads = sim_threads();
        g.bench_with_input(BenchmarkId::new(family, n), &sp, |b, sp| {
            b.iter(|| {
                black_box(
                    run_systolic_large(sp, n, budget, trace, None, threads)
                        .result
                        .completed_at,
                )
            })
        });
    }
    g.finish();
}

fn bench_gossip_executions(c: &mut Criterion) {
    let mut g = c.benchmark_group("gossip_execution");
    g.sample_size(if fast_mode() { 3 } else { 30 });
    for k in [8usize, 10] {
        let sp = builders::hypercube_sweep(k);
        let n = 1usize << k;
        g.bench_with_input(BenchmarkId::new("hypercube_sweep", n), &sp, |b, sp| {
            b.iter(|| black_box(systolic_gossip_time(sp, n, 4 * k)))
        });
    }
    for dd in [8usize, 10] {
        let net = Network::DeBruijn { d: 2, dd };
        let graph = net.build();
        let sp = builders::edge_coloring_periodic(&graph);
        let n = graph.vertex_count();
        g.bench_with_input(BenchmarkId::new("db_coloring", n), &sp, |b, sp| {
            b.iter(|| black_box(systolic_gossip_time(sp, n, 200 * dd)))
        });
    }
    g.finish();
}

fn bench_greedy(c: &mut Criterion) {
    let mut g = c.benchmark_group("greedy_generation");
    g.sample_size(if fast_mode() { 2 } else { 10 });
    let net = Network::WrappedButterfly { d: 2, dd: 5 };
    let graph = net.build();
    g.bench_function("wbf25_half_duplex", |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(7);
            black_box(greedy_gossip(&graph, Mode::HalfDuplex, 10_000, &mut rng))
        })
    });
    g.finish();
}

fn write_bench_json(c: &Criterion) -> Vec<(&'static str, &'static str, f64)> {
    // Reference-vs-optimized speedups on the n >= 1024 workloads.
    let mut speedups = Vec::new();
    for workload in ["hypercube/2048", "debruijn/1024", "grid/4096"] {
        let Some(reference) = median_ns(c, &format!("engine_ablation/reference/{workload}")) else {
            continue;
        };
        for engine in ["compiled", "sliced", "sparse"] {
            if let Some(t) = median_ns(c, &format!("engine_ablation/{engine}/{workload}")) {
                speedups.push((workload, engine, reference as f64 / t.max(1) as f64));
            }
        }
    }
    let rows = speedups
        .iter()
        .map(|&(workload, engine, s)| {
            Row::new()
                .with("workload", workload)
                .with("baseline", "reference")
                .with("engine", engine)
                .with("speedup_median", s)
        })
        .collect();
    Trajectory::bench("sim")
        .results(c)
        .rows("speedups", rows)
        .save("sim");
    for (workload, engine, s) in &speedups {
        println!("  {engine:>9} vs reference on {workload}: {s:.2}x");
    }
    speedups
}

fn main() {
    let mut criterion = Criterion::default();
    bench_engine_ablation(&mut criterion);
    bench_sim_large(&mut criterion);
    if !fast_mode() {
        bench_gossip_executions(&mut criterion);
        bench_greedy(&mut criterion);
    }
    let speedups = write_bench_json(&criterion);

    // Perf floor: the compiled engine, the dense hot path, must beat
    // the naive reference on the snapshot-heavy hypercube workload.
    let compiled = speedups
        .iter()
        .find(|(w, e, _)| *w == "hypercube/2048" && *e == "compiled")
        .map(|(_, _, s)| *s)
        .expect("compiled hypercube/2048 speedup missing from results");
    assert!(
        compiled >= 1.0,
        "compiled engine regressed below the reference on hypercube/2048: {compiled:.3}x"
    );
    println!("floor: compiled vs reference on hypercube/2048 = {compiled:.2}x (floor 1.0x) ok");
}
