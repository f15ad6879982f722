//! Criterion-shim benches for the dissemination engine, and the start of
//! the repo's perf trajectory: alongside the usual stdout report this
//! harness serializes every recorded timing — plus
//! reference-vs-optimized speedups — into `BENCH_sim.json` at the
//! workspace root (override with `SG_BENCH_JSON`), so regressions in the
//! simulation hot path become diffable.
//!
//! The headline ablation pits the four engines against each other on
//! n ≥ 1024 gossip executions: the retained naive `reference` oracle,
//! the `compiled` schedule hot path, the `sliced` 256-item-slice engine
//! on several threads (what the batch runner runs for a dense gossip
//! time at n ≥ 2048 given more than one thread), and the run-compressed
//! `sparse` delta engine. One short run (hypercube, 11 rounds) and two
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
use systolic_gossip::prelude::*;
use systolic_gossip::sg_sim::reference::systolic_gossip_time_reference;
use systolic_gossip::sg_sim::sliced::{run_systolic_large, run_systolic_sliced};
use systolic_gossip::sg_sim::sparse::systolic_gossip_time_sparse;

fn fast_mode() -> bool {
    std::env::var("SG_BENCH_FAST").is_ok_and(|v| v == "1")
}

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
/// `sim_large/<family>/<n>`.
fn bench_sim_large(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim_large");
    g.sample_size(if fast_mode() { 1 } else { 2 });

    let workloads: Vec<(&str, Network)> = if fast_mode() {
        // CI smoke: one mid-size Knödel point keeps the group's labels
        // (and the JSON shape) exercised without the multi-second runs.
        vec![(
            "knodel",
            Network::Knodel {
                delta: 16,
                n: 65_536,
            },
        )]
    } else {
        vec![
            (
                "knodel",
                Network::Knodel {
                    delta: 16,
                    n: 100_000,
                },
            ),
            (
                "knodel",
                Network::Knodel {
                    delta: 20,
                    n: 1_048_576,
                },
            ),
            (
                "rr3",
                Network::RandomRegular {
                    n: 50_000,
                    d: 3,
                    seed: 1997,
                },
            ),
            (
                "rr3",
                Network::RandomRegular {
                    n: 100_000,
                    d: 3,
                    seed: 1997,
                },
            ),
        ]
    };
    for (family, net) in workloads {
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
                    run_systolic_large(sp, n, budget, false, None, threads)
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

/// Where the trajectory file goes: the workspace root, next to
/// `Cargo.lock` (cargo runs benches with the package dir as CWD).
fn json_path() -> std::path::PathBuf {
    if let Ok(p) = std::env::var("SG_BENCH_JSON") {
        return p.into();
    }
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_sim.json")
}

fn median_of(c: &Criterion, name: &str) -> Option<u128> {
    c.results()
        .iter()
        .find(|r| r.name == name)
        .map(|r| r.median_ns)
}

fn write_bench_json(c: &Criterion) -> Vec<(&'static str, &'static str, f64)> {
    let unix_secs = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let mut out = String::from("{\n");
    out.push_str("  \"suite\": \"sim\",\n");
    out.push_str(&format!("  \"fast\": {},\n", fast_mode()));
    out.push_str(&format!("  \"generated_unix\": {unix_secs},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in c.results().iter().enumerate() {
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"min_ns\": {}, \"median_ns\": {}, \"mean_ns\": {}, \"samples\": {}}}{}\n",
            r.name,
            r.min_ns,
            r.median_ns,
            r.mean_ns,
            r.samples,
            if i + 1 == c.results().len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");

    // Reference-vs-optimized speedups on the n >= 1024 workloads.
    let mut speedups = Vec::new();
    for workload in ["hypercube/2048", "debruijn/1024", "grid/4096"] {
        let Some(reference) = median_of(c, &format!("engine_ablation/reference/{workload}")) else {
            continue;
        };
        for engine in ["compiled", "sliced", "sparse"] {
            if let Some(t) = median_of(c, &format!("engine_ablation/{engine}/{workload}")) {
                speedups.push((workload, engine, reference as f64 / t.max(1) as f64));
            }
        }
    }
    out.push_str("  \"speedups\": [\n");
    for (i, (workload, engine, s)) in speedups.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"workload\": \"{workload}\", \"baseline\": \"reference\", \"engine\": \"{engine}\", \"speedup_median\": {s:.3}}}{}\n",
            if i + 1 == speedups.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");

    let path = json_path();
    std::fs::write(&path, &out).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
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
