//! Criterion benches for the delay-matrix machinery: digraph
//! construction, norm evaluation, λ* search, and the periodic-vs-unrolled
//! ablation called out in DESIGN.md; and the exact network diameter
//! that every cold bound, certificate and search query computes first.
//! `SG_BENCH_FAST=1` shrinks every sample count to 3.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sg_bench::fast_mode;
use std::hint::black_box;
use systolic_gossip::prelude::*;
use systolic_gossip::sg_delay::bound::lambda_star;
use systolic_gossip::sg_graphs::traversal::diameter;

fn workload(dd: usize) -> SystolicProtocol {
    let net = Network::DeBruijn { d: 2, dd };
    builders::edge_coloring_periodic(&net.build())
}

fn bench_delay_digraph(c: &mut Criterion) {
    let mut g = c.benchmark_group("delay_digraph_build");
    for dd in [5usize, 7, 9] {
        let sp = workload(dd);
        g.bench_with_input(BenchmarkId::new("periodic", 1 << dd), &sp, |b, sp| {
            b.iter(|| black_box(DelayDigraph::periodic(sp)))
        });
    }
    g.finish();
}

fn bench_norm(c: &mut Criterion) {
    let mut g = c.benchmark_group("delay_matrix_norm");
    for dd in [5usize, 7, 9] {
        let sp = workload(dd);
        let dg = DelayDigraph::periodic(&sp);
        g.bench_with_input(BenchmarkId::new("norm_at_0.7", 1 << dd), &dg, |b, dg| {
            b.iter(|| black_box(dg.norm(0.7, Default::default())))
        });
    }
    g.finish();
}

fn bench_lambda_star(c: &mut Criterion) {
    let sp = workload(6);
    let dg = DelayDigraph::periodic(&sp);
    c.bench_function("lambda_star_db26_coloring", |b| {
        b.iter(|| black_box(lambda_star(&dg, BoundOpts::default())))
    });
}

/// Ablation: unrolled delay matrices for increasing t vs the periodic
/// fold (DESIGN.md §4) — measures the cost of the literal Definition 3.3
/// object as the prefix grows.
fn bench_unrolled_ablation(c: &mut Criterion) {
    let sp = workload(6);
    let mut g = c.benchmark_group("unrolled_vs_periodic");
    for periods in [1usize, 2, 4, 8] {
        g.bench_with_input(
            BenchmarkId::new("unrolled_norm", periods),
            &periods,
            |b, &p| {
                b.iter(|| {
                    let dg = DelayDigraph::unrolled(&sp, p * sp.s());
                    black_box(dg.norm(0.7, Default::default()))
                })
            },
        );
    }
    g.bench_function("periodic_norm", |b| {
        b.iter(|| {
            let dg = DelayDigraph::periodic(&sp);
            black_box(dg.norm(0.7, Default::default()))
        })
    });
    g.finish();
}

/// `sg_graphs::traversal::diameter` on the daemon's cold-key shape
/// (a random 3-regular graph), three structured families, and the
/// long-diameter worst cases C₄₀₉₆ and P₂₀₄₈, whose rounds change only
/// a few rows each.
fn bench_graph_diameter(c: &mut Criterion) {
    let networks = [
        Network::RandomRegular {
            n: 512,
            d: 3,
            seed: 1,
        },
        Network::Hypercube { k: 10 },
        Network::Knodel { delta: 10, n: 1024 },
        Network::Torus2d { w: 30, h: 30 },
        Network::Cycle { n: 4096 },
        Network::Path { n: 2048 },
    ];
    let mut g = c.benchmark_group("graph_diameter");
    for net in networks {
        let graph = net.build();
        g.bench_with_input(
            BenchmarkId::new("diameter", net.name()),
            &graph,
            |b, graph| b.iter(|| black_box(diameter(graph))),
        );
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(if fast_mode() { 3 } else { 20 });
    targets = bench_delay_digraph, bench_norm, bench_lambda_star, bench_unrolled_ablation,
        bench_graph_diameter
}
criterion_main!(benches);
