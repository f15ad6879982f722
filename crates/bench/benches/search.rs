//! Criterion-shim bench for the protocol-synthesis subsystem, and the
//! second file of the repo's perf trajectory: alongside the stdout
//! report it serializes every recorded timing — plus the certificate of
//! the benchmarked search — into `BENCH_search.json` at the workspace
//! root through [`sg_bench::Trajectory`], so the synthesis path is
//! diffable run-over-run just like the simulation hot path.
//!
//! The workload is the fixed-seed tiny search CI smokes on: `P_8` in
//! full-duplex mode at exact periods 2 and 4 (both certify `Optimal`
//! against the n − 1 diameter floor), plus the Q_3 doubling-floor
//! search. `SG_BENCH_FAST=1` shrinks sample counts for CI.

use criterion::{black_box, BenchmarkId, Criterion};
use sg_bench::{fast_mode, Trajectory};
use sg_search::{search, SearchConfig, Verdict};
use systolic_gossip::prelude::*;
use systolic_gossip::Row;

/// The benchmarked configuration: fixed seed, single thread (so the
/// numbers measure the annealer, not the scheduler), modest effort.
fn cfg(period: usize) -> SearchConfig {
    SearchConfig {
        restarts: 3,
        iterations: if fast_mode() { 80 } else { 200 },
        seed: 1997,
        threads: 1,
        ..Default::default()
    }
    .exact_period(period)
}

/// The one workload table both the timing pass and the outcome pinning
/// iterate — a single site to edit, so `results` and `searches` in the
/// JSON can never describe different workloads.
fn workloads() -> Vec<(&'static str, Network, usize)> {
    vec![
        ("path8_fd", Network::Path { n: 8 }, 2),
        ("path8_fd", Network::Path { n: 8 }, 4),
        ("hypercube3_fd", Network::Hypercube { k: 3 }, 3),
    ]
}

fn bench_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("protocol_search");
    g.sample_size(if fast_mode() { 2 } else { 10 });
    for (label, net, period) in workloads() {
        g.bench_with_input(BenchmarkId::new(label, period), &period, |b, &p| {
            b.iter(|| black_box(search(&net, Mode::FullDuplex, &cfg(p))))
        });
    }
    g.finish();
}

fn write_bench_json(c: &Criterion) {
    // The benchmarked searches' outcomes, re-run once each: the perf
    // trajectory also pins *what* the timed work produced.
    let outcomes: Vec<(&str, usize, sg_search::SearchOutcome)> = workloads()
        .into_iter()
        .map(|(label, net, period)| (label, period, search(&net, Mode::FullDuplex, &cfg(period))))
        .collect();
    let rows = outcomes
        .iter()
        .map(|(label, period, o)| {
            let (found, floor, verdict) = match (&o.certificate, o.best_rounds) {
                (Some(c), Some(t)) => (Some(t), Some(c.floor_rounds), c.verdict.label()),
                _ => (None, None, "incomplete"),
            };
            Row::new()
                .with("workload", *label)
                .with("period", *period)
                .with("found_rounds", found)
                .with("floor_rounds", floor)
                .with("verdict", verdict)
                .with("evaluations", o.evaluations)
        })
        .collect();
    Trajectory::bench("search")
        .results(c)
        .rows("searches", rows)
        .save("search");
    for (label, period, o) in &outcomes {
        let verdict = o
            .certificate
            .as_ref()
            .map_or("incomplete", |c| c.verdict.label());
        println!(
            "  {label} s={period}: found {:?} — {verdict}",
            o.best_rounds
        );
        // A fixed-seed smoke search on P_8 must stay optimal; regressing
        // to a gap here means the synthesis stack broke.
        if *label == "path8_fd" {
            assert!(
                matches!(
                    o.certificate.as_ref().map(|c| c.verdict),
                    Some(Verdict::Optimal)
                ),
                "fixed-seed P_8 search no longer certifies Optimal"
            );
        }
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_search(&mut criterion);
    write_bench_json(&criterion);
}
