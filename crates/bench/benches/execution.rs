//! Criterion-shim bench for the distributed execution subsystem, and
//! the fourth file of the repo's perf trajectory: alongside the stdout
//! report it serializes every recorded timing — plus the deterministic
//! rounds-to-completion of each workload at fault rates 0, 0.01 and
//! 0.05 — into `BENCH_exec.json` at the workspace root through
//! [`sg_bench::Trajectory`], uploaded by CI next to `BENCH_sim.json` /
//! `BENCH_search.json` / `BENCH_enum.json`.
//!
//! The workload is four proven-optimal reference schedules — `P₈`,
//! `Q₃`, `W(3,8)` and `Torus(4×4)` — each executed as a per-vertex
//! message-passing node fleet under a seeded `FaultPlan`. Fault
//! sampling is a pure counter-based function of the seed, so every
//! recorded round count is bit-deterministic. The run *fails* if a
//! fault-free execution diverges from the simulator's exact optimum —
//! the conformance theorem the exec layer is built on must stay
//! settled.

use criterion::{black_box, BenchmarkId, Criterion};
use sg_bench::{fast_mode, Trajectory};
use sg_exec::{execute_protocol, DriverConfig, FaultPlan, RunReport};
use systolic_gossip::prelude::*;
use systolic_gossip::sg_sim::run_systolic;
use systolic_gossip::Row;

/// The fault seed every recorded point uses: fixed, so the trajectory
/// compares like with like across commits.
const FAULT_SEED: u64 = 1997;

/// Per-link drop probabilities of the recorded sweep.
const DROP_RATES: [f64; 3] = [0.0, 0.01, 0.05];

/// One executed workload: label and network (the schedule is the
/// network's proven-optimal reference protocol).
fn workloads() -> Vec<(&'static str, Network)> {
    vec![
        ("path8", Network::Path { n: 8 }),
        ("hypercube3", Network::Hypercube { k: 3 }),
        ("knodel38", Network::Knodel { delta: 3, n: 8 }),
        ("torus4x4", Network::Torus2d { w: 4, h: 4 }),
    ]
}

/// The simulator's exact completion round for the network's reference
/// protocol — the baseline every execution is judged against.
fn optimum(net: &Network) -> (usize, usize) {
    let n = net.build().vertex_count();
    let sp = net.reference_protocol().expect("reference protocol");
    let t = run_systolic(&sp, n, 40 * n + 200, false)
        .completed_at
        .expect("reference protocol completes");
    (n, t)
}

/// Executes the network's reference schedule under `drop_prob`.
fn execute(net: &Network, n: usize, drop_prob: f64) -> RunReport {
    let sp = net.reference_protocol().expect("reference protocol");
    let plan = if drop_prob > 0.0 {
        FaultPlan::lossy(FAULT_SEED, drop_prob)
    } else {
        FaultPlan::fault_free()
    };
    execute_protocol(
        &sp,
        n,
        plan,
        DriverConfig {
            max_rounds: (400 * n + 2000) as u64,
            ..DriverConfig::default()
        },
    )
}

fn bench_execution(c: &mut Criterion) {
    let mut g = c.benchmark_group("execution");
    g.sample_size(if fast_mode() { 2 } else { 10 });
    for (label, net) in workloads() {
        let (n, _) = optimum(&net);
        g.bench_with_input(BenchmarkId::new(label, "fault_free"), &net, |b, net| {
            b.iter(|| black_box(execute(net, n, 0.0)))
        });
        g.bench_with_input(BenchmarkId::new(label, "lossy_0.05"), &net, |b, net| {
            b.iter(|| black_box(execute(net, n, 0.05)))
        });
    }
    g.finish();
}

fn write_bench_json(c: &Criterion) {
    // The deterministic fault sweep: every workload at every drop rate,
    // re-run once each. The trajectory pins *what* the timed machinery
    // computes, and a fault-free divergence from the proven optimum
    // fails the run.
    let mut points: Vec<(&str, usize, usize, f64, RunReport)> = Vec::new();
    for (label, net) in workloads() {
        let (n, opt) = optimum(&net);
        for p in DROP_RATES {
            points.push((label, n, opt, p, execute(&net, n, p)));
        }
    }
    let rows = points
        .iter()
        .map(|&(label, n, opt, p, ref r)| {
            Row::new()
                .with("workload", label)
                .with("n", n)
                .with("drop_prob", p)
                .with("completed_rounds", r.completed_at.map(|t| t as usize))
                .with("optimum_rounds", opt)
                .with("gossip_sent", r.gossip_sent as usize)
                .with("dropped", r.dropped as usize)
                .with("retransmissions", r.retransmissions as usize)
        })
        .collect();
    Trajectory::bench("execution")
        .scalar("fault_seed", FAULT_SEED as usize)
        .results(c)
        .rows("executions", rows)
        .save("exec");
    for (label, _, opt, p, r) in &points {
        println!(
            "  {label} drop={p}: rounds {:?} (optimum {opt}, dropped {}, retx {})",
            r.completed_at, r.dropped, r.retransmissions
        );
        let rounds = r.completed_at.unwrap_or_else(|| {
            panic!("{label} drop={p}: execution did not complete within budget")
        });
        if *p == 0.0 {
            // The conformance theorem: a fault-free fleet finishes in
            // exactly the simulator's proven round count.
            assert_eq!(
                rounds as usize, *opt,
                "{label}: fault-free execution diverged from the proven optimum"
            );
            assert_eq!(r.dropped, 0, "{label}: fault-free run dropped messages");
        } else {
            // Faults cost rounds, never correctness.
            assert!(
                rounds as usize >= *opt,
                "{label} drop={p}: beat the proven optimum — fault sampling broken"
            );
        }
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_execution(&mut criterion);
    write_bench_json(&criterion);
}
