//! Shared helpers for the benchmark harness.
//!
//! The former per-figure binaries were replaced by the `sg-bench` CLI
//! over [`sg_scenario::registry()`]; what remains here is the hand-curated
//! workload corpus the micro-benchmarks and the workload-validation test
//! use. Prefer the scenario registry for anything user-facing.

#![forbid(unsafe_code)]

use systolic_gossip::prelude::*;

/// The standard half-duplex workload set: `(name, network, protocol)`
/// triples with an executable systolic protocol each.
pub fn half_duplex_workloads() -> Vec<(String, Network, SystolicProtocol)> {
    let mut out: Vec<(String, Network, SystolicProtocol)> = Vec::new();
    let path = Network::Path { n: 32 };
    out.push(("path RRLL".into(), path, builders::path_rrll(32)));
    let cyc = Network::Cycle { n: 32 };
    out.push(("cycle RRLL".into(), cyc, builders::cycle_rrll(32)));
    for net in [
        Network::WrappedButterfly { d: 2, dd: 5 },
        Network::DeBruijn { d: 2, dd: 7 },
        Network::Kautz { d: 2, dd: 6 },
        Network::Butterfly { d: 2, dd: 4 },
    ] {
        let g = net.build();
        out.push((
            format!("coloring {}", net.name()),
            net,
            builders::edge_coloring_periodic(&g),
        ));
    }
    out
}

/// The standard full-duplex workload set.
pub fn full_duplex_workloads() -> Vec<(String, Network, SystolicProtocol)> {
    use systolic_gossip::sg_protocol::builders::full_duplex_coloring_periodic;
    let mut out: Vec<(String, Network, SystolicProtocol)> = Vec::new();
    out.push((
        "hypercube sweep".into(),
        Network::Hypercube { k: 7 },
        builders::hypercube_sweep(7),
    ));
    out.push((
        "Knödel sweep".into(),
        Network::Knodel { delta: 7, n: 128 },
        builders::knodel_sweep(7, 128),
    ));
    out.push((
        "grid traffic light".into(),
        Network::Grid2d { w: 10, h: 10 },
        builders::grid_traffic_light(10, 10),
    ));
    for net in [
        Network::WrappedButterfly { d: 2, dd: 5 },
        Network::DeBruijn { d: 2, dd: 7 },
    ] {
        let g = net.build();
        out.push((
            format!("fd coloring {}", net.name()),
            net,
            full_duplex_coloring_periodic(&g),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_valid() {
        for (name, net, sp) in half_duplex_workloads()
            .into_iter()
            .chain(full_duplex_workloads())
        {
            sp.validate(&net.build())
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }
}
