//! Integration: the soundness loop. Every executable protocol we can
//! construct — hand-built, universal edge-coloring, randomized greedy —
//! must finish no earlier than every lower bound the theory produces for
//! it. This is the strongest end-to-end check of the reproduction: it
//! chains generators → protocols → simulator → delay matrices → norms →
//! bounds.

use rand::rngs::StdRng;
use rand::SeedableRng;
use systolic_gossip::prelude::*;

fn assert_audit_sound(net: &Network, sp: &SystolicProtocol, budget: usize) {
    let a = audit(net, sp, budget, BoundOpts::default());
    assert!(a.validation.is_ok(), "{}: {:?}", net.name(), a.validation);
    assert!(
        a.measured_rounds.is_some(),
        "{}: protocol did not complete in {budget} rounds",
        net.name()
    );
    assert!(a.is_sound(), "soundness violation:\n{a}");
}

#[test]
fn hand_protocols_sound() {
    assert_audit_sound(&Network::Path { n: 17 }, &builders::path_rrll(17), 2000);
    assert_audit_sound(&Network::Cycle { n: 16 }, &builders::cycle_rrll(16), 2000);
    assert_audit_sound(
        &Network::Cycle { n: 16 },
        &builders::cycle_two_color_directed(16),
        2000,
    );
    assert_audit_sound(
        &Network::Hypercube { k: 6 },
        &builders::hypercube_sweep(6),
        100,
    );
    assert_audit_sound(
        &Network::Grid2d { w: 6, h: 5 },
        &builders::grid_traffic_light(6, 5),
        5000,
    );
    assert_audit_sound(
        &Network::Knodel { delta: 6, n: 64 },
        &builders::knodel_sweep(6, 64),
        1000,
    );
}

#[test]
fn universal_coloring_protocols_sound_on_hypercubic_networks() {
    let nets = [
        Network::WrappedButterfly { d: 2, dd: 4 },
        Network::Butterfly { d: 2, dd: 3 },
        Network::DeBruijn { d: 2, dd: 5 },
        Network::Kautz { d: 2, dd: 4 },
        Network::ShuffleExchange { dd: 5 },
        Network::CubeConnectedCycles { k: 4 },
        Network::DaryTree { d: 3, h: 3 },
        Network::Torus2d { w: 5, h: 5 },
    ];
    for net in nets {
        let g = net.build();
        assert_audit_sound(&net, &builders::edge_coloring_periodic(&g), 100_000);
    }
}

#[test]
fn full_duplex_coloring_protocols_sound() {
    for net in [
        Network::WrappedButterfly { d: 2, dd: 4 },
        Network::DeBruijn { d: 2, dd: 5 },
        Network::Grid2d { w: 5, h: 5 },
    ] {
        let g = net.build();
        assert_audit_sound(&net, &builders::full_duplex_coloring_periodic(&g), 100_000);
    }
}

/// Greedy (non-systolic) protocols must respect the *non-systolic*
/// closed-form bound with its log-log slack, and the diameter bound.
#[test]
fn greedy_protocols_respect_nonsystolic_bounds() {
    let mut rng = StdRng::seed_from_u64(0x9055);
    for net in [
        Network::WrappedButterfly { d: 2, dd: 4 },
        Network::DeBruijn { d: 2, dd: 6 },
        Network::Kautz { d: 2, dd: 5 },
        Network::Hypercube { k: 6 },
    ] {
        let g = net.build();
        let n = g.vertex_count();
        let out = greedy_gossip(&g, Mode::HalfDuplex, 100 * n, &mut rng).expect("completes");
        let t = out.rounds as f64;
        // General non-systolic half-duplex bound with the O(log log n)
        // allowance of the theorem.
        let bound = e_general_nonsystolic() * (n as f64).log2();
        let slack = 2.0 * t.max(2.0).log2();
        assert!(
            bound - slack <= t + 1e-9,
            "{}: greedy {t} beats the 1.4404·log n bound ({bound:.1} − {slack:.1})",
            net.name()
        );
        // And the hard diameter bound.
        let diam = systolic_gossip::sg_graphs::traversal::diameter(&g).unwrap() as f64;
        assert!(t >= diam);
    }
}

/// Theorem 4.1 on the concrete separator sets (Theorem 5.1 with measured
/// distance/size) stays below real executions.
#[test]
fn separator_protocol_bounds_sound() {
    for (net, dd_protocol) in [
        (Network::WrappedButterfly { d: 2, dd: 4 }, None),
        (Network::DeBruijn { d: 2, dd: 5 }, None),
    ] {
        let g = net.build();
        let n = g.vertex_count();
        let sp = dd_protocol.unwrap_or_else(|| builders::edge_coloring_periodic(&g));
        let measured = systolic_gossip_time(&sp, n, 100_000).expect("completes") as f64;
        let sep = net.concrete_separator().expect("hypercubic family");
        let dist = sep.measured_distance(&g).expect("connected");
        let b = theorem_5_1_bound(&sp, dist, sep.min_size(), 16, BoundOpts::default())
            .expect("bound exists");
        assert!(
            b.rounds <= measured + 1e-9,
            "{}: Thm 5.1 gives {} > measured {measured}",
            net.name(),
            b.rounds
        );
    }
}

/// The s = 2 degenerate case: the directed-cycle protocol meets its
/// linear bound exactly (up to the parity round).
#[test]
fn s2_cycle_meets_linear_bound() {
    use systolic_gossip::sg_delay::bound::s2_lower_bound;
    for n in [8usize, 12, 20] {
        let sp = builders::cycle_two_color_directed(n);
        let bound = s2_lower_bound(&sp, n).unwrap();
        let measured = systolic_gossip_time(&sp, n, 4 * n).expect("completes");
        assert!(measured >= bound);
        assert!(measured <= bound + 1, "protocol should be near-optimal");
    }
}

/// The s = 2 full-duplex floor: the two-colour schedule of an even cycle
/// activates a Hamiltonian cycle, so gossip takes its diameter ⌊n/2⌋ —
/// not the n − 1 of the one-way modes, which would flag it as a
/// violation.
#[test]
fn full_duplex_coloring_periodic() {
    use systolic_gossip::sg_delay::bound::s2_lower_bound;
    for n in [8usize, 16, 20] {
        let net = Network::Cycle { n };
        let sp = builders::full_duplex_coloring_periodic(&net.build());
        assert_eq!(sp.s(), 2, "{}", net.name());
        assert_audit_sound(&net, &sp, 4 * n);
        let bound = s2_lower_bound(&sp, n).unwrap();
        let measured = systolic_gossip_time(&sp, n, 4 * n).expect("completes");
        assert!(measured >= bound, "{}: {measured} < {bound}", net.name());
    }
}
