//! Property-based tests of the randomized-gossip engine: the
//! counter-based streams, the arc expansion, and monotone knowledge on
//! the sparse row table (checked against the reference applier in
//! `engine_properties.rs`).

use proptest::prelude::*;
use sg_sim::random::{round_arcs, round_choices, run_trial, ActivationModel};
use sg_sim::sparse::SparseKnowledge;
use std::collections::HashSet;

fn model_strategy() -> impl Strategy<Value = ActivationModel> {
    prop_oneof![
        Just(ActivationModel::Push),
        Just(ActivationModel::Pull),
        Just(ActivationModel::Exchange),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Distinct `(seed, trial)` pairs draw distinct choice streams on a
    /// graph with real branching — the counter mix never collapses two
    /// trials onto one stream.
    #[test]
    fn distinct_counters_draw_distinct_streams(
        seed in 0u64..1 << 48,
        trial_a in 0u64..64,
        offset in 1u64..64,
    ) {
        let g = systolic_gossip::Network::Hypercube { k: 6 }.build();
        let trial_b = trial_a + offset;
        // A single round could collide by chance on a small graph;
        // three consecutive rounds (3 × 64 draws from {1..6}) cannot
        // at any plausible rate.
        let (mut a, mut b) = (Vec::new(), Vec::new());
        let (mut stream_a, mut stream_b) = (Vec::new(), Vec::new());
        for round in 0..3 {
            round_choices(&g, seed, trial_a, round, &mut a);
            round_choices(&g, seed, trial_b, round, &mut b);
            stream_a.extend_from_slice(&a);
            stream_b.extend_from_slice(&b);
        }
        prop_assert!(
            stream_a != stream_b,
            "trials {} and {} drew identical 3-round streams",
            trial_a,
            trial_b
        );
    }

    /// Every arc a round activates is an arc of the graph: for each
    /// `(from, to)` pair with `from != to`, `to` is reachable from
    /// `from` in one hop. (Self-loops only appear for isolated
    /// vertices, which the zoo graphs don't have.)
    #[test]
    fn activated_arcs_are_always_graph_arcs(
        model in model_strategy(),
        seed in 0u64..u64::MAX,
        trial in 0u64..256,
        round in 0u64..256,
    ) {
        let g = systolic_gossip::Network::Torus2d { w: 5, h: 4 }.build();
        let mut choices = Vec::new();
        let mut arcs = Vec::new();
        round_choices(&g, seed, trial, round, &mut choices);
        round_arcs(model, &choices, &mut arcs);
        match model {
            ActivationModel::Exchange => prop_assert_eq!(arcs.len(), 2 * g.vertex_count()),
            _ => prop_assert_eq!(arcs.len(), g.vertex_count()),
        }
        for &(from, to) in &arcs {
            prop_assert!(from != to, "self-loop on a non-isolated vertex");
            prop_assert!(
                g.has_arc(from as usize, to as usize),
                "activated non-arc {} -> {}",
                from,
                to
            );
        }
    }

    /// Knowledge is monotone: round over round, no vertex forgets an
    /// item, and per-vertex counts never decrease.
    #[test]
    fn knowledge_is_monotone_round_over_round(
        model in model_strategy(),
        seed in 0u64..u64::MAX,
        trial in 0u64..64,
    ) {
        let g = systolic_gossip::Network::Cycle { n: 12 }.build();
        let n = g.vertex_count();
        let mut k = SparseKnowledge::new(n);
        let mut choices = Vec::new();
        let mut arcs = Vec::new();
        let mut known: Vec<HashSet<usize>> = (0..n).map(|v| HashSet::from([v])).collect();
        for round in 0..24 {
            round_choices(&g, seed, trial, round, &mut choices);
            round_arcs(model, &choices, &mut arcs);
            k.apply_round(&arcs);
            for (v, old) in known.iter_mut().enumerate() {
                let count = k.count(v);
                prop_assert!(count >= old.len(), "vertex {} count shrank", v);
                for &item in old.iter() {
                    prop_assert!(k.knows(v, item), "vertex {} forgot item {}", v, item);
                }
                for item in 0..n {
                    if k.knows(v, item) {
                        old.insert(item);
                    }
                }
                prop_assert_eq!(old.len(), count);
            }
            if k.all_complete() {
                break;
            }
        }
    }

    /// A trial is a pure function of `(graph, model, seed, trial)`:
    /// re-running it reproduces the result bit for bit.
    #[test]
    fn trials_are_reproducible(
        model in model_strategy(),
        seed in 0u64..u64::MAX,
        trial in 0usize..32,
    ) {
        let g = systolic_gossip::Network::Cycle { n: 16 }.build();
        let a = run_trial(&g, model, seed, trial, 1_000, None);
        let b = run_trial(&g, model, seed, trial, 1_000, None);
        prop_assert_eq!(a, b);
    }
}
