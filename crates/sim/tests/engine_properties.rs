//! Property-based tests of the dissemination engine against a naive
//! reference implementation (explicit set semantics).

use proptest::prelude::*;
use sg_graphs::digraph::Arc;
use sg_protocol::mode::Mode;
use sg_protocol::protocol::SystolicProtocol;
use sg_protocol::round::Round;
use sg_sim::bitset::Knowledge;
use sg_sim::engine::apply_round;
use sg_sim::reference::apply_round_reference;
use sg_sim::reference::run_systolic_reference;
use sg_sim::schedule::CompiledSchedule;
use sg_sim::sliced::run_systolic_sliced;
use sg_sim::sparse::SparseKnowledge;
use std::collections::HashSet;

/// Naive reference: per-vertex `HashSet<usize>` with strict
/// beginning-of-round snapshot semantics.
fn naive_apply(state: &mut [HashSet<usize>], arcs: &[Arc]) {
    let old = state.to_vec();
    for a in arcs {
        let items: Vec<usize> = old[a.from as usize].iter().copied().collect();
        state[a.to as usize].extend(items);
    }
}

fn arcs_strategy(n: usize) -> impl Strategy<Value = Vec<Arc>> {
    proptest::collection::vec((0..n, 0..n), 0..2 * n).prop_map(|pairs| {
        pairs
            .into_iter()
            .filter(|(u, v)| u != v)
            .map(|(u, v)| Arc::new(u, v))
            .collect()
    })
}

/// Fully arbitrary arc sets: duplicate targets, self-loops, and
/// source-also-target chains all allowed — nothing resembling the
/// matching condition of Definition 3.1 is assumed.
fn wild_arcs_strategy(n: usize) -> impl Strategy<Value = Vec<Arc>> {
    proptest::collection::vec((0..n, 0..n), 0..3 * n)
        .prop_map(|pairs| pairs.into_iter().map(|(u, v)| Arc::new(u, v)).collect())
}

/// Full-duplex chains: every drawn edge contributes both arcs, and
/// edges sharing an endpoint make the pairs unclean, so their arcs take
/// the snapshot path (a source that is also a target).
fn duplex_chain_strategy(n: usize) -> impl Strategy<Value = Vec<Arc>> {
    proptest::collection::vec((0..n, 0..n), 0..n).prop_map(|pairs| {
        pairs
            .into_iter()
            .flat_map(|(u, v)| [Arc::new(u, v), Arc::new(v, u)])
            .collect()
    })
}

/// Directed arcs among the first `n / 2` vertices only: the rest never
/// learn anything, so gossip never completes and every run ends at a
/// fixed point or the round budget.
fn stuck_arcs_strategy(n: usize) -> impl Strategy<Value = Vec<Arc>> {
    proptest::collection::vec((0..n / 2, 0..n / 2), 0..n)
        .prop_map(|pairs| pairs.into_iter().map(|(u, v)| Arc::new(u, v)).collect())
}

/// The item-sliced engine's completion and full min-count trace equal
/// the reference's on `period`, at every thread count tried.
fn sliced_agrees(
    period: &[Vec<Arc>],
    n: usize,
    budget: usize,
) -> Result<(), proptest::TestCaseError> {
    let rounds: Vec<Round> = period.iter().cloned().map(Round::new).collect();
    let sp = SystolicProtocol::new(rounds, Mode::Directed);
    let oracle = run_systolic_reference(&sp, n, budget, true);
    for threads in [1, 2, 4] {
        let sliced = run_systolic_sliced(&sp, n, budget, true, threads);
        prop_assert_eq!(&sliced, &oracle, "{} threads", threads);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The bitset engine equals the naive set engine on ARBITRARY arc
    /// sets (not just matchings) across several rounds.
    #[test]
    fn engine_matches_naive_reference(
        rounds in proptest::collection::vec(arcs_strategy(9), 1..6)
    ) {
        let n = 9;
        let mut k = Knowledge::initial(n);
        let mut naive: Vec<HashSet<usize>> =
            (0..n).map(|v| HashSet::from([v])).collect();
        for arcs in &rounds {
            let round = Round::new(arcs.clone());
            apply_round(&mut k, &round);
            // Round::new sorts and dedups; do the same for the reference.
            let mut sorted = arcs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            naive_apply(&mut naive, &sorted);
        }
        for (v, known) in naive.iter().enumerate() {
            for item in 0..n {
                prop_assert_eq!(
                    k.knows(v, item),
                    known.contains(&item),
                    "vertex {} item {}",
                    v,
                    item
                );
            }
        }
    }

    /// Knowledge counts never decrease and the total grows by at most
    /// (items transferable per arc) per round.
    #[test]
    fn knowledge_monotone(rounds in proptest::collection::vec(arcs_strategy(8), 1..5)) {
        let n = 8;
        let mut k = Knowledge::initial(n);
        let mut prev: Vec<usize> = (0..n).map(|v| k.count(v)).collect();
        for arcs in &rounds {
            apply_round(&mut k, &Round::new(arcs.clone()));
            let now: Vec<usize> = (0..n).map(|v| k.count(v)).collect();
            for v in 0..n {
                prop_assert!(now[v] >= prev[v]);
                prop_assert!(now[v] <= n);
            }
            prev = now;
        }
    }

    /// The compiled schedule is bit-for-bit the reference applier on
    /// ARBITRARY arc sets — duplicate targets, self-loops, chains where a
    /// source is also a target — replayed cyclically over several
    /// periods. This pins the beginning-of-round semantics of
    /// Definition 3.1 to the optimized hot path.
    #[test]
    fn compiled_schedule_matches_reference_on_wild_rounds(
        period in proptest::collection::vec(wild_arcs_strategy(11), 1..5),
        cycles in 1usize..4,
    ) {
        let n = 11;
        let rounds: Vec<Round> = period.iter().cloned().map(Round::new).collect();
        let mut sched = CompiledSchedule::compile(&rounds, n);
        let mut fast = Knowledge::initial(n);
        let mut oracle = Knowledge::initial(n);
        for i in 0..cycles * rounds.len() {
            let a = sched.apply(&mut fast, i);
            let b = apply_round_reference(&mut oracle, &rounds[i % rounds.len()]);
            prop_assert_eq!(a, b, "changed flag diverged at round {}", i);
            prop_assert_eq!(&fast, &oracle, "state diverged at round {}", i);
        }
    }

    /// The sparse row table — run, dense and retired full rows — matches
    /// the reference applier bit for bit on arbitrary arc lists replayed
    /// over many periods. `apply_round` gets each list as drawn
    /// (unsorted, duplicates and self-loops kept), the reference the
    /// normalized `Round`; counts, membership and the completion flag
    /// are checked as well as the raw table.
    #[test]
    fn sparse_matches_reference_on_wild_rounds(
        period in proptest::collection::vec(wild_arcs_strategy(11), 1..5),
        cycles in 1usize..6,
    ) {
        let n = 11;
        let rounds: Vec<Round> = period.iter().cloned().map(Round::new).collect();
        let mut k = SparseKnowledge::new(n);
        let mut oracle = Knowledge::initial(n);
        for i in 0..cycles * rounds.len() {
            let arcs: Vec<(u32, u32)> =
                period[i % rounds.len()].iter().map(|a| (a.from, a.to)).collect();
            let a = k.apply_round(&arcs);
            let b = apply_round_reference(&mut oracle, &rounds[i % rounds.len()]);
            prop_assert_eq!(a, b, "changed flag diverged at round {}", i);
            prop_assert_eq!(k.to_dense(), oracle.clone(), "state diverged at round {}", i);
            prop_assert_eq!(k.min_count(), oracle.min_count(), "min diverged at round {}", i);
            for v in 0..n {
                prop_assert_eq!(k.count(v), oracle.count(v), "count of {} at round {}", v, i);
                for item in 0..n {
                    prop_assert_eq!(k.knows(v, item), oracle.knows(v, item));
                }
            }
            prop_assert_eq!(
                k.all_complete(),
                oracle.min_count() == n,
                "completion flag at round {}",
                i
            );
        }
    }

    /// The item-sliced engine on ARBITRARY arc sets — duplicate targets,
    /// self-loops, sources that are also targets — with a round budget
    /// small enough that many runs end unfinished.
    #[test]
    fn sliced_matches_reference_on_wild_rounds(
        period in proptest::collection::vec(wild_arcs_strategy(11), 1..5),
        budget in 1usize..40,
    ) {
        sliced_agrees(&period, 11, budget)?;
    }

    /// Wild rounds over 300 vertices: two slices, the second partial.
    #[test]
    fn sliced_matches_reference_across_slices(
        period in proptest::collection::vec(wild_arcs_strategy(300), 1..4),
        budget in 1usize..30,
    ) {
        sliced_agrees(&period, 300, budget)?;
    }

    /// Full-duplex chains that need beginning-of-round snapshots.
    #[test]
    fn sliced_matches_reference_on_duplex_chains(
        period in proptest::collection::vec(duplex_chain_strategy(270), 1..5),
        budget in 1usize..60,
    ) {
        sliced_agrees(&period, 270, budget)?;
    }

    /// Schedules that never complete: fixed-point exits and budget
    /// padding of the trace.
    #[test]
    fn sliced_matches_reference_when_gossip_never_completes(
        period in proptest::collection::vec(stuck_arcs_strategy(280), 1..5),
        budget in 1usize..80,
    ) {
        sliced_agrees(&period, 280, budget)?;
    }

    /// The one-shot `apply_round` equals the reference applier on
    /// arbitrary arc sets (it shares the absorb machinery with the
    /// compiled path, so divergence here would leak everywhere).
    #[test]
    fn apply_round_matches_reference_on_wild_rounds(
        rounds in proptest::collection::vec(wild_arcs_strategy(13), 1..6)
    ) {
        let n = 13;
        let mut fast = Knowledge::initial(n);
        let mut oracle = Knowledge::initial(n);
        for arcs in &rounds {
            let round = Round::new(arcs.clone());
            let a = apply_round(&mut fast, &round);
            let b = apply_round_reference(&mut oracle, &round);
            prop_assert_eq!(a, b);
            prop_assert_eq!(&fast, &oracle);
        }
    }

    /// Half-duplex doubling limit: under *matching* rounds each vertex
    /// can at most add the sender's knowledge, so the max count at most
    /// doubles per round.
    #[test]
    fn matching_rounds_double_at_most(seed in 0u64..500) {
        use rand::prelude::*;
        let n = 16;
        let g = sg_graphs::generators::complete(n);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut k = Knowledge::initial(n);
        for _ in 0..5 {
            // Random maximal matching as a round.
            let mut order: Vec<usize> = (0..g.arc_count()).collect();
            order.shuffle(&mut rng);
            let arcs = sg_graphs::matching::greedy_maximal_matching(&g, Some(&order));
            let before: usize = (0..n).map(|v| k.count(v)).max().unwrap();
            apply_round(&mut k, &Round::new(arcs));
            let after: usize = (0..n).map(|v| k.count(v)).max().unwrap();
            prop_assert!(after <= 2 * before);
        }
    }
}

/// Deterministic pin of the nastiest single round: a chain where every
/// source is also a target, plus a self-loop and a duplicate target. All
/// engines must read strictly beginning-of-round state.
#[test]
fn chain_with_self_loop_and_duplicate_target_pins_semantics() {
    let n = 5;
    let round = Round::new(vec![
        Arc::new(0, 1), // chain head
        Arc::new(1, 2), // 1 is source AND target
        Arc::new(2, 3), // 2 is source AND target
        Arc::new(2, 2), // self-loop on a chain vertex
        Arc::new(4, 3), // duplicate target 3
    ]);
    let mut oracle = Knowledge::initial(n);
    apply_round_reference(&mut oracle, &round);
    // Beginning-of-round: 1 learns {0}, 2 learns {1}, 3 learns {2, 4};
    // nothing propagates two hops.
    assert!(oracle.knows(1, 0) && oracle.knows(2, 1));
    assert!(oracle.knows(3, 2) && oracle.knows(3, 4));
    assert!(!oracle.knows(2, 0) && !oracle.knows(3, 1) && !oracle.knows(3, 0));

    let mut one_shot = Knowledge::initial(n);
    apply_round(&mut one_shot, &round);
    assert_eq!(one_shot, oracle);

    let rounds = vec![round.clone()];
    let mut sched = CompiledSchedule::compile(&rounds, n);
    let mut compiled = Knowledge::initial(n);
    sched.apply(&mut compiled, 0);
    assert_eq!(compiled, oracle);

    let arcs: Vec<(u32, u32)> = round.arcs().iter().map(|a| (a.from, a.to)).collect();
    let mut sparse = SparseKnowledge::new(n);
    sparse.apply_round(&arcs);
    assert_eq!(sparse.to_dense(), oracle);

    // Replaying the same round until saturation keeps all four in step.
    for i in 1..8 {
        apply_round_reference(&mut oracle, &round);
        apply_round(&mut one_shot, &round);
        sched.apply(&mut compiled, i);
        sparse.apply_round(&arcs);
        assert_eq!(one_shot, oracle);
        assert_eq!(compiled, oracle);
        assert_eq!(sparse.to_dense(), oracle);
    }

    // The sliced engine on the same round, traced to saturation.
    let sp = SystolicProtocol::new(rounds, Mode::Directed);
    let oracle = run_systolic_reference(&sp, n, 8, true);
    for threads in [1, 2, 4] {
        assert_eq!(run_systolic_sliced(&sp, n, 8, true, threads), oracle);
    }
}
