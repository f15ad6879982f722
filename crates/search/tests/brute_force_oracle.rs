//! An exact oracle for [`enumerate`] that shares no code with it.
//!
//! In the whispering model a round is any matching of the mode's arc
//! set and a period-`s` schedule is any `s`-tuple of rounds, so on a
//! small network the optimum is the minimum over a finite list. This
//! file writes that list out in full — every round, not only the
//! maximal ones the engine keeps — and runs every `s`-tuple on the naive
//! reference simulator from the initial state. It uses nothing of the
//! engine (no `maximal_rounds`, no seeds, no symmetry, no relaxation
//! cut), so a fault in the dominance lemma, the symmetry breaking or the
//! cuts cannot hide on both sides.
//!
//! A run stops at completion; after `s` idle rounds in a row (the state
//! is then a fixed point of the period, so gossip never completes); or
//! once it can no longer beat the best time found so far. Tuples are
//! visited in lexicographic order and share the state of their common
//! prefix, so the third rule cuts every tuple behind a prefix at once —
//! the same runs, with the same stops, as one tuple at a time.

use sg_search::enumerate::{enumerate, EnumerateConfig, EnumerateOutcome};
use systolic_gossip::sg_graphs::digraph::{Arc, Digraph};
use systolic_gossip::sg_protocol::mode::Mode;
use systolic_gossip::sg_protocol::round::Round;
use systolic_gossip::sg_sim::reference::{apply_round_reference, systolic_gossip_time_reference};
use systolic_gossip::sg_sim::Knowledge;
use systolic_gossip::Network;

/// Every round `mode` allows on `g`, the empty round included: in
/// full-duplex each matching of the underlying edges with both arcs of
/// each matched edge, otherwise each set of endpoint-disjoint arcs.
fn all_rounds(g: &Digraph, mode: Mode) -> Vec<Round> {
    let links: Vec<Arc> = g
        .arcs()
        .filter(|a| !a.is_loop() && (mode != Mode::FullDuplex || a.from < a.to))
        .collect();
    let mut sets: Vec<Vec<Arc>> = vec![Vec::new()];
    for link in links {
        // Every set built so far, plus `link` where its endpoints are free.
        let free = |set: &Vec<Arc>| {
            set.iter()
                .all(|b| ![b.from, b.to].contains(&link.from) && ![b.from, b.to].contains(&link.to))
        };
        let extended: Vec<Vec<Arc>> = sets
            .iter()
            .filter(|set| free(set))
            .map(|set| [set.as_slice(), &[link]].concat())
            .collect();
        sets.extend(extended);
    }
    // Largest first: fast schedules turn up early and cut the rest.
    sets.sort_by_key(|set| std::cmp::Reverse(set.len()));
    sets.into_iter()
        .map(|set| match mode {
            Mode::FullDuplex => Round::new(set.iter().flat_map(|a| [*a, a.reversed()]).collect()),
            Mode::Directed | Mode::HalfDuplex => Round::new(set),
        })
        .collect()
}

/// The rounds of `rounds` that no other round of `rounds` strictly
/// contains.
fn maximal(rounds: &[Round]) -> Vec<Round> {
    let contains = |big: &Round, small: &Round| {
        big.len() > small.len() && small.arcs().iter().all(|a| big.arcs().contains(a))
    };
    rounds
        .iter()
        .filter(|r| !rounds.iter().any(|big| contains(big, r)))
        .cloned()
        .collect()
}

/// Depth-first walk over the `s`-tuples of `rounds`: `chosen` holds the
/// indices of the prefix being run, `best` the fastest completion found
/// so far.
struct Walk<'a> {
    rounds: &'a [Round],
    s: usize,
    chosen: Vec<usize>,
    best: Option<usize>,
}

impl Walk<'_> {
    /// `true` when a run at time `t` that has not completed can still
    /// complete before the best time so far.
    fn can_beat(&self, t: usize) -> bool {
        self.best.is_none_or(|b| t + 1 < b)
    }

    /// Tries every next round after `chosen`, whose run left `state`
    /// with its last `idle` rounds unchanged.
    fn extend(&mut self, state: &Knowledge, idle: usize) {
        for r in 0..self.rounds.len() {
            let mut next = state.clone();
            let changed = apply_round_reference(&mut next, &self.rounds[r]);
            let idle = if changed { 0 } else { idle + 1 };
            self.chosen.push(r);
            let t = self.chosen.len();
            if next.all_complete() {
                self.best = Some(self.best.map_or(t, |b| b.min(t)));
            } else if self.can_beat(t) && idle < self.s {
                if t < self.s {
                    self.extend(&next, idle);
                } else {
                    self.run_on(next, idle);
                }
            }
            self.chosen.pop();
        }
    }

    /// Runs the full tuple `chosen` periodically on from round `s`.
    fn run_on(&mut self, mut state: Knowledge, mut idle: usize) {
        let mut t = self.s;
        while self.can_beat(t) && idle < self.s {
            let changed = apply_round_reference(&mut state, &self.rounds[self.chosen[t % self.s]]);
            idle = if changed { 0 } else { idle + 1 };
            t += 1;
            if state.all_complete() {
                self.best = Some(t);
                return;
            }
        }
    }
}

/// The minimum gossip time over every period-`s` schedule built from
/// `rounds`, `None` when none completes.
fn brute_force_optimum(rounds: &[Round], n: usize, s: usize) -> Option<usize> {
    let mut walk = Walk {
        rounds,
        s,
        chosen: Vec::with_capacity(s),
        best: None,
    };
    walk.extend(&Knowledge::initial(n), 0);
    walk.best
}

/// Lists every round of `net` in `mode`, checks the list and the engine
/// against the brute-force minimum, and returns the engine's outcome.
fn check(
    net: Network,
    mode: Mode,
    s: usize,
    (want_all, want_maximal): (usize, usize),
    want_optimum: Option<usize>,
) -> EnumerateOutcome {
    let label = format!("{} {mode} s={s}", net.name());
    let g = net.build();
    let n = g.vertex_count();
    let rounds = all_rounds(&g, mode);
    for (i, r) in rounds.iter().enumerate() {
        r.validate(&g, mode, i)
            .unwrap_or_else(|e| panic!("{label}: listed round {i} is invalid: {e}"));
    }
    let maximal = maximal(&rounds);
    assert_eq!(
        (rounds.len(), maximal.len()),
        (want_all, want_maximal),
        "{label}: (all, maximal) round counts"
    );
    println!(
        "{label}: {} rounds ({} maximal), {} schedules",
        rounds.len(),
        maximal.len(),
        rounds.len().pow(s as u32)
    );

    let optimum = brute_force_optimum(&rounds, n, s);
    assert_eq!(optimum, want_optimum, "{label}: brute-force optimum");
    assert_eq!(
        brute_force_optimum(&maximal, n, s),
        optimum,
        "{label}: maximal rounds alone must reach the optimum over all rounds"
    );

    let out = enumerate(&net, mode, &EnumerateConfig::default().exact_period(s));
    assert_eq!(out.best_rounds, optimum, "{label}: engine optimum");
    assert_eq!(out.proven_infeasible, optimum.is_none(), "{label}");
    assert_eq!(
        out.round_candidates,
        maximal.len(),
        "{label}: engine candidates vs maximal rounds"
    );
    let floor = out.certificate.as_ref().map(|c| c.floor_rounds);
    assert_eq!(
        out.met_floor,
        out.best_rounds.zip(floor).is_some_and(|(t, f)| t <= f),
        "{label}: met_floor"
    );
    match (&out.best, out.best_rounds) {
        (Some(witness), Some(t)) => {
            witness
                .validate(&g)
                .unwrap_or_else(|e| panic!("{label}: witness is invalid: {e}"));
            assert_eq!(witness.period().len(), s, "{label}: witness period");
            assert_eq!(
                systolic_gossip_time_reference(witness, n, t),
                Some(t),
                "{label}: witness time on the reference simulator"
            );
        }
        (None, None) => {}
        _ => panic!("{label}: a witness exactly when an optimum"),
    }
    out
}

#[test]
fn small_instances_match_brute_force() {
    let fd = Mode::FullDuplex;
    let dir = Mode::Directed;
    check(Network::Path { n: 6 }, fd, 2, (13, 4), Some(5));
    check(Network::Cycle { n: 6 }, fd, 2, (18, 5), Some(3));
    check(Network::Cycle { n: 6 }, dir, 2, (65, 28), Some(6));
    check(Network::Hypercube { k: 3 }, fd, 2, (108, 17), Some(4));
    check(
        Network::Knodel { delta: 3, n: 8 },
        fd,
        2,
        (108, 17),
        Some(4),
    );
    check(
        Network::DeBruijnDirected { d: 2, dd: 3 },
        dir,
        2,
        (133, 34),
        Some(8),
    );
}

#[test]
fn period_three_instances_match_brute_force() {
    check(
        Network::Cycle { n: 6 },
        Mode::Directed,
        3,
        (65, 28),
        Some(7),
    );
    check(
        Network::Cycle { n: 8 },
        Mode::FullDuplex,
        3,
        (47, 10),
        Some(5),
    );
}

/// No period-3 schedule of the directed `P₆` ever completes gossip.
#[test]
fn infeasible_instance_matches_brute_force() {
    let out = check(Network::Path { n: 6 }, Mode::Directed, 3, (43, 20), None);
    assert!(out.certificate.is_none() && !out.met_floor);
}

/// `Torus(3×3)` at `s = 2`; its `s = 3` case (370³ ≈ 5·10⁷ schedules)
/// is out of reach here and stays pinned in `enumerate_gaps.rs`.
#[test]
fn torus_period_two_matches_brute_force() {
    check(
        Network::Torus2d { w: 3, h: 3 },
        Mode::FullDuplex,
        2,
        (370, 84),
        Some(9),
    );
}

/// `K₈`: |Aut| = 40320 puts the engine in its stabilizer-chain regime.
#[test]
fn complete_graph_matches_brute_force() {
    check(
        Network::Complete { n: 8 },
        Mode::FullDuplex,
        2,
        (764, 105),
        Some(4),
    );
}

/// `W(3,8)` at `s = 3` meets the doubling floor `⌈log₂ 8⌉ = 3`.
#[test]
fn knodel_period_three_matches_brute_force() {
    let out = check(
        Network::Knodel { delta: 3, n: 8 },
        Mode::FullDuplex,
        3,
        (108, 17),
        Some(3),
    );
    assert!(out.met_floor);
}

/// Knödel `W(2,4)` in half-duplex at `s = 3`: the optimum is one round
/// below the engine's best seed (5 rounds, pinned in `enumerate.rs`'s
/// unit tests), so its single pass runs with the cap at the optimum and
/// an off-by-one in the relaxation cut loses the answer.
#[test]
fn knodel_seed_beaten_by_one_matches_brute_force() {
    check(
        Network::Knodel { delta: 2, n: 4 },
        Mode::HalfDuplex,
        3,
        (17, 8),
        Some(4),
    );
}
