//! The retained naive engine: the conformance oracle.
//!
//! This is the original allocation-heavy round applier, kept verbatim as
//! the semantic reference for Definition 3.1: every transfer of a round
//! reads the knowledge state *at the beginning of that round*. It
//! re-derives its snapshot plan from scratch every round and clones a
//! `⌈n/64⌉`-word row per arc, which is exactly why the hot paths moved to
//! [`crate::schedule`], [`crate::pool`] and [`crate::sparse`] — and
//! exactly why this version is trustworthy: it is small, direct, and
//! does no caching that could go stale. The differential conformance suite and the property
//! tests compare every optimized engine against it bit for bit.

use crate::bitset::Knowledge;
use crate::engine::SimResult;
use sg_protocol::protocol::{Protocol, SystolicProtocol};
use sg_protocol::round::Round;

/// Applies one round naively: fresh target flags, fresh snapshots, one
/// row clone per arc. Returns `true` if anything changed anywhere.
pub fn apply_round_reference(k: &mut Knowledge, round: &Round) -> bool {
    let arcs = round.arcs();
    if arcs.is_empty() {
        return false;
    }
    // Sources that are also targets this round need a snapshot of their
    // beginning-of-round row (full-duplex pairs, or arbitrary arc sets).
    let mut target_flags = vec![false; k.n()];
    for a in arcs {
        target_flags[a.to as usize] = true;
    }
    let mut snapshots: Vec<(usize, Vec<u64>)> = Vec::new();
    for a in arcs {
        let u = a.from as usize;
        if target_flags[u] {
            snapshots.push((u, k.snapshot(u)));
        }
    }
    snapshots.sort_unstable_by_key(|(u, _)| *u);
    snapshots.dedup_by_key(|(u, _)| *u);

    let mut changed = false;
    for a in arcs {
        let (u, v) = (a.from as usize, a.to as usize);
        match snapshots.binary_search_by_key(&u, |(w, _)| *w) {
            Ok(i) => {
                let row = snapshots[i].1.clone();
                changed |= k.absorb_row(v, &row);
            }
            Err(_) => {
                // Source is not a target: its row is still the
                // beginning-of-round state; borrow-split via copy of the
                // row (rows are small: ⌈n/64⌉ words).
                let row = k.snapshot(u);
                changed |= k.absorb_row(v, &row);
            }
        }
    }
    changed
}

/// Runs a finite protocol from the gossip initial state through the naive
/// applier. Stops early when gossip completes.
pub fn run_protocol_reference(p: &Protocol, n: usize, trace: bool) -> SimResult {
    run_rounds_reference(p.rounds().iter(), n, p.len(), trace)
}

/// Runs a systolic protocol through the naive applier for at most
/// `max_rounds` rounds.
pub fn run_systolic_reference(
    sp: &SystolicProtocol,
    n: usize,
    max_rounds: usize,
    trace: bool,
) -> SimResult {
    run_rounds_reference(
        (0..max_rounds).map(|i| sp.round_at(i)),
        n,
        max_rounds,
        trace,
    )
}

fn run_rounds_reference<'a>(
    rounds: impl Iterator<Item = &'a Round>,
    n: usize,
    max_rounds: usize,
    trace: bool,
) -> SimResult {
    let mut k = Knowledge::initial(n);
    let mut trace_vec = Vec::new();
    if k.all_complete() {
        return SimResult {
            completed_at: Some(0),
            trace: trace_vec,
        };
    }
    for (i, round) in rounds.enumerate().take(max_rounds) {
        apply_round_reference(&mut k, round);
        if trace {
            trace_vec.push(k.min_count());
        }
        if k.all_complete() {
            return SimResult {
                completed_at: Some(i + 1),
                trace: trace_vec,
            };
        }
    }
    SimResult {
        completed_at: None,
        trace: trace_vec,
    }
}

/// Gossip time under the naive engine — the oracle the compiled, pool
/// and sparse gossip times must reproduce exactly.
pub fn systolic_gossip_time_reference(
    sp: &SystolicProtocol,
    n: usize,
    max_rounds: usize,
) -> Option<usize> {
    run_systolic_reference(sp, n, max_rounds, false).completed_at
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graphs::digraph::Arc;
    use sg_protocol::builders;

    #[test]
    fn beginning_of_round_semantics() {
        // Chain 0→1 and 1→2 in the SAME round: 2 must NOT learn item 0,
        // because 1 forwards its beginning-of-round knowledge.
        let mut k = Knowledge::initial(3);
        let round = Round::new(vec![Arc::new(0, 1), Arc::new(1, 2)]);
        apply_round_reference(&mut k, &round);
        assert!(k.knows(1, 0));
        assert!(k.knows(2, 1));
        assert!(!k.knows(2, 0), "round must read beginning-of-round state");
    }

    #[test]
    fn hypercube_sweep_gossips_in_exactly_k_rounds() {
        for k in 1..=5usize {
            let sp = builders::hypercube_sweep(k);
            let n = 1usize << k;
            assert_eq!(
                systolic_gossip_time_reference(&sp, n, 10 * k),
                Some(k),
                "Q_{k}"
            );
        }
    }

    #[test]
    fn incomplete_budget_returns_none() {
        let sp = builders::path_rrll(10);
        assert_eq!(systolic_gossip_time_reference(&sp, 10, 3), None);
    }
}
