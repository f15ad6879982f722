//! The dissemination engine: executes protocols round by round against the
//! semantics of Definition 3.1.
//!
//! Correctness subtlety: all transfers of a round read the knowledge state
//! *at the beginning of that round*. Under the half-duplex matching
//! condition no vertex both sends and receives in one round, so in-place
//! updates are safe; full-duplex rounds (and unvalidated arc sets) need
//! beginning-of-round snapshots of the sources that are also targets.
//!
//! The runners here compile their round sequence once
//! ([`crate::schedule::CompiledSchedule`]) and replay it with zero
//! per-round allocation; [`apply_round`] remains as the one-shot entry
//! point for callers that build rounds on the fly (greedy generation,
//! broadcast scheduling, property tests). The original naive engine
//! survives as the conformance oracle in [`crate::reference`].

use crate::bitset::{CompletionCursor, Knowledge};
use crate::schedule::CompiledSchedule;
use sg_protocol::protocol::{Protocol, SystolicProtocol};
use sg_protocol::round::Round;

/// Round-count time, as used by budgets and horizons.
pub type Time = usize;

/// Outcome of running a protocol to (attempted) gossip completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Round count after which every processor knew every item, or `None`
    /// if the budget ran out first.
    pub completed_at: Option<usize>,
    /// Minimum knowledge count per round (completion curve), recorded when
    /// tracing is enabled; `trace[i]` is the state after round `i+1`.
    pub trace: Vec<usize>,
}

/// Applies one round to the knowledge state. Returns `true` if anything
/// changed anywhere.
///
/// One-shot form: it resolves the round's snapshot plan on the spot (two
/// small allocations). Hot loops that replay the same rounds should
/// compile them once instead ([`CompiledSchedule`]), which is what every
/// runner in this module does.
pub fn apply_round(k: &mut Knowledge, round: &Round) -> bool {
    let arcs = round.arcs();
    if arcs.is_empty() {
        return false;
    }
    // Sources that are also targets this round need a snapshot of their
    // beginning-of-round row (full-duplex pairs, or arbitrary arc sets);
    // every other source row is immutable for the whole round and can be
    // OR-ed across directly.
    let snap_sources = round.snapshot_sources();
    let words = k.words();
    let mut snap_buf = vec![0u64; snap_sources.len() * words];
    for (slot, &u) in snap_sources.iter().enumerate() {
        k.snapshot_into(u, &mut snap_buf[slot * words..(slot + 1) * words]);
    }
    let mut changed = false;
    for a in arcs {
        let (u, v) = (a.from as usize, a.to as usize);
        if u == v {
            continue; // self-loop: a no-op transfer
        }
        match snap_sources.binary_search(&u) {
            Ok(slot) => {
                changed |= k.absorb_row(v, &snap_buf[slot * words..(slot + 1) * words]);
            }
            Err(_) => {
                changed |= k.absorb_from(v, u);
            }
        }
    }
    changed
}

/// Runs a finite protocol from the gossip initial state. Stops early when
/// gossip completes.
pub fn run_protocol(p: &Protocol, n: usize, trace: bool) -> SimResult {
    let sched = CompiledSchedule::compile(p.rounds(), n);
    run_compiled(sched, n, p.len(), None, trace)
}

/// Runs a systolic protocol for at most `max_rounds` rounds. The period
/// is compiled once and replayed cyclically.
pub fn run_systolic(sp: &SystolicProtocol, n: usize, max_rounds: usize, trace: bool) -> SimResult {
    run_systolic_with_horizon(sp, n, max_rounds, None, trace)
}

/// [`run_systolic`] with an incumbent horizon: the run aborts (reporting
/// `completed_at: None`) as soon as the elapsed time would exceed
/// `horizon`, so callers racing a known-good incumbent — the protocol
/// search in `sg-search` — never pay the full round budget for a losing
/// candidate. `horizon: None` is byte-identical to [`run_systolic`]
/// (asserted by the conformance suite).
pub fn run_systolic_with_horizon(
    sp: &SystolicProtocol,
    n: usize,
    max_rounds: usize,
    horizon: Option<Time>,
    trace: bool,
) -> SimResult {
    let sched = CompiledSchedule::compile(sp.period(), n);
    run_compiled(sched, n, max_rounds, horizon, trace)
}

fn run_compiled(
    mut sched: CompiledSchedule,
    n: usize,
    max_rounds: usize,
    horizon: Option<Time>,
    trace: bool,
) -> SimResult {
    // A completion at time t is only reachable when t <= horizon: rounds
    // past the horizon cannot beat the incumbent, so don't run them.
    let budget = horizon.map_or(max_rounds, |h| h.min(max_rounds));
    let mut k = Knowledge::initial(n);
    let mut trace_vec = Vec::new();
    let mut cursor = CompletionCursor::new();
    if cursor.complete(&k) {
        return SimResult {
            completed_at: Some(0),
            trace: trace_vec,
        };
    }
    for i in 0..budget {
        sched.apply(&mut k, i);
        if trace {
            trace_vec.push(k.min_count());
        }
        if cursor.complete(&k) {
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

/// Gossip time of a systolic protocol: the smallest `t` such that the
/// `t`-round prefix gossips, or `None` within the budget.
pub fn systolic_gossip_time(sp: &SystolicProtocol, n: usize, max_rounds: usize) -> Option<usize> {
    run_systolic(sp, n, max_rounds, false).completed_at
}

/// Broadcast time of `source`'s item under a systolic protocol: the first
/// round after which everyone knows item `source`.
pub fn systolic_broadcast_time(
    sp: &SystolicProtocol,
    n: usize,
    source: usize,
    max_rounds: usize,
) -> Option<usize> {
    let mut sched = CompiledSchedule::compile(sp.period(), n);
    let mut k = Knowledge::broadcast_initial(n, source);
    if k.all_know(source) {
        return Some(0);
    }
    for i in 0..max_rounds {
        sched.apply(&mut k, i);
        if k.all_know(source) {
            return Some(i + 1);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graphs::digraph::Arc;
    use sg_protocol::builders;
    use sg_protocol::mode::Mode;

    #[test]
    fn beginning_of_round_semantics() {
        // Chain 0→1 and 1→2 in the SAME round: 2 must NOT learn item 0,
        // because 1 forwards its beginning-of-round knowledge.
        let mut k = Knowledge::initial(3);
        let round = Round::new(vec![Arc::new(0, 1), Arc::new(1, 2)]);
        apply_round(&mut k, &round);
        assert!(k.knows(1, 0));
        assert!(k.knows(2, 1));
        assert!(!k.knows(2, 0), "round must read beginning-of-round state");
    }

    #[test]
    fn full_duplex_pair_swaps_fairly() {
        let mut k = Knowledge::initial(2);
        let round = Round::full_duplex_from_edges([(0, 1)]);
        apply_round(&mut k, &round);
        assert!(k.knows(0, 1));
        assert!(k.knows(1, 0));
        assert_eq!(k.count(0), 2);
        assert_eq!(k.count(1), 2);
    }

    #[test]
    fn hypercube_sweep_gossips_in_exactly_k_rounds() {
        for k in 1..=5usize {
            let sp = builders::hypercube_sweep(k);
            let n = 1usize << k;
            assert_eq!(systolic_gossip_time(&sp, n, 10 * k), Some(k), "Q_{k}");
        }
    }

    #[test]
    fn cycle_two_color_meets_s2_bound() {
        // The period-2 directed-cycle protocol gossips in n-1 or n rounds
        // (items at the wrong parity wait one round), matching the s = 2
        // lower bound t >= n − 1 of Section 4.
        let n = 8;
        let sp = builders::cycle_two_color_directed(n);
        let t = systolic_gossip_time(&sp, n, 4 * n).expect("completes");
        assert!(t == n - 1 || t == n, "t = {t}");
    }

    #[test]
    fn path_rrll_completes_in_about_2n() {
        let n = 9;
        let sp = builders::path_rrll(n);
        let t = systolic_gossip_time(&sp, n, 10 * n).expect("completes");
        assert!(t >= n - 1, "cannot beat non-systolic optimum: {t}");
        assert!(t <= 3 * n, "should be within ~2n: {t}");
    }

    #[test]
    fn knodel_sweep_gossips_fast() {
        let n = 16;
        let sp = builders::knodel_sweep(4, n);
        let t = systolic_gossip_time(&sp, n, 64).expect("completes");
        // Classical: about log2(n) .. 2 log2(n) rounds.
        assert!((4..=12).contains(&t), "t = {t}");
    }

    #[test]
    fn grid_traffic_light_completes() {
        let (w, h) = (5, 4);
        let sp = builders::grid_traffic_light(w, h);
        let t = systolic_gossip_time(&sp, w * h, 40 * (w + h)).expect("completes");
        assert!(t >= w + h - 2, "diameter bound: {t}");
    }

    #[test]
    fn edge_coloring_periodic_universal() {
        for g in [
            sg_graphs::generators::de_bruijn(2, 3),
            sg_graphs::generators::kautz(2, 3),
            sg_graphs::generators::complete_dary_tree(2, 3),
        ] {
            let sp = builders::edge_coloring_periodic(&g);
            let n = g.vertex_count();
            let t = systolic_gossip_time(&sp, n, 100 * n).expect("gossips");
            assert!(t >= 1);
        }
    }

    #[test]
    fn broadcast_no_slower_than_gossip() {
        let g = sg_graphs::generators::de_bruijn(2, 4);
        let sp = builders::edge_coloring_periodic(&g);
        let n = g.vertex_count();
        let tg = systolic_gossip_time(&sp, n, 100 * n).expect("gossips");
        for src in [0usize, 3, n - 1] {
            let tb = systolic_broadcast_time(&sp, n, src, 100 * n).expect("broadcasts");
            assert!(tb <= tg, "broadcast {tb} > gossip {tg}");
        }
    }

    #[test]
    fn incomplete_budget_returns_none() {
        let sp = builders::path_rrll(10);
        assert_eq!(systolic_gossip_time(&sp, 10, 3), None);
    }

    #[test]
    fn horizon_none_is_identical_to_plain_run() {
        let sp = builders::path_rrll(9);
        let plain = run_systolic(&sp, 9, 200, true);
        let horizonless = run_systolic_with_horizon(&sp, 9, 200, None, true);
        assert_eq!(plain, horizonless);
    }

    #[test]
    fn horizon_aborts_losing_candidates() {
        let n = 9;
        let sp = builders::path_rrll(n);
        let t = systolic_gossip_time(&sp, n, 200).expect("completes");
        // At or above the completion time the horizon is harmless…
        for horizon in [t, t + 5] {
            let run = run_systolic_with_horizon(&sp, n, 200, Some(horizon), false);
            assert_eq!(run.completed_at, Some(t));
        }
        // …one round below it, the run aborts without completing, and the
        // trace shows exactly `horizon` rounds were executed.
        let cut = run_systolic_with_horizon(&sp, n, 200, Some(t - 1), true);
        assert_eq!(cut.completed_at, None);
        assert_eq!(cut.trace.len(), t - 1);
        let full = run_systolic(&sp, n, 200, true);
        assert_eq!(cut.trace[..], full.trace[..t - 1], "prefix must agree");
    }

    #[test]
    fn horizon_zero_runs_nothing() {
        let sp = builders::path_rrll(5);
        let res = run_systolic_with_horizon(&sp, 5, 100, Some(0), true);
        assert_eq!(res.completed_at, None);
        assert!(res.trace.is_empty());
    }

    #[test]
    fn trace_is_monotone() {
        let sp = builders::path_rrll(8);
        let res = run_systolic(&sp, 8, 100, true);
        assert!(res.completed_at.is_some());
        for w in res.trace.windows(2) {
            assert!(w[0] <= w[1], "knowledge can only grow");
        }
        assert_eq!(*res.trace.last().unwrap(), 8);
    }

    /// Checks that the `t`-round prefix of `sp` completes at exactly `t`
    /// under [`run_protocol`], and — when `t >= 1` — that the one-round-
    /// shorter prefix does not complete. Guards the `t == 0` case (a
    /// protocol that is complete at round 0, e.g. n = 1) against the
    /// `t - 1` underflow the old inline assertion had.
    fn assert_prefix_minimality(sp: &SystolicProtocol, n: usize, t: usize) {
        let p = sp.unroll(t);
        assert_eq!(run_protocol(&p, n, false).completed_at, Some(t));
        if let Some(shorter) = t.checked_sub(1) {
            // One round fewer must not complete (t is minimal).
            let p_short = sp.unroll(shorter);
            assert_eq!(run_protocol(&p_short, n, false).completed_at, None);
        }
    }

    #[test]
    fn directed_protocol_on_unrolled_prefix() {
        // Protocol::run on a finite unrolled prefix matches the systolic
        // runner.
        let sp = builders::cycle_rrll(8);
        let t = systolic_gossip_time(&sp, 8, 200).expect("completes");
        assert_prefix_minimality(&sp, 8, t);
    }

    #[test]
    fn one_round_protocol_prefix_does_not_underflow() {
        // Regression for the t − 1 underflow: a protocol that gossips in
        // exactly ONE round (full-duplex pair on n = 2). The minimality
        // check must compare against the empty prefix, not panic.
        let sp = SystolicProtocol::new(
            vec![Round::full_duplex_from_edges([(0, 1)])],
            Mode::FullDuplex,
        );
        let t = systolic_gossip_time(&sp, 2, 10).expect("completes");
        assert_eq!(t, 1);
        assert_prefix_minimality(&sp, 2, t);
    }

    #[test]
    fn zero_round_completion_does_not_underflow() {
        // n = 1 is complete at round 0: t = 0, and the guard must skip
        // the shorter-prefix assertion instead of computing 0 - 1.
        let sp = SystolicProtocol::new(vec![Round::empty()], Mode::HalfDuplex);
        let t = systolic_gossip_time(&sp, 1, 10).expect("trivially complete");
        assert_eq!(t, 0);
        assert_prefix_minimality(&sp, 1, t);
    }

    #[test]
    fn broadcast_monotone_under_run_rounds() {
        // From a broadcast initial state, repeatedly applying rounds can
        // only grow every row (run_rounds-style loop over the period).
        let sp = builders::path_rrll(9);
        let mut k = Knowledge::broadcast_initial(9, 4);
        let mut prev_total = k.total_count();
        let mut prev_counts: Vec<usize> = (0..9).map(|v| k.count(v)).collect();
        for i in 0..40 {
            apply_round(&mut k, sp.round_at(i));
            let total = k.total_count();
            assert!(total >= prev_total, "total shrank at round {i}");
            for (v, prev) in prev_counts.iter_mut().enumerate() {
                let c = k.count(v);
                assert!(c >= *prev, "row {v} shrank at round {i}");
                *prev = c;
            }
            prev_total = total;
        }
        assert!(k.all_know(4), "path RRLL broadcasts within 40 rounds");
    }
}
