//! Compiled round schedules: the simulation hot path.
//!
//! A systolic execution replays the same `s` rounds over and over, yet the
//! naive engine (retired to [`crate::reference`]) re-derived its snapshot
//! plan — target flags, snapshot list, sort, dedup — and cloned a
//! `⌈n/64⌉`-word row *per arc* on every single round. [`CompiledSchedule`]
//! does that analysis exactly once per distinct round: it flattens the arc
//! list, resolves which sources need a beginning-of-round snapshot (the
//! sources that are also targets — everything else is immutable for the
//! whole round under Definition 3.1), assigns each such source a slot in
//! one reusable snapshot buffer, and drops self-loop arcs (no-ops). After
//! compilation, applying a round allocates nothing: snapshot slots are
//! `copy_from_slice`d and every other arc is a split-borrow word-OR
//! straight across the knowledge table ([`Knowledge::absorb_from`]).

use crate::bitset::Knowledge;
use sg_protocol::round::Round;

/// Marks an arc whose source needs no snapshot (it is not a target, so
/// its row is the beginning-of-round row throughout).
const NO_SLOT: u32 = u32::MAX;

/// One arc with its snapshot slot resolved at compile time.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CompiledArc {
    pub(crate) from: u32,
    pub(crate) to: u32,
    /// Index into the snapshot buffer, or [`NO_SLOT`] for a direct OR.
    pub(crate) slot: u32,
}

impl CompiledArc {
    #[inline]
    pub(crate) fn needs_snapshot(self) -> bool {
        self.slot != NO_SLOT
    }
}

/// One round after compilation.
#[derive(Debug, Clone)]
pub(crate) struct CompiledRound {
    /// Clean full-duplex pairs `(u, v)`: both opposite arcs present and
    /// neither endpoint touched by any other arc of the round. Executed
    /// as one symmetric union sweep ([`Knowledge::merge_pair`]) — no
    /// snapshot, no second pass.
    pub(crate) pairs: Vec<(u32, u32)>,
    /// Remaining arcs, self-loops removed.
    pub(crate) arcs: Vec<CompiledArc>,
    /// Sorted distinct sources (of the remaining arcs) needing
    /// beginning-of-round snapshots; position = snapshot slot.
    pub(crate) snap_sources: Vec<u32>,
    /// `true` when all targets are pairwise distinct (one source per
    /// target: the sliced engine then needs no target grouping).
    pub(crate) distinct_targets: bool,
}

/// A sequence of rounds compiled against a fixed network size `n`,
/// applied cyclically (systolic period) or as a finite prefix.
#[derive(Debug, Clone)]
pub struct CompiledSchedule {
    rounds: Vec<CompiledRound>,
    n: usize,
    words: usize,
    /// Most snapshot slots any round needs.
    max_slots: usize,
    /// One reusable buffer, `max_slots × words` wide, refilled per round.
    /// Allocated by the first [`Self::apply`]: the sliced engine reuses
    /// the round plan but never touches the dense buffer.
    snap_buf: Vec<u64>,
}

impl CompiledSchedule {
    /// Compiles `rounds` (one systolic period, or a finite protocol's full
    /// round list) for networks of exactly `n` processors.
    ///
    /// Panics if an arc endpoint is `>= n` — the same index would panic
    /// mid-simulation anyway; failing at compile time names the round.
    pub fn compile(rounds: &[Round], n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        let mut compiled = Vec::with_capacity(rounds.len());
        let mut max_slots = 0usize;
        // Buffers shared across rounds; entries touched by a round are
        // reset after it (O(arcs), not O(n) per round).
        const NONE: u32 = u32::MAX;
        let mut occur = vec![0u32; n]; // endpoint appearance count
        let mut incoming = vec![NONE; n]; // unique in-neighbour, if any
        let mut is_target = vec![false; n];
        for (i, round) in rounds.iter().enumerate() {
            let all = round.arcs();
            let mut distinct_targets = true;
            for a in all {
                let (u, v) = (a.from as usize, a.to as usize);
                assert!(
                    u < n && v < n,
                    "round {i}: arc {a} out of range for n = {n}"
                );
                occur[u] += 1;
                occur[v] += 1;
                if is_target[v] {
                    distinct_targets = false;
                }
                is_target[v] = true;
                incoming[v] = if incoming[v] == NONE { a.from } else { NONE };
            }
            // Pull out the clean full-duplex pairs: (u,v) and (v,u) both
            // present, with u and v appearing in no other arc of the
            // round (then occur is exactly 2 on both ends and each end's
            // unique in-neighbour is the other). Both ends then read each
            // other's beginning-of-round row and land on the same union —
            // one sweep, no snapshot.
            let clean_pair = |a: &sg_graphs::digraph::Arc| {
                let (u, v) = (a.from as usize, a.to as usize);
                u != v
                    && occur[u] == 2
                    && occur[v] == 2
                    && incoming[u] == a.to
                    && incoming[v] == a.from
            };
            let pairs: Vec<(u32, u32)> = all
                .iter()
                .filter(|a| a.from < a.to && clean_pair(a))
                .map(|a| (a.from, a.to))
                .collect();
            // Snapshot plan for the residual arcs only (`clean_pair` is
            // direction-symmetric, so it filters both arcs of a pair). A
            // residual source needs a slot when it is also a target;
            // pair endpoints are never targeted by residual arcs, so
            // `is_target` needs no correction here.
            let mut snap_sources: Vec<u32> = all
                .iter()
                .filter(|a| !clean_pair(a) && is_target[a.from as usize])
                .map(|a| a.from)
                .collect();
            snap_sources.sort_unstable();
            snap_sources.dedup();
            max_slots = max_slots.max(snap_sources.len());
            let arcs: Vec<CompiledArc> = all
                .iter()
                .filter(|a| !a.is_loop() && !clean_pair(a))
                .map(|a| CompiledArc {
                    from: a.from,
                    to: a.to,
                    slot: snap_sources
                        .binary_search(&a.from)
                        .map_or(NO_SLOT, |s| s as u32),
                })
                .collect();
            // Reset the touched scratch entries for the next round.
            for a in all {
                let (u, v) = (a.from as usize, a.to as usize);
                occur[u] = 0;
                occur[v] = 0;
                incoming[v] = NONE;
                is_target[v] = false;
            }
            compiled.push(CompiledRound {
                pairs,
                arcs,
                snap_sources,
                distinct_targets,
            });
        }
        Self {
            rounds: compiled,
            n,
            words,
            max_slots,
            snap_buf: Vec::new(),
        }
    }

    /// Compiled network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of distinct compiled rounds (the period length `s`, or the
    /// finite protocol length).
    pub fn round_count(&self) -> usize {
        self.rounds.len()
    }

    pub(crate) fn round(&self, time: usize) -> &CompiledRound {
        &self.rounds[time % self.rounds.len()]
    }

    /// Applies the round at `time` (cyclically) to `k`. Allocation-free.
    /// Returns `true` if anything changed anywhere.
    pub fn apply(&mut self, k: &mut Knowledge, time: usize) -> bool {
        debug_assert_eq!(k.n(), self.n, "knowledge/schedule size mismatch");
        if self.rounds.is_empty() {
            return false;
        }
        let words = self.words;
        if self.snap_buf.len() < self.max_slots * words {
            self.snap_buf.resize(self.max_slots * words, 0);
        }
        let r = &self.rounds[time % self.rounds.len()];
        let mut changed = false;
        // Clean full-duplex pairs: symmetric union, snapshot-free.
        for &(u, v) in &r.pairs {
            let (cu, cv) = k.merge_pair(u as usize, v as usize);
            changed |= cu | cv;
        }
        // Beginning-of-round snapshots of the sources that are also
        // targets, into the preallocated buffer.
        for (slot, &u) in r.snap_sources.iter().enumerate() {
            k.snapshot_into(
                u as usize,
                &mut self.snap_buf[slot * words..(slot + 1) * words],
            );
        }
        for a in &r.arcs {
            if a.needs_snapshot() {
                let s = a.slot as usize;
                changed |= k.absorb_row(a.to as usize, &self.snap_buf[s * words..(s + 1) * words]);
            } else {
                changed |= k.absorb_from(a.to as usize, a.from as usize);
            }
        }
        changed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::apply_round_reference;
    use sg_graphs::digraph::Arc;
    use sg_protocol::builders;

    #[test]
    fn compiled_round_matches_reference_on_chain() {
        // 0→1, 1→2 in one round: beginning-of-round semantics.
        let round = Round::new(vec![Arc::new(0, 1), Arc::new(1, 2)]);
        let mut sched = CompiledSchedule::compile(std::slice::from_ref(&round), 3);
        let mut k = Knowledge::initial(3);
        let mut r = Knowledge::initial(3);
        sched.apply(&mut k, 0);
        apply_round_reference(&mut r, &round);
        assert_eq!(k, r);
        assert!(!k.knows(2, 0), "2 must not learn item 0 transitively");
    }

    #[test]
    fn compiled_period_replays_cyclically() {
        let sp = builders::path_rrll(7);
        let mut sched = CompiledSchedule::compile(sp.period(), 7);
        let mut k = Knowledge::initial(7);
        let mut r = Knowledge::initial(7);
        for i in 0..40 {
            let a = sched.apply(&mut k, i);
            let b = apply_round_reference(&mut r, sp.round_at(i));
            assert_eq!(a, b, "changed flag at round {i}");
            assert_eq!(k, r, "state at round {i}");
        }
    }

    #[test]
    fn full_duplex_rounds_compile_to_pair_merges() {
        let sp = builders::knodel_sweep(4, 32);
        let mut sched = CompiledSchedule::compile(sp.period(), 32);
        // Knödel rounds are disjoint opposite pairs: the compiler turns
        // every one into a snapshot-free symmetric union.
        for t in 0..sched.round_count() {
            let r = sched.round(t);
            assert!(!r.pairs.is_empty());
            assert!(r.arcs.is_empty());
            assert!(r.snap_sources.is_empty());
            assert!(r.distinct_targets);
        }
        let mut k = Knowledge::initial(32);
        let mut r = Knowledge::initial(32);
        for i in 0..20 {
            sched.apply(&mut k, i);
            apply_round_reference(&mut r, sp.round_at(i));
        }
        assert_eq!(k, r);
    }

    #[test]
    fn mixed_pair_and_chain_round_splits_correctly() {
        // (0,1)/(1,0) is NOT a clean pair (1 also feeds 2); (3,4)/(4,3)
        // is. The compiler must keep 0↔1 on the snapshot path and merge
        // 3↔4.
        let round = Round::new(vec![
            Arc::new(0, 1),
            Arc::new(1, 0),
            Arc::new(1, 2),
            Arc::new(3, 4),
            Arc::new(4, 3),
        ]);
        let mut sched = CompiledSchedule::compile(std::slice::from_ref(&round), 5);
        {
            let r = sched.round(0);
            assert_eq!(r.pairs, vec![(3, 4)]);
            assert_eq!(r.arcs.len(), 3);
            assert_eq!(r.snap_sources, vec![0, 1]);
        }
        let mut k = Knowledge::initial(5);
        let mut oracle = Knowledge::initial(5);
        for i in 0..4 {
            assert_eq!(
                sched.apply(&mut k, i),
                apply_round_reference(&mut oracle, &round)
            );
            assert_eq!(k, oracle);
        }
    }

    #[test]
    fn empty_schedule_is_inert() {
        let mut sched = CompiledSchedule::compile(&[], 4);
        let mut k = Knowledge::initial(4);
        assert!(!sched.apply(&mut k, 0));
        assert_eq!(k, Knowledge::initial(4));
    }

    #[test]
    fn self_loops_are_dropped_but_still_force_snapshots() {
        // (1,1) makes 1 a target, so (1,2) must read 1's
        // beginning-of-round row even after (0,1) lands.
        let round = Round::new(vec![Arc::new(0, 1), Arc::new(1, 1), Arc::new(1, 2)]);
        let mut sched = CompiledSchedule::compile(std::slice::from_ref(&round), 3);
        let mut k = Knowledge::initial(3);
        let mut r = Knowledge::initial(3);
        assert_eq!(
            sched.apply(&mut k, 0),
            apply_round_reference(&mut r, &round)
        );
        assert_eq!(k, r);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_arc_fails_at_compile_time() {
        let round = Round::new(vec![Arc::new(0, 9)]);
        let _ = CompiledSchedule::compile(std::slice::from_ref(&round), 4);
    }
}
