//! Knowledge state: one bitset of items per processor.
//!
//! Gossip semantics (Definition 3.1): processor `v` starts knowing exactly
//! item `v`; when arc `(u, v)` is active at round `i`, `v` additionally
//! learns everything `u` knew *at the beginning of round `i`*. The state is
//! a flat `n × ⌈n/64⌉` bit matrix so that one round is a handful of
//! word-wide OR sweeps.

/// The knowledge sets of all `n` processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Knowledge {
    n: usize,
    words: usize,
    bits: Vec<u64>,
}

impl Knowledge {
    /// Initial gossip state: processor `v` knows exactly item `v`.
    pub fn initial(n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        let mut bits = vec![0u64; n * words];
        for v in 0..n {
            bits[v * words + v / 64] |= 1u64 << (v % 64);
        }
        Self { n, words, bits }
    }

    /// Broadcast state: only `source`'s item exists; every other set is
    /// empty except `source` knows itself.
    pub fn broadcast_initial(n: usize, source: usize) -> Self {
        // An empty network has no sources; otherwise an out-of-range
        // source is a caller bug and must fail loudly, not simulate an
        // item that can never be known.
        assert!(
            n == 0 || source < n,
            "source {source} out of range for n = {n}"
        );
        let words = n.div_ceil(64).max(1);
        let mut bits = vec![0u64; n * words];
        if n > 0 {
            bits[source * words + source / 64] |= 1u64 << (source % 64);
        }
        Self { n, words, bits }
    }

    /// Number of processors (= number of items).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Words per processor row.
    pub fn words(&self) -> usize {
        self.words
    }

    /// The bitset row of processor `v`.
    #[inline]
    pub fn row(&self, v: usize) -> &[u64] {
        &self.bits[v * self.words..(v + 1) * self.words]
    }

    /// Does processor `v` know item `item`?
    pub fn knows(&self, v: usize, item: usize) -> bool {
        self.row(v)[item / 64] & (1u64 << (item % 64)) != 0
    }

    /// Number of items processor `v` knows.
    pub fn count(&self, v: usize) -> usize {
        self.row(v).iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `v_new ← v_old ∪ u_src`, where `src_row` was captured from the
    /// beginning-of-round state. Returns `true` if `v` learned anything.
    #[inline]
    pub fn absorb_row(&mut self, v: usize, src_row: &[u64]) -> bool {
        let dst = &mut self.bits[v * self.words..(v + 1) * self.words];
        let mut changed = false;
        for (d, s) in dst.iter_mut().zip(src_row) {
            let before = *d;
            *d |= s;
            changed |= *d != before;
        }
        changed
    }

    /// `v ← v ∪ u` without copying `u`'s row. Only valid when `u`'s row
    /// still holds its beginning-of-round state (i.e. `u` is not a target
    /// of the round, or its snapshot is handled by the caller); the
    /// compiled engines guarantee this. A self-absorb is a no-op. Returns
    /// `true` if `v` learned anything.
    #[inline]
    pub fn absorb_from(&mut self, v: usize, u: usize) -> bool {
        if u == v {
            return false;
        }
        let w = self.words;
        // Split the flat table between the two rows to borrow both at once.
        let (dst, src) = if v < u {
            let (lo, hi) = self.bits.split_at_mut(u * w);
            (&mut lo[v * w..(v + 1) * w], &hi[..w])
        } else {
            let (lo, hi) = self.bits.split_at_mut(v * w);
            (&mut hi[..w], &lo[u * w..(u + 1) * w])
        };
        let mut changed = false;
        for (d, s) in dst.iter_mut().zip(src) {
            let before = *d;
            *d |= *s;
            changed |= *d != before;
        }
        changed
    }

    /// Full-duplex pair exchange in one sweep: `u ← u ∪ v` and
    /// `v ← u ∪ v` simultaneously (both ends read each other's
    /// beginning-of-round row, so both end at the same union — no
    /// snapshot needed). Only valid when neither endpoint is touched by
    /// any other arc of the round; the schedule compiler proves that
    /// before emitting this op. Returns the per-endpoint changed flags
    /// `(u changed, v changed)`.
    #[inline]
    pub fn merge_pair(&mut self, u: usize, v: usize) -> (bool, bool) {
        if u == v {
            return (false, false);
        }
        let w = self.words;
        let (lo, hi) = self.bits.split_at_mut(u.max(v) * w);
        let (a, b) = if u < v {
            (&mut lo[u * w..(u + 1) * w], &mut hi[..w])
        } else {
            (&mut hi[..w], &mut lo[v * w..(v + 1) * w])
        };
        let mut changed_u = false;
        let mut changed_v = false;
        for (x, y) in a.iter_mut().zip(b.iter_mut()) {
            let union = *x | *y;
            changed_u |= union != *x;
            changed_v |= union != *y;
            *x = union;
            *y = union;
        }
        (changed_u, changed_v)
    }

    /// Copies out processor `v`'s row (a beginning-of-round snapshot).
    pub fn snapshot(&self, v: usize) -> Vec<u64> {
        self.row(v).to_vec()
    }

    /// Copies processor `v`'s row into `buf` (a reusable snapshot slot).
    #[inline]
    pub fn snapshot_into(&self, v: usize, buf: &mut [u64]) {
        buf.copy_from_slice(self.row(v));
    }

    /// Overwrites this state with `other` without allocating — the
    /// reusable-buffer form of `*self = other.clone()`.
    ///
    /// # Panics
    ///
    /// When the two states have different sizes.
    #[inline]
    pub fn copy_from(&mut self, other: &Knowledge) {
        assert_eq!(
            (self.n, self.words),
            (other.n, other.words),
            "knowledge size mismatch"
        );
        self.bits.copy_from_slice(&other.bits);
    }

    /// `true` when every processor knows every item — gossip complete.
    pub fn all_complete(&self) -> bool {
        (0..self.n).all(|v| self.count(v) == self.n)
    }

    /// `true` when every processor knows `item` — broadcast complete.
    pub fn all_know(&self, item: usize) -> bool {
        (0..self.n).all(|v| self.knows(v, item))
    }

    /// Minimum knowledge count over processors (the bottleneck of the
    /// completion curve).
    pub fn min_count(&self) -> usize {
        (0..self.n).map(|v| self.count(v)).min().unwrap_or(0)
    }

    /// Total number of known (processor, item) pairs.
    pub fn total_count(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Raw storage (used by the parallel engine; rows are disjoint
    /// `words`-sized slices).
    pub(crate) fn bits_mut(&mut self) -> &mut [u64] {
        &mut self.bits
    }
}

/// Amortized gossip-completion check: row completion is monotone (a row
/// that knows everything keeps knowing everything), so a cursor over the
/// first incomplete row turns the per-round "is everyone done?" scan into
/// one pass over the table across a whole run. Bind one cursor to one
/// monotone execution; it never rewinds.
#[derive(Debug, Clone, Copy, Default)]
pub struct CompletionCursor {
    next: usize,
}

impl CompletionCursor {
    /// A cursor starting at the first row.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` when every processor knows every item; rows proven complete
    /// are skipped on all later calls.
    pub fn complete(&mut self, k: &Knowledge) -> bool {
        while self.next < k.n() && k.count(self.next) == k.n() {
            self.next += 1;
        }
        self.next == k.n()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_state_diagonal() {
        let k = Knowledge::initial(70); // spans two words
        for v in 0..70 {
            assert_eq!(k.count(v), 1);
            assert!(k.knows(v, v));
            assert!(!k.knows(v, (v + 1) % 70));
        }
        assert_eq!(k.total_count(), 70);
        assert!(!k.all_complete());
    }

    #[test]
    fn broadcast_initial_single_item() {
        let k = Knowledge::broadcast_initial(10, 3);
        assert_eq!(k.total_count(), 1);
        assert!(k.knows(3, 3));
        assert!(!k.all_know(3));
    }

    #[test]
    fn absorb_merges_and_reports_change() {
        let mut k = Knowledge::initial(4);
        let src = k.snapshot(0);
        assert!(k.absorb_row(1, &src));
        assert!(k.knows(1, 0));
        assert!(k.knows(1, 1));
        assert_eq!(k.count(1), 2);
        // Absorbing the same thing again changes nothing.
        assert!(!k.absorb_row(1, &src));
    }

    #[test]
    fn completion_detection() {
        let n = 3;
        let mut k = Knowledge::initial(n);
        // Everyone absorbs everyone (beginning-of-round semantics ignored
        // here — we just drive the state to completion).
        for _ in 0..2 {
            for u in 0..n {
                let s = k.snapshot(u);
                for v in 0..n {
                    k.absorb_row(v, &s);
                }
            }
        }
        assert!(k.all_complete());
        assert_eq!(k.min_count(), n);
    }

    #[test]
    fn single_vertex_graph_complete_at_start() {
        let k = Knowledge::initial(1);
        assert!(k.all_complete());
    }

    #[test]
    fn absorb_from_matches_absorb_row_both_orders() {
        let mut a = Knowledge::initial(70); // two words per row
        let mut b = Knowledge::initial(70);
        // u < v and u > v both exercise the split-borrow arms.
        for (v, u) in [(3usize, 68usize), (68, 3), (0, 69), (69, 0)] {
            let src = b.snapshot(u);
            let rb = b.absorb_row(v, &src);
            let ra = a.absorb_from(v, u);
            assert_eq!(ra, rb, "changed flag for {u}->{v}");
            assert_eq!(a, b, "state after {u}->{v}");
        }
        // Self-absorb is a no-op.
        assert!(!a.absorb_from(5, 5));
        assert_eq!(a, b);
    }

    #[test]
    fn copy_from_equals_clone() {
        let mut src = Knowledge::initial(70);
        src.absorb_from(3, 68);
        src.merge_pair(0, 69);
        let mut dst = Knowledge::initial(70);
        dst.copy_from(&src);
        assert_eq!(dst, src.clone());
        // Copying over a state that knows more forgets the extra items.
        let mut busy = Knowledge::initial(70);
        busy.merge_pair(5, 6);
        busy.copy_from(&Knowledge::initial(70));
        assert_eq!(busy, Knowledge::initial(70));
    }

    #[test]
    #[should_panic(expected = "knowledge size mismatch")]
    fn copy_from_rejects_a_size_mismatch() {
        Knowledge::initial(8).copy_from(&Knowledge::initial(9));
    }

    #[test]
    fn merge_pair_is_symmetric_union() {
        let mut k = Knowledge::initial(70);
        let expect: Vec<u64> = k.row(2).iter().zip(k.row(69)).map(|(a, b)| a | b).collect();
        let (cu, cv) = k.merge_pair(2, 69);
        assert!(cu && cv);
        assert_eq!(k.row(2), &expect[..]);
        assert_eq!(k.row(69), &expect[..]);
        // Merging again changes nothing; both orders agree.
        assert_eq!(k.merge_pair(69, 2), (false, false));
        assert_eq!(k.merge_pair(5, 5), (false, false));
    }

    #[test]
    fn empty_network_is_trivially_complete() {
        // n = 0: no processors, no items; every "for all processors"
        // statement holds vacuously and nothing panics.
        let k = Knowledge::initial(0);
        assert_eq!(k.n(), 0);
        assert_eq!(k.total_count(), 0);
        assert_eq!(k.min_count(), 0);
        assert!(k.all_complete());
        let b = Knowledge::broadcast_initial(0, 0);
        assert!(b.all_complete());
        assert_eq!(b.total_count(), 0);
    }

    #[test]
    fn word_boundary_sizes() {
        // n = 64 fits exactly one word, n = 65 spills into a second.
        for n in [63usize, 64, 65, 128, 129] {
            let k = Knowledge::initial(n);
            assert_eq!(k.words(), n.div_ceil(64));
            assert_eq!(k.total_count(), n);
            // The diagonal is set and the highest item is addressable.
            assert!(k.knows(n - 1, n - 1));
            assert!(!k.knows(0, n - 1));
            let mut k = k;
            let top = k.snapshot(n - 1);
            assert!(k.absorb_row(0, &top));
            assert!(k.knows(0, n - 1));
            assert_eq!(k.count(0), 2);
        }
    }

    #[test]
    fn broadcast_initial_at_word_boundaries() {
        for n in [64usize, 65] {
            for src in [0, 63, n - 1] {
                let k = Knowledge::broadcast_initial(n, src);
                assert_eq!(k.total_count(), 1, "n={n} src={src}");
                assert!(k.knows(src, src));
            }
        }
    }
}
