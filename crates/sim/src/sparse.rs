//! Sparse row table: million-vertex gossip without the dense matrix.
//!
//! The dense [`Knowledge`] table is `n²` bits — 125 GB at n = 10⁶ —
//! which caps every dense engine around n ≈ 3·10⁴. But the knowledge
//! sets arising from structured protocols are extremely regular: under a
//! hypercube sweep or a Knödel exchange a row is a union of a handful of
//! *intervals* of item indices, whatever `n` is. [`SparseKnowledge`]
//! therefore keeps each row as one of three shapes: a sorted list of
//! disjoint half-open runs `[start, end)`, a dense word block (a row
//! whose run list outgrew the `⌈n/64⌉`-word memory-parity point spills
//! once and stays dense), or `Full` — a completed row retires to a
//! zero-byte marker, incoming arcs short-circuit, and outgoing arcs
//! complete their targets in O(1).
//!
//! One step, [`SparseKnowledge::apply_round`], executes a synchronous
//! round over any `(from, to)` arc list under Definition 3.1. Systolic
//! runs ([`run_systolic_sparse`]) build the period's arc lists once and
//! step it cyclically, stopping at completion or at a fixed point once a
//! whole period changes nothing; randomized trials ([`crate::random`])
//! step it over a fresh arc list every round. The conformance suite
//! compares its raw tables with [`crate::reference`]'s via
//! [`SparseKnowledge::to_dense`].
//!
//! Rows of unstructured protocols do not stay runs: on a random regular
//! graph they spill to dense and the state climbs to the n²/8 bytes of
//! the dense table. The large-instance driver
//! ([`crate::sliced::run_systolic_large`]) therefore keeps this table
//! only while its state fits in one 256-item slice's working set and
//! restarts on the item-sliced engine from the first round it does not.

use crate::bitset::Knowledge;
use crate::engine::SimResult;
use sg_protocol::protocol::SystolicProtocol;

/// One row of the sparse knowledge table.
#[derive(Debug, Clone)]
enum RowRep {
    /// Sorted, disjoint, non-adjacent half-open item runs.
    Runs(Vec<(u32, u32)>),
    /// Spilled row: plain `⌈n/64⌉` words.
    Dense(Box<[u64]>),
    /// Retired row: knows every item; stores nothing.
    Full,
}

fn rep_bytes(rep: &RowRep) -> usize {
    match rep {
        RowRep::Runs(r) => r.len() * std::mem::size_of::<(u32, u32)>(),
        RowRep::Dense(d) => d.len() * 8,
        RowRep::Full => 0,
    }
}

/// Total item count of a run list.
fn run_len(runs: &[(u32, u32)]) -> usize {
    runs.iter().map(|&(s, e)| (e - s) as usize).sum()
}

/// `out = a ∪ b` for sorted disjoint run lists (adjacent runs coalesce).
fn run_union(a: &[(u32, u32)], b: &[(u32, u32)], out: &mut Vec<(u32, u32)>) {
    out.clear();
    let (mut i, mut j) = (0usize, 0usize);
    let mut cur: Option<(u32, u32)> = None;
    while i < a.len() || j < b.len() {
        let next = if j >= b.len() || (i < a.len() && a[i].0 <= b[j].0) {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        match cur {
            None => cur = Some(next),
            Some((s, e)) if next.0 <= e => cur = Some((s, e.max(next.1))),
            Some(c) => {
                out.push(c);
                cur = Some(next);
            }
        }
    }
    if let Some(c) = cur {
        out.push(c);
    }
}

/// ORs `runs` into a word block; returns the number of bits added.
fn dense_set_runs(w: &mut [u64], runs: &[(u32, u32)]) -> usize {
    let mut added = 0usize;
    for &(s, e) in runs {
        let (s, e) = (s as usize, e as usize);
        #[allow(clippy::needless_range_loop)] // lo/hi depend on wi, not just w[wi]
        for wi in s / 64..=(e - 1) / 64 {
            let lo = if wi == s / 64 { s % 64 } else { 0 };
            let hi = if wi == (e - 1) / 64 {
                (e - 1) % 64 + 1
            } else {
                64
            };
            let mask = if hi == 64 {
                !0u64 << lo
            } else {
                ((1u64 << hi) - 1) & (!0u64 << lo)
            };
            added += (mask & !w[wi]).count_ones() as usize;
            w[wi] |= mask;
        }
    }
    added
}

/// `dst |= src` word-wise; returns the number of bits added.
fn or_count(dst: &mut [u64], src: &[u64]) -> usize {
    let mut added = 0usize;
    for (d, s) in dst.iter_mut().zip(src) {
        added += (*s & !*d).count_ones() as usize;
        *d |= *s;
    }
    added
}

fn runs_to_dense(words: usize, runs: &[(u32, u32)]) -> Box<[u64]> {
    let mut d = vec![0u64; words].into_boxed_slice();
    dense_set_runs(&mut d, runs);
    d
}

/// The sparse knowledge table: run, dense or full rows, their counts,
/// and the completion and memory accounting that replaces
/// `Knowledge`'s O(n) scans. [`Self::apply_round`] executes one
/// *synchronous* round over an arbitrary arc list under strict
/// beginning-of-round semantics (Definition 3.1): every new row is
/// computed from the old table before any row is installed, so a vertex
/// that both sends and receives in the same round transfers exactly its
/// start-of-round knowledge, whatever the arc order. Rows stay interval
/// runs while knowledge is structured, spill once to `⌈n/64⌉` words when
/// it scatters (which randomized gossip and random regular graphs do),
/// and retire to zero bytes when complete.
#[derive(Debug)]
pub struct SparseKnowledge {
    n: usize,
    words: usize,
    /// Run count above which a row spills to dense (memory parity).
    spill: usize,
    rows: Vec<RowRep>,
    counts: Vec<u32>,
    /// Rows with `count < n`; 0 ⇔ gossip complete.
    incomplete: usize,
    /// Approximate heap bytes of all row representations.
    bytes: usize,
    /// Per-round `(target, source)` pairs, sorted so each target's
    /// sources are contiguous.
    grouped: Vec<(u32, u32)>,
    /// Computed new rows, installed only after every read is done.
    updates: Vec<(u32, RowRep, u32)>,
    /// Run-algebra double buffer for the per-target union fold.
    acc: Vec<(u32, u32)>,
    acc_next: Vec<(u32, u32)>,
}

impl SparseKnowledge {
    /// The initial state: every processor knows exactly its own item.
    pub fn new(n: usize) -> Self {
        let rows: Vec<RowRep> = (0..n)
            .map(|v| {
                if n == 1 {
                    RowRep::Full
                } else {
                    RowRep::Runs(vec![(v as u32, v as u32 + 1)])
                }
            })
            .collect();
        let words = n.div_ceil(64).max(1);
        Self {
            n,
            words,
            spill: words.max(16),
            bytes: rows.iter().map(rep_bytes).sum(),
            counts: vec![if n == 0 { 0 } else { 1 }; n],
            incomplete: if n <= 1 { 0 } else { n },
            rows,
            grouped: Vec::new(),
            updates: Vec::new(),
            acc: Vec::new(),
            acc_next: Vec::new(),
        }
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `true` when every processor knows every item (O(1)).
    pub fn all_complete(&self) -> bool {
        self.incomplete == 0
    }

    /// Number of items processor `v` knows.
    pub fn count(&self, v: usize) -> usize {
        self.counts[v] as usize
    }

    /// Minimum knowledge count over processors (O(n) over the count
    /// vector, not the rows).
    pub fn min_count(&self) -> usize {
        self.counts.iter().map(|&c| c as usize).min().unwrap_or(0)
    }

    /// Does processor `v` know item `item`?
    pub fn knows(&self, v: usize, item: usize) -> bool {
        match &self.rows[v] {
            RowRep::Full => true,
            RowRep::Runs(r) => r
                .binary_search_by(|&(s, e)| {
                    if (item as u32) < s {
                        std::cmp::Ordering::Greater
                    } else if (item as u32) >= e {
                        std::cmp::Ordering::Less
                    } else {
                        std::cmp::Ordering::Equal
                    }
                })
                .is_ok(),
            RowRep::Dense(d) => d[item / 64] >> (item % 64) & 1 == 1,
        }
    }

    /// Approximate heap footprint of the row representations.
    pub fn state_bytes(&self) -> usize {
        self.bytes
    }

    /// Expands into a dense [`Knowledge`] (tests and small-n diagnostics
    /// only — this is the allocation the sparse table exists to avoid).
    pub fn to_dense(&self) -> Knowledge {
        let (n, words) = (self.n, self.words);
        let mut k = Knowledge::initial(n);
        let tail_mask = if n.is_multiple_of(64) {
            !0u64
        } else {
            (1u64 << (n % 64)) - 1
        };
        let bits = k.bits_mut();
        for v in 0..n {
            let row = &mut bits[v * words..(v + 1) * words];
            match &self.rows[v] {
                RowRep::Runs(r) => {
                    row.fill(0);
                    dense_set_runs(row, r);
                }
                RowRep::Dense(d) => row.copy_from_slice(d),
                RowRep::Full => {
                    row.fill(!0);
                    row[words - 1] = tail_mask;
                }
            }
        }
        k
    }

    /// Replaces row `v` with `rep` and its new `count`, retiring it to
    /// [`RowRep::Full`] when complete; keeps the byte and completion
    /// accounting exact.
    fn install(&mut self, v: usize, rep: RowRep, count: usize) {
        let full = count == self.n;
        let rep = if full { RowRep::Full } else { rep };
        self.bytes -= rep_bytes(&self.rows[v]);
        self.bytes += rep_bytes(&rep);
        if full && (self.counts[v] as usize) < self.n {
            self.incomplete -= 1;
        }
        self.counts[v] = count as u32;
        self.rows[v] = rep;
    }

    /// Applies one synchronous round of `(from, to)` transfers. Targets
    /// read beginning-of-round source state only; duplicate arcs and
    /// self-loops are ignored. Returns `true` if anything changed.
    pub fn apply_round(&mut self, arcs: &[(u32, u32)]) -> bool {
        let n = self.n;
        self.grouped.clear();
        for &(from, to) in arcs {
            if from != to && (self.counts[to as usize] as usize) < n {
                self.grouped.push((to, from));
            }
        }
        self.grouped.sort_unstable();
        self.grouped.dedup();
        // Phase 1: compute every changed target's new row off the old
        // table. Nothing is installed yet, so a row that is both source
        // and target this round contributes its start-of-round content.
        self.updates.clear();
        let mut i = 0;
        while i < self.grouped.len() {
            let t = self.grouped[i].0;
            let mut j = i;
            while j < self.grouped.len() && self.grouped[j].0 == t {
                j += 1;
            }
            let sources = &self.grouped[i..j];
            i = j;
            let ti = t as usize;
            let c0 = self.counts[ti] as usize;
            // Any full source completes the target outright.
            if sources
                .iter()
                .any(|&(_, f)| matches!(self.rows[f as usize], RowRep::Full))
            {
                self.updates.push((t, RowRep::Full, n as u32));
                continue;
            }
            let dense_involved = matches!(self.rows[ti], RowRep::Dense(_))
                || sources
                    .iter()
                    .any(|&(_, f)| matches!(self.rows[f as usize], RowRep::Dense(_)));
            if dense_involved {
                // Word-block path: clone the target's row and OR every
                // source in, counting added bits as we go.
                let mut w = match &self.rows[ti] {
                    RowRep::Dense(d) => d.clone(),
                    RowRep::Runs(r) => runs_to_dense(self.words, r),
                    RowRep::Full => unreachable!("count < n"),
                };
                let mut added = 0usize;
                for &(_, f) in sources {
                    added += match &self.rows[f as usize] {
                        RowRep::Dense(d) => or_count(&mut w, d),
                        RowRep::Runs(r) => dense_set_runs(&mut w, r),
                        RowRep::Full => unreachable!("full sources handled above"),
                    };
                }
                if added > 0 {
                    self.updates
                        .push((t, RowRep::Dense(w), (c0 + added) as u32));
                }
                continue;
            }
            // All-runs path: fold the sources into the target's run list.
            self.acc.clear();
            if let RowRep::Runs(r) = &self.rows[ti] {
                self.acc.extend_from_slice(r);
            }
            for &(_, f) in sources {
                let RowRep::Runs(src) = &self.rows[f as usize] else {
                    unreachable!("non-runs sources handled above");
                };
                run_union(&self.acc, src, &mut self.acc_next);
                std::mem::swap(&mut self.acc, &mut self.acc_next);
            }
            let count = run_len(&self.acc);
            if count > c0 {
                let rep = if self.acc.len() > self.spill {
                    RowRep::Dense(runs_to_dense(self.words, &self.acc))
                } else {
                    RowRep::Runs(self.acc.clone())
                };
                self.updates.push((t, rep, count as u32));
            }
        }
        // Phase 2: install.
        let changed = !self.updates.is_empty();
        let mut updates = std::mem::take(&mut self.updates);
        for (t, rep, count) in updates.drain(..) {
            self.install(t as usize, rep, count as usize);
        }
        self.updates = updates;
        changed
    }
}

/// Outcome of a large-instance run ([`crate::sliced::run_systolic_large`]):
/// the usual [`SimResult`] plus the resource telemetry large-n callers
/// report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseOutcome {
    /// Completion time and (optional) min-count trace, bit-identical to
    /// the reference engine (unless the run was memory-aborted).
    pub result: SimResult,
    /// Rounds actually executed (fixed-point exits stop early).
    pub rounds_run: usize,
    /// Peak approximate heap bytes of the knowledge state: the sparse
    /// rows, or after a hand-off the larger of the sparse peak and one
    /// slice's working set.
    pub peak_bytes: usize,
    /// `true` when the run stopped because `mem_limit` was exceeded.
    pub aborted_mem: bool,
    /// Set when the rows stopped compressing and the run restarted on
    /// the item-sliced engine; `None` when it stayed sparse.
    pub handoff: Option<Handoff>,
}

/// Why a large run left the sparse engine: the first round whose sparse
/// state outgrew one slice's working set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handoff {
    /// The sparse round (1-based) whose state crossed the threshold.
    pub round: usize,
    /// Sparse state bytes after that round.
    pub sparse_bytes: usize,
    /// One slice's working set, `n · SLICE_ITEMS / 8` bytes.
    pub slice_bytes: usize,
}

/// Runs a systolic protocol on the sparse row table: the period's arc
/// lists are built once and [`SparseKnowledge::apply_round`] steps
/// through them cyclically. Stops early with `aborted_mem` if the row
/// storage exceeds `mem_limit` bytes (a graceful out for rows that
/// densify — the alternative is an OOM kill at n²/8 bytes), and returns
/// `Err` in the first round whose state exceeds `handoff_above` bytes
/// (checked after completion and `mem_limit`). A period that changes
/// nothing for `s` rounds in a row is a fixed point: the run stops and
/// pads the trace.
pub(crate) fn run_sparse(
    sp: &SystolicProtocol,
    n: usize,
    max_rounds: usize,
    trace: bool,
    mem_limit: Option<usize>,
    handoff_above: usize,
) -> Result<SparseOutcome, Handoff> {
    // Each round's arcs sorted by target once, so `apply_round`'s
    // per-round sort of its `(target, source)` list meets sorted input.
    // A `Round` is sorted by source: sorting that order took ~0.65 s
    // over the 20 rounds of W(20, 2²⁰) on a 2-CPU box, sorted input
    // ~0.04 s.
    let period: Vec<Vec<(u32, u32)>> = sp
        .period()
        .iter()
        .map(|r| {
            let mut arcs: Vec<(u32, u32)> = r.arcs().iter().map(|a| (a.from, a.to)).collect();
            arcs.sort_unstable_by_key(|&(from, to)| (to, from));
            arcs
        })
        .collect();
    let mut k = SparseKnowledge::new(n);
    let mut trace_vec = Vec::new();
    let mut peak = k.state_bytes();
    let done = |completed_at, trace, rounds_run, peak_bytes, aborted_mem| {
        Ok(SparseOutcome {
            result: SimResult {
                completed_at,
                trace,
            },
            rounds_run,
            peak_bytes,
            aborted_mem,
            handoff: None,
        })
    };
    if k.all_complete() {
        return done(Some(0), trace_vec, 0, peak, false);
    }
    let s = period.len();
    let mut idle_rounds = 0usize;
    let mut rounds_run = 0usize;
    for i in 0..max_rounds {
        let changed = k.apply_round(&period[i % s]);
        rounds_run = i + 1;
        if trace {
            trace_vec.push(k.min_count());
        }
        let bytes = k.state_bytes();
        peak = peak.max(bytes);
        if k.all_complete() {
            return done(Some(i + 1), trace_vec, rounds_run, peak, false);
        }
        if mem_limit.is_some_and(|limit| bytes > limit) {
            return done(None, trace_vec, rounds_run, peak, true);
        }
        if bytes > handoff_above {
            return Err(Handoff {
                round: rounds_run,
                sparse_bytes: bytes,
                slice_bytes: handoff_above,
            });
        }
        idle_rounds = if changed { 0 } else { idle_rounds + 1 };
        if idle_rounds >= s {
            // Fixed point of the period: pad the trace exactly like the
            // reference would.
            if trace {
                let stuck = k.min_count();
                trace_vec.resize(max_rounds, stuck);
            }
            break;
        }
    }
    done(None, trace_vec, rounds_run, peak, false)
}

/// [`crate::sliced::run_systolic_large`] on one thread: the sparse
/// engine, handing off to the item-sliced engine once the rows stop
/// compressing, and aborting past `mem_limit` bytes of sparse state.
pub fn run_systolic_sparse_with_limit(
    sp: &SystolicProtocol,
    n: usize,
    max_rounds: usize,
    trace: bool,
    mem_limit: Option<usize>,
) -> SparseOutcome {
    crate::sliced::run_systolic_large(sp, n, max_rounds, trace, mem_limit, 1)
}

/// Runs a systolic protocol through the sparse engine; output is
/// bit-identical to [`crate::reference::run_systolic_reference`],
/// including the trace.
pub fn run_systolic_sparse(
    sp: &SystolicProtocol,
    n: usize,
    max_rounds: usize,
    trace: bool,
) -> SimResult {
    run_sparse(sp, n, max_rounds, trace, None, usize::MAX)
        .expect("no state exceeds usize::MAX bytes")
        .result
}

/// Sparse variant of [`crate::engine::systolic_gossip_time`]; exact,
/// with O(state) memory instead of O(n²) bits.
pub fn systolic_gossip_time_sparse(
    sp: &SystolicProtocol,
    n: usize,
    max_rounds: usize,
) -> Option<usize> {
    run_systolic_sparse(sp, n, max_rounds, false).completed_at
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{run_systolic_reference, systolic_gossip_time_reference};
    use sg_graphs::digraph::Arc;
    use sg_protocol::builders;
    use sg_protocol::mode::Mode;
    use sg_protocol::round::Round;

    fn arcs_of(round: &Round) -> Vec<(u32, u32)> {
        round.arcs().iter().map(|a| (a.from, a.to)).collect()
    }

    #[test]
    fn run_union_coalesces_and_counts() {
        let mut out = Vec::new();
        run_union(&[(0, 3), (5, 7)], &[(2, 6), (9, 10)], &mut out);
        assert_eq!(out, vec![(0, 7), (9, 10)]);
        run_union(&[(0, 3)], &[(3, 5)], &mut out); // adjacency coalesces
        assert_eq!(out, vec![(0, 5)]);
        run_union(&[], &[(1, 2)], &mut out);
        assert_eq!(out, vec![(1, 2)]);
        assert_eq!(run_len(&[(0, 3), (5, 9)]), 7);
    }

    #[test]
    fn dense_runs_roundtrip_at_word_boundaries() {
        let mut w = vec![0u64; 3];
        // Runs straddling and exactly hitting word boundaries.
        let added = dense_set_runs(&mut w, &[(0, 1), (63, 65), (128, 192)]);
        assert_eq!(added, 1 + 2 + 64);
        assert_eq!(w[0], 1 | (1 << 63));
        assert_eq!(w[1], 1);
        assert_eq!(w[2], !0);
        // Re-setting adds nothing.
        assert_eq!(dense_set_runs(&mut w, &[(63, 65)]), 0);
    }

    #[test]
    fn sparse_matches_reference_on_builders() {
        for (sp, n) in [
            (builders::hypercube_sweep(5), 32usize),
            (builders::path_rrll(9), 9),
            (builders::cycle_two_color_directed(8), 8),
            (builders::knodel_sweep(4, 16), 16),
            (builders::grid_traffic_light(5, 4), 20),
            (builders::complete_round_robin(40), 40), // scattered rows: spills
        ] {
            let a = run_systolic_sparse(&sp, n, 20 * n, true);
            let b = run_systolic_reference(&sp, n, 20 * n, true);
            assert_eq!(a, b);
            assert!(a.completed_at.is_some());
        }
    }

    #[test]
    fn sparse_tables_bit_identical_per_round() {
        for (sp, n) in [
            (builders::hypercube_sweep(4), 16usize),
            (builders::complete_round_robin(70), 70),
            (builders::grid_traffic_light(6, 5), 30),
        ] {
            let mut k = SparseKnowledge::new(n);
            let mut oracle = Knowledge::initial(n);
            for i in 0..4 * sp.s() + 8 {
                let round = sp.round_at(i);
                let changed = k.apply_round(&arcs_of(round));
                let oracle_changed = crate::reference::apply_round_reference(&mut oracle, round);
                assert_eq!(changed, oracle_changed, "round {i}");
                assert_eq!(k.to_dense(), oracle, "round {i}");
                assert_eq!(k.min_count(), oracle.min_count(), "round {i}");
            }
        }
    }

    #[test]
    fn completed_rows_retire_and_free_storage() {
        let sp = builders::hypercube_sweep(6);
        let mut k = SparseKnowledge::new(64);
        for i in 0..6 {
            k.apply_round(&arcs_of(sp.round_at(i)));
        }
        assert!(k.all_complete());
        assert_eq!(k.state_bytes(), 0, "full rows store nothing");
        assert_eq!(k.min_count(), 64);
    }

    #[test]
    fn fixed_points_early_exit_with_padded_trace() {
        let sp = SystolicProtocol::new(vec![Round::new(vec![Arc::new(0, 1)])], Mode::Directed);
        let a = run_systolic_sparse(&sp, 3, 1000, true);
        let b = run_systolic_reference(&sp, 3, 1000, true);
        assert_eq!(a, b);
        assert_eq!(a.completed_at, None);
        assert_eq!(a.trace.len(), 1000);
    }

    #[test]
    fn budget_exhaustion_matches_reference() {
        let sp = builders::path_rrll(10);
        let a = run_systolic_sparse(&sp, 10, 3, true);
        let b = run_systolic_reference(&sp, 10, 3, true);
        assert_eq!(a, b);
        assert_eq!(a.completed_at, None);
    }

    #[test]
    fn skipping_stays_exact_on_slow_protocols() {
        let n = 24;
        let sp = builders::path_rrll(n);
        assert_eq!(
            systolic_gossip_time_sparse(&sp, n, 10 * n),
            systolic_gossip_time_reference(&sp, n, 10 * n)
        );
    }

    #[test]
    fn memory_limit_aborts_gracefully() {
        // A 1-byte budget trips immediately on any real instance.
        let sp = builders::complete_round_robin(40);
        let out = run_systolic_sparse_with_limit(&sp, 40, 1000, false, Some(1));
        assert!(out.aborted_mem);
        assert_eq!(out.result.completed_at, None);
        assert!(out.rounds_run < 1000);
        assert!(out.peak_bytes > 1);
    }

    #[test]
    fn trivial_networks() {
        let sp = SystolicProtocol::new(vec![Round::empty()], Mode::Directed);
        assert_eq!(systolic_gossip_time_sparse(&sp, 0, 10), Some(0));
        assert_eq!(systolic_gossip_time_sparse(&sp, 1, 10), Some(0));
    }

    #[test]
    fn large_knodel_completes_with_interval_rows() {
        // W(10, 2048): rows stay a handful of runs end to end, so the
        // state never approaches the 512 KiB dense table.
        let n = 2048;
        let sp = builders::knodel_sweep(10, n);
        let out = run_systolic_sparse_with_limit(&sp, n, 200, false, None);
        assert!(out.result.completed_at.is_some());
        assert!(
            out.peak_bytes < n * n / 8 / 4,
            "peak {} should be far below dense {}",
            out.peak_bytes,
            n * n / 8
        );
    }
}
