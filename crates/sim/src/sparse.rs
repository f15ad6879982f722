//! Sparse delta engine: million-vertex gossip without the dense matrix.
//!
//! The dense [`Knowledge`] table is `n²` bits — 125 GB at n = 10⁶ —
//! which caps every dense engine around n ≈ 3·10⁴. But the knowledge
//! sets arising from structured protocols are extremely regular: under a
//! hypercube sweep or a Knödel exchange a row is a union of a handful of
//! *intervals* of item indices, whatever `n` is. This engine therefore
//! keeps each row as one of three shapes: a sorted list of disjoint
//! half-open runs `[start, end)`, a dense word block (a row whose run
//! list outgrew the `⌈n/64⌉`-word memory-parity point spills once and
//! stays dense), or `Full` — a completed row retires to a zero-byte
//! marker, incoming arcs short-circuit, and outgoing arcs complete their
//! targets in O(1).
//!
//! Propagation is exact *frontier* (delta) propagation: per-vertex
//! version counters bumped at end-of-round, per-arc `seen` versions,
//! per-pair version pairs, and a fixed-point early exit once a whole
//! period changes nothing. On top of that, a row that changed records
//! *which runs were added* in that bump. An arc whose `seen` version is exactly one
//! behind its source then unions only that delta into its target —
//! exact, because `seen = v−1` certifies the target already contains the
//! source's version-`v−1` content, so the delta is all the arc could
//! transfer. Deltas are tracked through pure run algebra; a merge that
//! goes through a dense block falls back to full-row unions (the version
//! counters still skip all idle arcs), so every path stays bit-exact
//! against [`crate::reference`] — the conformance suite compares raw
//! tables via [`SparseEngine::to_dense`].

use crate::bitset::Knowledge;
use crate::engine::SimResult;
use crate::schedule::CompiledSchedule;
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

/// A borrowed view of a source row (live, snapshot, or delta runs).
enum SrcView<'a> {
    Full,
    Runs(&'a [(u32, u32)]),
    Dense(&'a [u64]),
}

fn view_of(rep: &RowRep) -> SrcView<'_> {
    match rep {
        RowRep::Full => SrcView::Full,
        RowRep::Runs(r) => SrcView::Runs(r),
        RowRep::Dense(d) => SrcView::Dense(d),
    }
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

/// `out = a \ b` for sorted disjoint run lists.
fn run_subtract(a: &[(u32, u32)], b: &[(u32, u32)], out: &mut Vec<(u32, u32)>) {
    out.clear();
    let mut j = 0usize;
    for &(start, end) in a {
        let mut s = start;
        while j < b.len() && b[j].1 <= s {
            j += 1;
        }
        // `b[k]` may extend past this a-run into the next one, so scan
        // with a local index and leave `j` at the first still-relevant run.
        let mut k = j;
        while s < end {
            if k >= b.len() || b[k].0 >= end {
                out.push((s, end));
                break;
            }
            let (bs, be) = b[k];
            if bs > s {
                out.push((s, bs));
            }
            if be >= end {
                break;
            }
            s = be;
            k += 1;
        }
    }
}

/// Sorts a list of pairwise-disjoint runs and coalesces adjacency.
fn normalize_runs(r: &mut Vec<(u32, u32)>) {
    if r.len() <= 1 {
        return;
    }
    r.sort_unstable();
    let mut w = 0usize;
    for i in 1..r.len() {
        if r[i].0 <= r[w].1 {
            r[w].1 = r[w].1.max(r[i].1);
        } else {
            w += 1;
            r[w] = r[i];
        }
    }
    r.truncate(w + 1);
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

/// Reusable merge scratch. `added_a`/`exact_a` describe what the first
/// (or only) written row gained, `added_b`/`exact_b` the second (pair
/// merges). `exact` means the added runs are the complete delta; inexact
/// merges (anything through a dense block) invalidate the target's
/// pending delta instead.
#[derive(Debug, Default)]
struct Scratch {
    union: Vec<(u32, u32)>,
    added_a: Vec<(u32, u32)>,
    added_b: Vec<(u32, u32)>,
    exact_a: bool,
    exact_b: bool,
}

/// The sparse knowledge table: rows, counts, and the completion /
/// memory accounting that replaces `Knowledge`'s O(n) scans.
#[derive(Debug)]
struct SparseState {
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
}

impl SparseState {
    fn new(n: usize) -> Self {
        let words = n.div_ceil(64).max(1);
        let rows: Vec<RowRep> = (0..n)
            .map(|v| {
                if n == 1 {
                    RowRep::Full
                } else {
                    RowRep::Runs(vec![(v as u32, v as u32 + 1)])
                }
            })
            .collect();
        Self {
            n,
            words,
            spill: words.max(16),
            bytes: rows.iter().map(rep_bytes).sum(),
            counts: vec![if n == 0 { 0 } else { 1 }; n],
            incomplete: if n <= 1 { 0 } else { n },
            rows,
        }
    }

    /// Removes row `v` for rebuilding (bytes unaccounted until
    /// [`Self::install`] puts a replacement back).
    fn take(&mut self, v: usize) -> RowRep {
        let r = std::mem::replace(&mut self.rows[v], RowRep::Full);
        self.bytes -= rep_bytes(&r);
        r
    }

    /// Installs row `v` with its new count, retiring it to [`RowRep::Full`]
    /// when complete.
    fn install(&mut self, v: usize, rep: RowRep, count: usize) {
        let full = count == self.n;
        let rep = if full { RowRep::Full } else { rep };
        self.bytes += rep_bytes(&rep);
        if full && (self.counts[v] as usize) < self.n {
            self.incomplete -= 1;
        }
        self.counts[v] = count as u32;
        self.rows[v] = rep;
    }

    fn make_full(&mut self, v: usize) {
        let _ = self.take(v);
        self.install(v, RowRep::Full, self.n);
    }

    /// Clean full-duplex pair merge: both rows end at their union.
    /// Returns per-endpoint changed flags; the added runs (and their
    /// exactness) land in `sc.added_a`/`sc.added_b` for `u`/`v`.
    fn merge_pair(&mut self, u: usize, v: usize, sc: &mut Scratch) -> (bool, bool) {
        sc.added_a.clear();
        sc.added_b.clear();
        sc.exact_a = true;
        sc.exact_b = true;
        let n = self.n;
        let (cu0, cv0) = (self.counts[u] as usize, self.counts[v] as usize);
        if cu0 == n && cv0 == n {
            return (false, false);
        }
        if cu0 == n {
            self.make_full(v);
            sc.exact_b = false;
            return (false, true);
        }
        if cv0 == n {
            self.make_full(u);
            sc.exact_a = false;
            return (true, false);
        }
        let ru = self.take(u);
        let rv = self.take(v);
        match (ru, rv) {
            (RowRep::Runs(a), RowRep::Runs(b)) => {
                run_subtract(&b, &a, &mut sc.added_a);
                run_subtract(&a, &b, &mut sc.added_b);
                let (cu, cv) = (!sc.added_a.is_empty(), !sc.added_b.is_empty());
                if !cu && !cv {
                    self.install(u, RowRep::Runs(a), cu0);
                    self.install(v, RowRep::Runs(b), cv0);
                    return (false, false);
                }
                run_union(&a, &b, &mut sc.union);
                let count = cu0 + run_len(&sc.added_a);
                if sc.union.len() > self.spill {
                    let d = runs_to_dense(self.words, &sc.union);
                    self.install(u, RowRep::Dense(d.clone()), count);
                    self.install(v, RowRep::Dense(d), count);
                } else {
                    self.install(u, RowRep::Runs(sc.union.clone()), count);
                    self.install(v, RowRep::Runs(sc.union.clone()), count);
                }
                (cu, cv)
            }
            (ru, rv) => {
                // At least one dense side: go through a word block. The
                // added bits are not extracted as runs, so both deltas
                // turn inexact (version skipping still applies).
                sc.exact_a = false;
                sc.exact_b = false;
                let mut w = match ru {
                    RowRep::Dense(d) => d,
                    RowRep::Runs(r) => runs_to_dense(self.words, &r),
                    RowRep::Full => unreachable!("full rows handled above"),
                };
                let added_u = match &rv {
                    RowRep::Dense(d) => or_count(&mut w, d),
                    RowRep::Runs(r) => dense_set_runs(&mut w, r),
                    RowRep::Full => unreachable!("full rows handled above"),
                };
                let count = cu0 + added_u;
                self.install(u, RowRep::Dense(w.clone()), count);
                self.install(v, RowRep::Dense(w), count);
                (count > cu0, count > cv0)
            }
        }
    }

    /// `t ← t ∪ view`. Returns `(changed, exact)`; exact added runs (for
    /// the delta bookkeeping) land in `sc.added_a`.
    fn absorb_view(&mut self, t: usize, view: SrcView<'_>, sc: &mut Scratch) -> (bool, bool) {
        sc.added_a.clear();
        let c0 = self.counts[t] as usize;
        if c0 == self.n {
            return (false, true);
        }
        match view {
            SrcView::Full => {
                self.make_full(t);
                (true, false)
            }
            SrcView::Runs(src) => match self.take(t) {
                RowRep::Runs(a) => {
                    run_subtract(src, &a, &mut sc.added_a);
                    if sc.added_a.is_empty() {
                        self.install(t, RowRep::Runs(a), c0);
                        return (false, true);
                    }
                    run_union(&a, src, &mut sc.union);
                    let count = c0 + run_len(&sc.added_a);
                    if sc.union.len() > self.spill {
                        self.install(
                            t,
                            RowRep::Dense(runs_to_dense(self.words, &sc.union)),
                            count,
                        );
                    } else {
                        self.install(t, RowRep::Runs(sc.union.clone()), count);
                    }
                    (true, true)
                }
                RowRep::Dense(mut d) => {
                    let added = dense_set_runs(&mut d, src);
                    self.install(t, RowRep::Dense(d), c0 + added);
                    (added > 0, false)
                }
                RowRep::Full => unreachable!("count < n"),
            },
            SrcView::Dense(src) => {
                let mut d = match self.take(t) {
                    RowRep::Dense(d) => d,
                    RowRep::Runs(a) => runs_to_dense(self.words, &a),
                    RowRep::Full => unreachable!("count < n"),
                };
                let added = or_count(&mut d, src);
                self.install(t, RowRep::Dense(d), c0 + added);
                (added > 0, false)
            }
        }
    }

    /// `t ← t ∪ runs` (the delta fast path).
    fn absorb_runs(&mut self, t: usize, runs: &[(u32, u32)], sc: &mut Scratch) -> (bool, bool) {
        self.absorb_view(t, SrcView::Runs(runs), sc)
    }

    /// `t ← t ∪ from` off `from`'s live row (valid when `from` is not
    /// written this round — the compiled snapshot plan guarantees it).
    fn absorb_from(&mut self, t: usize, from: usize, sc: &mut Scratch) -> (bool, bool) {
        debug_assert_ne!(t, from, "compile drops self-loops");
        if matches!(self.rows[from], RowRep::Full) {
            sc.added_a.clear();
            if self.counts[t] as usize == self.n {
                return (false, true);
            }
            self.make_full(t);
            return (true, false);
        }
        // Move the source row out so the table can be mutated; the row
        // itself is untouched and restored as-is (bytes net zero).
        let src = std::mem::replace(&mut self.rows[from], RowRep::Full);
        let r = self.absorb_view(t, view_of(&src), sc);
        self.rows[from] = src;
        r
    }
}

/// Expands a sparse table into a dense [`Knowledge`] (tests and small-n
/// diagnostics only — this is the allocation the sparse engines exist to
/// avoid).
fn state_to_dense(state: &SparseState) -> Knowledge {
    let n = state.n;
    let words = state.words;
    let mut k = Knowledge::initial(n);
    let tail_mask = if n.is_multiple_of(64) {
        !0u64
    } else {
        (1u64 << (n % 64)) - 1
    };
    let bits = k.bits_mut();
    for v in 0..n {
        let row = &mut bits[v * words..(v + 1) * words];
        match &state.rows[v] {
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

/// The sparse knowledge table without a schedule: for engines whose arc
/// sets are generated on the fly — randomized gossip draws a fresh arc
/// set every round, so there is no compiled period to key frontier
/// versions on. [`Self::apply_round`] executes one *synchronous* round
/// over an arbitrary arc list under strict beginning-of-round semantics
/// (Definition 3.1): every new row is computed from the old table before
/// any row is installed, so a vertex that both sends and receives in the
/// same round transfers exactly its start-of-round knowledge, whatever
/// the arc order. Rows use the same run/dense/full shapes as
/// [`SparseEngine`] — interval runs while knowledge is structured, a
/// one-time spill to `⌈n/64⌉` words when it scatters (which randomized
/// gossip does), and zero-byte retirement for completed rows.
#[derive(Debug)]
pub struct SparseKnowledge {
    state: SparseState,
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
        Self {
            state: SparseState::new(n),
            grouped: Vec::new(),
            updates: Vec::new(),
            acc: Vec::new(),
            acc_next: Vec::new(),
        }
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.state.n
    }

    /// `true` when every processor knows every item (O(1)).
    pub fn all_complete(&self) -> bool {
        self.state.incomplete == 0
    }

    /// Number of items processor `v` knows.
    pub fn count(&self, v: usize) -> usize {
        self.state.counts[v] as usize
    }

    /// Minimum knowledge count over processors.
    pub fn min_count(&self) -> usize {
        self.state
            .counts
            .iter()
            .map(|&c| c as usize)
            .min()
            .unwrap_or(0)
    }

    /// Does processor `v` know item `item`?
    pub fn knows(&self, v: usize, item: usize) -> bool {
        match &self.state.rows[v] {
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
        self.state.bytes
    }

    /// Expands into a dense [`Knowledge`] (tests and small n only).
    pub fn to_dense(&self) -> Knowledge {
        state_to_dense(&self.state)
    }

    /// Applies one synchronous round of `(from, to)` transfers. Targets
    /// read beginning-of-round source state only; duplicate arcs and
    /// self-loops are ignored. Returns `true` if anything changed.
    pub fn apply_round(&mut self, arcs: &[(u32, u32)]) -> bool {
        let n = self.state.n;
        self.grouped.clear();
        for &(from, to) in arcs {
            if from != to && (self.state.counts[to as usize] as usize) < n {
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
            let c0 = self.state.counts[ti] as usize;
            // Any full source completes the target outright.
            if sources
                .iter()
                .any(|&(_, f)| matches!(self.state.rows[f as usize], RowRep::Full))
            {
                self.updates.push((t, RowRep::Full, n as u32));
                continue;
            }
            let dense_involved = matches!(self.state.rows[ti], RowRep::Dense(_))
                || sources
                    .iter()
                    .any(|&(_, f)| matches!(self.state.rows[f as usize], RowRep::Dense(_)));
            if dense_involved {
                // Word-block path: clone the target's row and OR every
                // source in, counting added bits as we go.
                let mut w = match &self.state.rows[ti] {
                    RowRep::Dense(d) => d.clone(),
                    RowRep::Runs(r) => runs_to_dense(self.state.words, r),
                    RowRep::Full => unreachable!("count < n"),
                };
                let mut added = 0usize;
                for &(_, f) in sources {
                    added += match &self.state.rows[f as usize] {
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
            if let RowRep::Runs(r) = &self.state.rows[ti] {
                self.acc.extend_from_slice(r);
            }
            for &(_, f) in sources {
                let RowRep::Runs(src) = &self.state.rows[f as usize] else {
                    unreachable!("non-runs sources handled above");
                };
                run_union(&self.acc, src, &mut self.acc_next);
                std::mem::swap(&mut self.acc, &mut self.acc_next);
            }
            let count = run_len(&self.acc);
            if count > c0 {
                let rep = if self.acc.len() > self.state.spill {
                    RowRep::Dense(runs_to_dense(self.state.words, &self.acc))
                } else {
                    RowRep::Runs(self.acc.clone())
                };
                self.updates.push((t, rep, count as u32));
            }
        }
        // Phase 2: install. `take`/`install` keep the byte and
        // completion accounting exact and retire full rows to zero bytes.
        let changed = !self.updates.is_empty();
        for (t, rep, count) in self.updates.drain(..) {
            let ti = t as usize;
            let _ = self.state.take(ti);
            self.state.install(ti, rep, count as usize);
        }
        changed
    }
}

/// The sparse engine: a compiled schedule, the sparse table, and the
/// frontier staleness state (versions, per-arc/per-pair seen marks,
/// per-row last-bump deltas). Owns its knowledge state — build one per
/// execution.
#[derive(Debug)]
pub struct SparseEngine {
    sched: CompiledSchedule,
    state: SparseState,
    /// Per-vertex row version; starts at 1, bumped at end-of-round.
    ver: Vec<u64>,
    /// `seen[round][arc]`: source version last absorbed; 0 = never.
    seen: Vec<Vec<u64>>,
    /// `seen_pairs[round][pair]`: endpoint versions at the last merge.
    seen_pairs: Vec<Vec<(u64, u64)>>,
    /// Runs added by each row's latest version bump (valid iff
    /// `delta_ok`); version 1's delta is the initial single-item run.
    deltas: Vec<Vec<(u32, u32)>>,
    delta_ok: Vec<bool>,
    /// In-round accumulators for the next delta.
    pending: Vec<Vec<(u32, u32)>>,
    pending_ok: Vec<bool>,
    /// Reusable per-round scratch.
    active: Vec<bool>,
    slot_needed: Vec<bool>,
    /// Snapshot slots: row representations cloned at round start.
    snap: Vec<RowRep>,
    changed_targets: Vec<u32>,
    target_changed: Vec<bool>,
    sc: Scratch,
}

impl SparseEngine {
    /// Builds the engine (and its initial knowledge state) for one
    /// compiled schedule.
    pub fn new(sched: CompiledSchedule) -> Self {
        let n = sched.n();
        let seen: Vec<Vec<u64>> = (0..sched.round_count())
            .map(|t| vec![0u64; sched.round(t).arcs.len()])
            .collect();
        let seen_pairs: Vec<Vec<(u64, u64)>> = (0..sched.round_count())
            .map(|t| vec![(0u64, 0u64); sched.round(t).pairs.len()])
            .collect();
        let max_arcs = seen.iter().map(Vec::len).max().unwrap_or(0);
        let max_slots = (0..sched.round_count())
            .map(|t| sched.round(t).snap_sources.len())
            .max()
            .unwrap_or(0);
        Self {
            state: SparseState::new(n),
            ver: vec![1u64; n],
            seen,
            seen_pairs,
            // Version 1 added the initial content {v} relative to the
            // empty row, so first-contact arcs ride the delta path too.
            deltas: (0..n).map(|v| vec![(v as u32, v as u32 + 1)]).collect(),
            delta_ok: vec![n > 1; n],
            pending: vec![Vec::new(); n],
            pending_ok: vec![true; n],
            active: vec![false; max_arcs],
            slot_needed: vec![false; max_slots],
            snap: vec![RowRep::Full; max_slots],
            changed_targets: Vec::new(),
            target_changed: vec![false; n],
            sc: Scratch::default(),
            sched,
        }
    }

    /// Convenience: compile one systolic period and wrap it.
    pub fn for_protocol(sp: &SystolicProtocol, n: usize) -> Self {
        Self::new(CompiledSchedule::compile(sp.period(), n))
    }

    /// Network size.
    pub fn n(&self) -> usize {
        self.state.n
    }

    /// The period length.
    pub fn round_count(&self) -> usize {
        self.sched.round_count()
    }

    /// `true` when every processor knows every item (O(1)).
    pub fn all_complete(&self) -> bool {
        self.state.incomplete == 0
    }

    /// Number of items processor `v` knows.
    pub fn count(&self, v: usize) -> usize {
        self.state.counts[v] as usize
    }

    /// Minimum knowledge count over processors (O(n) over the count
    /// vector, not the bit table).
    pub fn min_count(&self) -> usize {
        self.state
            .counts
            .iter()
            .map(|&c| c as usize)
            .min()
            .unwrap_or(0)
    }

    /// Approximate heap footprint of the row representations.
    pub fn state_bytes(&self) -> usize {
        self.state.bytes
    }

    /// Expands the sparse table into a dense [`Knowledge`] (tests and
    /// small-n diagnostics only — this is the allocation the engine
    /// exists to avoid).
    pub fn to_dense(&self) -> Knowledge {
        state_to_dense(&self.state)
    }

    /// Applies the round at `time` (cyclically). Bit-identical to the
    /// dense engines; returns `true` if anything changed.
    pub fn apply(&mut self, time: usize) -> bool {
        if self.sched.round_count() == 0 {
            return false;
        }
        let idx = time % self.sched.round_count();
        let n = self.state.n;
        let r = self.sched.round(idx);
        // Pass 0: clean full-duplex pairs, with the frontier's version
        // skipping (the merge is the only writer of either endpoint).
        for (j, &(u, v)) in r.pairs.iter().enumerate() {
            let (ui, vi) = (u as usize, v as usize);
            let vs = (self.ver[ui], self.ver[vi]);
            if self.seen_pairs[idx][j] == vs {
                continue;
            }
            let (cu, cv) = self.state.merge_pair(ui, vi, &mut self.sc);
            self.seen_pairs[idx][j] = (vs.0 + u64::from(cu), vs.1 + u64::from(cv));
            if cu {
                note_change(
                    u,
                    self.sc.exact_a,
                    &self.sc.added_a,
                    &mut self.changed_targets,
                    &mut self.target_changed,
                    &mut self.pending,
                    &mut self.pending_ok,
                );
            }
            if cv {
                note_change(
                    v,
                    self.sc.exact_b,
                    &self.sc.added_b,
                    &mut self.changed_targets,
                    &mut self.target_changed,
                    &mut self.pending,
                    &mut self.pending_ok,
                );
            }
        }
        // Pass 1: arc liveness off beginning-of-round versions. Arcs
        // into retired (full) targets fast-forward their seen mark: a
        // complete row trivially contains any source version.
        let mut any_active = false;
        for (j, a) in r.arcs.iter().enumerate() {
            let from = a.from as usize;
            let live = if self.state.counts[a.to as usize] as usize == n {
                self.seen[idx][j] = self.ver[from];
                false
            } else {
                self.seen[idx][j] != self.ver[from]
            };
            self.active[j] = live;
            any_active |= live;
        }
        if !any_active {
            return self.finish_round();
        }
        // Pass 2: clone the row representations an active snapshot arc
        // will read (sources that are also targets of this round).
        for flag in &mut self.slot_needed[..r.snap_sources.len()] {
            *flag = false;
        }
        for (j, a) in r.arcs.iter().enumerate() {
            if self.active[j] && a.needs_snapshot() {
                self.slot_needed[a.slot as usize] = true;
            }
        }
        for (slot, &u) in r.snap_sources.iter().enumerate() {
            if self.slot_needed[slot] {
                self.snap[slot] = self.state.rows[u as usize].clone();
            }
        }
        // Pass 3: apply the active arcs — delta runs when the target is
        // exactly one source version behind, full row unions otherwise.
        for (j, a) in r.arcs.iter().enumerate() {
            if !self.active[j] {
                continue;
            }
            let from = a.from as usize;
            let to = a.to as usize;
            let v0 = self.ver[from];
            let (changed, exact) = if a.needs_snapshot() {
                let view = view_of(&self.snap[a.slot as usize]);
                self.state.absorb_view(to, view, &mut self.sc)
            } else if self.delta_ok[from] && self.seen[idx][j] + 1 == v0 {
                self.state.absorb_runs(to, &self.deltas[from], &mut self.sc)
            } else {
                self.state.absorb_from(to, from, &mut self.sc)
            };
            self.seen[idx][j] = v0;
            if changed {
                note_change(
                    a.to,
                    exact,
                    &self.sc.added_a,
                    &mut self.changed_targets,
                    &mut self.target_changed,
                    &mut self.pending,
                    &mut self.pending_ok,
                );
            }
        }
        self.finish_round()
    }

    /// End of round: bump changed rows' versions and promote their
    /// pending added runs to the row's delta.
    fn finish_round(&mut self) -> bool {
        let any = !self.changed_targets.is_empty();
        for &t in &self.changed_targets {
            let ti = t as usize;
            self.ver[ti] += 1;
            self.target_changed[ti] = false;
            if self.pending_ok[ti] && (self.state.counts[ti] as usize) < self.state.n {
                normalize_runs(&mut self.pending[ti]);
                std::mem::swap(&mut self.deltas[ti], &mut self.pending[ti]);
                self.delta_ok[ti] = true;
            } else {
                self.delta_ok[ti] = false;
            }
            self.pending[ti].clear();
            self.pending_ok[ti] = true;
        }
        self.changed_targets.clear();
        any
    }
}

/// Records a changed row: queue its version bump and extend (or
/// invalidate) its pending delta.
fn note_change(
    t: u32,
    exact: bool,
    added: &[(u32, u32)],
    changed_targets: &mut Vec<u32>,
    target_changed: &mut [bool],
    pending: &mut [Vec<(u32, u32)>],
    pending_ok: &mut [bool],
) {
    let ti = t as usize;
    if !target_changed[ti] {
        target_changed[ti] = true;
        changed_targets.push(t);
    }
    if exact && pending_ok[ti] {
        pending[ti].extend_from_slice(added);
    } else {
        pending_ok[ti] = false;
        pending[ti].clear();
    }
}

/// Outcome of a sparse run: the usual [`SimResult`] plus the resource
/// telemetry large-n callers report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparseOutcome {
    /// Completion time and (optional) min-count trace, bit-identical to
    /// the reference engine (unless the run was memory-aborted).
    pub result: SimResult,
    /// Rounds actually executed (fixed-point exits stop early).
    pub rounds_run: usize,
    /// Peak approximate heap bytes of the row representations.
    pub peak_bytes: usize,
    /// `true` when the run stopped because `mem_limit` was exceeded.
    pub aborted_mem: bool,
}

/// Runs a systolic protocol through the sparse engine, stopping early if
/// the row storage exceeds `mem_limit` bytes (a graceful out for
/// unstructured instances whose rows densify — the alternative is an
/// OOM kill at n²/8 bytes).
pub fn run_systolic_sparse_with_limit(
    sp: &SystolicProtocol,
    n: usize,
    max_rounds: usize,
    trace: bool,
    mem_limit: Option<usize>,
) -> SparseOutcome {
    let mut engine = SparseEngine::for_protocol(sp, n);
    let mut trace_vec = Vec::new();
    let mut peak = engine.state_bytes();
    if engine.all_complete() {
        return SparseOutcome {
            result: SimResult {
                completed_at: Some(0),
                trace: trace_vec,
            },
            rounds_run: 0,
            peak_bytes: peak,
            aborted_mem: false,
        };
    }
    let s = engine.round_count().max(1);
    let mut idle_rounds = 0usize;
    let mut rounds_run = 0usize;
    for i in 0..max_rounds {
        let changed = engine.apply(i);
        rounds_run = i + 1;
        if trace {
            trace_vec.push(engine.min_count());
        }
        peak = peak.max(engine.state_bytes());
        if engine.all_complete() {
            return SparseOutcome {
                result: SimResult {
                    completed_at: Some(i + 1),
                    trace: trace_vec,
                },
                rounds_run,
                peak_bytes: peak,
                aborted_mem: false,
            };
        }
        if mem_limit.is_some_and(|limit| engine.state_bytes() > limit) {
            return SparseOutcome {
                result: SimResult {
                    completed_at: None,
                    trace: trace_vec,
                },
                rounds_run,
                peak_bytes: peak,
                aborted_mem: true,
            };
        }
        idle_rounds = if changed { 0 } else { idle_rounds + 1 };
        if idle_rounds >= s {
            // Fixed point of the period: pad the trace exactly like the
            // reference would.
            if trace {
                let stuck = engine.min_count();
                trace_vec.resize(max_rounds, stuck);
            }
            break;
        }
    }
    SparseOutcome {
        result: SimResult {
            completed_at: None,
            trace: trace_vec,
        },
        rounds_run,
        peak_bytes: peak,
        aborted_mem: false,
    }
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
    run_systolic_sparse_with_limit(sp, n, max_rounds, trace, None).result
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

    #[test]
    fn run_algebra_union_subtract() {
        let mut out = Vec::new();
        run_union(&[(0, 3), (5, 7)], &[(2, 6), (9, 10)], &mut out);
        assert_eq!(out, vec![(0, 7), (9, 10)]);
        run_union(&[(0, 3)], &[(3, 5)], &mut out); // adjacency coalesces
        assert_eq!(out, vec![(0, 5)]);
        run_union(&[], &[(1, 2)], &mut out);
        assert_eq!(out, vec![(1, 2)]);
        run_subtract(&[(0, 10)], &[(2, 4), (6, 7)], &mut out);
        assert_eq!(out, vec![(0, 2), (4, 6), (7, 10)]);
        run_subtract(&[(0, 4), (6, 9)], &[(3, 8)], &mut out);
        assert_eq!(out, vec![(0, 3), (8, 9)]);
        run_subtract(&[(2, 4)], &[(0, 10)], &mut out);
        assert_eq!(out, Vec::<(u32, u32)>::new());
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
            let mut engine = SparseEngine::for_protocol(&sp, n);
            let mut oracle = Knowledge::initial(n);
            for i in 0..4 * sp.s() + 8 {
                engine.apply(i);
                crate::reference::apply_round_reference(&mut oracle, sp.round_at(i));
                assert_eq!(engine.to_dense(), oracle, "round {i}");
                assert_eq!(engine.min_count(), oracle.min_count(), "round {i}");
            }
        }
    }

    #[test]
    fn completed_rows_retire_and_free_storage() {
        let sp = builders::hypercube_sweep(6);
        let mut engine = SparseEngine::for_protocol(&sp, 64);
        for i in 0..6 {
            engine.apply(i);
        }
        assert!(engine.all_complete());
        assert_eq!(engine.state_bytes(), 0, "full rows store nothing");
        assert_eq!(engine.min_count(), 64);
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
