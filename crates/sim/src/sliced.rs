//! Item-sliced engine: gossip on unstructured large instances in
//! O(n · batch) memory.
//!
//! Under Definition 3.1 every item spreads on its own, so a round can run
//! on any subset of the items without the rest. This engine runs the
//! items in slices of [`SLICE_ITEMS`] = 256 — four words per vertex,
//! ~1.5 MiB at n = 5·10⁴, cache-resident where the sparse engine's rows
//! densify into the n²/8-byte table. Each slice replays the period over
//! its own state until it completes, reaches its own fixed point, or
//! exhausts the round budget; slices are claimed through an atomic cursor
//! by scoped threads. The per-round plan (clean full-duplex pairs,
//! residual arcs, snapshot slots) is [`CompiledSchedule`]'s, so
//! beginning-of-round semantics are the compiled engine's. The min-count
//! trace is rebuilt from per-round, per-vertex gain counts that each
//! thread sums over its own slices; the threads' sums merge in a fixed
//! order. Those counts take 4 bytes per vertex and round on each thread
//! (18 MiB for RR(5·10⁴,3)'s 92 rounds), and nothing without a trace.
//!
//! Locality: vertices are relabelled in BFS order of the period's union
//! graph and each round's arcs are sorted by target, so the rows an arc
//! list touches sit close together. The relabelling is an isomorphism —
//! completion time and the min-count trace do not change.
//!
//! [`run_systolic_large`] is the large-instance driver: it runs the
//! sparse engine while its state fits in one slice's working set and
//! restarts from round 0 on this engine in the first round it does not.

use crate::engine::SimResult;
use crate::schedule::CompiledSchedule;
use crate::sparse::{run_sparse, SparseOutcome};
use sg_graphs::digraph::Arc;
use sg_protocol::protocol::SystolicProtocol;
use sg_protocol::round::Round;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Items per slice.
pub const SLICE_ITEMS: usize = 256;

const SLICE_WORDS: usize = SLICE_ITEMS / 64;

/// One vertex's knowledge of one slice's items.
type Bits = [u64; SLICE_WORDS];

/// Bytes of one slice's knowledge state on `n` vertices: `n · 256 / 8`.
pub fn slice_bytes(n: usize) -> usize {
    n * (SLICE_ITEMS / 8)
}

/// The large-instance driver. Runs the sparse engine while its row
/// state stays within one slice's working set ([`slice_bytes`]); in the
/// first round it does not, restarts from round 0 on the item-sliced
/// engine with `threads` threads (the calling thread is one of them).
/// `mem_limit` bounds the sparse state as in
/// [`crate::sparse::run_systolic_sparse_with_limit`]. Every field of the
/// outcome is identical at any thread count; completion and trace equal
/// [`crate::reference::run_systolic_reference`]'s.
pub fn run_systolic_large(
    sp: &SystolicProtocol,
    n: usize,
    max_rounds: usize,
    trace: bool,
    mem_limit: Option<usize>,
    threads: usize,
) -> SparseOutcome {
    match run_sparse(sp, n, max_rounds, trace, mem_limit, slice_bytes(n)) {
        Ok(out) => out,
        Err(handoff) => {
            let (result, rounds_run) = run_sliced(sp, n, max_rounds, trace, threads);
            SparseOutcome {
                result,
                rounds_run,
                peak_bytes: handoff.sparse_bytes.max(handoff.slice_bytes),
                aborted_mem: false,
                handoff: Some(handoff),
            }
        }
    }
}

/// Runs a systolic protocol through the item-sliced engine on `threads`
/// threads; output is bit-identical to
/// [`crate::reference::run_systolic_reference`], including the trace.
pub fn run_systolic_sliced(
    sp: &SystolicProtocol,
    n: usize,
    max_rounds: usize,
    trace: bool,
    threads: usize,
) -> SimResult {
    run_sliced(sp, n, max_rounds, trace, threads).0
}

/// How one slice's run ended.
#[derive(Debug, Clone, Copy)]
struct SliceEnd {
    /// Round (1-based) at which every vertex knew every item of the
    /// slice, if it did within the budget.
    completed_at: Option<usize>,
    /// Last round (1-based) that changed the slice's state; 0 if none.
    last_change: usize,
}

/// One thread's work: the ends of the slices it ran, and per round the
/// items each vertex gained over those slices (only with a trace).
#[derive(Default)]
struct ThreadSums {
    ends: Vec<SliceEnd>,
    gains: Vec<Vec<u32>>,
}

/// One round of [`CompiledSchedule`]'s plan, on relabelled vertices,
/// with each arc's source resolved to a row of the slice state: a vertex
/// `< n`, or the snapshot row `n + slot` of a source that is also a
/// target.
struct SliceRound {
    pairs: Vec<(u32, u32)>,
    snap_sources: Vec<u32>,
    /// `(target, source row)`, sorted by target.
    arcs: Vec<(u32, u32)>,
    /// No two arcs share a target.
    distinct_targets: bool,
}

/// The period's round plans on BFS-relabelled vertices.
fn slice_plan(sp: &SystolicProtocol, n: usize) -> Vec<SliceRound> {
    let label = bfs_labels(sp.period(), n);
    let relabelled: Vec<Round> = sp
        .period()
        .iter()
        .map(|r| {
            Round::new(
                r.arcs()
                    .iter()
                    .map(|a| {
                        Arc::new(
                            label[a.from as usize] as usize,
                            label[a.to as usize] as usize,
                        )
                    })
                    .collect(),
            )
        })
        .collect();
    let sched = CompiledSchedule::compile(&relabelled, n);
    (0..sched.round_count())
        .map(|t| {
            let r = sched.round(t);
            let mut arcs: Vec<(u32, u32)> = r
                .arcs
                .iter()
                .map(|a| {
                    let src = if a.needs_snapshot() {
                        (n as u32) + a.slot
                    } else {
                        a.from
                    };
                    (a.to, src)
                })
                .collect();
            arcs.sort_unstable();
            SliceRound {
                pairs: r.pairs.clone(),
                snap_sources: r.snap_sources.clone(),
                arcs,
                distinct_targets: r.distinct_targets,
            }
        })
        .collect()
}

/// The sliced engine proper; also returns the rounds a sequential
/// engine would have executed (fixed-point exits and budget included).
fn run_sliced(
    sp: &SystolicProtocol,
    n: usize,
    max_rounds: usize,
    trace: bool,
    threads: usize,
) -> (SimResult, usize) {
    if n <= 1 {
        return (
            SimResult {
                completed_at: Some(0),
                trace: Vec::new(),
            },
            0,
        );
    }
    let plan = slice_plan(sp, n);
    let plan = &plan[..];
    let max_slots = plan.iter().map(|r| r.snap_sources.len()).max().unwrap_or(0);

    let slices = n.div_ceil(SLICE_ITEMS);
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut sums = ThreadSums::default();
        let mut rows = vec![[0; SLICE_WORDS]; n + max_slots];
        loop {
            // The cursor hands out slice indices and publishes nothing
            // else, so `Relaxed` suffices.
            let b = cursor.fetch_add(1, Ordering::Relaxed);
            if b >= slices {
                return sums;
            }
            let end = run_slice(
                plan,
                n,
                b,
                max_rounds,
                &mut rows,
                trace.then_some(&mut sums.gains),
            );
            sums.ends.push(end);
        }
    };
    let workers = threads.clamp(1, slices);
    let per_thread: Vec<ThreadSums> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut all = vec![work()];
        all.extend(
            spawned
                .into_iter()
                .map(|h| h.join().expect("slice worker panicked")),
        );
        all
    });

    // Gossip completes when every slice does; otherwise a sequential run
    // stops one idle period after the last change anywhere, or at the
    // budget.
    let ends = per_thread.iter().flat_map(|t| t.ends.iter().copied());
    let completed_at = ends
        .clone()
        .map(|e| e.completed_at)
        .try_fold(0, |acc, c| c.map(|c| acc.max(c)));
    let last_change = ends.map(|e| e.last_change).max().unwrap_or(0);
    let rounds_run =
        completed_at.unwrap_or_else(|| (last_change + plan.len().max(1)).min(max_rounds));

    let mut curve = Vec::new();
    if trace {
        // Every vertex starts knowing its own item; add each round's
        // gains thread by thread.
        let mut counts = vec![1u32; n];
        for i in 0..rounds_run {
            for t in &per_thread {
                if let Some(g) = t.gains.get(i) {
                    for (c, &d) in counts.iter_mut().zip(g) {
                        *c += d;
                    }
                }
            }
            curve.push(counts.iter().copied().min().unwrap_or(0) as usize);
        }
        if completed_at.is_none() {
            let stuck = curve.last().copied().unwrap_or(1);
            curve.resize(max_rounds, stuck);
        }
    }
    (
        SimResult {
            completed_at,
            trace: curve,
        },
        rounds_run,
    )
}

/// New label of every vertex: its position in a BFS of the period's
/// union graph (arcs taken as undirected), restarted from the smallest
/// unvisited vertex for each further component.
fn bfs_labels(period: &[Round], n: usize) -> Vec<u32> {
    // Adjacency in CSR form.
    let mut start = vec![0usize; n + 1];
    for a in period.iter().flat_map(Round::arcs) {
        start[a.from as usize + 1] += 1;
        start[a.to as usize + 1] += 1;
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut fill = start.clone();
    let mut adj = vec![0u32; start[n]];
    for a in period.iter().flat_map(Round::arcs) {
        adj[fill[a.from as usize]] = a.to;
        fill[a.from as usize] += 1;
        adj[fill[a.to as usize]] = a.from;
        fill[a.to as usize] += 1;
    }
    const UNSEEN: u32 = u32::MAX;
    let mut label = vec![UNSEEN; n];
    let mut order = Vec::with_capacity(n);
    for root in 0..n {
        if label[root] != UNSEEN {
            continue;
        }
        label[root] = order.len() as u32;
        order.push(root as u32);
        let mut head = order.len() - 1;
        while head < order.len() {
            let u = order[head] as usize;
            head += 1;
            for &w in &adj[start[u]..start[u + 1]] {
                if label[w as usize] == UNSEEN {
                    label[w as usize] = order.len() as u32;
                    order.push(w);
                }
            }
        }
    }
    label
}

/// Runs slice `b` (items `256·b ..`, capped at `n`) from the initial
/// state until it completes, reaches its own fixed point (a whole
/// period without change), or exhausts `max_rounds`. `rows` holds the
/// `n` vertex rows followed by the snapshot rows. With `gains`, adds
/// each vertex's per-round item gains into `gains[round]`.
fn run_slice(
    plan: &[SliceRound],
    n: usize,
    b: usize,
    max_rounds: usize,
    rows: &mut [Bits],
    mut gains: Option<&mut Vec<Vec<u32>>>,
) -> SliceEnd {
    let first = b * SLICE_ITEMS;
    let len = SLICE_ITEMS.min(n - first);
    let mut full = [0u64; SLICE_WORDS];
    for (i, w) in full.iter_mut().enumerate() {
        let bits = len.saturating_sub(64 * i).min(64);
        *w = if bits == 64 { !0 } else { (1u64 << bits) - 1 };
    }
    // Item `first + j` starts at vertex `first + j`.
    rows.fill([0; SLICE_WORDS]);
    for j in 0..len {
        rows[first + j][j / 64] |= 1 << (j % 64);
    }
    let mut incomplete = n - usize::from(len == 1);
    let mut end = SliceEnd {
        completed_at: None,
        last_change: 0,
    };
    let s = plan.len();
    if s == 0 {
        return end;
    }
    let mut idle = 0usize;
    for i in 0..max_rounds {
        let gain = match gains.as_deref_mut() {
            Some(g) => {
                if g.len() <= i {
                    g.push(vec![0; n]);
                }
                Some(&mut g[i][..])
            }
            None => None,
        };
        let mut round = RoundDelta {
            full,
            gain,
            changed: 0,
            completed: 0,
        };
        let r = &plan[i % s];
        for &(u, v) in &r.pairs {
            let (u, v) = (u as usize, v as usize);
            let (a, c) = (rows[u], rows[v]);
            let x = or(a, c);
            round.install(rows, u, a, x);
            round.install(rows, v, c, x);
        }
        for (slot, &u) in r.snap_sources.iter().enumerate() {
            rows[n + slot] = rows[u as usize];
        }
        // A source row below `n` is not a target of this round, so it
        // still holds its beginning-of-round content.
        let arcs = &r.arcs[..];
        if r.distinct_targets {
            for &(t, src) in arcs {
                let t = t as usize;
                let old = rows[t];
                round.install(rows, t, old, or(old, rows[src as usize]));
            }
        } else {
            // Arcs arrive grouped by target: fold each group's sources
            // into one new row.
            let mut j = 0;
            while j < arcs.len() {
                let t = arcs[j].0 as usize;
                let old = rows[t];
                let mut acc = old;
                while j < arcs.len() && arcs[j].0 as usize == t {
                    acc = or(acc, rows[arcs[j].1 as usize]);
                    j += 1;
                }
                round.install(rows, t, old, acc);
            }
        }
        incomplete -= round.completed;
        if incomplete == 0 {
            end.completed_at = Some(i + 1);
            end.last_change = i + 1;
            return end;
        }
        if round.changed != 0 {
            end.last_change = i + 1;
            idle = 0;
        } else {
            idle += 1;
            if idle >= s {
                return end;
            }
        }
    }
    end
}

#[inline]
fn or(a: Bits, b: Bits) -> Bits {
    std::array::from_fn(|w| a[w] | b[w])
}

/// One round's bookkeeping over a slice.
struct RoundDelta<'g> {
    /// The slice's complete row.
    full: Bits,
    /// Per-vertex item gains of this round, when tracing.
    gain: Option<&'g mut [u32]>,
    /// Nonzero once any row changed.
    changed: u64,
    /// Rows that became complete this round.
    completed: usize,
}

impl RoundDelta<'_> {
    /// Stores `new` as row `v` (previously `old ⊆ new`) and accounts
    /// for the change. The store is unconditional: about half the rows
    /// a round touches change, and a branch around it measured slower.
    #[inline]
    fn install(&mut self, rows: &mut [Bits], v: usize, old: Bits, new: Bits) {
        rows[v] = new;
        let diff = (0..SLICE_WORDS).fold(0, |d, w| d | (new[w] ^ old[w]));
        self.changed |= diff;
        self.completed += usize::from(diff != 0 && new == self.full);
        if diff != 0 {
            if let Some(g) = self.gain.as_deref_mut() {
                g[v] += (0..SLICE_WORDS)
                    .map(|w| (new[w] & !old[w]).count_ones())
                    .sum::<u32>();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_protocol::builders;
    use sg_protocol::mode::Mode;

    #[test]
    fn bfs_labels_are_a_permutation() {
        let sp = builders::grid_traffic_light(7, 5);
        let mut label = bfs_labels(sp.period(), 40); // 5 isolated vertices
        label.sort_unstable();
        assert_eq!(label, (0..40).collect::<Vec<u32>>());
    }

    #[test]
    fn round_counts_match_the_sequential_sparse_run() {
        // Fixed-point exit (changes in rounds 1 and 2, then one idle
        // period of s = 3), budget exhaustion and completion: `rounds_run`
        // must be what the sparse engine, stepping every item at once,
        // reports.
        let stuck = SystolicProtocol::new(
            vec![
                Round::new(vec![Arc::new(0, 1), Arc::new(1, 0)]),
                Round::new(vec![Arc::new(2, 3)]),
                Round::empty(),
            ],
            Mode::Directed,
        );
        let cases = [
            (stuck, 300usize, 1000usize, 5usize),
            (builders::path_rrll(10), 10, 3, 3),
            (builders::complete_round_robin(300), 300, 1000, 150),
        ];
        for (sp, n, budget, want) in cases {
            let sparse = run_sparse(&sp, n, budget, true, None, usize::MAX).expect("no hand-off");
            for threads in [1, 2] {
                let (res, rounds) = run_sliced(&sp, n, budget, true, threads);
                assert_eq!(res, sparse.result);
                assert_eq!(rounds, sparse.rounds_run);
                assert_eq!(rounds, want);
            }
        }
    }
}
