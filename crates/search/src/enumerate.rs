//! Exact optima by oracle-pruned exhaustive enumeration.
//!
//! Where the annealing driver *finds* good period-`s` schedules, this
//! module *proves* what the best one is: a deterministic branch-and-bound
//! over every valid period-`s` round schedule of a `(network, mode)`
//! pair, returning either the exact optimum with a
//! [`Verdict::ProvenOptimal`] certificate or an exact infeasibility
//! statement. This is what turns a reported `Gap(δ)` into a settled
//! theorem — the "rigorous minimal time" program applied to the paper's
//! open small cases (`Q₃` at `s = 2` full-duplex, `C₈` full-duplex at
//! `s = 3`, the directed variants) and, with stabilizer-chain symmetry
//! breaking and individualization–refinement canonical forms, to richer
//! families (Knödel graphs up to `W(4,16)`, tori, directed de Bruijn
//! networks, complete graphs whose groups dwarf any element list).
//!
//! ```
//! use sg_search::{enumerate, EnumerateConfig, Verdict};
//! use systolic_gossip::sg_protocol::mode::Mode;
//! use systolic_gossip::Network;
//!
//! // P_4 at s = 2, full-duplex: the alternating pairing meets the
//! // diameter floor n − 1 = 3, and exhaustion proves nothing beats it.
//! let out = enumerate(
//!     &Network::Path { n: 4 },
//!     Mode::FullDuplex,
//!     &EnumerateConfig::default().exact_period(2),
//! );
//! assert_eq!(out.best_rounds, Some(3));
//! assert!(matches!(
//!     out.certificate.unwrap().verdict,
//!     Verdict::ProvenOptimal { .. }
//! ));
//! ```
//!
//! Four exact reductions keep the space small; each is a theorem, not a
//! heuristic:
//!
//! 1. **Maximal rounds only.** Knowledge evolves monotonically — per
//!    round, every target unions a beginning-of-round source row into
//!    its own — so replacing any round by a superset round never delays
//!    completion (pointwise domination, by induction over rounds). Every
//!    schedule is dominated by one whose rounds are *maximal* valid
//!    rounds, so the enumeration ranges over those alone, for both the
//!    optimum and the infeasibility direction.
//! 2. **Exact symmetry breaking at every depth.** Relabeling all
//!    processors by a graph automorphism maps schedules to schedules
//!    with identical completion times. Round 0 is restricted to one
//!    lexicographic representative per orbit of the full automorphism
//!    group ([`sg_graphs::group::PermGroup`]); after fixing rounds
//!    `0..k`, round `k+1` is restricted to representatives under the
//!    **stabilizer of the prefix** (the subgroup mapping every fixed
//!    round to itself), computed incrementally as the search descends.
//!    Mechanically, groups up to [`SYMMETRY_ELEMENT_CAP`] materialize
//!    their element list once through the chain and thread a filtered
//!    index set down the recursion; larger groups act on candidate
//!    indices through a stabilizer chain rebuilt per fixed round, with
//!    orbit minima from a union-find closure over the stabilizer's
//!    strong generators — exact at *any* group order.
//! 3. **Isomorph-rejection memo on canonical knowledge signatures.** The
//!    relaxation distance (how many all-arcs rounds a knowledge state
//!    needs to complete, or that it never can) depends only on the state
//!    — and is invariant under automorphisms. It is memoized per
//!    *canonical* state signature: the exact orbit minimum of the
//!    relabeled bitset image when the element list is materialized and
//!    rows fit one word (`n ≤ 64`; early-abort lexicographic scan, items
//!    relabeled through per-permutation nibble tables, the image packed
//!    into `⌈n²/64⌉` words), or the individualization–refinement
//!    canonical form of the combined (adjacency, knowledge) relational
//!    structure ([`sg_graphs::refine`]) beyond the cap or beyond 64
//!    processors. Either way the signature is exactly canonical. Signatures
//!    live in a flat sharded memo (fixed-width key arenas, no per-entry
//!    allocation), and each worker keeps a bounded direct-mapped front
//!    cache keyed on the raw packed state, so a state seen again skips
//!    its signature entirely; the cache only repeats distances the memo
//!    already published, so it changes no outcome and no counter.
//! 4. **Oracle floors and relaxation cuts.** The shared [`BoundOracle`]
//!    supplies the exact floor — a seed protocol meeting it settles the
//!    instance without search — and every prefix is cut when even the
//!    *relaxed* future (all arcs active every round, which dominates
//!    every valid round) cannot beat the bound. A knowledge fixed point
//!    across a full period proves a schedule never completes — which is
//!    what makes the infeasibility verdict exact rather than
//!    budget-relative.
//!
//! # Parallel execution, deterministic results
//!
//! Every instance runs **exhaustive passes under a fixed cap**: within a
//! pass every schedule completing by the cap is either enumerated or cut
//! by a bound that depends only on the subtree and the cap, never on
//! discovery order. Seeded instances (a refitted upper-bound
//! construction completes at some `U` rounds) run one pass at cap
//! `U − 1`; finding nothing proves the seed optimal. Unseeded instances
//! deepen the cap from the oracle floor `f` — `f, f + 1, f + 2, f + 4,
//! …`, by `c ← c + max(1, c − f)` — and stop at the first pass that
//! records a completion (its minimum is the optimum) or at the first
//! pass that records nothing and made no cut that depends on the cap
//! (it behaved exactly like an uncapped pass, which proves
//! infeasibility). Past `s·n²` rounds no cut depends on the cap — each
//! period that is not a fixed point adds a bit — so deepening always
//! stops. The memo and the node budget carry across passes.
//!
//! A pass fans out over a breadth-first frontier of subtree tasks
//! claimed by [`sg_sim::fan_out()`]'s workers. Each worker owns its scratch —
//! pooled per-depth knowledge and stabilizer buffers refilled with
//! [`Knowledge::copy_from`], a signature engine and a ~1 MiB front
//! cache — so a node allocates nothing once the pools are warm; workers
//! share one single-flight memo (a pending marker set under the shard
//! lock, re-checked by waiters). Because pruning is a pure function of
//! the node and the cap, the set of visited nodes — hence every counter
//! and the stopping pass — is identical at any thread count, and the
//! witness is the lexicographically least minimum-value completion
//! regardless of which worker found it.
//!
//! `tests/brute_force_oracle.rs` checks the engine against a brute-force
//! minimum over every schedule of every round, written without its code.

use crate::certificate::{certify_with, Certificate, Verdict};
use crate::seeds::{fit_to_period, seed_protocols};
use sg_bounds::pfun::Period;
use sg_graphs::digraph::{Arc, Digraph};
use sg_graphs::group::{invert, Perm, PermGroup, UnionFind};
use sg_graphs::refine::{canonical_form, distance_seed, Cells, Relations};
use sg_protocol::mode::Mode;
use sg_protocol::protocol::SystolicProtocol;
use sg_protocol::round::Round;
use sg_sim::{fan_out, CompiledSchedule, CompletionCursor, Knowledge};
use std::cmp::Ordering;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrd};
use std::sync::Mutex;
use systolic_gossip::{BoundOracle, Network};

/// Largest group for which symmetry breaking materializes the full
/// element list; bigger groups act on candidate indices through a
/// stabilizer chain (exact orbit minima, no pruning lost) and key the
/// memo on individualization–refinement canonical forms.
pub const SYMMETRY_ELEMENT_CAP: usize = 4096;

/// Frontier tasks carved per worker thread before the pass fans out —
/// enough slack that an early-finishing worker keeps claiming work.
const TASKS_PER_THREAD: usize = 16;

/// Hard cap on candidate rounds per period slot; exceeding it means the
/// instance is too large for exact enumeration and the run panics with a
/// clear message instead of hanging.
const MAX_ROUND_CANDIDATES: usize = 20_000;

/// Hard cap on visited search-tree nodes (same rationale).
const MAX_NODES: usize = 20_000_000;

/// Knobs of one exact enumeration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnumerateConfig {
    /// The exact systolic period to enumerate (`>= 2`).
    pub period: usize,
    /// Thread budget for the exhaustive pass: the calling thread plus
    /// `threads − 1` scoped workers. `0` and `1` both mean sequential
    /// (only `BatchOptions::threads` in `sg-scenario` reads `0` as one
    /// per core). Results are bit-identical at any budget; only
    /// wall-clock varies.
    pub threads: usize,
}

impl Default for EnumerateConfig {
    fn default() -> Self {
        Self {
            period: 2,
            threads: 1,
        }
    }
}

impl EnumerateConfig {
    /// An exact enumeration at period `s`.
    pub fn exact_period(mut self, s: usize) -> Self {
        self.period = s;
        self
    }

    /// An exact enumeration on `t` threads.
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }
}

/// What one exact enumeration established. The search counters
/// (`enumerated`, `pruned`, `pruned_per_level`, `stabilizer_pruned`,
/// `memo_hits`) sum over every pass the enumeration ran.
#[derive(Debug, Clone)]
pub struct EnumerateOutcome {
    /// A witness schedule achieving the optimum, when one exists.
    pub best: Option<SystolicProtocol>,
    /// The exact optimal gossip time over every valid period-`s`
    /// schedule, `None` when gossip is infeasible at this period.
    pub best_rounds: Option<usize>,
    /// The [`Verdict::ProvenOptimal`] certificate for the optimum.
    pub certificate: Option<Certificate>,
    /// `true` when *no* valid period-`s` schedule ever completes gossip
    /// — exact (every schedule either evaluated, dominated by an
    /// evaluated one, or cut by a sound relaxation), not budget-relative.
    pub proven_infeasible: bool,
    /// Complete schedules whose gossip time was settled (evaluated to
    /// completion, fixed point, or prefix completion).
    pub enumerated: usize,
    /// Subtrees cut by the relaxation bound.
    pub pruned: usize,
    /// Candidate maximal rounds per period slot.
    pub round_candidates: usize,
    /// Round-0 candidates surviving symmetry breaking.
    pub representatives: usize,
    /// Order of the automorphism group used for symmetry breaking,
    /// clamped to `usize` (see [`EnumerateOutcome::group_order`] for the
    /// exact value).
    pub automorphisms: usize,
    /// Exact order of the automorphism group (stabilizer chain product).
    pub group_order: u128,
    /// Depth of the group's stabilizer chain (base length).
    pub chain_depth: usize,
    /// Symmetry permutations materialized: the full element list up to
    /// [`SYMMETRY_ELEMENT_CAP`], or the stabilizer chain's generator
    /// count beyond it (the chain itself prunes exactly either way).
    pub symmetry_perms: usize,
    /// Candidates skipped at depths `≥ 1` because a prefix-stabilizer
    /// element maps them to a lexicographically smaller round — the
    /// pruning that plain round-0 symmetry breaking never had.
    pub stabilizer_pruned: usize,
    /// Subtrees cut by the relaxation bound, per period slot.
    pub pruned_per_level: Vec<usize>,
    /// Relaxation sweeps answered by the canonical-signature memo.
    pub memo_hits: usize,
    /// Distinct canonical knowledge signatures the memo holds (one memo
    /// serves every pass).
    pub memo_entries: usize,
    /// `true` when the optimum meets the oracle floor — settled by a
    /// seed protocol without any search, or proved tight by the pass.
    pub met_floor: bool,
    /// Thread budget the enumeration ran with (results are identical at
    /// any budget; this records what was actually used).
    pub threads: usize,
}

/// Enumerates every *maximal* valid round of `g` under `mode`, in
/// canonical (lexicographic) order.
///
/// Directed / half-duplex rounds are maximal sets of pairwise
/// endpoint-disjoint arcs; full-duplex rounds are maximal sets of
/// vertex-disjoint opposite pairs (maximal matchings of the underlying
/// undirected graph, both arcs activated).
pub fn maximal_rounds(g: &Digraph, mode: Mode) -> Vec<Round> {
    let n = g.vertex_count();
    let mut out = Vec::new();
    match mode {
        Mode::Directed | Mode::HalfDuplex => {
            let arcs: Vec<Arc> = g.arcs().filter(|a| !a.is_loop()).collect();
            let mut used = vec![false; n];
            let mut picked = Vec::new();
            maximal_sets(&arcs, 0, &mut used, &mut picked, &mut |set| {
                out.push(Round::new(set.to_vec()));
            });
        }
        Mode::FullDuplex => {
            assert!(
                g.is_symmetric(),
                "full-duplex rounds need an undirected network"
            );
            let edges: Vec<Arc> = g.arcs().filter(|a| !a.is_loop() && a.from < a.to).collect();
            let mut used = vec![false; n];
            let mut picked = Vec::new();
            maximal_sets(&edges, 0, &mut used, &mut picked, &mut |set| {
                out.push(Round::full_duplex_from_edges(
                    set.iter().map(|a| (a.from as usize, a.to as usize)),
                ));
            });
        }
    }
    out.sort_by(|a, b| a.arcs().cmp(b.arcs()));
    out.dedup();
    out
}

/// Backtracks over `arcs[i..]`, emitting every endpoint-disjoint subset
/// that is maximal (no remaining arc can be added).
fn maximal_sets(
    arcs: &[Arc],
    i: usize,
    used: &mut Vec<bool>,
    picked: &mut Vec<Arc>,
    emit: &mut impl FnMut(&[Arc]),
) {
    if i == arcs.len() {
        // Maximal iff no arc has both endpoints free.
        if arcs
            .iter()
            .all(|a| used[a.from as usize] || used[a.to as usize])
        {
            emit(picked);
        }
        return;
    }
    let a = arcs[i];
    let (u, v) = (a.from as usize, a.to as usize);
    if !used[u] && !used[v] {
        used[u] = true;
        used[v] = true;
        picked.push(a);
        maximal_sets(arcs, i + 1, used, picked, emit);
        picked.pop();
        used[u] = false;
        used[v] = false;
    }
    maximal_sets(arcs, i + 1, used, picked, emit);
}

/// The all-arcs relaxation round: dominates every valid round of any
/// mode, which is what makes prefix cuts sound.
fn relaxation_round(g: &Digraph) -> Round {
    Round::new(g.arcs().filter(|a| !a.is_loop()).collect())
}

/// The action of one vertex permutation on the sorted candidate list:
/// `action[c]` is the index the automorphism maps candidate `c` to.
/// Candidates are lexicographically sorted, so index order *is* round
/// order and orbit minima are index minima.
fn candidate_action(p: &Perm, candidates: &[Round], name: &str) -> Vec<u32> {
    (0..candidates.len())
        .map(|i| {
            let mapped = sg_graphs::automorphism::map_arcs(p, candidates[i].arcs());
            candidates
                .binary_search_by(|r| r.arcs().cmp(mapped.as_slice()))
                .unwrap_or_else(|_| {
                    panic!("{name}: automorphism does not permute the maximal rounds")
                }) as u32
        })
        .collect()
}

// ---------------------------------------------------------------------
// Symmetry machinery: exact representatives at any group order.
// ---------------------------------------------------------------------

/// How symmetry breaking acts on the candidate list.
enum Symmetry {
    /// Full element list (`|G| ≤` [`SYMMETRY_ELEMENT_CAP`]): the action
    /// table `action[p][c]` and stabilizers as filtered index sets.
    Elements { action: Vec<Vec<u32>> },
    /// Stabilizer chain over the candidate-index domain: pointwise
    /// stabilizers rebuilt per fixed round, orbit minima from a
    /// union-find closure over the chain's strong generators.
    Chain { group: PermGroup },
}

/// The prefix stabilizer a node threads down the descent.
#[derive(Clone)]
enum Stab {
    /// Indices into the element list whose action fixes every round of
    /// the prefix (identity always among them).
    Elements(Vec<u32>),
    /// Pointwise stabilizer acting on candidate indices, plus the orbit
    /// minimum of every candidate under it.
    Chain {
        orbit_min: Vec<u32>,
        group: PermGroup,
    },
}

/// Orbit minima of the candidate indices under `group` (acting on the
/// candidate domain): union-find closure over the strong generators.
fn orbit_minima(group: &PermGroup) -> Vec<u32> {
    let m = group.n();
    let mut uf = UnionFind::new(m);
    for gen in group.generators() {
        uf.union_perm(gen);
    }
    let mut min = vec![u32::MAX; m];
    let mut root_min = vec![u32::MAX; m];
    for c in 0..m {
        let r = uf.find(c);
        root_min[r] = root_min[r].min(c as u32);
    }
    for (c, slot) in min.iter_mut().enumerate() {
        *slot = root_min[uf.find(c)];
    }
    min
}

impl Symmetry {
    /// The root stabilizer: the whole group.
    fn root(&self) -> Stab {
        match self {
            Symmetry::Elements { action } => Stab::Elements((0..action.len() as u32).collect()),
            Symmetry::Chain { group } => Stab::Chain {
                orbit_min: orbit_minima(group),
                group: group.clone(),
            },
        }
    }

    /// `true` when `stab` still contains a non-identity element — the
    /// only case the representative test can reject anything.
    fn nontrivial(&self, stab: &Stab) -> bool {
        match stab {
            Stab::Elements(idx) => idx.len() > 1,
            Stab::Chain { group, .. } => group.order() > 1,
        }
    }

    /// `true` when candidate `c` is the lexicographic minimum of its
    /// orbit under `stab`.
    fn is_representative(&self, stab: &Stab, c: usize) -> bool {
        match (self, stab) {
            (Symmetry::Elements { action }, Stab::Elements(idx)) => {
                idx.iter().all(|&p| action[p as usize][c] as usize >= c)
            }
            (_, Stab::Chain { orbit_min, .. }) => orbit_min[c] as usize == c,
            _ => unreachable!("stabilizer kind matches symmetry kind"),
        }
    }

    /// The stabilizer of the prefix extended by fixed round `c`, written
    /// to `out` (the element regime refills its index list in place).
    fn child(&self, stab: &Stab, c: usize, out: &mut Stab) {
        match (self, stab) {
            (Symmetry::Elements { action }, Stab::Elements(idx)) => {
                let keep = idx
                    .iter()
                    .copied()
                    .filter(|&p| action[p as usize][c] as usize == c);
                match out {
                    Stab::Elements(dst) => {
                        dst.clear();
                        dst.extend(keep);
                    }
                    _ => *out = Stab::Elements(keep.collect()),
                }
            }
            (_, Stab::Chain { group, .. }) => {
                let sub = group.pointwise_stabilizer(&[c]);
                *out = Stab::Chain {
                    orbit_min: orbit_minima(&sub),
                    group: sub,
                };
            }
            _ => unreachable!("stabilizer kind matches symmetry kind"),
        }
    }
}

// ---------------------------------------------------------------------
// Canonical state signatures: exact orbit keys at any group order.
// ---------------------------------------------------------------------

/// Packs the one-word rows of an `n ≤ 64` state into `⌈n²/64⌉` words:
/// row `v` occupies bits `v·n .. (v+1)·n` of the concatenation. Rows
/// never exceed `n` bits, so the packing is injective.
fn pack_rows(rows: impl Iterator<Item = u64>, n: usize, out: &mut [u64]) {
    out.fill(0);
    for (v, row) in rows.enumerate() {
        let (w, off) = ((v * n) / 64, (v * n) % 64);
        out[w] |= row << off;
        if off + n > 64 {
            out[w + 1] |= row >> (64 - off);
        }
    }
}

/// Words of a packed `n × n` state.
fn packed_words(n: usize) -> usize {
    (n * n).div_ceil(64).max(1)
}

/// One word-wise hash for both key caches: a multiply–rotate fold with
/// a splitmix64 finalizer, so low bits (slot) and high bits (shard) are
/// both well mixed.
fn hash_words(key: &[u64]) -> u64 {
    let mut h = key.len() as u64;
    for &w in key {
        h = (h.rotate_left(5) ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Largest network whose rows fit one word: up to this size states pack
/// into `⌈n²/64⌉`-word keys and the element regime canonicalizes by
/// orbit minimum; beyond it the memo keys on IR canonical forms.
const PACKED_MAX_N: usize = 64;

/// Per-permutation nibble tables for relabeling one-word item sets:
/// entry `(p, j, x)` is the image under permutation `p` of the items
/// `4j .. 4j + 4` selected by nibble `x`. A row is relabeled with one
/// lookup per nibble up to its highest set bit instead of one step per
/// set bit.
struct NibbleTables {
    nibbles: usize,
    table: Vec<u64>,
}

impl NibbleTables {
    fn new(perms: &[Perm], n: usize) -> Self {
        assert!(n <= PACKED_MAX_N, "nibble tables relabel one-word rows");
        let nibbles = n.div_ceil(4);
        let mut table = vec![0u64; perms.len() * nibbles * 16];
        for (pi, p) in perms.iter().enumerate() {
            for j in 0..nibbles {
                for x in 1..16usize {
                    table[(pi * nibbles + j) * 16 + x] = (0..4)
                        .filter(|&b| x >> b & 1 == 1 && 4 * j + b < n)
                        .fold(0, |acc, b| acc | 1u64 << p[4 * j + b]);
                }
            }
        }
        Self { nibbles, table }
    }

    /// The image of the item set `row` under element `p` of the list
    /// the tables were built from.
    #[inline]
    fn relabel(&self, p: usize, mut row: u64) -> u64 {
        let t = &self.table[p * self.nibbles * 16..(p + 1) * self.nibbles * 16];
        let mut out = 0;
        let mut j = 0;
        while row != 0 {
            out |= t[j + (row & 15) as usize];
            row >>= 4;
            j += 16;
        }
        out
    }
}

/// Shared (immutable) data the per-worker signature engines build on.
enum SigMode {
    /// Exact orbit minimum over the full element list (`n ≤ 64`), found
    /// by an early-abort lexicographic scan (most permutations lose
    /// within the first row). `inv[p]` maps target rows to source rows;
    /// items are relabeled through the nibble tables.
    Perms {
        inv: Vec<Perm>,
        tables: NibbleTables,
    },
    /// Individualization–refinement canonical form of the combined
    /// (adjacency, knowledge) relational structure — exact for groups
    /// too large to materialize, and for rows wider than one word. An
    /// isomorphism of the combined
    /// structure maps the adjacency relation to itself, so two states
    /// share a form iff some automorphism of the graph maps one
    /// knowledge matrix to the other.
    Canonical { graph: Relations, seed: Cells },
}

impl SigMode {
    fn canonical(g: &Digraph) -> Self {
        SigMode::Canonical {
            graph: Relations::from_digraph(g),
            seed: distance_seed(g),
        }
    }

    /// Fixed word width of every signature this mode produces: the
    /// packed orbit-minimum image, or the full canonical form.
    fn key_words(&self, n: usize) -> usize {
        match self {
            SigMode::Perms { .. } => packed_words(n),
            SigMode::Canonical { graph, .. } => (graph.rel_count() + 1) * n * graph.words(),
        }
    }
}

/// Width of the raw (uncanonicalized) state key the front cache uses.
fn raw_key_words(n: usize) -> usize {
    if n <= PACKED_MAX_N {
        packed_words(n)
    } else {
        n * n.div_ceil(64)
    }
}

/// Writes the raw key of `state` — packed when rows fit one word.
fn raw_key(state: &Knowledge, out: &mut [u64]) {
    let n = state.n();
    if n <= PACKED_MAX_N {
        pack_rows((0..n).map(|v| state.row(v)[0]), n, out);
    } else {
        for (v, dst) in out.chunks_exact_mut(state.words()).enumerate() {
            dst.copy_from_slice(state.row(v));
        }
    }
}

/// Worker-private signature scratch over a shared [`SigMode`].
struct SigEngine<'a> {
    mode: &'a SigMode,
    /// The state's rows (element regime: one word each).
    rows: Vec<u64>,
    /// Best relabeled image so far, one word per row.
    best: Vec<u64>,
    /// The signature of the last call (`key_words` words).
    key: Vec<u64>,
    /// Lazily built local copy of the graph relations with the
    /// knowledge slot appended (canonical mode only).
    combined: Option<Relations>,
    flat: Vec<u64>,
}

impl<'a> SigEngine<'a> {
    fn new(mode: &'a SigMode, n: usize) -> Self {
        Self {
            mode,
            rows: vec![0; n],
            best: vec![0; n],
            key: vec![0; mode.key_words(n)],
            combined: None,
            flat: Vec::new(),
        }
    }

    /// The canonical signature of a knowledge state: equal exactly when
    /// some automorphism maps one state to the other. Borrowed from the
    /// engine until the next call.
    fn signature(&mut self, state: &Knowledge) -> &[u64] {
        let n = state.n();
        match self.mode {
            SigMode::Perms { inv, tables } => {
                for (v, r) in self.rows.iter_mut().enumerate() {
                    *r = state.row(v)[0];
                }
                exact_orbit_min(inv, tables, &self.rows, &mut self.best);
                pack_rows(self.best.iter().copied(), n, &mut self.key);
            }
            SigMode::Canonical { graph, seed } => {
                let words = graph.words();
                let combined = self.combined.get_or_insert_with(|| {
                    let mut r = graph.clone();
                    r.push_rows(vec![0u64; n * words]);
                    r
                });
                self.flat.clear();
                for v in 0..n {
                    self.flat.extend_from_slice(state.row(v));
                }
                combined.set_rows(1, &self.flat);
                self.key = canonical_form(combined, seed).form;
            }
        }
        &self.key
    }
}

/// Minimum over the element list of the relabeled image of `rows`, with
/// both processors and items relabeled, written to `best`. Rows are
/// compared in target order as they are built, so a permutation is
/// abandoned at the first row that exceeds the best image so far; once
/// a permutation is strictly ahead, its remaining rows are copied
/// without comparing.
fn exact_orbit_min(inv: &[Perm], tables: &NibbleTables, rows: &[u64], best: &mut [u64]) {
    // Identity image first: element 0 is sorted-first, i.e. id.
    best.copy_from_slice(rows);
    for (p, pinv) in inv.iter().enumerate().skip(1) {
        for (i, &src) in pinv.iter().enumerate() {
            let row = tables.relabel(p, rows[src as usize]);
            match row.cmp(&best[i]) {
                Ordering::Less => {
                    best[i] = row;
                    for (dst, &src) in best[i + 1..].iter_mut().zip(&pinv[i + 1..]) {
                        *dst = tables.relabel(p, rows[src as usize]);
                    }
                    break;
                }
                Ordering::Greater => break,
                Ordering::Equal => {}
            }
        }
    }
}

// ---------------------------------------------------------------------
// Relaxation distances: a flat sharded memo behind a per-worker cache.
// ---------------------------------------------------------------------

/// Encoded relaxation distance: `0` = pending (or an empty cache slot),
/// `1` = never completes, `d + 2` = completes in `d` rounds.
fn encode(d: Option<u32>) -> u32 {
    d.map_or(1, |d| d + 2)
}

fn decode(e: u32) -> Option<usize> {
    (e != 1).then(|| e as usize - 2)
}

const MEMO_SHARDS: usize = 16;

/// One memo shard: signatures in a flat arena of fixed width, indexed by
/// an open-addressed table of `(entry + 1, encoded distance)` pairs
/// (entry `0` marks an empty slot) at load factor at most ½.
struct MemoShard {
    keys: Vec<u64>,
    table: Vec<(u32, u32)>,
    len: usize,
}

impl MemoShard {
    /// The slot holding `key`, or the empty slot where it belongs.
    fn find(&self, width: usize, key: &[u64], h: u64) -> usize {
        let mask = self.table.len() - 1;
        let mut i = h as usize & mask;
        loop {
            match self.table[i].0 {
                0 => return i,
                e if self.keys[(e as usize - 1) * width..][..width] == *key => return i,
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Doubles the table, rehashing every entry from the arena.
    fn grow(&mut self, width: usize) {
        let doubled = vec![(0, 0); self.table.len() * 2];
        for (e, enc) in std::mem::replace(&mut self.table, doubled) {
            if e != 0 {
                let key = &self.keys[(e as usize - 1) * width..][..width];
                let i = self.find(width, key, hash_words(key));
                self.table[i] = (e, enc);
            }
        }
    }
}

/// Canonical signature → relaxation distance, sharded by signature hash
/// with single-flight computation: the first thread to miss inserts a
/// pending marker under the shard lock and computes outside it;
/// concurrent lookups of the same signature re-check the marker instead
/// of recomputing. A hit borrows the caller's key; a miss copies it into
/// the shard's arena — no per-entry allocation. The set of signatures
/// ever queried is a pure function of the visited node set, so hit and
/// entry counts are thread-count-independent.
struct SharedMemo {
    width: usize,
    shards: Vec<Mutex<MemoShard>>,
}

impl SharedMemo {
    fn new(width: usize) -> Self {
        Self {
            width,
            shards: (0..MEMO_SHARDS)
                .map(|_| {
                    Mutex::new(MemoShard {
                        keys: Vec::new(),
                        table: vec![(0, 0); 16],
                        len: 0,
                    })
                })
                .collect(),
        }
    }

    /// The encoded distance of `sig`, computing (and publishing) it with
    /// `compute` on a miss. Exactly one thread computes any signature.
    fn distance(&self, sig: &[u64], compute: impl FnOnce() -> Option<u32>) -> u32 {
        debug_assert_eq!(sig.len(), self.width, "signature width");
        let w = self.width;
        let h = hash_words(sig);
        let shard = &self.shards[(h >> 60) as usize % MEMO_SHARDS];
        let mut s = shard.lock().expect("memo shard poisoned");
        match s.table[s.find(w, sig, h)] {
            (0, _) => {
                if (s.len + 1) * 2 > s.table.len() {
                    s.grow(w);
                }
                let i = s.find(w, sig, h);
                s.keys.extend_from_slice(sig);
                s.len += 1;
                s.table[i] = (s.len as u32, 0);
            }
            (_, 0) => {
                drop(s);
                return Self::wait(shard, w, sig, h);
            }
            (_, enc) => return enc,
        }
        drop(s);
        let enc = encode(compute());
        let mut s = shard.lock().expect("memo shard poisoned");
        let i = s.find(w, sig, h);
        s.table[i].1 = enc;
        enc
    }

    /// Re-checks a pending marker until its owner publishes.
    fn wait(shard: &Mutex<MemoShard>, w: usize, sig: &[u64], h: u64) -> u32 {
        let mut spins = 0u32;
        loop {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
            let s = shard.lock().expect("memo shard poisoned");
            let enc = s.table[s.find(w, sig, h)].1;
            if enc != 0 {
                return enc;
            }
        }
    }

    /// Distinct signatures held (call after all workers joined).
    fn entries(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("memo shard poisoned").len)
            .sum()
    }
}

/// Byte budget of one worker's front cache.
const FRONT_CACHE_BYTES: usize = 1 << 20;

/// A worker-private, direct-mapped cache in front of the signature:
/// raw state key → encoded distance. It only ever holds distances the
/// shared memo already published, so a hit skips the signature and the
/// memo lookup without changing what either would have answered — or
/// any counter.
struct FrontCache {
    width: usize,
    mask: usize,
    keys: Vec<u64>,
    /// Encoded distance per slot, `0` = empty.
    vals: Vec<u32>,
}

impl FrontCache {
    /// The largest power-of-two slot count within [`FRONT_CACHE_BYTES`].
    fn new(width: usize) -> Self {
        let fit = FRONT_CACHE_BYTES / (width * 8 + 4);
        Self::with_slots(width, 1usize << fit.max(1).ilog2())
    }

    /// A cache of exactly `slots` (a power of two) slots.
    pub(crate) fn with_slots(width: usize, slots: usize) -> Self {
        assert!(slots.is_power_of_two(), "front cache slots");
        Self {
            width,
            mask: slots - 1,
            keys: vec![0; slots * width],
            vals: vec![0; slots],
        }
    }

    #[inline]
    fn get(&self, key: &[u64], h: u64) -> Option<u32> {
        let i = h as usize & self.mask;
        let enc = self.vals[i];
        (enc != 0 && self.keys[i * self.width..][..self.width] == *key).then_some(enc)
    }

    #[inline]
    fn put(&mut self, key: &[u64], h: u64, enc: u32) {
        let i = h as usize & self.mask;
        self.keys[i * self.width..][..self.width].copy_from_slice(key);
        self.vals[i] = enc;
    }
}

/// Exact number of all-arcs relaxation rounds `state` needs to reach
/// completion (`None` when it never completes — then nothing below any
/// prefix reaching this state ever gossips), run in the scratch `k`.
fn relax_probe(
    relaxed: &mut CompiledSchedule,
    k: &mut Knowledge,
    state: &Knowledge,
) -> Option<u32> {
    k.copy_from(state);
    let mut cursor = CompletionCursor::new();
    let mut dist = 0u32;
    loop {
        if cursor.complete(k) {
            break Some(dist);
        }
        if !relaxed.apply(k, 0) {
            break None; // fixed point below completion
        }
        dist += 1;
    }
}

// ---------------------------------------------------------------------
// The exhaustive pass: fixed cap, frontier fan-out, deterministic merge.
// ---------------------------------------------------------------------

/// The instance as every worker of a pass shares it: candidate rounds,
/// symmetry and signature machinery, and the memo and node budget that
/// carry across passes. Only `cap` changes between passes.
struct PassShared {
    candidates: Vec<Round>,
    compiled: Vec<CompiledSchedule>,
    relaxed: CompiledSchedule,
    sym: Symmetry,
    sig_mode: SigMode,
    /// Symmetry permutations materialized (see
    /// [`EnumerateOutcome::symmetry_perms`]).
    symmetry_perms: usize,
    /// The whole group, the stabilizer of the empty prefix.
    root: Stab,
    memo: SharedMemo,
    nodes: AtomicUsize,
    slots: usize,
    n: usize,
    /// Completions are only worth recording at or under this bound, and
    /// subtrees that cannot reach it are cut.
    cap: usize,
    /// Front-cache slot count; `None` sizes it to [`FRONT_CACHE_BYTES`].
    front_slots: Option<usize>,
}

impl PassShared {
    /// Prepares `g` for passes at period `cfg.period` (cap `0` until the
    /// caller sets one).
    fn new(
        net: &Network,
        g: &Digraph,
        mode: Mode,
        group: &PermGroup,
        cfg: &EnumerateConfig,
        front_slots: Option<usize>,
    ) -> Self {
        let n = g.vertex_count();
        let candidates = maximal_rounds(g, mode);
        assert!(
            !candidates.is_empty(),
            "{}: no valid non-empty round exists",
            net.name()
        );
        assert!(
            candidates.len() <= MAX_ROUND_CANDIDATES,
            "{}: {} candidate rounds exceed the exact-enumeration cap {}",
            net.name(),
            candidates.len(),
            MAX_ROUND_CANDIDATES
        );

        // Symmetry + signature machinery: element lists up to the cap,
        // stabilizer chains and canonical forms beyond it — exact orbit
        // reasoning either way.
        let name = net.name();
        let (sym, sig_mode, symmetry_perms) = match group.elements_capped(SYMMETRY_ELEMENT_CAP) {
            Some(perms) => {
                let action: Vec<Vec<u32>> = perms
                    .iter()
                    .map(|p| candidate_action(p, &candidates, &name))
                    .collect();
                let sig_mode = if n <= PACKED_MAX_N {
                    SigMode::Perms {
                        inv: perms.iter().map(|p| invert(p)).collect(),
                        tables: NibbleTables::new(&perms, n),
                    }
                } else {
                    SigMode::canonical(g)
                };
                (Symmetry::Elements { action }, sig_mode, perms.len())
            }
            None => {
                let gen_action: Vec<Perm> = group
                    .generators()
                    .iter()
                    .map(|p| candidate_action(p, &candidates, &name))
                    .collect();
                let count = gen_action.len();
                let action_group = PermGroup::from_generators(candidates.len(), gen_action);
                (
                    Symmetry::Chain {
                        group: action_group,
                    },
                    SigMode::canonical(g),
                    count,
                )
            }
        };
        let compiled = candidates
            .iter()
            .map(|r| CompiledSchedule::compile(std::slice::from_ref(r), n))
            .collect();
        Self {
            compiled,
            relaxed: CompiledSchedule::compile(std::slice::from_ref(&relaxation_round(g)), n),
            root: sym.root(),
            memo: SharedMemo::new(sig_mode.key_words(n)),
            candidates,
            sym,
            sig_mode,
            symmetry_perms,
            nodes: AtomicUsize::new(0),
            slots: cfg.period,
            n,
            cap: 0,
            front_slots,
        }
    }

    /// The period-`slots` schedule choosing the candidates in `prefix`,
    /// repeating its last round in the slots completion made irrelevant.
    fn witness(&self, mut prefix: Vec<usize>, mode: Mode) -> SystolicProtocol {
        let last = *prefix.last().expect("completion fixes a round");
        prefix.resize(self.slots, last); // any valid round works
        SystolicProtocol::new(
            prefix.iter().map(|&i| self.candidates[i].clone()).collect(),
            mode,
        )
    }
}

/// One frontier task: an unexplored subtree rooted at `prefix`.
struct PassTask {
    prefix: Vec<usize>,
    state: Knowledge,
    stab: Stab,
}

/// Worker-private mutable resources: compiled schedules (they carry
/// scratch buffers, so each worker clones its own set), the signature
/// engine, the front cache, and pooled knowledge and stabilizer buffers
/// — one per live recursion depth plus the finish scratch — so that a
/// node allocates nothing once the pools are warm.
struct Ctx<'a> {
    shared: &'a PassShared,
    compiled: Vec<CompiledSchedule>,
    relaxed: CompiledSchedule,
    sig: SigEngine<'a>,
    front: FrontCache,
    /// Raw key of the state being looked up.
    raw: Vec<u64>,
    /// Scratch of the relaxation probe.
    probe: Knowledge,
    states: Vec<Knowledge>,
    stabs: Vec<Stab>,
}

impl<'a> Ctx<'a> {
    fn new(shared: &'a PassShared) -> Self {
        let width = raw_key_words(shared.n);
        Self {
            shared,
            compiled: shared.compiled.to_vec(),
            relaxed: shared.relaxed.clone(),
            sig: SigEngine::new(&shared.sig_mode, shared.n),
            front: match shared.front_slots {
                Some(slots) => FrontCache::with_slots(width, slots),
                None => FrontCache::new(width),
            },
            raw: vec![0; width],
            probe: Knowledge::initial(shared.n),
            states: Vec::new(),
            stabs: Vec::new(),
        }
    }

    /// A pooled knowledge buffer (contents unspecified).
    fn take_state(&mut self) -> Knowledge {
        self.states
            .pop()
            .unwrap_or_else(|| Knowledge::initial(self.shared.n))
    }

    /// A pooled stabilizer buffer (contents unspecified).
    fn take_stab(&mut self) -> Stab {
        self.stabs.pop().unwrap_or(Stab::Elements(Vec::new()))
    }

    /// Memoized relaxation distance of `state` (counts the lookup).
    fn relax(&mut self, state: &Knowledge, acc: &mut PassAcc) -> Option<usize> {
        acc.memo_lookups += 1;
        raw_key(state, &mut self.raw);
        let h = hash_words(&self.raw);
        if let Some(enc) = self.front.get(&self.raw, h) {
            return decode(enc);
        }
        let (relaxed, probe) = (&mut self.relaxed, &mut self.probe);
        let enc = self.shared.memo.distance(self.sig.signature(state), || {
            relax_probe(relaxed, probe, state)
        });
        self.front.put(&self.raw, h, enc);
        decode(enc)
    }

    /// How the complete schedule `order` ends, continuing from `state`
    /// (the knowledge after its first period) up to round `limit`.
    fn finish(&mut self, order: &[usize], state: &Knowledge, limit: usize) -> PeriodEnd {
        let mut k = self.take_state();
        k.copy_from(state);
        let end = run_period(&mut self.compiled, order, &mut k, limit);
        self.states.push(k);
        end
    }
}

/// How [`run_period`] stopped.
enum PeriodEnd {
    /// Gossip completed at this round.
    Complete(usize),
    /// A whole period changed nothing: the schedule never completes.
    FixedPoint,
    /// Round `limit` passed first — a stop that depends on the cap.
    Limit,
}

/// Runs the period `order` from `k` (the knowledge after its first
/// period) until completion, a periodic fixed point, or round `limit`.
fn run_period(
    compiled: &mut [CompiledSchedule],
    order: &[usize],
    k: &mut Knowledge,
    limit: usize,
) -> PeriodEnd {
    let mut cursor = CompletionCursor::new();
    let mut t = order.len();
    if cursor.complete(k) {
        return PeriodEnd::Complete(t);
    }
    loop {
        let mut changed = false;
        for &idx in order {
            changed |= compiled[idx].apply(k, 0);
            t += 1;
            if cursor.complete(k) {
                return PeriodEnd::Complete(t);
            }
            if t >= limit {
                return PeriodEnd::Limit;
            }
        }
        if !changed {
            return PeriodEnd::FixedPoint;
        }
    }
}

/// Per-task (and per-worker) result accumulator. Counters add; the best
/// completion merges by `(value, prefix)` — minimum value first, then
/// the lexicographically least choice sequence, which is exactly the
/// first completion a sequential depth-first scan would keep.
struct PassAcc {
    enumerated: usize,
    pruned: usize,
    pruned_per_level: Vec<usize>,
    stabilizer_pruned: usize,
    memo_lookups: usize,
    best: Option<(usize, Vec<usize>)>,
    /// Some cut or stop depended on the cap: a finite relaxation
    /// distance past it, a first-period completion above it, or a leaf
    /// run to it. A pass without one behaves exactly like an uncapped
    /// pass.
    capped: bool,
}

impl PassAcc {
    fn new(slots: usize) -> Self {
        Self {
            enumerated: 0,
            pruned: 0,
            pruned_per_level: vec![0; slots],
            stabilizer_pruned: 0,
            memo_lookups: 0,
            best: None,
            capped: false,
        }
    }

    fn consider(&mut self, value: usize, prefix: &[usize]) {
        let better = match &self.best {
            None => true,
            Some((v, p)) => (value, prefix) < (*v, p.as_slice()),
        };
        if better {
            self.best = Some((value, prefix.to_vec()));
        }
    }

    fn merge(&mut self, other: PassAcc) {
        self.enumerated += other.enumerated;
        self.pruned += other.pruned;
        for (a, b) in self
            .pruned_per_level
            .iter_mut()
            .zip(&other.pruned_per_level)
        {
            *a += b;
        }
        self.stabilizer_pruned += other.stabilizer_pruned;
        self.memo_lookups += other.memo_lookups;
        self.capped |= other.capped;
        if let Some((v, p)) = other.best {
            self.consider(v, &p);
        }
    }
}

/// Visits one node: applies each representative candidate, settles
/// first-period completions, cuts by the relaxation bound, evaluates
/// leaves, and either recurses into children (`spill` = `None`) or
/// enqueues them as frontier tasks. Counters are identical either way —
/// which is what makes the frontier split invisible in the outcome.
fn pass_node(
    ctx: &mut Ctx,
    prefix: &mut Vec<usize>,
    state: &Knowledge,
    stab: &Stab,
    acc: &mut PassAcc,
    spill: &mut Option<&mut VecDeque<PassTask>>,
) {
    let shared = ctx.shared;
    let visited = shared.nodes.fetch_add(1, AtomicOrd::Relaxed) + 1;
    assert!(
        visited <= MAX_NODES,
        "exact enumeration exceeded {MAX_NODES} nodes — instance too large"
    );
    let slot = prefix.len();
    let symmetric = shared.sym.nontrivial(stab);
    let mut next = ctx.take_state();
    let mut child = ctx.take_stab();
    for idx in 0..ctx.compiled.len() {
        // Symmetry breaking at *every* depth: a candidate that some
        // prefix-stabilizing automorphism maps to a smaller round is
        // the mirror image of a branch this loop already explored.
        if symmetric && !shared.sym.is_representative(stab, idx) {
            if slot > 0 {
                acc.stabilizer_pruned += 1;
            }
            continue;
        }
        next.copy_from(state);
        ctx.compiled[idx].apply(&mut next, 0);
        let t = slot + 1;
        let mut cursor = CompletionCursor::new();
        if cursor.complete(&next) {
            // Completed inside the first period: every deeper choice
            // yields exactly this time — the subtree is settled.
            acc.enumerated += 1;
            if t <= shared.cap {
                prefix.push(idx);
                acc.consider(t, prefix);
                prefix.pop();
            } else {
                acc.capped = true;
            }
            continue;
        }
        // Relaxation cut: even all-arcs rounds from here cannot make
        // the cap (or complete at all). The bound depends only on the
        // subtree, never on what other workers found — that purity is
        // the determinism argument.
        match ctx.relax(&next, acc) {
            Some(d) if t + d <= shared.cap => {}
            d => {
                acc.capped |= d.is_some();
                acc.pruned += 1;
                acc.pruned_per_level[slot] += 1;
                continue;
            }
        }
        prefix.push(idx);
        if slot + 1 == shared.slots {
            acc.enumerated += 1;
            match ctx.finish(prefix, &next, shared.cap) {
                PeriodEnd::Complete(found) => acc.consider(found, prefix),
                PeriodEnd::FixedPoint => {}
                PeriodEnd::Limit => acc.capped = true,
            }
        } else {
            shared.sym.child(stab, idx, &mut child);
            match spill {
                Some(queue) => queue.push_back(PassTask {
                    prefix: prefix.clone(),
                    state: next.clone(),
                    stab: child.clone(),
                }),
                None => pass_node(ctx, prefix, &next, &child, acc, spill),
            }
        }
        prefix.pop();
    }
    ctx.states.push(next);
    ctx.stabs.push(child);
}

/// Runs one exhaustive pass under `shared.cap` on a budget of `threads`
/// threads: with more than one, carves a breadth-first frontier first,
/// then [`fan_out`]'s workers claim the tasks until drained. The visited
/// node set is a pure function of the instance and cap, so the merged
/// counters and the `(value, prefix)`-minimal completion are identical
/// at any thread count.
fn run_pass(shared: &PassShared, threads: usize) -> PassAcc {
    let mut acc = PassAcc::new(shared.slots);
    let root = PassTask {
        prefix: Vec::new(),
        state: Knowledge::initial(shared.n),
        stab: shared.root.clone(),
    };
    let mut ready: Vec<PassTask> = Vec::new();
    if threads <= 1 {
        ready.push(root);
    } else {
        // Carve the frontier: expand shallow tasks breadth-first until
        // there is enough slack for every worker. Expansion runs the
        // exact per-child logic of the descent, so the split never shows
        // up in the counters.
        let target = threads * TASKS_PER_THREAD;
        let mut queue = VecDeque::from([root]);
        let mut ctx = Ctx::new(shared);
        while ready.len() + queue.len() < target {
            let Some(task) = queue.pop_front() else { break };
            if task.prefix.len() + 1 >= shared.slots {
                // Leaf-level subtree: cheaper to run than to split.
                ready.push(task);
                continue;
            }
            let mut prefix = task.prefix;
            let mut spill = Some(&mut queue);
            pass_node(
                &mut ctx,
                &mut prefix,
                &task.state,
                &task.stab,
                &mut acc,
                &mut spill,
            );
        }
        ready.extend(queue);
    }

    let workers = fan_out(
        threads,
        ready.len(),
        || (Ctx::new(shared), PassAcc::new(shared.slots)),
        |(ctx, local), i| {
            let task = &ready[i];
            let mut prefix = task.prefix.clone();
            pass_node(ctx, &mut prefix, &task.state, &task.stab, local, &mut None);
        },
    );
    for (_, local) in workers {
        acc.merge(local);
    }
    acc
}

// ---------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------

/// Runs the exact enumeration for `net` in `mode`, building the graph,
/// its automorphism group and a throwaway oracle on the spot. The batch
/// runner calls [`enumerate_with_group`] with its cached group and
/// oracle instead.
pub fn enumerate(net: &Network, mode: Mode, cfg: &EnumerateConfig) -> EnumerateOutcome {
    let g = net.build();
    let diameter = sg_graphs::traversal::diameter(&g);
    let group = sg_graphs::group::automorphism_group(&g);
    enumerate_with_group(&BoundOracle::new(), net, &g, diameter, mode, &group, cfg)
}

/// Evaluates every seed protocol refitted to period `s`, returning the
/// fastest completing one (the upper bound `U` the pass runs under).
/// Seeds are upper bounds on the optimum by dominance — every schedule
/// is dominated by a maximal-rounds one — so they are sound bounds even
/// though their own rounds need not be maximal.
fn best_seed(
    net: &Network,
    g: &Digraph,
    mode: Mode,
    s: usize,
) -> Option<(usize, SystolicProtocol)> {
    let n = g.vertex_count();
    let mut seed_best: Option<(usize, SystolicProtocol)> = None;
    for sp in seed_protocols(net, g, mode) {
        let cand = fit_to_period(&sp, s, mode);
        if cand.validate(g).is_err() {
            continue;
        }
        let proto = cand.to_protocol();
        let mut sched = CompiledSchedule::compile(proto.period(), n);
        let mut k = Knowledge::initial(n);
        let mut cursor = CompletionCursor::new();
        let mut found = cursor.complete(&k).then_some(0);
        if found.is_none() {
            let mut t = 0usize;
            'seed: loop {
                let mut changed = false;
                for i in 0..s {
                    changed |= sched.apply(&mut k, t + i);
                    if cursor.complete(&k) {
                        found = Some(t + i + 1);
                        break 'seed;
                    }
                }
                t += s;
                if !changed {
                    break;
                }
            }
        }
        if let Some(t) = found {
            if seed_best.as_ref().is_none_or(|(b, _)| t < *b) {
                seed_best = Some((t, proto));
            }
        }
    }
    seed_best
}

/// The exact branch-and-bound against a shared memoizing [`BoundOracle`]
/// and a precomputed automorphism group (stabilizer chain).
/// Deterministic at any thread budget: identical inputs give identical
/// outcomes, including the witness schedule and every counter.
pub fn enumerate_with_group(
    oracle: &BoundOracle,
    net: &Network,
    g: &Digraph,
    diameter: Option<u32>,
    mode: Mode,
    group: &PermGroup,
    cfg: &EnumerateConfig,
) -> EnumerateOutcome {
    enumerate_sized(oracle, net, g, diameter, mode, group, cfg, None)
}

/// [`enumerate_with_group`] with the workers' front caches sized to
/// `front_slots` slots (`None`: the [`FRONT_CACHE_BYTES`] budget). The
/// cache size never changes the outcome, which the tests check by
/// forcing a single slot.
#[allow(clippy::too_many_arguments)]
fn enumerate_sized(
    oracle: &BoundOracle,
    net: &Network,
    g: &Digraph,
    diameter: Option<u32>,
    mode: Mode,
    group: &PermGroup,
    cfg: &EnumerateConfig,
    front_slots: Option<usize>,
) -> EnumerateOutcome {
    assert!(cfg.period >= 2, "enumeration needs a period of at least 2");
    let s = cfg.period;
    let threads = cfg.threads.max(1);
    let floor = oracle
        .bounds_on(net, g, diameter, mode, Period::Systolic(s))
        .floor_rounds;
    let mut shared = PassShared::new(net, g, mode, group, cfg, front_slots);

    let mut acc = PassAcc::new(s);
    let settled = match best_seed(net, g, mode, s) {
        // The seed meets the oracle floor: settled without search.
        Some((u, seed)) if u <= floor => Some((u, seed)),
        seed => {
            // A seed at U rounds leaves one pass at cap U − 1, and a
            // pass that finds nothing proves the seed optimal. Without
            // one, caps deepen from the floor until a pass completes or
            // makes no cut that depends on its cap.
            shared.cap = seed.as_ref().map_or(floor, |(u, _)| u - 1);
            loop {
                let pass = run_pass(&shared, threads);
                let capped = pass.capped;
                acc.merge(pass);
                if let Some((t, prefix)) = acc.best.take() {
                    break Some((t, shared.witness(prefix, mode)));
                }
                if seed.is_some() || !capped {
                    break seed;
                }
                shared.cap += (shared.cap - floor).max(1);
            }
        }
    };
    let (best_rounds, best) = settled.unzip();
    let (sym, root) = (&shared.sym, &shared.root);
    let representatives = (0..shared.candidates.len())
        .filter(|&i| !sym.nontrivial(root) || sym.is_representative(root, i))
        .count();

    let certificate = best_rounds.map(|t| {
        let mut cert = certify_with(oracle, net, g, diameter, mode, s, t, best.as_ref());
        cert.verdict = Verdict::ProvenOptimal {
            enumerated: acc.enumerated,
        };
        cert
    });

    let memo_entries = shared.memo.entries();
    EnumerateOutcome {
        best,
        best_rounds,
        certificate,
        proven_infeasible: best_rounds.is_none(),
        enumerated: acc.enumerated,
        pruned: acc.pruned,
        round_candidates: shared.candidates.len(),
        representatives,
        automorphisms: usize::try_from(group.order()).unwrap_or(usize::MAX),
        group_order: group.order(),
        chain_depth: group.chain_depth(),
        symmetry_perms: shared.symmetry_perms,
        stabilizer_pruned: acc.stabilizer_pruned,
        pruned_per_level: acc.pruned_per_level,
        memo_hits: acc.memo_lookups - memo_entries,
        memo_entries,
        met_floor: best_rounds.is_some_and(|t| t <= floor),
        threads,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maximal_rounds_are_valid_maximal_and_canonical() {
        let g = Network::Cycle { n: 6 }.build();
        for mode in [Mode::HalfDuplex, Mode::FullDuplex, Mode::Directed] {
            let rounds = maximal_rounds(&g, mode);
            assert!(!rounds.is_empty(), "{mode}");
            for (i, r) in rounds.iter().enumerate() {
                r.validate(&g, mode, i).expect("valid round");
                // Maximality: no arc of g extends the round.
                let extendable = g.arcs().any(|a| {
                    !a.is_loop()
                        && r.arcs().iter().all(|b| {
                            a.from != b.from && a.from != b.to && a.to != b.from && a.to != b.to
                        })
                });
                assert!(!extendable, "{mode}: round {i} is not maximal");
                if i > 0 {
                    assert!(rounds[i - 1].arcs() < r.arcs(), "canonical order");
                }
            }
        }
    }

    #[test]
    fn full_duplex_candidate_counts_match_matching_theory() {
        // Maximal matchings of C_8: the two perfect matchings plus the
        // eight maximal 3-matchings.
        let g = Network::Cycle { n: 8 }.build();
        assert_eq!(maximal_rounds(&g, Mode::FullDuplex).len(), 10);
    }

    #[test]
    fn path_full_duplex_meets_the_diameter_floor() {
        // P_6 at s = 2: the alternating pairing gossips in n − 1 rounds,
        // which is the diameter floor — the enumerator must prove it and
        // stop at the floor.
        let out = enumerate(
            &Network::Path { n: 6 },
            Mode::FullDuplex,
            &EnumerateConfig::default().exact_period(2),
        );
        assert_eq!(out.best_rounds, Some(5));
        assert!(out.met_floor);
        let cert = out.certificate.expect("certificate");
        assert!(matches!(cert.verdict, Verdict::ProvenOptimal { .. }));
        assert!(cert.verdict.is_settled());
        out.best
            .expect("witness")
            .validate(&Network::Path { n: 6 }.build())
            .expect("valid witness");
    }

    #[test]
    fn cycle6_full_duplex_s2_exact_optimum() {
        // C_6, s = 2, full-duplex: diameter floor 3; period-2 schedules
        // alternate two maximal matchings. The enumerator settles the
        // true optimum exactly, and it is reproducible.
        let out = enumerate(
            &Network::Cycle { n: 6 },
            Mode::FullDuplex,
            &EnumerateConfig::default().exact_period(2),
        );
        let t = out.best_rounds.expect("C_6 gossips at s = 2");
        assert!(t >= 3, "floor");
        let again = enumerate(
            &Network::Cycle { n: 6 },
            Mode::FullDuplex,
            &EnumerateConfig::default().exact_period(2),
        );
        assert_eq!(again.best_rounds, Some(t), "deterministic");
        assert_eq!(again.enumerated, out.enumerated);
        // The witness actually achieves the proven time.
        let sp = out.best.expect("witness");
        let measured =
            sg_sim::engine::systolic_gossip_time(&sp, 6, 1000).expect("witness completes");
        assert_eq!(measured, t);
    }

    #[test]
    fn knodel_w24_half_duplex_s3_best_seed_is_one_round_over() {
        // The brute-force oracle's optimum here is 4: with a 5-round
        // seed the engine runs one pass at cap 4, so that pass alone
        // must reach the cap exactly (`t + d <= cap` at its edge).
        let net = Network::Knodel { delta: 2, n: 4 };
        let g = net.build();
        let (t, _) = best_seed(&net, &g, Mode::HalfDuplex, 3).expect("a seed completes");
        assert_eq!(t, 5);
    }

    #[test]
    fn round_zero_representatives_are_orbit_minima() {
        use sg_graphs::automorphism::{automorphisms, is_orbit_representative};
        let g = Network::Cycle { n: 8 }.build();
        let candidates = maximal_rounds(&g, Mode::FullDuplex);
        let autos = automorphisms(&g);
        let reps = candidates
            .iter()
            .filter(|r| is_orbit_representative(&autos, r.arcs()))
            .count();
        // C_8's 10 maximal matchings fall into 2 orbits (perfect /
        // size-3) under the dihedral group; the outcome must agree.
        assert_eq!(reps, 2);
        let out = enumerate(
            &Network::Cycle { n: 8 },
            Mode::FullDuplex,
            &EnumerateConfig::default().exact_period(3),
        );
        assert_eq!(out.representatives, 2);
        assert_eq!(out.group_order, 16);
        assert!(out.chain_depth >= 2, "dihedral chain has depth ≥ 2");
    }

    #[test]
    fn deeper_slots_get_stabilizer_pruning_and_memo_hits() {
        // C_8 at s = 3: round 1 candidates are pruned under the
        // stabilizer of round 0 (the perfect matchings have nontrivial
        // pointwise-prefix stabilizers), which plain round-0 breaking
        // never did.
        let out = enumerate(
            &Network::Cycle { n: 8 },
            Mode::FullDuplex,
            &EnumerateConfig::default().exact_period(3),
        );
        assert!(
            out.stabilizer_pruned > 0,
            "prefix stabilizers must prune deeper slots: {out:?}"
        );
        assert_eq!(out.pruned_per_level.len(), 3);
        assert_eq!(out.pruned_per_level.iter().sum::<usize>(), out.pruned);
        assert_eq!(out.best_rounds, Some(5), "the settled optimum is intact");
    }

    #[test]
    fn complete_graph_uses_the_stabilizer_chain_regime() {
        // K_8: |Aut| = 8! = 40320 > SYMMETRY_ELEMENT_CAP, so symmetry
        // breaking runs through the chain on candidate indices and the
        // memo keys on IR canonical forms. The 105 maximal matchings of
        // K_8 are all perfect (any smaller matching extends inside a
        // complete graph) and form a single orbit — one representative.
        let out = enumerate(
            &Network::Complete { n: 8 },
            Mode::FullDuplex,
            &EnumerateConfig::default().exact_period(2),
        );
        assert_eq!(out.round_candidates, 105);
        assert_eq!(out.group_order, 40_320);
        assert_eq!(out.representatives, 1, "perfect matchings are one orbit");
        assert!(
            out.symmetry_perms < 105,
            "chain regime materializes generators, not 40320 elements"
        );
        let t = out.best_rounds.expect("K_8 gossips at s = 2");
        assert!(t >= 3, "doubling floor: ⌈log₂ 8⌉ rounds");
    }

    /// splitmix64: a tiny deterministic generator for randomized cases.
    fn mix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn row_mask(n: usize) -> u64 {
        if n == 64 {
            u64::MAX
        } else {
            (1u64 << n) - 1
        }
    }

    /// Inverse of [`pack_rows`].
    fn unpack_rows(key: &[u64], n: usize) -> Vec<u64> {
        (0..n)
            .map(|v| {
                let (w, off) = ((v * n) / 64, (v * n) % 64);
                let mut row = key[w] >> off;
                if off + n > 64 {
                    row |= key[w + 1] << (64 - off);
                }
                row & row_mask(n)
            })
            .collect()
    }

    #[test]
    fn packed_keys_round_trip_and_are_injective() {
        let mut rng = 7u64;
        for n in [1usize, 7, 8, 9, 16, 63, 64] {
            let width = packed_words(n);
            assert_eq!(width, (n * n).div_ceil(64), "n = {n}");
            for _ in 0..20 {
                let rows: Vec<u64> = (0..n).map(|_| mix(&mut rng) & row_mask(n)).collect();
                let mut key = vec![0u64; width];
                pack_rows(rows.iter().copied(), n, &mut key);
                assert_eq!(unpack_rows(&key, n), rows, "n = {n} round trip");
                // Flipping any single bit of the state changes the key.
                for v in 0..n {
                    for b in 0..n {
                        let mut other = rows.clone();
                        other[v] ^= 1u64 << b;
                        let mut k2 = vec![0u64; width];
                        pack_rows(other.iter().copied(), n, &mut k2);
                        assert_ne!(k2, key, "n = {n}: bit ({v}, {b}) lost");
                    }
                }
            }
        }
    }

    #[test]
    fn nibble_relabel_matches_the_bit_loop() {
        let mut rng = 11u64;
        for g in [
            Network::Cycle { n: 8 }.build(),
            Network::Knodel { delta: 4, n: 16 }.build(),
            Network::Hypercube { k: 3 }.build(),
            Network::Torus2d { w: 3, h: 3 }.build(),
        ] {
            let n = g.vertex_count();
            let perms = sg_graphs::group::automorphism_group(&g)
                .elements_capped(SYMMETRY_ELEMENT_CAP)
                .expect("small group");
            let tables = NibbleTables::new(&perms, n);
            for (pi, p) in perms.iter().enumerate() {
                for _ in 0..50 {
                    let row = mix(&mut rng) & row_mask(n);
                    let mut want = 0u64;
                    for b in (0..n).filter(|&b| row >> b & 1 == 1) {
                        want |= 1u64 << p[b];
                    }
                    assert_eq!(tables.relabel(pi, row), want, "n = {n}, perm {pi}");
                }
            }
        }
    }

    #[test]
    fn flat_memo_keeps_every_distance_across_growth() {
        let memo = SharedMemo::new(3);
        let key = |i: u64| [i, i.wrapping_mul(0x9e37), !i];
        for i in 0..5000u64 {
            let enc = memo.distance(&key(i), || (i % 7 != 0).then_some(i as u32));
            assert_eq!(decode(enc), (i % 7 != 0).then_some(i as usize));
        }
        assert_eq!(memo.entries(), 5000);
        for i in 0..5000u64 {
            let enc = memo.distance(&key(i), || panic!("hit {i} recomputed"));
            assert_eq!(decode(enc), (i % 7 != 0).then_some(i as usize));
        }
        assert_eq!(memo.entries(), 5000, "hits add no entries");
    }

    /// Every (network, period) row of the registry's enumeration
    /// scenarios (as in the determinism suite).
    fn scenario_instances() -> Vec<(Network, Mode, usize)> {
        vec![
            (Network::Hypercube { k: 3 }, Mode::FullDuplex, 2),
            (Network::Cycle { n: 8 }, Mode::FullDuplex, 3),
            (Network::Cycle { n: 6 }, Mode::Directed, 2),
            (Network::Cycle { n: 6 }, Mode::Directed, 3),
            (Network::Path { n: 6 }, Mode::Directed, 3),
            (Network::Path { n: 6 }, Mode::Directed, 4),
            (Network::Knodel { delta: 3, n: 8 }, Mode::FullDuplex, 2),
            (Network::Knodel { delta: 3, n: 8 }, Mode::FullDuplex, 3),
            (Network::Torus2d { w: 3, h: 3 }, Mode::FullDuplex, 2),
            (Network::Torus2d { w: 3, h: 3 }, Mode::FullDuplex, 3),
            (Network::DeBruijnDirected { d: 2, dd: 3 }, Mode::Directed, 2),
            (Network::DeBruijnDirected { d: 2, dd: 3 }, Mode::Directed, 3),
            (Network::Knodel { delta: 4, n: 16 }, Mode::FullDuplex, 2),
        ]
    }

    #[test]
    fn a_one_slot_front_cache_changes_nothing() {
        // One slot: every lookup of a new state collides with and evicts
        // the previous one, so nearly every lookup falls through to the
        // signature and the shared memo.
        for (net, mode, s) in scenario_instances() {
            let g = net.build();
            let diameter = sg_graphs::traversal::diameter(&g);
            let group = sg_graphs::group::automorphism_group(&g);
            let run = |threads, front_slots| {
                enumerate_sized(
                    &BoundOracle::new(),
                    &net,
                    &g,
                    diameter,
                    mode,
                    &group,
                    &EnumerateConfig::default().exact_period(s).threads(threads),
                    front_slots,
                )
            };
            let base = run(1, None);
            for threads in [1, 2] {
                let out = run(threads, Some(1));
                let name = net.name();
                assert_eq!(out.best_rounds, base.best_rounds, "{name} s={s}");
                assert_eq!(out.proven_infeasible, base.proven_infeasible);
                assert_eq!(out.met_floor, base.met_floor);
                assert_eq!(out.enumerated, base.enumerated, "{name} s={s}");
                assert_eq!(out.pruned, base.pruned, "{name} s={s}");
                assert_eq!(out.pruned_per_level, base.pruned_per_level);
                assert_eq!(out.stabilizer_pruned, base.stabilizer_pruned);
                assert_eq!(out.memo_hits, base.memo_hits, "{name} s={s}");
                assert_eq!(out.memo_entries, base.memo_entries, "{name} s={s}");
                assert_eq!(out.representatives, base.representatives);
                assert_eq!(
                    out.best.as_ref().map(|p| p.period().to_vec()),
                    base.best.as_ref().map(|p| p.period().to_vec()),
                    "{name} s={s}: witness"
                );
            }
        }
    }

    #[test]
    fn deepening_stops_where_one_uncapped_pass_does() {
        // Past s·n² + s + n no cut can depend on the cap, so one pass
        // there behaves like an uncapped pass: it must say so, and the
        // deepened outcome must match its optimum and witness.
        let mut unseeded = 0;
        for (net, mode, s) in scenario_instances() {
            let g = net.build();
            if best_seed(&net, &g, mode, s).is_some() {
                continue;
            }
            unseeded += 1;
            let name = net.name();
            let cfg = EnumerateConfig::default().exact_period(s);
            let out = enumerate(&net, mode, &cfg);
            let group = sg_graphs::group::automorphism_group(&g);
            let mut shared = PassShared::new(&net, &g, mode, &group, &cfg, None);
            let n = g.vertex_count();
            shared.cap = s * n * n + s + n;
            let pass = run_pass(&shared, 1);
            assert!(!pass.capped, "{name} s={s}: a cut depended on the cap");
            let uncapped = pass
                .best
                .map(|(t, prefix)| (t, shared.witness(prefix, mode).period().to_vec()));
            assert_eq!(out.proven_infeasible, uncapped.is_none(), "{name} s={s}");
            assert_eq!(
                out.best_rounds.zip(out.best.map(|p| p.period().to_vec())),
                uncapped,
                "{name} s={s}: optimum and witness"
            );
        }
        assert_eq!(unseeded, 8, "unseeded registry rows");
    }
}
