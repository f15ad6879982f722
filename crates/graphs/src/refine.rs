//! Equitable-partition refinement and individualization–refinement
//! canonical labeling — the nauty-style symmetry engine.
//!
//! Prefix-anchored backtracking finds automorphisms by trying images
//! vertex by vertex; on locally ultra-symmetric regular families (large
//! Knödel graphs, de Bruijn shift networks) its *refutations* — proving
//! a candidate image wrong — go exponential, because nothing short of a full completion attempt
//! distinguishes two look-alike vertices. This module supplies the
//! classical fix:
//!
//! * **Equitable partition refinement** ([`Refiner`]): 1-dimensional
//!   Weisfeiler–Leman over one or more bit-matrix relations
//!   ([`Relations`]). Cells split by neighbor counts against splitter
//!   cells (both arc directions for asymmetric relations) until every
//!   cell is equitable. Iterated after each individualization, this
//!   propagates degree *and* distance information for free: fixing one
//!   vertex splits its neighbors, then their neighbors, and so on — the
//!   BFS-layer discrimination the backtracking search had to rediscover
//!   by trial and error.
//! * **Individualization–refinement search** ([`canonical_form`]): when
//!   refinement stalls, a vertex of the first smallest non-singleton
//!   cell (deterministic target-cell rule) is individualized and
//!   refinement resumes, growing a search tree whose leaves are discrete
//!   partitions, i.e. candidate labelings. The lexicographically least
//!   `(invariant path, relabeled relation matrix)` leaf is the
//!   **canonical form**: equal across isomorphic inputs, so it keys
//!   isomorph-rejection memos exactly. Two prunings keep the tree small
//!   — node-invariant comparison against the current best path, and
//!   orbit pruning of sibling branches under the automorphisms
//!   discovered whenever two leaves produce the same matrix.
//! * **Refined generator search** ([`automorphism_generators_refined`]):
//!   the same tree, read for its side product — the discovered leaf
//!   coincidences generate the full automorphism group (every
//!   automorphism maps the first root-to-leaf path to a path with the
//!   identical invariant sequence, and sibling orbit pruning only ever
//!   discards branches already reachable by a discovered symmetry).
//!
//! ```
//! use sg_graphs::generators;
//! use sg_graphs::refine::canonical_graph;
//!
//! // Isomorphic graphs share a canonical form; the labeling rebuilds it.
//! let c = canonical_graph(&generators::petersen());
//! assert_eq!(c.labeling.len(), 10);
//! ```

use crate::digraph::Digraph;
use crate::group::{compose, invert, is_identity, Perm, UnionFind};
use std::collections::VecDeque;

/// An ordered partition of `0..n`: a list of cells, each a list of
/// vertices. Refinement preserves cell order and splits in place, so
/// positions are structural (label-independent) coordinates.
pub type Cells = Vec<Vec<u32>>;

/// The one-cell partition of `0..n` (empty for `n = 0`).
pub fn unit_partition(n: usize) -> Cells {
    if n == 0 {
        Vec::new()
    } else {
        vec![(0..n as u32).collect()]
    }
}

/// One or more binary relations over a common vertex set `0..n`, held as
/// row-major bit matrices — the input of refinement. Relation 0 is
/// usually a graph adjacency; callers append further relations (e.g. a
/// knowledge state) to canonicalize the *combined* structure, which is
/// what makes two states equivalent exactly when a graph automorphism
/// carries one to the other.
#[derive(Debug, Clone)]
pub struct Relations {
    n: usize,
    words: usize,
    /// Forward rows: `fwd[r][v * words ..][j]` ⇔ `r` relates `v → j`.
    fwd: Vec<Vec<u64>>,
    /// Transposed rows for in-neighbor counting; `None` when the
    /// relation is symmetric (the transpose would be identical).
    bwd: Vec<Option<Vec<u64>>>,
}

impl Relations {
    /// No relations yet, over `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            words: n.div_ceil(64).max(1),
            fwd: Vec::new(),
            bwd: Vec::new(),
        }
    }

    /// The adjacency relation of `g`, alone.
    pub fn from_digraph(g: &Digraph) -> Self {
        let n = g.vertex_count();
        let mut rels = Self::new(n);
        let words = rels.words;
        let mut rows = vec![0u64; n * words];
        for a in g.arcs() {
            // Loops included: they are automorphism-relevant structure
            // (σ must map looped vertices to looped vertices).
            let (u, v) = (a.from as usize, a.to as usize);
            rows[u * words + v / 64] |= 1u64 << (v % 64);
        }
        rels.push_rows(rows);
        rels
    }

    /// Vertex count.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Words per row (`⌈n/64⌉`, at least 1).
    pub fn words(&self) -> usize {
        self.words
    }

    /// Number of relations held.
    pub fn rel_count(&self) -> usize {
        self.fwd.len()
    }

    /// Appends a relation given as `n × words` concatenated rows.
    pub fn push_rows(&mut self, rows: Vec<u64>) {
        assert_eq!(rows.len(), self.n * self.words, "relation row size");
        let t = self.transpose(&rows);
        self.bwd.push((t != rows).then_some(t));
        self.fwd.push(rows);
    }

    /// Overwrites relation `r` in place (allocation-reusing path for the
    /// per-state signatures of the enumerator).
    pub fn set_rows(&mut self, r: usize, rows: &[u64]) {
        assert_eq!(rows.len(), self.n * self.words, "relation row size");
        self.fwd[r].copy_from_slice(rows);
        let t = self.transpose(rows);
        self.bwd[r] = (t != rows).then_some(t);
    }

    fn transpose(&self, rows: &[u64]) -> Vec<u64> {
        let (n, words) = (self.n, self.words);
        let mut t = vec![0u64; n * words];
        for u in 0..n {
            for (w, &bits) in rows[u * words..(u + 1) * words].iter().enumerate() {
                let mut bits = bits;
                while bits != 0 {
                    let v = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    t[v * words + u / 64] |= 1u64 << (u % 64);
                }
            }
        }
        t
    }

    /// The counting probes refinement runs per splitter: every relation
    /// forward, plus backward for the asymmetric ones.
    fn probes(&self) -> Vec<(usize, bool)> {
        let mut out = Vec::with_capacity(self.fwd.len() * 2);
        for r in 0..self.fwd.len() {
            out.push((r, false));
            if self.bwd[r].is_some() {
                out.push((r, true));
            }
        }
        out
    }

    /// Forward row of relation `r` for vertex `v` (`words` words).
    pub fn forward_row(&self, r: usize, v: usize) -> &[u64] {
        self.row(r, false, v)
    }

    #[inline]
    fn row(&self, r: usize, backward: bool, v: usize) -> &[u64] {
        let rows = if backward {
            self.bwd[r].as_ref().expect("backward probe on symmetric")
        } else {
            &self.fwd[r]
        };
        &rows[v * self.words..(v + 1) * self.words]
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

#[inline]
fn mix(h: &mut u64, x: u64) {
    *h = (*h ^ x).wrapping_mul(FNV_PRIME);
}

/// Equitable-partition refinement with reusable scratch.
///
/// [`Refiner::refine`] drives a worklist of splitter cells: counting
/// each vertex's neighbors inside the splitter (per relation and
/// direction) splits every non-uniform cell into count classes, ordered
/// by ascending count; the new subcells become splitters themselves.
/// At quiescence every cell is equitable with respect to every other.
/// The returned **trace hash** folds only structural data — cell
/// positions, count values, fragment sizes — so it is identical across
/// isomorphic inputs and serves as the node invariant of the
/// individualization–refinement tree.
#[derive(Debug, Clone)]
pub struct Refiner {
    n: usize,
    mask: Vec<u64>,
    counts: Vec<u32>,
    scratch: Vec<(u32, u32)>,
}

impl Refiner {
    /// Scratch sized for `n` vertices.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            mask: vec![0u64; n.div_ceil(64).max(1)],
            counts: vec![0u32; n],
            scratch: Vec::with_capacity(n),
        }
    }

    /// Refines `cells` to equitability against all relations, seeding
    /// the worklist with every current cell. Returns the trace hash.
    pub fn refine(&mut self, rels: &Relations, cells: &mut Cells) -> u64 {
        let work: VecDeque<Vec<u32>> = cells.iter().cloned().collect();
        self.refine_with(rels, cells, work)
    }

    /// Refinement resumed after a split introduced `seed` cells (used by
    /// individualization, whose two fragments are the only cells the
    /// rest of the partition is not yet equitable against).
    fn refine_seeded(&mut self, rels: &Relations, cells: &mut Cells, seed: Vec<Vec<u32>>) -> u64 {
        self.refine_with(rels, cells, seed.into())
    }

    fn refine_with(
        &mut self,
        rels: &Relations,
        cells: &mut Cells,
        mut work: VecDeque<Vec<u32>>,
    ) -> u64 {
        let n = self.n;
        let mut h = FNV_OFFSET;
        while cells.len() < n {
            let Some(splitter) = work.pop_front() else {
                break;
            };
            self.mask.iter_mut().for_each(|w| *w = 0);
            for &v in &splitter {
                self.mask[v as usize / 64] |= 1u64 << (v % 64);
            }
            for (r, backward) in rels.probes() {
                mix(&mut h, 0x70 + r as u64 * 2 + backward as u64);
                for v in 0..n {
                    self.counts[v] = rels
                        .row(r, backward, v)
                        .iter()
                        .zip(&self.mask)
                        .map(|(a, b)| (a & b).count_ones())
                        .sum();
                }
                let mut out: Cells = Vec::with_capacity(cells.len());
                for (ci, cell) in cells.drain(..).enumerate() {
                    if cell.len() == 1 {
                        out.push(cell);
                        continue;
                    }
                    // Stable sort by count: fragments keep the parent's
                    // internal order and land in ascending-count order.
                    self.scratch.clear();
                    self.scratch
                        .extend(cell.iter().map(|&v| (self.counts[v as usize], v)));
                    self.scratch.sort_by_key(|&(c, _)| c);
                    if self.scratch[0].0 == self.scratch[self.scratch.len() - 1].0 {
                        out.push(cell);
                        continue;
                    }
                    mix(&mut h, 0xce11);
                    mix(&mut h, ci as u64);
                    let mut i = 0;
                    while i < self.scratch.len() {
                        let c = self.scratch[i].0;
                        let mut frag = Vec::new();
                        while i < self.scratch.len() && self.scratch[i].0 == c {
                            frag.push(self.scratch[i].1);
                            i += 1;
                        }
                        mix(&mut h, c as u64);
                        mix(&mut h, frag.len() as u64);
                        work.push_back(frag.clone());
                        out.push(frag);
                    }
                }
                *cells = out;
                if cells.len() == n {
                    break;
                }
            }
        }
        h
    }
}

/// What one canonical-labeling search produced.
#[derive(Debug, Clone)]
pub struct Canonical {
    /// The canonical labeling: `labeling[v]` is the canonical position
    /// of original vertex `v`.
    pub labeling: Perm,
    /// The canonical form: every relation relabeled by the canonical
    /// labeling, concatenated. Equal across isomorphic inputs, distinct
    /// across non-isomorphic ones — an exact isomorphism key.
    pub form: Vec<u64>,
    /// Automorphism generators discovered by the search. These generate
    /// the full automorphism group of the relation tuple.
    pub generators: Vec<Perm>,
    /// Search-tree nodes visited (diagnostic).
    pub nodes: usize,
}

/// One completed root-to-leaf labeling.
#[derive(Debug, Clone)]
struct Leaf {
    inv: Vec<u64>,
    cert: Vec<u64>,
    lab: Perm,
}

struct IrSearch<'a> {
    rels: &'a Relations,
    refiner: Refiner,
    first: Option<Leaf>,
    best: Option<Leaf>,
    autos: Vec<Perm>,
    inv_path: Vec<u64>,
    prefix: Vec<u32>,
    nodes: usize,
}

/// `path` compared against a completed leaf's invariant sequence:
/// `Equal` means "still on a path that can tie it". A longer path over
/// an equal prefix is `Greater` (the leaf ended shallower).
fn cmp_prefix(path: &[u64], full: &[u64]) -> std::cmp::Ordering {
    let k = path.len().min(full.len());
    match path[..k].cmp(&full[..k]) {
        std::cmp::Ordering::Equal if path.len() > full.len() => std::cmp::Ordering::Greater,
        o => o,
    }
}

impl IrSearch<'_> {
    fn leaf_labeling(&self, cells: &Cells) -> Perm {
        let mut lab = vec![0u32; self.rels.n()];
        for (pos, cell) in cells.iter().enumerate() {
            debug_assert_eq!(cell.len(), 1, "leaf partitions are discrete");
            lab[cell[0] as usize] = pos as u32;
        }
        lab
    }

    fn leaf_cert(&self, lab: &Perm) -> Vec<u64> {
        let (n, words) = (self.rels.n(), self.rels.words());
        let mut cert = vec![0u64; self.rels.rel_count() * n * words];
        for r in 0..self.rels.rel_count() {
            let base = r * n * words;
            for u in 0..n {
                let lu = lab[u] as usize;
                for (w, &bits) in self.rels.row(r, false, u).iter().enumerate() {
                    let mut bits = bits;
                    while bits != 0 {
                        let v = w * 64 + bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let lv = lab[v] as usize;
                        cert[base + lu * words + lv / 64] |= 1u64 << (lv % 64);
                    }
                }
            }
        }
        cert
    }

    /// Records a leaf: the first leaf anchors the automorphism search,
    /// the lexicographically least `(invariant path, cert)` leaf is the
    /// canonical one, and any cert coincidence yields an automorphism.
    fn leaf(&mut self, cells: &Cells) {
        let lab = self.leaf_labeling(cells);
        let cert = self.leaf_cert(&lab);
        if self.first.is_none() {
            let leaf = Leaf {
                inv: self.inv_path.clone(),
                cert,
                lab,
            };
            self.first = Some(leaf.clone());
            self.best = Some(leaf);
            return;
        }
        for anchor in [self.first.as_ref(), self.best.as_ref()] {
            let anchor = anchor.expect("anchors exist after the first leaf");
            if anchor.cert == cert {
                // Both labelings transport the input onto the same
                // matrix, so anchor.lab⁻¹ ∘ lab is an automorphism.
                let sigma = compose(&invert(&anchor.lab), &lab);
                if !is_identity(&sigma) && !self.autos.contains(&sigma) {
                    self.autos.push(sigma);
                }
            }
        }
        let best = self.best.as_mut().expect("best exists after first leaf");
        if (self.inv_path.as_slice(), cert.as_slice()) < (best.inv.as_slice(), best.cert.as_slice())
        {
            *best = Leaf {
                inv: self.inv_path.clone(),
                cert,
                lab,
            };
        }
    }

    /// `true` when some discovered automorphism fixing the current
    /// prefix pointwise maps an already-explored sibling to `v` — then
    /// `v`'s subtree is the image of an explored one and contributes
    /// nothing new.
    fn orbit_blocked(&self, explored: &[u32], v: u32) -> bool {
        if explored.is_empty() || self.autos.is_empty() {
            return false;
        }
        let mut uf = UnionFind::new(self.rels.n());
        let mut any = false;
        for a in &self.autos {
            if self.prefix.iter().all(|&p| a[p as usize] == p) {
                uf.union_perm(a);
                any = true;
            }
        }
        any && explored.iter().any(|&w| uf.same(w as usize, v as usize))
    }

    /// Explore the subtree under the current invariant path? Kept while
    /// it can still tie or beat the best leaf, or while it matches the
    /// first leaf's path (where the remaining automorphisms live).
    fn should_explore(&self) -> bool {
        let Some(best) = &self.best else {
            return true;
        };
        if cmp_prefix(&self.inv_path, &best.inv) != std::cmp::Ordering::Greater {
            return true;
        }
        let first = self.first.as_ref().expect("first set with best");
        cmp_prefix(&self.inv_path, &first.inv) == std::cmp::Ordering::Equal
    }

    fn descend(&mut self, cells: Cells) {
        self.nodes += 1;
        if cells.len() == self.rels.n() {
            self.leaf(&cells);
            return;
        }
        // Deterministic target cell: the first smallest non-singleton.
        let tgt = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.len() > 1)
            .min_by_key(|(i, c)| (c.len(), *i))
            .map(|(i, _)| i)
            .expect("non-discrete partition has a splittable cell");
        let cand = cells[tgt].clone();
        let mut explored: Vec<u32> = Vec::with_capacity(cand.len());
        for &v in &cand {
            if self.orbit_blocked(&explored, v) {
                continue;
            }
            // Individualize v: its cell becomes [v][rest], and the two
            // fragments reseed refinement.
            let mut child: Cells = Vec::with_capacity(cells.len() + 1);
            let mut seed: Vec<Vec<u32>> = Vec::with_capacity(2);
            for (i, cell) in cells.iter().enumerate() {
                if i != tgt {
                    child.push(cell.clone());
                    continue;
                }
                let rest: Vec<u32> = cell.iter().copied().filter(|&w| w != v).collect();
                child.push(vec![v]);
                seed.push(vec![v]);
                if !rest.is_empty() {
                    seed.push(rest.clone());
                    child.push(rest);
                }
            }
            let mut h = FNV_OFFSET;
            mix(&mut h, tgt as u64);
            mix(
                &mut h,
                self.refiner.refine_seeded(self.rels, &mut child, seed),
            );
            self.inv_path.push(h);
            if self.should_explore() {
                self.prefix.push(v);
                self.descend(child);
                self.prefix.pop();
            }
            self.inv_path.pop();
            explored.push(v);
        }
    }
}

/// The canonical form, canonical labeling and automorphism generators of
/// a relation tuple, starting from the initial partition `seed` (which
/// must itself be derived isomorphism-invariantly — unit partition,
/// degree classes, distance profiles — for the form to be a valid
/// isomorphism key).
pub fn canonical_form(rels: &Relations, seed: &Cells) -> Canonical {
    let n = rels.n();
    debug_assert_eq!(
        seed.iter().map(Vec::len).sum::<usize>(),
        n,
        "seed partitions 0..n"
    );
    let mut cells = seed.clone();
    let mut search = IrSearch {
        rels,
        refiner: Refiner::new(n),
        first: None,
        best: None,
        autos: Vec::new(),
        inv_path: Vec::new(),
        prefix: Vec::new(),
        nodes: 0,
    };
    let mut root = FNV_OFFSET;
    for cell in &cells {
        mix(&mut root, cell.len() as u64);
    }
    mix(&mut root, search.refiner.refine(rels, &mut cells));
    search.inv_path.push(root);
    search.descend(cells);
    let best = search.best.unwrap_or(Leaf {
        inv: Vec::new(),
        cert: Vec::new(),
        lab: Vec::new(),
    });
    Canonical {
        labeling: best.lab,
        form: best.cert,
        generators: search.autos,
        nodes: search.nodes,
    }
}

/// Caps the distance-profile seed: beyond this many vertices the n BFS
/// sweeps cost more than the refinement they pre-empt.
const DISTANCE_SEED_MAX: usize = 1024;

/// The initial partition for graph canonicalization: vertices grouped by
/// their BFS distance profile (how many vertices sit at each distance,
/// out- and in-direction, unreachables counted) — an isomorphism- and
/// automorphism-invariant that splits irregular graphs at the root. On
/// vertex-transitive families every profile coincides and this is just
/// the unit partition.
pub fn distance_seed(g: &Digraph) -> Cells {
    let n = g.vertex_count();
    if n == 0 || n > DISTANCE_SEED_MAX {
        return unit_partition(n);
    }
    let symmetric = g.is_symmetric();
    let profile = |v: usize, backward: bool| -> Vec<u32> {
        let mut dist = vec![u32::MAX; n];
        let mut queue = VecDeque::from([v]);
        dist[v] = 0;
        let mut counts: Vec<u32> = vec![1];
        while let Some(u) = queue.pop_front() {
            let nbrs = if backward {
                g.in_neighbors(u)
            } else {
                g.out_neighbors(u)
            };
            for &w in nbrs {
                let w = w as usize;
                if dist[w] == u32::MAX {
                    dist[w] = dist[u] + 1;
                    if counts.len() <= dist[w] as usize {
                        counts.push(0);
                    }
                    counts[dist[w] as usize] += 1;
                    queue.push_back(w);
                }
            }
        }
        counts.push(dist.iter().filter(|&&d| d == u32::MAX).count() as u32);
        counts
    };
    let mut by_key: std::collections::BTreeMap<Vec<u32>, Vec<u32>> = Default::default();
    for v in 0..n {
        let mut key = profile(v, false);
        if !symmetric {
            key.extend(profile(v, true));
        }
        by_key.entry(key).or_default().push(v as u32);
    }
    by_key.into_values().collect()
}

/// Canonical form + labeling + generators of a built network, seeded by
/// distance profiles.
pub fn canonical_graph(g: &Digraph) -> Canonical {
    canonical_form(&Relations::from_digraph(g), &distance_seed(g))
}

/// A generating set of `Aut(g)` by individualization–refinement — the
/// replacement for the backtracking hot path, immune to the exponential
/// refutations on regular ultra-symmetric families.
pub fn automorphism_generators_refined(g: &Digraph) -> Vec<Perm> {
    canonical_graph(g).generators
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::group::PermGroup;

    fn order_of(gens: Vec<Perm>, n: usize) -> u128 {
        PermGroup::from_generators(n, gens).order()
    }

    #[test]
    fn refinement_splits_by_degree() {
        // Star S_5: center degree 4, leaves degree 1 — one refinement
        // pass separates them without individualization.
        let g = generators::star(5);
        let rels = Relations::from_digraph(&g);
        let mut cells = unit_partition(5);
        Refiner::new(5).refine(&rels, &mut cells);
        assert_eq!(cells.len(), 2);
        assert!(cells.iter().any(|c| c == &vec![0u32]), "center isolated");
    }

    #[test]
    fn refinement_is_equitable() {
        let g = generators::petersen();
        let rels = Relations::from_digraph(&g);
        let mut cells = unit_partition(10);
        Refiner::new(10).refine(&rels, &mut cells);
        // Every cell equitable against every cell: uniform neighbor
        // counts.
        for target in &cells {
            for splitter in &cells {
                let count = |v: u32| {
                    g.out_neighbors(v as usize)
                        .iter()
                        .filter(|w| splitter.contains(w))
                        .count()
                };
                let c0 = count(target[0]);
                assert!(target.iter().all(|&v| count(v) == c0));
            }
        }
    }

    #[test]
    fn canonical_orders_match_backtracking_on_the_zoo() {
        for (g, want) in [
            (generators::cycle(8), 16u128),
            (generators::path(5), 2),
            (generators::hypercube(3), 48),
            (generators::complete(4), 24),
            (generators::petersen(), 120),
            (generators::knodel(3, 8), 48),
            (generators::de_bruijn_directed(2, 3), 2),
        ] {
            let n = g.vertex_count();
            let got = order_of(automorphism_generators_refined(&g), n);
            assert_eq!(got, want, "n = {n}");
        }
    }

    #[test]
    fn canonical_form_is_relabeling_invariant() {
        // A fixed scrambling of the Petersen graph must canonicalize to
        // the same form, through a labeling that differs.
        let g = generators::petersen();
        let base = canonical_graph(&g);
        let p: Vec<usize> = vec![7, 2, 9, 0, 4, 6, 1, 8, 3, 5];
        let h = Digraph::from_arcs(
            10,
            g.arcs()
                .map(|a| crate::digraph::Arc::new(p[a.from as usize], p[a.to as usize])),
        );
        let scrambled = canonical_graph(&h);
        assert_eq!(base.form, scrambled.form);
        assert_ne!(base.labeling, scrambled.labeling);
    }

    #[test]
    fn non_isomorphic_graphs_get_distinct_forms() {
        // C_6 vs two triangles: same degree sequence, different graphs.
        let c6 = generators::cycle(6);
        let two_triangles =
            Digraph::from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]);
        assert_ne!(
            canonical_graph(&c6).form,
            canonical_graph(&two_triangles).form
        );
    }

    #[test]
    fn combined_relations_distinguish_states() {
        // Same graph, two knowledge-like relations that are *not* in the
        // same automorphism orbit: forms must differ. Two that are:
        // forms must agree.
        let g = generators::cycle(4);
        let rels_with = |bits: &[(usize, usize)]| {
            let mut rels = Relations::from_digraph(&g);
            let words = rels.words();
            let mut rows = vec![0u64; 4 * words];
            for &(u, v) in bits {
                rows[u * words + v / 64] |= 1 << (v % 64);
            }
            rels.push_rows(rows);
            rels
        };
        let seed = unit_partition(4);
        // "0 knows 1" vs "1 knows 2": rotation r(v) = v+1 carries one to
        // the other.
        let a = canonical_form(&rels_with(&[(0, 1)]), &seed);
        let b = canonical_form(&rels_with(&[(1, 2)]), &seed);
        assert_eq!(a.form, b.form);
        // "0 knows 1" vs "0 knows 2": no automorphism of C_4 maps the
        // arc (0,1) to the diagonal (0,2).
        let c = canonical_form(&rels_with(&[(0, 2)]), &seed);
        assert_ne!(a.form, c.form);
    }

    #[test]
    fn discovered_generators_respect_refinement_cells() {
        // Automorphisms preserve any equitable partition refined from an
        // invariant seed: every generator maps each cell onto itself...
        // onto a cell of equal position, which for the distance seed of
        // the star graph means fixing the center.
        let g = generators::star(6);
        for gen in automorphism_generators_refined(&g) {
            assert_eq!(gen[0], 0, "center is a singleton cell");
        }
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let empty = Digraph::from_arcs(0, []);
        let c = canonical_graph(&empty);
        assert!(c.labeling.is_empty() && c.generators.is_empty());
        let one = Digraph::from_arcs(1, []);
        let c = canonical_graph(&one);
        assert_eq!(c.labeling, vec![0]);
        assert!(c.generators.is_empty());
    }
}
