//! Permutation groups with stabilizer chains — the symmetry substrate of
//! the exact schedule enumerator.
//!
//! [`crate::automorphism`] enumerates *every* element of a small
//! network's automorphism group; that materialization is exactly what
//! capped it at tiny graphs. This module works with the group as an
//! object instead:
//!
//! * [`automorphism_group`] finds a **generating set** of `Aut(g)`
//!   through the individualization–refinement search of
//!   [`crate::refine`] — equitable-partition refinement does the
//!   distinguishing work, so look-alike regular families no longer
//!   drive refutations exponential — and feeds it to Schreier–Sims;
//! * [`PermGroup`] holds a base and strong generating set computed by
//!   the deterministic Schreier–Sims algorithm: exact [`PermGroup::order`]
//!   (a product of orbit lengths, as `u128`), [`PermGroup::chain_depth`],
//!   membership tests by sifting, pointwise stabilizers down the chain,
//!   and full element enumeration only when a caller explicitly asks
//!   (and caps) it;
//! * [`UnionFind`] is the indexed orbit bookkeeping both layers share —
//!   orbit partitions of any `n`, no bitmask width limit.
//!
//! The enumerator uses all three: orbit representatives under the whole
//! group at round 0, and under the (incrementally computed) stabilizer
//! of the already-fixed prefix at every later round.
//!
//! The test oracle the refined generator search is pinned against is
//! the element list of [`crate::automorphism::automorphisms`]: the
//! chain's order must equal its length on the Knödel/de Bruijn zoo and
//! on random small digraphs.
//!
//! ```
//! use sg_graphs::{generators, group::automorphism_group};
//!
//! // The dihedral group of the 8-cycle, without listing its elements.
//! let g = automorphism_group(&generators::cycle(8));
//! assert_eq!(g.order(), 16);
//! assert_eq!(g.orbits().len(), 1, "vertex-transitive");
//! ```

use crate::digraph::Digraph;

/// A permutation of `0..n` as an image table: `p[v]` is the image of `v`.
pub type Perm = Vec<u32>;

/// The identity permutation on `n` points.
pub fn identity(n: usize) -> Perm {
    (0..n as u32).collect()
}

/// `true` when `p` fixes every point.
pub fn is_identity(p: &[u32]) -> bool {
    p.iter().enumerate().all(|(i, &v)| v as usize == i)
}

/// The composition `a ∘ b`: apply `b` first, then `a`.
pub fn compose(a: &[u32], b: &[u32]) -> Perm {
    b.iter().map(|&v| a[v as usize]).collect()
}

/// The inverse permutation.
pub fn invert(p: &[u32]) -> Perm {
    let mut inv = vec![0u32; p.len()];
    for (i, &v) in p.iter().enumerate() {
        inv[v as usize] = i as u32;
    }
    inv
}

/// Indexed union-find over `0..n` — the orbit bookkeeping of the group
/// layer. Plain `usize` indices instead of fixed-width bitmasks, so
/// there is no cap on `n`.
///
/// ```
/// use sg_graphs::group::UnionFind;
///
/// let mut uf = UnionFind::new(100);
/// uf.union(3, 97);
/// assert!(uf.same(3, 97));
/// assert!(!uf.same(3, 4));
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton classes.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// The class representative of `x`, with path halving.
    pub fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the classes of `a` and `b`; `true` when they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        true
    }

    /// `true` when `a` and `b` share a class.
    pub fn same(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Merges `v ~ p[v]` for every point of `p` — the orbit closure step.
    pub fn union_perm(&mut self, p: &[u32]) {
        for (v, &w) in p.iter().enumerate() {
            self.union(v, w as usize);
        }
    }

    /// The classes as sorted vertex lists, ordered by minimum element —
    /// a deterministic partition of `0..n`.
    pub fn classes(&mut self) -> Vec<Vec<usize>> {
        let n = self.parent.len();
        let mut by_root: std::collections::BTreeMap<usize, Vec<usize>> = Default::default();
        for v in 0..n {
            let r = self.find(v);
            by_root.entry(r).or_default().push(v);
        }
        let mut out: Vec<Vec<usize>> = by_root.into_values().collect();
        out.sort_by_key(|c| c[0]);
        out
    }
}

/// One level of the stabilizer chain: the base point, the strong
/// generators that fix every earlier base point, and the Schreier
/// transversal of the point's orbit under them.
#[derive(Debug, Clone)]
struct Level {
    point: usize,
    gens: Vec<Perm>,
    /// `transversal[v]` maps `point` to `v`, for `v` in the orbit.
    transversal: Vec<Option<Perm>>,
    /// Orbit points in BFS discovery order (deterministic).
    orbit: Vec<usize>,
}

impl Level {
    fn new(n: usize, point: usize) -> Self {
        Self {
            point,
            gens: Vec::new(),
            transversal: vec![None; n],
            orbit: Vec::new(),
        }
    }

    /// Rebuilds the orbit and transversal of `point` under `gens` by
    /// deterministic BFS.
    fn rebuild(&mut self, n: usize) {
        self.transversal = vec![None; n];
        self.orbit.clear();
        self.transversal[self.point] = Some(identity(n));
        self.orbit.push(self.point);
        let mut head = 0;
        while head < self.orbit.len() {
            let v = self.orbit[head];
            head += 1;
            let tv = self.transversal[v].clone().unwrap();
            for g in &self.gens {
                let w = g[v] as usize;
                if self.transversal[w].is_none() {
                    self.transversal[w] = Some(compose(g, &tv));
                    self.orbit.push(w);
                }
            }
        }
    }
}

/// A permutation group held as a base and strong generating set
/// (Schreier–Sims), never as an element list.
///
/// ```
/// use sg_graphs::group::PermGroup;
///
/// // ⟨(0 1 2 3)⟩ — the cyclic group C₄.
/// let g = PermGroup::from_generators(4, vec![vec![1, 2, 3, 0]]);
/// assert_eq!(g.order(), 4);
/// assert!(g.contains(&[2, 3, 0, 1]));
/// assert!(!g.contains(&[1, 0, 2, 3]));
/// ```
#[derive(Debug, Clone)]
pub struct PermGroup {
    n: usize,
    levels: Vec<Level>,
}

impl PermGroup {
    /// The trivial group on `n` points.
    pub fn trivial(n: usize) -> Self {
        Self {
            n,
            levels: Vec::new(),
        }
    }

    /// Builds the stabilizer chain for the group generated by `gens`
    /// (deterministic Schreier–Sims; identity generators are dropped).
    ///
    /// # Panics
    /// Panics when a generator is not a permutation of `0..n`.
    pub fn from_generators(n: usize, gens: Vec<Perm>) -> Self {
        for g in &gens {
            assert_eq!(g.len(), n, "generator length {} ≠ n = {n}", g.len());
            let mut seen = vec![false; n];
            for &v in g {
                assert!(
                    (v as usize) < n && !seen[v as usize],
                    "generator is not a permutation of 0..{n}"
                );
                seen[v as usize] = true;
            }
        }
        let mut group = Self::trivial(n);
        for g in gens {
            if !is_identity(&g) {
                group.extend(g);
            }
        }
        group
    }

    /// Number of points the group acts on.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The base: each level's stabilized point, in chain order.
    pub fn base(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.point).collect()
    }

    /// Depth of the stabilizer chain (= base length).
    pub fn chain_depth(&self) -> usize {
        self.levels.len()
    }

    /// Exact group order: the product of the chain's orbit lengths.
    pub fn order(&self) -> u128 {
        self.levels.iter().map(|l| l.orbit.len() as u128).product()
    }

    /// A generating set (the strong generators of the top level; empty
    /// for the trivial group).
    pub fn generators(&self) -> &[Perm] {
        self.levels.first().map_or(&[], |l| &l.gens)
    }

    /// Orbit lengths down the chain — `[|orbit(b₀)|, |orbit(b₁)|, …]`,
    /// whose product is the order.
    pub fn chain_orbit_lengths(&self) -> Vec<usize> {
        self.levels.iter().map(|l| l.orbit.len()).collect()
    }

    /// Sifts `p` through the chain: returns the residue and the level it
    /// stuck at (`levels.len()` when it fell through the whole chain).
    fn strip(&self, p: Perm, from: usize) -> (Perm, usize) {
        let mut g = p;
        for (i, level) in self.levels.iter().enumerate().skip(from) {
            let v = g[level.point] as usize;
            match &level.transversal[v] {
                None => return (g, i),
                Some(t) => g = compose(&invert(t), &g),
            }
        }
        (g, self.levels.len())
    }

    /// `true` when `p` is an element of the group.
    pub fn contains(&self, p: &[u32]) -> bool {
        if p.len() != self.n {
            return false;
        }
        let (res, _) = self.strip(p.to_vec(), 0);
        is_identity(&res)
    }

    /// Adds one generator and restores the strong-generating invariant.
    fn extend(&mut self, g: Perm) {
        let (res, lvl) = self.strip(g, 0);
        if is_identity(&res) {
            return;
        }
        self.insert_at(res, lvl, 0);
    }

    /// Installs `res` (which fixes the first `lvl` base points and moves
    /// something beyond them) as a strong generator for levels
    /// `floor..=lvl`, then re-closes those levels bottom-up. `floor > i`
    /// whenever the call comes from inside [`Self::close_level`]`(i)`, so
    /// a level never mutates itself re-entrantly.
    fn insert_at(&mut self, res: Perm, lvl: usize, floor: usize) {
        if lvl == self.levels.len() {
            // The residue fixes the whole base: extend it with a moved
            // point (the smallest, for determinism).
            let point = res
                .iter()
                .enumerate()
                .position(|(i, &v)| v as usize != i)
                .expect("non-identity residue moves a point");
            self.levels.push(Level::new(self.n, point));
        }
        for level in self.levels[floor..=lvl].iter_mut() {
            level.gens.push(res.clone());
        }
        for i in (floor..=lvl).rev() {
            self.close_level(i);
        }
    }

    /// Schreier–Sims closure of level `i`: rebuilds its orbit and
    /// transversal, then sifts every Schreier generator through the rest
    /// of the chain, recursing on any level that gains a generator.
    fn close_level(&mut self, i: usize) {
        self.levels[i].rebuild(self.n);
        let mut k = 0;
        // The orbit and gens are cloned snapshots: new generators only
        // ever land at levels > i, so level i's structures are stable.
        while k < self.levels[i].orbit.len() {
            let v = self.levels[i].orbit[k];
            k += 1;
            let tv = self.levels[i].transversal[v].clone().unwrap();
            for gi in 0..self.levels[i].gens.len() {
                let s = self.levels[i].gens[gi].clone();
                let w = s[v] as usize;
                let tw = self.levels[i].transversal[w]
                    .clone()
                    .expect("orbit is closed under its own generators");
                // The Schreier generator t_w⁻¹ · s · t_v fixes the base
                // prefix through level i.
                let schreier = compose(&invert(&tw), &compose(&s, &tv));
                if is_identity(&schreier) {
                    continue;
                }
                let (res, lvl) = self.strip(schreier, i + 1);
                if !is_identity(&res) {
                    self.insert_at(res, lvl, i + 1);
                }
            }
        }
    }

    /// The orbit partition of `0..n` under the group, via [`UnionFind`] —
    /// deterministic, ordered by minimum element.
    pub fn orbits(&self) -> Vec<Vec<usize>> {
        let mut uf = UnionFind::new(self.n);
        for g in self.generators() {
            uf.union_perm(g);
        }
        uf.classes()
    }

    /// The pointwise stabilizer of `points` as a new group, walked down
    /// the chain when the points prefix the base and recomputed by
    /// sifting otherwise.
    pub fn pointwise_stabilizer(&self, points: &[usize]) -> PermGroup {
        // Fast path: the points are exactly a base prefix — the chain
        // already holds the stabilizer.
        let base = self.base();
        if points.len() <= base.len() && points.iter().zip(&base).all(|(p, b)| p == b) {
            let mut levels = self.levels[points.len()..].to_vec();
            for l in &mut levels {
                l.rebuild(self.n);
            }
            return PermGroup { n: self.n, levels };
        }
        // General path: rebuild with the requested points forced to the
        // front of the base, then strip the prefix.
        let mut rebuilt = PermGroup::trivial(self.n);
        for &p in points {
            rebuilt.levels.push(Level::new(self.n, p));
        }
        for l in &mut rebuilt.levels {
            l.rebuild(self.n);
        }
        for g in self.generators() {
            rebuilt.extend(g.clone());
        }
        let mut levels = rebuilt.levels[points.len()..].to_vec();
        for l in &mut levels {
            l.rebuild(self.n);
        }
        PermGroup { n: self.n, levels }
    }

    /// Every element, as transversal products down the chain, when the
    /// order does not exceed `cap` (`None` otherwise). Deterministic
    /// order; the identity is always first.
    pub fn elements_capped(&self, cap: usize) -> Option<Vec<Perm>> {
        if self.order() > cap as u128 {
            return None;
        }
        let mut out = vec![identity(self.n)];
        // Walk the chain bottom-up so coset representatives multiply the
        // already-built stabilizer elements.
        for level in self.levels.iter().rev() {
            let mut next = Vec::with_capacity(out.len() * level.orbit.len());
            for &v in &level.orbit {
                let t = level.transversal[v].as_ref().unwrap();
                for e in &out {
                    next.push(compose(t, e));
                }
            }
            out = next;
        }
        // Deterministic canonical order (identity sorts first).
        out.sort_unstable();
        out.dedup();
        debug_assert_eq!(out.len() as u128, self.order());
        Some(out)
    }
}

/// The automorphism group of `g`, as a stabilizer chain. This is the
/// group-layer entry point the enumerator and the scenario cache use —
/// guard-free, element-list-free. Its generators come from the
/// individualization–refinement search of
/// [`crate::refine::automorphism_generators_refined`], where
/// equitable-partition refinement (degree and distance invariants,
/// iterated after every individualization) does the distinguishing work
/// that prefix-anchored backtracking pays for with exponential
/// refutations on regular look-alike families.
pub fn automorphism_group(g: &Digraph) -> PermGroup {
    PermGroup::from_generators(
        g.vertex_count(),
        crate::refine::automorphism_generators_refined(g),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automorphism::automorphisms;
    use crate::generators;

    #[test]
    fn chain_orders_match_full_enumeration() {
        for (g, want) in [
            (generators::cycle(8), 16u128),
            (generators::path(5), 2),
            (generators::hypercube(3), 48),
            (generators::complete(4), 24),
        ] {
            let group = automorphism_group(&g);
            assert_eq!(group.order(), want);
            assert_eq!(automorphisms(&g).len() as u128, want);
        }
    }

    #[test]
    fn membership_by_sifting() {
        let g = generators::cycle(6);
        let group = automorphism_group(&g);
        for p in automorphisms(&g) {
            assert!(group.contains(&p));
        }
        // A transposition of adjacent vertices is not an automorphism of
        // the 6-cycle's dihedral group action… check a non-element.
        assert!(!group.contains(&[1, 0, 2, 3, 4, 5]));
    }

    #[test]
    fn elements_capped_reproduces_the_element_list() {
        let g = generators::hypercube(3);
        let group = automorphism_group(&g);
        let mut via_chain = group.elements_capped(1000).expect("order 48 ≤ 1000");
        let mut via_backtracking = automorphisms(&g);
        via_chain.sort();
        via_backtracking.sort();
        assert_eq!(via_chain, via_backtracking);
        assert!(group.elements_capped(47).is_none(), "cap respected");
    }

    #[test]
    fn pointwise_stabilizer_orders() {
        // Dihedral on C_8: Stab(0) = {id, reflection through 0} — order 2;
        // Stab(0, 1) is trivial.
        let group = automorphism_group(&generators::cycle(8));
        assert_eq!(group.pointwise_stabilizer(&[0]).order(), 2);
        assert_eq!(group.pointwise_stabilizer(&[0, 1]).order(), 1);
        // Q_3: Stab(0) permutes the 3 dimensions — order 6.
        let q3 = automorphism_group(&generators::hypercube(3));
        assert_eq!(q3.pointwise_stabilizer(&[0]).order(), 6);
        // Non-base-prefix points force the general (rebuild) path: the
        // stabilizer of an arbitrary cycle vertex is still the
        // reflection pair, and stabilizing two non-adjacent points of
        // C_8 kills everything but identity-or-reflection-through-both.
        let group = automorphism_group(&generators::cycle(8));
        assert_eq!(group.pointwise_stabilizer(&[3]).order(), 2);
        assert_eq!(group.pointwise_stabilizer(&[1, 5]).order(), 2);
        assert_eq!(group.pointwise_stabilizer(&[1, 2]).order(), 1);
    }

    #[test]
    fn orbits_partition_and_detect_transitivity() {
        let star = automorphism_group(&generators::star(5));
        let orbits = star.orbits();
        // Center fixed, leaves one orbit.
        assert_eq!(orbits.len(), 2);
        assert_eq!(orbits.iter().map(Vec::len).sum::<usize>(), 5);
        let cycle = automorphism_group(&generators::cycle(7));
        assert_eq!(cycle.orbits().len(), 1, "vertex-transitive");
    }

    #[test]
    fn large_n_groups_without_any_guard() {
        // n = 128 > the retired 64 guard: the chain computes the order
        // without materializing a single element list.
        let g = generators::cycle(128);
        let group = automorphism_group(&g);
        assert_eq!(group.order(), 256, "dihedral of C_128");
        // Hypercube Q_7: order 2^7 · 7! = 645120 — far beyond anything
        // enumerable, exact through the chain.
        let q7 = automorphism_group(&generators::hypercube(7));
        assert_eq!(q7.order(), 645_120);
        assert!(q7.elements_capped(10_000).is_none());
    }

    #[test]
    fn trivial_and_identity_cases() {
        let group = PermGroup::from_generators(4, vec![identity(4)]);
        assert_eq!(group.order(), 1);
        assert_eq!(group.chain_depth(), 0);
        assert!(group.contains(&identity(4)));
        assert_eq!(group.elements_capped(10).unwrap(), vec![identity(4)]);
        assert_eq!(PermGroup::trivial(0).order(), 1);
    }

    #[test]
    fn compose_invert_roundtrip() {
        let a: Perm = vec![2, 0, 1, 3];
        let b: Perm = vec![1, 2, 3, 0];
        let ab = compose(&a, &b);
        assert_eq!(compose(&invert(&a), &ab), b);
        assert!(is_identity(&compose(&a, &invert(&a))));
    }
}
