//! Full-enumeration digraph automorphisms for small networks.
//!
//! The exact-enumeration machinery needs the automorphism group of a
//! network to break symmetry: two period-`p` schedules that differ by a
//! relabeling of the processors have identical gossip times, so the
//! enumerator only needs one representative per orbit of the group action
//! on candidate rounds. This module materializes the group as an
//! explicit element list by plain backtracking — exact and fast when the
//! group is tiny, and the right shape for the lexicographic
//! representative test [`is_orbit_representative`].
//!
//! For everything that scales with the group rather than with its
//! element list — exact orders of huge groups, stabilizer chains,
//! orbit partitions at any `n` — use [`crate::group`], which computes a
//! base and strong generating set (Schreier–Sims) from the
//! individualization–refinement *generators* of [`crate::refine`]
//! instead of enumerating elements. This element list stays the test
//! oracle that path is pinned against. The former `n ≤ 64`
//! guard lived here precisely because element lists do not scale; the
//! group layer removed the need for it.

use crate::digraph::{Arc, Digraph};

/// Largest element list [`automorphisms`] will materialize. The former
/// `n ≤ 64` vertex-count guard is gone (vertex count was never the real
/// cost), but a group too large to list still deserves a clear panic
/// pointing at the chain layer rather than a silent memory-eating hang.
pub const AUTOMORPHISM_ELEMENT_CAP: usize = 1 << 20;

/// Enumerates every automorphism of `g` as a permutation `perm` with
/// `perm[v]` the image of `v`. The identity is always included, so the
/// result is never empty. Deterministic: permutations come out in
/// lexicographic order.
///
/// Vertices are assigned in breadth-first order of the underlying
/// undirected graph, so every vertex past a component's root has an
/// already mapped neighbour, and only that neighbour's image's
/// neighbours pass the consistency check as its image.
///
/// The element list has `|Aut(g)|` entries — prefer
/// [`crate::group::automorphism_group`] (and its capped
/// [`crate::group::PermGroup::elements_capped`]) when the group might be
/// large.
///
/// # Panics
/// Panics when the group has more than [`AUTOMORPHISM_ELEMENT_CAP`]
/// elements — use the group layer for such graphs.
pub fn automorphisms(g: &Digraph) -> Vec<Vec<u32>> {
    let n = g.vertex_count();
    if n == 0 {
        return vec![Vec::new()];
    }
    const UNSET: u32 = u32::MAX;
    let mut perm = vec![UNSET; n];
    let mut used = vec![false; n];
    let mut out = Vec::new();
    // Candidate images must preserve the (out-degree, in-degree)
    // signature; everything else is checked incrementally.
    let sig: Vec<(usize, usize)> = (0..n).map(|v| (g.out_degree(v), g.in_degree(v))).collect();
    let order = bfs_order(g);
    backtrack(g, &sig, &order, 0, &mut perm, &mut used, &mut out);
    out.sort_unstable();
    out
}

/// Every vertex once, in breadth-first order over arcs taken both ways,
/// restarting from the smallest unvisited vertex per component.
fn bfs_order(g: &Digraph) -> Vec<usize> {
    let n = g.vertex_count();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for root in 0..n {
        if seen[root] {
            continue;
        }
        seen[root] = true;
        order.push(root);
        let mut head = order.len() - 1;
        while head < order.len() {
            let u = order[head];
            head += 1;
            for &w in g.out_neighbors(u).iter().chain(g.in_neighbors(u)) {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    order.push(w as usize);
                }
            }
        }
    }
    order
}

/// Extends a partial vertex mapping of `order[..k]` to all completions.
fn backtrack(
    g: &Digraph,
    sig: &[(usize, usize)],
    order: &[usize],
    k: usize,
    perm: &mut Vec<u32>,
    used: &mut Vec<bool>,
    out: &mut Vec<Vec<u32>>,
) {
    let n = g.vertex_count();
    if k == n {
        assert!(
            out.len() < AUTOMORPHISM_ELEMENT_CAP,
            "automorphism element list exceeds {AUTOMORPHISM_ELEMENT_CAP} entries — \
             use sg_graphs::group::automorphism_group for large groups"
        );
        out.push(perm.clone());
        return;
    }
    let v = order[k];
    'image: for w in 0..n {
        if used[w] || sig[v] != sig[w] {
            continue;
        }
        // Consistency with every already-mapped vertex: arcs to/from `v`
        // must map to arcs to/from `w`, and non-arcs to non-arcs.
        for &u in &order[..k] {
            let wu = perm[u] as usize;
            if g.has_arc(v, u) != g.has_arc(w, wu) || g.has_arc(u, v) != g.has_arc(wu, w) {
                continue 'image;
            }
        }
        perm[v] = w as u32;
        used[w] = true;
        backtrack(g, sig, order, k + 1, perm, used, out);
        perm[v] = u32::MAX;
        used[w] = false;
    }
}

/// Applies an automorphism to an arc.
#[inline]
pub fn map_arc(perm: &[u32], a: Arc) -> Arc {
    Arc {
        from: perm[a.from as usize],
        to: perm[a.to as usize],
    }
}

/// Applies an automorphism to an arc set, returning it sorted — the
/// canonical form the symmetry breaker compares.
pub fn map_arcs(perm: &[u32], arcs: &[Arc]) -> Vec<Arc> {
    let mut mapped: Vec<Arc> = arcs.iter().map(|&a| map_arc(perm, a)).collect();
    mapped.sort_unstable();
    mapped
}

/// `true` when `arcs` (sorted) is lexicographically minimal within its
/// orbit under `perms` — the symmetry-breaking predicate: among all
/// relabelings of an arc set, only the canonical representative survives.
pub fn is_orbit_representative(perms: &[Vec<u32>], arcs: &[Arc]) -> bool {
    debug_assert!(arcs.windows(2).all(|w| w[0] <= w[1]), "arcs must be sorted");
    perms.iter().all(|p| map_arcs(p, arcs).as_slice() >= arcs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn is_automorphism(g: &Digraph, perm: &[u32]) -> bool {
        (0..g.vertex_count()).all(|v| {
            g.out_neighbors(v)
                .iter()
                .all(|&w| g.has_arc(perm[v] as usize, perm[w as usize] as usize))
        })
    }

    #[test]
    fn group_orders_of_known_graphs() {
        // Dihedral group of the n-cycle: order 2n.
        assert_eq!(automorphisms(&generators::cycle(8)).len(), 16);
        // Path P_n: identity + reversal.
        assert_eq!(automorphisms(&generators::path(5)).len(), 2);
        // Hypercube Q_k: order 2^k · k!.
        assert_eq!(automorphisms(&generators::hypercube(3)).len(), 48);
        // Complete graph K_4: all of S_4.
        assert_eq!(automorphisms(&generators::complete(4)).len(), 24);
    }

    #[test]
    fn directed_cycle_loses_the_reflections() {
        let g = Digraph::from_arcs(6, (0..6).map(|i| Arc::new(i, (i + 1) % 6)));
        // Rotations only: order n, not 2n.
        assert_eq!(automorphisms(&g).len(), 6);
    }

    #[test]
    fn every_permutation_is_an_automorphism_and_identity_is_first() {
        let g = generators::hypercube(3);
        let perms = automorphisms(&g);
        for p in &perms {
            assert!(is_automorphism(&g, p));
        }
        let identity: Vec<u32> = (0..8).collect();
        assert_eq!(perms[0], identity, "lexicographic order starts at id");
    }

    #[test]
    fn orbit_representative_filters_reflected_rounds() {
        // On C_4, the matchings {01, 23} and {12, 30} are one orbit under
        // rotation: exactly one of them is the representative.
        let g = generators::cycle(4);
        let perms = automorphisms(&g);
        let a = vec![Arc::new(0, 1), Arc::new(2, 3)];
        let b = vec![Arc::new(1, 2), Arc::new(3, 0)];
        let mut b_sorted = b.clone();
        b_sorted.sort_unstable();
        let reps = [
            is_orbit_representative(&perms, &a),
            is_orbit_representative(&perms, &b_sorted),
        ];
        assert_eq!(reps.iter().filter(|&&r| r).count(), 1, "{reps:?}");
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(automorphisms(&Digraph::from_arcs(1, [])).len(), 1);
        let perms = automorphisms(&generators::path(2));
        assert_eq!(perms.len(), 2);
        assert!(is_orbit_representative(&perms, &[]));
    }
}
