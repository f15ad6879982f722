//! Property-based and pin tests of the individualization–refinement
//! layer: canonical forms must be relabeling-invariant isomorphism keys,
//! the group the refined generators span must have exactly as many
//! elements as the element-list oracle `automorphisms` returns, and the
//! discovered generators must be genuine automorphisms respecting every
//! refinement cell.

use proptest::prelude::*;
use sg_graphs::automorphism::automorphisms;
use sg_graphs::digraph::{Arc, Digraph};
use sg_graphs::generators;
use sg_graphs::group::PermGroup;
use sg_graphs::refine::{
    automorphism_generators_refined, canonical_graph, distance_seed, unit_partition, Refiner,
    Relations,
};

fn arcs_strategy(n: usize) -> impl Strategy<Value = Vec<Arc>> {
    proptest::collection::vec((0..n, 0..n), 0..3 * n)
        .prop_map(|pairs| pairs.into_iter().map(|(u, v)| Arc::new(u, v)).collect())
}

fn perm_strategy(n: usize) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec(0u64..u64::MAX, n).prop_map(move |keys| {
        let mut idx: Vec<u32> = (0..n as u32).collect();
        idx.sort_by_key(|&i| keys[i as usize]);
        idx
    })
}

fn relabel(g: &Digraph, perm: &[u32]) -> Digraph {
    Digraph::from_arcs(
        g.vertex_count(),
        g.arcs()
            .map(|a| Arc::new(perm[a.from as usize] as usize, perm[a.to as usize] as usize)),
    )
}

fn refined_order(g: &Digraph) -> u128 {
    PermGroup::from_generators(g.vertex_count(), automorphism_generators_refined(g)).order()
}

fn oracle_order(g: &Digraph) -> u128 {
    automorphisms(g).len() as u128
}

/// The refined path pinned to known group orders: Petersen
/// (|Aut| = 120) and Q₇ (|Aut| = 2⁷ · 7! = 645120, too many elements for
/// the element-list oracle).
#[test]
fn refined_path_matches_backtracking_on_petersen_and_q7() {
    assert_eq!(refined_order(&generators::petersen()), 120);
    assert_eq!(refined_order(&generators::hypercube(7)), 645_120);
}

/// The families PR 5's scope note conceded as exponential for the
/// backtracking search: the refined path settles them in microseconds.
/// Knödel graphs are vertex-transitive, so `n` divides the order and
/// the vertex orbit is everything.
#[test]
fn refined_path_handles_large_knodel_graphs() {
    for (delta, n, want) in [
        (4usize, 16usize, 16u128),
        (5, 32, 32),
        (5, 64, 64),
        (6, 128, 128),
    ] {
        let g = generators::knodel(delta, n);
        let group = PermGroup::from_generators(n, automorphism_generators_refined(&g));
        assert_eq!(group.order(), want, "W({delta},{n})");
        assert_eq!(
            group.orbits().len(),
            1,
            "W({delta},{n}) is vertex-transitive"
        );
    }
}

/// The refined group and the element-list oracle agree across the named
/// zoo (the oracle stays feasible on all of these).
#[test]
fn refined_and_backtracking_orders_agree_on_the_zoo() {
    for g in [
        generators::cycle(12),
        generators::path(9),
        generators::complete(5),
        generators::star(7),
        generators::grid2d(3, 4),
        generators::torus2d(3, 3),
        generators::hypercube(4),
        generators::knodel(3, 8),
        generators::knodel(4, 16),
        generators::de_bruijn_directed(2, 3),
        generators::directed_cycle(9),
        generators::cube_connected_cycles(3),
    ] {
        assert_eq!(refined_order(&g), oracle_order(&g));
    }
    // CCC(3): |Aut| = 48, so the oracle listed all 48 elements.
    assert_eq!(refined_order(&generators::cube_connected_cycles(3)), 48);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The canonical form is an isomorphism invariant: any relabeling of
    /// any digraph canonicalizes to the identical form.
    #[test]
    fn canonical_form_is_relabeling_invariant(
        arcs in arcs_strategy(7),
        perm in perm_strategy(7),
    ) {
        let g = Digraph::from_arcs(7, arcs);
        let h = relabel(&g, &perm);
        prop_assert_eq!(canonical_graph(&g).form, canonical_graph(&h).form);
    }

    /// The canonical labeling reproduces the form: relabeling the graph
    /// by its own canonical labeling yields a graph whose raw adjacency
    /// matrix *is* the form.
    #[test]
    fn canonical_labeling_rebuilds_the_form(arcs in arcs_strategy(8)) {
        let g = Digraph::from_arcs(8, arcs);
        let c = canonical_graph(&g);
        let relabeled = relabel(&g, &c.labeling);
        let raw = Relations::from_digraph(&relabeled);
        let mut rows = Vec::new();
        for v in 0..8 {
            rows.extend_from_slice(raw.forward_row(0, v));
        }
        prop_assert_eq!(rows, c.form);
    }

    /// Every generator the search discovers is a genuine automorphism.
    #[test]
    fn discovered_generators_are_automorphisms(arcs in arcs_strategy(8)) {
        let g = Digraph::from_arcs(8, arcs);
        for gen in automorphism_generators_refined(&g) {
            for u in 0..8 {
                for v in 0..8 {
                    prop_assert_eq!(
                        g.has_arc(u, v),
                        g.has_arc(gen[u] as usize, gen[v] as usize),
                    );
                }
            }
        }
    }

    /// Refinement partitions are respected by every generator found:
    /// the equitable refinement of the unit partition is canonical, so
    /// each automorphism maps every cell onto itself setwise.
    #[test]
    fn generators_respect_refinement_cells(arcs in arcs_strategy(8)) {
        let g = Digraph::from_arcs(8, arcs);
        let rels = Relations::from_digraph(&g);
        let mut cells = unit_partition(8);
        Refiner::new(8).refine(&rels, &mut cells);
        for gen in automorphism_generators_refined(&g) {
            for cell in &cells {
                for &v in cell {
                    let image = gen[v as usize];
                    prop_assert!(
                        cell.contains(&image),
                        "generator maps {v} out of its cell",
                    );
                }
            }
        }
    }

    /// The refined generators span a group of exactly the oracle's
    /// size on arbitrary digraphs.
    #[test]
    fn refined_order_matches_backtracking(arcs in arcs_strategy(7)) {
        let g = Digraph::from_arcs(7, arcs);
        prop_assert_eq!(refined_order(&g), oracle_order(&g));
    }

    /// The distance seed is automorphism-invariant: generators never map
    /// a vertex across distance-profile cells.
    #[test]
    fn generators_respect_the_distance_seed(arcs in arcs_strategy(8)) {
        let g = Digraph::from_arcs(8, arcs);
        let seed = distance_seed(&g);
        for gen in automorphism_generators_refined(&g) {
            for cell in &seed {
                for &v in cell {
                    prop_assert!(cell.contains(&gen[v as usize]));
                }
            }
        }
    }
}
