//! Property-based tests of the graph substrate on random graphs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sg_graphs::digraph::{Arc, Digraph};
use sg_graphs::generators;
use sg_graphs::matching::{greedy_edge_coloring, is_matching, is_proper_edge_coloring};
use sg_graphs::traversal::{
    bfs_distances, diameter, is_strongly_connected, multi_source_bfs, tarjan_scc, UNREACHABLE,
};
use sg_graphs::weighted::WeightedDigraph;

fn arcs_strategy(n: usize) -> impl Strategy<Value = Vec<Arc>> {
    proptest::collection::vec((0..n, 0..n), 0..3 * n)
        .prop_map(|pairs| pairs.into_iter().map(|(u, v)| Arc::new(u, v)).collect())
}

/// The diameter oracle: the largest distance of a BFS from every vertex,
/// `None` as soon as one of them misses a vertex.
fn bfs_diameter(g: &Digraph) -> Option<u32> {
    (0..g.vertex_count())
        .flat_map(|v| bfs_distances(g, v))
        .try_fold(0, |best, d| (d != UNREACHABLE).then(|| best.max(d)))
}

/// Digraphs on 0..=300 vertices, across the 64-bit words and 256-source
/// blocks of `diameter`'s rows: up to `2n` random arcs, on top of the
/// directed cycle `0 → 1 → ⋯ → n−1 → 0` in half the cases (strongly
/// connected, with diameters from ~log n to n − 1), and symmetrically
/// closed in half the cases.
fn diameter_digraph() -> impl Strategy<Value = Digraph> {
    (0usize..=300, 0u8..4).prop_flat_map(|(n, shape)| {
        let hi = n.max(1);
        proptest::collection::vec((0..hi, 0..hi), 0..=2 * n).prop_map(move |pairs| {
            let ring = (0..n).filter(|_| shape & 1 == 1).map(|v| (v, (v + 1) % n));
            let arcs = pairs.into_iter().chain(ring).map(|(u, v)| Arc::new(u, v));
            let g = Digraph::from_arcs(n, arcs);
            if shape & 2 == 2 {
                g.symmetric_closure()
            } else {
                g
            }
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn diameter_matches_all_pairs_bfs(g in diameter_digraph()) {
        prop_assert_eq!(diameter(&g), bfs_diameter(&g), "n = {}", g.vertex_count());
    }

    #[test]
    fn symmetric_closure_is_symmetric(arcs in arcs_strategy(12)) {
        let g = Digraph::from_arcs(12, arcs);
        let s = g.symmetric_closure();
        prop_assert!(s.is_symmetric());
        // Closure preserves every original arc.
        for a in g.arcs() {
            prop_assert!(s.has_arc(a.from as usize, a.to as usize));
        }
        // Closing twice changes nothing.
        prop_assert_eq!(s.symmetric_closure(), s);
    }

    #[test]
    fn reverse_involution_and_degree_swap(arcs in arcs_strategy(10)) {
        let g = Digraph::from_arcs(10, arcs);
        let r = g.reverse();
        prop_assert_eq!(r.reverse(), g.clone());
        for v in 0..10 {
            prop_assert_eq!(g.out_degree(v), r.in_degree(v));
            prop_assert_eq!(g.in_degree(v), r.out_degree(v));
        }
        prop_assert_eq!(g.arc_count(), r.arc_count());
    }

    #[test]
    fn bfs_respects_arc_relaxation(arcs in arcs_strategy(12), src in 0usize..12) {
        let g = Digraph::from_arcs(12, arcs);
        let d = bfs_distances(&g, src);
        prop_assert_eq!(d[src], 0);
        // Every arc relaxes: d[v] <= d[u] + 1 when u reachable.
        for a in g.arcs() {
            let (u, v) = (a.from as usize, a.to as usize);
            if d[u] != UNREACHABLE {
                prop_assert!(d[v] != UNREACHABLE && d[v] <= d[u] + 1);
            }
        }
    }

    #[test]
    fn multi_source_is_min_of_singles(arcs in arcs_strategy(10)) {
        let g = Digraph::from_arcs(10, arcs);
        let sources = [0usize, 3, 7];
        let multi = multi_source_bfs(&g, sources.iter().copied());
        let singles: Vec<Vec<u32>> =
            sources.iter().map(|&s| bfs_distances(&g, s)).collect();
        for v in 0..10 {
            let want = singles.iter().map(|d| d[v]).min().unwrap();
            prop_assert_eq!(multi[v], want, "vertex {}", v);
        }
    }

    #[test]
    fn tarjan_agrees_with_strong_connectivity(arcs in arcs_strategy(10)) {
        let g = Digraph::from_arcs(10, arcs);
        let (count, comp) = tarjan_scc(&g);
        prop_assert_eq!(comp.len(), 10);
        prop_assert_eq!(count == 1, is_strongly_connected(&g));
        // Components partition the vertices with ids < count.
        for &c in &comp {
            prop_assert!((c as usize) < count);
        }
    }

    #[test]
    fn scc_members_mutually_reachable(arcs in arcs_strategy(8)) {
        let g = Digraph::from_arcs(8, arcs);
        let (_, comp) = tarjan_scc(&g);
        for u in 0..8 {
            let du = bfs_distances(&g, u);
            for v in 0..8 {
                if comp[u] == comp[v] {
                    prop_assert!(du[v] != UNREACHABLE, "{u} !-> {v} in same SCC");
                }
            }
        }
    }

    #[test]
    fn greedy_coloring_always_proper(edges in proptest::collection::vec((0usize..14, 0usize..14), 0..40)) {
        let filtered: Vec<(usize, usize)> =
            edges.into_iter().filter(|(u, v)| u != v).collect();
        let g = Digraph::from_edges(14, filtered);
        if g.max_degree() <= 32 {
            let (k, colors) = greedy_edge_coloring(&g);
            prop_assert!(is_proper_edge_coloring(&g, &colors));
            prop_assert!(k <= (2 * g.max_degree()).max(1));
        }
    }

    #[test]
    fn random_regular_graphs_are_regular_and_matchings_valid(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_regular(16, 3, &mut rng);
        prop_assert_eq!(g.out_degree_histogram()[3], 16);
        let m = sg_graphs::matching::greedy_maximal_matching(&g, None);
        prop_assert!(is_matching(16, &m));
    }

    #[test]
    fn dijkstra_unit_equals_bfs(arcs in arcs_strategy(12), src in 0usize..12) {
        let g = Digraph::from_arcs(12, arcs);
        let wg = WeightedDigraph::unit_weights(&g);
        let bfs = bfs_distances(&g, src);
        let dij = wg.dijkstra(src);
        for v in 0..12 {
            if bfs[v] == UNREACHABLE {
                prop_assert_eq!(dij[v], u64::MAX);
            } else {
                prop_assert_eq!(dij[v], bfs[v] as u64);
            }
        }
    }

    #[test]
    fn dijkstra_triangle_inequality(
        warcs in proptest::collection::vec((0usize..8, 0usize..8, 1u32..9), 0..30),
        src in 0usize..8,
    ) {
        let wg = WeightedDigraph::from_arcs(
            8,
            warcs.into_iter().filter(|(u, v, _)| u != v),
        );
        let d = wg.dijkstra(src);
        for (arc, w) in wg.arcs() {
            let (u, v) = (arc.from as usize, arc.to as usize);
            if d[u] != u64::MAX {
                prop_assert!(d[v] <= d[u] + w as u64);
            }
        }
    }
}

#[test]
fn diameter_fixed_cases() {
    let cases = [
        ("n = 0", Digraph::from_arcs(0, []), Some(0)),
        ("n = 1", Digraph::from_arcs(1, []), Some(0)),
        (
            "self-loop",
            Digraph::from_arcs(1, [Arc::new(0, 0)]),
            Some(0),
        ),
        (
            "self-loops on an edge",
            Digraph::from_arcs(2, [Arc::new(0, 0), Arc::new(0, 1), Arc::new(1, 0)]),
            Some(1),
        ),
        (
            "two components",
            Digraph::from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)]),
            None,
        ),
        ("P300", generators::path(300), Some(299)),
        ("C1000", generators::cycle(1000), Some(500)),
    ];
    for (name, g, want) in &cases {
        assert_eq!(diameter(g), *want, "{name}");
        assert_eq!(bfs_diameter(g), *want, "{name}");
    }
    // Directed cycles and paths at either side of a word and a block.
    for n in [63, 64, 65, 255, 256, 257, 511, 512, 513] {
        assert_eq!(diameter(&generators::directed_cycle(n)), Some(n as u32 - 1));
        assert_eq!(diameter(&generators::path(n)), Some(n as u32 - 1));
        let one_way = Digraph::from_arcs(n, (1..n).map(|v| Arc::new(v - 1, v)));
        assert_eq!(diameter(&one_way), None, "directed P{n}");
    }
}
