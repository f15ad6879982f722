//! `generators::random_regular` against the plain configuration-model
//! sampler it replaced: shuffle every stub, then reject on the first
//! self-loop or multi-edge. Both must draw the same numbers and return
//! the same graph, or panic alike, for any `(n, d)` and generator state.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use sg_graphs::digraph::Digraph;
use sg_graphs::generators::random_regular;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The oracle: a full shuffle per attempt, a hash set of edges.
fn full_shuffle_sampler(n: usize, d: usize, rng: &mut impl Rng) -> Digraph {
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    assert!(d < n, "degree must be below n");
    'attempt: for _ in 0..1000 {
        let mut stubs: Vec<usize> = (0..n).flat_map(|v| std::iter::repeat_n(v, d)).collect();
        stubs.shuffle(rng);
        let mut edges = Vec::with_capacity(n * d / 2);
        let mut seen = HashSet::new();
        for pair in stubs.chunks_exact(2) {
            let (u, v) = (pair[0], pair[1]);
            if u == v || !seen.insert((u.min(v), u.max(v))) {
                continue 'attempt;
            }
            edges.push((u, v));
        }
        return Digraph::from_edges(n, edges);
    }
    panic!("random_regular: rejection sampling failed; parameters too dense");
}

/// A sampler's graph, or its panic message, and the generator's next
/// draw afterwards.
fn outcome(
    sample: fn(usize, usize, &mut StdRng) -> Digraph,
    n: usize,
    d: usize,
    rng: &mut StdRng,
) -> (Result<Digraph, String>, u64) {
    let graph = catch_unwind(AssertUnwindSafe(|| sample(n, d, rng))).map_err(|e| {
        e.downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| e.downcast_ref::<String>().cloned())
            .unwrap_or_default()
    });
    (graph, rng.next_u64())
}

#[test]
fn random_regular_matches_the_full_shuffle_sampler() {
    let mut shapes: Vec<(usize, usize)> = (0..=24)
        .flat_map(|n| (0..=n.min(6)).map(move |d| (n, d)))
        .collect();
    shapes.extend([(128, 3), (300, 3), (512, 3), (1001, 4), (2000, 3), (500, 6)]);
    let mut exhausted = 0;
    for (n, d) in shapes {
        for seed in 0..4 {
            let new = outcome(random_regular, n, d, &mut StdRng::seed_from_u64(seed));
            let old = outcome(full_shuffle_sampler, n, d, &mut StdRng::seed_from_u64(seed));
            assert_eq!(new, old, "n = {n}, d = {d}, seed {seed}");
            exhausted += usize::from(new.0.is_err_and(|m| m.contains("rejection sampling")));
        }
    }
    // Besides the shapes the asserts refuse (odd n·d, d ≥ n), dense ones
    // such as 5-regular graphs on 10 vertices exhaust the 1000 attempts.
    assert!(exhausted > 0);
}

#[test]
fn fifty_graphs_from_one_generator_match() {
    let mut new = StdRng::seed_from_u64(1997);
    let mut old = new.clone();
    for i in 0..50 {
        let (n, d) = (20 + 6 * i, 3 + i % 2);
        assert_eq!(
            random_regular(n, d, &mut new),
            full_shuffle_sampler(n, d, &mut old),
            "graph {i}"
        );
    }
    assert_eq!(new.next_u64(), old.next_u64());
}
