//! Additional bounded-degree networks: shuffle-exchange, cube-connected
//! cycles, Knödel graphs, random regular graphs and G(n, p).
//!
//! Shuffle-exchange and CCC are the classic constant-degree hypercube
//! derivatives (\[19\], cited in Section 3); Knödel graphs are the
//! traditional optimal-gossip graphs of even order; the random families are
//! workloads for the generic protocol machinery.

use crate::codec::pow;
use crate::digraph::Digraph;
use rand::Rng;

/// Shuffle-exchange network `SE(D)` on `2^D` vertices (undirected):
/// shuffle edges `x — rot_left(x)` and exchange edges `x — x⊕1`.
pub fn shuffle_exchange(dd: usize) -> Digraph {
    assert!(dd >= 2);
    let n = 1usize << dd;
    let msb = 1usize << (dd - 1);
    let mut edges = Vec::with_capacity(2 * n);
    for x in 0..n {
        let rot = ((x << 1) | (x >> (dd - 1))) & (n - 1);
        if rot != x {
            edges.push((x, rot));
        }
        edges.push((x, x ^ 1));
    }
    let _ = msb;
    Digraph::from_edges(n, edges)
}

/// Cube-connected cycles `CCC(k)` on `k·2^k` vertices (undirected):
/// vertex `(w, i)` has cycle edges to `(w, i±1 mod k)` and a cube edge to
/// `(w ⊕ 2^i, i)`. Requires `k ≥ 3` so that cycle edges are simple.
pub fn cube_connected_cycles(k: usize) -> Digraph {
    assert!(k >= 3);
    let words = 1usize << k;
    let n = k * words;
    let id = |w: usize, i: usize| i * words + w;
    let mut edges = Vec::with_capacity(2 * n);
    for w in 0..words {
        for i in 0..k {
            edges.push((id(w, i), id(w, (i + 1) % k)));
            edges.push((id(w, i), id(w ^ (1 << i), i)));
        }
    }
    Digraph::from_edges(n, edges)
}

/// Knödel graph `W_{Δ,n}` for even `n` and `1 ≤ Δ ≤ ⌊log₂ n⌋`:
/// vertices `(i, j)`, `i ∈ {1, 2}`, `j ∈ 0..n/2`; edges between `(1, j)`
/// and `(2, (j + 2^k − 1) mod n/2)` for `k = 0..Δ−1`. The classic family of
/// minimum-gossip-time graphs.
pub fn knodel(delta: usize, n: usize) -> Digraph {
    assert!(
        n >= 2 && n.is_multiple_of(2),
        "Knödel graphs need even order"
    );
    assert!(delta >= 1 && (1usize << delta) <= n, "need 2^delta <= n");
    let half = n / 2;
    let mut edges = Vec::with_capacity(delta * half);
    for j in 0..half {
        for k in 0..delta {
            let other = (j + pow(2, k) - 1) % half;
            edges.push((j, half + other));
        }
    }
    Digraph::from_edges(n, edges)
}

/// The Petersen graph: 10 vertices, 3-regular, the Kneser graph
/// `K(5, 2)` — outer 5-cycle `0..5`, inner pentagram `5..10`, spokes
/// between them. Its automorphism group is `S₅` (order 120), which makes
/// it the classic fixture for symmetry machinery.
pub fn petersen() -> Digraph {
    let mut edges = Vec::with_capacity(15);
    for i in 0..5 {
        edges.push((i, (i + 1) % 5)); // outer cycle
        edges.push((5 + i, 5 + (i + 2) % 5)); // inner pentagram
        edges.push((i, 5 + i)); // spokes
    }
    Digraph::from_edges(10, edges)
}

/// Random `d`-regular graph on `n` vertices via the configuration model
/// with rejection (retry until simple). `n·d` must be even. Panics after
/// `1000` failed attempts (practically impossible for the sizes used here).
///
/// Each attempt shuffles the `n·d` stubs with Fisher–Yates from the
/// back, exactly as [`rand::seq::SliceRandom::shuffle`], and pairs
/// positions `2k, 2k + 1`. A pair is checked as soon as both its
/// positions are final, and an attempt that fails draws its remaining
/// random numbers without using them, so the generator's stream and the
/// graph are those of a full shuffle followed by a check of every pair.
pub fn random_regular(n: usize, d: usize, rng: &mut impl Rng) -> Digraph {
    assert!((n * d).is_multiple_of(2), "n*d must be even");
    assert!(d < n, "degree must be below n");
    let len = n * d;
    let mut stubs = Vec::with_capacity(len);
    let mut edges = vec![(0, 0); len / 2];
    // Neighbours paired so far: `d` slots per vertex, `deg[v]` filled.
    let mut adj = vec![0usize; len];
    let mut deg = vec![0usize; n];
    'attempt: for _ in 0..1000 {
        stubs.clear();
        stubs.extend((0..n).flat_map(|v| std::iter::repeat_n(v, d)));
        deg.fill(0);
        for i in (1..len).rev() {
            let j = (rng.next_u64() % (i as u64 + 1)) as usize;
            stubs.swap(i, j);
            // Positions `i..` are final: pair `(i, i + 1)` at even `i`,
            // and pair `(0, 1)` after the last step.
            let first = match i {
                1 => 0,
                _ if i % 2 == 0 => i,
                _ => continue,
            };
            let (u, v) = (stubs[first], stubs[first + 1]);
            // A self-loop or a multi-edge rejects the attempt.
            if u == v || adj[u * d..u * d + deg[u]].contains(&v) {
                for _ in 1..i {
                    rng.next_u64();
                }
                continue 'attempt;
            }
            adj[u * d + deg[u]] = v;
            adj[v * d + deg[v]] = u;
            deg[u] += 1;
            deg[v] += 1;
            edges[first / 2] = (u, v);
        }
        return Digraph::from_edges(n, edges);
    }
    panic!("random_regular: rejection sampling failed; parameters too dense");
}

/// Deterministic [`random_regular`]: derives the generator from `seed`,
/// so a `(n, d, seed)` triple names one concrete graph. This is what lets
/// random families participate in the scenario registry, where network
/// descriptors must be plain comparable data.
pub fn random_regular_seeded(n: usize, d: usize, seed: u64) -> Digraph {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    random_regular(n, d, &mut StdRng::seed_from_u64(seed))
}

/// Erdős–Rényi `G(n, p)` (undirected).
pub fn gnp(n: usize, p: f64, rng: &mut impl Rng) -> Digraph {
    assert!((0.0..=1.0).contains(&p));
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen::<f64>() < p {
                edges.push((i, j));
            }
        }
    }
    Digraph::from_edges(n, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traversal::{diameter, is_strongly_connected};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shuffle_exchange_shape() {
        let g = shuffle_exchange(3);
        assert_eq!(g.vertex_count(), 8);
        assert!(g.is_symmetric());
        // Degree at most 3 (shuffle in/out collapse on symmetric closure,
        // constants 000/111 lose their shuffle self-loop).
        assert!(g.max_degree() <= 4);
        assert!(is_strongly_connected(&g));
    }

    #[test]
    fn ccc_shape() {
        let k = 3;
        let g = cube_connected_cycles(k);
        assert_eq!(g.vertex_count(), k * 8);
        // CCC is 3-regular.
        let hist = g.out_degree_histogram();
        assert_eq!(hist[3], k * 8);
        assert!(is_strongly_connected(&g));
    }

    #[test]
    fn knodel_shape() {
        // W_{3,16}: 16 vertices, 3-regular.
        let g = knodel(3, 16);
        assert_eq!(g.vertex_count(), 16);
        let hist = g.out_degree_histogram();
        assert_eq!(hist[3], 16);
        assert!(is_strongly_connected(&g));
        // W_{1,n} is a perfect matching.
        let m = knodel(1, 6);
        assert_eq!(m.edge_count(), 3);
        assert_eq!(m.max_degree(), 1);
    }

    #[test]
    fn knodel_w2_is_cycle() {
        // W_{2,n} is a cycle of length n.
        let g = knodel(2, 8);
        let hist = g.out_degree_histogram();
        assert_eq!(hist[2], 8);
        assert!(is_strongly_connected(&g));
        assert_eq!(diameter(&g), Some(4));
    }

    #[test]
    fn random_regular_is_regular() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = random_regular(20, 3, &mut rng);
        assert_eq!(g.vertex_count(), 20);
        let hist = g.out_degree_histogram();
        assert_eq!(hist[3], 20);
    }

    #[test]
    fn seeded_random_regular_is_deterministic() {
        let a = random_regular_seeded(24, 3, 1997);
        let b = random_regular_seeded(24, 3, 1997);
        assert_eq!(a, b);
        assert_eq!(a.out_degree_histogram()[3], 24);
        let c = random_regular_seeded(24, 3, 1998);
        assert_ne!(a, c, "different seeds should give different graphs");
    }

    #[test]
    fn gnp_extremes() {
        let mut rng = StdRng::seed_from_u64(11);
        let empty = gnp(10, 0.0, &mut rng);
        assert_eq!(empty.arc_count(), 0);
        let full = gnp(10, 1.0, &mut rng);
        assert_eq!(full.edge_count(), 45);
    }
}
