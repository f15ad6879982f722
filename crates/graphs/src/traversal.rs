//! Breadth-first traversal, distances, diameter, connectivity and strongly
//! connected components. The diameter runs 256 breadth-first searches at
//! once, one bit each in a four-word row per vertex.
//!
//! Distances drive two parts of the reproduction: verifying the concrete
//! separators of Lemma 3.1 (`dist(V1, V2)` must match the paper's claim)
//! and the diameter lower bounds of Fig. 6.

use crate::digraph::Digraph;

/// Marker for an unreachable vertex in distance vectors.
pub const UNREACHABLE: u32 = u32::MAX;

/// Single-source BFS distances along out-arcs.
pub fn bfs_distances(g: &Digraph, src: usize) -> Vec<u32> {
    multi_source_bfs(g, std::iter::once(src))
}

/// Multi-source BFS distances along out-arcs: `d[v]` is the minimum number
/// of arcs from any source to `v`.
pub fn multi_source_bfs(g: &Digraph, sources: impl IntoIterator<Item = usize>) -> Vec<u32> {
    let n = g.vertex_count();
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = std::collections::VecDeque::new();
    for s in sources {
        if dist[s] == UNREACHABLE {
            dist[s] = 0;
            queue.push_back(s as u32);
        }
    }
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for &w in g.out_neighbors(v as usize) {
            if dist[w as usize] == UNREACHABLE {
                dist[w as usize] = dv + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Directed distance from `u` to `v` (`None` when unreachable).
pub fn distance(g: &Digraph, u: usize, v: usize) -> Option<u32> {
    let d = bfs_distances(g, u)[v];
    (d != UNREACHABLE).then_some(d)
}

/// Minimum directed distance from any vertex of `from` to any vertex of
/// `to` — the quantity `min_{x∈V1, y∈V2} dist_G(x, y)` of Definition 3.5.
pub fn set_distance(g: &Digraph, from: &[usize], to: &[usize]) -> Option<u32> {
    if from.is_empty() || to.is_empty() {
        return None;
    }
    let dist = multi_source_bfs(g, from.iter().copied());
    to.iter()
        .map(|&v| dist[v])
        .min()
        .filter(|&d| d != UNREACHABLE)
}

/// Sources per block of [`diameter`]'s sweep.
const BLOCK: usize = 256;

/// One vertex's row in a block: bit `i` is the block's `i`-th source.
type Row = [u64; BLOCK / 64];

const EMPTY: Row = [0; BLOCK / 64];

/// Exact diameter: the largest directed distance between two vertices;
/// `None` when the digraph is not strongly connected (infinite diameter).
///
/// A bit-parallel BFS from 256 sources at a time. In a block each vertex
/// has a four-word row of the sources that reach it within `t` arcs, and
/// round `t + 1` ORs into every row the bits its in-neighbours gained in
/// round `t` (their older bits are there already), so all 256 searches
/// advance one level per round. Rounds run until one changes no row: the
/// block's largest eccentricity is the round before it, if every row is
/// full by then, and some vertex is unreachable otherwise. The diameter
/// is the largest block value.
///
/// A round follows the out-arcs of the rows that changed in the previous
/// one, or, when more than 3/8 of the rows changed, sweeps every row's
/// in-arcs. A round thus costs at most `n + m` row operations of four
/// words, and as a row changes at most 256 times in a block, a block
/// costs `O(min(D, 256)·(n + m))` of them. The worst case is all-pairs
/// BFS's `O(n·m)` steps, met on paths and cycles, where a row gains one
/// or two bits a round; on expanders, whose rows fill in `O(log n)`
/// rounds, the whole diameter costs `O(n·m·log n / 256)`.
pub fn diameter(g: &Digraph) -> Option<u32> {
    let n = g.vertex_count();
    let mut sweep = Sweep {
        seen: vec![EMPTY; n],
        gained: vec![EMPTY; n],
        next: vec![EMPTY; n],
        changed: vec![0; n],
        next_changed: vec![0; n],
        written: vec![0; n],
    };
    (0..n).step_by(BLOCK).try_fold(0, |best, first| {
        Some(best.max(sweep.eccentricity(g, first)?))
    })
}

/// The buffers of [`diameter`]'s sweep, reused by every block. `gained`
/// and `next` are the rounds' two buffers; between blocks all their rows
/// are empty.
struct Sweep {
    /// The sources that reach each vertex so far.
    seen: Vec<Row>,
    /// The sources that first reached each vertex in the last round.
    gained: Vec<Row>,
    /// The sources that first reach each vertex in this round.
    next: Vec<Row>,
    /// The vertices whose `gained` row is not empty, as a prefix.
    changed: Vec<u32>,
    /// The vertices whose `next` row is not empty, as a prefix.
    next_changed: Vec<u32>,
    /// The last round of the block that wrote each vertex's `next` row:
    /// the first write in a round stores, later ones OR.
    written: Vec<u32>,
}

impl Sweep {
    /// Largest eccentricity of the sources `first..first + 256` (fewer in
    /// the last block), or `None` if one of them misses a vertex.
    fn eccentricity(&mut self, g: &Digraph, first: usize) -> Option<u32> {
        let Sweep {
            seen,
            gained,
            next,
            changed,
            next_changed,
            written,
        } = self;
        let n = g.vertex_count();
        let k = BLOCK.min(n - first);
        seen.fill(EMPTY);
        written.fill(0);
        for i in 0..k {
            let v = first + i;
            seen[v][i / 64] |= 1 << (i % 64);
            gained[v] = seen[v];
            changed[i] = v as u32;
        }
        let mut len = k;
        let mut round = 0;
        while len > 0 {
            round += 1;
            let mut next_len = 0;
            let mut gain = |w: usize, new: Row, seen: &mut Row, next: &mut Row| {
                or_into(seen, &new);
                if written[w] == round {
                    or_into(next, &new);
                } else {
                    written[w] = round;
                    *next = new;
                    next_changed[next_len] = w as u32;
                    next_len += 1;
                }
            };
            if 8 * len > 3 * n {
                for w in 0..n {
                    let mut bits = EMPTY;
                    for &u in g.in_neighbors(w) {
                        or_into(&mut bits, &gained[u as usize]);
                    }
                    let new = and_not(&bits, &seen[w]);
                    if !same(&new, &EMPTY) {
                        gain(w, new, &mut seen[w], &mut next[w]);
                    }
                }
                for &v in &changed[..len] {
                    gained[v as usize] = EMPTY;
                }
            } else {
                for &v in &changed[..len] {
                    // Cleared as it is read: a second pass over `changed`
                    // to clear it measured ~30% slower on C₄₀₉₆.
                    let bits = std::mem::replace(&mut gained[v as usize], EMPTY);
                    for &w in g.out_neighbors(v as usize) {
                        let w = w as usize;
                        let new = and_not(&bits, &seen[w]);
                        if !same(&new, &EMPTY) {
                            gain(w, new, &mut seen[w], &mut next[w]);
                        }
                    }
                }
            }
            std::mem::swap(changed, next_changed);
            std::mem::swap(gained, next);
            len = next_len;
        }
        let mut full = EMPTY;
        for i in 0..k {
            full[i / 64] |= 1 << (i % 64);
        }
        seen.iter().all(|row| same(row, &full)).then_some(round - 1)
    }
}

fn or_into(row: &mut Row, bits: &Row) {
    for (r, b) in row.iter_mut().zip(bits) {
        *r |= b;
    }
}

/// `a == b`, without the call to `bcmp` that array equality can compile to.
fn same(a: &Row, b: &Row) -> bool {
    a.iter().zip(b).fold(0, |acc, (x, y)| acc | (x ^ y)) == 0
}

fn and_not(a: &Row, b: &Row) -> Row {
    std::array::from_fn(|i| a[i] & !b[i])
}

/// `true` when every vertex reaches every other (strong connectivity):
/// one forward and one backward BFS from vertex 0.
pub fn is_strongly_connected(g: &Digraph) -> bool {
    let n = g.vertex_count();
    if n <= 1 {
        return true;
    }
    let fwd = bfs_distances(g, 0);
    if fwd.contains(&UNREACHABLE) {
        return false;
    }
    let bwd = bfs_distances(&g.reverse(), 0);
    bwd.iter().all(|&d| d != UNREACHABLE)
}

/// Strongly connected components via iterative Tarjan. Returns
/// `(component_count, component_id_per_vertex)`; component ids are in
/// reverse topological order of the condensation (Tarjan's natural order).
pub fn tarjan_scc(g: &Digraph) -> (usize, Vec<u32>) {
    let n = g.vertex_count();
    const UNVISITED: u32 = u32::MAX;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut on_stack = vec![false; n];
    let mut comp = vec![UNVISITED; n];
    let mut stack: Vec<u32> = Vec::new();
    let mut next_index = 0u32;
    let mut comp_count = 0u32;

    // Explicit DFS stack: (vertex, next child offset).
    let mut call: Vec<(u32, u32)> = Vec::new();
    for root in 0..n {
        if index[root] != UNVISITED {
            continue;
        }
        call.push((root as u32, 0));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root as u32);
        on_stack[root] = true;

        while let Some(&mut (v, ref mut child)) = call.last_mut() {
            let neigh = g.out_neighbors(v as usize);
            if (*child as usize) < neigh.len() {
                let w = neigh[*child as usize];
                *child += 1;
                if index[w as usize] == UNVISITED {
                    index[w as usize] = next_index;
                    lowlink[w as usize] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w as usize] = true;
                    call.push((w, 0));
                } else if on_stack[w as usize] {
                    lowlink[v as usize] = lowlink[v as usize].min(index[w as usize]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    lowlink[parent as usize] = lowlink[parent as usize].min(lowlink[v as usize]);
                }
                if lowlink[v as usize] == index[v as usize] {
                    // v is an SCC root: pop its component.
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w as usize] = false;
                        comp[w as usize] = comp_count;
                        if w == v {
                            break;
                        }
                    }
                    comp_count += 1;
                }
            }
        }
    }
    (comp_count as usize, comp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digraph::Arc;

    fn path4() -> Digraph {
        Digraph::from_edges(4, [(0, 1), (1, 2), (2, 3)])
    }

    #[test]
    fn bfs_on_path() {
        let d = bfs_distances(&path4(), 0);
        assert_eq!(d, vec![0, 1, 2, 3]);
    }

    #[test]
    fn bfs_unreachable_in_directed() {
        let g = Digraph::from_arcs(3, [Arc::new(0, 1)]);
        let d = bfs_distances(&g, 1);
        assert_eq!(d, vec![UNREACHABLE, 0, UNREACHABLE]);
        assert_eq!(distance(&g, 0, 1), Some(1));
        assert_eq!(distance(&g, 1, 0), None);
    }

    #[test]
    fn set_distance_multi_source() {
        let g = path4();
        assert_eq!(set_distance(&g, &[0, 1], &[3]), Some(2));
        assert_eq!(set_distance(&g, &[0], &[0]), Some(0));
        assert_eq!(set_distance(&g, &[], &[1]), None);
    }

    #[test]
    fn diameter_path_and_cycle() {
        assert_eq!(diameter(&path4()), Some(3));
        let c5 = Digraph::from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]);
        assert_eq!(diameter(&c5), Some(2));
    }

    #[test]
    fn diameter_disconnected_is_none() {
        let g = Digraph::from_edges(4, [(0, 1), (2, 3)]);
        assert_eq!(diameter(&g), None);
        assert!(!is_strongly_connected(&g));
    }

    #[test]
    fn strongly_connected_cycle_not_path() {
        let cyc = Digraph::from_arcs(3, [Arc::new(0, 1), Arc::new(1, 2), Arc::new(2, 0)]);
        assert!(is_strongly_connected(&cyc));
        let path = Digraph::from_arcs(3, [Arc::new(0, 1), Arc::new(1, 2)]);
        assert!(!is_strongly_connected(&path));
    }

    #[test]
    fn tarjan_on_two_cycles_with_bridge() {
        // 0→1→0 and 2→3→2, bridge 1→2: two SCCs of size 2.
        let g = Digraph::from_arcs(
            4,
            [
                Arc::new(0, 1),
                Arc::new(1, 0),
                Arc::new(1, 2),
                Arc::new(2, 3),
                Arc::new(3, 2),
            ],
        );
        let (count, comp) = tarjan_scc(&g);
        assert_eq!(count, 2);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[2], comp[3]);
        assert_ne!(comp[0], comp[2]);
    }

    #[test]
    fn tarjan_singletons_on_dag() {
        let g = Digraph::from_arcs(3, [Arc::new(0, 1), Arc::new(1, 2)]);
        let (count, comp) = tarjan_scc(&g);
        assert_eq!(count, 3);
        // All distinct.
        assert_ne!(comp[0], comp[1]);
        assert_ne!(comp[1], comp[2]);
    }

    #[test]
    fn tarjan_matches_strong_connectivity() {
        let cyc = Digraph::from_arcs(5, (0..5).map(|i| Arc::new(i, (i + 1) % 5)));
        let (count, _) = tarjan_scc(&cyc);
        assert_eq!(count, 1);
        assert!(is_strongly_connected(&cyc));
    }

    #[test]
    fn eccentricity_center_vs_leaf() {
        let g = path4();
        let ecc = |v| bfs_distances(&g, v).into_iter().max();
        assert_eq!(ecc(0), Some(3));
        assert_eq!(ecc(1), Some(2));
    }

    #[test]
    fn deep_recursion_free_tarjan() {
        // A long directed cycle exercises the iterative DFS (would blow the
        // stack if implemented recursively).
        let n = 200_000;
        let g = Digraph::from_arcs(n, (0..n).map(|i| Arc::new(i, (i + 1) % n)));
        let (count, _) = tarjan_scc(&g);
        assert_eq!(count, 1);
    }
}
