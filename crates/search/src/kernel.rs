//! The mutation kernel: mode-respecting local edits on a candidate's
//! round list.
//!
//! Every operator preserves validity *by construction*: arcs are only
//! drawn from the network's arc set, additions evict conflicting arcs
//! first (so each round stays an endpoint-disjoint matching), and in
//! full-duplex mode arcs are always inserted and removed as opposite
//! pairs. The operators are arc flips (add / remove / redirect), round
//! swaps and round resampling; none changes the period, so a candidate
//! keeps the length it started with.

use crate::candidate::Candidate;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use sg_graphs::digraph::{Arc, Digraph};
use sg_protocol::mode::Mode;
use sg_protocol::round::Round;

/// Precomputed move tables for one `(network, mode)` pair.
#[derive(Debug, Clone)]
pub struct MutationKernel {
    /// All arcs of the network (the add-pool in directed/half-duplex).
    arcs: Vec<Arc>,
    /// All undirected edges (the add-pool in full-duplex).
    edges: Vec<(usize, usize)>,
    n: usize,
    mode: Mode,
}

impl MutationKernel {
    /// Builds the kernel.
    pub fn new(g: &Digraph, mode: Mode) -> Self {
        if mode.requires_symmetric_graph() {
            assert!(g.is_symmetric(), "{mode} mode needs an undirected network");
        }
        Self {
            arcs: g.arcs().filter(|a| !a.is_loop()).collect(),
            // `edges()` is defined for symmetric digraphs only; the
            // directed mode never draws from the edge pool.
            edges: if g.is_symmetric() {
                g.edges().collect()
            } else {
                Vec::new()
            },
            n: g.vertex_count(),
            mode,
        }
    }

    /// The mode the kernel mutates under.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// A fresh random round: a maximal matching drawn in shuffled arc
    /// order (full-duplex: a maximal set of endpoint-disjoint opposite
    /// pairs in shuffled edge order).
    pub fn random_round(&self, rng: &mut StdRng) -> Round {
        let mut used = vec![false; self.n];
        match self.mode {
            Mode::Directed | Mode::HalfDuplex => {
                let mut order: Vec<usize> = (0..self.arcs.len()).collect();
                order.shuffle(rng);
                let mut picked = Vec::new();
                for i in order {
                    let a = self.arcs[i];
                    let (u, v) = (a.from as usize, a.to as usize);
                    if !used[u] && !used[v] {
                        used[u] = true;
                        used[v] = true;
                        picked.push(a);
                    }
                }
                Round::new(picked)
            }
            Mode::FullDuplex => {
                let mut order: Vec<usize> = (0..self.edges.len()).collect();
                order.shuffle(rng);
                let mut picked = Vec::new();
                for i in order {
                    let (u, v) = self.edges[i];
                    if !used[u] && !used[v] {
                        used[u] = true;
                        used[v] = true;
                        picked.push((u, v));
                    }
                }
                Round::full_duplex_from_edges(picked)
            }
        }
    }

    /// A full random candidate of period `s`.
    pub fn random_candidate(&self, s: usize, rng: &mut StdRng) -> Candidate {
        Candidate::new((0..s).map(|_| self.random_round(rng)).collect(), self.mode)
    }

    /// Applies one random mutation to `cand`, respecting the mode's
    /// matching structure; the period never changes.
    pub fn mutate(&self, cand: &mut Candidate, rng: &mut StdRng) {
        // Operator mix: arc-level edits dominate (they are the fine-
        // grained moves), with occasional round-level jumps.
        match rng.gen_range(0..90) {
            0..=44 => self.add_activation(cand, rng),
            45..=69 => self.remove_activation(cand, rng),
            70..=79 => self.swap_rounds(cand, rng),
            _ => self.resample_round(cand, rng),
        }
    }

    /// Adds a random activation to a random round, evicting whatever
    /// conflicts with its endpoints (an "arc flip" toward the new arc).
    fn add_activation(&self, cand: &mut Candidate, rng: &mut StdRng) {
        let r = rng.gen_range(0..cand.rounds.len());
        let mut arcs = cand.rounds[r].arcs().to_vec();
        match self.mode {
            Mode::Directed | Mode::HalfDuplex => {
                if self.arcs.is_empty() {
                    return;
                }
                let a = self.arcs[rng.gen_range(0..self.arcs.len())];
                arcs.retain(|b| !shares_endpoint(*b, a));
                arcs.push(a);
            }
            Mode::FullDuplex => {
                if self.edges.is_empty() {
                    return;
                }
                let (u, v) = self.edges[rng.gen_range(0..self.edges.len())];
                let pair = Arc::new(u, v);
                arcs.retain(|b| !shares_endpoint(*b, pair));
                arcs.push(pair);
                arcs.push(pair.reversed());
            }
        }
        cand.rounds[r] = Round::new(arcs);
    }

    /// Removes a random activation from a random non-empty round (in
    /// full-duplex, the whole opposite pair goes).
    fn remove_activation(&self, cand: &mut Candidate, rng: &mut StdRng) {
        let r = rng.gen_range(0..cand.rounds.len());
        let mut arcs = cand.rounds[r].arcs().to_vec();
        if arcs.is_empty() {
            return;
        }
        let victim = arcs[rng.gen_range(0..arcs.len())];
        arcs.retain(|b| *b != victim && (self.mode != Mode::FullDuplex || *b != victim.reversed()));
        cand.rounds[r] = Round::new(arcs);
    }

    /// Swaps two rounds of the period.
    fn swap_rounds(&self, cand: &mut Candidate, rng: &mut StdRng) {
        if cand.rounds.len() < 2 {
            return;
        }
        let i = rng.gen_range(0..cand.rounds.len());
        let j = rng.gen_range(0..cand.rounds.len());
        cand.rounds.swap(i, j);
    }

    /// Replaces a random round with a fresh random matching.
    fn resample_round(&self, cand: &mut Candidate, rng: &mut StdRng) {
        let r = rng.gen_range(0..cand.rounds.len());
        cand.rounds[r] = self.random_round(rng);
    }
}

/// `true` when the two arcs share an endpoint in the matching sense
/// (tails and heads both count).
fn shares_endpoint(a: Arc, b: Arc) -> bool {
    a.from == b.from || a.from == b.to || a.to == b.from || a.to == b.to
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use sg_graphs::generators;

    /// Across many mutations, candidates must stay valid — the invariant
    /// the whole search relies on (and the same audit the builder
    /// property suite applies to the hand-built protocols).
    #[test]
    fn mutations_preserve_validity_half_duplex() {
        let g = generators::cycle(8);
        let kernel = MutationKernel::new(&g, Mode::HalfDuplex);
        let mut rng = StdRng::seed_from_u64(11);
        let mut cand = kernel.random_candidate(3, &mut rng);
        for i in 0..500 {
            kernel.mutate(&mut cand, &mut rng);
            cand.validate(&g)
                .unwrap_or_else(|e| panic!("step {i}: {e}"));
        }
    }

    #[test]
    fn mutations_preserve_validity_full_duplex() {
        let g = generators::hypercube(3);
        let kernel = MutationKernel::new(&g, Mode::FullDuplex);
        let mut rng = StdRng::seed_from_u64(7);
        let mut cand = kernel.random_candidate(2, &mut rng);
        for i in 0..500 {
            kernel.mutate(&mut cand, &mut rng);
            cand.validate(&g)
                .unwrap_or_else(|e| panic!("step {i}: {e}"));
        }
    }

    #[test]
    fn mutations_preserve_validity_directed() {
        let g = generators::de_bruijn_directed(2, 3);
        let kernel = MutationKernel::new(&g, Mode::Directed);
        let mut rng = StdRng::seed_from_u64(3);
        let mut cand = kernel.random_candidate(2, &mut rng);
        for i in 0..300 {
            kernel.mutate(&mut cand, &mut rng);
            cand.validate(&g)
                .unwrap_or_else(|e| panic!("step {i}: {e}"));
        }
    }

    /// No operator changes the period: a search stays at its exact `s`.
    #[test]
    fn exact_period_band_is_fixed() {
        let g = generators::path(6);
        let kernel = MutationKernel::new(&g, Mode::HalfDuplex);
        let mut rng = StdRng::seed_from_u64(1);
        let mut cand = kernel.random_candidate(3, &mut rng);
        for _ in 0..200 {
            kernel.mutate(&mut cand, &mut rng);
            assert_eq!(cand.s(), 3);
        }
    }

    #[test]
    fn random_rounds_are_nonempty_matchings_on_connected_graphs() {
        let g = generators::knodel(3, 16);
        let kernel = MutationKernel::new(&g, Mode::FullDuplex);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let r = kernel.random_round(&mut rng);
            assert!(!r.is_empty());
            r.validate(&g, Mode::FullDuplex, 0).expect("valid round");
        }
    }

    #[test]
    #[should_panic(expected = "undirected network")]
    fn full_duplex_kernel_rejects_directed_graphs() {
        let g = generators::de_bruijn_directed(2, 3);
        let _ = MutationKernel::new(&g, Mode::FullDuplex);
    }
}
