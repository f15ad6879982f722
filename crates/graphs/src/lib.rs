//! Interconnection-network substrate for the systolic-gossip reproduction.
//!
//! The paper (Section 3) models networks as digraphs whose vertices are
//! processors and whose arcs are communication links; undirected networks
//! are symmetric digraphs. This crate provides, from scratch:
//!
//! * [`digraph`] — immutable CSR digraphs with in/out adjacency;
//! * [`traversal`] — BFS distances, diameter, strong connectivity, Tarjan
//!   SCC;
//! * [`matching`] — the matching conditions of Definition 3.1 (half-duplex
//!   and full-duplex) plus greedy matchings and edge colorings;
//! * [`codec`] — digit-string vertex codecs for the structured families;
//! * [`generators`] — the topology zoo: paths, cycles, complete graphs,
//!   trees, grids, tori, hypercubes, Butterflies, Wrapped Butterflies
//!   (directed and undirected), de Bruijn and Kautz networks (directed and
//!   undirected), shuffle-exchange, cube-connected cycles, Knödel graphs
//!   and random families;
//! * [`separator`] — the ⟨α, ℓ⟩-separators of Definition 3.5 and the
//!   concrete constructions of Lemma 3.1;
//! * [`automorphism`] — explicit automorphism element lists of small
//!   networks, the lexicographic symmetry-breaking substrate of the
//!   schedule enumerator;
//! * [`group`] — permutation groups as stabilizer chains (Schreier–Sims):
//!   generator-finding searches, exact orders of huge groups, pointwise
//!   stabilizers, union-find orbit partitions at any `n`;
//! * [`refine`] — equitable-partition refinement and
//!   individualization–refinement canonical labeling (nauty-style):
//!   canonical forms as exact isomorphism keys, refined automorphism
//!   generator search, combined graph+state canonicalization for the
//!   enumerator's isomorph-rejection memo.

#![forbid(unsafe_code)]

pub mod automorphism;
pub mod codec;
pub mod digraph;
pub mod generators;
pub mod group;
pub mod matching;
pub mod refine;
pub mod separator;
pub mod traversal;
pub mod weighted;

pub use automorphism::{automorphisms, is_orbit_representative};
pub use digraph::{Arc, Digraph};
pub use group::{automorphism_group, PermGroup};
pub use refine::{canonical_graph, Canonical, Relations};
pub use separator::{ConcreteSeparator, SeparatorParams};
pub use weighted::WeightedDigraph;
