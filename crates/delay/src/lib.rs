//! The paper's core machinery: delay digraphs, delay matrices and the
//! matrix-norm lower bounds.
//!
//! * [`digraph`] — the delay digraph of Definition 3.3 (unrolled) and its
//!   periodic fold, plus the delay matrix `M(λ)` of Definition 3.4;
//! * [`local`] — the per-vertex matrices `Mx(λ)`, `Nx(λ)`, `Ox(λ)`
//!   (Figs. 1–3), the semi-eigenvector of Lemma 4.2 and the norm bounds of
//!   Lemma 4.3;
//! * [`fullduplex`] — the banded full-duplex local matrix (Fig. 7) and
//!   Lemma 6.1;
//! * [`bound`] — Theorems 4.1 and 5.1 evaluated on concrete protocols,
//!   and the degenerate `s = 2` bound.

#![forbid(unsafe_code)]

pub mod bound;
pub mod digraph;
pub mod fullduplex;
pub mod local;
pub mod weighted;

pub use bound::{
    broadcast_bound, lambda_star, s2_lower_bound, theorem_4_1_bound, theorem_5_1_bound, BoundOpts,
    ProtocolBound, SeparatorProtocolBound,
};
pub use digraph::{ActivationVertex, DelayDigraph, DelayKind};
pub use fullduplex::{full_duplex_mx, full_duplex_norm_bound};
pub use local::{local_norm_bound, pattern_norm_bound, LocalMatrices};
pub use weighted::{weighted_diameter_bound, DiameterBound};
