//! Closed-form lower-bound engine: the numeric content of the paper.
//!
//! * [`pfun`] — the characteristic functions of Lemma 4.3 (half-duplex)
//!   and Lemma 6.1 (full-duplex) with their non-systolic limits;
//! * [`general`] — Corollary 4.4's `e(s)` coefficients (Fig. 4) and the
//!   full-duplex general bounds (Fig. 8, first row);
//! * [`separator`] — Theorem 5.1's topology-dependent optimizer
//!   (Figs. 5, 6, 8);
//! * [`broadcast`] — the bounded-degree broadcasting constants `c(d)` of
//!   \[22, 2\];
//! * [`diameter`] — diameter coefficients (Fig. 6 comparison column);
//! * [`registry`] — the literature bounds quoted by the paper;
//! * [`tables`] — the figure-table types (`FigTable`, `FigRow`, `Cell`)
//!   and the standard period columns of Figs. 4, 5 and 8.

#![forbid(unsafe_code)]

pub mod broadcast;
pub mod diameter;
pub mod general;
pub mod pfun;
pub mod registry;
pub mod separator;
pub mod tables;

pub use broadcast::{c_broadcast, dbonacci_root};
pub use general::{
    e_coefficient, e_full_duplex, e_full_duplex_nonsystolic, e_general, e_general_nonsystolic,
    lambda_star,
};
pub use pfun::{BoundMode, Period};
pub use separator::{e_separator, improvement_threshold, SeparatorBound};
pub use tables::{FigRow, FigTable};
