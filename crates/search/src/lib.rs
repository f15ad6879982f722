//! # sg-search
//!
//! Protocol synthesis for the systolic-gossip reproduction: where
//! `sg-bounds` proves what systolic gossip *cannot* beat, this crate
//! hunts for schedules that *meet* those bounds — closing the loop
//! between the paper's lower bounds and executable upper bounds, the way
//! explicit scheme construction complements analysis in the gossip
//! literature.
//!
//! * [`candidate`] — the editable period-`p` round schedule;
//! * [`kernel`] — the mode-respecting mutation kernel (arc flips, round
//!   swaps and resampling) that keeps every candidate valid by
//!   construction and its period fixed;
//! * [`seeds`] — restart seeds from `sg_protocol::builders` and the
//!   universal edge colorings, refitted to the requested period;
//! * [`driver`] — the multi-start simulated-annealing driver: one
//!   deterministic chain per restart at one exact period, evaluated
//!   through the compiled-schedule engine with an incumbent-based
//!   horizon cutoff, bit-identical across thread counts;
//! * [`certificate`] — the verdict against the paper's bounds (served
//!   by the shared `BoundOracle`): `Optimal` when the found time meets
//!   the strongest exact floor, `Gap(δ)` when it does not, `BoundSlack`
//!   when only the asymptotic coefficient bound overshoots the measured
//!   time, `ProvenOptimal` when exhaustive enumeration certified the
//!   exact optimum;
//! * [`mod@enumerate`] — oracle-pruned exact branch-and-bound over every
//!   valid period-`s` schedule: maximal-round dominance, exact symmetry
//!   breaking at every depth (element lists or stabilizer chains),
//!   canonical-signature memoization (orbit minima or
//!   individualization–refinement forms), relaxation cuts, and a
//!   deterministic parallel fixed-cap pass — the machinery that turns a
//!   reported gap into a settled theorem, checked by a brute-force
//!   oracle that shares none of its code (`tests/brute_force_oracle.rs`).

#![forbid(unsafe_code)]

pub mod candidate;
pub mod certificate;
pub mod driver;
pub mod enumerate;
pub mod kernel;
pub mod seeds;

pub use candidate::Candidate;
pub use certificate::{ceil_log2, certify, certify_with, Certificate, FloorSource, Verdict};
pub use driver::{search, search_with_oracle, SearchConfig, SearchOutcome};
pub use enumerate::{
    enumerate, enumerate_with_group, maximal_rounds, EnumerateConfig, EnumerateOutcome,
};
pub use kernel::MutationKernel;
pub use seeds::{fit_to_period, seed_protocols};
