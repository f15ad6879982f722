//! # systolic-gossip
//!
//! A comprehensive reproduction of **Flammini & Pérennès, *Lower bounds on
//! systolic gossip*** (IPPS 1997; Information and Computation 196, 2005):
//! interconnection networks, gossip protocols, a dissemination simulator,
//! the delay-digraph / matrix-norm lower-bound technique, and the
//! closed-form bound engine that regenerates every table of the paper.
//!
//! ## Quick start
//!
//! ```
//! use systolic_gossip::prelude::*;
//!
//! // A wrapped butterfly network and its paper-notation bounds.
//! let net = Network::WrappedButterfly { d: 2, dd: 5 };
//! let report = bound_report(&net, Mode::HalfDuplex, Period::Systolic(4));
//! assert!((report.separator_coefficient.unwrap() - 2.0218).abs() < 1e-3);
//!
//! // Audit an executable protocol against the theory.
//! let sp = sg_protocol::builders::edge_coloring_periodic(&net.build());
//! let audit = audit(&net, &sp, 10_000, Default::default());
//! assert!(audit.validation.is_ok());
//! assert!(audit.is_sound());
//! ```
//!
//! ## Where the bounds come from
//!
//! [`evaluate_bounds`] composes everything known about a
//! `(network, mode, period)` — the exact floors, `e(s)` and the
//! separator coefficient — and [`bound_report`] is that composition on a
//! freshly built graph. [`BoundOracle`] memoizes it per key for batch
//! consumers; [`BoundOracle::protocol_bound`] memoizes Theorem 4.1 on a
//! concrete protocol, which [`audit()`] also reports.
//!
//! ## Crate map
//!
//! | layer | crate | contents |
//! |---|---|---|
//! | numerics | [`sg_linalg`] | matrices, norms, roots, optimization |
//! | networks | [`sg_graphs`] | digraphs, generators, separators |
//! | protocols | [`sg_protocol`] | rounds, systolic protocols, builders |
//! | execution | [`sg_sim`] | bitset simulator, greedy protocols |
//! | the paper | [`sg_delay`] | delay digraphs, `M(λ)`, Thm 4.1/5.1 |
//! | tables | [`sg_bounds`] | `e(s)`, separator optimizer, Figs. 4–8 |

#![forbid(unsafe_code)]

pub mod audit;
pub mod json;
pub mod memo;
pub mod network;
pub mod oracle;
pub mod report;

pub use audit::{audit, audit_measured, ProtocolAudit};
pub use memo::Memo;
pub use network::Network;
pub use oracle::{ceil_log2, evaluate_bounds, BoundOracle, FloorSource, OracleBounds, OracleStats};
pub use report::{bound_mode, bound_report, to_csv, to_json_line, BoundReport, Row, Value};

// Re-export the member crates under their own names for doc linking and
// downstream use.
pub use sg_bounds;
pub use sg_delay;
pub use sg_graphs;
pub use sg_linalg;
pub use sg_protocol;
pub use sg_sim;

/// The most common imports in one place.
pub mod prelude {
    pub use crate::audit::{audit, ProtocolAudit};
    pub use crate::network::Network;
    pub use crate::report::{bound_mode, bound_report, BoundReport};
    pub use sg_bounds::pfun::{BoundMode, Period};
    pub use sg_bounds::{
        c_broadcast, e_coefficient, e_full_duplex, e_general, e_general_nonsystolic, e_separator,
    };
    pub use sg_delay::bound::{theorem_4_1_bound, theorem_5_1_bound, BoundOpts};
    pub use sg_delay::digraph::DelayDigraph;
    pub use sg_graphs::digraph::{Arc, Digraph};
    pub use sg_protocol::builders;
    pub use sg_protocol::mode::Mode;
    pub use sg_protocol::protocol::{Protocol, SystolicProtocol};
    pub use sg_protocol::round::Round;
    pub use sg_sim::engine::{systolic_broadcast_time, systolic_gossip_time};
    pub use sg_sim::greedy::greedy_gossip;
}
