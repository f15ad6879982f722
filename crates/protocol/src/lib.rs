//! Gossip-protocol representation for the systolic-gossip reproduction.
//!
//! Implements Definitions 3.1 and 3.2 of the paper: protocols are finite
//! sequences of rounds, each round an endpoint-disjoint set of active arcs
//! (with the full-duplex opposite-pair variant), and systolic protocols
//! are periodic repetitions of `s` such rounds. The [`local`] module
//! extracts the per-vertex activation patterns `⟨(l_j), (r_j)⟩` on which
//! the paper's Section 4 analysis operates, and [`builders`] provides the
//! classical protocols used as experimental upper bounds.

#![forbid(unsafe_code)]

pub mod builders;
pub mod local;
pub mod mode;
pub mod protocol;
pub mod round;

pub use local::{Activation, BlockPattern, LocalSchedule};
pub use mode::Mode;
pub use protocol::{Protocol, SystolicProtocol};
pub use round::{ProtocolError, Round};
