//! Workspace root for the `systolic-gossip` reproduction of
//! Flammini & Pérennès, *Lower bounds on systolic gossip* (IPPS 1997;
//! Information and Computation 196, 2005).
//!
//! This root package only hosts the runnable [examples](../examples) and the
//! cross-crate integration tests; all functionality lives in the member
//! crates and is re-exported through [`systolic_gossip`].

#![forbid(unsafe_code)]

pub use systolic_gossip::*;
