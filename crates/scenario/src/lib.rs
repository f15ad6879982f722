//! # sg-scenario
//!
//! The scenario subsystem of the systolic-gossip reproduction: named,
//! declarative experiment descriptors plus a memoizing parallel batch
//! executor. This is the layer that replaced the ten near-duplicate
//! figure binaries — `sg-bench` is now a thin CLI over
//! [`registry::registry`] and [`runner::run_batch`].
//!
//! * [`descriptor`] — the [`Scenario`] data type: network list,
//!   communication mode, period/degree sweep and [`Task`]
//!   (`Bound` / `Simulate` / `Compare` / `Matrices` / `Search` /
//!   `Enumerate`);
//! * [`mod@registry`] — every paper figure plus the new topology
//!   families as named scenarios;
//! * [`runner`] — the batch executor: scenarios expand into independent
//!   units that fan out across a thread pool, share built digraphs and
//!   periodic delay digraphs through [`cache::BuildCache`], and stream
//!   results as [`systolic_gossip::Row`]s (JSON/CSV via
//!   `sg_core::report`);
//! * [`tables`] — the generic family-table builder behind Figs. 4–8.

#![forbid(unsafe_code)]

pub mod cache;
pub mod descriptor;
pub mod registry;
pub mod runner;
pub mod tables;

pub use cache::{BuildCache, CacheStats};
pub use descriptor::{
    protocol_for, EnumerateSpec, ExecSpec, PaperCheck, ProtocolKind, RandomizedSpec, Scenario,
    SearchSpec, Task, WeightScheme,
};
pub use registry::{find, registry};
pub use runner::{run_batch, BatchOptions, BatchReport, CheckOutcome, ScenarioOutcome};
