//! Information-dissemination simulator for the systolic-gossip
//! reproduction.
//!
//! Executes protocols under the semantics of Definition 3.1 — every
//! transfer of a round reads the knowledge state at the *beginning* of the
//! round — and measures gossip and broadcast completion times.
//!
//! The hot path is the compiled-schedule engine: [`schedule`] precomputes
//! each round's arc list, snapshot plan, and reusable buffers once per
//! systolic period, so replaying a round allocates nothing. [`pool`]
//! splits each compiled round across a persistent work-stealing worker
//! pool, and [`sparse`] drops the O(n²)-bit table entirely — rows become
//! sorted item runs with exact delta propagation (only arcs whose source
//! changed since their last application are re-applied), which is what
//! makes n = 10⁶ instances simulable. [`random`] adds the oblivious
//! randomized baselines (push/pull/exchange over the sparse rows,
//! counter-seeded trials batched across threads). All engines are
//! bit-identical to the retained naive oracle in [`mod@reference`],
//! which the differential conformance suite (`tests/conformance.rs`)
//! and the property tests enforce. The [`greedy`] module generates
//! executable upper-bound protocols for networks without hand-built
//! ones; [`trace`] records completion curves.

#![deny(unsafe_code)]

pub mod bitset;
pub mod broadcast;
pub mod engine;
pub mod greedy;
#[allow(unsafe_code)]
pub mod pool;
pub mod random;
pub mod reference;
pub mod schedule;
pub mod sparse;
pub mod trace;

pub use bitset::{CompletionCursor, Knowledge};
pub use broadcast::{greedy_broadcast, verify_broadcast, BroadcastOutcome};
pub use engine::{
    apply_round, run_protocol, run_systolic, run_systolic_with_horizon, systolic_broadcast_time,
    systolic_gossip_time, systolic_gossip_time_with_horizon, SimResult, Time,
};
pub use greedy::{greedy_gossip, GreedyOutcome};
pub use pool::{run_systolic_pool, systolic_gossip_time_pool, PoolEngine};
pub use random::{
    run_randomized, run_trial, summarize, ActivationModel, RandomizedConfig, RandomizedSummary,
    TrialResult,
};
pub use reference::{
    apply_round_reference, run_protocol_reference, run_systolic_reference,
    systolic_gossip_time_reference,
};
pub use schedule::CompiledSchedule;
pub use sparse::{
    run_systolic_sparse, run_systolic_sparse_with_limit, systolic_gossip_time_sparse, SparseEngine,
    SparseKnowledge, SparseOutcome,
};
pub use trace::{knowledge_curve, knowledge_curve_pool, RoundStats};
