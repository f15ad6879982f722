//! Information-dissemination simulator for the systolic-gossip
//! reproduction.
//!
//! Executes protocols under the semantics of Definition 3.1 — every
//! transfer of a round reads the knowledge state at the *beginning* of the
//! round — and measures gossip and broadcast completion times.
//!
//! The hot path is the compiled-schedule engine: [`schedule`] precomputes
//! each round's arc list, snapshot plan, and reusable buffers once per
//! systolic period, so replaying a round allocates nothing. [`sparse`]
//! drops the O(n²)-bit table entirely — rows become sorted item runs
//! with exact delta propagation (only arcs whose source changed since
//! their last application are re-applied), which is what
//! makes n = 10⁶ structured instances simulable. [`sliced`] covers the
//! unstructured ones, whose rows do not compress: it replays the period
//! per 256-item slice in O(n) words per thread, and its
//! [`sliced::run_systolic_large`] picks between sparse and sliced by
//! memory. Slices share no state, so they are also the one parallel
//! mechanism for dense instances: [`pool`] runs a gossip time on the
//! compiled engine for a budget of one thread and on the sliced engine
//! for more. [`random`] adds the oblivious randomized baselines
//! (push/pull/exchange over the sparse rows, counter-seeded trials
//! batched across threads). All engines are
//! bit-identical to the retained naive oracle in [`mod@reference`],
//! which the differential conformance suite (`tests/conformance.rs`)
//! and the property tests enforce. The [`greedy`] module generates
//! executable upper-bound protocols for networks without hand-built
//! ones; [`trace`] records completion curves.

#![forbid(unsafe_code)]

pub mod bitset;
pub mod broadcast;
pub mod engine;
pub mod greedy;
pub mod pool;
pub mod random;
pub mod reference;
pub mod schedule;
pub mod sliced;
pub mod sparse;
pub mod trace;

pub use bitset::{CompletionCursor, Knowledge};
pub use broadcast::{greedy_broadcast, verify_broadcast, BroadcastOutcome};
pub use engine::{
    apply_round, run_protocol, run_systolic, run_systolic_with_horizon, systolic_broadcast_time,
    systolic_gossip_time, systolic_gossip_time_with_horizon, SimResult, Time,
};
pub use greedy::{greedy_gossip, GreedyOutcome};
pub use pool::systolic_gossip_time_pool;
pub use random::{
    run_randomized, run_trial, summarize, ActivationModel, RandomizedConfig, RandomizedSummary,
    TrialResult,
};
pub use reference::{
    apply_round_reference, run_protocol_reference, run_systolic_reference,
    systolic_gossip_time_reference,
};
pub use schedule::CompiledSchedule;
pub use sliced::{run_systolic_large, run_systolic_sliced, slice_bytes, SLICE_ITEMS};
pub use sparse::{
    run_systolic_sparse, run_systolic_sparse_with_limit, systolic_gossip_time_sparse, Handoff,
    SparseEngine, SparseKnowledge, SparseOutcome,
};
pub use trace::{knowledge_curve, knowledge_curve_pool, RoundStats};
