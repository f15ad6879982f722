//! # sg-exec
//!
//! The distributed execution harness of the systolic-gossip
//! reproduction: compiled schedules run as fault-injected
//! message-passing nodes instead of rows in a lockstep simulator.
//!
//! * [`message`] — the five typed JSONL wire messages (`init`, `round`,
//!   `gossip`, `ack`, `done`) and their JSONL codec;
//! * [`node`] — [`SystolicNode`]: one vertex of a compiled
//!   [`sg_protocol::protocol::SystolicProtocol`], sending deltas on its
//!   scheduled arcs with `others_know`-bounded retransmission (the
//!   repeating period *is* the retry loop);
//! * [`fault`] — declarative [`FaultPlan`]s (link drops, delivery
//!   delays, crash/restart) with counter-based sampling: every fault
//!   decision is a pure function of `(seed, round, link, seq)`;
//! * [`driver`] — the deterministic seeded [`Driver`]: steps the fleet,
//!   injects faults, detects global completion, and reports — with
//!   byte-identical results at any thread count;
//! * [`transport`] — in-process channel and stdio/byte-stream JSONL
//!   transports behind one [`Transport`] trait, plus the wire node
//!   loop (`sg-node` runs it over stdin/stdout);
//! * [`report`] — the per-run [`RunReport`] (rounds-to-completion,
//!   message accounting, divergence from the fault-free optimum).
//!
//! Fault-free execution is knowledge-for-knowledge identical to the
//! lockstep engines in `sg-sim` — the conformance suite checks the
//! driver's completion round against the simulator's on every registry
//! scenario with a deterministic protocol.

#![forbid(unsafe_code)]

pub mod driver;
pub mod fault;
pub mod message;
pub mod node;
pub mod report;
pub mod transport;

pub use driver::{execute_protocol, Driver, DriverConfig};
pub use fault::{Crash, FaultPlan};
pub use message::{decode, encode, Msg, NodeId, WireError};
pub use node::{node_schedules, SystolicNode};
pub use report::RunReport;
pub use transport::{
    drive_round, serve_node, serve_stdio, ChannelTransport, LineTransport, Transport,
};
