//! # sg-serve
//!
//! A concurrent bound/search **query daemon** over the systolic-gossip
//! stack: every exact floor, Theorem 4.1 delay-matrix bound, annealed
//! schedule and `ProvenOptimal` enumeration the repro can compute,
//! reachable over one TCP socket speaking newline-delimited JSON —
//! instead of only through batch CLI runs.
//!
//! ```text
//! $ sg-serve --addr 127.0.0.1:7411 &
//! $ printf '{"op":"bound","net":"hypercube:6","mode":"fd","period":4}\n' | nc 127.0.0.1 7411
//! {"ok":true,"op":"bound","net":"hypercube:6",…,"floor_rounds":9,…}
//! ```
//!
//! The layering, bottom-up:
//!
//! * [`json`] — the workspace's strict JSON parser, re-exported from
//!   `systolic_gossip::json` next to the `to_json_line` emitter;
//! * [`protocol`] — typed requests ([`Request`], [`Query`]) with a
//!   round-trippable wire form, plus the canonical network spec
//!   ([`protocol::net_spec`]) and build-free order estimates;
//! * [`engine`] — the shared [`QueryEngine`]: one
//!   [`sg_scenario::BuildCache`] (digraphs, diameters, deterministic
//!   protocols, automorphism groups, the memoizing `BoundOracle`) under
//!   a **single-flight** reply [`systolic_gossip::Memo`] — N concurrent
//!   identical queries cost exactly one computation;
//! * [`server`] — the threaded TCP [`Server`]: read/write timeouts, a
//!   bounded in-flight semaphore that sheds with `"overloaded"`,
//!   malformed-request replies that never kill the connection, and
//!   graceful shutdown that drains in-flight queries;
//! * [`client`] — a blocking JSONL [`Client`] for tests, scripts and
//!   the `sg-serve-bench` load generator.

#![forbid(unsafe_code)]

pub mod client;
pub mod engine;
pub mod protocol;
pub mod server;

pub use systolic_gossip::json;

pub use client::Client;
pub use engine::{EngineConfig, EngineStats, QueryEngine};
pub use protocol::{Query, Request};
pub use server::{ServeReport, Server, ServerConfig, ServerHandle};
