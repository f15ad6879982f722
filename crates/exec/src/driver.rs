//! The deterministic seeded driver.
//!
//! [`Driver::run`] steps the node fleet round by round through four
//! phases:
//!
//! 1. **send** — every live node produces its round's messages from
//!    beginning-of-round state (the Definition 3.1 snapshot), in
//!    parallel across disjoint node chunks;
//! 2. **transport** — each message is rolled against the
//!    [`FaultPlan`]'s counter-based samplers (drop, then delay) and
//!    bucketed by delivery round, sequentially in node order;
//! 3. **deliver** — the round's due messages are sorted by
//!    `(to, from, seq)`, messages to crashed nodes are discarded, and
//!    the rest merge into the fleet in parallel per destination;
//! 4. **detect** — `done` announcements are collected and the run ends
//!    one round after every node holds all items.
//!
//! Parallelism never touches ordering: nodes only mutate their own
//! state, every cross-node list is produced or sorted in a fixed
//! order, and fault decisions are pure counter functions — so reports
//! and event traces are byte-identical at any thread count.

use crate::fault::FaultPlan;
use crate::message::{Msg, NodeId};
use crate::node::{node_schedules, SystolicNode};
use crate::report::RunReport;
use sg_protocol::protocol::SystolicProtocol;

/// Knobs of one driver run.
#[derive(Debug, Clone, Copy)]
pub struct DriverConfig {
    /// Worker threads for the send/deliver phases (`0` or `1` =
    /// sequential). Never affects results, only wall-clock.
    pub threads: usize,
    /// Round budget: the run reports `completed_at: None` past it.
    pub max_rounds: u64,
    /// Record a per-message event trace into the report (the
    /// determinism suite's comparison surface; costly on big runs).
    pub record_events: bool,
}

impl Default for DriverConfig {
    fn default() -> Self {
        Self {
            threads: 1,
            max_rounds: 100_000,
            record_events: false,
        }
    }
}

/// An in-flight routed message.
#[derive(Debug, Clone)]
struct InFlight {
    deliver_at: u64,
    msg: Msg,
}

/// Runs `f` over `(fleet index, node, slot)` across disjoint chunks of
/// the fleet. Nodes only ever see their own slot, so chunk boundaries
/// (and therefore the thread count) cannot affect results.
fn for_each_node<T: Send>(
    nodes: &mut [SystolicNode],
    slots: &mut [T],
    threads: usize,
    f: impl Fn(usize, &mut SystolicNode, &mut T) + Sync,
) {
    let threads = threads.max(1).min(nodes.len().max(1));
    if threads <= 1 {
        for (i, (node, slot)) in nodes.iter_mut().zip(slots.iter_mut()).enumerate() {
            f(i, node, slot);
        }
        return;
    }
    let chunk = nodes.len().div_ceil(threads);
    std::thread::scope(|scope| {
        for (ci, (node_chunk, slot_chunk)) in nodes
            .chunks_mut(chunk)
            .zip(slots.chunks_mut(chunk))
            .enumerate()
        {
            let f = &f;
            scope.spawn(move || {
                for (j, (node, slot)) in
                    node_chunk.iter_mut().zip(slot_chunk.iter_mut()).enumerate()
                {
                    f(ci * chunk + j, node, slot);
                }
            });
        }
    });
}

/// The execution driver: a node fleet, a fault plan, and the round loop.
pub struct Driver {
    nodes: Vec<SystolicNode>,
    plan: FaultPlan,
    cfg: DriverConfig,
}

impl Driver {
    /// Builds a systolic fleet: one [`SystolicNode`] per vertex, each
    /// handed its slice of the compiled period via the same `init`
    /// structure the wire transport ships.
    pub fn systolic(sp: &SystolicProtocol, n: usize, plan: FaultPlan, cfg: DriverConfig) -> Self {
        let nodes = node_schedules(sp, n)
            .into_iter()
            .enumerate()
            .map(|(v, schedule)| SystolicNode::new(v as NodeId, n as u32, schedule))
            .collect();
        Self { nodes, plan, cfg }
    }

    /// Collects a node's pending `done` announcement into the report.
    fn collect_done(report: &mut RunReport, node: &mut SystolicNode, record: bool) {
        if let Some(Msg::Done { from, round, count }) = node.take_done() {
            report.done_msgs += 1;
            if record {
                report
                    .events
                    .push(format!("round {round}: done from {from} ({count} items)"));
            }
        }
    }

    /// Drives the fleet to completion (or the round budget) and returns
    /// the run report.
    pub fn run(&mut self) -> RunReport {
        let n = self.nodes.len();
        let mut report = RunReport {
            n,
            s: 0,
            completed_at: None,
            rounds_run: 0,
            gossip_sent: 0,
            acks_sent: 0,
            dropped: 0,
            delayed: 0,
            delivered: 0,
            lost_crash: 0,
            retransmissions: 0,
            done_msgs: 0,
            min_curve: Vec::new(),
            events: Vec::new(),
        };
        let mut in_flight: Vec<InFlight> = Vec::new();
        let record = self.cfg.record_events;

        // Nodes born complete (n = 1 fleets) announce immediately.
        for node in &mut self.nodes {
            Self::collect_done(&mut report, node, record);
        }

        for r in 0..self.cfg.max_rounds {
            if self.nodes.iter().all(|nd| nd.is_complete()) {
                report.completed_at = Some(r);
                break;
            }
            report.rounds_run = r + 1;

            // Phase 1 — send, from beginning-of-round state.
            let mut outs: Vec<Vec<Msg>> = vec![Vec::new(); n];
            let plan = &self.plan;
            for_each_node(
                &mut self.nodes,
                &mut outs,
                self.cfg.threads,
                |i, node, out| {
                    if !plan.down_at(i as NodeId, r) {
                        *out = node.on_round(r);
                    }
                },
            );

            // Phase 2 — transport, sequential in node order.
            for out in &outs {
                for msg in out {
                    let from = msg.src();
                    let to = msg.dest().expect("nodes only emit routed messages");
                    let seq = msg.seq().expect("routed messages carry a seq");
                    match msg {
                        Msg::Gossip { .. } => report.gossip_sent += 1,
                        Msg::Ack { .. } => report.acks_sent += 1,
                        _ => {}
                    }
                    if self.plan.drops(r, from, to, seq) {
                        report.dropped += 1;
                        if record {
                            report.events.push(format!(
                                "round {r}: drop {} {from}->{to} seq {seq}",
                                msg.kind()
                            ));
                        }
                        continue;
                    }
                    let d = self.plan.delay(r, from, to, seq);
                    if d > 0 {
                        report.delayed += 1;
                        if record {
                            report.events.push(format!(
                                "round {r}: delay {} {from}->{to} seq {seq} by {d}",
                                msg.kind()
                            ));
                        }
                    }
                    in_flight.push(InFlight {
                        deliver_at: r + u64::from(d),
                        msg: msg.clone(),
                    });
                }
            }

            // Phase 3 — deliver everything due this round, in
            // `(to, from, seq)` order regardless of send interleaving.
            let mut due: Vec<Msg> = Vec::new();
            in_flight.retain(|m| {
                if m.deliver_at == r {
                    due.push(m.msg.clone());
                    false
                } else {
                    true
                }
            });
            due.sort_by_key(|m| (m.dest(), m.src(), m.seq()));
            let mut inboxes: Vec<Vec<Msg>> = vec![Vec::new(); n];
            for msg in due {
                let to = msg.dest().expect("routed");
                if self.plan.down_at(to, r) {
                    report.lost_crash += 1;
                    if record {
                        report.events.push(format!(
                            "round {r}: lost-to-crash {} {}->{to} seq {}",
                            msg.kind(),
                            msg.src(),
                            msg.seq().unwrap_or(0),
                        ));
                    }
                    continue;
                }
                report.delivered += 1;
                inboxes[to as usize].push(msg);
            }
            for_each_node(
                &mut self.nodes,
                &mut inboxes,
                self.cfg.threads,
                |_, node, inbox| {
                    for msg in inbox.iter() {
                        node.on_message(msg);
                    }
                    node.end_round(r + 1);
                },
            );

            // Phase 4 — completion bookkeeping, sequential in node order.
            let mut min_count = u32::MAX;
            for node in &mut self.nodes {
                Self::collect_done(&mut report, node, record);
                min_count = min_count.min(node.items_known());
            }
            report.min_curve.push(if n == 0 { 0 } else { min_count });
        }
        if report.completed_at.is_none() && self.nodes.iter().all(|nd| nd.is_complete()) {
            report.completed_at = Some(report.rounds_run);
        }
        report.retransmissions = self.nodes.iter().map(|nd| nd.retransmissions()).sum();
        report
    }
}

/// Compiles `sp` into a systolic fleet, runs it under `plan`, and
/// returns the report with the protocol's period filled in.
pub fn execute_protocol(
    sp: &SystolicProtocol,
    n: usize,
    plan: FaultPlan,
    cfg: DriverConfig,
) -> RunReport {
    let mut driver = Driver::systolic(sp, n, plan, cfg);
    let mut report = driver.run();
    report.s = sp.s();
    report
}
