//! [`SystolicNode`]: one vertex of an executed systolic protocol.
//!
//! A [`SystolicNode`] runs one vertex of a compiled schedule: each round
//! it sends on its scheduled arcs — but only the items it believes the
//! target is still missing (`others_know`) — merges whatever arrived,
//! and acknowledges received gossip with a knowledge summary. Because
//! the systolic period repeats forever, an arc whose message was dropped
//! simply fires again next period and re-sends the un-acknowledged
//! delta: the schedule itself is the retransmission loop, bounded by
//! `others_know` so traffic stops as soon as the estimates catch up.
//!
//! `others_know[v]` is only ever updated from messages `v` actually
//! produced (its acks and its gossip), so it is always a sound
//! *underestimate* of `v`'s knowledge. Two consequences the tests lean
//! on: a suppressed item is always one the target already holds (so
//! fault-free execution is knowledge-for-knowledge identical to the
//! lockstep simulator), and an empty delta proves the target knows
//! everything the sender does (so suppression can never deadlock a run).

use crate::message::{Msg, NodeId};
use sg_protocol::protocol::SystolicProtocol;

/// A fixed-width item bitset: one bit per gossip item.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Bits {
    words: Vec<u64>,
}

impl Bits {
    fn new(n: usize) -> Self {
        Self {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn set(&mut self, i: u32) {
        self.words[i as usize / 64] |= 1u64 << (i % 64);
    }

    fn or(&mut self, other: &Bits) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }

    fn count(&self) -> u32 {
        self.words.iter().map(|w| w.count_ones()).sum()
    }

    /// Items of `self` absent from `mask`, in increasing order.
    fn minus(&self, mask: &Bits) -> Vec<u32> {
        let mut out = Vec::new();
        for (wi, (w, m)) in self.words.iter().zip(&mask.words).enumerate() {
            let mut diff = w & !m;
            while diff != 0 {
                let b = diff.trailing_zeros();
                out.push(wi as u32 * 64 + b);
                diff &= diff - 1;
            }
        }
        out
    }

    fn intersects(&self, other: &Bits) -> bool {
        self.words.iter().zip(&other.words).any(|(w, o)| w & o != 0)
    }

    /// All set items, in increasing order.
    fn items(&self) -> Vec<u32> {
        let empty = Bits::new(self.words.len() * 64);
        self.minus(&empty)
    }
}

/// Per-target estimate state of a [`SystolicNode`].
#[derive(Debug, Clone)]
struct TargetState {
    target: NodeId,
    /// Sound underestimate of the target's knowledge.
    known: Bits,
    /// Items already sent to the target at least once.
    sent: Bits,
}

/// One vertex of the executed network, running its slice of a compiled
/// [`SystolicProtocol`].
///
/// The driver calls [`SystolicNode::on_round`] with beginning-of-round
/// state (sends are computed *before* the round's deliveries, matching
/// the Definition 3.1 snapshot semantics of the simulator), then delivers
/// the round's arrivals through [`SystolicNode::on_message`].
#[derive(Debug, Clone)]
pub struct SystolicNode {
    id: NodeId,
    n: u32,
    /// `schedule[i]` = targets of round `i mod s`.
    schedule: Vec<Vec<NodeId>>,
    knowledge: Bits,
    /// One entry per distinct scheduled target, sorted by target id.
    targets: Vec<TargetState>,
    /// Acks queued during delivery, flushed with the next round's sends.
    pending: Vec<Msg>,
    seq: u64,
    done: Option<Msg>,
    complete_at: Option<u64>,
    /// Gossip sends that repeated at least one already-sent item.
    retransmissions: u64,
}

impl SystolicNode {
    /// Builds the node for vertex `id` of an order-`n` network with the
    /// given per-round-in-period send targets.
    pub fn new(id: NodeId, n: u32, schedule: Vec<Vec<NodeId>>) -> Self {
        let mut knowledge = Bits::new(n as usize);
        knowledge.set(id);
        let mut target_ids: Vec<NodeId> = schedule.iter().flatten().copied().collect();
        target_ids.sort_unstable();
        target_ids.dedup();
        let targets = target_ids
            .into_iter()
            .map(|target| TargetState {
                target,
                known: {
                    // Every vertex starts knowing its own item.
                    let mut b = Bits::new(n as usize);
                    b.set(target);
                    b
                },
                sent: Bits::new(n as usize),
            })
            .collect();
        let mut node = Self {
            id,
            n,
            schedule,
            knowledge,
            targets,
            pending: Vec::new(),
            seq: 0,
            done: None,
            complete_at: None,
            retransmissions: 0,
        };
        node.check_complete(0);
        node
    }

    /// Rebuilds a node from its [`Msg::Init`] wire message.
    pub fn from_init(msg: &Msg) -> Option<Self> {
        match msg {
            Msg::Init { node, n, schedule } => Some(Self::new(*node, *n, schedule.clone())),
            _ => None,
        }
    }

    /// The node's init message (what a driver writes to a wire node).
    pub fn init_msg(&self) -> Msg {
        Msg::Init {
            node: self.id,
            n: self.n,
            schedule: self.schedule.clone(),
        }
    }

    fn target_mut(&mut self, v: NodeId) -> Option<&mut TargetState> {
        let i = self.targets.binary_search_by_key(&v, |t| t.target).ok()?;
        Some(&mut self.targets[i])
    }

    fn check_complete(&mut self, round: u64) {
        if self.complete_at.is_none() && self.knowledge.count() == self.n {
            self.complete_at = Some(round);
            self.done = Some(Msg::Done {
                from: self.id,
                round,
                count: self.n,
            });
        }
    }

    /// The vertex this node runs.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Produces the round's outgoing messages: queued acks first, then
    /// the scheduled gossip sends.
    pub fn on_round(&mut self, round: u64) -> Vec<Msg> {
        let mut out = std::mem::take(&mut self.pending);
        if self.schedule.is_empty() {
            return out;
        }
        let slot = (round % self.schedule.len() as u64) as usize;
        // The borrow checker would reject `self.target_mut` while
        // iterating the slot; index the parallel arrays instead.
        let targets: Vec<NodeId> = self.schedule[slot].clone();
        for v in targets {
            let Some(i) = self.targets.binary_search_by_key(&v, |t| t.target).ok() else {
                continue;
            };
            let st = &mut self.targets[i];
            let items = self.knowledge.minus(&st.known);
            if items.is_empty() {
                continue;
            }
            let mut delta = Bits::new(self.n as usize);
            for &it in &items {
                delta.set(it);
            }
            if delta.intersects(&st.sent) {
                self.retransmissions += 1;
            }
            st.sent.or(&delta);
            out.push(Msg::Gossip {
                from: self.id,
                to: v,
                seq: self.seq,
                items,
            });
            self.seq += 1;
        }
        out
    }

    /// Delivers one routed message (gossip or ack).
    pub fn on_message(&mut self, msg: &Msg) {
        match msg {
            Msg::Gossip {
                from, seq, items, ..
            } => {
                for &it in items {
                    self.knowledge.set(it);
                }
                // The sender provably knows what it sent, plus its own
                // item — fold that into the estimate if it is a target.
                if let Some(st) = self.target_mut(*from) {
                    for &it in items {
                        st.known.set(it);
                    }
                }
                // Acknowledge with a full knowledge summary; control
                // traffic only, never merged into knowledge on the
                // other side.
                self.pending.push(Msg::Ack {
                    from: self.id,
                    to: *from,
                    seq: *seq,
                    items: self.knowledge.items(),
                });
            }
            Msg::Ack { from, items, .. } => {
                if let Some(st) = self.target_mut(*from) {
                    for &it in items {
                        st.known.set(it);
                    }
                }
            }
            _ => {}
        }
    }

    /// End-of-round bookkeeping after the round's deliveries: stamps
    /// completion with `round` so the `done` announcement carries the
    /// round it actually happened in.
    pub fn end_round(&mut self, round: u64) {
        self.check_complete(round);
    }

    /// The `done` announcement, yielded exactly once after the node
    /// first holds all items.
    pub fn take_done(&mut self) -> Option<Msg> {
        self.done.take()
    }

    /// `true` once the node holds all `n` items.
    pub fn is_complete(&self) -> bool {
        self.complete_at.is_some()
    }

    /// Number of items currently held.
    pub fn items_known(&self) -> u32 {
        self.knowledge.count()
    }

    /// Gossip sends that repeated at least one already-sent item.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }
}

/// Splits a compiled protocol into per-vertex schedules:
/// `result[v][i]` = the targets vertex `v` sends to in round `i mod s`.
pub fn node_schedules(sp: &SystolicProtocol, n: usize) -> Vec<Vec<Vec<NodeId>>> {
    let s = sp.s();
    let mut out = vec![vec![Vec::new(); s]; n];
    for (i, round) in sp.period().iter().enumerate() {
        for arc in round.arcs() {
            out[arc.from as usize][i].push(arc.to);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graphs::digraph::Arc;
    use sg_protocol::mode::Mode;
    use sg_protocol::round::Round;

    fn two_path() -> SystolicProtocol {
        // P_2 full duplex: both arcs every round.
        SystolicProtocol::new(
            vec![Round::new(vec![Arc::new(0, 1), Arc::new(1, 0)])],
            Mode::FullDuplex,
        )
    }

    #[test]
    fn node_schedules_split_the_period_by_source() {
        let sp = two_path();
        let sched = node_schedules(&sp, 2);
        assert_eq!(sched[0], vec![vec![1]]);
        assert_eq!(sched[1], vec![vec![0]]);
    }

    #[test]
    fn delta_sends_and_ack_suppression() {
        let sched = node_schedules(&two_path(), 2);
        let mut a = SystolicNode::new(0, 2, sched[0].clone());
        let out = a.on_round(0);
        assert_eq!(out.len(), 1);
        let Msg::Gossip { items, seq, .. } = &out[0] else {
            panic!("expected gossip")
        };
        assert_eq!(items, &vec![0]);
        // The ack from node 1 reports it now knows both items: node 0's
        // next scheduled send has an empty delta and is suppressed.
        a.on_message(&Msg::Ack {
            from: 1,
            to: 0,
            seq: *seq,
            items: vec![0, 1],
        });
        assert!(a.on_round(1).is_empty());
        assert_eq!(a.retransmissions(), 0);
    }

    #[test]
    fn unacked_sends_retransmit_next_period() {
        let sched = node_schedules(&two_path(), 2);
        let mut a = SystolicNode::new(0, 2, sched[0].clone());
        assert_eq!(a.on_round(0).len(), 1);
        // No ack arrives (the message was dropped): the next period
        // re-fires the arc and re-sends the same item.
        let out = a.on_round(1);
        assert_eq!(out.len(), 1);
        assert_eq!(a.retransmissions(), 1);
    }

    #[test]
    fn gossip_merges_and_acks_report_the_merged_state() {
        let sched = node_schedules(&two_path(), 2);
        let mut b = SystolicNode::new(1, 2, sched[1].clone());
        assert_eq!(b.items_known(), 1);
        b.on_message(&Msg::Gossip {
            from: 0,
            to: 1,
            seq: 0,
            items: vec![0],
        });
        b.end_round(0);
        assert!(b.is_complete());
        assert_eq!(b.items_known(), 2);
        let done = b.take_done().expect("done once");
        assert_eq!(
            done,
            Msg::Done {
                from: 1,
                round: 0,
                count: 2
            }
        );
        assert!(b.take_done().is_none());
        // The queued ack flushes ahead of the round's gossip.
        let out = b.on_round(1);
        assert!(matches!(&out[0], Msg::Ack { items, .. } if items == &vec![0, 1]));
    }

    #[test]
    fn init_round_trips_through_the_wire_form() {
        let sched = node_schedules(&two_path(), 2);
        let node = SystolicNode::new(0, 2, sched[0].clone());
        let rebuilt = SystolicNode::from_init(&node.init_msg()).unwrap();
        assert_eq!(rebuilt.id(), 0);
        assert_eq!(rebuilt.items_known(), 1);
    }
}
