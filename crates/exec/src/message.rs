//! The typed wire messages and their JSONL codec.
//!
//! Every message is one JSON object per line — the maelstrom convention —
//! so a node behind the stdio transport and a node stepped in-process
//! speak byte-identical protocol. [`encode`] writes the five message
//! types by hand; [`decode`] reads them back through the workspace's one
//! JSON parser, [`systolic_gossip::json`].

use std::fmt::Write as _;
use systolic_gossip::json::{self, Json};

/// Index of a vertex in the executed network; doubles as the node
/// address on the wire.
pub type NodeId = u32;

/// One wire message. `Gossip` and `Ack` are the only messages the
/// driver routes through the faulty transport; `Init`/`Round`/`Done`
/// are control-plane and always reliable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// Driver → node: identity, network order, and the node's slice of
    /// the compiled period (`schedule[i]` = targets of round `i mod s`).
    Init {
        /// The vertex this node runs.
        node: NodeId,
        /// Network order (= number of gossip items).
        n: u32,
        /// Per-round-in-period send targets.
        schedule: Vec<Vec<NodeId>>,
    },
    /// Driver → node: round tick. A node behind the wire transport
    /// echoes the tick back (with `from` set) as the fence closing its
    /// batch of sends for the round.
    Round {
        /// 0-based global round index.
        round: u64,
        /// `NodeId::MAX` from the driver; the echoing node's id on the
        /// fence reply.
        from: NodeId,
    },
    /// Node → node payload: the items of knowledge the sender believes
    /// the receiver is missing, captured at the beginning of the round.
    Gossip {
        /// Sending vertex.
        from: NodeId,
        /// Receiving vertex.
        to: NodeId,
        /// Per-sender sequence number (the retransmission key).
        seq: u64,
        /// Item ids carried (sorted).
        items: Vec<u32>,
    },
    /// Node → node control: a knowledge *summary* — everything the
    /// acking node currently knows. Updates the receiver's `others_know`
    /// estimate and is never merged into its knowledge, so the payload
    /// channel stays exactly the scheduled systolic arcs.
    Ack {
        /// Acking vertex.
        from: NodeId,
        /// Vertex whose gossip is being acknowledged.
        to: NodeId,
        /// Per-sender sequence number.
        seq: u64,
        /// Item ids the acking node knows (sorted).
        items: Vec<u32>,
    },
    /// Node → driver: emitted exactly once, when the node first holds
    /// all `n` items.
    Done {
        /// The completed vertex.
        from: NodeId,
        /// Round at which completion was observed.
        round: u64,
        /// Items held (= `n`).
        count: u32,
    },
}

impl Msg {
    /// Stable lowercase tag (the wire `type` field).
    pub fn kind(&self) -> &'static str {
        match self {
            Msg::Init { .. } => "init",
            Msg::Round { .. } => "round",
            Msg::Gossip { .. } => "gossip",
            Msg::Ack { .. } => "ack",
            Msg::Done { .. } => "done",
        }
    }

    /// The destination vertex, for messages the driver routes between
    /// nodes (`Gossip`/`Ack`); `None` for control-plane messages.
    pub fn dest(&self) -> Option<NodeId> {
        match self {
            Msg::Gossip { to, .. } | Msg::Ack { to, .. } => Some(*to),
            _ => None,
        }
    }

    /// The originating vertex (`NodeId::MAX` on driver-issued ticks).
    pub fn src(&self) -> NodeId {
        match self {
            Msg::Init { node, .. } => *node,
            Msg::Round { from, .. }
            | Msg::Gossip { from, .. }
            | Msg::Ack { from, .. }
            | Msg::Done { from, .. } => *from,
        }
    }

    /// The per-sender sequence number of routed messages.
    pub fn seq(&self) -> Option<u64> {
        match self {
            Msg::Gossip { seq, .. } | Msg::Ack { seq, .. } => Some(*seq),
            _ => None,
        }
    }
}

fn push_items(out: &mut String, key: &str, items: &[u32]) {
    let _ = write!(out, ",\"{key}\":[");
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{it}");
    }
    out.push(']');
}

/// Encodes a message as one JSON line (no trailing newline).
pub fn encode(msg: &Msg) -> String {
    let mut out = String::new();
    match msg {
        Msg::Init { node, n, schedule } => {
            let _ = write!(
                out,
                "{{\"type\":\"init\",\"node\":{node},\"n\":{n},\"schedule\":["
            );
            for (i, round) in schedule.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                for (j, t) in round.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{t}");
                }
                out.push(']');
            }
            out.push_str("]}");
        }
        Msg::Round { round, from } => {
            let _ = write!(
                out,
                "{{\"type\":\"round\",\"round\":{round},\"from\":{from}}}"
            );
        }
        Msg::Gossip {
            from,
            to,
            seq,
            items,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"gossip\",\"from\":{from},\"to\":{to},\"seq\":{seq}"
            );
            push_items(&mut out, "items", items);
            out.push('}');
        }
        Msg::Ack {
            from,
            to,
            seq,
            items,
        } => {
            let _ = write!(
                out,
                "{{\"type\":\"ack\",\"from\":{from},\"to\":{to},\"seq\":{seq}"
            );
            push_items(&mut out, "items", items);
            out.push('}');
        }
        Msg::Done { from, round, count } => {
            let _ = write!(
                out,
                "{{\"type\":\"done\",\"from\":{from},\"round\":{round},\"count\":{count}}}"
            );
        }
    }
    out
}

/// Why a line failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err<T>(msg: impl Into<String>) -> Result<T, WireError> {
    Err(WireError(msg.into()))
}

fn as_u64(v: &Json, key: &str) -> Result<u64, WireError> {
    v.as_int()
        .and_then(|i| u64::try_from(i).ok())
        .ok_or_else(|| WireError(format!("field `{key}` must be a non-negative integer")))
}

fn as_u32(v: &Json, key: &str) -> Result<u32, WireError> {
    u32::try_from(as_u64(v, key)?).map_err(|_| WireError(format!("field `{key}` exceeds u32")))
}

fn as_ids(v: &Json, key: &str) -> Result<Vec<u32>, WireError> {
    match v {
        Json::Arr(xs) => xs.iter().map(|x| as_u32(x, key)).collect(),
        _ => err(format!("field `{key}` must be an integer array")),
    }
}

/// Decodes one JSON line into a message: a typed layer over the
/// workspace parser, [`systolic_gossip::json`], which caps nesting
/// depth, so hostile lines return `Err` instead of exhausting the stack.
///
/// Rejects numbers above `i64::MAX`, negative numbers, leading zeros
/// and duplicate keys, none of which [`encode`] emits while `seq` and
/// `round` stay at or below `i64::MAX`.
pub fn decode(line: &str) -> Result<Msg, WireError> {
    let v = json::parse(line).map_err(|e| WireError(e.to_string()))?;
    if !matches!(v, Json::Obj(_)) {
        return err("expected a JSON object");
    }
    let field = |key: &str| {
        v.get(key)
            .ok_or_else(|| WireError(format!("missing field `{key}`")))
    };
    let u32_field = |key: &str| as_u32(field(key)?, key);
    let u64_field = |key: &str| as_u64(field(key)?, key);
    let ty = field("type")?
        .as_str()
        .ok_or_else(|| WireError("field `type` must be a string".into()))?;
    match ty {
        "init" => {
            let Json::Arr(rounds) = field("schedule")? else {
                return err("field `schedule` must be an array of rounds");
            };
            Ok(Msg::Init {
                node: u32_field("node")?,
                n: u32_field("n")?,
                schedule: rounds
                    .iter()
                    .map(|r| as_ids(r, "schedule"))
                    .collect::<Result<_, _>>()?,
            })
        }
        "round" => Ok(Msg::Round {
            round: u64_field("round")?,
            from: u32_field("from")?,
        }),
        "gossip" => Ok(Msg::Gossip {
            from: u32_field("from")?,
            to: u32_field("to")?,
            seq: u64_field("seq")?,
            items: as_ids(field("items")?, "items")?,
        }),
        "ack" => Ok(Msg::Ack {
            from: u32_field("from")?,
            to: u32_field("to")?,
            seq: u64_field("seq")?,
            items: as_ids(field("items")?, "items")?,
        }),
        "done" => Ok(Msg::Done {
            from: u32_field("from")?,
            round: u64_field("round")?,
            count: u32_field("count")?,
        }),
        other => err(format!(
            "unknown message type `{other}` (types: init, round, gossip, ack, done)"
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Msg> {
        vec![
            Msg::Init {
                node: 3,
                n: 8,
                schedule: vec![vec![2, 4], vec![], vec![3]],
            },
            Msg::Round {
                round: 7,
                from: NodeId::MAX,
            },
            Msg::Gossip {
                from: 1,
                to: 2,
                seq: 12,
                items: vec![0, 1, 4],
            },
            Msg::Ack {
                from: 2,
                to: 1,
                seq: 12,
                items: vec![],
            },
            Msg::Done {
                from: 5,
                round: 9,
                count: 8,
            },
        ]
    }

    #[test]
    fn encode_decode_round_trip() {
        for msg in samples() {
            let line = encode(&msg);
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(decode(&line).unwrap(), msg, "{line}");
        }
    }

    #[test]
    fn encoding_is_plain_jsonl() {
        let line = encode(&Msg::Gossip {
            from: 1,
            to: 2,
            seq: 3,
            items: vec![7],
        });
        assert_eq!(
            line,
            "{\"type\":\"gossip\",\"from\":1,\"to\":2,\"seq\":3,\"items\":[7]}"
        );
    }

    #[test]
    fn decode_rejects_malformed_lines() {
        for bad in [
            "",
            "{",
            "{}",
            "{\"type\":\"nope\"}",
            "{\"type\":\"round\",\"round\":1}",
            "{\"type\":\"gossip\",\"from\":1,\"to\":2,\"seq\":3,\"items\":[\"x\"]}",
            "{\"type\":\"done\",\"from\":1,\"round\":2,\"count\":3}x",
            // Lines `encode` never emits: above i64::MAX, negative, a
            // leading zero, a duplicate key, above u32, a fraction.
            "{\"type\":\"round\",\"round\":9223372036854775808,\"from\":1}",
            "{\"type\":\"round\",\"round\":-1,\"from\":1}",
            "{\"type\":\"round\",\"round\":01,\"from\":1}",
            "{\"type\":\"round\",\"round\":1,\"round\":2,\"from\":1}",
            "{\"type\":\"round\",\"round\":1,\"from\":4294967296}",
            "{\"type\":\"round\",\"round\":1.0,\"from\":1}",
        ] {
            assert!(decode(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn deeply_nested_schedule_is_an_error_not_a_stack_overflow() {
        let deep = "[".repeat(200_000) + &"]".repeat(200_000);
        let line = format!("{{\"type\":\"init\",\"node\":0,\"n\":1,\"schedule\":{deep}}}");
        assert!(matches!(decode(&line), Err(WireError(_))));
    }

    #[test]
    fn decode_tolerates_whitespace_and_field_order() {
        let line = " { \"round\" : 4 , \"from\" : 9 , \"type\" : \"round\" } ";
        assert_eq!(decode(line).unwrap(), Msg::Round { round: 4, from: 9 });
    }
}
