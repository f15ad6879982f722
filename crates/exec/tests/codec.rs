//! Property test of the JSONL codec: `decode` inverts `encode` over
//! generated messages, including the largest ids and counters the wire
//! carries, and rejects every proper prefix of an encoded line.

use proptest::prelude::*;
use sg_exec::{decode, encode, Msg, NodeId};

/// A node id biased toward the edges: `0`, `NodeId::MAX` (the driver's
/// tick sender), small ids, and the full range.
fn node_id() -> impl Strategy<Value = NodeId> {
    (0usize..4, 0u32..=NodeId::MAX).prop_map(|(k, x)| [0, NodeId::MAX, x % 64, x][k])
}

/// A `seq` or `round` counter in the decodable range `0..=i64::MAX`,
/// biased toward both ends.
fn counter() -> impl Strategy<Value = u64> {
    let max = i64::MAX as u64;
    (0usize..4, 0u64..=max).prop_map(move |(k, x)| [0, max, x % 1000, x][k])
}

/// All five message types, built from one set of draws.
fn messages() -> impl Strategy<Value = Vec<Msg>> {
    let ids = || proptest::collection::vec(node_id(), 0..6);
    let draws = (node_id(), node_id(), counter(), ids());
    (draws, proptest::collection::vec(ids(), 0..4)).prop_map(|((a, b, c, items), schedule)| {
        vec![
            Msg::Init {
                node: a,
                n: b,
                schedule,
            },
            Msg::Round { round: c, from: a },
            Msg::Gossip {
                from: a,
                to: b,
                seq: c,
                items: items.clone(),
            },
            Msg::Ack {
                from: b,
                to: a,
                seq: c,
                items,
            },
            Msg::Done {
                from: a,
                round: c,
                count: b,
            },
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn decode_inverts_encode(msgs in messages()) {
        for msg in msgs {
            let line = encode(&msg);
            prop_assert!(!line.contains('\n'), "line: {}", line);
            for cut in 0..line.len() {
                prop_assert!(decode(&line[..cut]).is_err(), "accepted {:?}", &line[..cut]);
            }
            prop_assert_eq!(decode(&line), Ok(msg), "line: {}", line);
        }
    }
}
