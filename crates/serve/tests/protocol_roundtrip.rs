//! Property tests of the JSONL wire protocol: every request type
//! serializes to a line that parses back to an equal request, network
//! specs invert across all 18 families at arbitrary parameters, reply
//! framing survives hostile message content, and hostile strings make
//! the shared JSON parser and both wire decoders return, never panic.

use proptest::prelude::*;
use sg_serve::json::{self, Json};
use sg_serve::protocol::{
    error_reply, net_spec, ok_reply, Query, Request, MAX_ITERATIONS, MAX_PERIOD, MAX_RESTARTS,
};
use systolic_gossip::sg_bounds::pfun::Period;
use systolic_gossip::sg_protocol::mode::Mode;
use systolic_gossip::{Network, Row};

/// One of the 18 families, parameterized by two small draws.
fn network(fam: usize, a: usize, b: usize) -> Network {
    match fam % 18 {
        0 => Network::Path { n: a },
        1 => Network::Cycle { n: a },
        2 => Network::Complete { n: a },
        3 => Network::DaryTree { d: a, h: b },
        4 => Network::Grid2d { w: a, h: b },
        5 => Network::Torus2d { w: a, h: b },
        6 => Network::Hypercube { k: a },
        7 => Network::Butterfly { d: a, dd: b },
        8 => Network::WrappedButterfly { d: a, dd: b },
        9 => Network::WrappedButterflyDirected { d: a, dd: b },
        10 => Network::DeBruijn { d: a, dd: b },
        11 => Network::DeBruijnDirected { d: a, dd: b },
        12 => Network::Kautz { d: a, dd: b },
        13 => Network::KautzDirected { d: a, dd: b },
        14 => Network::ShuffleExchange { dd: b },
        15 => Network::CubeConnectedCycles { k: a },
        16 => Network::Knodel { delta: a, n: 2 * b },
        17 => Network::RandomRegular {
            n: 2 * a,
            d: 3,
            seed: b as u64,
        },
        _ => unreachable!(),
    }
}

/// A mode compatible with the network (directed networks only run in
/// directed mode — [`Request::parse`] enforces exactly that).
fn mode_for(net: &Network, m: usize) -> Mode {
    if net.is_directed() {
        Mode::Directed
    } else {
        [Mode::Directed, Mode::HalfDuplex, Mode::FullDuplex][m % 3]
    }
}

/// Fragments that steer random strings into every parser branch.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    "\\u",
    "\\ud83d",
    "\\udc00",
    "-",
    "01",
    "7",
    "1e",
    ".5",
    "true",
    "nul",
    "null",
    "9223372036854775808",
    "\"type\"",
    "\"init\"",
    "\"schedule\"",
    "\"op\"",
    "\"bound\"",
    "\"net\"",
];

/// Up to 64 pieces, each a token, an ASCII character (controls
/// included) or any character at all.
fn hostile_string() -> impl Strategy<Value = String> {
    let piece = (0usize..3, 0usize..TOKENS.len(), 0u32..0x11_0000);
    proptest::collection::vec(piece, 0..64).prop_map(|pieces| {
        let piece = |(k, t, c): (usize, usize, u32)| match k {
            0 => TOKENS[t].to_string(),
            1 => char::from(c as u8 & 0x7f).to_string(),
            _ => char::from_u32(c).unwrap_or('\u{fffd}').to_string(),
        };
        pieces.into_iter().map(piece).collect()
    })
}

/// Builds one request from raw draws; `op` selects the query type.
#[allow(clippy::too_many_arguments)]
fn request(
    op: usize,
    id: i64,
    fam: usize,
    a: usize,
    b: usize,
    m: usize,
    s: usize,
    knobs: (u64, usize, usize),
) -> Request {
    let net = network(fam, a, b);
    let mode = mode_for(&net, m);
    let (seed, restarts, iterations) = knobs;
    let query = match op % 7 {
        0 => Query::Ping,
        1 => Query::Stats,
        2 => Query::Bound {
            net,
            mode,
            period: if s == MAX_PERIOD {
                Period::NonSystolic
            } else {
                Period::Systolic(s)
            },
        },
        3 => Query::Search {
            net,
            mode,
            period: s.min(MAX_PERIOD - 1),
            seed,
            restarts,
            iterations,
        },
        4 => Query::Enumerate {
            net,
            mode,
            period: s.min(MAX_PERIOD - 1),
        },
        5 => Query::Certificate { net, mode },
        6 => Query::Sleep { ms: seed % 10_001 },
        _ => unreachable!(),
    };
    // Half the draws carry an id (negative ids included).
    let id = (id % 2 == 0).then_some(id / 2);
    Request { id, query }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `parse(to_line(r)) == r` for every request shape.
    #[test]
    fn request_wire_form_round_trips(
        op in 0usize..7,
        id in -10_000i64..10_000,
        fam in 0usize..18,
        a in 1usize..9,
        b in 1usize..9,
        m in 0usize..3,
        s in 2usize..=MAX_PERIOD,
        seed in 0u64..1_000_000,
        restarts in 1usize..=MAX_RESTARTS,
        iterations in 1usize..=MAX_ITERATIONS,
    ) {
        let req = request(op, id, fam, a, b, m, s, (seed, restarts, iterations));
        let line = req.to_line();
        prop_assert_eq!(Request::parse(&line), Ok(req), "line: {}", line);
    }

    /// `from_spec(net_spec(net)) == net` across all families and params.
    #[test]
    fn net_specs_invert(fam in 0usize..18, a in 1usize..50, b in 1usize..50) {
        let net = network(fam, a, b);
        let spec = net_spec(&net);
        prop_assert_eq!(Network::from_spec(&spec), Ok(net), "spec: {}", spec);
    }

    /// Error replies frame hostile message content losslessly: quotes,
    /// backslashes, control bytes, non-ASCII.
    #[test]
    fn error_replies_survive_hostile_messages(
        codes in proptest::collection::vec(0u32..0x500, 0..40),
        id in -500i64..500,
        with_id in 0usize..2,
    ) {
        let msg: String = codes
            .iter()
            .filter_map(|&c| char::from_u32(c))
            .collect();
        let id = (with_id == 1).then_some(id);
        let line = error_reply(id, &msg);
        let v = json::parse(&line).expect("reply is valid JSON");
        prop_assert_eq!(v.get("ok").and_then(Json::as_bool), Some(false));
        prop_assert_eq!(v.get("error").and_then(Json::as_str), Some(msg.as_str()));
        prop_assert_eq!(v.get("id").and_then(Json::as_int), id);
    }

    #[test]
    fn hostile_strings_never_panic_the_parsers(s in hostile_string()) {
        let _ = json::parse(&s);
        let _ = sg_exec::decode(&s);
        let _ = Request::parse(&s);
    }

    /// Ok replies carry the body fields and echo the id.
    #[test]
    fn ok_replies_echo_bodies_and_ids(
        n in 1usize..100_000,
        f in -1.0e6f64..1.0e6,
        id in -500i64..500,
    ) {
        let body = Row::new()
            .with("op", "bound")
            .with("n", n)
            .with("asymptotic_rounds", f)
            .with("feasible", true);
        let line = ok_reply(Some(id), &body);
        let v = json::parse(&line).expect("reply is valid JSON");
        prop_assert_eq!(v.get("ok").and_then(Json::as_bool), Some(true));
        prop_assert_eq!(v.get("op").and_then(Json::as_str), Some("bound"));
        prop_assert_eq!(v.get("n").and_then(Json::as_int), Some(n as i64));
        prop_assert_eq!(v.get("feasible").and_then(Json::as_bool), Some(true));
        prop_assert_eq!(v.get("id").and_then(Json::as_int), Some(id));
        let back = v.get("asymptotic_rounds").and_then(Json::as_f64).unwrap();
        prop_assert!((back - f).abs() <= 1e-9 * f.abs().max(1.0), "{} vs {}", back, f);
    }
}
