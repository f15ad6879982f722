//! The JSONL wire protocol: one request object per line in, one reply
//! object per line out.
//!
//! Requests are flat JSON objects with an `"op"` discriminator:
//!
//! ```text
//! {"op":"ping"}
//! {"op":"stats"}
//! {"op":"bound","net":"hypercube:6","mode":"fd","period":4}
//! {"op":"bound","net":"db:2,6","mode":"hd","period":"inf"}
//! {"op":"search","net":"cycle:8","mode":"fd","period":3,"seed":7,"restarts":4,"iterations":300}
//! {"op":"enumerate","net":"knodel:3,8","mode":"fd","period":3}
//! {"op":"certificate","net":"path:10","mode":"hd"}
//! {"op":"execute","net":"hypercube:3","mode":"fd"}
//! ```
//!
//! `net` takes the same `family:params` specs as `sg-bench sweep --net`
//! ([`Network::from_spec`]); `mode` takes the paper's mode names (or the
//! `hd` / `fd` shorthands); an optional integer `"id"` is echoed in the
//! reply so clients may pipeline. Replies always carry `"ok"`: `true`
//! with the result fields, or `false` with a human-readable `"error"`.
//! A malformed line never kills the connection — the reply describes the
//! problem and the next line is parsed fresh.

use systolic_gossip::json::{self, Json};
use systolic_gossip::sg_bounds::pfun::Period;
use systolic_gossip::sg_protocol::mode::Mode;
use systolic_gossip::{to_json_line, Network, Row};

/// Largest systolic period a request may name. Bound coefficients,
/// searches and enumerations are all parameterized by the period; the
/// cap keeps one request from demanding absurd schedule spaces.
pub const MAX_PERIOD: usize = 32;

/// Hard caps on the search-effort knobs a request may set.
pub const MAX_RESTARTS: usize = 64;
/// See [`MAX_RESTARTS`].
pub const MAX_ITERATIONS: usize = 100_000;

/// Default annealing restarts when the request does not say.
pub const DEFAULT_RESTARTS: usize = 4;
/// Default annealing iterations when the request does not say.
pub const DEFAULT_ITERATIONS: usize = 300;

/// One query, already validated.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Liveness probe, answered without touching the engine.
    Ping,
    /// Server + cache + single-flight counters.
    Stats,
    /// Lower bounds for `(net, mode, period)` through the shared oracle.
    Bound {
        /// The network.
        net: Network,
        /// Communication mode.
        mode: Mode,
        /// Systolic period, or the non-systolic limit (`"period":"inf"`).
        period: Period,
    },
    /// Annealing search for a good period-`period` schedule, certified.
    Search {
        /// The network.
        net: Network,
        /// Communication mode.
        mode: Mode,
        /// Exact systolic period to search.
        period: usize,
        /// Master seed (deterministic per seed).
        seed: u64,
        /// Annealing restarts (`1..=`[`MAX_RESTARTS`]).
        restarts: usize,
        /// Iterations per chain (`1..=`[`MAX_ITERATIONS`]).
        iterations: usize,
    },
    /// Exact branch-and-bound enumeration at one period.
    Enumerate {
        /// The network.
        net: Network,
        /// Communication mode.
        mode: Mode,
        /// Exact systolic period to enumerate.
        period: usize,
    },
    /// Audit the network's deterministic reference protocol: measured
    /// gossip time vs the Theorem 4.1 delay-matrix bound and the floors.
    Certificate {
        /// The network.
        net: Network,
        /// Communication mode.
        mode: Mode,
    },
    /// Run the network's deterministic protocol as a fault-free
    /// message-passing node fleet (sg-exec) and check the completion
    /// round against the lockstep simulator. Fault injection stays in
    /// `sg-bench execute` — a shared daemon only serves the
    /// deterministic, memoizable question.
    Execute {
        /// The network.
        net: Network,
        /// Communication mode.
        mode: Mode,
    },
    /// Occupy one in-flight slot for `ms` milliseconds, then reply.
    /// Only honored when the server enables it — test instrumentation
    /// for backpressure and drain behavior, never on by default.
    Sleep {
        /// How long to hold the slot (capped at 10 000 ms).
        ms: u64,
    },
}

/// One parsed request: the query plus the optional client-chosen id.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Echoed verbatim in the reply when present.
    pub id: Option<i64>,
    /// What to do.
    pub query: Query,
}

impl Request {
    /// Convenience constructor with no id.
    pub fn new(query: Query) -> Self {
        Self { id: None, query }
    }

    /// Renders the request as its one-line JSON wire form.
    /// [`Request::parse`] of the result gives back an equal request —
    /// the round-trip the property tests pin.
    pub fn to_line(&self) -> String {
        let mut row = Row::new();
        match &self.query {
            Query::Ping => row = row.with("op", "ping"),
            Query::Stats => row = row.with("op", "stats"),
            Query::Bound { net, mode, period } => {
                row = row
                    .with("op", "bound")
                    .with("net", net_spec(net))
                    .with("mode", mode.name());
                row = match period {
                    Period::Systolic(s) => row.with("period", *s),
                    Period::NonSystolic => row.with("period", "inf"),
                };
            }
            Query::Search {
                net,
                mode,
                period,
                seed,
                restarts,
                iterations,
            } => {
                row = row
                    .with("op", "search")
                    .with("net", net_spec(net))
                    .with("mode", mode.name())
                    .with("period", *period)
                    .with("seed", i64::try_from(*seed).unwrap_or(i64::MAX))
                    .with("restarts", *restarts)
                    .with("iterations", *iterations);
            }
            Query::Enumerate { net, mode, period } => {
                row = row
                    .with("op", "enumerate")
                    .with("net", net_spec(net))
                    .with("mode", mode.name())
                    .with("period", *period);
            }
            Query::Certificate { net, mode } => {
                row = row
                    .with("op", "certificate")
                    .with("net", net_spec(net))
                    .with("mode", mode.name());
            }
            Query::Execute { net, mode } => {
                row = row
                    .with("op", "execute")
                    .with("net", net_spec(net))
                    .with("mode", mode.name());
            }
            Query::Sleep { ms } => {
                row = row
                    .with("op", "sleep")
                    .with("ms", i64::try_from(*ms).unwrap_or(i64::MAX));
            }
        }
        if let Some(id) = self.id {
            row = row.with("id", id);
        }
        to_json_line(&row)
    }

    /// Parses one request line. Every failure is a description suitable
    /// for an `{"ok":false,"error":…}` reply; none of them are fatal to
    /// the connection.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = json::parse(line).map_err(|e| format!("bad JSON: {e}"))?;
        let Json::Obj(_) = v else {
            return Err("request must be a JSON object".into());
        };
        let id = match v.get("id") {
            None | Some(Json::Null) => None,
            Some(j) => Some(j.as_int().ok_or("`id` must be an integer")?),
        };
        let op = v
            .get("op")
            .ok_or("missing `op`")?
            .as_str()
            .ok_or("`op` must be a string")?;
        let query = match op {
            "ping" => Query::Ping,
            "stats" => Query::Stats,
            "bound" => {
                let (net, mode) = net_and_mode(&v)?;
                Query::Bound {
                    net,
                    mode,
                    period: parse_period_or_inf(&v)?,
                }
            }
            "search" => {
                let (net, mode) = net_and_mode(&v)?;
                Query::Search {
                    net,
                    mode,
                    period: parse_finite_period(&v)?,
                    seed: match v.get("seed") {
                        None | Some(Json::Null) => 1997,
                        Some(j) => {
                            let s = j.as_int().ok_or("`seed` must be an integer")?;
                            u64::try_from(s).map_err(|_| "`seed` must be non-negative")?
                        }
                    },
                    restarts: bounded_knob(&v, "restarts", DEFAULT_RESTARTS, MAX_RESTARTS)?,
                    iterations: bounded_knob(&v, "iterations", DEFAULT_ITERATIONS, MAX_ITERATIONS)?,
                }
            }
            "enumerate" => {
                let (net, mode) = net_and_mode(&v)?;
                Query::Enumerate {
                    net,
                    mode,
                    period: parse_finite_period(&v)?,
                }
            }
            "certificate" => {
                let (net, mode) = net_and_mode(&v)?;
                Query::Certificate { net, mode }
            }
            "execute" => {
                let (net, mode) = net_and_mode(&v)?;
                Query::Execute { net, mode }
            }
            "sleep" => {
                let ms = match v.get("ms") {
                    None | Some(Json::Null) => 0,
                    Some(j) => {
                        let ms = j.as_int().ok_or("`ms` must be an integer")?;
                        u64::try_from(ms).map_err(|_| "`ms` must be non-negative")?
                    }
                };
                Query::Sleep { ms: ms.min(10_000) }
            }
            other => {
                return Err(format!(
                    "unknown op `{other}` (ops: ping, stats, bound, search, enumerate, \
                     certificate, execute)"
                ))
            }
        };
        Ok(Request { id, query })
    }
}

/// Extracts and cross-validates the `net` and `mode` fields.
fn net_and_mode(v: &Json) -> Result<(Network, Mode), String> {
    let spec = v
        .get("net")
        .ok_or("missing `net` (a spec like `hypercube:6` or `knodel:3,8`)")?
        .as_str()
        .ok_or("`net` must be a string spec like `hypercube:6`")?;
    let net = Network::from_spec(spec)?;
    let mode = match v.get("mode") {
        None => return Err("missing `mode` (directed | half-duplex | full-duplex)".into()),
        Some(j) => match j.as_str() {
            Some("directed") => Mode::Directed,
            Some("half-duplex") | Some("hd") => Mode::HalfDuplex,
            Some("full-duplex") | Some("fd") => Mode::FullDuplex,
            Some(other) => return Err(format!("unknown mode `{other}`")),
            None => return Err("`mode` must be a string".into()),
        },
    };
    if mode.requires_symmetric_graph() && net.is_directed() {
        return Err(format!(
            "{} is directed and cannot run in {mode} mode (use `directed`)",
            net.name()
        ));
    }
    Ok((net, mode))
}

/// `period`: an integer in `2..=`[`MAX_PERIOD`].
fn parse_finite_period(v: &Json) -> Result<usize, String> {
    let j = v.get("period").ok_or("missing `period`")?;
    let s = j
        .as_int()
        .ok_or_else(|| "`period` must be an integer".to_string())?;
    if s < 2 || s as usize > MAX_PERIOD {
        return Err(format!(
            "period {s} out of range (systolic periods are 2..={MAX_PERIOD})"
        ));
    }
    Ok(s as usize)
}

/// `period`: a finite period or the strings `"inf"` / `"nonsystolic"`.
fn parse_period_or_inf(v: &Json) -> Result<Period, String> {
    match v.get("period") {
        Some(Json::Str(s)) if s == "inf" || s == "nonsystolic" || s == "∞" => {
            Ok(Period::NonSystolic)
        }
        Some(Json::Str(s)) => Err(format!(
            "period `{s}` is not an integer or `inf`/`nonsystolic`"
        )),
        _ => parse_finite_period(v).map(Period::Systolic),
    }
}

/// An optional positive integer knob with a default and a hard cap.
fn bounded_knob(v: &Json, key: &str, default: usize, cap: usize) -> Result<usize, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(default),
        Some(j) => {
            let n = j
                .as_int()
                .ok_or_else(|| format!("`{key}` must be an integer"))?;
            if n < 1 || n as usize > cap {
                return Err(format!("`{key}` out of range (1..={cap})"));
            }
            Ok(n as usize)
        }
    }
}

/// The canonical `family:params` spec of a network — the exact inverse
/// of [`Network::from_spec`], used to render requests and to key the
/// single-flight memo.
pub fn net_spec(net: &Network) -> String {
    match *net {
        Network::Path { n } => format!("path:{n}"),
        Network::Cycle { n } => format!("cycle:{n}"),
        Network::Complete { n } => format!("complete:{n}"),
        Network::DaryTree { d, h } => format!("tree:{d},{h}"),
        Network::Grid2d { w, h } => format!("grid:{w}x{h}"),
        Network::Torus2d { w, h } => format!("torus:{w}x{h}"),
        Network::Hypercube { k } => format!("hypercube:{k}"),
        Network::Butterfly { d, dd } => format!("bf:{d},{dd}"),
        Network::WrappedButterfly { d, dd } => format!("wbf:{d},{dd}"),
        Network::WrappedButterflyDirected { d, dd } => format!("wbfdir:{d},{dd}"),
        Network::DeBruijn { d, dd } => format!("db:{d},{dd}"),
        Network::DeBruijnDirected { d, dd } => format!("dbdir:{d},{dd}"),
        Network::Kautz { d, dd } => format!("kautz:{d},{dd}"),
        Network::KautzDirected { d, dd } => format!("kautzdir:{d},{dd}"),
        Network::ShuffleExchange { dd } => format!("se:{dd}"),
        Network::CubeConnectedCycles { k } => format!("ccc:{k}"),
        Network::Knodel { delta, n } => format!("knodel:{delta},{n}"),
        Network::RandomRegular { n, d, seed } => format!("rr:{n},{d},{seed}"),
    }
}

/// An upper estimate of the network's order *without building it*: the
/// `order_hint` closed forms where they exist, and generous parameter
/// closed forms for the word-graph families. Used to refuse oversized
/// queries before committing to an `O(n + m)` construction (or worse,
/// the `O(n·m)` diameter sweep behind a bound query).
pub fn order_estimate(net: &Network) -> usize {
    if let Some(n) = net.order_hint() {
        return n;
    }
    let pow = |d: usize, e: usize| d.saturating_pow(u32::try_from(e).unwrap_or(u32::MAX));
    match *net {
        Network::DaryTree { d, h } => pow(d.max(2), h + 1),
        Network::Butterfly { d, dd }
        | Network::WrappedButterfly { d, dd }
        | Network::WrappedButterflyDirected { d, dd } => (dd + 1).saturating_mul(pow(d, dd)),
        Network::DeBruijn { d, dd } | Network::DeBruijnDirected { d, dd } => pow(d, dd),
        Network::Kautz { d, dd } | Network::KautzDirected { d, dd } => {
            (d + 1).saturating_mul(pow(d, dd.saturating_sub(1)))
        }
        // Every hint-less family is covered above; `order_hint` supplied
        // the rest.
        _ => unreachable!("family without an order estimate"),
    }
}

/// The error reply for one request line.
pub fn error_reply(id: Option<i64>, message: &str) -> String {
    let mut row = Row::new().with("ok", false).with("error", message);
    if let Some(id) = id {
        row = row.with("id", id);
    }
    to_json_line(&row)
}

/// Renders an ok reply: the body fields behind `"ok":true`, plus the
/// echoed id.
pub fn ok_reply(id: Option<i64>, body: &Row) -> String {
    let mut row = Row::new().with("ok", true);
    row.fields.extend(body.fields.iter().cloned());
    if let Some(id) = id {
        row = row.with("id", id);
    }
    to_json_line(&row)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip() {
        let reqs = [
            Request::new(Query::Ping),
            Request {
                id: Some(7),
                query: Query::Stats,
            },
            Request::new(Query::Bound {
                net: Network::Hypercube { k: 6 },
                mode: Mode::FullDuplex,
                period: Period::Systolic(4),
            }),
            Request::new(Query::Bound {
                net: Network::DeBruijnDirected { d: 2, dd: 6 },
                mode: Mode::Directed,
                period: Period::NonSystolic,
            }),
            Request {
                id: Some(-3),
                query: Query::Search {
                    net: Network::Cycle { n: 8 },
                    mode: Mode::FullDuplex,
                    period: 3,
                    seed: 7,
                    restarts: 4,
                    iterations: 300,
                },
            },
            Request::new(Query::Enumerate {
                net: Network::Knodel { delta: 3, n: 8 },
                mode: Mode::FullDuplex,
                period: 3,
            }),
            Request::new(Query::Certificate {
                net: Network::Path { n: 10 },
                mode: Mode::HalfDuplex,
            }),
            Request {
                id: Some(12),
                query: Query::Execute {
                    net: Network::Hypercube { k: 3 },
                    mode: Mode::FullDuplex,
                },
            },
        ];
        for r in reqs {
            let line = r.to_line();
            assert_eq!(Request::parse(&line), Ok(r.clone()), "line: {line}");
        }
    }

    #[test]
    fn net_spec_inverts_from_spec_for_every_family() {
        let nets = [
            Network::Path { n: 9 },
            Network::Cycle { n: 12 },
            Network::Complete { n: 6 },
            Network::DaryTree { d: 2, h: 3 },
            Network::Grid2d { w: 4, h: 5 },
            Network::Torus2d { w: 4, h: 4 },
            Network::Hypercube { k: 5 },
            Network::Butterfly { d: 2, dd: 3 },
            Network::WrappedButterfly { d: 2, dd: 4 },
            Network::WrappedButterflyDirected { d: 2, dd: 4 },
            Network::DeBruijn { d: 2, dd: 5 },
            Network::DeBruijnDirected { d: 2, dd: 5 },
            Network::Kautz { d: 2, dd: 4 },
            Network::KautzDirected { d: 2, dd: 4 },
            Network::ShuffleExchange { dd: 5 },
            Network::CubeConnectedCycles { k: 3 },
            Network::Knodel { delta: 3, n: 8 },
            Network::RandomRegular {
                n: 16,
                d: 3,
                seed: 5,
            },
        ];
        for net in nets {
            let spec = net_spec(&net);
            assert_eq!(Network::from_spec(&spec), Ok(net), "spec: {spec}");
        }
    }

    #[test]
    fn rejects_out_of_range_and_mismatched_requests() {
        let cases = [
            (
                r#"{"op":"bound","net":"path:8","mode":"hd","period":1}"#,
                "out of range",
            ),
            (
                r#"{"op":"bound","net":"path:8","mode":"hd","period":33}"#,
                "out of range",
            ),
            (
                r#"{"op":"bound","net":"path:8","mode":"hd"}"#,
                "missing `period`",
            ),
            (
                r#"{"op":"bound","net":"dbdir:2,4","mode":"fd","period":4}"#,
                "directed",
            ),
            (
                r#"{"op":"bound","net":"zap:8","mode":"hd","period":4}"#,
                "zap",
            ),
            (r#"{"op":"launch"}"#, "unknown op"),
            (r#"{"op":"bound","mode":"hd","period":4}"#, "missing `net`"),
            (
                r#"{"op":"bound","net":"path:8","period":4}"#,
                "missing `mode`",
            ),
            (
                r#"{"op":"search","net":"path:8","mode":"hd","period":4,"restarts":0}"#,
                "out of range",
            ),
            (
                r#"{"op":"search","net":"path:8","mode":"hd","period":4,"iterations":1000000}"#,
                "out of range",
            ),
            (
                r#"{"op":"bound","net":"path:8","mode":"hd","period":"soon"}"#,
                "not an integer",
            ),
            (r#"[1,2,3]"#, "object"),
            (r#"{"op":"bou"#, "bad JSON"),
        ];
        for (line, want) in cases {
            let err = Request::parse(line).expect_err(line);
            assert!(err.contains(want), "`{line}` → `{err}` (wanted `{want}`)");
        }
    }

    #[test]
    fn order_estimates_cover_every_family() {
        // Hinted families are exact; word families upper-bound the true
        // order (checked against a real build at small parameters).
        for net in [
            Network::DaryTree { d: 2, h: 4 },
            Network::Butterfly { d: 2, dd: 3 },
            Network::WrappedButterfly { d: 2, dd: 4 },
            Network::DeBruijn { d: 2, dd: 5 },
            Network::Kautz { d: 2, dd: 4 },
            Network::KautzDirected { d: 2, dd: 4 },
        ] {
            let est = order_estimate(&net);
            let real = net.build().vertex_count();
            assert!(est >= real, "{}: estimate {est} < real {real}", net.name());
        }
        assert_eq!(order_estimate(&Network::Hypercube { k: 10 }), 1024);
    }
}
