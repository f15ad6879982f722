//! The daemon workload: an in-process `sg_serve::Server` driven over
//! loopback TCP by two connections.
//!
//! * Set-up binds the server and primes the hot keys.
//! * An open loop sends the seeded schedule at a fixed rate, about nine
//!   requests in ten on hot keys and one on a distinct cold key. Each
//!   latency is timed from when its request was due, so a stall also
//!   counts against the requests queued behind it.
//! * Mixed closed-loop rounds then send the same mix back to back, each
//!   round a fixed number of fresh seeded requests on fresh connections.
//!   `wall_s` is the median round time: the server's time to answer a
//!   fixed amount of its traffic, cold computes included.
//! * Hot closed-loop rounds last send only hot keys; `max_qps` is the
//!   rate of the median round.
//!
//! The open loop's latencies (`p50_ms`, `p99_ms`) and `max_qps` are
//! printed but not in the JSON result. The offered rate is a chosen
//! figure, not taken from a record of the traffic the daemon serves (see
//! [`OFFERED_RATE`]). The hot rate swings by a third between runs on a
//! 2-CPU host, with the placement of two client and two server threads.
//!
//! Every open-loop reply and every sampled cold reply of the closed loop
//! must be `ok` and byte-identical to what a separate in-process
//! `QueryEngine` answers for the same line; every hot reply must equal
//! the primed one.

use crate::inputs::{
    mixed_round, open_loop_schedule, Timed, HOT_LINES, MIN_OPEN_REQUESTS, OFFERED_RATE,
};
use crate::stats::{cpu_seconds, mean, median, peak_rss_mib, percentile, reset_peak_rss};
use crate::trace::Tracer;
use crate::{layer_metrics, sample_note, Metrics, Outcome, RunArgs, Tally};
use sg_bounds::pfun::Period;
use sg_scenario::BuildCache;
use sg_search::certify_with;
use sg_serve::json::{self, Json};
use sg_serve::protocol::{error_reply, net_spec, ok_reply, Query, Request};
use sg_serve::{Client, QueryEngine, Server, ServerConfig};
use sg_sim::pool::systolic_gossip_time_pool;
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};
use systolic_gossip::Row;

/// Client connections, in both phases.
const CONNECTIONS: usize = 2;
/// Share of the run's seconds spent in the open loop.
const OPEN_SHARE: f64 = 0.25;
/// Mixed and hot closed-loop rounds per second of `--seconds`. The counts
/// are fixed, not timed, so that the memo ends the run the same size
/// however fast the host is. A mixed round takes about 0.11 s and a hot
/// one 0.06 s on the reference box, so the two loops take about 45% and
/// 20% of the run.
const MIXED_ROUNDS_PER_S: f64 = 4.0;
const HOT_ROUNDS_PER_S: f64 = 3.0;
/// Set-ups sampled before the one that is kept; the median of all is
/// reported.
const SETUP_SAMPLES: usize = 6;
/// Hot requests each connection sends in one hot round.
const HOT_ROUND_REQUESTS: usize = 2_000;
/// Fewest rounds of each closed loop a run makes, whatever `--seconds`
/// says.
const MIN_ROUNDS: usize = 5;
/// One cold reply in this many from the closed loop is compared with a
/// reference engine's; recomputing all of them would take longer than
/// the run.
const COLD_SAMPLE_EVERY: usize = 16;

struct Primed {
    server: Server,
    /// The server's reply to each hot line, in `HOT_LINES` order.
    hot_replies: Vec<String>,
}

fn bind_and_prime() -> Primed {
    let server = Server::bind(ServerConfig::default()).expect("bind a loopback server");
    let mut client = Client::connect(server.local_addr()).expect("connect to the server");
    let hot_replies = HOT_LINES
        .iter()
        .map(|l| client.roundtrip(l).expect("prime a hot key"))
        .collect();
    Primed {
        server,
        hot_replies,
    }
}

fn stop(server: Server) -> bool {
    server.handle().shutdown();
    server.join().drained
}

/// One set-up: the open-loop schedule of `count` requests from the seed,
/// then a server bound and its hot keys primed. Returns its time with
/// the schedule and the server.
fn set_up(seed: u64, count: usize) -> (f64, Vec<Timed>, Primed) {
    let t = Instant::now();
    let schedule = open_loop_schedule(seed, count);
    let primed = bind_and_prime();
    (t.elapsed().as_secs_f64(), schedule, primed)
}

/// The times of [`SETUP_SAMPLES`] set-ups, each server stopped at once.
fn sample_setups(seed: u64, count: usize) -> Vec<f64> {
    (0..SETUP_SAMPLES)
        .map(|_| {
            let (secs, _, primed) = set_up(seed, count);
            stop(primed.server);
            secs
        })
        .collect()
}

/// A reply line, or `None` when the round trip failed.
type Reply = Option<String>;

/// One open-loop request as sent.
struct Sent {
    /// Reply time minus due time, seconds.
    latency: f64,
    /// Send time minus due time, seconds.
    late: f64,
    reply: Option<String>,
}

/// How long the open-loop generator busy-waits around each request: before
/// it is due, and for its reply before blocking. On a virtual machine a
/// thread woken from sleep can take hundreds of microseconds to run, and
/// that delay is the generator's, not the server's.
const SPIN: Duration = Duration::from_millis(1);

fn wait_until(at: Instant) {
    let now = Instant::now();
    if at > now + SPIN {
        std::thread::sleep(at - now - SPIN);
    }
    while Instant::now() < at {
        std::hint::spin_loop();
    }
}

/// The open-loop generator's connection: one request line out, then the
/// reply is polled for [`SPIN`] before the read blocks.
struct SpinConn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl SpinConn {
    fn connect(addr: SocketAddr) -> std::io::Result<SpinConn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(SpinConn {
            stream,
            buf: Vec::with_capacity(1024),
        })
    }

    fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        let mut framed = String::with_capacity(line.len() + 1);
        framed.push_str(line);
        framed.push('\n');
        self.stream.set_nonblocking(false)?;
        self.stream.write_all(framed.as_bytes())?;
        self.stream.set_nonblocking(true)?;
        let spin_until = Instant::now() + SPIN;
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
                let reply: Vec<u8> = self.buf.drain(..=pos).collect();
                return Ok(String::from_utf8_lossy(&reply[..pos]).into_owned());
            }
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(k) => self.buf.extend_from_slice(&chunk[..k]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    if Instant::now() < spin_until {
                        std::hint::spin_loop();
                    } else {
                        self.stream.set_nonblocking(false)?;
                        let k = self.stream.read(&mut chunk);
                        self.stream.set_nonblocking(true)?;
                        match k? {
                            0 => return Err(ErrorKind::UnexpectedEof.into()),
                            k => self.buf.extend_from_slice(&chunk[..k]),
                        }
                    }
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }
}

/// Sends `schedule` on its timetable; returns each request's outcome in
/// schedule order and the phase's wall time (first due to last reply).
fn open_loop(addr: SocketAddr, schedule: &[Timed]) -> (Vec<Sent>, f64) {
    let clients: Vec<SpinConn> = (0..CONNECTIONS)
        .map(|_| SpinConn::connect(addr).expect("connect to the server"))
        .collect();
    let t0 = Instant::now() + Duration::from_millis(20);
    let mut sent: Vec<(usize, Sent, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    for i in (c..schedule.len()).step_by(CONNECTIONS) {
                        let due = t0 + Duration::from_secs_f64(schedule[i].due);
                        wait_until(due);
                        let at = Instant::now();
                        let reply = client.roundtrip(&schedule[i].line).ok();
                        let done = Instant::now();
                        let sent = Sent {
                            latency: (done - due).as_secs_f64(),
                            late: (at - due).as_secs_f64(),
                            reply,
                        };
                        out.push((i, sent, done));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("open-loop connection thread"))
            .collect()
    });
    sent.sort_by_key(|(i, _, _)| *i);
    let last = sent.iter().map(|(_, _, done)| *done).max().unwrap_or(t0);
    let wall = last.saturating_duration_since(t0).as_secs_f64();
    (sent.into_iter().map(|(_, s, _)| s).collect(), wall)
}

/// One closed-loop round on fresh connections. Each connection first
/// sends one hot key untimed, so the server has accepted it. Then
/// connection `c` sends `lines[c]`, `lines[c + CONNECTIONS]`, … back to
/// back. Returns the round's time (first timed send to last reply), the
/// untimed replies by connection, and the replies in `lines` order.
fn closed_round(addr: SocketAddr, lines: &[&str]) -> (f64, Vec<Reply>, Vec<Reply>) {
    let clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| Client::connect(addr).expect("connect to the server"))
        .collect();
    let ready = Barrier::new(CONNECTIONS);
    let per: Vec<(Instant, Instant, Reply, Vec<Reply>)> = std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(c, mut client)| {
                let ready = &ready;
                s.spawn(move || {
                    let warm = client.roundtrip(HOT_LINES[c]).ok();
                    ready.wait();
                    let started = Instant::now();
                    let replies = (c..lines.len())
                        .step_by(CONNECTIONS)
                        .map(|i| client.roundtrip(lines[i]).ok())
                        .collect();
                    (started, Instant::now(), warm, replies)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop connection thread"))
            .collect()
    });
    let first = per.iter().map(|p| p.0).min().expect("a connection");
    let last = per.iter().map(|p| p.1).max().expect("a connection");
    let mut replies = vec![None; lines.len()];
    let mut warm = Vec::new();
    for (c, (_, _, w, rs)) in per.into_iter().enumerate() {
        warm.push(w);
        for (k, r) in rs.into_iter().enumerate() {
            replies[c + k * CONNECTIONS] = r;
        }
    }
    ((last - first).as_secs_f64(), warm, replies)
}

/// The checks made on closed-loop replies as they arrive. A hot reply
/// must equal the primed one. A cold reply must be `ok`, and every
/// [`COLD_SAMPLE_EVERY`]-th is kept, to be compared with a reference
/// engine's once the server has stopped.
struct ClosedChecks<'a> {
    primed: HashMap<&'static str, &'a str>,
    cold_seen: usize,
    cold_samples: Vec<(String, Reply)>,
}

impl<'a> ClosedChecks<'a> {
    fn new(hot_replies: &'a [String]) -> Self {
        Self {
            primed: HOT_LINES
                .iter()
                .copied()
                .zip(hot_replies.iter().map(String::as_str))
                .collect(),
            cold_seen: 0,
            cold_samples: Vec::new(),
        }
    }

    fn round(&mut self, tally: &mut Tally, round: &[Timed], warm: Vec<Reply>, replies: Vec<Reply>) {
        for (line, w) in HOT_LINES.iter().zip(&warm) {
            let ok = w.as_deref() == self.primed.get(line).copied();
            tally.record(ok, || format!("untimed {line}: served {w:?}"));
        }
        for (t, reply) in round.iter().zip(replies) {
            let ok = if t.cold {
                self.cold_seen += 1;
                let ok = reply
                    .as_deref()
                    .is_some_and(|r| r.starts_with(r#"{"ok":true"#));
                if self.cold_seen % COLD_SAMPLE_EVERY == 0 {
                    self.cold_samples.push((t.line.clone(), reply.clone()));
                }
                ok
            } else {
                reply.as_deref() == self.primed.get(t.line.as_str()).copied()
            };
            tally.record(ok, || format!("closed loop {}: served {reply:?}", t.line));
        }
    }
}

/// The server's counters, from its `stats` op.
fn server_stats(addr: SocketAddr) -> HashMap<String, i64> {
    let line = Client::connect(addr)
        .and_then(|mut c| c.roundtrip(r#"{"op":"stats"}"#))
        .unwrap_or_default();
    let mut out = HashMap::new();
    if let Ok(Json::Obj(fields)) = json::parse(&line) {
        for (k, v) in fields {
            if let Some(i) = v.as_int() {
                out.insert(k, i);
            }
        }
    }
    out
}

/// The reply a fresh in-process engine gives for `line`.
fn reference_reply(engine: &QueryEngine, line: &str) -> String {
    match Request::parse(line) {
        Ok(req) => match engine.handle(&req.query) {
            Ok(body) => ok_reply(req.id, &body),
            Err(e) => error_reply(req.id, &e),
        },
        Err(e) => error_reply(None, &e),
    }
}

/// Everything the measured phases produced.
struct Traffic {
    schedule: Vec<Timed>,
    sent: Vec<Sent>,
    open_wall: f64,
    /// Each mixed closed-loop round's time.
    mixed_s: Vec<f64>,
    /// Each hot closed-loop round's time.
    hot_s: Vec<f64>,
    stats: HashMap<String, i64>,
    cpu_s: f64,
    /// Peak resident set of the measured phases, read after the server
    /// stopped and before the output checks.
    peak_rss: f64,
}

/// Set-up (repeated, median reported), both phases, then shutdown and
/// the output checks.
fn drive(args: &RunArgs, tally: &mut Tally) -> (Traffic, Vec<f64>) {
    let open_secs = args.seconds * OPEN_SHARE;
    let count = MIN_OPEN_REQUESTS.max((open_secs * OFFERED_RATE).round() as usize);
    let mut setups = sample_setups(args.seed, count);
    let (secs, schedule, primed) = set_up(args.seed, count);
    setups.push(secs);
    let Primed {
        server,
        hot_replies,
    } = primed;
    let addr = server.local_addr();

    reset_peak_rss();
    let cpu0 = cpu_seconds();
    let (sent, open_wall) = open_loop(addr, &schedule);

    // Both closed loops run in rounds of a fixed size, each on fresh
    // connections, so that one placement of client and server threads on
    // the CPUs does not decide the run.
    let rounds = |per_s: f64| MIN_ROUNDS.max((args.seconds * per_s).round() as usize);
    let mut closed = ClosedChecks::new(&hot_replies);
    let mut mixed_s = Vec::new();
    for r in 0..rounds(MIXED_ROUNDS_PER_S) {
        let round = mixed_round(args.seed, r);
        let lines: Vec<&str> = round.iter().map(|t| t.line.as_str()).collect();
        let (secs, warm, replies) = closed_round(addr, &lines);
        mixed_s.push(secs);
        closed.round(tally, &round, warm, replies);
    }
    let hot_round: Vec<Timed> = (0..CONNECTIONS * HOT_ROUND_REQUESTS)
        .map(|k| Timed::hot(HOT_LINES[k % HOT_LINES.len()]))
        .collect();
    let hot_lines: Vec<&str> = hot_round.iter().map(|t| t.line.as_str()).collect();
    let mut hot_s = Vec::new();
    for _ in 0..rounds(HOT_ROUNDS_PER_S) {
        let (secs, warm, replies) = closed_round(addr, &hot_lines);
        hot_s.push(secs);
        closed.round(tally, &hot_round, warm, replies);
    }
    let cold_samples = closed.cold_samples;
    let cpu_s = cpu_seconds() - cpu0;
    let stats = server_stats(addr);
    let drained = stop(server);
    tally.record(drained, || "the server did not drain on shutdown".into());
    // Read before the reference engine below adds its own memory.
    let peak_rss = peak_rss_mib();

    // Output checks against a reference engine, after the measured phases.
    let reference = QueryEngine::default();
    let mut expected: HashMap<&str, String> = HashMap::new();
    for (line, reply) in HOT_LINES.iter().zip(&hot_replies) {
        let want = reference_reply(&reference, line);
        tally.record(*reply == want && want.starts_with(r#"{"ok":true"#), || {
            format!("hot key {line}: served {reply}, expected {want}")
        });
    }
    for (t, s) in schedule.iter().zip(&sent) {
        let want = expected
            .entry(t.line.as_str())
            .or_insert_with(|| reference_reply(&reference, &t.line));
        let ok = s.reply.as_deref() == Some(want.as_str()) && want.starts_with(r#"{"ok":true"#);
        tally.record(ok, || {
            format!("{}: served {:?}, expected {want}", t.line, s.reply)
        });
    }
    for (line, reply) in &cold_samples {
        let want = reference_reply(&reference, line);
        tally.record(reply.as_deref() == Some(want.as_str()), || {
            format!("closed loop {line}: served {reply:?}, expected {want}")
        });
    }
    let traffic = Traffic {
        schedule,
        sent,
        open_wall,
        mixed_s,
        hot_s,
        stats,
        cpu_s,
        peak_rss,
    };
    (traffic, setups)
}

pub fn run(args: &RunArgs) -> Outcome {
    let mut tally = Tally::default();
    let (traffic, setups) = drive(args, &mut tally);
    let latencies: Vec<f64> = traffic.sent.iter().map(|s| s.latency).collect();
    let m = if args.trace {
        traced(&traffic, &mut tally)
    } else {
        let mut m = Metrics::new();
        m.set("setup_s", median(&setups));
        m.set("wall_s", median(&traffic.mixed_s));
        m.set("peak_rss_mib", traffic.peak_rss);
        m.set("max_qps", max_qps(&traffic.hot_s));
        m.set("p50_ms", 1e3 * percentile(&latencies, 0.50));
        m.set("p99_ms", 1e3 * percentile(&latencies, 0.99));
        m
    };
    Outcome {
        tally,
        metrics: m,
        samples: traffic.mixed_s.len(),
        notes: vec![
            sample_note("setup seconds", &setups),
            sample_note("mixed round seconds", &traffic.mixed_s),
            sample_note("hot round seconds", &traffic.hot_s),
            format!(
                "open loop: {} requests at {OFFERED_RATE} req/s over {:.3} s",
                latencies.len(),
                traffic.open_wall
            ),
        ],
    }
}

/// Completed requests per second of the median hot round.
fn max_qps(hot_s: &[f64]) -> f64 {
    (CONNECTIONS * HOT_ROUND_REQUESTS) as f64 / median(hot_s)
}

/// The uncached computation behind a cold key, call by call: the same
/// steps `QueryEngine` takes for a `bound` or `certificate` query.
fn cold_compute(q: &Query, cache: &BuildCache, tr: &Tracer) -> Row {
    let graph = |net| tr.span("graphs.build", || cache.digraph(net));
    let diameter = |net| tr.span("graphs.diameter", || cache.diameter(net));
    match q {
        Query::Bound { net, mode, period } => {
            let g = graph(net);
            let d = diameter(net);
            let ob = tr.span("core.oracle", || {
                cache.oracle().bounds_on(net, &g, d, *mode, *period)
            });
            Row::new()
                .with("op", "bound")
                .with("net", net_spec(net))
                .with("network", net.name())
                .with("n", g.vertex_count())
                .with("mode", mode.name())
                .with("period", period.label())
                .with("diameter", d)
                .with("floor_rounds", ob.floor_rounds)
                .with("floor_source", ob.floor_source.label())
                .with("asymptotic_rounds", ob.asymptotic_rounds)
                .with("lambda_star", ob.lambda_star)
                .with("best_rounds", ob.report.best_rounds)
        }
        Query::Certificate { net, mode } => {
            let g = graph(net);
            let d = diameter(net);
            let n = g.vertex_count();
            let (kind, sp) = tr
                .span("protocol.compile", || cache.protocol(net, *mode))
                .expect("cold certificate keys have a deterministic protocol");
            let budget = 40 * n + 200;
            let s = sp.period().len();
            let row = Row::new()
                .with("op", "certificate")
                .with("net", net_spec(net))
                .with("n", n)
                .with("mode", mode.name())
                .with("protocol", kind.label())
                .with("period", s);
            let found = tr.span("sim.dense", || systolic_gossip_time_pool(&sp, n, budget, 1));
            let Some(found) = found else {
                return row.with("verdict", "incomplete").with("budget", budget);
            };
            tr.count("sim.rounds", found as f64);
            // Warm the two memoized lookups `certify_with` makes, so each
            // gets its own span and the certificate span keeps only the
            // verdict logic.
            tr.span("core.oracle", || {
                cache
                    .oracle()
                    .bounds_on(net, &g, d, *mode, Period::Systolic(s))
            });
            tr.span("delay.lambda", || cache.oracle().protocol_bound(&sp, n));
            let cert = tr.span("search.certify", || {
                certify_with(cache.oracle(), net, &g, d, *mode, s, found, Some(&sp))
            });
            row.with("found_rounds", found)
                .with("floor_rounds", cert.floor_rounds)
                .with("floor_source", cert.floor_source.label())
                .with("gap_rounds", cert.gap_rounds())
                .with("protocol_bound_rounds", cert.protocol_bound_rounds)
                .with("verdict", cert.verdict.label())
        }
        other => panic!("the replay has no cold path for {other:?}"),
    }
}

/// Replays the open-loop schedule on one thread: each line is parsed,
/// hot keys go through a primed `QueryEngine::handle`, cold keys through
/// [`cold_compute`], and every reply is rendered. Returns the replies.
fn replay(schedule: &[Timed], engine: &QueryEngine, tr: &Tracer) -> Vec<String> {
    let cache = BuildCache::new();
    let replies = schedule
        .iter()
        .map(|t| {
            let req = tr
                .span("serve.parse", || Request::parse(&t.line))
                .expect("scheduled lines parse");
            let body = if t.cold {
                Ok(tr.span("serve.cold", || cold_compute(&req.query, &cache, tr)))
            } else {
                tr.span("serve.handle", || engine.handle(&req.query))
            };
            tr.span("core.report", || {
                let line = match body {
                    Ok(b) => ok_reply(req.id, &b),
                    Err(e) => error_reply(req.id, &e),
                };
                tr.count("core.report_bytes", line.len() as f64);
                line
            })
        })
        .collect();
    let cs = cache.stats().oracle;
    tr.count(
        "core.oracle_computes",
        (cs.computes + cs.protocol_computes) as f64,
    );
    replies
}

fn primed_engine() -> QueryEngine {
    let engine = QueryEngine::default();
    for l in HOT_LINES {
        let req = Request::parse(l).expect("hot lines parse");
        let _ = engine.handle(&req.query);
    }
    engine
}

fn traced(traffic: &Traffic, tally: &mut Tally) -> Metrics {
    let untraced = || {
        let engine = primed_engine();
        let t = Instant::now();
        replay(&traffic.schedule, &engine, &Tracer::new(false));
        t.elapsed().as_secs_f64()
    };
    let before = untraced();
    let tr = Tracer::new(true);
    let engine = primed_engine();
    let t = Instant::now();
    let replies = replay(&traffic.schedule, &engine, &tr);
    let traced_s = t.elapsed().as_secs_f64();
    let untraced_s = (before + untraced()) / 2.0;
    let same = replies
        .iter()
        .zip(&traffic.sent)
        .all(|(r, s)| s.reply.as_deref() == Some(r.as_str()));
    tally.record(same && replies.len() == traffic.sent.len(), || {
        "replayed replies differ from the served ones".into()
    });

    let layers = tr.layers();
    let mean_of = |name: &str| {
        layers
            .get(name)
            .map_or(0.0, |l| l.busy / l.calls.max(1) as f64)
    };
    let mut m = layer_metrics(&tr, traced_s, untraced_s);
    let parse_us = 1e6 * mean_of("serve.parse");
    let hot_us = 1e6 * mean_of("serve.handle");
    // Each connection sends its round's requests one after another.
    let round_trip_us = 1e6 * median(&traffic.hot_s) / HOT_ROUND_REQUESTS as f64;
    m.set("serve.parse_us", parse_us);
    m.set("serve.hot_us", hot_us);
    m.set("serve.wire_us", round_trip_us - parse_us - hot_us);
    m.set("serve.cold_ms", 1e3 * mean_of("serve.cold"));
    let stat = |k: &str| traffic.stats.get(k).copied().unwrap_or(0) as f64;
    m.set(
        "serve.memo_hit_ratio",
        stat("singleflight_hits") / stat("singleflight_lookups").max(1.0),
    );
    m.set("serve.computes", stat("singleflight_computes"));
    let late: Vec<f64> = traffic.sent.iter().map(|s| s.late).collect();
    m.set(
        "serve.late_ms",
        1e3 * late.iter().copied().fold(0.0, f64::max),
    );
    let shed = traffic
        .sent
        .iter()
        .filter(|s| {
            s.reply
                .as_deref()
                .is_some_and(|r| r.contains("\"overloaded\""))
        })
        .count();
    m.set("serve.shed", shed as f64);
    m.set("serve.closed_qps", max_qps(&traffic.hot_s));
    let hits = stat("graph_hits") + stat("protocol_hits");
    let builds = stat("graph_builds") + stat("protocol_builds");
    m.set("scenario.cache_hit_ratio", hits / (hits + builds).max(1.0));
    m.set("proc.cpu_s", traffic.cpu_s);
    m.set("proc.pass_s", traffic.open_wall);
    println!(
        "open loop: {} requests at {OFFERED_RATE} req/s, mean lateness {:.3} ms; \
         closed loop: {} mixed and {} hot rounds",
        traffic.sent.len(),
        1e3 * mean(&late),
        traffic.mixed_s.len(),
        traffic.hot_s.len()
    );
    m
}
