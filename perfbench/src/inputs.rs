//! The workloads and the inputs each one generates from its seed.
//!
//! The program under test only ever receives what is built here:
//! scenario descriptors for the batch workloads, request lines and an
//! arrival schedule for the daemon workload.

use sg_bounds::pfun::Period;
use sg_protocol::mode::Mode;
use sg_scenario::{registry, Scenario, Task};
use systolic_gossip::Network;

/// The seed the pinned completion rounds were recorded at.
pub const DEFAULT_SEED: u64 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    AuditPaper,
    SimUnstructured,
    SimStructured,
    EnumExact,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::AuditPaper,
        Workload::SimUnstructured,
        Workload::SimStructured,
        Workload::EnumExact,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::AuditPaper => "audit-paper",
            Workload::SimUnstructured => "sim-unstructured",
            Workload::SimStructured => "sim-structured",
            Workload::EnumExact => "enum-exact",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The registry scenarios `audit-paper` runs: every paper figure and the
/// validation suites that audit reference protocols against the bounds.
pub const PAPER_SCENARIOS: &[&str] = &[
    "fig4",
    "fig5",
    "fig5-highdeg",
    "fig6",
    "fig8",
    "fig-matrices",
    "zoo-bounds",
    "diameter-bounds",
    "diameter-bounds-weighted",
    "curves",
    "validate",
    "torus-sweep",
    "ccc-tour",
    "shuffle-exchange",
    "random-regular",
    "knodel-family",
];

/// The unstructured large instance: RR(5·10⁴, 3), graph seed = workload
/// seed. n sits exactly at the runner's sparse-engine threshold.
pub fn unstructured_net(seed: u64) -> Network {
    Network::RandomRegular {
        n: 50_000,
        d: 3,
        seed,
    }
}

/// The structured large instances, whose run-compressed rows keep the
/// sparse state small.
pub const STRUCTURED_NETS: [Network; 2] = [
    Network::Knodel {
        delta: 20,
        n: 1 << 20,
    },
    Network::Knodel {
        delta: 16,
        n: 100_000,
    },
];

/// One pass of a batch workload: the `run_batch` calls it makes, in
/// order. Each large-sim instance is its own call, so the peak resident
/// set never depends on which units happened to overlap.
pub fn batches(w: Workload, seed: u64) -> Vec<Vec<Scenario>> {
    match w {
        Workload::AuditPaper => {
            let reg = registry();
            let picked = PAPER_SCENARIOS
                .iter()
                .map(|name| {
                    reg.iter()
                        .find(|s| s.name == *name)
                        .unwrap_or_else(|| panic!("registry scenario `{name}` is missing"))
                        .clone()
                })
                .collect();
            vec![picked]
        }
        Workload::SimUnstructured => vec![vec![Scenario::new(
            "sim-unstructured",
            "RR(5·10⁴,3) half-duplex through the large-sim path",
            Task::Simulate,
            Mode::HalfDuplex,
        )
        .networks([unstructured_net(seed)])]],
        Workload::SimStructured => STRUCTURED_NETS
            .iter()
            .map(|&net| {
                vec![Scenario::new(
                    "sim-structured",
                    "Knödel full-duplex through the large-sim path",
                    Task::Simulate,
                    Mode::FullDuplex,
                )
                .networks([net])]
            })
            .collect(),
        Workload::EnumExact => {
            let mut scenarios: Vec<Scenario> = registry()
                .into_iter()
                .filter(|s| s.task == Task::Enumerate)
                .collect();
            // Two larger instances, one per enumeration path: an unseeded
            // directed instance takes the sequential incumbent DFS, an
            // undirected one the parallel exhaustive pass.
            scenarios.push(
                Scenario::new(
                    "enum-path7-directed",
                    "Directed P_7 at s = 4 (sequential incumbent DFS)",
                    Task::Enumerate,
                    Mode::Directed,
                )
                .networks([Network::Path { n: 7 }])
                .periods([Period::Systolic(4)]),
            );
            scenarios.push(
                Scenario::new(
                    "enum-cycle8-hd",
                    "Half-duplex C_8 at s = 4 (parallel exhaustive pass)",
                    Task::Enumerate,
                    Mode::HalfDuplex,
                )
                .networks([Network::Cycle { n: 8 }])
                .periods([Period::Systolic(4)]),
            );
            vec![scenarios]
        }
        Workload::ServeMixed => Vec::new(),
    }
}

/// A counter-based generator (splitmix64): the same seed gives the same
/// stream on every platform.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x005E_ED0F_5157_011C)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// The hot keys: cross-family queries, primed during set-up. The last
/// three are the costly ones to compute cold (a λ-search on DB(2,7)'s
/// reference protocol, a bound on Q₁₀, a certificate on Q₇), so priming
/// is real work through `core`, `delay` and `sim`; once primed, every
/// hot key is a memo lookup.
pub const HOT_LINES: &[&str] = &[
    r#"{"op":"bound","net":"hypercube:5","mode":"fd","period":4}"#,
    r#"{"op":"bound","net":"hypercube:5","mode":"fd","period":"inf"}"#,
    r#"{"op":"bound","net":"hypercube:6","mode":"hd","period":3}"#,
    r#"{"op":"bound","net":"cycle:16","mode":"fd","period":2}"#,
    r#"{"op":"bound","net":"cycle:16","mode":"fd","period":3}"#,
    r#"{"op":"bound","net":"path:32","mode":"hd","period":4}"#,
    r#"{"op":"bound","net":"complete:12","mode":"fd","period":3}"#,
    r#"{"op":"bound","net":"grid:6x6","mode":"hd","period":4}"#,
    r#"{"op":"bound","net":"torus:6x6","mode":"fd","period":4}"#,
    r#"{"op":"bound","net":"tree:2,5","mode":"hd","period":3}"#,
    r#"{"op":"bound","net":"db:2,6","mode":"hd","period":4}"#,
    r#"{"op":"bound","net":"dbdir:2,6","mode":"directed","period":4}"#,
    r#"{"op":"bound","net":"kautz:2,5","mode":"hd","period":4}"#,
    r#"{"op":"bound","net":"kautzdir:2,5","mode":"directed","period":3}"#,
    r#"{"op":"bound","net":"se:6","mode":"hd","period":4}"#,
    r#"{"op":"bound","net":"ccc:4","mode":"fd","period":4}"#,
    r#"{"op":"bound","net":"bf:2,4","mode":"hd","period":3}"#,
    r#"{"op":"bound","net":"wbf:2,4","mode":"fd","period":4}"#,
    r#"{"op":"bound","net":"wbfdir:2,4","mode":"directed","period":4}"#,
    r#"{"op":"bound","net":"knodel:3,16","mode":"fd","period":3}"#,
    r#"{"op":"bound","net":"rr:64,3,7","mode":"fd","period":4}"#,
    r#"{"op":"certificate","net":"path:16","mode":"hd"}"#,
    r#"{"op":"certificate","net":"cycle:16","mode":"fd"}"#,
    r#"{"op":"certificate","net":"hypercube:4","mode":"fd"}"#,
    r#"{"op":"certificate","net":"db:2,7","mode":"hd"}"#,
    r#"{"op":"bound","net":"hypercube:10","mode":"fd","period":4}"#,
    r#"{"op":"certificate","net":"hypercube:7","mode":"fd"}"#,
];

/// Offered rate of the open-loop phase, requests per second over both
/// connections. Unverified: the repository holds no record of the
/// traffic the daemon serves, so this is a chosen figure, low enough that
/// the cold keys rarely queue. It is well under 1% of the closed-loop
/// hot-key capacity, so the server thread mostly sleeps between requests,
/// and the open loop's p50 largely measures how long it takes to wake.
/// The open loop's latencies are therefore printed, not gated.
pub const OFFERED_RATE: f64 = 200.0;
/// Fewest requests an open-loop phase sends, so p99 has at least ten
/// samples beyond it.
pub const MIN_OPEN_REQUESTS: usize = 1000;
/// One request in this many is a cold key.
pub const COLD_EVERY: u64 = 10;

/// Requests in one mixed closed-loop round, over both connections.
pub const MIXED_ROUND_REQUESTS: usize = 400;

/// One request: the line and, in the open loop, when it is due, in
/// seconds after the phase starts.
#[derive(Debug, Clone)]
pub struct Timed {
    pub due: f64,
    pub line: String,
    pub cold: bool,
}

impl Timed {
    /// A hot key, sent as soon as the connection is free.
    pub fn hot(line: &str) -> Timed {
        Timed {
            due: 0.0,
            line: line.to_string(),
            cold: false,
        }
    }
}

/// The open-loop schedule: `count` requests at a fixed rate, drawn by
/// [`mixed_requests`] from the seed.
pub fn open_loop_schedule(seed: u64, count: usize) -> Vec<Timed> {
    mixed_requests(SplitMix::new(seed), count, 1.0 / OFFERED_RATE)
}

/// The requests of mixed closed-loop round `round`: the open loop's mix,
/// from a stream of its own, sent back to back.
pub fn mixed_round(seed: u64, round: usize) -> Vec<Timed> {
    let salt = (round as u64 + 1).wrapping_mul(0xA076_1D64_78BD_642F);
    mixed_requests(SplitMix::new(seed ^ salt), MIXED_ROUND_REQUESTS, 0.0)
}

/// `count` requests, the i-th due at `i · interval`: about nine in ten
/// on hot keys and the rest on distinct cold keys. Cold keys are bounds
/// on RR(128..512, 3) and full-duplex certificates on RR(16..64, 3), each
/// with its own graph seed drawn from the stream. Both cost at most
/// ~12 ms, about one request interval of an open-loop connection, so a
/// cold key rarely queues the requests behind it.
fn mixed_requests(mut rng: SplitMix, count: usize, interval: f64) -> Vec<Timed> {
    (0..count)
        .map(|i| {
            let due = i as f64 * interval;
            let cold = rng.below(COLD_EVERY) == 0;
            let line = if !cold {
                HOT_LINES[rng.below(HOT_LINES.len() as u64) as usize].to_string()
            } else {
                // Distinct per request: the index is part of the graph seed.
                let graph_seed = (rng.next_u64() >> 24) * 4096 + i as u64;
                // A 3-regular graph needs an even order.
                if rng.below(4) == 0 {
                    let n = 16 + 2 * rng.below(25);
                    format!(r#"{{"op":"certificate","net":"rr:{n},3,{graph_seed}","mode":"fd"}}"#)
                } else {
                    let n = 128 + 2 * rng.below(193);
                    format!(
                        r#"{{"op":"bound","net":"rr:{n},3,{graph_seed}","mode":"hd","period":4}}"#
                    )
                }
            };
            Timed { due, line, cold }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedules_repeat_per_seed_and_cold_keys_are_distinct() {
        let a = open_loop_schedule(3, 2000);
        let b = open_loop_schedule(3, 2000);
        assert!(a.iter().zip(&b).all(|(x, y)| x.line == y.line));
        let rounds: Vec<Vec<Timed>> = (0..20).map(|r| mixed_round(3, r)).collect();
        assert!(rounds[7]
            .iter()
            .zip(&mixed_round(3, 7))
            .all(|(x, y)| x.line == y.line));
        let cold_in = |ts: &[Timed]| ts.iter().filter(|t| t.cold).count();
        assert!(cold_in(&a) > 100 && cold_in(&a) < 300, "{}", cold_in(&a));
        let cold: Vec<&str> = a
            .iter()
            .chain(rounds.iter().flatten())
            .filter(|t| t.cold)
            .map(|t| t.line.as_str())
            .collect();
        let mut distinct = cold.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), cold.len());
        assert_ne!(open_loop_schedule(4, 50)[0].line, "");
    }

    #[test]
    fn every_workload_builds_its_inputs() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            if w != Workload::ServeMixed {
                assert!(!batches(w, DEFAULT_SEED).is_empty());
            }
        }
        assert_eq!(
            batches(Workload::AuditPaper, 1)[0].len(),
            PAPER_SCENARIOS.len()
        );
        assert_eq!(batches(Workload::EnumExact, 1)[0].len(), 10);
    }
}
