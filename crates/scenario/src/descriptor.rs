//! The [`Scenario`] descriptor: one named, declarative experiment.
//!
//! A scenario captures *what* to run — network list, communication mode,
//! period/degree sweep, task — as plain data. The batch executor in
//! [`crate::runner`] decides *how*: it expands every scenario into
//! independent work units, fans them out across a thread pool, and
//! memoizes built digraphs and periodic delay digraphs across sweep
//! points.

use sg_bounds::pfun::Period;
use sg_protocol::builders::full_duplex_coloring_periodic;
use sg_protocol::mode::Mode;
use sg_protocol::protocol::SystolicProtocol;
use systolic_gossip::Network;

/// What a scenario computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Lower-bound tables and per-network [`systolic_gossip::BoundReport`]s
    /// over the period sweep (the paper's Figs. 4, 5, 6, 8).
    Bound,
    /// Run each network's protocol, audit it against the theory, and
    /// record the per-round completion curve.
    Simulate,
    /// Measured executions / exact values vs bounds: protocol audits,
    /// greedy upper bounds, BFS-verified separators, weighted-diameter
    /// comparisons on directed shift networks.
    Compare,
    /// The matrix-construction figures (Figs. 1–3 and 7).
    Matrices,
    /// Protocol synthesis: hunt for optimal systolic schedules with
    /// `sg-search` and certify them against the lower bounds.
    Search,
    /// Exact optima: oracle-pruned exhaustive enumeration over every
    /// valid period-`s` schedule, issuing `ProvenOptimal` certificates
    /// (or exact infeasibility statements) for the period sweep.
    Enumerate,
    /// Distributed execution: run the network's protocol as a fleet of
    /// message-passing nodes through `sg-exec`'s deterministic driver,
    /// injecting faults from the scenario's [`ExecSpec`], and report
    /// rounds-to-completion against the fault-free optimum.
    Execute,
    /// Randomized baselines: seeded push/pull/exchange gossip trials
    /// (the scenario's [`RandomizedSpec`]) with mean/median/p95/max
    /// stopping times and the ratio to the exact systolic optimum or
    /// lower-bound floor on the same network.
    Randomized,
}

impl Task {
    /// Stable lowercase name (CLI surface).
    pub fn name(self) -> &'static str {
        match self {
            Task::Bound => "bound",
            Task::Simulate => "simulate",
            Task::Compare => "compare",
            Task::Matrices => "matrices",
            Task::Search => "search",
            Task::Enumerate => "enumerate",
            Task::Execute => "execute",
            Task::Randomized => "randomized",
        }
    }
}

/// Knobs of a [`Task::Search`] scenario: how hard each network × period
/// search works. Kept separate from `sg_search::SearchConfig` so the
/// descriptor stays plain data; the runner folds these into the full
/// config (periods come from the scenario's period sweep, threads from
/// the batch thread budget).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchSpec {
    /// Independent annealing chains per period.
    pub restarts: usize,
    /// Mutation/evaluation steps per chain.
    pub iterations: usize,
    /// Master seed (chains derive their own streams deterministically).
    pub seed: u64,
}

impl Default for SearchSpec {
    fn default() -> Self {
        Self {
            restarts: 6,
            iterations: 400,
            seed: 1997,
        }
    }
}

/// Knobs of a [`Task::Execute`] scenario: the declarative fault plan
/// the driver injects. Kept separate from `sg_exec::FaultPlan` so the
/// descriptor stays plain data; the runner folds these into the full
/// plan (threads come from the batch thread budget).
#[derive(Debug, Clone, PartialEq)]
pub struct ExecSpec {
    /// Master seed of the counter-based fault samplers.
    pub seed: u64,
    /// Per-message link drop probability in `[0, 1]`.
    pub drop_prob: f64,
    /// Extra delivery delay, uniform over `0..=max_delay` rounds.
    pub max_delay: u32,
    /// Crash events: `(node, first round down, first round back up)`;
    /// `None` = down forever. Knowledge survives the restart.
    pub crashes: Vec<(u32, u64, Option<u64>)>,
}

impl Default for ExecSpec {
    fn default() -> Self {
        Self {
            seed: 2026,
            drop_prob: 0.0,
            max_delay: 0,
            crashes: Vec::new(),
        }
    }
}

/// Knobs of a [`Task::Randomized`] scenario: how many independent
/// randomized-gossip trials run per activation model, and under which
/// master seed. Kept separate from `sg_sim::RandomizedConfig` so the
/// descriptor stays plain data; the runner folds these into the full
/// config (round budget from the batch sim budget, threads from the
/// batch thread budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomizedSpec {
    /// Independent trials per activation model.
    pub trials: usize,
    /// Master seed; trial `t` draws from counter-based
    /// `(seed, t, round)` streams, so batches are thread-count
    /// independent.
    pub seed: u64,
}

impl Default for RandomizedSpec {
    fn default() -> Self {
        Self {
            trials: 200,
            seed: 1997,
        }
    }
}

/// Knobs of a [`Task::Enumerate`] scenario. Kept separate from
/// `sg_search::EnumerateConfig` so the descriptor stays plain data; the
/// runner folds these into the full config.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnumerateSpec {
    /// Thread budget of the exhaustive pass; `0` (the default) inherits
    /// the batch thread budget (`--sim-threads`). Outcomes are
    /// bit-identical at any budget — this only trades wall-clock.
    pub threads: usize,
}

/// Arc-weight assignment for the Section 7 weighted-diameter comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightScheme {
    /// Every arc weighs 1.
    Unit,
    /// Weight 1 into even vertices, 3 into odd ones (the contrast case of
    /// the old `diameter_bounds` binary).
    ParityOneThree,
}

/// A value the paper states, re-derived and diffed on every run.
#[derive(Clone)]
pub struct PaperCheck {
    /// What the paper calls it.
    pub label: &'static str,
    /// The stated value.
    pub expected: f64,
    /// Allowed absolute deviation (the figures print 4 decimals).
    pub tol: f64,
    /// Recomputes the value from the engine.
    pub compute: fn() -> f64,
}

impl std::fmt::Debug for PaperCheck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PaperCheck")
            .field("label", &self.label)
            .field("expected", &self.expected)
            .field("tol", &self.tol)
            .finish_non_exhaustive()
    }
}

/// One named, declarative experiment.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Registry name (`sg-bench run <name>`).
    pub name: &'static str,
    /// One-line description (`sg-bench list`).
    pub summary: &'static str,
    /// What to compute.
    pub task: Task,
    /// Communication mode the scenario analyzes.
    pub mode: Mode,
    /// Concrete networks to run on (may be empty for pure-table
    /// scenarios).
    pub networks: Vec<Network>,
    /// Degree sweep for the separator-family tables (Figs. 5, 6, 8 rows);
    /// empty means only the general "any network" row.
    pub degrees: Vec<usize>,
    /// Period sweep (Figs. 4–8 columns; ignored by [`Task::Simulate`],
    /// which uses each protocol's own period).
    pub periods: Vec<Period>,
    /// Arc weights for directed-network diameter comparisons.
    pub weights: WeightScheme,
    /// Paper-stated values re-derived on every run.
    pub checks: Vec<PaperCheck>,
    /// Effort knobs for [`Task::Search`] scenarios (ignored elsewhere).
    pub search: SearchSpec,
    /// Fault plan for [`Task::Execute`] scenarios (ignored elsewhere).
    pub exec: ExecSpec,
    /// Knobs for [`Task::Enumerate`] scenarios (ignored elsewhere).
    pub enumerate: EnumerateSpec,
    /// Trial batch for [`Task::Randomized`] scenarios (ignored
    /// elsewhere).
    pub randomized: RandomizedSpec,
}

impl Scenario {
    /// A scenario skeleton with the given identity; fill the sweep fields
    /// with the builder methods.
    pub fn new(name: &'static str, summary: &'static str, task: Task, mode: Mode) -> Self {
        Self {
            name,
            summary,
            task,
            mode,
            networks: Vec::new(),
            degrees: Vec::new(),
            periods: Vec::new(),
            weights: WeightScheme::Unit,
            checks: Vec::new(),
            search: SearchSpec::default(),
            exec: ExecSpec::default(),
            enumerate: EnumerateSpec::default(),
            randomized: RandomizedSpec::default(),
        }
    }

    /// Sets the network list.
    pub fn networks(mut self, nets: impl IntoIterator<Item = Network>) -> Self {
        self.networks = nets.into_iter().collect();
        self
    }

    /// Sets the degree sweep.
    pub fn degrees(mut self, ds: impl IntoIterator<Item = usize>) -> Self {
        self.degrees = ds.into_iter().collect();
        self
    }

    /// Sets the period sweep.
    pub fn periods(mut self, ps: impl IntoIterator<Item = Period>) -> Self {
        self.periods = ps.into_iter().collect();
        self
    }

    /// Sets the weight scheme.
    pub fn weights(mut self, w: WeightScheme) -> Self {
        self.weights = w;
        self
    }

    /// Attaches paper checks.
    pub fn checks(mut self, cs: impl IntoIterator<Item = PaperCheck>) -> Self {
        self.checks = cs.into_iter().collect();
        self
    }

    /// Sets the execution fault plan.
    pub fn exec_spec(mut self, spec: ExecSpec) -> Self {
        self.exec = spec;
        self
    }

    /// Sets the randomized trial batch.
    pub fn randomized_spec(mut self, spec: RandomizedSpec) -> Self {
        self.randomized = spec;
        self
    }
}

/// Which deterministic protocol a network runs under — also the delay-
/// digraph memoization key, since each kind names one protocol per
/// network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtocolKind {
    /// The network's hand-built reference protocol.
    Reference,
    /// The universal half-duplex edge-coloring periodic protocol.
    EdgeColoring,
    /// The full-duplex coloring periodic protocol.
    FullDuplexColoring,
}

impl ProtocolKind {
    /// Stable kebab-case label for reports and wire replies.
    pub fn label(self) -> &'static str {
        match self {
            ProtocolKind::Reference => "reference",
            ProtocolKind::EdgeColoring => "edge-coloring",
            ProtocolKind::FullDuplexColoring => "full-duplex-coloring",
        }
    }
}

/// Picks the executable protocol for `net` in a scenario running under
/// `mode`. Directed and half-duplex scenarios take the network's
/// reference protocol (which already falls back to the universal
/// edge-coloring protocol on undirected networks); full-duplex scenarios
/// take the reference protocol only when it actually *is* full-duplex,
/// and otherwise the full-duplex coloring protocol — a half-duplex
/// protocol must never stand in for a full-duplex analysis. `None` for
/// directed shift networks, which have no deterministic protocol (the
/// executor falls back to weighted-diameter comparisons there).
pub fn protocol_for(
    net: &Network,
    g: &sg_graphs::digraph::Digraph,
    mode: Mode,
) -> Option<(ProtocolKind, SystolicProtocol)> {
    if mode == Mode::FullDuplex {
        if let Some(sp) = net.reference_protocol() {
            if sp.mode() == Mode::FullDuplex {
                return Some((ProtocolKind::Reference, sp));
            }
        }
        if net.is_directed() {
            return None;
        }
        return Some((
            ProtocolKind::FullDuplexColoring,
            full_duplex_coloring_periodic(g),
        ));
    }
    net.reference_protocol()
        .map(|sp| (ProtocolKind::Reference, sp))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_round_trip() {
        let s = Scenario::new("t", "test", Task::Bound, Mode::HalfDuplex)
            .networks([Network::Path { n: 8 }])
            .degrees([2, 3])
            .periods([Period::Systolic(4), Period::NonSystolic])
            .weights(WeightScheme::ParityOneThree);
        assert_eq!(s.networks.len(), 1);
        assert_eq!(s.degrees, vec![2, 3]);
        assert_eq!(s.periods.len(), 2);
        assert_eq!(s.weights, WeightScheme::ParityOneThree);
        assert_eq!(s.task.name(), "bound");
    }

    #[test]
    fn protocol_for_prefers_reference_then_coloring() {
        let path = Network::Path { n: 8 };
        let g = path.build();
        let (kind, _) = protocol_for(&path, &g, Mode::HalfDuplex).unwrap();
        assert_eq!(kind, ProtocolKind::Reference);

        // Shuffle-exchange has no hand-built protocol: the half-duplex
        // reference falls back to edge coloring inside
        // `reference_protocol`, so this is still Reference…
        let se = Network::ShuffleExchange { dd: 4 };
        let g = se.build();
        let got = protocol_for(&se, &g, Mode::HalfDuplex).unwrap();
        let sp = got.1;
        sp.validate(&g).expect("valid");

        // …while directed shift networks have none at all.
        let dbd = Network::DeBruijnDirected { d: 2, dd: 4 };
        let g = dbd.build();
        assert!(protocol_for(&dbd, &g, Mode::HalfDuplex).is_none());
        assert!(protocol_for(&dbd, &g, Mode::FullDuplex).is_none());
    }

    #[test]
    fn full_duplex_scenarios_never_get_half_duplex_protocols() {
        // Knödel's reference protocol is full-duplex: taken as-is.
        let knodel = Network::Knodel { delta: 4, n: 16 };
        let g = knodel.build();
        let (kind, sp) = protocol_for(&knodel, &g, Mode::FullDuplex).unwrap();
        assert_eq!(kind, ProtocolKind::Reference);
        assert_eq!(sp.mode(), Mode::FullDuplex);

        // Shuffle-exchange's reference is the *half-duplex* coloring:
        // a full-duplex scenario must get the full-duplex coloring
        // protocol instead, never the half-duplex one.
        let se = Network::ShuffleExchange { dd: 4 };
        let g = se.build();
        let (kind, sp) = protocol_for(&se, &g, Mode::FullDuplex).unwrap();
        assert_eq!(kind, ProtocolKind::FullDuplexColoring);
        assert_eq!(sp.mode(), Mode::FullDuplex);
        sp.validate(&g).expect("valid");
    }
}
