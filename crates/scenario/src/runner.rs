//! The parallel batch executor.
//!
//! [`run_batch`] expands every scenario into independent work units —
//! one family-table row, one network under the scenario's task, the
//! matrix figures, or the paper-check set — fans the units out with
//! [`sg_sim::fan_out()`] over the thread budget, and reassembles the
//! per-unit results into deterministic, scenario-ordered outcomes.
//! Expensive intermediates (built digraphs, measured diameters, periodic
//! delay digraphs, protocols, symmetry groups) are shared across all
//! units through a [`crate::cache::BuildCache`], so a period sweep pays
//! for its network once and repeated λ-searches share one delay
//! structure.
//!
//! A network unit dispatches on [`Task`] once. The tasks share their
//! decisions through plain functions: `dense_graph` is the only place
//! that judges the network order against `BatchOptions::large_sim_min_n`
//! (default `LARGE_SIM_MIN_N`, 50 000) — by `order_hint()` when the
//! family has one, else by the built graph's real order — and each task
//! passes it its own refusal; `valid_protocol` looks up and validates
//! the deterministic protocol; `refuse_dense_worst_case` refuses units
//! whose rows densify past the memory budget; `skip_nonsystolic` reports
//! `s = ∞` entries of search and enumeration sweeps. A skipped unit
//! returns its report as `Err`, so every early exit is a `?`.
//!
//! One global thread budget covers both levels of parallelism: when there
//! are fewer units than budgeted threads, the leftover threads go *into*
//! the units — a dense gossip time at n ≥ 2048 runs the item-sliced
//! engine's 256-item slices on the unit's share of threads
//! (`sg_sim::pool::systolic_gossip_time_pool`), so a batch of three big
//! compare units on a 16-thread budget runs 3 units × 5 slice threads
//! instead of 3 × 1. Simulate units at large order never materialize the
//! n²-bit table. They run `sg_sim::sliced::run_systolic_large`, which
//! picks the engine by memory with no knob: the sparse row engine
//! while its row state stays within one 256-item slice's working set
//! (n · 32 bytes), then, from the first round it does not, a restart on
//! the item-sliced engine across the unit's thread budget. The four
//! engines: compiled (dense), sparse (large), item-sliced (large, and
//! dense gossip times at n ≥ 2048 on more than one thread), and the
//! `reference` oracle.

use crate::cache::{BuildCache, CacheStats};
use crate::descriptor::{PaperCheck, ProtocolKind, Scenario, Task, WeightScheme};
use crate::tables::{assemble_table, family_row, family_specs, FamilySpec};
use sg_bounds::e_general_nonsystolic;
use sg_bounds::pfun::Period;
use sg_bounds::tables::{FigRow, FigTable};
use sg_delay::bound::BoundOpts;
use sg_delay::digraph::DelayDigraph;
use sg_delay::fullduplex::full_duplex_mx;
use sg_delay::local::LocalMatrices;
use sg_delay::weighted::weighted_diameter_bound;
use sg_graphs::digraph::Digraph;
use sg_graphs::weighted::WeightedDigraph;
use sg_protocol::local::BlockPattern;
use sg_protocol::mode::Mode;
use sg_protocol::protocol::SystolicProtocol;
use sg_sim::fan_out;
use sg_sim::greedy::greedy_gossip;
use sg_sim::pool::systolic_gossip_time_pool;
use sg_sim::sliced::{run_systolic_large, slice_bytes, SLICE_ITEMS};
use sg_sim::trace::knowledge_curve;
use std::sync::Arc;
use systolic_gossip::{audit_measured, ceil_log2, Network, Row};

/// Knobs of one batch run.
#[derive(Debug, Clone, Copy)]
pub struct BatchOptions {
    /// Thread *budget* — the global budget shared by unit-level fan-out
    /// and within-unit parallelism (`0` = one per available core,
    /// capped at 16: the one place in the workspace where `0` means
    /// that; every other thread budget reads `0` as sequential). Every
    /// thread budget follows one rule, [`sg_sim::fan_out()`]'s: a budget
    /// of `t` means `t` threads working, the calling thread counted —
    /// `t − 1` are spawned and the caller works too — so a budget of 1
    /// runs strictly sequentially and spawns nothing.
    pub threads: usize,
    /// Thread budget within one unit (`0` = derive: leftover budget
    /// when there are fewer units than threads): the item-sliced
    /// engine's slice threads for dense gossip times and large
    /// simulations, the enumerator's and annealer's workers. Same
    /// convention: `1` means sequential, nothing spawned.
    pub sim_threads: usize,
    /// Options for every λ-search / norm evaluation.
    pub bound_opts: BoundOpts,
    /// Simulation round budget per protocol execution.
    pub sim_budget: usize,
    /// Order at which simulate units abandon the dense `Knowledge`
    /// table for the sparse and item-sliced engines, compare and
    /// execute units refuse to run, and randomized units measure
    /// against the doubling floor (defaults to `LARGE_SIM_MIN_N`,
    /// 50 000). The gate checks `order_hint()` first — so hinted
    /// families never even build the graph — and falls back to the
    /// built graph's real order for the hint-less families (trees,
    /// butterflies, de Bruijn, Kautz).
    pub large_sim_min_n: usize,
}

impl Default for BatchOptions {
    fn default() -> Self {
        Self {
            threads: 0,
            sim_threads: 0,
            bound_opts: BoundOpts::default(),
            sim_budget: 1_000_000,
            large_sim_min_n: LARGE_SIM_MIN_N,
        }
    }
}

impl BatchOptions {
    /// The resolved global thread budget (`threads`, or one per
    /// available core capped at 16 when 0). Public so the CLI can echo
    /// the value actually used.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(16)
    }

    /// Splits the global budget: with `units` work items and `outer`
    /// unit-level workers, each unit may use `budget / outer` threads
    /// of its own, so the total stays within the budget.
    fn within_unit_threads(&self, units: usize) -> usize {
        if self.sim_threads > 0 {
            return self.sim_threads;
        }
        let budget = self.effective_threads();
        let outer = budget.min(units.max(1));
        (budget / outer.max(1)).max(1)
    }
}

/// Below this network size a dense gossip time stays on the sequential
/// compiled engine whatever the unit's thread budget; from it up, a
/// budget above one runs the item-sliced engine on that many threads.
/// The slice plan (BFS relabelling, per-round arc sort) is a fixed cost
/// per call, so the sliced engine pays off only on long runs. In
/// BENCH_sim.json's engine ablation on two threads it loses ~1.6 ms to
/// compiled on the 11-round hypercube/2048 (2.9 against 1.2 ms), runs
/// level with it on the 127-round grid/4096 (min 21 against 24 ms,
/// medians 31 against 25 ms on a noisy 2-CPU host), and a 255-round
/// 128×128 grid takes ~0.54 s sliced against ~1.35 s compiled. At 2048
/// a short run loses under 2 ms per unit; no registry scenario has a
/// dense unit this large, so only ad-hoc sweeps reach the branch.
const WITHIN_UNIT_PARALLEL_MIN_N: usize = 2048;

/// The default of [`BatchOptions::large_sim_min_n`]: from this order
/// up, a simulate unit abandons the dense `Knowledge` table (n² bits —
/// 125 GB at n = 10⁶) and the Ω(n²) bound/audit machinery for the
/// sparse row engine and, once its rows stop compressing, the
/// item-sliced engine: exact completion times without the n²-bit
/// table.
const LARGE_SIM_MIN_N: usize = 50_000;

/// Row-storage budget for large sparse units: a run whose sparse state
/// exceeds it is aborted with an explanatory report instead of an OOM
/// kill. Rows that densify hand off to the item-sliced engine at one
/// slice's working set (n · 32 bytes) long before, so only n beyond
/// ~2·10⁸ can reach it. Random-regular units are still refused upfront
/// when the dense n²/8 bytes exceed it.
const LARGE_SIM_MEM_LIMIT: usize = 6 << 30;

/// One re-derived paper value.
#[derive(Debug, Clone)]
pub struct CheckOutcome {
    /// What the paper calls it.
    pub label: String,
    /// The stated value.
    pub expected: f64,
    /// What the engine computes.
    pub got: f64,
    /// Within tolerance?
    pub ok: bool,
}

/// Everything one scenario produced.
#[derive(Debug, Clone, Default)]
pub struct ScenarioOutcome {
    /// Scenario name.
    pub name: String,
    /// One-line description.
    pub summary: String,
    /// Streamable result rows (JSON/CSV surface).
    pub rows: Vec<Row>,
    /// The assembled family table, when the task produces one.
    pub table: Option<FigTable>,
    /// Human-readable per-unit blocks, unit order.
    pub text: Vec<String>,
    /// Paper-check results.
    pub checks: Vec<CheckOutcome>,
}

impl ScenarioOutcome {
    /// `true` when every paper check matched.
    pub fn checks_ok(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The scenario as a human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = format!("== {} — {} ==\n", self.name, self.summary);
        if let Some(t) = &self.table {
            out.push('\n');
            out.push_str(&t.render());
        }
        for block in &self.text {
            out.push('\n');
            out.push_str(block);
            if !block.ends_with('\n') {
                out.push('\n');
            }
        }
        if !self.checks.is_empty() {
            out.push_str("\npaper checks:\n");
            for c in &self.checks {
                out.push_str(&format!(
                    "  {:<24} paper {:<8.4} computed {:<8.4} {}\n",
                    c.label,
                    c.expected,
                    c.got,
                    if c.ok { "match" } else { "MISMATCH" }
                ));
            }
        }
        out
    }
}

/// The result of [`run_batch`].
#[derive(Debug, Clone)]
pub struct BatchReport {
    /// Per-scenario outcomes, in input order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Memoization counters for the whole batch.
    pub cache: CacheStats,
}

impl BatchReport {
    /// `true` when every scenario's paper checks matched.
    pub fn checks_ok(&self) -> bool {
        self.outcomes.iter().all(|o| o.checks_ok())
    }

    /// All rows of all scenarios, each tagged with its scenario name.
    pub fn tagged_rows(&self) -> Vec<Row> {
        let mut out = Vec::new();
        for o in &self.outcomes {
            for r in &o.rows {
                let mut tagged = Row::new().with("scenario", o.name.as_str());
                tagged.fields.extend(r.fields.iter().cloned());
                out.push(tagged);
            }
        }
        out
    }
}

/// One independent work unit; a `Network` unit runs the scenario's
/// task on one network.
enum Unit {
    FamilyRow { spec: FamilySpec },
    Network { net: Network },
    Matrices,
    Checks { checks: Vec<PaperCheck> },
}

/// What one unit produced.
#[derive(Default)]
struct UnitOut {
    rows: Vec<Row>,
    fig_row: Option<FigRow>,
    text: Option<String>,
    checks: Vec<CheckOutcome>,
}

impl UnitOut {
    /// A text block alone; `UnitOut { rows, ..UnitOut::text(t) }` adds
    /// rows.
    fn text(text: String) -> Self {
        Self {
            text: Some(text),
            ..Self::default()
        }
    }
}

/// A per-network unit's result: `Err` carries the report of a unit
/// that was skipped or refused, so every early exit is a `?`.
type NetOut = Result<UnitOut, UnitOut>;

/// Expands `scenario` into its independent units.
fn units_of(scenario: &Scenario) -> Vec<Unit> {
    let mut units = Vec::new();
    if scenario.task == Task::Matrices {
        units.push(Unit::Matrices);
    } else {
        // A family table when there is a degree sweep (Figs. 5, 6, 8)
        // or nothing but the general row to show (Fig. 4); scenarios
        // that only list concrete networks get per-network reports.
        let family_table = scenario.task == Task::Bound
            && !scenario.periods.is_empty()
            && (!scenario.degrees.is_empty() || scenario.networks.is_empty());
        if family_table {
            let specs = family_specs(scenario.mode, &scenario.degrees);
            units.extend(specs.into_iter().map(|spec| Unit::FamilyRow { spec }));
        }
        units.extend(scenario.networks.iter().map(|&net| Unit::Network { net }));
    }
    if !scenario.checks.is_empty() {
        units.push(Unit::Checks {
            checks: scenario.checks.clone(),
        });
    }
    units
}

/// Runs a batch of scenarios across a worker pool, reusing built
/// structures through one shared cache.
pub fn run_batch(scenarios: &[Scenario], opts: &BatchOptions) -> BatchReport {
    let cache = BuildCache::new();
    // Flatten, in (scenario, unit) order: (scenario index, unit).
    let work: Vec<(usize, Unit)> = scenarios
        .iter()
        .enumerate()
        .flat_map(|(si, sc)| units_of(sc).into_iter().map(move |unit| (si, unit)))
        .collect();

    let sim_threads = opts.within_unit_threads(work.len());
    let mut finished: Vec<(usize, UnitOut)> =
        fan_out(opts.effective_threads(), work.len(), Vec::new, |done, i| {
            let (si, unit) = &work[i];
            let cx = UnitCx {
                scenario: &scenarios[*si],
                cache: &cache,
                opts,
                sim_threads,
            };
            done.push((i, run_unit(unit, &cx)));
        })
        .into_iter()
        .flatten()
        .collect();
    finished.sort_by_key(|(i, _)| *i);

    let mut outcomes: Vec<ScenarioOutcome> = scenarios
        .iter()
        .map(|sc| ScenarioOutcome {
            name: sc.name.to_string(),
            summary: sc.summary.to_string(),
            ..Default::default()
        })
        .collect();
    let mut fig_rows: Vec<Vec<FigRow>> = vec![Vec::new(); scenarios.len()];
    for (i, out) in finished {
        let si = work[i].0;
        let o = &mut outcomes[si];
        o.rows.extend(out.rows);
        if let Some(r) = out.fig_row {
            fig_rows[si].push(r);
        }
        if let Some(t) = out.text {
            o.text.push(t);
        }
        o.checks.extend(out.checks);
    }
    for (si, rows) in fig_rows.into_iter().enumerate() {
        if !rows.is_empty() {
            outcomes[si].table = Some(assemble_table(
                scenarios[si].summary,
                &scenarios[si].periods,
                rows,
            ));
        }
    }
    BatchReport {
        outcomes,
        cache: cache.stats(),
    }
}

/// What a unit reads besides its own parameters.
struct UnitCx<'a> {
    scenario: &'a Scenario,
    cache: &'a BuildCache,
    opts: &'a BatchOptions,
    /// This unit's share of the thread budget.
    sim_threads: usize,
}

impl UnitCx<'_> {
    /// `true` from [`BatchOptions::large_sim_min_n`] up: the order at
    /// which nothing dense (n²-bit tables, per-node fleets) is built.
    fn is_large(&self, n: usize) -> bool {
        n >= self.opts.large_sim_min_n
    }

    /// Threads for a dense order-`n` gossip time: the unit's share from
    /// [`WITHIN_UNIT_PARALLEL_MIN_N`] up, one below it.
    fn row_threads(&self, n: usize) -> usize {
        if n >= WITHIN_UNIT_PARALLEL_MIN_N {
            self.sim_threads
        } else {
            1
        }
    }
}

fn run_unit(unit: &Unit, cx: &UnitCx) -> UnitOut {
    match unit {
        Unit::FamilyRow { spec } => family_row_unit(spec, cx),
        Unit::Network { net } => match cx.scenario.task {
            Task::Bound => network_bounds_unit(net, cx),
            Task::Simulate => simulate_unit(net, cx),
            Task::Compare => compare_unit(net, cx),
            Task::Search => search_unit(net, cx),
            Task::Enumerate => enumerate_unit(net, cx),
            Task::Execute => execute_unit(net, cx),
            Task::Randomized => randomized_unit(net, cx),
            Task::Matrices => unreachable!("a matrices scenario expands to one matrices unit"),
        }
        .unwrap_or_else(|skipped| skipped),
        Unit::Matrices => matrices_unit(),
        Unit::Checks { checks } => checks_unit(checks),
    }
}

/// The dense-vs-large order decision, the one place every task makes
/// it: the built graph, or `refuse(n)`'s report when it has one for the
/// network's order `n`. The order is judged by `order_hint()` first, so
/// hinted families at large order never build anything, and then by
/// the built graph's real order for the hint-less families (trees,
/// butterflies, de Bruijn, Kautz): a `db:2,17` has hint `None` but
/// order 131 072, and a dense n²-bit table there would be an OOM, not a
/// slowdown. The digraph itself is only O(n + m), so building it to
/// learn n is safe.
fn dense_graph(
    net: &Network,
    cx: &UnitCx,
    refuse: impl Fn(usize) -> Option<UnitOut>,
) -> Result<Arc<Digraph>, UnitOut> {
    if let Some(refused) = net.order_hint().and_then(&refuse) {
        return Err(refused);
    }
    let g = cx.cache.digraph(net);
    match refuse(g.vertex_count()) {
        Some(refused) => Err(refused),
        None => Ok(g),
    }
}

/// The skip text of a network without a deterministic protocol in
/// `mode`.
fn no_protocol(net: &Network, mode: Mode) -> UnitOut {
    UnitOut::text(format!(
        "{}: no deterministic protocol in {mode} mode — skipped",
        net.name()
    ))
}

/// The network's deterministic protocol in the scenario's mode, from
/// the batch's shared memo (a serve daemon or a second scenario asking
/// for the same pair reuses the build), validated on `g`.
fn valid_protocol(
    net: &Network,
    cx: &UnitCx,
    g: &Digraph,
) -> Result<(ProtocolKind, Arc<SystolicProtocol>), UnitOut> {
    let mode = cx.scenario.mode;
    let (kind, sp) = cx
        .cache
        .protocol(net, mode)
        .ok_or_else(|| no_protocol(net, mode))?;
    sp.validate(g)
        .map_err(|e| UnitOut::text(format!("{}: invalid protocol — {e}", net.name())))?;
    Ok((kind, sp))
}

/// A result row's leading `kind` and `network` fields.
fn net_row(kind: &str, net: &Network) -> Row {
    Row::new().with("kind", kind).with("network", net.name())
}

/// A 64-bit counter as a row integer, saturating at `i64::MAX`.
fn saturating_i64(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

fn gib(bytes: usize) -> f64 {
    bytes as f64 / (1u64 << 30) as f64
}

/// Refuses an order-`n` unit whose rows densify toward the dense n²/8
/// bytes whatever the topology, when even that worst case exceeds
/// [`LARGE_SIM_MEM_LIMIT`] — rather than burn minutes to a guaranteed
/// abort. The refusal is `row` marked `skipped-mem` plus a line naming
/// `what` densifies, the two sizes, and `tail`.
fn refuse_dense_worst_case(
    net: &Network,
    n: usize,
    row: Row,
    what: &str,
    tail: &str,
) -> Option<UnitOut> {
    let worst = (n / 8).saturating_mul(n);
    (worst > LARGE_SIM_MEM_LIMIT).then(|| UnitOut {
        rows: vec![row.with("verdict", "skipped-mem")],
        ..UnitOut::text(format!(
            "{}: {what} rows densify — worst-case sparse state ≈ {:.1} GiB exceeds the \
             {:.1} GiB budget, skipped{tail}\n",
            net.name(),
            gib(worst),
            gib(LARGE_SIM_MEM_LIMIT),
        ))
    })
}

/// Reports an `s = ∞` entry of a `search` or `enumerate` period sweep
/// as skipped rather than dropping it: both need a finite period.
fn skip_nonsystolic(
    kind: &str,
    net: &Network,
    n: usize,
    cx: &UnitCx,
    rows: &mut Vec<Row>,
    text: &mut String,
) {
    text.push_str(&format!(
        "{}: s = ∞ has no finite period to {kind} — skipped\n",
        net.name()
    ));
    rows.push(
        net_row(kind, net)
            .with("n", n)
            .with("mode", cx.scenario.mode.name())
            .with("s", "∞")
            .with("verdict", "skipped"),
    );
}

/// Runs the network's protocol as a message-passing fleet through
/// `sg-exec`'s deterministic driver: once fault-free (the conformance
/// point, checked against the lockstep simulator's round count) and —
/// when the scenario's [`crate::descriptor::ExecSpec`] injects anything
/// — once under the declared fault plan, reporting the round and
/// message cost of the faults. The protocol build is shared through
/// [`BuildCache::protocol`] with every other unit in the batch.
fn execute_unit(net: &Network, cx: &UnitCx) -> NetOut {
    use sg_exec::{execute_protocol, Crash, DriverConfig, FaultPlan};
    // Per-node fleets are dense in n.
    let g = dense_graph(net, cx, |n| {
        cx.is_large(n).then(|| {
            UnitOut::text(format!(
                "{}: order {n} ≥ {} — the execution fleet is skipped at this size",
                net.name(),
                cx.opts.large_sim_min_n
            ))
        })
    })?;
    let n = g.vertex_count();
    let (kind, sp) = valid_protocol(net, cx, &g)?;
    // The fault-free optimum of *this* protocol, from the lockstep
    // engine — the yardstick every executed run diverges from.
    let optimum = systolic_gossip_time_pool(&sp, n, cx.opts.sim_budget, cx.row_threads(n));
    let spec = &cx.scenario.exec;
    let budget = optimum
        .map_or(40 * n + 200, |t| 40 * t + 200)
        .max(spec.crashes.iter().filter_map(|c| c.2).max().unwrap_or(0) as usize + 40 * n)
        as u64;
    let cfg = DriverConfig {
        threads: cx.row_threads(n),
        max_rounds: budget,
        record_events: false,
    };
    let plan = FaultPlan {
        seed: spec.seed,
        drop_prob: spec.drop_prob,
        max_delay: spec.max_delay,
        crashes: spec
            .crashes
            .iter()
            .map(|&(node, at_round, restart_round)| Crash {
                node,
                at_round,
                restart_round,
            })
            .collect(),
    };

    let mut rows = Vec::new();
    let mut text = format!(
        "{} — n = {}, s = {}, {} protocol as a {}-node fleet\n",
        net.name(),
        n,
        sp.s(),
        kind.label(),
        n,
    );
    let mut run_one = |label: &str, plan: FaultPlan| {
        let fault_free = plan.is_fault_free();
        let report = execute_protocol(&sp, n, plan.clone(), cfg);
        let divergence = optimum.and_then(|t| report.divergence(t as u64));
        let conformant = fault_free.then_some(report.completed_at == optimum.map(|t| t as u64));
        text.push_str(&format!(
            "  {label:<11} rounds {:>6}  optimum {:>4}  divergence {:>4}  gossip {:>6} \
             (retx {:>5})  dropped {:>5}  delayed {:>5}  lost {:>3}{}\n",
            report.completed_at.map_or("—".into(), |t| t.to_string()),
            optimum.map_or("—".into(), |t| t.to_string()),
            divergence.map_or("—".into(), |d| format!("+{d}")),
            report.gossip_sent,
            report.retransmissions,
            report.dropped,
            report.delayed,
            report.lost_crash,
            match conformant {
                Some(true) => "  conformant",
                Some(false) => "  NOT CONFORMANT",
                None => "",
            },
        ));
        rows.push(
            net_row("execute", net)
                .with("n", n)
                .with("s", report.s)
                .with("protocol", kind.label())
                .with("mode", cx.scenario.mode.name())
                .with("plan", label)
                .with("seed", saturating_i64(spec.seed))
                .with("drop_prob", plan.drop_prob)
                .with("max_delay", i64::from(plan.max_delay))
                .with("crashes", plan.crashes.len())
                .with("completed_rounds", report.completed_at.map(|t| t as i64))
                .with("optimum_rounds", optimum)
                .with("divergence", divergence)
                .with("gossip_sent", saturating_i64(report.gossip_sent))
                .with("retransmissions", saturating_i64(report.retransmissions))
                .with("acks_sent", saturating_i64(report.acks_sent))
                .with("dropped", saturating_i64(report.dropped))
                .with("delayed", saturating_i64(report.delayed))
                .with("lost_crash", saturating_i64(report.lost_crash))
                .with(
                    "verdict",
                    match (report.completed_at.is_some(), conformant) {
                        (false, _) => "incomplete",
                        (true, Some(true)) => "conformant",
                        (true, Some(false)) => "diverged",
                        (true, None) => "completed",
                    },
                ),
        );
    };
    // The fault-free conformance point always runs…
    run_one("fault-free", FaultPlan::fault_free());
    // …and the scenario's declared plan when it injects anything.
    if !plan.is_fault_free() {
        run_one("faulty", plan);
    }
    Ok(UnitOut {
        rows,
        ..UnitOut::text(text)
    })
}

/// Randomized-gossip baselines: for each activation model (push, pull,
/// exchange) runs the scenario's [`crate::descriptor::RandomizedSpec`]
/// trial batch over the sparse row table, then reports
/// mean/median/p95/max stopping times and the ratio to the network's
/// systolic yardstick — the measured optimum of its deterministic
/// protocol (plus the oracle's strongest lower bound) at small n, or
/// the ⌈lg n⌉ doubling floor at large n, where every Ω(n²) computation
/// is deliberately absent. Trials are keyed by pure `(seed, trial,
/// round)` counters, so batches are bit-identical at any thread count.
fn randomized_unit(net: &Network, cx: &UnitCx) -> NetOut {
    use sg_sim::random::{run_randomized, summarize, ActivationModel, RandomizedConfig};
    // Pull and exchange read along the reversed arc, so the model is
    // only well-defined on symmetric networks.
    if net.is_directed() {
        return Err(UnitOut::text(format!(
            "{}: randomized pull/exchange need symmetric arcs — \
             directed networks are skipped",
            net.name()
        )));
    }
    // Randomized gossip scatters knowledge, so rows densify whatever
    // the topology.
    let g = dense_graph(net, cx, |n| {
        let row = net_row("randomized", net).with("n", n);
        refuse_dense_worst_case(net, n, row, "randomized", "").filter(|_| cx.is_large(n))
    })?;
    let n = g.vertex_count();
    // The yardstick every randomized mean is measured against: at small
    // n the exact behaviour of the network's deterministic protocol
    // (with the oracle's strongest floor alongside); at large n only the
    // ⌈lg n⌉ doubling floor. λ-searches are Ω(n²) there, and so is the
    // diameter: its bit-parallel sweep runs n/256 blocks over all n rows.
    let mut optimum = None;
    let mut optimum_s = None;
    let mut optimum_kind = None;
    let mut floor = ceil_log2(n) as f64;
    let mut yardstick = "doubling-floor";
    if !cx.is_large(n) {
        if let Ok((kind, sp)) = valid_protocol(net, cx, &g) {
            optimum = systolic_gossip_time_pool(&sp, n, cx.opts.sim_budget, cx.row_threads(n));
            let ob = cx.cache.oracle().bounds_on(
                net,
                &g,
                cx.cache.diameter(net),
                sp.mode(),
                Period::Systolic(sp.s()),
            );
            floor = ob.report.best_rounds;
            optimum_s = Some(sp.s());
            optimum_kind = Some(kind.label());
            if optimum.is_some() {
                yardstick = "systolic-optimal";
            } else {
                yardstick = "oracle-floor";
            }
        }
    }
    let spec = &cx.scenario.randomized;
    let mut rows = Vec::new();
    let mut text = format!(
        "{} — n = {}, {} randomized trials/model, seed {}, yardstick: {}\n",
        net.name(),
        n,
        spec.trials,
        spec.seed,
        match (optimum, yardstick) {
            (Some(t), _) => format!(
                "systolic optimum {t} rounds ({}, s = {})",
                optimum_kind.unwrap_or("?"),
                optimum_s.unwrap_or(0),
            ),
            (None, "oracle-floor") => format!("oracle floor {floor:.1} rounds"),
            _ => format!("doubling floor ⌈lg n⌉ = {floor:.0} rounds"),
        },
    );
    text.push_str(&format!(
        "  {:<9} {:>11} {:>8} {:>7} {:>6} {:>6} {:>11}\n",
        "model", "completed", "mean", "median", "p95", "max", "×yardstick"
    ));
    for model in ActivationModel::ALL {
        let cfg = RandomizedConfig {
            model,
            trials: spec.trials,
            seed: spec.seed,
            max_rounds: cx.opts.sim_budget,
            threads: cx.sim_threads.max(1),
            // Fixed per trial (never divided by the thread count), so
            // outcomes stay thread-count independent.
            mem_limit: Some(LARGE_SIM_MEM_LIMIT),
        };
        let started = std::time::Instant::now();
        let trials = run_randomized(&g, &cfg);
        let elapsed = started.elapsed();
        let summary = summarize(&trials);
        let aborted = trials.iter().any(|t| t.aborted_mem);
        let completed = summary.map_or(0, |s| s.completed);
        let peak = trials.iter().map(|t| t.peak_bytes).max().unwrap_or(0);
        let denominator = optimum.map_or(floor, |t| t as f64);
        let ratio = summary
            .filter(|_| denominator > 0.0)
            .map(|s| s.mean / denominator);
        text.push_str(&format!(
            "  {:<9} {:>5}/{:<5} {:>8} {:>7} {:>6} {:>6} {:>11}\n",
            model.label(),
            completed,
            spec.trials,
            summary.map_or("—".into(), |s| format!("{:.1}", s.mean)),
            summary.map_or("—".into(), |s| s.median.to_string()),
            summary.map_or("—".into(), |s| s.p95.to_string()),
            summary.map_or("—".into(), |s| s.max.to_string()),
            ratio.map_or("—".into(), |r| format!("{r:.2}")),
        ));
        rows.push(
            net_row("randomized", net)
                .with("n", n)
                .with("model", model.label())
                .with("trials", spec.trials)
                .with("seed", saturating_i64(spec.seed))
                .with("completed", completed)
                .with("mean_rounds", summary.map(|s| s.mean))
                .with("median_rounds", summary.map(|s| s.median))
                .with("p95_rounds", summary.map(|s| s.p95))
                .with("max_rounds", summary.map(|s| s.max))
                .with("min_rounds", summary.map(|s| s.min))
                .with("optimum_rounds", optimum)
                .with("floor_rounds", floor)
                .with("ratio_to_optimum", ratio)
                .with("yardstick", yardstick)
                .with("peak_state_bytes", peak)
                .with("elapsed_ms", elapsed.as_millis() as i64)
                .with(
                    "verdict",
                    if completed == spec.trials {
                        "completed"
                    } else if aborted {
                        "aborted-mem"
                    } else {
                        "incomplete"
                    },
                ),
        );
    }
    Ok(UnitOut {
        rows,
        ..UnitOut::text(text)
    })
}

/// Runs the exact enumerator for every finite period of the scenario's
/// sweep: the optimum over *all* valid period-`s` schedules, proved by
/// oracle-pruned exhaustion, or an exact infeasibility statement. The
/// automorphism stabilizer chain is computed once per network through
/// the batch cache and shared across the period sweep. The exhaustive
/// pass fans out over the scenario's thread budget (or, by default, the
/// batch `--sim-threads` budget); outcomes are bit-identical either way.
fn enumerate_unit(net: &Network, cx: &UnitCx) -> NetOut {
    use sg_search::{enumerate_with_group, EnumerateConfig};
    let g = cx.cache.digraph(net);
    let n = g.vertex_count();
    let diameter = cx.cache.diameter(net);
    let group = cx.cache.perm_group(net);
    let threads = match cx.scenario.enumerate.threads {
        0 => cx.sim_threads.max(1),
        t => t,
    };
    let mut rows = Vec::new();
    let mut text = String::new();
    for p in &cx.scenario.periods {
        let Period::Systolic(s) = p else {
            skip_nonsystolic("enumerate", net, n, cx, &mut rows, &mut text);
            continue;
        };
        let cfg = EnumerateConfig::default().exact_period(*s).threads(threads);
        let found = enumerate_with_group(
            cx.cache.oracle(),
            net,
            &g,
            diameter,
            cx.scenario.mode,
            &group,
            &cfg,
        );
        let mut row = net_row("enumerate", net)
            .with("n", n)
            .with("mode", cx.scenario.mode.name())
            .with("s", *s)
            .with("optimal_rounds", found.best_rounds)
            .with("enumerated", found.enumerated)
            .with("pruned", found.pruned)
            .with("round_candidates", found.round_candidates)
            .with("representatives", found.representatives)
            .with("group_order", found.group_order.to_string())
            .with("chain_depth", found.chain_depth)
            .with("stabilizer_pruned", found.stabilizer_pruned)
            .with("memo_hits", found.memo_hits)
            .with("automorphisms", found.automorphisms)
            .with("threads", found.threads);
        match &found.certificate {
            Some(cert) => {
                text.push_str(&format!("{cert}\n"));
                text.push_str(&format!(
                    "  symmetry: |Aut| = {} (chain depth {}), {} round-0 orbit reps, \
                     {} stabilizer-pruned, {} relaxation cuts {:?}, {} memo hits\n",
                    found.group_order,
                    found.chain_depth,
                    found.representatives,
                    found.stabilizer_pruned,
                    found.pruned,
                    found.pruned_per_level,
                    found.memo_hits
                ));
                row = row
                    .with("floor_rounds", cert.floor_rounds)
                    .with("floor_source", cert.floor_source.label())
                    .with("gap_rounds", cert.gap_rounds())
                    .with("verdict", cert.verdict.label());
            }
            None => {
                text.push_str(&format!(
                    "{} (n = {}), {} mode, s = {s}: no valid period-{s} schedule gossips — \
                     proven infeasible ({} enumerated)\n",
                    net.name(),
                    n,
                    cx.scenario.mode,
                    found.enumerated
                ));
                row = row.with("verdict", "infeasible");
            }
        }
        rows.push(row);
    }
    Ok(UnitOut {
        rows,
        ..UnitOut::text(text)
    })
}

/// Runs `sg-search` for every exact period of the scenario's sweep and
/// reports each best schedule with its certificate. The found-vs-bound
/// relation is always surfaced — optimal, gap, or bound-slack — never
/// silently dropped.
fn search_unit(net: &Network, cx: &UnitCx) -> NetOut {
    use sg_search::{search_with_oracle, SearchConfig, Verdict};
    let g = cx.cache.digraph(net);
    let n = g.vertex_count();
    let diameter = cx.cache.diameter(net);
    let mode = cx.scenario.mode;
    let mut rows = Vec::new();
    let mut text = String::new();
    // The `s = ∞` entries are reported first, then every finite period.
    for p in &cx.scenario.periods {
        if *p == Period::NonSystolic {
            skip_nonsystolic("search", net, n, cx, &mut rows, &mut text);
        }
    }
    for p in &cx.scenario.periods {
        let Period::Systolic(s) = *p else {
            continue;
        };
        let cfg = SearchConfig {
            period: s,
            restarts: cx.scenario.search.restarts,
            iterations: cx.scenario.search.iterations,
            seed: cx.scenario.search.seed,
            threads: cx.sim_threads.max(1),
        };
        let found = search_with_oracle(cx.cache.oracle(), net, &g, diameter, mode, &cfg);
        match (&found.certificate, found.best_rounds) {
            (Some(cert), Some(rounds)) => {
                text.push_str(&format!("{cert}  [{} evals]\n", found.evaluations));
                rows.push(
                    net_row("search", net)
                        .with("n", cert.n)
                        .with("mode", mode.name())
                        .with("s", s)
                        .with("found_rounds", rounds)
                        .with("floor_rounds", cert.floor_rounds)
                        .with("floor_source", cert.floor_source.label())
                        .with("asymptotic_rounds", cert.asymptotic_rounds)
                        .with("lambda_star", cert.lambda_star)
                        .with("verdict", cert.verdict.label())
                        .with("gap_rounds", cert.gap_rounds())
                        .with(
                            "bound_slack_rounds",
                            match cert.verdict {
                                Verdict::BoundSlack { asymptotic_rounds } => {
                                    Some(asymptotic_rounds - rounds as f64)
                                }
                                _ => None,
                            },
                        )
                        .with("evaluations", found.evaluations)
                        .with("chains", found.chains),
                );
            }
            _ => {
                // No candidate completed — still reported, never dropped.
                text.push_str(&format!(
                    "{} s = {s}: no completing schedule within the budget ({} evals)\n",
                    net.name(),
                    found.evaluations
                ));
                rows.push(
                    net_row("search", net)
                        .with("n", n)
                        .with("mode", mode.name())
                        .with("s", s)
                        .with("found_rounds", Option::<usize>::None)
                        .with("verdict", "incomplete")
                        .with("evaluations", found.evaluations),
                );
            }
        }
    }
    Ok(UnitOut {
        rows,
        ..UnitOut::text(text)
    })
}

fn family_row_unit(spec: &FamilySpec, cx: &UnitCx) -> UnitOut {
    let scenario = cx.scenario;
    let row = family_row(spec, scenario.mode, &scenario.periods, cx.cache.oracle());
    let mut rows = Vec::new();
    for (p, cell) in scenario.periods.iter().zip(&row.cells) {
        rows.push(
            Row::new()
                .with("kind", "table")
                .with("family", spec.label.as_str())
                .with("mode", scenario.mode.name())
                .with("period", p.label())
                .with("e", cell.value)
                .with("starred", cell.starred),
        );
    }
    UnitOut {
        rows,
        fig_row: Some(row),
        ..Default::default()
    }
}

fn network_bounds_unit(net: &Network, cx: &UnitCx) -> NetOut {
    let g = cx.cache.digraph(net);
    let diameter = cx.cache.diameter(net);
    let mut rows = Vec::new();
    let mut text = String::new();
    for &p in &cx.scenario.periods {
        let ob = cx
            .cache
            .oracle()
            .bounds_on(net, &g, diameter, cx.scenario.mode, p);
        text.push_str(&format!("{}\n", ob.report));
        rows.push(ob.report.row().with("kind", "bound"));
    }
    Ok(UnitOut {
        rows,
        ..UnitOut::text(text)
    })
}

fn simulate_unit(net: &Network, cx: &UnitCx) -> NetOut {
    let g = dense_graph(net, cx, |n| {
        cx.is_large(n).then(|| simulate_large_unit(net, cx, n))
    })?;
    let n = g.vertex_count();
    let (kind, sp) = valid_protocol(net, cx, &g)?;
    let dg = cx
        .cache
        .delay_digraph(net, kind, || DelayDigraph::periodic(&sp));
    // A single memoized oracle lookup: when a bound scenario in the same
    // batch already asked for this (network, mode, period), the report is
    // shared rather than recomputed.
    let ob = cx.cache.oracle().bounds_on(
        net,
        &g,
        cx.cache.diameter(net),
        sp.mode(),
        Period::Systolic(sp.s()),
    );
    let report = &ob.report;
    // One simulation serves both the completion curve and the audit's
    // measured gossip time (the engine is deterministic). A curve needs
    // every vertex's count after every round, so it runs on the
    // sequential compiled engine.
    let curve = knowledge_curve(&sp, n, cx.opts.sim_budget);
    let measured = curve.last().filter(|s| s.min == n).map(|s| s.round);
    let audit = audit_measured(net, &g, &sp, &dg, measured, cx.opts.bound_opts);

    let mut rows = vec![net_row("audit", net)
        .with("n", n)
        .with("s", audit.s)
        .with("protocol_mode", sp.mode().name())
        .with("measured_rounds", audit.measured_rounds)
        .with(
            "thm41_rounds",
            audit.matrix_bound.as_ref().map(|b| b.rounds),
        )
        .with(
            "lambda_star",
            audit.matrix_bound.as_ref().map(|b| b.lambda_star),
        )
        .with("closed_form_rounds", audit.closed_form_rounds)
        .with("best_bound_rounds", report.best_rounds)
        .with("sound", audit.is_sound())];

    let mut text = format!(
        "{} — n = {}, s = {}, strongest lower bound {:.1} rounds\n",
        net.name(),
        n,
        sp.s(),
        report.best_rounds
    );
    text.push_str(&format!(
        "{:>6} {:>8} {:>8} {:>10}\n",
        "round", "min", "max", "mean"
    ));
    let step = (curve.len() / 25).max(1);
    for (i, s) in curve.iter().enumerate() {
        let sampled = i % step == 0 || i + 1 == curve.len();
        if sampled {
            text.push_str(&format!(
                "{:>6} {:>8} {:>8} {:>10.1}\n",
                s.round, s.min, s.max, s.mean
            ));
            rows.push(
                net_row("curve", net)
                    .with("round", s.round)
                    .with("min", s.min)
                    .with("max", s.max)
                    .with("mean", s.mean),
            );
        }
    }
    if let Some(last) = curve.last() {
        if last.min == n {
            text.push_str(&format!(
                "completed at round {}; bound/measured ratio {:.2}\n",
                last.round,
                report.best_rounds / last.round as f64
            ));
        } else {
            text.push_str(&format!(
                "did not complete within {} rounds\n",
                cx.opts.sim_budget
            ));
        }
    }
    Ok(UnitOut {
        rows,
        ..UnitOut::text(text)
    })
}

/// Simulate unit for networks at or beyond `opts.large_sim_min_n`:
/// runs the large-instance driver (sparse row engine, handing off to
/// the item-sliced engine on `sim_threads` threads once rows stop
/// compressing) and reports completion plus resource telemetry.
/// Everything Ω(n²) is deliberately absent — no dense `Knowledge`
/// table, no all-pairs diameter, no λ-search audit, no protocol
/// validation pass (the builders are conformance-tested at small n; the
/// sparse and sliced engines are bit-identical by the same suite).
/// `n` is the network order [`dense_graph`] judged.
fn simulate_large_unit(net: &Network, cx: &UnitCx, n: usize) -> UnitOut {
    // Unstructured instances densify: the sparse state can approach the
    // dense n²/8 bytes.
    if matches!(net, Network::RandomRegular { .. }) {
        let row = net_row("large-sim", net)
            .with("n", n)
            .with("engine", "sparse");
        let tail = " (run rows stay compact only for structured protocols)";
        if let Some(refused) = refuse_dense_worst_case(net, n, row, "unstructured", tail) {
            return refused;
        }
    }
    let Some(sp) = net.reference_protocol() else {
        return UnitOut::text(format!(
            "{}: no deterministic protocol — skipped",
            net.name()
        ));
    };
    // Mirror `protocol_for`'s mode rule without building the graph: a
    // full-duplex scenario only runs protocols that are full-duplex.
    if cx.scenario.mode == Mode::FullDuplex && sp.mode() != Mode::FullDuplex {
        return no_protocol(net, cx.scenario.mode);
    }
    let started = std::time::Instant::now();
    let out = run_systolic_large(
        &sp,
        n,
        cx.opts.sim_budget,
        true,
        Some(LARGE_SIM_MEM_LIMIT),
        cx.sim_threads.max(1),
    );
    let elapsed = started.elapsed();

    let mut rows = vec![net_row("large-sim", net)
        .with("n", n)
        .with("s", sp.s())
        .with("protocol_mode", sp.mode().name())
        .with("engine", "sparse")
        .with("measured_rounds", out.result.completed_at)
        .with("rounds_run", out.rounds_run)
        .with("peak_state_bytes", out.peak_bytes)
        .with("aborted_mem", out.aborted_mem)
        .with("elapsed_ms", elapsed.as_millis() as i64)
        .with(
            "verdict",
            if out.result.completed_at.is_some() {
                "completed"
            } else if out.aborted_mem {
                "aborted-mem"
            } else {
                "incomplete"
            },
        )];
    // The row keeps `engine: "sparse"` (the benchmark's replay compares
    // rows field by field); the text names the engine that ran.
    let mib = |bytes: usize| bytes as f64 / (1u64 << 20) as f64;
    let engine = match out.handoff {
        Some(h) => format!(
            "item-sliced engine ({} items per slice; the sparse state reached {:.2} MiB \
             in round {}, past one slice's {:.2} MiB, so the run restarted sliced)",
            SLICE_ITEMS,
            mib(h.sparse_bytes),
            h.round,
            mib(h.slice_bytes),
        ),
        None => format!(
            "sparse row engine (peak state {:.2} MiB stayed within one slice's {:.2} MiB)",
            mib(out.peak_bytes),
            mib(slice_bytes(n)),
        ),
    };
    let mut text = format!(
        "{} — n = {}, s = {}, {engine}; the dense table would be {:.1} GiB\n",
        net.name(),
        n,
        sp.s(),
        (n as f64 / 8.0) * n as f64 / (1u64 << 30) as f64,
    );
    let step = (out.result.trace.len() / 25).max(1);
    text.push_str(&format!("{:>6} {:>10}\n", "round", "min"));
    for (i, &min) in out.result.trace.iter().enumerate() {
        if i % step == 0 || i + 1 == out.result.trace.len() {
            text.push_str(&format!("{:>6} {:>10}\n", i + 1, min));
            rows.push(net_row("curve", net).with("round", i + 1).with("min", min));
        }
    }
    match out.result.completed_at {
        Some(t) => text.push_str(&format!(
            "completed at round {t} in {:.2} s; peak state {:.1} MiB\n",
            elapsed.as_secs_f64(),
            mib(out.peak_bytes),
        )),
        None if out.aborted_mem => text.push_str(&format!(
            "aborted after {} rounds: sparse state exceeded {:.1} GiB\n",
            out.rounds_run,
            gib(LARGE_SIM_MEM_LIMIT),
        )),
        None => text.push_str(&format!(
            "did not complete within {} rounds\n",
            cx.opts.sim_budget
        )),
    }
    UnitOut {
        rows,
        ..UnitOut::text(text)
    }
}

/// Stable per-network seed so compare units are deterministic and
/// order-independent under any thread schedule.
fn net_seed(net: &Network) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for b in net.name().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h ^ 1997
}

fn compare_unit(net: &Network, cx: &UnitCx) -> NetOut {
    let g = dense_graph(net, cx, |n| {
        cx.is_large(n).then(|| {
            UnitOut::text(format!(
                "{}: order {n} ≥ {} — the dense compare unit is skipped \
                 at this size (use a simulate scenario; the sparse engine covers it)",
                net.name(),
                cx.opts.large_sim_min_n
            ))
        })
    })?;
    let n = g.vertex_count();
    let mut rows = Vec::new();
    let mut text = String::new();

    match cx.cache.protocol(net, cx.scenario.mode) {
        Some((kind, sp)) => {
            // 1. Audit the deterministic protocol against every bound,
            //    measuring the gossip time on the unit's thread budget
            //    (bit-identical at any budget). An invalid protocol is
            //    still audited, with no measured time.
            let dg = cx
                .cache
                .delay_digraph(net, kind, || DelayDigraph::periodic(&sp));
            let measured = sp
                .validate(&g)
                .is_ok()
                .then(|| systolic_gossip_time_pool(&sp, n, cx.opts.sim_budget, cx.row_threads(n)))
                .flatten();
            let audit = audit_measured(net, &g, &sp, &dg, measured, cx.opts.bound_opts);
            let sound = audit.is_sound();
            text.push_str(&format!(
                "{:<16} n {:>6}  s {:>3}  measured {:>7}  Thm4.1 {:>8}  Cor4.4 {:>8.1}  {}\n",
                net.name(),
                n,
                audit.s,
                audit.measured_rounds.map_or("—".into(), |t| t.to_string()),
                audit
                    .matrix_bound
                    .as_ref()
                    .map_or("—".into(), |b| format!("{:.1}", b.rounds)),
                audit.closed_form_rounds,
                if sound { "sound" } else { "VIOLATION" }
            ));
            rows.push(
                net_row("audit", net)
                    .with("n", n)
                    .with("s", audit.s)
                    .with("measured_rounds", audit.measured_rounds)
                    .with(
                        "thm41_rounds",
                        audit.matrix_bound.as_ref().map(|b| b.rounds),
                    )
                    .with("closed_form_rounds", audit.closed_form_rounds)
                    .with("sound", sound),
            );

            // 2. Greedy (non-systolic) upper bound vs the 1.4404·log n
            //    general bound and the diameter.
            if !net.is_directed() {
                let mut rng =
                    <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(net_seed(net));
                if let Some(out) = greedy_gossip(&g, Mode::HalfDuplex, 200 * n, &mut rng) {
                    let t = out.rounds as f64;
                    let bound = e_general_nonsystolic() * (n as f64).log2();
                    let slack = 2.0 * t.max(2.0).log2();
                    let diam = cx.cache.diameter(net);
                    let sound =
                        bound - slack <= t + 1e-9 && diam.is_none_or(|d| out.rounds >= d as usize);
                    text.push_str(&format!(
                        "{:<16} greedy {:>5} rounds vs 1.4404·log n = {:>6.1}, diam {:>4}  {}\n",
                        net.name(),
                        out.rounds,
                        bound,
                        diam.map_or("∞".into(), |d| d.to_string()),
                        if sound { "sound" } else { "VIOLATION" }
                    ));
                    rows.push(
                        net_row("greedy", net)
                            .with("n", n)
                            .with("greedy_rounds", out.rounds)
                            .with("nonsystolic_bound", bound)
                            .with("diameter", diam)
                            .with("sound", sound),
                    );
                }
            }
        }
        None => {
            // Directed shift network: Section 7 weighted-diameter bound
            // vs the exact Dijkstra diameter.
            let wg = match cx.scenario.weights {
                WeightScheme::Unit => WeightedDigraph::unit_weights(&g),
                WeightScheme::ParityOneThree => WeightedDigraph::from_arcs(
                    n,
                    g.arcs().map(|a| {
                        (
                            a.from as usize,
                            a.to as usize,
                            if a.to % 2 == 0 { 1 } else { 3 },
                        )
                    }),
                ),
            };
            let bound = weighted_diameter_bound(&wg, cx.opts.bound_opts);
            let diam = wg.diameter();
            match (bound, diam) {
                (Some(b), Some(d)) => {
                    let sound = b.rounds <= d as f64 + 1e-9;
                    text.push_str(&format!(
                        "{:<16} n {:>6}  λ* {:>7.4}  bound {:>8.2}  true diam {:>6}  {}\n",
                        net.name(),
                        n,
                        b.lambda_star,
                        b.rounds,
                        d,
                        if sound { "sound" } else { "VIOLATION" }
                    ));
                    rows.push(
                        net_row("diameter", net)
                            .with("n", n)
                            .with("lambda_star", b.lambda_star)
                            .with("bound_rounds", b.rounds)
                            .with("true_diameter", d as i64)
                            .with("sound", sound),
                    );
                }
                _ => {
                    text.push_str(&format!(
                        "{:<16} — no bound / not strongly connected\n",
                        net.name()
                    ));
                }
            }
        }
    }

    // 3. BFS-verify the Lemma 3.1 separator where one exists.
    if let Some(sep) = net.concrete_separator() {
        if let Some(measured) = sep.measured_distance(&g) {
            let ok = measured >= sep.claimed_distance;
            text.push_str(&format!(
                "{:<16} separator |V1| {:>5} |V2| {:>5}  dist {:>4} ≥ claimed {:>4}  {}\n",
                net.name(),
                sep.v1.len(),
                sep.v2.len(),
                measured,
                sep.claimed_distance,
                if ok { "ok" } else { "VIOLATION" }
            ));
            rows.push(
                net_row("separator", net)
                    .with("v1", sep.v1.len())
                    .with("v2", sep.v2.len())
                    .with("measured_distance", measured)
                    .with("claimed_distance", sep.claimed_distance)
                    .with("sound", ok),
            );
        }
    }

    Ok(UnitOut {
        rows,
        ..UnitOut::text(text)
    })
}

fn matrices_unit() -> UnitOut {
    // The paper's Fig. 1 uses a k = 2 local pattern; take
    // (l0, r0, l1, r1) = (2, 1, 1, 2), s = 6, h = 3 block repetitions.
    let pattern = BlockPattern::from_blocks(vec![2, 1], vec![1, 2]);
    let lm = LocalMatrices::new(pattern.clone(), 3);
    let lambda = 0.6;

    let mut text = format!(
        "Fig. 1 — Mx(λ) for k = 2, pattern l = {:?}, r = {:?}, λ = {lambda}\n\n",
        pattern.l, pattern.r
    );
    text.push_str(&lm.mx(lambda).render(4));
    text.push_str(&format!(
        "\nFig. 2 — block structure: d(0,0) = {}, d(0,1) = {}, d(1,2) = {}\n",
        lm.d(0, 0),
        lm.d(0, 1),
        lm.d(1, 2)
    ));
    text.push_str(&format!("\nFig. 3 — Nx({lambda}):\n"));
    text.push_str(&lm.nx(lambda).render(4));
    text.push_str(&format!("\nOx({lambda}):\n"));
    text.push_str(&lm.ox(lambda).render(4));
    text.push_str(&format!(
        "\nsemi-eigenvalues: Nx → {:.6}, Ox → {:.6}\n",
        lm.nx_semi_eigenvalue(lambda),
        lm.ox_semi_eigenvalue(lambda)
    ));
    text.push_str(&format!(
        "\nFig. 7 — full-duplex Mx(λ) for s = 4 over 8 rounds, λ = {lambda}:\n"
    ));
    text.push_str(&full_duplex_mx(4, 8, lambda).render(4));

    let rows = vec![Row::new()
        .with("kind", "matrices")
        .with("pattern_l", format!("{:?}", pattern.l))
        .with("pattern_r", format!("{:?}", pattern.r))
        .with("lambda", lambda)
        .with("d_0_0", i64::try_from(lm.d(0, 0)).unwrap_or(i64::MAX))
        .with("d_0_1", i64::try_from(lm.d(0, 1)).unwrap_or(i64::MAX))
        .with("nx_semi_eigenvalue", lm.nx_semi_eigenvalue(lambda))
        .with("ox_semi_eigenvalue", lm.ox_semi_eigenvalue(lambda))];
    UnitOut {
        rows,
        ..UnitOut::text(text)
    }
}

fn checks_unit(checks: &[PaperCheck]) -> UnitOut {
    let outcomes: Vec<CheckOutcome> = checks
        .iter()
        .map(|c| {
            let got = (c.compute)();
            CheckOutcome {
                label: c.label.to_string(),
                expected: c.expected,
                got,
                ok: (got - c.expected).abs() <= c.tol,
            }
        })
        .collect();
    let rows = outcomes
        .iter()
        .map(|c| {
            Row::new()
                .with("kind", "check")
                .with("label", c.label.as_str())
                .with("paper", c.expected)
                .with("computed", c.got)
                .with("ok", c.ok)
        })
        .collect();
    UnitOut {
        rows,
        checks: outcomes,
        ..Default::default()
    }
}
