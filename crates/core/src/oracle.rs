//! The unified bound layer: every lower bound the repository knows,
//! behind one trait and one memoizing oracle.
//!
//! Before this module, `bound_report_on` was recomputed independently by
//! the scenario batch runner (twice), the family-table builder and the
//! search certifier, and the delay-matrix bounds of Theorem 4.1 never
//! reached a certificate at all. Now there is exactly one computation
//! path:
//!
//! * [`BoundSource`] — a trait over the individual bounds: the exact
//!   floors (diameter, `⌈log₂ n⌉` doubling, the degenerate `s = 2`
//!   linear bound), the asymptotic `e(s)`/λ*/separator coefficients from
//!   `sg-bounds`, and the `sg-delay` delay-matrix bound on a concrete
//!   protocol (Theorem 4.1);
//! * [`evaluate_bounds`] — one uncached evaluation of every default
//!   source, composed into an [`OracleBounds`] (which embeds the classic
//!   [`BoundReport`] so every existing streaming surface keeps working);
//! * [`BoundOracle`] — the memoizing front door, keyed on
//!   `(network, mode, period)`. Each key is computed **at most once**
//!   per oracle (guaranteed by the single-flight [`crate::Memo`], not
//!   just best-effort caching), which the scenario batch tests assert.
//!
//! The bound inventory follows the paper: the general `e(s) · log₂ n`
//! coefficients of Corollary 4.4 / Section 6 (with the characteristic
//! root `λ*` of the periodic delay polynomial behind each), the
//! separator strengthening of Theorem 5.1, the delay-matrix bound of
//! Theorem 4.1 on a concrete protocol, and the exact small-`n` floors
//! (diameter, `⌈log₂ n⌉` doubling, the degenerate `s = 2` linear
//! `n − 1` of Section 4).
//!
//! ```
//! use systolic_gossip::sg_bounds::pfun::Period;
//! use systolic_gossip::sg_protocol::mode::Mode;
//! use systolic_gossip::{BoundOracle, Network};
//!
//! let oracle = BoundOracle::new();
//! let q3 = Network::Hypercube { k: 3 };
//! let g = q3.build();
//! let diameter = systolic_gossip::sg_graphs::traversal::diameter(&g);
//! let b = oracle.bounds_on(&q3, &g, diameter, Mode::FullDuplex, Period::Systolic(3));
//! assert_eq!(b.floor_rounds, 3); // the ⌈log₂ 8⌉ doubling floor
//! assert!(b.asymptotic_rounds.unwrap() > 3.0); // e(s)·log₂ n overshoots at n = 8
//!
//! // The same key never computes twice — batch consumers share one oracle.
//! let _again = oracle.bounds_on(&q3, &g, diameter, Mode::FullDuplex, Period::Systolic(3));
//! assert_eq!(oracle.stats().computes, 1);
//! ```

use crate::memo::Memo;
use crate::network::Network;
use crate::report::{bound_mode, BoundReport};
use sg_bounds::pfun::{BoundMode, Period};
use sg_bounds::{e_coefficient, e_separator, lambda_star as coefficient_lambda_star};
use sg_delay::bound::{theorem_4_1_bound_from_digraph, BoundOpts, ProtocolBound};
use sg_delay::digraph::DelayDigraph;
use sg_graphs::digraph::Digraph;
use sg_graphs::separator::SeparatorParams;
use sg_protocol::mode::Mode;
use sg_protocol::protocol::SystolicProtocol;
use sg_protocol::round::Round;
use std::sync::Arc;

/// `⌈log₂ n⌉` (0 for `n ≤ 1`): the doubling floor — knowledge at most
/// doubles per round in every mode.
///
/// ```
/// use systolic_gossip::ceil_log2;
/// assert_eq!(ceil_log2(8), 3);
/// assert_eq!(ceil_log2(9), 4);
/// assert_eq!(ceil_log2(1), 0);
/// ```
pub fn ceil_log2(n: usize) -> usize {
    if n <= 1 {
        0
    } else {
        (n - 1).ilog2() as usize + 1
    }
}

/// Which exact bound supplied a certified floor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FloorSource {
    /// Graph diameter: no item crosses the network faster.
    Diameter,
    /// `⌈log₂ n⌉`: knowledge at most doubles per round.
    Doubling,
    /// The paper's degenerate `s = 2` analysis: `t ≥ n − 1`.
    LinearPeriodTwo,
}

impl FloorSource {
    /// Stable lowercase label (row streaming / CLI surface).
    pub fn label(self) -> &'static str {
        match self {
            FloorSource::Diameter => "diameter",
            FloorSource::Doubling => "doubling",
            FloorSource::LinearPeriodTwo => "linear-s2",
        }
    }

    /// Parses a [`FloorSource::label`] back — the round-trip the JSON/CSV
    /// row streaming relies on.
    pub fn from_label(label: &str) -> Option<Self> {
        match label {
            "diameter" => Some(FloorSource::Diameter),
            "doubling" => Some(FloorSource::Doubling),
            "linear-s2" => Some(FloorSource::LinearPeriodTwo),
            _ => None,
        }
    }
}

/// What kind of statement a contribution makes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundClass {
    /// Valid at every finite `n`, for every protocol of the mode/period.
    ExactFloor(FloorSource),
    /// A `coefficient · log₂ n` figure carrying the paper's
    /// `−O(log log n)` slack.
    Asymptotic,
    /// Exact, but only for executions of the specific protocol in the
    /// query (Theorem 4.1 on its delay matrix) — never a floor for the
    /// optimum over all schedules.
    ProtocolSpecific,
}

/// One bound produced by one source.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundContribution {
    /// The producing source's name.
    pub source: &'static str,
    /// What the number means.
    pub class: BoundClass,
    /// The bound, in rounds.
    pub rounds: f64,
    /// The coefficient of `log₂ n` behind `rounds`, for asymptotic
    /// sources.
    pub coefficient: Option<f64>,
    /// The `λ` (root or maximizer) behind the figure, when one exists.
    pub lambda: Option<f64>,
    /// The full Theorem 4.1 result, for [`BoundClass::ProtocolSpecific`]
    /// contributions — kept typed so no consumer re-derives `sg-delay`'s
    /// formulas from the flattened fields.
    pub protocol: Option<ProtocolBound>,
}

/// Everything a source gets to look at.
pub struct BoundQuery<'a> {
    /// The network descriptor (names, separator parameters).
    pub network: &'a Network,
    /// Its built digraph.
    pub graph: &'a Digraph,
    /// Its measured diameter (`None` when not strongly connected).
    pub diameter: Option<u32>,
    /// Communication mode under analysis.
    pub mode: Mode,
    /// Systolic period (or the non-systolic limit).
    pub period: Period,
    /// A concrete protocol, for the protocol-specific sources; `None`
    /// on the memoized (network, mode, period) path.
    pub protocol: Option<&'a SystolicProtocol>,
    /// Numeric options for λ-searches and norm evaluations.
    pub opts: BoundOpts,
}

/// One lower-bound producer. Implementations must be pure functions of
/// the query — the oracle memoizes their merged output.
pub trait BoundSource: Send + Sync {
    /// Stable source name (also the `source` field of contributions).
    fn name(&self) -> &'static str;
    /// The source's bound for this query, when it applies.
    fn evaluate(&self, q: &BoundQuery<'_>) -> Option<BoundContribution>;
}

/// Graph diameter: no item crosses the network faster.
pub struct DiameterFloor;

impl BoundSource for DiameterFloor {
    fn name(&self) -> &'static str {
        "diameter"
    }
    fn evaluate(&self, q: &BoundQuery<'_>) -> Option<BoundContribution> {
        q.diameter.map(|d| BoundContribution {
            source: self.name(),
            class: BoundClass::ExactFloor(FloorSource::Diameter),
            rounds: f64::from(d),
            coefficient: None,
            lambda: None,
            protocol: None,
        })
    }
}

/// `⌈log₂ n⌉`: each processor receives from at most one neighbour per
/// round in every mode, so knowledge at most doubles.
pub struct DoublingFloor;

impl BoundSource for DoublingFloor {
    fn name(&self) -> &'static str {
        "doubling"
    }
    fn evaluate(&self, q: &BoundQuery<'_>) -> Option<BoundContribution> {
        Some(BoundContribution {
            source: self.name(),
            class: BoundClass::ExactFloor(FloorSource::Doubling),
            rounds: ceil_log2(q.graph.vertex_count()) as f64,
            coefficient: None,
            lambda: None,
            protocol: None,
        })
    }
}

/// The degenerate `s = 2` analysis of Section 4 (directed/half-duplex):
/// the activated arcs form a fixed directed structure along which items
/// advance one arc per round, so gossip needs `n − 1` rounds.
pub struct LinearPeriodTwoFloor;

impl BoundSource for LinearPeriodTwoFloor {
    fn name(&self) -> &'static str {
        "linear-s2"
    }
    fn evaluate(&self, q: &BoundQuery<'_>) -> Option<BoundContribution> {
        let n = q.graph.vertex_count();
        (q.period == Period::Systolic(2) && q.mode != Mode::FullDuplex && n >= 1).then(|| {
            BoundContribution {
                source: self.name(),
                class: BoundClass::ExactFloor(FloorSource::LinearPeriodTwo),
                rounds: (n - 1) as f64,
                coefficient: None,
                lambda: None,
                protocol: None,
            }
        })
    }
}

/// `true` when the asymptotic coefficient machinery applies: the `s = 2`
/// characteristic function degenerates (`λ* → 1`, `e(2) = ∞`) and the
/// linear floor replaces it.
fn coefficient_applies(period: Period) -> bool {
    !matches!(period, Period::Systolic(s) if s < 3)
}

/// Corollary 4.4 / Section 6: the general `e(s)·log₂ n` bound for any
/// network.
pub struct GeneralCoefficient;

impl BoundSource for GeneralCoefficient {
    fn name(&self) -> &'static str {
        "general-coefficient"
    }
    fn evaluate(&self, q: &BoundQuery<'_>) -> Option<BoundContribution> {
        if !coefficient_applies(q.period) {
            return None;
        }
        let bm = bound_mode(q.mode);
        let coeff = e_coefficient(bm, q.period);
        let log2n = (q.graph.vertex_count() as f64).log2();
        Some(BoundContribution {
            source: self.name(),
            class: BoundClass::Asymptotic,
            rounds: coeff * log2n,
            coefficient: Some(coeff),
            lambda: Some(coefficient_lambda_star(bm, q.period)),
            protocol: None,
        })
    }
}

/// Theorem 5.1: the separator-strengthened coefficient, for networks
/// whose family has Lemma 3.1 separator parameters.
pub struct SeparatorCoefficient;

impl BoundSource for SeparatorCoefficient {
    fn name(&self) -> &'static str {
        "separator-coefficient"
    }
    fn evaluate(&self, q: &BoundQuery<'_>) -> Option<BoundContribution> {
        if !coefficient_applies(q.period) {
            return None;
        }
        let params = q.network.separator_params()?;
        let b = e_separator(params, bound_mode(q.mode), q.period);
        let log2n = (q.graph.vertex_count() as f64).log2();
        Some(BoundContribution {
            source: self.name(),
            class: BoundClass::Asymptotic,
            rounds: b.e * log2n,
            coefficient: Some(b.e),
            lambda: Some(b.lambda),
            protocol: None,
        })
    }
}

/// Theorem 4.1 on the delay matrix of the *concrete protocol* in the
/// query — the `sg-delay` bound that certificates surface. Exact, but
/// only for executions of that protocol.
pub struct DelayMatrix;

impl BoundSource for DelayMatrix {
    fn name(&self) -> &'static str {
        "delay-matrix"
    }
    fn evaluate(&self, q: &BoundQuery<'_>) -> Option<BoundContribution> {
        let sp = q.protocol?;
        let dg = DelayDigraph::periodic(sp);
        let pb = theorem_4_1_bound_from_digraph(&dg, q.graph.vertex_count(), q.opts)?;
        Some(BoundContribution {
            source: self.name(),
            class: BoundClass::ProtocolSpecific,
            rounds: pb.rounds,
            coefficient: None,
            lambda: Some(pb.lambda_star),
            protocol: Some(pb),
        })
    }
}

/// The default source set, in evaluation order. Exact floors come first
/// and in the tie-breaking order the certifier documents (doubling, then
/// diameter, then the linear `s = 2` bound — a later source takes the
/// floor only by strict improvement).
pub fn default_sources() -> &'static [&'static dyn BoundSource] {
    static SOURCES: [&dyn BoundSource; 6] = [
        &DoublingFloor,
        &DiameterFloor,
        &LinearPeriodTwoFloor,
        &GeneralCoefficient,
        &SeparatorCoefficient,
        &DelayMatrix,
    ];
    &SOURCES
}

/// The merged answer for one query.
#[derive(Debug, Clone)]
pub struct OracleBounds {
    /// The classic report (general/separator coefficients, diameter,
    /// strongest figure) — every existing streaming surface reads this.
    pub report: BoundReport,
    /// The strongest exact floor at this `n`, in rounds.
    pub floor_rounds: usize,
    /// Which bound supplied the floor.
    pub floor_source: FloorSource,
    /// `max(general, separator) · log₂ n` when the coefficient machinery
    /// applies (`s ≥ 3` or non-systolic), `None` at the degenerate
    /// `s = 2`.
    pub asymptotic_rounds: Option<f64>,
    /// The characteristic root `λ*` behind the general coefficient.
    pub lambda_star: Option<f64>,
    /// Theorem 4.1 on the query's concrete protocol, when one was given
    /// and its delay matrix yields a bound.
    pub protocol_bound: Option<ProtocolBound>,
    /// Every individual contribution, evaluation order.
    pub contributions: Vec<BoundContribution>,
}

/// Evaluates every default source for `q` and composes the answer. This
/// is the single uncached computation path behind both
/// [`crate::report::bound_report_on`] and the memoizing [`BoundOracle`].
///
/// # Panics
/// Panics when `q.mode` requires a symmetric digraph but the network is
/// directed.
pub fn evaluate_bounds(q: &BoundQuery<'_>) -> OracleBounds {
    assert!(
        !(q.mode.requires_symmetric_graph() && q.network.is_directed()),
        "{} cannot run in {} mode",
        q.network.name(),
        q.mode
    );
    let contributions: Vec<BoundContribution> = default_sources()
        .iter()
        .filter_map(|s| s.evaluate(q))
        .collect();

    // The floor: exact contributions in source order, replaced only on
    // strict improvement (so ties keep the earlier, simpler source).
    let mut floor_rounds = 0usize;
    let mut floor_source = FloorSource::Doubling;
    for c in &contributions {
        if let BoundClass::ExactFloor(src) = c.class {
            let r = c.rounds as usize;
            if r > floor_rounds {
                floor_rounds = r;
                floor_source = src;
            }
        }
    }

    let find = |name: &str| contributions.iter().find(|c| c.source == name);
    let general = find("general-coefficient");
    let separator = find("separator-coefficient");
    let protocol_bound = find("delay-matrix").and_then(|c| c.protocol);

    let (general_coefficient, general_rounds) = match general {
        Some(c) => (c.coefficient.unwrap_or(f64::INFINITY), c.rounds),
        // Degenerate s = 2: e(2) = ∞; the linear floor replaces it.
        None => (f64::INFINITY, f64::INFINITY),
    };
    let (separator_coefficient, separator_rounds) = match separator {
        Some(c) => (c.coefficient, Some(c.rounds)),
        None => (None, None),
    };

    // The strongest finite figure over every universally-valid bound
    // (asymptotic coefficients and exact floors; protocol-specific
    // bounds only constrain one schedule, never the optimum).
    let mut best = floor_rounds as f64;
    for c in &contributions {
        if matches!(c.class, BoundClass::Asymptotic) && c.rounds.is_finite() {
            best = best.max(c.rounds);
        }
    }

    let asymptotic_rounds = general.map(|g| separator_rounds.map_or(g.rounds, |s| s.max(g.rounds)));
    let lambda_star = general.and_then(|g| g.lambda);

    let report = BoundReport {
        network: q.network.name(),
        n: q.graph.vertex_count(),
        mode: q.mode,
        period: q.period,
        general_coefficient,
        general_rounds,
        separator_coefficient,
        separator_rounds,
        diameter: q.diameter,
        best_rounds: best,
    };
    OracleBounds {
        report,
        floor_rounds,
        floor_source,
        asymptotic_rounds,
        lambda_star,
        protocol_bound,
        contributions,
    }
}

/// Hit/compute counters of one oracle.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleStats {
    /// Total `(network, mode, period)` lookups.
    pub lookups: usize,
    /// Keys actually evaluated — at most one per distinct key, by
    /// construction.
    pub computes: usize,
    /// Protocol-bound lookups (Theorem 4.1 memo).
    pub protocol_lookups: usize,
    /// Protocol bounds actually evaluated.
    pub protocol_computes: usize,
    /// Family-coefficient lookups (table cells).
    pub family_lookups: usize,
    /// Family coefficients actually evaluated.
    pub family_computes: usize,
}

type Key = (Network, Mode, Period);
/// Separator params keyed by their bit patterns (exact float identity is
/// what the memo needs; the params come from a handful of closed forms).
type FamilyKey = (Option<(u64, u64)>, BoundMode, Period);
/// A protocol's full content: its period rounds, mode and the `n` it is
/// bounded at. Keying on the content (not a digest) rules out silent
/// hash-collision mixups between distinct protocols.
type ProtocolKey = (Vec<Round>, Mode, usize);

/// The memoizing bound oracle: one per batch / search session. Every
/// consumer of lower bounds — the scenario runner, the family-table
/// builder, the search certifier, the exact enumerator — shares one
/// instance, so a sweep pays for each `(network, mode, period)` exactly
/// once.
#[derive(Debug, Default)]
pub struct BoundOracle {
    opts: BoundOpts,
    memo: Memo<Key, Arc<OracleBounds>>,
    protocol_memo: Memo<ProtocolKey, Option<ProtocolBound>>,
    family_memo: Memo<FamilyKey, (f64, bool)>,
}

impl BoundOracle {
    /// An empty oracle with default numeric options.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty oracle with explicit λ-search / norm options.
    pub fn with_opts(opts: BoundOpts) -> Self {
        Self {
            opts,
            ..Self::default()
        }
    }

    /// The numeric options every evaluation uses.
    pub fn opts(&self) -> BoundOpts {
        self.opts
    }

    /// The bounds for `(net, mode, period)` on its built digraph `g` and
    /// measured diameter, evaluated only if this key was never computed
    /// — the oracle never rebuilds what the caller (the build cache)
    /// already holds.
    pub fn bounds_on(
        &self,
        net: &Network,
        g: &Digraph,
        diameter: Option<u32>,
        mode: Mode,
        period: Period,
    ) -> Arc<OracleBounds> {
        self.memo.get_or_compute((*net, mode, period), || {
            Arc::new(evaluate_bounds(&BoundQuery {
                network: net,
                graph: g,
                diameter,
                mode,
                period,
                protocol: None,
                opts: self.opts,
            }))
        })
    }

    /// Theorem 4.1 on a concrete protocol, memoized on the protocol's
    /// full content (rounds + mode) and `n` — repeated certifications of
    /// the same schedule share one λ-search.
    pub fn protocol_bound(&self, sp: &SystolicProtocol, n: usize) -> Option<ProtocolBound> {
        let key: ProtocolKey = (sp.period().to_vec(), sp.mode(), n);
        self.protocol_memo.get_or_compute(key, || {
            let dg = DelayDigraph::periodic(sp);
            theorem_4_1_bound_from_digraph(&dg, n, self.opts)
        })
    }

    /// One family-table cell: the general `e(s)` coefficient (`params =
    /// None`) or the Theorem 5.1 separator coefficient, as
    /// `(value, starred)` — `starred` marks a boundary maximizer (the
    /// paper's `∗` entries). Memoized, so a table's repeated columns and
    /// shared families cost one optimizer run each.
    pub fn family_cell(
        &self,
        params: Option<SeparatorParams>,
        mode: BoundMode,
        period: Period,
    ) -> (f64, bool) {
        let key: FamilyKey = (
            params.map(|p| (p.alpha.to_bits(), p.ell.to_bits())),
            mode,
            period,
        );
        self.family_memo.get_or_compute(key, || match params {
            None => (e_coefficient(mode, period), false),
            Some(p) => {
                let b = e_separator(p, mode, period);
                (b.e, b.at_boundary)
            }
        })
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> OracleStats {
        OracleStats {
            lookups: self.memo.lookups(),
            computes: self.memo.computes(),
            protocol_lookups: self.protocol_memo.lookups(),
            protocol_computes: self.protocol_memo.computes(),
            family_lookups: self.family_memo.lookups(),
            family_computes: self.family_memo.computes(),
        }
    }
}

impl std::fmt::Display for OracleStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "bounds {} computed / {} lookups; protocol bounds {} computed / {} lookups; \
             family cells {} computed / {} lookups",
            self.computes,
            self.lookups,
            self.protocol_computes,
            self.protocol_lookups,
            self.family_computes,
            self.family_lookups
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::bound_report;

    /// [`BoundOracle::bounds_on`] on a freshly built graph and diameter.
    fn bounds(
        oracle: &BoundOracle,
        net: &Network,
        mode: Mode,
        period: Period,
    ) -> Arc<OracleBounds> {
        let g = net.build();
        let diameter = sg_graphs::traversal::diameter(&g);
        oracle.bounds_on(net, &g, diameter, mode, period)
    }

    #[test]
    fn oracle_matches_the_direct_report() {
        let net = Network::WrappedButterfly { d: 2, dd: 5 };
        let oracle = BoundOracle::new();
        let ob = bounds(&oracle, &net, Mode::HalfDuplex, Period::Systolic(4));
        let direct = bound_report(&net, Mode::HalfDuplex, Period::Systolic(4));
        assert_eq!(ob.report.n, direct.n);
        assert!((ob.report.general_rounds - direct.general_rounds).abs() < 1e-12);
        assert_eq!(
            ob.report.separator_coefficient,
            direct.separator_coefficient
        );
        assert_eq!(ob.report.diameter, direct.diameter);
        assert!((ob.report.best_rounds - direct.best_rounds).abs() < 1e-12);
    }

    #[test]
    fn each_key_is_computed_at_most_once() {
        let net = Network::Hypercube { k: 4 };
        let oracle = BoundOracle::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..4 {
                        let _ = bounds(&oracle, &net, Mode::HalfDuplex, Period::Systolic(4));
                        let _ = bounds(&oracle, &net, Mode::FullDuplex, Period::Systolic(4));
                    }
                });
            }
        });
        let stats = oracle.stats();
        assert_eq!(stats.lookups, 64);
        assert_eq!(stats.computes, 2, "exactly one compute per distinct key");
    }

    #[test]
    fn floors_follow_the_certifier_tie_breaking() {
        let oracle = BoundOracle::new();
        // Path: diameter n−1 dominates.
        let p = bounds(
            &oracle,
            &Network::Path { n: 8 },
            Mode::HalfDuplex,
            Period::Systolic(4),
        );
        assert_eq!(p.floor_rounds, 7);
        assert_eq!(p.floor_source, FloorSource::Diameter);
        // Hypercube: doubling floor k, diameter ties it — doubling wins.
        let q = bounds(
            &oracle,
            &Network::Hypercube { k: 3 },
            Mode::FullDuplex,
            Period::Systolic(3),
        );
        assert_eq!(q.floor_rounds, 3);
        assert_eq!(q.floor_source, FloorSource::Doubling);
        // Cycle at s = 2, half-duplex: the linear n − 1 floor.
        let c = bounds(
            &oracle,
            &Network::Cycle { n: 8 },
            Mode::HalfDuplex,
            Period::Systolic(2),
        );
        assert_eq!(c.floor_rounds, 7);
        assert_eq!(c.floor_source, FloorSource::LinearPeriodTwo);
        assert!(c.asymptotic_rounds.is_none(), "s = 2 is degenerate");
    }

    #[test]
    fn degenerate_s2_report_is_finite_only_in_the_floors() {
        let oracle = BoundOracle::new();
        let ob = bounds(
            &oracle,
            &Network::Cycle { n: 8 },
            Mode::HalfDuplex,
            Period::Systolic(2),
        );
        assert!(ob.report.general_rounds.is_infinite());
        assert!(ob.report.best_rounds.is_finite());
        assert!(ob.report.best_rounds >= 7.0);
    }

    #[test]
    fn protocol_bound_memoizes_by_content() {
        let oracle = BoundOracle::new();
        let sp = sg_protocol::builders::path_rrll(10);
        let a = oracle.protocol_bound(&sp, 10);
        let b = oracle.protocol_bound(&sp.clone(), 10);
        assert_eq!(a.map(|x| x.rounds), b.map(|x| x.rounds));
        let stats = oracle.stats();
        assert_eq!(stats.protocol_lookups, 2);
        assert_eq!(stats.protocol_computes, 1);
    }

    #[test]
    fn delay_matrix_source_reaches_the_composed_bounds() {
        let net = Network::Path { n: 10 };
        let g = net.build();
        let sp = sg_protocol::builders::path_rrll(10);
        let ob = evaluate_bounds(&BoundQuery {
            network: &net,
            graph: &g,
            diameter: sg_graphs::traversal::diameter(&g),
            mode: Mode::HalfDuplex,
            period: Period::Systolic(4),
            protocol: Some(&sp),
            opts: BoundOpts::default(),
        });
        let pb = ob.protocol_bound.expect("Thm 4.1 applies to the RRLL path");
        assert!(pb.rounds > 1.0);
        assert!(ob
            .contributions
            .iter()
            .any(|c| c.class == BoundClass::ProtocolSpecific));
        // Protocol-specific bounds never leak into the universal figure.
        let without = evaluate_bounds(&BoundQuery {
            network: &net,
            graph: &g,
            diameter: sg_graphs::traversal::diameter(&g),
            mode: Mode::HalfDuplex,
            period: Period::Systolic(4),
            protocol: None,
            opts: BoundOpts::default(),
        });
        assert!((ob.report.best_rounds - without.report.best_rounds).abs() < 1e-12);
    }

    #[test]
    fn family_cells_memoize() {
        let oracle = BoundOracle::new();
        let params = sg_graphs::separator::params_wbf_undirected(2);
        let a = oracle.family_cell(Some(params), BoundMode::HalfDuplex, Period::Systolic(4));
        let b = oracle.family_cell(Some(params), BoundMode::HalfDuplex, Period::Systolic(4));
        assert_eq!(a, b);
        assert!((a.0 - 2.0218).abs() < 1e-3);
        let stats = oracle.stats();
        assert_eq!(stats.family_computes, 1);
        assert_eq!(stats.family_lookups, 2);
        let (general, starred) =
            oracle.family_cell(None, BoundMode::HalfDuplex, Period::Systolic(4));
        assert!((general - 1.8133).abs() < 1e-3);
        assert!(!starred);
    }

    #[test]
    fn floor_source_labels_round_trip() {
        for src in [
            FloorSource::Diameter,
            FloorSource::Doubling,
            FloorSource::LinearPeriodTwo,
        ] {
            assert_eq!(FloorSource::from_label(src.label()), Some(src));
        }
        assert_eq!(FloorSource::from_label("nope"), None);
    }
}
