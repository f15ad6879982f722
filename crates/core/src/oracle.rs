//! The bound layer: every lower bound the repository knows about gossip
//! on a network, composed by one function and memoized by one oracle.
//!
//! * [`evaluate_bounds`] — the one uncached composition for a
//!   `(network, mode, period)`: the exact floors (`⌈log₂ n⌉` doubling,
//!   diameter, the degenerate `s = 2` linear `n − 1` of Section 4), the
//!   general `e(s) · log₂ n` coefficient of Corollary 4.4 / Section 6
//!   (with the characteristic root `λ*` of the periodic delay polynomial
//!   behind it) and the separator strengthening of Theorem 5.1, in an
//!   [`OracleBounds`] that embeds the classic [`BoundReport`] every
//!   streaming surface reads;
//! * [`BoundOracle`] — the memoizing front door, keyed on
//!   `(network, mode, period)`. Each key is computed **at most once**
//!   per oracle (guaranteed by the single-flight [`crate::Memo`], not
//!   just best-effort caching), which the scenario batch tests assert.
//!   It also memoizes Theorem 4.1 on a concrete protocol's delay matrix
//!   ([`BoundOracle::protocol_bound`], the bound certificates surface —
//!   exact, but only for executions of that protocol, so never part of
//!   the composition) and the family-table coefficient cells.
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

/// The merged answer for one `(network, mode, period)`.
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
}

/// Every bound on gossip in `mode` with period `period` over `net`, on its
/// built digraph `g` and measured `diameter` (`None` when not strongly
/// connected). The one uncached computation behind
/// [`crate::report::bound_report`] and the memoizing [`BoundOracle`].
///
/// # Panics
/// Panics when `mode` requires a symmetric digraph but the network is
/// directed.
pub fn evaluate_bounds(
    net: &Network,
    g: &Digraph,
    diameter: Option<u32>,
    mode: Mode,
    period: Period,
) -> OracleBounds {
    assert!(
        !(mode.requires_symmetric_graph() && net.is_directed()),
        "{} cannot run in {} mode",
        net.name(),
        mode
    );
    let n = g.vertex_count();

    // The exact floors in the certifier's tie-breaking order: doubling
    // (knowledge at most doubles per round), then the diameter, then the
    // degenerate s = 2 analysis of Section 4 (directed/half-duplex: the
    // activated arcs form a fixed directed structure along which items
    // advance one arc per round). A later floor wins only by strict
    // improvement, so ties keep the earlier, simpler source.
    let linear =
        (period == Period::Systolic(2) && mode != Mode::FullDuplex && n >= 1).then(|| n - 1);
    let mut floor_rounds = ceil_log2(n);
    let mut floor_source = FloorSource::Doubling;
    for (rounds, source) in [
        (diameter.map(|d| d as usize), FloorSource::Diameter),
        (linear, FloorSource::LinearPeriodTwo),
    ] {
        if let Some(r) = rounds.filter(|&r| r > floor_rounds) {
            floor_rounds = r;
            floor_source = source;
        }
    }

    // Corollary 4.4 / Section 6's e(s) and Theorem 5.1's separator
    // coefficient, for s ≥ 3 or non-systolic: at s = 2 the characteristic
    // function degenerates (λ* → 1, e(2) = ∞) and the linear floor
    // replaces both.
    let log2n = (n as f64).log2();
    let bm = bound_mode(mode);
    let coefficients = !matches!(period, Period::Systolic(s) if s < 3);
    let general = coefficients.then(|| {
        (
            e_coefficient(bm, period),
            coefficient_lambda_star(bm, period),
        )
    });
    let separator_coefficient = net
        .separator_params()
        .filter(|_| coefficients)
        .map(|p| e_separator(p, bm, period).e);
    let general_coefficient = general.map_or(f64::INFINITY, |(e, _)| e);
    let general_rounds = general.map_or(f64::INFINITY, |(e, _)| e * log2n);
    let separator_rounds = separator_coefficient.map(|e| e * log2n);

    // The strongest finite figure over the floor and the coefficients.
    let best_rounds = [general_rounds, separator_rounds.unwrap_or(f64::INFINITY)]
        .into_iter()
        .filter(|r| r.is_finite())
        .fold(floor_rounds as f64, f64::max);
    let asymptotic_rounds =
        general.map(|_| separator_rounds.map_or(general_rounds, |s| s.max(general_rounds)));

    OracleBounds {
        report: BoundReport {
            network: net.name(),
            n,
            mode,
            period,
            general_coefficient,
            general_rounds,
            separator_coefficient,
            separator_rounds,
            diameter,
            best_rounds,
        },
        floor_rounds,
        floor_source,
        asymptotic_rounds,
        lambda_star: general.map(|(_, lambda)| lambda),
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
    memo: Memo<Key, Arc<OracleBounds>>,
    protocol_memo: Memo<ProtocolKey, Option<ProtocolBound>>,
    family_memo: Memo<FamilyKey, (f64, bool)>,
}

impl BoundOracle {
    /// An empty oracle.
    pub fn new() -> Self {
        Self::default()
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
            Arc::new(evaluate_bounds(net, g, diameter, mode, period))
        })
    }

    /// Theorem 4.1 on a concrete protocol, memoized on the protocol's
    /// full content (rounds + mode) and `n` — repeated certifications of
    /// the same schedule share one λ-search.
    pub fn protocol_bound(&self, sp: &SystolicProtocol, n: usize) -> Option<ProtocolBound> {
        let key: ProtocolKey = (sp.period().to_vec(), sp.mode(), n);
        self.protocol_memo.get_or_compute(key, || {
            let dg = DelayDigraph::periodic(sp);
            theorem_4_1_bound_from_digraph(&dg, n, BoundOpts::default())
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
        // Path at s = 2, half-duplex: the linear n − 1 ties the diameter,
        // so the earlier diameter keeps the floor.
        let p2 = bounds(
            &oracle,
            &Network::Path { n: 8 },
            Mode::HalfDuplex,
            Period::Systolic(2),
        );
        assert_eq!(
            (p2.floor_rounds, p2.floor_source),
            (7, FloorSource::Diameter)
        );
        // Cycle at s = 2, full-duplex: no linear floor in this mode, so
        // the diameter n/2 holds it, and s = 2 still has no coefficient.
        let c2 = bounds(
            &oracle,
            &Network::Cycle { n: 8 },
            Mode::FullDuplex,
            Period::Systolic(2),
        );
        assert_eq!(
            (c2.floor_rounds, c2.floor_source),
            (4, FloorSource::Diameter)
        );
        assert!(c2.asymptotic_rounds.is_none());
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
