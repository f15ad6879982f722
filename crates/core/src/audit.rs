//! Protocol audits: run a concrete systolic protocol against every check
//! the paper provides — validity, measured gossip time, the delay-matrix
//! bound of Theorem 4.1, the closed-form coefficient of Corollary 4.4 —
//! and report whether the execution is consistent with the theory.

use crate::network::Network;
use crate::report::bound_mode;
use sg_bounds::e_coefficient;
use sg_bounds::pfun::Period;
use sg_delay::bound::{s2_lower_bound, theorem_4_1_bound_from_digraph, BoundOpts, ProtocolBound};
use sg_delay::digraph::DelayDigraph;
use sg_protocol::protocol::SystolicProtocol;
use sg_protocol::round::ProtocolError;
use sg_sim::engine::systolic_gossip_time;

/// The complete audit of one protocol on one network.
#[derive(Debug, Clone)]
pub struct ProtocolAudit {
    /// Network name.
    pub network: String,
    /// Number of processors.
    pub n: usize,
    /// Validation outcome (matching conditions, arc membership).
    pub validation: Result<(), ProtocolError>,
    /// The systolic period `s`.
    pub s: usize,
    /// Measured gossip completion time (rounds), if it completed within
    /// the budget.
    pub measured_rounds: Option<usize>,
    /// Theorem 4.1's protocol-specific bound.
    pub matrix_bound: Option<ProtocolBound>,
    /// Corollary 4.4's closed-form bound in rounds
    /// (`e(s)·log₂ n`, no lower-order correction); at `s = 2`, the
    /// linear floor of [`s2_lower_bound`].
    pub closed_form_rounds: f64,
    /// Delay-digraph size `(vertices, arcs)` for reference.
    pub delay_digraph_size: (usize, usize),
}

impl ProtocolAudit {
    /// `true` when every applicable lower bound is below the measured
    /// gossip time — the soundness check of the whole theory chain.
    /// (The closed-form bound carries a `−O(log log n)` slack in the
    /// paper, so it is checked with that allowance.)
    pub fn is_sound(&self) -> bool {
        let Some(t) = self.measured_rounds else {
            return true; // nothing measured, nothing to contradict
        };
        let t = t as f64;
        if let Some(mb) = &self.matrix_bound {
            // Theorem 4.1 is exact: measured must exceed it.
            if mb.rounds > t + 1e-9 {
                return false;
            }
        }
        // Corollary 4.4 allows an O(log log n) additive slack; use
        // 2·log₂(max(t, 2)) as the concrete allowance (the constant the
        // theorem's proof produces).
        let slack = 2.0 * t.max(2.0).log2();
        self.closed_form_rounds - slack <= t + 1e-9
    }
}

/// Audits `sp` on `network`, simulating at most `max_rounds` rounds.
pub fn audit(
    network: &Network,
    sp: &SystolicProtocol,
    max_rounds: usize,
    opts: BoundOpts,
) -> ProtocolAudit {
    let g = network.build();
    let dg = DelayDigraph::periodic(sp);
    // Only execute protocols that pass validation: invalid arc sets
    // could reference vertices outside the network.
    let measured = sp
        .validate(&g)
        .is_ok()
        .then(|| systolic_gossip_time(sp, g.vertex_count(), max_rounds))
        .flatten();
    audit_measured(network, &g, sp, &dg, measured, opts)
}

/// [`audit`] on an already-built digraph and delay digraph, with the
/// gossip time already measured elsewhere (e.g. by a completion-curve run
/// over the same deterministic protocol), so callers that already
/// simulated don't pay for a second execution. `measured` is ignored
/// when the protocol fails validation.
pub fn audit_measured(
    network: &Network,
    g: &sg_graphs::digraph::Digraph,
    sp: &SystolicProtocol,
    dg: &DelayDigraph,
    measured: Option<usize>,
    opts: BoundOpts,
) -> ProtocolAudit {
    let n = g.vertex_count();
    let validation = sp.validate(g);
    let measured = validation.is_ok().then_some(measured).flatten();
    let size = (dg.vertex_count(), dg.edge_count());
    let matrix_bound = theorem_4_1_bound_from_digraph(dg, n, opts);
    // Section 4 special-cases s = 2: the activated arcs form a fixed
    // structure along which items move one arc per round, so the bound is
    // linear in n, not a multiple of log n.
    let closed_form = if sp.s() == 2 {
        s2_lower_bound(sp, n).unwrap_or(0) as f64
    } else {
        e_coefficient(bound_mode(sp.mode()), Period::Systolic(sp.s())) * (n as f64).log2()
    };
    ProtocolAudit {
        network: network.name(),
        n,
        validation,
        s: sp.s(),
        measured_rounds: measured,
        matrix_bound,
        closed_form_rounds: closed_form,
        delay_digraph_size: size,
    }
}

impl std::fmt::Display for ProtocolAudit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "audit of s={} protocol on {} (n = {}):",
            self.s, self.network, self.n
        )?;
        writeln!(
            f,
            "  valid      : {}",
            match &self.validation {
                Ok(()) => "yes".to_string(),
                Err(e) => format!("NO — {e}"),
            }
        )?;
        writeln!(
            f,
            "  measured   : {}",
            self.measured_rounds
                .map_or("did not complete".into(), |t| format!("{t} rounds")),
        )?;
        if let Some(mb) = &self.matrix_bound {
            writeln!(
                f,
                "  Thm 4.1    : t > {:.1} rounds  (λ* = {:.4})",
                mb.rounds, mb.lambda_star
            )?;
        } else {
            writeln!(f, "  Thm 4.1    : no bound (degenerate delay matrix)")?;
        }
        writeln!(
            f,
            "  Cor 4.4    : {:.1} rounds − O(log log n)",
            self.closed_form_rounds
        )?;
        write!(
            f,
            "  consistent : {}",
            if self.is_sound() { "yes" } else { "VIOLATION" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_protocol::builders;

    #[test]
    fn hypercube_audit_sound() {
        let k = 5;
        let net = Network::Hypercube { k };
        let sp = builders::hypercube_sweep(k);
        let a = audit(&net, &sp, 200, BoundOpts::default());
        assert!(a.validation.is_ok());
        assert_eq!(a.measured_rounds, Some(k));
        assert!(a.is_sound(), "{a}");
        assert!(a.to_string().contains("consistent : yes"));
    }

    #[test]
    fn path_audit_sound_and_matrix_bound_present() {
        let n = 12;
        let net = Network::Path { n };
        let sp = builders::path_rrll(n);
        let a = audit(&net, &sp, 100 * n, BoundOpts::default());
        assert!(a.validation.is_ok());
        assert!(a.measured_rounds.is_some());
        let mb = a.matrix_bound.as_ref().expect("path protocol has a bound");
        assert!(mb.rounds > 1.0);
        assert!(a.is_sound(), "{a}");
    }

    #[test]
    fn grid_and_knodel_audits_sound() {
        let cases: Vec<(Network, SystolicProtocol)> = vec![
            (
                Network::Grid2d { w: 5, h: 4 },
                builders::grid_traffic_light(5, 4),
            ),
            (
                Network::Knodel { delta: 4, n: 16 },
                builders::knodel_sweep(4, 16),
            ),
            (Network::Cycle { n: 10 }, builders::cycle_rrll(10)),
        ];
        for (net, sp) in cases {
            let a = audit(&net, &sp, 5000, BoundOpts::default());
            assert!(a.validation.is_ok(), "{}", net.name());
            assert!(a.measured_rounds.is_some(), "{}", net.name());
            assert!(a.is_sound(), "{a}");
        }
    }

    #[test]
    fn invalid_protocol_is_reported() {
        // A path protocol applied to a *shorter* path: arcs out of range
        // are caught by validation (the simulation still runs on the
        // declared n, so we only check the validation field).
        let net = Network::Path { n: 4 };
        let sp = builders::path_rrll(6);
        let a = audit(&net, &sp, 100, BoundOpts::default());
        assert!(a.validation.is_err());
    }
}
