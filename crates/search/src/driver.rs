//! The multi-start simulated-annealing driver.
//!
//! The search space is the set of valid round schedules of one exact
//! period `s` for a `(network, mode)` pair; the driver runs one
//! independent annealing chain per restart, fanned out by
//! [`sg_sim::fan_out()`] over the thread budget. Each chain is
//! seeded deterministically from `(seed, period, restart)`, evaluates
//! candidates through the compiled-schedule engine with an
//! incumbent-based horizon cutoff
//! ([`sg_sim::run_systolic_with_horizon`]), and never shares state with
//! other chains — which is what makes the outcome bit-identical across
//! any thread count (tested in `tests/determinism.rs`).

use crate::candidate::Candidate;
use crate::certificate::{certify_with, Certificate};
use crate::kernel::MutationKernel;
use crate::seeds::{fit_to_period, seed_protocols};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sg_graphs::digraph::Digraph;
use sg_protocol::mode::Mode;
use sg_protocol::protocol::SystolicProtocol;
use sg_sim::{fan_out, CompiledSchedule, CompletionCursor, Knowledge};
use systolic_gossip::{BoundOracle, Network};

/// Initial annealing temperature, in rounds of gossip time.
const INIT_TEMPERATURE: f64 = 3.0;

/// Geometric cooling factor per iteration.
const COOLING: f64 = 0.995;

/// Rounds past the incumbent a candidate may run before the horizon
/// aborts it (the SA still needs to see mildly-worse candidates).
const HORIZON_SLACK: usize = 8;

/// Knobs of one search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchConfig {
    /// The exact systolic period to search (`>= 2`; the bound engine's
    /// period taxonomy starts there).
    pub period: usize,
    /// Independent annealing chains.
    pub restarts: usize,
    /// Mutation/evaluation steps per chain.
    pub iterations: usize,
    /// Master seed; every chain derives its own stream from
    /// `(seed, period, restart)`.
    pub seed: u64,
    /// Thread budget across chains, the calling thread counted (`0` and
    /// `1` both mean sequential; only `BatchOptions::threads` in
    /// `sg-scenario` reads `0` as one per core). Results are identical
    /// for every value.
    pub threads: usize,
}

impl Default for SearchConfig {
    fn default() -> Self {
        Self {
            period: 2,
            restarts: 8,
            iterations: 600,
            seed: 1997,
            threads: 1,
        }
    }
}

impl SearchConfig {
    /// An exact-period search at `s`.
    pub fn exact_period(mut self, s: usize) -> Self {
        self.period = s;
        self
    }
}

/// What one search produced.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// The best schedule found (seeded start if nothing improved).
    pub best: SystolicProtocol,
    /// Its measured gossip time, `None` when no evaluated candidate
    /// completed within the budget (pathological configs only).
    pub best_rounds: Option<usize>,
    /// Certificate against the lower bounds, when a completing schedule
    /// was found.
    pub certificate: Option<Certificate>,
    /// Total candidate evaluations across all chains.
    pub evaluations: usize,
    /// Chains run (one per restart).
    pub chains: usize,
}

/// One annealing chain's result.
struct ChainResult {
    rounds: Vec<sg_protocol::round::Round>,
    completed: Option<usize>,
    cost: f64,
    evaluations: usize,
}

/// Splitmix-style mix of the master seed with the chain coordinates.
fn chain_seed(master: u64, period: usize, restart: usize) -> u64 {
    let mut z = master
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((period as u64) << 32)
        .wrapping_add(restart as u64 + 1);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Evaluates a candidate: gossip time when it completes within
/// `min(budget, horizon)`, otherwise a cost past the horizon graded by
/// how much knowledge is still missing (gives the annealer a gradient
/// among losing candidates).
///
/// The loop is the compiled-schedule engine run loop with the same
/// incumbent-horizon cutoff as [`sg_sim::run_systolic_with_horizon`]
/// (the conformance-pinned public form), inlined so the hot path
/// neither allocates a trace nor scans `min_count` per round — the
/// final scan happens once, and only for losing candidates.
fn evaluate(
    cand: &Candidate,
    n: usize,
    budget: usize,
    horizon: Option<usize>,
) -> (f64, Option<usize>) {
    let mut sched = CompiledSchedule::compile(&cand.rounds, n);
    let cap = horizon.unwrap_or(budget).min(budget);
    let mut k = Knowledge::initial(n);
    let mut cursor = CompletionCursor::new();
    if cursor.complete(&k) {
        return (0.0, Some(0));
    }
    for i in 0..cap {
        sched.apply(&mut k, i);
        if cursor.complete(&k) {
            let t = i + 1;
            return (t as f64, Some(t));
        }
    }
    let missing = (n - k.min_count()) as f64 / n.max(1) as f64;
    (cap as f64 + 1.0 + missing, None)
}

fn run_chain(
    g: &Digraph,
    kernel: &MutationKernel,
    start: Candidate,
    seed: u64,
    budget: usize,
    iterations: usize,
) -> ChainResult {
    let n = g.vertex_count();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cur = start;
    debug_assert!(cur.validate(g).is_ok(), "seed candidate must be valid");
    let (mut cur_cost, mut cur_completed) = evaluate(&cur, n, budget, None);
    let mut best = cur.clone();
    let mut best_cost = cur_cost;
    let mut best_completed = cur_completed;
    let mut evaluations = 1usize;
    let mut temp = INIT_TEMPERATURE;
    for _ in 0..iterations {
        let mut cand = cur.clone();
        kernel.mutate(&mut cand, &mut rng);
        debug_assert!(cand.validate(g).is_ok(), "mutation broke validity");
        // Incumbent horizon: a candidate that has not completed within
        // `cur + slack` rounds cannot be accepted cheaply — stop it there.
        let horizon = (cur_cost.ceil() as usize).saturating_add(HORIZON_SLACK);
        let (cost, completed) = evaluate(&cand, n, budget, Some(horizon.min(budget)));
        evaluations += 1;
        let accept =
            cost <= cur_cost || rng.gen::<f64>() < (-(cost - cur_cost) / temp.max(1e-9)).exp();
        if accept {
            cur = cand;
            cur_cost = cost;
            cur_completed = completed;
            if cost < best_cost {
                best = cur.clone();
                best_cost = cost;
                best_completed = cur_completed;
            }
        }
        temp *= COOLING;
    }
    ChainResult {
        rounds: best.rounds,
        completed: best_completed,
        cost: best_cost,
        evaluations,
    }
}

/// Runs the full search for `net` in `mode`, building the graph and
/// measuring its diameter on the spot and certifying against a throwaway
/// bound oracle. Batch callers with a cached graph and a shared oracle
/// use [`search_with_oracle`].
pub fn search(net: &Network, mode: Mode, cfg: &SearchConfig) -> SearchOutcome {
    let g = net.build();
    let diameter = sg_graphs::traversal::diameter(&g);
    search_with_oracle(&BoundOracle::new(), net, &g, diameter, mode, cfg)
}

/// The full search against a shared memoizing [`BoundOracle`] — repeated
/// searches over one `(network, mode, period)` certify against one bound
/// computation.
///
/// Chains are independent and deterministically seeded, so the outcome
/// (best schedule, certificate, evaluation count) is identical for every
/// `cfg.threads` value.
pub fn search_with_oracle(
    oracle: &BoundOracle,
    net: &Network,
    g: &Digraph,
    diameter: Option<u32>,
    mode: Mode,
    cfg: &SearchConfig,
) -> SearchOutcome {
    assert!(
        cfg.period >= 2,
        "search needs a period >= 2, got {}",
        cfg.period
    );
    assert!(cfg.restarts >= 1, "search needs at least one restart");
    let s = cfg.period;
    // Simulation rounds per evaluation: the conformance suite's generous
    // default.
    let budget = 40 * g.vertex_count() + 200;
    let kernel = MutationKernel::new(g, mode);
    let seeds = seed_protocols(net, g, mode);

    // One chain per restart; each derives its start and rng stream from
    // `(seed, period, restart)` alone.
    let start_of = |r: usize| -> Candidate {
        if r < seeds.len() {
            fit_to_period(&seeds[r], s, mode)
        } else {
            let mut rng = StdRng::seed_from_u64(chain_seed(cfg.seed ^ 0xA5A5, s, r));
            kernel.random_candidate(s, &mut rng)
        }
    };

    let mut results: Vec<(usize, ChainResult)> =
        fan_out(cfg.threads, cfg.restarts, Vec::new, |done, r| {
            let seed = chain_seed(cfg.seed, s, r);
            done.push((
                r,
                run_chain(g, &kernel, start_of(r), seed, budget, cfg.iterations),
            ));
        })
        .into_iter()
        .flatten()
        .collect();
    results.sort_by_key(|(i, _)| *i);

    // Deterministic reduction: completing chains beat non-completing
    // ones, then lower cost, then (stable) lower restart index.
    let evaluations: usize = results.iter().map(|(_, r)| r.evaluations).sum();
    let chains = results.len();
    let (_, winner) = results
        .into_iter()
        .min_by(|(ia, a), (ib, b)| {
            b.completed
                .is_some()
                .cmp(&a.completed.is_some())
                .then(a.cost.total_cmp(&b.cost))
                .then(ia.cmp(ib))
        })
        .expect("at least one chain ran");

    let best = SystolicProtocol::new(winner.rounds, mode);
    let certificate = winner
        .completed
        .map(|t| certify_with(oracle, net, g, diameter, mode, best.s(), t, Some(&best)));
    SearchOutcome {
        best,
        best_rounds: winner.completed,
        certificate,
        evaluations,
        chains,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::Verdict;

    fn quick(seed: u64) -> SearchConfig {
        SearchConfig {
            restarts: 3,
            iterations: 120,
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn path_full_duplex_search_is_optimal_at_diameter() {
        // P_8, full-duplex: the alternating coloring seed already meets
        // the n − 1 diameter floor, so the search must certify Optimal.
        let net = Network::Path { n: 8 };
        let out = search(&net, Mode::FullDuplex, &quick(1).exact_period(2));
        assert_eq!(out.best_rounds, Some(7));
        let cert = out.certificate.expect("completing schedule");
        assert_eq!(cert.verdict, Verdict::Optimal);
        assert_eq!(cert.floor_rounds, 7);
        // The winner is executable and valid.
        out.best.validate(&net.build()).expect("valid");
    }

    #[test]
    fn hypercube_search_meets_the_doubling_floor() {
        let net = Network::Hypercube { k: 3 };
        let out = search(&net, Mode::FullDuplex, &quick(2).exact_period(3));
        assert_eq!(out.best_rounds, Some(3));
        assert_eq!(
            out.certificate.expect("certificate").verdict,
            Verdict::Optimal
        );
    }

    #[test]
    fn gaps_are_reported_not_dropped() {
        // C_8 half-duplex at s = 2: the linear floor is n − 1 = 7 but the
        // two-color schedule needs n = 8 rounds; whatever the search
        // finds, the certificate must carry the gap explicitly.
        let net = Network::Cycle { n: 8 };
        let out = search(&net, Mode::HalfDuplex, &quick(3).exact_period(2));
        let t = out.best_rounds.expect("completes");
        let cert = out.certificate.expect("certificate");
        assert_eq!(cert.gap_rounds(), t - 7);
        if t == 7 {
            assert_eq!(cert.verdict, Verdict::Optimal);
        } else {
            assert!(matches!(cert.verdict, Verdict::Gap { .. }));
        }
    }

    #[test]
    fn evaluation_counter_and_chain_count_add_up() {
        let net = Network::Cycle { n: 6 };
        let cfg = SearchConfig {
            restarts: 2,
            iterations: 50,
            seed: 9,
            ..Default::default()
        }
        .exact_period(3);
        let out = search(&net, Mode::FullDuplex, &cfg);
        assert_eq!(out.chains, 2); // one chain per restart
        assert_eq!(out.evaluations, 2 * 51); // initial eval + iterations
    }

    /// A search runs at one exact period; below 2 it panics.
    #[test]
    #[should_panic(expected = "period >= 2")]
    fn rejects_degenerate_period_band() {
        let net = Network::Path { n: 4 };
        let cfg = SearchConfig::default().exact_period(1);
        let _ = search(&net, Mode::HalfDuplex, &cfg);
    }
}
