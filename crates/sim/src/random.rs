//! Randomized-gossip baseline engine: Push / Pull / Exchange trials.
//!
//! The paper's systolic protocols are deterministic and worst-case
//! optimal; this module measures how far *oblivious randomized* gossip
//! lands from those exact optima on the same topologies. The model is
//! the classic synchronous one analyzed by Borokhovich–Avin–Lotker
//! (arXiv:1001.3265) and Haeupler (arXiv:1205.6961): in every round each
//! vertex `v` independently picks a uniform neighbor `c(v)`, and then
//!
//! - **Push** transfers along `v → c(v)`,
//! - **Pull** transfers along `c(v) → v`,
//! - **Exchange** transfers along both arcs at once.
//!
//! All transfers of a round read beginning-of-round knowledge — the same
//! Definition 3.1 semantics the systolic engines use — so the measured
//! stopping times are directly comparable to the systolic optima.
//!
//! Determinism is counter-based, mirroring `crates/exec`'s fault layer:
//! every `(seed, trial, round)` triple is mixed through a
//! splitmix64-style finalizer into the seed of a fresh per-round
//! [`StdRng`], and the `n` neighbor choices of that round are drawn from
//! it in vertex order. A trial is therefore a pure function of
//! `(graph, model, seed, trial)` — batches are bit-identical at any
//! thread count, which the determinism suite pins at 1/2/8 threads.
//!
//! State is the sparse row table ([`SparseKnowledge`]): randomized
//! gossip scatters knowledge, so rows spill to dense words mid-run, but
//! completed rows retire to zero bytes — random-regular trials at
//! n = 10⁵ fit comfortably under the large-sim memory ceiling.

use crate::fan_out::fan_out;
use crate::sparse::SparseKnowledge;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sg_graphs::digraph::Digraph;

/// Which arcs a vertex's uniform neighbor choice activates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActivationModel {
    /// `v` sends its knowledge to its choice: arc `v → c(v)`.
    Push,
    /// `v` reads its choice's knowledge: arc `c(v) → v`.
    Pull,
    /// Both directions at once: `v → c(v)` and `c(v) → v`.
    Exchange,
}

impl ActivationModel {
    /// All three models, in presentation order.
    pub const ALL: [ActivationModel; 3] = [
        ActivationModel::Push,
        ActivationModel::Pull,
        ActivationModel::Exchange,
    ];

    /// Stable lowercase label (rows, JSON, CLI).
    pub fn label(self) -> &'static str {
        match self {
            ActivationModel::Push => "push",
            ActivationModel::Pull => "pull",
            ActivationModel::Exchange => "exchange",
        }
    }
}

/// Counter-based stream key: a pure splitmix64-style mix of
/// `(seed, trial, round)`, so every round of every trial owns an
/// independent reproducible stream regardless of execution order.
fn mix(seed: u64, trial: u64, round: u64) -> u64 {
    let mut z = seed
        .wrapping_add(trial.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(round.wrapping_mul(0xD6E8_FEB8_6659_FD93));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The generator for one round of one trial, keyed purely by counters.
pub fn trial_round_rng(seed: u64, trial: u64, round: u64) -> StdRng {
    StdRng::seed_from_u64(mix(seed, trial, round))
}

/// Draws each vertex's uniform neighbor choice for one round, in vertex
/// order off the round's counter-keyed stream. An isolated vertex
/// chooses itself (the resulting self-loop transfers nothing).
pub fn round_choices(g: &Digraph, seed: u64, trial: u64, round: u64, out: &mut Vec<u32>) {
    let mut rng = trial_round_rng(seed, trial, round);
    out.clear();
    for v in 0..g.vertex_count() {
        let nb = g.out_neighbors(v);
        if nb.is_empty() {
            out.push(v as u32);
        } else {
            out.push(nb[rng.gen_range(0..nb.len())]);
        }
    }
}

/// Expands the per-vertex choices into the round's `(from, to)` arc
/// list under the activation model.
pub fn round_arcs(model: ActivationModel, choices: &[u32], out: &mut Vec<(u32, u32)>) {
    out.clear();
    for (v, &c) in choices.iter().enumerate() {
        let v = v as u32;
        match model {
            ActivationModel::Push => out.push((v, c)),
            ActivationModel::Pull => out.push((c, v)),
            ActivationModel::Exchange => {
                out.push((v, c));
                out.push((c, v));
            }
        }
    }
}

/// One trial's configuration, shared by a whole batch.
#[derive(Debug, Clone, Copy)]
pub struct RandomizedConfig {
    /// Activation model for every trial in the batch.
    pub model: ActivationModel,
    /// Number of independent trials.
    pub trials: usize,
    /// Base seed; trial `t` draws from the `(seed, t, round)` streams.
    pub seed: u64,
    /// Round budget per trial; a trial that exhausts it reports
    /// `completed_at = None`.
    pub max_rounds: usize,
    /// Thread budget for the batch, the calling thread counted (`0` and
    /// `1` both mean sequential; only `BatchOptions::threads` in
    /// `sg-scenario` reads `0` as one per core). Never affects results,
    /// only wall-clock.
    pub threads: usize,
    /// Per-trial sparse-state byte ceiling; a trial that exceeds it
    /// aborts (`aborted_mem`). Fixed per trial, so outcomes stay
    /// thread-count-independent.
    pub mem_limit: Option<usize>,
}

/// Outcome of one independent trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialResult {
    /// Trial index within the batch.
    pub trial: usize,
    /// First round after which every vertex knew every item.
    pub completed_at: Option<usize>,
    /// Rounds actually executed.
    pub rounds_run: usize,
    /// Peak sparse-state bytes observed.
    pub peak_bytes: usize,
    /// `true` if the trial hit `mem_limit` and stopped early.
    pub aborted_mem: bool,
}

/// Summary statistics over the *completed* trials of a batch
/// (nearest-rank median/p95).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RandomizedSummary {
    /// Trials in the batch.
    pub trials: usize,
    /// Trials that completed within the round budget.
    pub completed: usize,
    /// Mean stopping time over completed trials.
    pub mean: f64,
    /// Nearest-rank median stopping time.
    pub median: usize,
    /// Nearest-rank 95th-percentile stopping time.
    pub p95: usize,
    /// Worst completed stopping time.
    pub max: usize,
    /// Best completed stopping time.
    pub min: usize,
}

/// Runs a single trial to completion, budget exhaustion, or the memory
/// ceiling. Pure in `(g, model, seed, trial)`.
pub fn run_trial(
    g: &Digraph,
    model: ActivationModel,
    seed: u64,
    trial: usize,
    max_rounds: usize,
    mem_limit: Option<usize>,
) -> TrialResult {
    let n = g.vertex_count();
    let mut k = SparseKnowledge::new(n);
    let mut peak = k.state_bytes();
    let done = |completed_at, rounds_run, peak, aborted_mem| TrialResult {
        trial,
        completed_at,
        rounds_run,
        peak_bytes: peak,
        aborted_mem,
    };
    if k.all_complete() {
        return done(Some(0), 0, peak, false);
    }
    let mut choices = Vec::with_capacity(n);
    let mut arcs = Vec::new();
    for r in 0..max_rounds {
        round_choices(g, seed, trial as u64, r as u64, &mut choices);
        round_arcs(model, &choices, &mut arcs);
        k.apply_round(&arcs);
        peak = peak.max(k.state_bytes());
        if k.all_complete() {
            return done(Some(r + 1), r + 1, peak, false);
        }
        if mem_limit.is_some_and(|limit| k.state_bytes() > limit) {
            return done(None, r + 1, peak, true);
        }
    }
    done(None, max_rounds, peak, false)
}

/// Runs a batch of independent trials, fanned out over a budget of
/// `cfg.threads` threads (the calling thread counted). Results are
/// sorted by trial index and bit-identical at any thread count (each
/// trial's randomness is keyed purely by counters).
pub fn run_randomized(g: &Digraph, cfg: &RandomizedConfig) -> Vec<TrialResult> {
    let mut out: Vec<TrialResult> = fan_out(cfg.threads, cfg.trials, Vec::new, |done, t| {
        done.push(run_trial(
            g,
            cfg.model,
            cfg.seed,
            t,
            cfg.max_rounds,
            cfg.mem_limit,
        ));
    })
    .into_iter()
    .flatten()
    .collect();
    out.sort_unstable_by_key(|r| r.trial);
    out
}

/// Nearest-rank order statistic over a sorted sample: the smallest
/// element whose rank covers quantile `q` (in percent).
fn nearest_rank(sorted: &[usize], q_percent: usize) -> usize {
    debug_assert!(!sorted.is_empty());
    let rank = (sorted.len() * q_percent).div_ceil(100).max(1);
    sorted[rank - 1]
}

/// Summarizes a batch; `None` when no trial completed.
pub fn summarize(trials: &[TrialResult]) -> Option<RandomizedSummary> {
    let mut times: Vec<usize> = trials.iter().filter_map(|t| t.completed_at).collect();
    if times.is_empty() {
        return None;
    }
    times.sort_unstable();
    let sum: usize = times.iter().sum();
    Some(RandomizedSummary {
        trials: trials.len(),
        completed: times.len(),
        mean: sum as f64 / times.len() as f64,
        median: nearest_rank(&times, 50),
        p95: nearest_rank(&times, 95),
        max: *times.last().unwrap(),
        min: times[0],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_graphs::generators;

    fn cfg(model: ActivationModel, trials: usize, threads: usize) -> RandomizedConfig {
        RandomizedConfig {
            model,
            trials,
            seed: 1997,
            max_rounds: 10_000,
            threads,
            mem_limit: None,
        }
    }

    #[test]
    fn every_model_completes_on_a_complete_graph() {
        let g = generators::complete(8);
        for model in ActivationModel::ALL {
            let trials = run_randomized(&g, &cfg(model, 16, 1));
            assert!(trials.iter().all(|t| t.completed_at.is_some()), "{model:?}");
            let s = summarize(&trials).unwrap();
            // Even single-item broadcast needs ≥ ⌈lg n⌉ = 3 rounds.
            assert!(s.min >= 3, "{model:?}: min {} below doubling floor", s.min);
        }
    }

    #[test]
    fn same_seed_same_results_any_thread_count() {
        let g = generators::cycle(24);
        let base = run_randomized(&g, &cfg(ActivationModel::Exchange, 12, 1));
        for threads in [2, 5, 8] {
            let got = run_randomized(&g, &cfg(ActivationModel::Exchange, 12, threads));
            assert_eq!(got, base, "threads = {threads}");
        }
    }

    #[test]
    fn distinct_trials_are_distinct_streams() {
        let g = generators::cycle(32);
        let mut a = Vec::new();
        let mut b = Vec::new();
        round_choices(&g, 7, 0, 0, &mut a);
        round_choices(&g, 7, 1, 0, &mut b);
        assert_ne!(a, b, "trial 0 and 1 drew identical choice vectors");
    }

    #[test]
    fn exhausted_budget_reports_incomplete() {
        let g = generators::cycle(64);
        let t = run_trial(&g, ActivationModel::Push, 1, 0, 3, None);
        assert_eq!(t.completed_at, None);
        assert_eq!(t.rounds_run, 3);
        assert!(!t.aborted_mem);
    }

    #[test]
    fn mem_limit_aborts_the_trial() {
        let g = generators::complete(64);
        let t = run_trial(&g, ActivationModel::Exchange, 1, 0, 100, Some(1));
        assert!(t.aborted_mem);
        assert_eq!(t.completed_at, None);
    }

    #[test]
    fn summary_statistics_are_nearest_rank() {
        let trials: Vec<TrialResult> = [5usize, 3, 9, 7]
            .iter()
            .enumerate()
            .map(|(i, &t)| TrialResult {
                trial: i,
                completed_at: Some(t),
                rounds_run: t,
                peak_bytes: 0,
                aborted_mem: false,
            })
            .collect();
        let s = summarize(&trials).unwrap();
        assert_eq!(s.completed, 4);
        assert_eq!(s.mean, 6.0);
        assert_eq!(s.median, 5);
        assert_eq!(s.p95, 9);
        assert_eq!(s.max, 9);
        assert_eq!(s.min, 3);
    }
}
