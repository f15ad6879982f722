//! Per-round knowledge statistics: the "completion curve" of a protocol
//! execution, used by the validation experiments to visualize how far a
//! protocol is from the lower bounds.

use crate::bitset::Knowledge;
use crate::pool::PoolEngine;
use crate::schedule::CompiledSchedule;
use sg_protocol::protocol::SystolicProtocol;

/// Knowledge statistics after one round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundStats {
    /// 1-based round index.
    pub round: usize,
    /// Minimum knowledge count over processors.
    pub min: usize,
    /// Maximum knowledge count over processors.
    pub max: usize,
    /// Mean knowledge count.
    pub mean: f64,
}

fn stats_after(k: &Knowledge, round: usize) -> RoundStats {
    let n = k.n();
    let mut min = usize::MAX;
    let mut max = 0usize;
    let mut sum = 0usize;
    for v in 0..n {
        let c = k.count(v);
        min = min.min(c);
        max = max.max(c);
        sum += c;
    }
    RoundStats {
        round,
        min: if n == 0 { 0 } else { min },
        max,
        mean: sum as f64 / n.max(1) as f64,
    }
}

/// Runs a systolic protocol for up to `max_rounds` through the compiled
/// engine, recording statistics after every round; stops as soon as
/// gossip completes.
pub fn knowledge_curve(sp: &SystolicProtocol, n: usize, max_rounds: usize) -> Vec<RoundStats> {
    let mut sched = CompiledSchedule::compile(sp.period(), n);
    let mut k = Knowledge::initial(n);
    let mut out = Vec::new();
    for i in 0..max_rounds {
        sched.apply(&mut k, i);
        let s = stats_after(&k, i + 1);
        out.push(s);
        if s.min == n {
            break;
        }
    }
    out
}

/// [`knowledge_curve`] through the persistent worker-pool engine: the
/// pool is built once and reused across all rounds, so the per-round
/// cost is one task dispatch instead of a thread spawn. Bit-identical
/// output; `threads <= 1` takes the sequential compiled path.
pub fn knowledge_curve_pool(
    sp: &SystolicProtocol,
    n: usize,
    max_rounds: usize,
    threads: usize,
) -> Vec<RoundStats> {
    if threads <= 1 {
        return knowledge_curve(sp, n, max_rounds);
    }
    let mut engine = PoolEngine::for_protocol(sp, n, threads);
    let mut k = Knowledge::initial(n);
    let mut out = Vec::new();
    for i in 0..max_rounds {
        engine.apply(&mut k, i);
        let s = stats_after(&k, i + 1);
        out.push(s);
        if s.min == n {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_protocol::builders;

    #[test]
    fn curve_monotone_and_terminates() {
        let sp = builders::hypercube_sweep(4);
        let curve = knowledge_curve(&sp, 16, 100);
        assert_eq!(curve.len(), 4); // completes in exactly 4 rounds
        for w in curve.windows(2) {
            assert!(w[0].min <= w[1].min);
            assert!(w[0].mean <= w[1].mean);
        }
        let last = curve.last().unwrap();
        assert_eq!(last.min, 16);
        assert_eq!(last.max, 16);
    }

    #[test]
    fn doubling_limit_respected() {
        // In full-duplex mode knowledge can at most double per round.
        let sp = builders::hypercube_sweep(5);
        let curve = knowledge_curve(&sp, 32, 100);
        let mut prev = 1usize;
        for s in &curve {
            assert!(
                s.max <= prev * 2,
                "round {}: {} > 2*{}",
                s.round,
                s.max,
                prev
            );
            prev = s.max;
        }
    }

    #[test]
    fn mean_between_min_and_max() {
        let sp = builders::grid_traffic_light(4, 4);
        for s in knowledge_curve(&sp, 16, 200) {
            assert!(s.min as f64 <= s.mean && s.mean <= s.max as f64);
        }
    }

    #[test]
    fn pool_curve_identical_to_sequential() {
        let sp = builders::hypercube_sweep(7);
        assert_eq!(
            knowledge_curve(&sp, 128, 50),
            knowledge_curve_pool(&sp, 128, 50, 4)
        );
        let sp = builders::path_rrll(6);
        assert_eq!(
            knowledge_curve(&sp, 6, 100),
            knowledge_curve_pool(&sp, 6, 100, 3)
        );
    }
}
