//! Gossip time under a within-unit thread budget.
//!
//! One dispatch, no engine of its own: a budget of one thread runs the
//! sequential compiled engine ([`crate::engine::systolic_gossip_time`]),
//! a larger budget runs the item-sliced engine
//! ([`crate::sliced::run_systolic_sliced`]) on that many scoped threads.
//! Both are bit-identical to [`crate::reference`], so the answer never
//! depends on the budget.

use crate::engine::systolic_gossip_time;
use crate::sliced::run_systolic_sliced;
use sg_protocol::protocol::SystolicProtocol;

/// [`systolic_gossip_time`] on a thread budget of `threads`, of which
/// the calling thread is one: `threads <= 1` runs the compiled engine,
/// more run the item-sliced engine across that many threads.
pub fn systolic_gossip_time_pool(
    sp: &SystolicProtocol,
    n: usize,
    max_rounds: usize,
    threads: usize,
) -> Option<usize> {
    if threads <= 1 {
        systolic_gossip_time(sp, n, max_rounds)
    } else {
        run_systolic_sliced(sp, n, max_rounds, false, threads).completed_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sg_protocol::builders;
    use sg_protocol::mode::Mode;
    use sg_protocol::round::Round;

    #[test]
    fn pool_matches_sequential_on_hypercube() {
        let k = 7;
        let sp = builders::hypercube_sweep(k);
        let n = 1usize << k;
        assert_eq!(
            systolic_gossip_time_pool(&sp, n, 50, 4),
            systolic_gossip_time(&sp, n, 50)
        );
    }

    #[test]
    fn empty_and_trivial_networks() {
        let sp = SystolicProtocol::new(vec![Round::empty()], Mode::Directed);
        assert_eq!(systolic_gossip_time_pool(&sp, 0, 10, 4), Some(0));
        assert_eq!(systolic_gossip_time_pool(&sp, 1, 10, 4), Some(0));
        let sp = builders::path_rrll(3);
        assert_eq!(
            systolic_gossip_time_pool(&sp, 3, 100, 4),
            systolic_gossip_time(&sp, 3, 100)
        );
    }
}
