//! The workspace's one parallel loop: claim-by-cursor fan-out.
//!
//! Batch units, annealing chains, enumeration tasks, item slices and
//! randomized trials all run through [`fan_out`]: scoped workers claim
//! item indices from one atomic cursor until the items run out, each
//! folding its items into a private state. A thread budget of `t` means
//! `t` threads working, the calling thread counted — so a budget of one
//! spawns nothing.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `step(&mut state, i)` for every `i` in `0..items` on
/// `min(threads, items)` workers, the calling thread being one of them;
/// `threads <= 1` runs every item on the calling thread, in order. Each
/// worker starts from its own `init()` state and claims the next
/// unclaimed index whenever it finishes one, so which worker runs which
/// index varies between runs: callers that need a deterministic result
/// key their outputs by index. Returns the workers' final states, the
/// calling thread's first (none when `items` is 0).
///
/// # Panics
/// Re-raises a panic of any worker once every worker has stopped.
pub fn fan_out<S: Send>(
    threads: usize,
    items: usize,
    init: impl Fn() -> S + Sync,
    step: impl Fn(&mut S, usize) + Sync,
) -> Vec<S> {
    if items == 0 {
        return Vec::new();
    }
    // The cursor hands out indices and publishes nothing else, so
    // `Relaxed` suffices.
    let cursor = AtomicUsize::new(0);
    let work = || {
        let mut state = init();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= items {
                return state;
            }
            step(&mut state, i);
        }
    };
    std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..threads.min(items)).map(|_| scope.spawn(work)).collect();
        let mut states = vec![work()];
        states.extend(spawned.into_iter().map(|h| {
            h.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        states
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;

    /// Every index's output, sorted by index.
    fn outputs(threads: usize, items: usize) -> Vec<(usize, u64)> {
        let mut out: Vec<(usize, u64)> = fan_out(threads, items, Vec::new, |acc, i| {
            acc.push((
                i,
                (i as u64)
                    .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .rotate_left(7),
            ))
        })
        .into_iter()
        .flatten()
        .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn per_index_results_do_not_depend_on_the_thread_count() {
        let one = outputs(1, 100);
        assert_eq!(one.len(), 100);
        assert!(one.iter().enumerate().all(|(i, &(j, _))| i == j));
        assert_eq!(outputs(2, 100), one);
        assert_eq!(outputs(8, 100), one);
    }

    #[test]
    fn a_budget_of_one_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let seen: Vec<Vec<(usize, ThreadId)>> = fan_out(1, 5, Vec::new, |acc, i| {
            acc.push((i, std::thread::current().id()))
        });
        assert_eq!(seen.len(), 1, "one worker, one state");
        assert_eq!(seen[0], (0..5).map(|i| (i, caller)).collect::<Vec<_>>());
    }

    #[test]
    fn workers_are_capped_by_items_and_the_caller_works() {
        let caller = std::thread::current().id();
        let states = fan_out(8, 3, || std::thread::current().id(), |_, _| {});
        assert_eq!(states.len(), 3);
        assert_eq!(states[0], caller);
        assert!(fan_out(4, 0, || (), |_, _| {}).is_empty());
    }
}
