//! The workspace's one single-flight memo.
//!
//! Every memoized value — the bound oracle's `(network, mode, period)`
//! answers, the batch cache's digraphs, diameters and groups, the query
//! daemon's reply rows — resolves through a [`Memo`]: a map from key to
//! a shared once-cell, plus lookup and compute counters. The map lock is
//! held only while fetching a key's cell; the compute runs outside it, so
//! distinct keys evaluate in parallel while each key computes at most
//! once, and concurrent callers of one key wait for the one compute. A
//! compute that panics leaves its cell empty, so the next call retries.
//!
//! ```
//! use systolic_gossip::Memo;
//!
//! let memo: Memo<u32, u64> = Memo::new();
//! assert_eq!(memo.get_or_compute(3, || 9), 9);
//! assert_eq!(memo.get_or_compute(3, || unreachable!()), 9);
//! assert_eq!((memo.lookups(), memo.computes()), (2, 1));
//! ```

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// A single-flight memo from `K` to `V`, with lookup and compute counters.
#[derive(Debug)]
pub struct Memo<K, V> {
    cells: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    lookups: AtomicUsize,
    computes: AtomicUsize,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self {
            cells: Mutex::default(),
            lookups: AtomicUsize::new(0),
            computes: AtomicUsize::new(0),
        }
    }
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// The value of `key`, running `compute` only if no call has
    /// computed it yet. A caller that finds the key's compute in flight
    /// waits for it and counts as a hit.
    pub fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> V {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        // The guard is a temporary of this statement: the map lock is
        // released before the compute runs, so a panicking compute
        // cannot poison it.
        let cell = Arc::clone(
            self.cells
                .lock()
                .expect("no compute runs under the map lock")
                .entry(key)
                .or_default(),
        );
        cell.get_or_init(|| {
            self.computes.fetch_add(1, Ordering::Relaxed);
            compute()
        })
        .clone()
    }

    /// Calls to [`Memo::get_or_compute`] so far.
    pub fn lookups(&self) -> usize {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Computes started so far — at most one per key that completed.
    pub fn computes(&self) -> usize {
        self.computes.load(Ordering::Relaxed)
    }

    /// `lookups − computes`: calls answered by a stored or in-flight
    /// value.
    pub fn hits(&self) -> usize {
        // A call counts its lookup before its compute: read the compute
        // count first, and saturate, so a call racing this read cannot
        // make the difference negative.
        let computes = self.computes();
        self.lookups().saturating_sub(computes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Barrier;

    #[test]
    fn concurrent_callers_of_one_key_share_one_compute() {
        let memo: Memo<&str, usize> = Memo::new();
        let start = Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    start.wait();
                    memo.get_or_compute("k", || 7)
                });
            }
        });
        assert_eq!((memo.lookups(), memo.computes(), memo.hits()), (8, 1, 7));
    }

    #[test]
    fn a_panicking_compute_is_retried_and_poisons_nothing() {
        let memo: Memo<u8, u8> = Memo::new();
        let failed = catch_unwind(AssertUnwindSafe(|| {
            memo.get_or_compute(1, || panic!("compute failed"))
        }));
        assert!(failed.is_err());
        assert_eq!(memo.get_or_compute(1, || 5), 5, "the empty cell retries");
        assert_eq!(memo.get_or_compute(2, || 6), 6, "the map lock is healthy");
        assert_eq!((memo.lookups(), memo.computes()), (3, 3));
    }

    #[test]
    fn distinct_keys_compute_in_parallel() {
        // Each compute waits for the other one: both finish only if no
        // compute holds the map lock.
        let memo: Memo<u8, u8> = Memo::new();
        let meet = Barrier::new(2);
        std::thread::scope(|s| {
            for key in [1, 2] {
                let (memo, meet) = (&memo, &meet);
                s.spawn(move || {
                    memo.get_or_compute(key, || {
                        meet.wait();
                        key
                    })
                });
            }
        });
        assert_eq!(memo.computes(), 2);
    }
}
