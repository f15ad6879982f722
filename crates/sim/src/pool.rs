//! Persistent worker pool: round application without per-round spawning.
//!
//! A row-parallel round applier built on `std::thread::scope` pays two
//! taxes on every single round: it spawns and joins OS threads, and it
//! carves the arc list into one fixed chunk per thread, so one slow
//! chunk idles every other worker. Both costs dwarf the actual work — a
//! round of a compiled schedule is a few hundred word-OR sweeps — which
//! is how such an 8-thread engine ended up *slower* than the naive
//! reference (0.657× on hypercube n = 2048 before this module existed).
//!
//! [`PoolEngine`] fixes the lifecycle: workers are spawned **once** when
//! the engine is built and parked between rounds, and each round is
//! published as a single task — the compiled round's pair list and arc
//! list, viewed as one flat sequence of row-union units. Workers (the
//! caller's thread included) claim *chunks* of that sequence from a
//! shared atomic cursor, so a worker that finishes early steals the
//! remaining chunks instead of idling: dynamic balancing with zero
//! queues to maintain. Chunks are whole rows (≥ 16 units each), and a
//! row at parallel sizes is ≥ 64 bytes wide, so two workers never write
//! the same cache line.
//!
//! Safety mirrors the compiled engine's round analysis: a round is
//! dispatched in one parallel phase only when its targets are pairwise
//! distinct. Then every unit writes its own row(s): a clean pair owns
//! both endpoints (they appear in no other arc of the round), a residual
//! arc owns its target row, and its source row is either never written
//! this round or read from a beginning-of-round snapshot taken before
//! dispatch. Rounds that fail the analysis — duplicate targets, tiny arc
//! counts — run through [`CompiledSchedule::apply`] on the caller's
//! thread, so every input stays exact (the conformance suite pins this
//! against [`crate::reference`]).

use crate::bitset::{CompletionCursor, Knowledge};
use crate::engine::SimResult;
use crate::schedule::{CompiledArc, CompiledSchedule};
use sg_protocol::protocol::SystolicProtocol;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Below this many units (pairs + arcs) a round runs sequentially: the
/// dispatch handshake costs more than the sweeps it would split.
const POOL_MIN_WORK: usize = 64;

/// A worker spins this many loop iterations waiting for the next round
/// before parking on the condvar. Rounds arrive back-to-back during a
/// run, so workers almost never park mid-run; the budget only bounds the
/// cost of keeping them hot across the caller's between-round bookkeeping.
const SPIN_LIMIT: u32 = 10_000;

/// One compiled round, flattened for chunked claiming. Lifetime is
/// erased: the publishing thread keeps the schedule, snapshot buffer and
/// knowledge table alive and unmoved until every worker has drained the
/// cursor (it waits on `active` before touching anything again).
#[derive(Clone, Copy)]
struct RoundTask {
    bits: *mut u64,
    snap: *const u64,
    pairs: *const (u32, u32),
    pairs_len: usize,
    arcs: *const CompiledArc,
    arcs_len: usize,
    words: usize,
    /// Units (pairs then arcs) per claimed chunk.
    chunk: usize,
}

// SAFETY: workers write through `bits` only at pairwise-disjoint row
// ranges (`distinct_targets` plus the clean-pair invariant, verified
// before publishing), read `snap`/`pairs`/`arcs` immutably, and the
// publisher blocks until all workers are done before invalidating any
// pointer.
unsafe impl Send for RoundTask {}

/// State shared between the publishing thread and the pool workers.
struct Shared {
    /// Monotone round counter; a bump publishes the task in `task`.
    epoch: AtomicU64,
    shutdown: AtomicBool,
    /// Next unclaimed chunk index of the current round.
    cursor: AtomicUsize,
    /// Workers still draining the current round.
    active: AtomicUsize,
    /// Any worker observed a row change this round.
    changed: AtomicBool,
    task: Mutex<Option<RoundTask>>,
    park: Mutex<()>,
    wake: Condvar,
}

/// The persistent workers. Built once, reused for every round of every
/// run; dropped workers are shut down and joined.
struct WorkerPool {
    shared: Arc<Shared>,
    workers: usize,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn new(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            epoch: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            cursor: AtomicUsize::new(0),
            active: AtomicUsize::new(0),
            changed: AtomicBool::new(false),
            task: Mutex::new(None),
            park: Mutex::new(()),
            wake: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self {
            shared,
            workers,
            handles,
        }
    }

    /// Publishes one round, participates in the chunk drain, and blocks
    /// until every worker is done. Returns the round's changed flag.
    ///
    /// The caller must uphold the `RoundTask` aliasing contract.
    fn run(&self, task: RoundTask) -> bool {
        let s = &*self.shared;
        s.changed.store(false, Ordering::Relaxed);
        s.cursor.store(0, Ordering::Relaxed);
        s.active.store(self.workers, Ordering::Relaxed);
        *s.task.lock().unwrap() = Some(task);
        s.epoch.fetch_add(1, Ordering::Release);
        // Pair the notify with the park mutex so a worker checking the
        // epoch inside the critical section cannot miss the wakeup.
        drop(s.park.lock().unwrap());
        s.wake.notify_all();
        // The publisher is a worker too: steal chunks until none remain.
        let mut changed = run_chunks(&task, &s.cursor);
        while s.active.load(Ordering::Acquire) != 0 {
            std::hint::spin_loop();
        }
        changed |= s.changed.load(Ordering::Relaxed);
        changed
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        drop(self.shared.park.lock().unwrap());
        self.shared.wake.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let mut last = 0u64;
    loop {
        // Wait for the next epoch: spin while rounds are streaming,
        // park (with a timeout, so shutdown is never missed) once idle.
        let mut spins = 0u32;
        let epoch = loop {
            let e = shared.epoch.load(Ordering::Acquire);
            if e != last {
                break e;
            }
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            spins += 1;
            if spins < SPIN_LIMIT {
                std::hint::spin_loop();
            } else {
                let guard = shared.park.lock().unwrap();
                // Re-check under the park mutex: a bump that landed after
                // the read above may already have been notified, and
                // waiting now would sleep out the timeout. The publisher
                // bumps before it takes this mutex, so a bump not visible
                // here is notified only once the wait has released it.
                if shared.epoch.load(Ordering::Acquire) != last
                    || shared.shutdown.load(Ordering::Acquire)
                {
                    continue;
                }
                let _unused = shared
                    .wake
                    .wait_timeout(guard, Duration::from_millis(1))
                    .unwrap();
            }
        };
        last = epoch;
        let task = shared
            .task
            .lock()
            .unwrap()
            .expect("epoch bumped without a task");
        if run_chunks(&task, &shared.cursor) {
            shared.changed.store(true, Ordering::Relaxed);
        }
        shared.active.fetch_sub(1, Ordering::Release);
    }
}

/// Claims and executes chunks of the flattened unit sequence until the
/// shared cursor is exhausted. Returns `true` if any executed unit
/// changed a row.
fn run_chunks(t: &RoundTask, cursor: &AtomicUsize) -> bool {
    let total = t.pairs_len + t.arcs_len;
    let chunks = total.div_ceil(t.chunk.max(1));
    let mut changed = false;
    loop {
        let c = cursor.fetch_add(1, Ordering::Relaxed);
        if c >= chunks {
            break;
        }
        let lo = c * t.chunk;
        let hi = (lo + t.chunk).min(total);
        for i in lo..hi {
            if i < t.pairs_len {
                // SAFETY: i < pairs_len.
                let (u, v) = unsafe { *t.pairs.add(i) };
                changed |= unsafe { merge_pair_raw(t.bits, t.words, u as usize, v as usize) };
            } else {
                // SAFETY: i - pairs_len < arcs_len.
                let a = unsafe { *t.arcs.add(i - t.pairs_len) };
                changed |= unsafe { apply_arc_raw(t, a) };
            }
        }
    }
    changed
}

/// Raw-pointer [`Knowledge::merge_pair`]: symmetric union of two rows.
///
/// SAFETY: caller guarantees `u != v`, both rows in bounds, and that no
/// other thread touches row `u` or `v` during the call (clean-pair
/// invariant of the compiled round).
unsafe fn merge_pair_raw(bits: *mut u64, words: usize, u: usize, v: usize) -> bool {
    let a = std::slice::from_raw_parts_mut(bits.add(u * words), words);
    let b = std::slice::from_raw_parts_mut(bits.add(v * words), words);
    let mut changed = false;
    for (x, y) in a.iter_mut().zip(b.iter_mut()) {
        let union = *x | *y;
        changed |= union != *x || union != *y;
        *x = union;
        *y = union;
    }
    changed
}

/// Raw-pointer arc application: target row ORs either its snapshot slot
/// or the source's live row.
///
/// SAFETY: caller guarantees in-bounds rows, `from != to` (compile drops
/// self-loops), that the target row is written by no other unit of the
/// round (`distinct_targets`), and that a slotless source row is not a
/// target of the round (compiled snapshot plan) — so the read never
/// races a write.
unsafe fn apply_arc_raw(t: &RoundTask, a: CompiledArc) -> bool {
    let src: *const u64 = if a.needs_snapshot() {
        t.snap.add(a.slot as usize * t.words)
    } else {
        t.bits.add(a.from as usize * t.words).cast_const()
    };
    let src = std::slice::from_raw_parts(src, t.words);
    let dst = std::slice::from_raw_parts_mut(t.bits.add(a.to as usize * t.words), t.words);
    let mut changed = false;
    for (d, s) in dst.iter_mut().zip(src) {
        let before = *d;
        *d |= *s;
        changed |= *d != before;
    }
    changed
}

/// A compiled schedule bound to a persistent worker pool. Building one
/// spawns `threads - 1` workers; every subsequent round — across as many
/// runs as the caller likes — reuses them. With `threads <= 1` no
/// workers exist and every round takes the sequential compiled path, so
/// the engine degrades to [`CompiledSchedule`] plus one branch.
pub struct PoolEngine {
    sched: CompiledSchedule,
    /// Own flat snapshot buffer (`max_slots × words`), refilled per
    /// round before dispatch.
    snap_buf: Vec<u64>,
    threads: usize,
    pool: Option<WorkerPool>,
}

impl PoolEngine {
    /// Wraps a compiled schedule, spawning `threads - 1` persistent
    /// workers (the calling thread is the remaining worker).
    ///
    /// This is the repo-wide worker-vs-budget convention: `threads` is
    /// a thread *budget* (the CLI's `--threads`, `BatchOptions`'
    /// fields), of which the caller itself is one. A budget of 1
    /// therefore spawns no workers at all and every round takes the
    /// sequential compiled path — callers echoing the budget must not
    /// describe it as a worker count.
    pub fn new(sched: CompiledSchedule, threads: usize) -> Self {
        let words = sched.words();
        let max_slots = sched.max_slots();
        let workers = threads.saturating_sub(1);
        Self {
            snap_buf: vec![0u64; max_slots * words],
            threads: workers + 1,
            pool: (workers > 0).then(|| WorkerPool::new(workers)),
            sched,
        }
    }

    /// Convenience: compile one systolic period and wrap it.
    pub fn for_protocol(sp: &SystolicProtocol, n: usize, threads: usize) -> Self {
        Self::new(CompiledSchedule::compile(sp.period(), n), threads)
    }

    /// Compiled network size.
    pub fn n(&self) -> usize {
        self.sched.n()
    }

    /// The period length.
    pub fn round_count(&self) -> usize {
        self.sched.round_count()
    }

    /// Applies the round at `time` (cyclically) to `k`, splitting the
    /// row unions across the pool when the round is parallel-safe and
    /// big enough to pay for dispatch. Bit-identical to
    /// [`CompiledSchedule::apply`]. Returns `true` if anything changed.
    pub fn apply(&mut self, k: &mut Knowledge, time: usize) -> bool {
        debug_assert_eq!(k.n(), self.sched.n(), "knowledge/engine size mismatch");
        if self.sched.round_count() == 0 {
            return false;
        }
        let words = self.sched.words();
        let dispatch = {
            let r = self.sched.round(time);
            r.distinct_targets && r.pairs.len() + r.arcs.len() >= POOL_MIN_WORK
        };
        let Some(pool) = self.pool.as_ref().filter(|_| dispatch) else {
            return self.sched.apply(k, time);
        };
        let r = self.sched.round(time);
        // Beginning-of-round snapshots of sources that are also targets,
        // taken before any row is written.
        for (slot, &u) in r.snap_sources.iter().enumerate() {
            k.snapshot_into(
                u as usize,
                &mut self.snap_buf[slot * words..(slot + 1) * words],
            );
        }
        let total = r.pairs.len() + r.arcs.len();
        // ~4 chunks per worker balances stealing against cursor traffic;
        // the floor keeps chunks a few cache lines of row data each.
        let chunk = (total / (self.threads * 4)).clamp(16, 16_384);
        let task = RoundTask {
            bits: k.bits_mut().as_mut_ptr(),
            snap: self.snap_buf.as_ptr(),
            pairs: r.pairs.as_ptr(),
            pairs_len: r.pairs.len(),
            arcs: r.arcs.as_ptr(),
            arcs_len: r.arcs.len(),
            words,
            chunk,
        };
        pool.run(task)
    }

    /// Gossip completion time of a fresh execution, reusing the compiled
    /// schedule and the live pool across calls.
    pub fn gossip_time(&mut self, max_rounds: usize) -> Option<usize> {
        let mut k = Knowledge::initial(self.n());
        let mut cursor = CompletionCursor::new();
        if cursor.complete(&k) {
            return Some(0);
        }
        for i in 0..max_rounds {
            self.apply(&mut k, i);
            if cursor.complete(&k) {
                return Some(i + 1);
            }
        }
        None
    }
}

impl std::fmt::Debug for PoolEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolEngine")
            .field("n", &self.n())
            .field("rounds", &self.round_count())
            .field("threads", &self.threads)
            .finish()
    }
}

/// Runs a systolic protocol through the pool engine with the same
/// tracing surface as the other engines; output is bit-identical to
/// [`crate::reference::run_systolic_reference`].
pub fn run_systolic_pool(
    sp: &SystolicProtocol,
    n: usize,
    max_rounds: usize,
    threads: usize,
    trace: bool,
) -> SimResult {
    let mut engine = PoolEngine::for_protocol(sp, n, threads);
    let mut k = Knowledge::initial(n);
    let mut trace_vec = Vec::new();
    let mut cursor = CompletionCursor::new();
    if cursor.complete(&k) {
        return SimResult {
            completed_at: Some(0),
            trace: trace_vec,
        };
    }
    for i in 0..max_rounds {
        engine.apply(&mut k, i);
        if trace {
            trace_vec.push(k.min_count());
        }
        if cursor.complete(&k) {
            return SimResult {
                completed_at: Some(i + 1),
                trace: trace_vec,
            };
        }
    }
    SimResult {
        completed_at: None,
        trace: trace_vec,
    }
}

/// Pool variant of [`crate::engine::systolic_gossip_time`]; exact, with
/// the workers spawned once for the whole run instead of once per round.
pub fn systolic_gossip_time_pool(
    sp: &SystolicProtocol,
    n: usize,
    max_rounds: usize,
    threads: usize,
) -> Option<usize> {
    PoolEngine::for_protocol(sp, n, threads).gossip_time(max_rounds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::systolic_gossip_time;
    use crate::reference::run_systolic_reference;
    use sg_graphs::digraph::Arc;
    use sg_protocol::builders;
    use sg_protocol::mode::Mode;
    use sg_protocol::round::Round;

    #[test]
    fn pool_matches_sequential_on_hypercube() {
        // n = 128: rounds have 64 pair units, exactly the dispatch floor.
        let k = 7;
        let sp = builders::hypercube_sweep(k);
        let n = 1usize << k;
        assert_eq!(
            systolic_gossip_time_pool(&sp, n, 50, 4),
            systolic_gossip_time(&sp, n, 50)
        );
    }

    #[test]
    fn pool_traces_match_reference() {
        for (sp, n) in [
            (builders::hypercube_sweep(7), 128usize),
            (builders::grid_traffic_light(16, 8), 128),
            (builders::knodel_sweep(6, 128), 128),
            (builders::path_rrll(9), 9), // tiny rounds: sequential path
        ] {
            for threads in [1, 2, 4] {
                let a = run_systolic_pool(&sp, n, 20 * n, threads, true);
                let b = run_systolic_reference(&sp, n, 20 * n, true);
                assert_eq!(a, b, "threads = {threads}");
            }
        }
    }

    #[test]
    fn engine_reuse_across_runs_is_exact() {
        let sp = builders::hypercube_sweep(7);
        let mut engine = PoolEngine::for_protocol(&sp, 128, 3);
        let want = systolic_gossip_time(&sp, 128, 50);
        for _ in 0..3 {
            assert_eq!(engine.gossip_time(50), want);
        }
    }

    #[test]
    fn duplicate_targets_take_the_sequential_path() {
        // 70 arcs all into distinct targets except two collisions, plus a
        // self-loop: must agree with the reference via the fallback.
        let mut arcs: Vec<Arc> = (0..70).map(|i| Arc::new(i, (i + 1) % 71)).collect();
        arcs.push(Arc::new(5, 1));
        arcs.push(Arc::new(3, 3));
        let sp = SystolicProtocol::new(vec![Round::new(arcs)], Mode::Directed);
        let a = run_systolic_pool(&sp, 71, 300, 4, true);
        let b = run_systolic_reference(&sp, 71, 300, true);
        assert_eq!(a, b);
    }

    #[test]
    fn single_thread_engine_has_no_workers() {
        let sp = builders::hypercube_sweep(6);
        let mut engine = PoolEngine::new(CompiledSchedule::compile(sp.period(), 64), 1);
        assert!(engine.pool.is_none());
        assert_eq!(engine.gossip_time(50), Some(6));
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
