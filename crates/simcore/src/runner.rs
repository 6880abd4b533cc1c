//! Parallel execution of independent simulation tasks.
//!
//! Every figure in the paper is assembled from hundreds of *independent*
//! runs (load points × replication factors × seed replications), so the
//! workspace's scaling story is embarrassingly parallel — provided the
//! randomness of each task is derived from its *index*, never from
//! execution order. This module supplies the execution half of that
//! contract; [`crate::rng::Rng::fork`] supplies the seeding half.
//!
//! Design:
//!
//! * [`Runner`] — a thread-count config plus `run`/`map` combinators built
//!   on `std::thread::scope` (no dependencies, no unsafe). Work is pulled
//!   from a chunked atomic queue so uneven task costs balance, and results
//!   are reassembled **in task order**, so output is deterministic.
//! * The **bit-identical contract**: for any closure whose output depends
//!   only on its task index (and not on shared mutable state), `run` at 1,
//!   2, or 64 threads returns byte-identical results. The workspace's
//!   property tests pin this for the threshold search and the load sweeps.
//! * A process-wide default thread count, settable once from a CLI flag
//!   (`repro --threads N`), read by [`Runner::global`]. The default is the
//!   machine's available parallelism.
//!
//! Nested use is permitted (a parallel family sweep whose per-point
//! threshold search is itself parallel): scoped threads compose without
//! deadlock, and a process-wide [`ThreadBudget`] keeps the composition from
//! oversubscribing — every spawner ([`Runner::run`], [`Runner::pair`], the
//! sharded engine in [`crate::shard`]) leases worker slots from the same
//! budget, so an inner spawner inside a saturated outer one simply runs
//! serially instead of multiplying thread counts.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Process-wide default thread count. 0 means "not yet resolved".
static GLOBAL_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default thread count used by [`Runner::global`].
///
/// Call this once at startup (e.g. from a `--threads N` flag). Passing 0
/// resets to the automatic default (available parallelism).
pub fn set_global_threads(threads: usize) {
    GLOBAL_THREADS.store(threads, Ordering::Relaxed);
}

/// Resolves the process-wide default thread count: an explicit
/// [`set_global_threads`] wins, else
/// [`std::thread::available_parallelism`]. The resolved value is cached,
/// so steady-state calls are one atomic load.
pub fn global_threads() -> usize {
    let set = GLOBAL_THREADS.load(Ordering::Relaxed);
    if set > 0 {
        return set;
    }
    let resolved = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // Cache for next time unless a concurrent set_global_threads won.
    let _ = GLOBAL_THREADS.compare_exchange(0, resolved, Ordering::Relaxed, Ordering::Relaxed);
    resolved
}

/// A cap on the number of concurrently running worker threads, shared by
/// every spawner in the process.
///
/// Spawners call [`ThreadBudget::lease`] with the parallelism they *want*;
/// the budget grants what fits (always at least 1, i.e. the caller's own
/// thread) and reclaims the slots when the returned [`ThreadLease`] drops.
/// Accounting is conservative: the invariant is
/// `in_use ≤ capacity − 1` (the root thread holds the implicit last slot),
/// so engine shards nested inside `Runner` tasks — or vice versa — never
/// multiply into `shards × tasks` threads.
#[derive(Debug)]
pub struct ThreadBudget {
    /// 0 means "track [`global_threads`]"; otherwise a fixed capacity.
    capacity: usize,
    /// Extra worker slots currently leased out (beyond each lessee's own
    /// thread).
    in_use: AtomicUsize,
}

impl ThreadBudget {
    /// A budget with a fixed capacity (`>= 1`). Mainly for tests; the
    /// process-wide budget from [`thread_budget`] tracks [`global_threads`].
    pub const fn new(capacity: usize) -> Self {
        ThreadBudget {
            capacity,
            in_use: AtomicUsize::new(0),
        }
    }

    /// The current capacity.
    pub fn capacity(&self) -> usize {
        if self.capacity == 0 {
            global_threads()
        } else {
            self.capacity.max(1)
        }
    }

    /// Extra worker slots currently leased (0 when nothing parallel runs).
    pub fn in_use(&self) -> usize {
        self.in_use.load(Ordering::SeqCst)
    }

    /// Leases up to `want` worker slots. The grant — [`ThreadLease::threads`]
    /// — counts the caller's thread, is at least 1 and at most `want`, and
    /// shrinks to whatever the budget has left when other leases are
    /// outstanding (1 ⇒ run serially).
    pub fn lease(&self, want: usize) -> ThreadLease<'_> {
        let want_extra = want.max(1) - 1;
        let capacity = self.capacity();
        let mut granted = 0;
        if want_extra > 0 && capacity > 1 {
            let mut current = self.in_use.load(Ordering::SeqCst);
            loop {
                let available = (capacity - 1).saturating_sub(current);
                let take = want_extra.min(available);
                if take == 0 {
                    break;
                }
                match self.in_use.compare_exchange(
                    current,
                    current + take,
                    Ordering::SeqCst,
                    Ordering::SeqCst,
                ) {
                    Ok(_) => {
                        granted = take;
                        break;
                    }
                    Err(seen) => current = seen,
                }
            }
        }
        ThreadLease {
            budget: self,
            extra: granted,
        }
    }
}

/// A grant of worker slots from a [`ThreadBudget`]; slots return to the
/// budget on drop.
#[derive(Debug)]
pub struct ThreadLease<'a> {
    budget: &'a ThreadBudget,
    extra: usize,
}

impl ThreadLease<'_> {
    /// The number of concurrent worker threads this lease permits,
    /// including the caller's own thread. Always ≥ 1.
    pub fn threads(&self) -> usize {
        self.extra + 1
    }
}

impl Drop for ThreadLease<'_> {
    fn drop(&mut self) {
        if self.extra > 0 {
            self.budget.in_use.fetch_sub(self.extra, Ordering::SeqCst);
        }
    }
}

/// The process-wide budget (capacity = [`global_threads`], i.e. `repro
/// --threads` or available parallelism).
pub fn thread_budget() -> &'static ThreadBudget {
    static GLOBAL_BUDGET: ThreadBudget = ThreadBudget::new(0);
    &GLOBAL_BUDGET
}

/// Shorthand for `thread_budget().lease(want)`.
pub fn lease_threads(want: usize) -> ThreadLease<'static> {
    thread_budget().lease(want)
}

/// A parallel executor for independent, index-addressed tasks.
#[derive(Clone, Debug)]
pub struct Runner {
    threads: usize,
}

impl Default for Runner {
    fn default() -> Self {
        Runner::global()
    }
}

impl Runner {
    /// A runner with an explicit thread count (≥ 1).
    pub fn new(threads: usize) -> Self {
        Runner {
            threads: threads.max(1),
        }
    }

    /// A single-threaded runner: tasks run inline on the caller's thread.
    pub fn serial() -> Self {
        Runner { threads: 1 }
    }

    /// A runner using the process-wide default (see [`global_threads`]).
    pub fn global() -> Self {
        Runner::new(global_threads())
    }

    /// The configured thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `n` independent tasks, returning their results **in task
    /// order** (index 0 first) regardless of completion order or thread
    /// count.
    ///
    /// `f` must derive everything it needs from its index argument; the
    /// bit-identical-at-any-thread-count guarantee holds exactly when it
    /// does.
    ///
    /// The configured thread count is a *desired* parallelism: the actual
    /// worker count is leased from the process-wide [`ThreadBudget`], so
    /// nested spawners degrade to serial execution instead of
    /// oversubscribing. Results are unaffected (the bit-identical
    /// contract).
    pub fn run<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let lease = lease_threads(self.threads.min(n));
        let threads = lease.threads();
        if threads <= 1 {
            return (0..n).map(f).collect();
        }
        // Chunked work queue: workers claim `chunk` consecutive indices at
        // a time, balancing uneven task costs without per-task contention.
        let chunk = (n / (threads * 8)).max(1);
        let next = AtomicUsize::new(0);
        let work = || {
            let mut out: Vec<(usize, R)> = Vec::new();
            loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                for i in start..(start + chunk).min(n) {
                    out.push((i, f(i)));
                }
            }
            out
        };
        let mut tagged: Vec<(usize, R)> = Vec::with_capacity(n);
        // The caller is one of the leased threads, as in `pair`: it pulls
        // work beside the `threads - 1` it spawns instead of idling in
        // `join`.
        std::thread::scope(|scope| {
            let handles: Vec<_> = (1..threads).map(|_| scope.spawn(work)).collect();
            tagged.extend(work());
            for h in handles {
                tagged.extend(h.join().expect("runner worker panicked"));
            }
        });
        // Deterministic result ordering: reassemble by task index.
        tagged.sort_unstable_by_key(|&(i, _)| i);
        tagged.into_iter().map(|(_, r)| r).collect()
    }

    /// Maps `f` over a slice in parallel, preserving order. Convenience
    /// wrapper over [`Runner::run`].
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        self.run(items.len(), |i| f(i, &items[i]))
    }

    /// Runs two heterogeneous tasks concurrently and returns `(a(), b())`.
    /// The tuple order is fixed by the argument order — no index
    /// bookkeeping for the ubiquitous paired-run (baseline vs. replicated)
    /// shape.
    pub fn pair<A, B>(&self, a: impl FnOnce() -> A + Send, b: impl FnOnce() -> B + Send) -> (A, B)
    where
        A: Send,
        B: Send,
    {
        let lease = lease_threads(self.threads.min(2));
        if lease.threads() <= 1 {
            let ra = a();
            (ra, b())
        } else {
            std::thread::scope(|scope| {
                let hb = scope.spawn(b);
                let ra = a();
                (ra, hb.join().expect("runner worker panicked"))
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn results_in_task_order() {
        for threads in [1, 2, 3, 8] {
            let r = Runner::new(threads);
            let out = r.run(100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn map_preserves_order_and_values() {
        let items: Vec<u64> = (0..57).collect();
        let serial = Runner::serial().map(&items, |i, &x| x * 3 + i as u64);
        let parallel = Runner::new(8).map(&items, |i, &x| x * 3 + i as u64);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn bit_identical_rng_streams_at_any_thread_count() {
        // The seeding contract: per-task streams derived from the index
        // produce byte-identical output at every thread count.
        let job = |i: usize| -> Vec<u64> {
            let mut rng = Rng::seed_from(0xC0FFEE).fork(i as u64);
            (0..32).map(|_| rng.next_u64()).collect()
        };
        let base = Runner::serial().run(33, job);
        for threads in [2, 5, 8, 16] {
            assert_eq!(base, Runner::new(threads).run(33, job));
        }
    }

    #[test]
    fn uneven_task_costs_still_ordered() {
        let r = Runner::new(4);
        let out = r.run(40, |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            i
        });
        assert_eq!(out, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn zero_tasks_and_single_task() {
        let r = Runner::new(8);
        assert!(r.run(0, |i| i).is_empty());
        assert_eq!(r.run(1, |i| i + 1), vec![1]);
    }

    #[test]
    fn global_runner_has_positive_threads() {
        assert!(Runner::global().threads() >= 1);
        assert!(global_threads() >= 1);
    }

    #[test]
    fn budget_grants_at_most_capacity() {
        let budget = ThreadBudget::new(4);
        let lease = budget.lease(8);
        assert_eq!(lease.threads(), 4);
        assert_eq!(budget.in_use(), 3);
        drop(lease);
        assert_eq!(budget.in_use(), 0);
    }

    #[test]
    fn nested_leases_never_oversubscribe() {
        // The regression this budget exists for: an engine leasing inside
        // a saturated Runner (or vice versa) must degrade to serial, not
        // multiply thread counts.
        let budget = ThreadBudget::new(4);
        let outer = budget.lease(4);
        assert_eq!(outer.threads(), 4);
        let inner = budget.lease(8);
        assert_eq!(inner.threads(), 1, "no slots left; must run serially");
        drop(outer);
        let after = budget.lease(8);
        assert_eq!(after.threads(), 4, "slots returned on lease drop");
        // Partial availability: 2 of 3 worker slots taken => grant 1 extra.
        let budget = ThreadBudget::new(4);
        let _two = budget.lease(3);
        assert_eq!(budget.lease(8).threads(), 2);
    }

    #[test]
    fn serial_lease_is_free() {
        let budget = ThreadBudget::new(4);
        let lease = budget.lease(1);
        assert_eq!(lease.threads(), 1);
        assert_eq!(budget.in_use(), 0, "serial leases consume no slots");
    }

    #[test]
    fn capacity_one_budget_always_serial() {
        let budget = ThreadBudget::new(1);
        assert_eq!(budget.lease(64).threads(), 1);
        assert_eq!(budget.in_use(), 0);
    }

    #[test]
    fn global_budget_tracks_global_threads() {
        assert_eq!(thread_budget().capacity(), global_threads());
    }

    #[test]
    fn nested_runners_respect_the_global_budget() {
        // Runner::run leases from the process budget; an inner Runner
        // inside a task sees a reduced (possibly serial) grant but returns
        // identical results. The in-use count can never exceed
        // capacity - 1 no matter how deep the nesting.
        let cap = thread_budget().capacity();
        let outer = Runner::new(2);
        let results = outer.run(4, |i| {
            let inner = Runner::new(8);
            let inner_sum: usize = inner.run(8, |j| i * 10 + j).iter().sum();
            assert!(thread_budget().in_use() <= cap.saturating_sub(1));
            inner_sum
        });
        let expected: Vec<usize> = (0..4).map(|i| (0..8).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(results, expected);
    }
}
