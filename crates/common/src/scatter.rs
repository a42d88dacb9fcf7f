//! Scoped-thread scatter-gather.
//!
//! The one concurrency primitive of this workspace. A *scatter unit* is a
//! batch of index-addressed tasks dispatched over a small worker pool and
//! gathered **in index order**, so the observable result is a plain
//! `Vec<T>` whose contents do not depend on scheduling. Everything that
//! fans out — compile-time EXPLAIN round trips, fragment execution, the
//! workload driver's query batches — goes through [`scatter_indexed`].
//!
//! Determinism contract (see DESIGN.md §2 "Scatter-gather and QCC_THREADS"):
//!
//! * workers receive the task **index** and must be pure functions of that
//!   index plus state frozen before the scatter (shared-state writes are
//!   deferred to the gather barrier by the caller);
//! * results are gathered in index order, never completion order;
//! * threads are **scoped** (`std::thread::scope`) — no worker can outlive
//!   the scatter unit, so nothing runs concurrently with the coordinator's
//!   subsequent clock advance (lint rule L5 bans detached
//!   `thread::spawn` everywhere else).
//!
//! With `threads <= 1` (or fewer than two tasks) the scatter degenerates
//! to an inline loop on the calling thread; by the contract above the
//! results are byte-identical either way. Nested scatters (a worker of
//! one unit opening another) also run inline: the outer unit already owns
//! the pool, and spawning `threads × threads` workers would oversubscribe
//! the host without changing any result.

use parking_lot::Mutex;
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

thread_local! {
    /// Set while the current thread is working inside a scatter unit, so
    /// nested scatters degrade to inline loops instead of spawning a
    /// second level of workers.
    static IN_SCATTER: Cell<bool> = const { Cell::new(false) };
}

/// Worker-pool width used when the caller does not pin one: the
/// `QCC_THREADS` environment variable if set to a positive integer,
/// otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    let fallback = || {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    };
    match std::env::var("QCC_THREADS") {
        Ok(v) => v
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .unwrap_or_else(fallback),
        Err(_) => fallback(),
    }
}

/// Run `f(0..n)` across up to `threads` scoped workers and return the
/// results **in index order**.
///
/// Tasks are pulled from a shared counter, so long and short tasks
/// interleave freely across workers; only the gathered order is fixed.
/// The calling thread participates as one of the workers. A panic in any
/// task propagates to the caller once the scope joins.
pub fn scatter_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if n <= 1 || threads <= 1 || IN_SCATTER.with(Cell::get) {
        return (0..n).map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let gathered: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n));
    let work = || {
        IN_SCATTER.with(|flag| flag.set(true));
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            let v = f(i);
            gathered.lock().push((i, v));
        }
    };
    std::thread::scope(|s| {
        for _ in 1..threads.min(n) {
            s.spawn(&work);
        }
        work();
    });
    // The spawned workers died with the scope; only the caller's flag
    // needs restoring (it was necessarily false on entry, or we'd have
    // taken the inline path).
    IN_SCATTER.with(|flag| flag.set(false));
    let mut pairs = gathered.into_inner();
    pairs.sort_by_key(|&(i, _)| i);
    pairs.into_iter().map(|(_, v)| v).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_index_order() {
        for threads in [1, 2, 4, 8] {
            let got = scatter_indexed(37, threads, |i| i * i);
            let want: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(got, want, "threads={threads}");
        }
    }

    #[test]
    fn empty_and_single_run_inline() {
        assert_eq!(scatter_indexed(0, 8, |i| i), Vec::<usize>::new());
        assert_eq!(scatter_indexed(1, 8, |i| i + 1), vec![1]);
    }

    #[test]
    fn more_threads_than_tasks_is_fine() {
        assert_eq!(scatter_indexed(3, 64, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn every_task_runs_exactly_once() {
        use std::sync::atomic::AtomicU64;
        let counts: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        scatter_indexed(100, 8, |i| counts[i].fetch_add(1, Ordering::Relaxed));
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "task {i}");
        }
    }

    #[test]
    fn nested_scatter_runs_inline_with_identical_results() {
        // Each outer task opens an inner scatter; the inner one must not
        // spawn (no way to observe directly, but the results must still
        // be correct and the caller's flag must be restored afterwards).
        let got = scatter_indexed(8, 4, |i| scatter_indexed(8, 4, move |j| i * 8 + j));
        let want: Vec<Vec<usize>> = (0..8).map(|i| (i * 8..i * 8 + 8).collect()).collect();
        assert_eq!(got, want);
        // Flag restored: a fresh top-level scatter still parallelizes
        // (works, at least — and returns ordered results).
        assert_eq!(scatter_indexed(5, 4, |i| i), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
