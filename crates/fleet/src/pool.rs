//! The worker pool behind every parallel map in the repo.
//!
//! [`Pool::map`] spawns `min(workers, items)` scoped threads named
//! `fleet-worker-N`; each claims the next unstarted index from one
//! shared counter until the items run out, so a long job never holds up
//! the rest of the list. Jobs are whole simulations (milliseconds to
//! minutes) and a claim is one atomic add, so there is nothing to gain
//! from per-worker queues. Every item runs under `catch_unwind`: a
//! panicking job becomes a [`TaskError`] for that item and never takes
//! a worker (and with it the whole map) down. Results come back in input
//! order whatever the finishing order, which is what makes the
//! aggregated artifacts identical at any worker count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Why a [`Pool::map`] item produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The closure panicked; the payload rendered as a string.
    Panicked(String),
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panicked(m) => write!(f, "job panicked: {m}"),
        }
    }
}

/// Renders a panic payload the way the flight recorder does.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// A worker count; threads live only for the duration of one
/// [`Pool::map`] call.
#[derive(Debug)]
pub struct Pool {
    workers: usize,
}

impl Pool {
    /// A pool that maps on up to `workers` threads (minimum 1).
    pub fn new(workers: usize) -> Pool {
        Pool { workers: workers.max(1) }
    }

    /// Runs `f` over every item, returning results in **input order**
    /// regardless of which worker finished what when. Blocks until every
    /// item has run or panicked ([`TaskError::Panicked`]).
    pub fn map<T, R>(
        &self,
        items: Vec<T>,
        f: impl Fn(usize, &T) -> R + Sync,
    ) -> Vec<Result<R, TaskError>>
    where
        T: Sync,
        R: Send,
    {
        let slots: Vec<Mutex<Option<Result<R, TaskError>>>> =
            items.iter().map(|_| Mutex::new(None)).collect();
        // The counter only hands out indices; results are published
        // through the slot mutexes and the scope's join, so `Relaxed`
        // suffices.
        let next = AtomicUsize::new(0);
        let worker = || loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { return };
            let out = catch_unwind(AssertUnwindSafe(|| f(i, item)))
                .map_err(|p| TaskError::Panicked(panic_message(p.as_ref())));
            *slots[i].lock().expect("a slot lock is held only to store its result") = Some(out);
        };
        std::thread::scope(|s| {
            for me in 0..self.workers.min(items.len()) {
                std::thread::Builder::new()
                    .name(format!("fleet-worker-{me}"))
                    .spawn_scoped(s, worker)
                    .expect("spawning a fleet worker");
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("a slot lock is held only to store its result")
                    .expect("every map slot is filled")
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn map_preserves_input_order_across_workers() {
        let pool = Pool::new(4);
        let out = pool.map((0..100u64).collect(), |_, &x| x * 3);
        let got: Vec<u64> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, (0..100u64).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn panics_are_isolated_per_item() {
        let pool = Pool::new(3);
        let out = pool.map((0..10u32).collect(), |_, &x| {
            if x % 4 == 2 {
                panic!("boom at {x}");
            }
            x + 1
        });
        for (i, r) in out.iter().enumerate() {
            if i % 4 == 2 {
                assert_eq!(*r, Err(TaskError::Panicked(format!("boom at {i}"))));
            } else {
                assert_eq!(*r, Ok(i as u32 + 1));
            }
        }
        // The pool survives panicking jobs and keeps working.
        let again = pool.map(vec![7u32], |_, &x| x);
        assert_eq!(again[0], Ok(7));
        assert!(pool.map(Vec::<u32>::new(), |_, &x| x).is_empty());
    }

    #[test]
    fn work_is_actually_shared_between_workers() {
        let pool = Pool::new(4);
        let seen = Mutex::new(HashSet::new());
        let out = pool.map((0..64u32).collect(), |_, _| {
            seen.lock().unwrap().insert(std::thread::current().name().map(String::from));
            // Enough work that several workers get a slice.
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert_eq!(out.len(), 64);
        assert!(out.iter().all(Result::is_ok));
        // On a single-CPU host the OS may still schedule everything onto
        // whichever worker wakes first, so only assert the pool ran all
        // items; with real parallelism multiple worker names show up.
        assert!(!seen.lock().unwrap().is_empty());
    }

    /// `darco-benchmark` parses `fleet-worker-N` to put each worker's
    /// spans in trace lane N + 1, so the names are part of the contract.
    #[test]
    fn workers_are_named_fleet_worker_n() {
        let pool = Pool::new(3);
        let names = Mutex::new(HashSet::new());
        let barrier = std::sync::Barrier::new(3);
        pool.map(vec![(); 3], |_, _| {
            // All three threads must be running at once, so each item
            // lands on its own worker.
            barrier.wait();
            names.lock().unwrap().insert(std::thread::current().name().map(String::from));
        });
        let want: HashSet<Option<String>> =
            (0..3).map(|n| Some(format!("fleet-worker-{n}"))).collect();
        assert_eq!(names.into_inner().unwrap(), want);
    }
}
