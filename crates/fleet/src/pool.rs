//! The work-stealing thread pool.
//!
//! Layout: one bounded logical queue (for backpressure accounting) whose
//! tasks physically live in per-worker deques. [`Pool::submit`] deals
//! tasks round-robin onto the deques and blocks when the pool already
//! holds `queue_cap` unstarted tasks — a full campaign submitted faster
//! than it drains stalls the submitter, not memory. A worker pops the
//! *back* of its own deque (LIFO — warm caches for freshly dealt work)
//! and, finding it empty, steals from the *front* of a sibling's (FIFO —
//! the oldest, biggest-remaining-work item), the classic Chase–Lev
//! discipline implemented here with plain `Mutex<VecDeque>` because jobs
//! are whole simulations (milliseconds to minutes) and queue operations
//! are nanoseconds — contention is unmeasurable at this granularity.
//!
//! Every task runs under `catch_unwind`: a panicking job can never take
//! a worker thread (and with it the whole campaign) down. Poisoning the
//! pool ([`Pool::poison`]) makes [`Pool::map`] mark not-yet-started
//! items as skipped while letting in-flight jobs finish — graceful
//! shutdown, not abandonment.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

/// One result slot of a [`Pool::map`] call, filled by whichever worker
/// ran the item.
type MapSlot<R> = Mutex<Option<Result<R, TaskError>>>;

/// Why a [`Pool::map`] item produced no result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TaskError {
    /// The closure panicked; the payload rendered as a string.
    Panicked(String),
    /// The pool was poisoned before the item started.
    Skipped,
}

impl std::fmt::Display for TaskError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaskError::Panicked(m) => write!(f, "job panicked: {m}"),
            TaskError::Skipped => write!(f, "job skipped: pool poisoned"),
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

struct QueueState {
    /// Tasks dealt but not yet claimed by a worker.
    queued: usize,
    /// No further submissions; workers exit once drained.
    closed: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    /// Workers wait here for tasks.
    work: Condvar,
    /// Submitters wait here for queue room (backpressure).
    space: Condvar,
    deques: Vec<Mutex<VecDeque<Task>>>,
    /// Round-robin deal cursor.
    next: AtomicUsize,
    poison: AtomicBool,
    queue_cap: usize,
}

/// The work-stealing pool. Dropping it closes the queue and joins every
/// worker (draining all queued tasks first).
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// A pool with `workers` threads and a queue bound of
    /// `4 * workers` unstarted tasks.
    pub fn new(workers: usize) -> Pool {
        Pool::with_queue_cap(workers, workers.max(1) * 4)
    }

    /// A pool with an explicit backpressure bound (minimum 1).
    pub fn with_queue_cap(workers: usize, queue_cap: usize) -> Pool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState { queued: 0, closed: false }),
            work: Condvar::new(),
            space: Condvar::new(),
            deques: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            next: AtomicUsize::new(0),
            poison: AtomicBool::new(false),
            queue_cap: queue_cap.max(1),
        });
        let handles = (0..workers)
            .map(|me| {
                let sh = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fleet-worker-{me}"))
                    .spawn(move || worker_loop(me, &sh))
                    .expect("spawning a fleet worker")
            })
            .collect();
        Pool { shared, workers: handles }
    }

    /// Marks the pool poisoned: in-flight tasks finish, queued tasks
    /// still run but [`Pool::map`] items that have not started resolve to
    /// [`TaskError::Skipped`].
    pub fn poison(&self) {
        self.shared.poison.store(true, Ordering::SeqCst);
    }

    /// Submits one task, blocking while the queue is at capacity.
    pub fn submit(&self, f: impl FnOnce() + Send + 'static) {
        let sh = &self.shared;
        let mut st = sh.state.lock().unwrap();
        while st.queued >= sh.queue_cap && !st.closed {
            st = sh.space.wait(st).unwrap();
        }
        assert!(!st.closed, "submit on a closed pool");
        // Deal the task into a deque *before* publishing the count so a
        // woken worker always finds something to claim.
        let slot = sh.next.fetch_add(1, Ordering::Relaxed) % sh.deques.len();
        sh.deques[slot].lock().unwrap().push_back(Box::new(f));
        st.queued += 1;
        drop(st);
        sh.work.notify_one();
    }

    /// Runs `f` over every item on the pool, returning results in
    /// **input order** regardless of which worker finished what when —
    /// the primitive behind deterministic campaign aggregation. Blocks
    /// until every item has either run, panicked ([`TaskError::Panicked`])
    /// or been skipped because the pool was poisoned.
    pub fn map<T, R>(
        &self,
        items: Vec<T>,
        f: impl Fn(usize, &T) -> R + Send + Sync + 'static,
    ) -> Vec<Result<R, TaskError>>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
    {
        let n = items.len();
        let items = Arc::new(items);
        let f = Arc::new(f);
        let results: Arc<Vec<MapSlot<R>>> =
            Arc::new((0..n).map(|_| Mutex::new(None)).collect());
        let remaining = Arc::new((Mutex::new(n), Condvar::new()));
        for i in 0..n {
            let items = Arc::clone(&items);
            let f = Arc::clone(&f);
            let results = Arc::clone(&results);
            let remaining = Arc::clone(&remaining);
            let poison = Arc::clone(&self.shared);
            self.submit(move || {
                let out = if poison.poison.load(Ordering::SeqCst) {
                    Err(TaskError::Skipped)
                } else {
                    catch_unwind(AssertUnwindSafe(|| f(i, &items[i])))
                        .map_err(|p| TaskError::Panicked(panic_message(p.as_ref())))
                };
                *results[i].lock().unwrap() = Some(out);
                let (lock, cv) = &*remaining;
                let mut left = lock.lock().unwrap();
                *left -= 1;
                if *left == 0 {
                    cv.notify_all();
                }
            });
        }
        let (lock, cv) = &*remaining;
        let mut left = lock.lock().unwrap();
        while *left > 0 {
            left = cv.wait(left).unwrap();
        }
        drop(left);
        // Take results through the Arc: the final task may still hold its
        // clone for a few instructions after notifying, so `try_unwrap`
        // here would be a race.
        results
            .iter()
            .map(|slot| slot.lock().unwrap().take().expect("every map slot is filled"))
            .collect()
    }

    /// Closes the queue and joins every worker after the queue drains.
    pub fn join(mut self) {
        self.close_and_join();
    }

    fn close_and_join(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.closed = true;
        }
        self.shared.work.notify_all();
        self.shared.space.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.close_and_join();
    }
}

fn worker_loop(me: usize, sh: &Shared) {
    loop {
        {
            let mut st = sh.state.lock().unwrap();
            loop {
                if st.queued > 0 {
                    st.queued -= 1;
                    break;
                }
                if st.closed {
                    return;
                }
                st = sh.work.wait(st).unwrap();
            }
        }
        sh.space.notify_one();
        // We decremented `queued` under the lock, so at least one task is
        // physically present across the deques; scan until we claim one
        // (own back first, then steal siblings' fronts).
        let task = 'claim: loop {
            if let Some(t) = sh.deques[me].lock().unwrap().pop_back() {
                break 'claim t;
            }
            for j in 1..sh.deques.len() {
                let victim = (me + j) % sh.deques.len();
                if let Some(t) = sh.deques[victim].lock().unwrap().pop_front() {
                    break 'claim t;
                }
            }
            std::thread::yield_now();
        };
        // Tasks wrap their own payloads in catch_unwind to produce typed
        // failures; this outer guard is the last line of defense so an
        // unexpected panic in the bookkeeping itself cannot kill the
        // worker.
        let _ = catch_unwind(AssertUnwindSafe(task));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

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
    }

    #[test]
    fn backpressure_bounds_the_queue() {
        let pool = Pool::with_queue_cap(1, 2);
        let started = Arc::new(AtomicBool::new(false));
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        // Block the lone worker; the blocker reports when it has started.
        let (s, g) = (Arc::clone(&started), Arc::clone(&gate));
        pool.submit(move || {
            s.store(true, Ordering::SeqCst);
            let (l, cv) = &*g;
            let mut open = l.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        });
        while !started.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        // Fill the queue to its bound.
        pool.submit(|| {});
        pool.submit(|| {});
        // A further submit must block until the worker is released: the
        // releaser sets `released` before opening the gate, so a submit
        // that returns while it is still false did not wait for room.
        let released = AtomicBool::new(false);
        std::thread::scope(|sc| {
            sc.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(50));
                released.store(true, Ordering::SeqCst);
                let (l, cv) = &*gate;
                *l.lock().unwrap() = true;
                cv.notify_all();
            });
            pool.submit(|| {});
            assert!(released.load(Ordering::SeqCst), "submit returned while the queue was full");
        });
        pool.join();
    }

    #[test]
    fn poisoned_pool_skips_unstarted_map_items() {
        let pool = Pool::new(2);
        pool.poison();
        let out = pool.map(vec![1u32, 2, 3], |_, &x| x);
        assert!(out.iter().all(|r| *r == Err(TaskError::Skipped)));
    }

    #[test]
    fn work_is_actually_shared_between_workers() {
        let pool = Pool::new(4);
        let seen = Arc::new(Mutex::new(std::collections::HashSet::new()));
        let s = Arc::clone(&seen);
        let counter = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&counter);
        let out = pool.map((0..64u32).collect(), move |_, _| {
            c.fetch_add(1, Ordering::SeqCst);
            s.lock().unwrap().insert(std::thread::current().name().map(String::from));
            // Enough work that several workers get a slice.
            std::thread::sleep(std::time::Duration::from_millis(1));
        });
        assert_eq!(out.len(), 64);
        assert_eq!(counter.load(Ordering::SeqCst), 64);
        // On a single-CPU host the OS may still schedule everything onto
        // whichever worker wakes first, so only assert the pool ran all
        // items; with real parallelism multiple worker names show up.
        assert!(!seen.lock().unwrap().is_empty());
    }
}
