//! The trainer's worker pool: `workers − 1` threads that live for one
//! training run, with the calling thread as worker 0.
//!
//! [`Pool::run`] hands one job to every worker and returns once all of
//! them have finished it, so a job may borrow from the caller's stack.
//! Between jobs a worker spins for a few dozen microseconds — the gap
//! between two jobs of one training step is shorter than a wake-up —
//! and then sleeps until the next job or the pool's drop. A job that
//! panics on any worker is re-raised by `run` in the caller, after
//! every worker is done with it; the pool stays usable. Dropping the
//! pool joins its threads, so a run leaves none behind.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How long a waiting thread spins before it sleeps.
const SPIN: Duration = Duration::from_micros(100);

type Job = dyn Fn(usize) + Sync;

/// A posted job with its lifetime erased.
#[derive(Clone, Copy)]
struct JobPtr(*const Job);

// SAFETY: the pointee is `Sync`, and `Pool::run` keeps it alive until
// every worker is done calling it.
unsafe impl Send for JobPtr {}

/// Worker threads for one training run; see the module docs.
pub(crate) struct Pool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a job is posted or the pool shuts down.
    posted: Condvar,
    /// Signalled when the last spawned worker finishes a job.
    finished: Condvar,
    /// `State::round`, readable without the lock by spinning workers;
    /// they read the job itself under the lock.
    round: AtomicU64,
    /// Spawned workers that have not finished the current job. Each
    /// worker's decrement releases what its job wrote, and `run`
    /// acquires it by reading 0.
    running: AtomicUsize,
}

struct State {
    /// Jobs posted so far.
    round: u64,
    job: Option<JobPtr>,
    shutdown: bool,
    /// The first panic a spawned worker raised in the current job.
    panic: Option<Box<dyn Any + Send>>,
}

impl Pool {
    /// A pool of `workers` workers: `workers − 1` spawned threads plus
    /// the caller of [`Pool::run`]. One worker spawns nothing.
    pub(crate) fn new(workers: usize) -> Pool {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                round: 0,
                job: None,
                shutdown: false,
                panic: None,
            }),
            posted: Condvar::new(),
            finished: Condvar::new(),
            round: AtomicU64::new(0),
            running: AtomicUsize::new(0),
        });
        let mut pool = Pool {
            shared,
            threads: Vec::new(),
        };
        for w in 1..workers {
            let shared = Arc::clone(&pool.shared);
            let thread = thread::Builder::new()
                .name(format!("pge-train-{w}"))
                .spawn(move || shared.serve(w))
                // On failure, dropping `pool` joins the threads so far.
                .expect("spawn a training worker");
            pool.threads.push(thread);
        }
        pool
    }

    /// Workers per job, the caller included.
    pub(crate) fn workers(&self) -> usize {
        self.threads.len() + 1
    }

    /// Run `job(w)` once on every worker `w` — worker 0 on this thread
    /// — and return when all have finished. A panic on any worker is
    /// re-raised here once every worker is done with `job`. `&mut self`
    /// keeps one job in flight at a time.
    pub(crate) fn run(&mut self, job: &(dyn Fn(usize) + Sync)) {
        if self.threads.is_empty() {
            return job(0);
        }
        let sh = &*self.shared;
        {
            let mut st = sh.lock();
            // SAFETY: only the lifetime is erased. This function does
            // not return, nor unwind, before `running` is back to 0,
            // and a worker never touches the job after its decrement.
            let ptr = unsafe {
                std::mem::transmute::<*const (dyn Fn(usize) + Sync + '_), *const Job>(job)
            };
            st.job = Some(JobPtr(ptr));
            st.round += 1;
            sh.running.store(self.threads.len(), Ordering::Release);
            sh.round.store(st.round, Ordering::Release);
        }
        sh.posted.notify_all();
        let mine = panic::catch_unwind(AssertUnwindSafe(|| job(0)));
        if !spin_until(|| sh.running.load(Ordering::Acquire) == 0) {
            let mut st = sh.lock();
            while sh.running.load(Ordering::Acquire) != 0 {
                st = sh.finished.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        }
        let theirs = {
            let mut st = sh.lock();
            st.job = None;
            st.panic.take()
        };
        if let Some(p) = mine.err().or(theirs) {
            panic::resume_unwind(p);
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.posted.notify_all();
        for t in self.threads.drain(..) {
            // Workers catch their jobs' panics; nothing to report.
            let _ = t.join();
        }
    }
}

impl Shared {
    /// The state. Nothing panics while holding it, and every update
    /// leaves it valid, so a poisoned lock is taken as it is.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Worker `w`'s loop: wait for a job, run it, report, repeat.
    fn serve(&self, w: usize) {
        let mut seen = 0;
        loop {
            spin_until(|| self.round.load(Ordering::Acquire) != seen);
            let job = {
                let mut st = self.lock();
                while st.round == seen && !st.shutdown {
                    st = self.posted.wait(st).unwrap_or_else(PoisonError::into_inner);
                }
                if st.shutdown {
                    return;
                }
                seen = st.round;
                st.job.expect("a posted round has a job")
            };
            // SAFETY: `run` keeps the job alive until `running` is 0,
            // which takes this worker's decrement below.
            let done = panic::catch_unwind(AssertUnwindSafe(|| unsafe { (*job.0)(w) }));
            if let Err(p) = done {
                self.lock().panic.get_or_insert(p);
            }
            if self.running.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _st = self.lock();
                self.finished.notify_all();
            }
        }
    }
}

/// Spin until `done()` holds, for at most [`SPIN`]; whether it held.
fn spin_until(done: impl Fn() -> bool) -> bool {
    let start = Instant::now();
    let mut i = 0u32;
    while !done() {
        i = i.wrapping_add(1);
        if i.is_multiple_of(64) && start.elapsed() > SPIN {
            return false;
        }
        std::hint::spin_loop();
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU32};

    #[test]
    fn every_worker_runs_every_job_once() {
        let mut pool = Pool::new(4);
        assert_eq!(pool.workers(), 4);
        let counts: Vec<AtomicU32> = (0..4).map(|_| AtomicU32::new(0)).collect();
        for round in 0..200 {
            pool.run(&|w| {
                counts[w].fetch_add(1, Ordering::Relaxed);
            });
            // Every worker finished before `run` returned.
            for c in &counts {
                assert_eq!(c.load(Ordering::Relaxed), round + 1);
            }
            if round.is_multiple_of(50) {
                // Long enough for the workers to stop spinning and
                // sleep, so that the condvar wake-up runs too.
                thread::sleep(10 * SPIN);
            }
        }
    }

    #[test]
    fn one_worker_runs_on_the_caller() {
        let mut pool = Pool::new(1);
        assert!(pool.threads.is_empty());
        let me = thread::current().id();
        pool.run(&|w| {
            assert_eq!(w, 0);
            assert_eq!(thread::current().id(), me);
        });
    }

    #[test]
    fn a_panicking_worker_fails_the_run_loudly() {
        let mut pool = Pool::new(3);
        let alive = Arc::downgrade(&pool.shared);
        let finished = AtomicU32::new(0);
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|w| {
                if w == 1 {
                    panic!("worker {w} failed");
                }
                finished.fetch_add(1, Ordering::Relaxed);
            })
        }))
        .expect_err("the worker's panic must reach the caller");
        assert_eq!(err.downcast_ref::<String>().unwrap(), "worker 1 failed");
        // The other workers ran to the end before the panic surfaced.
        assert_eq!(finished.load(Ordering::Relaxed), 2);
        // The pool survives the panic, and a new pool works too.
        let sum = AtomicUsize::new(0);
        pool.run(&|w| {
            sum.fetch_add(w, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 1 + 2);
        let mut again = Pool::new(2);
        again.run(&|w| {
            sum.fetch_add(w, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 1 + 2 + 1);
        // Dropping the pool joins every thread: none holds the shared
        // state any more.
        drop(pool);
        assert!(
            alive.upgrade().is_none(),
            "a worker thread outlived its pool"
        );
    }

    #[test]
    fn a_panic_on_the_caller_waits_for_the_workers() {
        let mut pool = Pool::new(2);
        let (panicking, finished) = (AtomicBool::new(false), AtomicU32::new(0));
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&|w| {
                if w == 0 {
                    panicking.store(true, Ordering::Release);
                    panic!("caller failed");
                }
                // Worker 1 finishes only after the caller has panicked.
                while !panicking.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                finished.fetch_add(1, Ordering::Relaxed);
            })
        }))
        .expect_err("the caller's panic must propagate");
        assert_eq!(*err.downcast_ref::<&str>().unwrap(), "caller failed");
        assert_eq!(finished.load(Ordering::Relaxed), 1);
    }
}
