//! A zero-dependency scoped thread pool for embarrassingly parallel
//! simulation sweeps.
//!
//! Independent deterministic simulations have no shared state, so a
//! sweep over an experiment matrix can fan out across OS threads
//! while every per-run result stays bit-identical to a serial run.
//! The pool guarantees:
//!
//! * **deterministic ordering** — results come back indexed by task
//!   position, independent of which worker ran what and when;
//! * **bounded parallelism** — at most `jobs` tasks run at once (the
//!   previous harness spawned one thread per run, which thrashes on
//!   large grids);
//! * **panic isolation** — a panicking task becomes an `Err(`
//!   [`JobPanic`]`)` in its own slot; sibling tasks are unaffected
//!   and the sweep completes.
//!
//! Everything is built on `std::thread::scope`, an atomic work
//! cursor, and `catch_unwind` — no external crates.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count used when the caller passes `jobs == 0`: the machine's
/// available parallelism, or 1 if that cannot be determined.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A task that panicked instead of returning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    /// Index of the task in the submitted batch.
    pub index: usize,
    /// The panic payload, stringified (`&str` and `String` payloads
    /// are preserved verbatim).
    pub message: String,
}

impl std::fmt::Display for JobPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for JobPanic {}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Run `tasks` on up to `jobs` worker threads (`0` = one per core)
/// and return their results in task order.
///
/// Task `i`'s result is always at index `i`, so callers can zip the
/// output against whatever described the batch. With `jobs <= 1` the
/// tasks run inline on the calling thread — same code path, same
/// ordering, no thread spawns — which is what the differential
/// determinism tests compare against.
pub fn run<T, F>(jobs: usize, tasks: Vec<F>) -> Vec<Result<T, JobPanic>>
where
    F: FnOnce() -> T + Send,
    T: Send,
{
    let n = tasks.len();
    let jobs = if jobs == 0 { default_jobs() } else { jobs }.min(n.max(1));
    let tasks: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<Result<T, JobPanic>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    let work = |_worker: usize| loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let task = tasks[i]
            .lock()
            .expect("task slot poisoned")
            .take()
            .expect("task taken twice");
        let outcome = catch_unwind(AssertUnwindSafe(task)).map_err(|p| JobPanic {
            index: i,
            message: panic_message(p),
        });
        *results[i].lock().expect("result slot poisoned") = Some(outcome);
    };

    if jobs <= 1 {
        work(0);
    } else {
        std::thread::scope(|s| {
            for w in 0..jobs {
                let work = &work;
                s.spawn(move || work(w));
            }
        });
    }

    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("result slot poisoned")
                .expect("every slot filled")
        })
        .collect()
}

/// A persistent crew of worker threads for *fine-grained* parallel
/// rounds.
///
/// [`run`](fn@run) spins up a fresh `thread::scope` per batch, which
/// is fine for sweeps (each task is a whole simulation) but far too
/// slow for the PDES engine, where a "batch" is one event round of a
/// few microseconds and there are millions of them per run. A
/// `RoundPool` keeps its workers parked on a condvar between rounds,
/// so dispatching a round costs one mutex round-trip instead of K
/// thread spawns.
///
/// The calling thread participates as a worker, so a pool built with
/// `RoundPool::new(k)` applies `k` threads to each round while only
/// `k - 1` OS threads exist. A panic inside any task is captured and
/// re-raised on the calling thread after the round completes (with
/// its original message, so debug assertions stay visible), and the
/// pool remains usable afterwards.
pub struct RoundPool {
    shared: std::sync::Arc<RpShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

struct RpShared {
    m: Mutex<RpState>,
    start: std::sync::Condvar,
    done: std::sync::Condvar,
}

struct RpState {
    /// The active round's task body, erased to a raw pointer. `None`
    /// between rounds; [`RoundPool::run`] blocks until every claimed
    /// index has finished before clearing it, which is what makes the
    /// lifetime erasure sound.
    job: Option<Job>,
    ntasks: usize,
    next: usize,
    pending: usize,
    shutdown: bool,
    panic: Option<String>,
}

#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));
// Safety: the pointee is `Sync` and `run` keeps it alive for as long
// as any worker can dereference it.
unsafe impl Send for Job {}

impl RoundPool {
    /// Build a pool that applies `threads` workers to each round
    /// (including the caller; `threads - 1` OS threads are spawned).
    pub fn new(threads: usize) -> RoundPool {
        let shared = std::sync::Arc::new(RpShared {
            m: Mutex::new(RpState {
                job: None,
                ntasks: 0,
                next: 0,
                pending: 0,
                shutdown: false,
                panic: None,
            }),
            start: std::sync::Condvar::new(),
            done: std::sync::Condvar::new(),
        });
        let workers = (1..threads.max(1))
            .map(|_| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || Self::worker_loop(&shared))
            })
            .collect();
        RoundPool { shared, workers }
    }

    /// Number of threads applied to each round (workers + caller).
    pub fn threads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Run `f(0..ntasks)` across the pool and block until every task
    /// finished. Tasks are claimed dynamically; the caller runs tasks
    /// too. Panics (on the calling thread) if any task panicked.
    pub fn run(&self, ntasks: usize, f: &(dyn Fn(usize) + Sync)) {
        if ntasks == 0 {
            return;
        }
        // Safety: erase the borrow's lifetime so workers can hold the
        // pointer. We do not return until `pending == 0`, i.e. until
        // no thread can still dereference it.
        let f_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(f) };
        {
            let mut st = self.shared.m.lock().expect("round pool poisoned");
            debug_assert!(st.job.is_none(), "RoundPool::run is not reentrant");
            st.job = Some(Job(f_static as *const _));
            st.ntasks = ntasks;
            st.next = 0;
            st.pending = ntasks;
        }
        self.shared.start.notify_all();
        loop {
            let mut st = self.shared.m.lock().expect("round pool poisoned");
            if st.next < st.ntasks {
                let i = st.next;
                st.next += 1;
                drop(st);
                Self::run_one(&self.shared, f, i);
                continue;
            }
            // Nothing left to claim: wait out stragglers, then close
            // the round.
            while st.pending > 0 {
                st = self.shared.done.wait(st).expect("round pool poisoned");
            }
            st.job = None;
            let p = st.panic.take();
            drop(st);
            if let Some(msg) = p {
                panic!("round task panicked: {msg}");
            }
            return;
        }
    }

    fn run_one(shared: &RpShared, f: &(dyn Fn(usize) + Sync), i: usize) {
        let r = catch_unwind(AssertUnwindSafe(|| f(i)));
        let mut st = shared.m.lock().expect("round pool poisoned");
        if let Err(p) = r {
            if st.panic.is_none() {
                st.panic = Some(panic_message(p));
            }
        }
        st.pending -= 1;
        if st.pending == 0 {
            shared.done.notify_all();
        }
    }

    fn worker_loop(shared: &RpShared) {
        let mut st = shared.m.lock().expect("round pool poisoned");
        loop {
            if st.shutdown {
                return;
            }
            if let Some(job) = st.job {
                if st.next < st.ntasks {
                    let i = st.next;
                    st.next += 1;
                    drop(st);
                    // Safety: `run` keeps the pointee alive until the
                    // round's `pending` count we decrement below hits
                    // zero.
                    Self::run_one(shared, unsafe { &*job.0 }, i);
                    st = shared.m.lock().expect("round pool poisoned");
                    continue;
                }
            }
            st = shared.start.wait(st).expect("round pool poisoned");
        }
    }
}

/// A cooperative cancellation flag shared between a job and its
/// controller.
///
/// Long-running jobs (a streamed simulation on the server, say) check
/// the token between work chunks; the controlling side — a client
/// cancel frame, a deadline watchdog, a draining server — flips it
/// from any thread. Cloning shares the same flag.
#[derive(Clone, Default)]
pub struct CancelToken(std::sync::Arc<std::sync::atomic::AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Request cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

impl std::fmt::Debug for CancelToken {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "CancelToken({})", self.is_cancelled())
    }
}

/// Handle to one detached job running on its own OS thread.
///
/// Where [`run`](fn@run) fans a *batch* out and blocks for all of it,
/// `JobHandle` manages a single long-lived task that streams results
/// elsewhere: the server spawns one per accepted job, polls
/// [`is_finished`](JobHandle::is_finished) from its connection loop,
/// cancels via the shared [`CancelToken`], and finally
/// [`join`](JobHandle::join)s. A panic inside the job is caught and
/// surfaced as a [`JobPanic`] instead of poisoning the process.
pub struct JobHandle<T> {
    cancel: CancelToken,
    thread: std::thread::JoinHandle<Result<T, JobPanic>>,
}

/// Spawn `f` on a new thread with a fresh [`CancelToken`]. The token
/// is passed to the job (to poll) and kept on the handle (to trip).
pub fn spawn_job<T, F>(f: F) -> JobHandle<T>
where
    F: FnOnce(CancelToken) -> T + Send + 'static,
    T: Send + 'static,
{
    let cancel = CancelToken::new();
    let job_token = cancel.clone();
    let thread = std::thread::spawn(move || {
        catch_unwind(AssertUnwindSafe(move || f(job_token))).map_err(|p| JobPanic {
            index: 0,
            message: panic_message(p),
        })
    });
    JobHandle { cancel, thread }
}

impl<T> JobHandle<T> {
    /// The job's cancellation token (shared with the running closure).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Request cooperative cancellation of the job.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Whether the job's thread has finished (successfully or not).
    pub fn is_finished(&self) -> bool {
        self.thread.is_finished()
    }

    /// Block until the job finishes and return its result. A panicked
    /// job comes back as `Err(JobPanic)` with the payload preserved.
    pub fn join(self) -> Result<T, JobPanic> {
        match self.thread.join() {
            Ok(r) => r,
            // The closure's own panic was already caught; reaching
            // this arm would need the thread to die outside
            // catch_unwind, which std does not do.
            Err(p) => Err(JobPanic {
                index: 0,
                message: panic_message(p),
            }),
        }
    }
}

impl Drop for RoundPool {
    fn drop(&mut self) {
        if let Ok(mut st) = self.shared.m.lock() {
            st.shutdown = true;
        }
        self.shared.start.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_task_order() {
        for jobs in [0, 1, 2, 7] {
            let tasks: Vec<_> = (0..25u64).map(|i| move || i * i).collect();
            let out = run(jobs, tasks);
            for (i, r) in out.iter().enumerate() {
                assert_eq!(*r, Ok((i * i) as u64), "jobs={jobs}");
            }
        }
    }

    #[test]
    fn panicking_task_is_isolated() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {})); // keep test output clean
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("boom {}", 42)),
            Box::new(|| 3),
        ];
        let out = run(2, tasks);
        std::panic::set_hook(prev);
        assert_eq!(out[0], Ok(1));
        assert_eq!(
            out[1],
            Err(JobPanic {
                index: 1,
                message: "boom 42".into()
            })
        );
        assert_eq!(out[2], Ok(3));
    }

    #[test]
    fn serial_and_parallel_agree() {
        let mk = || (0..40u64).map(|i| move || i.wrapping_mul(0x9E37_79B9)).collect::<Vec<_>>();
        let serial = run(1, mk());
        let par = run(4, mk());
        assert_eq!(serial, par);
    }

    #[test]
    fn empty_and_oversized() {
        let out: Vec<Result<u32, _>> = run(4, Vec::<fn() -> u32>::new());
        assert!(out.is_empty());
        // More workers than tasks is fine.
        let out = run(64, vec![|| 7u32]);
        assert_eq!(out, vec![Ok(7)]);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn round_pool_runs_every_task_across_rounds() {
        let pool = RoundPool::new(4);
        assert_eq!(pool.threads(), 4);
        for round in 0..200usize {
            let n = 1 + round % 9;
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            pool.run(n, &|i| {
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "round {round} task {i}");
            }
        }
    }

    #[test]
    fn round_pool_single_thread_and_empty_rounds() {
        let pool = RoundPool::new(1);
        assert_eq!(pool.threads(), 1);
        pool.run(0, &|_| panic!("never claimed"));
        let sum = AtomicUsize::new(0);
        pool.run(5, &|i| {
            sum.fetch_add(i + 1, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 15);
    }

    #[test]
    fn job_handle_runs_cancels_and_joins() {
        // A cooperative job that counts until cancelled. It does one
        // unit of work and signals before it first polls the token, so
        // the cancel below can never overtake the job's start.
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let h = spawn_job(move |tok: CancelToken| {
            let mut n = 1u64;
            started_tx.send(()).expect("test is waiting");
            while !tok.is_cancelled() {
                n += 1;
                std::thread::yield_now();
                if n > 50_000_000 {
                    break; // safety net; cancellation arrives long before
                }
            }
            n
        });
        assert!(!h.cancel_token().is_cancelled());
        started_rx.recv().expect("job started");
        h.cancel();
        let n = h.join().expect("job completed");
        assert!(n >= 1);

        // A finishing job needs no cancellation.
        let h = spawn_job(|_| 42u32);
        assert_eq!(h.join(), Ok(42));
    }

    #[test]
    fn job_handle_catches_panics() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let h = spawn_job::<u32, _>(|_| panic!("job blew up"));
        let err = h.join().expect_err("panic surfaces as JobPanic");
        std::panic::set_hook(prev);
        assert!(err.message.contains("job blew up"), "{err}");
    }

    #[test]
    fn round_pool_propagates_panics_and_survives() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let pool = RoundPool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.run(3, &|i| {
                if i == 1 {
                    panic!("lane {i} diverged");
                }
            });
        }));
        std::panic::set_hook(prev);
        let msg = panic_message(caught.expect_err("panic must propagate"));
        assert!(msg.contains("lane 1 diverged"), "{msg}");
        // The pool is still usable after a panicked round.
        let sum = AtomicUsize::new(0);
        pool.run(4, &|i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 6);
    }
}
