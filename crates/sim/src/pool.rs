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
}
