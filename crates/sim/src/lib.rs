//! # nw-sim — discrete-event simulation engine
//!
//! The foundation of the NWCache reproduction: a deterministic
//! discrete-event simulation core providing
//!
//! * a simulated clock measured in **pcycles** (1 pcycle = 5 ns, the
//!   processor cycle of the paper's Table 1),
//! * a time-ordered [`EventQueue`] with stable FIFO tie-breaking,
//! * FIFO-served [`resource::Resource`]s used to model contention on
//!   buses, network links, disk arms and ring channels,
//! * a seedable, splittable PCG random-number stream ([`rng::Pcg32`]),
//! * lightweight statistics collectors ([`stats`]),
//! * a zero-dependency scoped thread pool ([`pool`]) for fanning
//!   independent simulations out across cores.
//!
//! Each simulation is single-threaded and fully deterministic: the
//! same sequence of `schedule` calls always produces the same sequence
//! of `pop`s, which the higher layers rely on for reproducible
//! experiments — and which makes sweeps embarrassingly parallel, since
//! a run's results cannot depend on what executes beside it.
//!
//! ```
//! use nw_sim::{EventQueue, Resource};
//!
//! // A bus serving two transfers, driven by an event loop.
//! let mut queue = EventQueue::new();
//! let mut bus = Resource::new();
//! queue.schedule_at(0, "request-a");
//! queue.schedule_at(10, "request-b");
//! let mut done = Vec::new();
//! while let Some((t, ev)) = queue.pop() {
//!     let grant = bus.acquire(t, 100);
//!     done.push((ev, grant.end));
//! }
//! // The second request queued behind the first.
//! assert_eq!(done, vec![("request-a", 100), ("request-b", 200)]);
//! ```

pub mod atomic_write;
pub mod ckpt;
pub mod engine;
pub mod pool;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use atomic_write::write_atomic;
pub use ckpt::{Ckpt, CkptError, CkptReader, CkptWriter};
pub use engine::EventQueue;
pub use pool::JobPanic;
pub use resource::{Grant, Resource};
pub use rng::Pcg32;
pub use trace::{TraceBuffer, TraceEvent, TrackId};
pub use time::{Bandwidth, Time, CYCLES_PER_MSEC, CYCLES_PER_USEC, NS_PER_CYCLE};
