//! FIFO contention model for shared hardware resources.
//!
//! Buses, network links, disk arms and ring channels are all modelled
//! as [`Resource`]s: a request of duration `d` issued at time `t` is
//! granted the interval `[max(t, next_free), max(t, next_free) + d)`.
//! This is the classic "server with an implicit FIFO queue" abstraction
//! used by timing simulators — precise enough to capture queueing
//! delay and utilization without simulating individual queue entries.

use crate::ckpt::{Ckpt, CkptError};
use crate::time::Time;

/// The interval granted to a single request on a [`Resource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When service starts (>= request time).
    pub start: Time,
    /// When service completes (start + duration).
    pub end: Time,
}

impl Grant {
    /// Queueing delay experienced before service started.
    pub fn wait(&self, requested_at: Time) -> Time {
        self.start - requested_at
    }
}

/// A FIFO-served shared resource with utilization accounting.
#[derive(Debug, Clone, Default)]
pub struct Resource {
    next_free: Time,
    busy_cycles: Time,
    wait_cycles: Time,
    acquisitions: u64,
}

impl Resource {
    /// A new, idle resource.
    pub fn new() -> Self {
        Resource::default()
    }

    /// Reserve the resource for `duration` cycles, requested at `now`.
    ///
    /// Returns the granted service interval. The caller is responsible
    /// for scheduling its completion event at `grant.end`.
    #[inline]
    pub fn acquire(&mut self, now: Time, duration: Time) -> Grant {
        let start = self.next_free.max(now);
        let end = start + duration;
        self.next_free = end;
        self.busy_cycles += duration;
        self.wait_cycles += start - now;
        self.acquisitions += 1;
        Grant { start, end }
    }

    /// Like [`Resource::acquire`] but the request only holds the
    /// resource if it can start immediately; otherwise returns `None`
    /// and the resource is untouched. Used for opportunistic work such
    /// as background prefetches that yield to demand traffic.
    pub fn try_acquire(&mut self, now: Time, duration: Time) -> Option<Grant> {
        if self.next_free > now {
            return None;
        }
        Some(self.acquire(now, duration))
    }

    /// The earliest time a new request issued at `now` would start.
    #[inline]
    pub fn earliest_start(&self, now: Time) -> Time {
        self.next_free.max(now)
    }

    /// True if a request at `now` would be served without waiting.
    pub fn is_idle_at(&self, now: Time) -> bool {
        self.next_free <= now
    }

    /// Total cycles of granted service time.
    pub fn busy_cycles(&self) -> Time {
        self.busy_cycles
    }

    /// Total cycles requests spent queueing.
    pub fn wait_cycles(&self) -> Time {
        self.wait_cycles
    }

    /// Number of grants issued.
    pub fn acquisitions(&self) -> u64 {
        self.acquisitions
    }

    /// Utilization in `[0, 1]` over the first `horizon` cycles.
    pub fn utilization(&self, horizon: Time) -> f64 {
        if horizon == 0 {
            return 0.0;
        }
        self.busy_cycles.min(horizon) as f64 / horizon as f64
    }

    /// Mean queueing delay per acquisition.
    pub fn mean_wait(&self) -> f64 {
        if self.acquisitions == 0 {
            0.0
        } else {
            self.wait_cycles as f64 / self.acquisitions as f64
        }
    }

    /// Checkpoint the dynamic state (the name comes from construction).
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        for v in [&mut self.next_free, &mut self.busy_cycles, &mut self.wait_cycles, &mut self.acquisitions] {
            c.u64(v)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_serves_immediately() {
        let mut r = Resource::new();
        let g = r.acquire(100, 50);
        assert_eq!(g, Grant { start: 100, end: 150 });
        assert_eq!(g.wait(100), 0);
    }

    #[test]
    fn back_to_back_requests_queue() {
        let mut r = Resource::new();
        let g1 = r.acquire(0, 100);
        let g2 = r.acquire(10, 100);
        assert_eq!(g1.end, 100);
        assert_eq!(g2.start, 100);
        assert_eq!(g2.end, 200);
        assert_eq!(g2.wait(10), 90);
        assert_eq!(r.wait_cycles(), 90);
        assert_eq!(r.busy_cycles(), 200);
    }

    #[test]
    fn gap_leaves_resource_idle() {
        let mut r = Resource::new();
        r.acquire(0, 10);
        let g = r.acquire(100, 10);
        assert_eq!(g.start, 100);
        assert!(r.is_idle_at(110));
        assert!(!r.is_idle_at(105));
    }

    #[test]
    fn try_acquire_respects_busy() {
        let mut r = Resource::new();
        r.acquire(0, 100);
        assert_eq!(r.try_acquire(50, 10), None);
        let g = r.try_acquire(100, 10).unwrap();
        assert_eq!(g.start, 100);
    }

    #[test]
    fn utilization_and_mean_wait() {
        let mut r = Resource::new();
        r.acquire(0, 100);
        r.acquire(0, 100);
        assert!((r.utilization(400) - 0.5).abs() < 1e-12);
        assert!((r.mean_wait() - 50.0).abs() < 1e-12);
        assert_eq!(r.acquisitions(), 2);
    }

    #[test]
    fn zero_duration_grant_is_instant() {
        let mut r = Resource::new();
        let g = r.acquire(5, 0);
        assert_eq!(g.start, 5);
        assert_eq!(g.end, 5);
        assert!(r.is_idle_at(5));
    }

    #[test]
    fn earliest_start_previews_queue() {
        let mut r = Resource::new();
        r.acquire(0, 1000);
        assert_eq!(r.earliest_start(10), 1000);
        assert_eq!(r.earliest_start(2000), 2000);
    }
}
