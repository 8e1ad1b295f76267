//! The event queue at the heart of the simulator.
//!
//! The queue is generic over the event payload type `E`; the machine
//! model in `nwcache-core` defines one large `enum Event` and drives a
//! `loop { queue.pop() -> dispatch }`. Determinism is guaranteed by a
//! monotonically increasing sequence number that breaks timestamp ties
//! in insertion order.
//!
//! ## Two-tier structure
//!
//! Most events in this simulator are *near-future*: cache and mesh
//! hops of a few to a few thousand pcycles. A comparison-based heap
//! pays `O(log n)` per operation for those even though the time axis
//! is almost sorted already. The queue therefore keeps two tiers:
//!
//! * a **calendar wheel** of [`WHEEL_SLOTS`] buckets, each
//!   [`BUCKET_WIDTH`] pcycles wide, covering the next
//!   `WHEEL_SLOTS * BUCKET_WIDTH` pcycles — insertion is `O(1)`
//!   (push onto the target bucket), and delivery walks the wheel
//!   forward, taking the `(time, seq)`-minimum of the small bucket
//!   at the cursor;
//! * a **far-future heap** for events beyond the wheel horizon (disk
//!   mechanics, watchdogs, staged fault injections). As the cursor
//!   advances, far events whose bucket has come inside the horizon
//!   migrate into the wheel before anything at the cursor is
//!   delivered, so an event can never be popped out of order across
//!   the tier boundary.
//!
//! Bucket `Vec`s are reused for the lifetime of the queue (they are
//! emptied, never dropped), so a steady-state simulation run performs
//! almost no queue allocation after warm-up.

use crate::ckpt::{Ckpt, CkptError};
use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of buckets in the calendar wheel (power of two).
const WHEEL_SLOTS: usize = 1024;
/// log2 of the bucket width in pcycles.
const BUCKET_SHIFT: u32 = 6;
/// Width of one wheel bucket in pcycles.
const BUCKET_WIDTH: Time = 1 << BUCKET_SHIFT;
/// Slot-index mask (`WHEEL_SLOTS` is a power of two).
const WHEEL_MASK: usize = WHEEL_SLOTS - 1;

#[derive(Debug)]
struct Entry<E> {
    at: Time,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// Absolute bucket index on the (unbounded) time axis.
    fn bucket(&self) -> u64 {
        self.at >> BUCKET_SHIFT
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A deterministic time-ordered event queue.
///
/// Events scheduled for the same timestamp are delivered in the order
/// they were scheduled (FIFO), which keeps multi-component protocols
/// deterministic without explicit priorities.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// Near-future tier: `wheel[b & WHEEL_MASK]` holds the events of
    /// absolute bucket `b` for every pending `b` in
    /// `[cursor, cursor + WHEEL_SLOTS)`. Pending buckets are all
    /// within one horizon of each other, so no slot ever mixes laps.
    wheel: Vec<Vec<Entry<E>>>,
    /// One bit per wheel slot (set = non-empty), so the delivery
    /// cursor finds the next occupied bucket with `trailing_zeros`
    /// instead of probing empty slots one by one.
    occupied: [u64; WHEEL_SLOTS / 64],
    /// Events currently stored in the wheel (across all buckets).
    wheel_events: usize,
    /// Absolute bucket index the delivery cursor is at. Equal to
    /// `now >> BUCKET_SHIFT` after every pop; may move further ahead
    /// while the wheel is empty and the far tier is being engaged.
    cursor: u64,
    /// Far-future tier: events beyond the wheel horizon at the time
    /// they were scheduled.
    far: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: Time,
    scheduled: u64,
    delivered: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at zero.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty queue pre-sized for roughly `pending` simultaneously
    /// outstanding events, so a simulation run does not grow the far
    /// tier incrementally.
    pub fn with_capacity(pending: usize) -> Self {
        EventQueue {
            wheel: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: [0; WHEEL_SLOTS / 64],
            wheel_events: 0,
            cursor: 0,
            far: BinaryHeap::with_capacity(pending),
            seq: 0,
            now: 0,
            scheduled: 0,
            delivered: 0,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> Time {
        self.now
    }

    fn mark(&mut self, slot: usize) {
        self.occupied[slot >> 6] |= 1 << (slot & 63);
    }

    fn unmark(&mut self, slot: usize) {
        self.occupied[slot >> 6] &= !(1 << (slot & 63));
    }

    /// First occupied slot at or (cyclically) after `start`. All
    /// pending buckets lie within one horizon of the cursor, so the
    /// cyclic-first set bit is the bucket with the smallest absolute
    /// index. `None` when the wheel is empty.
    fn next_occupied(&self, start: usize) -> Option<usize> {
        const WORDS: usize = WHEEL_SLOTS / 64;
        let w0 = start >> 6;
        let first = self.occupied[w0] & (!0u64 << (start & 63));
        if first != 0 {
            return Some((w0 << 6) + first.trailing_zeros() as usize);
        }
        for k in 1..=WORDS {
            let wi = (w0 + k) % WORDS;
            let word = self.occupied[wi];
            if word != 0 {
                return Some((wi << 6) + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — the simulation may never rewind.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.scheduled += 1;
        let entry = Entry { at, seq, event };
        if entry.bucket() < self.cursor + WHEEL_SLOTS as u64 {
            let slot = entry.bucket() as usize & WHEEL_MASK;
            self.wheel[slot].push(entry);
            self.mark(slot);
            self.wheel_events += 1;
        } else {
            self.far.push(Reverse(entry));
        }
    }

    /// Schedule `event` `delay` pcycles from now.
    pub fn schedule_in(&mut self, delay: Time, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.wheel_events == 0 {
            // Jump the cursor straight to the earliest far event (if
            // any) so the migration below brings it into the wheel.
            self.cursor = self.cursor.max(self.far.peek()?.0.bucket());
        }
        // Migrate far-tier events whose bucket the advancing cursor
        // has brought inside the horizon. Afterwards every far event
        // is strictly beyond every wheel event, so the next delivery
        // is guaranteed to be in the wheel.
        while let Some(Reverse(top)) = self.far.peek() {
            if top.bucket() >= self.cursor + WHEEL_SLOTS as u64 {
                break;
            }
            let Reverse(entry) = self.far.pop().expect("peeked");
            let slot = entry.bucket() as usize & WHEEL_MASK;
            self.wheel[slot].push(entry);
            self.mark(slot);
            self.wheel_events += 1;
        }
        // Jump to the first occupied bucket; one exists within the
        // horizon because wheel_events > 0 here.
        let cur_slot = self.cursor as usize & WHEEL_MASK;
        let slot = self.next_occupied(cur_slot).expect("wheel has events");
        self.cursor += ((slot + WHEEL_SLOTS - cur_slot) & WHEEL_MASK) as u64;
        let bucket = &mut self.wheel[slot];
        // The bucket spans BUCKET_WIDTH pcycles, so it can hold
        // several timestamps (and same-timestamp FIFO chains): take
        // the (time, seq) minimum.
        let mut best = 0;
        for i in 1..bucket.len() {
            if (bucket[i].at, bucket[i].seq) < (bucket[best].at, bucket[best].seq) {
                best = i;
            }
        }
        let entry = bucket.swap_remove(best);
        if self.wheel[slot].is_empty() {
            self.unmark(slot);
        }
        self.wheel_events -= 1;
        debug_assert!(entry.at >= self.now);
        debug_assert_eq!(entry.bucket(), self.cursor);
        self.now = entry.at;
        self.delivered += 1;
        Some((entry.at, entry.event))
    }

    /// Peek at the next event without popping it: the `(time, seq)`
    /// minimum across both tiers, i.e. exactly what [`EventQueue::pop`]
    /// would deliver next, without committing to delivery.
    pub fn peek(&self) -> Option<(Time, &E)> {
        let far_best = self.far.peek().map(|Reverse(e)| e);
        let wheel_best = if self.wheel_events == 0 {
            None
        } else {
            let slot = self
                .next_occupied(self.cursor as usize & WHEEL_MASK)
                .expect("wheel has events");
            self.wheel[slot].iter().min_by_key(|e| (e.at, e.seq))
        };
        let best = match (far_best, wheel_best) {
            (Some(f), Some(w)) => {
                if (f.at, f.seq) < (w.at, w.seq) {
                    f
                } else {
                    w
                }
            }
            (Some(f), None) => f,
            (None, Some(w)) => w,
            (None, None) => return None,
        };
        Some((best.at, &best.event))
    }

    /// Peek at the timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        let far_min = self.far.peek().map(|Reverse(e)| e.at);
        if self.wheel_events == 0 {
            return far_min;
        }
        let slot = self
            .next_occupied(self.cursor as usize & WHEEL_MASK)
            .expect("wheel has events");
        let wheel_min = self.wheel[slot]
            .iter()
            .map(|e| e.at)
            .min()
            .expect("occupied slot");
        Some(match far_min {
            Some(f) if f < wheel_min => f,
            _ => wheel_min,
        })
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.wheel_events + self.far.len()
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sequence number the next scheduled event will get. The event
    /// with sequence `next_seq() - 1` is the most recently scheduled.
    pub fn next_seq(&self) -> u64 {
        self.seq
    }

    /// Total number of events ever scheduled.
    pub fn total_scheduled(&self) -> u64 {
        self.scheduled
    }

    /// Total number of events delivered via [`EventQueue::pop`].
    pub fn total_delivered(&self) -> u64 {
        self.delivered
    }

    /// The wheel horizon in pcycles: events scheduled further than
    /// this past the cursor start out in the far tier. Exposed for
    /// tests that exercise the tier boundary.
    pub fn wheel_horizon() -> Time {
        WHEEL_SLOTS as Time * BUCKET_WIDTH
    }

    /// The entry scheduled last, as `(at, seq, &event)`, while it is
    /// still pending.
    pub fn last_scheduled(&self) -> Option<(Time, u64, &E)> {
        let seq = self.seq.checked_sub(1)?;
        self.pending().into_iter().find(|&(_, s, _)| s == seq)
    }

    /// Every pending entry as `(at, seq, &event)`, in delivery order.
    pub fn pending(&self) -> Vec<(Time, u64, &E)> {
        let mut v: Vec<(Time, u64, &E)> = self
            .wheel
            .iter()
            .flatten()
            .chain(self.far.iter().map(|Reverse(e)| e))
            .map(|e| (e.at, e.seq, &e.event))
            .collect();
        v.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        v
    }

    /// Checkpoint the queue: its counters, then every pending entry as
    /// `(at, seq, event)` in delivery order, with `event` walking the
    /// payload. The `(at, seq)` ordering is the queue's full delivery
    /// contract, so tier placement (wheel vs far) is not recorded: a
    /// restore discards the current contents and re-places each entry
    /// by the standard rule, leaving delivery order unchanged.
    pub fn ckpt(
        &mut self,
        c: &mut Ckpt,
        mut event: impl FnMut(&mut Ckpt, &mut E) -> Result<(), CkptError>,
    ) -> Result<(), CkptError>
    where
        E: Clone + Default,
    {
        for v in [&mut self.now, &mut self.seq, &mut self.cursor, &mut self.scheduled, &mut self.delivered] {
            c.u64(v)?;
        }
        let mut entries: Vec<(Time, u64, E)> =
            self.pending().into_iter().map(|(at, seq, e)| (at, seq, e.clone())).collect();
        // An entry is at least a time, a sequence number and one byte
        // of event.
        c.list(&mut entries, usize::MAX, 3, "queued events", |c, (at, seq, ev)| {
            c.u64(at)?;
            c.u64(seq)?;
            event(c, ev)
        })?;
        if !c.loading() {
            return Ok(());
        }
        for slot in &mut self.wheel {
            slot.clear();
        }
        self.occupied = [0; WHEEL_SLOTS / 64];
        self.wheel_events = 0;
        self.far.clear();
        for (at, seq, event) in entries {
            let entry = Entry { at, seq, event };
            if entry.bucket() < self.cursor + WHEEL_SLOTS as u64 {
                let slot = entry.bucket() as usize & WHEEL_MASK;
                self.wheel[slot].push(entry);
                self.mark(slot);
                self.wheel_events += 1;
            } else {
                self.far.push(Reverse(entry));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::{CkptReader, CkptWriter};

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule_at(30, "c");
        q.schedule_at(10, "a");
        q.schedule_at(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 30);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule_at(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_in(10, 1u32);
        assert_eq!(q.pop(), Some((10, 1)));
        q.schedule_in(5, 2);
        assert_eq!(q.pop(), Some((15, 2)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule_at(10, ());
        q.pop();
        q.schedule_at(5, ());
    }

    #[test]
    fn counters_track_traffic() {
        let mut q = EventQueue::new();
        q.schedule_at(1, ());
        q.schedule_at(2, ());
        assert_eq!(q.total_scheduled(), 2);
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!(q.total_delivered(), 1);
        assert_eq!(q.peek_time(), Some(2));
    }

    #[test]
    fn zero_delay_events_run_after_current() {
        let mut q = EventQueue::new();
        q.schedule_at(10, "first");
        q.pop();
        q.schedule_in(0, "second");
        assert_eq!(q.pop(), Some((10, "second")));
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        let h = EventQueue::<u32>::wheel_horizon();
        let mut q = EventQueue::new();
        // Both land in the far tier, out of order.
        q.schedule_at(3 * h, 2);
        q.schedule_at(2 * h + 7, 1);
        // This one is near.
        q.schedule_at(5, 0);
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.pop(), Some((5, 0)));
        assert_eq!(q.pop(), Some((2 * h + 7, 1)));
        assert_eq!(q.pop(), Some((3 * h, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cross_tier_ties_stay_fifo() {
        let h = EventQueue::<u32>::wheel_horizon();
        let t = 2 * h + 13;
        let mut q = EventQueue::new();
        // Scheduled while `t` is beyond the horizon: far tier.
        q.schedule_at(t, 0);
        q.schedule_at(h, 100);
        // Advance the clock so `t` comes inside the horizon...
        assert_eq!(q.pop(), Some((h, 100)));
        // ...then schedule more events at the *same* timestamp; these
        // go straight into the wheel. FIFO across tiers must hold.
        q.schedule_at(t, 1);
        q.schedule_at(t, 2);
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn wheel_wraps_many_laps() {
        // March the clock across many wheel laps with a stride that
        // hits every slot alignment.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        let mut t = 0u64;
        for i in 0..5_000u32 {
            t += 37; // co-prime with the bucket width
            q.schedule_at(t, i);
            expect.push((t, i));
        }
        for e in expect {
            assert_eq!(q.pop(), Some(e));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn interleaved_far_and_near_delivery() {
        let h = EventQueue::<u64>::wheel_horizon();
        let mut q = EventQueue::new();
        // A chain where each pop schedules the next event just past
        // the horizon — constantly exercising migration.
        q.schedule_at(1, 0);
        let mut popped = Vec::new();
        while let Some((t, id)) = q.pop() {
            popped.push((t, id));
            if id < 20 {
                q.schedule_at(t + h + 3, id + 1);
            }
        }
        assert_eq!(popped.len(), 21);
        for w in popped.windows(2) {
            assert!(w[0].0 < w[1].0);
            assert_eq!(w[0].1 + 1, w[1].1);
        }
    }

    #[test]
    fn peek_prefers_earlier_far_event() {
        let h = EventQueue::<u32>::wheel_horizon();
        let mut q = EventQueue::new();
        // Far event at 1.5h (beyond horizon from t=0)...
        q.schedule_at(h + h / 2, 1);
        q.schedule_at(h / 2, 0);
        assert_eq!(q.pop(), Some((h / 2, 0)));
        // ...now schedule a *wheel* event later than the far one.
        q.schedule_at(h + h / 2 + BUCKET_WIDTH, 2);
        assert_eq!(q.peek_time(), Some(h + h / 2));
        assert_eq!(q.pop(), Some((h + h / 2, 1)));
        assert_eq!(q.pop(), Some((h + h / 2 + BUCKET_WIDTH, 2)));
    }

    #[test]
    fn peek_matches_pop_across_tiers() {
        let h = EventQueue::<u32>::wheel_horizon();
        let mut q = EventQueue::new();
        // Straddle tiers, with a cross-tier same-timestamp tie.
        q.schedule_at(2 * h + 13, 0); // far tier, lowest seq at its time
        q.schedule_at(5, 100);
        q.schedule_at(5, 101); // same-time FIFO in the wheel
        assert_eq!(q.pop(), Some((5, 100)));
        q.schedule_at(2 * h + 13, 1); // wheel tier now (clock advanced? no
                                      // — still far; either way peek must
                                      // prefer seq order at equal times)
        loop {
            let peeked = q.peek().map(|(t, &e)| (t, e));
            let popped = q.pop();
            assert_eq!(peeked, popped);
            if popped.is_none() {
                break;
            }
        }
    }

    #[test]
    fn ckpt_snapshot_resumes_identically() {
        let h = EventQueue::<u64>::wheel_horizon();
        // Build a queue with events straddling both tiers, pop some,
        // snapshot, and check a restored queue delivers the remainder
        // in exactly the original order.
        let mut q = EventQueue::new();
        for i in 0..200u64 {
            q.schedule_at(i * 37 % 500, i);
        }
        q.schedule_at(2 * h + 11, 1000);
        q.schedule_at(3 * h, 1001);
        for _ in 0..50 {
            q.pop();
        }
        q.schedule_in(5, 2000); // same-time FIFO across the snapshot
        q.schedule_in(5, 2001);

        let mut w = CkptWriter::new();
        w.begin_section(1);
        q.ckpt(&mut Ckpt::Save(&mut w), |c, e| c.u64(e)).expect("saving cannot fail");
        w.end_section();
        let bytes = w.finish();
        let mut r = CkptReader::new(&bytes).expect("valid container");
        r.begin_section(1).expect("section 1");
        let mut restored = EventQueue::new();
        restored.schedule_at(7, 7); // discarded by the restore
        restored.ckpt(&mut Ckpt::Load(&mut r), |c, e| c.u64(e)).expect("round trip");
        r.end_section().expect("section consumed");

        assert_eq!(restored.now(), q.now());
        assert_eq!(restored.len(), q.len());
        loop {
            let a = q.pop();
            let b = restored.pop();
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
            // Scheduling after restore stays deterministic too.
            if q.now() % 7 == 0 {
                q.schedule_in(q.now() % 13 + 1, 9_999);
                restored.schedule_in(restored.now() % 13 + 1, 9_999);
            }
        }
        assert_eq!(restored.total_delivered(), q.total_delivered());
        assert_eq!(restored.total_scheduled(), q.total_scheduled());
    }

    #[test]
    fn with_capacity_behaves_like_new() {
        let mut a = EventQueue::with_capacity(512);
        let mut b = EventQueue::new();
        for i in 0..100u64 {
            a.schedule_at(i * 97 % 1000, i);
            b.schedule_at(i * 97 % 1000, i);
        }
        while let Some(x) = a.pop() {
            assert_eq!(Some(x), b.pop());
        }
        assert_eq!(b.pop(), None);
    }
}
