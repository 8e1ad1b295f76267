//! The event queue at the heart of the simulator.
//!
//! The queue is generic over the event payload type `E`; the machine
//! model in `nwcache-core` defines one large `enum Event` and drives a
//! `loop { queue.pop() -> dispatch }`. Determinism is guaranteed by a
//! monotonically increasing sequence number that breaks timestamp ties
//! in insertion order.
//!
//! The queue is one binary heap keyed by `(time, seq)` packed into one
//! `u128`, plus the entry scheduled last, held outside the heap until
//! the next schedule so its payload can still be edited
//! ([`EventQueue::last_mut`]). Processors run inline for a quantum, so
//! only the messages, disk operations and resumes that cross between
//! components pass through it, and its share of a run is small.

use crate::ckpt::{Ckpt, CkptError};
use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A pending event under its delivery key `(at << 64) | seq`: one
/// integer comparison orders by time, then by scheduling order.
#[derive(Debug)]
struct Entry<E> {
    key: u128,
    event: E,
}

impl<E> Entry<E> {
    fn new(at: Time, seq: u64, event: E) -> Self {
        Entry { key: ((at as u128) << 64) | seq as u128, event }
    }

    fn at(&self) -> Time {
        (self.key >> 64) as Time
    }

    fn seq(&self) -> u64 {
        self.key as u64
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
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
        self.key.cmp(&other.key)
    }
}

/// A deterministic time-ordered event queue.
///
/// Events scheduled for the same timestamp are delivered in the order
/// they were scheduled (FIFO), which keeps multi-component protocols
/// deterministic without explicit priorities.
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    /// The entry scheduled last (sequence `seq - 1`) while it is still
    /// pending; every other pending entry is in `heap`.
    last: Option<Entry<E>>,
    seq: u64,
    now: Time,
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
    /// outstanding events, so a simulation run does not grow the heap
    /// incrementally.
    pub fn with_capacity(pending: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(pending),
            last: None,
            seq: 0,
            now: 0,
            delivered: 0,
        }
    }

    /// Current simulated time: the timestamp of the last popped event.
    pub fn now(&self) -> Time {
        self.now
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
        if let Some(prev) = self.last.replace(Entry::new(at, self.seq, event)) {
            self.heap.push(Reverse(prev));
        }
        self.seq += 1;
    }

    /// True when the next entry to deliver is `last` rather than the
    /// heap's top.
    fn last_is_next(&self) -> bool {
        match (&self.last, self.heap.peek()) {
            (Some(l), Some(Reverse(h))) => l.key < h.key,
            (last, _) => last.is_some(),
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let entry = if self.last_is_next() {
            self.last.take()?
        } else {
            self.heap.pop()?.0
        };
        let at = entry.at();
        debug_assert!(at >= self.now);
        self.now = at;
        self.delivered += 1;
        Some((at, entry.event))
    }

    /// Peek at the next event without popping it: exactly what
    /// [`EventQueue::pop`] would deliver next.
    pub fn peek(&self) -> Option<(Time, &E)> {
        let entry = if self.last_is_next() {
            self.last.as_ref()
        } else {
            self.heap.peek().map(|Reverse(e)| e)
        };
        entry.map(|e| (e.at(), &e.event))
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.heap.len() + self.last.is_some() as usize
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.last.is_none() && self.heap.is_empty()
    }

    /// Total number of events delivered via [`EventQueue::pop`].
    pub fn total_delivered(&self) -> u64 {
        self.delivered
    }

    /// The entry scheduled last, as `(at, &mut event)`, while it is
    /// still pending: nothing scheduled since, and not yet delivered.
    /// Only the payload is editable; the delivery key stays put.
    pub fn last_mut(&mut self) -> Option<(Time, &mut E)> {
        self.last.as_mut().map(|e| (e.at(), &mut e.event))
    }

    /// Every pending entry as `(at, seq, &event)`, in delivery order.
    pub fn pending(&self) -> Vec<(Time, u64, &E)> {
        let heap = self.heap.iter().map(|Reverse(e)| e);
        let mut v: Vec<&Entry<E>> = heap.chain(&self.last).collect();
        v.sort_unstable_by_key(|e| e.key);
        v.into_iter().map(|e| (e.at(), e.seq(), &e.event)).collect()
    }

    /// Checkpoint the queue: five counters, then every pending entry
    /// as `(at, seq, event)` in delivery order, with `event` walking
    /// the payload. A restore discards the current contents and
    /// refuses entries out of delivery order, before the clock, or
    /// numbered at or past the next sequence number, so a restored
    /// queue can never run time backwards. The entry numbered
    /// `seq - 1`, when pending, is restored as the last entry, so
    /// [`EventQueue::last_mut`] sees what it saw in the saved run.
    ///
    /// The third and fourth counters are retired: the calendar wheel's
    /// delivery cursor, which always equalled `now >> 6` at a save,
    /// and the scheduled-event count, which always equalled `seq`.
    /// They are written with those values, so every file keeps its
    /// bytes, and a restore discards what a file holds there.
    pub fn ckpt(
        &mut self,
        c: &mut Ckpt,
        mut event: impl FnMut(&mut Ckpt, &mut E) -> Result<(), CkptError>,
    ) -> Result<(), CkptError>
    where
        E: Clone + Default,
    {
        let (mut cursor, mut scheduled) = (self.now >> 6, self.seq);
        for v in [&mut self.now, &mut self.seq, &mut cursor, &mut scheduled, &mut self.delivered] {
            c.u64(v)?;
        }
        let mut entries: Vec<(Time, u64, E)> =
            self.pending().into_iter().map(|(at, seq, e)| (at, seq, e.clone())).collect();
        let (now, next_seq) = (self.now, self.seq);
        let mut prev: Option<(Time, u64)> = None;
        // An entry is at least a time, a sequence number and one byte
        // of event.
        c.list(&mut entries, usize::MAX, 3, "queued events", |c, (at, seq, ev)| {
            c.u64(at)?;
            c.u64(seq)?;
            if *at < now || *seq >= next_seq || prev.is_some_and(|p| p >= (*at, *seq)) {
                return Err(c.invalid(format!(
                    "queued event (at {at}, seq {seq}) out of order: clock {now}, \
                     next seq {next_seq}, previous {prev:?}"
                )));
            }
            prev = Some((*at, *seq));
            event(c, ev)
        })?;
        if c.loading() {
            self.heap.clear();
            self.last = None;
            for (at, seq, ev) in entries {
                let entry = Entry::new(at, seq, ev);
                if seq + 1 == next_seq {
                    self.last = Some(entry);
                } else {
                    self.heap.push(Reverse(entry));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt::{CkptReader, CkptWriter};

    /// A delay long enough to put events far apart on the time axis.
    const LONG: Time = 65_536;

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
        q.schedule_at(1, 0);
        q.schedule_at(2, 0);
        save_edited(&mut q, |c, _| assert_eq!(c[1], 2, "sequence numbers issued"));
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.pop();
        assert_eq!(q.total_delivered(), 1);
        assert_eq!(q.peek(), Some((2, &0)));
        q.pop();
        assert_eq!(q.len(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn zero_delay_events_run_after_current() {
        let mut q = EventQueue::new();
        q.schedule_at(10, "first");
        q.pop();
        q.schedule_at(q.now(), "second");
        assert_eq!(q.pop(), Some((10, "second")));
    }

    #[test]
    fn far_future_events_cross_the_horizon() {
        let h = LONG;
        let mut q = EventQueue::new();
        // Two far-future events, out of order, then a near one.
        q.schedule_at(3 * h, 2);
        q.schedule_at(2 * h + 7, 1);
        q.schedule_at(5, 0);
        assert_eq!(q.peek(), Some((5, &0)));
        assert_eq!(q.pop(), Some((5, 0)));
        assert_eq!(q.pop(), Some((2 * h + 7, 1)));
        assert_eq!(q.pop(), Some((3 * h, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cross_tier_ties_stay_fifo() {
        let h = LONG;
        let t = 2 * h + 13;
        let mut q = EventQueue::new();
        // Scheduled while `t` is far in the future...
        q.schedule_at(t, 0);
        q.schedule_at(h, 100);
        assert_eq!(q.pop(), Some((h, 100)));
        // ...then more at the *same* timestamp once the clock has come
        // close to it: FIFO must hold across the gap.
        q.schedule_at(t, 1);
        q.schedule_at(t, 2);
        assert_eq!(q.pop(), Some((t, 0)));
        assert_eq!(q.pop(), Some((t, 1)));
        assert_eq!(q.pop(), Some((t, 2)));
    }

    #[test]
    fn wheel_wraps_many_laps() {
        // March the clock a long way with a stride co-prime with every
        // power of two.
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        let mut t = 0u64;
        for i in 0..5_000u32 {
            t += 37;
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
        let h = LONG;
        let mut q = EventQueue::new();
        // A chain where each pop schedules the next event a long
        // delay ahead.
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
        let h = LONG;
        let mut q = EventQueue::new();
        // An event scheduled far ahead at t=0...
        q.schedule_at(h + h / 2, 1);
        q.schedule_at(h / 2, 0);
        assert_eq!(q.pop(), Some((h / 2, 0)));
        // ...stays ahead of a later one scheduled closer to it.
        q.schedule_at(h + h / 2 + 64, 2);
        assert_eq!(q.peek(), Some((h + h / 2, &1)));
        assert_eq!(q.pop(), Some((h + h / 2, 1)));
        assert_eq!(q.pop(), Some((h + h / 2 + 64, 2)));
    }

    #[test]
    fn peek_matches_pop_across_tiers() {
        let h = LONG;
        let mut q = EventQueue::new();
        // Near and far events, with same-timestamp ties at both.
        q.schedule_at(2 * h + 13, 0); // lowest seq at its time
        q.schedule_at(5, 100);
        q.schedule_at(5, 101);
        assert_eq!(q.pop(), Some((5, 100)));
        q.schedule_at(2 * h + 13, 1); // peek must prefer seq order
        loop {
            let peeked = q.peek().map(|(t, &e)| (t, e));
            let popped = q.pop();
            assert_eq!(peeked, popped);
            if popped.is_none() {
                break;
            }
        }
    }

    /// `q` saved into one section, as bytes.
    fn save(q: &mut EventQueue<u64>) -> Vec<u8> {
        let mut w = CkptWriter::new();
        w.begin_section(1);
        q.ckpt(&mut Ckpt::Save(&mut w), |c, e| c.u64(e)).expect("saving cannot fail");
        w.end_section();
        w.finish()
    }

    /// A queue restored from `save` bytes.
    fn load(bytes: &[u8]) -> Result<EventQueue<u64>, CkptError> {
        let mut r = CkptReader::new(bytes).expect("valid container");
        r.begin_section(1).expect("section 1");
        let mut q = EventQueue::new();
        q.schedule_at(7, 7); // discarded by the restore
        q.ckpt(&mut Ckpt::Load(&mut r), |c, e| c.u64(e))?;
        r.end_section().expect("section consumed");
        Ok(q)
    }

    /// An edit of a saved queue's five counters and `(at, seq, event)`
    /// entries.
    type Edit = fn(&mut [u64; 5], &mut Vec<[u64; 3]>);

    /// `q` saved with `edit` applied, re-framed under a valid checksum.
    fn save_edited(q: &mut EventQueue<u64>, edit: impl FnOnce(&mut [u64; 5], &mut Vec<[u64; 3]>)) -> Vec<u8> {
        let bytes = save(q);
        let mut r = CkptReader::new(&bytes).expect("valid container");
        r.begin_section(1).expect("section 1");
        let mut counters = [0u64; 5];
        for v in &mut counters {
            *v = r.u64().expect("counter");
        }
        let n = r.u64().expect("entry count");
        let mut entries: Vec<[u64; 3]> =
            (0..n).map(|_| [(); 3].map(|()| r.u64().expect("entry field"))).collect();
        edit(&mut counters, &mut entries);
        let mut w = CkptWriter::new();
        w.begin_section(1);
        counters.iter().for_each(|&v| w.u64(v));
        w.u64(entries.len() as u64);
        entries.iter().flatten().for_each(|&v| w.u64(v));
        w.end_section();
        w.finish()
    }

    #[test]
    fn ckpt_snapshot_resumes_identically() {
        let h = LONG;
        // Build a queue with near and far events, pop some, snapshot,
        // and check a restored queue delivers the remainder in exactly
        // the original order.
        let mut q = EventQueue::new();
        for i in 0..200u64 {
            q.schedule_at(i * 37 % 500, i);
        }
        q.schedule_at(2 * h + 11, 1000);
        q.schedule_at(3 * h, 1001);
        for _ in 0..50 {
            q.pop();
        }
        q.schedule_at(q.now() + 5, 2000); // same-time FIFO across the snapshot
        q.schedule_at(q.now() + 5, 2001);

        let mut restored = load(&save(&mut q)).expect("round trip");
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
                q.schedule_at(q.now() + q.now() % 13 + 1, 9_999);
                restored.schedule_at(restored.now() + restored.now() % 13 + 1, 9_999);
            }
        }
        assert_eq!(restored.total_delivered(), q.total_delivered());
        // Equal counters and no entries left: the same bytes.
        assert_eq!(save(&mut restored), save(&mut q));
    }

    #[test]
    fn retired_counter_slots_are_written_fixed_and_ignored_on_restore() {
        let mut q = EventQueue::new();
        for (i, at) in [10, 70_000, 200, 5_000].into_iter().enumerate() {
            q.schedule_at(at, i as u64);
        }
        let fresh = save(&mut q);
        // Before the first pop the cursor slot reads 0, and the
        // scheduled-count slot always reads `seq`.
        save_edited(&mut q, |c, _| assert_eq!(c, &[0, 4, 0, 4, 0]));
        // Whatever the retired slots hold, the restored queue delivers
        // in (time, seq) order and saves the canonical bytes again.
        for (cursor, scheduled) in [(100, 4), (0, 9), (u64::MAX, 0)] {
            let bytes = save_edited(&mut q, |c, _| (c[2], c[3]) = (cursor, scheduled));
            let mut r = load(&bytes).expect("retired slots are discarded");
            assert_eq!(save(&mut r), fresh);
            let order: Vec<_> = std::iter::from_fn(|| r.pop()).collect();
            assert_eq!(order, vec![(10, 0), (200, 2), (5_000, 3), (70_000, 1)]);
        }
        q.pop();
        q.pop();
        save_edited(&mut q, |c, _| assert_eq!(c, &[200, 4, 200 >> 6, 4, 2]));
    }

    #[test]
    fn restore_refuses_entries_that_would_run_time_backwards() {
        let mut q = EventQueue::new();
        for at in [300, 400, 500] {
            q.schedule_at(at, at);
        }
        q.pop();
        let edits: [(&str, Edit); 4] = [
            ("before the clock", |_, e| e[0][0] = 299),
            ("seq not yet issued", |c, e| e[1][1] = c[1]),
            ("out of delivery order", |_, e| e.swap(0, 1)),
            ("repeated entry", |_, e| e[1] = e[0]),
        ];
        for (what, edit) in edits {
            let err = load(&save_edited(&mut q, edit)).expect_err(what);
            assert!(matches!(err, CkptError::Invalid { .. }), "{what}: {err}");
        }
        // Equal times keep their seq order and load.
        let bytes = save_edited(&mut q, |_, e| e[1][0] = e[0][0]);
        assert_eq!(load(&bytes).expect("tie").pop(), Some((400, 400)));
    }

    #[test]
    fn last_mut_edits_only_the_pending_entry_scheduled_last() {
        let mut q = EventQueue::new();
        assert_eq!(q.last_mut(), None);
        q.schedule_at(50, 1u64);
        q.schedule_at(20, 2);
        // The entry scheduled last need not be the next to deliver.
        *q.last_mut().expect("pending").1 += 10;
        assert_eq!(q.peek(), Some((20, &12)));
        q.schedule_at(40, 3);
        assert_eq!(q.last_mut().map(|(at, e)| (at, *e)), Some((40, 3)));
        assert_eq!(q.pop(), Some((20, 12)));
        assert_eq!(q.pop(), Some((40, 3)));
        // Delivered, it cannot be edited, even with nothing scheduled
        // since.
        assert_eq!(q.last_mut(), None);
        assert_eq!(q.pop(), Some((50, 1)));
    }

    #[test]
    fn restore_reseats_the_entry_scheduled_last() {
        let mut q = EventQueue::new();
        for (at, e) in [(30, 0), (10, 1), (20, 2)] {
            q.schedule_at(at, e);
        }
        let mut r = load(&save(&mut q)).expect("round trip");
        assert_eq!(r.last_mut().map(|(at, e)| (at, *e)), Some((20, 2)));
        q.pop();
        q.pop();
        let mut r = load(&save(&mut q)).expect("round trip");
        assert_eq!(r.last_mut(), None);
        assert_eq!(r.pop(), Some((30, 0)));
        assert_eq!(r.pop(), None);
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
