//! NWCache interface electronics at an I/O-enabled node.
//!
//! When a node swaps a page out to the ring it sends a control message
//! to the NWCache interface of the I/O node owning the page's disk;
//! the interface records `(swapping node, page)` in a FIFO associated
//! with that node's cache channel (§3.2). Whenever the attached disk
//! controller has cache room, the interface snoops **the most heavily
//! loaded channel** and copies pages *in swap-out order*, exhausting
//! the current channel before switching — the two properties that give
//! the disk cache runs of consecutive pages to combine.
//!
//! A victim read (fault served from the ring) cancels the page's FIFO
//! entry: the page no longer needs to reach the disk.

use crate::Page;
use nw_sim::ckpt::{Ckpt, CkptError};
use std::collections::VecDeque;

/// A swap-out notification queued at the interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SwapRecord {
    /// The node that swapped the page out (owns the ring slot).
    pub origin: u32,
    /// The swapped-out page.
    pub page: Page,
}

/// The per-I/O-node NWCache interface state.
#[derive(Debug)]
pub struct NwcInterface {
    /// One FIFO per cache channel (channel i belongs to node i).
    fifos: Vec<VecDeque<SwapRecord>>,
    /// Channel currently being drained (exhaust before switching).
    current: Option<usize>,
    enqueued: u64,
    drained: u64,
    cancelled: u64,
}

impl NwcInterface {
    /// An interface tracking `channels` cache channels.
    pub fn new(channels: usize) -> Self {
        NwcInterface {
            fifos: (0..channels).map(|_| VecDeque::new()).collect(),
            current: None,
            enqueued: 0,
            drained: 0,
            cancelled: 0,
        }
    }

    /// Record a swap-out of `page` by `origin` on channel `channel`.
    pub fn enqueue(&mut self, channel: usize, origin: u32, page: Page) {
        self.fifos[channel].push_back(SwapRecord { origin, page });
        self.enqueued += 1;
    }

    /// Cancel the FIFO entry for `page` on `channel` (victim read
    /// re-mapped the page to memory). Returns the cancelled record.
    pub fn cancel(&mut self, channel: usize, page: Page) -> Option<SwapRecord> {
        let fifo = &mut self.fifos[channel];
        let idx = fifo.iter().position(|r| r.page == page)?;
        let rec = fifo.remove(idx);
        self.cancelled += 1;
        rec
    }

    /// Pop the next page to copy to the disk cache, following the
    /// paper's policy: keep draining the current channel until empty,
    /// then switch to the most heavily loaded channel. Returns the
    /// channel and the record, or `None` when all FIFOs are empty.
    pub fn next_to_drain(&mut self) -> Option<(usize, SwapRecord)> {
        if let Some(ch) = self.current {
            if let Some(rec) = self.fifos[ch].pop_front() {
                self.drained += 1;
                return Some((ch, rec));
            }
            self.current = None;
        }
        // Most-loaded channel; ties broken by lowest channel id for
        // determinism.
        let (ch, _) = self
            .fifos
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.len().cmp(&b.len()).then(ib.cmp(ia)))?;
        if self.fifos[ch].is_empty() {
            return None;
        }
        self.current = Some(ch);
        let rec = self.fifos[ch].pop_front().expect("non-empty");
        self.drained += 1;
        Some((ch, rec))
    }

    /// Put a record back at the head of its channel FIFO (a drain
    /// attempt failed because the disk cache filled concurrently).
    pub fn requeue_front(&mut self, channel: usize, rec: SwapRecord) {
        self.fifos[channel].push_front(rec);
        self.drained -= 1;
    }

    /// Drop every record queued for `channel` — the channel failed, so
    /// its pages no longer exist on the ring and must reach the disk
    /// some other way. Returns the abandoned records in FIFO order so
    /// the caller can re-issue their swap-outs.
    pub fn fail_channel(&mut self, channel: usize) -> Vec<SwapRecord> {
        if self.current == Some(channel) {
            self.current = None;
        }
        let lost: Vec<SwapRecord> = self.fifos[channel].drain(..).collect();
        self.cancelled += lost.len() as u64;
        lost
    }

    /// Peek the channel that `next_to_drain` would use, without
    /// popping.
    pub fn peek_drain_channel(&self) -> Option<usize> {
        if let Some(ch) = self.current {
            if !self.fifos[ch].is_empty() {
                return Some(ch);
            }
        }
        let (ch, f) = self
            .fifos
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.len().cmp(&b.len()).then(ib.cmp(ia)))?;
        if f.is_empty() {
            None
        } else {
            Some(ch)
        }
    }

    /// Total records waiting across all FIFOs.
    pub fn pending(&self) -> usize {
        self.fifos.iter().map(|f| f.len()).sum()
    }

    /// Records waiting on `channel`.
    pub fn pending_on(&self, channel: usize) -> usize {
        self.fifos[channel].len()
    }

    /// Total swap-outs ever enqueued.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Total records drained to the disk cache.
    pub fn drained(&self) -> u64 {
        self.drained
    }

    /// Total records cancelled by victim reads.
    pub fn cancelled(&self) -> u64 {
        self.cancelled
    }

    /// Checkpoint every channel FIFO (in drain order), the drain
    /// pointer and the counters, onto an interface tracking the same
    /// number of channels.
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.each(&mut self.fifos, "interface FIFOs", |c, fifo| {
            c.list(fifo, usize::MAX, 2, "swap records", |c, rec| {
                c.u32(&mut rec.origin)?;
                c.u64(&mut rec.page)
            })
        })?;
        c.opt(&mut self.current, 0, Ckpt::usize)?;
        if let Some(ch) = self.current.filter(|&ch| ch >= self.fifos.len()) {
            return Err(c.invalid(format!("drain pointer {ch} out of range")));
        }
        for v in [&mut self.enqueued, &mut self.drained, &mut self.cancelled] {
            c.u64(v)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drains_in_swap_order() {
        let mut i = NwcInterface::new(8);
        i.enqueue(2, 2, 10);
        i.enqueue(2, 2, 11);
        i.enqueue(2, 2, 12);
        assert_eq!(i.next_to_drain(), Some((2, SwapRecord { origin: 2, page: 10 })));
        assert_eq!(i.next_to_drain(), Some((2, SwapRecord { origin: 2, page: 11 })));
        assert_eq!(i.next_to_drain(), Some((2, SwapRecord { origin: 2, page: 12 })));
        assert_eq!(i.next_to_drain(), None);
    }

    #[test]
    fn picks_most_loaded_channel_first() {
        let mut i = NwcInterface::new(4);
        i.enqueue(0, 0, 1);
        i.enqueue(3, 3, 7);
        i.enqueue(3, 3, 8);
        assert_eq!(i.peek_drain_channel(), Some(3));
        let (ch, _) = i.next_to_drain().unwrap();
        assert_eq!(ch, 3);
    }

    #[test]
    fn exhausts_current_channel_before_switching() {
        let mut i = NwcInterface::new(4);
        i.enqueue(1, 1, 100);
        i.enqueue(1, 1, 101);
        // Start draining channel 1.
        assert_eq!(i.next_to_drain().unwrap().0, 1);
        // Channel 2 becomes more loaded, but channel 1 is not empty.
        i.enqueue(2, 2, 200);
        i.enqueue(2, 2, 201);
        i.enqueue(2, 2, 202);
        assert_eq!(i.next_to_drain().unwrap().0, 1, "must exhaust current");
        assert_eq!(i.next_to_drain().unwrap().0, 2, "then switch");
    }

    #[test]
    fn cancel_removes_mid_queue() {
        let mut i = NwcInterface::new(2);
        i.enqueue(0, 0, 1);
        i.enqueue(0, 0, 2);
        i.enqueue(0, 0, 3);
        assert_eq!(i.cancel(0, 2), Some(SwapRecord { origin: 0, page: 2 }));
        assert_eq!(i.cancel(0, 2), None);
        assert_eq!(i.next_to_drain().unwrap().1.page, 1);
        assert_eq!(i.next_to_drain().unwrap().1.page, 3);
        assert_eq!(i.cancelled(), 1);
    }

    #[test]
    fn pending_counts() {
        let mut i = NwcInterface::new(3);
        assert_eq!(i.pending(), 0);
        i.enqueue(0, 0, 1);
        i.enqueue(2, 2, 9);
        assert_eq!(i.pending(), 2);
        assert_eq!(i.pending_on(0), 1);
        assert_eq!(i.pending_on(1), 0);
        i.next_to_drain();
        assert_eq!(i.pending(), 1);
        assert_eq!(i.enqueued(), 2);
        assert_eq!(i.drained(), 1);
    }

    #[test]
    fn fail_channel_abandons_records_in_order() {
        let mut i = NwcInterface::new(4);
        i.enqueue(1, 1, 10);
        i.enqueue(1, 1, 11);
        i.enqueue(2, 2, 20);
        // Start draining channel 1 so `current` points at it.
        assert_eq!(i.next_to_drain().unwrap().0, 1);
        let lost = i.fail_channel(1);
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].page, 11);
        assert_eq!(i.pending_on(1), 0);
        // The drain pointer moved off the failed channel.
        assert_eq!(i.next_to_drain().unwrap().0, 2);
    }

    #[test]
    fn tie_breaks_deterministically() {
        let mut i = NwcInterface::new(4);
        i.enqueue(1, 1, 10);
        i.enqueue(2, 2, 20);
        // Equal load: lowest channel id wins.
        assert_eq!(i.peek_drain_channel(), Some(1));
    }
}
