//! Coalescing write buffer ("WB" in Figure 1).
//!
//! Under release consistency the processor retires stores into a small
//! coalescing write buffer and continues; the buffer drains to the
//! memory system in the background. A store to a line already buffered
//! coalesces for free; a store to a full buffer stalls the processor
//! until the head entry drains (the machine model charges that stall).

use crate::Line;
use nw_sim::ckpt::{Ckpt, CkptError};
use std::collections::VecDeque;

/// Result of inserting a store into the write buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WbOutcome {
    /// The line was already buffered; store merged for free.
    Coalesced,
    /// A new entry was allocated.
    Queued,
    /// The buffer is full: the processor must stall until an entry
    /// drains, then retry.
    Full,
}

/// A FIFO coalescing write buffer of cache-line granularity entries.
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    capacity: usize,
    entries: VecDeque<Line>,
    coalesced: u64,
    queued: u64,
    full_stalls: u64,
}

impl WriteBuffer {
    /// A write buffer with room for `capacity` distinct lines.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "write buffer needs capacity");
        WriteBuffer {
            capacity,
            entries: VecDeque::with_capacity(capacity),
            coalesced: 0,
            queued: 0,
            full_stalls: 0,
        }
    }

    /// Insert a store to `line`.
    pub fn insert(&mut self, line: Line) -> WbOutcome {
        if self.entries.contains(&line) {
            self.coalesced += 1;
            return WbOutcome::Coalesced;
        }
        if self.entries.len() == self.capacity {
            self.full_stalls += 1;
            return WbOutcome::Full;
        }
        self.entries.push_back(line);
        self.queued += 1;
        WbOutcome::Queued
    }

    /// Drain the oldest entry, returning its line.
    pub fn drain_one(&mut self) -> Option<Line> {
        self.entries.pop_front()
    }

    /// Entries currently buffered.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when no new line can be accepted.
    pub fn is_full(&self) -> bool {
        self.entries.len() == self.capacity
    }

    /// Stores merged into existing entries.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// New entries allocated.
    pub fn queued(&self) -> u64 {
        self.queued
    }

    /// Times a store found the buffer full.
    pub fn full_stalls(&self) -> u64 {
        self.full_stalls
    }

    /// Checkpoint the FIFO contents (in drain order) and statistics.
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.list(&mut self.entries, self.capacity, 1, "write-buffer lines", Ckpt::u64)?;
        for v in [&mut self.coalesced, &mut self.queued, &mut self.full_stalls] {
            c.u64(v)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_and_coalesce() {
        let mut wb = WriteBuffer::new(4);
        assert_eq!(wb.insert(1), WbOutcome::Queued);
        assert_eq!(wb.insert(1), WbOutcome::Coalesced);
        assert_eq!(wb.insert(2), WbOutcome::Queued);
        assert_eq!(wb.len(), 2);
        assert_eq!(wb.coalesced(), 1);
        assert_eq!(wb.queued(), 2);
    }

    #[test]
    fn full_buffer_reports_stall() {
        let mut wb = WriteBuffer::new(2);
        wb.insert(1);
        wb.insert(2);
        assert!(wb.is_full());
        assert_eq!(wb.insert(3), WbOutcome::Full);
        assert_eq!(wb.full_stalls(), 1);
        // Coalescing still works when full.
        assert_eq!(wb.insert(2), WbOutcome::Coalesced);
    }

    #[test]
    fn drains_fifo() {
        let mut wb = WriteBuffer::new(4);
        wb.insert(10);
        wb.insert(20);
        wb.insert(30);
        assert_eq!(wb.drain_one(), Some(10));
        assert_eq!(wb.drain_one(), Some(20));
        assert_eq!(wb.drain_one(), Some(30));
        assert_eq!(wb.drain_one(), None);
        assert!(wb.is_empty());
    }

    #[test]
    fn drain_frees_capacity() {
        let mut wb = WriteBuffer::new(1);
        wb.insert(1);
        assert_eq!(wb.insert(2), WbOutcome::Full);
        wb.drain_one();
        assert_eq!(wb.insert(2), WbOutcome::Queued);
    }

    #[test]
    #[should_panic(expected = "needs capacity")]
    fn zero_capacity_rejected() {
        WriteBuffer::new(0);
    }
}
