//! Per-node memory bus model.
//!
//! Every node's local memory ("LM" in Figure 1) sits behind a shared
//! memory bus (Table 1: 800 MB/s). All of the node's traffic crosses
//! it: local cache fills, incoming/outgoing network transfers, page
//! transfers to and from the I/O bus. The NWCache's contention benefit
//! partly comes from removing swap-out and ring-hit page traffic from
//! these buses.

use nw_sim::ckpt::{Ckpt, CkptError};
use nw_sim::{Bandwidth, Grant, Resource, Time};

/// A node memory bus: a FIFO resource plus a fixed per-transaction
/// overhead and a bandwidth for payload serialization.
#[derive(Debug)]
pub struct MemoryBus {
    bw: Bandwidth,
    overhead: Time,
    res: Resource,
    bytes: u64,
}

impl MemoryBus {
    /// A bus with payload bandwidth `bw` and `overhead` cycles of
    /// arbitration/setup per transaction.
    pub fn new(bw: Bandwidth, overhead: Time) -> Self {
        MemoryBus {
            bw,
            overhead,
            res: Resource::new(),
            bytes: 0,
        }
    }

    /// The paper's 800 MB/s memory bus with a small arbitration cost.
    pub fn paper_memory_bus() -> Self {
        MemoryBus::new(Bandwidth::from_mbytes_per_sec(800), 8)
    }

    /// The paper's 300 MB/s I/O bus.
    pub fn paper_io_bus() -> Self {
        MemoryBus::new(Bandwidth::from_mbytes_per_sec(300), 8)
    }

    /// Occupy the bus for a `bytes`-byte transfer starting no earlier
    /// than `now`; returns the granted interval.
    #[inline]
    pub fn transfer(&mut self, now: Time, bytes: u64) -> Grant {
        self.bytes += bytes;
        let dur = self.overhead + self.bw.transfer_cycles(bytes);
        self.res.acquire(now, dur)
    }

    /// Cycles a transfer of `bytes` would occupy (no contention).
    pub fn occupancy(&self, bytes: u64) -> Time {
        self.overhead + self.bw.transfer_cycles(bytes)
    }

    /// Total payload bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes
    }

    /// Underlying resource (for utilization reports).
    pub fn resource(&self) -> &Resource {
        &self.res
    }

    /// Checkpoint the dynamic state (bandwidth/overhead are config).
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        self.res.ckpt(c)?;
        c.u64(&mut self.bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_timing() {
        let mut bus = MemoryBus::paper_memory_bus();
        // 4KB at 4 B/cycle = 1024 cycles + 8 overhead.
        let g = bus.transfer(0, 4096);
        assert_eq!(g.start, 0);
        assert_eq!(g.end, 1032);
        assert_eq!(bus.occupancy(4096), 1032);
    }

    #[test]
    fn io_bus_slower() {
        let mut bus = MemoryBus::paper_io_bus();
        let g = bus.transfer(0, 4096);
        assert_eq!(g.end, 2731 + 8);
    }

    #[test]
    fn contention_queues() {
        let mut bus = MemoryBus::paper_memory_bus();
        let g1 = bus.transfer(0, 4096);
        let g2 = bus.transfer(10, 64);
        assert_eq!(g2.start, g1.end);
        assert_eq!(bus.bytes_moved(), 4160);
        assert!(bus.resource().wait_cycles() > 0);
    }

    #[test]
    fn line_transfer_is_cheap() {
        let bus = MemoryBus::paper_memory_bus();
        assert_eq!(bus.occupancy(64), 8 + 16);
    }
}
