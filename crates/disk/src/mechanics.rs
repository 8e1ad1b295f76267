//! Mechanical disk timing model.
//!
//! Table 1 parameters: minimum seek 2 ms, maximum seek 22 ms,
//! rotational latency 4 ms, media transfer 20 MB/s. Seek time scales
//! with the fraction of the disk span crossed; an access to the block
//! immediately following the previous one (sequential access) pays
//! neither seek nor rotation — which is exactly what makes combined
//! writes profitable.

use crate::Block;
use nw_sim::ckpt::{Ckpt, CkptError};
use nw_sim::time::msecs;
use nw_sim::{Bandwidth, Time};

/// Mechanical model of one disk.
#[derive(Debug, Clone)]
pub struct Mechanics {
    min_seek: Time,
    max_seek: Time,
    rotation: Time,
    bw: Bandwidth,
    page_bytes: u64,
    /// Span (in blocks) used to scale seek distance.
    span_blocks: u64,
    /// Head position: the block following the last access.
    head: Block,
    ops: u64,
    sequential_ops: u64,
    busy_accumulated: Time,
}

impl Mechanics {
    /// A disk with the given timing parameters.
    pub fn new(
        min_seek: Time,
        max_seek: Time,
        rotation: Time,
        bw: Bandwidth,
        page_bytes: u64,
        span_blocks: u64,
    ) -> Self {
        assert!(max_seek >= min_seek);
        assert!(span_blocks > 0);
        Mechanics {
            min_seek,
            max_seek,
            rotation,
            bw,
            page_bytes,
            span_blocks,
            head: 0,
            ops: 0,
            sequential_ops: 0,
            busy_accumulated: 0,
        }
    }

    /// The paper's disk: 2–22 ms seek, 4 ms rotation, 20 MB/s, 4 KB
    /// pages, 8192-block span.
    pub fn paper_default() -> Self {
        Mechanics::new(
            msecs(2),
            msecs(22),
            msecs(4),
            Bandwidth::from_mbytes_per_sec(20),
            4096,
            8192,
        )
    }

    /// Pure transfer time for `npages` pages.
    pub fn transfer_time(&self, npages: u64) -> Time {
        self.bw.transfer_cycles(self.page_bytes * npages)
    }

    /// Seek time to move the head from its current position to `to`.
    pub fn seek_time(&self, to: Block) -> Time {
        let dist = self.head.abs_diff(to);
        if dist == 0 {
            return 0;
        }
        let dist = dist.min(self.span_blocks);
        self.min_seek + (self.max_seek - self.min_seek) * dist / self.span_blocks
    }

    /// Perform an access of `npages` consecutive pages starting at
    /// block `start`, moving the head. Returns the total mechanical
    /// time (seek + rotation + transfer); a perfectly sequential access
    /// (head already at `start`) skips seek *and* rotation.
    pub fn access(&mut self, start: Block, npages: u64) -> Time {
        assert!(npages > 0);
        self.ops += 1;
        let positioning = if self.head == start {
            self.sequential_ops += 1;
            0
        } else {
            self.seek_time(start) + self.rotation
        };
        self.head = start + npages;
        let t = positioning + self.transfer_time(npages);
        self.busy_accumulated += t;
        t
    }

    /// The current head position (block after the last access).
    pub fn head(&self) -> Block {
        self.head
    }

    /// Total access operations.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Accesses that were perfectly sequential (no positioning cost).
    pub fn sequential_ops(&self) -> u64 {
        self.sequential_ops
    }

    /// Sum of all mechanical service times.
    pub fn busy_accumulated(&self) -> Time {
        self.busy_accumulated
    }

    /// Checkpoint the dynamic state (timing parameters are config).
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        for v in [&mut self.head, &mut self.ops, &mut self.sequential_ops, &mut self.busy_accumulated] {
            c.u64(v)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_page_transfer_time() {
        let m = Mechanics::paper_default();
        // 4 KB at 20 MB/s = 40_960 cycles (204.8 us).
        assert_eq!(m.transfer_time(1), 40_960);
        assert_eq!(m.transfer_time(4), 163_840);
    }

    #[test]
    fn seek_scales_with_distance() {
        let m = Mechanics::paper_default();
        assert_eq!(m.seek_time(0), 0);
        let near = m.seek_time(1);
        let far = m.seek_time(8192);
        assert!(near >= msecs(2));
        assert!(near < far);
        assert_eq!(far, msecs(22));
        // Beyond span clamps to max.
        assert_eq!(m.seek_time(100_000), msecs(22));
    }

    #[test]
    fn random_access_pays_seek_and_rotation() {
        let mut m = Mechanics::paper_default();
        let t = m.access(1000, 1);
        assert!(t > msecs(2) + msecs(4) + 40_000);
        assert_eq!(m.head(), 1001);
        assert_eq!(m.sequential_ops(), 0);
    }

    #[test]
    fn sequential_access_is_transfer_only() {
        let mut m = Mechanics::paper_default();
        m.access(100, 2); // head now 102
        let t = m.access(102, 1);
        assert_eq!(t, 40_960);
        assert_eq!(m.sequential_ops(), 1);
    }

    #[test]
    fn combined_write_cheaper_than_separate() {
        // Writing 4 consecutive pages in one op vs 4 ops from random
        // positions: the single op amortizes positioning.
        let mut combined = Mechanics::paper_default();
        let t_combined = combined.access(500, 4);

        let mut separate = Mechanics::paper_default();
        let mut t_separate = 0;
        for (i, blk) in [500u64, 2000, 501, 3000].iter().enumerate() {
            let _ = i;
            t_separate += separate.access(*blk, 1);
        }
        assert!(t_combined < t_separate / 2);
    }

    #[test]
    fn busy_accumulates() {
        let mut m = Mechanics::paper_default();
        let a = m.access(10, 1);
        let b = m.access(11, 1);
        assert_eq!(m.busy_accumulated(), a + b);
        assert_eq!(m.ops(), 2);
    }
}
