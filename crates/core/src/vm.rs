//! Virtual-memory bookkeeping: the machine-wide page table, the TLB
//! holder sets, per-node frame pools, and barrier state.

use nw_memhier::Tlb;
use nw_sim::ckpt::{Ckpt, CkptError};
use nw_sim::Time;

/// A virtual page number.
pub type Vpn = u64;

/// A processor / node id (one processor per node).
pub type ProcId = u32;

/// Where a page currently lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageState {
    /// Only the disk (or its controller cache) holds the page.
    OnDisk,
    /// Resident in `node`'s memory.
    InMemory {
        /// Home node of the frame.
        node: u32,
    },
    /// Being fetched into `node`'s memory; `waiters` are processors
    /// blocked on the arrival (their wait is `Transit` time).
    InTransit {
        /// Destination node.
        node: u32,
        /// Blocked processors (the faulting one first).
        waiters: Vec<ProcId>,
    },
    /// Being swapped out of memory; faults must wait for completion
    /// and then re-fault.
    SwappingOut {
        /// Node performing the swap-out.
        from: u32,
        /// Processors waiting to re-fault.
        waiters: Vec<ProcId>,
    },
    /// Stored on the optical ring (`Ring` bit set), on the cache
    /// channel of the node that swapped it out.
    OnRing {
        /// Cache channel (= swapping node) holding the page.
        channel: u32,
    },
}

/// One entry of the machine-wide page table.
#[derive(Debug, Clone)]
pub struct PageEntry {
    /// Current location/state.
    pub state: PageState,
    /// Set when the resident copy has been modified.
    pub dirty: bool,
    /// Last access time (drives per-node LRU replacement).
    pub last_access: Time,
    /// When the page became resident (drives FIFO/Clock replacement).
    pub arrived_at: Time,
    /// Referenced bit for Clock (second-chance) replacement.
    pub referenced: bool,
    /// The node of the last virtual-to-physical translation — used to
    /// locate the cache channel of a page with the Ring bit set.
    pub last_node: u32,
}

impl PageEntry {
    /// A fresh entry: page on disk, clean, never accessed.
    pub fn new() -> Self {
        PageEntry {
            state: PageState::OnDisk,
            dirty: false,
            last_access: 0,
            arrived_at: 0,
            referenced: false,
            last_node: 0,
        }
    }
}

impl Default for PageEntry {
    fn default() -> Self {
        Self::new()
    }
}

/// Per page, the set of nodes whose TLB caches its translation: one
/// bit per node, `words` 64-bit words per page. It is derived from the
/// TLBs, so a shootdown visits only the TLBs that hold the page
/// instead of probing every node's (DESIGN.md §11). Never
/// checkpointed: a restore rebuilds it from the restored TLBs.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct TlbHolders {
    words: usize,
    bits: Vec<u64>,
}

impl TlbHolders {
    /// The holder sets of `pages` pages, built from each node's TLB
    /// in node order. Every cached VPN must be below `pages`.
    pub(crate) fn of<'a>(pages: u64, tlbs: impl ExactSizeIterator<Item = &'a Tlb>) -> Self {
        let words = tlbs.len().div_ceil(64);
        let mut h = TlbHolders {
            words,
            bits: vec![0; pages as usize * words],
        };
        for (node, tlb) in tlbs.enumerate() {
            tlb.vpns().for_each(|vpn| h.insert(vpn, node));
        }
        h
    }

    #[inline]
    fn at(&self, vpn: Vpn, node: usize) -> (usize, u64) {
        (vpn as usize * self.words + node / 64, 1 << (node % 64))
    }

    /// `node`'s TLB now caches `vpn`.
    #[inline]
    pub(crate) fn insert(&mut self, vpn: Vpn, node: usize) {
        let (i, bit) = self.at(vpn, node);
        self.bits[i] |= bit;
    }

    /// `node`'s TLB no longer caches `vpn`.
    #[inline]
    pub(crate) fn remove(&mut self, vpn: Vpn, node: usize) {
        let (i, bit) = self.at(vpn, node);
        self.bits[i] &= !bit;
    }

    /// Empty `vpn`'s set, handing each node that was in it to `f` in
    /// ascending order.
    pub(crate) fn drain(&mut self, vpn: Vpn, mut f: impl FnMut(usize)) {
        let base = vpn as usize * self.words;
        for (w, word) in self.bits[base..base + self.words].iter_mut().enumerate() {
            let mut m = std::mem::take(word);
            while m != 0 {
                f(w * 64 + m.trailing_zeros() as usize);
                m &= m - 1;
            }
        }
    }
}

/// Per-node physical frame accounting.
#[derive(Debug)]
pub struct FramePool {
    total: u32,
    free: u32,
    /// Evictions started but not yet freeing a frame (dirty pages
    /// whose swap-out has not been acknowledged).
    pending_evictions: u32,
    /// Pages resident in this node's memory.
    resident: Vec<Vpn>,
    /// Processors stalled for lack of a free frame (NoFree time).
    pub waiters: Vec<ProcId>,
}

impl FramePool {
    /// A pool of `total` frames, all free.
    pub fn new(total: u32) -> Self {
        FramePool {
            total,
            free: total,
            pending_evictions: 0,
            resident: Vec::with_capacity(total as usize),
            waiters: Vec::new(),
        }
    }

    /// Free frames right now.
    pub fn free(&self) -> u32 {
        self.free
    }

    /// Total frames.
    pub fn total(&self) -> u32 {
        self.total
    }

    /// Evictions in flight.
    pub fn pending_evictions(&self) -> u32 {
        self.pending_evictions
    }

    /// Take one free frame; `false` if none available.
    pub fn take(&mut self) -> bool {
        if self.free == 0 {
            return false;
        }
        self.free -= 1;
        true
    }

    /// Return a frame to the pool (eviction completed or page freed).
    pub fn release(&mut self) {
        assert!(
            self.free < self.total,
            "released more frames than exist"
        );
        self.free += 1;
    }

    /// Record the start of a dirty-page eviction.
    pub fn eviction_started(&mut self) {
        self.pending_evictions += 1;
    }

    /// Record the completion of a dirty-page eviction.
    pub fn eviction_finished(&mut self) {
        assert!(self.pending_evictions > 0);
        self.pending_evictions -= 1;
    }

    /// Note that `vpn` is now resident here.
    pub fn add_resident(&mut self, vpn: Vpn) {
        debug_assert!(!self.resident.contains(&vpn));
        self.resident.push(vpn);
    }

    /// Remove `vpn` from the resident set.
    pub fn remove_resident(&mut self, vpn: Vpn) {
        if let Some(i) = self.resident.iter().position(|&v| v == vpn) {
            self.resident.swap_remove(i);
        }
    }

    /// Iterate over resident pages.
    pub fn resident(&self) -> &[Vpn] {
        &self.resident
    }

    /// Checkpoint the pool, onto one of the same size. The resident
    /// list is saved in stored order — its order is observable through
    /// replacement victim scans.
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        let mut total = self.total;
        c.u32(&mut total)?;
        if total != self.total {
            return Err(c.invalid(format!("frame pool has {total} frames, expected {}", self.total)));
        }
        c.u32(&mut self.free)?;
        c.u32(&mut self.pending_evictions)?;
        c.list(&mut self.resident, total as usize, 1, "resident pages", Ckpt::u64)?;
        c.list(&mut self.waiters, usize::MAX, 1, "frame waiters", Ckpt::u32)
    }
}

/// Centralized barrier bookkeeping.
#[derive(Debug)]
pub struct BarrierState {
    nprocs: usize,
    current_id: u32,
    /// `(proc, local arrival time)` of processors already waiting.
    arrived: Vec<(ProcId, Time)>,
}

impl BarrierState {
    /// Barrier synchronizing `nprocs` processors.
    pub fn new(nprocs: usize) -> Self {
        BarrierState {
            nprocs,
            current_id: 0,
            arrived: Vec::with_capacity(nprocs),
        }
    }

    /// Processor `p` arrives at barrier `id` at local time `t`.
    /// Returns `Some(waiters)` (including `p`) when this arrival
    /// releases the barrier, `None` if `p` must block.
    ///
    /// # Panics
    /// Panics if `id` differs from the current barrier id — the
    /// workload generators guarantee every processor emits the same
    /// barrier sequence.
    pub fn arrive(&mut self, p: ProcId, id: u32, t: Time) -> Option<Vec<(ProcId, Time)>> {
        assert_eq!(
            id, self.current_id,
            "proc {p} arrived at barrier {id}, expected {}",
            self.current_id
        );
        debug_assert!(!self.arrived.iter().any(|&(q, _)| q == p));
        self.arrived.push((p, t));
        if self.arrived.len() == self.nprocs {
            self.current_id += 1;
            Some(std::mem::take(&mut self.arrived))
        } else {
            None
        }
    }

    /// Number of processors currently waiting.
    pub fn waiting(&self) -> usize {
        self.arrived.len()
    }

    /// The barrier id being gathered.
    pub fn current(&self) -> u32 {
        self.current_id
    }

    /// Checkpoint the barrier (arrivals in arrival order). A restored
    /// barrier holds fewer arrivals than processors: the last arrival
    /// releases it.
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        let mut nprocs = self.nprocs;
        c.usize(&mut nprocs)?;
        if nprocs != self.nprocs {
            return Err(c.invalid(format!("barrier spans {nprocs} procs, expected {}", self.nprocs)));
        }
        c.u32(&mut self.current_id)?;
        c.list(&mut self.arrived, nprocs.max(1) - 1, 2, "barrier arrivals", |c, (p, t)| {
            c.u32(p)?;
            c.u64(t)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_pool_take_release() {
        let mut fp = FramePool::new(2);
        assert!(fp.take());
        assert!(fp.take());
        assert!(!fp.take());
        fp.release();
        assert_eq!(fp.free(), 1);
        assert!(fp.take());
    }

    #[test]
    #[should_panic(expected = "released more frames")]
    fn frame_pool_overflow_release_panics() {
        let mut fp = FramePool::new(1);
        fp.release();
    }

    #[test]
    fn resident_tracking() {
        let mut fp = FramePool::new(4);
        fp.add_resident(10);
        fp.add_resident(20);
        assert_eq!(fp.resident().len(), 2);
        fp.remove_resident(10);
        assert_eq!(fp.resident(), &[20]);
        fp.remove_resident(99); // no-op
        assert_eq!(fp.resident().len(), 1);
    }

    #[test]
    fn eviction_counters() {
        let mut fp = FramePool::new(4);
        fp.eviction_started();
        fp.eviction_started();
        assert_eq!(fp.pending_evictions(), 2);
        fp.eviction_finished();
        assert_eq!(fp.pending_evictions(), 1);
    }

    #[test]
    fn barrier_releases_on_last_arrival() {
        let mut b = BarrierState::new(3);
        assert!(b.arrive(0, 0, 100).is_none());
        assert!(b.arrive(2, 0, 200).is_none());
        assert_eq!(b.waiting(), 2);
        let released = b.arrive(1, 0, 150).unwrap();
        assert_eq!(released.len(), 3);
        assert_eq!(b.current(), 1);
        assert_eq!(b.waiting(), 0);
    }

    #[test]
    #[should_panic(expected = "expected 0")]
    fn barrier_rejects_wrong_id() {
        let mut b = BarrierState::new(2);
        b.arrive(0, 1, 0);
    }

    #[test]
    fn page_entry_defaults() {
        let e = PageEntry::new();
        assert_eq!(e.state, PageState::OnDisk);
        assert!(!e.dirty);
    }
}
