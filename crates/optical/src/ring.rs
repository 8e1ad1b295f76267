//! The WDM optical ring as a delay-line page store: ring geometry,
//! one channel's slot store, and the timing model that
//! [`crate::RingFabric`] applies to every channel.
//!
//! Timing model. A page whose insertion completes at time `t0` (one
//! page transfer at the channel rate after the insert) circulates
//! forever, passing any reader at `t0 + k * R` for
//! `k = 1, 2, ...`, where `R` is the ring round-trip latency. A snoop
//! issued at time `now` therefore completes at the first pass not
//! earlier than `now`, plus the page transfer time off the channel.
//! Removing a page (after the disk-cache ACK or a victim re-map) frees
//! its slot immediately — the interface simply stops regenerating those
//! bits.

use crate::Page;
use nw_sim::ckpt::{Ckpt, CkptError};
use nw_sim::{Bandwidth, Time};

/// Ring geometry and timing.
#[derive(Debug, Clone, Copy)]
pub struct RingConfig {
    /// Number of WDM cache channels (one per node; paper: 8).
    pub channels: usize,
    /// Page slots stored per channel (paper: 64 KB / 4 KB = 16).
    pub slots_per_channel: usize,
    /// Round-trip latency of the fiber loop (paper: 52 µs = 10400 pc).
    pub round_trip: Time,
    /// Per-channel transmission rate (paper: 1.25 GB/s).
    pub rate: Bandwidth,
    /// Page size in bytes.
    pub page_bytes: u64,
}

impl RingConfig {
    /// The paper's Table 1 ring.
    pub fn paper_default() -> Self {
        RingConfig {
            channels: 8,
            slots_per_channel: 16,
            round_trip: nw_sim::time::usecs(52),
            rate: Bandwidth::from_gbytes_per_sec_milli(1250),
            page_bytes: 4096,
        }
    }

    /// Delay-line storage capacity in bytes, from the §3.2 equation:
    /// `capacity = channels * round_trip * rate` (round-trip already
    /// folds fiber length over the speed of light).
    pub fn capacity_bytes_physical(&self) -> u64 {
        // round_trip [pcycles] * 5ns/pc * rate [B/s]
        // = round_trip * rate.transfer bytes; compute via bytes/cycle.
        let per_channel = (self.round_trip as f64 * self.rate.bytes_per_cycle()) as u64;
        self.channels as u64 * per_channel
    }

    /// Usable capacity in bytes given the configured slot count.
    pub fn capacity_bytes_slots(&self) -> u64 {
        (self.channels * self.slots_per_channel) as u64 * self.page_bytes
    }
}

/// Errors from ring operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RingError {
    /// The channel's delay-line storage is fully occupied.
    ChannelFull,
    /// The page is already stored on the channel.
    Duplicate,
    /// The channel has failed and no longer stores or accepts pages.
    ChannelDead,
}

#[derive(Debug, Default)]
pub(crate) struct ChannelStats {
    pub(crate) inserts: u64,
    pub(crate) removals: u64,
    pub(crate) snoops: u64,
    pub(crate) peak_occupancy: usize,
}

/// The pages circulating on one channel: a fixed-capacity slot set
/// (PR 3 hot-path layout; see DESIGN.md §11).
///
/// A channel stores at most `slots_per_channel` pages (paper: 16), so
/// membership tests and removals are a linear scan over one cache
/// line or two of `(page, t0)` pairs — faster than any tree or hash
/// walk at this size, and allocation-free after construction.
/// Slot order is insertion order and is NOT observable: the only
/// whole-set iteration, [`crate::RingFabric::fail_channel`], sorts its
/// output to keep the old `BTreeMap` ascending-page order.
#[derive(Debug)]
pub(crate) struct SlotSet {
    slots: Vec<(Page, Time)>,
}

impl SlotSet {
    pub(crate) fn with_capacity(cap: usize) -> Self {
        SlotSet {
            slots: Vec::with_capacity(cap),
        }
    }

    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.slots.len()
    }

    /// Insertion-completion time of `page`, if stored.
    #[inline]
    pub(crate) fn get(&self, page: Page) -> Option<Time> {
        self.slots
            .iter()
            .find(|&&(p, _)| p == page)
            .map(|&(_, t0)| t0)
    }

    #[inline]
    pub(crate) fn contains(&self, page: Page) -> bool {
        self.slots.iter().any(|&(p, _)| p == page)
    }

    /// Add `page`; the caller has already rejected duplicates and
    /// checked capacity.
    #[inline]
    pub(crate) fn insert(&mut self, page: Page, t0: Time) {
        debug_assert!(!self.contains(page));
        self.slots.push((page, t0));
    }

    /// Drop `page`, returning whether it was stored.
    #[inline]
    pub(crate) fn remove(&mut self, page: Page) -> bool {
        match self.slots.iter().position(|&(p, _)| p == page) {
            Some(i) => {
                self.slots.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Remove every page, returning them in ascending page order.
    pub(crate) fn drain_sorted(&mut self) -> Vec<Page> {
        let mut pages: Vec<Page> = self.slots.drain(..).map(|(p, _)| p).collect();
        pages.sort_unstable();
        pages
    }
}

/// One cache channel: the unit a node writes, a failure kills and a
/// checkpoint saves.
#[derive(Debug)]
pub(crate) struct Channel {
    /// Stored pages -> time their insertion completed.
    pub(crate) pages: SlotSet,
    /// A failed channel drops its circulating pages and rejects
    /// further traffic until the end of the run.
    pub(crate) dead: bool,
    pub(crate) stats: ChannelStats,
}

impl Channel {
    pub(crate) fn new(slots: usize) -> Self {
        Channel {
            pages: SlotSet::with_capacity(slots),
            dead: false,
            stats: ChannelStats::default(),
        }
    }

    /// Checkpoint the channel: the retired transmitter slot, stored
    /// pages in slot order, dead flag and statistics. `cap` is the
    /// slot capacity.
    pub(crate) fn ckpt(&mut self, c: &mut Ckpt, cap: usize) -> Result<(), CkptError> {
        retired_transmitter(c)?;
        c.list(&mut self.pages.slots, cap, 2, "pages on a channel", |c, (page, t0)| {
            c.u64(page)?;
            c.u64(t0)
        })?;
        c.bool(&mut self.dead)?;
        c.u64(&mut self.stats.inserts)?;
        c.u64(&mut self.stats.removals)?;
        c.u64(&mut self.stats.snoops)?;
        c.usize(&mut self.stats.peak_occupancy)
    }
}

/// Where a transmitter's four counters (next free time, busy, wait,
/// grants) were checkpointed before the fabric stopped modelling
/// transmitters: written as zeros, read and discarded on restore.
pub(crate) fn retired_transmitter(c: &mut Ckpt) -> Result<(), CkptError> {
    (0..4).try_for_each(|_| c.u64(&mut 0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RingFabric;

    fn ring() -> RingFabric {
        RingFabric::new(RingConfig::paper_default(), 1)
    }

    #[test]
    fn capacity_matches_paper() {
        let cfg = RingConfig::paper_default();
        // Physical: 8 channels * 52us * 1.25GB/s = 520_000 B (~512 KB).
        assert_eq!(cfg.capacity_bytes_physical(), 520_000);
        // Slot-configured: 8 * 16 * 4KB = 512 KB exactly.
        assert_eq!(cfg.capacity_bytes_slots(), 524_288);
    }

    #[test]
    fn insert_and_contains() {
        let mut r = ring();
        let on_ring = r.insert(100, 0, 42).unwrap();
        // 4KB at 6.25 B/cycle = 656 cycles.
        assert_eq!(on_ring, 100 + 656);
        assert!(r.contains(0, 42));
        assert!(!r.contains(1, 42));
        assert_eq!(r.find(42), Some(0));
        assert_eq!(r.occupancy(0), 1);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut r = ring();
        r.insert(0, 0, 1).unwrap();
        assert_eq!(r.insert(10, 0, 1), Err(RingError::Duplicate));
    }

    #[test]
    fn channel_fills_at_slot_capacity() {
        let mut r = ring();
        for p in 0..16u64 {
            r.insert(0, 3, p).unwrap();
        }
        assert!(!r.has_room(3));
        assert_eq!(r.insert(0, 3, 99), Err(RingError::ChannelFull));
        // Other channels unaffected.
        assert!(r.has_room(2));
        assert_eq!(r.total_occupancy(), 16);
    }

    #[test]
    fn remove_frees_slot() {
        let mut r = ring();
        for p in 0..16u64 {
            r.insert(0, 0, p).unwrap();
        }
        assert!(r.remove(0, 5));
        assert!(!r.remove(0, 5));
        assert!(r.has_room(0));
        r.insert(1000, 0, 99).unwrap();
        assert_eq!(r.peak_occupancy(0), 16);
    }

    #[test]
    fn snoop_waits_for_circulation() {
        let mut r = ring();
        let t0 = r.insert(0, 0, 7).unwrap(); // on ring at 656
        // Snoop issued immediately: page passes reader at t0 + 10400.
        let ready = r.snoop_ready(100, 0, 7).unwrap();
        assert_eq!(ready, t0 + 10_400 + 656);
        // Much later snoop: wait less than one full round trip.
        let now = t0 + 3 * 10_400 + 5_000;
        let ready2 = r.snoop_ready(now, 0, 7).unwrap();
        assert!(ready2 >= now);
        assert!(ready2 - now <= 10_400 + 656);
        // Pass times are aligned on t0 + k*R.
        assert_eq!((ready2 - 656 - t0) % 10_400, 0);
    }

    #[test]
    fn snoop_missing_page_is_none() {
        let mut r = ring();
        assert_eq!(r.snoop_ready(0, 0, 9), None);
    }

    #[test]
    fn failed_channel_destroys_pages_and_rejects_traffic() {
        let mut r = ring();
        r.insert(0, 1, 10).unwrap();
        r.insert(0, 1, 11).unwrap();
        r.insert(0, 2, 20).unwrap();
        let mut lost = r.fail_channel(1);
        lost.sort_unstable();
        assert_eq!(lost, vec![10, 11]);
        assert!(r.is_dead(1));
        assert!(!r.has_room(1));
        assert_eq!(r.occupancy(1), 0);
        assert_eq!(r.insert(50, 1, 12), Err(RingError::ChannelDead));
        assert_eq!(r.snoop_ready(50, 1, 10), None);
        assert_eq!(r.live_channels(), 7);
        // Other channels keep working.
        assert!(r.contains(2, 20));
        r.insert(60, 2, 21).unwrap();
    }

    #[test]
    fn stats_track_operations() {
        let mut r = ring();
        r.insert(0, 2, 1).unwrap();
        r.snoop_ready(10, 2, 1);
        r.remove(2, 1);
        assert_eq!(r.inserts(2), 1);
        assert_eq!(r.snoops(2), 1);
        assert_eq!(r.removals(2), 1);
    }
}
