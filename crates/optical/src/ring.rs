//! The WDM optical ring as a delay-line page store.
//!
//! Timing model. A page inserted on a channel at time `t0` (insertion
//! itself is serialized on the node's fixed transmitter at the channel
//! rate) circulates forever, passing any reader at `t0 + k * R` for
//! `k = 1, 2, ...`, where `R` is the ring round-trip latency. A snoop
//! issued at time `now` therefore completes at the first pass not
//! earlier than `now`, plus the page transfer time off the channel.
//! Removing a page (after the disk-cache ACK or a victim re-map) frees
//! its slot immediately — the interface simply stops regenerating those
//! bits.

use crate::Page;
use nw_sim::ckpt::{Ckpt, CkptError};
use nw_sim::{Bandwidth, Resource, Time};

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
struct ChannelStats {
    inserts: u64,
    removals: u64,
    snoops: u64,
    peak_occupancy: usize,
}

/// The pages circulating on one channel: a fixed-capacity slot set
/// (PR 3 hot-path layout; see DESIGN.md §11).
///
/// A channel stores at most `slots_per_channel` pages (paper: 16), so
/// membership tests and removals are a linear scan over one cache
/// line or two of `(page, t0)` pairs — faster than any tree or hash
/// walk at this size, and allocation-free after construction.
/// Slot order is insertion order and is NOT observable: the only
/// whole-set iteration, [`OpticalRing::fail_channel`], sorts its
/// output to keep the old `BTreeMap` ascending-page order.
#[derive(Debug)]
struct SlotSet {
    slots: Vec<(Page, Time)>,
}

impl SlotSet {
    fn with_capacity(cap: usize) -> Self {
        SlotSet {
            slots: Vec::with_capacity(cap),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.slots.len()
    }

    /// Insertion-completion time of `page`, if stored.
    #[inline]
    fn get(&self, page: Page) -> Option<Time> {
        self.slots
            .iter()
            .find(|&&(p, _)| p == page)
            .map(|&(_, t0)| t0)
    }

    #[inline]
    fn contains(&self, page: Page) -> bool {
        self.slots.iter().any(|&(p, _)| p == page)
    }

    /// Add `page`; the caller has already rejected duplicates and
    /// checked capacity.
    #[inline]
    fn insert(&mut self, page: Page, t0: Time) {
        debug_assert!(!self.contains(page));
        self.slots.push((page, t0));
    }

    /// Drop `page`, returning whether it was stored.
    #[inline]
    fn remove(&mut self, page: Page) -> bool {
        match self.slots.iter().position(|&(p, _)| p == page) {
            Some(i) => {
                self.slots.swap_remove(i);
                true
            }
            None => false,
        }
    }

    /// Remove every page, returning them in ascending page order.
    fn drain_sorted(&mut self) -> Vec<Page> {
        let mut pages: Vec<Page> = self.slots.drain(..).map(|(p, _)| p).collect();
        pages.sort_unstable();
        pages
    }
}

#[derive(Debug)]
struct Channel {
    /// Fixed transmitter: one insertion at a time.
    tx: Resource,
    /// Stored pages -> time their insertion completed.
    pages: SlotSet,
    /// A failed channel drops its circulating pages and rejects
    /// further traffic until the end of the run.
    dead: bool,
    stats: ChannelStats,
}

/// The machine-wide optical ring.
#[derive(Debug)]
pub struct OpticalRing {
    cfg: RingConfig,
    channels: Vec<Channel>,
}

impl OpticalRing {
    /// An empty ring.
    pub fn new(cfg: RingConfig) -> Self {
        assert!(cfg.channels > 0 && cfg.slots_per_channel > 0);
        OpticalRing {
            channels: (0..cfg.channels)
                .map(|_| Channel {
                    tx: Resource::new("ring-tx"),
                    pages: SlotSet::with_capacity(cfg.slots_per_channel),
                    dead: false,
                    stats: ChannelStats::default(),
                })
                .collect(),
            cfg,
        }
    }

    /// The ring configuration.
    pub fn config(&self) -> &RingConfig {
        &self.cfg
    }

    /// Whether channel `ch` can accept another page. A dead channel
    /// never has room.
    pub fn has_room(&self, ch: usize) -> bool {
        let chan = &self.channels[ch];
        !chan.dead && chan.pages.len() < self.cfg.slots_per_channel
    }

    /// Whether channel `ch` has failed.
    pub fn is_dead(&self, ch: usize) -> bool {
        self.channels[ch].dead
    }

    /// Number of channels still operational.
    pub fn live_channels(&self) -> usize {
        self.channels.iter().filter(|c| !c.dead).count()
    }

    /// Fail channel `ch`: every page circulating on it is destroyed
    /// (the regenerator stops, the bits decay within one round trip)
    /// and the channel rejects all further inserts and snoops. Returns
    /// the destroyed pages so the caller can re-issue their swap-outs.
    pub fn fail_channel(&mut self, ch: usize) -> Vec<Page> {
        let chan = &mut self.channels[ch];
        chan.dead = true;
        // Ascending page order, as the old ordered map produced: the
        // caller re-issues a swap-out per lost page and the experiment
        // grids are bit-identical only if that order is stable.
        chan.pages.drain_sorted()
    }

    /// Number of channels (live or dead).
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Pages currently stored on channel `ch`.
    pub fn occupancy(&self, ch: usize) -> usize {
        self.channels[ch].pages.len()
    }

    /// Total pages stored across all channels.
    pub fn total_occupancy(&self) -> usize {
        self.channels.iter().map(|c| c.pages.len()).sum()
    }

    /// Insert `page` on channel `ch` at `now`. Returns the time the
    /// page is fully on the ring (insertion serializes on the channel's
    /// fixed transmitter at the channel rate).
    pub fn insert(&mut self, now: Time, ch: usize, page: Page) -> Result<Time, RingError> {
        if self.channels[ch].dead {
            return Err(RingError::ChannelDead);
        }
        if !self.has_room(ch) {
            return Err(RingError::ChannelFull);
        }
        let chan = &mut self.channels[ch];
        if chan.pages.contains(page) {
            return Err(RingError::Duplicate);
        }
        let dur = self.cfg.rate.transfer_cycles(self.cfg.page_bytes);
        let grant = chan.tx.acquire(now, dur);
        chan.pages.insert(page, grant.end);
        chan.stats.inserts += 1;
        chan.stats.peak_occupancy = chan.stats.peak_occupancy.max(chan.pages.len());
        Ok(grant.end)
    }

    /// Whether `page` is stored on channel `ch`.
    pub fn contains(&self, ch: usize, page: Page) -> bool {
        self.channels[ch].pages.contains(page)
    }

    /// Locate the channel storing `page`, if any (linear scan across
    /// channels; used as a consistency check — the VM layer normally
    /// knows the channel from the page's last translation).
    pub fn find(&self, page: Page) -> Option<usize> {
        self.channels.iter().position(|c| c.pages.contains(page))
    }

    /// When a snoop of `page` on `ch`, issued at `now`, completes: the
    /// first circulation pass at or after `now` plus the off-channel
    /// transfer. `None` if the page is not on the channel.
    pub fn snoop_ready(&mut self, now: Time, ch: usize, page: Page) -> Option<Time> {
        let cfg_rt = self.cfg.round_trip;
        let xfer = self.cfg.rate.transfer_cycles(self.cfg.page_bytes);
        let chan = &mut self.channels[ch];
        let t0 = chan.pages.get(page)?;
        chan.stats.snoops += 1;
        let pass = if now <= t0 {
            t0 + cfg_rt
        } else {
            let k = (now - t0).div_ceil(cfg_rt).max(1);
            t0 + k * cfg_rt
        };
        Some(pass + xfer)
    }

    /// Remove `page` from channel `ch`, freeing its slot. Returns true
    /// if it was present.
    pub fn remove(&mut self, ch: usize, page: Page) -> bool {
        let chan = &mut self.channels[ch];
        let was = chan.pages.remove(page);
        if was {
            chan.stats.removals += 1;
        }
        was
    }

    /// Insertions performed on channel `ch`.
    pub fn inserts(&self, ch: usize) -> u64 {
        self.channels[ch].stats.inserts
    }

    /// Removals performed on channel `ch`.
    pub fn removals(&self, ch: usize) -> u64 {
        self.channels[ch].stats.removals
    }

    /// Snoops performed on channel `ch`.
    pub fn snoops(&self, ch: usize) -> u64 {
        self.channels[ch].stats.snoops
    }

    /// Peak simultaneous occupancy of channel `ch`.
    pub fn peak_occupancy(&self, ch: usize) -> usize {
        self.channels[ch].stats.peak_occupancy
    }

    /// Checkpoint every channel: transmitter, stored pages in slot
    /// order, dead flag and statistics. Geometry is config.
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        let cap = self.cfg.slots_per_channel;
        c.each(&mut self.channels, "ring channels", |c, chan| {
            chan.tx.ckpt(c)?;
            c.list(&mut chan.pages.slots, cap, 2, "pages on a channel", |c, (page, t0)| {
                c.u64(page)?;
                c.u64(t0)
            })?;
            c.bool(&mut chan.dead)?;
            c.u64(&mut chan.stats.inserts)?;
            c.u64(&mut chan.stats.removals)?;
            c.u64(&mut chan.stats.snoops)?;
            c.usize(&mut chan.stats.peak_occupancy)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring() -> OpticalRing {
        OpticalRing::new(RingConfig::paper_default())
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
    fn back_to_back_inserts_serialize_on_tx() {
        let mut r = ring();
        let a = r.insert(0, 0, 1).unwrap();
        let b = r.insert(0, 0, 2).unwrap();
        assert_eq!(a, 656);
        assert_eq!(b, 1312);
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
