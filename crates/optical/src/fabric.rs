//! Multi-ring optical fabric: several independent delay-line rings
//! behind one channel namespace.
//!
//! The paper's machine has a single ring with one cache channel per
//! node. Scaling past it, the fabric stacks `rings` identical rings;
//! every node owns one channel *on each ring*, and pages are sharded
//! across rings by the caller (the VM layer picks the ring from the
//! page number, so a page's slot is always findable without a search).
//!
//! **Channel namespace.** Everything machine-facing is indexed by a
//! *global channel id* `gc = ring * channels_per_ring + node`. With a
//! single ring `gc == node`, so the fabric is a drop-in replacement
//! for [`OpticalRing`] — same method names, same behaviour, and (by
//! the checkpoint format below) the same serialized bytes.
//!
//! **Arbitration.** Each node still has a single tunable transmitter:
//! it can insert on any ring, but on only one at a time. With
//! `rings > 1`, inserts first serialize on the node's transmitter
//! arbiter and then occupy the target ring's channel transmitter for
//! the transfer duration; the per-(ring, node) channel `tx` inside
//! each ring never conflicts beyond that because every insert reaches
//! it through the arbiter. With one ring the arbiter layer is skipped
//! entirely (the channel `tx` *is* the node transmitter), keeping the
//! paper machine bit-identical.
//!
//! **Checkpoint format.** Rings are saved back to back in ring order;
//! the per-node arbiters follow only when `rings > 1`. A single-ring
//! fabric therefore serializes to exactly the bytes [`OpticalRing::
//! ckpt`] always produced, which is what keeps pre-fabric
//! checkpoints restorable.

use crate::ring::{RingConfig, RingError};
use crate::{OpticalRing, Page};
use nw_sim::ckpt::{Ckpt, CkptError};
use nw_sim::{Resource, Time};

/// A stack of identical optical rings addressed by global channel id.
#[derive(Debug)]
pub struct RingFabric {
    rings: Vec<OpticalRing>,
    /// Per-node transmitter arbiters; empty when `rings == 1` (the
    /// single ring's channel transmitters already serialize per node).
    arbiters: Vec<Resource>,
    channels_per_ring: usize,
}

impl RingFabric {
    /// A fabric of `rings` empty rings, each with `cfg`'s geometry.
    pub fn new(cfg: RingConfig, rings: usize) -> Self {
        assert!(rings > 0, "fabric needs at least one ring");
        RingFabric {
            rings: (0..rings).map(|_| OpticalRing::new(cfg)).collect(),
            arbiters: if rings > 1 {
                (0..cfg.channels).map(|_| Resource::new("ring-arb")).collect()
            } else {
                Vec::new()
            },
            channels_per_ring: cfg.channels,
        }
    }

    /// Number of rings in the fabric.
    pub fn ring_count(&self) -> usize {
        self.rings.len()
    }

    /// Channels per ring (= nodes).
    pub fn channels_per_ring(&self) -> usize {
        self.channels_per_ring
    }

    /// Total channels across the fabric (global channel ids are
    /// `0..channels()`).
    pub fn channels(&self) -> usize {
        self.rings.len() * self.channels_per_ring
    }

    /// The ring configuration (identical across rings).
    pub fn config(&self) -> &RingConfig {
        self.rings[0].config()
    }

    #[inline]
    fn split(&self, gc: usize) -> (usize, usize) {
        debug_assert!(gc < self.channels(), "global channel {gc} out of range");
        (gc / self.channels_per_ring, gc % self.channels_per_ring)
    }

    /// Whether global channel `gc` can accept another page.
    pub fn has_room(&self, gc: usize) -> bool {
        let (r, ch) = self.split(gc);
        self.rings[r].has_room(ch)
    }

    /// Whether global channel `gc` has failed.
    pub fn is_dead(&self, gc: usize) -> bool {
        let (r, ch) = self.split(gc);
        self.rings[r].is_dead(ch)
    }

    /// Channels still operational across all rings.
    pub fn live_channels(&self) -> usize {
        self.rings.iter().map(|r| r.live_channels()).sum()
    }

    /// Fail global channel `gc`, destroying its circulating pages (in
    /// ascending page order, see [`OpticalRing::fail_channel`]). The
    /// same node's channels on other rings keep working.
    pub fn fail_channel(&mut self, gc: usize) -> Vec<Page> {
        let (r, ch) = self.split(gc);
        self.rings[r].fail_channel(ch)
    }

    /// Pages currently stored on global channel `gc`.
    pub fn occupancy(&self, gc: usize) -> usize {
        let (r, ch) = self.split(gc);
        self.rings[r].occupancy(ch)
    }

    /// Total pages stored across the whole fabric.
    pub fn total_occupancy(&self) -> usize {
        self.rings.iter().map(|r| r.total_occupancy()).sum()
    }

    /// Insert `page` on global channel `gc` at `now`; returns the time
    /// the page is fully on the ring. With several rings the insert
    /// first serializes on the node's transmitter arbiter (one tunable
    /// transmitter per node), then on the target channel.
    pub fn insert(&mut self, now: Time, gc: usize, page: Page) -> Result<Time, RingError> {
        let (r, ch) = self.split(gc);
        if self.arbiters.is_empty() {
            return self.rings[r].insert(now, ch, page);
        }
        // Reject before touching the arbiter so a full/dead/duplicate
        // channel does not consume transmitter time.
        if self.rings[r].is_dead(ch) {
            return Err(RingError::ChannelDead);
        }
        if !self.rings[r].has_room(ch) {
            return Err(RingError::ChannelFull);
        }
        if self.rings[r].contains(ch, page) {
            return Err(RingError::Duplicate);
        }
        let cfg = self.rings[r].config();
        let dur = cfg.rate.transfer_cycles(cfg.page_bytes);
        let grant = self.arbiters[ch].acquire(now, dur);
        // The channel transmitter is necessarily free at grant.start:
        // every insert on (r, ch) funnels through the same arbiter.
        self.rings[r].insert(grant.start, ch, page)
    }

    /// Whether `page` is stored on global channel `gc`.
    pub fn contains(&self, gc: usize, page: Page) -> bool {
        let (r, ch) = self.split(gc);
        self.rings[r].contains(ch, page)
    }

    /// Locate the global channel storing `page`, if any (linear scan;
    /// consistency checks only).
    pub fn find(&self, page: Page) -> Option<usize> {
        self.rings
            .iter()
            .enumerate()
            .find_map(|(r, ring)| ring.find(page).map(|ch| r * self.channels_per_ring + ch))
    }

    /// Snoop completion time of `page` on global channel `gc` (see
    /// [`OpticalRing::snoop_ready`]).
    pub fn snoop_ready(&mut self, now: Time, gc: usize, page: Page) -> Option<Time> {
        let (r, ch) = self.split(gc);
        self.rings[r].snoop_ready(now, ch, page)
    }

    /// Remove `page` from global channel `gc`, freeing its slot.
    pub fn remove(&mut self, gc: usize, page: Page) -> bool {
        let (r, ch) = self.split(gc);
        self.rings[r].remove(ch, page)
    }

    /// Insertions performed on global channel `gc`.
    pub fn inserts(&self, gc: usize) -> u64 {
        let (r, ch) = self.split(gc);
        self.rings[r].inserts(ch)
    }

    /// Removals performed on global channel `gc`.
    pub fn removals(&self, gc: usize) -> u64 {
        let (r, ch) = self.split(gc);
        self.rings[r].removals(ch)
    }

    /// Snoops performed on global channel `gc`.
    pub fn snoops(&self, gc: usize) -> u64 {
        let (r, ch) = self.split(gc);
        self.rings[r].snoops(ch)
    }

    /// Peak simultaneous occupancy of global channel `gc`.
    pub fn peak_occupancy(&self, gc: usize) -> usize {
        let (r, ch) = self.split(gc);
        self.rings[r].peak_occupancy(ch)
    }

    /// Checkpoint the fabric, onto one with the same geometry: each
    /// ring back to back, then (only with several rings) the per-node
    /// arbiters. A single-ring fabric's bytes are exactly
    /// [`OpticalRing::ckpt`]'s.
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        self.rings.iter_mut().try_for_each(|ring| ring.ckpt(c))?;
        self.arbiters.iter_mut().try_for_each(|arb| arb.ckpt(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_sim::ckpt::{CkptReader, CkptWriter};

    fn fabric(rings: usize) -> RingFabric {
        RingFabric::new(RingConfig::paper_default(), rings)
    }

    #[test]
    fn single_ring_fabric_matches_the_plain_ring() {
        let mut f = fabric(1);
        let mut r = OpticalRing::new(RingConfig::paper_default());
        assert_eq!(f.channels(), 8);
        assert_eq!(f.insert(100, 3, 42).unwrap(), r.insert(100, 3, 42).unwrap());
        assert_eq!(f.snoop_ready(200, 3, 42), r.snoop_ready(200, 3, 42));
        assert!(f.contains(3, 42) && !f.contains(2, 42));
        assert_eq!(f.find(42), Some(3));
        // Identical checkpoint bytes.
        let mut wf = CkptWriter::new();
        let mut wr = CkptWriter::new();
        Ckpt::Save(&mut wf).section(1, |c| f.ckpt(c)).expect("save");
        Ckpt::Save(&mut wr).section(1, |c| r.ckpt(c)).expect("save");
        assert_eq!(wf.finish(), wr.finish());
    }

    #[test]
    fn global_channels_address_every_ring() {
        let mut f = fabric(4);
        assert_eq!(f.ring_count(), 4);
        assert_eq!(f.channels(), 32);
        // Same node (3), different rings: independent slots.
        f.insert(0, 3, 10).unwrap();
        f.insert(0, 8 + 3, 11).unwrap();
        f.insert(0, 24 + 3, 12).unwrap();
        assert!(f.contains(3, 10));
        assert!(f.contains(11, 11));
        assert!(!f.contains(3, 11));
        assert_eq!(f.find(12), Some(27));
        assert_eq!(f.total_occupancy(), 3);
    }

    #[test]
    fn node_transmitter_serializes_across_rings() {
        let mut f = fabric(2);
        // Node 0 inserts on ring 0 then ring 1 at the same instant:
        // the single tunable transmitter serializes them.
        let a = f.insert(0, 0, 1).unwrap();
        let b = f.insert(0, 8, 2).unwrap();
        assert_eq!(a, 656);
        assert_eq!(b, 1312);
        // A different node is unaffected.
        let c = f.insert(0, 5, 3).unwrap();
        assert_eq!(c, 656);
    }

    #[test]
    fn rejections_do_not_consume_transmitter_time() {
        let mut f = fabric(2);
        f.insert(0, 0, 1).unwrap();
        // Duplicate on the other ring's same page id is fine...
        f.insert(0, 8, 1).unwrap();
        // ...but a duplicate on the same channel is rejected without
        // holding the arbiter.
        assert_eq!(f.insert(5000, 0, 1), Err(RingError::Duplicate));
        let t = f.insert(5000, 0, 2).unwrap();
        assert_eq!(t, 5000 + 656);
    }

    #[test]
    fn failing_one_ring_channel_leaves_siblings_alive() {
        let mut f = fabric(2);
        f.insert(0, 2, 20).unwrap();
        f.insert(0, 8 + 2, 21).unwrap();
        let lost = f.fail_channel(2);
        assert_eq!(lost, vec![20]);
        assert!(f.is_dead(2));
        assert!(!f.is_dead(8 + 2), "node 2's ring-1 channel survives");
        assert!(f.contains(8 + 2, 21));
        assert_eq!(f.live_channels(), 15);
        assert_eq!(f.insert(10, 2, 22), Err(RingError::ChannelDead));
        f.insert(10, 8 + 2, 22).unwrap();
    }

    #[test]
    fn multi_ring_checkpoint_round_trips() {
        let mut f = fabric(3);
        f.insert(0, 1, 10).unwrap();
        f.insert(100, 8 + 1, 11).unwrap();
        f.insert(200, 16 + 5, 12).unwrap();
        f.fail_channel(16 + 7);
        let mut w = CkptWriter::new();
        Ckpt::Save(&mut w).section(1, |c| f.ckpt(c)).expect("save");
        let bytes = w.finish();
        let mut g = fabric(3);
        let mut r = CkptReader::new(&bytes).unwrap();
        Ckpt::Load(&mut r).section(1, |c| g.ckpt(c)).unwrap();
        r.finish().unwrap();
        let mut w2 = CkptWriter::new();
        Ckpt::Save(&mut w2).section(1, |c| g.ckpt(c)).expect("save");
        assert_eq!(bytes, w2.finish());
        assert!(g.contains(8 + 1, 11));
        assert!(g.is_dead(16 + 7));
        // Restored arbiters keep serializing from where they were.
        let t = g.insert(0, 1, 99).unwrap();
        assert!(t >= 656);
    }
}
