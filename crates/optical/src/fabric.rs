//! The optical fabric: every cache channel of every ring in one flat
//! array.
//!
//! The paper's machine has a single ring with one cache channel per
//! node. Scaling past it, the fabric stacks `rings` identical rings;
//! every node owns one channel *on each ring*, and pages are sharded
//! across rings by the caller (the VM layer picks the ring from the
//! page number, so a page's slot is always findable without a search).
//!
//! **Channel namespace.** Everything is indexed by a *global channel
//! id* `gc = ring * channels + node`, which is also the channel's index
//! in the array. With a single ring `gc == node`.
//!
//! **Transmitters.** Each node has a single tunable transmitter: it
//! can insert on any ring, but on only one at a time. The fabric keeps
//! no transmitter state, because the caller never issues two inserts
//! of one node less than a page transfer apart (see
//! [`RingFabric::insert`]): every insert finds the transmitter idle
//! and takes exactly one transfer.
//!
//! **Checkpoint format.** Each ring's channels are saved as one
//! length-prefixed run, in ring order; with `rings > 1` one slot per
//! node follows, where the retired transmitter arbiters were. Those
//! slots, and each channel's retired transmitter slot, are written as
//! zeros and discarded on restore, so the layout of `nwckpt-v1` is
//! unchanged.

use crate::ring::{retired_transmitter, Channel, RingConfig, RingError};
use crate::Page;
use nw_sim::ckpt::{Ckpt, CkptError};
use nw_sim::Time;

/// Every channel of a stack of identical optical rings, addressed by
/// global channel id.
#[derive(Debug)]
pub struct RingFabric {
    cfg: RingConfig,
    /// `rings * cfg.channels` channels, indexed by global channel id.
    channels: Vec<Channel>,
}

impl RingFabric {
    /// A fabric of `rings` empty rings, each with `cfg`'s geometry.
    pub fn new(cfg: RingConfig, rings: usize) -> Self {
        assert!(rings > 0, "fabric needs at least one ring");
        assert!(cfg.channels > 0 && cfg.slots_per_channel > 0);
        RingFabric {
            channels: (0..rings * cfg.channels)
                .map(|_| Channel::new(cfg.slots_per_channel))
                .collect(),
            cfg,
        }
    }

    /// Number of rings in the fabric.
    pub fn ring_count(&self) -> usize {
        self.channels.len() / self.cfg.channels
    }

    /// Total channels across the fabric (global channel ids are
    /// `0..channels()`).
    pub fn channels(&self) -> usize {
        self.channels.len()
    }

    /// Whether global channel `gc` can accept another page. A dead
    /// channel never has room.
    pub fn has_room(&self, gc: usize) -> bool {
        let chan = &self.channels[gc];
        !chan.dead && chan.pages.len() < self.cfg.slots_per_channel
    }

    /// Whether global channel `gc` has failed.
    pub fn is_dead(&self, gc: usize) -> bool {
        self.channels[gc].dead
    }

    /// Channels still operational across all rings.
    pub fn live_channels(&self) -> usize {
        self.channels.iter().filter(|c| !c.dead).count()
    }

    /// Fail global channel `gc`: every page circulating on it is
    /// destroyed (the regenerator stops, the bits decay within one
    /// round trip) and the channel rejects all further inserts and
    /// snoops. The same node's channels on other rings keep working.
    /// Returns the destroyed pages so the caller can re-issue their
    /// swap-outs.
    pub fn fail_channel(&mut self, gc: usize) -> Vec<Page> {
        let chan = &mut self.channels[gc];
        chan.dead = true;
        // Ascending page order, as the old ordered map produced: the
        // caller re-issues a swap-out per lost page and the experiment
        // grids are bit-identical only if that order is stable.
        chan.pages.drain_sorted()
    }

    /// Pages currently stored on global channel `gc`.
    pub fn occupancy(&self, gc: usize) -> usize {
        self.channels[gc].pages.len()
    }

    /// Total pages stored across the whole fabric.
    pub fn total_occupancy(&self) -> usize {
        self.channels.iter().map(|c| c.pages.len()).sum()
    }

    /// Insert `page` on global channel `gc` at `now`. Returns the time
    /// the page is fully on the ring: `now` plus one page transfer at
    /// the channel rate.
    ///
    /// Precondition: the caller issues one node's inserts, on any of
    /// its channels, at least one page transfer apart, so the node's
    /// transmitter is idle whenever an insert reaches it. The machine
    /// meets this because every swap-out first crosses the node's I/O
    /// bus, which is slower per page than a channel.
    pub fn insert(&mut self, now: Time, gc: usize, page: Page) -> Result<Time, RingError> {
        if self.is_dead(gc) {
            return Err(RingError::ChannelDead);
        }
        if !self.has_room(gc) {
            return Err(RingError::ChannelFull);
        }
        if self.contains(gc, page) {
            return Err(RingError::Duplicate);
        }
        let on_ring = now + self.cfg.rate.transfer_cycles(self.cfg.page_bytes);
        let chan = &mut self.channels[gc];
        chan.pages.insert(page, on_ring);
        chan.stats.inserts += 1;
        chan.stats.peak_occupancy = chan.stats.peak_occupancy.max(chan.pages.len());
        Ok(on_ring)
    }

    /// Whether `page` is stored on global channel `gc`.
    pub fn contains(&self, gc: usize, page: Page) -> bool {
        self.channels[gc].pages.contains(page)
    }

    /// Locate the global channel storing `page`, if any (linear scan;
    /// consistency checks only — the VM layer knows the channel from
    /// the page's state).
    pub fn find(&self, page: Page) -> Option<usize> {
        self.channels.iter().position(|c| c.pages.contains(page))
    }

    /// When a snoop of `page` on global channel `gc`, issued at `now`,
    /// completes: the first circulation pass at or after `now` plus the
    /// off-channel transfer. `None` if the page is not on the channel.
    pub fn snoop_ready(&mut self, now: Time, gc: usize, page: Page) -> Option<Time> {
        let rt = self.cfg.round_trip;
        let xfer = self.cfg.rate.transfer_cycles(self.cfg.page_bytes);
        let chan = &mut self.channels[gc];
        let t0 = chan.pages.get(page)?;
        chan.stats.snoops += 1;
        let pass = if now <= t0 {
            t0 + rt
        } else {
            t0 + (now - t0).div_ceil(rt).max(1) * rt
        };
        Some(pass + xfer)
    }

    /// Remove `page` from global channel `gc`, freeing its slot.
    /// Returns true if it was present.
    pub fn remove(&mut self, gc: usize, page: Page) -> bool {
        let chan = &mut self.channels[gc];
        let was = chan.pages.remove(page);
        if was {
            chan.stats.removals += 1;
        }
        was
    }

    /// Insertions performed on global channel `gc`.
    pub fn inserts(&self, gc: usize) -> u64 {
        self.channels[gc].stats.inserts
    }

    /// Removals performed on global channel `gc`.
    pub fn removals(&self, gc: usize) -> u64 {
        self.channels[gc].stats.removals
    }

    /// Snoops performed on global channel `gc`.
    pub fn snoops(&self, gc: usize) -> u64 {
        self.channels[gc].stats.snoops
    }

    /// Peak simultaneous occupancy of global channel `gc`.
    pub fn peak_occupancy(&self, gc: usize) -> usize {
        self.channels[gc].stats.peak_occupancy
    }

    /// Checkpoint the fabric, onto one with the same geometry: each
    /// ring's channels as one counted run, then (only with several
    /// rings) the retired per-node arbiter slots.
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        let cap = self.cfg.slots_per_channel;
        for ring in self.channels.chunks_mut(self.cfg.channels) {
            c.each(ring, "ring channels", |c, chan| chan.ckpt(c, cap))?;
        }
        if self.ring_count() > 1 {
            (0..self.cfg.channels).try_for_each(|_| retired_transmitter(c))?;
        }
        Ok(())
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
    fn rejections_do_not_consume_transmitter_time() {
        let mut f = fabric(2);
        f.insert(0, 0, 1).unwrap();
        // Duplicate on the other ring's same page id is fine...
        f.insert(0, 8, 1).unwrap();
        // ...but a duplicate on the same channel is rejected, and the
        // next insert still takes exactly one transfer.
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
        assert_eq!(g.insert(0, 1, 99), Ok(656));
    }
}
