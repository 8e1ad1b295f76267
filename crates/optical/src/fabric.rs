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
//! **Arbitration.** Each node has a single tunable transmitter: it can
//! insert on any ring, but on only one at a time. With `rings > 1`,
//! inserts first serialize on the node's transmitter arbiter and then
//! occupy the target channel's transmitter for the transfer duration;
//! the channel `tx` never conflicts beyond that because every insert
//! reaches it through the arbiter. With one ring there are no arbiters
//! (the channel `tx` *is* the node transmitter), keeping the paper
//! machine bit-identical.
//!
//! **Checkpoint format.** Each ring's channels are saved as one
//! length-prefixed run, in ring order; the per-node arbiters follow
//! only when `rings > 1`. A single-ring fabric therefore writes the
//! bytes the machine's pre-fabric ring always wrote.

use crate::ring::{Channel, RingConfig, RingError};
use crate::Page;
use nw_sim::ckpt::{Ckpt, CkptError};
use nw_sim::{Resource, Time};

/// Every channel of a stack of identical optical rings, addressed by
/// global channel id.
#[derive(Debug)]
pub struct RingFabric {
    cfg: RingConfig,
    /// `rings * cfg.channels` channels, indexed by global channel id.
    channels: Vec<Channel>,
    /// Per-node transmitter arbiters; empty when `rings == 1` (the
    /// channel transmitters already serialize per node).
    arbiters: Vec<Resource>,
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
            arbiters: if rings > 1 {
                (0..cfg.channels).map(|_| Resource::new("ring-arb")).collect()
            } else {
                Vec::new()
            },
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
    /// the page is fully on the ring: with several rings the insert
    /// first serializes on the node's transmitter arbiter, then on the
    /// channel's fixed transmitter at the channel rate. A rejected
    /// insert consumes no transmitter time.
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
        let dur = self.cfg.rate.transfer_cycles(self.cfg.page_bytes);
        // The channel transmitter is necessarily free at the arbiter's
        // grant: every insert on `gc` funnels through the same arbiter.
        let start = match self.arbiters.get_mut(gc % self.cfg.channels) {
            Some(arb) => arb.acquire(now, dur).start,
            None => now,
        };
        let chan = &mut self.channels[gc];
        let grant = chan.tx.acquire(start, dur);
        chan.pages.insert(page, grant.end);
        chan.stats.inserts += 1;
        chan.stats.peak_occupancy = chan.stats.peak_occupancy.max(chan.pages.len());
        Ok(grant.end)
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
    /// rings) the per-node arbiters.
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        let cap = self.cfg.slots_per_channel;
        for ring in self.channels.chunks_mut(self.cfg.channels) {
            c.each(ring, "ring channels", |c, chan| chan.ckpt(c, cap))?;
        }
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
