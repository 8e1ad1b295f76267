//! DCD — the Disk Caching Disk baseline (Hu & Yang, ISCA 1996).
//!
//! The paper's related-work section singles out the DCD as the closest
//! prior design: a *log disk* placed between the RAM disk cache and
//! the data disk. New data is staged in the RAM cache and written to
//! the log disk **sequentially** (cheap: no seek/rotation once the log
//! head is positioned), freeing RAM-cache space quickly; reading or
//! overwriting a logged block "requires moving around the log disk to
//! find the corresponding block" — seek and rotational latencies
//! comparable to the data disk. When the data disk is idle, logged
//! data destages to its home location.
//!
//! We implement the DCD as a wrapper policy for
//! [`crate::DiskController`]
//! flushes: the flush targets the log disk's current head position
//! (sequential append) instead of the pages' home blocks, making
//! every flush combine perfectly and skip positioning costs, while
//! demand reads of logged pages pay a full mechanical access on the
//! log disk. This gives the NWCache a quantitative comparison point
//! the paper only argued qualitatively: the DCD also stages writes,
//! but its buffer is a disk (slow to re-read) while the NWCache's is
//! the optical ring (fast to re-read, and no extra spindle).

use crate::mechanics::Mechanics;
use crate::{Block, Page};
use nw_sim::ckpt::{Ckpt, CkptError};
use nw_sim::stats::Tally;
use nw_sim::{Resource, Time};
use std::collections::HashMap;

/// The log-disk stage of a DCD.
#[derive(Debug)]
pub struct LogDisk {
    mech: Mechanics,
    arm: Resource,
    /// Where each logged page currently lives on the log disk.
    locations: HashMap<Page, Block>,
    /// Next append position.
    head: Block,
    appends: u64,
    log_reads: u64,
    destages: u64,
    append_time: Tally,
}

impl LogDisk {
    /// A log disk with the given mechanics.
    pub fn new(mech: Mechanics) -> Self {
        LogDisk {
            mech,
            arm: Resource::new(),
            locations: HashMap::new(),
            head: 0,
            appends: 0,
            log_reads: 0,
            destages: 0,
            append_time: Tally::new(),
        }
    }

    /// A paper-parameter log disk (same mechanics as the data disks).
    pub fn paper_default() -> Self {
        LogDisk::new(Mechanics::paper_default())
    }

    /// Append `pages` starting at `now`, sequentially at the log head.
    /// Returns the completion time. Consecutive appends pay transfer
    /// time only (the log head stays in position).
    pub fn append(&mut self, now: Time, pages: &[Page]) -> Time {
        assert!(!pages.is_empty());
        let start_block = self.head;
        let service = self.mech.access(start_block, pages.len() as u64);
        let grant = self.arm.acquire(now, service);
        for (i, &p) in pages.iter().enumerate() {
            self.locations.insert(p, start_block + i as u64);
        }
        self.head += pages.len() as u64;
        self.appends += 1;
        self.append_time.add(grant.end - now);
        grant.end
    }

    /// Whether `page`'s latest copy is on the log disk.
    pub fn contains(&self, page: Page) -> bool {
        self.locations.contains_key(&page)
    }

    /// Read `page` back from the log at `now` (pays a full mechanical
    /// access — "seek and rotational latencies comparable to those of
    /// accesses to the data disk"). Returns the completion time, or
    /// `None` if the page is not logged.
    pub fn read(&mut self, now: Time, page: Page) -> Option<Time> {
        let &block = self.locations.get(&page)?;
        let service = self.mech.access(block, 1);
        let grant = self.arm.acquire(now, service);
        self.log_reads += 1;
        Some(grant.end)
    }

    /// Destage `page` (its data reached the data disk); drops the log
    /// mapping. Returns true if the page was logged.
    pub fn destage(&mut self, page: Page) -> bool {
        let was = self.locations.remove(&page).is_some();
        if was {
            self.destages += 1;
        }
        was
    }

    /// Pages currently held by the log.
    pub fn logged_pages(&self) -> usize {
        self.locations.len()
    }

    /// Total append operations.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Total reads served from the log.
    pub fn log_reads(&self) -> u64 {
        self.log_reads
    }

    /// Total destages to the data disk.
    pub fn destages(&self) -> u64 {
        self.destages
    }

    /// Append service-time tally.
    pub fn append_time(&self) -> &Tally {
        &self.append_time
    }

    /// Earliest time the log arm is free at `now`.
    pub fn arm_free_at(&self, now: Time) -> Time {
        self.arm.earliest_start(now)
    }

    /// Checkpoint the log-disk state. The location map is saved in
    /// ascending page order for canonical checkpoint bytes (its
    /// iteration order is never observable — lookups are by key).
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        self.mech.ckpt(c)?;
        self.arm.ckpt(c)?;
        c.map(&mut self.locations, "logged page", |c, p, b| {
            c.u64(p)?;
            c.u64(b)
        })?;
        for v in [&mut self.head, &mut self.appends, &mut self.log_reads, &mut self.destages] {
            c.u64(v)?;
        }
        self.append_time.ckpt(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_sim::time::msecs;

    #[test]
    fn first_append_pays_positioning_then_sequential() {
        let mut log = LogDisk::paper_default();
        let t1 = log.append(0, &[10]);
        // Head starts at 0 and the first append targets block 0:
        // sequential from the start, transfer only.
        assert_eq!(t1, 40_960);
        let t2 = log.append(t1, &[11, 12]);
        assert_eq!(t2, t1 + 2 * 40_960, "appends are seek-free");
    }

    #[test]
    fn append_is_much_cheaper_than_random_write() {
        let mut log = LogDisk::paper_default();
        let mut random = Mechanics::paper_default();
        let t_log = log.append(0, &[5]);
        let t_rand = random.access(4000, 1);
        assert!(t_log * 10 < t_rand, "log {t_log} vs random {t_rand}");
    }

    #[test]
    fn read_back_pays_mechanics() {
        let mut log = LogDisk::paper_default();
        let t = log.append(0, &[7, 8, 9]);
        let r = log.read(t + msecs(50), 8).unwrap();
        // The head moved past block 1; a read must reposition.
        assert!(r > t + msecs(50) + msecs(2));
        assert_eq!(log.read(0, 99), None);
    }

    #[test]
    fn contains_and_destage() {
        let mut log = LogDisk::paper_default();
        log.append(0, &[1, 2]);
        assert!(log.contains(1));
        assert!(log.destage(1));
        assert!(!log.contains(1));
        assert!(!log.destage(1));
        assert_eq!(log.logged_pages(), 1);
        assert_eq!(log.destages(), 1);
    }

    #[test]
    fn rewrite_updates_location() {
        let mut log = LogDisk::paper_default();
        log.append(0, &[5]);
        let t = log.append(100_000, &[5]); // newer version appended
        assert!(log.contains(5));
        assert_eq!(log.logged_pages(), 1);
        let r = log.read(t, 5).unwrap();
        assert!(r > t);
    }

    #[test]
    fn stats_track() {
        let mut log = LogDisk::paper_default();
        log.append(0, &[1]);
        log.append(50_000_000, &[2, 3]);
        log.read(100_000_000, 2);
        assert_eq!(log.appends(), 2);
        assert_eq!(log.log_reads(), 1);
        assert_eq!(log.append_time().count(), 2);
    }
}
