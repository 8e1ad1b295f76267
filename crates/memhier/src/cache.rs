//! Set-associative processor caches (L1/L2).
//!
//! Tag/state arrays with true-LRU replacement inside each set. The
//! cache does not hold data — it is a timing/state model. Lines carry a
//! dirty bit; coherence state (shared vs exclusive) is tracked at the
//! machine-wide [`crate::Directory`], so the per-node cache only needs
//! presence + dirtiness.

use crate::{first_line_of_page, Line, Vpn, LINES_PER_PAGE};
use nw_sim::ckpt::{Ckpt, CkptError};

/// Geometry of a cache.
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes.
    pub line_bytes: u64,
}

impl CacheConfig {
    /// A 16 KB direct-mapped L1 (modest 1999-era on-chip cache).
    pub fn l1_default() -> Self {
        CacheConfig {
            size_bytes: 16 * 1024,
            assoc: 1,
            line_bytes: crate::LINE_BYTES,
        }
    }

    /// A 128 KB 4-way L2.
    pub fn l2_default() -> Self {
        CacheConfig {
            size_bytes: 128 * 1024,
            assoc: 4,
            line_bytes: crate::LINE_BYTES,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        let lines = self.size_bytes / self.line_bytes;
        let sets = lines as usize / self.assoc;
        assert!(sets > 0, "cache too small for its associativity");
        assert!(sets.is_power_of_two(), "sets must be a power of two");
        sets
    }
}

/// Line-word flag: the way holds a line.
const VALID: u64 = 1 << 63;
/// Line-word flag: the line is modified.
const DIRTY: u64 = 1 << 62;
/// Largest line address a way can hold, plus one: the two flags take
/// the line word's top bits.
pub const LINE_LIMIT: Line = 1 << 62;

/// [`DIRTY`] if `dirty`, else 0: set without a branch on the access
/// kind, which is close to random.
#[inline]
fn dirty_bit(dirty: bool) -> u64 {
    (dirty as u64) << 62
}

/// One way: the line address with [`VALID`] and [`DIRTY`] in its top
/// bits, and its LRU stamp. An invalidated way keeps its stale line
/// bits, which `nwckpt-v1` records.
#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    last_use: u64,
}

impl Way {
    const EMPTY: Way = Way { tag: 0, last_use: 0 };

    #[inline]
    fn holds(&self, line: Line) -> bool {
        self.tag & !DIRTY == line | VALID
    }

    #[inline]
    fn valid(&self) -> bool {
        self.tag & VALID != 0
    }

    #[inline]
    fn dirty(&self) -> bool {
        self.tag & DIRTY != 0
    }

    #[inline]
    fn line(&self) -> Line {
        self.tag & (LINE_LIMIT - 1)
    }

    /// A valid way holding `line`, dirty if `dirty`.
    #[inline]
    fn filled(line: Line, dirty: bool, last_use: u64) -> Way {
        debug_assert!(line < LINE_LIMIT, "line {line} past the way's line bits");
        Way {
            tag: line | VALID | dirty_bit(dirty),
            last_use,
        }
    }
}

/// A line evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The evicted line address.
    pub line: Line,
    /// Whether it held modified data (must be written back).
    pub dirty: bool,
}

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// Line present; LRU refreshed (and dirtied on writes).
    Hit,
    /// Line absent; caller must fetch and then [`Cache::fill`].
    Miss,
}

/// A set-associative cache tag/state array.
///
/// Ways live in one contiguous `Vec<Way>`, stride-indexed by set
/// (PR 3 hot-path layout; see DESIGN.md §11): set `s` owns
/// `ways[s * assoc .. (s + 1) * assoc]`. A probe touches one small
/// contiguous slice instead of chasing a per-set heap allocation, and
/// way order within the slice is exactly the old inner-`Vec` order,
/// so LRU ties and purge output are unchanged. Each way is 16 bytes:
/// the valid and dirty bits ride in the line word's top two bits.
#[derive(Debug, Clone)]
pub struct Cache {
    cfg: CacheConfig,
    ways: Vec<Way>,
    set_mask: u64,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl Cache {
    /// An empty cache with geometry `cfg`.
    pub fn new(cfg: CacheConfig) -> Self {
        let n = cfg.num_sets();
        Cache {
            cfg,
            ways: vec![Way::EMPTY; n * cfg.assoc],
            set_mask: n as u64 - 1,
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn set_of(&self, line: Line) -> usize {
        (line & self.set_mask) as usize
    }

    /// The ways of the set holding `line`, as a contiguous slice.
    #[inline]
    fn set(&self, line: Line) -> &[Way] {
        let base = self.set_of(line) * self.cfg.assoc;
        &self.ways[base..base + self.cfg.assoc]
    }

    /// Mutable variant of [`set`](Self::set).
    #[inline]
    fn set_mut(&mut self, line: Line) -> &mut [Way] {
        let base = self.set_of(line) * self.cfg.assoc;
        &mut self.ways[base..base + self.cfg.assoc]
    }

    /// Probe for `line`; on a hit refresh LRU and set the dirty bit if
    /// `is_write`.
    pub fn access(&mut self, line: Line, is_write: bool) -> LookupResult {
        match self.access_dirty(line, is_write) {
            Some(_) => LookupResult::Hit,
            None => LookupResult::Miss,
        }
    }

    /// [`access`](Self::access) that also reports the line's dirty bit
    /// from before the access: `Some(was_dirty)` on a hit, `None` on a
    /// miss. One probe answers both questions.
    #[inline]
    pub fn access_dirty(&mut self, line: Line, is_write: bool) -> Option<bool> {
        self.clock += 1;
        let clock = self.clock;
        for way in self.set_mut(line) {
            if way.holds(line) {
                way.last_use = clock;
                let was_dirty = way.dirty();
                way.tag |= dirty_bit(is_write);
                self.hits += 1;
                return Some(was_dirty);
            }
        }
        self.misses += 1;
        None
    }

    /// Insert `line` after a miss was serviced, returning any evicted
    /// victim. `is_write` marks the incoming line dirty immediately.
    #[inline]
    pub fn fill(&mut self, line: Line, is_write: bool) -> Option<Evicted> {
        self.clock += 1;
        let clock = self.clock;
        let set = self.set_mut(line);
        // One pass: an existing copy (e.g. a racing fill) is just
        // refreshed; otherwise the first invalid way, else the first
        // way with the oldest stamp (true LRU, first way wins ties).
        let mut invalid = None;
        let (mut lru, mut oldest) = (0, u64::MAX);
        for (i, way) in set.iter_mut().enumerate() {
            if way.holds(line) {
                way.last_use = clock;
                way.tag |= dirty_bit(is_write);
                return None;
            }
            if !way.valid() {
                invalid = invalid.or(Some(i));
            } else if way.last_use < oldest {
                (lru, oldest) = (i, way.last_use);
            }
        }
        let incoming = Way::filled(line, is_write, clock);
        if let Some(i) = invalid {
            set[i] = incoming;
            return None;
        }
        let victim = std::mem::replace(&mut set[lru], incoming);
        if victim.dirty() {
            self.writebacks += 1;
        }
        Some(Evicted {
            line: victim.line(),
            dirty: victim.dirty(),
        })
    }

    /// Invalidate `line` if present; returns `Some(dirty)` when an
    /// entry was dropped.
    pub fn invalidate(&mut self, line: Line) -> Option<bool> {
        for way in self.set_mut(line) {
            if way.holds(line) {
                let dirty = way.dirty();
                way.tag &= !(VALID | DIRTY);
                return Some(dirty);
            }
        }
        None
    }

    /// Set the dirty bit of `line` if present, without touching LRU or
    /// hit/miss statistics (used when an upper-level victim merges
    /// down). Returns true if the line was present.
    pub fn mark_dirty(&mut self, line: Line) -> bool {
        for way in self.set_mut(line) {
            if way.holds(line) {
                way.tag |= DIRTY;
                return true;
            }
        }
        false
    }

    /// Clear the dirty bit of `line` (after a writeback triggered by a
    /// remote read); returns true if the line was present and dirty.
    pub fn clean(&mut self, line: Line) -> bool {
        for way in self.set_mut(line) {
            if way.holds(line) && way.dirty() {
                way.tag &= !DIRTY;
                return true;
            }
        }
        false
    }

    /// Invalidate every cached line of page `vpn`; returns the evicted
    /// lines with their dirtiness, in ascending line order. Used when
    /// the VM system replaces a page (access-rights downgrade).
    pub fn purge_page(&mut self, vpn: Vpn) -> Vec<Evicted> {
        let mut out = Vec::new();
        self.purge_page_into(vpn, &mut out);
        out
    }

    /// Allocation-free variant of [`purge_page`](Self::purge_page):
    /// clears `out` and fills it with the purged lines in ascending
    /// line order. The page-replacement path passes a scratch buffer
    /// that lives for the whole run.
    pub fn purge_page_into(&mut self, vpn: Vpn, out: &mut Vec<Evicted>) {
        out.clear();
        let start = first_line_of_page(vpn);
        for l in start..start + LINES_PER_PAGE {
            if let Some(dirty) = self.invalidate(l) {
                out.push(Evicted { line: l, dirty });
            }
        }
    }

    /// Whether `line` is present (no LRU update).
    pub fn contains(&self, line: Line) -> bool {
        self.set(line).iter().any(|w| w.holds(line))
    }

    /// Whether `line` is present and dirty.
    pub fn is_dirty(&self, line: Line) -> bool {
        self.set(line).iter().any(|w| w.holds(line) && w.dirty())
    }

    /// Total hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Dirty evictions performed.
    pub fn writebacks(&self) -> u64 {
        self.writebacks
    }

    /// Hit rate in `[0, 1]`.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Geometry.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// Checkpoint the dynamic state: every way in slot order (way
    /// order inside a set is observable through LRU tie-breaking) plus
    /// the LRU clock and statistics. Geometry comes from construction.
    /// Each way records `valid, line, dirty, last_use`, stale lines of
    /// invalid ways included. A restore rejects a line of
    /// [`LINE_LIMIT`] or more, which the packed line word cannot hold,
    /// and the states no cache reaches: a valid line in a set it does
    /// not map to (no probe finds it, no purge drops it), or valid in
    /// two ways of one set.
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        let (assoc, set_mask) = (self.cfg.assoc, self.set_mask);
        // The set being read, how many of its ways are read, and the
        // valid lines among them.
        let (mut set, mut read) = (0, 0);
        let mut lines: Vec<Line> = Vec::with_capacity(assoc);
        c.each(&mut self.ways, "cache ways", |c, way| {
            let (mut valid, mut line, mut dirty) = (way.valid(), way.line(), way.dirty());
            c.bool(&mut valid)?;
            c.u64(&mut line)?;
            c.bool(&mut dirty)?;
            c.u64(&mut way.last_use)?;
            if line >= LINE_LIMIT {
                return Err(c.invalid(format!("cache way holds line {line}, past 2^62")));
            }
            if read == assoc {
                (set, read) = (set + 1, 0);
                lines.clear();
            }
            read += 1;
            if valid && c.loading() {
                if (line & set_mask) as usize != set {
                    return Err(c.invalid(format!("set {set} holds line {line} of another set")));
                }
                if lines.contains(&line) {
                    return Err(c.invalid(format!("set {set} holds line {line} in two ways")));
                }
                lines.push(line);
            }
            way.tag = line | (valid as u64) << 63 | dirty_bit(dirty);
            Ok(())
        })?;
        for v in [&mut self.clock, &mut self.hits, &mut self.misses, &mut self.writebacks] {
            c.u64(v)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B = 512B cache.
        Cache::new(CacheConfig {
            size_bytes: 512,
            assoc: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn miss_fill_hit() {
        let mut c = tiny();
        assert_eq!(c.access(100, false), LookupResult::Miss);
        assert_eq!(c.fill(100, false), None);
        assert_eq!(c.access(100, false), LookupResult::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn write_sets_dirty() {
        let mut c = tiny();
        c.fill(5, false);
        assert!(!c.is_dirty(5));
        c.access(5, true);
        assert!(c.is_dirty(5));
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c = tiny();
        // Lines 0, 4, 8 all map to set 0 (4 sets).
        c.fill(0, false);
        c.fill(4, false);
        c.access(0, false); // 4 becomes LRU
        let ev = c.fill(8, false).unwrap();
        assert_eq!(ev.line, 4);
        assert!(c.contains(0));
        assert!(c.contains(8));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.fill(0, true);
        c.fill(4, false);
        let ev = c.fill(8, false).unwrap();
        assert_eq!(ev, Evicted { line: 0, dirty: true });
        assert_eq!(c.writebacks(), 1);
    }

    #[test]
    fn invalidate_returns_dirtiness() {
        let mut c = tiny();
        c.fill(3, true);
        assert_eq!(c.invalidate(3), Some(true));
        assert_eq!(c.invalidate(3), None);
        assert!(!c.contains(3));
    }

    #[test]
    fn clean_clears_dirty_bit() {
        let mut c = tiny();
        c.fill(3, true);
        assert!(c.clean(3));
        assert!(!c.is_dirty(3));
        assert!(c.contains(3));
        assert!(!c.clean(3));
    }

    #[test]
    fn purge_page_removes_all_lines() {
        let mut c = Cache::new(CacheConfig::l2_default());
        // Fill some lines of page 2 (lines 128..192).
        c.fill(130, true);
        c.fill(150, false);
        c.fill(191, true);
        c.fill(192, false); // page 3, must survive
        let purged = c.purge_page(2);
        assert_eq!(purged.len(), 3);
        assert_eq!(purged[0], Evicted { line: 130, dirty: true });
        assert_eq!(purged[1], Evicted { line: 150, dirty: false });
        assert_eq!(purged[2], Evicted { line: 191, dirty: true });
        assert!(c.contains(192));
    }

    #[test]
    fn refill_existing_is_noop() {
        let mut c = tiny();
        c.fill(9, true);
        assert_eq!(c.fill(9, false), None);
        assert!(c.is_dirty(9), "refill must not lose the dirty bit");
    }

    #[test]
    fn default_geometries_are_valid() {
        let l1 = Cache::new(CacheConfig::l1_default());
        let l2 = Cache::new(CacheConfig::l2_default());
        assert_eq!(l1.config().num_sets(), 256);
        assert_eq!(l2.config().num_sets(), 512);
    }

    #[test]
    fn hit_rate_tracks() {
        let mut c = tiny();
        assert_eq!(c.hit_rate(), 0.0);
        c.access(1, false);
        c.fill(1, false);
        c.access(1, false);
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
    }
}
