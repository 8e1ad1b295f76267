//! Machine-wide directory-based cache coherence (MSI, atomic-directory
//! approximation).
//!
//! The base machine is DASH-like (§4): each resident page has a home
//! node (the node whose memory holds the frame) and a directory that
//! tracks, per cache line, which processors cache the line and whether
//! one of them holds it modified. We collapse transient protocol states:
//! each read/write transaction consults the directory once and the
//! outcome tells the machine model which messages/latencies to charge
//! (remote fetch, owner writeback, invalidations). Under release
//! consistency the processor does not wait for invalidation acks on
//! writes, but the traffic still contends for the network.
//!
//! Directory entries live in one page-indexed [`LineTable`]: a
//! `vpn → block` index into a slab of per-page blocks, each holding
//! its page's 64 line states as `u32`s (the sharer mask, or the owner
//! of a modified line) plus an occupancy bitmap and a Modified-tag
//! bitmap (DESIGN.md §11). `read`, `write` and `evict` each make one
//! probe. A page purge walks the page's occupancy word, so its output
//! comes out in ascending line order — the order the original
//! `BTreeMap` range scan produced. Only resident pages have entries
//! (page replacement purges them), so a machine reserves the slab once
//! from its total frame count ([`Directory::reserve`]).
//!
//! **Shards.** `dirshards=` is still accepted by the `TopoSpec`
//! grammar and recorded in `nwckpt-v1`, but it no longer splits
//! storage: one page-indexed table already makes every lookup a single
//! probe, and the split was never observable in any output.
//!
//! **Coarse sharer vectors** (machines past 32 nodes). The sharer
//! mask is a `u32`; with more than 32 nodes each bit covers a *group*
//! of `ceil(nodes/32)` consecutive nodes, DASH's coarse-vector
//! scheme: invalidations go to every node of a sharing group, clean
//! evictions cannot clear a group bit (another group member may still
//! share), and only the exact `Modified(owner)` state stays
//! node-precise. At 32 nodes or fewer the group size is 1 and the
//! directory is bit-for-bit the precise one.

use crate::linetable::{LineTable, TAG};
use crate::{first_line_of_page, Line, Vpn};
use nw_sim::ckpt::{Ckpt, CkptError};

/// Bitmask of node *groups* caching a line: one node per group up to
/// 32 nodes, `ceil(nodes/32)` nodes per group beyond (see the module
/// docs). Use [`Directory::expand_mask`] to enumerate member nodes.
pub type SharerMask = u32;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// One or more nodes cache the line clean.
    Shared(SharerMask),
    /// Exactly one node holds the line modified.
    Modified(u32),
}

/// Packed into a [`LineTable`] value: the sharer mask, or the owner
/// with the table's [`TAG`] bit set for a modified line.
impl State {
    #[inline]
    fn pack(self) -> u64 {
        match self {
            State::Shared(mask) => mask as u64,
            State::Modified(owner) => TAG | owner as u64,
        }
    }

    #[inline]
    fn unpack(v: u64) -> State {
        if v & TAG != 0 {
            State::Modified((v & !TAG) as u32)
        } else {
            State::Shared(v as SharerMask)
        }
    }
}

/// Outcome of a read transaction at the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReadOutcome {
    /// Line was uncached anywhere; fetch from home memory.
    FromMemory,
    /// Line was shared; fetch from home memory (data is clean there).
    FromMemoryShared,
    /// Line was modified at `owner`: owner must write back / forward.
    FromOwner {
        /// Node that held the modified copy.
        owner: u32,
    },
}

/// Outcome of a write (ownership) transaction at the directory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteOutcome {
    /// Sharers (excluding the writer) that must be invalidated.
    pub invalidate: SharerMask,
    /// Previous modified owner whose data must be fetched, if any.
    pub fetch_from: Option<u32>,
    /// Whether the line had to be fetched from home memory.
    pub from_memory: bool,
}

/// The directory for all resident lines of the machine.
#[derive(Debug)]
pub struct Directory {
    lines: LineTable,
    /// Nodes of the machine; a checkpointed owner must be one of them.
    nodes: u32,
    /// Nodes per sharer-mask bit (1 up to 32 nodes; DASH coarse
    /// vector beyond).
    granularity: u32,
    /// Lines below this bound may appear in a checkpoint (the machine
    /// footprint once [`Directory::reserve`]d; unbounded before).
    line_limit: Line,
    reads: u64,
    writes: u64,
    invalidations_sent: u64,
    owner_forwards: u64,
}

impl Default for Directory {
    fn default() -> Self {
        Self::new()
    }
}

impl Directory {
    /// An empty directory with node-precise sharer bits for up to 32
    /// nodes (the paper machine's directory).
    pub fn new() -> Self {
        Self::with_topology(1, 32)
    }

    /// An empty directory for a `nodes`-node machine (the sharer-bit
    /// granularity is `ceil(nodes/32)`). `shards` is the configured
    /// `dirshards=` count, which no longer splits storage (see the
    /// module docs). `with_topology(s, n)` for `n <= 32` behaves
    /// exactly like [`Directory::new`] for every `s`.
    pub fn with_topology(shards: usize, nodes: u32) -> Self {
        assert!(shards > 0, "directory needs at least one shard");
        assert!(nodes >= 1, "directory needs at least one node");
        Directory {
            lines: LineTable::new(),
            nodes,
            granularity: nodes.div_ceil(32).max(1),
            line_limit: Line::MAX,
            reads: 0,
            writes: 0,
            invalidations_sent: 0,
            owner_forwards: 0,
        }
    }

    /// Size the directory for a machine whose footprint is
    /// `footprint_pages` pages, at most `resident_pages` of them in
    /// memory at once: the page index is allocated and the block slab
    /// reserved once, and a [`ckpt`](Self::ckpt) restore rejects
    /// lines past the footprint. Drops any state.
    pub fn reserve(&mut self, footprint_pages: u64, resident_pages: usize) {
        let pages = usize::try_from(footprint_pages).expect("footprint fits in memory");
        self.lines = LineTable::with_capacity(pages, resident_pages.min(pages));
        self.line_limit = first_line_of_page(footprint_pages);
    }

    /// Nodes covered by one sharer-mask bit (1 = node-precise).
    pub fn granularity(&self) -> u32 {
        self.granularity
    }

    #[inline]
    fn bit(&self, node: u32) -> SharerMask {
        1 << (node / self.granularity)
    }

    /// Call `f` for every node a sharer mask covers (ascending): the
    /// bit's whole node group at the current granularity, clipped to
    /// `nodes`. At granularity 1 this enumerates exactly the mask's
    /// set bits.
    pub fn expand_mask(&self, mask: SharerMask, nodes: u32, mut f: impl FnMut(u32)) {
        let g = self.granularity;
        let mut m = mask;
        while m != 0 {
            let group = m.trailing_zeros();
            m &= m - 1;
            for node in (group * g)..((group + 1) * g).min(nodes) {
                f(node);
            }
        }
    }

    /// A read by `node`. Updates sharer state and reports where the
    /// data comes from.
    #[inline]
    pub fn read(&mut self, line: Line, node: u32) -> ReadOutcome {
        self.reads += 1;
        let bit = self.bit(node);
        let g = self.granularity;
        let forwards = &mut self.owner_forwards;
        self.lines.update(line, |e| {
            let (next, outcome) = match e.map(State::unpack) {
                None => (State::Shared(bit), ReadOutcome::FromMemory),
                Some(State::Shared(mask)) => {
                    (State::Shared(mask | bit), ReadOutcome::FromMemoryShared)
                }
                // Own modified copy: silent hit, state unchanged.
                Some(s @ State::Modified(owner)) if owner == node => {
                    (s, ReadOutcome::FromMemoryShared)
                }
                Some(State::Modified(owner)) => {
                    // Owner writes back; both now share.
                    *forwards += 1;
                    (
                        State::Shared(bit | 1 << (owner / g)),
                        ReadOutcome::FromOwner { owner },
                    )
                }
            };
            *e = Some(next.pack());
            outcome
        })
    }

    /// A write (ownership request) by `node`.
    #[inline]
    pub fn write(&mut self, line: Line, node: u32) -> WriteOutcome {
        self.writes += 1;
        let bit = self.bit(node);
        let invalidations = &mut self.invalidations_sent;
        let forwards = &mut self.owner_forwards;
        self.lines.update(line, |e| {
            let outcome = match e.map(State::unpack) {
                None => WriteOutcome {
                    invalidate: 0,
                    fetch_from: None,
                    from_memory: true,
                },
                Some(State::Shared(mask)) => {
                    let inv = mask & !bit;
                    *invalidations += inv.count_ones() as u64;
                    WriteOutcome {
                        invalidate: inv,
                        fetch_from: None,
                        // If the writer already shared the line it
                        // upgrades in place; otherwise data comes from
                        // memory.
                        from_memory: mask & bit == 0,
                    }
                }
                Some(State::Modified(owner)) if owner == node => WriteOutcome {
                    invalidate: 0,
                    fetch_from: None,
                    from_memory: false,
                },
                Some(State::Modified(owner)) => {
                    *forwards += 1;
                    WriteOutcome {
                        invalidate: 0,
                        fetch_from: Some(owner),
                        from_memory: false,
                    }
                }
            };
            *e = Some(State::Modified(node).pack());
            outcome
        })
    }

    /// `node` silently dropped its copy (clean eviction) or wrote back
    /// (dirty eviction). Keeps the directory conservative-but-correct:
    /// with coarse sharer groups a clean eviction cannot clear the
    /// group's bit (another member may still share the line), so only
    /// the node-precise granularity ever shrinks a shared mask.
    #[inline]
    pub fn evict(&mut self, line: Line, node: u32) {
        let bit = self.bit(node);
        let precise = self.granularity == 1;
        self.lines.update(line, |e| match e.map(State::unpack) {
            Some(State::Shared(mask)) if precise => {
                let mask = mask & !bit;
                *e = (mask != 0).then(|| State::Shared(mask).pack());
            }
            Some(State::Modified(owner)) if owner == node => *e = None,
            _ => {}
        })
    }

    /// Drop every directory entry for page `vpn`, returning for each
    /// line the set of nodes that cached it (so their caches can be
    /// invalidated) — this is the access-rights downgrade performed at
    /// page replacement.
    pub fn purge_page(&mut self, vpn: Vpn) -> Vec<(Line, SharerMask)> {
        let mut out = Vec::new();
        self.purge_page_into(vpn, &mut out);
        out
    }

    /// Allocation-free variant of [`purge_page`](Self::purge_page):
    /// clears `out` and fills it with the purged `(line, sharers)`
    /// pairs in ascending line order. The hot page-replacement path
    /// passes a scratch buffer that lives for the whole run.
    pub fn purge_page_into(&mut self, vpn: Vpn, out: &mut Vec<(Line, SharerMask)>) {
        out.clear();
        let g = self.granularity;
        self.lines.drain_page(vpn, |line, v| {
            let mask = match State::unpack(v) {
                State::Shared(m) => m,
                State::Modified(o) => 1 << (o / g),
            };
            out.push((line, mask));
        });
    }

    /// Sharer mask of `line` (modified owner counts as one sharer).
    pub fn sharers(&self, line: Line) -> SharerMask {
        match self.lines.get(line).map(State::unpack) {
            None => 0,
            Some(State::Shared(m)) => m,
            Some(State::Modified(o)) => self.bit(o),
        }
    }

    /// Whether `line` is held modified, and by whom.
    pub fn modified_owner(&self, line: Line) -> Option<u32> {
        match self.lines.get(line).map(State::unpack) {
            Some(State::Modified(o)) => Some(o),
            _ => None,
        }
    }

    /// Number of lines with directory state.
    pub fn tracked_lines(&self) -> usize {
        self.lines.len()
    }

    /// Total invalidation messages implied by write transactions.
    pub fn invalidations_sent(&self) -> u64 {
        self.invalidations_sent
    }

    /// Total dirty-owner forwards/writebacks implied by transactions.
    pub fn owner_forwards(&self) -> u64 {
        self.owner_forwards
    }

    /// Checkpoint every `(line, packed state)` entry in ascending line
    /// order plus the transaction counters. The packed state is the
    /// sharer mask, or `1 << 63 | owner` for a modified line. The
    /// storage layout (and the configured shard count) is not
    /// observable: every directory with the same entries checkpoints
    /// to the same bytes. A restore takes the shard count, granularity
    /// and footprint from the receiving directory (they are config,
    /// not state), and rejects a line past the footprint, a duplicate
    /// line, or a state that is neither a sharer mask nor a tagged
    /// owner among the machine's nodes.
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        let mut n = self.lines.len();
        c.usize(&mut n)?;
        if !c.loading() {
            for (mut line, mut v) in self.lines.iter() {
                c.u64(&mut line)?;
                c.u64(&mut v)?;
            }
        } else {
            self.lines.clear();
            for _ in 0..n {
                let (mut line, mut v) = (0, 0);
                c.u64(&mut line)?;
                c.u64(&mut v)?;
                let what = if line >= self.line_limit {
                    format!("directory line {line} is past the footprint ({} lines)", self.line_limit)
                } else if !LineTable::is_packable(v)
                    || matches!(State::unpack(v), State::Modified(o) if o >= self.nodes)
                {
                    format!("directory line {line} has state {v:#x} ({} nodes)", self.nodes)
                } else if self.lines.insert(line, v).is_some() {
                    format!("duplicate directory line {line}")
                } else {
                    continue;
                };
                return Err(c.invalid(what));
            }
        }
        for v in [&mut self.reads, &mut self.writes, &mut self.invalidations_sent, &mut self.owner_forwards] {
            c.u64(v)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ckpt_fuzz, LINES_PER_PAGE};
    use nw_sim::Pcg32;
    use std::collections::BTreeMap;

    #[test]
    fn first_read_comes_from_memory() {
        let mut d = Directory::new();
        assert_eq!(d.read(10, 0), ReadOutcome::FromMemory);
        assert_eq!(d.sharers(10), 0b1);
    }

    #[test]
    fn second_reader_shares() {
        let mut d = Directory::new();
        d.read(10, 0);
        assert_eq!(d.read(10, 3), ReadOutcome::FromMemoryShared);
        assert_eq!(d.sharers(10), 0b1001);
    }

    #[test]
    fn write_invalidates_sharers() {
        let mut d = Directory::new();
        d.read(10, 0);
        d.read(10, 1);
        d.read(10, 2);
        let w = d.write(10, 0);
        assert_eq!(w.invalidate, 0b110); // nodes 1 and 2
        assert!(!w.from_memory); // writer already shared the line
        assert_eq!(d.modified_owner(10), Some(0));
        assert_eq!(d.invalidations_sent(), 2);
    }

    #[test]
    fn write_by_non_sharer_fetches_memory() {
        let mut d = Directory::new();
        d.read(10, 1);
        let w = d.write(10, 2);
        assert_eq!(w.invalidate, 0b10);
        assert!(w.from_memory);
    }

    #[test]
    fn read_of_modified_forces_owner_writeback() {
        let mut d = Directory::new();
        d.write(10, 5);
        assert_eq!(d.read(10, 1), ReadOutcome::FromOwner { owner: 5 });
        // Both now share.
        assert_eq!(d.sharers(10), (1 << 5) | (1 << 1));
        assert_eq!(d.owner_forwards(), 1);
    }

    #[test]
    fn owner_rereads_own_line_silently() {
        let mut d = Directory::new();
        d.write(10, 5);
        assert_eq!(d.read(10, 5), ReadOutcome::FromMemoryShared);
        assert_eq!(d.modified_owner(10), Some(5));
    }

    #[test]
    fn write_to_modified_fetches_from_owner() {
        let mut d = Directory::new();
        d.write(10, 0);
        let w = d.write(10, 1);
        assert_eq!(w.fetch_from, Some(0));
        assert_eq!(w.invalidate, 0);
        assert_eq!(d.modified_owner(10), Some(1));
    }

    #[test]
    fn rewrite_by_owner_is_silent() {
        let mut d = Directory::new();
        d.write(10, 0);
        let w = d.write(10, 0);
        assert_eq!(w.fetch_from, None);
        assert_eq!(w.invalidate, 0);
        assert!(!w.from_memory);
    }

    #[test]
    fn evict_clears_state() {
        let mut d = Directory::new();
        d.read(10, 0);
        d.read(10, 1);
        d.evict(10, 0);
        assert_eq!(d.sharers(10), 0b10);
        d.evict(10, 1);
        assert_eq!(d.sharers(10), 0);
        assert_eq!(d.tracked_lines(), 0);
    }

    #[test]
    fn evict_by_non_owner_keeps_modified() {
        let mut d = Directory::new();
        d.write(10, 2);
        d.evict(10, 3); // stale message from non-owner
        assert_eq!(d.modified_owner(10), Some(2));
    }

    #[test]
    fn purge_page_returns_all_cached_lines() {
        let mut d = Directory::new();
        // Page 1 covers lines 64..128.
        d.read(64, 0);
        d.read(70, 1);
        d.write(100, 2);
        d.read(128, 3); // page 2, untouched
        let purged = d.purge_page(1);
        assert_eq!(purged.len(), 3);
        assert_eq!(purged[0], (64, 0b1));
        assert_eq!(purged[1], (70, 0b10));
        assert_eq!(purged[2], (100, 0b100));
        assert_eq!(d.tracked_lines(), 1);
        assert_eq!(d.sharers(128), 0b1000);
    }

    #[test]
    fn purge_empty_page_is_empty() {
        let mut d = Directory::new();
        assert!(d.purge_page(42).is_empty());
    }

    #[test]
    fn sharded_directory_behaves_like_single_shard() {
        // Drive the same transaction stream through 1 and 4 configured
        // shards: every outcome and counter must agree (the shard
        // count is not observable).
        let mut one = Directory::with_topology(1, 8);
        let mut four = Directory::with_topology(4, 8);
        for (line, node) in [(64u64, 0u32), (70, 1), (129, 2), (200, 3), (64, 2), (300, 0)] {
            assert_eq!(one.read(line, node), four.read(line, node), "read {line} {node}");
        }
        for (line, node) in [(64u64, 1u32), (129, 0), (300, 0)] {
            assert_eq!(one.write(line, node), four.write(line, node), "write {line} {node}");
        }
        one.evict(70, 1);
        four.evict(70, 1);
        assert_eq!(one.purge_page(1), four.purge_page(1));
        assert_eq!(one.tracked_lines(), four.tracked_lines());
        assert_eq!(one.invalidations_sent(), four.invalidations_sent());
        // Identical checkpoint bytes: the split is not observable.
        assert_eq!(ckpt_fuzz::frame(|c| one.ckpt(c)), ckpt_fuzz::frame(|c| four.ckpt(c)));
    }

    #[test]
    fn sharded_checkpoint_restores_into_any_shard_count() {
        let mut d = Directory::with_topology(3, 8);
        d.read(64, 0);
        d.write(129, 2);
        d.read(700, 1);
        let bytes = ckpt_fuzz::frame(|c| d.ckpt(c));
        let mut e = Directory::with_topology(5, 8);
        ckpt_fuzz::decode(&bytes, |c| e.ckpt(c)).unwrap();
        assert_eq!(e.tracked_lines(), 3);
        assert_eq!(e.modified_owner(129), Some(2));
        assert_eq!(e.sharers(700), 0b10);
    }

    /// The `BTreeMap` directory the page blocks replaced, kept as the
    /// reference model.
    struct MapDir {
        map: BTreeMap<Line, State>,
        g: u32,
        counters: [u64; 4],
    }

    impl MapDir {
        fn new(nodes: u32) -> Self {
            MapDir {
                map: BTreeMap::new(),
                g: nodes.div_ceil(32).max(1),
                counters: [0; 4],
            }
        }

        fn bit(&self, node: u32) -> SharerMask {
            1 << (node / self.g)
        }

        fn read(&mut self, line: Line, node: u32) -> ReadOutcome {
            self.counters[0] += 1;
            let bit = self.bit(node);
            match self.map.get(&line).copied() {
                None => {
                    self.map.insert(line, State::Shared(bit));
                    ReadOutcome::FromMemory
                }
                Some(State::Shared(mask)) => {
                    self.map.insert(line, State::Shared(mask | bit));
                    ReadOutcome::FromMemoryShared
                }
                Some(State::Modified(owner)) if owner == node => ReadOutcome::FromMemoryShared,
                Some(State::Modified(owner)) => {
                    self.map.insert(line, State::Shared(bit | self.bit(owner)));
                    self.counters[3] += 1;
                    ReadOutcome::FromOwner { owner }
                }
            }
        }

        fn write(&mut self, line: Line, node: u32) -> WriteOutcome {
            self.counters[1] += 1;
            let bit = self.bit(node);
            let (invalidate, fetch_from, from_memory) = match self.map.get(&line).copied() {
                None => (0, None, true),
                Some(State::Shared(mask)) => {
                    self.counters[2] += (mask & !bit).count_ones() as u64;
                    (mask & !bit, None, mask & bit == 0)
                }
                Some(State::Modified(owner)) if owner == node => (0, None, false),
                Some(State::Modified(owner)) => {
                    self.counters[3] += 1;
                    (0, Some(owner), false)
                }
            };
            self.map.insert(line, State::Modified(node));
            WriteOutcome {
                invalidate,
                fetch_from,
                from_memory,
            }
        }

        fn evict(&mut self, line: Line, node: u32) {
            let bit = self.bit(node);
            match self.map.get(&line).copied() {
                Some(State::Shared(mask)) if self.g == 1 => {
                    if mask & !bit == 0 {
                        self.map.remove(&line);
                    } else {
                        self.map.insert(line, State::Shared(mask & !bit));
                    }
                }
                Some(State::Modified(owner)) if owner == node => {
                    self.map.remove(&line);
                }
                _ => {}
            }
        }

        fn purge(&mut self, vpn: Vpn) -> Vec<(Line, SharerMask)> {
            let start = first_line_of_page(vpn);
            let lines: Vec<Line> = self.map.range(start..start + 64).map(|(&l, _)| l).collect();
            lines
                .into_iter()
                .map(|l| match self.map.remove(&l).expect("ranged line") {
                    State::Shared(m) => (l, m),
                    State::Modified(o) => (l, self.bit(o)),
                })
                .collect()
        }

        fn save(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
            c.usize(&mut self.map.len())?;
            for (&line, &state) in &self.map {
                c.u64(&mut { line })?;
                c.u64(&mut state.pack())?;
            }
            self.counters.iter_mut().try_for_each(|v| c.u64(v))
        }
    }

    #[test]
    fn matches_btreemap_reference() {
        // Granularity 1 (8 nodes) and coarse vectors (64 and 100 nodes:
        // 2 and 4 nodes per bit), with and without a reservation.
        for case in 0..48u64 {
            let mut rng = Pcg32::new(0xD1F0, case);
            let nodes = [8, 64, 100][case as usize % 3];
            let pages = 6;
            let mut d = Directory::with_topology(1 + case as usize % 3, nodes);
            if case % 2 == 0 {
                d.reserve(pages, 3);
            }
            let mut model = MapDir::new(nodes);
            for batch in 0..30 {
                let mut purged = Vec::new();
                for _ in 0..40 {
                    let line = rng.gen_range(0, pages * LINES_PER_PAGE);
                    let node = rng.gen_below(nodes);
                    match rng.gen_below(20) {
                        0..=8 => assert_eq!(d.read(line, node), model.read(line, node)),
                        9..=14 => assert_eq!(d.write(line, node), model.write(line, node)),
                        15..=18 => {
                            d.evict(line, node);
                            model.evict(line, node);
                        }
                        _ => {
                            let vpn = rng.gen_range(0, pages);
                            d.purge_page_into(vpn, &mut purged);
                            assert_eq!(purged, model.purge(vpn), "case {case}: purge {vpn}");
                        }
                    }
                }
                let ctx = format!("case {case} batch {batch}");
                assert_eq!(d.tracked_lines(), model.map.len(), "{ctx}");
                assert_eq!(
                    ckpt_fuzz::payload(|c| d.ckpt(c)),
                    ckpt_fuzz::payload(|c| model.save(c)),
                    "{ctx}: checkpoint bytes"
                );
            }
        }
    }

    /// A directory for a `pages`-page footprint, restored from `bytes`.
    fn restore_into(pages: u64, bytes: &[u8]) -> (Directory, Result<(), CkptError>) {
        let mut d = Directory::with_topology(2, 8);
        d.reserve(pages, 2);
        let res = ckpt_fuzz::decode(bytes, |c| d.ckpt(c));
        (d, res)
    }

    #[test]
    fn restore_rejects_lines_past_the_footprint_and_bad_states() {
        let frame = |entries: &[(u64, u64)]| {
            ckpt_fuzz::frame(|c| {
                c.usize(&mut entries.len())?;
                for mut v in entries.iter().flat_map(|&(line, v)| [line, v]).chain([0; 4]) {
                    c.u64(&mut v)?;
                }
                Ok(())
            })
        };
        // 4 pages = lines 0..256.
        assert!(restore_into(4, &frame(&[(0, 1), (255, TAG | 3)])).1.is_ok());
        for (entries, needle) in [
            (vec![(256, 1)], "past the footprint"),
            (vec![(u64::MAX, 1)], "past the footprint"),
            (vec![(7, 1 << 40)], "state"),
            (vec![(7, TAG | 8)], "state"),
            (vec![(7, 1), (7, 2)], "duplicate"),
        ] {
            match restore_into(4, &frame(&entries)).1 {
                Err(CkptError::Invalid { what, .. }) => assert!(what.contains(needle), "{what}"),
                other => panic!("{entries:?}: expected Invalid({needle}), got {other:?}"),
            }
        }
    }

    #[test]
    fn restore_survives_seeded_mutations() {
        let mut source = Directory::with_topology(1, 8);
        source.reserve(4, 4);
        for (line, node) in [(3u64, 0u32), (64, 1), (64, 2), (130, 5), (255, 7)] {
            source.read(line, node);
        }
        source.write(70, 3);
        source.write(200, 6);
        let valid = ckpt_fuzz::payload(|c| source.ckpt(c));
        for case in 0..ckpt_fuzz::CASES {
            let (bytes, must_fail) = ckpt_fuzz::mutated(&valid, 0xD1F1, case);
            let (mut d, res) = restore_into(4, &bytes);
            assert!(!(must_fail && res.is_ok()), "case {case} decoded");
            if res.is_ok() {
                // Whatever was accepted lies inside the footprint, saves
                // back to what it loaded, and keeps working.
                assert!(d.tracked_lines() <= 256, "case {case}");
                let saved = ckpt_fuzz::frame(|c| d.ckpt(c));
                let (_, again) = restore_into(4, &saved);
                again.expect("re-save restores");
                for vpn in 0..4 {
                    d.read(first_line_of_page(vpn), 1);
                    d.purge_page(vpn);
                }
                assert_eq!(d.tracked_lines(), 0, "case {case}");
            }
        }
    }

    #[test]
    fn coarse_vector_groups_nodes_past_32() {
        // 64 nodes: 2 nodes per sharer bit.
        let mut d = Directory::with_topology(1, 64);
        assert_eq!(d.granularity(), 2);
        d.read(10, 0);
        d.read(10, 1); // same group as node 0
        d.read(10, 63); // group 31
        assert_eq!(d.sharers(10), 0b1 | (1 << 31));
        // A write by node 40 (group 20) invalidates groups 0 and 31.
        let w = d.write(10, 40);
        assert_eq!(w.invalidate, 0b1 | (1 << 31));
        // Modified owner stays node-precise.
        assert_eq!(d.modified_owner(10), Some(40));
        let r = d.read(10, 0);
        assert_eq!(r, ReadOutcome::FromOwner { owner: 40 });
        assert_eq!(d.sharers(10), 0b1 | (1 << 20));
    }

    #[test]
    fn coarse_clean_evict_is_conservative() {
        let mut d = Directory::with_topology(1, 64);
        d.read(10, 4);
        d.read(10, 5); // same group (2)
        d.evict(10, 4);
        // The group bit must survive: node 5 still shares the line.
        assert_eq!(d.sharers(10), 0b100);
        // A modified owner's eviction is still precise.
        d.write(20, 7);
        d.evict(20, 6); // same group, not the owner: ignored
        assert_eq!(d.modified_owner(20), Some(7));
        d.evict(20, 7);
        assert_eq!(d.sharers(20), 0);
    }

    #[test]
    fn expand_mask_enumerates_group_members() {
        let d = Directory::with_topology(1, 64);
        let mut nodes = Vec::new();
        d.expand_mask(0b1 | (1 << 31), 64, |n| nodes.push(n));
        assert_eq!(nodes, vec![0, 1, 62, 63]);
        // Precise directory: expansion is the identity.
        let d = Directory::with_topology(1, 8);
        let mut nodes = Vec::new();
        d.expand_mask(0b1011, 8, |n| nodes.push(n));
        assert_eq!(nodes, vec![0, 1, 3]);
        // The last group is clipped to the node count.
        let d = Directory::with_topology(1, 33); // granularity 2
        let mut nodes = Vec::new();
        d.expand_mask(1 << 16, 33, |n| nodes.push(n));
        assert_eq!(nodes, vec![32]);
    }
}
