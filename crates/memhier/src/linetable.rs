//! Page-indexed table mapping cache lines to packed directory state.
//!
//! The directory consults one entry per coherence transaction — every
//! L2 miss in the machine lands here — and purges a whole page at
//! every page replacement, so the container keeps each page's lines
//! together and reaches any line in one probe:
//!
//! * **Page blocks.** A `vpn → block` index points into a slab of
//!   per-page blocks. A block holds the page's 64 line values as `u32`s
//!   plus two `u64` bitmaps: which lines are present, and which carry
//!   the [`TAG`] bit. A lookup is one index load and one bit test.
//! * **Recycling.** A block goes back on a free list when its page's
//!   last line leaves, so the slab only ever holds pages that have
//!   state. Reserving it once ([`LineTable::with_capacity`]) keeps the
//!   steady state allocation-free.
//! * **Ordered purges and iteration.** A page purge walks one
//!   occupancy word, which yields its lines in ascending order; full
//!   iteration walks the index in page order, so it is ascending too.
//!
//! The index is dense over page numbers: its size follows the highest
//! page ever stored, so callers bound the pages they store (the
//! directory rejects checkpoint lines beyond the machine footprint).

use crate::{first_line_of_page, page_of_line, Line, Vpn, LINES_PER_PAGE};

/// Tag bit of a packed value. A value is a `u32` payload, optionally
/// with this bit set; no other bits may be set (see
/// [`LineTable::is_packable`]).
pub const TAG: u64 = 1 << 63;

/// Index entry of a page without a block.
const NONE: u32 = u32::MAX;

/// The lines of one page.
#[derive(Debug, Clone)]
struct Block {
    /// Bit `i` set: line `i` of the page is present.
    occupied: u64,
    /// Bit `i` set: line `i`'s value carries [`TAG`].
    tagged: u64,
    /// Payloads, valid where `occupied` is set.
    vals: [u32; LINES_PER_PAGE as usize],
}

impl Block {
    const EMPTY: Block = Block {
        occupied: 0,
        tagged: 0,
        vals: [0; LINES_PER_PAGE as usize],
    };

    #[inline]
    fn get(&self, bit: u32) -> Option<u64> {
        if self.occupied >> bit & 1 == 0 {
            return None;
        }
        let tag = if self.tagged >> bit & 1 != 0 { TAG } else { 0 };
        Some(tag | self.vals[bit as usize] as u64)
    }

    #[inline]
    fn set(&mut self, bit: u32, v: u64) {
        assert!(LineTable::is_packable(v), "value {v:#x} is not a tagged u32");
        let m = 1u64 << bit;
        self.occupied |= m;
        self.tagged = if v & TAG != 0 { self.tagged | m } else { self.tagged & !m };
        self.vals[bit as usize] = v as u32;
    }

    #[inline]
    fn clear(&mut self, bit: u32) {
        let m = !(1u64 << bit);
        self.occupied &= m;
        self.tagged &= m;
    }
}

/// A map from [`Line`] to a packed value (a `u32`, optionally tagged
/// with [`TAG`]), stored as one block per page.
///
/// The empty table allocates nothing.
#[derive(Debug, Default, Clone)]
pub struct LineTable {
    /// `vpn → block`, [`NONE`] where the page has no lines.
    index: Vec<u32>,
    blocks: Vec<Block>,
    /// Blocks whose page emptied, ready for reuse.
    free: Vec<u32>,
    len: usize,
}

impl LineTable {
    /// An empty table (no allocation until the first insert).
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty table whose index already covers pages `0..pages` and
    /// whose slab holds `resident` page blocks before it grows.
    pub fn with_capacity(pages: usize, resident: usize) -> Self {
        LineTable {
            index: vec![NONE; pages],
            blocks: Vec::with_capacity(resident),
            free: Vec::with_capacity(resident),
            len: 0,
        }
    }

    /// Whether `v` fits the table: a `u32` payload plus at most the
    /// [`TAG`] bit.
    pub const fn is_packable(v: u64) -> bool {
        v & !(TAG | u32::MAX as u64) == 0
    }

    /// Number of lines present.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no lines.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lines the slab holds before it must grow (0 before the first
    /// insert).
    pub fn capacity(&self) -> usize {
        self.blocks.capacity() * LINES_PER_PAGE as usize
    }

    /// Drop every line, keeping the allocations.
    pub fn clear(&mut self) {
        self.index.fill(NONE);
        self.blocks.clear();
        self.free.clear();
        self.len = 0;
    }

    #[inline]
    fn split(line: Line) -> (Vpn, u32) {
        (page_of_line(line), (line % LINES_PER_PAGE) as u32)
    }

    /// Block of page `vpn`, if it has one.
    #[inline]
    fn block_of(&self, vpn: Vpn) -> Option<usize> {
        match self.index.get(vpn as usize) {
            Some(&b) if b != NONE => Some(b as usize),
            _ => None,
        }
    }

    /// Give page `vpn` an empty block (from the free list if any).
    fn acquire(&mut self, vpn: Vpn) -> usize {
        let slot = vpn as usize;
        if slot >= self.index.len() {
            self.index.resize(slot + 1, NONE);
        }
        let b = match self.free.pop() {
            Some(b) => b,
            None => {
                self.blocks.push(Block::EMPTY);
                (self.blocks.len() - 1) as u32
            }
        };
        self.index[slot] = b;
        b as usize
    }

    /// Return page `vpn`'s (now empty) block `b` to the free list.
    fn release(&mut self, vpn: Vpn, b: usize) {
        debug_assert_eq!(self.blocks[b].occupied, 0);
        self.index[vpn as usize] = NONE;
        self.free.push(b as u32);
    }

    /// Value of `line`, if present.
    #[inline]
    pub fn get(&self, line: Line) -> Option<u64> {
        let (vpn, bit) = Self::split(line);
        self.block_of(vpn).and_then(|b| self.blocks[b].get(bit))
    }

    /// Read-modify-write `line` in one probe: `f` sees the current
    /// value (`None` if absent) and may replace it, insert one or clear
    /// it to `None`. Returns what `f` returns.
    ///
    /// # Panics
    /// Panics if `f` stores a value that is not
    /// [packable](Self::is_packable).
    #[inline]
    pub fn update<R>(&mut self, line: Line, f: impl FnOnce(&mut Option<u64>) -> R) -> R {
        let (vpn, bit) = Self::split(line);
        let Some(b) = self.block_of(vpn) else {
            let mut e = None;
            let r = f(&mut e);
            if let Some(v) = e {
                let b = self.acquire(vpn);
                self.blocks[b].set(bit, v);
                self.len += 1;
            }
            return r;
        };
        let block = &mut self.blocks[b];
        let old = block.get(bit);
        let mut e = old;
        let r = f(&mut e);
        match (old, e) {
            (_, Some(v)) => {
                block.set(bit, v);
                self.len += old.is_none() as usize;
            }
            (Some(_), None) => {
                block.clear(bit);
                self.len -= 1;
                if block.occupied == 0 {
                    self.release(vpn, b);
                }
            }
            (None, None) => {}
        }
        r
    }

    /// Insert or overwrite; returns the previous value if any.
    ///
    /// # Panics
    /// Panics if `val` is not [packable](Self::is_packable).
    pub fn insert(&mut self, line: Line, val: u64) -> Option<u64> {
        self.update(line, |e| e.replace(val))
    }

    /// Remove `line`, returning its value if present.
    pub fn remove(&mut self, line: Line) -> Option<u64> {
        self.update(line, Option::take)
    }

    /// Remove every line of page `vpn`, calling `f` with each line and
    /// its value in ascending line order.
    pub fn drain_page(&mut self, vpn: Vpn, mut f: impl FnMut(Line, u64)) {
        let Some(b) = self.block_of(vpn) else {
            return;
        };
        let start = first_line_of_page(vpn);
        let block = &mut self.blocks[b];
        let mut occ = block.occupied;
        self.len -= occ.count_ones() as usize;
        while occ != 0 {
            let bit = occ.trailing_zeros();
            occ &= occ - 1;
            let v = block.get(bit).expect("occupied bit");
            f(start + bit as u64, v);
        }
        block.occupied = 0;
        block.tagged = 0;
        self.release(vpn, b);
    }

    /// Visit every entry in ascending line order.
    pub fn iter(&self) -> impl Iterator<Item = (Line, u64)> + '_ {
        self.index
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b != NONE)
            .flat_map(move |(vpn, &b)| {
                let block = &self.blocks[b as usize];
                let start = first_line_of_page(vpn as Vpn);
                let mut occ = block.occupied;
                std::iter::from_fn(move || {
                    if occ == 0 {
                        return None;
                    }
                    let bit = occ.trailing_zeros();
                    occ &= occ - 1;
                    Some((start + bit as u64, block.get(bit).expect("occupied bit")))
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_table_allocates_nothing() {
        let t = LineTable::new();
        assert_eq!(t.capacity(), 0);
        assert_eq!(t.get(0), None);
        assert!(t.is_empty());
    }

    #[test]
    fn insert_get_overwrite() {
        let mut t = LineTable::new();
        assert_eq!(t.insert(42, 7), None);
        assert_eq!(t.get(42), Some(7));
        assert_eq!(t.insert(42, TAG | 9), Some(7));
        assert_eq!(t.get(42), Some(TAG | 9));
        assert_eq!(t.insert(42, 9), Some(TAG | 9));
        assert_eq!(t.get(42), Some(9), "overwrite clears the tag");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = LineTable::new();
        t.insert(5, 1);
        t.update(5, |e| *e = e.map(|v| v | 0b100));
        assert_eq!(t.get(5), Some(0b101));
        assert!(!t.update(6, |e| e.is_some()));
        assert_eq!(t.get(6), None, "a no-op update on an absent line adds nothing");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn remove_keeps_page_neighbours() {
        let mut t = LineTable::new();
        // Lines of one page: exactly the directory's load.
        for l in 0..64u64 {
            t.insert(l, l + 1);
        }
        // Remove odds, then every even must still be reachable.
        for l in (1..64u64).step_by(2) {
            assert_eq!(t.remove(l), Some(l + 1));
        }
        for l in (0..64u64).step_by(2) {
            assert_eq!(t.get(l), Some(l + 1), "line {l} lost after removals");
        }
        assert_eq!(t.len(), 32);
        assert_eq!(t.remove(999), None);
    }

    #[test]
    fn emptied_blocks_are_recycled() {
        let mut t = LineTable::with_capacity(16, 2);
        t.insert(0, 1); // page 0
        t.insert(64, 2); // page 1
        assert_eq!(t.remove(0), Some(1));
        let mut drained = Vec::new();
        t.drain_page(1, |l, v| drained.push((l, v)));
        assert_eq!(drained, vec![(64, 2)]);
        assert!(t.is_empty());
        // Both blocks are back on the free list: new pages reuse them.
        t.insert(5 * 64, 3);
        t.insert(9 * 64 + 63, TAG | 4);
        assert_eq!(t.capacity(), 2 * 64);
        assert_eq!(t.get(5 * 64), Some(3));
        assert_eq!(t.get(9 * 64 + 63), Some(TAG | 4));
    }

    #[test]
    fn iter_visits_every_entry_once() {
        let mut t = LineTable::new();
        for l in (0..100u64).rev() {
            t.insert(l * 3, l);
        }
        let seen: Vec<_> = t.iter().collect();
        assert_eq!(seen.len(), 100);
        for (i, (k, v)) in seen.into_iter().enumerate() {
            assert_eq!((k, v), (i as u64 * 3, i as u64), "ascending line order");
        }
    }

    #[test]
    #[should_panic(expected = "not a tagged u32")]
    fn unpackable_value_rejected() {
        LineTable::new().insert(1, 1 << 40);
    }
}
