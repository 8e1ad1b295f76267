//! Translation lookaside buffer with shootdown support.
//!
//! The paper's VM system keeps a machine-wide page table; every time a
//! page's access rights are downgraded (e.g. it is chosen for
//! replacement) a *TLB shootdown* interrupts all other processors,
//! which must delete their entry for the page (§3.1). The TLB model
//! here is fully associative with true-LRU replacement; the shootdown
//! latencies themselves (100/500/400 pcycles) are charged by the
//! machine model.
//!
//! **Layout.** The entries live in one vector, appended on insert and
//! `swap_remove`d on eviction or shootdown; their `(vpn, last_use)`
//! pairs in that order are what `nwckpt-v1` records. Two derived
//! structures make `lookup`, `insert` and `invalidate` O(1)
//! (DESIGN.md §11):
//!
//! * a vpn → entry hash index (open addressing, at most half full,
//!   backward-shift deletion);
//! * a recency list threading the entries, through `prev`/`next`
//!   links stored in each entry, from least to most recently used.
//!
//! The list is exact LRU: every touch stamps a fresh, strictly
//! increasing `last_use` and moves the entry to the tail, so the head
//! is always the entry with the minimum `last_use` — the victim a
//! linear `min_by_key` scan would pick. Neither structure is saved; a
//! restore rebuilds both.

use crate::Vpn;
use nw_sim::ckpt::{Ckpt, CkptError};

/// `2^64 / phi`, the Fibonacci hashing multiplier.
const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// End of the recency list; also an empty hash slot's marker.
const NIL: u32 = u32::MAX;

/// One cached translation and its recency-list links.
#[derive(Debug, Clone, Copy)]
struct Entry {
    vpn: Vpn,
    last_use: u64,
    /// Next-older entry's position ([`NIL`] at the head).
    prev: u32,
    /// Next-newer entry's position ([`NIL`] at the tail).
    next: u32,
}

/// A fully associative, LRU translation lookaside buffer.
#[derive(Debug, Clone)]
pub struct Tlb {
    capacity: usize,
    /// Length <= capacity.
    entries: Vec<Entry>,
    clock: u64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    /// Hash slots holding entry positions ([`NIL`] = empty); a power
    /// of two at least twice the capacity.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: the hash's top bits pick a slot.
    shift: u32,
    /// Least recently used entry's position.
    head: u32,
    /// Most recently used entry's position.
    tail: u32,
}

impl Tlb {
    /// A TLB with `capacity` entries.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB must have at least one entry");
        let nslots = (capacity * 2).next_power_of_two();
        Tlb {
            capacity,
            entries: Vec::with_capacity(capacity),
            clock: 0,
            hits: 0,
            misses: 0,
            invalidations: 0,
            slots: vec![NIL; nslots],
            shift: 64 - nslots.trailing_zeros(),
            head: NIL,
            tail: NIL,
        }
    }

    #[inline]
    fn ideal_slot(&self, vpn: Vpn) -> usize {
        (vpn.wrapping_mul(HASH_MUL) >> self.shift) as usize
    }

    /// `(hash slot, entry position)` of `vpn`, if cached.
    #[inline]
    fn find(&self, vpn: Vpn) -> Option<(usize, usize)> {
        let mask = self.slots.len() - 1;
        let mut i = self.ideal_slot(vpn);
        loop {
            let pos = self.slots[i];
            if pos == NIL {
                return None;
            }
            if self.entries[pos as usize].vpn == vpn {
                return Some((i, pos as usize));
            }
            i = (i + 1) & mask;
        }
    }

    /// Point a free hash slot for `vpn` at entry `pos`.
    fn index_insert(&mut self, vpn: Vpn, pos: usize) {
        let mask = self.slots.len() - 1;
        let mut i = self.ideal_slot(vpn);
        while self.slots[i] != NIL {
            i = (i + 1) & mask;
        }
        self.slots[i] = pos as u32;
    }

    /// Empty hash slot `slot`, shifting displaced slots back over the
    /// hole (no tombstones).
    fn index_remove(&mut self, slot: usize) {
        let mask = self.slots.len() - 1;
        let mut hole = slot;
        let mut j = slot;
        loop {
            j = (j + 1) & mask;
            let pos = self.slots[j];
            if pos == NIL {
                break;
            }
            // The slot at `j` may fill the hole iff that does not move
            // it before its ideal slot.
            let ideal = self.ideal_slot(self.entries[pos as usize].vpn);
            if (j.wrapping_sub(ideal) & mask) >= (j.wrapping_sub(hole) & mask) {
                self.slots[hole] = pos;
                hole = j;
            }
        }
        self.slots[hole] = NIL;
    }

    /// Make the neighbours of the entry at `pos` point at `pos`.
    fn link_neighbours(&mut self, pos: usize) {
        let Entry { prev, next, .. } = self.entries[pos];
        match prev {
            NIL => self.head = pos as u32,
            p => self.entries[p as usize].next = pos as u32,
        }
        match next {
            NIL => self.tail = pos as u32,
            n => self.entries[n as usize].prev = pos as u32,
        }
    }

    fn unlink(&mut self, pos: usize) {
        let Entry { prev, next, .. } = self.entries[pos];
        match prev {
            NIL => self.head = next,
            p => self.entries[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.entries[n as usize].prev = prev,
        }
    }

    fn push_back(&mut self, pos: usize) {
        self.entries[pos].prev = self.tail;
        self.entries[pos].next = NIL;
        self.link_neighbours(pos);
    }

    /// Stamp entry `pos` as the most recently used.
    #[inline]
    fn touch(&mut self, pos: usize) {
        self.entries[pos].last_use = self.clock;
        if self.tail != pos as u32 {
            self.unlink(pos);
            self.push_back(pos);
        }
    }

    /// Drop the entry at `pos` (hash slot `slot`) by `swap_remove`,
    /// re-pointing the index and list at the entry moved into `pos`.
    fn remove_at(&mut self, slot: usize, pos: usize) {
        self.index_remove(slot);
        self.unlink(pos);
        let last = self.entries.len() - 1;
        if pos != last {
            let (moved, _) = self.find(self.entries[last].vpn).expect("indexed entry");
            self.slots[moved] = pos as u32;
            self.entries.swap(pos, last);
            self.link_neighbours(pos);
        }
        self.entries.pop();
    }

    /// Look up `vpn`, updating LRU state. Returns `true` on a hit.
    /// On a miss the entry is *not* inserted — callers insert after the
    /// page-table walk succeeds (the page may not be resident at all).
    #[inline]
    pub fn lookup(&mut self, vpn: Vpn) -> bool {
        self.clock += 1;
        if let Some((_, pos)) = self.find(vpn) {
            self.touch(pos);
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Insert a translation for `vpn`, evicting the LRU entry if full.
    /// Returns the VPN evicted to make room, if any.
    pub fn insert(&mut self, vpn: Vpn) -> Option<Vpn> {
        self.clock += 1;
        if let Some((_, pos)) = self.find(vpn) {
            self.touch(pos);
            return None;
        }
        let mut evicted = None;
        if self.entries.len() == self.capacity {
            let lru = self.head as usize;
            let victim = self.entries[lru].vpn;
            let (slot, _) = self.find(victim).expect("indexed entry");
            self.remove_at(slot, lru);
            evicted = Some(victim);
        }
        let pos = self.entries.len();
        self.entries.push(Entry {
            vpn,
            last_use: self.clock,
            prev: NIL,
            next: NIL,
        });
        self.index_insert(vpn, pos);
        self.push_back(pos);
        evicted
    }

    /// Remove the entry for `vpn` (TLB shootdown). Returns `true` if an
    /// entry was present — only then does the processor pay the
    /// shootdown interrupt.
    pub fn invalidate(&mut self, vpn: Vpn) -> bool {
        if let Some((slot, pos)) = self.find(vpn) {
            self.remove_at(slot, pos);
            self.invalidations += 1;
            true
        } else {
            false
        }
    }

    /// Whether `vpn` is currently cached (no LRU update).
    pub fn contains(&self, vpn: Vpn) -> bool {
        self.find(vpn).is_some()
    }

    /// The cached VPNs, in storage order.
    pub fn vpns(&self) -> impl Iterator<Item = Vpn> + '_ {
        self.entries.iter().map(|e| e.vpn)
    }

    /// Number of valid entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no translations are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total lookup hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Total lookup misses.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Total successful invalidations.
    pub fn invalidations(&self) -> u64 {
        self.invalidations
    }

    /// Checkpoint the dynamic state. Entries are saved exactly as
    /// stored — append order as permuted by `swap_remove` — which is
    /// the order `nwckpt-v1` has always recorded; the derived index
    /// and recency links are not saved but rebuilt on restore, onto a
    /// TLB of the same capacity. A restore rejects a duplicate VPN, a
    /// repeated `last_use` or one past the clock: no writer produces
    /// them, and exact LRU needs unique stamps. On error the TLB is
    /// unchanged.
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        let mut entries: Vec<(Vpn, u64)> = self.entries.iter().map(|e| (e.vpn, e.last_use)).collect();
        c.list(&mut entries, self.capacity, 2, "TLB entries", |c, (vpn, last_use)| {
            c.u64(vpn)?;
            c.u64(last_use)
        })?;
        let mut clock = self.clock;
        let mut counters = [self.hits, self.misses, self.invalidations];
        c.u64(&mut clock)?;
        counters.iter_mut().try_for_each(|v| c.u64(v))?;
        if !c.loading() {
            return Ok(());
        }
        let mut vpns: Vec<Vpn> = entries.iter().map(|e| e.0).collect();
        vpns.sort_unstable();
        let mut stamps: Vec<u64> = entries.iter().map(|e| e.1).collect();
        stamps.sort_unstable();
        if let Some(w) = vpns.windows(2).find(|w| w[0] == w[1]) {
            return Err(c.invalid(format!("TLB caches vpn {} twice", w[0])));
        } else if let Some(w) = stamps.windows(2).find(|w| w[0] == w[1]) {
            return Err(c.invalid(format!("TLB last-use stamp {} repeats", w[0])));
        } else if stamps.last().is_some_and(|&s| s > clock) {
            return Err(c.invalid(format!("TLB last-use stamp passes the clock {clock}")));
        }
        self.entries = entries
            .into_iter()
            .map(|(vpn, last_use)| Entry {
                vpn,
                last_use,
                prev: NIL,
                next: NIL,
            })
            .collect();
        self.clock = clock;
        [self.hits, self.misses, self.invalidations] = counters;
        self.rebuild();
        Ok(())
    }

    /// Rebuild the hash index and recency list from `entries`.
    fn rebuild(&mut self) {
        self.slots.fill(NIL);
        for pos in 0..self.entries.len() {
            self.index_insert(self.entries[pos].vpn, pos);
        }
        let mut by_age: Vec<usize> = (0..self.entries.len()).collect();
        by_age.sort_unstable_by_key(|&pos| self.entries[pos].last_use);
        self.head = NIL;
        self.tail = NIL;
        for pos in by_age {
            self.push_back(pos);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ckpt_fuzz;
    use nw_sim::Pcg32;

    #[test]
    fn miss_then_hit() {
        let mut tlb = Tlb::new(4);
        assert!(!tlb.lookup(10));
        tlb.insert(10);
        assert!(tlb.lookup(10));
        assert_eq!(tlb.hits(), 1);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn lru_eviction_order() {
        let mut tlb = Tlb::new(2);
        tlb.insert(1);
        tlb.insert(2);
        assert!(tlb.lookup(1)); // 2 is now LRU
        tlb.insert(3); // evicts 2
        assert!(tlb.contains(1));
        assert!(!tlb.contains(2));
        assert!(tlb.contains(3));
    }

    #[test]
    fn insert_existing_refreshes() {
        let mut tlb = Tlb::new(2);
        tlb.insert(1);
        tlb.insert(2);
        tlb.insert(1); // refresh, not duplicate
        assert_eq!(tlb.len(), 2);
        tlb.insert(3); // evicts 2 (LRU), not 1
        assert!(tlb.contains(1));
        assert!(!tlb.contains(2));
    }

    #[test]
    fn shootdown_removes_entry() {
        let mut tlb = Tlb::new(4);
        tlb.insert(7);
        assert!(tlb.invalidate(7));
        assert!(!tlb.invalidate(7)); // already gone
        assert!(!tlb.contains(7));
        assert_eq!(tlb.invalidations(), 1);
    }

    #[test]
    fn capacity_respected() {
        let mut tlb = Tlb::new(8);
        for v in 0..100 {
            tlb.insert(v);
        }
        assert_eq!(tlb.len(), 8);
        // The most recent 8 survive under LRU.
        for v in 92..100 {
            assert!(tlb.contains(v), "missing {v}");
        }
    }

    /// The linear-scan TLB the O(1) structure replaced, kept as the
    /// reference model: hits scan the entries front to back and a full
    /// insert evicts the first entry with the minimum `last_use`.
    struct ScanTlb {
        capacity: usize,
        entries: Vec<(Vpn, u64)>,
        clock: u64,
        hits: u64,
        misses: u64,
        invalidations: u64,
    }

    impl ScanTlb {
        fn new(capacity: usize) -> Self {
            ScanTlb {
                capacity,
                entries: Vec::new(),
                clock: 0,
                hits: 0,
                misses: 0,
                invalidations: 0,
            }
        }

        fn lookup(&mut self, vpn: Vpn) -> bool {
            self.clock += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == vpn) {
                e.1 = self.clock;
                self.hits += 1;
                true
            } else {
                self.misses += 1;
                false
            }
        }

        fn insert(&mut self, vpn: Vpn) -> Option<Vpn> {
            self.clock += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == vpn) {
                e.1 = self.clock;
                return None;
            }
            let mut evicted = None;
            if self.entries.len() == self.capacity {
                let lru = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].1)
                    .expect("full implies non-empty");
                evicted = Some(self.entries.swap_remove(lru).0);
            }
            self.entries.push((vpn, self.clock));
            evicted
        }

        fn invalidate(&mut self, vpn: Vpn) -> bool {
            let i = self.entries.iter().position(|e| e.0 == vpn);
            if let Some(i) = i {
                self.entries.swap_remove(i);
                self.invalidations += 1;
            }
            i.is_some()
        }

        fn contains(&self, vpn: Vpn) -> bool {
            self.entries.iter().any(|e| e.0 == vpn)
        }

        fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
            c.list(&mut self.entries, self.capacity, 2, "TLB entries", |c, (vpn, last_use)| {
                c.u64(vpn)?;
                c.u64(last_use)
            })?;
            for v in [&mut self.clock, &mut self.hits, &mut self.misses, &mut self.invalidations] {
                c.u64(v)?;
            }
            Ok(())
        }
    }

    /// A fresh TLB restored from `tlb`'s checkpoint, which must save
    /// back to the same bytes.
    fn restored(tlb: &mut Tlb) -> Tlb {
        let mut back = Tlb::new(tlb.capacity);
        let bytes = ckpt_fuzz::frame(|c| tlb.ckpt(c));
        ckpt_fuzz::decode(&bytes, |c| back.ckpt(c)).expect("round trip");
        assert_eq!(ckpt_fuzz::frame(|c| back.ckpt(c)), bytes);
        back
    }

    #[test]
    fn matches_linear_scan_reference() {
        // Cases 64.. repeat the previous VPN about 60% of the time, as
        // a processor does within a page run, so most lookups hit the
        // most recently used entry.
        for case in 0..128u64 {
            let mut rng = Pcg32::new(0x71B0, case);
            let capacity = [1, 2, 3, 8, 64][case as usize % 5];
            let vpns = 1 + rng.gen_range(0, 3 * capacity as u64);
            let runs = case >= 64;
            let mut tlb = Tlb::new(capacity);
            let mut model = ScanTlb::new(capacity);
            let mut prev = 0;
            for batch in 0..20 {
                for _ in 0..50 {
                    let vpn = if runs && rng.gen_below(10) < 6 {
                        prev
                    } else {
                        rng.gen_range(0, vpns)
                    };
                    prev = vpn;
                    match rng.gen_below(10) {
                        0..=3 => assert_eq!(tlb.lookup(vpn), model.lookup(vpn)),
                        4..=6 => assert_eq!(tlb.insert(vpn), model.insert(vpn)),
                        7 | 8 => assert_eq!(tlb.invalidate(vpn), model.invalidate(vpn)),
                        _ => assert_eq!(tlb.contains(vpn), model.contains(vpn)),
                    }
                }
                let ctx = format!("case {case} batch {batch}");
                assert_eq!(tlb.len(), model.entries.len(), "{ctx}");
                assert_eq!(
                    (tlb.hits(), tlb.misses(), tlb.invalidations()),
                    (model.hits, model.misses, model.invalidations),
                    "{ctx}"
                );
                assert_eq!(
                    ckpt_fuzz::payload(|c| tlb.ckpt(c)),
                    ckpt_fuzz::payload(|c| model.ckpt(c)),
                    "{ctx}: checkpoint bytes"
                );
                // Mid-sequence, continue on a restored copy: the
                // rebuilt index and recency list must carry on exactly.
                if batch == 10 {
                    tlb = restored(&mut tlb);
                }
            }
        }
    }

    fn checkpointed(capacity: usize, vpns: &[Vpn]) -> Tlb {
        let mut tlb = Tlb::new(capacity);
        for &v in vpns {
            if !tlb.lookup(v) {
                tlb.insert(v);
            }
        }
        tlb
    }

    #[test]
    fn restore_rejects_duplicates_and_stale_stamps() {
        let frame = |entries: &[(u64, u64)], clock: u64| {
            ckpt_fuzz::frame(|c| {
                c.usize(&mut entries.len())?;
                for mut v in entries.iter().flat_map(|&(vpn, last_use)| [vpn, last_use]) {
                    c.u64(&mut v)?;
                }
                for mut v in [clock, 0, 0, 0] {
                    c.u64(&mut v)?;
                }
                Ok(())
            })
        };
        let reject = |bytes: &[u8], needle: &str| {
            let mut tlb = checkpointed(4, &[1, 2, 3]);
            let before = ckpt_fuzz::payload(|c| tlb.ckpt(c));
            match ckpt_fuzz::decode(bytes, |c| tlb.ckpt(c)) {
                Err(CkptError::Invalid { what, .. }) => assert!(what.contains(needle), "{what}"),
                other => panic!("expected Invalid({needle}), got {other:?}"),
            }
            assert_eq!(ckpt_fuzz::payload(|c| tlb.ckpt(c)), before, "TLB unchanged");
        };
        reject(&frame(&[(5, 1), (5, 2)], 9), "twice");
        reject(&frame(&[(5, 3), (6, 3)], 9), "repeats");
        reject(&frame(&[(5, 3), (6, 10)], 9), "clock");
        reject(&frame(&[(1, 1), (2, 2), (3, 3), (4, 4), (5, 5)], 9), "capacity");
    }

    #[test]
    fn restore_survives_seeded_mutations() {
        let mut source = checkpointed(8, &[3, 9, 3, 14, 2, 7, 9, 30, 31, 1, 3, 5]);
        let valid = ckpt_fuzz::payload(|c| source.ckpt(c));
        for case in 0..ckpt_fuzz::CASES {
            let (bytes, must_fail) = ckpt_fuzz::mutated(&valid, 0x71B1, case);
            let mut tlb = Tlb::new(8);
            let res = ckpt_fuzz::decode(&bytes, |c| tlb.ckpt(c));
            assert!(!(must_fail && res.is_ok()), "case {case} decoded");
            if res.is_ok() {
                // Whatever was accepted is a consistent TLB: it keeps
                // working and saves back to what it loaded.
                assert!(tlb.len() <= 8, "case {case}");
                let again = restored(&mut tlb);
                for v in 0..40 {
                    if !tlb.lookup(v) {
                        tlb.insert(v);
                    }
                    tlb.invalidate(v / 2);
                }
                assert!(again.len() <= 8 && tlb.len() <= 8, "case {case}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        Tlb::new(0);
    }
}
