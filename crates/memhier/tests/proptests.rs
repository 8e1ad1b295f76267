//! Randomized property tests for memory-hierarchy invariants, driven
//! by the in-tree deterministic [`Pcg32`].

use nw_memhier::{
    first_line_of_page, page_of_line, Cache, CacheConfig, Directory, Evicted, LineTable, Tlb,
    LINES_PER_PAGE,
};
use nw_sim::ckpt::{Ckpt, CkptError, CkptWriter};
use nw_sim::Pcg32;
use std::collections::BTreeMap;

const CASES: u64 = 48;

fn tiny_cache() -> Cache {
    Cache::new(CacheConfig {
        size_bytes: 1024,
        assoc: 2,
        line_bytes: 64,
    })
}

/// After any access sequence, a line the cache claims to contain
/// hits, and the number of valid lines never exceeds capacity.
#[test]
fn cache_capacity_invariant() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E3A, case);
        let n = rng.gen_range(1, 300) as usize;
        let mut c = tiny_cache();
        for _ in 0..n {
            let l = rng.gen_range(0, 256);
            if let nw_memhier::LookupResult::Miss = c.access(l, false) {
                c.fill(l, false);
            }
            assert!(c.contains(l), "case {case}");
        }
        // Capacity: 1024/64 = 16 lines max.
        let present = (0u64..256).filter(|&l| c.contains(l)).count();
        assert!(present <= 16, "case {case}");
    }
}

/// fill() after a miss makes the next access to the same line hit.
#[test]
fn cache_fill_then_hit() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E3B, case);
        let l = rng.gen_range(0, 100_000);
        let mut c = tiny_cache();
        assert_eq!(c.access(l, false), nw_memhier::LookupResult::Miss);
        c.fill(l, false);
        assert_eq!(c.access(l, false), nw_memhier::LookupResult::Hit);
    }
}

/// Dirty data is never silently lost: every dirty line leaves the
/// cache only via a dirty eviction or an invalidate reporting dirty.
#[test]
fn cache_no_silent_dirty_loss() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E3C, case);
        let n = rng.gen_range(1, 400) as usize;
        let mut c = tiny_cache();
        let mut dirty_model = std::collections::HashSet::new();
        for _ in 0..n {
            let l = rng.gen_range(0, 64);
            let w = rng.gen_bool(0.5);
            match c.access(l, w) {
                nw_memhier::LookupResult::Hit => {
                    if w {
                        dirty_model.insert(l);
                    }
                }
                nw_memhier::LookupResult::Miss => {
                    if let Some(ev) = c.fill(l, w) {
                        // Model and cache must agree on victim dirtiness.
                        assert_eq!(
                            ev.dirty,
                            dirty_model.remove(&ev.line),
                            "case {case}: victim {} dirtiness mismatch",
                            ev.line
                        );
                    }
                    if w {
                        dirty_model.insert(l);
                    }
                }
            }
        }
        for &l in &dirty_model {
            assert!(
                c.is_dirty(l),
                "case {case}: model says {l} dirty, cache disagrees"
            );
        }
    }
}

/// TLB never exceeds capacity and lookups after insert hit.
#[test]
fn tlb_capacity() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E3D, case);
        let n = rng.gen_range(1, 200) as usize;
        let cap = rng.gen_range(1, 16) as usize;
        let mut tlb = Tlb::new(cap);
        for _ in 0..n {
            let v = rng.gen_range(0, 64);
            tlb.insert(v);
            assert!(tlb.lookup(v), "case {case}");
            assert!(tlb.len() <= cap, "case {case}");
        }
    }
}

/// The 24-byte-way cache the packed one replaced, kept as the
/// reference model: `valid`, `line`, `dirty` and `last_use` per way,
/// an existing copy refreshed on fill, else the first invalid way,
/// else the first way with the oldest stamp.
struct RefCache {
    assoc: usize,
    ways: Vec<(bool, u64, bool, u64)>,
    set_mask: u64,
    clock: u64,
    hits: u64,
    misses: u64,
    writebacks: u64,
}

impl RefCache {
    fn new(cfg: CacheConfig) -> Self {
        let n = cfg.num_sets();
        RefCache {
            assoc: cfg.assoc,
            ways: vec![(false, 0, false, 0); n * cfg.assoc],
            set_mask: n as u64 - 1,
            clock: 0,
            hits: 0,
            misses: 0,
            writebacks: 0,
        }
    }

    fn set(&mut self, line: u64) -> &mut [(bool, u64, bool, u64)] {
        let base = (line & self.set_mask) as usize * self.assoc;
        &mut self.ways[base..base + self.assoc]
    }

    fn find(&mut self, line: u64) -> Option<&mut (bool, u64, bool, u64)> {
        self.set(line).iter_mut().find(|w| w.0 && w.1 == line)
    }

    fn access_dirty(&mut self, line: u64, is_write: bool) -> Option<bool> {
        self.clock += 1;
        let clock = self.clock;
        let hit = self.find(line).map(|w| {
            w.3 = clock;
            let was = w.2;
            w.2 |= is_write;
            was
        });
        match hit {
            Some(_) => self.hits += 1,
            None => self.misses += 1,
        }
        hit
    }

    fn fill(&mut self, line: u64, is_write: bool) -> Option<Evicted> {
        self.clock += 1;
        let clock = self.clock;
        if let Some(w) = self.find(line) {
            w.3 = clock;
            w.2 |= is_write;
            return None;
        }
        let set = self.set(line);
        if let Some(w) = set.iter_mut().find(|w| !w.0) {
            *w = (true, line, is_write, clock);
            return None;
        }
        let i = (0..set.len()).min_by_key(|&i| set[i].3).expect("assoc > 0");
        let victim = std::mem::replace(&mut set[i], (true, line, is_write, clock));
        self.writebacks += victim.2 as u64;
        Some(Evicted {
            line: victim.1,
            dirty: victim.2,
        })
    }

    fn invalidate(&mut self, line: u64) -> Option<bool> {
        self.find(line).map(|w| {
            w.0 = false;
            std::mem::take(&mut w.2)
        })
    }

    fn mark_dirty(&mut self, line: u64) -> bool {
        self.find(line).map(|w| w.2 = true).is_some()
    }

    fn clean(&mut self, line: u64) -> bool {
        self.find(line).is_some_and(|w| std::mem::take(&mut w.2))
    }

    fn purge_page(&mut self, vpn: u64) -> Vec<Evicted> {
        let start = first_line_of_page(vpn);
        (start..start + LINES_PER_PAGE)
            .filter_map(|line| self.invalidate(line).map(|dirty| Evicted { line, dirty }))
            .collect()
    }

    fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.each(&mut self.ways, "cache ways", |c, w| {
            c.bool(&mut w.0)?;
            c.u64(&mut w.1)?;
            c.bool(&mut w.2)?;
            c.u64(&mut w.3)
        })?;
        for v in [&mut self.clock, &mut self.hits, &mut self.misses, &mut self.writebacks] {
            c.u64(v)?;
        }
        Ok(())
    }
}

/// The bytes `save` writes as a bare payload.
fn saved(save: impl FnOnce(&mut Ckpt) -> Result<(), CkptError>) -> Vec<u8> {
    let mut w = CkptWriter::headerless();
    save(&mut Ckpt::Save(&mut w)).expect("saving cannot fail");
    w.finish()
}

/// The packed cache agrees with the reference model on every hit,
/// victim, dirty bit and checkpoint byte, stale lines of invalidated
/// ways included, under seeded operation mixes on direct-mapped, 2-way
/// and 4-way geometries.
#[test]
fn packed_cache_matches_the_reference_model() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E40, case);
        let cfg = CacheConfig {
            size_bytes: 1024,
            assoc: [1, 2, 4][case as usize % 3],
            line_bytes: 64,
        };
        let (mut c, mut model) = (Cache::new(cfg), RefCache::new(cfg));
        // Lines over a few pages, so sets conflict and purges bite.
        let lines = LINES_PER_PAGE * (1 + rng.gen_below(4) as u64);
        for op in 0..600 {
            let line = rng.gen_range(0, lines);
            let w = rng.gen_bool(0.4);
            let ctx = format!("case {case} op {op} line {line}");
            match rng.gen_below(10) {
                0..=2 => assert_eq!(c.access_dirty(line, w), model.access_dirty(line, w), "{ctx}"),
                3..=5 => assert_eq!(c.fill(line, w), model.fill(line, w), "{ctx}"),
                6 => assert_eq!(c.invalidate(line), model.invalidate(line), "{ctx}"),
                7 => assert_eq!(c.clean(line), model.clean(line), "{ctx}"),
                8 => assert_eq!(c.mark_dirty(line), model.mark_dirty(line), "{ctx}"),
                _ => {
                    let vpn = page_of_line(line);
                    assert_eq!(c.purge_page(vpn), model.purge_page(vpn), "{ctx}");
                }
            }
            let (hit, dirty) = (model.find(line).is_some(), model.find(line).is_some_and(|w| w.2));
            assert_eq!((c.contains(line), c.is_dirty(line)), (hit, dirty), "{ctx}");
            if op % 50 == 0 {
                assert_eq!(saved(|k| c.ckpt(k)), saved(|k| model.ckpt(k)), "{ctx}: checkpoint bytes");
            }
        }
        assert_eq!((c.hits(), c.misses(), c.writebacks()), (model.hits, model.misses, model.writebacks));
        assert_eq!(saved(|k| c.ckpt(k)), saved(|k| model.ckpt(k)), "case {case}");
    }
}

/// `Tlb::insert` returns exactly the entry a linear LRU scan evicts:
/// the one with the oldest stamp, and nothing while there is room or
/// the VPN is already cached.
#[test]
fn tlb_insert_returns_the_lru_victim() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E41, case);
        let cap = rng.gen_range(1, 9) as usize;
        let mut tlb = Tlb::new(cap);
        // vpn -> last touch, in the same clock the TLB keeps.
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for t in 0..300u64 {
            let vpn = rng.gen_range(0, 3 * cap as u64);
            if rng.gen_bool(0.5) {
                if tlb.lookup(vpn) {
                    model.insert(vpn, t);
                }
                continue;
            }
            let want = if model.contains_key(&vpn) || model.len() < cap {
                None
            } else {
                let lru = *model.iter().min_by_key(|e| e.1).expect("full").0;
                model.remove(&lru);
                Some(lru)
            };
            model.insert(vpn, t);
            assert_eq!(tlb.insert(vpn), want, "case {case} step {t}");
            assert_eq!(tlb.len(), model.len(), "case {case} step {t}");
        }
    }
}

/// Directory: after any transaction mix, a modified line has exactly
/// one sharer, and purging a page removes all its state.
#[test]
fn directory_single_writer() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E3E, case);
        let n = rng.gen_range(1, 300) as usize;
        let mut d = Directory::new();
        let mut lines_seen = Vec::new();
        for _ in 0..n {
            let line = rng.gen_range(0, 128);
            let node = rng.gen_below(8);
            lines_seen.push(line);
            if rng.gen_bool(0.5) {
                d.write(line, node);
                assert_eq!(d.modified_owner(line), Some(node), "case {case}");
                assert_eq!(d.sharers(line).count_ones(), 1, "case {case}");
            } else {
                d.read(line, node);
                assert!(d.sharers(line) & (1 << node) != 0, "case {case}");
            }
        }
        // Purge every page seen; directory must end empty.
        let mut pages: Vec<u64> = lines_seen.iter().map(|&l| page_of_line(l)).collect();
        pages.sort_unstable();
        pages.dedup();
        for p in pages {
            for (line, mask) in d.purge_page(p) {
                assert!(mask != 0, "case {case}");
                assert_eq!(page_of_line(line), p, "case {case}");
            }
        }
        assert_eq!(d.tracked_lines(), 0, "case {case}");
    }
}

/// Purged lines all belong to the requested page and are sorted.
#[test]
fn directory_purge_sorted() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E3F, case);
        let n = rng.gen_range(1, 100) as usize;
        let mut d = Directory::new();
        for _ in 0..n {
            let l = rng.gen_range(0, 4 * LINES_PER_PAGE);
            d.read(l, (l % 8) as u32);
        }
        let purged = d.purge_page(1);
        let mut prev = None;
        for (l, _) in purged {
            assert_eq!(page_of_line(l), 1, "case {case}");
            if let Some(p) = prev {
                assert!(l > p, "case {case}");
            }
            prev = Some(l);
        }
    }
}

/// Key generator for the [`LineTable`] model tests: a dense cluster of
/// consecutive lines (the table's real load — lines of a page are
/// consecutive), lines of pages far apart, and lines straddling page
/// boundaries, so blocks fill, empty and get recycled.
fn clustered_key(rng: &mut Pcg32) -> u64 {
    match rng.gen_below(3) {
        0 => rng.gen_range(0, 48),                      // dense cluster
        1 => 1_000_000 + rng.gen_range(0, 48) * 64,     // page-stride
        _ => rng.gen_range(0, 16) * 4096 + rng.gen_range(0, 2) * 63, // page edges
    }
}

/// A random value the table can hold: a `u32` payload, tagged or not.
fn packable_value(rng: &mut Pcg32) -> u64 {
    rng.next_u64() & (nw_memhier::linetable::TAG | u32::MAX as u64)
}

/// LineTable vs a `BTreeMap` reference model: any interleaving of
/// insert/overwrite/remove/lookup agrees with the model, including
/// when removals empty a page's block and later inserts reuse it.
#[test]
fn linetable_matches_btreemap_model() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E41, case);
        let n = rng.gen_range(1, 600) as usize;
        let mut t = LineTable::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for step in 0..n {
            let key = clustered_key(&mut rng);
            match rng.gen_below(4) {
                0 | 1 => {
                    let val = packable_value(&mut rng);
                    assert_eq!(
                        t.insert(key, val),
                        model.insert(key, val),
                        "case {case} step {step}: insert({key})"
                    );
                }
                2 => {
                    assert_eq!(
                        t.remove(key),
                        model.remove(&key),
                        "case {case} step {step}: remove({key})"
                    );
                }
                _ => {
                    assert_eq!(
                        t.get(key),
                        model.get(&key).copied(),
                        "case {case} step {step}: get({key})"
                    );
                }
            }
            assert_eq!(t.len(), model.len(), "case {case} step {step}");
        }
        // Every surviving key is reachable with the model's value.
        for (&k, &v) in &model {
            assert_eq!(t.get(k), Some(v), "case {case}: key {k} lost");
        }
    }
}

/// LineTable iteration visits exactly the model's entries, in
/// ascending line order, after heavy insert/remove churn, and
/// `update` writes land where `get` reads.
#[test]
fn linetable_iteration_and_get_mut_match_model() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x3E42, case);
        let mut t = LineTable::new();
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        for _ in 0..rng.gen_range(1, 400) {
            let key = clustered_key(&mut rng);
            if rng.gen_bool(0.6) {
                let val = packable_value(&mut rng);
                t.insert(key, val);
                model.insert(key, val);
            } else {
                t.remove(key);
                model.remove(&key);
            }
        }
        // Mutate half the survivors through update.
        for (i, (&k, v)) in model.iter_mut().enumerate() {
            if i % 2 == 0 {
                *v ^= 0xA5;
                t.update(k, |e| *e.as_mut().expect("model key present") ^= 0xA5);
            }
        }
        let items: Vec<(u64, u64)> = t.iter().collect();
        let expected: Vec<(u64, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(items, expected, "case {case}");
    }
}
