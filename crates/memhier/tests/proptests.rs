//! Randomized property tests for memory-hierarchy invariants, driven
//! by the in-tree deterministic [`Pcg32`].

use nw_memhier::{page_of_line, Cache, CacheConfig, Directory, LineTable, Tlb, LINES_PER_PAGE};
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
