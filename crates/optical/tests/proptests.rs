//! Randomized property tests for the optical ring and NWCache
//! interface, driven by the in-tree deterministic [`Pcg32`].

use nw_optical::{NwcInterface, RingConfig, RingFabric};
use nw_sim::Pcg32;

const CASES: u64 = 48;

fn ring() -> RingFabric {
    RingFabric::new(RingConfig::paper_default(), 1)
}

/// Channel occupancy never exceeds the slot capacity, no matter the
/// insert/remove interleaving.
#[test]
fn occupancy_bounded() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x0071C, case);
        let n = rng.gen_range(1, 200) as usize;
        let mut r = ring();
        let mut t = 0;
        for _ in 0..n {
            let page = rng.gen_range(0, 64);
            if rng.gen_bool(0.5) {
                let _ = r.insert(t, 0, page);
            } else {
                r.remove(0, page);
            }
            assert!(r.occupancy(0) <= 16, "case {case}");
            t += 100;
        }
    }
}

/// A page inserted and not removed is always snoopable, and the snoop
/// completes within one round trip + transfer of the request.
#[test]
fn snoop_within_round_trip() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x0071D, case);
        let page = rng.gen_range(0, 1000);
        let at = rng.gen_range(0, 100_000);
        let later = rng.gen_range(0, 1_000_000);
        let mut r = ring();
        let on_ring = r.insert(at, 3, page).unwrap();
        let now = on_ring + later;
        let ready = r.snoop_ready(now, 3, page).unwrap();
        assert!(ready >= now, "case {case}");
        let rt = RingConfig::paper_default().round_trip;
        let xfer = 656;
        assert!(
            ready - now <= rt + xfer,
            "case {case}: waited {} > {}",
            ready - now,
            rt + xfer
        );
        // Pass times are phase-aligned with the insertion.
        assert_eq!((ready - xfer - on_ring) % rt, 0, "case {case}");
    }
}

/// Insert/remove round-trips leave the ring empty and stats balanced.
#[test]
fn insert_remove_balanced() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x0071E, case);
        let n = rng.gen_range(1, 16) as usize;
        let mut pages = std::collections::HashSet::new();
        while pages.len() < n {
            pages.insert(rng.gen_range(0, 1000));
        }
        let mut r = ring();
        for &p in &pages {
            r.insert(0, 2, p).unwrap();
        }
        assert_eq!(r.occupancy(2), pages.len(), "case {case}");
        for &p in &pages {
            assert!(r.remove(2, p), "case {case}");
        }
        assert_eq!(r.occupancy(2), 0, "case {case}");
        assert_eq!(r.inserts(2), pages.len() as u64, "case {case}");
        assert_eq!(r.removals(2), pages.len() as u64, "case {case}");
    }
}

/// The interface FIFO conserves records: enqueued = drained +
/// cancelled + pending, and drained pages per channel come out in
/// insertion order.
#[test]
fn interface_conserves_records() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x0071F, case);
        let n = rng.gen_range(1, 200) as usize;
        let mut i = NwcInterface::new(4);
        let mut model: Vec<std::collections::VecDeque<u64>> =
            (0..4).map(|_| std::collections::VecDeque::new()).collect();
        for _ in 0..n {
            let ch = rng.gen_below(4) as usize;
            let page = rng.gen_range(0, 100);
            match rng.gen_below(3) {
                0 => {
                    i.enqueue(ch, ch as u32, page);
                    model[ch].push_back(page);
                }
                1 => {
                    if let Some((dch, rec)) = i.next_to_drain() {
                        let expect = model[dch].pop_front().unwrap();
                        assert_eq!(rec.page, expect, "case {case}: drain out of order");
                    }
                }
                _ => {
                    let cancelled = i.cancel(ch, page);
                    let pos = model[ch].iter().position(|&p| p == page);
                    assert_eq!(cancelled.is_some(), pos.is_some(), "case {case}");
                    if let Some(pos) = pos {
                        model[ch].remove(pos);
                    }
                }
            }
        }
        assert_eq!(
            i.pending() as u64,
            model.iter().map(|m| m.len() as u64).sum::<u64>(),
            "case {case}"
        );
        assert_eq!(
            i.enqueued(),
            i.drained() + i.cancelled() + i.pending() as u64,
            "case {case}"
        );
    }
}

/// Draining everything visits every record exactly once.
#[test]
fn drain_visits_all() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x00720, case);
        let mut i = NwcInterface::new(4);
        let mut total = 0;
        for ch in 0..4usize {
            let n = rng.gen_below(20) as usize;
            for k in 0..n {
                i.enqueue(ch, ch as u32, (ch * 100 + k) as u64);
                total += 1;
            }
        }
        let mut seen = std::collections::HashSet::new();
        while let Some((_, rec)) = i.next_to_drain() {
            assert!(
                seen.insert(rec.page),
                "case {case}: page {} drained twice",
                rec.page
            );
        }
        assert_eq!(seen.len(), total, "case {case}");
        assert_eq!(i.pending(), 0, "case {case}");
    }
}
