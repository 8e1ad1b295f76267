//! Randomized property tests for the simulation engine invariants,
//! driven by the in-tree deterministic [`Pcg32`] so the workspace
//! needs no external test dependencies. Each test sweeps a fixed set
//! of seeded cases; failures therefore reproduce exactly.

use nw_sim::ckpt::{Ckpt, CkptReader, CkptWriter};
use nw_sim::stats::Tally;
use nw_sim::{EventQueue, Pcg32, Resource};

const CASES: u64 = 32;

/// A delay long enough to put events far apart on the time axis.
const LONG: u64 = 65_536;

/// Events always pop in non-decreasing time order, regardless of the
/// insertion order.
#[test]
fn queue_pops_sorted() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x51ED, case);
        let n = rng.gen_range(1, 200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0, 1_000_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(t, i);
        }
        let mut last = 0;
        let mut popped = 0;
        while let Some((t, _)) = q.pop() {
            assert!(t >= last, "case {case}: time went backwards");
            last = t;
            popped += 1;
        }
        assert_eq!(popped, times.len(), "case {case}");
    }
}

/// Same-timestamp events pop in insertion (FIFO) order.
#[test]
fn queue_fifo_on_ties() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x51EE, case);
        let n = rng.gen_range(1, 100) as usize;
        let t = rng.gen_range(0, 1000);
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule_at(t, i);
        }
        for i in 0..n {
            assert_eq!(q.pop(), Some((t, i)), "case {case}");
        }
    }
}

/// `q` saved into one section and restored into a fresh queue.
fn save_restore(q: &mut EventQueue<u64>) -> EventQueue<u64> {
    let mut w = CkptWriter::new();
    w.begin_section(1);
    q.ckpt(&mut Ckpt::Save(&mut w), |c, e| c.u64(e)).expect("saving cannot fail");
    w.end_section();
    let bytes = w.finish();
    let mut r = CkptReader::new(&bytes).expect("valid container");
    r.begin_section(1).expect("section 1");
    let mut restored = EventQueue::new();
    restored.ckpt(&mut Ckpt::Load(&mut r), |c, e| c.u64(e)).expect("round trip");
    r.end_section().expect("section consumed");
    restored
}

/// The queue agrees pop-for-pop with a plain binary-heap reference
/// model under random interleavings of schedule, pop, an edit of the
/// last-scheduled entry's payload through `last_mut`, and a save →
/// restore, with delays from a few pcycles to several long delays.
/// Also checks `now()` stays monotone, every event comes back exactly
/// once, and `last_mut` sees the entry scheduled last until it pops,
/// across a restore too.
#[test]
fn queue_matches_heap_reference_model() {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let (mut edits, mut restores) = (0, 0);
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x51F4, case);
        let mut q = EventQueue::new();
        // Pending `(at, seq)` keys; `payload[seq]` is what entry `seq`
        // carries now, and `last` is the key scheduled last while it is
        // pending.
        let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut payload: Vec<u64> = Vec::new();
        let mut last: Option<(u64, u64)> = None;
        let mut now = 0u64;
        for _ in 0..rng.gen_range(50, 400) {
            match rng.gen_below(12) {
                step if model.is_empty() || step < 7 => {
                    // Near, around one long delay, or far-future delays.
                    let delay = match rng.gen_below(4) {
                        0 => rng.gen_range(0, 64),
                        1 => rng.gen_range(0, LONG),
                        2 => LONG - 1 + rng.gen_range(0, 3),
                        _ => rng.gen_range(LONG, 8 * LONG),
                    };
                    let (at, seq) = (now + delay, payload.len() as u64);
                    q.schedule_at(at, seq);
                    model.push(Reverse((at, seq)));
                    payload.push(seq);
                    last = Some((at, seq));
                }
                7..=9 => {
                    let Reverse((at, seq)) = model.pop().expect("model non-empty");
                    let want = payload[seq as usize];
                    assert_eq!(q.pop(), Some((at, want)), "case {case}: wrong event");
                    assert!(at >= now, "case {case}: time went backwards");
                    now = at;
                    assert_eq!(q.now(), now, "case {case}");
                    if last.is_some_and(|(_, s)| s == seq) {
                        last = None;
                    }
                }
                10 => {
                    let got = q.last_mut().map(|(at, e)| {
                        *e += 1 << 32;
                        (at, *e)
                    });
                    let want = last.map(|(at, seq)| {
                        payload[seq as usize] += 1 << 32;
                        (at, payload[seq as usize])
                    });
                    assert_eq!(got, want, "case {case}: wrong last entry");
                    edits += got.is_some() as u32;
                }
                _ => {
                    let mut restored = save_restore(&mut q);
                    assert_eq!(restored.now(), q.now(), "case {case}");
                    assert_eq!(restored.len(), q.len(), "case {case}");
                    assert_eq!(
                        restored.last_mut().map(|(at, e)| (at, *e)),
                        q.last_mut().map(|(at, e)| (at, *e)),
                        "case {case}: restore moved the last entry"
                    );
                    q = restored;
                    restores += 1;
                }
            }
        }
        // Drain: every remaining event must come out, in model order.
        while let Some(Reverse((at, seq))) = model.pop() {
            let want = payload[seq as usize];
            assert_eq!(q.pop(), Some((at, want)), "case {case}: event lost");
        }
        assert_eq!(q.pop(), None, "case {case}: phantom event");
        assert!(q.is_empty(), "case {case}");
        assert_eq!(q.last_mut(), None, "case {case}");
    }
    assert!(edits > 0 && restores > 0, "{edits} edits, {restores} restores");
}

/// Events clustered just below, at, and just beyond one long delay are
/// each delivered exactly once, in timestamp order.
#[test]
fn queue_horizon_boundary_is_lossless() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x51F5, case);
        let mut q = EventQueue::new();
        let n = rng.gen_range(10, 200) as usize;
        let mut times = Vec::new();
        for i in 0..n {
            let at = match rng.gen_below(3) {
                0 => LONG - 1 - rng.gen_range(0, 64),
                1 => LONG + rng.gen_range(0, 64),
                _ => rng.gen_range(0, 4 * LONG),
            };
            q.schedule_at(at, i);
            times.push(at);
        }
        times.sort_unstable();
        let mut got = Vec::new();
        while let Some((t, _)) = q.pop() {
            got.push(t);
        }
        assert_eq!(got, times, "case {case}");
    }
}

/// Same-timestamp events scheduled far in the future stay FIFO behind
/// a near event.
#[test]
fn queue_fifo_ties_survive_tier_migration() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x51F6, case);
        let mut q = EventQueue::new();
        let t = LONG + rng.gen_range(0, LONG);
        let n = rng.gen_range(2, 50) as usize;
        // A near event first, so the tie group is scheduled while the
        // clock is still far behind it.
        q.schedule_at(rng.gen_range(0, 64), usize::MAX);
        for i in 0..n {
            q.schedule_at(t, i);
        }
        let (_, first) = q.pop().expect("near event");
        assert_eq!(first, usize::MAX, "case {case}");
        for i in 0..n {
            assert_eq!(q.pop(), Some((t, i)), "case {case}: tie order broken");
        }
    }
}

/// A resource never grants overlapping service intervals and the busy
/// time equals the sum of requested durations.
#[test]
fn resource_grants_disjoint() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x51EF, case);
        let n = rng.gen_range(1, 100) as usize;
        // Requests must be issued at non-decreasing times (as in a
        // simulation); sort by request time.
        let mut reqs: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(0, 10_000), rng.gen_range(1, 500)))
            .collect();
        reqs.sort_by_key(|r| r.0);
        let mut r = Resource::new();
        let mut prev_end = 0u64;
        let mut total = 0u64;
        for &(at, dur) in &reqs {
            let g = r.acquire(at, dur);
            assert!(g.start >= at, "case {case}: grant before request");
            assert!(g.start >= prev_end, "case {case}: grants overlap");
            assert_eq!(g.end, g.start + dur, "case {case}");
            prev_end = g.end;
            total += dur;
        }
        assert_eq!(r.busy_cycles(), total, "case {case}");
    }
}

/// Lemire sampling stays in bounds for arbitrary seeds and bounds.
#[test]
fn rng_gen_below_in_bounds() {
    for case in 0..CASES {
        let mut meta = Pcg32::new(0x51F0, case);
        let seed = meta.next_u64();
        let stream = meta.next_u64();
        let bound = meta.gen_range(1, 1_000_000) as u32;
        let mut rng = Pcg32::new(seed, stream);
        for _ in 0..50 {
            assert!(rng.gen_below(bound) < bound, "case {case}");
        }
    }
}

/// The RNG is a pure function of (seed, stream).
#[test]
fn rng_deterministic() {
    for case in 0..CASES {
        let mut meta = Pcg32::new(0x51F1, case);
        let seed = meta.next_u64();
        let stream = meta.next_u64();
        let mut a = Pcg32::new(seed, stream);
        let mut b = Pcg32::new(seed, stream);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64(), "case {case}");
        }
    }
}

/// Tally mean is always within [min, max].
#[test]
fn tally_mean_bounded() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x51F2, case);
        let n = rng.gen_range(1, 500) as usize;
        let samples: Vec<u64> = (0..n).map(|_| rng.gen_range(0, 1_000_000_000)).collect();
        let mut t = Tally::new();
        for &s in &samples {
            t.add(s);
        }
        let mean = t.mean();
        assert!(mean >= t.min().unwrap() as f64 - 1e-9, "case {case}");
        assert!(mean <= t.max().unwrap() as f64 + 1e-9, "case {case}");
        assert_eq!(t.count(), samples.len() as u64, "case {case}");
    }
}

/// Merging tallies is equivalent to tallying the concatenation.
#[test]
fn tally_merge_equivalent() {
    for case in 0..CASES {
        let mut rng = Pcg32::new(0x51F3, case);
        let nx = rng.gen_range(0, 100) as usize;
        let ny = rng.gen_range(0, 100) as usize;
        let xs: Vec<u64> = (0..nx).map(|_| rng.gen_range(0, 1_000_000)).collect();
        let ys: Vec<u64> = (0..ny).map(|_| rng.gen_range(0, 1_000_000)).collect();
        let mut a = Tally::new();
        for &x in &xs {
            a.add(x);
        }
        let mut b = Tally::new();
        for &y in &ys {
            b.add(y);
        }
        a.merge(&b);
        let mut c = Tally::new();
        for &v in xs.iter().chain(ys.iter()) {
            c.add(v);
        }
        assert_eq!(a.count(), c.count(), "case {case}");
        assert_eq!(a.sum(), c.sum(), "case {case}");
        assert_eq!(a.min(), c.min(), "case {case}");
        assert_eq!(a.max(), c.max(), "case {case}");
    }
}
