//! Radix — parallel integer radix sort (Table 2: 320 K keys, radix
//! 1024, ~2.6 MB).
//!
//! Three passes of stable counting sort over 10-bit digits of 30-bit
//! keys, ping-ponging between a source and a destination array. Each
//! pass: (1) sequential local-histogram scan, (2) histogram exchange
//! (every processor reads all histograms to compute its offsets),
//! (3) the permutation — sequential reads, *scattered* writes across
//! the whole destination array. The scattered writes are what makes
//! Radix swap-intensive with poor locality.

use crate::layout::{block_partition, Allocator, Vec1};
use crate::{next_run, scaled, Action, ActionStream, AppBuild};
use nw_sim::Pcg32;
use std::sync::Arc;

const FULL_KEYS: usize = 320 * 1024;
const RADIX_BITS: u32 = 10;
const RADIX: usize = 1 << RADIX_BITS;
const KEY_BITS: u32 = 30;
const PASSES: u32 = KEY_BITS / RADIX_BITS;
/// Keys per 64 B line (u32 keys).
const KEYS_PER_LINE: u64 = 16;

/// Host-side stable radix-sort replay: for each pass, the destination
/// index of the key at each source position.
fn plan_passes(keys: &[u32]) -> Vec<Vec<u32>> {
    let mut order: Vec<u32> = keys.to_vec();
    let mut plans = Vec::with_capacity(PASSES as usize);
    for pass in 0..PASSES {
        let shift = pass * RADIX_BITS;
        let mut counts = vec![0u32; RADIX];
        for &k in &order {
            counts[((k >> shift) as usize) & (RADIX - 1)] += 1;
        }
        let mut offsets = vec![0u32; RADIX];
        let mut acc = 0;
        for (d, &c) in counts.iter().enumerate() {
            offsets[d] = acc;
            acc += c;
        }
        let mut dst_idx = vec![0u32; order.len()];
        let mut next = vec![0u32; order.len()];
        for (i, &k) in order.iter().enumerate() {
            let d = ((k >> shift) as usize) & (RADIX - 1);
            let pos = offsets[d];
            offsets[d] += 1;
            dst_idx[i] = pos;
            next[pos as usize] = k;
        }
        plans.push(dst_idx);
        order = next;
    }
    plans
}

/// Build the radix-sort kernel streams. A unit is a run of lines of
/// one phase, ending with the phase's barrier after the last run.
pub fn build(nprocs: usize, scale: f64, seed: u64) -> AppBuild {
    let nkeys = (scaled(FULL_KEYS, scale, 4096) as u64 / KEYS_PER_LINE) * KEYS_PER_LINE;
    let mut rng = Pcg32::new(seed, 0x5AD1);
    let keys: Vec<u32> = (0..nkeys)
        .map(|_| rng.next_u32() & ((1 << KEY_BITS) - 1))
        .collect();
    let plans = Arc::new(plan_passes(&keys));

    let mut alloc = Allocator::new();
    let a0 = Vec1::alloc(&mut alloc, nkeys, 4);
    let a1 = Vec1::alloc(&mut alloc, nkeys, 4);
    let hist = Vec1::alloc(&mut alloc, (RADIX * nprocs) as u64, 4);
    let data_bytes = alloc.allocated();

    let streams = (0..nprocs)
        .map(|p| {
            let (k0, k1) = block_partition(nkeys, nprocs, p);
            let key_lines = (k1 - k0).div_ceil(KEYS_PER_LINE);
            let mine = hist.lines((p * RADIX) as u64, ((p + 1) * RADIX) as u64);
            let all = hist.lines(0, (RADIX * nprocs) as u64);
            let plans = Arc::clone(&plans);
            // Pass `pass`, phase `phase` (0..3), items of the phase
            // already emitted `done`.
            let (mut pass, mut phase, mut done) = (0u32, 0u32, 0u64);
            ActionStream::generate(move |out| {
                if pass == PASSES {
                    return false;
                }
                let (src, dst) = if pass % 2 == 0 { (a0, a1) } else { (a1, a0) };
                match phase {
                    // Phase 1: local histogram — sequential read of my
                    // keys, then my histogram is written out.
                    0 => {
                        let keys = src.lines(k0, k1);
                        let n = keys.end - keys.start;
                        for j in next_run(&mut done, n) {
                            out.extend([Action::Read(keys.start + j), Action::Compute(32)]);
                        }
                        if done < n {
                            return true;
                        }
                        out.extend(mine.clone().map(Action::Write));
                    }
                    // Phase 2: read everyone's histogram for prefix sums.
                    1 => {
                        let n = all.end - all.start;
                        for j in next_run(&mut done, n) {
                            out.extend([Action::Read(all.start + j), Action::Compute(4)]);
                        }
                        if done < n {
                            return true;
                        }
                    }
                    // Phase 3: permute — sequential reads, scattered writes.
                    _ => {
                        let plan = &plans[pass as usize];
                        for j in next_run(&mut done, key_lines) {
                            let i = k0 + j * KEYS_PER_LINE;
                            out.push(Action::Read(src.line_of(i)));
                            for &d in &plan[i as usize..(i + KEYS_PER_LINE).min(k1) as usize] {
                                out.push(Action::Write(dst.line_of(d as u64)));
                            }
                        }
                        if done < key_lines {
                            return true;
                        }
                    }
                }
                out.push(Action::Barrier(3 * pass + phase));
                done = 0;
                phase += 1;
                if phase == 3 {
                    phase = 0;
                    pass += 1;
                }
                true
            })
        })
        .collect();

    AppBuild {
        name: "radix",
        data_bytes,
        streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_a_permutation_per_pass() {
        let mut rng = Pcg32::new(1, 2);
        let keys: Vec<u32> = (0..4096).map(|_| rng.next_u32() & 0x3FFF_FFFF).collect();
        for plan in plan_passes(&keys) {
            let mut seen = vec![false; keys.len()];
            for &d in &plan {
                assert!(!seen[d as usize], "duplicate destination {d}");
                seen[d as usize] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn plan_sorts_the_keys() {
        let mut rng = Pcg32::new(7, 7);
        let keys: Vec<u32> = (0..8192).map(|_| rng.next_u32() & 0x3FFF_FFFF).collect();
        let plans = plan_passes(&keys);
        // Replay all passes.
        let mut order = keys.clone();
        for plan in &plans {
            let mut next = vec![0u32; order.len()];
            for (i, &k) in order.iter().enumerate() {
                next[plan[i] as usize] = k;
            }
            order = next;
        }
        let mut expect = keys;
        expect.sort_unstable();
        assert_eq!(order, expect);
    }

    #[test]
    fn footprint_matches_paper() {
        let b = build(8, 1.0, 0);
        let mb = b.data_bytes as f64 / (1024.0 * 1024.0);
        assert!((mb - 2.5).abs() < 0.25, "{mb}");
    }

    #[test]
    fn nine_barriers_total() {
        let b = build(2, 0.02, 3);
        let barriers = b
            .streams
            .into_iter()
            .next()
            .unwrap()
            .filter(|a| matches!(a, Action::Barrier(_)))
            .count();
        assert_eq!(barriers, 9); // 3 passes x 3 phases
    }

    #[test]
    fn permute_writes_scatter() {
        // Distinct destination lines written in one pass should be
        // spread widely, not a couple of hot lines.
        let b = build(2, 0.02, 3);
        let mut dst_lines = std::collections::HashSet::new();
        let mut in_permute = false;
        for a in b.streams.into_iter().next().unwrap() {
            match a {
                Action::Barrier(id) => {
                    if id == 1 {
                        in_permute = true;
                    }
                    if id == 2 {
                        break;
                    }
                }
                Action::Write(l) if in_permute => {
                    dst_lines.insert(l);
                }
                _ => {}
            }
        }
        assert!(dst_lines.len() > 50, "only {} distinct lines", dst_lines.len());
    }
}
