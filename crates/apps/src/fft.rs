//! FFT — 1-D fast Fourier transform (Table 2: 64 K complex points,
//! ~3.1 MB).
//!
//! Radix-2, ping-ponging between two arrays of complex doubles with a
//! table of twiddle factors. Points are block-partitioned; pass `s`
//! pairs point `i` with `i XOR 2^s`, so early passes are local and the
//! later (large-stride) passes read the partner line from a *remote*
//! processor's partition — the all-to-all phase that makes FFT the most
//! network-intensive program of the suite (it is the one application
//! that can slow down under the NWCache with naive prefetching).

use crate::layout::{block_partition, Allocator, Vec1};
use crate::{next_run, Action, ActionStream, AppBuild};

const FULL_POINTS: usize = 64 * 1024;
/// Complex double = 16 bytes -> 4 points per 64 B line.
const POINTS_PER_LINE: u64 = 4;
/// Compute per butterfly line (4 complex MACs).
const COMPUTE_PER_LINE: u32 = 40;

/// Build the FFT kernel streams. A unit is a run of butterfly lines,
/// ending with the pass's barrier after the last run.
pub fn build(nprocs: usize, scale: f64, _seed: u64) -> AppBuild {
    // Round the scaled size down to a power of two, minimum 1 K points.
    let want = (FULL_POINTS as f64 * scale) as usize;
    let n = want.next_power_of_two().clamp(1024, FULL_POINTS) as u64;
    let n = if n as usize > want && n > 1024 { n / 2 } else { n };
    let passes = n.trailing_zeros();
    let mut alloc = Allocator::new();
    let d0 = Vec1::alloc(&mut alloc, n, 16);
    let d1 = Vec1::alloc(&mut alloc, n, 16);
    let tw = Vec1::alloc(&mut alloc, n, 16);
    let data_bytes = alloc.allocated();

    let streams = (0..nprocs)
        .map(|p| {
            // My points, line by line: line `j` starts at point
            // `i0 + j * POINTS_PER_LINE`.
            let (i0, i1) = block_partition(n, nprocs, p);
            let lines = (i1 - i0).div_ceil(POINTS_PER_LINE);
            let (mut s, mut done) = (0u32, 0u64);
            ActionStream::generate(move |out| {
                if s == passes {
                    return false;
                }
                let (src, dst) = if s % 2 == 0 { (d0, d1) } else { (d1, d0) };
                let stride = 1u64 << s;
                for j in next_run(&mut done, lines) {
                    let i = i0 + j * POINTS_PER_LINE;
                    let partner = i ^ stride;
                    out.push(Action::Read(src.line_of(i)));
                    if partner / POINTS_PER_LINE != i / POINTS_PER_LINE {
                        out.push(Action::Read(src.line_of(partner)));
                    }
                    out.extend([
                        Action::Read(tw.line_of(i % tw.len)),
                        Action::Compute(COMPUTE_PER_LINE),
                        Action::Write(dst.line_of(i)),
                    ]);
                }
                if done == lines {
                    out.push(Action::Barrier(s));
                    s += 1;
                    done = 0;
                }
                true
            })
        })
        .collect();

    AppBuild {
        name: "fft",
        data_bytes,
        streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn footprint_matches_paper() {
        let b = build(8, 1.0, 0);
        let mb = b.data_bytes as f64 / (1024.0 * 1024.0);
        assert!((mb - 3.0).abs() < 0.3, "{mb}");
    }

    #[test]
    fn pass_count_is_log2() {
        let b = build(1, 1.0 / 64.0, 0); // 1K points
        let barriers = b
            .streams
            .into_iter()
            .next()
            .unwrap()
            .filter(|a| matches!(a, Action::Barrier(_)))
            .count();
        assert_eq!(barriers, 10); // log2(1024)
    }

    #[test]
    fn early_passes_local_late_passes_remote() {
        // With 2 procs and 1K points, pass 9 (stride 512) partners
        // across the partition boundary, pass 0 does not.
        let b = build(2, 1.0 / 64.0, 0);
        let s0 = b.streams.into_iter().next().unwrap();
        let mut pass = 0u32;
        let mut cross_by_pass = [false; 10];
        // Proc 0 owns points 0..512 = lines 0..128 of d0.
        for a in s0 {
            match a {
                Action::Barrier(id) => pass = id + 1,
                Action::Read(l) => {
                    // d0 occupies lines [0, 256), d1 [256, 512).
                    let local_lines = 128u64;
                    let arr_base = (l / 256) * 256;
                    let off = l - arr_base;
                    if l < 768 && off >= local_lines {
                        cross_by_pass[pass as usize] = true;
                    }
                }
                _ => {}
            }
        }
        assert!(!cross_by_pass[0], "pass 0 must be partition-local");
        assert!(cross_by_pass[9], "last pass must cross partitions");
    }

    #[test]
    fn butterflies_read_both_halves() {
        let b = build(1, 1.0 / 64.0, 0);
        let mut has_partner_read = false;
        let mut prev_read: Option<u64> = None;
        for a in b.streams.into_iter().next().unwrap() {
            match a {
                Action::Read(l) => {
                    if let Some(p) = prev_read {
                        if l > p + 1 {
                            has_partner_read = true;
                        }
                    }
                    prev_read = Some(l);
                }
                _ => prev_read = None,
            }
        }
        assert!(has_partner_read);
    }
}
