//! LU — blocked dense LU factorization (Table 2: 576 x 576 doubles,
//! ~2.7 MB).
//!
//! The matrix is split into an 8 x 8 grid of blocks distributed
//! round-robin over the processors. Each elimination step factors the
//! diagonal block, updates the row and column panels, then performs
//! the trailing-matrix update (the GEMM-like phase that dominates the
//! access stream). Three barriers per step separate the phases.

use crate::layout::{Allocator, Mat2};
use crate::{Action, ActionStream, AppBuild};

const FULL_N: usize = 576;
/// Blocks per matrix dimension.
const NB: u64 = 8;

/// Read every line of block `(bi, bj)` of matrix `m` with block size
/// `bs`, row by row.
fn read_block(out: &mut Vec<Action>, m: Mat2, bs: u64, bi: u64, bj: u64) {
    for r in bi * bs..(bi + 1) * bs {
        out.extend(m.row_lines(r, bj * bs, (bj + 1) * bs).map(Action::Read));
    }
}

/// Update every line of block `(bi, bj)`: read, compute, write back.
fn update_block(out: &mut Vec<Action>, m: Mat2, bs: u64, bi: u64, bj: u64, compute: u32) {
    for r in bi * bs..(bi + 1) * bs {
        for l in m.row_lines(r, bj * bs, (bj + 1) * bs) {
            out.extend([Action::Read(l), Action::Compute(compute), Action::Write(l)]);
        }
    }
}

/// Round-robin block owner.
fn owner(bi: u64, bj: u64, nprocs: usize) -> usize {
    ((bi * NB + bj) % nprocs as u64) as usize
}

/// Build the LU kernel streams. A unit is one block's work (empty when
/// another processor owns the block), or a phase's barrier.
pub fn build(nprocs: usize, scale: f64, _seed: u64) -> AppBuild {
    // sqrt-scaling; keep n a multiple of NB * 8 so blocks line-align.
    let want = (FULL_N as f64 * scale.sqrt()) as u64;
    let n = (want / 64).max(1) * 64;
    let n = n.min(FULL_N as u64);
    let bs = n / NB;
    let mut alloc = Allocator::new();
    let m = Mat2::alloc(&mut alloc, n, n, 8);
    let data_bytes = alloc.allocated();
    // Compute scaling: ~2 flops per element per rank-1 step, charged
    // per line of 8 doubles across the bs accumulation depth.
    let gemm_compute = (2 * bs).min(u32::MAX as u64) as u32;

    let streams = (0..nprocs)
        .map(|p| {
            // Step `k`, unit `u` of the step. With `rest` blocks after
            // the diagonal, the units are: the diagonal block; the row
            // and column panel blocks, interleaved per `j`; the panel
            // barrier; the `rest x rest` trailing blocks, row-major;
            // the step barrier.
            let (mut k, mut u) = (0u64, 0u64);
            ActionStream::generate(move |out| {
                if k == NB {
                    return false;
                }
                let rest = NB - k - 1;
                let panels = 2 * rest;
                if u == 0 {
                    // Phase 1: factor diagonal block (its owner only).
                    if owner(k, k, nprocs) == p {
                        update_block(out, m, bs, k, k, gemm_compute / 2);
                    }
                    out.push(Action::Barrier((3 * k) as u32));
                } else if u <= panels {
                    // Phase 2: row panel (k, j), then column panel
                    // (j, k), each by its owner.
                    let j = k + 1 + (u - 1) / 2;
                    let (bi, bj) = if u % 2 == 1 { (k, j) } else { (j, k) };
                    if owner(bi, bj, nprocs) == p {
                        read_block(out, m, bs, k, k);
                        update_block(out, m, bs, bi, bj, gemm_compute);
                    }
                } else if u == panels + 1 {
                    out.push(Action::Barrier((3 * k + 1) as u32));
                } else if u < panels + 2 + rest * rest {
                    // Phase 3: trailing update of owned block (i, j).
                    let t = u - panels - 2;
                    let (i, j) = (k + 1 + t / rest, k + 1 + t % rest);
                    if owner(i, j, nprocs) == p {
                        read_block(out, m, bs, i, k);
                        read_block(out, m, bs, k, j);
                        update_block(out, m, bs, i, j, gemm_compute);
                    }
                } else {
                    out.push(Action::Barrier((3 * k + 2) as u32));
                    k += 1;
                    u = 0;
                    return true;
                }
                u += 1;
                true
            })
        })
        .collect();

    AppBuild {
        name: "lu",
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
        assert!((mb - 2.53).abs() < 0.25, "{mb}");
    }

    #[test]
    fn three_barriers_per_step() {
        let b = build(2, 0.15, 0);
        let barriers: Vec<u32> = b
            .streams
            .into_iter()
            .next()
            .unwrap()
            .filter_map(|a| match a {
                Action::Barrier(id) => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(barriers.len(), 24); // 8 steps x 3 phases
        assert_eq!(barriers, (0..24).collect::<Vec<u32>>());
    }

    #[test]
    fn only_diag_owner_works_in_phase_one() {
        let nprocs = 4;
        let b = build(nprocs, 0.15, 0);
        for (p, s) in b.streams.into_iter().enumerate() {
            // Count accesses before the first barrier (step 0 phase 1).
            let mut count = 0;
            for a in s {
                match a {
                    Action::Barrier(_) => break,
                    Action::Read(_) | Action::Write(_) => count += 1,
                    _ => {}
                }
            }
            if p == owner(0, 0, nprocs) {
                assert!(count > 0, "owner {p} did no work");
            } else {
                assert_eq!(count, 0, "non-owner {p} touched the diagonal");
            }
        }
    }

    #[test]
    fn trailing_work_shrinks_with_k() {
        let b = build(1, 0.15, 0);
        // Accesses between barrier 2 (start of step-0 trailing) and 3,
        // vs between barrier 20 and 21 (step-6 trailing).
        let mut counts = vec![0u64];
        for a in b.streams.into_iter().next().unwrap() {
            match a {
                Action::Barrier(_) => counts.push(0),
                Action::Read(_) | Action::Write(_) => *counts.last_mut().unwrap() += 1,
                _ => {}
            }
        }
        // Segment 2 is step-0 trailing; segment 20 is step-6 trailing.
        assert!(counts[2] > counts[20]);
    }

    #[test]
    fn block_lines_are_disjoint_between_blocks() {
        let mut a = Allocator::new();
        let m = Mat2::alloc(&mut a, 64, 64, 8);
        let lines = |bi, bj| {
            let mut out = Vec::new();
            read_block(&mut out, m, 8, bi, bj);
            out.into_iter()
                .map(|a| match a {
                    Action::Read(l) => l,
                    other => panic!("read_block emitted {other:?}"),
                })
                .collect::<std::collections::HashSet<u64>>()
        };
        let (b00, b01, b10) = (lines(0, 0), lines(0, 1), lines(1, 0));
        assert!(b00.is_disjoint(&b01));
        assert!(b00.is_disjoint(&b10));
        assert_eq!(b00.len(), 8); // 8 rows x 8 doubles = 1 line per row
    }
}
