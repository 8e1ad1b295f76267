//! LU — blocked dense LU factorization (Table 2: 576 x 576 doubles,
//! ~2.7 MB).
//!
//! The matrix is split into an 8 x 8 grid of blocks distributed
//! round-robin over the processors. Each elimination step factors the
//! diagonal block, updates the row and column panels, then performs
//! the trailing-matrix update (the GEMM-like phase that dominates the
//! access stream). Three barriers per step separate the phases.

use crate::layout::{Allocator, Mat2};
use crate::{Action, AppBuild};

const FULL_N: usize = 576;
/// Blocks per matrix dimension.
const NB: u64 = 8;

/// Distinct lines of block `(bi, bj)` of matrix `m` with block size
/// `bs`: each of the block's `bs` rows contributes its line range.
fn block_lines(m: Mat2, bs: u64, bi: u64, bj: u64) -> impl Iterator<Item = u64> {
    (bi * bs..(bi + 1) * bs).flat_map(move |r| m.row_lines(r, bj * bs, (bj + 1) * bs))
}

/// Round-robin block owner.
fn owner(bi: u64, bj: u64, nprocs: usize) -> usize {
    ((bi * NB + bj) % nprocs as u64) as usize
}

/// Build the LU kernel streams.
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
            let iter = (0..NB).flat_map(move |k| {
                // Phase 1: factor diagonal block (its owner only).
                let diag: Box<dyn Iterator<Item = Action> + Send> = if owner(k, k, nprocs) == p {
                    Box::new(block_lines(m, bs, k, k).flat_map(move |l| {
                        [
                            Action::Read(l),
                            Action::Compute(gemm_compute / 2),
                            Action::Write(l),
                        ]
                    }))
                } else {
                    Box::new(std::iter::empty())
                };
                let b1 = std::iter::once(Action::Barrier((3 * k) as u32));

                // Phase 2: row and column panel updates by their owners.
                let panels = (k + 1..NB).flat_map(move |j| {
                    let row_panel: Box<dyn Iterator<Item = Action> + Send> =
                        if owner(k, j, nprocs) == p {
                            Box::new(
                                block_lines(m, bs, k, k).map(Action::Read).chain(
                                    block_lines(m, bs, k, j).flat_map(move |l| {
                                        [
                                            Action::Read(l),
                                            Action::Compute(gemm_compute),
                                            Action::Write(l),
                                        ]
                                    }),
                                ),
                            )
                        } else {
                            Box::new(std::iter::empty())
                        };
                    let col_panel: Box<dyn Iterator<Item = Action> + Send> =
                        if owner(j, k, nprocs) == p {
                            Box::new(
                                block_lines(m, bs, k, k).map(Action::Read).chain(
                                    block_lines(m, bs, j, k).flat_map(move |l| {
                                        [
                                            Action::Read(l),
                                            Action::Compute(gemm_compute),
                                            Action::Write(l),
                                        ]
                                    }),
                                ),
                            )
                        } else {
                            Box::new(std::iter::empty())
                        };
                    row_panel.chain(col_panel)
                });
                let b2 = std::iter::once(Action::Barrier((3 * k + 1) as u32));

                // Phase 3: trailing update of owned blocks (i, j).
                let trailing = (k + 1..NB).flat_map(move |i| {
                    (k + 1..NB).flat_map(move |j| {
                        let mine = owner(i, j, nprocs) == p;
                        let a_panel: Box<dyn Iterator<Item = Action> + Send> = if mine {
                            Box::new(
                                block_lines(m, bs, i, k)
                                    .map(Action::Read)
                                    .chain(block_lines(m, bs, k, j).map(Action::Read))
                                    .chain(block_lines(m, bs, i, j).flat_map(move |l| {
                                        [
                                            Action::Read(l),
                                            Action::Compute(gemm_compute),
                                            Action::Write(l),
                                        ]
                                    })),
                            )
                        } else {
                            Box::new(std::iter::empty())
                        };
                        a_panel
                    })
                });
                let b3 = std::iter::once(Action::Barrier((3 * k + 2) as u32));

                diag.chain(b1).chain(panels).chain(b2).chain(trailing).chain(b3)
            });
            Box::new(iter) as crate::ActionStream
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
        let b00: std::collections::HashSet<u64> = block_lines(m, 8, 0, 0).collect();
        let b01: std::collections::HashSet<u64> = block_lines(m, 8, 0, 1).collect();
        let b10: std::collections::HashSet<u64> = block_lines(m, 8, 1, 0).collect();
        assert!(b00.is_disjoint(&b01));
        assert!(b00.is_disjoint(&b10));
        assert_eq!(b00.len(), 8); // 8 rows x 8 doubles = 1 line per row
    }
}
