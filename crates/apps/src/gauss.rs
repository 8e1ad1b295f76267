//! Gauss — unblocked Gaussian elimination (Table 2: 570 x 512
//! doubles, ~2.3 MB).
//!
//! Rows are distributed cyclically across processors. For each
//! elimination step `k`, every processor reads the pivot row (heavy
//! read sharing — Gauss shows the highest NWCache victim-cache hit
//! rates in Table 7) and updates its own rows below the pivot over
//! columns `k..cols`. One barrier per elimination step.

use crate::layout::{Allocator, Mat2};
use crate::{scaled, Action, ActionStream, AppBuild};

const FULL_ROWS: usize = 570;
const FULL_COLS: usize = 512;
/// Compute cycles per updated line (8 doubles, multiply-subtract each).
const COMPUTE_PER_LINE: u32 = 24;

/// Build the Gaussian-elimination kernel streams. A unit is the pivot
/// read of one step, one owned row's update, or the step's barrier.
pub fn build(nprocs: usize, scale: f64, _seed: u64) -> AppBuild {
    // sqrt-scaling per dimension: footprint scales linearly.
    let f = scale.sqrt();
    let rows = scaled(FULL_ROWS, f, 10) as u64;
    let cols = scaled(FULL_COLS, f, 8) as u64;
    let steps = (rows - 1).min(cols);
    let mut alloc = Allocator::new();
    let m = Mat2::alloc_padded(&mut alloc, rows, cols, 8);
    let data_bytes = alloc.allocated();
    let np = nprocs as u64;

    let streams = (0..np)
        .map(|p| {
            // Elimination step `k`; `row` is the next owned row to
            // update, or 0 while the step's pivot read is still due.
            let (mut k, mut row) = (0u64, 0u64);
            ActionStream::generate(move |out| {
                if k == steps {
                    return false;
                }
                if row == 0 {
                    // Everyone reads the pivot row's active segment.
                    out.extend(m.row_lines(k, k, cols).map(Action::Read));
                    out.push(Action::Compute(8));
                    // The first row below the pivot that `p` owns
                    // (rows are dealt cyclically).
                    row = k + 1 + (p + np - (k + 1) % np) % np;
                } else if row < rows {
                    for l in m.row_lines(row, k, cols) {
                        out.extend([
                            Action::Read(l),
                            Action::Compute(COMPUTE_PER_LINE),
                            Action::Write(l),
                        ]);
                    }
                    row += np;
                } else {
                    out.push(Action::Barrier(k as u32));
                    k += 1;
                    row = 0;
                }
                true
            })
        })
        .collect();

    AppBuild {
        name: "gauss",
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
        assert!((mb - 2.23).abs() < 0.2, "{mb}");
    }

    #[test]
    fn active_region_shrinks() {
        // Later steps touch fewer lines: compare step 0 vs last step.
        let b = build(1, 0.05, 0);
        let mut per_step = vec![0u64];
        for a in b.streams.into_iter().next().unwrap() {
            match a {
                Action::Barrier(_) => per_step.push(0),
                Action::Read(_) | Action::Write(_) => *per_step.last_mut().unwrap() += 1,
                _ => {}
            }
        }
        per_step.pop(); // trailing empty
        assert!(per_step.first().unwrap() > per_step.last().unwrap());
    }

    #[test]
    fn every_proc_reads_every_pivot() {
        let b = build(4, 0.05, 0);
        let f = 0.05f64.sqrt();
        let rows = scaled(FULL_ROWS, f, 10) as u64;
        let cols = scaled(FULL_COLS, f, 8) as u64;
        let mut alloc = Allocator::new();
        let m = Mat2::alloc_padded(&mut alloc, rows, cols, 8);
        for s in b.streams {
            // First action of each step must read the pivot row start.
            let mut expect_pivot = true;
            let mut k = 0u64;
            for a in s {
                match a {
                    Action::Read(l) if expect_pivot => {
                        assert_eq!(l, m.line_of(k, k), "step {k}");
                        expect_pivot = false;
                    }
                    Action::Barrier(_) => {
                        k += 1;
                        expect_pivot = true;
                    }
                    _ => {}
                }
            }
        }
    }

    #[test]
    fn updates_only_own_rows() {
        let b = build(4, 0.05, 0);
        let f = 0.05f64.sqrt();
        let rows = scaled(FULL_ROWS, f, 10) as u64;
        let cols = scaled(FULL_COLS, f, 8) as u64;
        let mut alloc = Allocator::new();
        let m = Mat2::alloc_padded(&mut alloc, rows, cols, 8);
        let bytes_per_row = m.stride;
        for (p, s) in b.streams.into_iter().enumerate() {
            for a in s {
                if let Action::Write(l) = a {
                    // Rows are line-padded, so the row is recoverable
                    // from the line's first byte.
                    let byte = l * 64;
                    let row = byte / bytes_per_row;
                    assert_eq!(row % 4, p as u64, "proc {p} wrote row {row}");
                    let _ = m;
                }
            }
        }
    }
}
