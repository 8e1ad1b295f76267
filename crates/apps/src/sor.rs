//! SOR — successive over-relaxation (Table 2: 640 x 512 floats,
//! 10 iterations, ~2.6 MB).
//!
//! Jacobi-style 5-point stencil over two ping-pong grids, rows block-
//! partitioned across processors. Each iteration reads the three
//! neighbouring rows of the source grid and writes one row of the
//! destination grid; a barrier separates iterations. Sharing occurs at
//! partition-boundary rows.

use crate::layout::{block_partition, Allocator, Mat2};
use crate::{scaled, Action, ActionStream, AppBuild};

const FULL_ROWS: usize = 640;
const FULL_COLS: usize = 512;
const ITERS: u32 = 10;
/// Compute cycles per line of 16 floats (4 flops each).
const COMPUTE_PER_LINE: u32 = 48;

/// Build the SOR kernel streams. A unit is one row's stencil update,
/// or an iteration's barrier.
pub fn build(nprocs: usize, scale: f64, _seed: u64) -> AppBuild {
    // Scale each dimension by sqrt(scale) so the footprint scales
    // linearly with `scale` (keeps scaled runs out-of-core).
    let f = scale.sqrt();
    let rows = scaled(FULL_ROWS, f, 8) as u64;
    let cols = scaled(FULL_COLS, f, 16) as u64;
    let mut alloc = Allocator::new();
    let g0 = Mat2::alloc(&mut alloc, rows, cols, 4);
    let g1 = Mat2::alloc(&mut alloc, rows, cols, 4);
    let data_bytes = alloc.allocated();

    let streams = (0..nprocs)
        .map(|p| {
            let (r0, r1) = block_partition(rows, nprocs, p);
            let (mut it, mut r) = (0u32, r0);
            ActionStream::generate(move |out| {
                if it == ITERS {
                    return false;
                }
                if r == r1 {
                    out.push(Action::Barrier(it));
                    it += 1;
                    r = r0;
                    return true;
                }
                let (src, dst) = if it % 2 == 0 { (g0, g1) } else { (g1, g0) };
                let up = r.saturating_sub(1);
                let down = (r + 1).min(rows - 1);
                for c in (0..cols).step_by(src.elems_per_line() as usize) {
                    out.extend([
                        Action::Read(src.line_of(up, c)),
                        Action::Read(src.line_of(r, c)),
                        Action::Read(src.line_of(down, c)),
                        Action::Compute(COMPUTE_PER_LINE),
                        Action::Write(dst.line_of(r, c)),
                    ]);
                }
                r += 1;
                true
            })
        })
        .collect();

    AppBuild {
        name: "sor",
        data_bytes,
        streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Action;

    #[test]
    fn footprint_matches_paper() {
        let b = build(8, 1.0, 0);
        let mb = b.data_bytes as f64 / (1024.0 * 1024.0);
        assert!((mb - 2.5).abs() < 0.2, "{mb}");
    }

    #[test]
    fn reads_three_rows_per_written_line() {
        let b = build(2, 0.05, 0);
        let actions: Vec<Action> = b.streams.into_iter().next().unwrap().collect();
        let reads = actions
            .iter()
            .filter(|a| matches!(a, Action::Read(_)))
            .count();
        let writes = actions
            .iter()
            .filter(|a| matches!(a, Action::Write(_)))
            .count();
        assert_eq!(reads, 3 * writes);
    }

    #[test]
    fn ten_barriers() {
        let b = build(1, 0.05, 0);
        let barriers = b.streams.into_iter().next().unwrap()
            .filter(|a| matches!(a, Action::Barrier(_)))
            .count();
        assert_eq!(barriers, 10);
    }

    #[test]
    fn grids_pingpong_between_iterations() {
        // Writes in iteration 0 go to grid 1, in iteration 1 to grid 0.
        let b = build(1, 0.05, 0);
        let mut it0_writes = Vec::new();
        let mut it1_writes = Vec::new();
        let mut iter_no = 0;
        for a in b.streams.into_iter().next().unwrap() {
            match a {
                Action::Barrier(_) => iter_no += 1,
                Action::Write(l) if iter_no == 0 => it0_writes.push(l),
                Action::Write(l) if iter_no == 1 => it1_writes.push(l),
                _ => {}
            }
        }
        // Grid 0 precedes grid 1 in the address space, so iteration 1
        // (writing grid 0) uses strictly lower lines than iteration 0.
        assert!(it1_writes.iter().max().unwrap() < it0_writes.iter().min().unwrap());
    }
}
