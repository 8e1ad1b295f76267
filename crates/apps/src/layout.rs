//! Shared-address-space layout helpers for the application kernels.
//!
//! Each application allocates its arrays from a single bump
//! [`Allocator`] starting at virtual byte 0; regions are page-aligned
//! so that distinct arrays never share a page. All structures are
//! `Copy` so kernel generators can capture them by value, and line
//! spans are plain `Range`s a generator can resume part-way through.

use crate::{Line, LINE_BYTES};
use std::ops::Range;

/// Page size used for alignment (matches the machine's 4 KB pages).
pub const PAGE_BYTES: u64 = 4096;

/// A page-aligned bump allocator for the virtual address space.
#[derive(Debug, Default)]
pub struct Allocator {
    next: u64,
}

impl Allocator {
    /// Start allocating at address zero.
    pub fn new() -> Self {
        Allocator { next: 0 }
    }

    /// Reserve `bytes` bytes, page aligned.
    pub fn alloc(&mut self, bytes: u64) -> Region {
        let base = self.next;
        let size = bytes.div_ceil(PAGE_BYTES) * PAGE_BYTES;
        self.next += size;
        Region { base, bytes: size }
    }

    /// Total bytes allocated so far (the data footprint).
    pub fn allocated(&self) -> u64 {
        self.next
    }
}

/// A contiguous byte region of the shared address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First byte address.
    pub base: u64,
    /// Size in bytes (page aligned).
    pub bytes: u64,
}

impl Region {
    /// The line containing byte offset `off` within the region.
    pub fn line_at(&self, off: u64) -> Line {
        debug_assert!(off < self.bytes, "offset {off} outside region");
        (self.base + off) / LINE_BYTES
    }

    /// The distinct lines covering byte offsets `[from, to)` within
    /// the region.
    pub fn lines(&self, from: u64, to: u64) -> Range<Line> {
        debug_assert!(from <= to && to <= self.bytes);
        let first = (self.base + from) / LINE_BYTES;
        let last = if to == from {
            first
        } else {
            (self.base + to - 1) / LINE_BYTES + 1
        };
        first..last
    }
}

/// A 1-D array of fixed-size elements inside a region.
#[derive(Debug, Clone, Copy)]
pub struct Vec1 {
    region: Region,
    /// Element size in bytes.
    pub elem: u64,
    /// Number of elements.
    pub len: u64,
}

impl Vec1 {
    /// Allocate a `len`-element array of `elem`-byte elements.
    pub fn alloc(a: &mut Allocator, len: u64, elem: u64) -> Self {
        Vec1 {
            region: a.alloc(len * elem),
            elem,
            len,
        }
    }

    /// Line containing element `i`.
    pub fn line_of(&self, i: u64) -> Line {
        debug_assert!(i < self.len);
        self.region.line_at(i * self.elem)
    }

    /// Distinct lines covering elements `[i0, i1)`.
    pub fn lines(&self, i0: u64, i1: u64) -> Range<Line> {
        self.region.lines(i0 * self.elem, i1 * self.elem)
    }

    /// Elements per cache line.
    pub fn elems_per_line(&self) -> u64 {
        (LINE_BYTES / self.elem).max(1)
    }
}

/// A row-major 2-D matrix of fixed-size elements inside a region.
#[derive(Debug, Clone, Copy)]
pub struct Mat2 {
    region: Region,
    /// Element size in bytes.
    pub elem: u64,
    /// Rows.
    pub rows: u64,
    /// Columns.
    pub cols: u64,
    /// Row stride in bytes (>= cols * elem).
    pub stride: u64,
}

impl Mat2 {
    /// Allocate a `rows x cols` matrix of `elem`-byte elements,
    /// densely packed.
    pub fn alloc(a: &mut Allocator, rows: u64, cols: u64, elem: u64) -> Self {
        let stride = cols * elem;
        Mat2 {
            region: a.alloc(rows * stride),
            elem,
            rows,
            cols,
            stride,
        }
    }

    /// Allocate with each row padded to a cache-line multiple, so rows
    /// never share a line (avoids false sharing for cyclic row
    /// distributions).
    pub fn alloc_padded(a: &mut Allocator, rows: u64, cols: u64, elem: u64) -> Self {
        let stride = (cols * elem).div_ceil(LINE_BYTES) * LINE_BYTES;
        Mat2 {
            region: a.alloc(rows * stride),
            elem,
            rows,
            cols,
            stride,
        }
    }

    /// Line containing element `(r, c)`.
    pub fn line_of(&self, r: u64, c: u64) -> Line {
        debug_assert!(r < self.rows && c < self.cols);
        self.region.line_at(r * self.stride + c * self.elem)
    }

    /// Distinct lines covering row `r`, columns `[c0, c1)`.
    pub fn row_lines(&self, r: u64, c0: u64, c1: u64) -> Range<Line> {
        debug_assert!(r < self.rows && c0 <= c1 && c1 <= self.cols);
        self.region
            .lines(r * self.stride + c0 * self.elem, r * self.stride + c1 * self.elem)
    }

    /// Elements per cache line.
    pub fn elems_per_line(&self) -> u64 {
        (LINE_BYTES / self.elem).max(1)
    }
}

/// Split `n` items over `nprocs` processors in contiguous blocks;
/// returns processor `p`'s `[start, end)`.
pub fn block_partition(n: u64, nprocs: usize, p: usize) -> (u64, u64) {
    let nprocs = nprocs as u64;
    let p = p as u64;
    let base = n / nprocs;
    let extra = n % nprocs;
    let start = p * base + p.min(extra);
    let len = base + if p < extra { 1 } else { 0 };
    (start, start + len)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_page_aligns() {
        let mut a = Allocator::new();
        let r1 = a.alloc(100);
        let r2 = a.alloc(5000);
        assert_eq!(r1.base, 0);
        assert_eq!(r1.bytes, 4096);
        assert_eq!(r2.base, 4096);
        assert_eq!(r2.bytes, 8192);
        assert_eq!(a.allocated(), 12288);
    }

    #[test]
    fn region_lines_cover_range() {
        let mut a = Allocator::new();
        let r = a.alloc(4096);
        let lines: Vec<Line> = r.lines(0, 64).collect();
        assert_eq!(lines, vec![0]);
        let lines: Vec<Line> = r.lines(0, 65).collect();
        assert_eq!(lines, vec![0, 1]);
        let lines: Vec<Line> = r.lines(60, 70).collect();
        assert_eq!(lines, vec![0, 1]);
        assert_eq!(r.lines(10, 10).count(), 0);
    }

    #[test]
    fn vec1_line_mapping() {
        let mut a = Allocator::new();
        let _pad = a.alloc(4096); // shift base to page 1
        let v = Vec1::alloc(&mut a, 100, 8);
        assert_eq!(v.line_of(0), 64); // page 1 starts at line 64
        assert_eq!(v.line_of(7), 64);
        assert_eq!(v.line_of(8), 65);
        assert_eq!(v.elems_per_line(), 8);
        assert_eq!(v.lines(0, 16).count(), 2);
    }

    #[test]
    fn mat2_row_lines() {
        let mut a = Allocator::new();
        let m = Mat2::alloc(&mut a, 10, 16, 8); // 16 doubles = 2 lines/row
        assert_eq!(m.row_lines(0, 0, 16).count(), 2);
        assert_eq!(m.row_lines(1, 0, 8).count(), 1);
        assert_eq!(m.line_of(1, 0), m.row_lines(1, 0, 1).next().unwrap());
        // Rows are contiguous: row 1 starts right after row 0.
        assert_eq!(m.line_of(1, 0), 2);
    }

    #[test]
    fn block_partition_covers_exactly() {
        for n in [0u64, 1, 7, 64, 570] {
            for nprocs in [1usize, 2, 3, 8] {
                let mut total = 0;
                let mut prev_end = 0;
                for p in 0..nprocs {
                    let (s, e) = block_partition(n, nprocs, p);
                    assert_eq!(s, prev_end, "n={n} nprocs={nprocs} p={p}");
                    assert!(e >= s);
                    total += e - s;
                    prev_end = e;
                }
                assert_eq!(total, n);
                assert_eq!(prev_end, n);
            }
        }
    }

    #[test]
    fn block_partition_balanced() {
        for p in 0..8 {
            let (s, e) = block_partition(570, 8, p);
            assert!((e - s) == 71 || (e - s) == 72, "p={p}: {}", e - s);
        }
    }
}
