//! # nw-memhier — node memory hierarchy and coherence substrate
//!
//! Per-node hardware from Figure 1 of the paper: TLB, first- and
//! second-level caches and the local memory bus — plus the
//! machine-wide directory used to keep caches coherent (the paper's
//! base machine is DASH-like, i.e. directory-based). Figure 1's write
//! buffer is not modelled: stores retire at L1 latency (see the
//! machine model's memory path).
//!
//! These components are *timing models*: they track tags, states and
//! statistics, while the actual latencies/contention are charged by the
//! machine model in `nwcache-core` using the outcomes returned here.
//!
//! Addresses are cache-line indices (`Line`): the global byte address
//! divided by the line size. Page-level helpers convert between lines
//! and virtual page numbers.
//!
//! ```
//! use nw_memhier::{Cache, CacheConfig, Directory, LookupResult, ReadOutcome};
//!
//! let mut l1 = Cache::new(CacheConfig::l1_default());
//! let mut dir = Directory::new();
//!
//! // Node 3 reads a line: L1 miss, directory says fetch from memory.
//! assert_eq!(l1.access(42, false), LookupResult::Miss);
//! assert_eq!(dir.read(42, 3), ReadOutcome::FromMemory);
//! l1.fill(42, false);
//! assert_eq!(l1.access(42, false), LookupResult::Hit);
//!
//! // Node 5 writes the same line: node 3 must be invalidated.
//! let w = dir.write(42, 5);
//! assert_eq!(w.invalidate, 1 << 3);
//! ```

pub mod bus;
pub mod cache;
#[cfg(test)]
mod ckpt_fuzz;
pub mod directory;
pub mod linetable;
pub mod tlb;

pub use bus::MemoryBus;
pub use cache::{Cache, CacheConfig, Evicted, LookupResult};
pub use directory::{Directory, ReadOutcome, WriteOutcome};
pub use linetable::LineTable;
pub use tlb::Tlb;

/// A global cache-line index (byte address / line size).
pub type Line = u64;

/// A virtual page number.
pub type Vpn = u64;

/// Cache line size in bytes used across the machine (64 B).
pub const LINE_BYTES: u64 = 64;

/// Page size in bytes (paper Table 1: 4 KB).
pub const PAGE_BYTES: u64 = 4096;

/// Cache lines per page.
pub const LINES_PER_PAGE: u64 = PAGE_BYTES / LINE_BYTES;

/// The page containing a line.
pub const fn page_of_line(line: Line) -> Vpn {
    line / LINES_PER_PAGE
}

/// The first line of a page.
pub const fn first_line_of_page(vpn: Vpn) -> Line {
    vpn * LINES_PER_PAGE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_page_mapping() {
        assert_eq!(LINES_PER_PAGE, 64);
        assert_eq!(page_of_line(0), 0);
        assert_eq!(page_of_line(63), 0);
        assert_eq!(page_of_line(64), 1);
        assert_eq!(first_line_of_page(3), 192);
        assert_eq!(page_of_line(first_line_of_page(17)), 17);
    }
}
