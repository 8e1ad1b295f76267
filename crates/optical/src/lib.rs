//! # nw-optical — the optical network/write-cache hybrid
//!
//! The paper's core contribution (§3.2): a WDM optical ring whose
//! fiber acts as a **delay-line memory**. Each node owns one *cache
//! channel* it alone may write; swapped-out pages circulate on the
//! channel until the responsible I/O node copies them into its disk
//! controller cache (then ACKs the swapper, freeing the slot) or until
//! a faulting node snoops them back into memory (victim caching).
//!
//! Three modules:
//!
//! * [`ring`] — ring geometry and timing: channel slot storage, and
//!   snoop timing (a reader must wait for the page's bits to circulate
//!   past its receiver: up to one round-trip of 52 µs).
//! * [`fabric`] — every channel of every ring in one array indexed by
//!   global channel id (`gc = ring * channels + node`): insertion
//!   (one page transfer), snoops, removal and channel failure. The
//!   paper machine is a one-ring fabric.
//! * [`interface`] — the NWCache interface electronics at an
//!   I/O-enabled node: one FIFO per cache channel recording swap-out
//!   notifications, drained *most-loaded channel first* and exhausting
//!   a channel before switching (this ordering is what produces the
//!   write-combining wins of Tables 5/6).
//!
//! The storage-capacity equation of §3.2 is implemented and tested:
//! `capacity_bits = channels * fiber_length * rate / speed_of_light`.
//!
//! ```
//! use nw_optical::{NwcInterface, RingConfig, RingFabric};
//!
//! let mut ring = RingFabric::new(RingConfig::paper_default(), 1);
//! let mut iface = NwcInterface::new(8);
//!
//! // Node 2 swaps page 77 out onto its cache channel.
//! let on_ring = ring.insert(1_000, 2, 77).unwrap();
//! iface.enqueue(2, 2, 77);
//!
//! // A victim read must wait for the bits to circulate past the
//! // reader: at most one 52 us round-trip plus the transfer.
//! let ready = ring.snoop_ready(on_ring, 2, 77).unwrap();
//! assert!(ready - on_ring <= 10_400 + 656);
//!
//! // The victim read cancels the pending disk write.
//! assert!(iface.cancel(2, 77).is_some());
//! ring.remove(2, 77);
//! assert_eq!(ring.total_occupancy(), 0);
//! ```

pub mod fabric;
pub mod interface;
pub mod ring;

pub use fabric::RingFabric;
pub use interface::{NwcInterface, SwapRecord};
pub use ring::{RingConfig, RingError};

/// A virtual page number (same space as `nw-disk`).
pub type Page = u64;
