//! Encoding a trace allocates only its output.
//!
//! A counting allocator tracks the bytes live at once. While a
//! 100,000-record trace encodes to the binary form, live bytes may
//! grow by the encoded output (a few bytes a record, plus the output
//! vector's spare capacity) but must stay below the trace's own
//! in-memory size: an encoder that walked a copy of the trace would
//! cross it.

use nw_apps::Action;
use nw_workload::Trace;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting live bytes and their high-water mark.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(by: usize) {
    let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees hold; the counters only read sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the new block allocated before the old is freed.
        grow(new_size);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const PROCS: usize = 8;
const RECORDS: usize = 100_000;

#[test]
fn binary_encoding_holds_no_copy_of_the_trace() {
    let mut trace = Trace {
        name: "alloc".into(),
        data_bytes: 1 << 30,
        procs: (0..PROCS as u64)
            .map(|p| {
                (0..(RECORDS / PROCS) as u64)
                    .map(|i| match i % 4 {
                        0 => Action::Read(p << 20 | i),
                        1 => Action::Write(i * 7),
                        2 => Action::Compute((i % 300) as u32),
                        _ => Action::Barrier(i as u32),
                    })
                    .collect()
            })
            .collect(),
    };
    let in_memory = RECORDS * std::mem::size_of::<Action>();
    assert_eq!(in_memory, RECORDS * 16, "16 B/record in memory");

    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let bytes = trace.encode_binary();
    let grew = PEAK.load(Ordering::Relaxed) - before;
    assert!(
        grew < in_memory,
        "encoding {RECORDS} records grew live memory by {grew} bytes; \
         the trace itself holds {in_memory}"
    );
    // The output is the real encoding, and counted within that bound.
    assert!(bytes.len() >= RECORDS && bytes.len() <= grew);
    assert_eq!(Trace::decode(&bytes).expect("round trip"), trace);
}
