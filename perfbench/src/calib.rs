//! Host-speed calibration: a fixed reference kernel timed between the
//! measured work, so that host time can be reported at one reference
//! speed.
//!
//! The 2-vCPU virtual machines the benchmark runs on change speed by up
//! to 2x for minutes at a time as neighbouring load comes and goes (the
//! slowdown shows in the process's CPU time as much as in wall time, so
//! neither clock escapes it). No statistic over one 30-second run
//! removes a slowdown that covers the whole run. The reference kernel
//! slows with the simulator, so every host-time metric is scaled by
//! `NOMINAL_NS / (the kernel's median time over the run)`: seconds as
//! the simulator would take them with the host running at the
//! reference speed. Raw host times are printed as notes.
//!
//! Of the kernels tried this one tracked the simulator best: over
//! 10-second windows of a one-cell loop the simulator's median moved 7%
//! and its ratio to this kernel 5%, while its ratios to a kernel of
//! dependent loads with data-dependent branches over 256 KiB and to an
//! integer-only kernel moved 18%. Dependent loads over 4 MiB tracked
//! worse than no kernel at all.
//!
//! The kernel is the benchmark's own code, so a change to the simulator
//! moves the scaled metrics exactly as it moves the raw ones.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

/// Read-modify-writes per reference sample.
const ROUNDS: usize = 100_000;
/// Entries of the table they hit at random (4 MiB): past the private
/// caches, like the simulator's page tables, caches and queues.
const TABLE_LEN: usize = 1 << 19;
/// A sample's duration at the reference speed: the kernel's median on
/// the 2-vCPU Xeon virtual machine the benchmark was tuned on.
pub const NOMINAL_NS: f64 = 1_300_000.0;

thread_local! {
    static TABLE: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn kernel(t: &mut [u64]) -> u64 {
    let mask = t.len() - 1;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for _ in 0..ROUNDS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = (x as usize) & mask;
        acc = acc.wrapping_add(t[i]);
        t[i] = acc ^ x;
        acc = acc.rotate_left(5).wrapping_mul(0x100_0000_01b3);
    }
    acc
}

/// One reference sample.
pub struct Sample {
    /// Host nanoseconds of the timed kernel run.
    pub ns: u64,
    /// Host nanoseconds of the whole call, table set-up included.
    pub cost_ns: u64,
}

/// Take one reference sample on this thread: random read-modify-writes
/// over a 4 MiB table mixed with integer arithmetic. The thread's first
/// call also allocates and touches the table, untimed. The table is not
/// warmed before a sample: the simulator's slowdowns follow contention
/// for the shared cache and memory, which a warmed table would hide.
pub fn sample() -> Sample {
    let start = Instant::now();
    TABLE.with(|cell| {
        let mut t = cell.borrow_mut();
        if t.is_empty() {
            *t = vec![1; TABLE_LEN];
            black_box(kernel(&mut t));
        }
        let t0 = Instant::now();
        black_box(kernel(black_box(&mut t)));
        let ns = t0.elapsed().as_nanos() as u64;
        Sample {
            ns,
            cost_ns: start.elapsed().as_nanos() as u64,
        }
    })
}

/// Factor that scales host time measured while the reference samples
/// `ref_ns` were taken to the reference speed; 1 without samples.
pub fn factor(ref_ns: &[u64]) -> f64 {
    if ref_ns.is_empty() {
        return 1.0;
    }
    let v: Vec<f64> = ref_ns.iter().map(|&n| n as f64).collect();
    NOMINAL_NS / crate::report::median(&v)
}
