//! Simulated time and bandwidth conversions.
//!
//! All simulated time is measured in **pcycles** — processor cycles of
//! the paper's 200 MHz machine (Table 1: 1 pcycle = 5 nsecs). Bandwidths
//! from the paper (MBytes/s) are converted into bytes-per-pcycle.

/// Simulated time in pcycles (1 pcycle = 5 ns).
pub type Time = u64;

/// Nanoseconds per pcycle (paper Table 1).
pub const NS_PER_CYCLE: u64 = 5;

/// Pcycles in one microsecond.
pub const CYCLES_PER_USEC: Time = 1_000 / NS_PER_CYCLE;

/// Pcycles in one millisecond.
pub const CYCLES_PER_MSEC: Time = 1_000 * CYCLES_PER_USEC;

/// A transfer-rate description used to turn byte counts into pcycles.
///
/// The paper quotes rates in MBytes/s; internally we keep bytes per
/// pcycle as a rational pair in lowest terms so transfer times are
/// exact and deterministic (no floating point in the simulated
/// timeline), and the rates in use divide by a power of two: the mesh
/// link's 200/200 is 1/1, the memory bus's 800/200 is 4/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bandwidth {
    /// Bytes moved per `per_cycles` pcycles.
    bytes: u64,
    /// Number of pcycles in which `bytes` are moved.
    per_cycles: u64,
}

impl Bandwidth {
    /// Bandwidth from a rate in MBytes/second (decimal MB, as the paper
    /// uses: 1 MB = 10^6 bytes).
    ///
    /// With 1 pcycle = 5 ns there are 2 * 10^8 pcycles per second, so a
    /// rate of `r` MB/s moves `r * 10^6` bytes per `2 * 10^8` cycles,
    /// i.e. `r` bytes per 200 cycles.
    pub const fn from_mbytes_per_sec(mb_per_sec: u64) -> Self {
        Bandwidth::new(mb_per_sec, 200)
    }

    /// Bandwidth from a rate in GBytes/second (decimal GB).
    pub const fn from_gbytes_per_sec_milli(gb_per_sec_x1000: u64) -> Self {
        // r GB/s = r * 10^9 B / 2*10^8 cyc = 5 r bytes/cycle.
        // Accept the rate scaled by 1000 so 1.25 GB/s is representable.
        Bandwidth::new(5 * gb_per_sec_x1000, 1000)
    }

    /// An explicit bytes-per-cycles ratio, kept in lowest terms.
    pub const fn new(bytes: u64, per_cycles: u64) -> Self {
        assert!(bytes > 0 && per_cycles > 0);
        let (mut a, mut b) = (bytes, per_cycles);
        while b != 0 {
            (a, b) = (b, a % b);
        }
        Bandwidth {
            bytes: bytes / a,
            per_cycles: per_cycles / a,
        }
    }

    /// Pcycles required to transfer `nbytes` bytes, rounded up:
    /// `ceil(nbytes * per_cycles / bytes)`, with a shift and a mask in
    /// place of the division when `bytes` is a power of two.
    #[inline]
    pub const fn transfer_cycles(&self, nbytes: u64) -> Time {
        let a = nbytes * self.per_cycles;
        if self.bytes.is_power_of_two() {
            let s = self.bytes.trailing_zeros();
            (a >> s) + (a & (self.bytes - 1) != 0) as u64
        } else {
            a.div_ceil(self.bytes)
        }
    }

    /// Bytes per pcycle as a float, for reporting only.
    pub fn bytes_per_cycle(&self) -> f64 {
        self.bytes as f64 / self.per_cycles as f64
    }
}

/// Convert microseconds to pcycles.
pub const fn usecs(us: u64) -> Time {
    us * CYCLES_PER_USEC
}

/// Convert milliseconds to pcycles.
pub const fn msecs(ms: u64) -> Time {
    ms * CYCLES_PER_MSEC
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_constants_match_paper() {
        // 1 pcycle = 5ns -> 200 cycles/us, 200_000 cycles/ms.
        assert_eq!(CYCLES_PER_USEC, 200);
        assert_eq!(CYCLES_PER_MSEC, 200_000);
        assert_eq!(usecs(52), 10_400); // ring round-trip from Table 1
        assert_eq!(msecs(4), 800_000); // rotational latency
    }

    #[test]
    fn memory_bus_rate() {
        // 800 MB/s = 4 bytes/pcycle -> a 4KB page takes 1024 cycles.
        let bw = Bandwidth::from_mbytes_per_sec(800);
        assert_eq!(bw.transfer_cycles(4096), 1024);
        assert!((bw.bytes_per_cycle() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn io_bus_rate() {
        // 300 MB/s = 1.5 bytes/pcycle -> 4KB page = 2731 cycles (ceil).
        let bw = Bandwidth::from_mbytes_per_sec(300);
        assert_eq!(bw.transfer_cycles(4096), 2731);
    }

    #[test]
    fn network_link_rate() {
        // 200 MB/s = 1 byte/pcycle.
        let bw = Bandwidth::from_mbytes_per_sec(200);
        assert_eq!(bw.transfer_cycles(4096), 4096);
        assert_eq!(bw.transfer_cycles(0), 0);
    }

    #[test]
    fn optical_ring_rate() {
        // 1.25 GB/s = 6.25 bytes/pcycle -> 4KB page ~ 656 cycles.
        let bw = Bandwidth::from_gbytes_per_sec_milli(1250);
        assert_eq!(bw.transfer_cycles(4096), 656);
    }

    #[test]
    fn disk_transfer_rate() {
        // 20 MB/s = 0.1 byte/pcycle -> 4KB page = 40960 cycles.
        let bw = Bandwidth::from_mbytes_per_sec(20);
        assert_eq!(bw.transfer_cycles(4096), 40_960);
    }

    #[test]
    fn ratios_are_kept_in_lowest_terms() {
        let terms = |bw: Bandwidth| (bw.bytes, bw.per_cycles);
        assert_eq!(terms(Bandwidth::from_mbytes_per_sec(200)), (1, 1));
        assert_eq!(terms(Bandwidth::from_mbytes_per_sec(800)), (4, 1));
        assert_eq!(terms(Bandwidth::from_mbytes_per_sec(300)), (3, 2));
        assert_eq!(terms(Bandwidth::from_mbytes_per_sec(20)), (1, 10));
        assert_eq!(terms(Bandwidth::from_gbytes_per_sec_milli(1250)), (25, 4));
        assert_eq!(terms(Bandwidth::new(7, 3)), (7, 3));
    }

    /// Every rate in use, at every byte count the machine sends (a
    /// control message, a cache line, a page, a multi-page flush) and
    /// at random counts, against the unreduced `div_ceil`.
    #[test]
    fn transfer_cycles_match_div_ceil_of_the_unreduced_ratio() {
        let rates = [(200, 200), (800, 200), (300, 200), (20, 200), (6250, 1000), (64, 3), (3, 2)];
        let mut counts = vec![0, 1, 2, 3, 8, 16, 63, 64, 65, 4095, 4096, 4097, 8192, 16 * 4096];
        let mut rng = crate::Pcg32::new(0xBA5D, 0);
        counts.extend((0..10_000).map(|_| rng.gen_range(0, 1 << 40)));
        for (bytes, per) in rates {
            let bw = Bandwidth::new(bytes, per);
            for &n in &counts {
                let want = (n * per).div_ceil(bytes);
                assert_eq!(bw.transfer_cycles(n), want, "{bytes}/{per} at {n}");
            }
        }
    }

    #[test]
    fn transfer_rounds_up() {
        let bw = Bandwidth::new(3, 2); // 1.5 B/cycle
        assert_eq!(bw.transfer_cycles(1), 1);
        assert_eq!(bw.transfer_cycles(3), 2);
        assert_eq!(bw.transfer_cycles(4), 3);
    }
}
