//! Statistics collectors used throughout the simulator.

use crate::ckpt::{Ckpt, CkptError};
use crate::time::Time;

/// A running tally: count, sum, min, max. The workhorse for "average
/// swap-out time"-style metrics (paper Tables 3 and 4).
///
/// `PartialEq`/`Eq` compare the full internal state (count, sums,
/// extrema), which is what the differential-determinism tests use to
/// assert that parallel and serial sweeps are bit-identical.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    n: u64,
    sum: u128,
    sum_sq: u128,
    min: Option<u64>,
    max: Option<u64>,
}

impl Tally {
    /// An empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    ///
    /// The running sums saturate instead of overflowing: a handful of
    /// samples near `u64::MAX` would otherwise blow through even the
    /// `u128` accumulator for the sum of squares. Saturation keeps the
    /// count and extrema exact and is deterministic, so the
    /// bit-identity comparisons stay valid; only `mean`/`variance`
    /// become approximations in that astronomical regime.
    #[inline]
    pub fn add(&mut self, v: u64) {
        self.n += 1;
        self.sum = self.sum.saturating_add(v as u128);
        self.sum_sq = self.sum_sq.saturating_add((v as u128) * (v as u128));
        self.min = Some(self.min.map_or(v, |m| m.min(v)));
        self.max = Some(self.max.map_or(v, |m| m.max(v)));
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Arithmetic mean, or 0 if no samples.
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum as f64 / self.n as f64
        }
    }

    /// Smallest sample, if any.
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest sample, if any.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// Population variance, or 0 with fewer than two samples. Clamped
    /// to be non-negative: the `E[x²] − E[x]²` form can dip slightly
    /// below zero from floating-point rounding when all samples are
    /// equal and large.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sum_sq as f64 / self.n as f64 - mean * mean).max(0.0)
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Checkpoint the full internal state.
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.u64(&mut self.n)?;
        c.u128(&mut self.sum)?;
        c.u128(&mut self.sum_sq)?;
        c.opt(&mut self.min, 0, Ckpt::u64)?;
        c.opt(&mut self.max, 0, Ckpt::u64)
    }

    /// Merge another tally into this one. The sums saturate, as in
    /// [`Tally::add`].
    pub fn merge(&mut self, other: &Tally) {
        self.n += other.n;
        self.sum = self.sum.saturating_add(other.sum);
        self.sum_sq = self.sum_sq.saturating_add(other.sum_sq);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }
}

/// Power-of-two bucketed latency histogram (bucket `i` counts samples in
/// `[2^i, 2^(i+1))`, bucket 0 also holds zero).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    tally: Tally,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram covering the full `u64` range (64 buckets).
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            tally: Tally::new(),
        }
    }

    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Record one sample.
    pub fn add(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.tally.add(v);
    }

    /// Count in bucket `i` (samples in `[2^i, 2^{i+1})`).
    pub fn bucket(&self, i: usize) -> u64 {
        self.buckets[i]
    }

    /// Underlying tally (count/mean/min/max).
    pub fn tally(&self) -> &Tally {
        &self.tally
    }

    /// Approximate p-th percentile using bucket lower bounds; good
    /// enough for reporting latency distributions.
    ///
    /// Contract (pinned by unit tests):
    /// * empty histogram → 0 for every `p`;
    /// * `p` is clamped into `[0, 100]`; NaN is treated as 100;
    /// * the rank is clamped to at least one sample, so `p = 0`
    ///   returns the first non-empty bucket's lower bound (the bucket
    ///   holding the minimum), not an unconditional 0;
    /// * `p = 100` lands in the last non-empty bucket — including the
    ///   top bucket for samples ≥ 2^63.
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.tally.count();
        if n == 0 {
            return 0;
        }
        let p = if p.is_nan() { 100.0 } else { p.clamp(0.0, 100.0) };
        let target = (((p / 100.0) * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if c > 0 && seen >= target {
                return if i == 0 { 0 } else { 1u64 << i };
            }
        }
        self.tally.max().unwrap_or(0)
    }

    /// Checkpoint the buckets and underlying tally.
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.each(&mut self.buckets, "histogram buckets", Ckpt::u64)?;
        self.tally.ckpt(c)
    }
}

/// A fixed-interval time series: call [`TimeSeries::record`] with a
/// monotonically advancing clock and a value; one sample is kept per
/// interval (the last value observed in it). Used to trace quantities
/// like ring occupancy over a run without unbounded memory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimeSeries {
    interval: Time,
    samples: Vec<(Time, u64)>,
}

impl TimeSeries {
    /// A series sampling once per `interval` pcycles.
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn new(interval: Time) -> Self {
        assert!(interval > 0, "sampling interval must be positive");
        TimeSeries {
            interval,
            samples: Vec::new(),
        }
    }

    /// Record `value` at time `t`. Values within the same interval
    /// overwrite each other (last writer wins); out-of-order times are
    /// clamped into the latest interval.
    pub fn record(&mut self, t: Time, value: u64) {
        let bucket = t / self.interval;
        match self.samples.last_mut() {
            Some((last, v)) if *last >= bucket => *v = value,
            _ => self.samples.push((bucket, value)),
        }
    }

    /// The recorded `(time, value)` samples, times in pcycles.
    pub fn samples(&self) -> impl Iterator<Item = (Time, u64)> + '_ {
        self.samples.iter().map(move |&(b, v)| (b * self.interval, v))
    }

    /// Number of samples kept.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Largest recorded value, if any.
    pub fn max_value(&self) -> Option<u64> {
        self.samples.iter().map(|&(_, v)| v).max()
    }
}

/// A bounded, self-downsampling time series.
///
/// Behaves like [`TimeSeries`] — one sample per interval, last writer
/// wins — but holds at most `cap` samples: when a run outlives the
/// current resolution, the interval **doubles** and adjacent samples
/// merge (last writer wins per coarser bucket), halving the series in
/// place. Memory is therefore O(cap) no matter how long the run or how
/// often the traced quantity changes, while early and late samples
/// keep a uniform (if coarsened) spacing.
///
/// Downsampling is a pure function of the recorded `(t, value)`
/// sequence, so two runs producing the same samples produce the same
/// series — the differential-determinism suite compares these for
/// equality (`PartialEq` is full-state, including the final interval).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoundedSeries {
    interval: Time,
    cap: usize,
    samples: Vec<(Time, u64)>,
}

impl BoundedSeries {
    /// A series starting at one sample per `interval` pcycles, holding
    /// at most `cap` samples.
    ///
    /// # Panics
    /// Panics if `interval` is zero or `cap < 2` (a cap of one cannot
    /// halve).
    pub fn new(interval: Time, cap: usize) -> Self {
        assert!(interval > 0, "sampling interval must be positive");
        assert!(cap >= 2, "sample cap must be at least 2");
        BoundedSeries {
            interval,
            cap,
            samples: Vec::new(),
        }
    }

    /// Record `value` at time `t`. Same-interval values overwrite each
    /// other; out-of-order times fold into the latest interval; hitting
    /// the cap doubles the interval and merges.
    pub fn record(&mut self, t: Time, value: u64) {
        let bucket = t / self.interval;
        match self.samples.last_mut() {
            Some((last, v)) if *last >= bucket => *v = value,
            _ => self.samples.push((bucket, value)),
        }
        // A single doubling may not merge anything (e.g. samples in
        // every other interval), so coarsen until back under the cap.
        while self.samples.len() > self.cap {
            self.coarsen();
        }
    }

    /// Double the interval and merge samples into the coarser buckets.
    fn coarsen(&mut self) {
        self.interval = self.interval.saturating_mul(2);
        let mut out = 0;
        for i in 0..self.samples.len() {
            let (b, v) = self.samples[i];
            let nb = b / 2;
            if out > 0 && self.samples[out - 1].0 == nb {
                self.samples[out - 1].1 = v;
            } else {
                self.samples[out] = (nb, v);
                out += 1;
            }
        }
        self.samples.truncate(out);
    }

    /// The recorded `(time, value)` samples at the current resolution.
    pub fn samples(&self) -> impl Iterator<Item = (Time, u64)> + '_ {
        self.samples.iter().map(move |&(b, v)| (b * self.interval, v))
    }

    /// Current sampling interval (≥ the constructed one; doubles under
    /// pressure).
    pub fn interval(&self) -> Time {
        self.interval
    }

    /// Maximum number of samples ever held.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of samples kept.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Largest recorded value, if any.
    pub fn max_value(&self) -> Option<u64> {
        self.samples.iter().map(|&(_, v)| v).max()
    }

    /// Checkpoint the current interval (it doubles under pressure) and
    /// the raw bucket samples. The capacity is construction config.
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.u64(&mut self.interval)?;
        if self.interval == 0 {
            return Err(c.invalid("bounded series interval is zero"));
        }
        c.list(&mut self.samples, self.cap, 2, "bounded-series samples", |c, (b, v)| {
            c.u64(b)?;
            c.u64(v)
        })
    }
}

/// Per-category cycle accounting for one processor.
///
/// Mirrors the paper's Figure 3/4 decomposition: `NoFree`, `Transit`,
/// `Fault`, `TLB` and `Other` (busy + cache miss + synchronization).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Stall waiting for a free page frame (swap-outs outstanding).
    pub no_free: Time,
    /// Waiting for a page another node is already bringing in.
    pub transit: Time,
    /// Page fault service time (disk or ring read on the critical path).
    pub fault: Time,
    /// TLB miss handling and TLB shootdown interrupts.
    pub tlb: Time,
    /// Everything else: compute, cache misses, synchronization.
    pub other: Time,
}

impl CycleBreakdown {
    /// Sum of all categories — the processor's total execution time.
    pub fn total(&self) -> Time {
        self.no_free + self.transit + self.fault + self.tlb + self.other
    }

    /// Element-wise accumulate.
    pub fn accumulate(&mut self, other: &CycleBreakdown) {
        self.no_free += other.no_free;
        self.transit += other.transit;
        self.fault += other.fault;
        self.tlb += other.tlb;
        self.other += other.other;
    }

    /// Checkpoint all five categories.
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        for v in [&mut self.no_free, &mut self.transit, &mut self.fault, &mut self.tlb, &mut self.other] {
            c.u64(v)?;
        }
        Ok(())
    }

    /// Each category as a fraction of `denom` cycles (for the
    /// normalized stacked bars of Figures 3 and 4).
    pub fn normalized(&self, denom: Time) -> [f64; 5] {
        let d = denom.max(1) as f64;
        [
            self.no_free as f64 / d,
            self.transit as f64 / d,
            self.fault as f64 / d,
            self.tlb as f64 / d,
            self.other as f64 / d,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_basics() {
        let mut t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        t.add(10);
        t.add(20);
        t.add(30);
        assert_eq!(t.count(), 3);
        assert_eq!(t.sum(), 60);
        assert!((t.mean() - 20.0).abs() < 1e-12);
        assert_eq!(t.min(), Some(10));
        assert_eq!(t.max(), Some(30));
    }

    #[test]
    fn tally_variance_and_stddev() {
        let mut t = Tally::new();
        for v in [2u64, 4, 4, 4, 5, 5, 7, 9] {
            t.add(v);
        }
        // Classic example: population variance 4, stddev 2.
        assert!((t.variance() - 4.0).abs() < 1e-9);
        assert!((t.stddev() - 2.0).abs() < 1e-9);
        let mut single = Tally::new();
        single.add(10);
        assert_eq!(single.variance(), 0.0);
    }

    #[test]
    fn tally_merge() {
        let mut a = Tally::new();
        a.add(1);
        a.add(5);
        let mut b = Tally::new();
        b.add(10);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.max(), Some(10));
        assert_eq!(a.min(), Some(1));
        let mut empty = Tally::new();
        empty.merge(&a);
        assert_eq!(empty.count(), 3);
    }

    #[test]
    fn tally_merge_saturates_like_add() {
        // Two u64::MAX samples already saturate `sum_sq`; merging two
        // such tallies must saturate too, not overflow.
        let mut a = Tally::new();
        a.add(u64::MAX);
        a.add(u64::MAX);
        let b = a.clone();
        a.merge(&b);
        let mut added = b.clone();
        added.add(u64::MAX);
        added.add(u64::MAX);
        assert_eq!(a, added);
        assert_eq!(a.count(), 4);
        assert_eq!(a.sum(), 4 * u64::MAX as u128);
        assert_eq!(a.max(), Some(u64::MAX));
    }

    #[test]
    fn histogram_buckets() {
        let mut h = Histogram::new();
        h.add(0);
        h.add(1);
        h.add(2);
        h.add(3);
        h.add(1024);
        assert_eq!(h.bucket(0), 2); // 0 and 1
        assert_eq!(h.bucket(1), 2); // 2 and 3
        assert_eq!(h.bucket(10), 1); // 1024
        assert_eq!(h.tally().count(), 5);
    }

    #[test]
    fn histogram_percentile_monotone() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
            h.add(v);
        }
        assert!(h.percentile(50.0) <= h.percentile(90.0));
        assert!(h.percentile(90.0) <= h.percentile(100.0));
        assert_eq!(Histogram::new().percentile(99.0), 0);
    }

    #[test]
    fn histogram_percentile_edge_contract() {
        // Empty histogram: 0 for every p, including the weird ones.
        let empty = Histogram::new();
        for p in [0.0, 50.0, 100.0, -3.0, 250.0, f64::NAN] {
            assert_eq!(empty.percentile(p), 0);
        }

        // p = 0 must land in the minimum's bucket, not return 0
        // unconditionally: all samples here are >= 1024.
        let mut h = Histogram::new();
        for v in [1024u64, 2048, 4096] {
            h.add(v);
        }
        assert_eq!(h.percentile(0.0), 1 << 10);
        // p = 100 lands in the last non-empty bucket's lower bound.
        assert_eq!(h.percentile(100.0), 1 << 12);
        // Out-of-range / NaN p clamps rather than panics or underflows.
        assert_eq!(h.percentile(-10.0), h.percentile(0.0));
        assert_eq!(h.percentile(500.0), h.percentile(100.0));
        assert_eq!(h.percentile(f64::NAN), h.percentile(100.0));
    }

    #[test]
    fn histogram_percentile_single_bucket_saturation() {
        // Every sample in one bucket: all percentiles agree.
        let mut h = Histogram::new();
        for _ in 0..1000 {
            h.add(100); // bucket 6: [64, 128)
        }
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 1 << 6);
        }
    }

    #[test]
    fn histogram_percentile_overflow_bucket() {
        // Samples at the top of the u64 range live in bucket 63.
        let mut h = Histogram::new();
        h.add(u64::MAX);
        h.add(u64::MAX - 1);
        h.add(1);
        assert_eq!(h.percentile(0.0), 0); // min's bucket: [1, 2) => lower bound... bucket 0
        assert_eq!(h.percentile(100.0), 1u64 << 63);
        assert_eq!(h.percentile(99.0), 1u64 << 63);
    }

    #[test]
    fn tally_variance_never_negative() {
        // Large equal samples: the E[x²]−E[x]² form loses precision and
        // can go fractionally negative without the clamp.
        let mut t = Tally::new();
        for _ in 0..7 {
            t.add((1u64 << 53) + 1);
        }
        assert!(t.variance() >= 0.0);
        assert!(t.stddev() >= 0.0);
        assert!(!t.stddev().is_nan());
    }

    #[test]
    fn bounded_series_matches_time_series_under_cap() {
        let mut ts = TimeSeries::new(100);
        let mut bs = BoundedSeries::new(100, 64);
        for (t, v) in [(0, 1), (50, 2), (150, 3), (320, 9)] {
            ts.record(t, v);
            bs.record(t, v);
        }
        let a: Vec<(u64, u64)> = ts.samples().collect();
        let b: Vec<(u64, u64)> = bs.samples().collect();
        assert_eq!(a, b);
        assert_eq!(bs.interval(), 100);
    }

    #[test]
    fn bounded_series_coarsens_under_pressure() {
        let mut bs = BoundedSeries::new(10, 8);
        for i in 0..1000u64 {
            bs.record(i * 10, i);
        }
        assert!(bs.len() <= 8, "len {} exceeds cap", bs.len());
        assert!(bs.interval() > 10, "interval never doubled");
        // Last value survives downsampling (last writer wins).
        let last = bs.samples().last().unwrap();
        assert_eq!(last.1, 999);
        assert_eq!(bs.max_value(), Some(999));
    }

    #[test]
    fn bounded_series_sparse_samples_still_bounded() {
        // Samples in every other interval: one doubling merges nothing,
        // so the cap enforcement must iterate.
        let mut bs = BoundedSeries::new(1, 4);
        for i in 0..64u64 {
            bs.record(i * 2, i);
        }
        assert!(bs.len() <= 4);
        assert_eq!(bs.samples().last().unwrap().1, 63);
    }

    #[test]
    fn bounded_series_deterministic() {
        let run = || {
            let mut bs = BoundedSeries::new(7, 16);
            for i in 0..500u64 {
                bs.record(i * 13, i.wrapping_mul(2654435761) % 97);
            }
            bs
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn bounded_series_zero_interval_rejected() {
        BoundedSeries::new(0, 8);
    }

    #[test]
    fn time_series_buckets() {
        let mut ts = TimeSeries::new(100);
        ts.record(0, 1);
        ts.record(50, 2); // same bucket: overwrite
        ts.record(150, 3);
        ts.record(320, 9);
        let v: Vec<(u64, u64)> = ts.samples().collect();
        assert_eq!(v, vec![(0, 2), (100, 3), (300, 9)]);
        assert_eq!(ts.max_value(), Some(9));
        assert_eq!(ts.len(), 3);
        assert!(!ts.is_empty());
    }

    #[test]
    fn time_series_out_of_order_clamps() {
        let mut ts = TimeSeries::new(10);
        ts.record(100, 5);
        ts.record(90, 7); // earlier time: folded into latest bucket
        let v: Vec<(u64, u64)> = ts.samples().collect();
        assert_eq!(v, vec![(100, 7)]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn time_series_zero_interval_rejected() {
        TimeSeries::new(0);
    }

    #[test]
    fn breakdown_total_and_normalize() {
        let b = CycleBreakdown {
            no_free: 10,
            transit: 20,
            fault: 30,
            tlb: 15,
            other: 25,
        };
        assert_eq!(b.total(), 100);
        let n = b.normalized(200);
        assert!((n.iter().sum::<f64>() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn breakdown_accumulate() {
        let mut a = CycleBreakdown::default();
        let b = CycleBreakdown {
            no_free: 1,
            transit: 2,
            fault: 3,
            tlb: 4,
            other: 5,
        };
        a.accumulate(&b);
        a.accumulate(&b);
        assert_eq!(a.total(), 30);
        assert_eq!(a.fault, 6);
    }
}
