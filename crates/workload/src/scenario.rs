//! The stochastic scenario generator: phased, per-node access
//! programs described by dials instead of code.
//!
//! A [`Scenario`] is a list of [`Phase`]s every processor executes in
//! lockstep (separated by barriers). Each phase dials in:
//!
//! * a page-popularity **pattern** — `seq` (striding sweep over the
//!   processor's block partition), `uniform` (uniformly random lines),
//!   or `zipf` (rank-skewed page popularity, hot pages shared by all
//!   processors);
//! * the **working-set size** in pages, the **read/write ratio**, and
//!   the **compute density** per access;
//! * **burst/idle arrival**: after every `burst_len` accesses the
//!   processor idles for `idle` pcycles, modelling phased I/O demand;
//! * **barrier structure**: `barriers` evenly spaced global barriers.
//!
//! Generation draws every random choice from the in-tree
//! [`Pcg32`], split per processor and phase, so a scenario is a pure
//! function of `(spec, nprocs, seed)` — deterministic, sweepable, and
//! safe to regenerate instead of archive.

use crate::trace::{intern, Trace};
use nw_apps::layout::{block_partition, PAGE_BYTES};
use nw_apps::{Action, ActionStream, AppBuild, LINE_BYTES};
use nw_sim::Pcg32;
use std::sync::Arc;

/// Cache lines per 4 KB page.
const LINES_PER_PAGE: u64 = PAGE_BYTES / LINE_BYTES;

/// Largest working set a phase may ask for, in pages (4 GiB): far
/// above the 24,576 pages of the full-scale 256-node scale-study cell,
/// far below a Zipf table whose allocation fails. Zipf phases' working
/// sets are also bounded by it summed over phases, since
/// [`Scenario::build`] holds every Zipf phase's CDF and guide table
/// (12 bytes a page) at once.
pub const MAX_PAGES: u64 = 1 << 20;

// The byte and line counts of a working set cannot overflow.
const _: () = assert!(MAX_PAGES.checked_mul(PAGE_BYTES).is_some());

/// Most accesses a processor may make, summed over all phases: far
/// above the 200,000 of the longest scenario in use, far below a
/// stream that exhausts memory when materialized. A run streams its
/// actions; only [`Scenario::to_trace`] (`nwsim workload gen` and
/// `workload record`) materializes them.
pub const MAX_ACCESSES: u64 = 1 << 20;

/// Most barriers a scenario may hold, summed over all phases: far
/// above the few per phase in use, and every barrier id fits a `u32`.
pub const MAX_BARRIERS: u64 = 1 << 16;

/// Most accesses all processors together may make: ten times the
/// 1.6 million of the largest run in use (200,000 per processor on 8
/// nodes), so that [`MAX_ACCESSES`] on a 1,024-node machine cannot
/// ask [`Scenario::to_trace`] to materialize a billion-action trace.
/// A run streams its actions and holds none of them.
pub const MAX_TOTAL_ACCESSES: u64 = 1 << 24;

/// Page-popularity pattern of a phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pattern {
    /// Stride through the processor's contiguous block partition of
    /// the working set, wrapping around. `stride` is in cache lines
    /// (1 = a dense sequential sweep).
    Sequential {
        /// Line stride between consecutive accesses.
        stride: u64,
    },
    /// Uniformly random lines over the whole working set.
    Uniform,
    /// Zipf-distributed page popularity with exponent `skew` (0 =
    /// uniform over pages; larger = hotter head). Low-numbered pages
    /// are the popular ones, shared by every processor; the accessed
    /// line within a page is uniform.
    Zipf {
        /// Zipf exponent (rank weight `1 / (rank+1)^skew`).
        skew: f64,
    },
}

/// One phase of a scenario — see the module docs for the dials.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Phase {
    /// Page-popularity pattern.
    pub pattern: Pattern,
    /// Working-set size in 4 KB pages.
    pub pages: u64,
    /// Accesses each processor makes in this phase.
    pub accesses: u64,
    /// Fraction of accesses that are writes, in `[0, 1]`.
    pub write_frac: f64,
    /// Compute pcycles charged after every access.
    pub compute: u32,
    /// Accesses per burst; `0` disables burst/idle structure.
    pub burst_len: u32,
    /// Idle pcycles inserted between bursts.
    pub idle: u32,
    /// Evenly spaced global barriers in this phase (>= 1; the last
    /// one closes the phase).
    pub barriers: u32,
}

impl Default for Phase {
    fn default() -> Self {
        Phase {
            pattern: Pattern::Sequential { stride: 1 },
            pages: 512,
            accesses: 16_384,
            write_frac: 0.3,
            compute: 40,
            burst_len: 0,
            idle: 0,
            barriers: 1,
        }
    }
}

/// A complete scenario: a named list of phases.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Workload name (for specs parsed from a string, the spec
    /// itself); becomes the replayed app's name.
    pub name: String,
    /// Phases, executed in order by every processor.
    pub phases: Vec<Phase>,
}

impl Scenario {
    /// Validate every dial, following the config-validation pattern:
    /// fractions in `[0, 1]`, non-empty phase lists, non-zero working
    /// sets and access counts, and sizes within [`MAX_PAGES`] (also
    /// for Zipf working sets summed over phases), [`MAX_ACCESSES`] and
    /// [`MAX_BARRIERS`].
    pub fn validate(&self) -> Result<(), String> {
        if self.phases.is_empty() {
            return Err("scenario has no phases".into());
        }
        let (mut accesses, mut barriers, mut zipf_pages) = (0u64, 0u64, 0u64);
        for (i, ph) in self.phases.iter().enumerate() {
            if ph.pages == 0 {
                return Err(format!("phase {i}: working set must be > 0 pages"));
            }
            if ph.pages > MAX_PAGES {
                return Err(format!(
                    "phase {i}: working set must be at most {MAX_PAGES} pages, got {}",
                    ph.pages
                ));
            }
            if ph.accesses == 0 {
                return Err(format!("phase {i}: accesses must be > 0"));
            }
            accesses = accesses.saturating_add(ph.accesses);
            if accesses > MAX_ACCESSES {
                return Err(format!(
                    "phase {i}: accesses summed over phases must be at most {MAX_ACCESSES}, got {accesses}"
                ));
            }
            barriers += u64::from(ph.barriers);
            if barriers > MAX_BARRIERS {
                return Err(format!(
                    "phase {i}: barriers summed over phases must be at most {MAX_BARRIERS}, got {barriers}"
                ));
            }
            if !(0.0..=1.0).contains(&ph.write_frac) || ph.write_frac.is_nan() {
                return Err(format!(
                    "phase {i}: write_frac must be in [0, 1], got {}",
                    ph.write_frac
                ));
            }
            if ph.barriers == 0 {
                return Err(format!("phase {i}: barriers must be >= 1"));
            }
            if ph.idle > 0 && ph.burst_len == 0 {
                return Err(format!("phase {i}: idle time needs a burst length"));
            }
            match ph.pattern {
                Pattern::Sequential { stride } => {
                    if stride == 0 {
                        return Err(format!("phase {i}: stride must be >= 1"));
                    }
                }
                Pattern::Zipf { skew } => {
                    if !skew.is_finite() || skew < 0.0 {
                        return Err(format!(
                            "phase {i}: zipf skew must be finite and >= 0, got {skew}"
                        ));
                    }
                    zipf_pages += ph.pages;
                    if zipf_pages > MAX_PAGES {
                        return Err(format!(
                            "phase {i}: zipf working sets summed over phases must be at most {MAX_PAGES} pages, got {zipf_pages}"
                        ));
                    }
                }
                Pattern::Uniform => {}
            }
        }
        Ok(())
    }

    /// [`Scenario::validate`], then bound the accesses `nprocs`
    /// processors make together by [`MAX_TOTAL_ACCESSES`].
    pub fn validate_for(&self, nprocs: usize) -> Result<(), String> {
        self.validate()?;
        let per_proc: u64 = self.phases.iter().map(|ph| ph.accesses).sum();
        let total = per_proc.saturating_mul(nprocs as u64);
        if total > MAX_TOTAL_ACCESSES {
            return Err(format!(
                "{per_proc} accesses on each of {nprocs} processors must total at most {MAX_TOTAL_ACCESSES}"
            ));
        }
        Ok(())
    }

    /// Shared data footprint: the largest phase working set,
    /// page-rounded by construction.
    pub fn data_bytes(&self) -> u64 {
        self.phases.iter().map(|p| p.pages).max().unwrap_or(0) * PAGE_BYTES
    }

    /// Materialize the scenario for `nprocs` processors: capture
    /// [`Scenario::build`]'s streams. Pure in `(self, nprocs, seed)`;
    /// the returned trace round-trips through either encoding
    /// bit-identically.
    ///
    /// # Panics
    /// Panics if the scenario fails [`Scenario::validate_for`] or
    /// `nprocs == 0`.
    pub fn to_trace(&self, nprocs: usize, seed: u64) -> Trace {
        Trace::capture(self.build(nprocs, seed))
    }

    /// Build a simulator-ready [`AppBuild`]: one lazily generating
    /// stream per processor, each of which appends one access's
    /// actions per call. Building generates no action; only the phase
    /// list and the Zipf tables are built here, shared by every
    /// processor.
    ///
    /// # Panics
    /// Panics if the scenario fails [`Scenario::validate_for`] or
    /// `nprocs == 0`.
    pub fn build(&self, nprocs: usize, seed: u64) -> AppBuild {
        assert!(nprocs > 0, "need at least one processor");
        self.validate_for(nprocs).unwrap_or_else(|e| panic!("invalid scenario: {e}"));
        let phases: Arc<[Phase]> = self.phases.as_slice().into();
        // Zipf CDF over page ranks, one per phase, shared by every
        // processor (skew 0 degenerates to uniform pages, still with
        // uniform line choice within the page).
        let zipfs: Arc<[ZipfTable]> = self
            .phases
            .iter()
            .map(|ph| match ph.pattern {
                Pattern::Zipf { skew } => ZipfTable::new(zipf_cdf(ph.pages, skew)),
                _ => ZipfTable::default(),
            })
            .collect();
        let streams = (0..nprocs)
            .map(|p| {
                let mut gen =
                    ProcGen::new(p, nprocs, seed, Arc::clone(&phases), Arc::clone(&zipfs));
                ActionStream::generate(move |out| gen.access(out))
            })
            .collect();
        AppBuild {
            name: intern(&self.name),
            data_bytes: self.data_bytes(),
            streams,
        }
    }

    /// Parse a scenario spec string: phases separated by `;`, each
    /// `pattern[,key=val...]`.
    ///
    /// Patterns: `seq[:stride]`, `uniform`, `zipf[:skew]` (default
    /// skew 0.8). Keys: `ws` (working-set pages), `acc` (accesses per
    /// processor), `wf` (write fraction), `cpa` (compute pcycles per
    /// access), `burst=LEN:IDLE` (burst length and idle pcycles),
    /// `bar` (barriers in the phase).
    ///
    /// ```
    /// use nw_workload::Scenario;
    /// let sc = Scenario::parse("zipf:0.9,ws=256,acc=10000,wf=0.4;seq:2,acc=5000").unwrap();
    /// assert_eq!(sc.phases.len(), 2);
    /// assert!(sc.validate().is_ok());
    /// ```
    pub fn parse(spec: &str) -> Result<Scenario, String> {
        let spec = spec.trim();
        if spec.is_empty() {
            return Err("empty scenario spec".into());
        }
        let mut phases = Vec::new();
        for (i, part) in spec.split(';').enumerate() {
            let part = part.trim();
            let mut ph = Phase::default();
            let mut tokens = part.split(',');
            let head = tokens.next().unwrap_or("").trim();
            ph.pattern = match head.split_once(':') {
                Some(("seq", s)) => Pattern::Sequential {
                    stride: s
                        .parse()
                        .map_err(|_| format!("phase {i}: bad stride '{s}'"))?,
                },
                Some(("zipf", s)) => Pattern::Zipf {
                    skew: s
                        .parse()
                        .map_err(|_| format!("phase {i}: bad zipf skew '{s}'"))?,
                },
                None if head == "seq" => Pattern::Sequential { stride: 1 },
                None if head == "uniform" => Pattern::Uniform,
                None if head == "zipf" => Pattern::Zipf { skew: 0.8 },
                _ => {
                    return Err(format!(
                        "phase {i}: unknown pattern '{head}' \
                         (want seq[:stride], uniform, or zipf[:skew])"
                    ))
                }
            };
            for tok in tokens {
                let tok = tok.trim();
                let (key, val) = tok
                    .split_once('=')
                    .ok_or_else(|| format!("phase {i}: expected key=value, got '{tok}'"))?;
                let bad = |what: &str| format!("phase {i}: bad {what} '{val}'");
                match key {
                    "ws" => ph.pages = val.parse().map_err(|_| bad("working set"))?,
                    "acc" => ph.accesses = val.parse().map_err(|_| bad("access count"))?,
                    "wf" => ph.write_frac = val.parse().map_err(|_| bad("write fraction"))?,
                    "cpa" => ph.compute = val.parse().map_err(|_| bad("compute density"))?,
                    "bar" => ph.barriers = val.parse().map_err(|_| bad("barrier count"))?,
                    "burst" => {
                        let (len, idle) = val
                            .split_once(':')
                            .ok_or_else(|| bad("burst (want LEN:IDLE)"))?;
                        ph.burst_len = len.parse().map_err(|_| bad("burst length"))?;
                        ph.idle = idle.parse().map_err(|_| bad("burst idle"))?;
                    }
                    other => {
                        return Err(format!(
                            "phase {i}: unknown key '{other}' \
                             (want ws, acc, wf, cpa, burst, bar)"
                        ))
                    }
                }
            }
            phases.push(ph);
        }
        Ok(Scenario {
            name: spec.to_string(),
            phases,
        })
    }
}

/// One processor's generator: where it stands in the scenario. Each
/// [`ProcGen::access`] call appends one access's actions.
struct ProcGen {
    phases: Arc<[Phase]>,
    /// `zipfs[k]` is phase `k`'s Zipf table (empty for the other
    /// patterns).
    zipfs: Arc<[ZipfTable]>,
    p: usize,
    nprocs: usize,
    /// The processor's root generator, split once per phase.
    rng: Pcg32,
    /// The current phase; `phases.len()` once the stream is done.
    k: usize,
    /// Phase `k`'s split of `rng`.
    prng: Pcg32,
    /// Accesses made in phase `k`.
    i: u64,
    /// Phase `k`'s lines, and this processor's sequential range of
    /// them: `span` lines from `l0`.
    lines_total: u64,
    l0: u64,
    span: u64,
    /// The sequential sweep's offset into its range.
    offset: u64,
    /// The next of phase `k`'s barriers, counted from 1, and the
    /// access count it falls on (`u64::MAX` once none is left). With
    /// more barriers than accesses the first falls on count 0, and is
    /// emitted after the first access.
    boundary: u64,
    barrier_at: u64,
    /// The id of phase `k`'s first barrier.
    next_barrier_id: u32,
}

impl ProcGen {
    fn new(
        p: usize,
        nprocs: usize,
        seed: u64,
        phases: Arc<[Phase]>,
        zipfs: Arc<[ZipfTable]>,
    ) -> Self {
        let mut rng = Pcg32::new(seed, 0x7716 + p as u64);
        let prng = rng.split(0);
        let mut gen = ProcGen {
            phases,
            zipfs,
            p,
            nprocs,
            rng,
            k: 0,
            prng,
            i: 0,
            lines_total: 0,
            l0: 0,
            span: 0,
            offset: 0,
            boundary: 1,
            barrier_at: 0,
            next_barrier_id: 0,
        };
        gen.enter_phase();
        gen
    }

    /// Set up phase `k`'s line range; its generator is already split.
    fn enter_phase(&mut self) {
        self.lines_total = self.phases[self.k].pages * LINES_PER_PAGE;
        let (a, b) = block_partition(self.lines_total, self.nprocs, self.p);
        // More processors than lines: share the whole range.
        (self.l0, self.span) = if a == b { (0, self.lines_total) } else { (a, b - a) };
        self.i = 0;
        self.offset = 0;
        self.boundary = 0;
        self.next_boundary();
    }

    /// Step to phase `k`'s next barrier. Boundaries are a pure function
    /// of the phase dials, so every processor emits the same ids at the
    /// same access counts.
    fn next_boundary(&mut self) {
        let ph = &self.phases[self.k];
        let barriers = ph.barriers as u64;
        self.boundary += 1;
        self.barrier_at = if self.boundary <= barriers {
            ph.accesses * self.boundary / barriers
        } else {
            u64::MAX
        };
    }

    /// Append the actions of the next access, or return `false` once
    /// every phase is done.
    fn access(&mut self, out: &mut Vec<Action>) -> bool {
        let Some(&ph) = self.phases.get(self.k) else {
            return false;
        };
        let prng = &mut self.prng;
        let line = match ph.pattern {
            Pattern::Sequential { stride } => {
                let l = self.l0 + self.offset;
                self.offset = (self.offset + stride) % self.span;
                l
            }
            Pattern::Uniform => prng.gen_range(0, self.lines_total),
            Pattern::Zipf { .. } => {
                let page = self.zipfs[self.k].sample(prng.gen_f64());
                page * LINES_PER_PAGE + prng.gen_range(0, LINES_PER_PAGE)
            }
        };
        out.push(if prng.gen_bool(ph.write_frac) {
            Action::Write(line)
        } else {
            Action::Read(line)
        });
        if ph.compute > 0 {
            out.push(Action::Compute(ph.compute));
        }
        self.i += 1;
        let i = self.i;
        if ph.burst_len > 0 && ph.idle > 0 && i.is_multiple_of(ph.burst_len as u64) {
            out.push(Action::Compute(ph.idle));
        }
        while self.barrier_at <= i {
            out.push(Action::Barrier(self.next_barrier_id + self.boundary as u32 - 1));
            self.next_boundary();
        }
        if i == ph.accesses {
            self.next_barrier_id += ph.barriers;
            self.k += 1;
            if self.k < self.phases.len() {
                self.prng = self.rng.split(self.k as u64);
                self.enter_phase();
            }
        }
        true
    }
}

/// Cumulative Zipf weights over `pages` ranks with exponent `skew`.
fn zipf_cdf(pages: u64, skew: f64) -> Vec<f64> {
    let mut cdf = Vec::with_capacity(pages as usize);
    let mut acc = 0.0;
    for r in 0..pages {
        acc += 1.0 / ((r + 1) as f64).powf(skew);
        cdf.push(acc);
    }
    let total = acc;
    for v in cdf.iter_mut() {
        *v /= total;
    }
    cdf
}

/// A Zipf CDF with a guide table for drawing ranks from it (DESIGN.md
/// §13): `guide[i]` is the first rank whose cumulative weight passes
/// `i / n`, so a draw starts next to its answer instead of binary
/// searching all `n` ranks.
#[derive(Default)]
struct ZipfTable {
    cdf: Vec<f64>,
    guide: Vec<u32>,
}

impl ZipfTable {
    fn new(cdf: Vec<f64>) -> Self {
        let n = cdf.len();
        let mut guide = Vec::with_capacity(n);
        let mut k = 0;
        for i in 0..n {
            let u = i as f64 / n as f64;
            while k < n && cdf[k] <= u {
                k += 1;
            }
            guide.push(k as u32);
        }
        ZipfTable { cdf, guide }
    }

    /// The rank `u` in `[0, 1)` falls on: exactly
    /// `cdf.partition_point(|&c| c <= u)`. The walk from the guide
    /// entry goes either way, so rounding in `u * n` cannot move it.
    #[inline]
    fn sample(&self, u: f64) -> u64 {
        let n = self.cdf.len();
        let mut k = self.guide[((u * n as f64) as usize).min(n - 1)] as usize;
        while k < n && self.cdf[k] <= u {
            k += 1;
        }
        while k > 0 && self.cdf[k - 1] > u {
            k -= 1;
        }
        k as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn count_kinds(stream: &[Action]) -> (u64, u64, u64, Vec<u32>) {
        let (mut r, mut w, mut c) = (0, 0, 0);
        let mut barriers = Vec::new();
        for a in stream {
            match a {
                Action::Read(_) => r += 1,
                Action::Write(_) => w += 1,
                Action::Compute(_) => c += 1,
                Action::Barrier(id) => barriers.push(*id),
            }
        }
        (r, w, c, barriers)
    }

    #[test]
    fn deterministic_per_seed_and_sensitive_to_it() {
        let sc = Scenario::parse("uniform,ws=32,acc=400,wf=0.5").unwrap();
        assert_eq!(sc.to_trace(4, 9), sc.to_trace(4, 9));
        assert_ne!(sc.to_trace(4, 9), sc.to_trace(4, 10));
    }

    #[test]
    fn barriers_agree_across_procs_and_phases() {
        let sc = Scenario::parse("zipf:1.1,ws=64,acc=300,bar=3;seq,ws=64,acc=100,bar=2").unwrap();
        let t = sc.to_trace(4, 5);
        assert!(t.validate().is_ok());
        let seqs: Vec<Vec<u32>> = t.procs.iter().map(|s| count_kinds(s).3).collect();
        assert_eq!(seqs[0], vec![0, 1, 2, 3, 4]);
        for s in &seqs[1..] {
            assert_eq!(s, &seqs[0]);
        }
    }

    #[test]
    fn more_barriers_than_accesses_emits_every_barrier() {
        let sc = Scenario::parse("seq,ws=16,acc=3,bar=5;uniform,ws=16,acc=4,bar=2").unwrap();
        let t = sc.to_trace(8, 1);
        assert!(t.validate().is_ok());
        for s in &t.procs {
            assert_eq!(count_kinds(s).3, vec![0, 1, 2, 3, 4, 5, 6]);
            // The phase's last barrier closes it: it follows the
            // phase's third access, and the second phase's first
            // access follows it.
            let access = |a: &Action| matches!(a, Action::Read(_) | Action::Write(_));
            let close = s.iter().position(|a| *a == Action::Barrier(4)).unwrap();
            assert_eq!(s[..close].iter().filter(|a| access(a)).count(), 3, "{s:?}");
            assert!(access(&s[close + 1]), "{s:?}");
        }
    }

    #[test]
    fn write_fraction_is_respected() {
        let sc = Scenario::parse("uniform,ws=64,acc=20000,wf=0.25,cpa=0").unwrap();
        let t = sc.to_trace(1, 3);
        let (r, w, _, _) = count_kinds(&t.procs[0]);
        let frac = w as f64 / (r + w) as f64;
        assert!((frac - 0.25).abs() < 0.02, "write fraction {frac}");
    }

    #[test]
    fn sequential_sweeps_the_partition() {
        let sc = Scenario::parse("seq,ws=4,acc=64,wf=0,cpa=0").unwrap();
        let t = sc.to_trace(2, 0);
        // Proc 0 owns lines [0, 128); a dense sweep of 64 accesses
        // touches 0..64 in order.
        let lines: Vec<u64> = t.procs[0]
            .iter()
            .filter_map(|a| match a {
                Action::Read(l) => Some(*l),
                _ => None,
            })
            .collect();
        assert_eq!(lines, (0..64).collect::<Vec<u64>>());
    }

    #[test]
    fn guide_table_draws_match_partition_point() {
        let check = |t: &ZipfTable, u: f64| {
            let want = t.cdf.partition_point(|&c| c <= u) as u64;
            assert_eq!(t.sample(u), want, "u {u} over {} ranks", t.cdf.len());
        };
        let tables: Vec<ZipfTable> = [(4096, 0.9), (1000, 0.0), (1, 0.8), (777, 1.3), (3, 40.0)]
            .into_iter()
            .map(|(pages, skew)| ZipfTable::new(zipf_cdf(pages, skew)))
            .collect();
        let mut rng = Pcg32::new(0x21BF, 0);
        for i in 0..1_000_000 {
            check(&tables[i % tables.len()], rng.gen_f64());
        }
        // Draws exactly on, and one ulp either side of, every CDF value
        // and every guide-bucket edge `i / n`.
        for t in &tables {
            let n = t.cdf.len();
            let edges = (0..n).map(|i| i as f64 / n as f64);
            for x in t.cdf.iter().copied().chain(edges) {
                let bits = x.to_bits();
                for u in [x, f64::from_bits(bits.saturating_sub(1)), f64::from_bits(bits + 1)] {
                    if (0.0..1.0).contains(&u) {
                        check(t, u);
                    }
                }
            }
        }
    }

    #[test]
    fn zipf_concentrates_on_hot_pages() {
        let pages = 200u64;
        let sc_hot = Scenario::parse(&format!("zipf:1.2,ws={pages},acc=30000,cpa=0")).unwrap();
        let sc_flat = Scenario::parse(&format!("uniform,ws={pages},acc=30000,cpa=0")).unwrap();
        let share = |t: &Trace| {
            let mut counts: HashMap<u64, u64> = HashMap::new();
            for a in &t.procs[0] {
                if let Action::Read(l) | Action::Write(l) = a {
                    *counts.entry(l / LINES_PER_PAGE).or_default() += 1;
                }
            }
            let total: u64 = counts.values().sum();
            let hot: u64 = (0..pages / 10).map(|p| counts.get(&p).copied().unwrap_or(0)).sum();
            hot as f64 / total as f64
        };
        let hot = share(&sc_hot.to_trace(1, 7));
        let flat = share(&sc_flat.to_trace(1, 7));
        assert!(hot > 0.5, "zipf 1.2 top-10% share only {hot:.2}");
        assert!(flat < 0.2, "uniform top-10% share {flat:.2}");
    }

    #[test]
    fn burst_inserts_idle_gaps() {
        let sc = Scenario::parse("seq,ws=4,acc=100,wf=0,cpa=0,burst=10:5000").unwrap();
        let t = sc.to_trace(1, 0);
        let idles = t.procs[0]
            .iter()
            .filter(|a| matches!(a, Action::Compute(5000)))
            .count();
        assert_eq!(idles, 10);
    }

    /// A spec whose accesses emit every kind of action: a read or
    /// write, its compute, an idle gap and a barrier.
    const ALL_KINDS: &str = "zipf:0.9,ws=48,acc=900,wf=0.4,burst=7:300,bar=9;\
                             seq:3,ws=8,acc=301,wf=0.6,cpa=0,bar=301";

    #[test]
    fn an_advanced_stream_continues_with_the_traces_suffix() {
        let sc = Scenario::parse(ALL_KINDS).unwrap();
        let trace = sc.to_trace(3, 11);
        let stream = || sc.build(3, 11).streams.remove(1);
        let all = &trace.procs[1];
        // The first block's length: a stream stopped there is at a
        // block edge.
        let mut s = stream();
        s.next();
        let edge = s.buffered() as u64 + 1;
        for n in [0, edge / 2, edge, 3 * edge + 1, all.len() as u64] {
            let mut s = stream();
            assert_eq!(s.advance(n), n);
            if n == edge {
                assert_eq!(s.buffered(), 0, "not at a block edge");
            }
            let rest: Vec<Action> = s.collect();
            assert_eq!(rest, all[n as usize..], "after advance({n})");
        }
    }

    #[test]
    fn a_1024_node_scenario_at_the_total_bound_builds_without_generating() {
        let acc = MAX_TOTAL_ACCESSES / 1024;
        let sc = Scenario::parse(&format!("zipf:0.9,ws=4096,acc={acc}")).unwrap();
        let build = sc.build(1024, 1);
        assert_eq!(build.streams.len(), 1024);
        assert!(build.streams.iter().all(|s| s.buffered() == 0));
    }

    #[test]
    fn no_block_exceeds_the_fill_plus_one_access() {
        // One access emits at most four actions: the access, its
        // compute, an idle gap and one barrier.
        let most = nw_apps::BLOCK_FILL - 1 + 4;
        let sc = Scenario::parse(ALL_KINDS).unwrap();
        for mut s in sc.build(4, 3).streams {
            let mut largest = 0;
            loop {
                let edge = s.buffered() == 0;
                if s.next().is_none() {
                    break;
                }
                if edge {
                    largest = largest.max(s.buffered() + 1);
                }
            }
            assert!(largest >= nw_apps::BLOCK_FILL, "a {largest}-action block");
            assert!(largest <= most, "a {largest}-action block");
        }
    }

    #[test]
    fn validation_rejects_bad_dials() {
        for bad in [
            "seq,ws=0",
            "seq,acc=0",
            "uniform,wf=1.5",
            "uniform,wf=-0.1",
            "zipf:-1",
            "seq:0",
            "seq,bar=0",
            "seq,burst=0:100",
            "zipf,ws=1099511627776,acc=1",
            "seq,ws=288230376151711744,acc=1",
            "uniform,ws=64,acc=1000000000000",
            "seq,acc=1,bar=4294967295",
            "seq,acc=600000;seq,acc=600000",
            "zipf,ws=600000,acc=1;seq,acc=1;zipf,ws=600000,acc=1",
        ] {
            let sc = Scenario::parse(bad).unwrap();
            assert!(sc.validate().is_err(), "spec '{bad}' validated");
        }
        // 1,000 maximal Zipf phases: each within bounds, together 8 GB
        // of CDFs.
        let many = vec!["zipf:1,ws=1048576,acc=1"; 1000].join(";");
        let err = Scenario::parse(&many).unwrap().validate().unwrap_err();
        assert!(err.starts_with("phase 1: zipf working sets"), "{err}");
        let at_bound = "zipf,ws=524288,acc=1;zipf,ws=524288,acc=1";
        assert!(Scenario::parse(at_bound).unwrap().validate().is_ok());
        assert!(Scenario { name: "x".into(), phases: vec![] }.validate().is_err());
        assert!(Scenario::parse("zipf:0.8,ws=16,acc=100").unwrap().validate().is_ok());
        // Within every per-processor bound, too many processors.
        let wide = Scenario::parse("uniform,ws=64,acc=20000").unwrap();
        assert!(wide.validate_for(8).is_ok());
        assert!(wide.validate_for(1024).is_err());
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "lru,ws=4",
            "seq,ws",
            "seq,ws=abc",
            "seq,wut=4",
            "zipf:x",
            "seq,burst=5",
        ] {
            assert!(Scenario::parse(bad).is_err(), "spec '{bad}' parsed");
        }
    }

    #[test]
    fn footprint_is_the_largest_phase() {
        let sc = Scenario::parse("seq,ws=8;uniform,ws=32;zipf,ws=16").unwrap();
        assert_eq!(sc.data_bytes(), 32 * PAGE_BYTES);
        let t = sc.to_trace(2, 1);
        assert_eq!(t.data_bytes, 32 * PAGE_BYTES);
        assert!(t.validate().is_ok());
    }
}
