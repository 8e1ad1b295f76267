//! # nw-apps — the out-of-core parallel application workload
//!
//! The seven programs of the paper's Table 2, reimplemented as
//! deterministic SPMD *reference generators*: each processor's kernel
//! is a lazy stream of [`Action`]s (compute bursts, cache-line reads
//! and writes into a shared virtual address space, and barriers). The
//! machine model in `nwcache-core` executes these streams against the
//! simulated memory hierarchy and VM system.
//!
//! Every stream is one concrete type, [`ActionStream`]: a block of
//! actions plus a cursor. A kernel is a plain-loop generator that
//! appends one natural unit at a time (a Gauss row update, an Em3d
//! node, a SOR row, an Mg plane, an LU block, a run of Radix or FFT
//! lines), and the stream calls it only when its block runs dry, so
//! taking the next action is one index and one bounds check. Building
//! an application allocates no block; the first refill does, and a
//! block holds a few hundred to a few thousand actions. Generated
//! scenarios and replayed traces (`nw-workload`) stream through the
//! same generator interface; [`AppBuild::from_actions`] moves each
//! vector in as one pre-filled block, without a copy.
//! Streams are pure functions of `(app, nprocs, scale, seed)`, so a
//! checkpoint records only how many actions each processor consumed.
//!
//! | Program | Description | Input (full scale) | Data |
//! |---------|-------------|--------------------|------|
//! | Em3d    | Electromagnetic wave propagation | 32 K nodes, 5% remote, 10 iters | ~2.5 MB |
//! | FFT     | 1D Fast Fourier Transform | 64 K points | ~3.1 MB |
//! | Gauss   | Unblocked Gaussian elimination | 570 x 512 doubles | ~2.3 MB |
//! | LU      | Blocked LU factorization | 576 x 576 doubles | ~2.7 MB |
//! | Mg      | 3D Poisson multigrid | 32 x 32 x 64, 10 iters | ~2.4 MB |
//! | Radix   | Integer radix sort | 320 K keys, radix 1024 | ~2.6 MB |
//! | SOR     | Successive over-relaxation | 640 x 512 floats, 10 iters | ~2.6 MB |
//!
//! All applications `mmap` their data in the paper — i.e. they access
//! it through the virtual memory system, which is precisely what the
//! streams model. A `scale` parameter shrinks every input (for tests
//! and quick benches) while preserving the access-pattern shape.
//!
//! ```
//! use nw_apps::{build, Action, AppId};
//!
//! // Four processors run a small SOR; streams are lazy.
//! let app = build(AppId::Sor, 4, 0.05, 42);
//! assert_eq!(app.streams.len(), 4);
//! let first: Vec<Action> = app.streams.into_iter().next().unwrap().take(5).collect();
//! // A stencil update: three reads, compute, then the write.
//! assert!(matches!(first[0], Action::Read(_)));
//! assert!(matches!(first[3], Action::Compute(_)));
//! assert!(matches!(first[4], Action::Write(_)));
//! ```

pub mod em3d;
pub mod fft;
pub mod gauss;
pub mod layout;
pub mod lu;
pub mod mg;
pub mod radix;
pub mod sor;
pub mod synth;

use nw_sim::ckpt::{Ckpt, CkptError};

/// A global cache-line index (byte address / 64).
pub type Line = u64;

/// Cache-line size in bytes, shared with `nw-memhier`.
pub const LINE_BYTES: u64 = 64;

/// One step of a processor's execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Run for this many pcycles without touching shared memory.
    Compute(u32),
    /// Load from a shared cache line.
    Read(Line),
    /// Store to a shared cache line.
    Write(Line),
    /// Global barrier with a sequential id; every processor emits the
    /// same barrier ids in the same order.
    Barrier(u32),
}

/// The blank a decoder overwrites: a zero-cycle compute step.
impl Default for Action {
    fn default() -> Self {
        Action::Compute(0)
    }
}

/// Visit one action for the [`nw_sim::ckpt`] codec: its tag as one raw
/// byte (frozen: 0 compute, 1 read, 2 write, 3 barrier), then its
/// operand as a varint. The same bytes encode an `nwtrace-v1` binary
/// record and an `nwckpt-v1` pending action. Any other tag byte is
/// refused, so `0x80 0x00` (a long varint 0) is not a compute step.
pub fn action_ckpt(c: &mut Ckpt, a: &mut Action) -> Result<(), CkptError> {
    let mut tag: u8 = match a {
        Action::Compute(_) => 0,
        Action::Read(_) => 1,
        Action::Write(_) => 2,
        Action::Barrier(_) => 3,
    };
    c.u8(&mut tag)?;
    if c.loading() {
        *a = match tag {
            0 => Action::Compute(0),
            1 => Action::Read(0),
            2 => Action::Write(0),
            3 => Action::Barrier(0),
            other => return Err(c.invalid(format!("unknown action tag byte {other}"))),
        };
    }
    match a {
        Action::Compute(n) | Action::Barrier(n) => c.u32(n),
        Action::Read(line) | Action::Write(line) => c.u64(line),
    }
}

/// A kernel's per-unit generator: each call appends one natural unit
/// of work (a row update, a graph node, a block) to the buffer, or
/// returns `false` once the kernel has no units left.
type Units = Box<dyn FnMut(&mut Vec<Action>) -> bool + Send>;

/// A refill keeps calling the generator until the block holds at
/// least this many actions, so the boxed call is amortized over a
/// few hundred references while a block stays small (this plus one
/// unit, at most a few thousand actions at full scale).
pub const BLOCK_FILL: usize = 256;

/// A per-processor action stream, generated a block at a time.
/// Exhaustion means the processor is done.
///
/// The stream is a buffer of actions plus a cursor. When the cursor
/// reaches the end, the kernel's generator refills the buffer with
/// its next units; a replayed stream ([`ActionStream::from_vec`]) is
/// one pre-filled block with no generator. Building a stream
/// allocates no block: the first refill does.
pub struct ActionStream {
    block: Vec<Action>,
    pos: usize,
    units: Option<Units>,
}

impl ActionStream {
    /// A stream whose actions `unit` generates on demand.
    pub fn generate(unit: impl FnMut(&mut Vec<Action>) -> bool + Send + 'static) -> Self {
        ActionStream {
            block: Vec::new(),
            pos: 0,
            units: Some(Box::new(unit)),
        }
    }

    /// A stream replaying `actions`, moved in without a copy.
    pub fn from_vec(actions: Vec<Action>) -> Self {
        ActionStream {
            block: actions,
            pos: 0,
            units: None,
        }
    }

    /// Generate the next block. Returns `false` once the stream is
    /// exhausted (the generator and the block's memory are then
    /// dropped).
    fn refill(&mut self) -> bool {
        self.block.clear();
        self.pos = 0;
        if let Some(unit) = self.units.as_mut() {
            while self.block.len() < BLOCK_FILL {
                if !unit(&mut self.block) {
                    self.units = None;
                    break;
                }
            }
        }
        if self.block.is_empty() {
            self.block = Vec::new();
            return false;
        }
        true
    }

    /// The slow path of `next`: refill, then take the block's first
    /// action.
    #[cold]
    #[inline(never)]
    fn next_block(&mut self) -> Option<Action> {
        if !self.refill() {
            return None;
        }
        self.pos = 1;
        Some(self.block[0])
    }

    /// Actions left in the current block: 0 at a block boundary.
    pub fn buffered(&self) -> usize {
        self.block.len() - self.pos
    }

    /// Skip up to `n` actions, whole blocks at a time. Returns how
    /// many were skipped: less than `n` only if the stream ended.
    pub fn advance(&mut self, n: u64) -> u64 {
        let mut skipped = 0;
        loop {
            let take = (self.buffered() as u64).min(n - skipped);
            self.pos += take as usize;
            skipped += take;
            if skipped == n || !self.refill() {
                return skipped;
            }
        }
    }
}

impl Iterator for ActionStream {
    type Item = Action;

    #[inline]
    fn next(&mut self) -> Option<Action> {
        match self.block.get(self.pos) {
            Some(&a) => {
                self.pos += 1;
                Some(a)
            }
            None => self.next_block(),
        }
    }
}

/// A fully built application instance: one stream per processor.
pub struct AppBuild {
    /// Application name (lower case, as in the paper's tables).
    pub name: &'static str,
    /// Total shared data footprint in bytes.
    pub data_bytes: u64,
    /// One action stream per processor.
    pub streams: Vec<ActionStream>,
}

impl AppBuild {
    /// Build from fully materialized per-processor action vectors.
    /// This is the replay hook: a recorded or generated trace becomes
    /// an ordinary application the machine model cannot distinguish
    /// from a hand-written kernel.
    pub fn from_actions(
        name: &'static str,
        data_bytes: u64,
        actions: Vec<Vec<Action>>,
    ) -> AppBuild {
        AppBuild {
            name,
            data_bytes,
            streams: actions.into_iter().map(ActionStream::from_vec).collect(),
        }
    }

    /// Drain every stream into concrete action vectors. This is the
    /// recorder hook: it captures the exact per-processor order the
    /// simulator would consume, at the `AppBuild`/`Action` boundary.
    pub fn into_actions(self) -> (&'static str, u64, Vec<Vec<Action>>) {
        (
            self.name,
            self.data_bytes,
            self.streams.into_iter().map(|s| s.collect()).collect(),
        )
    }
}

/// The seven applications of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppId {
    /// Electromagnetic wave propagation on a bipartite graph.
    Em3d,
    /// 1D fast Fourier transform.
    Fft,
    /// Unblocked Gaussian elimination.
    Gauss,
    /// Blocked LU factorization.
    Lu,
    /// 3D Poisson solver using multigrid.
    Mg,
    /// Integer radix sort.
    Radix,
    /// Successive over-relaxation.
    Sor,
}

impl AppId {
    /// All applications, in the paper's table order.
    pub const ALL: [AppId; 7] = [
        AppId::Em3d,
        AppId::Fft,
        AppId::Gauss,
        AppId::Lu,
        AppId::Mg,
        AppId::Radix,
        AppId::Sor,
    ];

    /// Lower-case name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            AppId::Em3d => "em3d",
            AppId::Fft => "fft",
            AppId::Gauss => "gauss",
            AppId::Lu => "lu",
            AppId::Mg => "mg",
            AppId::Radix => "radix",
            AppId::Sor => "sor",
        }
    }

    /// Parse a name (as printed by [`AppId::name`]).
    pub fn from_name(s: &str) -> Option<AppId> {
        AppId::ALL.iter().copied().find(|a| a.name() == s)
    }
}

/// Build application `app` for `nprocs` processors at `scale` (1.0 =
/// the paper's full input) with deterministic randomness from `seed`.
///
/// # Panics
/// Panics if `nprocs` is zero or `scale` is not in `(0, 1]`.
pub fn build(app: AppId, nprocs: usize, scale: f64, seed: u64) -> AppBuild {
    assert!(nprocs > 0, "need at least one processor");
    assert!(scale > 0.0 && scale <= 1.0, "scale must be in (0, 1]");
    match app {
        AppId::Em3d => em3d::build(nprocs, scale, seed),
        AppId::Fft => fft::build(nprocs, scale, seed),
        AppId::Gauss => gauss::build(nprocs, scale, seed),
        AppId::Lu => lu::build(nprocs, scale, seed),
        AppId::Mg => mg::build(nprocs, scale, seed),
        AppId::Radix => radix::build(nprocs, scale, seed),
        AppId::Sor => sor::build(nprocs, scale, seed),
    }
}

/// Lines per unit for kernels whose natural unit is a run of lines.
const RUN_LINES: u64 = 32;

/// The next run of at most [`RUN_LINES`] of `total` items, starting
/// at `*done`; advances `*done` past it.
pub(crate) fn next_run(done: &mut u64, total: u64) -> std::ops::Range<u64> {
    let run = *done..total.min(*done + RUN_LINES);
    *done = run.end;
    run
}

/// Scale an integer dimension, keeping at least `min`.
pub(crate) fn scaled(full: usize, scale: f64, min: usize) -> usize {
    ((full as f64 * scale) as usize).max(min)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// Drain a stream into per-kind counts plus the barrier sequence.
    fn summarize(s: ActionStream) -> (u64, u64, u64, Vec<u32>) {
        let (mut c, mut r, mut w) = (0u64, 0u64, 0u64);
        let mut barriers = Vec::new();
        for a in s {
            match a {
                Action::Compute(_) => c += 1,
                Action::Read(_) => r += 1,
                Action::Write(_) => w += 1,
                Action::Barrier(id) => barriers.push(id),
            }
        }
        (c, r, w, barriers)
    }

    #[test]
    fn recorder_hooks_roundtrip() {
        let (name, bytes, actions) = build(AppId::Gauss, 2, 0.05, 11).into_actions();
        let again = AppBuild::from_actions(name, bytes, actions.clone());
        assert_eq!(again.name, "gauss");
        assert_eq!(again.data_bytes, bytes);
        let replayed: Vec<Vec<Action>> =
            again.streams.into_iter().map(|s| s.collect()).collect();
        assert_eq!(replayed, actions);
    }

    #[test]
    fn building_allocates_no_block() {
        for app in AppId::ALL {
            for s in &build(app, 4, 0.05, 1).streams {
                assert_eq!(s.block.capacity(), 0, "{}", app.name());
            }
        }
    }

    #[test]
    fn advance_matches_repeated_next() {
        for app in AppId::ALL {
            let stream = || build(app, 3, 0.05, 2).streams.remove(1);
            let all: Vec<Action> = stream().collect();
            let len = all.len() as u64;
            let ns = [0, 1, 255, 256, 257, 1000, 4099, len / 2, len - 1, len, len + 10];
            for n in ns {
                let mut s = stream();
                let k = s.advance(n);
                assert_eq!(k, n.min(len), "{} advance({n})", app.name());
                let rest: Vec<Action> = s.by_ref().collect();
                assert_eq!(rest, all[k as usize..], "{} after advance({n})", app.name());
                assert_eq!(s.block.capacity(), 0, "{} kept its block", app.name());
            }
        }
    }

    /// A stream whose last unit fills a whole block still frees that
    /// block once the generator reports it is done.
    #[test]
    fn exhausted_stream_frees_a_full_last_block() {
        let mut units = 1;
        let mut s = ActionStream::generate(move |buf| {
            if units == 0 {
                return false;
            }
            units -= 1;
            buf.extend((0..BLOCK_FILL as u64).map(Action::Read));
            true
        });
        assert_eq!(s.by_ref().count(), BLOCK_FILL);
        assert_eq!(s.next(), None);
        assert_eq!(s.block.capacity(), 0);
    }

    #[test]
    fn replayed_stream_is_one_block_without_a_copy() {
        let v = vec![Action::Read(1), Action::Compute(2), Action::Barrier(0)];
        let ptr = v.as_ptr();
        let mut s = ActionStream::from_vec(v);
        assert_eq!(s.block.as_ptr(), ptr);
        assert_eq!(s.buffered(), 3);
        assert_eq!(s.next(), Some(Action::Read(1)));
        assert_eq!(s.advance(5), 2);
        assert_eq!(s.next(), None);
        assert_eq!(s.block.capacity(), 0);
        assert_eq!(s.advance(1), 0);
    }

    /// At full scale no block outgrows a few thousand actions, so the
    /// per-processor buffers add nothing visible to peak memory.
    #[test]
    #[ignore = "drains every full-scale stream; run in release"]
    fn full_scale_blocks_stay_small() {
        for app in AppId::ALL {
            for nprocs in [1, 8] {
                for mut s in build(app, nprocs, 1.0, 0).streams {
                    let mut largest = 0;
                    while s.next().is_some() {
                        largest = largest.max(s.block.len());
                        s.pos = s.block.len();
                    }
                    assert!(largest <= 4096, "{}: a {largest}-action block", app.name());
                }
            }
        }
    }

    #[test]
    fn names_roundtrip() {
        for app in AppId::ALL {
            assert_eq!(AppId::from_name(app.name()), Some(app));
        }
        assert_eq!(AppId::from_name("nope"), None);
    }

    #[test]
    fn all_apps_build_at_small_scale() {
        for app in AppId::ALL {
            let b = build(app, 4, 0.05, 42);
            assert_eq!(b.streams.len(), 4, "{}", b.name);
            assert!(b.data_bytes > 0, "{}", b.name);
        }
    }

    #[test]
    fn barrier_sequences_agree_across_procs() {
        for app in AppId::ALL {
            let b = build(app, 4, 0.05, 7);
            let mut seqs = Vec::new();
            for s in b.streams {
                let (_, _, _, barriers) = summarize(s);
                seqs.push(barriers);
            }
            for s in &seqs[1..] {
                assert_eq!(s, &seqs[0], "{}: procs disagree on barriers", app.name());
            }
            assert!(!seqs[0].is_empty(), "{}: no barriers", app.name());
            // Barrier ids strictly increase.
            for w in seqs[0].windows(2) {
                assert!(w[0] < w[1], "{}: barrier ids not increasing", app.name());
            }
        }
    }

    #[test]
    fn streams_are_deterministic() {
        for app in AppId::ALL {
            let a = build(app, 2, 0.05, 99);
            let b = build(app, 2, 0.05, 99);
            for (sa, sb) in a.streams.into_iter().zip(b.streams) {
                let va: Vec<Action> = sa.take(5000).collect();
                let vb: Vec<Action> = sb.take(5000).collect();
                assert_eq!(va, vb, "{}", app.name());
            }
        }
    }

    #[test]
    fn every_app_reads_and_writes() {
        for app in AppId::ALL {
            let b = build(app, 2, 0.05, 1);
            let mut reads = 0;
            let mut writes = 0;
            for s in b.streams {
                let (_, r, w, _) = summarize(s);
                reads += r;
                writes += w;
            }
            assert!(reads > 0, "{} never reads", app.name());
            assert!(writes > 0, "{} never writes", app.name());
        }
    }

    #[test]
    fn accesses_stay_inside_data_footprint() {
        for app in AppId::ALL {
            let b = build(app, 3, 0.05, 5);
            let max_line = b.data_bytes.div_ceil(LINE_BYTES);
            for s in b.streams {
                for a in s {
                    if let Action::Read(l) | Action::Write(l) = a {
                        assert!(
                            l < max_line,
                            "{}: line {l} beyond footprint {max_line}",
                            b.name
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn full_scale_footprints_match_table2() {
        // Paper Table 2 data sizes in MB; allow 15% slack.
        let expect: HashMap<AppId, f64> = [
            (AppId::Em3d, 2.5),
            (AppId::Fft, 3.1),
            (AppId::Gauss, 2.3),
            (AppId::Lu, 2.7),
            (AppId::Mg, 2.4),
            (AppId::Radix, 2.6),
            (AppId::Sor, 2.6),
        ]
        .into_iter()
        .collect();
        for app in AppId::ALL {
            let b = build(app, 8, 1.0, 0);
            let mb = b.data_bytes as f64 / (1024.0 * 1024.0);
            let want = expect[&app];
            assert!(
                (mb - want).abs() / want < 0.15,
                "{}: footprint {mb:.2} MB vs paper {want} MB",
                app.name()
            );
        }
    }

    #[test]
    fn different_procs_touch_different_lines_mostly() {
        // Partitioned apps: the write sets of different processors
        // must be (nearly) disjoint.
        for app in [AppId::Sor, AppId::Gauss, AppId::Fft] {
            let b = build(app, 4, 0.05, 3);
            let mut write_sets: Vec<std::collections::HashSet<Line>> = Vec::new();
            for s in b.streams {
                let mut set = std::collections::HashSet::new();
                for a in s {
                    if let Action::Write(l) = a {
                        set.insert(l);
                    }
                }
                write_sets.push(set);
            }
            for i in 0..write_sets.len() {
                for j in i + 1..write_sets.len() {
                    let inter = write_sets[i].intersection(&write_sets[j]).count();
                    let min = write_sets[i].len().min(write_sets[j].len()).max(1);
                    assert!(
                        inter * 10 < min,
                        "{}: procs {i}/{j} share {inter} written lines",
                        app.name()
                    );
                }
            }
        }
    }
}
