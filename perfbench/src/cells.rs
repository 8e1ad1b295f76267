//! The benchmark's workloads as lists of simulation cells, their exact
//! work counts, and the output digests they are checked against.

use nw_apps::{Action, AppId};
use nwcache::config::{MachineConfig, MachineKind, PrefetchMode, RunParams};
use nwcache::metrics::RunSummary;
use nwcache::workload::AppSel;
use std::collections::HashMap;
use std::time::Instant;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;
/// A second seed whose digests are recorded but which was never used
/// while the benchmark was tuned.
pub const HELD_OUT_SEED: u64 = 7;

/// Digests of every workload's outputs at the full size (every pass),
/// for the default and the held-out seed. A run on either seed
/// whose outputs fold to a different digest has changed a simulated
/// bit. `serve-warm`'s apps ignore the workload seed, so its two
/// digests agree.
const RECORDED: &[(Workload, u64, u64)] = &[
    (Workload::PaperMatrix, DEFAULT_SEED, 0x00e5_e41c_279e_0eb3),
    (Workload::PaperMatrix, HELD_OUT_SEED, 0x12ec_9a5a_e253_ac78),
    (Workload::WriteStaging, DEFAULT_SEED, 0x3349_fa65_bbb0_274e),
    (Workload::WriteStaging, HELD_OUT_SEED, 0x29c7_8c97_cd58_fd08),
    (Workload::ServeWarm, DEFAULT_SEED, 0xb67c_d880_5f97_97fe),
    (Workload::ServeWarm, HELD_OUT_SEED, 0xb67c_d880_5f97_97fe),
];

/// Warmup prefix of every `serve-warm` job, in events: below the event
/// count of each of its cells, so every job has a measured remainder.
pub const SERVE_WARMUP_EVENTS: u64 = 10_000;
const SERVE_WARMUP_EVENTS_TINY: u64 = 500;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// The 42-cell paper matrix at the CLI's default scale (0.25) on
    /// two sweep workers.
    PaperMatrix,
    /// Write-heavy generated scenarios on the 8- and 64-node machines.
    WriteStaging,
    /// Warm-started run jobs served by an in-process server.
    ServeWarm,
}

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::PaperMatrix,
        Workload::WriteStaging,
        Workload::ServeWarm,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperMatrix => "paper-matrix",
            Workload::WriteStaging => "write-staging",
            Workload::ServeWarm => "serve-warm",
        }
    }

    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Sweep workers the workload's batch passes run on.
    pub fn workers(self) -> usize {
        match self {
            Workload::PaperMatrix => 2,
            Workload::WriteStaging | Workload::ServeWarm => 1,
        }
    }

    /// The recorded digest for `seed`, if one exists (full size only).
    pub fn recorded_digest(self, seed: u64) -> Option<u64> {
        RECORDED
            .iter()
            .find(|&&(w, s, _)| w == self && s == seed)
            .map(|&(_, _, d)| d)
    }
}

/// How large the workloads are: `Full` is what the benchmark measures,
/// `Tiny` keeps every code path at a size the tests can afford.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The documented workloads.
    Full,
    /// Shrunk inputs for smoke tests.
    Tiny,
}

/// One simulation, described as the run request both the batch API and
/// the server accept.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Workload spec in `AppSel::parse` syntax.
    pub spec: String,
    /// Machine, prefetch, scale, seed and topology.
    pub params: RunParams,
    /// `params` lowered to a validated configuration.
    pub cfg: MachineConfig,
}

impl Cell {
    fn new(spec: &str, params: RunParams) -> Cell {
        let cfg = params
            .to_config()
            .unwrap_or_else(|e| panic!("benchmark cell {spec} is invalid: {e}"));
        Cell {
            spec: spec.to_string(),
            params,
            cfg,
        }
    }

    /// The workload selection to build.
    pub fn sel(&self) -> AppSel {
        AppSel::parse(&self.spec)
            .unwrap_or_else(|e| panic!("benchmark spec {} is invalid: {e}", self.spec))
    }

    /// The table app, for cells that run one.
    pub fn app(&self) -> Option<AppId> {
        AppId::from_name(&self.spec)
    }

    /// `spec/machine/prefetch[/topo]`, for logs and trace spans.
    pub fn label(&self) -> String {
        let mut s = format!(
            "{}/{}/{}",
            self.spec.trim_start_matches("workload:gen:"),
            machine_label(self.params.machine),
            prefetch_label(self.params.prefetch)
        );
        if let Some(t) = &self.params.topo {
            s.push('/');
            s.push_str(t);
        }
        s
    }

    /// Key identifying the action streams this cell builds: cells that
    /// differ only in machine kind or prefetch mode share their streams.
    fn stream_key(&self) -> String {
        format!(
            "{}|{}|{}|{}",
            self.spec,
            self.cfg.nodes,
            self.cfg.app_scale.to_bits(),
            self.cfg.seed
        )
    }
}

/// The machine label the server protocol accepts.
pub fn machine_label(kind: MachineKind) -> &'static str {
    match kind {
        MachineKind::Standard => "standard",
        MachineKind::NwCache => "nwcache",
        MachineKind::Dcd => "dcd",
    }
}

/// The prefetch label the server protocol accepts.
pub fn prefetch_label(p: PrefetchMode) -> &'static str {
    match p {
        PrefetchMode::Optimal => "optimal",
        PrefetchMode::Naive => "naive",
        PrefetchMode::Window => "window",
        PrefetchMode::Adaptive => "adaptive",
    }
}

/// The simulator's workload seed for a benchmark seed (SplitMix64), so
/// neighbouring benchmark seeds give unrelated inputs.
pub fn sim_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn params(machine: MachineKind, prefetch: PrefetchMode, scale: f64, sim_seed: u64) -> RunParams {
    RunParams {
        machine,
        prefetch,
        prefetch_window: None,
        scale,
        seed: Some(sim_seed),
        topo: None,
    }
}

/// The cells of `workload` for benchmark seed `seed`; every pass of a
/// run runs the same cells.
///
/// How much work one `write-staging` scenario makes depends on its seed
/// (over ten seeds the 8-node standard cell dispatched 107k to 222k
/// events), so a pass runs eight consecutive scenario seeds of the
/// 8-node scenario and two of the 64-node one, and the pass's work
/// moves little from one benchmark seed to the next.
pub fn cells(workload: Workload, size: Size, seed: u64) -> Vec<Cell> {
    let fixed = sim_seed(seed);
    match workload {
        Workload::PaperMatrix => {
            let scale = match size {
                Size::Full => 0.25,
                Size::Tiny => 0.05,
            };
            nwcache::sweep::paper_matrix(scale)
                .into_iter()
                .map(|(cfg, app)| {
                    Cell::new(app.name(), params(cfg.kind, cfg.prefetch, scale, fixed))
                })
                .collect()
        }
        Workload::WriteStaging => {
            // (scenario, topology, scenario seeds per pass)
            let specs: [(&str, Option<&str>, u64); 2] = match size {
                Size::Full => [
                    ("zipf:0.9,ws=768,acc=2500,wf=0.5", None, 8),
                    (
                        "zipf:0.9,ws=6144,acc=1250,wf=0.5",
                        Some("mesh=8x8,rings=2,dirshards=2"),
                        2,
                    ),
                ],
                Size::Tiny => [
                    ("zipf:0.9,ws=768,acc=1500,wf=0.5", None, 2),
                    (
                        "zipf:0.9,ws=6144,acc=200,wf=0.5",
                        Some("mesh=8x8,rings=2,dirshards=2"),
                        1,
                    ),
                ],
            };
            let mut out = Vec::new();
            for (spec, topo, seeds) in specs {
                for s in 0..seeds {
                    for kind in [MachineKind::Standard, MachineKind::NwCache] {
                        let mut p = params(kind, PrefetchMode::Naive, 1.0, fixed.wrapping_add(s));
                        p.topo = topo.map(str::to_string);
                        out.push(Cell::new(&format!("workload:gen:{spec}"), p));
                    }
                }
            }
            out
        }
        Workload::ServeWarm => {
            let scale = match size {
                Size::Full => 0.25,
                Size::Tiny => 0.05,
            };
            let mut out = Vec::new();
            for app in [AppId::Sor, AppId::Fft, AppId::Mg] {
                for kind in [MachineKind::Standard, MachineKind::NwCache] {
                    out.push(Cell::new(
                        app.name(),
                        params(kind, PrefetchMode::Naive, scale, fixed),
                    ));
                }
            }
            out
        }
    }
}

/// Warmup events of every `serve-warm` job at `size`.
pub fn serve_warmup(size: Size) -> u64 {
    match size {
        Size::Full => SERVE_WARMUP_EVENTS,
        Size::Tiny => SERVE_WARMUP_EVENTS_TINY,
    }
}

/// Exact work in one cell's action streams.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamCounts {
    /// Every action (compute, read, write, barrier).
    pub actions: u64,
    /// Read actions.
    pub reads: u64,
    /// Write actions.
    pub writes: u64,
}

impl StreamCounts {
    /// Simulated references: reads plus writes.
    pub fn refs(&self) -> u64 {
        self.reads + self.writes
    }
}

/// Stream counts per cell plus the host time spent draining them.
pub struct Bases {
    /// Counts, one per cell in cell order.
    pub per_cell: Vec<StreamCounts>,
    /// Actions drained (each distinct stream set once).
    pub drained_actions: u64,
    /// Host nanoseconds spent building and draining those streams.
    pub drain_ns: u64,
}

/// Count every cell's actions by draining a second, independent build
/// of its streams. Cells sharing streams are drained once.
pub fn count_streams(cells: &[Cell]) -> Bases {
    let mut seen: HashMap<String, StreamCounts> = HashMap::new();
    let mut drained_actions = 0;
    let mut drain_ns = 0;
    let per_cell = cells
        .iter()
        .map(|c| {
            *seen.entry(c.stream_key()).or_insert_with(|| {
                let t0 = Instant::now();
                let build = c
                    .sel()
                    .build(&c.cfg)
                    .unwrap_or_else(|e| panic!("{}: build failed: {e}", c.label()));
                let mut n = StreamCounts::default();
                for stream in build.streams {
                    for a in stream {
                        n.actions += 1;
                        match a {
                            Action::Read(_) => n.reads += 1,
                            Action::Write(_) => n.writes += 1,
                            Action::Compute(_) | Action::Barrier(_) => {}
                        }
                    }
                }
                drain_ns += t0.elapsed().as_nanos() as u64;
                drained_actions += n.actions;
                n
            })
        })
        .collect();
    Bases {
        per_cell,
        drained_actions,
        drain_ns,
    }
}

/// FNV-1a 64 fold of summaries' JSON renderings, in cell order.
pub fn summary_digest(summaries: &[RunSummary]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for s in summaries {
        for &b in s.to_json().as_bytes().iter().chain(b"\n") {
            h ^= b as u64;
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
