//! Experiment runners for every table and figure of the paper's
//! evaluation section (§5).
//!
//! Each function returns plain data rows; `report` renders them and
//! the `reproduce` binary in `nw-bench` prints them. All experiments
//! take a `scale` parameter: `1.0` reproduces the paper's Table 2
//! inputs, smaller values run the same experiment on shrunken inputs
//! (used by tests).
//!
//! Every experiment runs its cells through a [`Lab`], a memo of the
//! cells already simulated. The paper's tables and figures are views
//! of one matrix (apps × machines × prefetch modes), so one `Lab`
//! shared by all of them simulates each distinct cell once.

use crate::config::{MachineConfig, MachineKind, PrefetchMode};
use crate::error::SimError;
use crate::metrics::RunMetrics;
use crate::workload::AppSel;
use nw_apps::AppId;
use std::collections::{HashMap, HashSet};

/// The identity of one simulation cell. A run is a pure function of
/// its config and workload, so two cells with equal keys have equal
/// outcomes.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Key {
    /// [`crate::checkpoint::config_to_bytes`]: every `MachineConfig`
    /// and `FaultPlan` field.
    config: Vec<u8>,
    /// The workload.
    workload: Workload,
}

/// The workload half of a [`Key`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Workload {
    /// A Table 2 kernel.
    Table(AppId),
    /// The scenario's derived `Debug` form, which spells out every
    /// phase dial exactly; its `name` alone is not an identity.
    Gen(String),
    /// The trace's binary encoding; a digest alone is not an identity.
    Replay(Vec<u8>),
}

impl Key {
    fn new(cfg: &MachineConfig, sel: &AppSel) -> Key {
        let workload = match sel {
            AppSel::Table(app) => Workload::Table(*app),
            AppSel::Gen(sc) => Workload::Gen(format!("{sc:?}")),
            AppSel::Replay(tr) => Workload::Replay(tr.encode_binary()),
        };
        Key {
            config: crate::checkpoint::config_to_bytes(cfg),
            workload,
        }
    }
}

/// A memo of simulated cells: each distinct `(config, workload)` cell
/// asked of one `Lab` is simulated once, and later asks are answered
/// from the memo. Failed runs are memoized too, so a failing cell
/// stays an error row without running again.
#[derive(Default)]
pub struct Lab {
    memo: HashMap<Key, Result<RunMetrics, SimError>>,
    /// Cells simulated so far.
    simulated: usize,
    /// Sweep worker threads (0 = one per core).
    jobs: usize,
}

impl Lab {
    /// An empty `Lab` that runs its cells on up to `jobs` worker
    /// threads (0 = one per core, as [`Lab::default`] does).
    pub fn with_jobs(jobs: usize) -> Lab {
        Lab { jobs, ..Lab::default() }
    }

    /// The outcome of every cell, in cell order. The cells not in the
    /// memo yet run in one [`crate::sweep::run_grid`] call on the
    /// `Lab`'s workers; a cell that appears twice in `cells` runs
    /// once.
    pub fn try_run<S: Into<AppSel>>(
        &mut self,
        cells: Vec<(MachineConfig, S)>,
    ) -> Vec<Result<RunMetrics, SimError>> {
        let cells: Vec<(Key, (MachineConfig, AppSel))> = cells
            .into_iter()
            .map(|(cfg, sel)| {
                let sel = sel.into();
                (Key::new(&cfg, &sel), (cfg, sel))
            })
            .collect();
        let mut fresh = HashSet::new();
        let (keys, misses): (Vec<Key>, Vec<(MachineConfig, AppSel)>) = cells
            .iter()
            .filter(|(key, _)| !self.memo.contains_key(key) && fresh.insert(key))
            .map(|(key, cell)| (key.clone(), cell.clone()))
            .unzip();
        self.simulated += misses.len();
        let outcomes = crate::sweep::run_grid(self.jobs, misses);
        self.memo.extend(keys.into_iter().zip(outcomes));
        cells.iter().map(|(key, _)| self.memo[key].clone()).collect()
    }

    /// [`Lab::try_run`] for the paper's clean evaluation.
    ///
    /// # Panics
    /// Panics if any run fails. Use [`Lab::try_run`] for sweeps that
    /// must survive failing cells.
    pub fn run<S: Into<AppSel>>(&mut self, cells: Vec<(MachineConfig, S)>) -> Vec<RunMetrics> {
        self.try_run(cells)
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("simulation failed: {e}")))
            .collect()
    }

    /// The number of cells this `Lab` has simulated.
    pub fn cells(&self) -> usize {
        self.simulated
    }
}

/// A paired standard-vs-NWCache measurement for one application.
#[derive(Debug, Clone)]
pub struct PairedRow {
    /// Application name.
    pub app: String,
    /// Metric on the standard machine.
    pub standard: f64,
    /// Metric on the NWCache machine.
    pub nwcache: f64,
}

/// The two machines of every paired table, standard first.
const PAIR: [MachineKind; 2] = [MachineKind::Standard, MachineKind::NwCache];

/// Run one cell per value and machine kind, value-major: the scaled
/// paper machine of each kind, adjusted by `cell`, which also names
/// the app. Returns each value with its runs in `kinds` order.
fn grid<T: Copy>(
    lab: &mut Lab,
    kinds: &[MachineKind],
    prefetch: PrefetchMode,
    scale: f64,
    values: &[T],
    cell: impl Fn(&mut MachineConfig, T) -> AppId,
) -> Vec<(T, Vec<RunMetrics>)> {
    let cell = &cell;
    let cells = values
        .iter()
        .flat_map(|&v| {
            kinds.iter().map(move |&kind| {
                let mut cfg = MachineConfig::scaled_paper(kind, prefetch, scale);
                let app = cell(&mut cfg, v);
                (cfg, app)
            })
        })
        .collect();
    let mut runs = lab.run(cells).into_iter();
    values.iter().map(|&v| (v, runs.by_ref().take(kinds.len()).collect())).collect()
}

/// Every app on `kinds` under `prefetch`.
fn app_runs(
    lab: &mut Lab,
    kinds: &[MachineKind],
    prefetch: PrefetchMode,
    scale: f64,
) -> Vec<Vec<RunMetrics>> {
    let runs = grid(lab, kinds, prefetch, scale, &AppId::ALL, |_, app| app);
    runs.into_iter().map(|(_, r)| r).collect()
}

/// One metric of every app on both machines under `prefetch`.
fn paired_rows(
    lab: &mut Lab,
    prefetch: PrefetchMode,
    scale: f64,
    metric: impl Fn(&RunMetrics) -> f64,
) -> Vec<PairedRow> {
    app_runs(lab, &PAIR, prefetch, scale)
        .into_iter()
        .map(|r| PairedRow {
            app: r[0].app.clone(),
            standard: metric(&r[0]),
            nwcache: metric(&r[1]),
        })
        .collect()
}

/// Tables 3 and 4: average swap-out time (pcycles) per application.
pub fn table_swap_out(lab: &mut Lab, prefetch: PrefetchMode, scale: f64) -> Vec<PairedRow> {
    paired_rows(lab, prefetch, scale, |m| m.swap_out_time.mean())
}

/// Tables 5 and 6: average write-combining factor per application.
pub fn table_combining(lab: &mut Lab, prefetch: PrefetchMode, scale: f64) -> Vec<PairedRow> {
    paired_rows(lab, prefetch, scale, |m| m.write_combining.mean())
}

/// Table 7: NWCache read hit rates (%) under naive and optimal
/// prefetching. Returned as (app, naive %, optimal %).
pub fn table_hit_rates(lab: &mut Lab, scale: f64) -> Vec<(String, f64, f64)> {
    let nwcache = [MachineKind::NwCache];
    let naive = app_runs(lab, &nwcache, PrefetchMode::Naive, scale);
    let optimal = app_runs(lab, &nwcache, PrefetchMode::Optimal, scale);
    naive
        .into_iter()
        .zip(optimal)
        .map(|(n, o)| (n[0].app.clone(), n[0].ring_hit_rate(), o[0].ring_hit_rate()))
        .collect()
}

/// Table 8: average page-fault latency for disk-controller-cache hits
/// under naive prefetching (the paper's contention proxy).
pub fn table_disk_hit_latency(lab: &mut Lab, scale: f64) -> Vec<PairedRow> {
    paired_rows(lab, PrefetchMode::Naive, scale, |m| m.fault_latency_disk_hit.mean())
}

/// One stacked bar of Figures 3/4.
#[derive(Debug, Clone)]
pub struct BreakdownBar {
    /// Application name.
    pub app: String,
    /// Machine ("standard" / "nwcache").
    pub machine: String,
    /// NoFree, Transit, Fault, TLB, Other — normalized so the standard
    /// machine's bar sums to 1.0.
    pub parts: [f64; 5],
}

/// Figures 3 (optimal) and 4 (naive): normalized execution-time
/// breakdowns for both machines, standard bar normalized to 1.0.
pub fn figure_breakdown(lab: &mut Lab, prefetch: PrefetchMode, scale: f64) -> Vec<BreakdownBar> {
    let mut bars = Vec::new();
    for r in app_runs(lab, &PAIR, prefetch, scale) {
        let denom = r[0].exec_time.max(1);
        for (m, machine) in r.iter().zip(["standard", "nwcache"]) {
            bars.push(BreakdownBar {
                app: m.app.clone(),
                machine: machine.into(),
                parts: m.normalized_breakdown(denom),
            });
        }
    }
    bars
}

/// §5 first paragraph: sweep the minimum-free-frames policy for one
/// application; returns (min_free, exec_time) pairs.
pub fn minfree_sweep(
    lab: &mut Lab,
    app: AppId,
    kind: MachineKind,
    prefetch: PrefetchMode,
    values: &[u32],
    scale: f64,
) -> Vec<(u32, u64)> {
    let runs = grid(lab, &[kind], prefetch, scale, values, |cfg, v| {
        cfg.min_free_frames = v.min(cfg.frames_per_node() - 1);
        app
    });
    runs.into_iter().map(|(v, r)| (v, r[0].exec_time)).collect()
}

/// The paper's closing claim: how much disk-controller cache does the
/// *standard* machine need to approach NWCache performance? Sweeps the
/// controller cache size; returns (pages, exec_time) plus the NWCache
/// reference time at the paper's 4-page cache.
pub fn diskcache_sweep(
    lab: &mut Lab,
    app: AppId,
    prefetch: PrefetchMode,
    sizes: &[usize],
    scale: f64,
) -> (Vec<(usize, u64)>, u64) {
    let runs = grid(lab, &[MachineKind::Standard], prefetch, scale, sizes, |cfg, pages| {
        cfg.disk_cache_pages = pages;
        app
    });
    let nwc_cfg = MachineConfig::scaled_paper(MachineKind::NwCache, prefetch, scale);
    let nwc = lab.run(vec![(nwc_cfg, app)])[0].exec_time;
    (runs.into_iter().map(|(pages, r)| (pages, r[0].exec_time)).collect(), nwc)
}

/// Overall performance summary: execution-time improvement (%) of the
/// NWCache machine per application.
pub fn overall_improvement(
    lab: &mut Lab,
    prefetch: PrefetchMode,
    scale: f64,
) -> Vec<(String, f64)> {
    app_runs(lab, &PAIR, prefetch, scale)
        .into_iter()
        .map(|r| (r[0].app.clone(), r[1].improvement_over(&r[0])))
        .collect()
}

/// Replacement-policy ablation (extension): the paper prescribes LRU;
/// compare FIFO and Clock. Returns `(policy name, exec, swap_outs)`.
pub fn replacement_comparison(
    lab: &mut Lab,
    app: AppId,
    kind: MachineKind,
    prefetch: PrefetchMode,
    scale: f64,
) -> Vec<(&'static str, u64, u64)> {
    use crate::config::ReplacementPolicy;
    let policies = [
        ("lru", ReplacementPolicy::Lru),
        ("fifo", ReplacementPolicy::Fifo),
        ("clock", ReplacementPolicy::Clock),
    ];
    let runs = grid(lab, &[kind], prefetch, scale, &policies, |cfg, (_, policy)| {
        cfg.replacement = policy;
        app
    });
    runs.into_iter().map(|((name, _), r)| (name, r[0].exec_time, r[0].swap_outs)).collect()
}

/// I/O-node sensitivity (extension): the paper's motivation is
/// machines where "not all nodes are I/O-enabled". Sweep the number
/// of I/O-enabled nodes (and disks) and compare machines. Returns
/// `(io_nodes, std_exec, nwc_exec)`.
pub fn ionode_sweep(
    lab: &mut Lab,
    app: AppId,
    prefetch: PrefetchMode,
    io_counts: &[u32],
    scale: f64,
) -> Vec<(u32, u64, u64)> {
    let runs = grid(lab, &PAIR, prefetch, scale, io_counts, |cfg, io| {
        cfg.io_nodes = io;
        app
    });
    runs.into_iter().map(|(io, r)| (io, r[0].exec_time, r[1].exec_time)).collect()
}

/// Victim-cache capacity probe (extension): sweep a synthetic
/// sweep-style working set across the memory+ring capacity boundary
/// and measure the NWCache hit rate. The paper explains Table 7's
/// ordering by whether "working sets can (almost) fit in the combined
/// memory/NWCache size"; this experiment shows the effect directly.
/// The footprints are full-scale sizes, shrunk with the machine's
/// memory + ring capacity (relative to the paper machine's) so each
/// keeps its ratio to it.
/// Returns `(data_bytes, data / (memory + ring), hit_rate %)` per
/// footprint, with `data_bytes` the simulated size. The footprints run
/// on up to `jobs` worker threads (0 = one per core).
pub fn reuse_distance_sweep(
    footprints_bytes: &[u64],
    prefetch: PrefetchMode,
    scale: f64,
    jobs: usize,
) -> Vec<(u64, f64, f64)> {
    use nw_apps::synth::{build as synth_build, SynthConfig};
    let base = MachineConfig::scaled_paper(MachineKind::NwCache, prefetch, scale);
    let capacity = mem_plus_ring(&base) as f64;
    let shrink = capacity_shrink(&base);
    let footprints: Vec<u64> =
        footprints_bytes.iter().map(|&b| (b as f64 * shrink) as u64).collect();
    let tasks: Vec<_> = footprints
        .iter()
        .map(|&data_bytes| {
            let cfg = base.clone();
            let synth = SynthConfig { data_bytes, write_frac: 0.6, iters: 6, ..Default::default() };
            move || {
                let build = synth_build(synth, cfg.nodes as usize, cfg.seed);
                crate::Machine::from_build(cfg, build).run()
            }
        })
        .collect();
    footprints
        .iter()
        .zip(nw_sim::pool::run(jobs, tasks))
        .map(|(&bytes, r)| (bytes, bytes as f64 / capacity, r.expect("run").ring_hit_rate()))
        .collect()
}

/// Bytes of memory plus ring storage on the machine `cfg` describes.
fn mem_plus_ring(cfg: &MachineConfig) -> u64 {
    cfg.memory_per_node * cfg.nodes as u64
        + (cfg.nodes as usize * cfg.ring_slots_per_channel) as u64 * nw_memhier::PAGE_BYTES
}

/// [`mem_plus_ring`] of `cfg` over that of the paper machine: 1.0 at
/// full scale. Below it, the per-node frame floor keeps memory from
/// shrinking as far as `scale`, so the capacity-relative sweeps shrink
/// their workloads by this factor instead.
fn capacity_shrink(cfg: &MachineConfig) -> f64 {
    let paper = MachineConfig::paper_default(cfg.kind, cfg.prefetch);
    mem_plus_ring(cfg) as f64 / mem_plus_ring(&paper) as f64
}

/// Access-skew sensitivity, an axis the paper's fixed Table 2 suite
/// cannot probe: sweep the Zipf exponent of a generated workload
/// whose working set overflows memory + ring, and watch the victim
/// cache's (ring) hit rate respond. Low skew spreads faults over too
/// many pages for the ring to hold; high skew concentrates reuse on
/// a hot set the ring captures. Returns `(skew, ring_hit_rate,
/// exec_time)` per skew value.
pub fn zipf_skew_sweep(
    lab: &mut Lab,
    skews: &[f64],
    prefetch: PrefetchMode,
    scale: f64,
) -> Vec<(f64, f64, u64)> {
    use nw_workload::{Pattern, Phase, Scenario};
    use std::sync::Arc;

    let base = MachineConfig::scaled_paper(MachineKind::NwCache, prefetch, scale);
    // 1.5x the combined capacity: out-of-core, but close enough that
    // a concentrated hot set fits back in.
    let pages = mem_plus_ring(&base) * 3 / 2 / nw_memhier::PAGE_BYTES;
    // As many accesses per page as at full scale.
    let accesses = (4000.0 * capacity_shrink(&base)) as u64;
    let grid: Vec<(MachineConfig, AppSel)> = skews
        .iter()
        .map(|&skew| {
            let scenario = Scenario {
                name: format!("zipf-skew-{skew}"),
                phases: vec![Phase {
                    pattern: Pattern::Zipf { skew },
                    pages,
                    accesses,
                    write_frac: 0.6,
                    barriers: 4,
                    ..Phase::default()
                }],
            };
            (base.clone(), AppSel::Gen(Arc::new(scenario)))
        })
        .collect();
    skews
        .iter()
        .zip(lab.run(grid))
        .map(|(&skew, m)| (skew, m.ring_hit_rate(), m.exec_time))
        .collect()
}

/// One row of the prefetch-policy head-to-head (see
/// [`prefetch_policy_sweep`]).
#[derive(Debug, Clone, PartialEq)]
pub struct PrefetchRow {
    /// Policy label (`optimal` / `naive` / `adaptive`).
    pub policy: String,
    /// Total execution time (pcycles).
    pub exec_time: u64,
    /// Disk-controller read hit rate in percent.
    pub disk_hit_rate: f64,
    /// Speculative reads issued by the policy (adaptive only).
    pub spec_issued: u64,
    /// Speculative fills consumed by a later demand read.
    pub spec_hits: u64,
    /// Spec hits whose read was still in flight when demand arrived.
    pub spec_late: u64,
    /// Speculative fills evicted or invalidated unused.
    pub spec_wasted: u64,
    /// Hints retracted before reaching the arm (stale predictions,
    /// demand collisions, superseding writes, mesh drops).
    pub spec_canceled: u64,
}

/// Prefetch-policy head-to-head on the pinned pure-sequential cell the
/// conformance suite uses (`seq,ws=256,acc=3000,wf=0.1`, NWCache
/// machine): every access faults and each disk sees an interleaving of
/// per-node delta-1 runs, so this is the widest optimal-vs-naive gap —
/// exactly the gap the adaptive policy is supposed to close from the
/// demand stream alone. Returns one row per policy, optimal first.
pub fn prefetch_policy_sweep(lab: &mut Lab, scale: f64) -> Vec<PrefetchRow> {
    use nw_workload::Scenario;
    use std::sync::Arc;

    let sel = AppSel::Gen(Arc::new(
        Scenario::parse("seq,ws=256,acc=3000,wf=0.1").expect("pinned spec"),
    ));
    let modes = [
        PrefetchMode::Optimal,
        PrefetchMode::Naive,
        PrefetchMode::Adaptive,
    ];
    let grid: Vec<(MachineConfig, AppSel)> = modes
        .iter()
        .map(|&mode| {
            (
                MachineConfig::scaled_paper(MachineKind::NwCache, mode, scale),
                sel.clone(),
            )
        })
        .collect();
    lab.run(grid)
        .into_iter()
        .map(|m| {
            let reads = m.disk_read_hits + m.disk_read_misses;
            PrefetchRow {
                policy: m.prefetch.clone(),
                exec_time: m.exec_time,
                disk_hit_rate: if reads == 0 {
                    0.0
                } else {
                    100.0 * m.disk_read_hits as f64 / reads as f64
                },
                spec_issued: m.prefetch_spec_issued,
                spec_hits: m.prefetch_spec_hits,
                spec_late: m.prefetch_spec_late,
                spec_wasted: m.prefetch_spec_wasted,
                spec_canceled: m.prefetch_spec_canceled,
            }
        })
        .collect()
}

/// Machine-size scaling: the paper argues the NWCache's optical cost
/// (4n components, n channels) "is pretty low for small to
/// medium-scale multiprocessors". Sweep the node count, keeping the
/// paper's 2:1 node:disk ratio and one cache channel per node.
/// Returns `(nodes, std_exec, nwc_exec)`.
pub fn scaling_sweep(
    lab: &mut Lab,
    app: AppId,
    prefetch: PrefetchMode,
    node_counts: &[u32],
    scale: f64,
) -> Vec<(u32, u64, u64)> {
    let runs = grid(lab, &PAIR, prefetch, scale, node_counts, |cfg, n| {
        cfg.nodes = n;
        cfg.io_nodes = (n / 2).max(1);
        app
    });
    runs.into_iter().map(|(n, r)| (n, r[0].exec_time, r[1].exec_time)).collect()
}

/// Baseline comparison the paper makes only qualitatively (related
/// work): standard vs DCD (log-disk write staging) vs NWCache, per
/// application. Returns `(app, std_exec, dcd_exec, nwc_exec)`.
pub fn dcd_comparison(
    lab: &mut Lab,
    prefetch: PrefetchMode,
    scale: f64,
) -> Vec<(String, u64, u64, u64)> {
    let kinds = [MachineKind::Standard, MachineKind::Dcd, MachineKind::NwCache];
    app_runs(lab, &kinds, prefetch, scale)
        .into_iter()
        .map(|r| (r[0].app.clone(), r[0].exec_time, r[1].exec_time, r[2].exec_time))
        .collect()
}

/// Ablation: sweep the controller's flush accumulation window. A
/// longer window lets consecutive swap-outs gather in the disk cache
/// before the flush starts — the mechanism behind write combining
/// (Tables 5/6) — at the cost of holding cache slots longer.
pub fn ablation_flush_delay(
    lab: &mut Lab,
    app: AppId,
    kind: MachineKind,
    prefetch: PrefetchMode,
    delays: &[u64],
    scale: f64,
) -> Vec<(u64, f64, u64)> {
    let runs = grid(lab, &[kind], prefetch, scale, delays, |cfg, d| {
        cfg.disk_flush_delay = d;
        app
    });
    runs.into_iter().map(|(d, r)| (d, r[0].write_combining.mean(), r[0].exec_time)).collect()
}

/// Ablation: sweep the ring's fiber length. Per the paper's §3.2
/// capacity equation, doubling the round-trip doubles the delay-line
/// storage — but also doubles the expected snoop wait of victim reads
/// and drains. Returns `(round_trip, slots, hit_rate, exec_time)`.
pub fn ablation_ring_geometry(
    lab: &mut Lab,
    app: AppId,
    prefetch: PrefetchMode,
    round_trips_us: &[u64],
    scale: f64,
) -> Vec<(u64, usize, f64, u64)> {
    let base = MachineConfig::scaled_paper(MachineKind::NwCache, prefetch, scale);
    // Storage scales with fiber length (same channel rate) from the
    // base ring's 52 us round trip.
    let slots = |us: u64| ((base.ring_slots_per_channel as u64 * us) / 52).max(1) as usize;
    let runs = grid(lab, &[MachineKind::NwCache], prefetch, scale, round_trips_us, |cfg, us| {
        cfg.ring_round_trip = nw_sim::time::usecs(us);
        cfg.ring_slots_per_channel = slots(us);
        app
    });
    runs.into_iter().map(|(us, r)| (us, slots(us), r[0].ring_hit_rate(), r[0].exec_time)).collect()
}

/// One cell of the fault-tolerance grid: execution time (or the
/// failure that ended the run) on both machines under one injected
/// fault mix, plus the NWCache recovery counters.
#[derive(Debug, Clone)]
pub struct FaultRow {
    /// Injected disk media-error probability per read attempt.
    pub disk_error_rate: f64,
    /// Number of ring channels failed mid-run (NWCache only).
    pub failed_channels: usize,
    /// Standard-machine execution time, or the error that stopped it.
    pub standard: Result<u64, String>,
    /// NWCache execution time, or the error that stopped it.
    pub nwcache: Result<u64, String>,
    /// Pages destroyed on failed channels and re-issued to disk.
    pub ring_pages_lost: u64,
    /// Swap-outs routed straight to the standard path because their
    /// channel was dead.
    pub degraded_ring_swaps: u64,
    /// Total recovery retries (disk re-reads + swap re-issues).
    pub retries: u64,
}

/// Robustness grid: run `app` on both machines under every
/// combination of disk media-error rate and failed ring channels,
/// and report how execution time degrades. Channel failures are
/// staggered early in the run so the recovery paths (page re-issue,
/// dead-channel fallback) carry real load; the standard machine has
/// no ring, so only the disk faults apply to it. Runs use
/// [`Lab::try_run`], so an exhausted-retries or protocol error becomes
/// a row entry instead of aborting the sweep.
pub fn fault_tolerance(
    lab: &mut Lab,
    app: AppId,
    scale: f64,
    error_rates: &[f64],
    failed_channels: &[usize],
) -> Vec<FaultRow> {
    // Calibrate failure times against a clean NWCache run: channel
    // failures land in the middle of the run (¼ and ½ of the clean
    // execution time), when the ring actually carries pages, rather
    // than at fixed offsets that a short run would never reach or a
    // long run would leave before any swap-out happens.
    let clean_cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, scale);
    let clean_exec = lab.run(vec![(clean_cfg, app)])[0].exec_time;
    let mut labels: Vec<(f64, usize)> = Vec::new();
    let mut grid: Vec<(MachineConfig, AppId)> = Vec::new();
    for &rate in error_rates {
        for &failed in failed_channels {
            let mut std_cfg =
                MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Naive, scale);
            std_cfg.faults.disk_error_rate = rate;
            let mut nwc_cfg =
                MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, scale);
            nwc_cfg.faults.disk_error_rate = rate;
            // Fail odd-numbered channels, staggered so each failure
            // catches in-flight pages.
            nwc_cfg.faults.ring_channel_failures = (0..failed)
                .map(|k| {
                    let ch = (2 * k as u32 + 1) % nwc_cfg.nodes;
                    (clean_exec / 4 * (k as u64 + 1), ch)
                })
                .collect();
            labels.push((rate, failed));
            grid.push((std_cfg, app));
            grid.push((nwc_cfg, app));
        }
    }
    let results = lab.try_run(grid);
    labels
        .into_iter()
        .zip(results.chunks(2))
        .map(|((rate, failed), pair)| {
            let (st, nw) = (&pair[0], &pair[1]);
            let (lost, degraded, retries) = match nw {
                Ok(m) => (
                    m.ring_pages_lost,
                    m.degraded_ring_swaps,
                    m.swap_retries + m.disk_media_errors + m.disk_stuck_timeouts,
                ),
                Err(_) => (0, 0, 0),
            };
            FaultRow {
                disk_error_rate: rate,
                failed_channels: failed,
                standard: st.as_ref().map(|m| m.exec_time).map_err(|e| e.to_string()),
                nwcache: nw.as_ref().map(|m| m.exec_time).map_err(|e| e.to_string()),
                ring_pages_lost: lost,
                degraded_ring_swaps: degraded,
                retries,
            }
        })
        .collect()
}

/// The default scale-study topology ladder: the paper's 8-node
/// machine in generated-topology clothing, then a 64-node cell with
/// two rings and a sharded directory, then a 256-node fabric where
/// the coarse directory vector and four-ring sharding both engage.
/// Every spec parses through [`crate::topo::TopoSpec`], so `validate`
/// has vetted each before a single event fires.
pub const SCALE_TOPOS: [&str; 3] = [
    "mesh=4x2",
    "mesh=8x8,rings=2,dirshards=2",
    "mesh=16x16,rings=4,dirshards=8",
];

/// One cell of the weak-/strong-scaling study: a generated workload
/// on one topology/machine pair.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Canonical topology spec the cell ran on.
    pub topo: String,
    /// Node count (mesh width × height).
    pub nodes: u32,
    /// Machine kind label ("standard" / "nwcache").
    pub machine: String,
    /// Scaling regime: "weak" (fixed work per processor) or
    /// "strong" (fixed total work split across processors).
    pub mode: String,
    /// The run's flat summary, or the error that ended it.
    pub result: Result<crate::metrics::RunSummary, String>,
}

/// The generated scenario for one scale-study cell. Weak scaling
/// holds per-processor work constant (the working set grows with the
/// machine); strong scaling splits one fixed problem across however
/// many processors the topology has. At 8 nodes the two coincide, so
/// the ladder shares its first rung.
fn scale_scenario(mode: &str, nodes: u32, scale: f64) -> String {
    let per_proc = ((400.0 * scale).round() as u64).max(1);
    // 1.5× the per-node frame count, so memory is always under
    // pressure in the weak regime and the swap path actually carries
    // load (a working set that fits in memory measures nothing).
    let ws_per_node = ((96.0 * scale).round() as u64).max(12);
    match mode {
        "weak" => format!("zipf:0.9,ws={},acc={per_proc},wf=0.3", ws_per_node * nodes as u64),
        _ => {
            // Fixed total problem: the 8-node weak workload's working
            // set and total access count, split across the machine.
            // Past 8 nodes memory outgrows the problem, so paging —
            // and with it the NWCache's edge — fades: the point the
            // strong half of the table makes.
            let total = per_proc * 8;
            format!(
                "zipf:0.9,ws={},acc={},wf=0.3",
                ws_per_node * 8,
                (total / nodes as u64).max(1)
            )
        }
    }
}

/// Run the weak-/strong-scaling study over `topos` (canonical or
/// shorthand topology specs) at `scale`, standard vs NWCache on each
/// rung. Cells fan out across the sweep pool; each is a pure
/// function of its `(MachineConfig, AppSel)`, so the returned rows
/// are bit-identical at any `--jobs` setting. A malformed spec fails
/// the whole study (caller bug); a cell that errors mid-run becomes an
/// error row.
pub fn scale_study(lab: &mut Lab, topos: &[&str], scale: f64) -> Result<Vec<ScaleRow>, String> {
    let mut meta: Vec<(String, u32, &'static str, &'static str)> = Vec::new();
    let mut grid: Vec<(MachineConfig, AppSel)> = Vec::new();
    for &t in topos {
        let topo = crate::topo::TopoSpec::parse(t)?;
        let nodes = topo.nodes();
        for mode in ["weak", "strong"] {
            let sel =
                AppSel::parse(&format!("workload:gen:{}", scale_scenario(mode, nodes, scale)))
                    .map_err(|e| format!("{t} ({mode}): {e}"))?;
            for kind in PAIR {
                meta.push((topo.to_spec(), nodes, kind.label(), mode));
                grid.push((topo.to_config(kind, PrefetchMode::Naive, scale), sel.clone()));
            }
        }
    }
    let results = lab.try_run(grid);
    Ok(meta
        .into_iter()
        .zip(results)
        .map(|((topo, nodes, machine, mode), result)| ScaleRow {
            topo,
            nodes,
            machine: machine.to_string(),
            mode: mode.to_string(),
            result: result.map(|m| m.summary()).map_err(|e| e.to_string()),
        })
        .collect())
}

/// Serialize scale-study rows with the frozen `nwcache-scale-v1`
/// schema. Unlike `nwcache-sweep-v1` this document carries **no**
/// wall-clock or worker-count fields: every byte is a pure function
/// of the simulated machines, so two exports at different `--jobs`
/// settings must be `cmp`-identical (the CI scale-smoke job relies on
/// exactly that).
pub fn scale_report_json(scale: f64, rows: &[ScaleRow]) -> String {
    let mut out = String::with_capacity(1024 + rows.len() * 1200);
    out.push_str("{\n");
    out.push_str("  \"schema\": \"nwcache-scale-v1\",\n");
    out.push_str(&format!("  \"scale\": {},\n", crate::metrics::json_f64(scale)));
    out.push_str("  \"rows\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let ident = format!(
            "\"topo\":\"{}\",\"nodes\":{},\"machine\":\"{}\",\"mode\":\"{}\"",
            crate::metrics::json_escape(&row.topo),
            row.nodes,
            crate::metrics::json_escape(&row.machine),
            crate::metrics::json_escape(&row.mode),
        );
        match &row.result {
            Ok(summary) => out.push_str(&format!(
                "    {{{ident},\"status\":\"ok\",\"metrics\":{}}}",
                summary.to_json()
            )),
            Err(e) => out.push_str(&format!(
                "    {{{ident},\"status\":\"error\",\"error\":\"{}\"}}",
                crate::metrics::json_escape(e)
            )),
        }
        if i + 1 < rows.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_workload::Scenario;
    use std::sync::Arc;

    fn cfg() -> MachineConfig {
        MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, 0.05)
    }

    fn key(cfg: &MachineConfig, sel: impl Into<AppSel>) -> Key {
        Key::new(cfg, &sel.into())
    }

    #[test]
    fn configs_differing_in_one_field_get_distinct_keys() {
        let base = key(&cfg(), AppId::Sor);
        let edited = |edit: fn(&mut MachineConfig)| {
            let mut c = cfg();
            edit(&mut c);
            key(&c, AppId::Sor)
        };
        for (field, k) in [
            ("min_free_frames", edited(|c| c.min_free_frames += 1)),
            ("disk_cache_pages", edited(|c| c.disk_cache_pages += 1)),
            ("ring_channel_failures", edited(|c| c.faults.ring_channel_failures = vec![(1000, 1)])),
            ("ring_count", edited(|c| c.ring_count = 2)),
            ("seed", edited(|c| c.seed += 1)),
        ] {
            assert_ne!(k, base, "{field} is missing from the key");
        }
    }

    #[test]
    fn scenarios_with_one_name_and_different_phases_get_distinct_keys() {
        let gen = |spec: &str| {
            let mut sc = Scenario::parse(spec).expect("spec parses");
            sc.name = "same".into();
            AppSel::Gen(Arc::new(sc))
        };
        let a = key(&cfg(), gen("zipf:0.9,ws=32,acc=300"));
        assert_ne!(a, key(&cfg(), gen("zipf:0.9,ws=32,acc=301")));
        assert_ne!(a, key(&cfg(), gen("zipf:0.9,ws=32,acc=300;seq,ws=8")));
        assert_eq!(a, key(&cfg(), gen("zipf:0.9,ws=32,acc=300")));
    }

    #[test]
    fn equal_cells_get_equal_keys() {
        assert_eq!(key(&cfg(), AppId::Sor), key(&cfg(), AppId::Sor));
        assert_ne!(key(&cfg(), AppId::Sor), key(&cfg(), AppId::Lu));
        let sc = Arc::new(Scenario::parse("uniform,ws=16,acc=100").expect("spec parses"));
        assert_eq!(key(&cfg(), AppSel::Gen(sc.clone())), key(&cfg(), AppSel::Gen(sc)));
    }

    #[test]
    fn a_failing_cell_stays_an_error_and_runs_once() {
        let mut bad = cfg();
        bad.faults.disk_error_rate = 7.0;
        let mut lab = Lab::default();
        let twice = lab.try_run(vec![(bad.clone(), AppId::Sor), (bad.clone(), AppId::Sor)]);
        assert!(twice.iter().all(|r| matches!(r, Err(SimError::BadConfig(_)))), "{twice:?}");
        let again = lab.try_run(vec![(bad, AppId::Sor)]);
        assert_eq!(again, twice[..1]);
        assert_eq!(lab.cells(), 1);
    }

    #[test]
    fn reuse_and_zipf_sweeps_shrink_with_scale() {
        // The zipf cell runs on the scaled machine, not the paper one.
        let mut lab = Lab::default();
        zipf_skew_sweep(&mut lab, &[1.2], PrefetchMode::Naive, 0.05);
        let small = crate::checkpoint::config_to_bytes(&cfg());
        assert_eq!(lab.memo.keys().map(|k| &k.config).collect::<Vec<_>>(), [&small]);
        let full = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        assert!(cfg().memory_per_node < full.memory_per_node);
        // The reuse footprint shrinks and keeps its capacity ratio.
        let mb = 1 << 20;
        let [(bytes, ratio, _)] = reuse_distance_sweep(&[mb], PrefetchMode::Naive, 0.05, 0)[..] else {
            panic!("one footprint, one row");
        };
        assert!(bytes < mb / 4, "{bytes}");
        assert!((ratio - mb as f64 / mem_plus_ring(&full) as f64).abs() < 1e-3, "{ratio}");
    }
}
