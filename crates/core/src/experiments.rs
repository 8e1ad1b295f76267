//! Experiment runners for every table and figure of the paper's
//! evaluation section (§5).
//!
//! Each function returns plain data rows; `report` renders them and
//! the `reproduce` binary in `nw-bench` prints them. All experiments
//! take a `scale` parameter: `1.0` reproduces the paper's Table 2
//! inputs, smaller values run the same experiment on shrunken inputs
//! (used by tests).

use crate::config::{MachineConfig, MachineKind, PrefetchMode};
use crate::metrics::RunMetrics;
use nw_apps::AppId;

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

/// Run every app on both machines under `prefetch`, in parallel, and
/// return the (standard, nwcache) metric pairs.
pub fn paired_runs(
    prefetch: PrefetchMode,
    scale: f64,
    apps: &[AppId],
) -> Vec<(RunMetrics, RunMetrics)> {
    let jobs: Vec<(MachineConfig, AppId)> = apps
        .iter()
        .flat_map(|&app| {
            let std_cfg = MachineConfig::scaled_paper(MachineKind::Standard, prefetch, scale);
            let nwc_cfg = MachineConfig::scaled_paper(MachineKind::NwCache, prefetch, scale);
            [(std_cfg, app), (nwc_cfg, app)]
        })
        .collect();
    let results = run_parallel(jobs);
    results
        .chunks(2)
        .map(|pair| (pair[0].clone(), pair[1].clone()))
        .collect()
}

/// Run a batch of simulations on the sweep thread pool (each
/// simulation is single-threaded and deterministic; results come back
/// in job order regardless of scheduling). The worker count is the
/// process-wide [`crate::sweep::jobs`] knob (`--jobs N` on the CLIs).
///
/// # Panics
/// Panics if any run fails — these experiment helpers model the
/// paper's clean evaluation. Use [`crate::sweep::run_grid`] for
/// sweeps that must survive failing cells.
pub fn run_parallel(jobs: Vec<(MachineConfig, AppId)>) -> Vec<RunMetrics> {
    crate::sweep::run_grid(crate::sweep::jobs(), jobs)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("simulation failed: {e}")))
        .collect()
}

/// Tables 3 and 4: average swap-out time (pcycles) per application.
pub fn table_swap_out(prefetch: PrefetchMode, scale: f64) -> Vec<PairedRow> {
    paired_runs(prefetch, scale, &AppId::ALL)
        .into_iter()
        .map(|(s, n)| PairedRow {
            app: s.app.clone(),
            standard: s.swap_out_time.mean(),
            nwcache: n.swap_out_time.mean(),
        })
        .collect()
}

/// Tables 5 and 6: average write-combining factor per application.
pub fn table_combining(prefetch: PrefetchMode, scale: f64) -> Vec<PairedRow> {
    paired_runs(prefetch, scale, &AppId::ALL)
        .into_iter()
        .map(|(s, n)| PairedRow {
            app: s.app.clone(),
            standard: s.write_combining.mean(),
            nwcache: n.write_combining.mean(),
        })
        .collect()
}

/// Table 7: NWCache read hit rates (%) under naive and optimal
/// prefetching. Returned as (app, naive %, optimal %).
pub fn table_hit_rates(scale: f64) -> Vec<(String, f64, f64)> {
    let naive = paired_runs(PrefetchMode::Naive, scale, &AppId::ALL);
    let optimal = paired_runs(PrefetchMode::Optimal, scale, &AppId::ALL);
    naive
        .into_iter()
        .zip(optimal)
        .map(|((_, n_naive), (_, n_opt))| {
            (
                n_naive.app.clone(),
                n_naive.ring_hit_rate(),
                n_opt.ring_hit_rate(),
            )
        })
        .collect()
}

/// Table 8: average page-fault latency for disk-controller-cache hits
/// under naive prefetching (the paper's contention proxy).
pub fn table_disk_hit_latency(scale: f64) -> Vec<PairedRow> {
    paired_runs(PrefetchMode::Naive, scale, &AppId::ALL)
        .into_iter()
        .map(|(s, n)| PairedRow {
            app: s.app.clone(),
            standard: s.fault_latency_disk_hit.mean(),
            nwcache: n.fault_latency_disk_hit.mean(),
        })
        .collect()
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
pub fn figure_breakdown(prefetch: PrefetchMode, scale: f64) -> Vec<BreakdownBar> {
    let mut bars = Vec::new();
    for (s, n) in paired_runs(prefetch, scale, &AppId::ALL) {
        let denom = s.exec_time.max(1);
        bars.push(BreakdownBar {
            app: s.app.clone(),
            machine: "standard".into(),
            parts: s.normalized_breakdown(denom),
        });
        bars.push(BreakdownBar {
            app: n.app.clone(),
            machine: "nwcache".into(),
            parts: n.normalized_breakdown(denom),
        });
    }
    bars
}

/// §5 first paragraph: sweep the minimum-free-frames policy for one
/// application; returns (min_free, exec_time) pairs.
pub fn minfree_sweep(
    app: AppId,
    kind: MachineKind,
    prefetch: PrefetchMode,
    values: &[u32],
    scale: f64,
) -> Vec<(u32, u64)> {
    let jobs: Vec<(MachineConfig, AppId)> = values
        .iter()
        .map(|&v| {
            let mut cfg = MachineConfig::scaled_paper(kind, prefetch, scale);
            cfg.min_free_frames = v.min(cfg.frames_per_node() - 1);
            (cfg, app)
        })
        .collect();
    values
        .iter()
        .copied()
        .zip(run_parallel(jobs).into_iter().map(|m| m.exec_time))
        .collect()
}

/// The paper's closing claim: how much disk-controller cache does the
/// *standard* machine need to approach NWCache performance? Sweeps the
/// controller cache size; returns (pages, exec_time) plus the NWCache
/// reference time at the paper's 4-page cache.
pub fn diskcache_sweep(
    app: AppId,
    prefetch: PrefetchMode,
    sizes: &[usize],
    scale: f64,
) -> (Vec<(usize, u64)>, u64) {
    let mut jobs: Vec<(MachineConfig, AppId)> = sizes
        .iter()
        .map(|&pages| {
            let mut cfg = MachineConfig::scaled_paper(MachineKind::Standard, prefetch, scale);
            cfg.disk_cache_pages = pages;
            (cfg, app)
        })
        .collect();
    let nwc_cfg = MachineConfig::scaled_paper(MachineKind::NwCache, prefetch, scale);
    jobs.push((nwc_cfg, app));
    let mut results = run_parallel(jobs);
    let nwc = results.pop().expect("nwc reference").exec_time;
    (
        sizes
            .iter()
            .copied()
            .zip(results.into_iter().map(|m| m.exec_time))
            .collect(),
        nwc,
    )
}

/// Overall performance summary: execution-time improvement (%) of the
/// NWCache machine per application.
pub fn overall_improvement(prefetch: PrefetchMode, scale: f64) -> Vec<(String, f64)> {
    paired_runs(prefetch, scale, &AppId::ALL)
        .into_iter()
        .map(|(s, n)| (s.app.clone(), n.improvement_over(&s)))
        .collect()
}

/// Replacement-policy ablation (extension): the paper prescribes LRU;
/// compare FIFO and Clock. Returns `(policy name, exec, swap_outs)`.
pub fn replacement_comparison(
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
    let jobs: Vec<(MachineConfig, AppId)> = policies
        .iter()
        .map(|&(_, p)| {
            let mut cfg = MachineConfig::scaled_paper(kind, prefetch, scale);
            cfg.replacement = p;
            (cfg, app)
        })
        .collect();
    policies
        .iter()
        .zip(run_parallel(jobs))
        .map(|(&(name, _), m)| (name, m.exec_time, m.swap_outs))
        .collect()
}

/// I/O-node sensitivity (extension): the paper's motivation is
/// machines where "not all nodes are I/O-enabled". Sweep the number
/// of I/O-enabled nodes (and disks) and compare machines. Returns
/// `(io_nodes, std_exec, nwc_exec)`.
pub fn ionode_sweep(
    app: AppId,
    prefetch: PrefetchMode,
    io_counts: &[u32],
    scale: f64,
) -> Vec<(u32, u64, u64)> {
    let jobs: Vec<(MachineConfig, AppId)> = io_counts
        .iter()
        .flat_map(|&io| {
            let mut std_cfg = MachineConfig::scaled_paper(MachineKind::Standard, prefetch, scale);
            std_cfg.io_nodes = io;
            let mut nwc_cfg = MachineConfig::scaled_paper(MachineKind::NwCache, prefetch, scale);
            nwc_cfg.io_nodes = io;
            [(std_cfg, app), (nwc_cfg, app)]
        })
        .collect();
    io_counts
        .iter()
        .copied()
        .zip(run_parallel(jobs).chunks(2).map(|c| (c[0].exec_time, c[1].exec_time)).collect::<Vec<_>>())
        .map(|(n, (s, w))| (n, s, w))
        .collect()
}

/// Victim-cache capacity probe (extension): sweep a synthetic
/// sweep-style working set across the memory+ring capacity boundary
/// and measure the NWCache hit rate. The paper explains Table 7's
/// ordering by whether "working sets can (almost) fit in the combined
/// memory/NWCache size"; this experiment shows the effect directly.
/// Returns `(data_bytes, data / (memory + ring), hit_rate %)`.
pub fn reuse_distance_sweep(
    footprints_bytes: &[u64],
    prefetch: PrefetchMode,
) -> Vec<(u64, f64, f64)> {
    use nw_apps::synth::{build as synth_build, SynthConfig};
    let base = MachineConfig::paper_default(MachineKind::NwCache, prefetch);
    let mem_plus_ring = base.memory_per_node * base.nodes as u64
        + (base.ring_channels * base.ring_slots_per_channel) as u64 * base.page_bytes;
    let mut out = Vec::new();
    let tasks: Vec<_> = footprints_bytes
        .iter()
        .map(|&bytes| {
            let cfg = base.clone();
            move || {
                let synth = synth_build(
                    SynthConfig {
                        data_bytes: bytes,
                        write_frac: 0.6,
                        iters: 6,
                        ..Default::default()
                    },
                    cfg.nodes as usize,
                    cfg.seed,
                );
                crate::Machine::from_build(cfg, synth).run()
            }
        })
        .collect();
    let results: Vec<RunMetrics> = nw_sim::pool::run(crate::sweep::jobs(), tasks)
        .into_iter()
        .map(|r| r.expect("run"))
        .collect();
    for (&bytes, m) in footprints_bytes.iter().zip(&results) {
        out.push((
            bytes,
            bytes as f64 / mem_plus_ring as f64,
            m.ring_hit_rate(),
        ));
    }
    out
}

/// Access-skew sensitivity, an axis the paper's fixed Table 2 suite
/// cannot probe: sweep the Zipf exponent of a generated workload
/// whose working set overflows memory + ring, and watch the victim
/// cache's (ring) hit rate respond. Low skew spreads faults over too
/// many pages for the ring to hold; high skew concentrates reuse on
/// a hot set the ring captures. Returns `(skew, ring_hit_rate,
/// exec_time)` per skew value.
pub fn zipf_skew_sweep(skews: &[f64], prefetch: PrefetchMode) -> Vec<(f64, f64, u64)> {
    use crate::workload::AppSel;
    use nw_workload::{Pattern, Phase, Scenario};
    use std::sync::Arc;

    let base = MachineConfig::paper_default(MachineKind::NwCache, prefetch);
    let mem_plus_ring = base.memory_per_node * base.nodes as u64
        + (base.ring_channels * base.ring_slots_per_channel) as u64 * base.page_bytes;
    // 1.5x the combined capacity: out-of-core, but close enough that
    // a concentrated hot set fits back in.
    let pages = mem_plus_ring * 3 / 2 / base.page_bytes;
    let grid: Vec<(MachineConfig, AppSel)> = skews
        .iter()
        .map(|&skew| {
            let scenario = Scenario {
                name: format!("zipf-skew-{skew}"),
                phases: vec![Phase {
                    pattern: Pattern::Zipf { skew },
                    pages,
                    accesses: 4000,
                    write_frac: 0.6,
                    barriers: 4,
                    ..Phase::default()
                }],
            };
            (base.clone(), AppSel::Gen(Arc::new(scenario)))
        })
        .collect();
    let results = crate::sweep::run_sel_grid(crate::sweep::jobs(), grid);
    skews
        .iter()
        .zip(results)
        .map(|(&skew, r)| {
            let m = r.expect("zipf cell");
            (skew, m.ring_hit_rate(), m.exec_time)
        })
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
pub fn prefetch_policy_sweep(scale: f64) -> Vec<PrefetchRow> {
    use crate::workload::AppSel;
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
    let results = crate::sweep::run_sel_grid(crate::sweep::jobs(), grid);
    results
        .into_iter()
        .map(|r| {
            let m = r.expect("prefetch cell");
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
    app: AppId,
    prefetch: PrefetchMode,
    node_counts: &[u32],
    scale: f64,
) -> Vec<(u32, u64, u64)> {
    let jobs: Vec<(MachineConfig, AppId)> = node_counts
        .iter()
        .flat_map(|&n| {
            let mut std_cfg = MachineConfig::scaled_paper(MachineKind::Standard, prefetch, scale);
            std_cfg.nodes = n;
            std_cfg.io_nodes = (n / 2).max(1);
            let mut nwc_cfg = MachineConfig::scaled_paper(MachineKind::NwCache, prefetch, scale);
            nwc_cfg.nodes = n;
            nwc_cfg.io_nodes = (n / 2).max(1);
            nwc_cfg.ring_channels = n as usize;
            [(std_cfg, app), (nwc_cfg, app)]
        })
        .collect();
    node_counts
        .iter()
        .copied()
        .zip(run_parallel(jobs).chunks(2).map(|c| (c[0].exec_time, c[1].exec_time)).collect::<Vec<_>>())
        .map(|(n, (s, w))| (n, s, w))
        .collect()
}

/// Baseline comparison the paper makes only qualitatively (related
/// work): standard vs DCD (log-disk write staging) vs NWCache, per
/// application. Returns `(app, std_exec, dcd_exec, nwc_exec)`.
pub fn dcd_comparison(prefetch: PrefetchMode, scale: f64) -> Vec<(String, u64, u64, u64)> {
    let jobs: Vec<(MachineConfig, AppId)> = AppId::ALL
        .iter()
        .flat_map(|&app| {
            [
                (MachineConfig::scaled_paper(MachineKind::Standard, prefetch, scale), app),
                (MachineConfig::scaled_paper(MachineKind::Dcd, prefetch, scale), app),
                (MachineConfig::scaled_paper(MachineKind::NwCache, prefetch, scale), app),
            ]
        })
        .collect();
    run_parallel(jobs)
        .chunks(3)
        .map(|c| (c[0].app.clone(), c[0].exec_time, c[1].exec_time, c[2].exec_time))
        .collect()
}

/// Ablation: sweep the controller's flush accumulation window. A
/// longer window lets consecutive swap-outs gather in the disk cache
/// before the flush starts — the mechanism behind write combining
/// (Tables 5/6) — at the cost of holding cache slots longer.
pub fn ablation_flush_delay(
    app: AppId,
    kind: MachineKind,
    prefetch: PrefetchMode,
    delays: &[u64],
    scale: f64,
) -> Vec<(u64, f64, u64)> {
    let jobs: Vec<(MachineConfig, AppId)> = delays
        .iter()
        .map(|&d| {
            let mut cfg = MachineConfig::scaled_paper(kind, prefetch, scale);
            cfg.disk_flush_delay = d;
            (cfg, app)
        })
        .collect();
    delays
        .iter()
        .copied()
        .zip(run_parallel(jobs))
        .map(|(d, m)| (d, m.write_combining.mean(), m.exec_time))
        .collect()
}

/// Ablation: sweep the ring's fiber length. Per the paper's §3.2
/// capacity equation, doubling the round-trip doubles the delay-line
/// storage — but also doubles the expected snoop wait of victim reads
/// and drains. Returns `(round_trip, slots, hit_rate, exec_time)`.
pub fn ablation_ring_geometry(
    app: AppId,
    prefetch: PrefetchMode,
    round_trips_us: &[u64],
    scale: f64,
) -> Vec<(u64, usize, f64, u64)> {
    let base = MachineConfig::scaled_paper(MachineKind::NwCache, prefetch, scale);
    let base_rt_us = 52;
    let jobs: Vec<(MachineConfig, AppId)> = round_trips_us
        .iter()
        .map(|&us| {
            let mut cfg = base.clone();
            cfg.ring_round_trip = nw_sim::time::usecs(us);
            // Storage scales with fiber length (same channel rate).
            cfg.ring_slots_per_channel =
                ((base.ring_slots_per_channel as u64 * us) / base_rt_us).max(1) as usize;
            (cfg, app)
        })
        .collect();
    let slots: Vec<usize> = round_trips_us
        .iter()
        .map(|&us| ((base.ring_slots_per_channel as u64 * us) / base_rt_us).max(1) as usize)
        .collect();
    round_trips_us
        .iter()
        .copied()
        .zip(slots)
        .zip(run_parallel(jobs))
        .map(|((us, sl), m)| (us, sl, m.ring_hit_rate(), m.exec_time))
        .collect()
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
/// `try_run_app`, so an exhausted-retries or protocol error becomes
/// a row entry instead of aborting the sweep.
pub fn fault_tolerance(
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
    let clean_exec = crate::run_app(&clean_cfg, app).exec_time;
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
                    let ch = (2 * k as u32 + 1) % nwc_cfg.ring_channels as u32;
                    (clean_exec / 4 * (k as u64 + 1), ch)
                })
                .collect();
            labels.push((rate, failed));
            grid.push((std_cfg, app));
            grid.push((nwc_cfg, app));
        }
    }
    let results = crate::sweep::run_grid(crate::sweep::jobs(), grid);
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
pub fn scale_study(topos: &[&str], scale: f64) -> Result<Vec<ScaleRow>, String> {
    let mut meta: Vec<(String, u32, &'static str, &'static str)> = Vec::new();
    let mut grid: Vec<(MachineConfig, crate::workload::AppSel)> = Vec::new();
    for &t in topos {
        let topo = crate::topo::TopoSpec::parse(t)?;
        let nodes = topo.nodes();
        for mode in ["weak", "strong"] {
            let sel =
                crate::workload::AppSel::parse(&format!("workload:gen:{}", scale_scenario(mode, nodes, scale)))
                    .map_err(|e| format!("{t} ({mode}): {e}"))?;
            for kind in [MachineKind::Standard, MachineKind::NwCache] {
                let label = match kind {
                    MachineKind::Standard => "standard",
                    _ => "nwcache",
                };
                meta.push((topo.to_spec(), nodes, label, mode));
                grid.push((topo.to_config(kind, PrefetchMode::Naive, scale), sel.clone()));
            }
        }
    }
    let results = crate::sweep::run_sel_grid(crate::sweep::jobs(), grid);
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
