//! Integration tests for the beyond-the-paper extensions: the DCD
//! baseline, the windowed prefetcher, machine-size scaling and the
//! ablation experiments.

use nw_apps::AppId;
use nwcache::config::{MachineConfig, MachineKind, PrefetchMode};
use nwcache::experiments as exp;
use nwcache::run_app;

const SCALE: f64 = 0.1;

#[test]
fn dcd_machine_completes_and_stages_writes() {
    let cfg = MachineConfig::scaled_paper(MachineKind::Dcd, PrefetchMode::Naive, SCALE);
    let m = run_app(&cfg, AppId::Sor);
    assert_eq!(m.machine, "dcd");
    assert!(m.swap_outs > 0);
    assert!(m.exec_time > 0);
}

#[test]
fn dcd_improves_swap_outs_over_standard() {
    // The DCD's whole point: log-disk appends free the RAM cache much
    // faster than in-place data-disk writes.
    let std_cfg = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Naive, SCALE);
    let dcd_cfg = MachineConfig::scaled_paper(MachineKind::Dcd, PrefetchMode::Naive, SCALE);
    let s = run_app(&std_cfg, AppId::Sor);
    let d = run_app(&dcd_cfg, AppId::Sor);
    assert!(
        d.swap_out_time.mean() < s.swap_out_time.mean(),
        "dcd {} vs std {}",
        d.swap_out_time.mean(),
        s.swap_out_time.mean()
    );
}

#[test]
fn nwcache_beats_dcd_on_swap_staging() {
    // Paper's qualitative argument (related work): the NWCache buffer
    // is re-readable at ring speed and costs no extra spindle; the
    // DCD's is a disk. On swap staging the ring wins.
    let dcd_cfg = MachineConfig::scaled_paper(MachineKind::Dcd, PrefetchMode::Naive, SCALE);
    let nwc_cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    let d = run_app(&dcd_cfg, AppId::Sor);
    let n = run_app(&nwc_cfg, AppId::Sor);
    assert!(
        n.swap_out_time.mean() < d.swap_out_time.mean(),
        "nwc {} vs dcd {}",
        n.swap_out_time.mean(),
        d.swap_out_time.mean()
    );
    assert!(n.exec_time < d.exec_time);
}

#[test]
fn dcd_comparison_experiment_shape() {
    let rows = exp::dcd_comparison(&mut exp::Lab::default(), PrefetchMode::Naive, 0.05);
    assert_eq!(rows.len(), 7);
    // The NWCache wins the majority of the suite even at tiny scale.
    let nwc_wins = rows.iter().filter(|&&(_, s, _, n)| n < s).count();
    assert!(nwc_wins >= 5, "nwcache won only {nwc_wins}/7");
}

#[test]
fn window_prefetching_runs_and_prefetches() {
    let cfg = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Window, SCALE);
    let m = run_app(&cfg, AppId::Sor);
    assert_eq!(m.prefetch, "window");
    // The stream-extending prefetcher must produce some cache hits on
    // SOR's sequential sweeps.
    assert!(
        m.fault_latency_disk_hit.count() > 0,
        "window prefetcher produced no disk-cache hits"
    );
}

#[test]
fn window_mode_beats_naive_on_sequential_apps() {
    // SOR sweeps rows sequentially: staying ahead of the reader must
    // not be slower than prefetching only on misses.
    let naive = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Naive, SCALE);
    let window = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Window, SCALE);
    let mn = run_app(&naive, AppId::Sor);
    let mw = run_app(&window, AppId::Sor);
    assert!(
        mw.exec_time < mn.exec_time * 11 / 10,
        "window {} much slower than naive {}",
        mw.exec_time,
        mn.exec_time
    );
}

#[test]
fn scaling_sweep_runs_all_machine_sizes() {
    let rows = exp::scaling_sweep(&mut exp::Lab::default(), AppId::Sor, PrefetchMode::Naive, &[2, 4, 8, 16], 0.05);
    assert_eq!(rows.len(), 4);
    for (n, s, w) in rows {
        assert!(s > 0 && w > 0, "{n} nodes produced a zero time");
    }
}

#[test]
fn sixteen_node_machine_is_consistent() {
    let mut cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, 0.05);
    cfg.nodes = 16;
    cfg.io_nodes = 8;
    assert!(cfg.validate().is_ok());
    let m = run_app(&cfg, AppId::Radix);
    assert_eq!(m.breakdown.len(), 16);
    assert!(m.exec_time > 0);
}

#[test]
fn flush_delay_ablation_affects_combining() {
    let rows = exp::ablation_flush_delay(
        &mut exp::Lab::default(),
        AppId::Sor,
        MachineKind::NwCache,
        PrefetchMode::Optimal,
        &[0, 500_000],
        SCALE,
    );
    assert_eq!(rows.len(), 2);
    // A longer accumulation window cannot reduce combining on SOR's
    // consecutive swap-outs.
    let (_, comb_zero, _) = rows[0];
    let (_, comb_long, _) = rows[1];
    assert!(
        comb_long + 1e-9 >= comb_zero,
        "combining {comb_long} < {comb_zero} despite longer window"
    );
}

#[test]
fn ring_geometry_ablation_reports_capacity() {
    let rows = exp::ablation_ring_geometry(
        &mut exp::Lab::default(),
        AppId::Gauss,
        PrefetchMode::Naive,
        &[26, 52, 104],
        SCALE,
    );
    assert_eq!(rows.len(), 3);
    // Slots scale with fiber length.
    assert!(rows[0].1 < rows[2].1);
}

#[test]
fn json_summary_is_complete() {
    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    let m = run_app(&cfg, AppId::Sor);
    let s = m.summary();
    let json = s.to_json();
    for key in [
        "app",
        "machine",
        "prefetch",
        "exec_time",
        "page_faults",
        "swap_outs",
        "swap_out_mean",
        "ring_hit_rate",
        "no_free_cycles",
        "other_cycles",
        "disk_media_errors",
        "ring_pages_lost",
    ] {
        assert!(json.contains(&format!("\"{key}\":")), "missing key {key}");
    }
    assert!(json.contains("\"app\":\"sor\""));
    assert!(json.contains("\"machine\":\"nwcache\""));
    assert!(json.starts_with('{') && json.ends_with('}'));
}
