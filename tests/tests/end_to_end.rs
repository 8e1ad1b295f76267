//! End-to-end integration tests spanning all workspace crates: build a
//! full machine, run real applications, and check the paper's headline
//! claims hold qualitatively at reduced scale.

use nw_apps::AppId;
use nwcache::experiments::Lab;
use nwcache::{run_app, MachineConfig, MachineKind, PrefetchMode};

const SCALE: f64 = 0.1;

#[test]
fn full_suite_completes_on_both_machines() {
    for app in AppId::ALL {
        for kind in [MachineKind::Standard, MachineKind::NwCache] {
            let cfg = MachineConfig::scaled_paper(kind, PrefetchMode::Naive, SCALE);
            let m = run_app(&cfg, app);
            assert!(m.exec_time > 0, "{app:?} {kind:?}");
            assert!(m.page_faults > 0, "{app:?} {kind:?} never faulted");
        }
    }
}

#[test]
fn headline_claim_swap_outs_orders_of_magnitude_faster() {
    // Abstract: "the NWCache improves swap-out times by 1 to 3 orders
    // of magnitude" (under optimal prefetching).
    let mut improved = 0;
    let mut total = 0;
    for app in [AppId::Sor, AppId::Gauss, AppId::Mg, AppId::Fft] {
        let std_cfg = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Optimal, SCALE);
        let nwc_cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Optimal, SCALE);
        let s = run_app(&std_cfg, app);
        let n = run_app(&nwc_cfg, app);
        if s.swap_outs == 0 {
            continue;
        }
        total += 1;
        let ratio = s.swap_out_time.mean() / n.swap_out_time.mean().max(1.0);
        if ratio >= 10.0 {
            improved += 1;
        }
    }
    assert!(total >= 3, "too few apps swapped at this scale");
    assert!(
        improved >= total - 1,
        "swap-out improvement below one order of magnitude for {}/{total} apps",
        total - improved
    );
}

#[test]
fn headline_claim_overall_performance_improves_under_optimal() {
    // Paper: improvements of up to 64% under optimal prefetching, and
    // greater than 28% in all cases except Em3d.
    for app in [AppId::Sor, AppId::Gauss, AppId::Mg] {
        let std_cfg = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Optimal, SCALE);
        let nwc_cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Optimal, SCALE);
        let s = run_app(&std_cfg, app);
        let n = run_app(&nwc_cfg, app);
        assert!(
            n.exec_time < s.exec_time,
            "{app:?}: NWCache should win under optimal prefetching"
        );
    }
}

#[test]
fn victim_cache_hit_rate_ordering_matches_table7() {
    // Table 7: Gauss and MG have the highest hit rates (sharing +
    // working set fits memory+ring); Em3d the lowest.
    let rate = |app| {
        let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Optimal, SCALE);
        run_app(&cfg, app).ring_hit_rate()
    };
    let gauss = rate(AppId::Gauss);
    let em3d = rate(AppId::Em3d);
    assert!(
        gauss > em3d,
        "gauss ({gauss:.1}%) should out-hit em3d ({em3d:.1}%)"
    );
}

#[test]
fn nwcache_reduces_interconnect_traffic() {
    // Benefit (d): page swap-outs are not transferred across the
    // interconnection network.
    let std_cfg = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Optimal, SCALE);
    let nwc_cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Optimal, SCALE);
    let s = run_app(&std_cfg, AppId::Sor);
    let n = run_app(&nwc_cfg, AppId::Sor);
    let s_norm = s.mesh_bytes as f64 / s.page_faults.max(1) as f64;
    let n_norm = n.mesh_bytes as f64 / n.page_faults.max(1) as f64;
    assert!(
        n_norm < s_norm,
        "mesh bytes per fault: nwc {n_norm:.0} vs std {s_norm:.0}"
    );
}

#[test]
fn deterministic_across_thread_scheduling() {
    // The sweep pool runs the two cells on two threads; the runs
    // themselves must remain bit-identical regardless.
    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    let jobs = vec![(cfg.clone(), AppId::Radix), (cfg.clone(), AppId::Radix)];
    let results: Vec<_> = nwcache::sweep::run_grid(2, jobs)
        .into_iter()
        .map(|r| r.expect("radix cell"))
        .collect();
    assert_eq!(results[0].exec_time, results[1].exec_time);
    assert_eq!(results[0].page_faults, results[1].page_faults);
    let direct = run_app(&cfg, AppId::Radix);
    assert_eq!(direct.exec_time, results[0].exec_time);
}

#[test]
fn one_lab_runs_each_distinct_cell_once() {
    // Tables 3, 5 and 7, Figure 3 and the overall summary are views of
    // one matrix: the 14 optimal cells, plus Table 7's 7 naive NWCache
    // cells. A target that re-simulates a cell it shares fails here.
    use nwcache::experiments as exp;
    let (mode, scale) = (PrefetchMode::Optimal, 0.05);
    let mut lab = Lab::default();
    exp::table_swap_out(&mut lab, mode, scale);
    exp::table_combining(&mut lab, mode, scale);
    exp::figure_breakdown(&mut lab, mode, scale);
    exp::overall_improvement(&mut lab, mode, scale);
    assert_eq!(lab.cells(), 14);
    exp::table_hit_rates(&mut lab, scale);
    assert_eq!(lab.cells(), 21);
}

#[test]
fn experiment_tables_have_a_row_per_app() {
    let rows = nwcache::experiments::table_swap_out(&mut Lab::default(), PrefetchMode::Naive, 0.05);
    assert_eq!(rows.len(), 7);
    let names: Vec<&str> = rows.iter().map(|r| r.app.as_str()).collect();
    assert_eq!(
        names,
        vec!["em3d", "fft", "gauss", "lu", "mg", "radix", "sor"]
    );
}

#[test]
fn figure_breakdowns_normalize_to_standard() {
    let bars = nwcache::experiments::figure_breakdown(&mut Lab::default(), PrefetchMode::Naive, 0.05);
    assert_eq!(bars.len(), 14); // 7 apps x 2 machines
    for pair in bars.chunks(2) {
        let std_total: f64 = pair[0].parts.iter().sum();
        assert!(
            (std_total - 1.0).abs() < 0.05,
            "{}: standard bar sums to {std_total}",
            pair[0].app
        );
        assert_eq!(pair[0].machine, "standard");
        assert_eq!(pair[1].machine, "nwcache");
    }
}

#[test]
fn minfree_sweep_returns_all_points() {
    let rows = nwcache::experiments::minfree_sweep(
        &mut Lab::default(),
        AppId::Sor,
        MachineKind::NwCache,
        PrefetchMode::Naive,
        &[2, 4, 8],
        0.05,
    );
    assert_eq!(rows.len(), 3);
    assert!(rows.iter().all(|&(_, t)| t > 0));
}

#[test]
fn diskcache_sweep_monotone_trend() {
    // Larger standard-machine controller caches must not hurt.
    let (rows, nwc_ref) = nwcache::experiments::diskcache_sweep(
        &mut Lab::default(),
        AppId::Sor,
        PrefetchMode::Optimal,
        &[4, 64],
        SCALE,
    );
    assert!(nwc_ref > 0);
    assert!(
        rows[1].1 <= rows[0].1,
        "64-page cache ({}) should beat 4-page ({})",
        rows[1].1,
        rows[0].1
    );
}
