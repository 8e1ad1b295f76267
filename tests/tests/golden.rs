//! Golden regression tests: pin the *relationships* between runs that
//! every future change must preserve, plus self-consistency checks
//! that hold for any correct model. (We deliberately do not pin raw
//! cycle counts — intentional model changes may move them — but the
//! qualitative results of the paper must never flip.)

use nw_apps::AppId;
use nwcache::config::{MachineConfig, MachineKind, PrefetchMode};
use nwcache::run_app;

fn run(kind: MachineKind, pf: PrefetchMode, app: AppId, scale: f64) -> nwcache::RunMetrics {
    run_app(&MachineConfig::scaled_paper(kind, pf, scale), app)
}

#[test]
fn golden_swap_out_ordering_all_apps() {
    // NWCache swap-outs beat standard swap-outs for every app that
    // swaps, under both prefetching extremes.
    for pf in [PrefetchMode::Optimal, PrefetchMode::Naive] {
        for app in AppId::ALL {
            let s = run(MachineKind::Standard, pf, app, 0.1);
            let n = run(MachineKind::NwCache, pf, app, 0.1);
            if s.swap_outs < 200 {
                continue; // not enough swap traffic at this scale
            }
            // At reduced scale the shrunken ring (2 slots/channel)
            // can throttle the NWCache; allow a 2x band but never a
            // blowout.
            assert!(
                n.swap_out_time.mean() < s.swap_out_time.mean() * 2.0,
                "{app:?}/{pf:?}: nwc {:.0} !< 2x std {:.0}",
                n.swap_out_time.mean(),
                s.swap_out_time.mean()
            );
        }
    }
}

#[test]
fn golden_optimal_beats_naive_on_standard_machine() {
    // Idealized prefetching can only help.
    for app in [AppId::Sor, AppId::Gauss, AppId::Mg, AppId::Fft] {
        let o = run(MachineKind::Standard, PrefetchMode::Optimal, app, 0.1);
        let n = run(MachineKind::Standard, PrefetchMode::Naive, app, 0.1);
        assert!(
            o.exec_time < n.exec_time,
            "{app:?}: optimal {} !< naive {}",
            o.exec_time,
            n.exec_time
        );
    }
}

#[test]
fn golden_window_between_extremes_for_read_latency() {
    // The realistic prefetcher's aggregate fault cost sits between
    // naive and optimal on a sequential-sweep app.
    let app = AppId::Sor;
    let naive = run(MachineKind::Standard, PrefetchMode::Naive, app, 0.1);
    let window = run(MachineKind::Standard, PrefetchMode::Window, app, 0.1);
    let optimal = run(MachineKind::Standard, PrefetchMode::Optimal, app, 0.1);
    assert!(
        optimal.exec_time <= window.exec_time,
        "optimal {} > window {}",
        optimal.exec_time,
        window.exec_time
    );
    assert!(
        window.exec_time <= naive.exec_time * 11 / 10,
        "window {} much worse than naive {}",
        window.exec_time,
        naive.exec_time
    );
}

#[test]
fn golden_fault_conservation() {
    // Faults never disappear: every fault is classified, and every
    // swap has a matching eviction.
    for kind in [MachineKind::Standard, MachineKind::NwCache, MachineKind::Dcd] {
        let m = run(kind, PrefetchMode::Naive, AppId::Radix, 0.1);
        let classified = m.fault_latency_disk_hit.count()
            + m.fault_latency_disk_miss.count()
            + m.fault_latency_ring.count();
        assert_eq!(classified, m.page_faults, "{kind:?}");
        // Swap-outs still in flight when the last processor finishes
        // are abandoned, so the tally may trail the count slightly.
        assert!(
            m.swap_out_time.count() <= m.swap_outs,
            "{kind:?}: tallied more swaps than started"
        );
        assert!(
            m.swap_outs - m.swap_out_time.count() <= 16,
            "{kind:?}: {} of {} swap-outs unaccounted",
            m.swap_outs - m.swap_out_time.count(),
            m.swap_outs
        );
    }
}

#[test]
fn golden_same_seed_same_everything() {
    // Full metric equality across repeated runs — the strongest
    // determinism check (covers histograms and the occupancy series).
    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, 0.1);
    let a = run_app(&cfg, AppId::Gauss);
    let b = run_app(&cfg, AppId::Gauss);
    assert_eq!(a.exec_time, b.exec_time);
    assert_eq!(a.swap_out_percentile(99.0), b.swap_out_percentile(99.0));
    assert_eq!(a.fault_percentile(50.0), b.fault_percentile(50.0));
    assert_eq!(a.ring_occupancy, b.ring_occupancy);
    assert_eq!(a.summary().to_json(), b.summary().to_json());
}

#[test]
fn golden_different_seed_different_radix() {
    // Radix keys come from the seed: the access stream, and therefore
    // the timing, must change.
    let mut c1 = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Naive, 0.1);
    c1.seed = 1;
    let mut c2 = c1.clone();
    c2.seed = 2;
    let a = run_app(&c1, AppId::Radix);
    let b = run_app(&c2, AppId::Radix);
    assert_ne!(a.exec_time, b.exec_time, "seed had no effect on radix");
}

#[test]
fn golden_ring_occupancy_series_recorded() {
    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, 0.1);
    let m = run_app(&cfg, AppId::Sor);
    assert!(!m.ring_occupancy.is_empty(), "no occupancy samples");
    let cap = (cfg.nodes as usize * cfg.ring_slots_per_channel) as u64;
    for &(_, v) in &m.ring_occupancy {
        assert!(v <= cap, "occupancy sample {v} beyond capacity {cap}");
    }
}

#[test]
fn golden_percentiles_bracket_mean() {
    let cfg = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Naive, 0.1);
    let m = run_app(&cfg, AppId::Sor);
    assert!(m.swap_outs > 0);
    let p50 = m.swap_out_percentile(50.0);
    let p99 = m.swap_out_percentile(99.0);
    assert!(p50 <= p99);
    // log2-bucket estimates: p99 upper bucket bound must be at least
    // half the true max's bucket.
    assert!(p99 as f64 >= m.swap_out_time.max().unwrap() as f64 / 4.0);
}
