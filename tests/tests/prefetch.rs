//! Conformance suite for the four prefetch modes.
//!
//! Optimal, naive and window are controller settings with no
//! machine-side state (`PrefetchMode::disk_policy`); adaptive adds the
//! machine's speculation engine (`nwcache::prefetch::AdaptivePolicy`).
//! Every mode is pinned by golden `RunSummary` snapshots of one clean
//! and one fault-injected cell, so any timing or counter drift fails
//! the suite; the optimal and naive snapshots date from before the
//! modes were first refactored. Adaptive is further pinned by its
//! speculation counters (which the snapshots leave out) and by
//! behavioural bounds: on a pure-sequential scenario it must recover
//! at least 90% of the optimal hit rate and close at least half of
//! the optimal-vs-naive execution-time gap, while never exceeding its
//! in-flight speculation cap.
//!
//! If a FUTURE PR intentionally changes the timing model, regenerate
//! the constants with:
//!
//! ```text
//! cargo test -p nw-integration --release print_prefetch_golden -- --ignored --nocapture
//! ```

use nw_workload::Scenario;
use nwcache::config::{MachineConfig, MachineKind, PrefetchMode};
use nwcache::workload::{try_run_sel, AppSel};
use std::sync::Arc;

const SCALE: f64 = 0.1;

/// The pinned scenario: a pure sequential sweep over a working set
/// far larger than memory, so nearly every access faults and the
/// miss stream seen by each disk is an interleaving of per-node
/// sequential runs — the best case for prefetching and the cell
/// where the optimal-vs-naive gap is widest.
const SEQ_SPEC: &str = "seq,ws=256,acc=3000,wf=0.1";

fn sel() -> AppSel {
    AppSel::Gen(Arc::new(Scenario::parse(SEQ_SPEC).expect("spec")))
}

fn cell(prefetch: PrefetchMode) -> MachineConfig {
    MachineConfig::scaled_paper(MachineKind::NwCache, prefetch, SCALE)
}

fn faulted(prefetch: PrefetchMode) -> MachineConfig {
    // Same fault plan as the hotpath and workload goldens, so every
    // golden suite pins the same failure paths.
    let mut cfg = cell(prefetch);
    cfg.faults.disk_error_rate = 0.05;
    cfg.faults.disk_stuck_rate = 0.01;
    cfg.faults.mesh_drop_rate = 0.02;
    cfg.faults.mesh_corrupt_rate = 0.01;
    cfg.faults.ring_channel_failures = vec![(40_000_000, 1)];
    cfg
}

// ---- controller-only modes: pinned snapshots --------------------------------

const GOLDEN_OPTIMAL_CLEAN: &str = include_str!("golden/clean_prefetch_optimal_01.json");
const GOLDEN_OPTIMAL_FAULTED: &str = include_str!("golden/faulted_prefetch_optimal_01.json");
const GOLDEN_NAIVE_CLEAN: &str = include_str!("golden/clean_prefetch_naive_01.json");
const GOLDEN_NAIVE_FAULTED: &str = include_str!("golden/faulted_prefetch_naive_01.json");
const GOLDEN_WINDOW_CLEAN: &str = include_str!("golden/clean_prefetch_window_01.json");
const GOLDEN_WINDOW_FAULTED: &str = include_str!("golden/faulted_prefetch_window_01.json");
const GOLDEN_ADAPTIVE_CLEAN: &str = include_str!("golden/clean_prefetch_adaptive_01.json");
const GOLDEN_ADAPTIVE_FAULTED: &str = include_str!("golden/faulted_prefetch_adaptive_01.json");

#[test]
fn optimal_policy_is_bit_identical_to_pre_refactor_run() {
    let m = try_run_sel(&cell(PrefetchMode::Optimal), &sel()).expect("clean run");
    assert_eq!(
        m.summary().to_json().trim(),
        GOLDEN_OPTIMAL_CLEAN.trim(),
        "optimal policy drifted from the pre-refactor snapshot"
    );
}

#[test]
fn optimal_policy_is_bit_identical_under_faults() {
    let m = try_run_sel(&faulted(PrefetchMode::Optimal), &sel()).expect("faulted run");
    assert_eq!(
        m.summary().to_json().trim(),
        GOLDEN_OPTIMAL_FAULTED.trim(),
        "optimal policy (faulted) drifted from the pre-refactor snapshot"
    );
    assert!(m.disk_media_errors > 0, "no media errors in golden cell");
}

#[test]
fn naive_policy_is_bit_identical_to_pre_refactor_run() {
    let m = try_run_sel(&cell(PrefetchMode::Naive), &sel()).expect("clean run");
    assert_eq!(
        m.summary().to_json().trim(),
        GOLDEN_NAIVE_CLEAN.trim(),
        "naive policy drifted from the pre-refactor snapshot"
    );
}

#[test]
fn naive_policy_is_bit_identical_under_faults() {
    let m = try_run_sel(&faulted(PrefetchMode::Naive), &sel()).expect("faulted run");
    assert_eq!(
        m.summary().to_json().trim(),
        GOLDEN_NAIVE_FAULTED.trim(),
        "naive policy (faulted) drifted from the pre-refactor snapshot"
    );
    assert!(m.disk_media_errors > 0, "no media errors in golden cell");
}

#[test]
fn window_policy_run_is_pinned() {
    let m = try_run_sel(&cell(PrefetchMode::Window), &sel()).expect("clean run");
    assert_eq!(
        m.summary().to_json().trim(),
        GOLDEN_WINDOW_CLEAN.trim(),
        "window policy drifted from its pinned snapshot"
    );
}

#[test]
fn window_policy_run_is_pinned_under_faults() {
    let m = try_run_sel(&faulted(PrefetchMode::Window), &sel()).expect("faulted run");
    assert_eq!(
        m.summary().to_json().trim(),
        GOLDEN_WINDOW_FAULTED.trim(),
        "window policy (faulted) drifted from its pinned snapshot"
    );
    assert!(m.disk_media_errors > 0, "no media errors in golden cell");
}

// ---- adaptive policy: pinned snapshots + behavioural bounds ----------------

#[test]
fn adaptive_policy_run_is_pinned() {
    let m = try_run_sel(&cell(PrefetchMode::Adaptive), &sel()).expect("clean run");
    assert_eq!(
        m.summary().to_json().trim(),
        GOLDEN_ADAPTIVE_CLEAN.trim(),
        "adaptive policy drifted from its pinned snapshot"
    );
}

#[test]
fn adaptive_policy_run_is_pinned_under_faults() {
    let m = try_run_sel(&faulted(PrefetchMode::Adaptive), &sel()).expect("faulted run");
    assert_eq!(
        m.summary().to_json().trim(),
        GOLDEN_ADAPTIVE_FAULTED.trim(),
        "adaptive policy (faulted) drifted from its pinned snapshot"
    );
    assert!(m.disk_media_errors > 0, "no media errors in golden cell");
}

/// `RunSummary::to_json` leaves the speculation and controller-cache
/// counters out, so the snapshots above cannot see them: pin them
/// exactly for both adaptive cells. Order: spec issued, hits, late,
/// wasted, canceled, in-flight peak, disk read hits, disk read misses.
#[test]
fn adaptive_speculation_counters_are_pinned() {
    for (label, cfg, want) in [
        ("clean", cell(PrefetchMode::Adaptive), [435, 340, 91, 6, 25, 8, 340, 36]),
        ("faulted", faulted(PrefetchMode::Adaptive), [444, 335, 78, 12, 20, 8, 335, 41]),
    ] {
        let m = try_run_sel(&cfg, &sel()).expect("run");
        let got = [
            m.prefetch_spec_issued,
            m.prefetch_spec_hits,
            m.prefetch_spec_late,
            m.prefetch_spec_wasted,
            m.prefetch_spec_canceled,
            m.prefetch_inflight_peak,
            m.disk_read_hits,
            m.disk_read_misses,
        ];
        assert_eq!(got, want, "{label} adaptive speculation counters drifted");
    }
}

/// The headline conformance bound: from the demand-miss stream alone
/// the detector must recover at least 90% of the oracle's disk-cache
/// hit rate on the pure-sequential cell.
#[test]
fn adaptive_recovers_90pct_of_optimal_hit_rate_on_sequential() {
    let opt = try_run_sel(&cell(PrefetchMode::Optimal), &sel()).expect("optimal");
    let ada = try_run_sel(&cell(PrefetchMode::Adaptive), &sel()).expect("adaptive");
    let rate = |h: u64, m: u64| h as f64 / (h + m).max(1) as f64;
    let opt_rate = rate(opt.disk_read_hits, opt.disk_read_misses);
    let ada_rate = rate(ada.disk_read_hits, ada.disk_read_misses);
    assert!(
        ada_rate >= 0.9 * opt_rate,
        "adaptive hit rate {ada_rate:.3} below 90% of optimal's {opt_rate:.3}"
    );
    assert!(
        ada.prefetch_spec_hits > 0,
        "hits must come from consumed speculation, not luck"
    );
}

/// The paper expects realistic prefetching "to lie between these two
/// extremes"; the adaptive policy must land in the better half: it
/// closes at least 50% of the optimal-vs-naive execution-time gap.
#[test]
fn adaptive_closes_at_least_half_the_optimal_naive_gap() {
    let opt = try_run_sel(&cell(PrefetchMode::Optimal), &sel()).expect("optimal");
    let naive = try_run_sel(&cell(PrefetchMode::Naive), &sel()).expect("naive");
    let ada = try_run_sel(&cell(PrefetchMode::Adaptive), &sel()).expect("adaptive");
    assert!(
        naive.exec_time > opt.exec_time,
        "cell no longer separates the extremes"
    );
    let midpoint = opt.exec_time + (naive.exec_time - opt.exec_time) / 2;
    assert!(
        ada.exec_time <= midpoint,
        "adaptive exec {} above the gap midpoint {midpoint} \
         (optimal {}, naive {})",
        ada.exec_time,
        opt.exec_time,
        naive.exec_time
    );
}

/// Speculation stays bounded: the per-node in-flight peak never
/// exceeds the cap implied by the detector window, in clean and
/// faulted runs alike (mesh drops must release their slots).
#[test]
fn adaptive_speculation_never_exceeds_inflight_cap() {
    for cfg in [cell(PrefetchMode::Adaptive), faulted(PrefetchMode::Adaptive)] {
        let cap = nwcache::prefetch::speculation_cap(cfg.prefetch_window) as u64;
        let m = try_run_sel(&cfg, &sel()).expect("run");
        assert!(m.prefetch_spec_issued > 0, "cell must actually speculate");
        assert!(
            (1..=cap).contains(&m.prefetch_inflight_peak),
            "inflight peak {} outside (0, cap {cap}]",
            m.prefetch_inflight_peak
        );
        // Every issued hint is accounted for: consumed by a demand
        // read, wasted, or retracted (the remainder was still live at
        // exit).
        assert!(
            m.prefetch_spec_hits + m.prefetch_spec_wasted + m.prefetch_spec_canceled
                <= m.prefetch_spec_issued,
            "hint accounting overflows issues"
        );
    }
}

/// The controller-only modes must not touch the speculation
/// machinery at all — their counters stay zero (part of the
/// bit-identity contract, but cheaper to diagnose from counters).
#[test]
fn non_speculating_policies_issue_no_hints() {
    for mode in [PrefetchMode::Optimal, PrefetchMode::Naive, PrefetchMode::Window] {
        let m = try_run_sel(&cell(mode), &sel()).expect("run");
        assert_eq!(m.prefetch_spec_issued, 0);
        assert_eq!(m.prefetch_spec_hits, 0);
        assert_eq!(m.prefetch_inflight_peak, 0);
    }
}

/// Regenerates the snapshot constants. Ignored by default; run with
/// `--ignored --nocapture` and paste the output into the files under
/// `tests/tests/golden/`.
#[test]
#[ignore]
fn print_prefetch_golden() {
    for (mode, name) in [
        (PrefetchMode::Optimal, "optimal"),
        (PrefetchMode::Naive, "naive"),
        (PrefetchMode::Window, "window"),
        (PrefetchMode::Adaptive, "adaptive"),
    ] {
        let clean = try_run_sel(&cell(mode), &sel()).expect("clean run");
        println!("=== clean_prefetch_{name}_01.json ===");
        println!("{}", clean.summary().to_json());
        let f = try_run_sel(&faulted(mode), &sel()).expect("faulted run");
        println!("=== faulted_prefetch_{name}_01.json ===");
        println!("{}", f.summary().to_json());
    }
}
