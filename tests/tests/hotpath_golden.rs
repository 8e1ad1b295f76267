//! Golden `RunMetrics` snapshots pinning the hot-path data layout.
//!
//! `golden.rs` deliberately pins *relationships* (machine A beats
//! machine B) so it survives intentional model changes. This file is
//! the opposite: it pins the exact serialized `RunSummary` of two grid
//! cells — one clean, one fault-injected — captured **before** the
//! PR 3 data-layout refactor (open-addressing directory, indexed ring
//! slot set, flattened cache ways), and of 14 translation-stress cells
//! captured before translation was memoized per page run. Both
//! refactors' contract is bit-identical behavior, so any drift in any
//! field is a bug here, not a model change.
//!
//! If a FUTURE PR intentionally changes the timing model, regenerate
//! the constants with:
//!
//! ```text
//! cargo test -p nw-integration --release print_golden -- --ignored --nocapture
//! ```

use nw_apps::AppId;
use nwcache::config::{MachineConfig, MachineKind, PrefetchMode};
use nwcache::metrics::RunMetrics;
use nwcache::run_app;

const SCALE: f64 = 0.1;

fn clean_cell() -> MachineConfig {
    MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, SCALE)
}

fn faulted_cell() -> MachineConfig {
    // Exercise every fault path the layout refactor touches: disk
    // retries, stuck-request timeouts, mesh drops/corruption, and a
    // mid-run ring channel death (which walks the channel's whole
    // page set — the `fail_channel` iteration-order hazard).
    let mut cfg = clean_cell();
    cfg.faults.disk_error_rate = 0.05;
    cfg.faults.disk_stuck_rate = 0.01;
    cfg.faults.mesh_drop_rate = 0.02;
    cfg.faults.mesh_corrupt_rate = 0.01;
    cfg.faults.ring_channel_failures = vec![(40_000_000, 1)];
    cfg
}

/// `RunSummary::to_json()` of the clean cell, captured pre-refactor.
const GOLDEN_CLEAN: &str = include_str!("golden/clean_sor_nwcache_naive_01.json");

/// `RunSummary::to_json()` of the faulted cell, captured pre-refactor.
const GOLDEN_FAULTED: &str = include_str!("golden/faulted_sor_nwcache_naive_01.json");

#[test]
fn clean_cell_matches_pre_refactor_snapshot() {
    let m = run_app(&clean_cell(), AppId::Sor);
    assert_eq!(
        m.summary().to_json().trim(),
        GOLDEN_CLEAN.trim(),
        "clean-cell RunSummary drifted from the pre-refactor snapshot"
    );
}

#[test]
fn faulted_cell_matches_pre_refactor_snapshot() {
    let m = run_app(&faulted_cell(), AppId::Sor);
    let json = m.summary().to_json();
    assert_eq!(
        json.trim(),
        GOLDEN_FAULTED.trim(),
        "faulted-cell RunSummary drifted from the pre-refactor snapshot"
    );
    // The snapshot is only meaningful if the faults actually fired.
    assert!(m.disk_media_errors > 0, "no media errors in golden cell");
    assert!(m.ring_pages_lost > 0, "channel failure destroyed no pages");
}

/// A cell that splits page runs: a 4-entry TLB and a 50-pcycle
/// quantum, so shootdowns, TLB evictions and quantum ends fall inside
/// most runs of references to one page. Translating once per page run
/// must not move a bit of any of the suite's 14 cells.
fn translation_stress_cell(kind: MachineKind) -> MachineConfig {
    let mut cfg = MachineConfig::scaled_paper(kind, PrefetchMode::Naive, 0.05);
    cfg.tlb_entries = 4;
    cfg.quantum = 50;
    cfg
}

/// The seven apps on the standard and NWCache machines.
fn translation_stress_runs() -> Vec<RunMetrics> {
    AppId::ALL
        .into_iter()
        .flat_map(|app| {
            [MachineKind::Standard, MachineKind::NwCache]
                .map(|kind| run_app(&translation_stress_cell(kind), app))
        })
        .collect()
}

/// The 14 stress cells' summaries, recorded before translation was
/// memoized per page run.
const GOLDEN_TRANSLATION: &str = include_str!("golden/translation_stress_005.jsonl");

#[test]
fn translation_stress_cells_match_snapshot() {
    let want: Vec<&str> = GOLDEN_TRANSLATION.lines().collect();
    let runs = translation_stress_runs();
    assert_eq!(runs.len(), want.len(), "cell count");
    for (m, want) in runs.iter().zip(want) {
        assert_eq!(
            m.summary().to_json().trim(),
            want,
            "translation-stress RunSummary drifted"
        );
    }
    // The snapshot is only meaningful if shootdowns cut page runs.
    let shot = runs.iter().filter(|m| m.shootdowns > 0).count();
    assert!(shot >= 7, "only {shot} of 14 cells shot down a translation");
}

/// Regenerates the snapshot constants. Ignored by default; run with
/// `--ignored --nocapture` and paste the output into the files under
/// `tests/tests/golden/`.
#[test]
#[ignore]
fn print_golden() {
    let clean = run_app(&clean_cell(), AppId::Sor);
    println!("=== clean_sor_nwcache_naive_01.json ===");
    println!("{}", clean.summary().to_json());
    let faulted = run_app(&faulted_cell(), AppId::Sor);
    println!("=== faulted_sor_nwcache_naive_01.json ===");
    println!("{}", faulted.summary().to_json());
    println!("=== translation_stress_005.jsonl ===");
    for m in translation_stress_runs() {
        println!("{}", m.summary().to_json());
    }
}
