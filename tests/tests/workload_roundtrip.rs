//! Round-trip property tests for the workload engine.
//!
//! The engine's contract is that representation never changes
//! behavior: a scenario materialized directly, the same scenario
//! round-tripped through the `nwtrace-v1` text encoding, and the same
//! scenario round-tripped through the binary encoding must all replay
//! to a bit-identical `RunMetrics` — across seeds and under an active
//! fault plan. Likewise a recorded paper app must replay exactly as
//! the original, and a mixed selection grid must stay deterministic
//! at any worker count (the parallel arm's worker count comes from
//! `NWSIM_JOBS`, as in the CI matrix: unset => 4, `0` => per core).

use nw_apps::AppId;
use nw_workload::{Scenario, Trace};
use nwcache::config::{MachineConfig, MachineKind, PrefetchMode};
use nwcache::sweep::run_grid;
use nwcache::workload::{record, try_run_sel, AppSel};
use std::sync::Arc;

const SCALE: f64 = 0.05;

/// A two-phase scenario exercising every generator feature: Zipf and
/// sequential patterns, both read- and write-heavy mixes, burst/idle
/// arrival, and multi-barrier phases.
const SPEC: &str =
    "zipf:1.0,ws=96,acc=1500,wf=0.5,bar=2;seq:2,ws=64,acc=800,wf=0.8,burst=64:20000";

fn cfg(seed: u64) -> MachineConfig {
    let mut c = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    c.seed = seed;
    c
}

fn faulted(seed: u64) -> MachineConfig {
    let mut c = cfg(seed);
    c.faults.disk_error_rate = 0.05;
    c.faults.disk_stuck_rate = 0.01;
    c.faults.mesh_drop_rate = 0.02;
    c.faults.mesh_corrupt_rate = 0.01;
    c
}

fn parallel_jobs() -> usize {
    match std::env::var("NWSIM_JOBS") {
        Ok(v) => match v.parse::<usize>().expect("NWSIM_JOBS must be an integer") {
            0 => nw_sim::pool::default_jobs(),
            n => n,
        },
        Err(_) => 4,
    }
}

/// Decode(encode(trace)) through both codecs, asserting losslessness
/// of the representations themselves before any simulation.
fn both_codecs(trace: &mut Trace) -> (Trace, Trace) {
    let text = Trace::decode(trace.encode_text().as_bytes()).expect("text decode");
    let bin = Trace::decode(&trace.encode_binary()).expect("binary decode");
    assert_eq!(&text, trace, "text codec is lossy");
    assert_eq!(&bin, trace, "binary codec is lossy");
    (text, bin)
}

#[test]
fn generated_replay_is_bit_identical_across_seeds() {
    let sc = Scenario::parse(SPEC).expect("spec");
    for seed in [1u64, 2, 3] {
        let c = cfg(seed);
        let direct = try_run_sel(&c, &AppSel::Gen(Arc::new(sc.clone()))).expect("direct");
        let mut trace = sc.to_trace(c.nodes as usize, c.seed);
        let (text, bin) = both_codecs(&mut trace);
        let via_text = try_run_sel(&c, &AppSel::Replay(Arc::new(text))).expect("text replay");
        let via_bin = try_run_sel(&c, &AppSel::Replay(Arc::new(bin))).expect("binary replay");
        // Full-state equality: every counter, histogram bucket, and
        // fault tally — not just the headline numbers.
        assert_eq!(direct, via_text, "seed {seed}: text round-trip diverged");
        assert_eq!(direct, via_bin, "seed {seed}: binary round-trip diverged");
    }
}

#[test]
fn generated_replay_survives_a_fault_plan() {
    let sc = Scenario::parse(SPEC).expect("spec");
    let c = faulted(11);
    let direct = try_run_sel(&c, &AppSel::Gen(Arc::new(sc.clone()))).expect("direct");
    // Faults actually fired, so the equality below is meaningful.
    assert!(
        direct.disk_media_errors > 0 || direct.mesh_dropped > 0,
        "fault plan was a no-op"
    );
    let mut trace = sc.to_trace(c.nodes as usize, c.seed);
    let (text, bin) = both_codecs(&mut trace);
    let via_text = try_run_sel(&c, &AppSel::Replay(Arc::new(text))).expect("text replay");
    let via_bin = try_run_sel(&c, &AppSel::Replay(Arc::new(bin))).expect("binary replay");
    assert_eq!(direct, via_text, "faulted text round-trip diverged");
    assert_eq!(direct, via_bin, "faulted binary round-trip diverged");
}

#[test]
fn recorded_paper_apps_replay_exactly() {
    for app in [AppId::Gauss, AppId::Mg] {
        let c = cfg(0x1999);
        let direct = nwcache::try_run_app(&c, app).expect("direct run");
        let mut trace = record(&c, &AppSel::Table(app)).expect("record");
        assert_eq!(trace.name, app.name());
        let (text, bin) = both_codecs(&mut trace);
        let via_text = try_run_sel(&c, &AppSel::Replay(Arc::new(text))).expect("text replay");
        let via_bin = try_run_sel(&c, &AppSel::Replay(Arc::new(bin))).expect("binary replay");
        assert_eq!(direct, via_text, "{}: text replay diverged", app.name());
        assert_eq!(direct, via_bin, "{}: binary replay diverged", app.name());
    }
}

#[test]
fn mixed_selection_grid_is_deterministic_at_any_job_count() {
    let sc = Arc::new(Scenario::parse(SPEC).expect("spec"));
    let trace = Arc::new(sc.to_trace(8, 1));
    let grid = || -> Vec<(MachineConfig, AppSel)> {
        vec![
            (cfg(1), AppSel::Table(AppId::Sor)),
            (cfg(1), AppSel::Gen(sc.clone())),
            (cfg(1), AppSel::Replay(trace.clone())),
            (faulted(1), AppSel::Gen(sc.clone())),
            (cfg(2), AppSel::Gen(sc.clone())),
        ]
    };
    let serial = run_grid(1, grid());
    let parallel = run_grid(parallel_jobs(), grid());
    assert_eq!(serial, parallel, "jobs={} diverged from serial", parallel_jobs());
    assert!(serial.iter().all(|r| r.is_ok()));
    // The Gen cell and the Replay cell of the same scenario+seed are
    // the same workload by construction.
    assert_eq!(serial[1], serial[2], "gen and replay of one scenario diverged");
}

#[test]
fn workload_validation_rejects_bad_dials_at_the_run_boundary() {
    // Satellite: Result-based validation of the new workload fields,
    // observed end-to-end as `SimError::BadConfig` rows rather than
    // panics.
    for bad in [
        "workload:gen:uniform,wf=1.5",   // write fraction out of [0,1]
        "workload:gen:uniform,wf=-0.1",  // negative write fraction
        "workload:gen:seq,ws=0",         // zero-page working set
        "workload:gen:zipf:-2,ws=16",    // negative skew
    ] {
        let sel = AppSel::parse(bad).expect("parses; rejected at validation");
        let err = try_run_sel(&cfg(1), &sel).expect_err(bad);
        assert!(
            matches!(err, nwcache::SimError::BadConfig(_)),
            "{bad}: wrong error {err}"
        );
    }
    // Malformed grammar and empty phase lists are rejected at parse.
    assert!(AppSel::parse("workload:gen:").is_err());
    assert!(AppSel::parse("workload:gen:lru,ws=4").is_err());
    // Unknown plain names list the registry and the workload syntax.
    let err = AppSel::parse("guass").expect_err("typo must not resolve");
    let msg = err.to_string();
    assert!(msg.contains("gauss") && msg.contains("workload:gen:<spec>"), "{msg}");
}
