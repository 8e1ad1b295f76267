//! Checkpoints under concurrency, and warm-start equivalence.
//!
//! The `nwsim serve` server saves and loads checkpoints from many
//! job threads at once (warm-cache inserts, drain autosaves), so the
//! atomic temp + rename writer must hold up under contention: saves
//! to distinct paths in a shared directory never interfere, and
//! racing saves to the *same* path always leave one writer's complete
//! file — never an interleaving. On top of that, the warm-state cache
//! is only sound if a warm-started run is bit-identical to a cold one
//! on every cell, including faulted ones, which is pinned here
//! end-to-end.

use nw_server::cache::{warm_start, WarmStart};
use nw_server::WarmCache;
use nwcache::checkpoint;
use nwcache::config::RunParams;
use nwcache::workload::AppSel;
use nwcache::{try_run_sel, Machine, MachineConfig, RunOutcome};
use std::path::PathBuf;
use std::thread;

const SPEC: &str = "workload:gen:zipf:0.9,ws=48,acc=1500";

fn scratch_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nwckpt-conc-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn cfg() -> MachineConfig {
    RunParams::default().to_config().unwrap()
}

/// A machine paused `events` dispatched events into SPEC.
fn machine_at(cfg: &MachineConfig, events: u64) -> Machine {
    let sel = AppSel::parse(SPEC).unwrap();
    let build = sel.build(cfg).unwrap();
    let mut m = Machine::try_from_build(cfg.clone(), build).unwrap();
    match m.try_run_events(events).unwrap() {
        RunOutcome::Paused => m,
        RunOutcome::Done(_) => panic!("workload finished inside {events} events"),
    }
}

#[test]
fn concurrent_saves_to_distinct_paths_round_trip_exactly() {
    let dir = scratch_dir("distinct");
    let reference = machine_at(&cfg(), 400).checkpoint(SPEC);
    let workers: Vec<_> = (0..8)
        .map(|w| {
            let dir = dir.clone();
            let reference = reference.clone();
            thread::spawn(move || {
                // All threads churn temp files in the same directory.
                let path = dir.join(format!("worker-{w}.nwckpt"));
                for _ in 0..5 {
                    let mut m = machine_at(&cfg(), 400);
                    checkpoint::save_file(&path, SPEC, &mut m).unwrap();
                    let (meta, mut loaded) = checkpoint::load_file(&path).unwrap();
                    assert_eq!(meta.spec, SPEC);
                    assert_eq!(meta.events, 400);
                    // The loaded machine re-checkpoints to the exact
                    // bytes every other thread is writing.
                    assert_eq!(loaded.checkpoint(SPEC), reference, "worker {w}");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_saves_to_one_path_never_leave_a_torn_file() {
    let dir = scratch_dir("same-path");
    let path = dir.join("contended.nwckpt");
    // Two distinct machine states → two distinct valid byte images.
    let images: Vec<Vec<u8>> = [300u64, 900]
        .iter()
        .map(|&e| machine_at(&cfg(), e).checkpoint(SPEC))
        .collect();
    let workers: Vec<_> = [300u64, 900]
        .into_iter()
        .map(|events| {
            let path = path.clone();
            thread::spawn(move || {
                let mut m = machine_at(&cfg(), events);
                for _ in 0..10 {
                    checkpoint::save_file(&path, SPEC, &mut m).unwrap();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    // Whichever save landed last, the file is complete and valid —
    // byte-equal to one of the two images, never a mixture.
    checkpoint::validate_file(&path).expect("contended file must stay valid");
    let on_disk = std::fs::read(&path).unwrap();
    assert!(
        images.iter().any(|img| img == &on_disk),
        "file matches neither writer's checkpoint image"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Warm-started runs must be bit-identical to cold ones on clean and
/// faulted cells alike — faulted cells are the hard case, because the
/// fault RNG streams live in checkpointed state.
#[test]
fn warm_start_equals_cold_on_clean_and_faulted_cells() {
    let clean = cfg();
    let mut faulted = cfg();
    faulted.faults.disk_error_rate = 0.05;
    faulted.faults.disk_stuck_rate = 0.02;
    faulted.faults.mesh_drop_rate = 0.02;
    for (name, cell) in [("clean", clean), ("faulted", faulted)] {
        let sel = AppSel::parse(SPEC).unwrap();
        let cold = try_run_sel(&cell, &sel).unwrap().summary().to_json();
        let cache = WarmCache::new(None, 4);
        for pass in ["miss", "hit"] {
            let mut m = match warm_start(&cache, &cell, SPEC, 500, false).unwrap() {
                WarmStart::Ready { machine, hit } => {
                    assert_eq!(hit, pass == "hit", "{name}: unexpected cache state");
                    machine
                }
                WarmStart::Finished(_) => panic!("{name}: run ended inside warmup"),
            };
            let warm = match m.try_run_events(u64::MAX).unwrap() {
                RunOutcome::Done(metrics) => metrics.summary().to_json(),
                RunOutcome::Paused => panic!("unbounded run paused"),
            };
            assert_eq!(warm, cold, "{name}/{pass}: warm summary diverged from cold");
        }
        // Paranoid verification agrees: the cached checkpoint is
        // bit-identical to a fresh cold warmup.
        assert!(matches!(
            warm_start(&cache, &cell, SPEC, 500, true),
            Ok(WarmStart::Ready { hit: true, .. })
        ));
    }
}
