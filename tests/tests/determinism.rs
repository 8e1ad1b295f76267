//! Differential-determinism harness: a sweep fanned across worker
//! threads must be bit-identical to the same sweep run serially, and
//! a failing cell must stay an isolated error row at any job count.
//!
//! The parallel arm's worker count comes from `NWSIM_JOBS` (as in the
//! CI matrix): unset => 4, `0` => one worker per core.

use nw_apps::AppId;
use nwcache::config::{MachineConfig, MachineKind, PrefetchMode};
use nwcache::sweep::run_grid;
use nwcache::SimError;

const SCALE: f64 = 0.05;

fn parallel_jobs() -> usize {
    match std::env::var("NWSIM_JOBS") {
        Ok(v) => match v.parse::<usize>().expect("NWSIM_JOBS must be an integer") {
            0 => nw_sim::pool::default_jobs(),
            n => n,
        },
        Err(_) => 4,
    }
}

/// A reduced apps x machines x prefetch matrix, in the same
/// prefetch-major order as `sweep::paper_matrix`.
fn small_matrix() -> Vec<(MachineConfig, AppId)> {
    let mut grid = Vec::new();
    for prefetch in [PrefetchMode::Optimal, PrefetchMode::Naive] {
        for app in [AppId::Sor, AppId::Gauss, AppId::Fft] {
            for kind in [MachineKind::Standard, MachineKind::NwCache] {
                grid.push((MachineConfig::scaled_paper(kind, prefetch, SCALE), app));
            }
        }
    }
    grid
}

#[test]
fn parallel_sweep_is_bit_identical_to_serial() {
    let serial = run_grid(1, small_matrix());
    let parallel = run_grid(parallel_jobs(), small_matrix());
    // Full-state equality: every counter, histogram bucket, time
    // series and fault tally — not just the headline numbers.
    assert_eq!(serial, parallel, "jobs={} diverged from serial", parallel_jobs());
    assert!(serial.iter().all(|r| r.is_ok()));
}

#[test]
fn adaptive_prefetch_sweep_is_bit_identical_to_serial() {
    // The adaptive policy adds per-node detectors, a tie-breaking RNG
    // stream, and machine<->controller hint traffic; none of it may
    // depend on which worker thread runs the cell. Driven on the
    // pure-sequential scenario (where speculation is busiest) plus a
    // table app, clean and faulted.
    use nwcache::workload::AppSel;
    use std::sync::Arc;
    let grid = || -> Vec<(MachineConfig, AppSel)> {
        let seq = AppSel::Gen(Arc::new(
            nw_workload::Scenario::parse("seq,ws=256,acc=3000,wf=0.1").expect("spec"),
        ));
        let clean = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Adaptive, 0.1);
        let mut faulted = clean.clone();
        faulted.faults.disk_error_rate = 0.05;
        faulted.faults.mesh_drop_rate = 0.02;
        vec![
            (clean.clone(), seq.clone()),
            (faulted, seq),
            (
                MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Adaptive, SCALE),
                AppSel::Table(AppId::Sor),
            ),
        ]
    };
    let serial = nwcache::sweep::run_grid(1, grid());
    let parallel = nwcache::sweep::run_grid(parallel_jobs(), grid());
    assert_eq!(serial, parallel, "adaptive cells diverged at jobs={}", parallel_jobs());
    let busy = serial[0].as_ref().expect("clean seq cell");
    assert!(busy.prefetch_spec_issued > 0, "sweep must exercise speculation");
}

#[test]
fn fault_grid_is_bit_identical_too() {
    // Fault injection draws from per-run RNG streams; the schedule
    // must not depend on which worker thread runs the cell.
    let grid = || -> Vec<(MachineConfig, AppId)> {
        [0.0, 0.02, 0.05]
            .iter()
            .map(|&rate| {
                let mut cfg =
                    MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
                cfg.faults.disk_error_rate = rate;
                cfg.faults.mesh_drop_rate = rate / 2.0;
                (cfg, AppId::Sor)
            })
            .collect()
    };
    let serial = run_grid(1, grid());
    let parallel = run_grid(parallel_jobs(), grid());
    assert_eq!(serial, parallel);
    // Not a vacuous comparison: the faulted cells really fault.
    let last = serial.last().unwrap().as_ref().expect("faulted run completes");
    assert!(last.disk_media_errors > 0, "no media errors injected");
}

#[test]
fn failing_cell_stays_isolated_at_any_job_count() {
    let grid = || -> Vec<(MachineConfig, AppId)> {
        let good = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Naive, SCALE);
        let mut bad = good.clone();
        bad.faults.disk_error_rate = 7.0; // fails validation
        vec![(good.clone(), AppId::Sor), (bad, AppId::Sor), (good, AppId::Sor)]
    };
    let serial = run_grid(1, grid());
    let parallel = run_grid(parallel_jobs(), grid());
    assert_eq!(serial, parallel);
    assert!(matches!(parallel[1], Err(SimError::BadConfig(_))));
    assert!(parallel[0].is_ok() && parallel[2].is_ok());
    assert_eq!(parallel[0], parallel[2]);
}

#[test]
fn panicking_worker_becomes_an_error_not_a_crash() {
    // A panic inside one worker must surface as that cell's error
    // while sibling simulations complete normally. Driven through the
    // pool directly, since no valid `MachineConfig` panics.
    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    let direct = nwcache::run_app(&cfg, AppId::Sor);
    let tasks: Vec<Box<dyn FnOnce() -> nwcache::RunMetrics + Send>> = vec![
        Box::new({
            let cfg = cfg.clone();
            move || nwcache::run_app(&cfg, AppId::Sor)
        }),
        Box::new(|| panic!("injected worker failure")),
        Box::new({
            let cfg = cfg.clone();
            move || nwcache::run_app(&cfg, AppId::Sor)
        }),
    ];
    // Silence the expected panic's backtrace spew, as the pool's own
    // unit tests do.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let results = nw_sim::pool::run(parallel_jobs(), tasks);
    std::panic::set_hook(hook);
    assert_eq!(results.len(), 3);
    assert_eq!(results[0].as_ref().unwrap(), &direct);
    assert_eq!(results[2].as_ref().unwrap(), &direct);
    let err = results[1].as_ref().unwrap_err();
    assert_eq!(err.index, 1);
    assert!(err.message.contains("injected worker failure"), "got: {}", err.message);
}
