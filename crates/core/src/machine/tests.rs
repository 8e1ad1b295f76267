//! Unit tests for the machine model: protocol liveness, metric
//! plausibility and standard-vs-NWCache behaviour on small inputs.

use super::*;
use crate::config::{MachineConfig, MachineKind, PrefetchMode};
use nw_apps::AppId;

const SCALE: f64 = 0.08;

fn run(kind: MachineKind, prefetch: PrefetchMode, app: AppId) -> crate::RunMetrics {
    let cfg = MachineConfig::scaled_paper(kind, prefetch, SCALE);
    crate::run_app(&cfg, app)
}

#[test]
fn every_app_completes_on_every_machine() {
    for app in AppId::ALL {
        for kind in [MachineKind::Standard, MachineKind::NwCache] {
            for pf in [PrefetchMode::Optimal, PrefetchMode::Naive] {
                let m = run(kind, pf, app);
                assert!(m.exec_time > 0, "{app:?} {kind:?} {pf:?}");
                assert_eq!(m.breakdown.len(), 8);
            }
        }
    }
}

#[test]
fn runs_are_deterministic() {
    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    let a = crate::run_app(&cfg, AppId::Sor);
    let b = crate::run_app(&cfg, AppId::Sor);
    assert_eq!(a.exec_time, b.exec_time);
    assert_eq!(a.page_faults, b.page_faults);
    assert_eq!(a.swap_outs, b.swap_outs);
    assert_eq!(a.mesh_bytes, b.mesh_bytes);
    assert_eq!(a.ring_hits, b.ring_hits);
}

#[test]
fn out_of_core_apps_swap() {
    // The scaled configuration keeps data larger than memory, so dirty
    // pages must be swapped out.
    for app in [AppId::Sor, AppId::Gauss, AppId::Radix] {
        let m = run(MachineKind::Standard, PrefetchMode::Naive, app);
        assert!(m.swap_outs > 0, "{app:?} never swapped");
        assert!(m.page_faults > 100, "{app:?} faulted only {}", m.page_faults);
    }
}

#[test]
fn nwcache_swap_outs_are_much_faster() {
    // Paper Tables 3/4: one to three orders of magnitude.
    for pf in [PrefetchMode::Optimal, PrefetchMode::Naive] {
        let std = run(MachineKind::Standard, pf, AppId::Sor);
        let nwc = run(MachineKind::NwCache, pf, AppId::Sor);
        assert!(
            nwc.swap_out_time.mean() * 5.0 < std.swap_out_time.mean(),
            "{pf:?}: nwc {} vs std {}",
            nwc.swap_out_time.mean(),
            std.swap_out_time.mean()
        );
    }
}

#[test]
fn nwcache_never_beaten_badly_overall() {
    // Paper: NWCache wins almost everywhere (FFT/naive may lose a few
    // percent). Check it is never more than 10% slower.
    for app in [AppId::Sor, AppId::Mg] {
        for pf in [PrefetchMode::Optimal, PrefetchMode::Naive] {
            let std = run(MachineKind::Standard, pf, app);
            let nwc = run(MachineKind::NwCache, pf, app);
            let imp = nwc.improvement_over(&std);
            assert!(imp > -10.0, "{app:?} {pf:?}: improvement {imp:.1}%");
        }
    }
}

#[test]
fn ring_hits_only_on_nwcache_machine() {
    let std = run(MachineKind::Standard, PrefetchMode::Optimal, AppId::Gauss);
    assert_eq!(std.ring_hits, 0);
    let nwc = run(MachineKind::NwCache, PrefetchMode::Optimal, AppId::Gauss);
    assert!(nwc.ring_hits > 0, "gauss should hit the victim cache");
}

#[test]
fn swap_traffic_leaves_the_mesh_with_nwcache() {
    // Swap-outs cross the mesh on the standard machine but use the
    // ring on the NWCache machine, so per-swap mesh bytes must drop.
    let std = run(MachineKind::Standard, PrefetchMode::Optimal, AppId::Sor);
    let nwc = run(MachineKind::NwCache, PrefetchMode::Optimal, AppId::Sor);
    assert!(std.swap_outs > 0 && nwc.swap_outs > 0);
    let std_per_fault = std.mesh_bytes as f64 / std.page_faults.max(1) as f64;
    let nwc_per_fault = nwc.mesh_bytes as f64 / nwc.page_faults.max(1) as f64;
    assert!(
        nwc_per_fault < std_per_fault,
        "nwc {nwc_per_fault:.0} B/fault vs std {std_per_fault:.0}"
    );
}

#[test]
fn breakdown_accounts_for_execution_time() {
    // Each processor's category sum must be close to its local time
    // (within the shootdown-shift tolerance).
    let cfg = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Naive, SCALE);
    let mut machine = Machine::new(cfg, AppId::Sor);
    let m = machine.run();
    for (i, b) in m.breakdown.iter().enumerate() {
        let total = b.total();
        let local = machine.procs[i].local_time;
        let diff = total.abs_diff(local);
        assert!(
            diff as f64 <= 0.02 * local as f64 + 1000.0,
            "proc {i}: breakdown {total} vs local {local}"
        );
    }
}

#[test]
fn shootdowns_happen_when_pages_are_replaced() {
    let m = run(MachineKind::Standard, PrefetchMode::Naive, AppId::Gauss);
    assert!(m.shootdowns > 0);
}

#[test]
fn fault_latency_tallies_cover_all_faults() {
    let m = run(MachineKind::NwCache, PrefetchMode::Naive, AppId::Sor);
    let tallied = m.fault_latency_disk_hit.count()
        + m.fault_latency_disk_miss.count()
        + m.fault_latency_ring.count();
    assert_eq!(tallied, m.page_faults);
    assert_eq!(m.ring_hits, m.fault_latency_ring.count());
}

#[test]
fn optimal_prefetching_removes_disk_miss_faults() {
    let m = run(MachineKind::Standard, PrefetchMode::Optimal, AppId::Sor);
    assert_eq!(
        m.fault_latency_disk_miss.count(),
        0,
        "optimal prefetching must serve all reads from the cache"
    );
}

#[test]
fn naive_prefetching_has_both_hits_and_misses() {
    let m = run(MachineKind::Standard, PrefetchMode::Naive, AppId::Sor);
    assert!(m.fault_latency_disk_miss.count() > 0);
    assert!(m.fault_latency_disk_hit.count() > 0);
}

#[test]
fn ring_is_bounded_by_capacity() {
    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Optimal, SCALE);
    let cap = cfg.nodes as usize * cfg.ring_slots_per_channel;
    let mut machine = Machine::new(cfg, AppId::Gauss);
    let m = machine.run();
    assert!(
        m.ring_peak_pages <= cap,
        "peak {} beyond capacity {cap}",
        m.ring_peak_pages
    );
}

#[test]
fn frame_accounting_conserved_at_end() {
    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    let mut machine = Machine::new(cfg, AppId::Sor);
    machine.run();
    for node in 0..machine.nprocs() as u32 {
        let fp = &machine.frames[node as usize];
        assert!(fp.free() + fp.resident().len() as u32 <= fp.total());
        machine.check_frame_invariant(node);
    }
}

#[test]
fn larger_disk_cache_helps_standard_machine() {
    let mut small = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Optimal, SCALE);
    small.disk_cache_pages = 4;
    let mut big = small.clone();
    big.disk_cache_pages = 64;
    let m_small = crate::run_app(&small, AppId::Sor);
    let m_big = crate::run_app(&big, AppId::Sor);
    assert!(
        m_big.exec_time < m_small.exec_time,
        "big cache {} vs small {}",
        m_big.exec_time,
        m_small.exec_time
    );
}

#[test]
fn exec_time_is_max_of_processors() {
    let cfg = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Naive, SCALE);
    let mut machine = Machine::new(cfg, AppId::Mg);
    let m = machine.run();
    let max_local = machine.procs.iter().map(|p| p.local_time).max().unwrap();
    assert_eq!(m.exec_time, max_local);
}

/// Queue entries and flush-check multiplicities of everything pending,
/// in delivery order: `(time, disk, checks)` for flush-check runs and
/// `(time, u32::MAX, 1)` for any other event.
fn pending(m: &Machine) -> Vec<(u64, u32, u32)> {
    m.queue
        .pending()
        .into_iter()
        .map(|(at, _, ev)| match *ev {
            Event::FlushCheck { disk, checks } => (at, disk, checks),
            _ => (at, u32::MAX, 1),
        })
        .collect()
}

#[test]
fn flush_checks_merge_only_when_scheduled_back_to_back() {
    let cfg = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Naive, SCALE);
    let mut m = Machine::new(cfg, AppId::Sor);
    // Same disk, same time, adjacent sequence numbers: one entry.
    m.schedule_flush_check(100, 0);
    m.schedule_flush_check(100, 0);
    m.schedule_flush_check(100, 0);
    // Another disk or another time opens a new run.
    m.schedule_flush_check(100, 1);
    m.schedule_flush_check(200, 1);
    m.schedule_flush_check(200, 1);
    // Any other event scheduled in between ends the run.
    m.queue.schedule_at(200, Event::NackRecheck { disk: 1 });
    m.schedule_flush_check(200, 1);
    m.schedule_flush_check(200, 0);
    let other = (200, u32::MAX, 1);
    assert_eq!(
        pending(&m),
        vec![(100, 0, 3), (100, 1, 1), (200, 1, 2), other, (200, 1, 1), (200, 0, 1)]
    );

    // A delivered run cannot grow, even with nothing scheduled since:
    // a check at the same time takes a fresh entry behind it.
    let mut m = Machine::new(m.cfg.clone(), AppId::Sor);
    m.schedule_flush_check(50, 2);
    m.schedule_flush_check(50, 2);
    let Some((50, Event::FlushCheck { disk: 2, checks })) = m.queue.pop() else {
        panic!("expected the run at t=50");
    };
    // The queue's delivered count is the machine's one event count.
    assert_eq!(m.events_dispatched(), 1);
    m.on_flush_run(2, checks);
    m.schedule_flush_check(50, 2);
    assert_eq!(pending(&m), vec![(50, 2, 1)]);
}

#[test]
fn a_run_against_a_busy_arm_repolls_as_one_entry() {
    use super::io::MAX_FLUSH_RUN;
    let cfg = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Naive, SCALE);
    // Disk 0's arm busy with a read, and a dirty page to flush: a
    // check at t=10 re-polls at `free_at`. With `tail` checks already
    // pending there, the run's `k` checks join them up to the cap.
    let deliver = |k: u32, tail: u32, dirty: bool| {
        let mut m = Machine::new(cfg.clone(), AppId::Sor);
        m.disks[0].read_page(0, 0, 0);
        if dirty {
            m.disks[0].write_page(0, 1, 1, 0);
        }
        let free_at = m.disks[0].arm_free_at(10);
        assert!(free_at > 10);
        m.schedule_flush_checks(10, 0, k);
        m.schedule_flush_checks(free_at, 0, tail);
        let Some((10, Event::FlushCheck { disk: 0, checks })) = m.queue.pop() else {
            panic!("expected the run at t=10");
        };
        m.on_flush_run(0, checks);
        (free_at, pending(&m))
    };
    for k in [1, 2, 7, MAX_FLUSH_RUN] {
        let (free_at, left) = deliver(k, 0, true);
        assert_eq!(left, vec![(free_at, 0, k)], "{k} checks");
        // Nothing dirty: every check drops.
        assert_eq!(deliver(k, 0, false).1, vec![], "{k} checks");
    }
    let (free_at, left) = deliver(MAX_FLUSH_RUN, 5, true);
    assert_eq!(left, vec![(free_at, 0, MAX_FLUSH_RUN), (free_at, 0, 5)]);
    let (free_at, left) = deliver(3, MAX_FLUSH_RUN - 1, true);
    assert_eq!(left, vec![(free_at, 0, MAX_FLUSH_RUN), (free_at, 0, 2)]);

    // Scheduling `k` checks in one step leaves what `k` single calls do.
    for (tail, k) in [(0, 3), (1, MAX_FLUSH_RUN), (MAX_FLUSH_RUN - 2, 5), (MAX_FLUSH_RUN, 1)] {
        let mut one = Machine::new(cfg.clone(), AppId::Sor);
        let mut many = Machine::new(cfg.clone(), AppId::Sor);
        for m in [&mut one, &mut many] {
            m.schedule_flush_checks(40, 1, tail);
        }
        (0..k).for_each(|_| one.schedule_flush_check(40, 1));
        many.schedule_flush_checks(40, 1, k);
        assert_eq!(pending(&one), pending(&many), "{tail} then {k}");
    }
}

/// The flush-check storm cell: radix on the standard machine with
/// windowed prefetching, where swap-outs crowd the 4-slot controller
/// cache and every admitted write polls the busy disk arm.
const STORM_SCALE: f64 = 0.08;
/// Queue entries the storm cell dispatches with flush-check runs.
const STORM_EVENTS: u64 = 38_805;
/// Events it dispatched when every flush check was its own entry —
/// the number of handler invocations, which merging must preserve.
const STORM_CHECKS: u64 = 56_673;

fn storm_machine() -> Machine {
    let cfg = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Window, STORM_SCALE);
    let build = crate::AppSel::parse("radix").unwrap().build(&cfg).unwrap();
    Machine::try_from_build(cfg, build).unwrap()
}

fn storm_finish(mut m: Machine) -> String {
    match m.try_run_events(u64::MAX).unwrap() {
        RunOutcome::Done(r) => r.summary().to_json(),
        RunOutcome::Paused => unreachable!("unbounded run cannot pause"),
    }
}

/// True when the most recently scheduled pending entry is a run of
/// more than one check — a run the next flush check could still join.
fn growable_run_pending(m: &mut Machine) -> bool {
    matches!(m.queue.last_mut(), Some((_, &mut Event::FlushCheck { checks, .. })) if checks > 1)
}

#[test]
fn storm_cell_merges_checks_into_runs_without_losing_any() {
    let mut m = storm_machine();
    let mut checks = 0u64;
    let mut longest = 0;
    loop {
        if let Some((_, &Event::FlushCheck { checks: k, .. })) = m.queue.peek() {
            longest = longest.max(k);
            checks += k as u64;
        } else {
            checks += 1;
        }
        if let RunOutcome::Done(_) = m.try_run_events(1).unwrap() {
            break;
        }
    }
    assert_eq!(m.events_dispatched(), STORM_EVENTS, "queue entries");
    assert_eq!(checks, STORM_CHECKS, "flush checks lost or invented");
    assert!(longest > 1, "no flush-check run formed");
}

fn storm_pause_at(m: &mut Machine, mark: u64) {
    let budget = mark - m.events_dispatched();
    assert!(matches!(m.try_run_events(budget).unwrap(), RunOutcome::Paused));
}

#[test]
fn storm_cell_checkpoints_restore_and_resave_identically() {
    use crate::checkpoint::{machine_from_bytes, machine_to_bytes};
    // Marks spread over the run, plus the first point past a third of
    // it where a run of several checks is pending and can still grow.
    let mut m = storm_machine();
    storm_pause_at(&mut m, STORM_EVENTS / 3);
    while !growable_run_pending(&mut m) {
        let next = m.events_dispatched() + 1;
        storm_pause_at(&mut m, next);
    }
    let mut marks = vec![STORM_EVENTS / 5, STORM_EVENTS / 2, STORM_EVENTS * 4 / 5];
    marks.push(m.events_dispatched());
    marks.sort_unstable();
    marks.dedup();

    let mut m = storm_machine();
    let mut snaps = Vec::new();
    for &mark in &marks {
        storm_pause_at(&mut m, mark);
        snaps.push(machine_to_bytes("radix", &mut m));
    }
    let reference = storm_finish(m);

    for (i, snap) in snaps.iter().enumerate() {
        let (_, mut r) = machine_from_bytes(snap).unwrap();
        assert_eq!(machine_to_bytes("radix", &mut r), *snap, "resave at {}", marks[i]);
        // A restored run merges exactly where the uninterrupted one
        // did, so every later checkpoint lands on the same bytes.
        for j in i + 1..marks.len() {
            storm_pause_at(&mut r, marks[j]);
            assert_eq!(
                machine_to_bytes("radix", &mut r),
                snaps[j],
                "restored at {}, saved at {}",
                marks[i],
                marks[j]
            );
        }
        assert_eq!(storm_finish(r), reference, "restored at {}", marks[i]);
    }
}
