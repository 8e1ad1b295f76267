//! Directed tests: hand-built action streams drive specific paths of
//! the memory hierarchy and VM system, with analytically checkable
//! timing. Unlike the application-level tests these pin *individual*
//! mechanisms (TLB costs, cache hits, write retirement, barrier skew,
//! transit waits).

#![cfg(test)]

use super::Machine;
use crate::config::{MachineConfig, MachineKind, PrefetchMode};
use nw_apps::{Action, AppBuild};

/// Build a machine with one stream per node from explicit action
/// vectors. Footprint must cover all touched lines.
fn machine_with(cfg: MachineConfig, data_bytes: u64, streams: Vec<Vec<Action>>) -> Machine {
    Machine::from_build(cfg, AppBuild::from_actions("directed", data_bytes, streams))
}

fn one_node_cfg() -> MachineConfig {
    let mut cfg = MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Optimal);
    cfg.nodes = 1;
    cfg.io_nodes = 1;
    cfg
}

fn idle_streams(n: usize) -> Vec<Vec<Action>> {
    (0..n).map(|_| Vec::new()).collect()
}

#[test]
fn pure_compute_costs_exactly_its_cycles() {
    let cfg = one_node_cfg();
    let mut m = machine_with(cfg, 4096, vec![vec![Action::Compute(12_345)]]);
    let r = m.run();
    assert_eq!(r.exec_time, 12_345);
    assert_eq!(r.breakdown[0].other, 12_345);
    assert_eq!(r.page_faults, 0);
}

#[test]
fn first_touch_faults_then_hits() {
    let cfg = one_node_cfg();
    // Two reads of the same line: one fault + one TLB-visible hit.
    let mut m = machine_with(
        cfg,
        4096,
        vec![vec![Action::Read(0), Action::Read(0), Action::Read(0)]],
    );
    let r = m.run();
    assert_eq!(r.page_faults, 1);
    // After the fault retry: miss into L2/memory, then L1 hits.
    assert!(r.breakdown[0].fault > 0);
    let b = &r.breakdown[0];
    assert!(b.tlb >= 100, "TLB miss cost missing: {}", b.tlb);
}

#[test]
fn l1_hits_cost_one_cycle() {
    let cfg = one_node_cfg();
    // 1000 repeat reads after warm-up: ~1 cycle each.
    let mut actions = vec![Action::Read(0)];
    actions.extend(std::iter::repeat_n(Action::Read(0), 1000));
    let mut m = machine_with(cfg.clone(), 4096, vec![actions]);
    let r = m.run();
    let warm = {
        let mut m2 = machine_with(cfg, 4096, vec![vec![Action::Read(0)]]);
        m2.run().exec_time
    };
    let per_hit = (r.exec_time - warm) as f64 / 1000.0;
    assert!(
        (0.9..2.0).contains(&per_hit),
        "L1 hit costs {per_hit:.2} cycles"
    );
}

#[test]
fn writes_are_cheaper_than_reads_on_miss() {
    // Release consistency: write misses retire at L1 latency.
    let cfg = one_node_cfg();
    let lines: Vec<u64> = (0..64).collect(); // one resident page
    let warm: Vec<Action> = lines.iter().map(|&l| Action::Read(l)).collect();

    // Cold L2: read every line of a second page vs write every line.
    let read_run = {
        let mut acts = warm.clone();
        acts.extend((64..128).map(Action::Read));
        let mut m = machine_with(one_node_cfg(), 8192, vec![acts]);
        m.run()
    };
    let write_run = {
        let mut acts = warm;
        acts.extend((64..128).map(Action::Write));
        let mut m = machine_with(cfg, 8192, vec![acts]);
        m.run()
    };
    assert!(
        write_run.exec_time < read_run.exec_time,
        "writes {} !< reads {}",
        write_run.exec_time,
        read_run.exec_time
    );
}

#[test]
fn barrier_waits_charge_other() {
    let mut cfg = MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Optimal);
    cfg.nodes = 2;
    cfg.io_nodes = 1;
    // Proc 0 computes 100K cycles; proc 1 arrives at the barrier
    // immediately and waits.
    let mut m = machine_with(
        cfg,
        4096,
        vec![
            vec![Action::Compute(100_000), Action::Barrier(0)],
            vec![Action::Barrier(0)],
        ],
    );
    let r = m.run();
    assert_eq!(r.exec_time, 100_000);
    // Proc 1's wait lands in Other (sync time).
    assert!(
        r.breakdown[1].other >= 99_000,
        "barrier wait not charged: {:?}",
        r.breakdown[1]
    );
}

#[test]
fn transit_wait_charged_to_second_faulter() {
    let mut cfg = MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Naive);
    cfg.nodes = 2;
    cfg.io_nodes = 1;
    // Both procs read the same cold page at once: one faults, the
    // other waits in Transit.
    let mut m = machine_with(
        cfg,
        4096,
        vec![vec![Action::Read(0)], vec![Action::Read(1)]],
    );
    let r = m.run();
    assert_eq!(r.page_faults, 1, "same page must fault once");
    let transit_total: u64 = r.breakdown.iter().map(|b| b.transit).sum();
    let fault_total: u64 = r.breakdown.iter().map(|b| b.fault).sum();
    assert!(fault_total > 0);
    assert!(
        transit_total > 0,
        "second reader should wait in Transit: {:?}",
        r.breakdown
    );
}

#[test]
fn remote_read_costs_more_than_local() {
    let mut cfg = MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Optimal);
    cfg.nodes = 2;
    cfg.io_nodes = 1;
    // Proc 0 faults the page in (it becomes node 0's). After a
    // barrier, proc 1 reads a line of it remotely; proc 0 reads
    // another line locally. Lines are distinct to avoid coherence
    // effects; both are L2 misses.
    let local = {
        let mut m = machine_with(
            cfg.clone(),
            4096,
            vec![
                vec![
                    Action::Read(0),
                    Action::Barrier(0),
                    Action::Compute(10),
                    Action::Read(1),
                ],
                vec![Action::Barrier(0)],
            ],
        );
        let r = m.run();
        r.breakdown[0].other
    };
    let remote = {
        let mut m = machine_with(
            cfg,
            4096,
            vec![
                vec![Action::Read(0), Action::Barrier(0)],
                vec![Action::Barrier(0), Action::Compute(10), Action::Read(2)],
            ],
        );
        let r = m.run();
        r.breakdown[1].other
    };
    assert!(
        remote > local,
        "remote read ({remote}) should cost more than local ({local})"
    );
}

#[test]
fn eviction_fires_shootdown_on_sharers() {
    // Small memory: proc 0 streams enough pages to evict the shared
    // one; proc 1 holds its translation and gets interrupted.
    let mut cfg = MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Optimal);
    cfg.nodes = 2;
    cfg.io_nodes = 1;
    cfg.memory_per_node = 8 * 4096; // 8 frames
    cfg.min_free_frames = 2;
    let stream0: Vec<Action> = (0..32)
        .map(|p| Action::Read(p * 64))
        .chain(std::iter::once(Action::Barrier(0)))
        .collect();
    let stream1 = vec![Action::Read(0), Action::Barrier(0)];
    let mut m = machine_with(cfg, 32 * 4096, vec![stream0, stream1]);
    let r = m.run();
    assert!(r.shootdowns > 0, "streaming must evict and shoot down");
}

#[test]
fn dirty_eviction_swaps_clean_eviction_does_not() {
    let mut cfg = one_node_cfg();
    cfg.memory_per_node = 8 * 4096;
    cfg.min_free_frames = 2;
    cfg.prefetch = PrefetchMode::Optimal;
    // Stream 32 pages read-only: no swap-outs.
    let reads: Vec<Action> = (0..32).map(|p| Action::Read(p * 64)).collect();
    let mut m = machine_with(cfg.clone(), 32 * 4096, vec![reads]);
    let r = m.run();
    assert_eq!(r.swap_outs, 0, "clean pages must not swap");
    // Stream 32 pages written: swap-outs happen.
    let writes: Vec<Action> = (0..32).map(|p| Action::Write(p * 64)).collect();
    let mut m = machine_with(cfg, 32 * 4096, vec![writes]);
    let r = m.run();
    assert!(r.swap_outs > 0, "dirty pages must swap");
}

#[test]
fn dcd_machine_logs_swapped_pages() {
    let mut cfg = one_node_cfg();
    cfg.kind = crate::config::MachineKind::Dcd;
    cfg.memory_per_node = 8 * 4096;
    cfg.min_free_frames = 2;
    let writes: Vec<Action> = (0..32).map(|p| Action::Write(p * 64)).collect();
    let mut m = machine_with(cfg, 32 * 4096, vec![writes]);
    let r = m.run();
    assert!(r.swap_outs > 0);
    // The DCD log disk received the flushed pages.
    let logged: usize = m.disks.iter().map(|d| {
        d.log_disk().map(|l| l.logged_pages() + l.destages() as usize).unwrap_or(0)
    }).sum();
    assert!(logged > 0, "no pages reached the log disk");
}

#[test]
fn fifo_and_lru_pick_different_victims() {
    // Access pattern: bring in pages 0..8, re-touch page 0 heavily,
    // then stream more pages. LRU protects page 0; FIFO evicts it
    // first (it is the oldest arrival).
    let mk = |policy| {
        let mut cfg = one_node_cfg();
        cfg.replacement = policy;
        cfg.memory_per_node = 8 * 4096;
        cfg.min_free_frames = 2;
        cfg.prefetch = PrefetchMode::Optimal;
        let mut acts: Vec<Action> = (0..8).map(|p| Action::Read(p * 64)).collect();
        acts.extend(std::iter::repeat_n(Action::Read(0), 50));
        acts.extend((8..20).map(|p| Action::Read(p * 64)));
        acts.push(Action::Read(0)); // does page 0 need a re-fault?
        let mut m = machine_with(cfg, 20 * 4096, vec![acts]);
        m.run().page_faults
    };
    let lru_faults = mk(crate::config::ReplacementPolicy::Lru);
    let fifo_faults = mk(crate::config::ReplacementPolicy::Fifo);
    assert!(
        fifo_faults >= lru_faults,
        "FIFO ({fifo_faults}) should re-fault at least as much as LRU ({lru_faults})"
    );
}

#[test]
fn window_prefetcher_stays_ahead_of_sequential_reader() {
    // Sequential page reads with compute gaps: the window prefetcher
    // turns most faults into controller-cache hits.
    let mk = |pf| {
        let mut cfg = one_node_cfg();
        cfg.prefetch = pf;
        cfg.memory_per_node = 64 * 4096;
        let acts: Vec<Action> = (0..48)
            .flat_map(|p| [Action::Read(p * 64), Action::Compute(2_000_000)])
            .collect();
        let mut m = machine_with(cfg, 48 * 4096, vec![acts]);
        m.run()
    };
    let naive = mk(PrefetchMode::Naive);
    let window = mk(PrefetchMode::Window);
    assert!(
        window.fault_latency_disk_hit.count() > naive.fault_latency_disk_hit.count(),
        "window hits {} !> naive hits {}",
        window.fault_latency_disk_hit.count(),
        naive.fault_latency_disk_hit.count()
    );
    assert!(window.exec_time <= naive.exec_time);
}

#[test]
fn idle_nodes_are_fine() {
    let mut cfg = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
    cfg.nodes = 4;
    cfg.io_nodes = 2;
    let mut streams = idle_streams(4);
    streams[2] = vec![Action::Compute(500), Action::Read(0)];
    let mut m = machine_with(cfg, 4096, streams);
    let r = m.run();
    assert!(r.exec_time >= 500);
    assert_eq!(r.page_faults, 1);
}

#[test]
fn shootdown_interrupts_exactly_the_tlbs_that_hold_the_page() {
    let mut cfg = MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Optimal);
    cfg.nodes = 64;
    (cfg.mesh_width, cfg.mesh_height) = (8, 8);
    // Node 10 faults page 0 in; the other holders translate it once it
    // is resident. Every other node stays idle.
    let (home, holders) = (10, [3, 10, 17, 40, 63]);
    let mut streams = idle_streams(64);
    for q in holders {
        streams[q] = if q == home {
            vec![Action::Read(0)]
        } else {
            vec![Action::Compute(10_000_000), Action::Read(q as u64)]
        };
    }
    let mut m = machine_with(cfg.clone(), 4096, streams);
    m.run();
    assert!(m.tlb_holders_match());
    for q in 0..64 {
        assert_eq!(m.procs[q].tlb.contains(0), holders.contains(&q), "node {q}");
    }
    let before: Vec<u64> = m.procs.iter().map(|p| p.pending_interrupt).collect();
    let shootdowns = m.m_shootdowns;
    m.evict_page(home as u32, 0, m.exec_time());
    let charged: Vec<u64> = m.procs.iter().zip(&before).map(|(p, b)| p.pending_interrupt - b).collect();
    for (q, &c) in charged.iter().enumerate() {
        let want = match q {
            _ if q == home => cfg.tlb_shootdown_latency,
            _ if holders.contains(&q) => cfg.interrupt_latency,
            _ => 0,
        };
        assert_eq!(c, want, "node {q}");
    }
    let k = holders.len() as u64;
    assert_eq!(
        charged.iter().sum::<u64>(),
        cfg.tlb_shootdown_latency + (k - 1) * cfg.interrupt_latency
    );
    assert_eq!(m.m_shootdowns, shootdowns + 1);
    assert!(m.procs.iter().all(|p| !p.tlb.contains(0)));
    let mut left = Vec::new();
    m.tlb_holders.drain(0, |q| left.push(q));
    assert_eq!(left, Vec::<usize>::new(), "holder bits survive the shootdown");
}
