//! Generated-topology integration suite: multi-ring fabrics, sharded
//! directories and I/O-node counts driven end-to-end, with the
//! same differential-determinism and checkpoint guarantees the paper
//! machine has. These are the invariants the `reproduce scale` study
//! and the CI scale-smoke job stand on.

use nwcache::checkpoint::{machine_from_bytes, machine_to_bytes};
use nwcache::config::{MachineConfig, MachineKind, PrefetchMode, RunParams};
use nwcache::metrics::RunMetrics;
use nwcache::workload::AppSel;
use nwcache::{Machine, RunOutcome, TopoSpec};

const SCALE: f64 = 0.1;

/// A working set 1.5× the machine's total frames, so the swap path —
/// ring fabric, interface FIFOs, drain — carries real load.
fn pressured_spec(nodes: u32) -> String {
    format!("zipf:0.9,ws={},acc=60,wf=0.3", 12 * nodes as u64)
}

fn topo_cfg(spec: &str, kind: MachineKind) -> MachineConfig {
    TopoSpec::parse(spec)
        .expect("topology parses")
        .to_config(kind, PrefetchMode::Naive, SCALE)
}

fn build_machine(cfg: &MachineConfig, spec: &str) -> Machine {
    let sel = AppSel::parse(spec).expect("spec parses");
    let build = sel.build(cfg).expect("workload builds");
    Machine::try_from_build(cfg.clone(), build).expect("machine builds")
}

fn finish(m: &mut Machine) -> RunMetrics {
    match m.try_run_events(u64::MAX).expect("run completes") {
        RunOutcome::Done(metrics) => *metrics,
        RunOutcome::Paused => unreachable!("unbounded run cannot pause"),
    }
}

/// The topology ladder the determinism tests sweep: default and
/// explicit I/O-node counts, multi-ring fabrics and sharded
/// directories, through 256 nodes.
const TOPOS: [&str; 4] = [
    "mesh=4x2",
    "mesh=8x8,io=spread:4,rings=2,dirshards=2",
    "mesh=8x8,io=spread:8,rings=4,dirshards=4",
    "mesh=16x16,rings=4,dirshards=8",
];

#[test]
fn multi_ring_sharded_runs_complete_under_memory_pressure() {
    // Regression for the iface-enqueue origin bug: with rings > 1 a
    // global channel id is not a node id, and a pressured 64-node run
    // used to panic routing the drain ACK to "node" 88.
    for spec in ["mesh=8x8,rings=2,dirshards=2", "mesh=8x8,io=spread:4,rings=4"] {
        let cfg = topo_cfg(spec, MachineKind::NwCache);
        let sel = AppSel::parse(&format!("workload:gen:{}", pressured_spec(cfg.nodes)))
            .expect("workload parses");
        let m = nwcache::try_run_sel(&cfg, &sel)
            .unwrap_or_else(|e| panic!("{spec}: run failed: {e}"));
        assert!(m.page_faults > 0, "{spec}: no paging, test measures nothing");
        assert!(m.swap_outs > 0, "{spec}: swap path never engaged");
        assert_eq!(m.ring_pages_lost, 0, "{spec}: pages lost without faults");
    }
}

/// CI scale-smoke's "64-node cell": `nwsim run --app
/// "workload:gen:zipf:0.9,ws=768,acc=60,wf=0.3" --topo
/// mesh=8x8,rings=2,dirshards=2 --scale 0.1 --json`, whose output was
/// recorded through the binary.
const CI_CELL_SPEC: &str = "workload:gen:zipf:0.9,ws=768,acc=60,wf=0.3";
const GOLDEN_CI_CELL: &str = include_str!("golden/ci_64_node_cell_01.json");

#[test]
fn ci_64_node_cell_matches_snapshot() {
    // Lowered the way `nwsim run` lowers its flags.
    let cfg = RunParams {
        scale: SCALE,
        topo: Some("mesh=8x8,rings=2,dirshards=2".into()),
        ..RunParams::default()
    }
    .to_config()
    .expect("CI cell config");
    let sel = AppSel::parse(CI_CELL_SPEC).expect("workload parses");
    let m = nwcache::try_run_sel(&cfg, &sel).expect("run completes");
    assert_eq!(
        m.summary().to_json().trim(),
        GOLDEN_CI_CELL.trim(),
        "64-node cell drifted"
    );
    // What the snapshot pins: 64-processor shootdowns, and sharer
    // masks past 32 nodes, where one bit covers a group of nodes.
    assert!(cfg.nodes > 32, "directory is not coarse-vector");
    assert!(m.shootdowns > 0, "no shootdowns in the 64-node cell");
}

/// A four-ring, page-sharded NWCache cell in which node 10's channel
/// on ring 3 fails mid-run: pins the global channel layout, inserts
/// from one node on four rings, and a channel failure off ring 0.
const RING4_CELL_SPEC: &str = "workload:gen:zipf:0.9,ws=384,acc=60,wf=0.3";
const GOLDEN_RING4_CELL: &str = include_str!("golden/ring4_channel_failure_01.json");

#[test]
fn four_ring_cell_with_a_failed_channel_matches_snapshot() {
    let mut cfg = topo_cfg("mesh=4x4,rings=4", MachineKind::NwCache);
    cfg.faults.ring_channel_failures = vec![(20_000_000, 3 * 16 + 10)];
    let sel = AppSel::parse(RING4_CELL_SPEC).expect("workload parses");
    let m = nwcache::try_run_sel(&cfg, &sel).expect("run completes");
    assert_eq!(
        m.summary().to_json().trim(),
        GOLDEN_RING4_CELL.trim(),
        "four-ring cell drifted"
    );
    assert!(m.degraded_ring_swaps > 0, "the failed channel saw no swap-outs");
}

#[test]
fn topology_sweep_is_bit_identical_across_jobs() {
    let grid = || -> Vec<(MachineConfig, AppSel)> {
        TOPOS
            .iter()
            .flat_map(|spec| {
                [MachineKind::Standard, MachineKind::NwCache].map(|kind| {
                    let cfg = topo_cfg(spec, kind);
                    let sel =
                        AppSel::parse(&format!("workload:gen:{}", pressured_spec(cfg.nodes)))
                            .expect("workload parses");
                    (cfg, sel)
                })
            })
            .collect()
    };
    let serial = nwcache::sweep::run_grid(1, grid());
    let parallel = nwcache::sweep::run_grid(4, grid());
    // Full-state equality: every counter, histogram bucket and time
    // series — not just the headline numbers.
    assert_eq!(serial, parallel, "jobs=4 diverged from serial");
    assert!(serial.iter().all(|r| r.is_ok()));
}

#[test]
fn topology_checkpoint_round_trip_is_bit_identical() {
    // Multi-ring RING sections, sharded DIR sections and the topology
    // CONFIG tail all survive save/restore mid-run.
    let cfg = topo_cfg("mesh=8x8,io=spread:4,rings=2,dirshards=4", MachineKind::NwCache);
    let workload = format!("workload:gen:{}", pressured_spec(cfg.nodes));
    let uninterrupted = finish(&mut build_machine(&cfg, &workload));

    let mut m = build_machine(&cfg, &workload);
    match m.try_run_events(500).expect("run ok") {
        RunOutcome::Paused => {}
        RunOutcome::Done(_) => panic!("run finished before the snapshot point"),
    }
    let bytes = machine_to_bytes(&workload, &mut m);
    let (_meta, mut restored) = match machine_from_bytes(&bytes) {
        Ok(pair) => pair,
        Err(e) => panic!("restore failed: {e}"),
    };
    // restore(save(m)) serializes back to the same bytes.
    assert_eq!(bytes, machine_to_bytes(&workload, &mut restored), "snapshot not canonical");
    assert_eq!(
        finish(&mut restored),
        uninterrupted,
        "resumed run diverged from the uninterrupted one"
    );
}

#[test]
fn scale_study_report_is_parallelism_independent() {
    // The `nwcache-scale-v1` document carries no wall-clock or
    // worker-count fields, so two exports at different job counts
    // must be byte-identical — the CI scale-smoke contract.
    let topos = ["mesh=4x2", "mesh=4x4,rings=2,dirshards=2"];
    // A fresh Lab per run, so the second study simulates its cells
    // instead of reading the first one's memo.
    let study = |jobs| {
        let mut lab = nwcache::experiments::Lab::with_jobs(jobs);
        nwcache::experiments::scale_study(&mut lab, &topos, SCALE).expect("study runs")
    };
    let serial = study(1);
    let parallel = study(4);
    assert_eq!(
        nwcache::experiments::scale_report_json(SCALE, &serial),
        nwcache::experiments::scale_report_json(SCALE, &parallel),
        "scale report differs across --jobs"
    );
    for row in &serial {
        assert!(row.result.is_ok(), "{}/{}/{} errored", row.topo, row.machine, row.mode);
    }
}
