//! Golden snapshot of the `nwcache-sweep-v1` report schema. Exports
//! from different builds are diffed against each other, so field
//! order and formatting must never drift by accident. An intentional
//! schema change must bump the `schema` string and update this
//! snapshot in the same commit.

use nwcache::{RunMetrics, SweepReport, SweepRow};

fn sample_report() -> SweepReport {
    let m = RunMetrics {
        app: "sor".into(),
        machine: "nwcache".into(),
        prefetch: "naive".into(),
        exec_time: 123_456,
        page_faults: 789,
        ring_hits: 321,
        ..Default::default()
    };
    SweepReport {
        scale: 0.25,
        jobs: 4,
        cores: 8,
        wall_ms: 1500,
        rows: vec![
            SweepRow {
                app: "sor".into(),
                machine: "nwcache".into(),
                prefetch: "naive".into(),
                result: Ok(m.summary()),
            },
            SweepRow {
                app: "gauss".into(),
                machine: "standard".into(),
                prefetch: "optimal".into(),
                result: Err("simulation worker panicked: boom".into()),
            },
        ],
    }
}

#[test]
fn sweep_json_snapshot_is_stable() {
    assert_eq!(sample_report().to_json(), GOLDEN);
}

#[test]
fn sweep_json_error_accounting() {
    let r = sample_report();
    assert_eq!(r.errors(), 1);
    assert_eq!(r.rows.len(), 2);
}

const GOLDEN: &str = r#"{
  "schema": "nwcache-sweep-v1",
  "scale": 0.25,
  "jobs": 4,
  "cores": 8,
  "wall_ms": 1500,
  "runs": [
    {"app":"sor","machine":"nwcache","prefetch":"naive","status":"ok","metrics":{"app":"sor","machine":"nwcache","prefetch":"naive","exec_time":123456,"page_faults":789,"swap_outs":0,"swap_nacks":0,"swap_out_mean":0,"swap_out_max":0,"swap_out_p99":0,"fault_p99":0,"write_combining_mean":0,"ring_hits":321,"ring_hit_rate":100,"fault_disk_hit_mean":0,"fault_disk_miss_mean":0,"fault_ring_mean":0,"shootdowns":0,"mesh_bytes":0,"mesh_messages":0,"mesh_utilization":0,"ring_peak_pages":0,"l2_miss_ratio":0,"no_free_cycles":0,"transit_cycles":0,"fault_cycles":0,"tlb_cycles":0,"other_cycles":0,"disk_media_errors":0,"disk_stuck_timeouts":0,"mesh_dropped":0,"mesh_corrupted":0,"ring_pages_lost":0,"swap_retries":0,"dead_channels":0,"degraded_ring_swaps":0}},
    {"app":"gauss","machine":"standard","prefetch":"optimal","status":"error","error":"simulation worker panicked: boom"}
  ]
}"#;
