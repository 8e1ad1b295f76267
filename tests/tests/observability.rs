//! Behavior-invariance contract for the observability layer: running
//! with tracing/sampling attached must produce bit-identical
//! `RunMetrics` to running without it, on clean and faulted cells —
//! and the traces themselves must be valid, subsystem-complete Chrome
//! trace JSON held in bounded memory.

use nw_apps::AppId;
use nwcache::config::{MachineConfig, MachineKind, PrefetchMode};
use nwcache::observe::{self, ObserveConfig};
use nwcache::Machine;

const SCALE: f64 = 0.05;

fn cfg(kind: MachineKind) -> MachineConfig {
    MachineConfig::scaled_paper(kind, PrefetchMode::Naive, SCALE)
}

fn faulted_cfg() -> MachineConfig {
    let mut c = cfg(MachineKind::NwCache);
    c.faults.disk_error_rate = 0.05;
    c.faults.mesh_drop_rate = 0.02;
    c
}

/// Run `cfg` twice — bare, and with an observer attached — and assert
/// full-state metric equality (every counter, histogram bucket and
/// occupancy sample, via `RunMetrics`' derived `PartialEq`).
fn assert_observation_invariant(cfg: &MachineConfig, app: AppId) {
    let bare = nwcache::run_app(cfg, app);
    let mut m = Machine::new(cfg.clone(), app);
    m.enable_observer(ObserveConfig::default());
    let observed = m.run();
    let data = m.take_observation().expect("observer was attached");
    assert_eq!(
        bare, observed,
        "metrics diverged with the observer attached ({:?}, {:?})",
        cfg.kind, app
    );
    // And the observation itself is not vacuous.
    assert!(data.recorded > 0, "observer recorded nothing");
}

#[test]
fn tracing_is_behavior_invariant_on_clean_cell() {
    assert_observation_invariant(&cfg(MachineKind::NwCache), AppId::Sor);
    assert_observation_invariant(&cfg(MachineKind::Standard), AppId::Sor);
}

#[test]
fn tracing_is_behavior_invariant_on_faulted_cell() {
    let c = faulted_cfg();
    let m = nwcache::run_app(&c, AppId::Sor);
    assert!(m.disk_media_errors > 0, "fault plan injected nothing");
    assert_observation_invariant(&c, AppId::Sor);
}

#[test]
fn tracing_is_behavior_invariant_at_odd_sample_intervals() {
    // A pathological (prime, tiny) sampling period maximizes sampler
    // activity; metrics must still not move.
    let c = cfg(MachineKind::NwCache);
    let bare = nwcache::run_app(&c, AppId::Gauss);
    let mut m = Machine::new(c, AppId::Gauss);
    m.enable_observer(ObserveConfig {
        trace_capacity: 128, // force ring-buffer wrap-around too
        sample_interval: 4_099,
    });
    let observed = m.run();
    assert_eq!(bare, observed);
    let data = m.take_observation().unwrap();
    assert!(data.dropped > 0, "tiny capacity should have wrapped");
}

#[test]
fn ring_occupancy_memory_is_bounded() {
    // The occupancy series must stay O(samples), not O(events): the
    // bounded sampler downsamples instead of growing without limit.
    let c = cfg(MachineKind::NwCache);
    let m = nwcache::run_app(&c, AppId::Gauss);
    assert!(
        m.ring_occupancy.len() <= 4_096,
        "ring_occupancy grew to {} samples",
        m.ring_occupancy.len()
    );
}

#[test]
fn trace_export_is_valid_and_covers_all_subsystems() {
    let mut m = Machine::new(cfg(MachineKind::NwCache), AppId::Gauss);
    m.enable_observer(ObserveConfig::default());
    m.run();
    let data = m.take_observation().unwrap();
    let json = data.to_chrome_json();
    let stats = observe::validate_chrome_trace(&json).expect("exported trace must validate");
    assert!(stats.spans > 0 && stats.instants > 0 && stats.counters > 0);
    // Mesh, ring, disk, directory and VM all have a track; pids are
    // track groups + 1.
    for g in [
        observe::groups::MESH,
        observe::groups::RING,
        observe::groups::DISK,
        observe::groups::DIR,
        observe::groups::VM,
    ] {
        assert!(
            stats.pids.contains(&(g as u32 + 1)),
            "track group {} missing from NWCache trace",
            observe::group_name(g)
        );
    }
    // The standard machine has no ring but every other subsystem.
    let mut m = Machine::new(cfg(MachineKind::Standard), AppId::Gauss);
    m.enable_observer(ObserveConfig::default());
    m.run();
    let stats =
        observe::validate_chrome_trace(&m.take_observation().unwrap().to_chrome_json()).unwrap();
    for g in [
        observe::groups::MESH,
        observe::groups::DISK,
        observe::groups::DIR,
        observe::groups::VM,
    ] {
        assert!(
            stats.pids.contains(&(g as u32 + 1)),
            "track group {} missing from standard trace",
            observe::group_name(g)
        );
    }
    assert!(
        !stats.pids.contains(&(observe::groups::RING as u32 + 1)),
        "standard machine grew a ring track"
    );
}

#[test]
fn text_timeline_mentions_every_group() {
    let mut m = Machine::new(cfg(MachineKind::NwCache), AppId::Gauss);
    m.enable_observer(ObserveConfig::default());
    m.run();
    let text = m.take_observation().unwrap().to_text_timeline();
    for needle in ["mesh.", "ring.", "disk.", "dir.", "vm."] {
        assert!(text.contains(needle), "text timeline lacks {needle}");
    }
}
