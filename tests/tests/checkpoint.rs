//! Checkpoint/restore integration suite: crash injection, round-trip
//! determinism, and rejection of damaged checkpoint files.
//!
//! The contract under test is the one `nwsim run --checkpoint` /
//! `nwsim resume` rely on: a machine restored from an `nwckpt-v1`
//! snapshot and run to completion produces a `RunMetrics` (and
//! therefore a `RunSummary` JSON) bit-identical to the uninterrupted
//! run — across seeds, across clean and fault-injected cells, and
//! regardless of how many worker threads the uninterrupted arm used.
//! Any bit flip, truncation, or version skew in the file must be
//! rejected with a structured `SimError`, never a panic or a silently
//! wrong machine; a seeded mutation fuzz checks the same of damage
//! that comes with a valid checksum and reaches the section decoders.

use nw_apps::AppId;
use nw_sim::ckpt::{fnv1a, put_varint, read_varint, CkptReader, MAGIC, VERSION};
use nw_sim::Pcg32;
use nwcache::checkpoint::{machine_from_bytes, machine_to_bytes, sections};
use nwcache::config::{MachineConfig, MachineKind, PrefetchMode};
use nwcache::sweep::run_grid;
use nwcache::{AppSel, Machine, RunMetrics, RunOutcome, SimError};

const SCALE: f64 = 0.05;

fn clean_cfg(seed: u64) -> MachineConfig {
    let mut cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    cfg.seed = seed;
    cfg
}

fn faulted_cfg(seed: u64) -> MachineConfig {
    let mut cfg = clean_cfg(seed);
    cfg.faults.disk_error_rate = 0.02;
    cfg.faults.mesh_drop_rate = 0.01;
    cfg
}

fn build_machine(cfg: &MachineConfig, spec: &str) -> Machine {
    let sel = AppSel::parse(spec).expect("spec parses");
    let build = sel.build(cfg).expect("workload builds");
    Machine::try_from_build(cfg.clone(), build).expect("machine builds")
}

fn finish(mut m: Machine) -> RunMetrics {
    finish_in_place(&mut m)
}

fn finish_in_place(m: &mut Machine) -> RunMetrics {
    match m.try_run_events(u64::MAX).expect("run completes") {
        RunOutcome::Done(metrics) => *metrics,
        RunOutcome::Paused => unreachable!("unbounded run cannot pause"),
    }
}

/// Run `spec` on `cfg`, pause after `events` dispatched events, and
/// return the snapshot taken at the pause point.
fn snapshot_at(cfg: &MachineConfig, spec: &str, events: u64) -> Vec<u8> {
    let mut m = build_machine(cfg, spec);
    match m.try_run_events(events).expect("run ok") {
        RunOutcome::Paused => {}
        RunOutcome::Done(_) => panic!("run finished before {events} events"),
    }
    machine_to_bytes(spec, &mut m)
}

/// The in-process equivalent of `nwsim run --checkpoint-every
/// --stop-after`: autosave a snapshot every `every` events, crash
/// (drop the machine) once `stop` events have been dispatched, and
/// return the latest autosave — the state a real resume starts from.
/// The budget is clipped so the crash lands exactly on `stop`,
/// strictly after the last autosave.
fn crash_with_autosaves(cfg: &MachineConfig, spec: &str, every: u64, stop: u64) -> Vec<u8> {
    let mut m = build_machine(cfg, spec);
    let mut latest: Option<Vec<u8>> = None;
    loop {
        let dispatched = m.events_dispatched();
        if dispatched >= stop {
            return latest.expect("crash point precedes the first autosave");
        }
        let budget = every.min(stop - dispatched);
        match m.try_run_events(budget).expect("run ok") {
            RunOutcome::Done(_) => panic!("run finished before the crash at {stop} events"),
            RunOutcome::Paused => {
                if m.events_dispatched() < stop {
                    latest = Some(machine_to_bytes(spec, &mut m));
                }
            }
        }
    }
}

fn restore(bytes: &[u8]) -> Machine {
    match machine_from_bytes(bytes) {
        Ok((_meta, m)) => m,
        Err(e) => panic!("restore failed: {e}"),
    }
}

#[test]
fn round_trip_is_bit_identical_across_seeds_and_fault_cells() {
    for seed in [1u64, 2, 3] {
        for (label, cfg) in [("clean", clean_cfg(seed)), ("faulted", faulted_cfg(seed))] {
            let uninterrupted = finish(build_machine(&cfg, "sor"));
            let resumed = finish(restore(&snapshot_at(&cfg, "sor", 300)));
            // Full-state equality: every counter, histogram bucket
            // and latency series — not just the headline numbers.
            assert_eq!(
                uninterrupted, resumed,
                "seed {seed} {label}: resumed run diverged"
            );
            assert_eq!(
                uninterrupted.summary().to_json(),
                resumed.summary().to_json(),
                "seed {seed} {label}: RunSummary JSON diverged"
            );
        }
    }
}

/// The `(id, payload)` sections of a well-formed checkpoint, in file
/// order.
fn ckpt_sections(bytes: &[u8]) -> Vec<(u32, Vec<u8>)> {
    let mut r = CkptReader::new(bytes).expect("valid container");
    let mut out = Vec::new();
    while let Some((id, payload)) = r.next_raw_section().expect("sections parse") {
        out.push((id, payload.to_vec()));
    }
    out
}

/// An `nwckpt-v1` file of `sections`, framed and checksummed the way
/// the writer does it, so altered payloads reach the decoders.
fn ckpt_assemble(sections: &[(u32, Vec<u8>)]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    out.push(VERSION);
    for (id, payload) in sections {
        put_varint(&mut out, *id as u64);
        put_varint(&mut out, payload.len() as u64);
        out.extend_from_slice(payload);
    }
    let sum = fnv1a(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// `bytes` with section `id`'s payload changed by `edit`.
fn with_section(bytes: &[u8], id: u32, edit: impl FnOnce(&mut Vec<u8>)) -> Vec<u8> {
    let mut sections = ckpt_sections(bytes);
    let section = sections.iter_mut().find(|s| s.0 == id);
    edit(&mut section.expect("section present").1);
    ckpt_assemble(&sections)
}

/// Processor 0's `consumed` count in checkpoint `bytes`. The PROCS
/// payload opens with the processor count, then that count.
fn proc0_consumed(bytes: &[u8]) -> u64 {
    let mut sections = ckpt_sections(bytes).into_iter();
    let procs = sections.find(|s| s.0 == sections::PROCS);
    let payload = procs.expect("checkpoint has a PROCS section").1;
    let mut pos = 0;
    read_varint(&payload, &mut pos).unwrap();
    read_varint(&payload, &mut pos).unwrap()
}

/// `bytes` with processor 0's `consumed` count replaced by `consumed`.
fn with_proc0_consumed(bytes: &[u8], consumed: u64) -> Vec<u8> {
    with_section(bytes, sections::PROCS, |payload| {
        let mut pos = 0;
        let n = read_varint(payload, &mut pos).unwrap();
        read_varint(payload, &mut pos).unwrap();
        let mut head = Vec::new();
        put_varint(&mut head, n);
        put_varint(&mut head, consumed);
        payload.splice(..pos, head);
    })
}

/// The retired page tracer's TRACER payload in a checkpoint of sor on
/// the scaled (0.05) NWCache machine with naive prefetching, taken
/// after 800 events while it watched pages 0-3: four watched pages and
/// eight lifecycle records. Machines no longer write such payloads,
/// but restore must still read files that carry one.
const LEGACY_TRACER: [u8; 48] = [
    4, 0, 1, 2, 3, 8, 0, 0, 0, 0, 0, 1, 0, 1, 0, 3, 0, 2, 139, 222, 2, 0, 2, 0, 143, 190, 5, 1, 2,
    1, 179, 191, 5, 2, 0, 1, 143, 254, 7, 2, 2, 1, 147, 190, 10, 3, 2, 2,
];

/// `bytes` as the retired tracer wrote them for the same state.
fn with_legacy_tracer(bytes: &[u8]) -> Vec<u8> {
    with_section(bytes, sections::TRACER, |p| *p = LEGACY_TRACER.to_vec())
}

#[test]
fn every_app_round_trips_from_a_mid_block_stop() {
    let cfg = clean_cfg(5);
    for app in AppId::ALL {
        let spec = app.name();
        let mut m = build_machine(&cfg, spec);
        let uninterrupted = finish_in_place(&mut m);
        // Stop half-way, where restore's fast-forward of processor 0
        // must end inside a generated block, not on a block boundary.
        let bytes = snapshot_at(&cfg, spec, m.events_dispatched() / 2);
        let consumed = proc0_consumed(&bytes);
        let mut s = nw_apps::build(app, cfg.nodes as usize, cfg.app_scale, cfg.seed)
            .streams
            .remove(0);
        assert_eq!(s.advance(consumed), consumed, "{spec}");
        assert!(s.buffered() > 0, "{spec}: proc 0 stopped on a block boundary");
        let resumed = finish(restore(&bytes));
        assert_eq!(uninterrupted, resumed, "{spec}: resumed run diverged");
    }
}

#[test]
fn restore_reports_exactly_where_a_short_stream_ended() {
    let cfg = clean_cfg(5);
    let bytes = snapshot_at(&cfg, "lu", 500);
    let total = nw_apps::build(AppId::Lu, cfg.nodes as usize, cfg.app_scale, cfg.seed)
        .streams
        .remove(0)
        .count() as u64;
    let err = match machine_from_bytes(&with_proc0_consumed(&bytes, total + 5)) {
        Ok(_) => panic!("restore accepted a count past the stream's end"),
        Err(e) => e.to_string(),
    };
    let want = format!(
        "proc 0: stream ended after {total} actions, checkpoint consumed {}",
        total + 5
    );
    assert!(err.contains(&want), "{err}");
}

#[test]
fn snapshot_of_restored_machine_is_byte_identical() {
    // restore(save(m)) must serialize back to the same bytes — the
    // codec is canonical, so `ckpt-diff` on a faithful resume shows
    // every section as `same`.
    let mut dcd = MachineConfig::scaled_paper(MachineKind::Dcd, PrefetchMode::Naive, SCALE);
    dcd.seed = 7;
    for (label, cfg) in [("clean", clean_cfg(7)), ("faulted", faulted_cfg(7)), ("dcd", dcd)] {
        let bytes = snapshot_at(&cfg, "sor", 250);
        let again = machine_to_bytes("sor", &mut restore(&bytes));
        assert_eq!(bytes, again, "{label}");
    }
}

/// FNV-1a 64 digests of mid-run checkpoints (800 events) as the
/// machines wrote them before the page tracer was retired: its TRACER
/// section stays in place, empty, so every such file keeps its bytes.
#[test]
fn checkpoint_bytes_match_the_recorded_digests() {
    let scaled = |kind, prefetch| MachineConfig::scaled_paper(kind, prefetch, SCALE);
    let mut adaptive = scaled(MachineKind::NwCache, PrefetchMode::Adaptive);
    adaptive.prefetch_window = 8;
    let topo = nwcache::topo::TopoSpec::parse("mesh=8x8,rings=2")
        .expect("topology parses")
        .to_config(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    let mut dcd = scaled(MachineKind::Dcd, PrefetchMode::Naive);
    dcd.seed = 3;
    let mut faulted = scaled(MachineKind::NwCache, PrefetchMode::Naive);
    faulted.faults.disk_error_rate = 0.02;
    faulted.faults.mesh_drop_rate = 0.01;
    faulted.faults.ring_channel_failures = vec![(1_000_000, 2)];
    for (label, cfg, spec, digest) in [
        ("nwcache", scaled(MachineKind::NwCache, PrefetchMode::Naive), "sor", 0x620d_731a_d9f8_fb91),
        ("standard", scaled(MachineKind::Standard, PrefetchMode::Naive), "gauss", 0x3d32_1570_40e9_f891),
        ("adaptive", adaptive, "mg", 0x67e3_f6d2_0742_f5ef),
        ("mesh=8x8,rings=2", topo, "sor", 0xdfb7_fe45_c3f1_f21d),
        ("dcd", dcd, "gauss", 0xb1fa_8bca_19a8_527e),
        ("nwcache faulted", faulted, "sor", 0x2738_1004_9785_b9e0),
        ("nwcache optimal", scaled(MachineKind::NwCache, PrefetchMode::Optimal), "sor", 0x086f_265d_59df_8382),
        ("standard window", scaled(MachineKind::Standard, PrefetchMode::Window), "gauss", 0xe932_12f2_b6ef_cf36),
    ] {
        assert_eq!(fnv1a(&snapshot_at(&cfg, spec, 800)), digest, "{label}");
    }
}

#[test]
fn legacy_tracer_payload_restores_and_finishes_identically() {
    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    let bytes = snapshot_at(&cfg, "sor", 800);
    let legacy = with_legacy_tracer(&bytes);
    // The exact file a machine watching pages 0-3 wrote at this point.
    assert_eq!(fnv1a(&legacy), 0x0ffd_e1ca_fa60_34d6);
    let mut resumed = restore(&legacy);
    // The records are discarded: the restored machine saves the empty
    // section again, and finishes like the uninterrupted run.
    assert_eq!(machine_to_bytes("sor", &mut resumed), bytes);
    assert_eq!(finish(resumed), finish(build_machine(&cfg, "sor")));
}

#[test]
fn chunked_runs_pause_at_exact_budgets_and_match_unbounded() {
    // `--checkpoint-every N` autosaves rely on a bounded run pausing
    // at exactly N more dispatched events, and on any chunking
    // dispatching the same event sequence as one unbounded run.
    for (label, cfg) in [("clean", clean_cfg(5)), ("faulted", faulted_cfg(5))] {
        let mut whole = build_machine(&cfg, "sor");
        let reference = match whole.try_run_events(u64::MAX).expect("run ok") {
            RunOutcome::Done(metrics) => *metrics,
            RunOutcome::Paused => unreachable!("unbounded run cannot pause"),
        };
        for budget in [1u64, 97, 257] {
            let mut m = build_machine(&cfg, "sor");
            let mut dispatched = 0u64;
            let end = loop {
                match m.try_run_events(budget).expect("run ok") {
                    RunOutcome::Paused => {
                        dispatched += budget;
                        assert_eq!(m.events_dispatched(), dispatched, "{label}: budget {budget}");
                    }
                    RunOutcome::Done(metrics) => break *metrics,
                }
            };
            assert_eq!(end, reference, "{label}: chunks of {budget} diverged");
            assert_eq!(m.events_dispatched(), whole.events_dispatched(), "{label}: {budget}");
        }
    }
}

#[test]
fn crash_injection_at_seeded_points_restores_identically() {
    // Kill the run at several event indices, restore from the latest
    // autosave (never the crash-point state — that was lost), and
    // check the final summary matches the uninterrupted run. The
    // crash points are chosen inside the run: SOR at this scale
    // dispatches a few hundred events total.
    for (label, cfg) in [("clean", clean_cfg(11)), ("faulted", faulted_cfg(11))] {
        let uninterrupted = finish(build_machine(&cfg, "sor"));
        for stop in [150u64, 333, 500, 750] {
            let autosave = crash_with_autosaves(&cfg, "sor", 100, stop);
            let resumed = finish(restore(&autosave));
            assert_eq!(
                uninterrupted, resumed,
                "{label}: crash at {stop} events did not restore to the same run"
            );
        }
    }
}

#[test]
fn resumed_cells_match_serial_and_parallel_sweeps() {
    // A sweep's worth of cells, each crash-resumed individually, must
    // reproduce both the serial and the multi-worker sweep results.
    let cells: Vec<(MachineConfig, AppId, &str)> = vec![
        (clean_cfg(1), AppId::Sor, "sor"),
        (faulted_cfg(1), AppId::Sor, "sor"),
        (clean_cfg(2), AppId::Gauss, "gauss"),
    ];
    let grid: Vec<(MachineConfig, AppId)> =
        cells.iter().map(|(cfg, app, _)| (cfg.clone(), *app)).collect();
    let serial = run_grid(1, grid.clone());
    let parallel = run_grid(4, grid);
    assert_eq!(serial, parallel, "parallel sweep diverged from serial");
    for (i, (cfg, _, spec)) in cells.iter().enumerate() {
        let swept = serial[i].as_ref().expect("cell completes");
        let resumed = finish(restore(&crash_with_autosaves(cfg, spec, 100, 450)));
        assert_eq!(*swept, resumed, "cell {i} ({spec}): resume diverged from sweep");
    }
}

#[test]
fn adaptive_crash_restore_with_live_speculation_matches_uninterrupted() {
    // The adaptive policy carries extra run state — per-node detector
    // windows, RNG streams, the outstanding-hint table, and
    // speculative reads queued/active/installed at the controllers
    // (checkpoint section 12 plus the controllers' spec fields). A
    // snapshot taken while hints are provably in flight must resume
    // to a bit-identical end state, clean and faulted alike.
    let spec = "workload:gen:seq,ws=256,acc=3000,wf=0.1";
    let clean = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Adaptive, 0.1);
    let mut faulted = clean.clone();
    faulted.faults.disk_error_rate = 0.05;
    faulted.faults.mesh_drop_rate = 0.02;
    for (label, cfg) in [("clean", clean), ("faulted", faulted)] {
        let uninterrupted = finish(build_machine(&cfg, spec));
        assert!(
            uninterrupted.prefetch_spec_issued > 0,
            "{label}: cell must speculate for the test to mean anything"
        );
        let mut m = build_machine(&cfg, spec);
        let bytes = loop {
            match m.try_run_events(50).expect("run ok") {
                RunOutcome::Paused => {
                    if m.spec_outstanding() > 0 {
                        break machine_to_bytes(spec, &mut m);
                    }
                }
                RunOutcome::Done(_) => panic!("{label}: finished before speculation went live"),
            }
        };
        let resumed = finish(restore(&bytes));
        assert_eq!(
            uninterrupted, resumed,
            "{label}: resume with live speculative requests diverged"
        );
        assert_eq!(
            uninterrupted.summary().to_json(),
            resumed.summary().to_json(),
            "{label}: RunSummary JSON diverged"
        );
    }
}

#[test]
fn adaptive_snapshot_round_trip_is_canonical() {
    // save(restore(save(m))) with live speculation must be
    // byte-identical — detector windows, RNG parts, and controller
    // spec queues all re-serialize canonically.
    let spec = "workload:gen:seq,ws=256,acc=3000,wf=0.1";
    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Adaptive, 0.1);
    let mut m = build_machine(&cfg, spec);
    let bytes = loop {
        match m.try_run_events(50).expect("run ok") {
            RunOutcome::Paused => {
                if m.spec_outstanding() > 0 {
                    break machine_to_bytes(spec, &mut m);
                }
            }
            RunOutcome::Done(_) => panic!("finished before speculation went live"),
        }
    };
    let again = machine_to_bytes(spec, &mut restore(&bytes));
    assert_eq!(bytes, again);
}

// ---- damaged-file rejection ------------------------------------------------

#[test]
fn bit_flips_anywhere_are_rejected_with_structured_errors() {
    let bytes = snapshot_at(&clean_cfg(5), "sor", 200);
    // Flip one bit at a spread of offsets: header, early payload,
    // middle, and inside the trailing checksum itself.
    let offsets = [6, 40, bytes.len() / 2, bytes.len() - 3];
    for &off in &offsets {
        let mut bad = bytes.clone();
        bad[off] ^= 0x10;
        match machine_from_bytes(&bad) {
            Err(SimError::CheckpointCorrupt { path, detail }) => {
                assert_eq!(path, "<memory>");
                assert!(
                    detail.contains("checksum"),
                    "flip at {off}: unexpected detail '{detail}'"
                );
            }
            Err(e) => panic!("flip at {off}: wrong error {e}"),
            Ok(_) => panic!("flip at {off}: corrupt checkpoint was accepted"),
        }
    }
}

#[test]
fn truncation_at_any_length_is_rejected() {
    let bytes = snapshot_at(&clean_cfg(5), "sor", 200);
    for len in [0, 4, 12, bytes.len() / 3, bytes.len() - 1] {
        match machine_from_bytes(&bytes[..len]) {
            Err(SimError::CheckpointCorrupt { .. }) => {}
            Err(e) => panic!("truncated to {len}: wrong error {e}"),
            Ok(_) => panic!("truncated to {len}: accepted"),
        }
    }
}

#[test]
fn wrong_version_is_rejected_with_both_versions_reported() {
    let mut bytes = snapshot_at(&clean_cfg(5), "sor", 200);
    bytes[4] = 9; // version byte sits right after the 4-byte magic
    match machine_from_bytes(&bytes) {
        Err(SimError::CheckpointVersion { found, expected, .. }) => {
            assert_eq!(found, 9);
            assert_eq!(expected, 1);
        }
        Err(e) => panic!("wrong error {e}"),
        Ok(_) => panic!("future-version checkpoint was accepted"),
    }
}

#[test]
fn wrong_magic_is_rejected() {
    let mut bytes = snapshot_at(&clean_cfg(5), "sor", 200);
    bytes[..4].copy_from_slice(b"NOPE");
    match machine_from_bytes(&bytes) {
        Err(SimError::CheckpointCorrupt { detail, .. }) => {
            assert!(detail.contains("magic"), "unexpected detail '{detail}'");
        }
        Err(e) => panic!("wrong error {e}"),
        Ok(_) => panic!("non-checkpoint bytes were accepted"),
    }
}

#[test]
fn missing_file_is_an_io_error_with_the_path() {
    let path = std::path::Path::new("/nonexistent/dir/run.nwckpt");
    match nwcache::checkpoint::load_file(path) {
        Err(SimError::Io { path, .. }) => {
            assert!(path.contains("run.nwckpt"));
        }
        Err(e) => panic!("wrong error {e}"),
        Ok(_) => panic!("loaded a checkpoint that does not exist"),
    }
}

/// Mutated checkpoints in the seeded fuzz, spread over its seeds.
const FUZZ_CASES: u64 = 4000;

/// The fuzz's seed checkpoints: an NWCache cell on a two-ring mesh,
/// paused with page faults in flight (its CONFIG carries the topology
/// block, its VM section waiter counts), an adaptive-prefetch cell (it
/// writes a PREFETCH section) and a file with a legacy TRACER payload.
fn fuzz_seeds() -> Vec<Vec<u8>> {
    let topo = nwcache::topo::TopoSpec::parse("mesh=4x4,rings=2,dirshards=2")
        .expect("topology parses")
        .to_config(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    let adaptive = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Adaptive, SCALE);
    vec![
        snapshot_at(&topo, "sor", 100),
        snapshot_at(&adaptive, "mg", 200),
        with_legacy_tracer(&snapshot_at(&clean_cfg(1), "sor", 800)),
    ]
}

/// The byte ranges of `p` read as a run of varints, which every scalar
/// of the format is; the last runs to the end if it does not decode.
fn varints(p: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut pos = 0;
    while pos < p.len() {
        let start = pos;
        if read_varint(p, &mut pos).is_err() {
            pos = p.len();
        }
        out.push(start..pos);
    }
    out
}

fn varint(v: u64) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, v);
    out
}

/// Mutation `kind` of section payload `p`: truncation, bit flips, a
/// random span, or one whole field replaced by a huge number (so the
/// rest of the section still decodes in step).
fn mutate(p: &mut Vec<u8>, rng: &mut Pcg32, kind: u64) {
    if p.is_empty() {
        p.push(rng.next_u32() as u8);
        return;
    }
    let at = rng.gen_below(p.len() as u32) as usize;
    match kind {
        0 => p.truncate(at),
        1 => {
            for _ in 0..1 + rng.gen_below(3) {
                let i = rng.gen_below(p.len() as u32) as usize;
                p[i] ^= 1 << rng.gen_below(8);
            }
        }
        2 => {
            let end = (at + 1 + rng.gen_below(8) as usize).min(p.len());
            for b in &mut p[at..end] {
                *b = rng.next_u32() as u8;
            }
        }
        _ => {
            let fields = varints(p);
            let field = fields[rng.gen_below(fields.len() as u32) as usize].clone();
            let v = [1u64 << 24, 1 << 32, 1 << 40, u64::MAX][rng.gen_below(4) as usize];
            p.splice(field, varint(v));
        }
    }
}

/// Whether `bytes` restore. A panic, or an allocation that aborts the
/// process, fails the test; `what` names the case.
fn restores(bytes: &[u8], what: &str) -> bool {
    match std::panic::catch_unwind(|| machine_from_bytes(bytes)) {
        Ok(result) => result.is_ok(),
        Err(_) => panic!("{what}: restore panicked"),
    }
}

/// Seeded fuzz: each case mutates one section of a seed checkpoint
/// and frames it under a fresh checksum, so the bytes reach the
/// section decoders. Every case ends in `Ok` or a structured error.
#[test]
fn mutated_checkpoints_restore_or_fail_cleanly() {
    let seeds = fuzz_seeds();
    let (mut ok, mut failed) = (0, 0);
    for seed in &seeds {
        assert!(restores(seed, "seed"));
    }
    for case in 0..FUZZ_CASES {
        let mut rng = Pcg32::new(0xC4EC, case);
        let seed = &seeds[(case % 3) as usize];
        let ids: Vec<u32> = ckpt_sections(seed).iter().map(|s| s.0).collect();
        let id = ids[rng.gen_below(ids.len() as u32) as usize];
        let bytes = with_section(seed, id, |p| mutate(p, &mut rng, case % 4));
        if restores(&bytes, &format!("case {case}, section {id}")) {
            ok += 1;
        } else {
            failed += 1;
        }
    }
    // The loop must exercise both outcomes, not just the error paths.
    assert!(ok > 0 && failed > 0, "ok {ok}, failed {failed}");
}

/// Every field of the sections whose counts size the machine's own
/// reservations, inflated to 2^40 in turn: CONFIG (the machine built
/// from it), ENGINE (pending events) and VM (page waiters).
#[test]
fn every_inflated_count_restores_or_fails_cleanly() {
    let seed = &fuzz_seeds()[0];
    for (id, payload) in ckpt_sections(seed) {
        if ![sections::CONFIG, sections::ENGINE, sections::VM].contains(&id) {
            continue;
        }
        for field in varints(&payload) {
            let what = format!("section {id}, bytes {field:?}");
            let bytes = with_section(seed, id, |p| {
                p.splice(field, varint(1 << 40));
            });
            restores(&bytes, &what);
        }
    }
}
