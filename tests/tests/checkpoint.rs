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

/// Stop `spec` on `cfg` half-way, where restore's fast-forward of
/// processor 0 must end inside a generated block, not on a block
/// boundary, and check the resumed run finishes like the
/// uninterrupted one.
fn round_trips_from_a_mid_block_stop(cfg: &MachineConfig, spec: &str) {
    let mut m = build_machine(cfg, spec);
    let uninterrupted = finish_in_place(&mut m);
    let bytes = snapshot_at(cfg, spec, m.events_dispatched() / 2);
    let consumed = proc0_consumed(&bytes);
    let sel = AppSel::parse(spec).expect("spec parses");
    let mut s = sel.build(cfg).expect("workload builds").streams.remove(0);
    assert_eq!(s.advance(consumed), consumed, "{spec}");
    assert!(s.buffered() > 0, "{spec}: proc 0 stopped on a block boundary");
    let resumed = finish(restore(&bytes));
    assert_eq!(uninterrupted, resumed, "{spec}: resumed run diverged");
}

#[test]
fn every_app_round_trips_from_a_mid_block_stop() {
    let cfg = clean_cfg(5);
    for app in AppId::ALL {
        round_trips_from_a_mid_block_stop(&cfg, app.name());
    }
    // A generated scenario on 64 nodes.
    let wide = nwcache::topo::TopoSpec::parse("mesh=8x8,rings=2,dirshards=2")
        .expect("topology parses")
        .to_config(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    round_trips_from_a_mid_block_stop(&wide, "workload:gen:zipf:0.9,ws=6144,acc=200,wf=0.5");
    // A replayed trace, which restore reads from its file again.
    let trace = nwcache::workload::record(&cfg, &AppSel::parse("sor").unwrap()).unwrap();
    let path = std::env::temp_dir().join(format!("nwckpt-replay-{}.nwtrace", std::process::id()));
    std::fs::write(&path, trace.encode_binary()).unwrap();
    round_trips_from_a_mid_block_stop(&cfg, &format!("workload:{}", path.display()));
    std::fs::remove_file(&path).unwrap();
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

#[test]
fn a_64_node_cell_round_trips_with_rebuilt_tlb_holder_sets() {
    // The per-page TLB holder sets are not saved: a restore rebuilds
    // them from the TLBs, and the resumed run's shootdowns must charge
    // exactly the interrupts the uninterrupted run charges.
    let cfg = nwcache::topo::TopoSpec::parse("mesh=8x8,rings=2,dirshards=2")
        .expect("topology parses")
        .to_config(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    let spec = "workload:gen:zipf:0.9,ws=6144,acc=200,wf=0.5";
    let uninterrupted = finish(build_machine(&cfg, spec));
    let bytes = snapshot_at(&cfg, spec, 4000);
    let mut resumed = restore(&bytes);
    assert_eq!(machine_to_bytes(spec, &mut resumed), bytes);
    let resumed = finish(resumed);
    assert!(resumed.shootdowns > 0, "the cell evicts pages");
    assert_eq!(resumed, uninterrupted);
}

/// FNV-1a 64 digests of mid-run checkpoints (800 events). The
/// retired page tracer's TRACER section, each processor's retired
/// write-buffer slot and the ring's retired transmitter slots stay in
/// place, empty or zero; the rows re-recorded when the write buffer
/// and transmitters went differ from the parent's only in those slots
/// (see `legacy_write_buffer_and_transmitter_slots_restore_and_finish_identically`).
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
    // Four page-sharded rings; node 10's channel on ring 3 fails
    // before the snapshot point.
    let mut ring4 = nwcache::topo::TopoSpec::parse("mesh=4x4,rings=4")
        .expect("topology parses")
        .to_config(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    ring4.faults.ring_channel_failures = vec![(20_000_000, 3 * 16 + 10)];
    let mut faulted = scaled(MachineKind::NwCache, PrefetchMode::Naive);
    faulted.faults.disk_error_rate = 0.02;
    faulted.faults.mesh_drop_rate = 0.01;
    faulted.faults.ring_channel_failures = vec![(1_000_000, 2)];
    for (label, cfg, spec, digest) in [
        ("nwcache", scaled(MachineKind::NwCache, PrefetchMode::Naive), "sor", 0x0d87_02c1_d6f5_4c7e),
        ("standard", scaled(MachineKind::Standard, PrefetchMode::Naive), "gauss", 0x3d32_1570_40e9_f891),
        ("adaptive", adaptive, "mg", 0xcfd9_6322_59e8_a007),
        ("mesh=8x8,rings=2", topo, "sor", 0x26b7_91df_6b07_6c23),
        ("dcd", dcd, "gauss", 0xb1fa_8bca_19a8_527e),
        ("nwcache faulted", faulted, "sor", 0xd003_1388_54ca_0588),
        ("nwcache optimal", scaled(MachineKind::NwCache, PrefetchMode::Optimal), "sor", 0x7416_b45c_7278_719a),
        ("standard window", scaled(MachineKind::Standard, PrefetchMode::Window), "gauss", 0xe932_12f2_b6ef_cf36),
        ("mesh=4x4,rings=4 failed channel", ring4, "workload:gen:zipf:0.9,ws=384,acc=60,wf=0.3", 0x68a0_88f5_49fc_f19f),
    ] {
        assert_eq!(fnv1a(&snapshot_at(&cfg, spec, 800)), digest, "{label}");
    }
}

/// FNV-1a 64 digests of the canonical CONFIG bytes, the encoding
/// behind `Lab` memo keys and `warm_key`: a change to the walk that
/// moves any of them invalidates every memo and warm-state cache.
#[test]
fn config_bytes_match_the_recorded_digests() {
    use nwcache::checkpoint::config_to_bytes;
    let topo = nwcache::topo::TopoSpec::parse("mesh=8x8,rings=2")
        .expect("topology parses")
        .to_config(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    let mut faulted = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    faulted.faults.disk_error_rate = 0.02;
    faulted.faults.mesh_drop_rate = 0.01;
    faulted.faults.ring_channel_failures = vec![(1_000_000, 2)];
    for (label, cfg, digest) in [
        ("paper nwcache naive", MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive), 0xbe10_9428_b630_d9ed),
        ("paper standard optimal", MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Optimal), 0x193f_eee0_bd1f_5070),
        ("mesh=8x8,rings=2", topo, 0x895e_ddba_2594_6d6e),
        ("nwcache faulted", faulted, 0x0784_2380_78de_6593),
    ] {
        assert_eq!(fnv1a(&config_to_bytes(&cfg)), digest, "{label}");
    }
}

#[test]
fn removed_topology_tags_are_refused_on_restore() {
    // The CONFIG topology tail ends with the I/O placement tag, the
    // ring count, the ring sharding tag and the directory shards. Only
    // tag 0 (spread, page) remains; a file written by a machine with
    // another placement or sharding carries tag 1 and is refused.
    let cfg = nwcache::topo::TopoSpec::parse("mesh=4x4,rings=2")
        .expect("topology parses")
        .to_config(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    let bytes = snapshot_at(&cfg, "sor", 200);
    let config = ckpt_sections(&bytes).into_iter().find(|s| s.0 == sections::CONFIG);
    let fields = varints(&config.expect("checkpoint has a CONFIG section").1);
    let n = fields.len();
    for (what, field) in [("io-placement", &fields[n - 4]), ("ring-shard", &fields[n - 2])] {
        let bad = with_section(&bytes, sections::CONFIG, |p| {
            assert_eq!(p[field.clone()], [0], "{what} tag");
            p.splice(field.clone(), [1]);
        });
        let err = match machine_from_bytes(&bad) {
            Ok(_) => panic!("restore accepted {what} tag 1"),
            Err(e) => e,
        };
        assert_eq!(err.exit_code(), nwcache::ExitCode::CorruptCheckpoint, "{err}");
        assert!(err.to_string().contains(&format!("unknown {what} tag 1")), "{err}");
    }
}

#[test]
fn a_page_size_other_than_4096_is_refused_on_restore() {
    // CONFIG keeps the slot of the retired page-size field, sixth after
    // the machine and prefetch tags, the prefetch window, the node and
    // the I/O-node counts. Only 4096-byte pages are simulated.
    let bytes = snapshot_at(&clean_cfg(1), "sor", 200);
    let config = ckpt_sections(&bytes).into_iter().find(|s| s.0 == sections::CONFIG);
    let page = varints(&config.expect("checkpoint has a CONFIG section").1)[5].clone();
    for size in [2048u64, 8192] {
        let bad = with_section(&bytes, sections::CONFIG, |p| {
            assert_eq!(p[page.clone()], varint(4096)[..], "page-size slot");
            p.splice(page.clone(), varint(size));
        });
        let err = match machine_from_bytes(&bad) {
            Ok(_) => panic!("restore accepted {size}-byte pages"),
            Err(e) => e,
        };
        assert_eq!(err.exit_code(), nwcache::ExitCode::CorruptCheckpoint, "{err}");
        assert!(err.to_string().contains(&format!("page size {size}")), "{err}");
    }
}

/// The PROCS fields the refusal rows below edit, per processor: the
/// offset of its pending action's tag byte, the ranges of its TLB
/// entries' VPNs, and its L1 and L2 ways.
struct ProcFields {
    pending_tag: Option<usize>,
    tlb_vpns: Vec<std::ops::Range<usize>>,
    l1_ways: Vec<WayFields>,
    l2_ways: Vec<WayFields>,
}

/// A cache way in a PROCS payload: its valid flag and the range of its
/// line field.
struct WayFields {
    valid: bool,
    line: std::ops::Range<usize>,
}

fn proc_fields(p: &[u8]) -> Vec<ProcFields> {
    let mut f = Fields { p, pos: 0 };
    let procs = f.next();
    (0..procs)
        .map(|_| {
            f.skip(1); // consumed
            let pending_tag = (f.next() == 1).then(|| {
                let at = f.pos;
                f.skip(2); // tag byte, operand
                at
            });
            let entries = f.next();
            let tlb_vpns = (0..entries).map(|_| (f.take(1), f.skip(1)).0).collect();
            f.skip(4);
            let cache = |f: &mut Fields| {
                let ways = f.next();
                let ways = (0..ways)
                    .map(|_| {
                        let valid = f.next() == 1;
                        let line = f.take(1);
                        f.skip(2); // dirty, last use
                        WayFields { valid, line }
                    })
                    .collect();
                f.skip(4); // clock and statistics
                ways
            };
            let l1_ways = cache(&mut f);
            let l2_ways = cache(&mut f);
            let lines = f.next();
            f.skip(lines + 3); // write-buffer slot
            f.skip(7); // local time, breakdown, pending interrupt
            if f.next() == 1 {
                f.skip(2); // blocked
            }
            f.skip(1); // done
            ProcFields { pending_tag, tlb_vpns, l1_ways, l2_ways }
        })
        .collect()
}

/// The message of the `CorruptCheckpoint` error restoring `bytes` fails
/// with.
fn corrupt_detail(bytes: &[u8]) -> String {
    let err = match machine_from_bytes(bytes) {
        Ok(_) => panic!("restore accepted the edited checkpoint"),
        Err(e) => e,
    };
    assert_eq!(err.exit_code(), nwcache::ExitCode::CorruptCheckpoint, "{err}");
    err.to_string()
}

#[test]
fn a_long_varint_pending_action_tag_is_refused_on_restore() {
    // An action's tag is one raw byte, as in a binary trace record:
    // `0x80 0x00` spells the varint 0 (compute), but it is not a tag.
    // Early in the run, processors wait on page faults.
    let bytes = snapshot_at(&clean_cfg(1), "sor", 100);
    let bad = with_section(&bytes, sections::PROCS, |p| {
        let pending = proc_fields(p).iter().find_map(|f| f.pending_tag);
        let at = pending.expect("a processor has a pending action");
        assert!(p[at] < 4, "tag byte {}", p[at]);
        p.splice(at..at + 1, [0x80, 0x00]);
    });
    let detail = corrupt_detail(&bad);
    assert!(detail.contains("unknown action tag byte 128"), "{detail}");
}

/// Sets of the L1, a 16 KB direct-mapped cache of 64-byte lines.
const L1_SETS: u64 = 256;

#[test]
fn a_cache_line_past_2_62_is_refused_on_restore() {
    // A way packs its valid and dirty bits above a 62-bit line.
    let bytes = snapshot_at(&clean_cfg(1), "sor", 800);
    let with_line = |line: u64| {
        with_section(&bytes, sections::PROCS, |p| {
            let way = proc_fields(p)[0].l1_ways[0].line.clone();
            p.splice(way, varint(line));
        })
    };
    let detail = corrupt_detail(&with_line(1 << 62));
    assert!(detail.contains("line 4611686018427387904, past 2^62"), "{detail}");
    // The largest line set 0 can hold.
    assert!(machine_from_bytes(&with_line((1 << 62) - L1_SETS)).is_ok());
}

#[test]
fn a_cache_line_in_another_set_is_refused_on_restore() {
    // No probe would find the line, and no page purge would drop it.
    let bytes = snapshot_at(&clean_cfg(1), "sor", 800);
    let mut want = String::new();
    let bad = with_section(&bytes, sections::PROCS, |p| {
        let ways = &proc_fields(p)[0].l1_ways;
        let set = ways.iter().position(|w| w.valid).expect("a valid L1 way");
        let field = ways[set].line.clone();
        let line = read_varint(p, &mut field.start.clone()).unwrap() + 1;
        want = format!("set {set} holds line {line} of another set");
        p.splice(field, varint(line));
    });
    let detail = corrupt_detail(&bad);
    assert!(detail.contains(&want), "{detail}");
}

#[test]
fn a_cache_line_in_two_ways_of_one_set_is_refused_on_restore() {
    // A purge would invalidate one copy and leave the other.
    let bytes = snapshot_at(&clean_cfg(1), "sor", 800);
    let mut want = String::new();
    let bad = with_section(&bytes, sections::PROCS, |p| {
        let ways = &proc_fields(p)[0].l2_ways;
        // The L2 is 4-way: find a set with two valid ways.
        let set = (0..ways.len() / 4)
            .find(|s| ways[4 * s..4 * s + 4].iter().filter(|w| w.valid).count() >= 2)
            .expect("an L2 set with two valid ways");
        let mut valid = ways[4 * set..4 * set + 4].iter().filter(|w| w.valid);
        let (first, second) = (valid.next().unwrap(), valid.next().unwrap());
        let line = read_varint(p, &mut first.line.start.clone()).unwrap();
        want = format!("set {set} holds line {line} in two ways");
        p.splice(second.line.clone(), varint(line));
    });
    let detail = corrupt_detail(&bad);
    assert!(detail.contains(&want), "{detail}");
}

#[test]
fn a_tlb_entry_past_the_footprint_is_refused_on_restore() {
    let bytes = snapshot_at(&clean_cfg(1), "sor", 800);
    let npages = restore(&bytes).npages();
    let bad = with_section(&bytes, sections::PROCS, |p| {
        let fields = proc_fields(p);
        let f = fields.iter().find(|f| !f.tlb_vpns.is_empty()).expect("a TLB holds a page");
        p.splice(f.tlb_vpns[0].clone(), varint(npages));
    });
    let detail = corrupt_detail(&bad);
    let want = format!("TLB caches page {npages}, past the {npages}-page footprint");
    assert!(detail.contains(&want), "{detail}");
}

#[test]
fn legacy_tracer_payload_restores_and_finishes_identically() {
    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    let bytes = snapshot_at(&cfg, "sor", 800);
    let legacy = with_legacy_tracer(&bytes);
    // This state with the tracer's payload for pages 0-3 (the machine
    // that wrote it also filled the write-buffer slots, now empty).
    assert_eq!(fnv1a(&legacy), 0xda7d_939d_597f_b994);
    let mut resumed = restore(&legacy);
    // The records are discarded: the restored machine saves the empty
    // section again, and finishes like the uninterrupted run.
    assert_eq!(machine_to_bytes("sor", &mut resumed), bytes);
    assert_eq!(finish(resumed), finish(build_machine(&cfg, "sor")));
}

/// A cursor over a section payload in which every field is a varint.
struct Fields<'a> {
    p: &'a [u8],
    pos: usize,
}

impl Fields<'_> {
    fn next(&mut self) -> u64 {
        read_varint(self.p, &mut self.pos).expect("field decodes")
    }

    fn skip(&mut self, n: u64) {
        (0..n).for_each(|_| {
            self.next();
        });
    }

    /// The range of the next `n` fields.
    fn take(&mut self, n: u64) -> std::ops::Range<usize> {
        let start = self.pos;
        self.skip(n);
        start..self.pos
    }
}

/// The PROCS payload range of each processor's write-buffer slot: a
/// line count, the lines, and three counters.
fn write_buffer_slots(p: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut f = Fields { p, pos: 0 };
    let procs = f.next();
    (0..procs)
        .map(|_| {
            f.skip(1); // consumed
            if f.next() == 1 {
                f.skip(2); // pending action
            }
            let tlb = f.next();
            f.skip(2 * tlb + 4);
            for _ in 0..2 {
                let ways = f.next();
                f.skip(4 * ways + 4); // L1, then L2
            }
            let start = f.pos;
            let lines = f.next();
            f.skip(lines + 3);
            let slot = start..f.pos;
            f.skip(7); // local time, breakdown, pending interrupt
            if f.next() == 1 {
                f.skip(2); // blocked
            }
            f.skip(1); // done
            slot
        })
        .collect()
}

/// The RING payload range of every four-counter transmitter slot of a
/// `rings`-ring fabric: each channel's in global channel order, then
/// each node's arbiter.
fn transmitter_slots(p: &[u8], rings: usize) -> Vec<std::ops::Range<usize>> {
    let mut f = Fields { p, pos: 0 };
    assert_eq!(f.next(), 1, "machine has a ring fabric");
    let mut slots = Vec::new();
    let mut channels = 0;
    for _ in 0..rings {
        channels = f.next();
        for _ in 0..channels {
            slots.push(f.take(4));
            let pages = f.next();
            f.skip(2 * pages + 5); // pages, dead flag, statistics
        }
    }
    slots.extend((0..channels).map(|_| f.take(4)));
    slots
}

fn varints_of(values: &[u64]) -> Vec<u8> {
    values.iter().flat_map(|&v| varint(v)).collect()
}

/// The write-buffer and transmitter slots of the four-ring
/// failed-channel checkpoint below, as machines wrote them while they
/// still modelled both: each processor's buffered lines and counters,
/// and every non-zero transmitter slot by index (channels 0-63, then
/// the arbiters of nodes 0-15).
const LEGACY_WRITE_BUFFERS: [&[u64]; 16] = [
    &[4, 13446, 226, 72, 10408, 0, 7, 0], &[4, 16413, 10323, 1410, 4837, 0, 5, 0],
    &[4, 1085, 170, 910, 70, 0, 4, 0], &[4, 2475, 1031, 1261, 123, 0, 7, 0],
    &[4, 3904, 12373, 2374, 8062, 0, 9, 0], &[4, 873, 4608, 1540, 1614, 0, 5, 0],
    &[3, 24373, 121, 15094, 0, 3, 0], &[4, 9643, 16164, 6394, 5915, 0, 4, 0],
    &[4, 6496, 1208, 3111, 3605, 0, 5, 0], &[4, 2570, 3918, 656, 185, 0, 8, 0],
    &[3, 8797, 14079, 12703, 0, 3, 0], &[4, 12735, 956, 4803, 121, 0, 8, 0],
    &[4, 439, 2731, 555, 78, 0, 6, 0], &[2, 5764, 16016, 0, 2, 0],
    &[0, 0, 0, 0], &[2, 13863, 1984, 0, 2, 0],
];
const LEGACY_TRANSMITTERS: [(usize, [u64; 4]); 30] = [
    (1, [28119240, 656, 0, 1]), (3, [33946032, 656, 0, 1]),
    (6, [16679236, 656, 0, 1]), (7, [20368123, 656, 0, 1]),
    (9, [35215478, 656, 0, 1]), (11, [31918883, 656, 0, 1]),
    (16, [34537856, 656, 0, 1]), (17, [28169683, 656, 0, 1]),
    (24, [28939527, 656, 0, 1]), (25, [35224761, 656, 0, 1]),
    (26, [36934947, 656, 0, 1]), (27, [26793277, 656, 0, 1]),
    (32, [33128463, 1312, 0, 2]), (39, [17866814, 656, 0, 1]),
    (40, [20155504, 656, 0, 1]), (50, [33197203, 656, 0, 1]),
    (51, [20281153, 1312, 0, 2]), (55, [31435614, 656, 0, 1]),
    (57, [25385605, 656, 0, 1]), (59, [25542626, 656, 0, 1]),
    (64, [34537856, 1968, 0, 3]), (65, [28169683, 1312, 0, 2]),
    (66, [33197203, 656, 0, 1]), (67, [33946032, 1968, 0, 3]),
    (70, [16679236, 656, 0, 1]), (71, [31435614, 1968, 0, 3]),
    (72, [28939527, 1312, 0, 2]), (73, [35224761, 1968, 0, 3]),
    (74, [36934947, 656, 0, 1]), (75, [31918883, 1968, 0, 3]),
];

#[test]
fn legacy_write_buffer_and_transmitter_slots_restore_and_finish_identically() {
    let mut cfg = nwcache::topo::TopoSpec::parse("mesh=4x4,rings=4")
        .expect("topology parses")
        .to_config(MachineKind::NwCache, PrefetchMode::Naive, SCALE);
    cfg.faults.ring_channel_failures = vec![(20_000_000, 3 * 16 + 10)];
    let spec = "workload:gen:zipf:0.9,ws=384,acc=60,wf=0.3";
    let bytes = snapshot_at(&cfg, spec, 800);
    let empty = varints_of(&[0; 4]);
    let legacy = with_section(&bytes, sections::PROCS, |p| {
        let slots = write_buffer_slots(p);
        for (slot, old) in slots.into_iter().zip(LEGACY_WRITE_BUFFERS).rev() {
            assert_eq!(p[slot.clone()], empty[..]);
            p.splice(slot, varints_of(old));
        }
    });
    let legacy = with_section(&legacy, sections::RING, |p| {
        let slots = transmitter_slots(p, 4);
        assert!(slots.iter().all(|s| p[s.clone()] == empty[..]), "transmitter slots are zero");
        for (i, old) in LEGACY_TRANSMITTERS.into_iter().rev() {
            p.splice(slots[i].clone(), varints_of(&old));
        }
    });
    // The exact file the machine wrote at this point while it still
    // modelled the write buffer and the transmitters.
    assert_eq!(fnv1a(&legacy), 0xe0d7_b07b_85c9_7070);
    let mut resumed = restore(&legacy);
    // The slots are discarded: the restored machine saves them empty
    // again, and finishes like the uninterrupted run.
    assert_eq!(machine_to_bytes(spec, &mut resumed), bytes);
    assert_eq!(finish(resumed), finish(build_machine(&cfg, spec)));
}

/// The ENGINE payload ranges of its three retired counter slots: the
/// event queue's third and fourth fields (the calendar wheel's cursor
/// and the scheduled-event count) and the machine's dispatched-event
/// count, the third field from the end. Every scalar is a varint, and
/// a varint's last byte is the only one with its high bit clear, so
/// the trailing fields can be found from the end.
fn retired_engine_slots(p: &[u8]) -> [std::ops::Range<usize>; 3] {
    let mut f = Fields { p, pos: 0 };
    f.skip(2); // now, seq
    let (cursor, scheduled) = (f.take(1), f.take(1));
    let ends: Vec<usize> = (0..p.len()).filter(|&i| p[i] & 0x80 == 0).map(|i| i + 1).collect();
    let dispatched = ends[ends.len() - 4]..ends[ends.len() - 3];
    [cursor, scheduled, dispatched]
}

/// Rewrite ENGINE retired slot `which` (an index into
/// `retired_engine_slots`) of a mid-run paper-cell checkpoint with
/// each of `values(now, seq)`, and check the restored machine saves
/// the canonical bytes again and finishes like the uninterrupted run.
fn retired_engine_slot_is_ignored(which: usize, values: impl Fn(u64, u64) -> Vec<u64>) {
    let cfg = clean_cfg(1);
    let mut m = build_machine(&cfg, "sor");
    let uninterrupted = finish_in_place(&mut m);
    let half = m.events_dispatched() / 2;
    let bytes = snapshot_at(&cfg, "sor", half);
    let engine = ckpt_sections(&bytes).into_iter().find(|s| s.0 == sections::ENGINE);
    let p = engine.expect("checkpoint has an ENGINE section").1;
    let mut head = Fields { p: &p, pos: 0 };
    let (now, seq) = (head.next(), head.next());
    // A save writes the cursor as `now >> 6`, the scheduled count as
    // the next sequence number, and the dispatched count.
    let slot = retired_engine_slots(&p)[which].clone();
    let saved = read_varint(&p, &mut slot.start.clone()).unwrap();
    assert_eq!(saved, [now >> 6, seq, half][which]);
    for value in values(now, seq) {
        assert_ne!(value, saved);
        let edited = with_section(&bytes, sections::ENGINE, |p| {
            p.splice(slot.clone(), varint(value));
        });
        let mut resumed = restore(&edited);
        assert_eq!(machine_to_bytes("sor", &mut resumed), bytes, "slot {which} = {value}");
        assert_eq!(finish(resumed), uninterrupted, "slot {which} = {value}");
    }
}

/// A cursor ahead of the clock used to be trusted, and the restored
/// queue delivered events out of time order.
#[test]
fn a_rewritten_engine_cursor_slot_is_ignored_on_restore() {
    retired_engine_slot_is_ignored(0, |now, _| vec![(now >> 6) + 100, (now >> 6) + 1023, 0]);
}

#[test]
fn a_rewritten_engine_scheduled_count_slot_is_ignored_on_restore() {
    retired_engine_slot_is_ignored(1, |_, seq| vec![0, seq + 5]);
}

#[test]
fn a_rewritten_engine_dispatched_count_slot_is_ignored_on_restore() {
    retired_engine_slot_is_ignored(2, |_, _| vec![0]);
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
