//! Whole-machine checkpoint files (`nwckpt-v1`).
//!
//! A checkpoint captures a [`Machine`] mid-run so the simulation can be
//! resumed later — after a crash, on another process, or to fork a run
//! — and produce the *bit-identical* remainder of the run. The file is
//! the `nwckpt-v1` container from [`nw_sim::ckpt`]: magic + version,
//! LEB128 varints, per-section length framing and a trailing whole-file
//! checksum, so torn or corrupted files are rejected with a structured
//! error before any state is interpreted.
//!
//! ## Layout
//!
//! | id | section | contents |
//! |----|---------|----------|
//! | 1  | META    | workload spec, app name, events dispatched, sim time |
//! | 2  | CONFIG  | the full [`MachineConfig`] including the fault plan |
//! | 3  | ENGINE  | event queue (counters + pending events), run-loop state |
//! | 4  | PROCS   | per-processor stream position, caches, TLB, write buffer |
//! | 5  | MEMHIER | memory/I/O buses, coherence directory |
//! | 6  | DISKS   | controller caches, mechanics, log disks, fault injectors |
//! | 7  | RING    | optical ring slot sets, NWCache interface FIFOs |
//! | 8  | MESH    | link horizons, traffic tallies, fault injector |
//! | 9  | VM      | page table, frame pools, barrier, protocol maps |
//! | 10 | METRICS | machine-owned metric accumulators |
//! | 11 | TRACER  | always two zero counts; a legacy payload is read and discarded |
//! | 12 | PREFETCH | adaptive-prefetch detector state (adaptive runs only) |
//!
//! ## Restore model
//!
//! Action streams are pure functions of `(workload, nodes, scale,
//! seed)`, so they are not serialized: restore re-parses the META
//! workload spec, rebuilds the machine from the CONFIG section, and
//! fast-forwards each rebuilt stream by its consumed-action count. A
//! consequence worth knowing: resuming a `workload:<trace-file>` run
//! needs that trace file present at its recorded path.

use crate::error::SimError;
use crate::config::{
    FaultPlan, IoPlacement, MachineConfig, MachineKind, PrefetchMode, ReplacementPolicy, RingShard,
};
use crate::machine::Machine;
use crate::workload::AppSel;
use nw_sim::atomic_write::write_atomic;
use nw_sim::ckpt::{Ckpt, CkptError, CkptReader, CkptWriter};
use nw_sim::Time;
use std::path::Path;

/// Section ids of the `nwckpt-v1` machine checkpoint, in file order.
pub mod sections {
    /// Workload spec + progress header.
    pub const META: u32 = 1;
    /// Full machine configuration.
    pub const CONFIG: u32 = 2;
    /// Event queue and run-loop state.
    pub const ENGINE: u32 = 3;
    /// Per-processor state.
    pub const PROCS: u32 = 4;
    /// Buses and coherence directory.
    pub const MEMHIER: u32 = 5;
    /// Disk controllers and fault injectors.
    pub const DISKS: u32 = 6;
    /// Optical ring and interfaces.
    pub const RING: u32 = 7;
    /// Mesh interconnect.
    pub const MESH: u32 = 8;
    /// Virtual-memory state.
    pub const VM: u32 = 9;
    /// Metric accumulators.
    pub const METRICS: u32 = 10;
    /// The retired page-lifecycle tracer: written as two zero counts
    /// so checkpoint bytes stay unchanged; restore discards any payload.
    pub const TRACER: u32 = 11;
    /// Adaptive-prefetch detector state. Written only for adaptive
    /// runs, the one mode with machine-side prefetch state.
    pub const PREFETCH: u32 = 12;

    /// Human-readable section name for validators and diff output.
    pub fn name(id: u32) -> &'static str {
        match id {
            META => "META",
            CONFIG => "CONFIG",
            ENGINE => "ENGINE",
            PROCS => "PROCS",
            MEMHIER => "MEMHIER",
            DISKS => "DISKS",
            RING => "RING",
            MESH => "MESH",
            VM => "VM",
            METRICS => "METRICS",
            TRACER => "TRACER",
            PREFETCH => "PREFETCH",
            _ => "UNKNOWN",
        }
    }
}

/// The checkpoint's META header: enough to describe the snapshot
/// without rebuilding the machine.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CkptMeta {
    /// Workload spec string ([`AppSel::parse`] syntax) used to rebuild
    /// the action streams at restore.
    pub spec: String,
    /// Workload display name at save time.
    pub app: String,
    /// Events dispatched when the snapshot was taken.
    pub events: u64,
    /// Simulated time of the snapshot (pcycles).
    pub now: Time,
}

/// The META section: what the snapshot is, readable without
/// rebuilding the machine.
fn meta(c: &mut Ckpt, m: &mut CkptMeta) -> Result<(), CkptError> {
    c.section(sections::META, |c| {
        c.str(&mut m.spec)?;
        c.str(&mut m.app)?;
        c.u64(&mut m.events)?;
        c.u64(&mut m.now)
    })
}

/// The CONFIG section's fields: the full [`MachineConfig`], fault plan
/// included. Generated-topology fields ride as an optional trailing
/// block so every pre-topology checkpoint of the default machine keeps
/// its exact bytes: written only when some field differs from the
/// legacy defaults, read back only when the section has bytes left (a
/// restore starts from a config holding those defaults).
fn config(c: &mut Ckpt, cfg: &mut MachineConfig) -> Result<(), CkptError> {
    use MachineKind as K;
    use PrefetchMode as P;
    use ReplacementPolicy as R;
    // Exhaustive, so a new field cannot be left out of checkpoints.
    let MachineConfig {
        kind, prefetch, prefetch_window, nodes, io_nodes, page_bytes, tlb_miss_latency,
        tlb_shootdown_latency, interrupt_latency, memory_per_node, min_free_frames, replacement,
        mesh_width, mesh_height, io_placement, ring_channels, ring_slots_per_channel,
        ring_round_trip, ring_count, ring_shard, dir_shards, disk_cache_pages, disk_flush_delay,
        tlb_entries, l1_latency, l2_latency, mem_latency, dir_latency, wb_entries, ctl_msg_bytes,
        quantum, app_scale, seed, faults,
    } = cfg;
    let FaultPlan {
        seed: fault_seed, disk_error_rate, disk_stuck_rate, ring_channel_failures,
        mesh_drop_rate, mesh_corrupt_rate, max_retries, retry_backoff, request_timeout,
    } = faults;
    c.choice(kind, &[K::Standard, K::NwCache, K::Dcd], "machine-kind")?;
    c.choice(prefetch, &[P::Optimal, P::Naive, P::Window, P::Adaptive], "prefetch-mode")?;
    c.usize(prefetch_window)?;
    c.u32(nodes)?;
    c.u32(io_nodes)?;
    for v in [page_bytes, tlb_miss_latency, tlb_shootdown_latency, interrupt_latency, memory_per_node] {
        c.u64(v)?;
    }
    c.u32(min_free_frames)?;
    c.choice(replacement, &[R::Lru, R::Fifo, R::Clock], "replacement-policy")?;
    c.usize(ring_channels)?;
    c.usize(ring_slots_per_channel)?;
    c.u64(ring_round_trip)?;
    c.usize(disk_cache_pages)?;
    c.u64(disk_flush_delay)?;
    c.usize(tlb_entries)?;
    for v in [l1_latency, l2_latency, mem_latency, dir_latency] {
        c.u64(v)?;
    }
    c.usize(wb_entries)?;
    c.u64(ctl_msg_bytes)?;
    c.u64(quantum)?;
    c.f64(app_scale)?;
    c.u64(seed)?;
    c.u64(fault_seed)?;
    c.f64(disk_error_rate)?;
    c.f64(disk_stuck_rate)?;
    c.list(ring_channel_failures, usize::MAX, 2, "ring channel failures", |c, (t, ch)| {
        c.u64(t)?;
        c.u32(ch)
    })?;
    c.f64(mesh_drop_rate)?;
    c.f64(mesh_corrupt_rate)?;
    c.u32(max_retries)?;
    c.u64(retry_backoff)?;
    c.u64(request_timeout)?;
    let topology = if c.loading() {
        c.remaining() > 0
    } else {
        *mesh_width != 0
            || *mesh_height != 0
            || *io_placement != IoPlacement::Spread
            || *ring_count != 1
            || *ring_shard != RingShard::Page
            || *dir_shards != 1
    };
    if topology {
        c.u32(mesh_width)?;
        c.u32(mesh_height)?;
        let places = [IoPlacement::Spread, IoPlacement::Corners, IoPlacement::Row];
        c.choice(io_placement, &places, "io-placement")?;
        c.usize(ring_count)?;
        c.choice(ring_shard, &[RingShard::Page, RingShard::Region], "ring-shard")?;
        c.usize(dir_shards)?;
    }
    Ok(())
}

/// Canonical bytes of a [`MachineConfig`] — the exact CONFIG-section
/// encoding a checkpoint of this config would carry. Two configs have
/// equal bytes iff every field (fault plan and topology included) is
/// equal, which is what makes the encoding usable as a cache identity.
pub fn config_to_bytes(cfg: &MachineConfig) -> Vec<u8> {
    let mut w = CkptWriter::new();
    Ckpt::Save(&mut w)
        .section(sections::CONFIG, |c| config(c, &mut cfg.clone()))
        .expect("saving cannot fail");
    w.finish()
}

/// What one dispatched event is. A warmup of `N` events stops at a
/// different point of the run whenever this changes, so it is part of
/// [`warm_key`]. Version 1 delivered every flush check as its own
/// queue entry; version 2 delivers a run of consecutive flush checks
/// of one disk at one time as one entry.
pub const EVENT_ACCOUNTING_VERSION: u64 = 2;

/// Content address of a warm machine state: FNV-1a 64 over the
/// canonical CONFIG bytes, the workload spec, the warmup event count
/// and the [`EVENT_ACCOUNTING_VERSION`]. The server's warm-state cache
/// keys on this, so a cached post-warmup checkpoint is only ever
/// replayed into a run whose config, workload, and warmup prefix are
/// all bit-equal to the run that produced it — the property the
/// warm-equals-cold guarantee rests on.
pub fn warm_key(cfg: &MachineConfig, spec: &str, warmup_events: u64) -> u64 {
    let mut bytes = config_to_bytes(cfg);
    bytes.extend_from_slice(spec.as_bytes());
    bytes.extend_from_slice(&warmup_events.to_le_bytes());
    bytes.extend_from_slice(&EVENT_ACCOUNTING_VERSION.to_le_bytes());
    nw_sim::ckpt::fnv1a(&bytes)
}

/// Map a format-level [`CkptError`] onto the machine-level error,
/// attaching the file (or `<memory>`) the bytes came from.
fn ckpt_to_sim(origin: &str, e: CkptError) -> SimError {
    match e {
        CkptError::BadVersion { found, expected } => SimError::CheckpointVersion {
            path: origin.to_string(),
            found,
            expected,
        },
        other => SimError::CheckpointCorrupt {
            path: origin.to_string(),
            detail: other.to_string(),
        },
    }
}

/// Serialize a machine snapshot. `spec` must be the [`AppSel::parse`]
/// spec the machine's workload was built from — restore re-parses it to
/// rebuild the action streams. The machine is borrowed `&mut` because
/// saving walks the same field list a restore overwrites; it is left
/// unchanged.
pub fn machine_to_bytes(spec: &str, m: &mut Machine) -> Vec<u8> {
    let mut w = CkptWriter::new();
    let c = &mut Ckpt::Save(&mut w);
    let mut head = CkptMeta {
        spec: spec.to_string(),
        app: m.app_name.to_string(),
        events: m.events_dispatched,
        now: m.queue.now(),
    };
    meta(c, &mut head)
        .and_then(|()| c.section(sections::CONFIG, |c| config(c, &mut m.cfg)))
        .and_then(|()| m.ckpt(c))
        .expect("saving cannot fail");
    w.finish()
}

fn decode(bytes: &[u8], origin: &str) -> Result<(CkptMeta, Machine), SimError> {
    let corrupt = |e| ckpt_to_sim(origin, e);
    let mut r = CkptReader::new(bytes).map_err(corrupt)?;
    let mut head = CkptMeta::default();
    meta(&mut Ckpt::Load(&mut r), &mut head).map_err(corrupt)?;
    let mut cfg = MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Naive);
    Ckpt::Load(&mut r)
        .section(sections::CONFIG, |c| {
            config(c, &mut cfg)?;
            // Checked before the workload is built from it.
            cfg.validate()
                .map_err(|what| c.invalid(format!("CONFIG does not validate: {what}")))
        })
        .map_err(corrupt)?;
    let build = AppSel::parse(&head.spec)?.build(&cfg)?;
    let mut m = Machine::try_from_build(cfg, build)?;
    m.ckpt(&mut Ckpt::Load(&mut r)).map_err(corrupt)?;
    r.finish().map_err(corrupt)?;
    if m.events_dispatched != head.events {
        return Err(SimError::CheckpointCorrupt {
            path: origin.to_string(),
            detail: format!(
                "META says {} events dispatched, ENGINE restored {}",
                head.events, m.events_dispatched
            ),
        });
    }
    Ok((head, m))
}

/// Rebuild a machine from checkpoint bytes. The inverse of
/// [`machine_to_bytes`]: parse the META spec, rebuild from CONFIG,
/// overlay every state section. Format problems surface as
/// [`SimError::CheckpointCorrupt`] / [`SimError::CheckpointVersion`];
/// workload problems (unknown app, missing trace file) as the usual
/// build errors.
pub fn machine_from_bytes(bytes: &[u8]) -> Result<(CkptMeta, Machine), SimError> {
    decode(bytes, "<memory>")
}

/// Save a snapshot of `m` to `path` atomically (temp + rename): a crash
/// mid-save can never leave a truncated checkpoint at `path`.
pub fn save_file(path: &Path, spec: &str, m: &mut Machine) -> Result<(), SimError> {
    let bytes = machine_to_bytes(spec, m);
    write_atomic(path, &bytes).map_err(|e| SimError::Io {
        path: path.display().to_string(),
        detail: e.to_string(),
    })
}

/// Load and fully restore a checkpoint file.
pub fn load_file(path: &Path) -> Result<(CkptMeta, Machine), SimError> {
    let origin = path.display().to_string();
    let bytes = std::fs::read(path).map_err(|e| SimError::Io {
        path: origin.clone(),
        detail: e.to_string(),
    })?;
    decode(&bytes, &origin)
}

/// One section of a validated checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section id.
    pub id: u32,
    /// Section name (`"UNKNOWN"` for unrecognized ids).
    pub name: &'static str,
    /// Payload length in bytes.
    pub bytes: usize,
}

/// Result of a structural validation pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CkptSummary {
    /// Total file size, checksum included.
    pub file_bytes: usize,
    /// Sections in file order.
    pub sections: Vec<SectionInfo>,
    /// The decoded META header.
    pub meta: CkptMeta,
}

/// Structurally validate checkpoint bytes *without* rebuilding the
/// workload: verify magic/version/checksum, walk every section frame,
/// and decode the META header. Cheap enough to run on every autosave.
pub fn validate_bytes(bytes: &[u8]) -> Result<CkptSummary, CkptError> {
    let sections = raw_sections(bytes)?
        .into_iter()
        .map(|(id, payload)| SectionInfo {
            id,
            name: sections::name(id),
            bytes: payload.len(),
        })
        .collect();
    // Second pass for the META header (always first).
    let mut head = CkptMeta::default();
    meta(&mut Ckpt::Load(&mut CkptReader::new(bytes)?), &mut head)?;
    Ok(CkptSummary {
        file_bytes: bytes.len(),
        sections,
        meta: head,
    })
}

/// Every `(id, payload)` section of `bytes`, in file order.
fn raw_sections(bytes: &[u8]) -> Result<Vec<(u32, &[u8])>, CkptError> {
    let mut r = CkptReader::new(bytes)?;
    let mut v = Vec::new();
    while let Some(s) = r.next_raw_section()? {
        v.push(s);
    }
    r.finish()?;
    Ok(v)
}

/// [`validate_bytes`] on a file, with I/O and format errors mapped to
/// structured [`SimError`]s carrying the path.
pub fn validate_file(path: &Path) -> Result<CkptSummary, SimError> {
    let origin = path.display().to_string();
    let bytes = std::fs::read(path).map_err(|e| SimError::Io {
        path: origin.clone(),
        detail: e.to_string(),
    })?;
    validate_bytes(&bytes).map_err(|e| ckpt_to_sim(&origin, e))
}

/// How one section pair compares between two checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SectionDiff {
    /// Payloads are byte-identical.
    Same {
        /// Section id.
        id: u32,
        /// Payload length.
        bytes: usize,
    },
    /// Payloads differ.
    Differ {
        /// Section id.
        id: u32,
        /// Payload length in the first file.
        a_bytes: usize,
        /// Payload length in the second file.
        b_bytes: usize,
        /// Offset (within the payload) of the first differing byte.
        first_diff: usize,
    },
    /// The section exists only in the first file.
    OnlyInA {
        /// Section id.
        id: u32,
    },
    /// The section exists only in the second file.
    OnlyInB {
        /// Section id.
        id: u32,
    },
}

impl SectionDiff {
    /// The section id this entry describes.
    pub fn id(&self) -> u32 {
        match *self {
            SectionDiff::Same { id, .. }
            | SectionDiff::Differ { id, .. }
            | SectionDiff::OnlyInA { id }
            | SectionDiff::OnlyInB { id } => id,
        }
    }

    /// Whether the two files agree on this section.
    pub fn is_same(&self) -> bool {
        matches!(self, SectionDiff::Same { .. })
    }
}

/// Compare two checkpoints section by section. Both inputs must be
/// structurally valid; payloads are compared as raw bytes (the codec is
/// canonical — hash containers dump sorted — so byte equality is state
/// equality).
pub fn diff_bytes(a: &[u8], b: &[u8]) -> Result<Vec<SectionDiff>, CkptError> {
    let sa = raw_sections(a)?;
    let sb = raw_sections(b)?;
    let mut out = Vec::new();
    let n = sa.len().max(sb.len());
    for i in 0..n {
        match (sa.get(i), sb.get(i)) {
            (Some(&(id, pa)), Some(&(_, pb))) => {
                if pa == pb {
                    out.push(SectionDiff::Same {
                        id,
                        bytes: pa.len(),
                    });
                } else {
                    let first_diff = pa
                        .iter()
                        .zip(pb.iter())
                        .position(|(x, y)| x != y)
                        .unwrap_or_else(|| pa.len().min(pb.len()));
                    out.push(SectionDiff::Differ {
                        id,
                        a_bytes: pa.len(),
                        b_bytes: pb.len(),
                        first_diff,
                    });
                }
            }
            (Some(&(id, _)), None) => out.push(SectionDiff::OnlyInA { id }),
            (None, Some(&(id, _))) => out.push(SectionDiff::OnlyInB { id }),
            (None, None) => unreachable!(),
        }
    }
    Ok(out)
}

/// [`diff_bytes`] on two files, with errors mapped to structured
/// [`SimError`]s carrying the offending path.
pub fn diff_files(a: &Path, b: &Path) -> Result<Vec<SectionDiff>, SimError> {
    let read = |p: &Path| -> Result<Vec<u8>, SimError> {
        std::fs::read(p).map_err(|e| SimError::Io {
            path: p.display().to_string(),
            detail: e.to_string(),
        })
    };
    let ba = read(a)?;
    let bb = read(b)?;
    // Attribute a format error to whichever file is malformed.
    validate_bytes(&ba).map_err(|e| ckpt_to_sim(&a.display().to_string(), e))?;
    validate_bytes(&bb).map_err(|e| ckpt_to_sim(&b.display().to_string(), e))?;
    diff_bytes(&ba, &bb).map_err(|e| ckpt_to_sim(&a.display().to_string(), e))
}

impl Machine {
    /// Snapshot this machine into `nwckpt-v1` bytes. `spec` must be the
    /// workload spec the machine was built from (see
    /// [`machine_to_bytes`]).
    pub fn checkpoint(&mut self, spec: &str) -> Vec<u8> {
        machine_to_bytes(spec, self)
    }

    /// Rebuild a machine from a snapshot produced by
    /// [`Machine::checkpoint`].
    pub fn restore(bytes: &[u8]) -> Result<(CkptMeta, Machine), SimError> {
        machine_from_bytes(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::RunOutcome;
    use nw_apps::AppId;

    fn cfg() -> MachineConfig {
        MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, 0.05)
    }

    fn machine() -> Machine {
        Machine::try_new(cfg(), AppId::Sor).unwrap()
    }

    #[test]
    fn round_trip_mid_run_finishes_identically() {
        // Reference: run to completion in one go.
        let mut reference = machine();
        let expected = reference.try_run().unwrap();

        // Snapshot after a prefix, restore, finish: identical metrics.
        let mut m = machine();
        assert!(matches!(
            m.try_run_events(200).unwrap(),
            RunOutcome::Paused
        ));
        let bytes = m.checkpoint("sor");
        let (meta, mut restored) = Machine::restore(&bytes).unwrap();
        assert_eq!(meta.spec, "sor");
        assert_eq!(meta.app, "sor");
        assert_eq!(meta.events, 200);
        let got = match restored.try_run_events(u64::MAX).unwrap() {
            RunOutcome::Done(metrics) => *metrics,
            RunOutcome::Paused => panic!("unbounded run paused"),
        };
        assert_eq!(got, expected);
    }

    #[test]
    fn snapshot_is_canonical() {
        // Save → restore → save produces byte-identical files.
        let mut m = machine();
        let _ = m.try_run_events(300).unwrap();
        let bytes = m.checkpoint("sor");
        let (_, mut restored) = Machine::restore(&bytes).unwrap();
        let again = restored.checkpoint("sor");
        assert_eq!(bytes, again);
        for d in diff_bytes(&bytes, &again).unwrap() {
            assert!(d.is_same(), "{d:?}");
        }
    }

    #[test]
    fn validate_lists_all_sections() {
        let mut m = machine();
        let _ = m.try_run_events(200).unwrap();
        let s = validate_bytes(&m.checkpoint("sor")).unwrap();
        let ids: Vec<u32> = s.sections.iter().map(|x| x.id).collect();
        assert_eq!(ids, (1..=11).collect::<Vec<u32>>());
        assert_eq!(s.meta.events, 200);
        assert!(s.sections.iter().all(|x| x.name != "UNKNOWN"));
    }

    #[test]
    fn adaptive_checkpoints_append_prefetch_section() {
        let cfg =
            MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Adaptive, 0.05);
        let mut m = Machine::try_new(cfg, AppId::Sor).unwrap();
        let _ = m.try_run_events(200).unwrap();
        let s = validate_bytes(&m.checkpoint("sor")).unwrap();
        let ids: Vec<u32> = s.sections.iter().map(|x| x.id).collect();
        assert_eq!(ids, (1..=12).collect::<Vec<u32>>());
        assert!(s.sections.iter().all(|x| x.name != "UNKNOWN"));
    }

    #[test]
    fn diff_pinpoints_drift() {
        let mut a = machine();
        let _ = a.try_run_events(200).unwrap();
        let mut b = machine();
        let _ = b.try_run_events(400).unwrap();
        let diffs = diff_bytes(&a.checkpoint("sor"), &b.checkpoint("sor")).unwrap();
        // CONFIG must agree; ENGINE must differ (different event counts).
        assert!(diffs
            .iter()
            .any(|d| d.id() == sections::CONFIG && d.is_same()));
        assert!(diffs
            .iter()
            .any(|d| d.id() == sections::ENGINE && !d.is_same()));
    }

    #[test]
    fn corrupt_bytes_are_structured_errors() {
        let mut m = machine();
        let _ = m.try_run_events(200).unwrap();
        let good = m.checkpoint("sor");

        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        match machine_from_bytes(&flipped) {
            Err(SimError::CheckpointCorrupt { detail, .. }) => {
                assert!(detail.contains("checksum"), "{detail}")
            }
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("accepted bit-flipped bytes"),
        }

        match machine_from_bytes(&good[..good.len() / 2]) {
            Err(SimError::CheckpointCorrupt { .. }) => {}
            Err(e) => panic!("wrong error: {e}"),
            Ok(_) => panic!("accepted truncated bytes"),
        }
    }
}
