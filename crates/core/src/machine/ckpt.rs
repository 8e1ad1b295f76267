//! Machine snapshot/restore.
//!
//! [`Machine::ckpt`] walks every piece of dynamic simulation state —
//! engine, processors, memory hierarchy, disks, ring, mesh, VM and
//! metric accumulators — as a sequence of framed `nwckpt-v1` sections
//! (see [`crate::checkpoint`] for the file container). Saving writes
//! them; restoring overlays them onto a machine freshly built from the
//! same configuration and workload. Both directions walk the one field
//! list, so a restored run dispatches the same event sequence
//! bit-for-bit as an uninterrupted one.
//!
//! What is deliberately *not* serialized:
//!
//! * configuration and geometry — the restore target is built from the
//!   checkpoint's config section, so structure is already right;
//! * action streams — pure functions of the workload build; each
//!   processor records only how many actions it consumed and restore
//!   fast-forwards the rebuilt stream, skipping whole generated blocks
//!   ([`nw_apps::ActionStream::advance`]);
//! * the observer — a restored machine runs unobserved until its
//!   caller attaches one with `Machine::enable_observer`; observation
//!   never feeds back into simulation state;
//! * `fatal` — always `None` at a checkpoint boundary (a fatal error
//!   aborts the run before it can be checkpointed);
//! * the per-page TLB holder sets — derived from the TLBs, so a
//!   restore rebuilds them after PROCS, refusing a TLB entry past the
//!   footprint.

use super::io::{FlushRuns, MAX_FLUSH_RUN};
use super::{BlockKind, Event, FaultSource, Machine};
use crate::checkpoint::sections;
use crate::vm::{PageState, TlbHolders, Vpn};
use nw_apps::Action;
use nw_sim::ckpt::{Ckpt, CkptError};

/// ENGINE tag of a flush-check run of `k >= 2` checks. A run of one
/// keeps tag 7, so run-free checkpoints encode as they always have.
const TAG_FLUSH_RUN: u32 = 19;

/// The placeholder a restore overwrites with a decoded event.
impl Default for Event {
    fn default() -> Self {
        Event::Resume(0)
    }
}

/// One queued event: its tag, then the variant's fields. A flush check
/// standing for a run of `k >= 2` checks carries `k` after the disk.
fn event(c: &mut Ckpt, ev: &mut Event, runs: &mut FlushRuns) -> Result<(), CkptError> {
    use Event as E;
    let tag = match *ev {
        E::Resume(_) => 0,
        E::DiskRequest { .. } => 1,
        E::DiskReadReady { .. } => 2,
        E::PageArrive { .. } => 3,
        E::SwapWriteArrive { .. } => 4,
        E::SwapAck { .. } => 5,
        E::SwapOk { .. } => 6,
        E::FlushCheck { run, .. } if runs.count(run) == 1 => 7,
        E::FlushCheck { .. } => TAG_FLUSH_RUN,
        E::NackRecheck { .. } => 8,
        E::RingInsertDone { .. } => 9,
        E::IfaceEnqueue { .. } => 10,
        E::DrainCheck { .. } => 11,
        E::DrainCopied { .. } => 12,
        E::RingAck { .. } => 13,
        E::CancelMsg { .. } => 14,
        E::RingChannelFail { .. } => 15,
        E::SwapTimeout { .. } => 16,
        E::SpecHint { .. } => 17,
        E::SpecCheck { .. } => 18,
    };
    let blank = |tag| {
        Some(match tag {
            0 => E::Resume(0),
            1 => E::DiskRequest { disk: 0, vpn: 0 },
            2 => E::DiskReadReady { disk: 0, vpn: 0 },
            3 => E::PageArrive { vpn: 0 },
            4 => E::SwapWriteArrive { disk: 0, vpn: 0, from: 0 },
            5 => E::SwapAck { node: 0, vpn: 0 },
            6 => E::SwapOk { node: 0, vpn: 0, disk: 0 },
            7 | TAG_FLUSH_RUN => E::FlushCheck { disk: 0, run: 0 },
            8 => E::NackRecheck { disk: 0 },
            9 => E::RingInsertDone { node: 0, vpn: 0 },
            10 => E::IfaceEnqueue { disk: 0, ch: 0, vpn: 0 },
            11 => E::DrainCheck { disk: 0 },
            12 => E::DrainCopied { disk: 0, ch: 0, vpn: 0, origin: 0 },
            13 => E::RingAck { origin: 0, ch: 0, vpn: 0 },
            14 => E::CancelMsg { disk: 0, ch: 0, vpn: 0 },
            15 => E::RingChannelFail { ch: 0 },
            16 => E::SwapTimeout { node: 0, vpn: 0, attempt: 0 },
            17 => E::SpecHint { disk: 0, vpn: 0, node: 0 },
            18 => E::SpecCheck { disk: 0 },
            _ => return None,
        })
    };
    let tag = c.variant(ev, tag, blank, "event")?;
    match ev {
        E::Resume(p) => c.u32(p),
        E::DiskRequest { disk, vpn } | E::DiskReadReady { disk, vpn } => {
            c.u32(disk)?;
            c.u64(vpn)
        }
        E::PageArrive { vpn } => c.u64(vpn),
        E::SwapWriteArrive { disk, vpn, from } => {
            c.u32(disk)?;
            c.u64(vpn)?;
            c.u32(from)
        }
        E::SwapAck { node, vpn } | E::RingInsertDone { node, vpn } => {
            c.u32(node)?;
            c.u64(vpn)
        }
        E::SwapOk { node, vpn, disk } => {
            c.u32(node)?;
            c.u64(vpn)?;
            c.u32(disk)
        }
        E::FlushCheck { disk, run } => {
            c.u32(disk)?;
            let mut k = if c.loading() { 1 } else { runs.count(*run) };
            if tag == TAG_FLUSH_RUN {
                c.u32(&mut k)?;
                if !(2..=MAX_FLUSH_RUN).contains(&k) {
                    return Err(c.invalid(format!(
                        "flush-check run of {k} checks (must be 2..={MAX_FLUSH_RUN})"
                    )));
                }
            }
            if c.loading() {
                *run = runs.open(k);
            }
            Ok(())
        }
        E::NackRecheck { disk } | E::DrainCheck { disk } | E::SpecCheck { disk } => c.u32(disk),
        E::IfaceEnqueue { disk, ch, vpn } | E::CancelMsg { disk, ch, vpn } => {
            c.u32(disk)?;
            c.u32(ch)?;
            c.u64(vpn)
        }
        E::DrainCopied { disk, ch, vpn, origin } => {
            c.u32(disk)?;
            c.u32(ch)?;
            c.u64(vpn)?;
            c.u32(origin)
        }
        E::RingAck { origin, ch, vpn } => {
            c.u32(origin)?;
            c.u32(ch)?;
            c.u64(vpn)
        }
        E::RingChannelFail { ch } => c.u32(ch),
        E::SwapTimeout { node, vpn, attempt } => {
            c.u32(node)?;
            c.u64(vpn)?;
            c.u32(attempt)
        }
        E::SpecHint { disk, vpn, node } => {
            c.u32(disk)?;
            c.u64(vpn)?;
            c.u32(node)
        }
    }
}

/// Where a page lives: its tag, then the variant's fields.
fn page_state(c: &mut Ckpt, s: &mut PageState) -> Result<(), CkptError> {
    let tag = match s {
        PageState::OnDisk => 0,
        PageState::InMemory { .. } => 1,
        PageState::InTransit { .. } => 2,
        PageState::SwappingOut { .. } => 3,
        PageState::OnRing { .. } => 4,
    };
    let blank = |tag| {
        Some(match tag {
            0 => PageState::OnDisk,
            1 => PageState::InMemory { node: 0 },
            2 => PageState::InTransit { node: 0, waiters: Vec::new() },
            3 => PageState::SwappingOut { from: 0, waiters: Vec::new() },
            4 => PageState::OnRing { channel: 0 },
            _ => return None,
        })
    };
    c.variant(s, tag, blank, "page-state")?;
    match s {
        PageState::OnDisk => Ok(()),
        PageState::InMemory { node } => c.u32(node),
        PageState::InTransit { node, waiters } | PageState::SwappingOut { from: node, waiters } => {
            c.u32(node)?;
            c.list(waiters, usize::MAX, 1, "waiting processors", Ckpt::u32)
        }
        PageState::OnRing { channel } => c.u32(channel),
    }
}

impl Machine {
    /// Checkpoint every piece of dynamic simulation state as framed
    /// sections (ENGINE through PREFETCH). The caller owns the
    /// container (magic, META/CONFIG sections, checksum) — see
    /// [`crate::checkpoint::machine_to_bytes`]. A restore needs a
    /// machine freshly built from the same configuration and workload.
    pub(crate) fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        // ENGINE: queue counters + pending events + run-loop state.
        c.section(sections::ENGINE, |c| {
            let runs = &mut self.flush_runs;
            if c.loading() {
                runs.clear();
            }
            self.queue.ckpt(c, |c, ev| event(c, ev, runs))?;
            // The run scheduled last can still grow, exactly as it
            // could in the run that was saved.
            if c.loading() {
                if let Some((at, seq, &Event::FlushCheck { disk, run })) = self.queue.last_scheduled() {
                    self.flush_runs.set_tail(seq, at, disk, run);
                }
            }
            c.bool(&mut self.started)?;
            // The retired dispatched-event slot: the queue's delivered
            // count, written again and discarded on restore.
            c.u64(&mut self.events_dispatched())?;
            c.u64(&mut self.last_time)?;
            c.u64(&mut self.same_time_events)
        })?;

        // PROCS: per-processor stream position and execution state.
        let npages = self.npages;
        c.section(sections::PROCS, |c| {
            let mut pi = 0;
            c.each(&mut self.procs, "procs", |c, p| {
                c.u64(&mut p.consumed)?;
                if c.loading() {
                    let k = p.stream.advance(p.consumed);
                    if k < p.consumed {
                        return Err(c.invalid(format!(
                            "proc {pi}: stream ended after {k} actions, \
                             checkpoint consumed {} — wrong workload?",
                            p.consumed
                        )));
                    }
                }
                c.opt(&mut p.pending, Action::Compute(0), nw_apps::action_ckpt)?;
                p.tlb.ckpt(c)?;
                // The TLB holder sets are rebuilt from these entries.
                if let Some(vpn) = p.tlb.vpns().find(|&v| v >= npages) {
                    return Err(c.invalid(format!(
                        "proc {pi}: TLB caches page {vpn}, past the {npages}-page footprint"
                    )));
                }
                pi += 1;
                p.l1.ckpt(c)?;
                p.l2.ckpt(c)?;
                // The retired write buffer's slot: no lines and three
                // zero counters. Lines a file carries are discarded.
                c.list(&mut Vec::new(), 1 << 10, 1, "write-buffer lines", Ckpt::u64)?;
                (0..3).try_for_each(|_| c.u64(&mut 0))?;
                c.u64(&mut p.local_time)?;
                p.breakdown.ckpt(c)?;
                c.u64(&mut p.pending_interrupt)?;
                c.opt(&mut p.blocked, (BlockKind::Fault, 0), |c, (kind, since)| {
                    use BlockKind as B;
                    c.choice(kind, &[B::Fault, B::Transit, B::NoFree, B::Barrier], "block-kind")?;
                    c.u64(since)
                })?;
                c.bool(&mut p.done)
            })?;
            c.usize(&mut self.finished)
        })?;
        if c.loading() {
            self.tlb_holders = TlbHolders::of(npages, self.procs.iter().map(|p| &p.tlb));
        }

        // MEMHIER: buses and the coherence directory.
        c.section(sections::MEMHIER, |c| {
            c.each(&mut self.mem_bus, "memory buses", |c, b| b.ckpt(c))?;
            c.each(&mut self.io_bus, "I/O buses", |c, b| b.ckpt(c))?;
            self.dir.ckpt(c)
        })?;

        // DISKS: controllers, drain receivers, fault injectors.
        c.section(sections::DISKS, |c| {
            c.each(&mut self.disks, "disks", |c, d| d.ckpt(c))?;
            c.each(&mut self.drain_busy_until, "drain receivers", Ckpt::u64)?;
            c.each(&mut self.disk_faults, "disk fault injectors", |c, f| f.ckpt(c))
        })?;

        // RING: optical ring (when present; its presence flag is a
        // count of 0 or 1) and NWCache interfaces.
        c.section(sections::RING, |c| {
            c.each(self.ring.as_mut_slice(), "rings", |c, ring| ring.ckpt(c))?;
            c.each(&mut self.ifaces, "interfaces", |c, i| i.ckpt(c))
        })?;

        // MESH: link horizons, traffic tallies, fault injector.
        c.section(sections::MESH, |c| {
            self.mesh.ckpt(c)?;
            self.mesh_faults.ckpt(c)
        })?;

        // VM: page table, frame pools, barrier, protocol maps. Hash
        // containers save in sorted key order for canonical bytes
        // (lookups are by key; iteration order is never observable).
        c.section(sections::VM, |c| {
            c.each(&mut self.pt, "pages", |c, e| {
                page_state(c, &mut e.state)?;
                c.bool(&mut e.dirty)?;
                c.u64(&mut e.last_access)?;
                c.u64(&mut e.arrived_at)?;
                c.bool(&mut e.referenced)?;
                c.u32(&mut e.last_node)
            })?;
            c.each(&mut self.frames, "frame pools", |c, fp| fp.ckpt(c))?;
            self.barrier.ckpt(c)?;
            c.each(&mut self.pending_ring_swaps, "ring-swap queues", |c, q| {
                c.list(q, usize::MAX, 1, "queued ring swap-outs", Ckpt::u64)
            })?;
            c.map(&mut self.swap_start, "swap-out start", |c, (node, vpn), t| {
                c.u32(node)?;
                c.u64(vpn)?;
                c.u64(t)
            })?;
            c.map(&mut self.fault_info, "fault", |c, vpn, fi| {
                c.u64(vpn)?;
                c.u64(&mut fi.start)?;
                use FaultSource as F;
                c.choice(&mut fi.source, &[F::DiskCacheHit, F::DiskCacheMiss, F::Ring], "fault-source")
            })?;
            let mut pinned: Vec<(u32, Vpn)> = self.pinned.iter().copied().collect();
            pinned.sort_unstable();
            c.list(&mut pinned, usize::MAX, 2, "pinned frames", |c, (node, vpn)| {
                c.u32(node)?;
                c.u64(vpn)
            })?;
            if c.loading() {
                self.pinned.clear();
                if let Some(p) = pinned.into_iter().find(|&p| !self.pinned.insert(p)) {
                    return Err(c.invalid(format!("pinned frames repeat key {p:?}")));
                }
            }
            c.map(&mut self.disk_retry, "disk retry", |c, vpn, n| {
                c.u64(vpn)?;
                c.u32(n)
            })?;
            c.map(&mut self.swap_attempts, "swap attempt", |c, (node, vpn), n| {
                c.u32(node)?;
                c.u64(vpn)?;
                c.u32(n)
            })
        })?;

        // METRICS: the accumulators `collect_metrics` reads.
        c.section(sections::METRICS, |c| {
            self.m_swap_out_time.ckpt(c)?;
            self.m_swap_out_hist.ckpt(c)?;
            self.m_fault_hist.ckpt(c)?;
            self.m_ring_occupancy.ckpt(c)?;
            for t in [&mut self.m_fault_hit, &mut self.m_fault_miss, &mut self.m_fault_ring] {
                t.ckpt(c)?;
            }
            for v in [
                &mut self.m_ring_hits,
                &mut self.m_ring_misses,
                &mut self.m_page_faults,
                &mut self.m_swap_outs,
                &mut self.m_swap_nacks,
                &mut self.m_shootdowns,
                &mut self.m_ring_pages_lost,
                &mut self.m_swap_retries,
                &mut self.m_degraded_ring_swaps,
                &mut self.m_dead_channels,
            ] {
                c.u64(v)?;
            }
            Ok(())
        })?;

        // TRACER: always two zero counts (no watched pages, no
        // records), so `nwckpt-v1` files keep their bytes. Older files
        // may carry watched pages and records; nothing reads them.
        c.section(sections::TRACER, |c| {
            match c {
                Ckpt::Save(w) => {
                    w.usize(0);
                    w.usize(0);
                }
                Ckpt::Load(r) => r.skip_rest(),
            }
            Ok(())
        })?;

        // PREFETCH: speculation state (adaptive only). The other
        // modes have no machine-side prefetch state and no section.
        if let Some(spec) = &mut self.spec {
            c.section(sections::PREFETCH, |c| spec.ckpt(c))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_sim::ckpt::{fnv1a, put_varint, CkptReader, CkptWriter, MAGIC, VERSION};
    use nw_sim::Pcg32;

    /// Frame `payload` as an ENGINE section of a checksummed container
    /// whose header declares `len` payload bytes, so mutated bytes get
    /// past the checksum and reach the event decoder.
    fn container(payload: &[u8], len: usize) -> Vec<u8> {
        framed(sections::ENGINE, payload, len)
    }

    /// [`container`] for section `id`.
    fn framed(id: u32, payload: &[u8], len: usize) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        buf.push(VERSION);
        put_varint(&mut buf, id as u64);
        put_varint(&mut buf, len as u64);
        buf.extend_from_slice(payload);
        let sum = fnv1a(&buf);
        buf.extend_from_slice(&sum.to_le_bytes());
        buf
    }

    /// Decode one event entry: the event and, for a flush check, the
    /// number of checks it stands for.
    fn decode(bytes: &[u8]) -> Result<(Event, u32), CkptError> {
        let mut r = CkptReader::new(bytes)?;
        let mut runs = FlushRuns::default();
        let mut ev = Event::default();
        Ckpt::Load(&mut r).section(sections::ENGINE, |c| event(c, &mut ev, &mut runs))?;
        let k = match ev {
            Event::FlushCheck { run, .. } => runs.count(run),
            _ => 1,
        };
        Ok((ev, k))
    }

    fn flush_run_payload(disk: u32, k: u32) -> Vec<u8> {
        let mut p = Vec::new();
        for v in [TAG_FLUSH_RUN, disk, k] {
            put_varint(&mut p, v as u64);
        }
        p
    }

    #[test]
    fn flush_runs_round_trip_and_runs_of_one_keep_tag_7() {
        for k in [1, 2, 3, 1000, MAX_FLUSH_RUN] {
            let mut runs = FlushRuns::default();
            let mut ev = Event::FlushCheck {
                disk: 3,
                run: runs.open(k),
            };
            let mut w = CkptWriter::new();
            Ckpt::Save(&mut w)
                .section(sections::ENGINE, |c| event(c, &mut ev, &mut runs))
                .expect("saving cannot fail");
            let bytes = w.finish();
            // Payload starts after magic, version, section id, length.
            let tag = bytes[MAGIC.len() + 3];
            assert_eq!(tag as u32, if k == 1 { 7 } else { TAG_FLUSH_RUN }, "k={k}");
            let (back, got) = decode(&bytes).expect("round trip");
            assert!(matches!(back, Event::FlushCheck { disk: 3, .. }));
            assert_eq!(got, k);
        }
    }

    #[test]
    fn flush_run_decoder_rejects_bad_multiplicities() {
        for k in [0, 1, MAX_FLUSH_RUN + 1, u32::MAX] {
            let p = flush_run_payload(0, k);
            match decode(&container(&p, p.len())) {
                Err(CkptError::Invalid { what, .. }) => {
                    assert!(what.contains("flush-check run"), "k={k}: {what}")
                }
                other => panic!("k={k}: expected Invalid, got {other:?}"),
            }
        }
        // A multiplicity past u32 is refused by the integer reader.
        let mut p = Vec::new();
        for v in [TAG_FLUSH_RUN as u64, 0, 1 << 40] {
            put_varint(&mut p, v);
        }
        assert!(decode(&container(&p, p.len())).is_err());
    }

    #[test]
    fn page_state_waiters_reserve_no_more_than_the_section_holds() {
        // An in-transit or swapping-out page on node 0 claiming 2^40
        // waiters, in a 20-byte VM payload: decoding fails when the
        // waiters run out, without first reserving 4 TB for them.
        for tag in [2u64, 3] {
            let mut p = Vec::new();
            for v in [tag, 0, 1 << 40] {
                put_varint(&mut p, v);
            }
            p.resize(20, 0);
            let bytes = framed(sections::VM, &p, p.len());
            let mut r = CkptReader::new(&bytes).expect("container is well formed");
            let mut state = PageState::OnDisk;
            let res = Ckpt::Load(&mut r).section(sections::VM, |c| page_state(c, &mut state));
            assert!(res.is_err());
        }
    }

    #[test]
    fn flush_run_decoder_survives_seeded_mutations() {
        let valid = flush_run_payload(2, 37);
        for case in 0..4000u64 {
            let mut rng = Pcg32::new(0xF1C5, case);
            let mut p = valid.clone();
            let mut len = p.len();
            match case % 4 {
                // Truncation anywhere, the header still claiming less.
                0 => {
                    p.truncate(rng.gen_below(valid.len() as u32) as usize);
                    len = p.len();
                }
                // Bit flips.
                1 => {
                    for _ in 0..1 + rng.gen_below(3) {
                        let i = rng.gen_below(p.len() as u32) as usize;
                        p[i] ^= 1 << rng.gen_below(8);
                    }
                    len = p.len();
                }
                // Varint overflow in the disk or multiplicity field.
                2 => {
                    let at = 1 + rng.gen_below(2) as usize;
                    let run = 10 + rng.gen_below(4) as usize;
                    p.splice(at..at + 1, std::iter::repeat_n(0xff, run));
                    len = p.len();
                }
                // Length inflation: the frame claims bytes it lacks.
                _ => len += 1 + rng.gen_below(64) as usize,
            }
            // Never a panic; a decoded run always has a legal size.
            if let Ok((ev, k)) = decode(&container(&p, len)) {
                assert!((1..=MAX_FLUSH_RUN).contains(&k), "case {case}: {ev:?} k={k}");
            }
            if case % 4 >= 2 {
                assert!(decode(&container(&p, len)).is_err(), "case {case} decoded");
            }
        }
    }
}
