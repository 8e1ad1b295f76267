//! Machine snapshot/restore.
//!
//! [`Machine::ckpt_save`] serializes every piece of dynamic simulation
//! state — engine, processors, memory hierarchy, disks, ring, mesh, VM
//! and metric accumulators — as a sequence of framed `nwckpt-v1`
//! sections (see [`crate::checkpoint`] for the file container).
//! [`Machine::ckpt_restore`] overlays such a snapshot onto a machine
//! freshly built from the same configuration and workload; the pair
//! round-trips the simulation exactly, so a restored run dispatches
//! the same event sequence bit-for-bit as an uninterrupted one.
//!
//! What is deliberately *not* serialized:
//!
//! * configuration and geometry — the restore target is built from the
//!   checkpoint's config section, so structure is already right;
//! * action streams — pure functions of the workload build; each
//!   processor records only how many actions it consumed and restore
//!   fast-forwards the rebuilt stream, skipping whole generated blocks
//!   ([`nw_apps::ActionStream::advance`]);
//! * the observer — re-attached (if globally configured) at build
//!   time; observation never feeds back into simulation state;
//! * `fatal` — always `None` at a checkpoint boundary (a fatal error
//!   aborts the run before it can be checkpointed).

use super::io::{FlushRuns, MAX_FLUSH_RUN};
use super::{BlockKind, Event, FaultInfo, FaultSource, Machine};
use crate::checkpoint::sections;
use crate::vm::{PageState, Vpn};
use nw_apps::Action;
use nw_sim::ckpt::{capped, CkptError, CkptReader, CkptWriter};

/// ENGINE tag of a flush-check run of `k >= 2` checks. A run of one
/// keeps tag 7, so run-free checkpoints encode as they always have.
const TAG_FLUSH_RUN: u32 = 19;

fn save_event(w: &mut CkptWriter, ev: &Event, runs: &FlushRuns) {
    match *ev {
        Event::Resume(p) => {
            w.u32(0);
            w.u32(p);
        }
        Event::DiskRequest { disk, vpn } => {
            w.u32(1);
            w.u32(disk);
            w.u64(vpn);
        }
        Event::DiskReadReady { disk, vpn } => {
            w.u32(2);
            w.u32(disk);
            w.u64(vpn);
        }
        Event::PageArrive { vpn } => {
            w.u32(3);
            w.u64(vpn);
        }
        Event::SwapWriteArrive { disk, vpn, from } => {
            w.u32(4);
            w.u32(disk);
            w.u64(vpn);
            w.u32(from);
        }
        Event::SwapAck { node, vpn } => {
            w.u32(5);
            w.u32(node);
            w.u64(vpn);
        }
        Event::SwapOk { node, vpn, disk } => {
            w.u32(6);
            w.u32(node);
            w.u64(vpn);
            w.u32(disk);
        }
        Event::FlushCheck { disk, run } => match runs.count(run) {
            1 => {
                w.u32(7);
                w.u32(disk);
            }
            k => {
                w.u32(TAG_FLUSH_RUN);
                w.u32(disk);
                w.u32(k);
            }
        },
        Event::NackRecheck { disk } => {
            w.u32(8);
            w.u32(disk);
        }
        Event::RingInsertDone { node, vpn } => {
            w.u32(9);
            w.u32(node);
            w.u64(vpn);
        }
        Event::IfaceEnqueue { disk, ch, vpn } => {
            w.u32(10);
            w.u32(disk);
            w.u32(ch);
            w.u64(vpn);
        }
        Event::DrainCheck { disk } => {
            w.u32(11);
            w.u32(disk);
        }
        Event::DrainCopied {
            disk,
            ch,
            vpn,
            origin,
        } => {
            w.u32(12);
            w.u32(disk);
            w.u32(ch);
            w.u64(vpn);
            w.u32(origin);
        }
        Event::RingAck { origin, ch, vpn } => {
            w.u32(13);
            w.u32(origin);
            w.u32(ch);
            w.u64(vpn);
        }
        Event::CancelMsg { disk, ch, vpn } => {
            w.u32(14);
            w.u32(disk);
            w.u32(ch);
            w.u64(vpn);
        }
        Event::RingChannelFail { ch } => {
            w.u32(15);
            w.u32(ch);
        }
        Event::SwapTimeout { node, vpn, attempt } => {
            w.u32(16);
            w.u32(node);
            w.u64(vpn);
            w.u32(attempt);
        }
        Event::SpecHint { disk, vpn, node } => {
            w.u32(17);
            w.u32(disk);
            w.u64(vpn);
            w.u32(node);
        }
        Event::SpecCheck { disk } => {
            w.u32(18);
            w.u32(disk);
        }
    }
}

fn load_event(r: &mut CkptReader<'_>, runs: &mut FlushRuns) -> Result<Event, CkptError> {
    Ok(match r.u32()? {
        0 => Event::Resume(r.u32()?),
        1 => Event::DiskRequest {
            disk: r.u32()?,
            vpn: r.u64()?,
        },
        2 => Event::DiskReadReady {
            disk: r.u32()?,
            vpn: r.u64()?,
        },
        3 => Event::PageArrive { vpn: r.u64()? },
        4 => Event::SwapWriteArrive {
            disk: r.u32()?,
            vpn: r.u64()?,
            from: r.u32()?,
        },
        5 => Event::SwapAck {
            node: r.u32()?,
            vpn: r.u64()?,
        },
        6 => Event::SwapOk {
            node: r.u32()?,
            vpn: r.u64()?,
            disk: r.u32()?,
        },
        7 => Event::FlushCheck {
            disk: r.u32()?,
            run: runs.open(1),
        },
        8 => Event::NackRecheck { disk: r.u32()? },
        9 => Event::RingInsertDone {
            node: r.u32()?,
            vpn: r.u64()?,
        },
        10 => Event::IfaceEnqueue {
            disk: r.u32()?,
            ch: r.u32()?,
            vpn: r.u64()?,
        },
        11 => Event::DrainCheck { disk: r.u32()? },
        12 => Event::DrainCopied {
            disk: r.u32()?,
            ch: r.u32()?,
            vpn: r.u64()?,
            origin: r.u32()?,
        },
        13 => Event::RingAck {
            origin: r.u32()?,
            ch: r.u32()?,
            vpn: r.u64()?,
        },
        14 => Event::CancelMsg {
            disk: r.u32()?,
            ch: r.u32()?,
            vpn: r.u64()?,
        },
        15 => Event::RingChannelFail { ch: r.u32()? },
        16 => Event::SwapTimeout {
            node: r.u32()?,
            vpn: r.u64()?,
            attempt: r.u32()?,
        },
        17 => Event::SpecHint {
            disk: r.u32()?,
            vpn: r.u64()?,
            node: r.u32()?,
        },
        18 => Event::SpecCheck { disk: r.u32()? },
        TAG_FLUSH_RUN => {
            let disk = r.u32()?;
            let k = r.u32()?;
            if !(2..=MAX_FLUSH_RUN).contains(&k) {
                return Err(CkptError::Invalid {
                    offset: r.offset(),
                    what: format!("flush-check run of {k} checks (must be 2..={MAX_FLUSH_RUN})"),
                });
            }
            Event::FlushCheck {
                disk,
                run: runs.open(k),
            }
        }
        tag => {
            return Err(CkptError::Invalid {
                offset: r.offset(),
                what: format!("unknown event tag {tag}"),
            })
        }
    })
}

fn save_action(w: &mut CkptWriter, a: &Action) {
    match *a {
        Action::Compute(c) => {
            w.u32(0);
            w.u32(c);
        }
        Action::Read(line) => {
            w.u32(1);
            w.u64(line);
        }
        Action::Write(line) => {
            w.u32(2);
            w.u64(line);
        }
        Action::Barrier(id) => {
            w.u32(3);
            w.u32(id);
        }
    }
}

fn load_action(r: &mut CkptReader<'_>) -> Result<Action, CkptError> {
    Ok(match r.u32()? {
        0 => Action::Compute(r.u32()?),
        1 => Action::Read(r.u64()?),
        2 => Action::Write(r.u64()?),
        3 => Action::Barrier(r.u32()?),
        tag => {
            return Err(CkptError::Invalid {
                offset: r.offset(),
                what: format!("unknown action tag {tag}"),
            })
        }
    })
}

fn save_page_state(w: &mut CkptWriter, s: &PageState) {
    match s {
        PageState::OnDisk => w.u32(0),
        PageState::InMemory { node } => {
            w.u32(1);
            w.u32(*node);
        }
        PageState::InTransit { node, waiters } => {
            w.u32(2);
            w.u32(*node);
            w.usize(waiters.len());
            for &p in waiters {
                w.u32(p);
            }
        }
        PageState::SwappingOut { from, waiters } => {
            w.u32(3);
            w.u32(*from);
            w.usize(waiters.len());
            for &p in waiters {
                w.u32(p);
            }
        }
        PageState::OnRing { channel } => {
            w.u32(4);
            w.u32(*channel);
        }
    }
}

fn load_page_state(r: &mut CkptReader<'_>) -> Result<PageState, CkptError> {
    Ok(match r.u32()? {
        0 => PageState::OnDisk,
        1 => PageState::InMemory { node: r.u32()? },
        2 => {
            let node = r.u32()?;
            let n = r.usize()?;
            let mut waiters = Vec::with_capacity(capped(n, r.section_remaining(), 1));
            for _ in 0..n {
                waiters.push(r.u32()?);
            }
            PageState::InTransit { node, waiters }
        }
        3 => {
            let from = r.u32()?;
            let n = r.usize()?;
            let mut waiters = Vec::with_capacity(capped(n, r.section_remaining(), 1));
            for _ in 0..n {
                waiters.push(r.u32()?);
            }
            PageState::SwappingOut { from, waiters }
        }
        4 => PageState::OnRing { channel: r.u32()? },
        tag => {
            return Err(CkptError::Invalid {
                offset: r.offset(),
                what: format!("unknown page-state tag {tag}"),
            })
        }
    })
}

fn block_kind_tag(k: BlockKind) -> u32 {
    match k {
        BlockKind::Fault => 0,
        BlockKind::Transit => 1,
        BlockKind::NoFree => 2,
        BlockKind::Barrier => 3,
    }
}

fn block_kind_from(tag: u32, offset: usize) -> Result<BlockKind, CkptError> {
    Ok(match tag {
        0 => BlockKind::Fault,
        1 => BlockKind::Transit,
        2 => BlockKind::NoFree,
        3 => BlockKind::Barrier,
        _ => {
            return Err(CkptError::Invalid {
                offset,
                what: format!("unknown block-kind tag {tag}"),
            })
        }
    })
}

fn fault_source_tag(s: FaultSource) -> u32 {
    match s {
        FaultSource::DiskCacheHit => 0,
        FaultSource::DiskCacheMiss => 1,
        FaultSource::Ring => 2,
    }
}

fn fault_source_from(tag: u32, offset: usize) -> Result<FaultSource, CkptError> {
    Ok(match tag {
        0 => FaultSource::DiskCacheHit,
        1 => FaultSource::DiskCacheMiss,
        2 => FaultSource::Ring,
        _ => {
            return Err(CkptError::Invalid {
                offset,
                what: format!("unknown fault-source tag {tag}"),
            })
        }
    })
}

fn mismatch(r: &CkptReader<'_>, what: String) -> CkptError {
    CkptError::Invalid {
        offset: r.offset(),
        what,
    }
}

impl Machine {
    /// Serialize every piece of dynamic simulation state as framed
    /// sections (ENGINE through TRACER). The caller owns the container
    /// (magic, META/CONFIG sections, checksum) — see
    /// [`crate::checkpoint::machine_to_bytes`].
    pub(crate) fn ckpt_save(&self, w: &mut CkptWriter) {
        // ENGINE: queue counters + pending events + run-loop state.
        w.begin_section(sections::ENGINE);
        let (now, seq, cursor, scheduled, delivered) = self.queue.ckpt_counters();
        w.time(now);
        w.u64(seq);
        w.u64(cursor);
        w.u64(scheduled);
        w.u64(delivered);
        let entries = self.queue.ckpt_entries();
        w.usize(entries.len());
        for (at, eseq, ev) in entries {
            w.time(at);
            w.u64(eseq);
            save_event(w, ev, &self.flush_runs);
        }
        w.bool(self.started);
        w.u64(self.events_dispatched);
        w.time(self.last_time);
        w.u64(self.same_time_events);
        w.end_section();

        // PROCS: per-processor stream position and execution state.
        w.begin_section(sections::PROCS);
        w.usize(self.procs.len());
        for p in &self.procs {
            w.u64(p.consumed);
            match &p.pending {
                None => w.bool(false),
                Some(a) => {
                    w.bool(true);
                    save_action(w, a);
                }
            }
            p.tlb.ckpt_save(w);
            p.l1.ckpt_save(w);
            p.l2.ckpt_save(w);
            p.wb.ckpt_save(w);
            w.time(p.local_time);
            p.breakdown.ckpt_save(w);
            w.time(p.pending_interrupt);
            match p.blocked {
                None => w.bool(false),
                Some((kind, since)) => {
                    w.bool(true);
                    w.u32(block_kind_tag(kind));
                    w.time(since);
                }
            }
            w.bool(p.done);
        }
        w.usize(self.finished);
        w.end_section();

        // MEMHIER: buses and the coherence directory.
        w.begin_section(sections::MEMHIER);
        w.usize(self.mem_bus.len());
        for b in &self.mem_bus {
            b.ckpt_save(w);
        }
        w.usize(self.io_bus.len());
        for b in &self.io_bus {
            b.ckpt_save(w);
        }
        self.dir.ckpt_save(w);
        w.end_section();

        // DISKS: controllers, drain receivers, fault injectors.
        w.begin_section(sections::DISKS);
        w.usize(self.disks.len());
        for d in &self.disks {
            d.ckpt_save(w);
        }
        w.usize(self.drain_busy_until.len());
        for &t in &self.drain_busy_until {
            w.time(t);
        }
        w.usize(self.disk_faults.len());
        for f in &self.disk_faults {
            f.ckpt_save(w);
        }
        w.end_section();

        // RING: optical ring (when present) and NWCache interfaces.
        w.begin_section(sections::RING);
        match &self.ring {
            None => w.bool(false),
            Some(ring) => {
                w.bool(true);
                ring.ckpt_save(w);
            }
        }
        w.usize(self.ifaces.len());
        for i in &self.ifaces {
            i.ckpt_save(w);
        }
        w.end_section();

        // MESH: link horizons, traffic tallies, fault injector.
        w.begin_section(sections::MESH);
        self.mesh.ckpt_save(w);
        self.mesh_faults.ckpt_save(w);
        w.end_section();

        // VM: page table, frame pools, barrier, protocol maps.
        w.begin_section(sections::VM);
        w.u64(self.npages);
        for e in &self.pt {
            save_page_state(w, &e.state);
            w.bool(e.dirty);
            w.time(e.last_access);
            w.time(e.arrived_at);
            w.bool(e.referenced);
            w.u32(e.last_node);
        }
        w.usize(self.frames.len());
        for fp in &self.frames {
            fp.ckpt_save(w);
        }
        self.barrier.ckpt_save(w);
        w.usize(self.pending_ring_swaps.len());
        for q in &self.pending_ring_swaps {
            w.usize(q.len());
            for &vpn in q {
                w.u64(vpn);
            }
        }
        // Hash-based maps dump in sorted key order for canonical
        // checkpoint bytes (lookups are by key; iteration order is
        // never observable).
        let mut swap_start: Vec<_> = self.swap_start.iter().map(|(&k, &v)| (k, v)).collect();
        swap_start.sort_unstable_by_key(|&(k, _)| k);
        w.usize(swap_start.len());
        for ((node, vpn), t) in swap_start {
            w.u32(node);
            w.u64(vpn);
            w.time(t);
        }
        let mut fault_info: Vec<_> = self
            .fault_info
            .iter()
            .map(|(&vpn, fi)| (vpn, fi.start, fi.source))
            .collect();
        fault_info.sort_unstable_by_key(|&(vpn, _, _)| vpn);
        w.usize(fault_info.len());
        for (vpn, start, source) in fault_info {
            w.u64(vpn);
            w.time(start);
            w.u32(fault_source_tag(source));
        }
        let mut pinned: Vec<_> = self.pinned.iter().copied().collect();
        pinned.sort_unstable();
        w.usize(pinned.len());
        for (node, vpn) in pinned {
            w.u32(node);
            w.u64(vpn);
        }
        let mut disk_retry: Vec<_> = self.disk_retry.iter().map(|(&k, &v)| (k, v)).collect();
        disk_retry.sort_unstable_by_key(|&(k, _)| k);
        w.usize(disk_retry.len());
        for (vpn, attempts) in disk_retry {
            w.u64(vpn);
            w.u32(attempts);
        }
        let mut swap_attempts: Vec<_> =
            self.swap_attempts.iter().map(|(&k, &v)| (k, v)).collect();
        swap_attempts.sort_unstable_by_key(|&(k, _)| k);
        w.usize(swap_attempts.len());
        for ((node, vpn), attempts) in swap_attempts {
            w.u32(node);
            w.u64(vpn);
            w.u32(attempts);
        }
        w.end_section();

        // METRICS: the accumulators `collect_metrics` reads.
        w.begin_section(sections::METRICS);
        self.m_swap_out_time.ckpt_save(w);
        self.m_swap_out_hist.ckpt_save(w);
        self.m_fault_hist.ckpt_save(w);
        self.m_ring_occupancy.ckpt_save(w);
        self.m_fault_hit.ckpt_save(w);
        self.m_fault_miss.ckpt_save(w);
        self.m_fault_ring.ckpt_save(w);
        w.u64(self.m_ring_hits);
        w.u64(self.m_ring_misses);
        w.u64(self.m_page_faults);
        w.u64(self.m_swap_outs);
        w.u64(self.m_swap_nacks);
        w.u64(self.m_shootdowns);
        w.u64(self.m_ring_pages_lost);
        w.u64(self.m_swap_retries);
        w.u64(self.m_degraded_ring_swaps);
        w.u64(self.m_dead_channels);
        w.end_section();

        // TRACER: always empty (no watched pages, no records); the
        // section stays so `nwckpt-v1` files keep their bytes.
        w.begin_section(sections::TRACER);
        w.usize(0);
        w.usize(0);
        w.end_section();

        // PREFETCH: policy-side speculative state (adaptive only).
        // Stateless policies write no section at all, keeping their
        // checkpoint bytes identical to what they were before the
        // policy layer existed.
        if self.policy.has_ckpt_state() {
            w.begin_section(sections::PREFETCH);
            self.policy.ckpt_save(w);
            w.end_section();
        }
    }

    /// Overlay a snapshot written by [`Machine::ckpt_save`] onto a
    /// machine freshly built from the same configuration and workload.
    pub(crate) fn ckpt_restore(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        // ENGINE
        r.begin_section(sections::ENGINE)?;
        let now = r.time()?;
        let seq = r.u64()?;
        let cursor = r.u64()?;
        let scheduled = r.u64()?;
        let delivered = r.u64()?;
        let n = r.usize()?;
        // An entry is at least a time, a sequence number and a tag.
        let mut entries = Vec::with_capacity(capped(n, r.section_remaining(), 3));
        self.flush_runs.clear();
        for _ in 0..n {
            let at = r.time()?;
            let eseq = r.u64()?;
            let ev = load_event(r, &mut self.flush_runs)?;
            // The run scheduled last can still grow, exactly as it
            // could in the run that was saved.
            if let Event::FlushCheck { disk, run } = ev {
                if seq.checked_sub(1) == Some(eseq) {
                    self.flush_runs.set_tail(eseq, at, disk, run);
                }
            }
            entries.push((at, eseq, ev));
        }
        self.queue
            .ckpt_restore((now, seq, cursor, scheduled, delivered), entries);
        self.started = r.bool()?;
        self.events_dispatched = r.u64()?;
        self.last_time = r.time()?;
        self.same_time_events = r.u64()?;
        r.end_section()?;

        // PROCS
        r.begin_section(sections::PROCS)?;
        let n = r.usize()?;
        if n != self.procs.len() {
            return Err(mismatch(
                r,
                format!("checkpoint has {n} procs, machine has {}", self.procs.len()),
            ));
        }
        for pi in 0..n {
            let consumed = r.u64()?;
            let k = self.procs[pi].stream.advance(consumed);
            if k < consumed {
                return Err(mismatch(
                    r,
                    format!(
                        "proc {pi}: stream ended after {k} actions, \
                         checkpoint consumed {consumed} — wrong workload?"
                    ),
                ));
            }
            self.procs[pi].consumed = consumed;
            self.procs[pi].pending = if r.bool()? {
                Some(load_action(r)?)
            } else {
                None
            };
            self.procs[pi].tlb.ckpt_restore(r)?;
            self.procs[pi].l1.ckpt_restore(r)?;
            self.procs[pi].l2.ckpt_restore(r)?;
            self.procs[pi].wb.ckpt_restore(r)?;
            self.procs[pi].local_time = r.time()?;
            self.procs[pi].breakdown.ckpt_restore(r)?;
            self.procs[pi].pending_interrupt = r.time()?;
            self.procs[pi].blocked = if r.bool()? {
                let tag = r.u32()?;
                let kind = block_kind_from(tag, r.offset())?;
                let since = r.time()?;
                Some((kind, since))
            } else {
                None
            };
            self.procs[pi].done = r.bool()?;
        }
        self.finished = r.usize()?;
        r.end_section()?;

        // MEMHIER
        r.begin_section(sections::MEMHIER)?;
        let n = r.usize()?;
        if n != self.mem_bus.len() {
            return Err(mismatch(r, format!("{n} memory buses, expected {}", self.mem_bus.len())));
        }
        for b in &mut self.mem_bus {
            b.ckpt_restore(r)?;
        }
        let n = r.usize()?;
        if n != self.io_bus.len() {
            return Err(mismatch(r, format!("{n} I/O buses, expected {}", self.io_bus.len())));
        }
        for b in &mut self.io_bus {
            b.ckpt_restore(r)?;
        }
        self.dir.ckpt_restore(r)?;
        r.end_section()?;

        // DISKS
        r.begin_section(sections::DISKS)?;
        let n = r.usize()?;
        if n != self.disks.len() {
            return Err(mismatch(r, format!("{n} disks, expected {}", self.disks.len())));
        }
        for d in &mut self.disks {
            d.ckpt_restore(r)?;
        }
        let n = r.usize()?;
        if n != self.drain_busy_until.len() {
            return Err(mismatch(
                r,
                format!("{n} drain receivers, expected {}", self.drain_busy_until.len()),
            ));
        }
        for t in &mut self.drain_busy_until {
            *t = r.time()?;
        }
        let n = r.usize()?;
        if n != self.disk_faults.len() {
            return Err(mismatch(
                r,
                format!("{n} disk fault injectors, expected {}", self.disk_faults.len()),
            ));
        }
        for f in &mut self.disk_faults {
            f.ckpt_restore(r)?;
        }
        r.end_section()?;

        // RING
        r.begin_section(sections::RING)?;
        let has_ring = r.bool()?;
        match (&mut self.ring, has_ring) {
            (Some(ring), true) => ring.ckpt_restore(r)?,
            (None, false) => {}
            (have, want) => {
                let have = have.is_some();
                return Err(mismatch(
                    r,
                    format!("checkpoint ring presence {want}, machine has {have}"),
                ));
            }
        }
        let n = r.usize()?;
        if n != self.ifaces.len() {
            return Err(mismatch(r, format!("{n} interfaces, expected {}", self.ifaces.len())));
        }
        for i in &mut self.ifaces {
            i.ckpt_restore(r)?;
        }
        r.end_section()?;

        // MESH
        r.begin_section(sections::MESH)?;
        self.mesh.ckpt_restore(r)?;
        self.mesh_faults.ckpt_restore(r)?;
        r.end_section()?;

        // VM
        r.begin_section(sections::VM)?;
        let npages = r.u64()?;
        if npages != self.npages {
            return Err(mismatch(r, format!("{npages} pages, expected {}", self.npages)));
        }
        for e in &mut self.pt {
            e.state = load_page_state(r)?;
            e.dirty = r.bool()?;
            e.last_access = r.time()?;
            e.arrived_at = r.time()?;
            e.referenced = r.bool()?;
            e.last_node = r.u32()?;
        }
        let n = r.usize()?;
        if n != self.frames.len() {
            return Err(mismatch(r, format!("{n} frame pools, expected {}", self.frames.len())));
        }
        for fp in &mut self.frames {
            fp.ckpt_restore(r)?;
        }
        self.barrier.ckpt_restore(r)?;
        let n = r.usize()?;
        if n != self.pending_ring_swaps.len() {
            return Err(mismatch(
                r,
                format!("{n} ring-swap queues, expected {}", self.pending_ring_swaps.len()),
            ));
        }
        for q in &mut self.pending_ring_swaps {
            let len = r.usize()?;
            q.clear();
            for _ in 0..len {
                q.push_back(r.u64()?);
            }
        }
        let n = r.usize()?;
        self.swap_start.clear();
        for _ in 0..n {
            let node = r.u32()?;
            let vpn = r.u64()?;
            let t = r.time()?;
            self.swap_start.insert((node, vpn), t);
        }
        let n = r.usize()?;
        self.fault_info.clear();
        for _ in 0..n {
            let vpn: Vpn = r.u64()?;
            let start = r.time()?;
            let tag = r.u32()?;
            let source = fault_source_from(tag, r.offset())?;
            self.fault_info.insert(vpn, FaultInfo { start, source });
        }
        let n = r.usize()?;
        self.pinned.clear();
        for _ in 0..n {
            let node = r.u32()?;
            let vpn = r.u64()?;
            self.pinned.insert((node, vpn));
        }
        let n = r.usize()?;
        self.disk_retry.clear();
        for _ in 0..n {
            let vpn = r.u64()?;
            let attempts = r.u32()?;
            self.disk_retry.insert(vpn, attempts);
        }
        let n = r.usize()?;
        self.swap_attempts.clear();
        for _ in 0..n {
            let node = r.u32()?;
            let vpn = r.u64()?;
            let attempts = r.u32()?;
            self.swap_attempts.insert((node, vpn), attempts);
        }
        r.end_section()?;

        // METRICS
        r.begin_section(sections::METRICS)?;
        self.m_swap_out_time.ckpt_restore(r)?;
        self.m_swap_out_hist.ckpt_restore(r)?;
        self.m_fault_hist.ckpt_restore(r)?;
        self.m_ring_occupancy.ckpt_restore(r)?;
        self.m_fault_hit.ckpt_restore(r)?;
        self.m_fault_miss.ckpt_restore(r)?;
        self.m_fault_ring.ckpt_restore(r)?;
        self.m_ring_hits = r.u64()?;
        self.m_ring_misses = r.u64()?;
        self.m_page_faults = r.u64()?;
        self.m_swap_outs = r.u64()?;
        self.m_swap_nacks = r.u64()?;
        self.m_shootdowns = r.u64()?;
        self.m_ring_pages_lost = r.u64()?;
        self.m_swap_retries = r.u64()?;
        self.m_degraded_ring_swaps = r.u64()?;
        self.m_dead_channels = r.u64()?;
        r.end_section()?;

        // TRACER: older files may carry watched pages and records;
        // nothing reads them.
        r.begin_section(sections::TRACER)?;
        r.skip_rest();
        r.end_section()?;

        // PREFETCH (present iff the policy carries state)
        if self.policy.has_ckpt_state() {
            r.begin_section(sections::PREFETCH)?;
            self.policy.ckpt_restore(r)?;
            r.end_section()?;
        }

        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nw_sim::ckpt::{fnv1a, put_varint, MAGIC, VERSION};
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
        r.begin_section(sections::ENGINE)?;
        let mut runs = FlushRuns::default();
        let ev = load_event(&mut r, &mut runs)?;
        r.end_section()?;
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
            let ev = Event::FlushCheck {
                disk: 3,
                run: runs.open(k),
            };
            let mut w = CkptWriter::new();
            w.begin_section(sections::ENGINE);
            save_event(&mut w, &ev, &runs);
            w.end_section();
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
            r.begin_section(sections::VM).expect("VM section");
            assert!(load_page_state(&mut r).is_err());
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
