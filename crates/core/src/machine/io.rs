//! Disk-side and ring-side protocol handlers: demand reads, swap-out
//! writes with ACK/NACK/OK flow control, controller flushes, NWCache
//! interface drains and acknowledgements — plus the fault-recovery
//! paths: disk retry with exponential backoff, stuck-request
//! timeouts, and ring channel failure handling.

use super::{FaultSource, Machine};
use crate::error::SimError;
use crate::observe::groups;
use crate::vm::{PageState, Vpn};
use nw_disk::{DiskFault, WriteOutcome};
use nw_memhier::PAGE_BYTES;
use nw_sim::Time;

/// Most flush checks one queue entry may stand for. A longer run just
/// opens a new entry, so the cap never changes behaviour; it bounds
/// the multiplicity a checkpoint decoder has to accept.
pub(crate) const MAX_FLUSH_RUN: u32 = 1 << 16;

impl Machine {
    /// Schedule a flush check of `disk` at `at`. When the most recently
    /// scheduled event is a check of the same disk at the same time,
    /// the check joins that entry's run instead of taking a new one.
    pub(crate) fn schedule_flush_check(&mut self, at: Time, disk: u32) {
        self.schedule_flush_checks(at, disk, 1);
    }

    /// Schedule `k` flush checks of `disk` at `at` back to back, in one
    /// step: exactly the entries and multiplicities `k` calls of
    /// [`Machine::schedule_flush_check`] leave, a run splitting at
    /// [`MAX_FLUSH_RUN`].
    ///
    /// Sequence numbers are global and strictly increasing, so when a
    /// check is scheduled right after another check of the same disk
    /// at the same time — no event scheduled in between, the first not
    /// yet delivered — nothing can ever be delivered between the two.
    /// Running the check `k` times back to back from one entry is then
    /// the same event sequence as `k` entries, so the checks join the
    /// queue's last entry while it is such a check.
    pub(crate) fn schedule_flush_checks(&mut self, at: Time, disk: u32, mut k: u32) {
        if let Some((t, super::Event::FlushCheck { disk: d, checks })) = self.queue.last_mut() {
            if t == at && *d == disk {
                let add = k.min(MAX_FLUSH_RUN - *checks);
                *checks += add;
                k -= add;
            }
        }
        while k > 0 {
            let checks = k.min(MAX_FLUSH_RUN);
            self.queue
                .schedule_at(at, super::Event::FlushCheck { disk, checks });
            k -= checks;
        }
    }

    /// Deliver a flush-check entry standing for `checks` checks: give
    /// the controller a chance to flush dirty pages to disk, once per
    /// check. Reads have priority: a check that finds the arm busy is
    /// re-polled when it frees up, or dropped when nothing is dirty.
    /// Such a check changes nothing, so every check after it reads the
    /// same state: they join its re-poll (or drop with it) in one step.
    pub(crate) fn on_flush_run(&mut self, disk: u32, checks: u32) {
        let t = self.queue.now();
        for left in (1..=checks).rev() {
            let free_at = self.disks[disk as usize].arm_free_at(t);
            if free_at > t {
                if self.disks[disk as usize].has_pending_dirty() {
                    self.schedule_flush_checks(free_at, disk, left);
                }
                return;
            }
            self.start_flush(disk);
        }
    }

    /// A page-read request reached disk `disk`'s controller.
    pub(crate) fn on_disk_request(&mut self, disk: u32, vpn: Vpn) -> Result<(), SimError> {
        let t = self.queue.now();
        if self.disk_faults[disk as usize].is_active() {
            match self.disk_faults[disk as usize].roll() {
                DiskFault::None => {
                    self.disk_retry.remove(&vpn);
                }
                DiskFault::MediaError => {
                    // Failed media read: retry with exponential backoff.
                    let attempt = {
                        let a = self.disk_retry.entry(vpn).or_insert(0);
                        *a += 1;
                        *a
                    };
                    if attempt > self.cfg.faults.max_retries {
                        return Err(SimError::RetriesExhausted {
                            kind: "disk-read",
                            vpn,
                            attempts: attempt,
                        });
                    }
                    let backoff =
                        self.cfg.faults.retry_backoff << (attempt - 1).min(16);
                    self.queue
                        .schedule_at(t + backoff, super::Event::DiskRequest { disk, vpn });
                    return Ok(());
                }
                DiskFault::Stuck => {
                    // Lost request: only the timeout re-issues it.
                    let attempt = {
                        let a = self.disk_retry.entry(vpn).or_insert(0);
                        *a += 1;
                        *a
                    };
                    if attempt > self.cfg.faults.max_retries {
                        return Err(SimError::RetriesExhausted {
                            kind: "disk-read",
                            vpn,
                            attempts: attempt,
                        });
                    }
                    self.queue.schedule_at(
                        t + self.cfg.faults.request_timeout,
                        super::Event::DiskRequest { disk, vpn },
                    );
                    return Ok(());
                }
            }
        }
        let block = self.fs.block_of(vpn);
        let outcome = self.disks[disk as usize].read_page(t, vpn, block);
        // A demand read consumes any speculative work on the same page
        // (queued hint canceled, active fill adopted, side-cache entry
        // promoted) — the hint slot frees up either way.
        if let Some(spec) = &mut self.spec {
            spec.release(vpn);
        }
        if outcome.is_hit() {
            if let Some(info) = self.fault_info.get_mut(&vpn) {
                info.source = FaultSource::DiskCacheHit;
            }
        }
        self.obs_span(
            t,
            outcome.ready_at().max(t),
            groups::DISK,
            disk,
            if outcome.is_hit() {
                "disk.read.hit"
            } else {
                "disk.read.miss"
            },
            vpn,
            block,
        );
        debug_assert!(matches!(
            self.pt[vpn as usize].state,
            PageState::InTransit { .. }
        ));
        // Bus/mesh bandwidth is claimed when the data is actually
        // ready, not reserved into the future — otherwise cache hits
        // would queue behind the future reservations of earlier misses.
        self.queue.schedule_at(
            outcome.ready_at().max(t),
            super::Event::DiskReadReady { disk, vpn },
        );
        Ok(())
    }

    /// The page is available at the controller: ship it to the
    /// faulting node over the I/O bus, the mesh and its memory bus.
    pub(crate) fn on_disk_read_ready(&mut self, disk: u32, vpn: Vpn) -> Result<(), SimError> {
        let t = self.queue.now();
        let io = self.disk_homes[disk as usize];
        let dest = match self.pt[vpn as usize].state {
            PageState::InTransit { node, .. } => node,
            ref other => {
                return Err(SimError::ProtocolViolation {
                    at: t,
                    what: format!("disk reply for page {vpn} in state {other:?}"),
                })
            }
        };
        let g = self.io_bus[io as usize].transfer(t, PAGE_BYTES);
        let d = self.mesh_send(g.end, io, dest, PAGE_BYTES, "mesh.page");
        let g2 = self.mem_bus[dest as usize].transfer(d.arrival, PAGE_BYTES);
        self.queue
            .schedule_at(g2.end, super::Event::PageArrive { vpn });
        Ok(())
    }

    /// A swapped-out page reached the I/O node (standard machine).
    pub(crate) fn on_swap_write_arrive(&mut self, disk: u32, vpn: Vpn, from: u32) {
        let t = self.queue.now();
        let io = self.disk_homes[disk as usize];
        let block = self.fs.block_of(vpn);
        // Page crosses the I/O bus into the controller. The controller's
        // answer is observed as a span over that crossing, so it starts
        // when the write reached the I/O node, as a page's timeline has
        // it (`TraceData::page_events`), and ends at the decision.
        let g = self.io_bus[io as usize].transfer(t, PAGE_BYTES);
        match self.disks[disk as usize].write_page(g.end, vpn, block, from) {
            WriteOutcome::Ack { flush_check_at } => {
                self.obs_span(t, g.end, groups::DISK, disk, "disk.admit", vpn, from as u64);
                self.schedule_flush_check(flush_check_at, disk);
                let d = self.mesh_send(g.end, io, from, self.cfg.ctl_msg_bytes, "mesh.ctl");
                // A lost ACK leaves the swap pending; the swap timeout
                // re-issues the write and the duplicate is tolerated.
                if self.ctl_msg_delivered() {
                    self.queue
                        .schedule_at(d.arrival, super::Event::SwapAck { node: from, vpn });
                }
            }
            WriteOutcome::Nack => {
                self.obs_span(t, g.end, groups::DISK, disk, "disk.nack", vpn, from as u64);
                self.m_swap_nacks += 1;
                // NACK control message back (traffic only; the node
                // simply keeps the frame until the OK arrives).
                self.mesh_send(g.end, io, from, self.cfg.ctl_msg_bytes, "mesh.ctl");
                // The controller has the request registered: this is
                // congestion, not loss, so the retry budget starts
                // over. A fresh timer still guards the OK message
                // itself getting dropped.
                if self.mesh_faults.is_active()
                    && matches!(
                        self.pt[vpn as usize].state,
                        PageState::SwappingOut { from: f, .. } if f == from
                    )
                {
                    self.swap_attempts.remove(&(from, vpn));
                    self.queue.schedule_at(
                        t + self.cfg.faults.request_timeout,
                        super::Event::SwapTimeout {
                            node: from,
                            vpn,
                            attempt: 0,
                        },
                    );
                }
            }
        }
    }

    /// The controller's ACK reached the swapping node: the swap-out is
    /// complete and the frame is reusable.
    pub(crate) fn on_swap_ack(&mut self, node: u32, vpn: Vpn) -> Result<(), SimError> {
        let t = self.queue.now();
        if !matches!(
            self.pt[vpn as usize].state,
            PageState::SwappingOut { .. }
        ) {
            if self.cfg.faults.is_active() {
                // Duplicate ACK from a timed-out-then-re-issued swap.
                return Ok(());
            }
            return Err(SimError::ProtocolViolation {
                at: t,
                what: format!(
                    "SwapAck for page {vpn} in state {:?}",
                    self.pt[vpn as usize].state
                ),
            });
        }
        let waiters =
            match std::mem::replace(&mut self.pt[vpn as usize].state, PageState::OnDisk) {
                PageState::SwappingOut { waiters, .. } => waiters,
                _ => unreachable!("checked above"),
            };
        self.swap_attempts.remove(&(node, vpn));
        if let Some(start) = self.swap_start.remove(&(node, vpn)) {
            self.m_swap_out_time.add(t - start);
            self.m_swap_out_hist.add(t - start);
            // Swap-out span on the VM track: eviction to frame reuse.
            self.obs_span(start, t, groups::VM, node, "vm.swapout.std", vpn, 0);
        }
        self.frames[node as usize].eviction_finished();
        self.frames[node as usize].release();
        self.wake_frame_waiter(node, t);
        for q in waiters {
            self.wake_proc(q, t); // they re-fault; likely a cache hit
        }
        Ok(())
    }

    /// The controller's OK reached the swapping node: re-send the page
    /// (a slot has been reserved for it).
    pub(crate) fn on_swap_ok(&mut self, node: u32, vpn: Vpn, _disk: u32) -> Result<(), SimError> {
        let t = self.queue.now();
        if !matches!(
            self.pt[vpn as usize].state,
            PageState::SwappingOut { from, .. } if from == node
        ) {
            if self.cfg.faults.is_active() {
                // The swap already completed via a timed-out retry.
                return Ok(());
            }
            return Err(SimError::ProtocolViolation {
                at: t,
                what: format!(
                    "SwapOk for page {vpn} in state {:?}",
                    self.pt[vpn as usize].state
                ),
            });
        }
        self.start_std_swap(node, vpn, t);
        Ok(())
    }

    /// A flush check that found disk `disk`'s arm free: flush a run of
    /// dirty pages, if the controller has one.
    fn start_flush(&mut self, disk: u32) {
        let t = self.queue.now();
        let io = self.disk_homes[disk as usize];
        if let Some(res) = self.disks[disk as usize].try_flush(t) {
            self.obs_span(
                res.start,
                res.done_at,
                groups::DISK,
                disk,
                "disk.flush",
                res.pages,
                res.oks.len() as u64,
            );
            for (node, page) in &res.oks {
                let d = self
                    .mesh_send(res.done_at, io, *node, self.cfg.ctl_msg_bytes, "mesh.ctl");
                if self.ctl_msg_delivered() {
                    self.queue.schedule_at(
                        d.arrival,
                        super::Event::SwapOk {
                            node: *node,
                            vpn: *page,
                            disk,
                        },
                    );
                }
            }
            // More dirty runs may remain; cache room also lets the
            // NWCache interface drain more swap-outs, and requesters
            // NACKed during the flush get first claim on freed slots.
            self.schedule_flush_check(res.done_at, disk);
            self.queue
                .schedule_at(res.done_at, super::Event::NackRecheck { disk });
            if self.cfg.has_ring() {
                self.queue
                    .schedule_at(res.done_at, super::Event::DrainCheck { disk });
            }
        }
    }

    /// Hand freed cache slots to requesters NACKed during a flush.
    pub(crate) fn on_nack_recheck(&mut self, disk: u32) {
        let t = self.queue.now();
        let io = self.disk_homes[disk as usize];
        for (node, page) in self.disks[disk as usize].claim_for_waiters(t) {
            let d = self.mesh_send(t, io, node, self.cfg.ctl_msg_bytes, "mesh.ctl");
            if self.ctl_msg_delivered() {
                self.queue.schedule_at(
                    d.arrival,
                    super::Event::SwapOk {
                        node,
                        vpn: page,
                        disk,
                    },
                );
            }
        }
    }

    /// A swap-out notification reached the NWCache interface.
    pub(crate) fn on_iface_enqueue(&mut self, disk: u32, ch: u32, vpn: Vpn) {
        let t = self.queue.now();
        if self.ring.as_ref().is_some_and(|r| r.is_dead(ch as usize)) {
            // The channel died while this notification was in flight;
            // the failure handler re-routes its pages over the mesh.
            return;
        }
        // The record's origin is the swapping *node*, not the global
        // channel id — they only coincide on a single-ring fabric.
        let origin = self.channel_node(ch);
        self.ifaces[disk as usize].enqueue(ch as usize, origin, vpn);
        self.queue.schedule_at(t, super::Event::DrainCheck { disk });
    }

    /// The interface tries to copy one page from the most loaded
    /// channel into the disk cache (one tunable receiver: drains are
    /// serialized per interface).
    pub(crate) fn on_drain_check(&mut self, disk: u32) -> Result<(), SimError> {
        let t = self.queue.now();
        let d = disk as usize;
        if self.drain_busy_until[d] > t {
            // Busy; the completion event will re-check.
            return Ok(());
        }
        if !self.disks[d].has_write_room(t) {
            // A flush completion will re-schedule us.
            return Ok(());
        }
        let Some((ch, rec)) = self.ifaces[d].next_to_drain() else {
            return Ok(());
        };
        // Skip records whose page was already victim-read off the
        // ring; the authoritative ACK is sent here since the cancel
        // message found the record already popped -- see on_cancel_msg.
        // A page still in `SwappingOut` is mid-insertion onto the
        // channel (the notification can overtake the optical
        // serialization) and is drained normally.
        let still_on_ring = matches!(
            self.pt[rec.page as usize].state,
            PageState::OnRing { channel } if channel == ch as u32
        ) || matches!(
            self.pt[rec.page as usize].state,
            PageState::SwappingOut { from, .. } if from == self.channel_node(ch as u32)
        );
        if !still_on_ring {
            let io = self.disk_homes[disk as usize];
            let md = self.mesh_send(t, io, rec.origin, self.cfg.ctl_msg_bytes, "mesh.ctl");
            self.queue.schedule_at(
                md.arrival,
                super::Event::RingAck {
                    origin: rec.origin,
                    ch: ch as u32,
                    vpn: rec.page,
                },
            );
            self.queue.schedule_at(t, super::Event::DrainCheck { disk });
            return Ok(());
        }
        let ready = self
            .ring
            .as_mut()
            .expect("drain requires a ring")
            .snoop_ready(t, ch, rec.page);
        let Some(ready) = ready else {
            return Err(SimError::ProtocolViolation {
                at: t,
                what: format!("drain record for page {} not on channel {ch}", rec.page),
            });
        };
        self.drain_busy_until[d] = ready;
        self.obs_span(t, ready, groups::RING, ch as u32, "ring.drain", rec.page, rec.origin as u64);
        self.queue.schedule_at(
            ready,
            super::Event::DrainCopied {
                disk,
                ch: ch as u32,
                vpn: rec.page,
                origin: rec.origin,
            },
        );
        Ok(())
    }

    /// A page finished copying from the ring into the disk cache.
    pub(crate) fn on_drain_copied(&mut self, disk: u32, ch: u32, vpn: Vpn, origin: u32) {
        let t = self.queue.now();
        let io = self.disk_homes[disk as usize];
        if matches!(self.pt[vpn as usize].state, PageState::OnRing { channel } if channel == ch) {
            let block = self.fs.block_of(vpn);
            match self.disks[disk as usize].write_page(t, vpn, block, origin) {
                WriteOutcome::Ack { flush_check_at } => {
                    // The page now lives beyond the disk-controller
                    // boundary; the Ring bit is cleared when the
                    // origin's ACK arrives, but faults from now on go
                    // to the disk.
                    self.pt[vpn as usize].state = PageState::OnDisk;
                    self.obs_instant(t, groups::DISK, disk, "disk.admit", vpn, origin as u64);
                    self.schedule_flush_check(flush_check_at, disk);
                }
                WriteOutcome::Nack => {
                    // Room vanished between the check and the copy:
                    // put the record back and retry after the next
                    // flush frees space. The drain retries through its
                    // own FIFO, so it must not join the controller's
                    // NACK/OK reservation protocol — nothing on the
                    // ring path consumes the OK, and the reserved slot
                    // would be lost for good.
                    self.m_swap_nacks += 1;
                    self.disks[disk as usize].retract_nack(origin, vpn);
                    self.ifaces[disk as usize].requeue_front(
                        ch as usize,
                        nw_optical::SwapRecord {
                            origin,
                            page: vpn,
                        },
                    );
                    // Re-check right away in case room came back as
                    // clean (prefetch-filled) slots that no flush
                    // completion will ever announce; a room-less check
                    // is a cheap no-op.
                    self.obs_instant(t, groups::DISK, disk, "disk.nack", vpn, origin as u64);
                    self.queue.schedule_at(t, super::Event::DrainCheck { disk });
                    return;
                }
            }
        }
        // ACK to the original swapper: it frees the ring slot.
        let d = self.mesh_send(t, io, origin, self.cfg.ctl_msg_bytes, "mesh.ctl");
        self.queue.schedule_at(
            d.arrival,
            super::Event::RingAck {
                origin,
                ch,
                vpn,
            },
        );
        // Try the next record.
        self.queue.schedule_at(t, super::Event::DrainCheck { disk });
    }

    /// The ACK reached the original swapper: free the ring slot and
    /// start any swap-out waiting for channel room.
    pub(crate) fn on_ring_ack(&mut self, origin: u32, ch: u32, vpn: Vpn) {
        let t = self.queue.now();
        self.obs_instant(t, groups::RING, ch, "ring.ack", vpn, origin as u64);
        if let Some(ring) = self.ring.as_mut() {
            ring.remove(ch as usize, vpn);
        }
        if let Some(ring) = self.ring.as_ref() {
            self.m_ring_occupancy.record(t, ring.total_occupancy() as u64);
        }
        // When ring failures are scheduled the frame stayed pinned
        // until this disk-side acknowledgement.
        if self.pinned.remove(&(origin, vpn)) {
            self.frames[origin as usize].eviction_finished();
            self.frames[origin as usize].release();
            self.wake_frame_waiter(origin, t);
        }
        if let Some(next) = self.pending_ring_swaps[origin as usize].pop_front() {
            self.start_ring_swap(origin, next, t);
        }
    }

    /// A scheduled ring channel failure fires: destroy the channel's
    /// circulating pages, mark it dead, and recover — pages lost from
    /// the ring are re-issued as standard mesh swap-outs (their frames
    /// are still pinned dirty), queued swap-outs are re-routed, and
    /// future swap-outs of the channel's node degrade to the standard
    /// ACK/NACK path.
    pub(crate) fn on_ring_channel_fail(&mut self, ch: u32) -> Result<(), SimError> {
        let t = self.queue.now();
        let lost = {
            let Some(ring) = self.ring.as_mut() else {
                return Ok(());
            };
            if ring.is_dead(ch as usize) {
                return Ok(());
            }
            ring.fail_channel(ch as usize)
        };
        self.obs_instant(t, groups::RING, ch, "ring.fail", lost.len() as u64, 0);
        self.m_dead_channels += 1;
        if let Some(ring) = self.ring.as_ref() {
            self.m_ring_occupancy.record(t, ring.total_occupancy() as u64);
        }
        // Abandon interface FIFO records for the dead channel; the
        // page-state scan below re-issues anything that needs to reach
        // the disk.
        for iface in &mut self.ifaces {
            iface.fail_channel(ch as usize);
        }
        // The node whose transmitter fed the dead channel (== ch on
        // the single-ring paper machine).
        let node = self.channel_node(ch);
        for vpn in lost {
            match self.pt[vpn as usize].state {
                PageState::OnRing { channel } if channel == ch => {
                    // The only copy was circulating on the dead
                    // channel; the origin still pins the frame, so
                    // re-issue the swap-out over the mesh.
                    self.pt[vpn as usize].state = PageState::SwappingOut {
                        from: node,
                        waiters: Vec::new(),
                    };
                    self.pinned.remove(&(node, vpn));
                    self.m_ring_pages_lost += 1;
                    self.m_swap_retries += 1;
                    self.swap_start.entry((node, vpn)).or_insert(t);
                    self.start_std_swap(node, vpn, t);
                }
                PageState::SwappingOut { from, .. } if from == node => {
                    // Mid-insertion: the pending RingInsertDone sees
                    // the dead channel and re-routes over the mesh.
                }
                _ => {
                    // Already drained to disk or victim-read back into
                    // memory; only the pinned frame needs releasing,
                    // since the slot-freeing ACK may never arrive.
                    if self.pinned.remove(&(node, vpn)) {
                        self.frames[node as usize].eviction_finished();
                        self.frames[node as usize].release();
                        self.wake_frame_waiter(node, t);
                    }
                }
            }
        }
        // Swap-outs queued for channel room fall back to the mesh —
        // but only those sharded onto the dead channel's ring: the
        // node's queued pages for other rings keep their NWCache path
        // (re-queued in their original order).
        let queued: Vec<Vpn> = self.pending_ring_swaps[node as usize].drain(..).collect();
        for vpn in queued {
            if self.ring_channel_of(node, vpn) == ch {
                self.m_degraded_ring_swaps += 1;
                self.start_std_swap(node, vpn, t);
            } else {
                self.pending_ring_swaps[node as usize].push_back(vpn);
            }
        }
        Ok(())
    }

    /// A swap-out's acknowledgement timer expired (armed only when
    /// mesh message faults are active). Re-issue the write with a
    /// bounded retry count unless the swap completed, or a newer
    /// retry already armed its own timer.
    pub(crate) fn on_swap_timeout(
        &mut self,
        node: u32,
        vpn: Vpn,
        attempt: u32,
    ) -> Result<(), SimError> {
        let t = self.queue.now();
        if !matches!(
            self.pt[vpn as usize].state,
            PageState::SwappingOut { from, .. } if from == node
        ) {
            return Ok(()); // completed in the meantime
        }
        let current = self.swap_attempts.get(&(node, vpn)).copied().unwrap_or(0);
        if attempt != current {
            return Ok(()); // stale timer from a superseded attempt
        }
        let next = attempt + 1;
        if next > self.cfg.faults.max_retries {
            return Err(SimError::RetriesExhausted {
                kind: "swap-out",
                vpn,
                attempts: next,
            });
        }
        self.swap_attempts.insert((node, vpn), next);
        self.m_swap_retries += 1;
        self.start_std_swap(node, vpn, t);
        Ok(())
    }

    /// A victim-read notification reached the interface: the page no
    /// longer needs to reach the disk.
    pub(crate) fn on_cancel_msg(&mut self, disk: u32, ch: u32, vpn: Vpn) {
        let t = self.queue.now();
        let io = self.disk_homes[disk as usize];
        self.obs_instant(t, groups::RING, ch, "ring.cancel", vpn, disk as u64);
        if let Some(rec) = self.ifaces[disk as usize].cancel(ch as usize, vpn) {
            // Record was still queued: the interface ACKs the swapper
            // directly (the drain will never see this page).
            let d = self.mesh_send(t, io, rec.origin, self.cfg.ctl_msg_bytes, "mesh.ctl");
            self.queue.schedule_at(
                d.arrival,
                super::Event::RingAck {
                    origin: rec.origin,
                    ch,
                    vpn,
                },
            );
        }
        // If cancel returned None the drain already popped the record;
        // on_drain_check / on_drain_copied send the ACK instead.
    }

    /// A speculative prefetch hint reached the controller. Duplicates
    /// (the demand stream beat the hint to the page) resolve the hint
    /// immediately; fresh hints join the controller's speculative queue
    /// and kick its read engine if it is idle.
    pub(crate) fn on_spec_hint(&mut self, disk: u32, vpn: Vpn, node: u32) {
        let t = self.queue.now();
        let block = self.fs.block_of(vpn);
        match self.disks[disk as usize].spec_hint(t, vpn, block, node) {
            nw_disk::SpecOutcome::Duplicate => {
                if let Some(spec) = &mut self.spec {
                    spec.release(vpn);
                }
            }
            nw_disk::SpecOutcome::Queued { schedule_check } => {
                self.obs_instant(t, groups::DISK, disk, "disk.spec.hint", vpn, node as u64);
                if schedule_check {
                    self.queue.schedule_at(t, super::Event::SpecCheck { disk });
                }
            }
        }
    }

    /// Advance the controller's speculative read engine: install a
    /// completed fill into the side cache, start the next queued hint
    /// when the arm is idle, and keep the poll chain alive while work
    /// remains.
    pub(crate) fn on_spec_check(&mut self, disk: u32) {
        let t = self.queue.now();
        let prog = self.disks[disk as usize].spec_step(t);
        for &(page, node) in &prog.installed {
            if let Some(spec) = &mut self.spec {
                spec.release(page);
            }
            self.obs_instant(t, groups::DISK, disk, "disk.spec.install", page, node as u64);
        }
        if let Some(at) = prog.next_check {
            self.queue
                .schedule_at(at.max(t), super::Event::SpecCheck { disk });
        }
    }
}
