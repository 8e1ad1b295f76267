//! Page faults, frame allocation, LRU replacement, TLB shootdown and
//! swap-out initiation.

use super::{BlockKind, FaultInfo, FaultSource, Machine};
use crate::config::{MachineKind, PrefetchMode};
use crate::error::SimError;
use crate::observe::groups;
use crate::vm::{PageState, ProcId, Vpn};
use nw_sim::Time;

impl Machine {
    /// Fault on a page that is only on disk. Allocates a frame (which
    /// may block the processor on `NoFree`), then launches the page
    /// request toward the responsible disk.
    pub(crate) fn fault_from_disk(&mut self, p: ProcId, vpn: Vpn) {
        let n = self.node_of(p);
        let now = self.procs[p as usize].local_time;
        if !self.try_alloc_frame(n, now, p) {
            return; // blocked NoFree; access will be retried
        }
        self.m_page_faults += 1;
        self.m_ring_misses += 1;
        debug_assert!(
            !self.fault_info.contains_key(&vpn),
            "fault started for page {vpn} with a fault already in flight"
        );
        self.pt[vpn as usize].state = PageState::InTransit {
            node: n,
            waiters: vec![p],
        };
        self.block_proc(p, BlockKind::Fault);
        self.fault_info.insert(
            vpn,
            FaultInfo {
                start: now,
                source: FaultSource::DiskCacheMiss, // refined at the disk
            },
        );
        self.obs_instant(now, groups::VM, n, "vm.fault.disk", vpn, p as u64);
        let disk = self.fs.disk_of(vpn);
        let io = self.disk_homes[disk as usize];
        let d = self.mesh_send(now, n, io, self.cfg.ctl_msg_bytes, "mesh.ctl");
        self.queue
            .schedule_at(d.arrival, super::Event::DiskRequest { disk, vpn });
        self.maybe_speculate(n, vpn, now);
    }

    /// Adaptive-prefetch hook, called on every disk-bound fault: feed
    /// the node's detector, retract hints its fresh predictions no
    /// longer cover (demand misses shift the window, so a collision
    /// with an unpredicted page naturally cancels the stale lookahead),
    /// and issue new bounded speculative hints over the mesh. A no-op
    /// (no RNG rolls, no traffic) unless the mode is adaptive.
    pub(crate) fn maybe_speculate(&mut self, node: u32, vpn: Vpn, now: Time) {
        // Taken out for the round so the mesh and disk paths below can
        // borrow the machine; nothing they call touches it.
        let Some(mut spec) = self.spec.take() else {
            return;
        };
        spec.observe_fault(node, vpn);
        let mut preds = std::mem::take(&mut spec.preds);
        spec.predict(node, &mut preds);
        // Cancel queued hints that fell out of the prediction set. The
        // faulting page itself is never stale: its demand read is en
        // route to the controller and will consume the speculative
        // fill (the late-hit path) — retracting it here would throw
        // away exactly the work the hint existed to do.
        let mut stale = std::mem::take(&mut spec.stale);
        spec.outstanding_for(node, &mut stale);
        for &old in &stale {
            if old != vpn
                && !preds.contains(&old)
                && self.disks[self.fs.disk_of(old) as usize].spec_cancel(old)
            {
                spec.release(old);
            }
        }
        // Issue hints for fresh, useful predictions within the cap.
        for &pred in &preds {
            if spec.inflight(node) >= spec.cap() {
                break;
            }
            if pred >= self.npages
                || self.pt[pred as usize].state != PageState::OnDisk
                || spec.is_outstanding(pred)
            {
                continue;
            }
            let disk = self.fs.disk_of(pred);
            let dc = &self.disks[disk as usize];
            if dc.cache_contains(pred) || dc.spec_tracks(pred) {
                continue;
            }
            spec.commit(node, pred);
            let io = self.disk_homes[disk as usize];
            // The hint is a control message and shares the protected
            // mesh paths' fault model: bandwidth is spent either way,
            // a dropped hint simply never reaches the controller.
            let d = self.mesh_send(now, node, io, self.cfg.ctl_msg_bytes, "mesh.ctl");
            if self.ctl_msg_delivered() {
                self.queue.schedule_at(
                    d.arrival,
                    super::Event::SpecHint {
                        disk,
                        vpn: pred,
                        node,
                    },
                );
            } else {
                spec.release(pred);
            }
        }
        preds.clear();
        stale.clear();
        spec.preds = preds;
        spec.stale = stale;
        self.spec = Some(spec);
    }

    /// Fault on a page whose Ring bit is set: victim read straight off
    /// the optical ring (NWCache machine only).
    pub(crate) fn fault_from_ring(&mut self, p: ProcId, vpn: Vpn, channel: u32) {
        debug_assert!(self.cfg.has_ring());
        let n = self.node_of(p);
        let now = self.procs[p as usize].local_time;
        if !self.try_alloc_frame(n, now, p) {
            return;
        }
        self.m_page_faults += 1;
        self.m_ring_hits += 1;
        self.pt[vpn as usize].state = PageState::InTransit {
            node: n,
            waiters: vec![p],
        };
        self.block_proc(p, BlockKind::Fault);
        self.fault_info.insert(
            vpn,
            FaultInfo {
                start: now,
                source: FaultSource::Ring,
            },
        );
        self.obs_instant(now, groups::VM, n, "vm.fault.ring", vpn, p as u64);
        // Snoop the page off the channel with the node's own tunable
        // receiver, then deliver through the local I/O and memory bus
        // only — no interconnect transfer (the contention benefit).
        let ring = self.ring.as_mut().expect("ring faults require a ring");
        let Some(ready) = ring.snoop_ready(now, channel as usize, vpn) else {
            self.fatal = Some(SimError::ProtocolViolation {
                at: now,
                what: format!("Ring bit set but page {vpn} absent from channel {channel}"),
            });
            return;
        };
        self.obs_span(now, ready, groups::RING, channel, "ring.snoop", vpn, n as u64);
        let g = self.io_bus[n as usize].transfer(ready, self.cfg.page_bytes);
        let g2 = self.mem_bus[n as usize].transfer(g.end, self.cfg.page_bytes);
        self.queue
            .schedule_at(g2.end, super::Event::PageArrive { vpn });
        let disk = self.fs.disk_of(vpn);
        let io = self.disk_homes[disk as usize];
        // Under optimal prefetching the prefetch engine was already
        // streaming this page toward memory; the ring hit "usually
        // cannot abort the transfer through the network and the I/O
        // node bus in time" (paper par. 5, Contention), so the disk,
        // I/O-bus and mesh bandwidth is spent even though the fault is
        // served from the ring.
        if self.cfg.prefetch == PrefetchMode::Optimal {
            self.disks[disk as usize].background_read(now);
            let bg = self.io_bus[io as usize].transfer(now, self.cfg.page_bytes);
            self.mesh_send(bg.end, io, n, self.cfg.page_bytes, "mesh.page");
        }
        // Notify the responsible I/O node so the page is not also
        // written to disk; the interface will ACK the original swapper.
        // A lost cancel is safe: the drain finds the record's page no
        // longer on the ring and sends the authoritative ACK itself.
        let d = self.mesh_send(now, n, io, self.cfg.ctl_msg_bytes, "mesh.ctl");
        if self.ctl_msg_delivered() {
            self.queue.schedule_at(
                d.arrival,
                super::Event::CancelMsg {
                    disk,
                    ch: channel,
                    vpn,
                },
            );
        }
    }

    /// Try to take a frame on `node` for a fault by processor `p`.
    /// On failure the processor is blocked on `NoFree` and queued.
    pub(crate) fn try_alloc_frame(&mut self, node: u32, now: Time, p: ProcId) -> bool {
        if self.frames[node as usize].take() {
            self.maybe_replenish(node, now);
            return true;
        }
        // Replenishing may free frames synchronously (clean victims).
        self.maybe_replenish(node, now);
        if self.frames[node as usize].take() {
            return true;
        }
        self.frames[node as usize].waiters.push(p);
        self.block_proc(p, BlockKind::NoFree);
        false
    }

    /// Keep the node's free-frame count at the configured minimum by
    /// starting evictions of the least recently used resident pages.
    pub(crate) fn maybe_replenish(&mut self, node: u32, now: Time) {
        loop {
            let fp = &self.frames[node as usize];
            if fp.free() + fp.pending_evictions() >= self.cfg.min_free_frames {
                return;
            }
            let Some(victim) = self.pick_victim(node) else {
                return; // nothing evictable right now
            };
            self.evict_page(node, victim, now);
        }
    }

    /// Choose the replacement victim on `node` per the configured
    /// policy. Returns `None` when nothing is evictable.
    pub(crate) fn pick_victim(&mut self, node: u32) -> Option<Vpn> {
        use crate::config::ReplacementPolicy::*;
        let fp = &self.frames[node as usize];
        match self.cfg.replacement {
            Lru => fp
                .resident()
                .iter()
                .copied()
                .min_by_key(|&v| self.pt[v as usize].last_access),
            Fifo => fp
                .resident()
                .iter()
                .copied()
                .min_by_key(|&v| self.pt[v as usize].arrived_at),
            Clock => {
                // Second chance in arrival order: skip-and-clear
                // referenced pages; fall back to the oldest.
                let mut order: Vec<Vpn> = fp.resident().to_vec();
                order.sort_by_key(|&v| self.pt[v as usize].arrived_at);
                let chosen = order
                    .iter()
                    .copied()
                    .find(|&v| !self.pt[v as usize].referenced);
                for &v in &order {
                    self.pt[v as usize].referenced = false;
                    if Some(v) == chosen {
                        break;
                    }
                }
                chosen.or_else(|| order.first().copied())
            }
        }
    }

    /// Downgrade and evict `vpn` from `node`'s memory: TLB shootdown,
    /// cache/directory purge, then either free the frame (clean) or
    /// start a swap-out (dirty).
    pub(crate) fn evict_page(&mut self, node: u32, vpn: Vpn, now: Time) {
        debug_assert!(matches!(
            self.pt[vpn as usize].state,
            PageState::InMemory { node: h } if h == node
        ));
        self.frames[node as usize].remove_resident(vpn);
        self.shootdown(node, vpn);
        self.purge_page_from_caches(node, vpn, now);
        self.obs_instant(
            now,
            groups::VM,
            node,
            "vm.evict",
            vpn,
            self.pt[vpn as usize].dirty as u64,
        );

        if self.pt[vpn as usize].dirty {
            self.pt[vpn as usize].state = PageState::SwappingOut {
                from: node,
                waiters: Vec::new(),
            };
            self.pt[vpn as usize].dirty = false;
            self.frames[node as usize].eviction_started();
            self.m_swap_outs += 1;
            self.swap_start.insert((node, vpn), now);
            match self.cfg.kind {
                MachineKind::Standard | MachineKind::Dcd => {
                    self.start_std_swap(node, vpn, now)
                }
                MachineKind::NwCache => self.start_ring_swap(node, vpn, now),
            }
        } else {
            self.pt[vpn as usize].state = PageState::OnDisk;
            self.frames[node as usize].release();
            self.wake_frame_waiter(node, now);
        }
    }

    /// TLB shootdown for `vpn`: the initiator (the processor on
    /// `node`) pays the shootdown latency; every other processor with
    /// a cached translation pays an interrupt.
    fn shootdown(&mut self, node: u32, vpn: Vpn) {
        self.m_shootdowns += 1;
        let initiator = node as usize;
        self.procs[initiator].tlb.invalidate(vpn);
        self.procs[initiator].pending_interrupt += self.cfg.tlb_shootdown_latency;
        for q in 0..self.procs.len() {
            if q == initiator {
                continue;
            }
            if self.procs[q].tlb.invalidate(vpn) {
                self.procs[q].pending_interrupt += self.cfg.interrupt_latency;
            }
        }
    }

    /// Invalidate every cached line of `vpn` machine-wide (the
    /// access-rights downgrade) and charge writebacks of dirty lines
    /// to the evicting node's memory bus.
    fn purge_page_from_caches(&mut self, node: u32, vpn: Vpn, now: Time) {
        // Reuse the machine-lifetime scratch buffer (taken, not
        // borrowed, because the loop body mutates `self`); the purge
        // path runs on every eviction and must not allocate.
        let mut purged = std::mem::take(&mut self.scratch_purge);
        self.dir.purge_page_into(vpn, &mut purged);
        let mut dirty_lines: u64 = 0;
        // Each sharer bit covers a group of `g` consecutive nodes
        // (g == 1 on machines up to 32 nodes: exactly the set bits).
        let g = self.dir.granularity();
        let nodes = self.cfg.nodes;
        for &(line, mask) in &purged {
            let mut m = mask;
            while m != 0 {
                let group = m.trailing_zeros();
                m &= m - 1;
                for s in ((group * g) as usize)..(((group + 1) * g).min(nodes) as usize) {
                    let d1 = self.procs[s].l1.invalidate(line).unwrap_or(false);
                    let d2 = self.procs[s].l2.invalidate(line).unwrap_or(false);
                    if d1 || d2 {
                        dirty_lines += 1;
                        if s as u32 != node {
                            // Modified data travels to the holding
                            // node's memory over the mesh (background
                            // traffic).
                            self.mesh_send(
                                now,
                                s as u32,
                                node,
                                nw_memhier::LINE_BYTES + self.cfg.ctl_msg_bytes,
                                "mesh.line",
                            );
                        }
                    }
                }
            }
        }
        if dirty_lines > 0 {
            self.mem_bus[node as usize].transfer(now, dirty_lines * nw_memhier::LINE_BYTES);
        }
        self.scratch_purge = purged;
    }

    /// Wake the processor stalled for a frame on `node`, if any.
    pub(crate) fn wake_frame_waiter(&mut self, node: u32, t: Time) {
        if self.frames[node as usize].free() == 0 {
            return;
        }
        if let Some(&p) = self.frames[node as usize].waiters.first() {
            self.frames[node as usize].waiters.remove(0);
            self.wake_proc(p, t);
        }
    }

    /// A faulted page's data is fully in its destination memory.
    pub(crate) fn on_page_arrive(&mut self, vpn: Vpn) -> Result<(), SimError> {
        let t = self.queue.now();
        if !matches!(self.pt[vpn as usize].state, PageState::InTransit { .. }) {
            return Err(SimError::ProtocolViolation {
                at: t,
                what: format!(
                    "PageArrive for page {vpn} in state {:?}",
                    self.pt[vpn as usize].state
                ),
            });
        }
        let (node, waiters) = match std::mem::replace(
            &mut self.pt[vpn as usize].state,
            PageState::OnDisk,
        ) {
            PageState::InTransit { node, waiters } => (node, waiters),
            _ => unreachable!("checked above"),
        };
        self.pt[vpn as usize].state = PageState::InMemory { node };
        self.pt[vpn as usize].last_access = t;
        self.pt[vpn as usize].arrived_at = t;
        self.pt[vpn as usize].referenced = true;
        self.pt[vpn as usize].last_node = node;
        self.frames[node as usize].add_resident(vpn);
        if let Some(info) = self.fault_info.remove(&vpn) {
            let lat = t - info.start;
            self.m_fault_hist.add(lat);
            let name = match info.source {
                FaultSource::DiskCacheHit => "vm.fault.disk_hit",
                FaultSource::DiskCacheMiss => "vm.fault.disk_miss",
                FaultSource::Ring => "vm.fault.ring_hit",
            };
            self.obs_span(info.start, t, groups::VM, node, name, vpn, 0);
            match info.source {
                FaultSource::DiskCacheHit => self.m_fault_hit.add(lat),
                FaultSource::DiskCacheMiss => self.m_fault_miss.add(lat),
                FaultSource::Ring => self.m_fault_ring.add(lat),
            }
        }
        for q in waiters {
            self.wake_proc(q, t);
        }
        Ok(())
    }

    /// Launch a standard-machine swap-out: page crosses the mesh to
    /// the responsible disk controller.
    pub(crate) fn start_std_swap(&mut self, node: u32, vpn: Vpn, now: Time) {
        let disk = self.fs.disk_of(vpn);
        let io = self.disk_homes[disk as usize];
        // Read the page from memory, then ship it.
        let g = self.mem_bus[node as usize].transfer(now, self.cfg.page_bytes);
        let d = self.mesh_send(g.end, node, io, self.cfg.page_bytes, "mesh.page");
        self.queue.schedule_at(
            d.arrival,
            super::Event::SwapWriteArrive {
                disk,
                vpn,
                from: node,
            },
        );
        // With lossy control messages the ACK/OK may never arrive; arm
        // a bounded-retry timeout for this attempt.
        if self.mesh_faults.is_active() {
            let attempt = self.swap_attempts.get(&(node, vpn)).copied().unwrap_or(0);
            self.queue.schedule_at(
                now + self.cfg.faults.request_timeout,
                super::Event::SwapTimeout { node, vpn, attempt },
            );
        }
    }

    /// Launch an NWCache swap-out: insert the page on the node's cache
    /// channel (on the ring that shards this page) if it has room,
    /// otherwise queue until a slot frees.
    pub(crate) fn start_ring_swap(&mut self, node: u32, vpn: Vpn, now: Time) {
        let ch = self.ring_channel_of(node, vpn) as usize;
        // Graceful degradation: a dead channel routes this node's
        // swap-outs through the standard ACK/NACK path instead.
        if self
            .ring
            .as_ref()
            .expect("NWCache machine has a ring")
            .is_dead(ch)
        {
            self.m_degraded_ring_swaps += 1;
            self.start_std_swap(node, vpn, now);
            return;
        }
        let ring = self.ring.as_ref().expect("NWCache machine has a ring");
        // Defer when the channel is full — or when a *stale copy* of
        // this very page is still circulating (drained to the disk
        // cache but its slot-freeing ACK has not reached us yet). The
        // next RingAck for this node retries the queue.
        if !ring.has_room(ch) || ring.contains(ch, vpn) {
            self.pending_ring_swaps[node as usize].push_back(vpn);
            return;
        }
        // Page moves over the local memory and I/O buses to the NWC
        // interface, then serializes onto the channel (multi-ring
        // fabrics arbitrate the node's tunable transmitter here).
        let g = self.mem_bus[node as usize].transfer(now, self.cfg.page_bytes);
        let g2 = self.io_bus[node as usize].transfer(g.end, self.cfg.page_bytes);
        let on_ring = self
            .ring
            .as_mut()
            .expect("checked above")
            .insert(g2.end, ch, vpn)
            .expect("room was checked");
        self.obs_span(g2.end, on_ring, groups::RING, ch as u32, "ring.insert", vpn, node as u64);
        self.queue
            .schedule_at(on_ring, super::Event::RingInsertDone { node, vpn });
        // Notify the responsible I/O node's interface.
        let disk = self.fs.disk_of(vpn);
        let io = self.disk_homes[disk as usize];
        let d = self.mesh_send(now, node, io, self.cfg.ctl_msg_bytes, "mesh.ctl");
        self.queue.schedule_at(
            d.arrival,
            super::Event::IfaceEnqueue {
                disk,
                ch: ch as u32,
                vpn,
            },
        );
    }

    /// The ring insertion completed: the swap-out is done from the
    /// node's point of view — frame reusable, Ring bit set.
    pub(crate) fn on_ring_insert_done(&mut self, node: u32, vpn: Vpn) -> Result<(), SimError> {
        let t = self.queue.now();
        if !matches!(
            self.pt[vpn as usize].state,
            PageState::SwappingOut { from, .. } if from == node
        ) {
            return Err(SimError::ProtocolViolation {
                at: t,
                what: format!(
                    "RingInsertDone for page {vpn} in state {:?}",
                    self.pt[vpn as usize].state
                ),
            });
        }
        // The channel died while the page was serializing onto it: the
        // bits are gone. The page is still `SwappingOut` and its frame
        // still held, so re-route the swap-out over the mesh.
        let ch = self.ring_channel_of(node, vpn);
        if self.ring.as_ref().is_some_and(|r| r.is_dead(ch as usize)) {
            self.m_ring_pages_lost += 1;
            self.m_swap_retries += 1;
            self.start_std_swap(node, vpn, t);
            return Ok(());
        }
        let waiters = match std::mem::replace(
            &mut self.pt[vpn as usize].state,
            PageState::OnRing { channel: ch },
        ) {
            PageState::SwappingOut { waiters, .. } => waiters,
            _ => unreachable!("checked above"),
        };
        self.pt[vpn as usize].last_node = node;
        if let Some(start) = self.swap_start.remove(&(node, vpn)) {
            self.m_swap_out_time.add(t - start);
            self.m_swap_out_hist.add(t - start);
            self.obs_span(start, t, groups::VM, node, "vm.swapout.ring", vpn, 1);
        }
        if let Some(ring) = self.ring.as_ref() {
            self.m_ring_occupancy.record(t, ring.total_occupancy() as u64);
        }
        if self.cfg.faults.ring_channel_failures.is_empty() {
            self.frames[node as usize].eviction_finished();
            self.frames[node as usize].release();
            self.wake_frame_waiter(node, t);
        } else {
            // Channel failures are scheduled: keep the frame pinned
            // dirty until the disk-side ACK confirms the page can no
            // longer be lost with the ring.
            self.pinned.insert((node, vpn));
        }
        for q in waiters {
            self.wake_proc(q, t); // they re-fault and hit the ring
        }
        Ok(())
    }
}
