//! The synchronous memory-access path: TLB, caches and the
//! directory-coherent memory transaction.
//!
//! Everything here resolves against resource timestamps without event
//! round-trips; only page faults (handled in `fault.rs`) block the
//! processor.

use super::{BlockKind, Machine};
use crate::observe::groups;
use crate::vm::{PageState, ProcId};
use nw_memhier::Line;
use nw_sim::Time;

impl Machine {
    /// Execute one load/store for processor `p`. Returns
    /// `(total latency, TLB portion)` to charge, or `Err(())` if the
    /// processor blocked (page fault, transit wait, frame shortage,
    /// swap wait).
    pub(crate) fn access(
        &mut self,
        p: ProcId,
        line: Line,
        is_write: bool,
    ) -> Result<(Time, Time), ()> {
        let vpn = self.page_of(line);
        debug_assert!(vpn < self.npages, "access beyond footprint");
        let now = self.procs[p as usize].local_time;

        // 1. Address translation.
        let mut lat: Time = 0;
        let mut tlb_lat: Time = 0;
        let tlb_hit = self.procs[p as usize].tlb.lookup(vpn);
        if !tlb_hit {
            tlb_lat = self.cfg.tlb_miss_latency;
            lat += tlb_lat;
        }

        // 2. Page-table walk / fault check.
        let home = match self.pt[vpn as usize].state {
            PageState::InMemory { node } => node,
            PageState::InTransit { .. } => {
                if let PageState::InTransit { waiters, .. } =
                    &mut self.pt[vpn as usize].state
                {
                    waiters.push(p);
                }
                self.block_proc(p, BlockKind::Transit);
                return Err(());
            }
            PageState::SwappingOut { .. } => {
                if let PageState::SwappingOut { waiters, .. } =
                    &mut self.pt[vpn as usize].state
                {
                    waiters.push(p);
                }
                self.block_proc(p, BlockKind::Fault);
                return Err(());
            }
            PageState::OnDisk => {
                self.fault_from_disk(p, vpn);
                return Err(());
            }
            PageState::OnRing { channel } => {
                self.fault_from_ring(p, vpn, channel);
                return Err(());
            }
        };
        if !tlb_hit {
            // One processor per node: `p` indexes the holder bits.
            if let Some(old) = self.procs[p as usize].tlb.insert(vpn) {
                self.tlb_holders.remove(old, p as usize);
            }
            self.tlb_holders.insert(vpn, p as usize);
        }
        let entry = &mut self.pt[vpn as usize];
        entry.last_access = now;
        entry.referenced = true;
        entry.last_node = home;
        if is_write {
            entry.dirty = true;
        }

        // 3. Cache hierarchy.
        let n = self.node_of(p);
        let t_access = now + lat;
        match self.procs[p as usize].l1.access_dirty(line, is_write) {
            Some(was_dirty_l1) => {
                lat += self.cfg.l1_latency;
                if is_write && !was_dirty_l1 {
                    self.write_upgrade(n, line, home, t_access);
                }
            }
            None => {
                match self.procs[p as usize].l2.access_dirty(line, is_write) {
                    Some(was_dirty_l2) => {
                        lat += self.cfg.l1_latency + self.cfg.l2_latency;
                        if is_write && !was_dirty_l2 {
                            self.write_upgrade(n, line, home, t_access);
                        }
                        self.fill_l1(p, line, is_write);
                    }
                    None => {
                        let mem_lat = self.mem_transaction(p, line, is_write, home, t_access);
                        // Reads stall for the data; writes retire at
                        // L1 latency (release consistency). A write
                        // buffer that drains once more than half full
                        // never stalls a store, so none is modelled.
                        lat += if is_write { self.cfg.l1_latency } else { mem_lat };
                        self.fill_l2(p, line, is_write);
                        self.fill_l1(p, line, is_write);
                    }
                }
            }
        }
        Ok((lat, tlb_lat))
    }

    /// Fill `line` into `p`'s L1, handling the victim.
    fn fill_l1(&mut self, p: ProcId, line: Line, is_write: bool) {
        if let Some(victim) = self.procs[p as usize].l1.fill(line, is_write) {
            if victim.dirty {
                // L1 victim merges into L2 if present; otherwise the
                // line's dirtiness lives on in L2's copy or is lost to
                // memory (charged nowhere: tiny).
                self.procs[p as usize].l2.mark_dirty(victim.line);
            }
        }
    }

    /// Fill `line` into `p`'s L2, handling victim writeback and
    /// directory bookkeeping.
    fn fill_l2(&mut self, p: ProcId, line: Line, is_write: bool) {
        let n = self.node_of(p);
        if let Some(victim) = self.procs[p as usize].l2.fill(line, is_write) {
            self.dir.evict(victim.line, n);
            self.procs[p as usize].l1.invalidate(victim.line);
            if victim.dirty {
                let t = self.procs[p as usize].local_time;
                self.writeback(n, victim.line, t);
            }
        }
    }

    /// Charge the background writeback of a dirty line evicted from
    /// node `n`'s cache (not on the processor's critical path).
    pub(crate) fn writeback(&mut self, n: u32, line: Line, t: Time) {
        let vpn = self.page_of(line);
        let home = match self.pt[vpn as usize].state {
            PageState::InMemory { node } => node,
            // Page already gone from memory: the purge path handled it.
            _ => return,
        };
        if home != n {
            let d = self.mesh_send(
                t,
                n,
                home,
                nw_memhier::LINE_BYTES + self.cfg.ctl_msg_bytes,
                "mesh.line",
            );
            self.mem_bus[home as usize].transfer(d.arrival, nw_memhier::LINE_BYTES);
        } else {
            self.mem_bus[n as usize].transfer(t, nw_memhier::LINE_BYTES);
        }
    }

    /// A write hit on a non-exclusive line: directory upgrade. Under
    /// release consistency the invalidations are off the critical
    /// path, so no latency is returned; traffic is still charged.
    fn write_upgrade(&mut self, n: u32, line: Line, home: u32, t: Time) {
        let out = self.dir.write(line, n);
        self.obs_instant(t, groups::DIR, 0, "dir.upgrade", line, out.invalidate as u64);
        self.apply_invalidations(n, line, home, out.invalidate, t);
        if let Some(owner) = out.fetch_from {
            // Previous owner forwards its modified copy.
            let d = self.mesh_send(t, home, owner, self.cfg.ctl_msg_bytes, "mesh.ctl");
            self.procs[owner as usize].l1.invalidate(line);
            self.procs[owner as usize].l2.invalidate(line);
            self.mesh_send(
                d.arrival,
                owner,
                n,
                nw_memhier::LINE_BYTES + self.cfg.ctl_msg_bytes,
                "mesh.line",
            );
        }
    }

    /// Send invalidations to every sharer in `mask` and drop their
    /// cached copies. Past 32 nodes a mask bit covers a whole group of
    /// `granularity` nodes (DASH coarse vector): every member gets an
    /// invalidation — the coarse scheme's overhead, modeled as traffic.
    ///
    /// Deliberately allocation-free: the sharer set is walked as a
    /// bitmask (`trailing_zeros` + clear-lowest-bit), never
    /// materialized as a list — the same zero-allocation contract the
    /// page-purge path meets with the machine's scratch buffer.
    fn apply_invalidations(&mut self, n: u32, line: Line, home: u32, mask: u32, t: Time) {
        let g = self.dir.granularity();
        let nodes = self.cfg.nodes;
        let mut m = mask;
        while m != 0 {
            let group = m.trailing_zeros();
            m &= m - 1;
            for s in (group * g)..((group + 1) * g).min(nodes) {
                if s == n {
                    continue;
                }
                self.mesh_send(t, home, s, self.cfg.ctl_msg_bytes, "mesh.ctl");
                self.procs[s as usize].l1.invalidate(line);
                self.procs[s as usize].l2.invalidate(line);
            }
        }
    }

    /// A full L2-miss memory transaction; returns the latency seen by
    /// a blocking load (writes retire without waiting for it).
    fn mem_transaction(
        &mut self,
        p: ProcId,
        line: Line,
        is_write: bool,
        home: u32,
        t: Time,
    ) -> Time {
        let n = self.node_of(p);
        let line_bytes = nw_memhier::LINE_BYTES;
        let reply_bytes = line_bytes + self.cfg.ctl_msg_bytes;

        // Reach the directory at the home node.
        let t_dir = if home == n {
            t + self.cfg.dir_latency
        } else {
            let d = self.mesh_send(t, n, home, self.cfg.ctl_msg_bytes, "mesh.ctl");
            d.arrival + self.cfg.dir_latency
        };

        let (data_from_owner, invalidate_mask) = if is_write {
            let out = self.dir.write(line, n);
            (out.fetch_from, out.invalidate)
        } else {
            match self.dir.read(line, n) {
                nw_memhier::ReadOutcome::FromOwner { owner } => (Some(owner), 0),
                _ => (None, 0),
            }
        };
        self.obs_instant(
            t_dir,
            groups::DIR,
            0,
            if is_write { "dir.write" } else { "dir.read" },
            line,
            home as u64,
        );
        self.apply_invalidations(n, line, home, invalidate_mask, t_dir);

        let t_data = match data_from_owner {
            Some(owner) if owner != n => {
                // Forward to the dirty owner; it supplies the data and
                // writes back to home memory in the background.
                self.procs[owner as usize].l1.clean(line);
                self.procs[owner as usize].l2.clean(line);
                if is_write {
                    self.procs[owner as usize].l1.invalidate(line);
                    self.procs[owner as usize].l2.invalidate(line);
                }
                let fwd = self.mesh_send(t_dir, home, owner, self.cfg.ctl_msg_bytes, "mesh.ctl");
                let g = self.mem_bus[owner as usize].transfer(fwd.arrival, line_bytes);
                let back = self.mesh_send(g.end, owner, n, reply_bytes, "mesh.line");
                // Background sharing writeback to home memory.
                self.mem_bus[home as usize].transfer(back.start, line_bytes);
                back.arrival
            }
            _ => {
                // Data comes from home memory.
                let g = self.mem_bus[home as usize].transfer(t_dir, line_bytes);
                let t_mem = g.end + self.cfg.mem_latency;
                if home == n {
                    t_mem
                } else {
                    self.mesh_send(t_mem, home, n, reply_bytes, "mesh.line").arrival
                }
            }
        };
        t_data.saturating_sub(t)
    }
}
