//! Per-layer replays: each drives one simulator layer through its
//! public API, outside any machine, with inputs derived from the
//! workload's own cells, and times it per operation.

use crate::cells::Cell;
use nw_apps::Action;
use nw_disk::{
    DiskController, DiskControllerConfig, Mechanics, ParallelFs, PrefetchPolicy, WriteOutcome,
};
use nw_memhier::{Cache, CacheConfig, Directory, LookupResult, Tlb, LINES_PER_PAGE};
use nw_mesh::{Mesh, MeshConfig};
use nw_optical::{NwcInterface, RingConfig, RingFabric};
use nw_sim::{EventQueue, Pcg32};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// Per-operation host time of one replay and the operations it timed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rate {
    /// Host nanoseconds per operation.
    pub ns_per_op: f64,
    /// Operations timed (the base of `ns_per_op`).
    pub ops: u64,
}

impl Rate {
    fn of(ns: u64, ops: u64) -> Rate {
        Rate {
            ns_per_op: ns as f64 / ops.max(1) as f64,
            ops,
        }
    }
}

/// Operations each replay times at full size; tests divide them.
pub const MEMHIER_REFS: u64 = 4_000_000;
/// See [`MEMHIER_REFS`].
pub const QUEUE_OPS: u64 = 2_000_000;
/// See [`MEMHIER_REFS`].
pub const MESH_SENDS: u64 = 400_000;
/// See [`MEMHIER_REFS`].
pub const DISK_OPS: u64 = 400_000;
/// See [`MEMHIER_REFS`].
pub const OPTICAL_SWAPS: u64 = 400_000;

/// The memory-hierarchy replay of a workload's own reference streams.
#[derive(Debug, Clone, Copy, Default)]
pub struct Memhier {
    /// L1+L2 `access`/`fill` per reference.
    pub cache: Rate,
    /// TLB `lookup`/`insert` per reference.
    pub tlb: Rate,
    /// Directory `read`/`write` per L2 miss of the replay.
    pub dir: Rate,
}

/// Replay each distinct stream set's references, per processor,
/// through fresh L1/L2 caches and a TLB, then its L2 misses through a
/// directory of the cell's shape. At most `max_refs` references per
/// workload, taken as a prefix of every processor's stream.
pub fn memhier(cells: &[Cell], max_refs: u64) -> Memhier {
    let mut seen = BTreeSet::new();
    let distinct: Vec<&Cell> = cells
        .iter()
        .filter(|c| {
            seen.insert((
                c.spec.clone(),
                c.cfg.nodes,
                c.cfg.app_scale.to_bits(),
                c.cfg.seed,
            ))
        })
        .collect();
    let nodes_total: u64 = distinct.iter().map(|c| c.cfg.nodes as u64).sum();
    let cap = (max_refs / nodes_total.max(1)) as usize;
    let (mut cache_ns, mut tlb_ns, mut dir_ns) = (0u64, 0u64, 0u64);
    let (mut refs, mut txns) = (0u64, 0u64);
    let mut check = 0u64;
    for c in distinct {
        let build = c.sel().build(&c.cfg).expect("benchmark cell builds");
        let per_proc: Vec<Vec<(u64, bool)>> = build
            .streams
            .into_iter()
            .map(|s| {
                s.filter_map(|a| match a {
                    Action::Read(l) => Some((l, false)),
                    Action::Write(l) => Some((l, true)),
                    Action::Compute(_) | Action::Barrier(_) => None,
                })
                .take(cap)
                .collect()
            })
            .collect();
        let mut misses: Vec<Vec<(u64, bool)>> = Vec::with_capacity(per_proc.len());
        let t0 = Instant::now();
        for stream in &per_proc {
            let mut l1 = Cache::new(CacheConfig::l1_default());
            let mut l2 = Cache::new(CacheConfig::l2_default());
            let mut out = Vec::new();
            for &(line, w) in stream {
                if l1.access(line, w) == LookupResult::Hit {
                    continue;
                }
                if l2.access(line, w) == LookupResult::Miss {
                    if let Some(ev) = l2.fill(line, w) {
                        check = check.wrapping_add(ev.line);
                    }
                    out.push((line, w));
                }
                l1.fill(line, w);
            }
            misses.push(out);
        }
        cache_ns += t0.elapsed().as_nanos() as u64;
        let t0 = Instant::now();
        for stream in &per_proc {
            let mut tlb = Tlb::new(c.cfg.tlb_entries);
            for &(line, _) in stream {
                let vpn = line / LINES_PER_PAGE;
                if !tlb.lookup(vpn) {
                    tlb.insert(vpn);
                }
            }
            check = check.wrapping_add(tlb.misses());
        }
        tlb_ns += t0.elapsed().as_nanos() as u64;
        refs += per_proc.iter().map(|s| s.len() as u64).sum::<u64>();
        // Interleave the processors' misses round-robin, the way they
        // reach the shared directory.
        let longest = misses.iter().map(Vec::len).max().unwrap_or(0);
        let mut order = Vec::new();
        for i in 0..longest {
            for (node, m) in misses.iter().enumerate() {
                if let Some(&(line, w)) = m.get(i) {
                    order.push((line, node as u32, w));
                }
            }
        }
        let mut dir = Directory::with_topology(c.cfg.dir_shards, c.cfg.nodes);
        let t0 = Instant::now();
        for &(line, node, w) in &order {
            if w {
                check = check.wrapping_add(dir.write(line, node).invalidate as u64);
            } else {
                dir.read(line, node);
            }
        }
        dir_ns += t0.elapsed().as_nanos() as u64;
        txns += order.len() as u64;
    }
    black_box(check);
    Memhier {
        cache: Rate::of(cache_ns, refs),
        tlb: Rate::of(tlb_ns, refs),
        dir: Rate::of(dir_ns, txns),
    }
}

/// `EventQueue::schedule_at`/`pop` on a seeded mix of near-future
/// (mesh/cache latency) and far-future (disk latency) events, with the
/// queue held at the depth of a running machine.
pub fn queue(seed: u64, depth: usize, ops: u64) -> Rate {
    let mut rng = Pcg32::new(seed, 0x0E0E);
    let delays: Vec<u64> = (0..65_536)
        .map(|_| {
            if rng.gen_bool(0.8) {
                rng.gen_range(1, 2_000)
            } else {
                rng.gen_range(20_000, 4_000_000)
            }
        })
        .collect();
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..depth as u64 {
        q.schedule_at(delays[i as usize % delays.len()], i);
    }
    let t0 = Instant::now();
    let mut check = 0u64;
    for i in 0..ops / 2 {
        let (t, ev) = q.pop().expect("queue is never empty");
        check = check.wrapping_add(ev);
        q.schedule_at(t + delays[i as usize % delays.len()], i);
    }
    let ns = t0.elapsed().as_nanos() as u64;
    black_box(check);
    Rate::of(ns, ops / 2 * 2)
}

/// `Mesh::send` over seeded source/destination pairs, at every mesh
/// shape the workload's cells use (equal sends per shape).
pub fn mesh(cells: &[Cell], seed: u64, sends: u64) -> Rate {
    let shapes: BTreeSet<(u32, u32)> = cells.iter().map(|c| c.cfg.mesh_dims()).collect();
    let per_shape = sends / shapes.len().max(1) as u64;
    let mut ns = 0u64;
    let mut check = 0u64;
    for (width, height) in &shapes {
        let mut mesh = Mesh::new(MeshConfig {
            width: *width,
            height: *height,
            ..MeshConfig::paper_default()
        });
        let nodes = (width * height) as u64;
        let mut rng = Pcg32::new(seed, 0x3E54);
        let sends: Vec<(u32, u32, u64)> = (0..per_shape)
            .map(|_| {
                let src = rng.gen_range(0, nodes) as u32;
                let dst = rng.gen_range(0, nodes) as u32;
                let bytes = if rng.gen_bool(0.3) { 4096 } else { 16 };
                (src, dst, bytes)
            })
            .collect();
        let mut now = 0u64;
        let t0 = Instant::now();
        for &(src, dst, bytes) in &sends {
            now += 40;
            check = check.wrapping_add(mesh.send(now, src, dst, bytes).arrival);
        }
        ns += t0.elapsed().as_nanos() as u64;
    }
    black_box(check);
    Rate::of(ns, per_shape * shapes.len() as u64)
}

/// `DiskController::read_page`/`write_page`/`try_flush` on a seeded
/// page stream with the workload's write fraction.
pub fn disk(write_frac: f64, seed: u64, n: u64) -> Rate {
    let mut ctl = DiskController::new(
        DiskControllerConfig::paper_default(PrefetchPolicy::Naive),
        Mechanics::paper_default(),
    );
    let fs = ParallelFs::paper_default(4);
    let mut rng = Pcg32::new(seed, 0xD15C);
    let ops: Vec<(u64, bool)> = (0..n)
        .map(|_| {
            // Uniformly random pages of a 6 MB file.
            (rng.gen_range(0, 1536), rng.gen_bool(write_frac))
        })
        .collect();
    let mut now = 0u64;
    let mut check = 0u64;
    let t0 = Instant::now();
    for (i, &(page, write)) in ops.iter().enumerate() {
        now += 2_000;
        let block = fs.block_of(page);
        if write {
            let node = (i % 8) as u32;
            match ctl.write_page(now, page, block, node) {
                WriteOutcome::Ack { flush_check_at } => check = check.wrapping_add(flush_check_at),
                WriteOutcome::Nack => ctl.retract_nack(node, page),
            }
        } else {
            check = check.wrapping_add(ctl.read_page(now, page, block).ready_at());
        }
        if let Some(f) = ctl.try_flush(now) {
            check = check.wrapping_add(f.pages);
        }
    }
    let ns = t0.elapsed().as_nanos() as u64;
    black_box(check);
    Rate::of(ns, n)
}

/// One ring swap-out cycle: `RingFabric::insert`, `NwcInterface::enqueue`,
/// `snoop_ready`, `next_to_drain` and `remove`, on a 1-ring × 8-channel
/// and a 2-ring × 64-channel fabric (equal swaps on each).
pub fn optical(seed: u64, swaps: u64) -> Rate {
    let mut ns = 0u64;
    let mut check = 0u64;
    let per_fabric = swaps / 2;
    for (rings, channels) in [(1usize, 8usize), (2, 64)] {
        let mut fabric = RingFabric::new(
            RingConfig {
                channels,
                ..RingConfig::paper_default()
            },
            rings,
        );
        let total = rings * channels;
        let mut iface = NwcInterface::new(total);
        // Every channel holds all but two of its slots, as under
        // sustained swapping.
        for gc in 0..total {
            for s in 0..RingConfig::paper_default().slots_per_channel - 2 {
                fabric
                    .insert(0, gc, 1_000_000 + (gc * 64 + s) as u64)
                    .expect("preload fits");
            }
        }
        let mut rng = Pcg32::new(seed, 0x0971);
        let swaps: Vec<(usize, u64)> = (0..per_fabric)
            .map(|i| (rng.gen_range(0, total as u64) as usize, i))
            .collect();
        let mut now = 1_000u64;
        let t0 = Instant::now();
        for &(gc, page) in &swaps {
            now += 500;
            if let Ok(on_ring) = fabric.insert(now, gc, page) {
                iface.enqueue(gc, (gc % channels) as u32, page);
                if let Some(t) = fabric.snoop_ready(on_ring, gc, page) {
                    check = check.wrapping_add(t);
                }
            }
            if let Some((ch, rec)) = iface.next_to_drain() {
                check = check.wrapping_add(fabric.remove(ch, rec.page) as u64);
            }
        }
        ns += t0.elapsed().as_nanos() as u64;
    }
    black_box(check);
    Rate::of(ns, per_fabric * 2)
}
