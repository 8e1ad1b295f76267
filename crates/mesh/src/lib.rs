//! # nw-mesh — wormhole-routed 2-D mesh interconnect
//!
//! Models the "traditional scalable cache-coherent multiprocessor"
//! interconnect of the paper (§3.1): processors connected by a
//! wormhole-routed mesh. In the standard machine this network carries
//! *everything* — coherence traffic, page reads and page swap-outs;
//! with the NWCache, swap-outs (and ring read hits) leave this network,
//! which is where the contention reduction of Table 8 comes from.
//!
//! ## Timing model
//!
//! A message of `b` bytes from `src` to `dst` routed over `h` hops:
//!
//! * is XY-routed (X first, then Y — deadlock-free, deterministic),
//! * waits until every directed link on its path is free (wormhole
//!   routing holds the whole path while the worm advances),
//! * then occupies each link for `b / link_bandwidth` cycles,
//! * and arrives after an additional `h * switch_delay` pipeline
//!   latency plus a fixed network-interface overhead at each end.
//!
//! ```
//! use nw_mesh::{Mesh, MeshConfig};
//!
//! let mut mesh = Mesh::new(MeshConfig::paper_default());
//! // A 4 KB page from node 0 to node 7 (4 hops on the 4x2 mesh).
//! let d = mesh.send(0, 0, 7, 4096);
//! assert_eq!(d.arrival, mesh.uncontended_latency(0, 7, 4096));
//! // A second page on the same path queues behind the first.
//! let d2 = mesh.send(0, 0, 7, 4096);
//! assert!(d2.wait > 0);
//! ```

pub mod faults;
pub mod topology;

use nw_sim::ckpt::{Ckpt, CkptError};
use nw_sim::stats::Tally;
use nw_sim::{Bandwidth, Resource, Time};
pub use faults::{MeshFaults, MsgFault};
pub use topology::{route_xy, Coord, NodeId};

/// Configuration of the mesh network.
#[derive(Debug, Clone, Copy)]
pub struct MeshConfig {
    /// Mesh width (columns).
    pub width: u32,
    /// Mesh height (rows).
    pub height: u32,
    /// Per-link bandwidth (paper Table 1: 200 MB/s).
    pub link_bandwidth: Bandwidth,
    /// Per-hop switch/router delay in pcycles.
    pub switch_delay: Time,
    /// Fixed network-interface overhead per message end in pcycles.
    pub ni_overhead: Time,
}

impl MeshConfig {
    /// The paper's 8-node configuration: a 4x2 mesh with 200 MB/s links.
    pub fn paper_default() -> Self {
        MeshConfig {
            width: 4,
            height: 2,
            link_bandwidth: Bandwidth::from_mbytes_per_sec(200),
            switch_delay: 4,
            ni_overhead: 20,
        }
    }

    /// Number of nodes in the mesh.
    pub fn nodes(&self) -> u32 {
        self.width * self.height
    }
}

/// Directions of the four directed output links of a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    East,
    West,
    North,
    South,
}

impl Dir {
    fn index(self) -> usize {
        match self {
            Dir::East => 0,
            Dir::West => 1,
            Dir::North => 2,
            Dir::South => 3,
        }
    }
}

/// Outcome of submitting a message to the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// When the first flit left the source NI (after queueing).
    pub start: Time,
    /// When the last flit arrived at the destination NI.
    pub arrival: Time,
    /// Queueing delay before the path was free.
    pub wait: Time,
}

/// The mesh network state: one [`Resource`] per directed link.
#[derive(Debug)]
pub struct Mesh {
    cfg: MeshConfig,
    /// Each node's coordinates, so routing divides nothing.
    coords: Vec<Coord>,
    links: Vec<Resource>,
    messages: u64,
    bytes: u64,
    latency: Tally,
    wait: Tally,
}

impl Mesh {
    /// Build an idle mesh for `cfg`.
    pub fn new(cfg: MeshConfig) -> Self {
        let n = cfg.nodes() as usize;
        Mesh {
            cfg,
            coords: (0..cfg.nodes()).map(|id| Coord::of(cfg.width, id)).collect(),
            links: (0..n * 4).map(|_| Resource::new()).collect(),
            messages: 0,
            bytes: 0,
            latency: Tally::new(),
            wait: Tally::new(),
        }
    }

    /// The configuration this mesh was built with.
    pub fn config(&self) -> &MeshConfig {
        &self.cfg
    }

    /// The directed links of the XY route `src -> dst` without
    /// building it: the X leg, then the Y leg, each as
    /// `(first link index, index step, links)`. A router's four output
    /// links are consecutive, so one hop along a row steps the index
    /// by 4 and one hop along a column by `4 * width`.
    ///
    /// # Panics
    /// Panics if either node id is out of range for the mesh.
    fn xy_legs(&self, src: NodeId, dst: NodeId) -> [(usize, isize, usize); 2] {
        let w = self.cfg.width;
        assert!(src < self.cfg.nodes(), "src {src} out of range");
        assert!(dst < self.cfg.nodes(), "dst {dst} out of range");
        let (a, b) = (self.coords[src as usize], self.coords[dst as usize]);
        let corner = Coord { x: b.x, y: a.y }.id(w) as usize;
        let (xdir, xstep) = if b.x > a.x { (Dir::East, 4) } else { (Dir::West, -4) };
        let row = 4 * w as isize;
        let (ydir, ystep) = if b.y > a.y { (Dir::South, row) } else { (Dir::North, -row) };
        [
            (src as usize * 4 + xdir.index(), xstep, a.x.abs_diff(b.x) as usize),
            (corner * 4 + ydir.index(), ystep, a.y.abs_diff(b.y) as usize),
        ]
    }

    /// The sequence of directed links used by a message `src -> dst`.
    pub fn path(&self, src: NodeId, dst: NodeId) -> Vec<(NodeId, Dir)> {
        route_xy(self.cfg.width, self.cfg.height, src, dst)
    }

    /// Submit a message and return its delivery timing.
    ///
    /// `src == dst` models a node-local message: only NI overhead, no
    /// link traversal or contention.
    #[inline]
    pub fn send(&mut self, now: Time, src: NodeId, dst: NodeId, bytes: u64) -> Delivery {
        self.messages += 1;
        self.bytes += bytes;
        if src == dst {
            let arrival = now + 2 * self.cfg.ni_overhead;
            self.latency.add(arrival - now);
            self.wait.add(0);
            return Delivery {
                start: now,
                arrival,
                wait: 0,
            };
        }
        let legs = self.xy_legs(src, dst);
        let hops = (legs[0].2 + legs[1].2) as u64;
        let serv = self.cfg.link_bandwidth.transfer_cycles(bytes.max(1));
        let inject = now + self.cfg.ni_overhead;
        // Wormhole: the worm cannot advance until every link on the
        // path is free, then it holds each of them for the full
        // serialization time.
        let mut start = inject;
        for &(first, step, count) in &legs {
            let mut idx = first;
            for _ in 0..count {
                start = start.max(self.links[idx].earliest_start(inject));
                idx = idx.wrapping_add_signed(step);
            }
        }
        for &(first, step, count) in &legs {
            let mut idx = first;
            for _ in 0..count {
                let g = self.links[idx].acquire(start, serv);
                debug_assert_eq!(g.start, start);
                idx = idx.wrapping_add_signed(step);
            }
        }
        let arrival = start + hops * self.cfg.switch_delay + serv + self.cfg.ni_overhead;
        let wait = start - inject;
        self.latency.add(arrival - now);
        self.wait.add(wait);
        Delivery {
            start,
            arrival,
            wait,
        }
    }

    /// Zero-contention latency of a `bytes`-byte message `src -> dst` —
    /// useful for analytic checks and tests.
    pub fn uncontended_latency(&self, src: NodeId, dst: NodeId, bytes: u64) -> Time {
        if src == dst {
            return 2 * self.cfg.ni_overhead;
        }
        let hops = self.path(src, dst).len() as u64;
        let serv = self.cfg.link_bandwidth.transfer_cycles(bytes.max(1));
        2 * self.cfg.ni_overhead + hops * self.cfg.switch_delay + serv
    }

    /// Total messages sent.
    pub fn message_count(&self) -> u64 {
        self.messages
    }

    /// Total payload bytes carried.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes
    }

    /// End-to-end latency tally.
    pub fn latency(&self) -> &Tally {
        &self.latency
    }

    /// Path-wait (queueing) tally.
    pub fn queue_wait(&self) -> &Tally {
        &self.wait
    }

    /// Aggregate busy cycles across all links (traffic proxy).
    pub fn total_link_busy(&self) -> Time {
        self.links.iter().map(|l| l.busy_cycles()).sum()
    }

    /// Checkpoint every directed link's state and the traffic tallies,
    /// onto a mesh of the same topology. In-flight messages need no
    /// separate bookkeeping: wormhole delivery is computed at send
    /// time, so the link `next_free` horizons and the already-scheduled
    /// arrival events are the whole in-flight state.
    pub fn ckpt(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
        c.each(&mut self.links, "mesh links", |c, link| link.ckpt(c))?;
        c.u64(&mut self.messages)?;
        c.u64(&mut self.bytes)?;
        self.latency.ckpt(c)?;
        self.wait.ckpt(c)
    }

    /// Mean link utilization over `[0, horizon]`.
    pub fn mean_utilization(&self, horizon: Time) -> f64 {
        if self.links.is_empty() || horizon == 0 {
            return 0.0;
        }
        self.links
            .iter()
            .map(|l| l.utilization(horizon))
            .sum::<f64>()
            / self.links.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mesh() -> Mesh {
        Mesh::new(MeshConfig::paper_default())
    }

    #[test]
    fn local_message_skips_links() {
        let mut m = mesh();
        let d = m.send(0, 3, 3, 4096);
        assert_eq!(d.arrival, 40); // 2 * ni_overhead
        assert_eq!(m.total_link_busy(), 0);
    }

    #[test]
    fn neighbor_latency_matches_model() {
        let mut m = mesh();
        // Node 0 -> node 1 is one hop east.
        let d = m.send(0, 0, 1, 4096);
        // ni(20) + 1 hop * 4 + 4096 cycles serialization + ni(20)
        assert_eq!(d.arrival, 20 + 4 + 4096 + 20);
        assert_eq!(d.wait, 0);
        assert_eq!(m.uncontended_latency(0, 1, 4096), d.arrival);
    }

    #[test]
    fn xy_route_hop_count_is_manhattan() {
        let m = mesh();
        // 4x2 mesh: node id = y*4+x. Node 0=(0,0), node 7=(3,1).
        assert_eq!(m.path(0, 7).len(), 4);
        assert_eq!(m.path(0, 3).len(), 3);
        assert_eq!(m.path(4, 0).len(), 1);
        assert_eq!(m.path(2, 2).len(), 0);
    }

    #[test]
    fn contention_serializes_on_shared_link() {
        let mut m = mesh();
        let d1 = m.send(0, 0, 1, 4096);
        let d2 = m.send(0, 0, 1, 4096);
        // Second message waits for the first to release the link.
        assert!(d2.start >= d1.start + 4096);
        assert!(d2.wait >= 4096);
    }

    #[test]
    fn disjoint_paths_do_not_contend() {
        let mut m = mesh();
        let d1 = m.send(0, 0, 1, 4096); // east link of node 0
        let d2 = m.send(0, 2, 3, 4096); // east link of node 2
        assert_eq!(d1.wait, 0);
        assert_eq!(d2.wait, 0);
    }

    #[test]
    fn overlapping_path_contends_partially() {
        let mut m = mesh();
        // 0 -> 2 uses east links of nodes 0 and 1; 1 -> 2 uses east
        // link of node 1 only, so it must wait for message one.
        let d1 = m.send(0, 0, 2, 4096);
        let d2 = m.send(0, 1, 2, 64);
        assert!(d2.wait > 0, "wait = {}", d2.wait);
        assert!(d1.wait == 0);
    }

    #[test]
    fn traffic_accounting() {
        let mut m = mesh();
        m.send(0, 0, 1, 100);
        m.send(0, 1, 0, 200);
        assert_eq!(m.message_count(), 2);
        assert_eq!(m.bytes_carried(), 300);
        assert_eq!(m.latency().count(), 2);
        assert!(m.mean_utilization(10_000) > 0.0);
    }

    /// Every (src, dst) pair of `width x height`: a contended stream of
    /// sends matches the wormhole timing computed from `route_xy`'s
    /// collected path and holds exactly its links, and an idle send
    /// matches `uncontended_latency`.
    fn check_send_against_path(width: u32, height: u32) {
        let cfg = MeshConfig {
            width,
            height,
            ..MeshConfig::paper_default()
        };
        let nodes = width * height;
        let mut mesh = Mesh::new(cfg);
        let mut next_free = vec![0 as Time; nodes as usize * 4];
        let mut now = 0;
        for src in 0..nodes {
            for dst in 0..nodes {
                let bytes = if (src + dst) % 3 == 0 { 4096 } else { 16 };
                let serv = cfg.link_bandwidth.transfer_cycles(bytes);
                let idle = Mesh::new(cfg).send(0, src, dst, bytes);
                assert_eq!(idle.arrival, mesh.uncontended_latency(src, dst, bytes));
                now += 7;
                let got = mesh.send(now, src, dst, bytes);
                let want = if src == dst {
                    Delivery {
                        start: now,
                        arrival: now + 2 * cfg.ni_overhead,
                        wait: 0,
                    }
                } else {
                    let path = route_xy(width, height, src, dst);
                    let links: Vec<usize> =
                        path.iter().map(|&(n, d)| n as usize * 4 + d.index()).collect();
                    let inject = now + cfg.ni_overhead;
                    let start = links.iter().fold(inject, |s, &l| s.max(next_free[l]));
                    for &l in &links {
                        next_free[l] = start + serv;
                    }
                    Delivery {
                        start,
                        arrival: start
                            + path.len() as Time * cfg.switch_delay
                            + serv
                            + cfg.ni_overhead,
                        wait: start - inject,
                    }
                };
                assert_eq!(got, want, "{width}x{height} {src}->{dst}");
            }
        }
        // The same links were held: every link ends at the model's
        // horizon (a relabelled route would time alike but not here).
        for (l, &free) in next_free.iter().enumerate() {
            assert_eq!(mesh.links[l].earliest_start(0), free, "{width}x{height} link {l}");
        }
    }

    #[test]
    fn send_matches_the_collected_route_on_every_pair() {
        for (w, h) in [(4, 2), (8, 8), (1, 16), (16, 1)] {
            check_send_against_path(w, h);
        }
    }

    #[test]
    fn small_message_minimum_one_cycle() {
        let mut m = mesh();
        let d = m.send(0, 0, 1, 0);
        // Zero-byte control messages still occupy the link for >= 1 cycle.
        assert!(d.arrival > 0);
    }
}
