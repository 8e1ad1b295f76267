//! The simulated 8-node multiprocessor.
//!
//! One [`Machine`] owns every hardware component plus the OS virtual-
//! memory state, and advances a deterministic discrete-event loop.
//! Processors execute their application action streams *inline* (cache
//! hits and even contended-but-synchronous memory transactions are
//! resolved against resource timestamps without event-queue round
//! trips) and only block on page faults, frame shortages and barriers
//! — the same structure as the execution-driven simulator the paper
//! built on MINT.
//!
//! Module layout: [`self`] holds the state and processor loop,
//! `memory` the cache/coherence path, `fault` the page-fault and
//! replacement machinery, `io` the disk and optical-ring protocol
//! handlers.

mod ckpt;
mod directed;
mod events;
mod fault;
mod io;
mod memory;
#[cfg(test)]
mod tests;

pub use events::Event;

use crate::config::{MachineConfig, MachineKind, PrefetchMode};
use crate::error::SimError;
use crate::metrics::RunMetrics;
use crate::observe::{groups, ObserveConfig, Observer, TraceData};
use crate::prefetch::AdaptivePolicy;
use crate::vm::{BarrierState, FramePool, PageEntry, PageState, ProcId, TlbHolders, Vpn};
use nw_apps::{Action, ActionStream, AppId};
use nw_disk::{
    DiskController, DiskControllerConfig, DiskFaultInjector, Mechanics, ParallelFs,
};
use nw_memhier::{Cache, CacheConfig, Directory, Line, MemoryBus, Tlb, LINES_PER_PAGE, PAGE_BYTES};
use nw_mesh::{Delivery, Mesh, MeshConfig, MeshFaults, MsgFault};
use nw_optical::{NwcInterface, RingConfig, RingFabric};
use nw_sim::stats::{BoundedSeries, CycleBreakdown, Histogram, Tally};
use nw_sim::trace::TrackId;
use nw_sim::{Bandwidth, EventQueue, Time};
use std::collections::{HashMap, HashSet, VecDeque};

/// Abort when this many consecutive events fail to advance simulated
/// time — a progress watchdog against protocol livelock. A legitimate
/// instant never carries more than a few thousand events.
const STALL_EVENT_LIMIT: u64 = 1_000_000;

/// With an active fault plan, re-verify page/frame conservation every
/// this many events (always verified once at completion).
const CONSERVATION_CHECK_PERIOD: u64 = 65_536;

/// Cap on the ring-occupancy metric series: past this many samples the
/// series doubles its interval instead of growing, keeping long
/// synthetic runs (the victim-cache capacity probe) at O(samples)
/// memory rather than O(occupancy changes).
const RING_OCC_SAMPLE_CAP: usize = 4_096;

/// Why a processor is blocked (determines the accounting category the
/// wait is charged to when it wakes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BlockKind {
    /// Waiting for its own page fault to complete.
    Fault,
    /// Waiting for a page another processor is bringing in.
    Transit,
    /// Waiting for a free page frame.
    NoFree,
    /// Waiting at a barrier.
    Barrier,
}

/// Per-processor state.
pub(crate) struct Proc {
    pub(crate) stream: ActionStream,
    /// Actions consumed from `stream` so far. Streams are pure
    /// functions of the workload build, so this single counter is the
    /// stream's entire checkpointable state: restore rebuilds the
    /// stream and fast-forwards it this many actions.
    pub(crate) consumed: u64,
    /// Action to retry after unblocking.
    pub(crate) pending: Option<Action>,
    pub(crate) tlb: Tlb,
    pub(crate) l1: Cache,
    pub(crate) l2: Cache,
    pub(crate) local_time: Time,
    pub(crate) breakdown: CycleBreakdown,
    /// Interrupt cycles (TLB shootdowns) to charge at the next step.
    pub(crate) pending_interrupt: Time,
    pub(crate) blocked: Option<(BlockKind, Time)>,
    pub(crate) done: bool,
}

/// How a completed page fault was served (for latency tallies).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum FaultSource {
    #[default]
    DiskCacheHit,
    DiskCacheMiss,
    Ring,
}

/// In-flight fault bookkeeping.
#[derive(Default)]
pub(crate) struct FaultInfo {
    pub(crate) start: Time,
    pub(crate) source: FaultSource,
}

/// Result of a bounded run step (see [`Machine::try_run_events`]).
#[derive(Debug)]
pub enum RunOutcome {
    /// The simulation completed; metrics collected. Boxed so a
    /// `Paused` result stays pointer-sized — metrics carry full
    /// histograms and are only materialized once per run.
    Done(Box<RunMetrics>),
    /// The event budget ran out with the simulation unfinished.
    Paused,
}

/// Threads one simulation runs on: always 1. A run is one serial
/// event loop; parallelism comes from running independent cells at
/// once (`--jobs`, DESIGN.md §10). Benchmark provenance lines print it.
pub fn default_sim_threads() -> usize {
    1
}

/// The full simulated machine.
pub struct Machine {
    pub(crate) cfg: MachineConfig,
    pub(crate) queue: EventQueue<Event>,
    pub(crate) mesh: Mesh,
    pub(crate) procs: Vec<Proc>,
    pub(crate) mem_bus: Vec<MemoryBus>,
    pub(crate) io_bus: Vec<MemoryBus>,
    pub(crate) dir: Directory,
    pub(crate) disks: Vec<DiskController>,
    pub(crate) fs: ParallelFs,
    pub(crate) ring: Option<RingFabric>,
    /// One NWCache interface per disk (at its I/O node), with one FIFO
    /// per global cache channel (`ring * nodes + node`).
    pub(crate) ifaces: Vec<NwcInterface>,
    /// I/O node hosting each disk, precomputed from the placement
    /// policy (derived from config; never checkpointed).
    pub(crate) disk_homes: Vec<u32>,
    /// Per-disk: the drain receiver is busy until this time.
    pub(crate) drain_busy_until: Vec<Time>,
    pub(crate) pt: Vec<PageEntry>,
    /// Per page, the nodes whose TLB caches it (derived from the
    /// TLBs; never checkpointed, rebuilt on restore).
    pub(crate) tlb_holders: TlbHolders,
    pub(crate) frames: Vec<FramePool>,
    pub(crate) barrier: BarrierState,
    /// Per node: swap-outs waiting for ring-channel room.
    pub(crate) pending_ring_swaps: Vec<VecDeque<Vpn>>,
    /// Swap-out start times, keyed by (node, vpn).
    pub(crate) swap_start: HashMap<(u32, Vpn), Time>,
    pub(crate) fault_info: HashMap<Vpn, FaultInfo>,
    pub(crate) npages: u64,
    pub(crate) finished: usize,
    // run-loop state, promoted to fields so a checkpointed run can be
    // paused after any event and resumed bit-identically
    /// Whether the initial events (per-proc resumes, scheduled ring
    /// failures) have been placed on the queue.
    pub(crate) started: bool,
    /// Timestamp of the last dispatched event (stall watchdog).
    pub(crate) last_time: Time,
    /// Consecutive events at `last_time` (stall watchdog).
    pub(crate) same_time_events: u64,
    /// Multiplicities of pending flush-check runs (see `io::FlushRuns`);
    /// checkpointed as part of the ENGINE queue entries.
    pub(crate) flush_runs: io::FlushRuns,
    // fault-injection state (all idle under an inactive FaultPlan)
    /// Per-disk media-error / stuck-request injectors.
    pub(crate) disk_faults: Vec<DiskFaultInjector>,
    /// Drop/corrupt injector for protected mesh control messages.
    pub(crate) mesh_faults: MeshFaults,
    /// Ring swap-outs whose frame stays pinned until the disk-side ACK
    /// (populated only when ring channel failures are scheduled).
    pub(crate) pinned: HashSet<(u32, Vpn)>,
    /// Retry attempts per page for faulted disk reads.
    pub(crate) disk_retry: HashMap<Vpn, u32>,
    /// Re-issue attempts per (node, page) for timed-out swap-outs.
    pub(crate) swap_attempts: HashMap<(u32, Vpn), u32>,
    /// Fatal error raised inside a non-`Result` path; aborts `try_run`.
    pub(crate) fatal: Option<SimError>,
    // metric accumulators not owned by components
    pub(crate) m_swap_out_time: Tally,
    pub(crate) m_swap_out_hist: Histogram,
    pub(crate) m_fault_hist: Histogram,
    pub(crate) m_ring_occupancy: BoundedSeries,
    pub(crate) m_fault_hit: Tally,
    pub(crate) m_fault_miss: Tally,
    pub(crate) m_fault_ring: Tally,
    pub(crate) m_ring_hits: u64,
    pub(crate) m_ring_misses: u64,
    pub(crate) m_page_faults: u64,
    pub(crate) m_swap_outs: u64,
    pub(crate) m_swap_nacks: u64,
    pub(crate) m_shootdowns: u64,
    pub(crate) m_ring_pages_lost: u64,
    pub(crate) m_swap_retries: u64,
    pub(crate) m_degraded_ring_swaps: u64,
    pub(crate) m_dead_channels: u64,
    pub(crate) app_name: &'static str,
    /// Adaptive-prefetch speculation state (see [`crate::prefetch`]):
    /// the per-node detectors and in-flight hint accounting. `Some`
    /// exactly when `cfg.prefetch` is adaptive.
    pub(crate) spec: Option<AdaptivePolicy>,
    /// Structured-event observer (`None` in normal runs; every hook is
    /// a single branch on this option — see [`crate::observe`]).
    pub(crate) obs: Option<Box<Observer>>,
    /// Scratch buffer for directory page purges (reused across every
    /// eviction so the steady-state purge path never allocates).
    pub(crate) scratch_purge: Vec<(Line, nw_memhier::directory::SharerMask)>,
}

impl Machine {
    /// Build a machine from `cfg` loaded with application `app`.
    ///
    /// # Panics
    /// Panics if the configuration fails [`MachineConfig::validate`].
    pub fn new(cfg: MachineConfig, app: AppId) -> Self {
        Machine::try_new(cfg, app).unwrap_or_else(|e| panic!("bad config: {e}"))
    }

    /// Fallible variant of [`Machine::new`].
    pub fn try_new(cfg: MachineConfig, app: AppId) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::BadConfig)?;
        let build = nw_apps::build(app, cfg.nodes as usize, cfg.app_scale, cfg.seed);
        Machine::try_from_build(cfg, build)
    }

    /// Build a machine running an arbitrary pre-built workload (e.g. a
    /// [`nw_apps::synth`] kernel). The workload must provide exactly
    /// one stream per node.
    ///
    /// # Panics
    /// Panics on an invalid config or a stream-count mismatch.
    pub fn from_build(cfg: MachineConfig, build: nw_apps::AppBuild) -> Self {
        Machine::try_from_build(cfg, build).unwrap_or_else(|e| panic!("bad config: {e}"))
    }

    /// Fallible variant of [`Machine::from_build`].
    pub fn try_from_build(cfg: MachineConfig, build: nw_apps::AppBuild) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::BadConfig)?;
        let n = cfg.nodes as usize;
        if build.streams.len() != n {
            return Err(SimError::WorkloadMismatch {
                streams: build.streams.len(),
                nodes: cfg.nodes,
            });
        }
        let npages = build.data_bytes.div_ceil(PAGE_BYTES);

        let (mesh_w, mesh_h) = cfg.mesh_dims();
        let mesh_cfg = MeshConfig {
            width: mesh_w,
            height: mesh_h,
            ..MeshConfig::paper_default()
        };
        let procs: Vec<Proc> = build
            .streams
            .into_iter()
            .map(|stream| Proc {
                stream,
                consumed: 0,
                pending: None,
                tlb: Tlb::new(cfg.tlb_entries),
                l1: Cache::new(CacheConfig::l1_default()),
                l2: Cache::new(CacheConfig::l2_default()),
                local_time: 0,
                breakdown: CycleBreakdown::default(),
                pending_interrupt: 0,
                blocked: None,
                done: false,
            })
            .collect();

        let spec = (cfg.prefetch == PrefetchMode::Adaptive).then(|| AdaptivePolicy::new(&cfg));
        let dcfg = DiskControllerConfig {
            cache_pages: cfg.disk_cache_pages,
            policy: cfg.prefetch.disk_policy(cfg.disk_cache_pages),
            flush_delay: cfg.disk_flush_delay,
            spec_cache_pages: cfg.prefetch_window.max(2),
        };
        let disks = (0..cfg.io_nodes)
            .map(|_| {
                let mut d = DiskController::new(dcfg, Mechanics::paper_default());
                if cfg.kind == MachineKind::Dcd {
                    d.attach_log_disk(nw_disk::LogDisk::paper_default());
                }
                d
            })
            .collect();

        let ring = if cfg.has_ring() {
            Some(RingFabric::new(
                RingConfig {
                    channels: cfg.nodes as usize,
                    slots_per_channel: cfg.ring_slots_per_channel,
                    round_trip: cfg.ring_round_trip,
                    rate: Bandwidth::from_gbytes_per_sec_milli(1250),
                    page_bytes: PAGE_BYTES,
                },
                cfg.ring_count,
            ))
        } else {
            None
        };

        let io_nodes = cfg.io_nodes;
        // Interface FIFOs are indexed by global channel id so a drain
        // or channel failure addresses exactly one (ring, node) pair.
        let total_channels = cfg.nodes as usize * cfg.ring_count;
        let disk_homes = (0..cfg.io_nodes)
            .map(|d| cfg.try_io_node_of_disk(d))
            .collect::<Result<Vec<u32>, SimError>>()?;
        let dir_shards = cfg.dir_shards;
        let nodes = cfg.nodes;
        let frames_per_node = cfg.frames_per_node();
        let disk_faults = (0..cfg.io_nodes)
            .map(|d| {
                DiskFaultInjector::new(
                    cfg.faults.seed,
                    d as u64,
                    cfg.faults.disk_error_rate,
                    cfg.faults.disk_stuck_rate,
                )
            })
            .collect();
        let mesh_faults = MeshFaults::new(
            cfg.faults.seed,
            cfg.faults.mesh_drop_rate,
            cfg.faults.mesh_corrupt_rate,
        );
        let tlb_holders = TlbHolders::of(npages, procs.iter().map(|p| &p.tlb));
        let m = Machine {
            cfg,
            // Pre-size the heap for the simultaneously outstanding
            // events: a handful per node covers steady state.
            queue: EventQueue::with_capacity(16 * n),
            mesh: Mesh::new(mesh_cfg),
            procs,
            mem_bus: (0..n).map(|_| MemoryBus::paper_memory_bus()).collect(),
            io_bus: (0..n).map(|_| MemoryBus::paper_io_bus()).collect(),
            dir: {
                // Only resident pages have directory state: reserve
                // the page blocks once, for every frame.
                let mut dir = Directory::with_topology(dir_shards, nodes);
                dir.reserve(npages, frames_per_node as usize * n);
                dir
            },
            disks,
            fs: ParallelFs::paper_default(io_nodes),
            ring,
            ifaces: (0..io_nodes)
                .map(|_| NwcInterface::new(total_channels))
                .collect(),
            disk_homes,
            drain_busy_until: vec![0; io_nodes as usize],
            pt: (0..npages).map(|_| PageEntry::new()).collect(),
            tlb_holders,
            frames: (0..n)
                .map(|_| FramePool::new(frames_per_node))
                .collect(),
            barrier: BarrierState::new(n),
            pending_ring_swaps: (0..n).map(|_| VecDeque::new()).collect(),
            swap_start: HashMap::new(),
            fault_info: HashMap::new(),
            npages,
            finished: 0,
            started: false,
            last_time: 0,
            same_time_events: 0,
            flush_runs: io::FlushRuns::default(),
            disk_faults,
            mesh_faults,
            pinned: HashSet::new(),
            disk_retry: HashMap::new(),
            swap_attempts: HashMap::new(),
            fatal: None,
            m_swap_out_time: Tally::new(),
            m_swap_out_hist: Histogram::new(),
            m_fault_hist: Histogram::new(),
            // One occupancy sample per ~100 us of simulated time,
            // downsampling past the cap instead of growing.
            m_ring_occupancy: BoundedSeries::new(20_000, RING_OCC_SAMPLE_CAP),
            m_fault_hit: Tally::new(),
            m_fault_miss: Tally::new(),
            m_fault_ring: Tally::new(),
            m_ring_hits: 0,
            m_ring_misses: 0,
            m_page_faults: 0,
            m_swap_outs: 0,
            m_swap_nacks: 0,
            m_shootdowns: 0,
            m_ring_pages_lost: 0,
            m_swap_retries: 0,
            m_degraded_ring_swaps: 0,
            m_dead_channels: 0,
            app_name: build.name,
            spec,
            obs: None,
            scratch_purge: Vec::with_capacity(LINES_PER_PAGE as usize),
        };
        Ok(m)
    }

    /// Attach a structured-event observer (see [`crate::observe`]).
    /// Call before [`Machine::run`]; observation never changes what
    /// the simulation computes.
    pub fn enable_observer(&mut self, cfg: ObserveConfig) {
        let mut o = Observer::new(&cfg);
        // Counter registration order is the order `sample_observer`
        // records values in — keep the two in sync.
        o.add_counter("sim.queue_depth".into(), groups::SIM, 0);
        o.add_counter("mesh.util_permille".into(), groups::MESH, 0);
        o.add_counter("dir.lines".into(), groups::DIR, 0);
        for d in 0..self.disks.len() {
            o.add_counter(format!("disk{d}.cache_fill"), groups::DISK, d as u32);
            o.add_counter(format!("disk{d}.arm_block"), groups::DISK, d as u32);
        }
        if let Some(ring) = self.ring.as_ref() {
            for c in 0..ring.channels() {
                o.add_counter(format!("ring.ch{c}.occupancy"), groups::RING, c as u32);
            }
        }
        self.obs = Some(Box::new(o));
    }

    /// Whether an observer is attached.
    pub fn observing(&self) -> bool {
        self.obs.is_some()
    }

    /// Detach the observer and return everything it recorded, or
    /// `None` if none was attached.
    pub fn take_observation(&mut self) -> Option<TraceData> {
        let o = self.obs.take()?;
        Some(o.into_data(self.app_name.to_string(), self.cfg.kind.label().to_string()))
    }

    /// Record an instant observation (no-op with no observer).
    #[inline]
    pub(crate) fn obs_instant(
        &mut self,
        at: Time,
        group: u8,
        index: u32,
        name: &'static str,
        arg0: u64,
        arg1: u64,
    ) {
        if let Some(o) = self.obs.as_mut() {
            o.buf.instant(at, TrackId::new(group, index), name, arg0, arg1);
        }
    }

    /// Record a span observation (no-op with no observer).
    #[inline]
    #[allow(clippy::too_many_arguments)] // mirrors `TraceBuffer::span`
    pub(crate) fn obs_span(
        &mut self,
        start: Time,
        end: Time,
        group: u8,
        index: u32,
        name: &'static str,
        arg0: u64,
        arg1: u64,
    ) {
        if let Some(o) = self.obs.as_mut() {
            o.buf.span(start, end, TrackId::new(group, index), name, arg0, arg1);
        }
    }

    /// [`Mesh::send`] plus a mesh-track span when observing: the
    /// protocol handlers route their traffic through this so the mesh
    /// timeline shows every transfer with its queueing and label.
    #[inline]
    pub(crate) fn mesh_send(
        &mut self,
        now: Time,
        src: u32,
        dst: u32,
        bytes: u64,
        what: &'static str,
    ) -> Delivery {
        let d = self.mesh.send(now, src, dst, bytes);
        if let Some(o) = self.obs.as_mut() {
            o.buf.span(
                d.start,
                d.arrival,
                TrackId::new(groups::MESH, src),
                what,
                dst as u64,
                bytes,
            );
        }
        d
    }

    /// Read one sample of every registered counter. Called from the
    /// event loop when simulated time passes the sampling deadline;
    /// reads component state only, never mutates it.
    fn sample_observer(&mut self, t: Time) {
        let qdepth = self.queue.len() as u64;
        let util = (self.mesh.mean_utilization(t.max(1)) * 1000.0) as u64;
        let dir_lines = self.dir.tracked_lines() as u64;
        let Some(o) = self.obs.as_mut() else { return };
        // Align the next deadline to the interval grid so sampling
        // cadence is a function of simulated time alone.
        o.next_sample_due = (t / o.sample_interval + 1) * o.sample_interval;
        let mut it = o.counters.iter_mut();
        let mut put = |v: u64| {
            if let Some(c) = it.next() {
                c.series.record(t, v);
            }
        };
        put(qdepth);
        put(util);
        put(dir_lines);
        for d in 0..self.disks.len() {
            put(self.disks[d].cache_fill() as u64);
            put(self.disks[d].mechanics().head());
        }
        if let Some(ring) = self.ring.as_ref() {
            for c in 0..ring.channels() {
                put(ring.occupancy(c) as u64);
            }
        }
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.procs.len()
    }

    /// Speculative read hints currently in flight across all nodes
    /// (committed but not yet installed, consumed, or retracted).
    /// Zero unless the mode is adaptive. Lets the crash-injection
    /// suite snapshot a machine while speculation is provably live.
    pub fn spec_outstanding(&self) -> usize {
        self.spec
            .as_ref()
            .map_or(0, |s| (0..self.cfg.nodes).map(|n| s.inflight(n)).sum())
    }

    /// Shared data footprint in pages.
    pub fn npages(&self) -> u64 {
        self.npages
    }

    /// Run the application to completion and collect metrics.
    ///
    /// # Panics
    /// Panics on any [`SimError`]; use [`Machine::try_run`] for the
    /// crash-proof variant.
    pub fn run(&mut self) -> RunMetrics {
        self.try_run()
            .unwrap_or_else(|e| panic!("simulation failed: {e}"))
    }

    /// Run the application to completion, reporting deadlock, livelock,
    /// protocol violations, lost pages and exhausted fault-recovery
    /// retries as structured errors instead of aborting the process.
    pub fn try_run(&mut self) -> Result<RunMetrics, SimError> {
        match self.try_run_events(u64::MAX)? {
            RunOutcome::Done(m) => Ok(*m),
            RunOutcome::Paused => unreachable!("unbounded run cannot pause"),
        }
    }

    /// Events dispatched so far (across every `try_run_events` call).
    pub fn events_dispatched(&self) -> u64 {
        self.queue.total_delivered()
    }

    /// Dispatch at most `budget` further events. Returns
    /// [`RunOutcome::Paused`] when the budget ran out with the
    /// simulation unfinished — the machine can then be checkpointed
    /// and/or the call repeated. Because every piece of loop state
    /// lives on the machine, chunked runs dispatch the exact same
    /// event sequence as one unbounded [`Machine::try_run`].
    pub fn try_run_events(&mut self, budget: u64) -> Result<RunOutcome, SimError> {
        let faults_active = self.cfg.faults.is_active();
        if !self.started {
            self.started = true;
            for &(t, ch) in &self.cfg.faults.ring_channel_failures {
                self.queue.schedule_at(t, Event::RingChannelFail { ch });
            }
            for p in 0..self.procs.len() {
                self.queue.schedule_at(0, Event::Resume(p as ProcId));
            }
        }
        let mut remaining = budget;
        while self.finished != self.procs.len() && remaining > 0 {
            let Some((t, ev)) = self.queue.pop() else { break };
            remaining -= 1;
            // Opportunistic sampling: piggyback on the event being
            // popped instead of scheduling sampler events, so the
            // event order (and therefore the simulation) is identical
            // with observation on or off.
            if self.obs.as_ref().is_some_and(|o| t >= o.next_sample_due) {
                self.sample_observer(t);
            }
            if t == self.last_time {
                self.same_time_events += 1;
                if self.same_time_events > STALL_EVENT_LIMIT {
                    return Err(SimError::Stalled {
                        at: t,
                        events: self.events_dispatched(),
                    });
                }
            } else {
                self.last_time = t;
                self.same_time_events = 0;
            }
            self.dispatch(ev)?;
            if let Some(e) = self.fatal.take() {
                return Err(e);
            }
            if faults_active && self.events_dispatched().is_multiple_of(CONSERVATION_CHECK_PERIOD) {
                self.check_page_conservation()?;
            }
        }
        if self.finished != self.procs.len() {
            if remaining == 0 {
                return Ok(RunOutcome::Paused);
            }
            return Err(SimError::Deadlock {
                at: self.queue.now(),
                blocked: self
                    .procs
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| !p.done)
                    .map(|(i, p)| (i as u32, format!("{:?}", p.blocked)))
                    .collect(),
            });
        }
        self.check_page_conservation()?;
        debug_assert!(self.tlb_holders_match(), "TLB holder sets differ from the TLBs");
        Ok(RunOutcome::Done(Box::new(self.collect_metrics())))
    }

    /// Verify that every frame on every node is accounted for: free,
    /// resident, receiving an in-transit page, backing an unfinished
    /// swap-out, or pinned awaiting a ring-loss-proof disk ACK. Any
    /// imbalance means a fault path leaked or double-freed a page.
    fn check_page_conservation(&self) -> Result<(), SimError> {
        let n = self.procs.len();
        let mut in_transit = vec![0u32; n];
        let mut swapping = vec![0u32; n];
        for e in &self.pt {
            match e.state {
                PageState::InTransit { node, .. } => in_transit[node as usize] += 1,
                PageState::SwappingOut { from, .. } => swapping[from as usize] += 1,
                _ => {}
            }
        }
        let mut pinned = vec![0u32; n];
        for &(node, _) in &self.pinned {
            pinned[node as usize] += 1;
        }
        for node in 0..n {
            let fp = &self.frames[node];
            let have = fp.free()
                + fp.resident().len() as u32
                + in_transit[node]
                + swapping[node]
                + pinned[node];
            if have != fp.total() {
                return Err(SimError::PageLost {
                    node: node as u32,
                    detail: format!(
                        "{} frames accounted for of {} (free {}, resident {}, \
                         in-transit {}, swapping {}, pinned {})",
                        have,
                        fp.total(),
                        fp.free(),
                        fp.resident().len(),
                        in_transit[node],
                        swapping[node],
                        pinned[node],
                    ),
                });
            }
        }
        Ok(())
    }

    /// Whether every page's holder set names exactly the TLBs that
    /// cache it.
    fn tlb_holders_match(&self) -> bool {
        self.tlb_holders == TlbHolders::of(self.npages, self.procs.iter().map(|p| &p.tlb))
    }

    /// Roll the mesh fault injector for one protected control message
    /// (swap ACK/OK, ring cancel). True when the message arrives.
    pub(crate) fn ctl_msg_delivered(&mut self) -> bool {
        matches!(self.mesh_faults.roll(), MsgFault::Delivered)
    }

    /// The execution time so far (max over processors).
    pub fn exec_time(&self) -> Time {
        self.procs.iter().map(|p| p.local_time).max().unwrap_or(0)
    }

    fn collect_metrics(&self) -> RunMetrics {
        crate::observe::record_completed_run(self.events_dispatched(), self.exec_time());
        let exec = self.exec_time();
        let mut combining = Tally::new();
        for d in &self.disks {
            combining.merge(d.combining());
        }
        let l2_hits: u64 = self.procs.iter().map(|p| p.l2.hits()).sum();
        let l2_misses: u64 = self.procs.iter().map(|p| p.l2.misses()).sum();
        RunMetrics {
            app: self.app_name.to_string(),
            machine: self.cfg.kind.label().into(),
            prefetch: self.cfg.prefetch.label().into(),
            exec_time: exec,
            breakdown: self.procs.iter().map(|p| p.breakdown).collect(),
            swap_out_time: self.m_swap_out_time.clone(),
            swap_out_hist: self.m_swap_out_hist.clone(),
            fault_hist: self.m_fault_hist.clone(),
            ring_occupancy: self.m_ring_occupancy.samples().collect(),
            write_combining: combining,
            ring_hits: self.m_ring_hits,
            ring_misses: self.m_ring_misses,
            fault_latency_disk_hit: self.m_fault_hit.clone(),
            fault_latency_disk_miss: self.m_fault_miss.clone(),
            fault_latency_ring: self.m_fault_ring.clone(),
            page_faults: self.m_page_faults,
            swap_outs: self.m_swap_outs,
            swap_nacks: self.m_swap_nacks,
            shootdowns: self.m_shootdowns,
            mesh_bytes: self.mesh.bytes_carried(),
            mesh_messages: self.mesh.message_count(),
            mesh_utilization: self.mesh.mean_utilization(exec),
            ring_peak_pages: self
                .ring
                .as_ref()
                .map(|r| (0..r.channels()).map(|c| r.peak_occupancy(c)).sum())
                .unwrap_or(0),
            l2_miss_ratio: if l2_hits + l2_misses == 0 {
                0.0
            } else {
                l2_misses as f64 / (l2_hits + l2_misses) as f64
            },
            disk_media_errors: self.disk_faults.iter().map(|f| f.media_errors()).sum(),
            disk_stuck_timeouts: self.disk_faults.iter().map(|f| f.stuck_requests()).sum(),
            mesh_dropped: self.mesh_faults.dropped(),
            mesh_corrupted: self.mesh_faults.corrupted(),
            ring_pages_lost: self.m_ring_pages_lost,
            swap_retries: self.m_swap_retries,
            dead_channels: self.m_dead_channels,
            degraded_ring_swaps: self.m_degraded_ring_swaps,
            disk_read_hits: self.disks.iter().map(|d| d.read_hits()).sum(),
            disk_read_misses: self.disks.iter().map(|d| d.read_misses()).sum(),
            prefetch_spec_issued: self.spec.as_ref().map_or(0, |s| s.spec_issued()),
            prefetch_spec_hits: self.disks.iter().map(|d| d.spec_hits()).sum(),
            prefetch_spec_late: self.disks.iter().map(|d| d.spec_late()).sum(),
            prefetch_spec_wasted: self.disks.iter().map(|d| d.spec_wasted()).sum(),
            prefetch_spec_canceled: self.disks.iter().map(|d| d.spec_canceled()).sum(),
            prefetch_inflight_peak: self.spec.as_ref().map_or(0, |s| s.inflight_peak()),
        }
    }

    /// Block processor `p` with the given accounting kind, starting at
    /// its current local time.
    pub(crate) fn block_proc(&mut self, p: ProcId, kind: BlockKind) {
        let t = self.procs[p as usize].local_time;
        debug_assert!(self.procs[p as usize].blocked.is_none());
        self.procs[p as usize].blocked = Some((kind, t));
    }

    /// Wake processor `p` at time `t`, charging the blocked interval
    /// to its category, and schedule it to resume.
    pub(crate) fn wake_proc(&mut self, p: ProcId, t: Time) {
        let proc = &mut self.procs[p as usize];
        let (kind, since) = proc.blocked.take().expect("waking a non-blocked proc");
        let t = t.max(since);
        let wait = t - since;
        match kind {
            BlockKind::Fault => proc.breakdown.fault += wait,
            BlockKind::Transit => proc.breakdown.transit += wait,
            BlockKind::NoFree => proc.breakdown.no_free += wait,
            BlockKind::Barrier => proc.breakdown.other += wait,
        }
        proc.local_time = t;
        let at = t.max(self.queue.now());
        self.queue.schedule_at(at, Event::Resume(p));
    }

    /// The inline processor execution loop: consume actions until the
    /// quantum expires, the processor blocks, or the stream ends.
    pub(crate) fn step_proc(&mut self, p: ProcId) {
        let pi = p as usize;
        if self.procs[pi].done {
            return;
        }
        // Never run behind global time.
        let now = self.queue.now();
        if self.procs[pi].local_time < now {
            self.procs[pi].local_time = now;
        }
        // Apply pending shootdown interrupts.
        let intr = std::mem::take(&mut self.procs[pi].pending_interrupt);
        self.procs[pi].local_time += intr;
        self.procs[pi].breakdown.tlb += intr;

        let start = self.procs[pi].local_time;
        loop {
            if self.procs[pi].local_time - start > self.cfg.quantum {
                let at = self.procs[pi].local_time;
                self.queue.schedule_at(at, Event::Resume(p));
                return;
            }
            let action = match self.procs[pi].pending.take() {
                Some(a) => a,
                None => match self.procs[pi].stream.next() {
                    Some(a) => {
                        self.procs[pi].consumed += 1;
                        a
                    }
                    None => {
                        self.procs[pi].done = true;
                        self.finished += 1;
                        return;
                    }
                },
            };
            match action {
                Action::Compute(c) => {
                    self.procs[pi].local_time += c as Time;
                    self.procs[pi].breakdown.other += c as Time;
                }
                Action::Barrier(id) => {
                    let t = self.procs[pi].local_time;
                    match self.barrier.arrive(p, id, t) {
                        None => {
                            self.block_proc(p, BlockKind::Barrier);
                            return;
                        }
                        Some(arrivals) => {
                            let release = arrivals.iter().map(|&(_, t)| t).max().unwrap();
                            for (q, _) in arrivals {
                                if q == p {
                                    self.procs[pi].breakdown.other += release - t;
                                    self.procs[pi].local_time = release;
                                } else {
                                    self.wake_proc(q, release);
                                }
                            }
                        }
                    }
                }
                Action::Read(line) => {
                    if !self.do_access(p, line, false, action) {
                        return;
                    }
                }
                Action::Write(line) => {
                    if !self.do_access(p, line, true, action) {
                        return;
                    }
                }
            }
        }
    }

    /// Perform one memory access inline; returns `false` when the
    /// processor blocked (the action is saved for retry).
    fn do_access(&mut self, p: ProcId, line: u64, is_write: bool, action: Action) -> bool {
        match self.access(p, line, is_write) {
            Ok((lat, tlb_lat)) => {
                let proc = &mut self.procs[p as usize];
                proc.local_time += lat;
                proc.breakdown.other += lat - tlb_lat;
                proc.breakdown.tlb += tlb_lat;
                true
            }
            Err(()) => {
                self.procs[p as usize].pending = Some(action);
                false
            }
        }
    }

    /// The node hosting processor `p` (one processor per node).
    pub(crate) fn node_of(&self, p: ProcId) -> u32 {
        p
    }

    /// The virtual page containing cache line `line`: a shift, since
    /// every page is [`nw_memhier::PAGE_BYTES`].
    pub(crate) fn page_of(&self, line: u64) -> Vpn {
        nw_memhier::page_of_line(line)
    }

    /// The optical ring `vpn`'s swap-outs ride: pages are sharded
    /// round-robin over the fabric. Always ring 0 on the single-ring
    /// paper machine.
    pub(crate) fn ring_of_page(&self, vpn: Vpn) -> usize {
        (vpn % self.cfg.ring_count as u64) as usize
    }

    /// Global cache-channel id for `node`'s channel on `vpn`'s ring
    /// (`gc = ring * nodes + node`; equal to `node` on the
    /// paper machine, keeping all existing encodings bit-identical).
    pub(crate) fn ring_channel_of(&self, node: u32, vpn: Vpn) -> u32 {
        self.ring_of_page(vpn) as u32 * self.cfg.nodes + node
    }

    /// The node owning global cache channel `gc`.
    pub(crate) fn channel_node(&self, gc: u32) -> u32 {
        gc % self.cfg.nodes
    }

    /// Debug invariant: per-node frame accounting is conserved.
    /// Exercised by the machine tests after quiescence.
    #[cfg(test)]
    pub(crate) fn check_frame_invariant(&self, node: u32) {
        let fp = &self.frames[node as usize];
        let in_transit = self
            .pt
            .iter()
            .filter(|e| matches!(e.state, PageState::InTransit { node: n, .. } if n == node))
            .count() as u32;
        let swapping = self
            .pt
            .iter()
            .filter(|e| matches!(e.state, PageState::SwappingOut { from, .. } if from == node))
            .count() as u32;
        let pinned = self.pinned.iter().filter(|&&(n, _)| n == node).count() as u32;
        assert_eq!(
            fp.free() + fp.resident().len() as u32 + in_transit + swapping + pinned,
            fp.total(),
            "frame leak on node {node}"
        );
    }
}
