//! Machine configuration (paper Table 1 plus modelling constants).

use crate::error::SimError;
use nw_sim::time::usecs;
use nw_sim::Time;

/// Whether the machine carries swap-outs over the mesh (standard) or
/// over the optical ring (NWCache).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineKind {
    /// The baseline multiprocessor: swap-outs cross the interconnect
    /// to the disk controller caches (ACK/NACK/OK flow control).
    Standard,
    /// The NWCache-equipped multiprocessor: swap-outs go to the node's
    /// ring cache channel; I/O-node interfaces drain them to the disk
    /// caches; faults can be served from the ring (victim caching).
    NwCache,
    /// The Disk Caching Disk baseline (related work \[7\]): the standard
    /// machine with a log disk between each RAM disk cache and data
    /// disk — flushes become cheap sequential appends, but re-reading
    /// staged data pays full disk mechanics.
    Dcd,
}

/// The two prefetching extremes evaluated in the paper (§3.1), plus
/// the realistic middle ground the paper anticipates ("we expect
/// results for realistic and sophisticated prefetching techniques to
/// lie between these two extremes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchMode {
    /// Idealized: every page read hits the disk controller cache.
    Optimal,
    /// On a controller-cache read miss, sequentially following pages
    /// are prefetched into the controller cache.
    Naive,
    /// Realistic windowed prefetching: sequential streams are kept
    /// ahead of the reader by a fixed window, extended on hits.
    Window,
    /// Online pattern-detecting prefetching: each node's demand-miss
    /// stream is classified over a sliding window
    /// (sequential / strided / temporal / random) and bounded,
    /// cancellable speculative reads are issued through the disk
    /// controllers' side caches (see `crate::prefetch`).
    Adaptive,
}

/// Page-replacement policy used by the VM system (the paper uses
/// LRU; the alternatives are OS-realism ablations).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// Evict the least recently used resident page (the paper's §3.1).
    Lru,
    /// Evict the oldest resident page regardless of use.
    Fifo,
    /// Second-chance clock: skip (and clear) referenced pages once,
    /// evicting the first unreferenced page in arrival order.
    Clock,
}

/// Where the I/O-enabled nodes (each hosting one disk + controller)
/// sit on the mesh. The paper's 8-node machine spreads them evenly
/// (nodes 0, 2, 4, 6); generated topologies can also pin them to the
/// mesh corners or pack them along the bottom row to study how
/// placement skews mesh contention at scale.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IoPlacement {
    /// Evenly spread: disk `d` lives on node `d * (nodes/io_nodes)`
    /// (the paper's layout; the legacy `disk_home` rule).
    #[default]
    Spread,
    /// The four mesh corners (requires exactly 4 I/O nodes and a mesh
    /// at least 2×2): worst-case average mesh distance.
    Corners,
    /// Packed along the bottom row: disk `d` on node
    /// `d * (width/io_nodes)` — models an edge I/O bay.
    Row,
}

impl IoPlacement {
    /// Grammar label (`io=spread|corners|row`).
    pub fn label(self) -> &'static str {
        match self {
            IoPlacement::Spread => "spread",
            IoPlacement::Corners => "corners",
            IoPlacement::Row => "row",
        }
    }
}

/// How pages are sharded across the rings of a multi-ring optical
/// fabric (`ring_count > 1`). Irrelevant for the paper's single ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RingShard {
    /// Ring = `vpn % rings`: adjacent pages alternate rings, spreading
    /// any hot region across every ring.
    #[default]
    Page,
    /// Ring = `(vpn / 32) % rings`: 32-page regions (matching the disk
    /// striping unit) stay on one ring, so a sequential burst keeps
    /// one transmitter busy while other regions use the other rings.
    Region,
}

impl RingShard {
    /// Grammar label (`shard=page|region`).
    pub fn label(self) -> &'static str {
        match self {
            RingShard::Page => "page",
            RingShard::Region => "region",
        }
    }
}

/// Deterministic fault-injection schedule. The default plan is
/// *inactive*: no fault machinery draws random numbers or schedules
/// events, so clean runs stay bit-identical to a build without the
/// subsystem. Activate it by setting any rate above zero or listing a
/// ring channel failure.
///
/// The retry/timeout parameters always carry sane defaults so a
/// partially filled plan validates; they only take effect once the
/// plan is active.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the fault RNG streams (independent of the workload
    /// seed so the same fault schedule can be replayed over different
    /// inputs).
    pub seed: u64,
    /// Probability that a disk media read fails and must be retried
    /// (per physical page access).
    pub disk_error_rate: f64,
    /// Probability that a disk request gets stuck and is only
    /// recovered by the request timeout (per access).
    pub disk_stuck_rate: f64,
    /// Ring channel failures: `(time, channel)` pairs. At `time` the
    /// channel dies permanently, destroying every page circulating on
    /// it; the machine re-issues those swap-outs over the mesh and
    /// routes future swap-outs of that node through the standard
    /// ACK/NACK path.
    pub ring_channel_failures: Vec<(Time, u32)>,
    /// Probability that a mesh control message (swap ACK/OK, ring
    /// cancel) is dropped in flight.
    pub mesh_drop_rate: f64,
    /// Probability that a mesh control message arrives corrupted; the
    /// CRC check discards it, so the effect equals a drop but is
    /// counted separately.
    pub mesh_corrupt_rate: f64,
    /// Maximum retries for a failed disk access or timed-out swap
    /// before the run aborts with `SimError::RetriesExhausted`.
    pub max_retries: u32,
    /// Base backoff before a disk retry; doubles per attempt.
    pub retry_backoff: Time,
    /// Pcycles a swap-out or stuck disk request may remain
    /// unacknowledged before the timeout path re-issues it.
    pub request_timeout: Time,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xFA17,
            disk_error_rate: 0.0,
            disk_stuck_rate: 0.0,
            ring_channel_failures: Vec::new(),
            mesh_drop_rate: 0.0,
            mesh_corrupt_rate: 0.0,
            max_retries: 5,
            retry_backoff: 50_000,
            request_timeout: 2_000_000,
        }
    }
}

impl FaultPlan {
    /// Whether any fault is scheduled. Inactive plans must leave the
    /// simulation bit-identical to a run without fault machinery.
    pub fn is_active(&self) -> bool {
        self.disk_error_rate > 0.0
            || self.disk_stuck_rate > 0.0
            || !self.ring_channel_failures.is_empty()
            || self.mesh_drop_rate > 0.0
            || self.mesh_corrupt_rate > 0.0
    }

    /// Whether any mesh-level fault is scheduled (gates the swap
    /// timeout machinery).
    pub fn mesh_faults_active(&self) -> bool {
        self.mesh_drop_rate > 0.0 || self.mesh_corrupt_rate > 0.0
    }

    /// Validate rates and retry bounds.
    pub fn validate(&self) -> Result<(), String> {
        for (name, rate) in [
            ("disk_error_rate", self.disk_error_rate),
            ("disk_stuck_rate", self.disk_stuck_rate),
            ("mesh_drop_rate", self.mesh_drop_rate),
            ("mesh_corrupt_rate", self.mesh_corrupt_rate),
        ] {
            if !(0.0..=1.0).contains(&rate) || rate.is_nan() {
                return Err(format!("fault {name} must be in [0, 1], got {rate}"));
            }
        }
        if self.max_retries == 0 {
            return Err("fault max_retries must be > 0".into());
        }
        if self.retry_backoff == 0 {
            return Err("fault retry_backoff must be > 0".into());
        }
        if self.request_timeout == 0 {
            return Err("fault request_timeout must be > 0".into());
        }
        Ok(())
    }
}

/// Largest [`MachineConfig::disk_cache_pages`] a config may ask for:
/// far above the 128 pages of the disk-cache sweep, far below a cache
/// whose allocation fails.
pub const MAX_DISK_CACHE_PAGES: usize = 1 << 16;

/// Largest [`MachineConfig::ring_slots_per_channel`]: far above the 64
/// slots of the ring-geometry ablation, far below a ring whose
/// allocation fails.
pub const MAX_RING_SLOTS: usize = 1 << 12;

/// Largest [`MachineConfig::ring_channels`]: four channels per node of
/// the largest (1,024-node) machine.
pub const MAX_RING_CHANNELS: usize = 1 << 12;

/// Largest [`MachineConfig::ring_count`]: far above the 8 rings of the
/// largest generated topology in use.
pub const MAX_RING_COUNT: usize = 1 << 6;

/// Largest [`MachineConfig::tlb_entries`]: far above the paper's 64.
pub const MAX_TLB_ENTRIES: usize = 1 << 16;

/// Largest [`MachineConfig::wb_entries`]: far above the paper's 8.
pub const MAX_WB_ENTRIES: usize = 1 << 10;

/// Largest [`MachineConfig::prefetch_window`]: far above the default 16.
/// The window sizes each controller's speculative side cache.
pub const MAX_PREFETCH_WINDOW: usize = 1 << 12;

/// Full machine configuration. Defaults mirror the paper's Table 1;
/// fields not in the table are modelling constants "comparable to
/// modern systems" (1999), as the paper puts it.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Standard or NWCache machine.
    pub kind: MachineKind,
    /// Prefetching policy for the disk controllers.
    pub prefetch: PrefetchMode,

    /// Number of nodes (Table 1: 8).
    pub nodes: u32,
    /// Number of I/O-enabled nodes (Table 1: 4).
    pub io_nodes: u32,
    /// Page size in bytes (Table 1: 4 KB).
    pub page_bytes: u64,
    /// TLB miss latency in pcycles (Table 1: 100).
    pub tlb_miss_latency: Time,
    /// TLB shootdown latency paid by the initiator (Table 1: 500).
    pub tlb_shootdown_latency: Time,
    /// Interrupt latency paid by every other processor (Table 1: 400).
    pub interrupt_latency: Time,
    /// Memory per node in bytes (Table 1: 256 KB).
    pub memory_per_node: u64,
    /// Minimum free page frames per node (paper §5: best values are 2
    /// with the NWCache; 12/4 for the standard machine under
    /// optimal/naive prefetching).
    pub min_free_frames: u32,
    /// Page-replacement policy (paper: LRU).
    pub replacement: ReplacementPolicy,

    /// Mesh width in nodes. `0` (with `mesh_height == 0`) means the
    /// legacy derived shape `(nodes/2).max(1) × 2.min(nodes)` — the
    /// paper's 4×2. Generated topologies set both explicitly
    /// (`mesh_width * mesh_height == nodes`).
    pub mesh_width: u32,
    /// Mesh height in nodes (see [`MachineConfig::mesh_width`]).
    pub mesh_height: u32,
    /// Where the I/O nodes sit on the mesh (paper: evenly spread).
    pub io_placement: IoPlacement,

    /// WDM cache channels (Table 1: 8; one per node). With
    /// `ring_count > 1` this is the per-ring channel count; every node
    /// owns one channel on every ring.
    pub ring_channels: usize,
    /// Page slots per cache channel (Table 1: 64 KB per channel = 16).
    pub ring_slots_per_channel: usize,
    /// Ring round-trip latency (Table 1: 52 usecs).
    pub ring_round_trip: Time,
    /// Independent optical rings in the fabric (paper: 1). Each ring
    /// carries the full per-node channel set; pages are sharded across
    /// rings by [`MachineConfig::ring_shard`], and each node's single
    /// tunable transmitter arbitrates between rings.
    pub ring_count: usize,
    /// Page-to-ring sharding policy (only meaningful when
    /// `ring_count > 1`).
    pub ring_shard: RingShard,

    /// Directory shards (paper-equivalent: 1; at most one per node),
    /// the `dirshards=` word. Kept in the config and `nwckpt-v1`, but
    /// it no longer splits storage: the page-indexed directory makes
    /// every lookup one probe, and the split was never observable.
    pub dir_shards: usize,

    /// Disk controller cache capacity in pages (Table 1: 16 KB = 4).
    pub disk_cache_pages: usize,
    /// Accumulation window before the controller flushes a swap-out.
    pub disk_flush_delay: Time,
    /// Sliding-window length of the adaptive prefetcher's per-node
    /// pattern detector (also sizes the speculative side caches and,
    /// halved, the per-node in-flight speculation cap). Ignored by the
    /// other prefetch modes.
    pub prefetch_window: usize,

    /// TLB entries per processor.
    pub tlb_entries: usize,
    /// L1 hit latency.
    pub l1_latency: Time,
    /// L2 hit latency (on top of L1).
    pub l2_latency: Time,
    /// DRAM access latency at the home node (on top of bus transfer).
    pub mem_latency: Time,
    /// Directory lookup overhead at the home node.
    pub dir_latency: Time,
    /// Write-buffer entries per processor.
    pub wb_entries: usize,
    /// Control-message payload size on the mesh (bytes).
    pub ctl_msg_bytes: u64,
    /// Max pcycles a processor may run ahead inline before yielding to
    /// the event queue (bounds timing skew between processors).
    pub quantum: Time,

    /// Application input scale (1.0 = paper's Table 2 inputs).
    pub app_scale: f64,
    /// Workload seed (graph topology, radix keys, ...).
    pub seed: u64,

    /// Fault-injection schedule (default: inactive).
    pub faults: FaultPlan,
}

impl MachineConfig {
    /// The paper's Table 1 configuration. `min_free_frames` is set to
    /// the paper's §5 best value for the chosen kind and prefetch
    /// mode: 2 for the NWCache machine, 12 (optimal) or 4 (naive) for
    /// the standard machine.
    pub fn paper_default(kind: MachineKind, prefetch: PrefetchMode) -> Self {
        let min_free_frames = match (kind, prefetch) {
            (MachineKind::NwCache, _) => 2,
            (MachineKind::Standard | MachineKind::Dcd, PrefetchMode::Optimal) => 12,
            (MachineKind::Standard | MachineKind::Dcd, PrefetchMode::Naive) => 4,
            // Between the two extremes, like the modes themselves.
            (
                MachineKind::Standard | MachineKind::Dcd,
                PrefetchMode::Window | PrefetchMode::Adaptive,
            ) => 8,
        };
        MachineConfig {
            kind,
            prefetch,
            nodes: 8,
            io_nodes: 4,
            page_bytes: 4096,
            tlb_miss_latency: 100,
            tlb_shootdown_latency: 500,
            interrupt_latency: 400,
            memory_per_node: 256 * 1024,
            min_free_frames,
            replacement: ReplacementPolicy::Lru,
            mesh_width: 0,
            mesh_height: 0,
            io_placement: IoPlacement::Spread,
            ring_channels: 8,
            ring_slots_per_channel: 16,
            ring_round_trip: usecs(52),
            ring_count: 1,
            ring_shard: RingShard::Page,
            dir_shards: 1,
            disk_cache_pages: 4,
            disk_flush_delay: 50_000,
            prefetch_window: 16,
            tlb_entries: 64,
            l1_latency: 1,
            l2_latency: 10,
            mem_latency: 30,
            dir_latency: 10,
            wb_entries: 8,
            ctl_msg_bytes: 16,
            quantum: 2_000,
            app_scale: 1.0,
            seed: 0x1999,
            faults: FaultPlan::default(),
        }
    }

    /// A paper configuration shrunk to `scale`: the application inputs
    /// *and* the machine's memory/ring capacities shrink together so
    /// the data-to-memory ratio (and therefore the out-of-core
    /// behaviour) is preserved. `scale = 1.0` is exactly
    /// [`MachineConfig::paper_default`].
    pub fn scaled_paper(kind: MachineKind, prefetch: PrefetchMode, scale: f64) -> Self {
        let mut cfg = Self::paper_default(kind, prefetch);
        assert!(scale_in_range(scale), "scale must be in (0, 1]");
        cfg.app_scale = scale;
        if scale < 1.0 {
            let frames = ((cfg.frames_per_node() as f64 * scale) as u64).max(8);
            cfg.memory_per_node = frames * cfg.page_bytes;
            // Round to nearest: truncation made e.g. scale 0.3 drop
            // 16 * 0.3 = 4.8 slots to 4, an 8% capacity cut the scale
            // never asked for.
            cfg.ring_slots_per_channel =
                ((cfg.ring_slots_per_channel as f64 * scale).round() as usize).max(2);
            cfg.min_free_frames = cfg.min_free_frames.min(frames as u32 / 2).max(2);
        }
        cfg
    }

    /// Page frames per node implied by the memory size.
    pub fn frames_per_node(&self) -> u32 {
        (self.memory_per_node / self.page_bytes) as u32
    }

    /// Mesh dimensions `(width, height)`: the explicit
    /// `mesh_width × mesh_height` when set, otherwise the legacy
    /// derived shape `(nodes/2).max(1) × 2.min(nodes)` (the paper's
    /// 8 nodes become 4×2).
    pub fn mesh_dims(&self) -> (u32, u32) {
        if self.mesh_width == 0 && self.mesh_height == 0 {
            ((self.nodes / 2).max(1), 2.min(self.nodes))
        } else {
            (self.mesh_width, self.mesh_height)
        }
    }

    /// The node hosting disk `d` under the configured
    /// [`IoPlacement`]. An out-of-range disk index is a structured
    /// error, not a silently bogus home node: the old `debug_assert!`
    /// guard vanished in release builds and let
    /// `d * (nodes/io_nodes)` land on a non-I/O node.
    pub fn try_io_node_of_disk(&self, d: u32) -> Result<u32, SimError> {
        if d >= self.io_nodes {
            return Err(SimError::BadConfig(format!(
                "disk {d} out of range: machine has {} I/O nodes",
                self.io_nodes
            )));
        }
        let (w, h) = self.mesh_dims();
        Ok(match self.io_placement {
            IoPlacement::Spread => d * (self.nodes / self.io_nodes),
            IoPlacement::Corners => [0, w - 1, (h - 1) * w, h * w - 1][d as usize],
            IoPlacement::Row => d * (w / self.io_nodes),
        })
    }

    /// Infallible [`MachineConfig::try_io_node_of_disk`] for hot paths
    /// that only ever see validated disk indices. Panics (in every
    /// build profile) on an out-of-range index instead of computing a
    /// bogus home.
    pub fn io_node_of_disk(&self, d: u32) -> u32 {
        self.try_io_node_of_disk(d)
            .expect("disk index validated at config time")
    }

    /// Whether the NWCache hardware is present.
    pub fn has_ring(&self) -> bool {
        self.kind == MachineKind::NwCache
    }

    /// Validate internal consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes == 0 || self.io_nodes == 0 {
            return Err("need nodes and I/O nodes".into());
        }
        if self.io_nodes > self.nodes {
            return Err("more I/O nodes than nodes".into());
        }
        if !self.nodes.is_multiple_of(self.io_nodes) {
            return Err("nodes must be a multiple of io_nodes".into());
        }
        if self.nodes > 1024 {
            return Err(format!("at most 1024 nodes supported, got {}", self.nodes));
        }
        if (self.mesh_width == 0) != (self.mesh_height == 0) {
            return Err("mesh_width and mesh_height must be set together".into());
        }
        let (w, h) = self.mesh_dims();
        if w as u64 * h as u64 != self.nodes as u64 {
            return Err(format!(
                "mesh {w}x{h} holds {} nodes, config says {}",
                w as u64 * h as u64,
                self.nodes
            ));
        }
        match self.io_placement {
            IoPlacement::Spread => {}
            IoPlacement::Corners => {
                if self.io_nodes != 4 {
                    return Err(format!(
                        "io=corners needs exactly 4 I/O nodes, got {}",
                        self.io_nodes
                    ));
                }
                if w < 2 || h < 2 {
                    return Err(format!("io=corners needs a mesh of at least 2x2, got {w}x{h}"));
                }
            }
            IoPlacement::Row => {
                if self.io_nodes > w || !w.is_multiple_of(self.io_nodes) {
                    return Err(format!(
                        "io=row needs the mesh width ({w}) to be a multiple of the \
                         I/O node count ({})",
                        self.io_nodes
                    ));
                }
            }
        }
        if self.has_ring() && self.ring_channels < self.nodes as usize {
            return Err("each node needs its own cache channel".into());
        }
        for (name, value, max) in [
            ("dir_shards", self.dir_shards, self.nodes as usize),
            ("disk_cache_pages", self.disk_cache_pages, MAX_DISK_CACHE_PAGES),
            ("ring_slots_per_channel", self.ring_slots_per_channel, MAX_RING_SLOTS),
            ("ring_channels", self.ring_channels, MAX_RING_CHANNELS),
            ("ring_count", self.ring_count, MAX_RING_COUNT),
            ("tlb_entries", self.tlb_entries, MAX_TLB_ENTRIES),
            ("wb_entries", self.wb_entries, MAX_WB_ENTRIES),
        ] {
            if !(1..=max).contains(&value) {
                return Err(format!("{name} must be in 1..={max}, got {value}"));
            }
        }
        // Caches, the directory's page blocks and `Machine::page_of`
        // all assume 64 lines per page.
        if self.page_bytes != nw_memhier::PAGE_BYTES {
            return Err(format!(
                "page_bytes must be {} (64 lines of {} B), got {}",
                nw_memhier::PAGE_BYTES,
                nw_memhier::LINE_BYTES,
                self.page_bytes
            ));
        }
        if self.frames_per_node() <= self.min_free_frames {
            return Err("min_free_frames must be below frames/node".into());
        }
        if !scale_in_range(self.app_scale) {
            return Err("app_scale must be in (0, 1]".into());
        }
        if self.prefetch == PrefetchMode::Adaptive && self.prefetch_window < 2 {
            return Err("prefetch_window must be at least 2".into());
        }
        if self.prefetch_window > MAX_PREFETCH_WINDOW {
            return Err(format!(
                "prefetch_window must be at most {MAX_PREFETCH_WINDOW}, got {}",
                self.prefetch_window
            ));
        }
        self.faults.validate()?;
        for &(_, ch) in &self.faults.ring_channel_failures {
            if !self.has_ring() {
                return Err("ring_channel_failures require a NWCache machine".into());
            }
            // Channel ids are global across the fabric:
            // `ring * ring_channels + node`.
            if ch as usize >= self.ring_channels * self.ring_count {
                return Err(format!(
                    "ring channel failure targets channel {ch}, fabric has {}",
                    self.ring_channels * self.ring_count
                ));
            }
        }
        Ok(())
    }
}

/// Whether `scale` is a valid application/machine scale: in (0, 1].
/// NaN is not.
pub fn scale_in_range(scale: f64) -> bool {
    scale > 0.0 && scale <= 1.0
}

/// The portable subset of a run request: everything `nwsim run`'s
/// common flags can say about a configuration, as data.
///
/// This is the single config-construction path shared by the batch CLI
/// and the `nwserve-v1` server, which is what makes a served run's
/// summary byte-identical to `nwsim run --json` for the same request:
/// both sides lower the same `RunParams` through
/// [`RunParams::to_config`], so there is no second flag-interpretation
/// code path to drift.
#[derive(Debug, Clone, PartialEq)]
pub struct RunParams {
    /// Machine kind (`nwsim run --machine`).
    pub machine: MachineKind,
    /// Prefetch policy (`--prefetch`).
    pub prefetch: PrefetchMode,
    /// Adaptive-detector window override (`--prefetch adaptive:N`).
    pub prefetch_window: Option<usize>,
    /// Application/machine scale factor (`--scale`).
    pub scale: f64,
    /// Workload seed override (`--seed`).
    pub seed: Option<u64>,
    /// Generated-topology spec (`--topo`), DESIGN.md §17 grammar.
    pub topo: Option<String>,
}

impl Default for RunParams {
    /// The CLI's defaults: the NWCache machine with naive prefetching
    /// at scale 0.25 on the paper topology.
    fn default() -> Self {
        RunParams {
            machine: MachineKind::NwCache,
            prefetch: PrefetchMode::Naive,
            prefetch_window: None,
            scale: 0.25,
            seed: None,
            topo: None,
        }
    }
}

impl RunParams {
    /// Lower the request to a validated [`MachineConfig`]. Topology
    /// errors surface first (they name the offending spec field), then
    /// whole-config validation.
    pub fn to_config(&self) -> Result<MachineConfig, crate::error::SimError> {
        use crate::error::SimError;
        if !scale_in_range(self.scale) {
            return Err(SimError::BadConfig(format!(
                "scale {} out of range (0, 1]",
                self.scale
            )));
        }
        let mut cfg = match &self.topo {
            Some(spec) => {
                let topo = crate::topo::TopoSpec::parse(spec)
                    .map_err(|e| SimError::BadConfig(format!("bad topo: {e}")))?;
                topo.validate()
                    .map_err(|e| SimError::BadConfig(format!("bad topo: {e}")))?;
                topo.to_config(self.machine, self.prefetch, self.scale)
            }
            None => MachineConfig::scaled_paper(self.machine, self.prefetch, self.scale),
        };
        if let Some(w) = self.prefetch_window {
            cfg.prefetch_window = w;
        }
        if let Some(s) = self.seed {
            cfg.seed = s;
        }
        cfg.validate().map_err(SimError::BadConfig)?;
        Ok(cfg)
    }
}

impl MachineKind {
    /// Parse a CLI machine label (`standard|std|nwcache|nwc|dcd`).
    /// Shared by both binaries and the serve protocol so all reject
    /// exactly the same strings with the same message.
    pub fn parse(s: &str) -> Result<MachineKind, String> {
        match s {
            "standard" | "std" => Ok(MachineKind::Standard),
            "nwcache" | "nwc" => Ok(MachineKind::NwCache),
            "dcd" => Ok(MachineKind::Dcd),
            other => Err(format!("unknown machine '{other}' (standard|nwcache|dcd)")),
        }
    }

    /// Label reported in `RunSummary::machine` and trace metadata.
    pub fn label(self) -> &'static str {
        match self {
            MachineKind::Standard => "standard",
            MachineKind::NwCache => "nwcache",
            MachineKind::Dcd => "dcd",
        }
    }
}

impl PrefetchMode {
    /// Label reported in `RunSummary::prefetch`.
    pub fn label(self) -> &'static str {
        match self {
            PrefetchMode::Optimal => "optimal",
            PrefetchMode::Naive => "naive",
            PrefetchMode::Window => "window",
            PrefetchMode::Adaptive => "adaptive",
        }
    }

    /// The controller-level policy the disks run with. Window depth is
    /// the controller cache size; adaptive controllers serve demand
    /// reads only, since every speculative read is an explicit hint
    /// from the machine (see `crate::prefetch`).
    pub fn disk_policy(self, disk_cache_pages: usize) -> nw_disk::PrefetchPolicy {
        match self {
            PrefetchMode::Optimal => nw_disk::PrefetchPolicy::Optimal,
            PrefetchMode::Naive => nw_disk::PrefetchPolicy::Naive,
            PrefetchMode::Window => nw_disk::PrefetchPolicy::Window {
                depth: disk_cache_pages,
            },
            PrefetchMode::Adaptive => nw_disk::PrefetchPolicy::Demand,
        }
    }

    /// Parse a CLI prefetch spec: `optimal|naive|window|adaptive[:N]`,
    /// where the optional `:N` suffix sets the adaptive detector's
    /// sliding window.
    pub fn parse_spec(s: &str) -> Result<(PrefetchMode, Option<usize>), String> {
        if let Some(w) = s.strip_prefix("adaptive:") {
            let window = w
                .parse()
                .map_err(|_| format!("bad adaptive window '{w}'"))?;
            return Ok((PrefetchMode::Adaptive, Some(window)));
        }
        match s {
            "optimal" | "opt" => Ok((PrefetchMode::Optimal, None)),
            "naive" => Ok((PrefetchMode::Naive, None)),
            "window" | "win" => Ok((PrefetchMode::Window, None)),
            "adaptive" => Ok((PrefetchMode::Adaptive, None)),
            other => Err(format!(
                "unknown prefetch '{other}' (optimal|naive|window|adaptive[:window])"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table1() {
        let c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Optimal);
        assert_eq!(c.nodes, 8);
        assert_eq!(c.io_nodes, 4);
        assert_eq!(c.page_bytes, 4096);
        assert_eq!(c.tlb_miss_latency, 100);
        assert_eq!(c.tlb_shootdown_latency, 500);
        assert_eq!(c.interrupt_latency, 400);
        assert_eq!(c.memory_per_node, 262_144);
        assert_eq!(c.frames_per_node(), 64);
        assert_eq!(c.ring_channels, 8);
        assert_eq!(c.ring_slots_per_channel, 16);
        assert_eq!(c.ring_round_trip, 10_400);
        assert_eq!(c.disk_cache_pages, 4);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validate_bounds_disk_cache_and_ring_slots() {
        let ok = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        let with = |field: &str, value: usize| {
            let mut c = ok.clone();
            *match field {
                "disk_cache_pages" => &mut c.disk_cache_pages,
                "ring_slots_per_channel" => &mut c.ring_slots_per_channel,
                "ring_channels" => &mut c.ring_channels,
                "ring_count" => &mut c.ring_count,
                "tlb_entries" => &mut c.tlb_entries,
                "wb_entries" => &mut c.wb_entries,
                "prefetch_window" => &mut c.prefetch_window,
                "dir_shards" => &mut c.dir_shards,
                _ => unreachable!("{field}"),
            } = value;
            c
        };
        for (field, value, reason) in [
            ("disk_cache_pages", 0, "disk_cache_pages must be in 1..=65536, got 0"),
            ("disk_cache_pages", MAX_DISK_CACHE_PAGES + 1, "disk_cache_pages must be in 1..=65536, got 65537"),
            ("disk_cache_pages", 100_000_000_000, "disk_cache_pages"),
            ("ring_slots_per_channel", 0, "ring_slots_per_channel must be in 1..=4096, got 0"),
            ("ring_slots_per_channel", MAX_RING_SLOTS + 1, "ring_slots_per_channel must be in 1..=4096, got 4097"),
            ("ring_slots_per_channel", 100_000_000_000, "ring_slots_per_channel"),
            // Each of these at 2^40 used to abort machine construction
            // on a failed allocation of terabytes.
            ("ring_channels", MAX_RING_CHANNELS + 1, "ring_channels must be in 1..=4096, got 4097"),
            ("ring_channels", 1 << 40, "ring_channels"),
            ("ring_count", 0, "ring_count must be in 1..=64, got 0"),
            ("ring_count", 1 << 40, "ring_count must be in 1..=64, got 1099511627776"),
            ("tlb_entries", MAX_TLB_ENTRIES + 1, "tlb_entries must be in 1..=65536, got 65537"),
            ("tlb_entries", 1 << 40, "tlb_entries"),
            ("wb_entries", MAX_WB_ENTRIES + 1, "wb_entries must be in 1..=1024, got 1025"),
            ("wb_entries", 1 << 40, "wb_entries"),
            ("prefetch_window", MAX_PREFETCH_WINDOW + 1, "prefetch_window must be at most 4096, got 4097"),
            ("prefetch_window", 1 << 40, "prefetch_window"),
            // The shard count is recorded only; at most one per node.
            ("dir_shards", 0, "dir_shards must be in 1..=8, got 0"),
            ("dir_shards", 9, "dir_shards must be in 1..=8, got 9"),
            ("dir_shards", usize::MAX, "dir_shards must be in 1..=8"),
        ] {
            let err = with(field, value).validate().expect_err(reason);
            assert!(err.contains(reason), "{err}");
        }
        let max = MachineConfig {
            disk_cache_pages: MAX_DISK_CACHE_PAGES,
            ring_slots_per_channel: MAX_RING_SLOTS,
            ring_channels: MAX_RING_CHANNELS,
            ring_count: MAX_RING_COUNT,
            tlb_entries: MAX_TLB_ENTRIES,
            wb_entries: MAX_WB_ENTRIES,
            prefetch_window: MAX_PREFETCH_WINDOW,
            dir_shards: 8,
            ..ok
        };
        assert!(max.validate().is_ok());
    }

    #[test]
    fn min_free_defaults_follow_section5() {
        use MachineKind::*;
        use PrefetchMode::*;
        assert_eq!(MachineConfig::paper_default(NwCache, Optimal).min_free_frames, 2);
        assert_eq!(MachineConfig::paper_default(NwCache, Naive).min_free_frames, 2);
        assert_eq!(MachineConfig::paper_default(Standard, Optimal).min_free_frames, 12);
        assert_eq!(MachineConfig::paper_default(Standard, Naive).min_free_frames, 4);
    }

    #[test]
    fn io_nodes_are_spread() {
        let c = MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Naive);
        assert_eq!(c.io_node_of_disk(0), 0);
        assert_eq!(c.io_node_of_disk(1), 2);
        assert_eq!(c.io_node_of_disk(2), 4);
        assert_eq!(c.io_node_of_disk(3), 6);
    }

    #[test]
    fn out_of_range_disk_is_a_structured_error() {
        // The old guard was `debug_assert!(d < io_nodes)`: release
        // builds silently computed `4 * (8/4) = 8`, a node that does
        // not exist.
        let c = MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Naive);
        let err = c.try_io_node_of_disk(4).unwrap_err();
        assert!(matches!(err, SimError::BadConfig(_)), "{err}");
        assert!(err.to_string().contains("disk 4"), "{err}");
    }

    #[test]
    fn scaled_ring_slots_round_to_nearest() {
        // 16 * 0.3 = 4.8: truncation gave 4 (an 8% capacity cut),
        // rounding gives 5. Values just below the boundary still
        // round down, and the floor of 2 still applies.
        let c = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, 0.3);
        assert_eq!(c.ring_slots_per_channel, 5);
        let c = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, 0.27);
        assert_eq!(c.ring_slots_per_channel, 4); // 4.32 rounds down
        let c = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, 0.05);
        assert_eq!(c.ring_slots_per_channel, 2); // 0.8 clamps to the floor
        let c = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, 0.25);
        assert_eq!(c.ring_slots_per_channel, 4); // exact, unchanged by the fix
    }

    #[test]
    fn corner_and_row_placements_map_to_the_mesh() {
        let mut c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        c.mesh_width = 4;
        c.mesh_height = 2;
        c.io_placement = IoPlacement::Corners;
        assert!(c.validate().is_ok());
        assert_eq!(
            (0..4).map(|d| c.io_node_of_disk(d)).collect::<Vec<_>>(),
            vec![0, 3, 4, 7]
        );
        c.io_placement = IoPlacement::Row;
        assert!(c.validate().is_ok());
        assert_eq!(
            (0..4).map(|d| c.io_node_of_disk(d)).collect::<Vec<_>>(),
            vec![0, 1, 2, 3]
        );
    }

    #[test]
    fn topology_validation_rejects_bad_shapes() {
        // Mesh area must equal the node count.
        let mut c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        c.mesh_width = 3;
        c.mesh_height = 3;
        assert!(c.validate().is_err());
        // Width and height must be set together.
        let mut c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        c.mesh_width = 8;
        assert!(c.validate().is_err());
        // Corners placement needs exactly 4 I/O nodes...
        let mut c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        c.io_nodes = 2;
        c.io_placement = IoPlacement::Corners;
        assert!(c.validate().is_err());
        // ...and a 2D mesh (1xN has coincident corners).
        let mut c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        c.mesh_width = 8;
        c.mesh_height = 1;
        c.io_placement = IoPlacement::Corners;
        assert!(c.validate().is_err());
        // Row placement needs width % io_nodes == 0.
        let mut c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        c.mesh_width = 2;
        c.mesh_height = 4;
        c.io_placement = IoPlacement::Row;
        assert!(c.validate().is_err());
        // Zero rings are invalid.
        let mut c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        c.ring_count = 0;
        assert!(c.validate().is_err());
        // Node cap.
        let mut c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        c.nodes = 2048;
        c.io_nodes = 1024;
        c.ring_channels = 2048;
        assert!(c.validate().is_err());
        // A fault targeting a second-ring channel validates only when
        // the fabric has that ring.
        let mut c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        c.faults.ring_channel_failures = vec![(1000, 11)];
        assert!(c.validate().is_err());
        c.ring_count = 2;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        c.ring_channels = 4;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Naive);
        c.io_nodes = 3;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Naive);
        c.min_free_frames = 64;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Naive);
        c.app_scale = 0.0;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Adaptive);
        c.prefetch_window = 1;
        assert!(c.validate().is_err());
        // Other modes ignore the window.
        let mut c = MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Naive);
        c.prefetch_window = 1;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn page_size_other_than_64_lines_is_rejected() {
        // Another page size used to mis-simulate silently: the caches
        // and the directory purge a fixed 64 lines per page.
        for page_bytes in [2048, 4095, 8192] {
            let mut c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
            c.page_bytes = page_bytes;
            c.memory_per_node = 64 * page_bytes;
            let err = c.validate().unwrap_err();
            assert!(err.contains("page_bytes must be 4096"), "{page_bytes}: {err}");
        }
    }

    #[test]
    fn scaled_paper_preserves_out_of_core_ratio() {
        let full = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        let half = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, 0.5);
        // Memory and ring shrink roughly with the scale.
        assert!(half.memory_per_node < full.memory_per_node);
        assert!(half.ring_slots_per_channel < full.ring_slots_per_channel);
        assert!(half.validate().is_ok());
        // Scale 1.0 is exactly the paper config.
        let same = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, 1.0);
        assert_eq!(same.memory_per_node, full.memory_per_node);
        assert_eq!(same.ring_slots_per_channel, full.ring_slots_per_channel);
    }

    #[test]
    fn scaled_paper_keeps_min_free_sane() {
        for scale in [0.02, 0.05, 0.1, 0.3, 0.7] {
            for kind in [MachineKind::Standard, MachineKind::NwCache, MachineKind::Dcd] {
                for pf in [
                    PrefetchMode::Optimal,
                    PrefetchMode::Naive,
                    PrefetchMode::Window,
                    PrefetchMode::Adaptive,
                ] {
                    let cfg = MachineConfig::scaled_paper(kind, pf, scale);
                    assert!(cfg.validate().is_ok(), "{kind:?} {pf:?} {scale}");
                    assert!(cfg.min_free_frames >= 2);
                    assert!(cfg.min_free_frames < cfg.frames_per_node());
                }
            }
        }
    }

    #[test]
    fn window_and_dcd_defaults() {
        let w = MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Window);
        assert_eq!(w.min_free_frames, 8);
        let a = MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Adaptive);
        assert_eq!(a.min_free_frames, 8);
        assert_eq!(a.prefetch_window, 16);
        let d = MachineConfig::paper_default(MachineKind::Dcd, PrefetchMode::Naive);
        assert_eq!(d.min_free_frames, 4);
        assert!(!d.has_ring());
        assert_eq!(d.replacement, ReplacementPolicy::Lru);
    }

    #[test]
    fn default_fault_plan_is_inactive_and_valid() {
        let plan = FaultPlan::default();
        assert!(!plan.is_active());
        assert!(plan.validate().is_ok());
        let c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        assert!(!c.faults.is_active());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn fault_plan_validation_rejects_bad_params() {
        let mut c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        c.faults.disk_error_rate = 1.5;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        c.faults.mesh_drop_rate = -0.1;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        c.faults.max_retries = 0;
        assert!(c.validate().is_err());

        let mut c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        c.faults.request_timeout = 0;
        assert!(c.validate().is_err());

        // Channel index out of range.
        let mut c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        c.faults.ring_channel_failures = vec![(1000, 99)];
        assert!(c.validate().is_err());

        // Ring failures need a ring.
        let mut c = MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Naive);
        c.faults.ring_channel_failures = vec![(1000, 0)];
        assert!(c.validate().is_err());

        // A well-formed active plan passes.
        let mut c = MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive);
        c.faults.disk_error_rate = 1e-3;
        c.faults.ring_channel_failures = vec![(1000, 3)];
        assert!(c.faults.is_active());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn standard_machine_has_no_ring() {
        assert!(!MachineConfig::paper_default(MachineKind::Standard, PrefetchMode::Naive).has_ring());
        assert!(MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive).has_ring());
    }

    #[test]
    fn labels_parse_back_to_their_mode() {
        for kind in [MachineKind::Standard, MachineKind::NwCache, MachineKind::Dcd] {
            assert_eq!(MachineKind::parse(kind.label()), Ok(kind));
        }
        assert_eq!(
            MachineKind::parse("ring"),
            Err("unknown machine 'ring' (standard|nwcache|dcd)".to_string())
        );
        for mode in [
            PrefetchMode::Optimal,
            PrefetchMode::Naive,
            PrefetchMode::Window,
            PrefetchMode::Adaptive,
        ] {
            assert_eq!(PrefetchMode::parse_spec(mode.label()), Ok((mode, None)));
        }
    }

    #[test]
    fn prefetch_modes_map_to_controller_policies() {
        use nw_disk::PrefetchPolicy as P;
        assert_eq!(PrefetchMode::Optimal.disk_policy(4), P::Optimal);
        assert_eq!(PrefetchMode::Naive.disk_policy(4), P::Naive);
        assert_eq!(PrefetchMode::Window.disk_policy(4), P::Window { depth: 4 });
        assert_eq!(PrefetchMode::Adaptive.disk_policy(4), P::Demand);
    }
}
