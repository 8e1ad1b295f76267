//! # nwcache — the NWCache machine model and experiment harness
//!
//! Reproduction of *"NWCache: Optimizing Disk Accesses via an Optical
//! Network/Write Cache Hybrid"* (Carrera & Bianchini, IPPS 1999).
//!
//! This crate assembles the substrate crates into the paper's 8-node
//! scalable cache-coherent multiprocessor and implements the operating
//! system's virtual memory management — the one part of the OS the
//! paper simulates:
//!
//! * a machine-wide page table with per-page `Ring` bits,
//! * per-node frame pools with LRU replacement and a minimum-free-
//!   frames policy,
//! * TLB shootdown on access-rights downgrades,
//! * the standard swap-out protocol (ACK/NACK/OK against the disk
//!   controller cache) and the NWCache swap-out protocol (cache
//!   channel insertion, interface FIFOs, drains and ACKs),
//! * victim reads that re-map faulted pages straight off the ring.
//!
//! ## Quick start
//!
//! ```
//! use nwcache::{MachineConfig, MachineKind, PrefetchMode, run_app};
//! use nw_apps::AppId;
//!
//! // Small-scale SOR on the standard machine vs the NWCache machine.
//! // `scaled_paper` shrinks the application AND the machine together
//! // so the run stays out-of-core.
//! let std_cfg = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Naive, 0.05);
//! let std_run = run_app(&std_cfg, AppId::Sor);
//!
//! let nwc_cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, 0.05);
//! let nwc_run = run_app(&nwc_cfg, AppId::Sor);
//!
//! // The NWCache swap-outs complete much faster on average.
//! assert!(std_run.swap_outs > 0);
//! assert!(nwc_run.swap_out_time.mean() < std_run.swap_out_time.mean());
//! ```
//!
//! The [`experiments`] module regenerates every table and figure of
//! the paper's evaluation section; the `reproduce` binary in
//! `nw-bench` prints them.

pub mod checkpoint;
pub mod config;
pub mod error;
pub mod experiments;
pub mod machine;
pub mod metrics;
pub mod observe;
pub mod prefetch;
pub mod report;
pub mod sweep;
pub mod topo;
pub mod vm;
pub mod workload;

pub use checkpoint::CkptMeta;
pub use config::{FaultPlan, MachineConfig, MachineKind, PrefetchMode, RunParams};
pub use error::{ExitCode, SimError};
pub use machine::{Machine, RunOutcome};
pub use metrics::{RunMetrics, RunSummary};
pub use sweep::{SweepReport, SweepRow};
pub use topo::TopoSpec;
pub use workload::{try_run_sel, AppSel};

/// Run application `app` to completion on a machine built from `cfg`
/// and return the collected metrics.
///
/// # Panics
/// Panics on an invalid config or an internal simulation error; use
/// [`try_run_app`] for a fallible variant.
pub fn run_app(cfg: &MachineConfig, app: nw_apps::AppId) -> RunMetrics {
    let mut m = Machine::new(cfg.clone(), app);
    m.run()
}

/// Fallible variant of [`run_app`]: a bad configuration, a protocol
/// inconsistency, or an injected fault that exhausted its retries is
/// reported as a [`SimError`] instead of aborting.
pub fn try_run_app(cfg: &MachineConfig, app: nw_apps::AppId) -> Result<RunMetrics, SimError> {
    let mut m = Machine::try_new(cfg.clone(), app)?;
    m.try_run()
}
