//! # nw-workload — workloads as data
//!
//! The paper evaluates NWCache on the seven fixed kernels of Table 2
//! (plus the dial-controlled `synth` app). This crate opens the
//! workload space: access streams become *data* that can be described,
//! generated, recorded, and replayed, instead of code that must be
//! written per application. Three pillars:
//!
//! * **[`Scenario`]** — a stochastic scenario generator: per-node
//!   phased access programs with Zipf / uniform / sequential
//!   page-popularity mixes, a configurable read/write ratio, working-
//!   set size, compute density, burst/idle arrival phases, and barrier
//!   structure. Generation is seeded from the in-tree
//!   [`nw_sim::Pcg32`], so a scenario is deterministic and sweepable
//!   like any other configuration axis.
//! * **[`Trace`]** — the `nwtrace-v1` format: a versioned, compact,
//!   per-processor ordered record stream of read / write / compute /
//!   barrier actions with line addressing (a line index encodes
//!   `page * 64 + line-in-page`), with text and length-prefixed binary
//!   encodings implemented in-tree (no external deps). A recorder
//!   captures any existing app through the [`nw_apps::AppBuild`] /
//!   [`nw_apps::Action`] layer.
//! * **replay** — [`Trace::replay`] presents a recorded or generated
//!   trace as a normal app to the simulator, streaming it a block at a
//!   time from a shared [`std::sync::Arc`], so traces flow through
//!   sweeps, fault plans, observability tracing, and the `reproduce`
//!   harness unchanged.
//!
//! ```
//! use nw_workload::{Scenario, Trace};
//! use std::sync::Arc;
//!
//! // Parse a two-phase scenario: a zipf-skewed read-mostly phase,
//! // then a sequential write-heavy flush phase.
//! let sc = Scenario::parse("zipf:0.9,ws=64,acc=500,wf=0.1;seq,ws=64,acc=200,wf=0.9").unwrap();
//! sc.validate().unwrap();
//!
//! // Materialize it for 4 processors, round-trip through both
//! // encodings, and get back a bit-identical action stream.
//! let trace = sc.to_trace(4, 42);
//! let text = trace.encode_text();
//! let bin = trace.encode_binary();
//! assert_eq!(Trace::decode(text.as_bytes()).unwrap(), trace);
//! assert_eq!(Trace::decode(&bin).unwrap(), trace);
//! let app = Arc::new(trace).replay();
//! assert_eq!(app.streams.len(), 4);
//! ```

pub mod scenario;
pub mod trace;

pub use scenario::{Pattern, Phase, Scenario};
pub use trace::Trace;
