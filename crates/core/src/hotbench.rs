//! In-tree microbenchmarks for the per-access hot path.
//!
//! The simulator's inner loop is dominated by four kernels: the
//! processor-cache probe (`Cache::access`/`fill`), the directory
//! transaction (`Directory::read`/`write`/`evict`/`purge_page`), the
//! ring snoop/drain cycle (`OpticalRing::insert`/`snoop_ready`/
//! `remove`), and — integrating all of them — a full small-application
//! run. `nwsim bench` times warm iterations of each and emits a
//! frozen-schema JSON document (`nwcache-bench-v1`, conventionally
//! written to `BENCH_hotpath.json`) so the perf trajectory of the hot
//! path is tracked across PRs alongside `BENCH_sweep.json`.
//!
//! Each kernel folds its observable outcomes into a deterministic
//! `checksum`; the checksum defeats dead-code elimination *and* pins
//! kernel behavior — it must not change when the underlying data
//! structures are swapped for faster ones.
//!
//! Workload streams are pre-generated outside the timed region from
//! the in-tree [`Pcg32`], so the timer sees only the kernel under
//! test.

use crate::config::{MachineConfig, MachineKind, PrefetchMode};
use crate::metrics::json_f64;
use crate::observe::json::{self, Value};
use nw_apps::AppId;
use nw_memhier::{Cache, CacheConfig, Directory, LookupResult, ReadOutcome, LINES_PER_PAGE};
use nw_optical::{OpticalRing, RingConfig};
use nw_sim::Pcg32;
use std::time::Instant;

/// Timing result of one benchmark kernel.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelResult {
    /// Kernel name (stable identifier in the JSON schema).
    pub name: &'static str,
    /// Timed iterations.
    pub iters: u64,
    /// Untimed warm-up iterations run first.
    pub warmup: u64,
    /// Wall-clock time for the timed iterations, nanoseconds.
    pub total_ns: u64,
    /// `total_ns / iters`.
    pub ns_per_iter: f64,
    /// Deterministic fold of kernel outcomes: defeats dead-code
    /// elimination and pins behavior across data-layout changes.
    pub checksum: u64,
    /// Simulation events dispatched per iteration, for kernels that
    /// run the event loop (the app kernel); `None` for the
    /// data-structure kernels.
    pub events: Option<u64>,
    /// `ns_per_iter` of the same kernel in a baseline report, when
    /// one was supplied (`nwsim bench --baseline`).
    pub baseline_ns_per_iter: Option<f64>,
    /// `events_per_sec` of the same kernel in a baseline report, when
    /// one was supplied and recorded it.
    pub baseline_events_per_sec: Option<f64>,
}

impl KernelResult {
    /// Speedup vs the baseline (`baseline / current`), if a baseline
    /// was attached.
    pub fn speedup(&self) -> Option<f64> {
        self.baseline_ns_per_iter
            .map(|b| b / self.ns_per_iter.max(f64::MIN_POSITIVE))
    }

    /// Simulated-event throughput: events dispatched per wall-clock
    /// second, for kernels that record an event count.
    pub fn events_per_sec(&self) -> Option<f64> {
        self.events
            .map(|e| e as f64 * 1e9 / self.ns_per_iter.max(f64::MIN_POSITIVE))
    }
}

/// A complete `nwsim bench` report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Whether the reduced `--quick` iteration counts were used.
    pub quick: bool,
    /// One result per kernel, in fixed order.
    pub kernels: Vec<KernelResult>,
}

/// Iteration counts for one kernel.
#[derive(Debug, Clone, Copy)]
struct Reps {
    warmup: u64,
    iters: u64,
}

fn reps(quick: bool, warmup: u64, iters: u64) -> Reps {
    if quick {
        Reps {
            warmup: warmup / 10,
            // Never fewer than 3 timed iterations: a single-iteration
            // "quick" timing is pure noise, and CI compares against it.
            iters: (iters / 10).max(3),
        }
    } else {
        Reps { warmup, iters }
    }
}

/// Time `iters` repetitions of `step` after `warmup` untimed ones.
/// `step` receives the running iteration index and returns a value
/// folded into the checksum.
fn time_kernel(
    name: &'static str,
    r: Reps,
    mut step: impl FnMut(u64) -> u64,
) -> KernelResult {
    let mut checksum = 0u64;
    for i in 0..r.warmup {
        checksum = checksum.wrapping_add(step(i));
    }
    // The warm-up contribution is discarded: the checksum covers
    // exactly the timed iterations so quick/full disagree only in
    // iteration count, never mid-stream.
    checksum = 0;
    let t0 = Instant::now();
    for i in 0..r.iters {
        checksum = checksum.wrapping_add(step(r.warmup + i));
    }
    let total_ns = t0.elapsed().as_nanos() as u64;
    KernelResult {
        name,
        iters: r.iters,
        warmup: r.warmup,
        total_ns,
        ns_per_iter: total_ns as f64 / r.iters as f64,
        checksum,
        events: None,
        baseline_ns_per_iter: None,
        baseline_events_per_sec: None,
    }
}

/// L1+L2 probe/fill kernel: one iteration is one memory access walked
/// through both cache levels, with fills on misses — the synchronous
/// part of `Machine::access` step 3.
fn bench_cache_probe(quick: bool) -> KernelResult {
    let r = reps(quick, 400_000, 4_000_000);
    let mut l1 = Cache::new(CacheConfig::l1_default());
    let mut l2 = Cache::new(CacheConfig::l2_default());
    // Address stream over a 1024-page footprint with page locality:
    // short sequential runs (a line neighborhood) with random jumps,
    // ~2:1 read:write — looped over by the timed iterations.
    let mut rng = Pcg32::new(0xB0A7, 17);
    let footprint_lines = 1024 * LINES_PER_PAGE;
    let mut stream: Vec<(u64, bool)> = Vec::with_capacity(65_536);
    while stream.len() < 65_536 {
        let cursor = rng.gen_range(0, footprint_lines);
        let run = 1 + rng.gen_range(0, 12);
        for k in 0..run {
            let line = (cursor + k) % footprint_lines;
            stream.push((line, rng.gen_bool(0.33)));
            if stream.len() == 65_536 {
                break;
            }
        }
    }
    time_kernel("cache_probe", r, move |i| {
        let (line, is_write) = stream[(i % stream.len() as u64) as usize];
        match l1.access(line, is_write) {
            LookupResult::Hit => 1,
            LookupResult::Miss => match l2.access(line, is_write) {
                LookupResult::Hit => {
                    l1.fill(line, is_write);
                    2
                }
                LookupResult::Miss => {
                    let mut c = 3;
                    if let Some(ev) = l2.fill(line, is_write) {
                        c += ev.line.wrapping_mul(2) + ev.dirty as u64;
                    }
                    l1.fill(line, is_write);
                    c
                }
            },
        }
    })
}

/// Directory-transaction kernel: one iteration is one coherence
/// transaction (read, write or evict) by a random node over a
/// 512-page footprint; every 4096th iteration purges a page, the way
/// page replacement does.
fn bench_directory(quick: bool) -> KernelResult {
    let r = reps(quick, 200_000, 2_000_000);
    let mut dir = Directory::new();
    let mut rng = Pcg32::new(0xD19, 23);
    let footprint_pages = 512u64;
    let footprint_lines = footprint_pages * LINES_PER_PAGE;
    // (line, node, op) stream: 55% reads, 30% writes, 15% evicts.
    let stream: Vec<(u64, u32, u8)> = (0..65_536)
        .map(|_| {
            let line = rng.gen_range(0, footprint_lines);
            let node = rng.gen_range(0, 8) as u32;
            let op = match rng.gen_range(0, 100) {
                0..=54 => 0u8,
                55..=84 => 1,
                _ => 2,
            };
            (line, node, op)
        })
        .collect();
    let mut purge_cursor = 0u64;
    time_kernel("directory_transaction", r, move |i| {
        let (line, node, op) = stream[(i % stream.len() as u64) as usize];
        let mut c = match op {
            0 => match dir.read(line, node) {
                ReadOutcome::FromMemory => 1,
                ReadOutcome::FromMemoryShared => 2,
                ReadOutcome::FromOwner { owner } => 3 + owner as u64,
            },
            1 => {
                let w = dir.write(line, node);
                w.invalidate as u64 + w.fetch_from.map_or(0, |o| 1 + o as u64)
            }
            _ => {
                dir.evict(line, node);
                dir.sharers(line) as u64
            }
        };
        if i % 4096 == 0 {
            purge_cursor = (purge_cursor + 67) % footprint_pages;
            for (l, mask) in dir.purge_page(purge_cursor) {
                c = c.wrapping_add(l ^ mask as u64);
            }
        }
        c
    })
}

/// Ring snoop/drain kernel: one iteration inserts a page on its
/// channel, snoops it (the victim-read/drain path), and removes it
/// (the slot-freeing ACK), with 15 pages left circulating per channel
/// so membership checks run against a loaded slot set.
fn bench_ring(quick: bool) -> KernelResult {
    let r = reps(quick, 200_000, 2_000_000);
    let cfg = RingConfig::paper_default();
    let channels = cfg.channels as u64;
    let mut ring = OpticalRing::new(cfg);
    // Pre-load every channel to slots-1 occupancy.
    for ch in 0..cfg.channels {
        for s in 0..cfg.slots_per_channel - 1 {
            let page = 1_000_000 + (ch * 64 + s) as u64;
            ring.insert(0, ch, page).unwrap();
        }
    }
    let mut now = 1_000u64;
    time_kernel("ring_snoop_drain", r, move |i| {
        let ch = (i % channels) as usize;
        let page = i % 4096;
        now += 37;
        let mut c = 0u64;
        if ring.insert(now, ch, page).is_ok() {
            c ^= 1;
        }
        if let Some(ready) = ring.snoop_ready(now + 11, ch, page) {
            c ^= ready;
        }
        if ring.remove(ch, page) {
            c ^= 2;
        }
        c ^= ring.contains(ch, 1_000_000 + ch as u64 * 64) as u64;
        c
    })
}

/// Full small-application kernel: one iteration is a complete
/// out-of-core `gauss` run on the NWCache machine at scale 0.5 —
/// every hot structure exercised with the real access mix. The
/// checksum folds the headline metrics, so a run that is not
/// bit-identical to the previous layout shows up as a checksum
/// change.
fn bench_app_run(quick: bool) -> KernelResult {
    let r = if quick {
        // Quick still times 3 full runs: a single-iteration timing is
        // noise, and the CI regression gate compares against it.
        Reps { warmup: 0, iters: 3 }
    } else {
        Reps { warmup: 1, iters: 3 }
    };
    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, 0.5);
    let events = std::cell::Cell::new(0u64);
    let mut kr = time_kernel("app_run", r, |_| {
        let mut machine = crate::machine::Machine::new(cfg.clone(), AppId::Gauss);
        let m = machine.run();
        // Runs are deterministic, so the per-iteration event count is
        // a constant, not an accumulation.
        events.set(machine.events_dispatched());
        m.exec_time
            .wrapping_mul(31)
            .wrapping_add(m.page_faults)
            .wrapping_add(m.swap_outs.wrapping_mul(7))
            .wrapping_add(m.ring_hits.wrapping_mul(13))
            .wrapping_add(m.mesh_messages.wrapping_mul(3))
    });
    kr.events = Some(events.get());
    kr
}

impl BenchReport {
    /// Run every hot-path kernel and collect a report. `quick` uses
    /// ~10x fewer iterations (the CI smoke configuration).
    pub fn run(quick: bool) -> BenchReport {
        BenchReport {
            quick,
            kernels: vec![
                bench_cache_probe(quick),
                bench_directory(quick),
                bench_ring(quick),
                bench_app_run(quick),
            ],
        }
    }

    /// Attach per-kernel baselines parsed from a previous report's
    /// JSON (matching kernels by name). Baselines predating the
    /// `events_per_sec` field simply leave it unset.
    pub fn attach_baseline(&mut self, baseline_json: &str) {
        let Ok(doc) = json::parse(baseline_json) else { return };
        for k in &mut self.kernels {
            let field = |f| kernel_field(&doc, k.name, f).and_then(Value::as_f64);
            k.baseline_ns_per_iter = field("ns_per_iter");
            k.baseline_events_per_sec = field("events_per_sec");
        }
    }

    /// Serialize with the frozen `nwcache-bench-v1` schema: a fixed
    /// header, then one object per kernel in run order. The optional
    /// `baseline_ns_per_iter`/`speedup` fields appear only when a
    /// baseline was attached. Hand-rolled (the workspace carries no
    /// serialization dependency); field order never varies.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.kernels.len() * 256);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"nwcache-bench-v1\",\n");
        out.push_str(&format!("  \"quick\": {},\n", self.quick));
        // Quick timings use reduced iteration counts: fine for smoke
        // gating, not for recording as the repository's perf record.
        out.push_str(&format!("  \"authoritative\": {},\n", !self.quick));
        out.push_str("  \"kernels\": [\n");
        for (i, k) in self.kernels.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"name\":\"{}\",\"iters\":{},\"warmup\":{},\"total_ns\":{},\
                 \"ns_per_iter\":{},\"checksum\":{}",
                k.name,
                k.iters,
                k.warmup,
                k.total_ns,
                json_f64(k.ns_per_iter),
                k.checksum
            ));
            if let Some(e) = k.events {
                out.push_str(&format!(
                    ",\"events\":{},\"events_per_sec\":{}",
                    e,
                    json_f64(k.events_per_sec().unwrap_or(0.0))
                ));
            }
            if let Some(b) = k.baseline_ns_per_iter {
                out.push_str(&format!(
                    ",\"baseline_ns_per_iter\":{},\"speedup\":{}",
                    json_f64(b),
                    json_f64(k.speedup().unwrap_or(0.0))
                ));
            }
            if let Some(b) = k.baseline_events_per_sec {
                out.push_str(&format!(",\"baseline_events_per_sec\":{}", json_f64(b)));
            }
            out.push('}');
            if i + 1 < self.kernels.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}");
        out
    }
}

/// The kernel names every `nwcache-bench-v1` document must contain,
/// in schema order.
pub const KERNEL_NAMES: [&str; 4] = [
    "cache_probe",
    "directory_transaction",
    "ring_snoop_drain",
    "app_run",
];

/// Validate that `json` is a well-formed `nwcache-bench-v1` document:
/// correct schema tag, every kernel present with positive iteration
/// and timing fields and an integer checksum. Extra kernels (older
/// reports carried more) are allowed. Used by the CI bench smoke job
/// (`nwsim bench-validate`) and the integration tests.
pub fn validate_bench_json(json: &str) -> Result<(), String> {
    let doc = json::parse(json).map_err(|e| format!("not a JSON document: {e}"))?;
    if doc.get("schema").and_then(Value::as_str) != Some("nwcache-bench-v1") {
        return Err("missing or wrong schema tag (want nwcache-bench-v1)".into());
    }
    if !matches!(doc.get("quick"), Some(Value::Bool(_))) {
        return Err("missing \"quick\" flag".into());
    }
    for name in KERNEL_NAMES {
        let Some(ns) = kernel_field(&doc, name, "ns_per_iter").and_then(Value::as_f64) else {
            return Err(format!("kernel \"{name}\" missing or lacks ns_per_iter"));
        };
        if ns.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(format!("kernel \"{name}\" has non-positive ns_per_iter"));
        }
        match kernel_field(&doc, name, "iters").and_then(Value::as_u64) {
            Some(it) if it > 0 => {}
            _ => return Err(format!("kernel \"{name}\" has no positive iters")),
        }
        if kernel_field(&doc, name, "checksum").and_then(Value::as_u64).is_none() {
            return Err(format!("kernel \"{name}\" has no checksum"));
        }
    }
    Ok(())
}

/// Whether a bench JSON document may serve as a regression-gate
/// baseline. `--quick` reports record `"authoritative": false` —
/// their reduced iteration counts are timing noise, and gating
/// against noise produces phantom regressions (and phantom passes).
/// Documents predating the field count as authoritative.
pub fn baseline_is_authoritative(json: &str) -> bool {
    let doc = json::parse(json).ok();
    !matches!(doc.as_ref().and_then(|d| d.get("authoritative")), Some(Value::Bool(false)))
}

/// Field `field` of the kernel object named `name` in a parsed bench
/// document.
fn kernel_field<'a>(doc: &'a Value, name: &str, field: &str) -> Option<&'a Value> {
    doc.get("kernels")?
        .as_array()?
        .iter()
        .find(|k| k.get("name").and_then(Value::as_str) == Some(name))?
        .get(field)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> BenchReport {
        // Hand-built report: unit tests must not run the real kernels.
        BenchReport {
            quick: true,
            kernels: KERNEL_NAMES
                .iter()
                .enumerate()
                .map(|(i, &name)| KernelResult {
                    name,
                    iters: 100 + i as u64,
                    warmup: 10,
                    total_ns: 5_000,
                    ns_per_iter: 5_000.0 / (100 + i as u64) as f64,
                    checksum: 42 + i as u64,
                    events: if i >= 3 { Some(10_000 + i as u64) } else { None },
                    baseline_ns_per_iter: None,
                    baseline_events_per_sec: None,
                })
                .collect(),
        }
    }

    #[test]
    fn report_json_validates() {
        let json = tiny_report().to_json();
        assert!(validate_bench_json(&json).is_ok(), "{json}");
        // Older reports recorded kernels since retired; they stay
        // valid documents and usable baselines.
        let older = json.replace(
            "\n  ]\n}",
            ",\n    {\"name\":\"retired_kernel\",\"iters\":5,\"warmup\":1,\
             \"total_ns\":10,\"ns_per_iter\":2,\"checksum\":6111286100}\n  ]\n}",
        );
        assert!(older.contains("retired_kernel"), "{older}");
        assert!(validate_bench_json(&older).is_ok(), "{older}");
        let mut r = tiny_report();
        r.attach_baseline(&older);
        assert!(r.kernels.iter().all(|k| k.baseline_ns_per_iter.is_some()));
    }

    #[test]
    fn baseline_attach_and_speedup() {
        let mut r = tiny_report();
        let baseline = r.to_json();
        r.attach_baseline(&baseline);
        for k in &r.kernels {
            let s = k.speedup().expect("baseline attached");
            assert!((s - 1.0).abs() < 1e-9, "{}: {s}", k.name);
        }
        // Speedup fields survive a serialization round trip.
        let json = r.to_json();
        assert!(json.contains("\"speedup\":1"), "{json}");
        assert!(validate_bench_json(&json).is_ok());
    }

    #[test]
    fn validation_rejects_broken_documents() {
        assert!(validate_bench_json("{}").is_err());
        let r = tiny_report();
        let json = r.to_json();
        let wrong_schema = json.replace("nwcache-bench-v1", "nwcache-bench-v0");
        assert!(validate_bench_json(&wrong_schema).is_err());
        let missing_kernel = json.replace("app_run", "app_walk");
        assert!(validate_bench_json(&missing_kernel).is_err());
        // Checksums are exact integers, not any number.
        let fractional = json.replace("\"checksum\":45", "\"checksum\":45.5");
        assert!(validate_bench_json(&fractional).unwrap_err().contains("checksum"));
    }

    #[test]
    fn quick_baselines_are_not_authoritative() {
        // tiny_report is quick, so its document says so.
        let quick = tiny_report().to_json();
        assert!(!baseline_is_authoritative(&quick), "{quick}");
        let full = quick.replace("\"authoritative\": false", "\"authoritative\": true");
        assert!(baseline_is_authoritative(&full));
        // Documents predating the field gate as before.
        assert!(baseline_is_authoritative("{\"schema\": \"nwcache-bench-v1\"}"));
    }

    #[test]
    fn events_fields_round_trip() {
        let mut r = tiny_report();
        let baseline = r.to_json();
        assert!(baseline.contains("\"events\":10003"), "{baseline}");
        assert!(baseline.contains("\"events_per_sec\":"), "{baseline}");
        assert!(baseline.contains("\"authoritative\": false"), "{baseline}");
        r.attach_baseline(&baseline);
        let k = &r.kernels[3];
        let b = k.baseline_events_per_sec.expect("events baseline attached");
        let cur = k.events_per_sec().expect("kernel records events");
        assert!((b / cur - 1.0).abs() < 1e-6, "{b} vs {cur}");
        assert!(r.to_json().contains("\"baseline_events_per_sec\":"));
        // Kernels without events never grow the optional fields.
        assert!(r.kernels[0].events_per_sec().is_none());
    }

    #[test]
    fn extractor_reads_numeric_fields() {
        let doc = json::parse(&tiny_report().to_json()).unwrap();
        let int = |name, f| kernel_field(&doc, name, f).and_then(Value::as_u64);
        assert_eq!(int("cache_probe", "iters"), Some(100));
        assert_eq!(int("app_run", "checksum"), Some(45));
        assert!(kernel_field(&doc, "no_such_kernel", "ns_per_iter").is_none());

        // A pretty-printed report, one field per line, with a checksum
        // an f64 cannot hold exactly (2^53 + 1).
        let pretty = r#"{
  "schema": "nwcache-bench-v1",
  "quick": false,
  "kernels": [
    {
      "name": "app_run",
      "iters": 3,
      "ns_per_iter": 250.5,
      "checksum": 9007199254740993
    }
  ]
}"#;
        let doc = json::parse(pretty).unwrap();
        let app = |f| kernel_field(&doc, "app_run", f);
        assert_eq!(app("iters").and_then(Value::as_u64), Some(3));
        assert_eq!(app("checksum").and_then(Value::as_u64), Some(9_007_199_254_740_993));
        assert_eq!(app("ns_per_iter").and_then(Value::as_f64), Some(250.5));
        let mut r = tiny_report();
        r.attach_baseline(pretty);
        assert_eq!(r.kernels[3].baseline_ns_per_iter, Some(250.5));
        assert!(baseline_is_authoritative(pretty));
    }
}
