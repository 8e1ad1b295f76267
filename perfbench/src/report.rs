//! Metric names, statistics, provenance and the result line.

/// End-to-end metrics `(name, unit)`, reported by untraced runs of
/// every workload. Host time unless stated.
pub const END_TO_END: &[(&str, &str)] = &[
    ("wall_s", "s"),
    ("sim_refs_per_s", "1/s"),
    ("sim_pcycles_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
];

/// Per-layer metrics `(name, unit)`, reported by traced runs of every
/// workload. `*.share` is the layer's share of the traced pass's
/// worker time; counts are exact.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("base.refs", "count"),
    ("base.exec_pcycles", "count"),
    ("base.events", "count"),
    ("machine.run_s", "s"),
    ("machine.events", "count"),
    ("machine.ns_per_event", "ns"),
    ("machine.events_per_kref", "1/kref"),
    ("machine.run_share", "ratio"),
    ("machine.new_s", "s"),
    ("machine.new_share", "ratio"),
    ("apps.ns_per_action", "ns"),
    ("apps.actions", "count"),
    ("apps.share", "ratio"),
    ("workload.build_s", "s"),
    ("workload.build_share", "ratio"),
    ("memhier.cache_ns_per_ref", "ns"),
    ("memhier.tlb_ns_per_ref", "ns"),
    ("memhier.replay_refs", "count"),
    ("memhier.dir_ns_per_txn", "ns"),
    ("memhier.dir_txns", "count"),
    ("memhier.l2_miss_ratio", "ratio"),
    ("memhier.share", "ratio"),
    ("sim.queue_ns_per_op", "ns"),
    ("sim.queue_ops", "count"),
    ("sim.share", "ratio"),
    ("pool.cell_p50_s", "s"),
    ("pool.cell_max_s", "s"),
    ("pool.efficiency", "ratio"),
    ("pool.cells", "count"),
    ("mesh.ns_per_send", "ns"),
    ("mesh.sends", "count"),
    ("mesh.messages", "count"),
    ("mesh.share", "ratio"),
    ("disk.ns_per_op", "ns"),
    ("disk.ops", "count"),
    ("vm.page_faults", "count"),
    ("disk.swap_outs", "count"),
    ("disk.swap_nacks", "count"),
    ("disk.share", "ratio"),
    ("optical.ns_per_swap", "ns"),
    ("optical.swaps", "count"),
    ("optical.ring_hits", "count"),
    ("optical.share", "ratio"),
    ("ckpt.save_s", "s"),
    ("ckpt.restore_s", "s"),
    ("ckpt.bytes", "bytes"),
    ("ckpt.count", "count"),
    ("ckpt.share", "ratio"),
    ("server.overhead_s", "s"),
    ("server.warm_hit_ratio", "ratio"),
    ("server.jobs", "count"),
    ("server.share", "ratio"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
];

/// Unit of a declared metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// Median of `xs` (mean of the middle two for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Smallest of `xs`; 0 when empty.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// Nearest-rank percentile `p` in `(0, 1]` of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (p * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where a result came from: enough to tell a different host from a
/// regression.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// Host name and CPU model.
    pub host: String,
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Git commit of the checkout, or `unknown` outside a git tree.
    pub commit: String,
    /// Benchmark seed.
    pub seed: u64,
    /// Simulation threads each machine runs with (program default).
    pub sim_threads: usize,
    /// Sweep workers of the workload's batch passes.
    pub sweep_workers: usize,
}

impl Provenance {
    /// Collect provenance for a run with `seed` on `sweep_workers`.
    pub fn collect(seed: u64, sweep_workers: usize) -> Provenance {
        let hostname = std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown-host".into());
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_string())
            })
            .unwrap_or_else(|| "unknown-cpu".into());
        Provenance {
            host: format!("{hostname} ({cpu})"),
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            commit: git_commit().unwrap_or_else(|| "unknown".into()),
            seed,
            sim_threads: nwcache::machine::default_sim_threads(),
            sweep_workers,
        }
    }

    /// One JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"host\":{},\"available_parallelism\":{},\"commit\":{},\"seed\":{},\
             \"sim_threads\":{},\"sweep_workers\":{}}}",
            json_str(&self.host),
            self.cores,
            json_str(&self.commit),
            self.seed,
            self.sim_threads,
            self.sweep_workers
        )
    }
}

/// The commit `.git/HEAD` names, read without running git so nothing
/// outside the working directory is consulted.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => {
            let loose = std::fs::read_to_string(format!(".git/{r}")).ok();
            let packed = || {
                std::fs::read_to_string(".git/packed-refs")
                    .ok()
                    .and_then(|p| {
                        p.lines()
                            .find(|l| l.ends_with(r))
                            .and_then(|l| l.split(' ').next())
                            .map(str::to_string)
                    })
            };
            loose.map(|s| s.trim().to_string()).or_else(packed)
        }
        None => Some(head.to_string()),
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (never expected) become 0.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

/// The `{"name": {"value": v, "unit": u}, ...}` object.
pub fn metrics_json(metrics: &[(&'static str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json_str(name),
                json_num(v),
                json_str(unit_of(name).unwrap_or(""))
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}
