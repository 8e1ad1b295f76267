//! `reproduce` — regenerate every table and figure of the paper.
//!
//! ```text
//! reproduce [--scale S] [--jobs N]
//!           [table3|table4|table5|table6|table7|
//!            table8|fig3|fig4|overall|minfree|diskcache|window|prefetch|
//!            ablations|dcd|scaling|scale|reuse|zipf|ionodes|faults|all]
//!           [--json out.json] [--scale-json out.json]
//! ```
//!
//! `--scale 1.0` (the default) uses the paper's Table 2 inputs; smaller
//! scales shrink both the applications and the machine proportionally
//! (useful for a quick pass).
//!
//! An unknown flag or target word exits 2 (`ExitCode::Validation`)
//! and lists the valid targets.
//!
//! `--jobs N` fans independent runs out over N worker threads (`0` =
//! one per core, the default). Results are bit-identical at any job
//! count; each simulation itself runs on one serial event loop.
//! `--json out.json` runs the full paper matrix and writes a
//! stable-schema `SweepReport` (`nwcache-sweep-v1`) — the format the
//! `BENCH_*.json` perf trajectories are recorded in. With `--json` and
//! no explicit targets, only the export runs.
//!
//! `scale` runs the generated-topology weak-/strong-scaling study
//! (8 → 64 → 256 nodes, standard vs NWCache); `--scale-json out.json`
//! additionally exports it as the frozen `nwcache-scale-v1` table.
//! The export carries no wall-clock or worker-count fields, so two
//! exports at different `--jobs` settings are byte-identical (the CI
//! scale-smoke job `cmp`s them).
//!
//! `--trace-cell app:machine:prefetch` re-runs one cell of the paper
//! matrix with the observer attached and writes a Perfetto-loadable
//! Chrome trace (`--trace-out`, default `trace-cell.json`) — the way
//! to look *inside* any table entry, e.g. both equilibria of a
//! deviation: `--trace-cell sor:nwcache:naive`. The app position
//! accepts any workload spec, including `workload:<trace-file>` and
//! `workload:gen:<spec>` (the machine and prefetch labels are always
//! the last two `:`-separated tokens).

use nw_sim::atomic_write::write_atomic;
use nwcache::config::{MachineKind, PrefetchMode};
use nwcache::experiments as exp;
use nwcache::report;
use nwcache::AppSel;
use nw_apps::AppId;

/// Every target word `reproduce` accepts. `all` selects each of them
/// except `faults`, which perturbs runs and must be named.
const TARGETS: [&str; 22] = [
    "table3", "table4", "table5", "table6", "table7", "table8", "fig3", "fig4", "overall",
    "minfree", "diskcache", "window", "prefetch", "ablations", "dcd", "scaling", "scale",
    "reuse", "zipf", "ionodes", "faults", "all",
];

/// Usage errors: print the reason and exit 2.
fn die(msg: &str) -> ! {
    eprintln!("reproduce: {msg}");
    std::process::exit(nwcache::ExitCode::Validation.code())
}

/// An unknown flag or target: name it and list the valid targets.
fn unknown(what: &str, word: &str) -> ! {
    die(&format!("unknown {what} '{word}' (valid targets: {})", TARGETS.join(" ")))
}

/// The value following `flag`.
fn value(it: &mut impl Iterator<Item = String>, flag: &str) -> String {
    it.next().unwrap_or_else(|| die(&format!("{flag} needs a value")))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = 1.0f64;
    let mut json_path: Option<String> = None;
    let mut scale_json_path: Option<String> = None;
    let mut trace_cell: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut targets: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--scale" => {
                scale = value(&mut it, "--scale")
                    .parse()
                    .unwrap_or_else(|_| die("--scale needs a number in (0, 1]"));
            }
            "--json" => json_path = Some(value(&mut it, "--json")),
            "--scale-json" => scale_json_path = Some(value(&mut it, "--scale-json")),
            "--trace-cell" => trace_cell = Some(value(&mut it, "--trace-cell")),
            "--trace-out" => trace_out = Some(value(&mut it, "--trace-out")),
            "--jobs" => {
                let n: usize = value(&mut it, "--jobs").parse().unwrap_or_else(|_| {
                    die("--jobs needs a non-negative integer (0 = one per core)")
                });
                nwcache::sweep::set_jobs(n);
            }
            "--sim-threads" => die(
                "--sim-threads was removed: each simulation runs on one serial event \
                 loop; use --jobs N to run independent simulations in parallel",
            ),
            "--faults" => targets.push("faults".into()),
            other if other.starts_with("--") => unknown("flag", other),
            other if TARGETS.contains(&other) => targets.push(other.to_string()),
            other => unknown("target", other),
        }
    }
    // `--json`/`--scale-json`/`--trace-cell` with no explicit targets
    // run only the export / trace; otherwise no targets means
    // everything.
    if targets.is_empty()
        && json_path.is_none()
        && scale_json_path.is_none()
        && trace_cell.is_none()
    {
        targets.push("all".into());
    }
    if let Some(cell) = &trace_cell {
        // Split from the right so the app position can itself contain
        // ':' (workload:gen:<spec> and trace paths with colons).
        let mut parts = cell.rsplitn(3, ':');
        let (Some(prefetch), Some(machine), Some(app)) =
            (parts.next(), parts.next(), parts.next())
        else {
            panic!("--trace-cell wants app:machine:prefetch, got '{cell}'");
        };
        let sel = AppSel::parse(app)
            .unwrap_or_else(|e| panic!("--trace-cell: {e}"));
        let kind = match machine {
            "standard" | "std" => MachineKind::Standard,
            "nwcache" | "nwc" => MachineKind::NwCache,
            "dcd" => MachineKind::Dcd,
            other => panic!("--trace-cell: unknown machine '{other}'"),
        };
        let mode = match prefetch {
            "optimal" | "opt" => PrefetchMode::Optimal,
            "naive" => PrefetchMode::Naive,
            "window" | "win" => PrefetchMode::Window,
            "adaptive" => PrefetchMode::Adaptive,
            other => panic!("--trace-cell: unknown prefetch '{other}'"),
        };
        let cfg = nwcache::MachineConfig::scaled_paper(kind, mode, scale);
        let build = sel
            .build(&cfg)
            .unwrap_or_else(|e| panic!("--trace-cell: cannot build workload: {e}"));
        let mut m = nwcache::Machine::try_from_build(cfg, build)
            .unwrap_or_else(|e| panic!("--trace-cell: {e}"));
        m.enable_observer(nwcache::observe::ObserveConfig::default());
        let metrics = m.run();
        let data = m.take_observation().expect("observer was enabled");
        let path = trace_out.as_deref().unwrap_or("trace-cell.json");
        if let Err(e) = write_atomic(std::path::Path::new(path), data.to_chrome_json().as_bytes()) {
            eprintln!("reproduce: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!(
            "traced {cell}: exec {} pcycles, {} events retained ({} dropped) -> {path}",
            metrics.exec_time,
            data.events.len(),
            data.dropped
        );
    }
    let all = targets.iter().any(|t| t == "all");
    // The fault grid perturbs runs, so it never rides along with
    // `all` — ask for it explicitly (`faults` or `--faults`).
    let want_faults = targets.iter().any(|t| t == "faults");
    let want = |t: &str| {
        assert!(TARGETS.contains(&t), "'{t}' is missing from TARGETS");
        t != "faults" && (all || targets.iter().any(|x| x == t))
    };

    if want("table3") {
        let rows = exp::table_swap_out(PrefetchMode::Optimal, scale);
        println!(
            "{}",
            report::render_paired(
                "Table 3. Average swap-out times (Mpcycles) under OPTIMAL prefetching",
                "",
                &rows,
                1e6
            )
        );
    }
    if want("table4") {
        let rows = exp::table_swap_out(PrefetchMode::Naive, scale);
        println!(
            "{}",
            report::render_paired(
                "Table 4. Average swap-out times (Kpcycles) under NAIVE prefetching",
                "",
                &rows,
                1e3
            )
        );
    }
    if want("table5") {
        let rows = exp::table_combining(PrefetchMode::Optimal, scale);
        println!(
            "{}",
            report::render_paired(
                "Table 5. Average write combining under OPTIMAL prefetching",
                "",
                &rows,
                1.0
            )
        );
    }
    if want("table6") {
        let rows = exp::table_combining(PrefetchMode::Naive, scale);
        println!(
            "{}",
            report::render_paired(
                "Table 6. Average write combining under NAIVE prefetching",
                "",
                &rows,
                1.0
            )
        );
    }
    if want("table7") {
        let rows = exp::table_hit_rates(scale);
        println!("{}", report::render_hit_rates(&rows));
    }
    if want("table8") {
        let rows = exp::table_disk_hit_latency(scale);
        println!(
            "{}",
            report::render_paired(
                "Table 8. Average page-fault latency (Kpcycles) for disk cache hits, NAIVE prefetching",
                "",
                &rows,
                1e3
            )
        );
    }
    if want("fig3") {
        let bars = exp::figure_breakdown(PrefetchMode::Optimal, scale);
        println!(
            "{}",
            report::render_breakdown(
                "Figure 3. Normalized execution time breakdown, OPTIMAL prefetching (standard bar = 1.0)",
                &bars
            )
        );
        println!("{}", report::render_breakdown_bars("Figure 3 (bars)", &bars, 60));
    }
    if want("fig4") {
        let bars = exp::figure_breakdown(PrefetchMode::Naive, scale);
        println!(
            "{}",
            report::render_breakdown(
                "Figure 4. Normalized execution time breakdown, NAIVE prefetching (standard bar = 1.0)",
                &bars
            )
        );
        println!("{}", report::render_breakdown_bars("Figure 4 (bars)", &bars, 60));
    }
    if want("overall") {
        for (mode, label) in [
            (PrefetchMode::Optimal, "OPTIMAL"),
            (PrefetchMode::Naive, "NAIVE"),
        ] {
            println!("Overall NWCache improvement (%) under {label} prefetching");
            for (app, imp) in exp::overall_improvement(mode, scale) {
                println!("{app:<10} {imp:>7.1}%");
            }
            println!();
        }
    }
    if want("minfree") {
        for (kind, label) in [
            (MachineKind::Standard, "standard"),
            (MachineKind::NwCache, "nwcache"),
        ] {
            for (mode, mlabel) in [
                (PrefetchMode::Optimal, "optimal"),
                (PrefetchMode::Naive, "naive"),
            ] {
                let rows =
                    exp::minfree_sweep(AppId::Sor, kind, mode, &[2, 4, 8, 12, 16], scale);
                println!(
                    "{}",
                    report::render_sweep(
                        &format!("Min-free-frames sweep (sor, {label}, {mlabel})"),
                        "min_free",
                        &rows
                    )
                );
            }
        }
    }
    if want("window") {
        // Extension: the paper expects realistic prefetching to land
        // between the naive and optimal extremes.
        println!("Windowed (realistic) prefetching — NWCache improvement (%)");
        println!("{:<10} {:>8} {:>8} {:>8}", "app", "naive", "window", "optimal");
        let naive = exp::overall_improvement(PrefetchMode::Naive, scale);
        let window = exp::overall_improvement(PrefetchMode::Window, scale);
        let optimal = exp::overall_improvement(PrefetchMode::Optimal, scale);
        for ((n, w), o) in naive.iter().zip(&window).zip(&optimal) {
            println!("{:<10} {:>7.1}% {:>7.1}% {:>7.1}%", n.0, n.1, w.1, o.1);
        }
        println!();
    }
    if want("prefetch") {
        // Extension: the adaptive policy learns the access pattern
        // from the demand-miss stream alone; on the pure-sequential
        // cell it must land close to the optimal (oracle) extreme.
        println!("Prefetch-policy head-to-head (nwcache, pure-sequential scenario)");
        println!(
            "{:<10} {:>16} {:>10} {:>8} {:>9} {:>6} {:>7} {:>9}",
            "policy", "exec (pcycles)", "disk hits", "issued", "spec hit", "late", "wasted", "canceled"
        );
        let rows = exp::prefetch_policy_sweep(scale);
        for r in &rows {
            println!(
                "{:<10} {:>16} {:>9.1}% {:>8} {:>9} {:>6} {:>7} {:>9}",
                r.policy,
                r.exec_time,
                r.disk_hit_rate,
                r.spec_issued,
                r.spec_hits,
                r.spec_late,
                r.spec_wasted,
                r.spec_canceled
            );
        }
        if let (Some(opt), Some(naive), Some(ad)) = (
            rows.iter().find(|r| r.policy == "optimal"),
            rows.iter().find(|r| r.policy == "naive"),
            rows.iter().find(|r| r.policy == "adaptive"),
        ) {
            let gap = naive.exec_time.saturating_sub(opt.exec_time);
            if gap > 0 {
                let closed =
                    100.0 * naive.exec_time.saturating_sub(ad.exec_time) as f64 / gap as f64;
                println!("adaptive closes {closed:.1}% of the optimal-vs-naive gap");
            }
        }
        println!();
    }
    if want("ionodes") {
        println!("I/O-node sensitivity (sor, naive prefetching)");
        println!("{:<10} {:>14} {:>14}", "io nodes", "standard", "nwcache");
        for (n, s, w) in exp::ionode_sweep(AppId::Sor, PrefetchMode::Naive, &[1, 2, 4, 8], scale) {
            println!("{n:<10} {s:>14} {w:>14}");
        }
        println!();
    }
    if want("reuse") {
        // Extension: hit rate vs working-set overflow of memory+ring.
        println!("Victim-cache capacity probe (synthetic sweep workload)");
        println!(
            "{:<14} {:>18} {:>10}",
            "data (MB)", "data/(mem+ring)", "hit rate"
        );
        let mb = 1024 * 1024;
        for (bytes, ratio, hr) in exp::reuse_distance_sweep(
            &[mb, 2 * mb, 5 * mb / 2, 3 * mb, 4 * mb, 6 * mb],
            PrefetchMode::Naive,
        ) {
            println!(
                "{:<14.2} {:>18.2} {:>9.1}%",
                bytes as f64 / mb as f64,
                ratio,
                hr
            );
        }
        println!();
    }
    if want("zipf") {
        // Extension: victim-cache hit rate vs access skew of a
        // generated workload (see EXPERIMENTS.md for the recipe).
        println!("Zipf-skew sensitivity (generated workload, nwcache, naive prefetching)");
        println!("{:<8} {:>10} {:>16}", "skew", "hit rate", "exec (pcycles)");
        for (skew, hr, t) in
            exp::zipf_skew_sweep(&[0.0, 0.4, 0.8, 1.0, 1.2, 1.5], PrefetchMode::Naive)
        {
            println!("{skew:<8.1} {hr:>9.1}% {t:>16}");
        }
        println!();
    }
    if want("scaling") {
        println!("Machine-size scaling (sor, naive prefetching)");
        println!("{:<8} {:>14} {:>14} {:>12}", "nodes", "standard", "nwcache", "improvement");
        for (n, s, w) in exp::scaling_sweep(AppId::Sor, PrefetchMode::Naive, &[2, 4, 8, 16], scale) {
            let imp = 100.0 * (s as f64 - w as f64) / s as f64;
            println!("{n:<8} {s:>14} {w:>14} {imp:>11.1}%");
        }
        println!();
    }
    let want_scale = want("scale") || scale_json_path.is_some();
    if want_scale {
        // ROADMAP item 1: does the 8-node win survive 64 and 256
        // nodes? Weak scaling fixes per-processor work; strong
        // scaling splits one fixed problem across the machine.
        let rows = exp::scale_study(&exp::SCALE_TOPOS, scale).unwrap_or_else(|e| {
            eprintln!("reproduce: scale study: {e}");
            std::process::exit(2);
        });
        println!("Weak-/strong-scaling study (generated zipf workload, naive prefetching)");
        println!(
            "{:<44} {:>6} {:<7} {:>14} {:>14} {:>12}",
            "topology", "nodes", "mode", "standard", "nwcache", "improvement"
        );
        for pair in rows.chunks(2) {
            let [st, nw] = pair else { continue };
            let fmt = |r: &Result<nwcache::RunSummary, String>| match r {
                Ok(s) => s.exec_time.to_string(),
                Err(e) => format!("error: {e}"),
            };
            let imp = match (&st.result, &nw.result) {
                (Ok(s), Ok(w)) if s.exec_time > 0 => format!(
                    "{:.1}%",
                    100.0 * (s.exec_time as f64 - w.exec_time as f64) / s.exec_time as f64
                ),
                _ => "-".to_string(),
            };
            println!(
                "{:<44} {:>6} {:<7} {:>14} {:>14} {:>12}",
                st.topo,
                st.nodes,
                st.mode,
                fmt(&st.result),
                fmt(&nw.result),
                imp
            );
        }
        println!();
        if let Some(path) = &scale_json_path {
            let doc = exp::scale_report_json(scale, &rows);
            if let Err(e) = write_atomic(std::path::Path::new(path), doc.as_bytes()) {
                eprintln!("reproduce: cannot write {path}: {e}");
                std::process::exit(2);
            }
            println!("wrote {} scale rows to {path}", rows.len());
        }
    }
    if want("dcd") {
        // Related-work baseline: the Disk Caching Disk stages writes
        // on a log disk; the NWCache stages them on the ring.
        println!("DCD baseline comparison (exec pcycles, naive prefetching)");
        println!(
            "{:<10} {:>14} {:>14} {:>14}",
            "app", "standard", "dcd", "nwcache"
        );
        for (app, std_t, dcd_t, nwc_t) in exp::dcd_comparison(PrefetchMode::Naive, scale) {
            println!("{app:<10} {std_t:>14} {dcd_t:>14} {nwc_t:>14}");
        }
        println!();
    }
    if want("ablations") {
        let rows = exp::ablation_flush_delay(
            AppId::Sor,
            MachineKind::NwCache,
            PrefetchMode::Optimal,
            &[0, 10_000, 50_000, 200_000, 1_000_000],
            scale,
        );
        println!("Ablation: flush accumulation window (sor, nwcache, optimal)");
        println!("{:<12} {:>10} {:>16}", "delay (pc)", "combining", "exec (pcycles)");
        for (d, comb, t) in rows {
            println!("{d:<12} {comb:>10.2} {t:>16}");
        }
        println!();
        let rows = exp::ablation_ring_geometry(
            AppId::Gauss,
            PrefetchMode::Naive,
            &[13, 26, 52, 104, 208],
            scale,
        );
        println!("Ablation: page-replacement policy (sor, standard, naive)");
        println!("{:<8} {:>16} {:>10}", "policy", "exec (pcycles)", "swaps");
        for (name, t, sw) in exp::replacement_comparison(
            AppId::Sor,
            MachineKind::Standard,
            PrefetchMode::Naive,
            scale,
        ) {
            println!("{name:<8} {t:>16} {sw:>10}");
        }
        println!();
        println!("Ablation: ring fiber length (gauss, nwcache, naive)");
        println!(
            "{:<14} {:>8} {:>10} {:>16}",
            "round-trip us", "slots", "hit rate", "exec (pcycles)"
        );
        for (us, slots, hr, t) in rows {
            println!("{us:<14} {slots:>8} {hr:>9.1}% {t:>16}");
        }
        println!();
    }
    if want_faults {
        let rows = exp::fault_tolerance(
            AppId::Sor,
            scale,
            &[0.0, 1e-5, 1e-4, 1e-3],
            &[0, 1, 2],
        );
        println!(
            "{}",
            report::render_fault_table(
                "Fault injection: execution time vs disk error rate and dead ring channels (sor, naive prefetching)",
                &rows
            )
        );
    }
    if let Some(path) = &json_path {
        // Run the full paper matrix through the parallel sweep engine
        // and export it as a stable-schema SweepReport.
        let report = nwcache::SweepReport::paper(scale, nwcache::sweep::jobs());
        if let Err(e) = write_atomic(std::path::Path::new(path), report.to_json().as_bytes()) {
            eprintln!("reproduce: cannot write {path}: {e}");
            std::process::exit(2);
        }
        println!(
            "wrote {} runs ({} errors) to {path} — jobs={} wall={}ms",
            report.rows.len(),
            report.errors(),
            report.jobs,
            report.wall_ms
        );
    }
    if want("diskcache") {
        let (rows, nwc) =
            exp::diskcache_sweep(AppId::Sor, PrefetchMode::Optimal, &[4, 8, 16, 32, 64, 128], scale);
        println!(
            "{}",
            report::render_sweep(
                "Disk-controller-cache sweep (sor, standard machine, optimal prefetching)",
                "cache pages",
                &rows
            )
        );
        println!("nwcache reference (4-page cache): {nwc} pcycles\n");
    }
}
