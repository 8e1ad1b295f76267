//! `reproduce` — regenerate every table and figure of the paper.
//!
//! Its flags and target words are declared in [`nw_bench::REPRODUCE`].
//!
//! `--scale 1.0` (the default) uses the paper's Table 2 inputs; smaller
//! scales shrink both the applications and the machine proportionally
//! (useful for a quick pass).
//!
//! An unknown flag or target word, or a `--scale` outside (0, 1], exits
//! 2 (`ExitCode::Validation`) and prints the synopsis, which lists the
//! valid targets.
//!
//! `--jobs N` fans independent runs out over N worker threads (`0` =
//! one per core, the default). Results are bit-identical at any job
//! count; each simulation itself runs on one serial event loop.
//! `--json out.json` runs the full paper matrix and writes a
//! stable-schema `SweepReport` (`nwcache-sweep-v1`). With `--json` and
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

use nw_apps::AppId;
use nw_bench::cli::{Parsed, Usage};
use nw_bench::{REPRODUCE, TARGETS};
use nw_sim::atomic_write::write_atomic;
use nwcache::config::{scale_in_range, MachineKind, PrefetchMode, RunParams};
use nwcache::experiments as exp;
use nwcache::report;
use nwcache::AppSel;

/// `--trace-cell app:machine:prefetch`: re-run that cell, lowered like
/// `nwsim run`'s flags, with the observer attached. Split from the
/// right so the app position can itself contain ':'
/// (`workload:gen:<spec>` and trace paths with colons).
fn trace_cell(p: &Parsed, cell: &str, scale: f64) -> Result<(), Usage> {
    let bad = |reason: String| p.usage(format!("--trace-cell: {reason}"));
    let mut parts = cell.rsplitn(3, ':');
    let (Some(prefetch), Some(machine), Some(app)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(bad(format!("wants app:machine:prefetch, got '{cell}'")));
    };
    let machine = MachineKind::parse(machine).map_err(bad)?;
    let (prefetch, prefetch_window) = PrefetchMode::parse_spec(prefetch).map_err(bad)?;
    let params = RunParams { machine, prefetch, prefetch_window, scale, ..RunParams::default() };
    let cfg = params.to_config().map_err(|e| bad(e.to_string()))?;
    let sel = AppSel::parse(app).map_err(|e| bad(e.to_string()))?;
    let mut m = sel
        .build(&cfg)
        .and_then(|build| nwcache::Machine::try_from_build(cfg, build))
        .unwrap_or_else(|e| {
            eprintln!("reproduce: --trace-cell: {e}");
            std::process::exit(e.exit_code().code())
        });
    m.enable_observer(nwcache::observe::ObserveConfig::default());
    let metrics = m.run();
    let data = m.take_observation().expect("observer was enabled");
    let path = p.get("--trace-out").unwrap_or("trace-cell.json");
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
    Ok(())
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let p = REPRODUCE.parse(&argv).unwrap_or_else(|u| u.exit());
    let scale = match p.value::<f64>("--scale") {
        Ok(None) => 1.0,
        Ok(Some(s)) if scale_in_range(s) => s,
        _ => p.usage("--scale needs a number in (0, 1]").exit(),
    };
    if let Some(n) = p.value("--jobs").unwrap_or_else(|u| u.exit()) {
        nwcache::sweep::set_jobs(n);
    }
    let mut targets: Vec<&str> = p.args().iter().map(String::as_str).collect();
    if p.has("--faults") {
        targets.push("faults");
    }
    // `--json`/`--scale-json`/`--trace-cell` with no explicit targets
    // run only the export / trace; otherwise no targets means
    // everything.
    if targets.is_empty() && !["--json", "--scale-json", "--trace-cell"].iter().any(|f| p.has(f)) {
        targets.push("all");
    }
    if let Some(cell) = p.get("--trace-cell") {
        trace_cell(&p, cell, scale).unwrap_or_else(|u| u.exit());
    }
    let all = targets.contains(&"all");
    // The fault grid perturbs runs, so it never rides along with
    // `all` — ask for it explicitly (`faults` or `--faults`).
    let want_faults = targets.contains(&"faults");
    let want = |t: &str| {
        assert!(TARGETS.contains(&t), "'{t}' is missing from TARGETS");
        t != "faults" && (all || targets.contains(&t))
    };

    // One memo for every target: each distinct cell runs once.
    let mut lab = exp::Lab::default();
    // Tables 3-6: swap-out time and write combining under each policy.
    type Rows = fn(&mut exp::Lab, PrefetchMode, f64) -> Vec<exp::PairedRow>;
    let paired: [(&str, Rows, PrefetchMode, &str, f64); 4] = [
        ("table3", exp::table_swap_out, PrefetchMode::Optimal, "swap-out times (Mpcycles) under OPTIMAL", 1e6),
        ("table4", exp::table_swap_out, PrefetchMode::Naive, "swap-out times (Kpcycles) under NAIVE", 1e3),
        ("table5", exp::table_combining, PrefetchMode::Optimal, "write combining under OPTIMAL", 1.0),
        ("table6", exp::table_combining, PrefetchMode::Naive, "write combining under NAIVE", 1.0),
    ];
    for (target, rows, mode, what, unit) in paired {
        if want(target) {
            let title = format!("Table {}. Average {what} prefetching", &target[5..]);
            println!("{}", report::render_paired(&title, &rows(&mut lab, mode, scale), unit));
        }
    }
    if want("table7") {
        let rows = exp::table_hit_rates(&mut lab, scale);
        println!("{}", report::render_hit_rates(&rows));
    }
    if want("table8") {
        let rows = exp::table_disk_hit_latency(&mut lab, scale);
        println!(
            "{}",
            report::render_paired(
                "Table 8. Average page-fault latency (Kpcycles) for disk cache hits, NAIVE prefetching",
                &rows,
                1e3
            )
        );
    }
    for (target, mode, label) in
        [("fig3", PrefetchMode::Optimal, "OPTIMAL"), ("fig4", PrefetchMode::Naive, "NAIVE")]
    {
        if want(target) {
            let bars = exp::figure_breakdown(&mut lab, mode, scale);
            let n = &target[3..];
            let title = format!(
                "Figure {n}. Normalized execution time breakdown, {label} prefetching (standard bar = 1.0)"
            );
            println!("{}", report::render_breakdown(&title, &bars));
            println!("{}", report::render_breakdown_bars(&format!("Figure {n} (bars)"), &bars, 60));
        }
    }
    if want("overall") {
        for (mode, label) in [
            (PrefetchMode::Optimal, "OPTIMAL"),
            (PrefetchMode::Naive, "NAIVE"),
        ] {
            println!("Overall NWCache improvement (%) under {label} prefetching");
            for (app, imp) in exp::overall_improvement(&mut lab, mode, scale) {
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
                    exp::minfree_sweep(&mut lab, AppId::Sor, kind, mode, &[2, 4, 8, 12, 16], scale);
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
        let naive = exp::overall_improvement(&mut lab, PrefetchMode::Naive, scale);
        let window = exp::overall_improvement(&mut lab, PrefetchMode::Window, scale);
        let optimal = exp::overall_improvement(&mut lab, PrefetchMode::Optimal, scale);
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
        let rows = exp::prefetch_policy_sweep(&mut lab, scale);
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
        for (n, s, w) in exp::ionode_sweep(&mut lab, AppId::Sor, PrefetchMode::Naive, &[1, 2, 4, 8], scale) {
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
            scale,
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
        let skews = [0.0, 0.4, 0.8, 1.0, 1.2, 1.5];
        for (skew, hr, t) in exp::zipf_skew_sweep(&mut lab, &skews, PrefetchMode::Naive, scale) {
            println!("{skew:<8.1} {hr:>9.1}% {t:>16}");
        }
        println!();
    }
    if want("scaling") {
        println!("Machine-size scaling (sor, naive prefetching)");
        println!("{:<8} {:>14} {:>14} {:>12}", "nodes", "standard", "nwcache", "improvement");
        for (n, s, w) in exp::scaling_sweep(&mut lab, AppId::Sor, PrefetchMode::Naive, &[2, 4, 8, 16], scale) {
            let imp = 100.0 * (s as f64 - w as f64) / s as f64;
            println!("{n:<8} {s:>14} {w:>14} {imp:>11.1}%");
        }
        println!();
    }
    let want_scale = want("scale") || p.has("--scale-json");
    if want_scale {
        // ROADMAP item 1: does the 8-node win survive 64 and 256
        // nodes? Weak scaling fixes per-processor work; strong
        // scaling splits one fixed problem across the machine.
        let rows = exp::scale_study(&mut lab, &exp::SCALE_TOPOS, scale).unwrap_or_else(|e| {
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
        if let Some(path) = p.get("--scale-json") {
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
        for (app, std_t, dcd_t, nwc_t) in exp::dcd_comparison(&mut lab, PrefetchMode::Naive, scale) {
            println!("{app:<10} {std_t:>14} {dcd_t:>14} {nwc_t:>14}");
        }
        println!();
    }
    if want("ablations") {
        let rows = exp::ablation_flush_delay(
            &mut lab,
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
            &mut lab,
            AppId::Gauss,
            PrefetchMode::Naive,
            &[13, 26, 52, 104, 208],
            scale,
        );
        println!("Ablation: page-replacement policy (sor, standard, naive)");
        println!("{:<8} {:>16} {:>10}", "policy", "exec (pcycles)", "swaps");
        for (name, t, sw) in exp::replacement_comparison(
            &mut lab,
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
            &mut lab,
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
    if let Some(path) = p.get("--json") {
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
            exp::diskcache_sweep(&mut lab, AppId::Sor, PrefetchMode::Optimal, &[4, 8, 16, 32, 64, 128], scale);
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
