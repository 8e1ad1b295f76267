//! `nwsim` — run and inspect single NWCache simulations.
//!
//! The verbs and their flags are declared in [`nw_bench::NWSIM`]; a
//! usage error prints the verb's synopsis and exits 2, and `nwsim`
//! alone prints every synopsis.
//!
//! `nwsim serve` keeps a simulator process resident (DESIGN.md §18):
//! clients submit run/sweep jobs over TCP, stream progress, and read
//! back the same JSON the batch commands print — byte-identical, so
//! `nwsim client run --json`-style output can be `cmp`'d against
//! `nwsim run --json`. `--warm-events N` warm-starts repeat jobs from
//! the server's checkpoint cache; `--verify-warm` makes the server
//! prove the cached state matches a cold warmup bit-for-bit. The
//! server's port also answers plain HTTP `GET /metrics` scrapes.
//!
//! `nwsim trace` runs one simulation with the observer attached and
//! writes a Chrome trace-event JSON file loadable in Perfetto
//! (<https://ui.perfetto.dev>) or `chrome://tracing`; `--text` prints
//! a compact text timeline instead of requiring a viewer.
//! `nwsim trace-validate` checks such a file with the in-tree
//! validator (no external tooling needed in CI).
//!
//! `nwsim workload` is the workload engine's front door: `gen`
//! materializes a stochastic scenario into an `nwtrace-v1` file,
//! `record` captures any app's action streams (simulation-free —
//! streams are pure functions of app/procs/scale/seed), `replay` runs
//! a trace as an ordinary app, and `describe` decodes, validates, and
//! summarizes a trace file. Everywhere an `--app` is accepted, a
//! `workload:<trace-file>` or `workload:gen:<spec>` spec works too.
//!
//! `--topo SPEC` (every verb that builds a machine) swaps the paper's
//! 8-node machine for a generated topology, e.g.
//! `mesh=8x8,io=spread:4,rings=2,dirshards=4` — see
//! DESIGN.md §17 for the grammar.
//!
//! `--seed N` sets the workload seed, which only Em3d's graph,
//! Radix's keys, generated scenarios and the adaptive prefetcher's
//! detector (to break ties) read: the other five paper apps run the
//! same streams at any seed, and `workload replay` takes no seed
//! because a trace fixes its streams.
//!
//! `compare --jobs N` runs its three machines on up to N worker
//! threads (`0` = one per core); results are identical at any job
//! count. Each simulation itself runs on one serial event loop.
//!
//! Checkpointing: `run --checkpoint ckpt.nwckpt --checkpoint-every N`
//! autosaves an `nwckpt-v1` snapshot every N dispatched events
//! (atomically — temp + rename, so a crash mid-save never leaves a
//! torn file). `resume CKPT` restores the snapshot and continues the
//! run; the resumed run's final summary is bit-identical to an
//! uninterrupted one. `--stop-after N` exits *without* saving once N
//! events have been dispatched — a deterministic simulated crash for
//! the crash-injection harness. `ckpt-validate` structurally checks a
//! checkpoint (checksum, section framing, META header) and
//! `ckpt-diff` compares two checkpoints section by section.

use nw_apps::AppId;
use nw_bench::cli::{Parsed, Usage};
use nw_bench::{print, println, NWSIM};
use nw_server::proto::code_name;
use nw_server::{Connection, JobKind, JobSpec, Response, ServeOptions, Server};
use nw_sim::atomic_write::write_atomic;
use nwcache::checkpoint::{self, SectionDiff};
use nwcache::config::{MachineConfig, MachineKind, PrefetchMode, RunParams};
use nwcache::workload::{Scenario, Trace};
use nwcache::{AppSel, RunOutcome, SimError};
use std::path::Path;

/// Errors outside the command line (unreadable or unwritable files,
/// sockets): always [`nwcache::ExitCode::Validation`].
fn die(msg: &str) -> ! {
    eprintln!("nwsim: {msg}");
    std::process::exit(nwcache::ExitCode::Validation.code())
}

/// Simulation-layer errors: the exit code is the error's
/// [`SimError::exit_code`] (see DESIGN.md §18 for the full table), so
/// validation failures, simulation faults, and corrupt checkpoints
/// are distinguishable by scripts — and by the server, which maps the
/// same codes onto `nwserve-v1` `JobError` frames.
fn die_err(e: &SimError) -> ! {
    eprintln!("nwsim: {e}");
    std::process::exit(e.exit_code().code())
}

/// The shared `--machine/--prefetch/--scale/--seed/--topo` subset of
/// the flags, as the [`RunParams`] value the server uses for the same
/// job fields — one lowering path, so `nwsim run` and a server job
/// with the same parameters build the identical machine.
fn run_params(p: &Parsed) -> Result<RunParams, Usage> {
    let (prefetch, prefetch_window) =
        PrefetchMode::parse_spec(p.get("--prefetch").unwrap_or("naive")).map_err(|e| p.usage(e))?;
    Ok(RunParams {
        machine: MachineKind::parse(p.get("--machine").unwrap_or("nwcache"))
            .map_err(|e| p.usage(e))?,
        prefetch,
        prefetch_window,
        scale: p.value("--scale")?.unwrap_or(0.25),
        seed: p.value("--seed")?,
        topo: p.get("--topo").map(String::from),
    })
}

/// Lower `params` to a validated config; errors are usage errors of `p`.
fn lower(p: &Parsed, params: &RunParams) -> Result<MachineConfig, Usage> {
    params.to_config().map_err(|e| match e {
        // Keep the flag name in topology errors.
        SimError::BadConfig(msg) if msg.starts_with("bad topo:") => {
            p.usage(msg.replacen("bad topo:", "bad --topo:", 1))
        }
        e => p.usage(e.to_string()),
    })
}

/// The lowered run parameters with the direct config overrides on top.
fn build_config(p: &Parsed) -> Result<MachineConfig, Usage> {
    let mut cfg = lower(p, &run_params(p)?)?;
    if let Some(v) = p.value("--min-free")? {
        cfg.min_free_frames = v;
    }
    if let Some(v) = p.value("--disk-cache")? {
        cfg.disk_cache_pages = v;
    }
    if let Some(v) = p.value("--ring-slots")? {
        cfg.ring_slots_per_channel = v;
    }
    cfg.validate()
        .map_err(|e| p.usage(format!("invalid configuration: {e}")))?;
    Ok(cfg)
}

/// The workload: `--app`, or `trace`'s positional word.
fn app_spec(p: &Parsed) -> Result<&str, Usage> {
    match (p.args().first(), p.get("--app")) {
        (Some(_), Some(_)) => Err(p.usage("give the app once: positionally or with --app")),
        (app, flag) => Ok(app.map(String::as_str).or(flag).unwrap_or("sor")),
    }
}

fn app_of(p: &Parsed) -> Result<AppSel, Usage> {
    let sel = AppSel::parse(app_spec(p)?).unwrap_or_else(|e| die_err(&e));
    if let AppSel::Gen(sc) = &sel {
        sc.validate().map_err(|e| p.usage(format!("invalid scenario: {e}")))?;
    }
    Ok(sel)
}

/// Write `trace` to `--out` in the encoding `--binary` selects, then
/// report what landed on disk.
fn write_trace(trace: &mut Trace, p: &Parsed) {
    let path = p.get("--out").unwrap_or("workload.nwtrace");
    let binary = p.has("--binary");
    let bytes = if binary {
        trace.encode_binary()
    } else {
        trace.encode_text().into_bytes()
    };
    write_atomic(Path::new(path), &bytes)
        .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    let s = trace.stats();
    eprintln!(
        "nwsim workload: wrote {path} ({} bytes, {}) — '{}', {} procs, {} records",
        bytes.len(),
        if binary { "binary" } else { "text" },
        trace.name,
        trace.procs.len(),
        s.records,
    );
}

/// `nwsim workload <gen|record|replay|describe>` — the workload
/// engine's CLI surface.
fn workload_cmd(p: &Parsed) -> Result<(), Usage> {
    match p.verb.name {
        "workload describe" => {
            let path = &p.args()[0];
            let bytes =
                std::fs::read(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
            let trace = Trace::decode(&bytes).unwrap_or_else(|e| die(&format!("{path}: {e}")));
            trace.validate().unwrap_or_else(|e| die(&format!("{path}: invalid trace: {e}")));
            let s = trace.stats();
            println!("{path}: valid nwtrace-v1");
            println!("name:       {}", trace.name);
            println!("procs:      {}", trace.procs.len());
            println!(
                "footprint:  {} bytes ({:.2} MB)",
                trace.data_bytes,
                trace.data_bytes as f64 / (1024.0 * 1024.0)
            );
            println!(
                "records:    {} ({} reads, {} writes, {} computes, {} barriers)",
                s.records, s.reads, s.writes, s.computes, s.barriers
            );
        }
        "workload gen" => {
            let spec = p.require("--spec")?;
            let sc = Scenario::parse(spec).map_err(|e| p.usage(format!("bad --spec: {e}")))?;
            let procs = p.positive("--procs")?.unwrap_or(8);
            sc.validate_for(procs).map_err(|e| p.usage(format!("invalid scenario: {e}")))?;
            // Default matches the machine's default workload seed, so
            // gen + replay reproduces `--app workload:gen:SPEC`.
            let seed = p.value("--seed")?.unwrap_or_else(|| {
                MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive).seed
            });
            write_trace(&mut sc.to_trace(procs, seed), p);
        }
        "workload record" => {
            let mut cfg = build_config(p)?;
            if let Some(procs) = p.positive("--procs")? {
                cfg.nodes = procs;
                cfg.io_nodes = (cfg.nodes / 2).max(1);
            }
            let sel = app_of(p)?;
            let mut trace = nwcache::workload::record(&cfg, &sel).unwrap_or_else(|e| die_err(&e));
            write_trace(&mut trace, p);
        }
        _ => {
            let path = p.require("--trace")?;
            let sel =
                AppSel::parse(&format!("workload:{path}")).unwrap_or_else(|e| die_err(&e));
            let cfg = build_config(p)?;
            let m = nwcache::try_run_sel(&cfg, &sel).unwrap_or_else(|e| die_err(&e));
            print_summary(&m, p);
        }
    }
    Ok(())
}

/// The run's JSON summary with `--json`, the text report otherwise.
fn print_summary(m: &nwcache::RunMetrics, p: &Parsed) {
    if p.has("--json") {
        println!("{}", m.summary().to_json());
    } else {
        print_run(m);
    }
}

fn print_run(m: &nwcache::RunMetrics) {
    println!("app:        {} ({} machine, {} prefetching)", m.app, m.machine, m.prefetch);
    println!(
        "exec time:  {} pcycles ({:.2} simulated ms)",
        m.exec_time,
        m.exec_time as f64 * 5.0 / 1e6
    );
    println!(
        "faults:     {} total | {} from ring ({:.1}%)",
        m.page_faults,
        m.ring_hits,
        m.ring_hit_rate()
    );
    println!(
        "swap-outs:  {} (mean {:.0} pcycles, max {}) | NACKs {}",
        m.swap_outs,
        m.swap_out_time.mean(),
        m.swap_out_time.max().unwrap_or(0),
        m.swap_nacks
    );
    println!(
        "combining:  {:.2} pages/disk write ({} writes)",
        m.write_combining.mean(),
        m.write_combining.count()
    );
    println!(
        "fault lat:  disk-hit {:.0} | disk-miss {:.0} | ring {:.0} pcycles",
        m.fault_latency_disk_hit.mean(),
        m.fault_latency_disk_miss.mean(),
        m.fault_latency_ring.mean()
    );
    println!(
        "traffic:    mesh {:.2} MB / {} msgs | shootdowns {}",
        m.mesh_bytes as f64 / 1e6,
        m.mesh_messages,
        m.shootdowns
    );
    let agg = m.total_breakdown();
    let t = agg.total().max(1) as f64;
    println!(
        "breakdown:  NoFree {:.1}% | Transit {:.1}% | Fault {:.1}% | TLB {:.1}% | Other {:.1}%",
        100.0 * agg.no_free as f64 / t,
        100.0 * agg.transit as f64 / t,
        100.0 * agg.fault as f64 / t,
        100.0 * agg.tlb as f64 / t,
        100.0 * agg.other as f64 / t
    );
}

/// Drive a machine to completion in checkpoint-sized chunks.
///
/// Every `every` dispatched events the machine pauses; if `ckpt` is
/// set, a snapshot is autosaved there (atomic temp + rename). With
/// `--stop-after N` the process exits *without saving* once N events
/// have been dispatched — the budget is clipped so the stop lands
/// exactly on N, strictly after the last autosave, which is what makes
/// the stop a faithful simulated crash. Returns `None` on such a stop.
fn run_chunked(
    mut m: nwcache::Machine,
    spec: &str,
    ckpt: Option<&str>,
    every: u64,
    stop_after: Option<u64>,
) -> Option<nwcache::RunMetrics> {
    loop {
        let dispatched = m.events_dispatched();
        if stop_after.is_some_and(|stop| dispatched >= stop) {
            eprintln!("nwsim: stopped after {dispatched} events without saving (simulated crash)");
            return None;
        }
        let budget = match stop_after {
            Some(stop) => every.min(stop - dispatched),
            None => every,
        };
        match m.try_run_events(budget) {
            Ok(RunOutcome::Done(metrics)) => return Some(*metrics),
            // A pause that reached the stop goes round to the check
            // above without saving.
            Ok(RunOutcome::Paused) if stop_after.is_some_and(|s| m.events_dispatched() >= s) => {}
            Ok(RunOutcome::Paused) => {
                if let Some(path) = ckpt {
                    checkpoint::save_file(Path::new(path), spec, &mut m)
                        .unwrap_or_else(|e| die_err(&e));
                    eprintln!(
                        "nwsim: checkpoint at {} events (t={}) -> {path}",
                        m.events_dispatched(),
                        m.exec_time()
                    );
                }
            }
            Err(e) => die_err(&e),
        }
    }
}

/// `nwsim serve` — run the long-lived simulation service (DESIGN.md
/// §18). Prints the bound address to stderr (port 0 picks a free
/// one), then serves until SIGTERM/SIGINT or a client `Shutdown`
/// frame, draining in-flight jobs to autosaved checkpoints.
fn serve_cmd(p: &Parsed) -> Result<(), Usage> {
    let d = ServeOptions::default();
    let opts = ServeOptions {
        addr: p.get("--addr").map_or(d.addr, String::from),
        job_slots: p.value("--job-slots")?.unwrap_or(d.job_slots),
        warm_dir: p.get("--warm-dir").map(Into::into).or(d.warm_dir),
        warm_capacity: p.value("--warm-capacity")?.unwrap_or(d.warm_capacity),
        autosave_dir: p.get("--autosave-dir").map_or(d.autosave_dir, Into::into),
        chunk_events: p.positive("--chunk-events")?.unwrap_or(d.chunk_events),
    };
    nw_server::install_signal_handlers();
    let server =
        Server::bind(opts).unwrap_or_else(|e| die(&format!("cannot bind listener: {e}")));
    let addr = server
        .local_addr()
        .unwrap_or_else(|e| die(&format!("cannot resolve bound address: {e}")));
    eprintln!("nwsim serve: listening on {addr}");
    let stats = server.run();
    eprintln!(
        "nwsim serve: drained — {} job(s) completed, {} failed, {} autosaved",
        stats.jobs_completed, stats.jobs_failed, stats.jobs_drained
    );
    Ok(())
}

/// The job `client run|sweep` submits. The shared parameters are
/// validated locally, with the parsers the server re-validates with,
/// for fast feedback.
fn job_spec(p: &Parsed, kind: JobKind) -> Result<JobSpec, Usage> {
    let params = run_params(p)?;
    let machines: Vec<String> = match kind {
        JobKind::Run => vec![p.get("--machine").unwrap_or("nwcache").to_string()],
        JobKind::Sweep => p
            .get("--machines")
            .unwrap_or("standard,nwcache,dcd")
            .split(',')
            .map(str::to_string)
            .collect(),
    };
    for m in &machines {
        MachineKind::parse(m).map_err(|e| p.usage(e))?;
    }
    Ok(JobSpec {
        kind,
        spec: app_spec(p)?.to_string(),
        machines,
        prefetch: p.get("--prefetch").unwrap_or("naive").to_string(),
        scale: params.scale,
        seed: params.seed,
        topo: params.topo,
        warmup_events: p.value("--warm-events")?.unwrap_or(0),
        verify_warm: p.has("--verify-warm"),
        deadline_ms: p.value("--deadline-ms")?.unwrap_or(0),
        progress_every: p.value("--progress-every")?.unwrap_or(0),
        want_trace: p.has("--trace-out"),
    })
}

/// `nwsim client` — talk to a running `nwsim serve`. `run`/`sweep`
/// submit a job and print the final JSON to stdout (byte-identical to
/// `nwsim run --json` / the sweep summaries array); the process exit
/// code is the job's error code, so scripts treat a remote job
/// exactly like a local run.
fn client_cmd(p: &Parsed) -> Result<(), Usage> {
    let addr = p.require("--addr")?;
    let spec = match p.verb.name {
        "client run" => Some(job_spec(p, JobKind::Run)?),
        "client sweep" => Some(job_spec(p, JobKind::Sweep)?),
        _ => None,
    };
    let mut conn = Connection::connect(addr)
        .unwrap_or_else(|e| die(&format!("cannot connect to {addr}: {e}")));
    let Some(spec) = spec else {
        match p.verb.name {
            "client ping" => {
                conn.ping().unwrap_or_else(|e| die(&format!("ping failed: {e}")));
                eprintln!("nwsim client: pong from {addr}");
            }
            "client metrics" => {
                let text = conn
                    .metrics_text()
                    .unwrap_or_else(|e| die(&format!("metrics failed: {e}")));
                print!("{text}");
            }
            _ => {
                conn.shutdown_server()
                    .unwrap_or_else(|e| die(&format!("shutdown failed: {e}")));
                eprintln!("nwsim client: server at {addr} is draining");
            }
        }
        return Ok(());
    };
    let result = conn
        .run_job(&spec, |event| {
            if let Response::Progress {
                job,
                cell,
                cells,
                events,
                now,
            } = event
            {
                eprintln!(
                    "nwsim client: job {job} cell {}/{cells}: {events} events (t={now})",
                    cell + 1
                );
            }
        })
        .unwrap_or_else(|e| die(&format!("connection to {addr} failed mid-job: {e}")));
    if let Some((path, events)) = &result.drained {
        eprintln!(
            "nwsim client: job {} drained by server shutdown at {events} events; \
             server autosaved {path} (finish it with `nwsim resume`)",
            result.job
        );
        return Ok(());
    }
    if let Some(msg) = &result.message {
        eprintln!(
            "nwsim client: job {} failed ({}): {msg}",
            result.job,
            code_name(result.code)
        );
        std::process::exit(result.code.min(i32::MAX as u64) as i32);
    }
    if result.warm_hit {
        eprintln!("nwsim client: warm-start cache hit — warmup replayed from checkpoint");
    }
    if let Some(out) = p.get("--trace-out") {
        match &result.trace_json {
            Some(json) => {
                write_atomic(Path::new(out), json.as_bytes())
                    .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
                eprintln!("nwsim client: wrote {out}");
            }
            None => eprintln!("nwsim client: server sent no trace"),
        }
    }
    if let Some(json) = &result.json {
        println!("{json}");
    }
    Ok(())
}

/// `--stop-after` and `--checkpoint-every` (default 10,000 events).
fn checkpoint_flags(p: &Parsed) -> Result<(Option<u64>, u64), Usage> {
    Ok((p.value("--stop-after")?, p.positive("--checkpoint-every")?.unwrap_or(10_000)))
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let p = NWSIM.parse(&argv).unwrap_or_else(|u| u.exit());
    if let Err(u) = dispatch(&p) {
        u.exit()
    }
}

fn dispatch(p: &Parsed) -> Result<(), Usage> {
    match p.verb.name {
        "run" => run_cmd(p)?,
        "resume" => {
            let path = &p.args()[0];
            let (stop_after, every) = checkpoint_flags(p)?;
            let (meta, m) =
                checkpoint::load_file(Path::new(path)).unwrap_or_else(|e| die_err(&e));
            eprintln!(
                "nwsim resume: '{}' at {} events (t={}) from {path}",
                meta.app, meta.events, meta.now
            );
            if let Some(metrics) =
                run_chunked(m, &meta.spec, p.get("--checkpoint"), every, stop_after)
            {
                print_summary(&metrics, p);
            }
        }
        "ckpt-validate" => {
            let path = &p.args()[0];
            let s = checkpoint::validate_file(Path::new(path)).unwrap_or_else(|e| die_err(&e));
            println!("{path}: valid nwckpt-v1 ({} bytes)", s.file_bytes);
            println!("workload:  {} (spec '{}')", s.meta.app, s.meta.spec);
            println!("progress:  {} events, t={} pcycles", s.meta.events, s.meta.now);
            println!("sections:");
            for sec in &s.sections {
                println!("  {:>2} {:<8} {:>9} bytes", sec.id, sec.name, sec.bytes);
            }
        }
        "ckpt-diff" => ckpt_diff(&p.args()[0], &p.args()[1]),
        "trace-validate" => {
            let path = &p.args()[0];
            let json = std::fs::read_to_string(path)
                .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
            match nwcache::observe::validate_chrome_trace(&json) {
                Ok(s) => println!(
                    "{path}: valid chrome trace — {} events ({} spans, {} instants, \
                     {} counter samples, {} metadata) across {} track groups",
                    s.events, s.spans, s.instants, s.counters, s.metadata,
                    s.pids.len()
                ),
                Err(e) => die(&format!("{path}: {e}")),
            }
        }
        "trace" => trace_cmd(p)?,
        "compare" => compare_cmd(p)?,
        "apps" => {
            println!("{:<8} description", "name");
            for app in AppId::ALL {
                let b = nw_apps::build(app, 8, 1.0, 0);
                println!(
                    "{:<8} {:.2} MB shared data",
                    app.name(),
                    b.data_bytes as f64 / (1024.0 * 1024.0)
                );
            }
        }
        "config" => println!("{:#?}", build_config(p)?),
        "serve" => serve_cmd(p)?,
        verb if verb.starts_with("workload ") => workload_cmd(p)?,
        _ => client_cmd(p)?,
    }
    Ok(())
}

fn run_cmd(p: &Parsed) -> Result<(), Usage> {
    let cfg = build_config(p)?;
    let (stop_after, every) = checkpoint_flags(p)?;
    let sel = app_of(p)?;
    let chunked = p.has("--checkpoint") || p.has("--checkpoint-every") || p.has("--stop-after");
    let m = if chunked {
        // The original spec string is stored in the checkpoint META
        // so `resume` can rebuild the same workload.
        let build = sel.build(&cfg).unwrap_or_else(|e| die_err(&e));
        let machine =
            nwcache::Machine::try_from_build(cfg, build).unwrap_or_else(|e| die_err(&e));
        match run_chunked(machine, app_spec(p)?, p.get("--checkpoint"), every, stop_after) {
            Some(m) => m,
            None => return Ok(()),
        }
    } else {
        nwcache::try_run_sel(&cfg, &sel).unwrap_or_else(|e| die_err(&e))
    };
    print_summary(&m, p);
    Ok(())
}

fn trace_cmd(p: &Parsed) -> Result<(), Usage> {
    let cfg = build_config(p)?;
    let mut ocfg = nwcache::observe::ObserveConfig::default();
    if let Some(v) = p.positive("--sample-interval")? {
        ocfg.sample_interval = v;
    }
    if let Some(v) = p.positive("--trace-capacity")? {
        ocfg.trace_capacity = v;
    }
    let sel = app_of(p)?;
    let build = sel.build(&cfg).unwrap_or_else(|e| die_err(&e));
    let mut m = nwcache::Machine::try_from_build(cfg, build).unwrap_or_else(|e| die_err(&e));
    m.enable_observer(ocfg);
    let metrics = m.run();
    let data = m.take_observation().expect("observer was enabled");
    eprintln!(
        "nwsim trace: {} events emitted, {} retained, {} dropped (oldest) — exec {} pcycles",
        data.recorded,
        data.events.len(),
        data.dropped,
        metrics.exec_time
    );
    if p.has("--text") {
        println!("{}", data.to_text_timeline());
    }
    let path = p.get("--trace-out").unwrap_or("trace.json");
    write_atomic(Path::new(path), data.to_chrome_json().as_bytes())
        .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    eprintln!("nwsim trace: wrote {path} — open it at https://ui.perfetto.dev or chrome://tracing");
    Ok(())
}

/// The three machines on one workload, each lowered through
/// [`RunParams::to_config`] like `run`, on up to `--jobs` workers.
fn compare_cmd(p: &Parsed) -> Result<(), Usage> {
    let jobs = p.value("--jobs")?.unwrap_or(0);
    let sel = app_of(p)?;
    let params = run_params(p)?;
    let grid = [MachineKind::Standard, MachineKind::Dcd, MachineKind::NwCache]
        .into_iter()
        .map(|machine| {
            let params = RunParams { machine, ..params.clone() };
            Ok((lower(p, &params)?, sel.clone()))
        })
        .collect::<Result<Vec<_>, Usage>>()?;
    let results: Vec<_> = nwcache::sweep::run_grid(jobs, grid)
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| die_err(&e)))
        .collect();
    let base = results[0].exec_time;
    println!(
        "{:<10} {:>14} {:>12} {:>12} {:>10}",
        "machine", "exec (pc)", "swap mean", "hit rate", "vs std"
    );
    for m in &results {
        println!(
            "{:<10} {:>14} {:>12.0} {:>11.1}% {:>9.1}%",
            m.machine,
            m.exec_time,
            m.swap_out_time.mean(),
            m.ring_hit_rate(),
            100.0 * (base as f64 - m.exec_time as f64) / base as f64
        );
    }
    Ok(())
}

/// `nwsim ckpt-diff A B`: exits 1 when they differ.
fn ckpt_diff(a: &str, b: &str) {
    let diffs =
        checkpoint::diff_files(Path::new(a), Path::new(b)).unwrap_or_else(|e| die_err(&e));
    let mut differing = 0;
    for d in &diffs {
        let name = nwcache::checkpoint::sections::name(d.id());
        let why = match d {
            SectionDiff::Same { bytes, .. } => {
                println!("  same    {name:<8} ({bytes} bytes)");
                continue;
            }
            SectionDiff::Differ { a_bytes, b_bytes, first_diff, .. } => format!(
                "({a_bytes} vs {b_bytes} bytes, first difference at payload byte {first_diff})"
            ),
            SectionDiff::OnlyInA { .. } => format!("(only in {a})"),
            SectionDiff::OnlyInB { .. } => format!("(only in {b})"),
        };
        differing += 1;
        println!("  DIFFER  {name:<8} {why}");
    }
    if differing == 0 {
        println!("{a} and {b} are identical");
    } else {
        println!("{a} and {b} differ in {differing} section(s)");
        std::process::exit(1);
    }
}
