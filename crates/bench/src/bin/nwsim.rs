//! `nwsim` — run and inspect single NWCache simulations.
//!
//! ```text
//! nwsim run     --app sor --machine nwcache --prefetch naive [--scale S]
//!               [--topo SPEC] [--seed N] [--min-free N] [--disk-cache N]
//!               [--ring-slots N] [--checkpoint PATH] [--checkpoint-every N]
//!               [--stop-after N] [--json]
//! nwsim resume  CKPT [--checkpoint PATH] [--checkpoint-every N]
//!               [--stop-after N] [--json]
//! nwsim ckpt-validate PATH
//! nwsim ckpt-diff A B
//! nwsim trace   <app> [--machine M] [--prefetch P] [--scale S] [--seed N]
//!               [--trace-out run.json] [--sample-interval N]
//!               [--trace-capacity N] [--text]
//! nwsim trace-validate PATH
//! nwsim compare --app sor --prefetch naive [--scale S] [--jobs N]
//! nwsim bench   [--quick] [--out PATH] [--baseline PATH] [--check-regress PCT]
//! nwsim bench-validate PATH
//! nwsim apps
//! nwsim config  [--machine M] [--prefetch P] [--topo SPEC]
//! nwsim workload gen      --spec SPEC [--procs N] [--seed N] [--out PATH] [--binary]
//! nwsim workload record   --app APP [--procs N] [--scale S] [--seed N]
//!                         [--out PATH] [--binary]
//! nwsim workload replay   --trace PATH [--machine M] [--prefetch P]
//!                         [--scale S] [--json]
//! nwsim workload describe PATH
//! nwsim serve   [--addr H:P] [--job-slots N] [--warm-dir D] [--warm-capacity N]
//!               [--autosave-dir D] [--chunk-events N]
//! nwsim client  <run|sweep|metrics|ping|shutdown> --addr H:P [--app SPEC]
//!               [--machine M | --machines a,b,c] [--prefetch P] [--scale S]
//!               [--seed N] [--topo SPEC] [--warm-events N] [--verify-warm]
//!               [--deadline-ms N] [--progress-every N] [--trace-out PATH]
//! ```
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
//! `--topo SPEC` (run/trace/config) swaps the paper's 8-node machine
//! for a generated topology, e.g.
//! `mesh=8x8,io=corners,rings=2,shard=region,dirshards=4` — see
//! DESIGN.md §17 for the grammar.
//!
//! `--jobs N` bounds the sweep worker threads for multi-run commands
//! (`0` = one per core); results are identical at any job count. Each
//! simulation itself runs on one serial event loop.
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
use nw_server::proto::code_name;
use nw_server::{Connection, JobKind, JobSpec, Response, ServeOptions, Server};
use nw_sim::atomic_write::write_atomic;
use nwcache::checkpoint::{self, SectionDiff};
use nwcache::config::{MachineConfig, MachineKind, PrefetchMode, RunParams};
use nwcache::workload::{Scenario, Trace};
use nwcache::{AppSel, RunOutcome, SimError};
use std::path::Path;

fn parse_machine(s: &str) -> MachineKind {
    MachineKind::parse(s)
        .unwrap_or_else(|| die(&format!("unknown machine '{s}' (standard|nwcache|dcd)")))
}

/// Parse a prefetch spec: `optimal|naive|window|adaptive[:window]`,
/// where the optional suffix sets the adaptive detector's sliding
/// window (e.g. `adaptive:16`).
fn parse_prefetch(s: &str) -> (PrefetchMode, Option<usize>) {
    PrefetchMode::parse_spec(s).unwrap_or_else(|e| die(&e))
}

/// Usage and flag-parse errors: always [`nwcache::ExitCode::Validation`].
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

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: &[String]) -> Args {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < raw.len() {
            let k = raw[i].clone();
            if !k.starts_with("--") {
                die(&format!("unexpected argument '{k}'"));
            }
            if k == "--sim-threads" {
                die("--sim-threads was removed: each simulation runs on one serial event \
                     loop; use --jobs N to run independent simulations in parallel");
            }
            // Boolean flags take no value and may appear last.
            if k == "--json"
                || k == "--quick"
                || k == "--text"
                || k == "--binary"
                || k == "--verify-warm"
            {
                flags.push((k, String::new()));
                i += 1;
                continue;
            }
            let v = raw
                .get(i + 1)
                .cloned()
                .unwrap_or_else(|| die(&format!("flag {k} needs a value")));
            flags.push((k, v));
            i += 2;
        }
        Args { flags }
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.flags.iter().any(|(k, _)| k == key)
    }
}

/// The shared `--machine/--prefetch/--scale/--seed/--topo` subset of
/// the flags, as the [`RunParams`] value the server uses for the same
/// job fields — one lowering path, so `nwsim run` and a server job
/// with the same parameters build the identical machine.
fn run_params(args: &Args) -> RunParams {
    let (prefetch, prefetch_window) = parse_prefetch(args.get("--prefetch").unwrap_or("naive"));
    RunParams {
        machine: parse_machine(args.get("--machine").unwrap_or("nwcache")),
        prefetch,
        prefetch_window,
        scale: args
            .get("--scale")
            .map(|s| s.parse().unwrap_or_else(|_| die("bad --scale")))
            .unwrap_or(0.25),
        seed: args
            .get("--seed")
            .map(|v| v.parse().unwrap_or_else(|_| die("bad --seed"))),
        topo: args.get("--topo").map(String::from),
    }
}

fn build_config(args: &Args) -> MachineConfig {
    let mut cfg = run_params(args).to_config().unwrap_or_else(|e| match &e {
        // Keep the flag name in topology errors.
        SimError::BadConfig(msg) if msg.starts_with("bad topo:") => {
            die(&msg.replacen("bad topo:", "bad --topo:", 1))
        }
        _ => die_err(&e),
    });
    // Direct config overrides on top of the lowered parameters.
    let mut overridden = false;
    if let Some(v) = args.get("--min-free") {
        cfg.min_free_frames = v.parse().unwrap_or_else(|_| die("bad --min-free"));
        overridden = true;
    }
    if let Some(v) = args.get("--disk-cache") {
        cfg.disk_cache_pages = v.parse().unwrap_or_else(|_| die("bad --disk-cache"));
        overridden = true;
    }
    if let Some(v) = args.get("--ring-slots") {
        cfg.ring_slots_per_channel = v.parse().unwrap_or_else(|_| die("bad --ring-slots"));
        overridden = true;
    }
    if overridden {
        if let Err(e) = cfg.validate() {
            die(&format!("invalid configuration: {e}"));
        }
    }
    cfg
}

fn app_of(args: &Args) -> AppSel {
    let name = args.get("--app").unwrap_or("sor");
    AppSel::parse(name).unwrap_or_else(|e| die_err(&e))
}

/// Write `trace` to `path` in the encoding `--binary` selects, then
/// report what landed on disk.
fn write_trace(trace: &Trace, path: &str, binary: bool) {
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
fn workload_cmd(argv: &[String]) {
    let Some(sub) = argv.first() else {
        die("usage: nwsim workload <gen|record|replay|describe> [flags]")
    };
    if sub == "describe" {
        // Positional: `nwsim workload describe PATH`.
        let path = argv.get(1).unwrap_or_else(|| die("workload describe needs a file path"));
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
        return;
    }
    let args = Args::parse(&argv[1..]);
    let binary = args.has("--binary");
    let out = args.get("--out").unwrap_or("workload.nwtrace");
    match sub.as_str() {
        "gen" => {
            let spec = args
                .get("--spec")
                .unwrap_or_else(|| die("workload gen needs --spec (see Scenario::parse)"));
            let sc =
                Scenario::parse(spec).unwrap_or_else(|e| die(&format!("bad --spec: {e}")));
            sc.validate().unwrap_or_else(|e| die(&format!("invalid scenario: {e}")));
            let procs: usize = args
                .get("--procs")
                .map(|v| v.parse().unwrap_or_else(|_| die("bad --procs")))
                .unwrap_or(8);
            if procs == 0 {
                die("--procs must be positive");
            }
            // Default matches the machine's default workload seed, so
            // gen + replay reproduces `--app workload:gen:SPEC`.
            let seed: u64 = args
                .get("--seed")
                .map(|v| v.parse().unwrap_or_else(|_| die("bad --seed")))
                .unwrap_or_else(|| MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive).seed);
            write_trace(&sc.to_trace(procs, seed), out, binary);
        }
        "record" => {
            let mut cfg = build_config(&args);
            if let Some(v) = args.get("--procs") {
                cfg.nodes = v.parse().unwrap_or_else(|_| die("bad --procs"));
                cfg.io_nodes = (cfg.nodes / 2).max(1);
                cfg.ring_channels = cfg.nodes as usize;
            }
            let sel = app_of(&args);
            let trace = nwcache::workload::record(&cfg, &sel)
                .unwrap_or_else(|e| die_err(&e));
            write_trace(&trace, out, binary);
        }
        "replay" => {
            let path = args
                .get("--trace")
                .unwrap_or_else(|| die("workload replay needs --trace PATH"));
            let sel = AppSel::parse(&format!("workload:{path}"))
                .unwrap_or_else(|e| die_err(&e));
            let cfg = build_config(&args);
            let m = nwcache::try_run_sel(&cfg, &sel).unwrap_or_else(|e| die_err(&e));
            if args.has("--json") {
                println!("{}", m.summary().to_json());
            } else {
                print_run(&m);
            }
        }
        other => die(&format!("unknown workload command '{other}'")),
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
        if let Some(stop) = stop_after {
            if dispatched >= stop {
                eprintln!(
                    "nwsim: stopped after {dispatched} events without saving (simulated crash)"
                );
                return None;
            }
        }
        let budget = match stop_after {
            Some(stop) => every.min(stop - dispatched),
            None => every,
        };
        match m.try_run_events(budget) {
            Ok(RunOutcome::Done(metrics)) => return Some(*metrics),
            Ok(RunOutcome::Paused) => {
                if stop_after.is_some_and(|s| m.events_dispatched() >= s) {
                    eprintln!(
                        "nwsim: stopped after {} events without saving (simulated crash)",
                        m.events_dispatched()
                    );
                    return None;
                }
                if let Some(path) = ckpt {
                    checkpoint::save_file(Path::new(path), spec, &m)
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
fn serve_cmd(argv: &[String]) {
    let args = Args::parse(argv);
    let mut opts = ServeOptions::default();
    if let Some(v) = args.get("--addr") {
        opts.addr = v.to_string();
    }
    if let Some(v) = args.get("--job-slots") {
        opts.job_slots = v.parse().unwrap_or_else(|_| die("bad --job-slots"));
    }
    if let Some(v) = args.get("--warm-dir") {
        opts.warm_dir = Some(v.into());
    }
    if let Some(v) = args.get("--warm-capacity") {
        opts.warm_capacity = v.parse().unwrap_or_else(|_| die("bad --warm-capacity"));
    }
    if let Some(v) = args.get("--autosave-dir") {
        opts.autosave_dir = v.into();
    }
    if let Some(v) = args.get("--chunk-events") {
        opts.chunk_events = v.parse().unwrap_or_else(|_| die("bad --chunk-events"));
        if opts.chunk_events == 0 {
            die("--chunk-events must be positive");
        }
    }
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
}

/// `nwsim client` — talk to a running `nwsim serve`. `run`/`sweep`
/// submit a job and print the final JSON to stdout (byte-identical to
/// `nwsim run --json` / the sweep summaries array); the process exit
/// code is the job's error code, so scripts treat a remote job
/// exactly like a local run.
fn client_cmd(argv: &[String]) {
    let Some(sub) = argv.first() else {
        die("usage: nwsim client <run|sweep|metrics|ping|shutdown> --addr HOST:PORT [flags]")
    };
    let args = Args::parse(&argv[1..]);
    let addr = args
        .get("--addr")
        .unwrap_or_else(|| die("client needs --addr HOST:PORT"));
    let mut conn = Connection::connect(addr)
        .unwrap_or_else(|e| die(&format!("cannot connect to {addr}: {e}")));
    let kind = match sub.as_str() {
        "ping" => {
            conn.ping()
                .unwrap_or_else(|e| die(&format!("ping failed: {e}")));
            eprintln!("nwsim client: pong from {addr}");
            return;
        }
        "metrics" => {
            let text = conn
                .metrics_text()
                .unwrap_or_else(|e| die(&format!("metrics failed: {e}")));
            print!("{text}");
            return;
        }
        "shutdown" => {
            conn.shutdown_server()
                .unwrap_or_else(|e| die(&format!("shutdown failed: {e}")));
            eprintln!("nwsim client: server at {addr} is draining");
            return;
        }
        "run" => JobKind::Run,
        "sweep" => JobKind::Sweep,
        other => die(&format!("unknown client command '{other}'")),
    };
    let machines: Vec<String> = match kind {
        JobKind::Run => vec![args.get("--machine").unwrap_or("nwcache").to_string()],
        JobKind::Sweep => args
            .get("--machines")
            .unwrap_or("standard,nwcache,dcd")
            .split(',')
            .map(str::to_string)
            .collect(),
    };
    // Validate the shared parameters locally for fast feedback; the
    // server re-validates with the same parsers.
    for m in &machines {
        parse_machine(m);
    }
    parse_prefetch(args.get("--prefetch").unwrap_or("naive"));
    let spec = JobSpec {
        kind,
        spec: args.get("--app").unwrap_or("sor").to_string(),
        machines,
        prefetch: args.get("--prefetch").unwrap_or("naive").to_string(),
        scale: args
            .get("--scale")
            .map(|s| s.parse().unwrap_or_else(|_| die("bad --scale")))
            .unwrap_or(0.25),
        seed: args
            .get("--seed")
            .map(|v| v.parse().unwrap_or_else(|_| die("bad --seed"))),
        topo: args.get("--topo").map(String::from),
        warmup_events: args
            .get("--warm-events")
            .map(|v| v.parse().unwrap_or_else(|_| die("bad --warm-events")))
            .unwrap_or(0),
        verify_warm: args.has("--verify-warm"),
        deadline_ms: args
            .get("--deadline-ms")
            .map(|v| v.parse().unwrap_or_else(|_| die("bad --deadline-ms")))
            .unwrap_or(0),
        progress_every: args
            .get("--progress-every")
            .map(|v| v.parse().unwrap_or_else(|_| die("bad --progress-every")))
            .unwrap_or(0),
        want_trace: args.has("--trace-out"),
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
        return;
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
    if let Some(out) = args.get("--trace-out") {
        match &result.trace_json {
            Some(json) => {
                write_atomic(Path::new(out), json.as_bytes())
                    .unwrap_or_else(|e| die(&format!("cannot write {out}: {e}")));
                eprintln!("nwsim client: wrote {out}");
            }
            None => eprintln!("nwsim client: server sent no trace (sweep jobs are untraced)"),
        }
    }
    if let Some(json) = &result.json {
        println!("{json}");
    }
}

fn checkpoint_flags(args: &Args) -> (Option<u64>, u64) {
    let stop_after = args
        .get("--stop-after")
        .map(|v| v.parse().unwrap_or_else(|_| die("bad --stop-after")));
    let every: u64 = args
        .get("--checkpoint-every")
        .map(|v| v.parse().unwrap_or_else(|_| die("bad --checkpoint-every")))
        .unwrap_or(10_000);
    if every == 0 {
        die("--checkpoint-every must be positive");
    }
    (stop_after, every)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first() else {
        die("usage: nwsim <run|resume|ckpt-validate|ckpt-diff|trace|trace-validate|compare|bench|bench-validate|apps|config|workload|serve|client> [flags]")
    };
    if cmd == "resume" {
        // Positional: `nwsim resume CKPT [flags]`.
        let path = argv.get(1).unwrap_or_else(|| die("resume needs a checkpoint path"));
        let args = Args::parse(&argv[2..]);
        let (meta, m) =
            checkpoint::load_file(Path::new(path)).unwrap_or_else(|e| die_err(&e));
        eprintln!(
            "nwsim resume: '{}' at {} events (t={}) from {path}",
            meta.app, meta.events, meta.now
        );
        let (stop_after, every) = checkpoint_flags(&args);
        let Some(metrics) = run_chunked(m, &meta.spec, args.get("--checkpoint"), every, stop_after)
        else {
            return;
        };
        if args.has("--json") {
            println!("{}", metrics.summary().to_json());
        } else {
            print_run(&metrics);
        }
        return;
    }
    if cmd == "ckpt-validate" {
        // Positional: `nwsim ckpt-validate PATH`.
        let path = argv.get(1).unwrap_or_else(|| die("ckpt-validate needs a file path"));
        let s = checkpoint::validate_file(Path::new(path))
            .unwrap_or_else(|e| die_err(&e));
        println!("{path}: valid nwckpt-v1 ({} bytes)", s.file_bytes);
        println!("workload:  {} (spec '{}')", s.meta.app, s.meta.spec);
        println!("progress:  {} events, t={} pcycles", s.meta.events, s.meta.now);
        println!("sections:");
        for sec in &s.sections {
            println!("  {:>2} {:<8} {:>9} bytes", sec.id, sec.name, sec.bytes);
        }
        return;
    }
    if cmd == "ckpt-diff" {
        // Positional: `nwsim ckpt-diff A B`. Exits 1 when they differ.
        let a = argv.get(1).unwrap_or_else(|| die("ckpt-diff needs two checkpoint paths"));
        let b = argv.get(2).unwrap_or_else(|| die("ckpt-diff needs two checkpoint paths"));
        let diffs = checkpoint::diff_files(Path::new(a), Path::new(b))
            .unwrap_or_else(|e| die_err(&e));
        let mut differing = 0;
        for d in &diffs {
            let name = nwcache::checkpoint::sections::name(d.id());
            match d {
                SectionDiff::Same { bytes, .. } => {
                    println!("  same    {name:<8} ({bytes} bytes)");
                }
                SectionDiff::Differ {
                    a_bytes,
                    b_bytes,
                    first_diff,
                    ..
                } => {
                    differing += 1;
                    println!(
                        "  DIFFER  {name:<8} ({a_bytes} vs {b_bytes} bytes, \
                         first difference at payload byte {first_diff})"
                    );
                }
                SectionDiff::OnlyInA { .. } => {
                    differing += 1;
                    println!("  DIFFER  {name:<8} (only in {a})");
                }
                SectionDiff::OnlyInB { .. } => {
                    differing += 1;
                    println!("  DIFFER  {name:<8} (only in {b})");
                }
            }
        }
        if differing == 0 {
            println!("{a} and {b} are identical");
        } else {
            println!("{a} and {b} differ in {differing} section(s)");
            std::process::exit(1);
        }
        return;
    }
    if cmd == "workload" {
        workload_cmd(&argv[1..]);
        return;
    }
    if cmd == "serve" {
        serve_cmd(&argv[1..]);
        return;
    }
    if cmd == "client" {
        client_cmd(&argv[1..]);
        return;
    }
    if cmd == "bench-validate" {
        // Positional: `nwsim bench-validate PATH`.
        let path = argv.get(1).unwrap_or_else(|| die("bench-validate needs a file path"));
        let json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        match nwcache::hotbench::validate_bench_json(&json) {
            Ok(()) => {
                println!("{path}: valid nwcache-bench-v1");
                return;
            }
            Err(e) => die(&format!("{path}: {e}")),
        }
    }
    if cmd == "trace-validate" {
        // Positional: `nwsim trace-validate PATH`.
        let path = argv.get(1).unwrap_or_else(|| die("trace-validate needs a file path"));
        let json = std::fs::read_to_string(path)
            .unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
        match nwcache::observe::validate_chrome_trace(&json) {
            Ok(s) => {
                println!(
                    "{path}: valid chrome trace — {} events ({} spans, {} instants, \
                     {} counter samples, {} metadata) across {} track groups",
                    s.events, s.spans, s.instants, s.counters, s.metadata,
                    s.pids.len()
                );
                return;
            }
            Err(e) => die(&format!("{path}: {e}")),
        }
    }
    // `nwsim trace <app>` takes the application as a positional
    // argument; rewrite it into `--app` form for the flag parser.
    let mut flagv: Vec<String> = argv[1..].to_vec();
    if cmd == "trace" {
        if let Some(first) = flagv.first().cloned() {
            if !first.starts_with("--") {
                flagv.splice(0..1, ["--app".to_string(), first]);
            }
        }
    }
    let args = Args::parse(&flagv);
    if let Some(v) = args.get("--jobs") {
        nwcache::sweep::set_jobs(v.parse().unwrap_or_else(|_| die("bad --jobs")));
    }
    match cmd.as_str() {
        "run" => {
            let cfg = build_config(&args);
            let sel = app_of(&args);
            let chunked = args.has("--checkpoint")
                || args.has("--checkpoint-every")
                || args.has("--stop-after");
            let m = if chunked {
                // The original spec string is stored in the checkpoint
                // META so `resume` can rebuild the same workload.
                let spec = args.get("--app").unwrap_or("sor").to_string();
                let (stop_after, every) = checkpoint_flags(&args);
                let build = sel.build(&cfg).unwrap_or_else(|e| die_err(&e));
                let machine = nwcache::Machine::try_from_build(cfg, build)
                    .unwrap_or_else(|e| die_err(&e));
                let Some(m) =
                    run_chunked(machine, &spec, args.get("--checkpoint"), every, stop_after)
                else {
                    return;
                };
                m
            } else {
                nwcache::try_run_sel(&cfg, &sel).unwrap_or_else(|e| die_err(&e))
            };
            if args.has("--json") {
                println!("{}", m.summary().to_json());
            } else {
                print_run(&m);
            }
        }
        "trace" => {
            let cfg = build_config(&args);
            let sel = app_of(&args);
            let mut ocfg = nwcache::observe::ObserveConfig::default();
            if let Some(v) = args.get("--sample-interval") {
                ocfg.sample_interval =
                    v.parse().unwrap_or_else(|_| die("bad --sample-interval"));
                if ocfg.sample_interval == 0 {
                    die("--sample-interval must be positive");
                }
            }
            if let Some(v) = args.get("--trace-capacity") {
                ocfg.trace_capacity =
                    v.parse().unwrap_or_else(|_| die("bad --trace-capacity"));
                if ocfg.trace_capacity == 0 {
                    die("--trace-capacity must be positive");
                }
            }
            let build = sel.build(&cfg).unwrap_or_else(|e| die_err(&e));
            let mut m = nwcache::Machine::try_from_build(cfg, build)
                .unwrap_or_else(|e| die_err(&e));
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
            if args.has("--text") {
                println!("{}", data.to_text_timeline());
            }
            let path = args.get("--trace-out").unwrap_or("trace.json");
            write_atomic(Path::new(path), data.to_chrome_json().as_bytes())
                .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
            eprintln!(
                "nwsim trace: wrote {path} — open it at https://ui.perfetto.dev or chrome://tracing"
            );
        }
        "compare" => {
            let sel = app_of(&args);
            let (prefetch, window) = parse_prefetch(args.get("--prefetch").unwrap_or("naive"));
            let scale: f64 = args
                .get("--scale")
                .map(|s| s.parse().unwrap_or_else(|_| die("bad --scale")))
                .unwrap_or(0.25);
            let grid: Vec<_> = [MachineKind::Standard, MachineKind::Dcd, MachineKind::NwCache]
                .into_iter()
                .map(|kind| {
                    let mut cfg = MachineConfig::scaled_paper(kind, prefetch, scale);
                    if let Some(w) = window {
                        cfg.prefetch_window = w;
                    }
                    (cfg, sel.clone())
                })
                .collect();
            let results: Vec<_> = nwcache::sweep::run_sel_grid(nwcache::sweep::jobs(), grid)
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
        }
        "bench" => {
            let quick = args.has("--quick");
            // Read (and vet) the baseline before spending minutes
            // timing kernels: a gate against a useless baseline
            // should fail fast, not after the run.
            let baseline = args.get("--baseline").map(|path| {
                std::fs::read_to_string(path)
                    .unwrap_or_else(|e| die(&format!("cannot read baseline {path}: {e}")))
            });
            if args.has("--check-regress") {
                // A --quick baseline's timings are noise: gating
                // against it passes and fails at random. Refuse it.
                if let Some(json) = &baseline {
                    if !nwcache::hotbench::baseline_is_authoritative(json) {
                        die(
                            "--check-regress: baseline was recorded with --quick \
                             (\"authoritative\": false); re-record it with a full \
                             `nwsim bench --out`",
                        );
                    }
                }
            }
            eprintln!(
                "nwsim bench: timing hot-path kernels ({}) ...",
                if quick { "quick" } else { "full" }
            );
            let mut report = nwcache::hotbench::BenchReport::run(quick);
            if let Some(json) = &baseline {
                report.attach_baseline(json);
            }
            println!(
                "{:<22} {:>12} {:>14} {:>13} {:>9}",
                "kernel", "iters", "ns/iter", "events/sec", "speedup"
            );
            for k in &report.kernels {
                let eps = k
                    .events_per_sec()
                    .map(|e| format!("{e:.0}"))
                    .unwrap_or_else(|| "-".into());
                match k.speedup() {
                    Some(s) => println!(
                        "{:<22} {:>12} {:>14.1} {:>13} {:>8.2}x",
                        k.name, k.iters, k.ns_per_iter, eps, s
                    ),
                    None => println!(
                        "{:<22} {:>12} {:>14.1} {:>13} {:>9}",
                        k.name, k.iters, k.ns_per_iter, eps, "-"
                    ),
                }
            }
            if let Some(path) = args.get("--out") {
                write_atomic(Path::new(path), report.to_json().as_bytes())
                    .unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
                eprintln!("nwsim bench: wrote {path}");
            }
            if let Some(pct) = args.get("--check-regress") {
                let pct: f64 = pct.parse().unwrap_or_else(|_| die("bad --check-regress"));
                if !report
                    .kernels
                    .iter()
                    .any(|k| k.baseline_ns_per_iter.is_some())
                {
                    die("--check-regress needs --baseline with matching kernels");
                }
                let mut failed = false;
                for k in &report.kernels {
                    let Some(b) = k.baseline_ns_per_iter else { continue };
                    let regress = (k.ns_per_iter / b.max(f64::MIN_POSITIVE) - 1.0) * 100.0;
                    if regress > pct {
                        eprintln!(
                            "nwsim bench: REGRESSION {}: {:.1} ns/iter vs baseline {:.1} (+{:.1}% > {:.1}%)",
                            k.name, k.ns_per_iter, b, regress, pct
                        );
                        failed = true;
                    } else {
                        eprintln!(
                            "nwsim bench: ok {}: {:+.1}% vs baseline (budget {:.1}%)",
                            k.name, regress, pct
                        );
                    }
                    // Event-throughput gate (tolerant of baselines
                    // predating the events_per_sec field).
                    let (Some(cur), Some(base)) = (k.events_per_sec(), k.baseline_events_per_sec)
                    else {
                        continue;
                    };
                    let drop = (1.0 - cur / base.max(f64::MIN_POSITIVE)) * 100.0;
                    if drop > pct {
                        eprintln!(
                            "nwsim bench: REGRESSION {}: {:.0} events/sec vs baseline {:.0} (-{:.1}% > {:.1}%)",
                            k.name, cur, base, drop, pct
                        );
                        failed = true;
                    }
                }
                if failed {
                    std::process::exit(1);
                }
            }
        }
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
        "config" => {
            let cfg = build_config(&args);
            println!("{cfg:#?}");
        }
        other => die(&format!("unknown command '{other}'")),
    }
}
