//! The knob-liveness gate: every input changes some output, or it
//! goes.
//!
//! Config half: `MachineConfig` and `FaultPlan` are destructured in
//! full by the row tables, so a new field does not compile without a
//! row. Each row edits its field on a cell where the field can matter
//! and asserts that the run's outcome (`RunMetrics`, or the error it
//! ends in) changes.
//!
//! CLI half: every (verb, flag) pair declared in `NWSIM` and
//! `REPRODUCE` has a row or an exemption with its reason. A row runs
//! the real binary twice, without and with the flag (or with two
//! values of it), each in a fresh directory, and asserts that stdout,
//! the exit code or the files left in the directory differ.

use nw_bench::cli::Cli;
use nw_bench::{NWSIM, REPRODUCE};
use nwcache::config::{FaultPlan, MachineConfig, MachineKind, PrefetchMode, ReplacementPolicy};
use nwcache::{AppSel, RunMetrics};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::process::Command;

// ---- config half ----------------------------------------------------------

/// A machine and the workload it runs.
struct Cell {
    name: &'static str,
    cfg: MachineConfig,
    spec: &'static str,
}

fn cell(name: &'static str, prefetch: PrefetchMode, spec: &'static str) -> Cell {
    let cfg = MachineConfig::scaled_paper(MachineKind::NwCache, prefetch, 0.1);
    Cell { name, cfg, spec }
}

/// SOR at scale 0.1 on the NWCache machine: it pages, so the ring,
/// the disks and the VM paths all carry load.
fn paging() -> Cell {
    cell("sor nwcache naive", PrefetchMode::Naive, "sor")
}

/// [`paging`] on the standard machine, whose controllers accumulate
/// swap-outs before flushing them.
fn standard() -> Cell {
    let mut c = paging();
    c.name = "sor standard naive";
    c.cfg.kind = MachineKind::Standard;
    c
}

/// Em3d draws its graph from the workload seed.
fn em3d() -> Cell {
    cell("em3d nwcache naive", PrefetchMode::Naive, "em3d")
}

/// A sequential scan the adaptive prefetcher speculates on.
fn adaptive() -> Cell {
    cell("seq nwcache adaptive", PrefetchMode::Adaptive, "workload:gen:seq,ws=256,acc=3000,wf=0.1")
}

/// [`paging`] with every kind of fault active.
fn faulted() -> Cell {
    let mut c = paging();
    c.name = "sor nwcache naive faulted";
    c.cfg.faults.disk_error_rate = 0.05;
    c.cfg.faults.disk_stuck_rate = 0.02;
    c.cfg.faults.mesh_drop_rate = 0.02;
    c.cfg.faults.mesh_corrupt_rate = 0.01;
    c.cfg.faults.ring_channel_failures = vec![(1_000_000, 2)];
    c
}

enum Check {
    /// Editing the field on this cell changes the run's outcome.
    Live(fn() -> Cell, fn(&mut MachineConfig)),
    /// Not held to the gate, and why.
    Exempt(&'static str),
}

/// One row per field of the struct `$value` is: a field without a row,
/// or a row without a field, does not compile.
macro_rules! rows {
    ($value:expr => $ty:ident { $($field:ident: $check:expr,)* }) => {{
        let $ty { $($field: _,)* } = $value;
        vec![$((stringify!($field), $check)),*]
    }};
}

fn machine_rows() -> Vec<(&'static str, Check)> {
    use Check::Live;
    rows!(MachineConfig::paper_default(MachineKind::NwCache, PrefetchMode::Naive) => MachineConfig {
        kind: Live(paging, |c| c.kind = MachineKind::Standard),
        prefetch: Live(paging, |c| c.prefetch = PrefetchMode::Optimal),
        nodes: Live(paging, |c| c.nodes = 4),
        io_nodes: Live(paging, |c| c.io_nodes = 2),
        tlb_miss_latency: Live(paging, |c| c.tlb_miss_latency *= 2),
        tlb_shootdown_latency: Live(paging, |c| c.tlb_shootdown_latency *= 2),
        interrupt_latency: Live(paging, |c| c.interrupt_latency *= 2),
        memory_per_node: Live(paging, |c| c.memory_per_node *= 2),
        min_free_frames: Live(paging, |c| c.min_free_frames += 1),
        replacement: Live(paging, |c| c.replacement = ReplacementPolicy::Fifo),
        // Width and height move together: their product is the node
        // count.
        mesh_width: Live(paging, |c| (c.mesh_width, c.mesh_height) = (8, 1)),
        mesh_height: Live(paging, |c| (c.mesh_width, c.mesh_height) = (1, 8)),
        ring_slots_per_channel: Live(paging, |c| c.ring_slots_per_channel *= 2),
        ring_round_trip: Live(paging, |c| c.ring_round_trip *= 2),
        ring_count: Live(paging, |c| c.ring_count = 2),
        dir_shards: Check::Exempt(
            "no result reads it since the page-indexed directory; perfbench's dirshards=2 \
             cells and directory layer still do, so it goes with them",
        ),
        disk_cache_pages: Live(paging, |c| c.disk_cache_pages *= 2),
        disk_flush_delay: Live(standard, |c| c.disk_flush_delay *= 10),
        prefetch_window: Live(adaptive, |c| c.prefetch_window = 4),
        tlb_entries: Live(paging, |c| c.tlb_entries = 4),
        l1_latency: Live(paging, |c| c.l1_latency *= 2),
        l2_latency: Live(paging, |c| c.l2_latency *= 2),
        mem_latency: Live(paging, |c| c.mem_latency *= 2),
        dir_latency: Live(paging, |c| c.dir_latency *= 2),
        ctl_msg_bytes: Live(paging, |c| c.ctl_msg_bytes *= 4),
        quantum: Live(paging, |c| c.quantum /= 4),
        app_scale: Live(paging, |c| c.app_scale /= 2.0),
        seed: Live(em3d, |c| c.seed += 1),
        faults: Live(paging, |c| c.faults.disk_error_rate = 0.05),
    })
}

fn fault_rows() -> Vec<(&'static str, Check)> {
    use Check::Live;
    rows!(FaultPlan::default() => FaultPlan {
        seed: Live(faulted, |c| c.faults.seed += 1),
        disk_error_rate: Live(faulted, |c| c.faults.disk_error_rate *= 2.0),
        disk_stuck_rate: Live(faulted, |c| c.faults.disk_stuck_rate *= 2.0),
        ring_channel_failures: Live(faulted, |c| c.faults.ring_channel_failures.push((2_000_000, 5))),
        mesh_drop_rate: Live(faulted, |c| c.faults.mesh_drop_rate *= 2.0),
        mesh_corrupt_rate: Live(faulted, |c| c.faults.mesh_corrupt_rate = 0.2),
        max_retries: Live(faulted, |c| c.faults.max_retries = 1),
        retry_backoff: Live(faulted, |c| c.faults.retry_backoff *= 10),
        request_timeout: Live(faulted, |c| c.faults.request_timeout /= 10),
    })
}

fn outcome(cfg: &MachineConfig, spec: &str) -> Result<RunMetrics, String> {
    let sel = AppSel::parse(spec).expect("workload parses");
    nwcache::try_run_sel(cfg, &sel).map_err(|e| e.to_string())
}

/// The `Live` rows of `rows` whose edit leaves the outcome unchanged.
/// An edit must keep the config valid, so a row cannot pass on a
/// rejected config.
fn dead_fields(prefix: &str, rows: Vec<(&'static str, Check)>) -> Vec<String> {
    let mut base: HashMap<&str, Result<RunMetrics, String>> = HashMap::new();
    let mut dead = Vec::new();
    for (field, check) in rows {
        let Check::Live(cell, edit) = check else { continue };
        let cell = cell();
        let mut cfg = cell.cfg.clone();
        edit(&mut cfg);
        cfg.validate().unwrap_or_else(|e| panic!("{prefix}{field}: the edit is invalid: {e}"));
        let before = base.entry(cell.name).or_insert_with(|| outcome(&cell.cfg, cell.spec));
        if *before == outcome(&cfg, cell.spec) {
            dead.push(format!("{prefix}{field} on {}", cell.name));
        }
    }
    dead
}

/// The exempt fields of `rows`; each must give its reason.
fn exempt(rows: &[(&'static str, Check)]) -> Vec<&'static str> {
    let reason = |c: &Check| match c {
        Check::Exempt(why) => Some(!why.is_empty()),
        Check::Live(..) => None,
    };
    rows.iter()
        .filter_map(|(f, c)| reason(c).map(|given| {
            assert!(given, "{f}: an exemption needs a reason");
            *f
        }))
        .collect()
}

#[test]
fn every_machine_config_field_changes_a_run() {
    let rows = machine_rows();
    assert_eq!(exempt(&rows), ["dir_shards"], "the exemption list grew");
    let dead = dead_fields("", rows);
    assert!(dead.is_empty(), "editing these left the run unchanged: {dead:?}");
}

#[test]
fn every_fault_plan_field_changes_a_run() {
    let rows = fault_rows();
    assert!(exempt(&rows).is_empty(), "fault fields are not exempt");
    let dead = dead_fields("faults.", rows);
    assert!(dead.is_empty(), "editing these left the run unchanged: {dead:?}");
}

// ---- CLI half --------------------------------------------------------------

/// A row: `(context, words)`. The command `base + context` and the same
/// command with `words` on top (which set the row's flag, `words[0]`,
/// replacing a value `base + context` already gives it) differ.
type Row = (&'static [&'static str], &'static [&'static str]);

/// The rows of one verb.
struct VerbRows {
    prog: &'static str,
    verb: &'static str,
    /// `nwsim` commands run first in each fresh directory.
    setup: &'static [&'static [&'static str]],
    /// The argument words after the verb words.
    base: &'static [&'static str],
    rows: &'static [Row],
}

/// A workload that pages at scale 0.05, and a second one.
const ZIPF: &str = "workload:gen:zipf:0.9,ws=200,acc=300,wf=0.3";
const UNIFORM: &str = "workload:gen:uniform,ws=200,acc=300,wf=0.3";

/// The rows `run`, `trace`, `config` and `workload replay` share: the machine
/// parameters and direct overrides.
macro_rules! machine_flags {
    ($($row:expr),* $(,)?) => {
        &[
            (&[], &["--machine", "standard"]),
            (&[], &["--prefetch", "optimal"]),
            (&[], &["--scale", "0.5"]),
            (&[], &["--topo", "mesh=4x2,rings=2"]),
            (&[], &["--min-free", "4"]),
            (&[], &["--disk-cache", "8"]),
            (&[], &["--ring-slots", "8"]),
            $($row),*
        ]
    };
}

const VERBS: &[VerbRows] = &[
    VerbRows {
        prog: "nwsim",
        verb: "run",
        setup: &[],
        base: &["--app", ZIPF, "--scale", "0.05"],
        rows: machine_flags![
            (&[], &["--app", UNIFORM]),
            (&[], &["--seed", "7"]),
            (&["--checkpoint-every", "50"], &["--checkpoint", "ck.nwckpt"]),
            (&["--checkpoint", "ck.nwckpt"], &["--checkpoint-every", "50"]),
            (&[], &["--stop-after", "50"]),
            (&[], &["--json"]),
        ],
    },
    VerbRows {
        prog: "nwsim",
        verb: "resume",
        setup: &[&["run", "--app", ZIPF, "--scale", "0.05", "--checkpoint", "ck.nwckpt", "--checkpoint-every", "100", "--stop-after", "150"]],
        base: &["ck.nwckpt"],
        rows: &[
            (&["--checkpoint-every", "50"], &["--checkpoint", "ck2.nwckpt"]),
            (&["--checkpoint", "ck2.nwckpt"], &["--checkpoint-every", "50"]),
            (&[], &["--stop-after", "300"]),
            (&[], &["--json"]),
        ],
    },
    VerbRows {
        prog: "nwsim",
        verb: "trace",
        setup: &[],
        base: &["--app", ZIPF, "--scale", "0.05"],
        rows: machine_flags![
            (&[], &["--app", UNIFORM]),
            (&[], &["--seed", "7"]),
            (&[], &["--trace-out", "t.json"]),
            (&[], &["--sample-interval", "1000"]),
            (&[], &["--trace-capacity", "16"]),
            (&[], &["--text"]),
        ],
    },
    VerbRows {
        prog: "nwsim",
        verb: "compare",
        setup: &[],
        base: &["--app", ZIPF, "--scale", "0.05"],
        rows: &[
            (&[], &["--app", UNIFORM]),
            (&[], &["--prefetch", "optimal"]),
            (&[], &["--scale", "0.5"]),
            (&[], &["--seed", "7"]),
            (&[], &["--topo", "mesh=4x2,rings=2"]),
        ],
    },
    VerbRows {
        prog: "nwsim",
        verb: "config",
        setup: &[],
        base: &[],
        rows: machine_flags![(&[], &["--seed", "7"])],
    },
    VerbRows {
        prog: "nwsim",
        verb: "workload gen",
        setup: &[],
        base: &["--spec", "zipf:0.9,ws=64,acc=100"],
        rows: &[
            (&[], &["--spec", "uniform,ws=64,acc=100"]),
            (&[], &["--procs", "4"]),
            (&[], &["--seed", "7"]),
            (&[], &["--out", "w.nwtrace"]),
            (&[], &["--binary"]),
        ],
    },
    VerbRows {
        prog: "nwsim",
        verb: "workload record",
        setup: &[],
        base: &["--app", "em3d", "--scale", "0.05"],
        rows: &[
            (&[], &["--app", "fft"]),
            (&[], &["--scale", "0.5"]),
            (&[], &["--seed", "7"]),
            (&[], &["--topo", "mesh=2x2"]),
            (&[], &["--procs", "4"]),
            (&[], &["--out", "w.nwtrace"]),
            (&[], &["--binary"]),
        ],
    },
    VerbRows {
        prog: "nwsim",
        verb: "workload replay",
        setup: &[
            &["workload", "gen", "--spec", "zipf:0.9,ws=200,acc=300,wf=0.3", "--out", "z.nwtrace"],
            &["workload", "gen", "--spec", "uniform,ws=200,acc=300,wf=0.3", "--out", "u.nwtrace"],
        ],
        base: &["--trace", "z.nwtrace", "--scale", "0.05"],
        rows: machine_flags![
            (&[], &["--trace", "u.nwtrace"]),
            (&[], &["--json"]),
        ],
    },
    VerbRows {
        prog: "reproduce",
        verb: "",
        setup: &[],
        base: &["--scale", "0.05", "--trace-cell", "workload:gen:zipf:0.9,ws=200,acc=300,wf=0.3:nwc:naive"],
        rows: &[
            (&[], &["--scale", "0.5"]),
            (&[], &["--trace-cell", "workload:gen:zipf:0.9,ws=200,acc=300,wf=0.3:std:naive"]),
            (&[], &["--trace-out", "t.json"]),
            (&[], &["--json", "sweep.json"]),
            (&[], &["--scale-json", "scale.json"]),
        ],
    },
];

/// `(prog, verb, flag, reason)`; flag `*` exempts every flag of the
/// verb.
const EXEMPT: &[(&str, &str, &str, &str)] = &[
    ("nwsim", "compare", "--jobs", "bit-identical by design: the worker count never reaches a result"),
    ("reproduce", "", "--jobs", "bit-identical by design: the worker count never reaches a result"),
    ("nwsim", "serve", "*", "a resident server; covered by crates/server/tests/serve.rs and serve_cli.rs"),
    ("nwsim", "client run", "*", "needs a server; covered by crates/server/tests/serve.rs and serve_cli.rs"),
    ("nwsim", "client sweep", "*", "needs a server; covered by crates/server/tests/serve.rs and serve_cli.rs"),
    ("nwsim", "client metrics", "*", "needs a server; covered by serve_cli.rs"),
    ("nwsim", "client ping", "*", "needs a server; covered by serve_cli.rs"),
    ("nwsim", "client shutdown", "*", "needs a server; covered by serve_cli.rs"),
];

fn cli(prog: &str) -> &'static Cli {
    if prog == "nwsim" { &NWSIM } else { &REPRODUCE }
}

/// Whether `flag` of `prog verb` takes a value.
fn takes_value(prog: &str, verb: &str, flag: &str) -> bool {
    let v = cli(prog).verbs.iter().find(|v| v.name == verb).expect("declared verb");
    let (_, metavar) = v.all_flags().find(|(name, _)| *name == flag).expect("declared flag");
    metavar.is_some()
}

/// `argv` with `words` on top: a flag already in `argv` gets the new
/// value, any other word is appended.
fn with(prog: &str, verb: &str, argv: &[String], words: &[&str]) -> Vec<String> {
    let mut out = argv.to_vec();
    let mut i = 0;
    while i < words.len() {
        let flag = words[i];
        let n = if takes_value(prog, verb, flag) { 2 } else { 1 };
        let at = match out.iter().position(|w| w == flag) {
            Some(at) => at..at + n,
            None => out.len()..out.len(),
        };
        out.splice(at, words[i..i + n].iter().map(|w| w.to_string()));
        i += n;
    }
    out
}

/// What one command leaves behind: its exit code, its stdout and every
/// file in its directory.
#[derive(Debug, PartialEq)]
struct Seen {
    code: Option<i32>,
    stdout: Vec<u8>,
    files: BTreeMap<String, Vec<u8>>,
}

fn bin(prog: &str) -> Command {
    Command::new(if prog == "nwsim" { env!("CARGO_BIN_EXE_nwsim") } else { env!("CARGO_BIN_EXE_reproduce") })
}

/// Run `prog verb argv` in a fresh directory `dir`, after `setup`.
fn observe(dir: &Path, v: &VerbRows, argv: &[String]) -> Seen {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("scratch directory");
    for cmd in v.setup {
        let out = bin("nwsim").args(*cmd).current_dir(dir).output().expect("spawn setup");
        assert!(out.status.success(), "setup {cmd:?}: {}", String::from_utf8_lossy(&out.stderr));
    }
    let out = bin(v.prog)
        .args(v.verb.split_whitespace())
        .args(argv)
        .current_dir(dir)
        .output()
        .unwrap_or_else(|e| panic!("spawn {}: {e}", v.prog));
    let files = std::fs::read_dir(dir)
        .expect("read scratch directory")
        .map(|e| {
            let e = e.expect("directory entry");
            (e.file_name().to_string_lossy().into_owned(), std::fs::read(e.path()).expect("read file"))
        })
        .collect();
    Seen { code: out.status.code(), stdout: out.stdout, files }
}

fn scratch(prog: &str, n: usize) -> PathBuf {
    std::env::temp_dir().join(format!("nw-liveness-{}-{prog}-{n}", std::process::id()))
}

/// The gate over one binary's table.
fn check_cli(c: &'static Cli) {
    // Every declared pair has a row or an exemption.
    let mut missing = Vec::new();
    for verb in c.verbs {
        for (flag, _) in verb.all_flags() {
            let exempt =
                EXEMPT.iter().any(|&(p, v, f, _)| p == c.prog && v == verb.name && (f == flag || f == "*"));
            let row = VERBS.iter().any(|r| {
                r.prog == c.prog && r.verb == verb.name && r.rows.iter().any(|(_, words)| words[0] == flag)
            });
            if !exempt && !row {
                missing.push(format!("{} {} {flag}", c.prog, verb.name));
            }
        }
    }
    assert!(missing.is_empty(), "flags with neither a row nor an exemption: {missing:?}");
    for &(prog, verb, flag, reason) in EXEMPT.iter().filter(|e| e.0 == c.prog) {
        let v = c.verbs.iter().find(|v| v.name == verb);
        let declared = v.is_some_and(|v| flag == "*" || v.all_flags().any(|(f, _)| f == flag));
        assert!(declared && !reason.is_empty(), "stale exemption {prog} {verb} {flag}");
    }
    // Every row changes what the command leaves behind.
    let (a, b) = (scratch(c.prog, 0), scratch(c.prog, 1));
    let mut dead = Vec::new();
    for v in VERBS.iter().filter(|v| v.prog == c.prog) {
        let base: Vec<String> = v.base.iter().map(|w| w.to_string()).collect();
        for (context, words) in v.rows {
            let without = with(v.prog, v.verb, &base, context);
            if observe(&a, v, &without) == observe(&b, v, &with(v.prog, v.verb, &without, words)) {
                dead.push(format!("{} {} {}", v.prog, v.verb, words.join(" ")));
            }
        }
    }
    let _ = std::fs::remove_dir_all(&a);
    let _ = std::fs::remove_dir_all(&b);
    assert!(dead.is_empty(), "these flags changed nothing: {dead:?}");
}

#[test]
fn every_nwsim_flag_changes_an_output_or_is_exempt() {
    check_cli(&NWSIM);
}

#[test]
fn every_reproduce_flag_changes_an_output_or_is_exempt() {
    check_cli(&REPRODUCE);
}
