//! CLI-level tests for `nwsim`: the workload subcommands and the
//! unknown-app error path, exercised through the real binary.

use std::path::PathBuf;
use std::process::Command;

fn nwsim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nwsim"))
}

/// A per-test scratch file path under the target-specific temp dir.
fn scratch(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nwsim-cli-{}-{name}", std::process::id()));
    p
}

#[test]
fn unknown_app_lists_registry_and_workload_syntax() {
    let out = nwsim()
        .args(["run", "--app", "guass", "--scale", "0.05"])
        .output()
        .expect("spawn nwsim");
    assert_eq!(out.status.code(), Some(2), "unknown app must exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown app 'guass'"), "{stderr}");
    for name in ["em3d", "fft", "gauss", "lu", "mg", "radix", "sor"] {
        assert!(stderr.contains(name), "missing '{name}' in: {stderr}");
    }
    assert!(stderr.contains("workload:<trace-file>"), "{stderr}");
    assert!(stderr.contains("workload:gen:<spec>"), "{stderr}");
}

#[test]
fn bad_scenario_spec_fails_with_reason() {
    let out = nwsim()
        .args(["run", "--app", "workload:gen:lru,ws=4"])
        .output()
        .expect("spawn nwsim");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown pattern 'lru'"), "{stderr}");
}

#[test]
fn gen_describe_replay_round_trip() {
    let spec = "zipf:0.9,ws=24,acc=300,wf=0.4,cpa=10";
    let path = scratch("gen.nwtrace");
    let path_s = path.to_str().unwrap();

    // gen: materialize the scenario to a trace file.
    let out = nwsim()
        .args(["workload", "gen", "--spec", spec, "--out", path_s])
        .output()
        .expect("spawn nwsim");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    // describe: decodes, validates, and reports the stream shape.
    let out = nwsim()
        .args(["workload", "describe", path_s])
        .output()
        .expect("spawn nwsim");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("valid nwtrace-v1"), "{stdout}");
    assert!(stdout.contains(spec), "{stdout}");
    assert!(stdout.contains("procs:      8"), "{stdout}");

    // replay the file vs generating on the fly in `run`: the default
    // gen seed matches the machine's default workload seed, so the
    // two JSON summaries must be byte-identical.
    let replayed = nwsim()
        .args(["workload", "replay", "--trace", path_s, "--scale", "0.05", "--json"])
        .output()
        .expect("spawn nwsim");
    assert!(replayed.status.success(), "{}", String::from_utf8_lossy(&replayed.stderr));
    let direct = nwsim()
        .args(["run", "--app", &format!("workload:gen:{spec}"), "--scale", "0.05", "--json"])
        .output()
        .expect("spawn nwsim");
    assert!(direct.status.success(), "{}", String::from_utf8_lossy(&direct.stderr));
    assert_eq!(
        String::from_utf8_lossy(&replayed.stdout),
        String::from_utf8_lossy(&direct.stdout),
        "file replay diverged from on-the-fly generation"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn record_then_replay_matches_direct_run() {
    let path = scratch("gauss.nwtrace");
    let path_s = path.to_str().unwrap();
    let out = nwsim()
        .args(["workload", "record", "--app", "gauss", "--scale", "0.05", "--out", path_s, "--binary"])
        .output()
        .expect("spawn nwsim");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));

    let replayed = nwsim()
        .args(["workload", "replay", "--trace", path_s, "--scale", "0.05", "--json"])
        .output()
        .expect("spawn nwsim");
    assert!(replayed.status.success(), "{}", String::from_utf8_lossy(&replayed.stderr));
    let direct = nwsim()
        .args(["run", "--app", "gauss", "--scale", "0.05", "--json"])
        .output()
        .expect("spawn nwsim");
    assert!(direct.status.success(), "{}", String::from_utf8_lossy(&direct.stderr));
    assert_eq!(
        String::from_utf8_lossy(&replayed.stdout),
        String::from_utf8_lossy(&direct.stdout),
        "recorded gauss replay diverged from the direct run"
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn topo_flag_builds_generated_machines() {
    let out = nwsim()
        .args(["config", "--topo", "mesh=4x4,io=spread:4,rings=2,dirshards=4"])
        .output()
        .expect("spawn nwsim");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    for want in ["nodes: 16", "mesh_width: 4", "ring_count: 2", "dir_shards: 4"] {
        assert!(stdout.contains(want), "missing '{want}' in: {stdout}");
    }

    for (spec, reason) in [
        ("mesh=0x4", "has no nodes"),
        ("mesh=8x8,io=corners", "unknown io placement 'corners' (only spread is supported)"),
    ] {
        let bad = nwsim().args(["config", "--topo", spec]).output().expect("spawn nwsim");
        assert_eq!(bad.status.code(), Some(2), "{spec} must be rejected");
        let stderr = String::from_utf8_lossy(&bad.stderr);
        assert!(stderr.contains("bad --topo") && stderr.contains(reason), "{spec}: {stderr}");
    }
}

/// One test per documented exit code (DESIGN.md §18): scripts and the
/// server's `JobError` mapping both rely on these exact values, so
/// they are frozen here against the real binary.
#[test]
fn exit_codes_are_the_documented_enum() {
    let app = "workload:gen:zipf:0.9,ws=16,acc=400";

    // 0 — success.
    let ok = nwsim()
        .args(["run", "--app", app, "--json"])
        .output()
        .expect("spawn nwsim");
    assert_eq!(ok.status.code(), Some(0), "{}", String::from_utf8_lossy(&ok.stderr));

    // 2 — validation error (unknown app name).
    let bad = nwsim().args(["run", "--app", "guass"]).output().expect("spawn nwsim");
    assert_eq!(bad.status.code(), Some(2));

    // 3 — simulation fault (autosave into a nonexistent directory is
    // an I/O fault at run time, past validation).
    let missing_dir = scratch("no-such-dir").join("x.nwckpt");
    let fault = nwsim()
        .args([
            "run", "--app", app,
            "--checkpoint", missing_dir.to_str().unwrap(),
            "--checkpoint-every", "500",
        ])
        .output()
        .expect("spawn nwsim");
    assert_eq!(
        fault.status.code(),
        Some(3),
        "{}",
        String::from_utf8_lossy(&fault.stderr)
    );

    // Save two checkpoints stopped at different points for codes 1/4.
    let a = scratch("exit-a.nwckpt");
    let b = scratch("exit-b.nwckpt");
    for (path, stop) in [(&a, "700"), (&b, "1300")] {
        let out = nwsim()
            .args([
                "run", "--app", app,
                "--checkpoint", path.to_str().unwrap(),
                "--checkpoint-every", "300",
                "--stop-after", stop,
            ])
            .output()
            .expect("spawn nwsim");
        assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    }

    // 1 — gate failure: ckpt-diff over genuinely different states.
    let diff = nwsim()
        .args(["ckpt-diff", a.to_str().unwrap(), b.to_str().unwrap()])
        .output()
        .expect("spawn nwsim");
    assert_eq!(diff.status.code(), Some(1), "{}", String::from_utf8_lossy(&diff.stdout));

    // 4 — corrupt checkpoint: flip one payload byte and resume.
    let mut bytes = std::fs::read(&a).expect("read checkpoint");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&a, &bytes).expect("rewrite checkpoint");
    let corrupt = nwsim()
        .args(["resume", a.to_str().unwrap()])
        .output()
        .expect("spawn nwsim");
    assert_eq!(
        corrupt.status.code(),
        Some(4),
        "{}",
        String::from_utf8_lossy(&corrupt.stderr)
    );

    std::fs::remove_file(&a).ok();
    std::fs::remove_file(&b).ok();
}

fn reproduce() -> Command {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
}

/// `--sim-threads` is gone: every verb that took it refuses it with
/// exit 2, before doing any work, and names the two commands that take
/// `--jobs`.
#[test]
fn removed_sim_threads_flag_points_to_jobs() {
    let nwsim_calls: [&[&str]; 4] = [
        &["run", "--app", "sor", "--sim-threads", "4"],
        &["resume", "missing.nwckpt", "--sim-threads", "1"],
        &["compare", "--sim-threads", "4"],
        &["serve", "--sim-threads", "2"],
    ];
    let outs = nwsim_calls
        .iter()
        .map(|argv| (argv.join(" "), nwsim().args(*argv).output().expect("spawn nwsim")))
        .chain(std::iter::once((
            "reproduce --sim-threads 4 table3".to_string(),
            reproduce()
                .args(["--sim-threads", "4", "table3"])
                .output()
                .expect("spawn reproduce"),
        )));
    for (call, out) in outs {
        assert_eq!(out.status.code(), Some(2), "{call}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--sim-threads was removed"), "{call}: {stderr}");
        assert!(stderr.contains("`nwsim compare` and `reproduce` take --jobs N"), "{call}: {stderr}");
        assert!(out.stdout.is_empty(), "{call} printed output");
    }
}

/// A misspelt target or flag used to match nothing and exit 0 with no
/// output; now it exits 2 and lists the valid targets.
#[test]
fn reproduce_rejects_unknown_targets_and_flags() {
    for argv in [
        ["--scale", "0.05", "tabel3"],
        ["--scale", "0.05", "--tabel3"],
        ["table3", "--scale", "0.05x"],
    ] {
        let out = reproduce().args(argv).output().expect("spawn reproduce");
        assert_eq!(out.status.code(), Some(2), "{argv:?}");
        assert!(out.stdout.is_empty(), "{argv:?} printed output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        if argv[2].contains("tabel3") {
            assert!(stderr.contains("unknown"), "{argv:?}: {stderr}");
            for target in ["table3", "fig4", "scale", "faults", "all"] {
                assert!(stderr.contains(target), "{argv:?}: no '{target}' in {stderr}");
            }
        } else {
            assert!(stderr.contains("--scale needs a number"), "{stderr}");
        }
    }
}

/// Every usage error exits 2 with nothing on stdout and the reason on
/// stderr — never a panic (101) or a failed allocation (134).
#[test]
fn usage_errors_exit_2_with_reason() {
    let gen = "workload:gen:zipf:0.9,ws=16,acc=400";
    let rows: &[(&str, &[&str], &str)] = &[
        ("nwsim", &["run", "--app", gen, "--bogus", "1"], "unknown flag '--bogus'"),
        ("nwsim", &["apps", "--x", "1"], "unknown flag '--x'"),
        ("nwsim", &["workload", "gen", "--spec", "uniform,ws=8,acc=10", "--bogus", "3"], "unknown flag '--bogus'"),
        ("nwsim", &["run", "--seed", "1", "--seed", "2"], "flag --seed given twice"),
        ("nwsim", &["ckpt-validate", "PATH", "extra"], "unexpected argument 'extra'"),
        ("nwsim", &["ckpt-diff", "A"], "missing B"),
        ("nwsim", &["run", "--help"], "unknown flag '--help'"),
        ("nwsim", &["run", "--app", gen, "--scale"], "flag --scale needs a value"),
        ("nwsim", &["run", "--app", gen, "--seed", "x"], "bad --seed 'x'"),
        ("nwsim", &["config", "--checkpoint-every", "0"], "unknown flag '--checkpoint-every'"),
        ("nwsim", &["run", "--app", gen, "--checkpoint-every", "0"], "--checkpoint-every must be positive"),
        ("nwsim", &["workload", "bogus"], "unknown command 'workload bogus'"),
        ("nwsim", &["bench"], "unknown command 'bench'"),
        ("nwsim", &["bench-validate"], "unknown command 'bench-validate'"),
        ("nwsim", &["compare", "--app", gen, "--scale", "2.0"], "scale 2 out of range (0, 1]"),
        ("nwsim", &["run", "--app", gen, "--disk-cache", "0"], "disk_cache_pages must be in 1..="),
        ("nwsim", &["run", "--app", gen, "--ring-slots", "0"], "ring_slots_per_channel must be in 1..="),
        ("nwsim", &["run", "--app", gen, "--disk-cache", "100000000000"], "disk_cache_pages must be in 1..="),
        ("nwsim", &["run", "--app", gen, "--ring-slots", "100000000000"], "ring_slots_per_channel must be in 1..="),
        ("nwsim", &["run", "--app", "sor", "--scale", "0.05", "--machine", "nwcache", "--topo", "mesh=4x2,rings=1099511627776"], "ring_count must be in 1..="),
        ("nwsim", &["run", "--app", gen, "--topo", "mesh=4x2,rings=100000000"], "ring_count must be in 1..="),
        ("nwsim", &["run", "--app", "sor", "--topo", "mesh=4x2,dirshards=18446744073709551615"], "dir_shards must be in 1..=8"),
        ("nwsim", &["run", "--app", gen, "--prefetch", "adaptive:1099511627776"], "prefetch_window must be at most"),
        ("nwsim", &["run", "--app", "workload:gen:zipf,ws=1099511627776,acc=1", "--scale", "0.05"], "working set must be at most"),
        ("nwsim", &["run", "--app", "workload:gen:seq,ws=288230376151711744,acc=1"], "working set must be at most"),
        ("nwsim", &["run", "--app", "workload:gen:uniform,ws=64,acc=1000000000000"], "accesses summed over phases must be at most"),
        ("nwsim", &["run", "--app", "workload:gen:seq,acc=1,bar=4294967295"], "barriers summed over phases must be at most"),
        ("nwsim", &["workload", "gen", "--spec", "uniform,ws=64,acc=20000", "--procs", "1024"], "must total at most"),
        ("reproduce", &["--scale", "2.0", "table3"], "--scale needs a number in (0, 1]"),
        ("reproduce", &["--scale", "0", "table3"], "--scale needs a number in (0, 1]"),
        ("reproduce", &["--scale", "-1", "table3"], "--scale needs a number in (0, 1]"),
        ("reproduce", &["--scale", "NaN", "table3"], "--scale needs a number in (0, 1]"),
        ("reproduce", &["--scale", "0.1", "--scale", "0.2"], "flag --scale given twice"),
        ("reproduce", &["--trace-cell", "bogus"], "--trace-cell: wants app:machine:prefetch"),
        ("reproduce", &["--trace-cell", "sor:nwc:bogus"], "--trace-cell: unknown prefetch 'bogus'"),
        ("reproduce", &["--trace-cell", "sor:bogus:naive"], "--trace-cell: unknown machine 'bogus'"),
        // Words no handler read are refused, not ignored.
        ("reproduce", &["--faults", "--scale", "0.1"], "unknown flag '--faults'"),
        ("nwsim", &["run", "--app", gen, "--jobs", "2"], "unknown flag '--jobs'"),
        ("nwsim", &["workload", "replay", "--trace", "t.nwtrace", "--binary"], "unknown flag '--binary'"),
        ("nwsim", &["client", "sweep", "--addr", "127.0.0.1:1", "--trace-out", "t.json"], "unknown flag '--trace-out'"),
    ];
    for (prog, argv, reason) in rows {
        let mut cmd = if *prog == "nwsim" { nwsim() } else { reproduce() };
        let out = cmd.args(*argv).output().expect("spawn");
        let call = format!("{prog} {}", argv.join(" "));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{call}: {stderr}");
        assert!(out.stdout.is_empty(), "{call} printed output");
        assert!(stderr.contains(reason), "{call}: no '{reason}' in {stderr}");
        assert!(stderr.contains("usage:"), "{call}: no synopsis in {stderr}");
    }
}

/// `compare` lowers each machine like `run`, so `--seed` reaches the
/// generated workload.
#[test]
fn compare_honours_seed() {
    let table = |seed: &str| {
        let out = nwsim()
            .args(["compare", "--app", "workload:gen:zipf:0.9,ws=16,acc=400", "--seed", seed])
            .output()
            .expect("spawn nwsim");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        out.stdout
    };
    assert_ne!(table("5"), table("9"), "--seed did not change the compare table");
}

/// A reader that goes away early ends either binary with the documented
/// status 141 and no panic. `nwsim trace --text` writes far more than a
/// pipe holds, so it is still writing when the read end closes;
/// `reproduce` finds the read end closed before its first line.
#[test]
fn closed_stdout_exits_141_without_a_panic() {
    use std::io::Read;
    use std::process::Stdio;
    let spawn = |mut cmd: Command| {
        cmd.stdout(Stdio::piped()).stderr(Stdio::piped()).spawn().expect("spawn")
    };
    let mut cmd = nwsim();
    let out = scratch("closed-stdout.json");
    cmd.args(["trace", "--app", "sor", "--scale", "0.05", "--text", "--trace-out"]).arg(&out);
    let mut trace = spawn(cmd);
    let mut head = [0u8; 64];
    trace.stdout.take().expect("piped").read_exact(&mut head).expect("the timeline starts");
    assert!(head.starts_with(b"# trace: app=sor"), "{}", String::from_utf8_lossy(&head));
    let mut cmd = reproduce();
    cmd.args(["--scale", "0.05", "table3"]);
    let mut table = spawn(cmd);
    drop(table.stdout.take());
    for child in [trace, table] {
        let out = child.wait_with_output().expect("wait");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(141), "{stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
    }
    // The timeline is printed before the trace file is written.
    assert!(!out.exists());
}
