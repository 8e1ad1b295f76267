//! End-to-end `nwserve-v1` tests: a real [`Server`] on a loopback
//! port, real [`Connection`] clients, and byte-identity against the
//! in-process batch paths.

use nw_server::proto::{CODE_CANCELED, CODE_DEADLINE};
use nw_server::{Connection, JobKind, JobSpec, Response, ServeOptions, Server, ServerHandle};
use nwcache::config::{MachineKind, PrefetchMode, RunParams};
use nwcache::metrics::summaries_to_json;
use nwcache::workload::AppSel;
use nwcache::{checkpoint, try_run_sel};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::thread;

/// A fast generated workload (finishes in well under a second).
const QUICK: &str = "workload:gen:zipf:0.9,ws=64,acc=2000";
/// A workload long enough to cancel / drain / deadline mid-run.
const LONG: &str = "workload:gen:zipf:0.9,ws=256,acc=8000";

fn scratch_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nwserve-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    std::fs::create_dir_all(&p).unwrap();
    p
}

fn start(opts: ServeOptions) -> (String, ServerHandle, thread::JoinHandle<nw_server::ServeStats>) {
    let server = Server::bind(opts).expect("bind");
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.handle();
    let join = thread::spawn(move || server.run());
    (addr, handle, join)
}

fn run_spec(spec: &str) -> JobSpec {
    JobSpec {
        kind: JobKind::Run,
        spec: spec.into(),
        machines: vec!["nwcache".into()],
        ..JobSpec::default()
    }
}

/// The batch-side reference JSON for one cell of a job.
fn batch_json(spec: &JobSpec, machine: &str) -> String {
    let (prefetch, window) = PrefetchMode::parse_spec(&spec.prefetch).unwrap();
    let params = RunParams {
        machine: MachineKind::parse(machine).unwrap(),
        prefetch,
        prefetch_window: window,
        scale: spec.scale,
        seed: spec.seed,
        topo: spec.topo.clone(),
    };
    let cfg = params.to_config().unwrap();
    let sel = AppSel::parse(&spec.spec).unwrap();
    try_run_sel(&cfg, &sel).unwrap().summary().to_json()
}

#[test]
fn run_job_matches_batch_json_byte_for_byte() {
    let (addr, handle, join) = start(ServeOptions::default());
    let mut conn = Connection::connect(&addr).unwrap();
    conn.ping().unwrap();
    let spec = run_spec(QUICK);
    let result = conn.run_job(&spec, |_| {}).unwrap();
    assert_eq!(result.code, 0, "{:?}", result.message);
    assert!(!result.warm_hit);
    assert_eq!(result.json.as_deref(), Some(batch_json(&spec, "nwcache").as_str()));
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn sweep_job_streams_progress_and_matches_summaries_json() {
    let (addr, handle, join) = start(ServeOptions::default());
    let mut conn = Connection::connect(&addr).unwrap();
    let spec = JobSpec {
        kind: JobKind::Sweep,
        spec: QUICK.into(),
        machines: vec!["standard".into(), "nwcache".into(), "dcd".into()],
        progress_every: 500,
        ..JobSpec::default()
    };
    let mut progress = 0u32;
    let mut cells_seen = Vec::new();
    let result = conn
        .run_job(&spec, |e| {
            if let Response::Progress { cell, cells, .. } = e {
                progress += 1;
                assert_eq!(*cells, 3);
                cells_seen.push(*cell);
            }
        })
        .unwrap();
    assert_eq!(result.code, 0, "{:?}", result.message);
    assert!(progress > 0, "expected at least one Progress frame");
    assert!(cells_seen.windows(2).all(|w| w[0] <= w[1]), "{cells_seen:?}");
    // The sweep JSON is the deterministic summaries array, identical
    // to running the three cells cold in-process.
    let expect: Vec<_> = ["standard", "nwcache", "dcd"]
        .iter()
        .map(|m| {
            let (prefetch, window) = PrefetchMode::parse_spec(&spec.prefetch).unwrap();
            let params = RunParams {
                machine: MachineKind::parse(m).unwrap(),
                prefetch,
                prefetch_window: window,
                scale: spec.scale,
                seed: spec.seed,
                topo: spec.topo.clone(),
            };
            let cfg = params.to_config().unwrap();
            let sel = AppSel::parse(&spec.spec).unwrap();
            try_run_sel(&cfg, &sel).unwrap().summary()
        })
        .collect();
    assert_eq!(result.json.as_deref(), Some(summaries_to_json(&expect).as_str()));
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn concurrent_jobs_on_separate_connections_are_isolated() {
    let (addr, handle, join) = start(ServeOptions::default());
    let specs = [
        run_spec(QUICK),
        run_spec("workload:gen:uniform,ws=32,acc=1500"),
    ];
    let workers: Vec<_> = specs
        .iter()
        .cloned()
        .map(|spec| {
            let addr = addr.clone();
            thread::spawn(move || {
                let mut conn = Connection::connect(&addr).unwrap();
                let result = conn.run_job(&spec, |_| {}).unwrap();
                (spec, result)
            })
        })
        .collect();
    for w in workers {
        let (spec, result) = w.join().unwrap();
        assert_eq!(result.code, 0, "{:?}", result.message);
        assert_eq!(
            result.json.as_deref(),
            Some(batch_json(&spec, "nwcache").as_str()),
            "job for {} diverged from the batch CLI",
            spec.spec
        );
    }
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn warm_start_misses_then_hits_and_stays_bit_identical() {
    let (addr, handle, join) = start(ServeOptions::default());
    let mut conn = Connection::connect(&addr).unwrap();
    let cold = conn.run_job(&run_spec(QUICK), |_| {}).unwrap();
    assert_eq!(cold.code, 0);

    let mut warm = run_spec(QUICK);
    warm.warmup_events = 500;
    let first = conn.run_job(&warm, |_| {}).unwrap();
    assert_eq!(first.code, 0, "{:?}", first.message);
    assert!(!first.warm_hit, "first warm run must miss the cache");
    let second = conn.run_job(&warm, |_| {}).unwrap();
    assert_eq!(second.code, 0, "{:?}", second.message);
    assert!(second.warm_hit, "second warm run must hit the cache");

    // Cold, warm-miss and warm-hit must all be byte-identical.
    assert_eq!(cold.json, first.json);
    assert_eq!(first.json, second.json);

    // Paranoid mode re-warms cold and diffs the cached checkpoint:
    // an honest cache passes.
    let mut verify = warm.clone();
    verify.verify_warm = true;
    let third = conn.run_job(&verify, |_| {}).unwrap();
    assert_eq!(third.code, 0, "{:?}", third.message);
    assert!(third.warm_hit);
    assert_eq!(third.json, cold.json);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn cancel_mid_job_yields_the_canceled_code() {
    let (addr, handle, join) = start(ServeOptions::default());
    let mut conn = Connection::connect(&addr).unwrap();
    let mut spec = run_spec(LONG);
    spec.progress_every = 200;
    let job = conn.submit(&spec).unwrap();
    let mut canceled = false;
    loop {
        match conn.next_event().unwrap() {
            Response::Progress { .. } => {
                if !canceled {
                    conn.cancel(job).unwrap();
                    canceled = true;
                }
            }
            Response::JobError { code, message, .. } => {
                assert_eq!(code, CODE_CANCELED, "{message}");
                break;
            }
            Response::Done { .. } => panic!("job finished despite cancel"),
            other => panic!("unexpected frame {other:?}"),
        }
    }
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn expired_deadline_yields_the_deadline_code() {
    let (addr, handle, join) = start(ServeOptions::default());
    let mut conn = Connection::connect(&addr).unwrap();
    let mut spec = run_spec(LONG);
    spec.progress_every = 200;
    spec.deadline_ms = 1;
    let result = conn.run_job(&spec, |_| {}).unwrap();
    assert_eq!(result.code, CODE_DEADLINE, "{:?}", result.message);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn validation_errors_carry_the_cli_exit_code() {
    let (addr, handle, join) = start(ServeOptions::default());
    let mut conn = Connection::connect(&addr).unwrap();
    // Unknown machine and unknown app are both validation failures
    // (exit code 2 in the CLI).
    let mut bad_machine = run_spec(QUICK);
    bad_machine.machines = vec!["warpdrive".into()];
    let r = conn.run_job(&bad_machine, |_| {}).unwrap();
    assert_eq!(r.code, 2, "{:?}", r.message);
    assert!(r.message.unwrap().contains("warpdrive"));
    let bad_app = run_spec("guass");
    let r = conn.run_job(&bad_app, |_| {}).unwrap();
    assert_eq!(r.code, 2, "{:?}", r.message);
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn hostile_scenario_dials_are_job_errors_and_the_server_lives() {
    // Each spec used to abort, panic or exhaust the server process.
    let (addr, handle, join) = start(ServeOptions::default());
    let mut conn = Connection::connect(&addr).unwrap();
    // 1,000 Zipf phases, each within bounds, whose CDFs total 8 GB.
    let zipf_phases = format!("workload:gen:{}", vec!["zipf:1,ws=1048576,acc=1"; 1000].join(";"));
    for hostile in [
        "workload:gen:zipf,ws=1099511627776,acc=1",
        "workload:gen:seq,ws=288230376151711744,acc=1",
        "workload:gen:uniform,ws=64,acc=1000000000000",
        "workload:gen:seq,acc=1,bar=4294967295",
        &zipf_phases,
    ] {
        for warmup_events in [0, 100] {
            let spec = JobSpec { warmup_events, ..run_spec(hostile) };
            let r = conn.run_job(&spec, |_| {}).unwrap();
            assert_eq!(r.code, 2, "{hostile}: {:?}", r.message);
            assert!(r.message.unwrap().contains("must be at most"), "{hostile}");
        }
    }
    // Within every per-processor bound, but 20,000 accesses on each of
    // 1,024 nodes.
    let wide = JobSpec { topo: Some("mesh=32x32".into()), ..run_spec("workload:gen:uniform,ws=64,acc=20000") };
    let r = conn.run_job(&wide, |_| {}).unwrap();
    assert_eq!(r.code, 2, "{:?}", r.message);
    assert!(r.message.unwrap().contains("must total at most"));
    Connection::connect(&addr).unwrap().ping().unwrap();
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn metrics_served_over_protocol_and_plain_http() {
    let (addr, handle, join) = start(ServeOptions::default());
    let mut conn = Connection::connect(&addr).unwrap();
    conn.run_job(&run_spec(QUICK), |_| {}).unwrap();
    let text = conn.metrics_text().unwrap();
    assert!(text.contains("nwserve_jobs_completed_total 1"), "{text}");
    assert!(text.contains("nwserve_jobs_submitted_total 1"), "{text}");
    assert!(text.contains("nwsim_runs_completed_total"), "{text}");

    // Same port, plain HTTP.
    let mut http = std::net::TcpStream::connect(&addr).unwrap();
    http.write_all(b"GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n").unwrap();
    let mut page = String::new();
    http.read_to_string(&mut page).unwrap();
    assert!(page.starts_with("HTTP/1.0 200 OK"), "{page}");
    assert!(page.contains("nwserve_http_scrapes_total 1"), "{page}");
    assert!(page.contains("nwserve_jobs_completed_total 1"), "{page}");
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn drain_autosaves_the_running_job_and_refuses_new_work() {
    let dir = scratch_dir("drain");
    let opts = ServeOptions {
        autosave_dir: dir.clone(),
        ..ServeOptions::default()
    };
    let (addr, handle, join) = start(opts);
    let mut conn = Connection::connect(&addr).unwrap();
    let mut spec = run_spec(LONG);
    spec.progress_every = 200;
    let job = conn.submit(&spec).unwrap();
    let mut requested = false;
    let path = loop {
        match conn.next_event().unwrap() {
            Response::Progress { .. } => {
                if !requested {
                    handle.shutdown();
                    requested = true;
                }
            }
            Response::Drained { job: id, path, events } => {
                assert_eq!(id, job);
                assert!(events > 0);
                break PathBuf::from(path);
            }
            Response::Done { .. } => panic!("job outran the drain; grow LONG"),
            other => panic!("unexpected frame {other:?}"),
        }
    };
    // The autosave is a valid nwckpt-v1 container...
    checkpoint::validate_file(&path).expect("drained autosave must validate");
    // ...and resuming it finishes the run bit-identically to a cold
    // uninterrupted run.
    let (meta, mut machine) = checkpoint::load_file(&path).unwrap();
    assert_eq!(meta.spec, LONG);
    let resumed = match machine.try_run_events(u64::MAX).unwrap() {
        nwcache::RunOutcome::Done(m) => m.summary().to_json(),
        nwcache::RunOutcome::Paused => panic!("unbounded resume paused"),
    };
    assert_eq!(resumed, batch_json(&spec, "nwcache"));

    // After the drain the connection receives an unsolicited
    // ShuttingDown notice and is closed — new submissions fail.
    match conn.next_event().unwrap() {
        Response::ShuttingDown => {}
        other => panic!("expected ShuttingDown after drain, got {other:?}"),
    }
    assert!(conn.submit(&spec).is_err(), "draining server must refuse work");

    let stats = join.join().unwrap();
    assert_eq!(stats.jobs_drained, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_frame_drains_an_idle_server() {
    let (addr, _handle, join) = start(ServeOptions::default());
    let mut conn = Connection::connect(&addr).unwrap();
    conn.shutdown_server().unwrap();
    let stats = join.join().unwrap();
    assert_eq!(stats.jobs_drained, 0);
    assert_eq!(stats.jobs_completed, 0);
}
