//! The benchmark's own checks: metric names, the declared metric set,
//! and a tiny-size smoke pass of every workload, untraced and traced.

use nw_perfbench::report::{END_TO_END, PER_LAYER};
use nw_perfbench::{run, Options, Size, Workload};

fn valid_name(n: &str) -> bool {
    !n.is_empty()
        && n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

#[test]
fn metric_and_workload_names_are_valid_and_unique() {
    let mut names: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .map(|&(n, _)| n)
        .collect();
    names.extend(Workload::ALL.iter().map(|w| w.name()));
    for n in &names {
        assert!(valid_name(n), "bad name {n}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "a name is used twice");
    for &(n, u) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "bad unit {u} of {n}"
        );
    }
}

/// Every `"name": "…"` value in `BENCHMARK.json`, in file order.
fn declared_names(json: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = json;
    while let Some(i) = rest.find("\"name\"") {
        rest = rest[i + 6..]
            .trim_start()
            .trim_start_matches(':')
            .trim_start();
        let body = rest.strip_prefix('"').expect("name value is a string");
        let end = body.find('"').expect("terminated string");
        out.push(body[..end].to_string());
        rest = &body[end..];
    }
    out
}

#[test]
fn benchmark_json_declares_exactly_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let want: Vec<String> = Workload::ALL
        .iter()
        .map(|w| w.name())
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|&(n, _)| n))
        .map(str::to_string)
        .collect();
    assert_eq!(declared_names(&json), want);
}

fn tiny(workload: Workload, trace: bool) -> Options {
    Options {
        workload,
        seed: 3,
        seconds: 0.01,
        trace,
        size: Size::Tiny,
        out_dir: std::env::temp_dir().join(format!("nw-perfbench-test-{}", std::process::id())),
    }
}

/// One test runs every workload in turn: the process-wide simulation
/// totals the benchmark reads as event bases must not see other tests'
/// runs.
#[test]
fn every_workload_smoke_passes_with_identical_traced_digest() {
    for w in Workload::ALL {
        let plain = run(&tiny(w, false));
        assert!(plain.correct, "{}: {:?}", w.name(), plain.notes);
        assert_eq!(plain.failed, 0, "{}: error_rate must be 0", w.name());
        assert!(plain.attempted > 0);
        let got: Vec<&str> = plain.metrics.iter().map(|&(n, _)| n).collect();
        let want: Vec<&str> = END_TO_END.iter().map(|&(n, _)| n).collect();
        assert_eq!(got, want, "{}", w.name());
        for &(n, v) in &plain.metrics {
            assert!(v.is_finite() && v > 0.0, "{}: {n} = {v}", w.name());
        }

        let traced = run(&tiny(w, true));
        assert!(traced.correct, "{}: {:?}", w.name(), traced.notes);
        let got: Vec<&str> = traced.metrics.iter().map(|&(n, _)| n).collect();
        let want: Vec<&str> = PER_LAYER.iter().map(|&(n, _)| n).collect();
        assert_eq!(got, want, "{}", w.name());
        for &(n, v) in &traced.metrics {
            assert!(v.is_finite(), "{}: {n} = {v}", w.name());
        }
        assert_eq!(
            traced.digest,
            plain.digest,
            "{}: same seed, same outputs",
            w.name()
        );
        assert_eq!(
            traced.traced_digest,
            Some(plain.digest),
            "{}: traced pass",
            w.name()
        );
    }
}
