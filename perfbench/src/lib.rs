//! End-to-end and per-layer benchmark of the NWCache simulator.
//!
//! Three workloads (see `README.md`) drive the simulator only through
//! its public API and time the calls into each layer from outside. An
//! untraced run reports the end-to-end metrics; a traced run reports
//! the per-layer metrics and the tracing overhead. Untraced host times
//! are reported at a reference host speed (see `calib`). Every run
//! checks its outputs against a digest of the simulated results.

pub mod batch;
pub mod calib;
pub mod cells;
pub mod layers;
pub mod report;
pub mod run;
pub mod serve;
pub mod spans;

pub use cells::{Size, Workload};
pub use run::{run, Options, Outcome};

/// The final stdout line: the result object the benchmark contract
/// asks for.
pub fn result_line(o: &Outcome) -> String {
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        o.correct,
        o.attempted,
        o.failed,
        report::metrics_json(&o.metrics)
    )
}

/// A self-describing record of the run: provenance, digests, bases,
/// notes and metrics.
pub fn record_json(opts: &Options, o: &Outcome) -> String {
    let notes: Vec<String> = o.notes.iter().map(|n| report::json_str(n)).collect();
    format!(
        "{{\"workload\":{},\"trace\":{},\"provenance\":{},\"digest\":\"{:016x}\",\
         \"traced_digest\":{},\"notes\":[{}],\"result\":{}}}\n",
        report::json_str(opts.workload.name()),
        opts.trace,
        o.provenance.to_json(),
        o.digest,
        o.traced_digest
            .map_or("null".to_string(), |d| format!("\"{d:016x}\"")),
        notes.join(","),
        result_line(o)
    )
}
