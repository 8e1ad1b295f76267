//! Batch passes: every cell of a workload run once, untraced through
//! the sweep engine or traced through explicit per-layer calls.

use crate::cells::Cell;
use crate::spans::Spans;
use nwcache::machine::{Machine, RunOutcome};
use nwcache::metrics::RunSummary;
use nwcache::SimError;
use std::time::Instant;

/// Events per `try_run_events` call in traced runs. Chunked runs
/// dispatch exactly the events of one unbounded run.
pub const CHUNK_EVENTS: u64 = 50_000;

/// Outcome of one pass over a workload's cells.
pub struct Pass {
    /// Host nanoseconds for the whole pass, less the reference samples
    /// taken inside it (their cost summed, over the workers).
    pub wall_ns: u64,
    /// One summary or error per cell, in cell order.
    pub results: Vec<Result<RunSummary, String>>,
    /// Events dispatched by the pass's completed runs (exact).
    pub events: u64,
    /// Host nanoseconds of each cell's set-up (`AppSel::build` plus
    /// `Machine::try_from_build`), in cell order.
    pub setup_ns: Vec<u64>,
    /// Host nanoseconds of each cell from set-up to its summary.
    pub cell_ns: Vec<u64>,
    /// Reference samples taken during the pass (see `calib`).
    pub ref_ns: Vec<u64>,
}

impl Pass {
    /// Summaries of the cells that completed.
    pub fn summaries(&self) -> impl Iterator<Item = &RunSummary> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }
}

/// One untraced cell as `sweep::run_sel_grid` runs it (validate, build,
/// construct, run to completion), timed in two parts.
struct TimedCell {
    result: Result<RunSummary, String>,
    events: u64,
    reference: crate::calib::Sample,
    setup_ns: u64,
    cell_ns: u64,
}

fn timed_cell(cell: &Cell) -> TimedCell {
    let reference = crate::calib::sample();
    let t0 = Instant::now();
    let mut setup_ns = 0;
    let mut events = 0;
    let result = (|| {
        cell.cfg.validate().map_err(SimError::BadConfig)?;
        let build = cell.sel().build(&cell.cfg)?;
        let mut machine = Machine::try_from_build(cell.cfg.clone(), build)?;
        setup_ns = t0.elapsed().as_nanos() as u64;
        let metrics = machine.try_run()?;
        events = machine.events_dispatched();
        Ok::<_, SimError>(metrics.summary())
    })()
    .map_err(|e| e.to_string());
    TimedCell {
        result,
        events,
        reference,
        setup_ns,
        cell_ns: t0.elapsed().as_nanos() as u64,
    }
}

/// Run every cell once on `workers` threads of the sweep engine's pool
/// (`nw_sim::pool::run`, which `sweep::run_grid` uses), with the task
/// body of `sweep::run_sel_grid`, timing each cell's set-up and whole
/// run. Each task first takes one reference sample.
pub fn timed_pass(cells: &[Cell], workers: usize) -> Pass {
    let t0 = Instant::now();
    let tasks: Vec<_> = cells.iter().map(|c| move || timed_cell(c)).collect();
    let out = nw_sim::pool::run(workers, tasks);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut pass = Pass {
        wall_ns,
        results: Vec::with_capacity(out.len()),
        events: 0,
        setup_ns: Vec::with_capacity(out.len()),
        cell_ns: Vec::with_capacity(out.len()),
        ref_ns: Vec::with_capacity(out.len()),
    };
    let mut ref_cost = 0;
    for slot in out {
        match slot {
            Ok(t) => {
                pass.results.push(t.result);
                pass.events += t.events;
                pass.setup_ns.push(t.setup_ns);
                pass.cell_ns.push(t.cell_ns);
                pass.ref_ns.push(t.reference.ns);
                ref_cost += t.reference.cost_ns;
            }
            Err(p) => {
                pass.results.push(Err(p.to_string()));
                pass.setup_ns.push(0);
                pass.cell_ns.push(0);
            }
        }
    }
    pass.wall_ns = wall_ns.saturating_sub(ref_cost / workers.max(1) as u64);
    pass
}

/// What a traced cell measured besides its summary.
#[derive(Debug, Clone, Default)]
pub struct CellTrace {
    /// Events the machine dispatched.
    pub events: u64,
    /// Size of the checkpoint taken at the first pause.
    pub ckpt_bytes: u64,
}

/// Run one cell through explicit layer calls, recording a span around
/// each: the build, the construction, every fixed-budget run chunk,
/// and a checkpoint save and restore once `ckpt_at` events have run.
/// The run continues on the restored machine, so the summary also
/// proves the round trip loses nothing.
fn traced_cell(
    cell: &Cell,
    spans: &Spans,
    req: u32,
    ckpt_at: u64,
) -> Result<(RunSummary, CellTrace), SimError> {
    let id = spans.reserve();
    let start = spans.now();
    let t = spans.now();
    let build = cell.sel().build(&cell.cfg)?;
    spans.record(id, req, "workload.build", t);
    let t = spans.now();
    let mut machine = Machine::try_from_build(cell.cfg.clone(), build)?;
    spans.record(id, req, "machine.new", t);
    let mut trace = CellTrace::default();
    let mut restored = false;
    let mut budget = ckpt_at.max(1);
    let metrics = loop {
        let t = spans.now();
        let outcome = machine.try_run_events(budget)?;
        spans.record(id, req, "machine.run_chunk", t);
        budget = CHUNK_EVENTS;
        match outcome {
            RunOutcome::Done(m) => break m,
            RunOutcome::Paused if !restored => {
                let t = spans.now();
                let bytes = machine.checkpoint(&cell.spec);
                spans.record(id, req, "ckpt.save", t);
                trace.ckpt_bytes = bytes.len() as u64;
                let t = spans.now();
                restored = true;
                machine = Machine::restore(&bytes)?.1;
                spans.record(id, req, "ckpt.restore", t);
            }
            RunOutcome::Paused => {}
        }
    };
    trace.events = machine.events_dispatched();
    spans.record_as(id, 0, req, "cell", start);
    Ok((metrics.summary(), trace))
}

/// Run every cell traced on `workers` sweep-pool threads, each with a
/// checkpoint round trip at `ckpt_at` events. Request ids are cell
/// indices.
pub fn traced_pass_at(
    cells: &[Cell],
    workers: usize,
    spans: &Spans,
    ckpt_at: u64,
) -> (Pass, Vec<CellTrace>) {
    let t0 = Instant::now();
    let tasks: Vec<_> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| move || traced_cell(c, spans, i as u32, ckpt_at))
        .collect();
    let out = nw_sim::pool::run(workers, tasks);
    let wall_ns = t0.elapsed().as_nanos() as u64;
    let mut results = Vec::with_capacity(out.len());
    let mut traces = Vec::with_capacity(out.len());
    for slot in out {
        match slot {
            Ok(Ok((summary, tr))) => {
                results.push(Ok(summary));
                traces.push(tr);
            }
            Ok(Err(e)) => {
                results.push(Err(e.to_string()));
                traces.push(CellTrace::default());
            }
            Err(p) => {
                results.push(Err(p.to_string()));
                traces.push(CellTrace::default());
            }
        }
    }
    let events = traces.iter().map(|t| t.events).sum();
    (
        Pass {
            wall_ns,
            results,
            events,
            setup_ns: Vec::new(),
            cell_ns: Vec::new(),
            ref_ns: Vec::new(),
        },
        traces,
    )
}

/// Host seconds of `Machine::restore` plus the run to completion from
/// a checkpoint taken after `at` events — what a warm-started job
/// spends in the simulator — measured `reps` times.
pub fn restore_and_run_seconds(cell: &Cell, at: u64, reps: usize) -> Result<Vec<f64>, SimError> {
    let mut machine = Machine::try_from_build(cell.cfg.clone(), cell.sel().build(&cell.cfg)?)?;
    machine.try_run_events(at)?;
    let bytes = machine.checkpoint(&cell.spec);
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            Machine::restore(&bytes)?.1.try_run()?;
            Ok(t0.elapsed().as_secs_f64())
        })
        .collect()
}

/// Summed `AppSel::build` plus `Machine::try_from_build` host
/// nanoseconds of every cell.
pub fn setup_ns(cells: &[Cell]) -> u64 {
    let mut ns = 0u64;
    for c in cells {
        let sel = c.sel();
        let t0 = Instant::now();
        let build = sel.build(&c.cfg).expect("benchmark cell builds");
        let machine =
            Machine::try_from_build(c.cfg.clone(), build).expect("benchmark cell constructs");
        ns += t0.elapsed().as_nanos() as u64;
        drop(std::hint::black_box(machine));
    }
    ns
}
