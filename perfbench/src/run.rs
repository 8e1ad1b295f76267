//! One benchmark run: set up a workload, measure it for the requested
//! time (untraced) or trace it layer by layer, and check its outputs.

use crate::batch::{self, Pass, CHUNK_EVENTS};
use crate::calib;
use crate::cells::{self, Bases, Cell, Size, Workload};
use crate::layers;
use crate::report::{median, min, peak_rss_mb, percentile, Provenance};
use crate::serve::Session;
use crate::spans::Spans;
use nw_sim::Pcg32;
use nwcache::config::MachineKind;
use nwcache::metrics::RunSummary;
use std::path::PathBuf;
use std::time::Instant;

/// Batch passes run at least this many times, even past the budget.
const MIN_PASSES: usize = 3;
/// In-process restore-and-run repetitions per cell that server
/// overhead is measured against.
const IN_PROCESS_REPS: usize = 8;

/// Whether a run that has spent `elapsed` seconds on `units` passes or
/// laps of about equal length should stop rather than start one more
/// that would end past `budget`.
fn budget_spent(elapsed: f64, units: usize, budget: f64) -> bool {
    elapsed + elapsed / units.max(1) as f64 > budget
}

/// Host seconds at the reference speed: `ns` scaled by `factor`.
fn scaled(ns: u64, factor: f64) -> f64 {
    secs(ns) * factor
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Workload to run.
    pub workload: Workload,
    /// Benchmark seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement time in seconds (whole passes, at least one).
    pub seconds: f64,
    /// Report per-layer metrics from a traced run instead of the
    /// end-to-end metrics.
    pub trace: bool,
    /// Workload size.
    pub size: Size,
    /// Directory for span traces and server autosaves.
    pub out_dir: PathBuf,
}

/// Everything a run produced.
pub struct Outcome {
    /// No cell or job failed and every output check passed.
    pub correct: bool,
    /// Cells and jobs run.
    pub attempted: u64,
    /// Cells and jobs that failed, errored or mismatched their check.
    pub failed: u64,
    /// Reported metrics, in declaration order of their group.
    pub metrics: Vec<(&'static str, f64)>,
    /// Digest of the workload's outputs.
    pub digest: u64,
    /// Digest of the traced pass's outputs (traced runs only).
    pub traced_digest: Option<u64>,
    /// Exact work bases and other human-readable notes.
    pub notes: Vec<String>,
    /// Where the run came from.
    pub provenance: Provenance,
    /// Chrome-trace JSON of the traced run's spans.
    pub chrome_trace: Option<String>,
}

/// Attempt/failure bookkeeping shared by every check.
#[derive(Default)]
struct Check {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Check {
    /// Count one cell or job; `Err` is a failure.
    fn outcome<T>(&mut self, what: &str, r: &Result<T, String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.fail(format!("{what}: {e}"));
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.errors.push(msg);
    }

    /// A pass whose outputs differ from the reference fails every cell.
    fn same_digest(&mut self, what: &str, cells: usize, got: u64, want: u64) {
        if got != want {
            self.failed += cells as u64;
            self.errors.push(format!(
                "{what}: digest {got:016x} differs from {want:016x}"
            ));
        }
    }
}

/// Run the benchmark as `opts` says.
pub fn run(opts: &Options) -> Outcome {
    let cells = cells::cells(opts.workload, opts.size, opts.seed);
    let bases = cells::count_streams(&cells);
    let mut out = match opts.workload {
        Workload::ServeWarm => run_serve(opts, &cells, &bases),
        Workload::PaperMatrix | Workload::WriteStaging => run_batch(opts, &cells, &bases),
    };
    if !opts.trace {
        sort_metrics(&mut out.metrics, crate::report::END_TO_END);
    } else {
        sort_metrics(&mut out.metrics, crate::report::PER_LAYER);
    }
    out
}

fn sort_metrics(m: &mut [(&'static str, f64)], order: &[(&str, &str)]) {
    m.sort_by_key(|(n, _)| order.iter().position(|(o, _)| o == n).unwrap_or(usize::MAX));
}

fn secs(ns: u64) -> f64 {
    ns as f64 / 1e9
}

/// Work the untraced metrics are rates of, per pass.
struct Work {
    refs: u64,
    actions: u64,
    exec_pcycles: u64,
}

fn work(bases: &Bases, summaries: &[RunSummary]) -> Work {
    Work {
        refs: bases.per_cell.iter().map(|c| c.refs()).sum(),
        actions: bases.per_cell.iter().map(|c| c.actions).sum(),
        exec_pcycles: summaries.iter().map(|s| s.exec_time).sum(),
    }
}

/// Compare a digest with the recorded one for this seed, if any.
fn check_recorded(
    check: &mut Check,
    opts: &Options,
    cells: usize,
    digest: u64,
    notes: &mut Vec<String>,
) {
    if opts.size != Size::Full {
        return;
    }
    match opts.workload.recorded_digest(opts.seed) {
        Some(want) => {
            notes.push(format!(
                "digest {digest:016x} checked against the recorded {want:016x}"
            ));
            check.same_digest("recorded digest", cells, digest, want);
        }
        None => notes.push(format!(
            "digest {digest:016x} (no recorded digest for seed {}; checked for determinism only)",
            opts.seed
        )),
    }
}

fn run_batch(opts: &Options, cells: &[Cell], bases: &Bases) -> Outcome {
    let workers = opts.workload.workers();
    let mut check = Check::default();
    let mut notes = Vec::new();
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let p = batch::timed_pass(cells, workers);
        for (c, r) in cells.iter().zip(&p.results) {
            check.outcome(&c.label(), r);
        }
        passes.push(p);
        if passes.len() >= MIN_PASSES
            && budget_spent(start.elapsed().as_secs_f64(), passes.len(), budget)
        {
            break;
        }
    }
    let digests: Vec<u64> = passes
        .iter()
        .map(|p| cells::summary_digest(&p.summaries().cloned().collect::<Vec<_>>()))
        .collect();
    let digest = digests[0];
    for &d in &digests[1..] {
        check.same_digest("repeated pass", cells.len(), d, digest);
    }
    check_recorded(&mut check, opts, cells.len(), digest, &mut notes);
    let first: Vec<RunSummary> = passes[0].summaries().cloned().collect();
    let w = work(bases, &first);
    let events = passes[0].events;
    notes.push(format!(
        "bases of the first pass: {} cells, {} refs, {} actions, {} simulated pcycles, {} events",
        cells.len(),
        w.refs,
        w.actions,
        w.exec_pcycles,
        events
    ));
    let raw_walls: Vec<f64> = passes.iter().map(|p| secs(p.wall_ns)).collect();
    let ref_ns: Vec<u64> = passes
        .iter()
        .flat_map(|p| p.ref_ns.iter().copied())
        .collect();
    let f = calib::factor(&ref_ns);
    notes.push(format!(
        "{} untraced passes, host wall_s samples {raw_walls:?}; reference-speed factor {f} \
         from {} reference samples",
        passes.len(),
        ref_ns.len()
    ));
    let mut metrics = Vec::new();
    let mut traced_digest = None;
    let mut chrome_trace = None;
    if !opts.trace {
        // Every host time at the reference speed.
        let walls: Vec<f64> = passes.iter().map(|p| scaled(p.wall_ns, f)).collect();
        let setups: Vec<f64> = passes
            .iter()
            .map(|p| scaled(p.setup_ns.iter().sum(), f))
            .collect();
        let jobs: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.cell_ns.iter().map(|&n| scaled(n, f)))
            .collect();
        let wall = median(&walls);
        let p90 = percentile(&jobs, 0.9);
        metrics.extend([
            ("wall_s", wall),
            ("sim_refs_per_s", w.refs as f64 / wall),
            ("sim_pcycles_per_s", w.exec_pcycles as f64 / wall),
            ("setup_s", median(&setups)),
            ("peak_rss_mb", peak_rss_mb()),
            ("job_p50_s", median(&jobs)),
            ("job_p90_s", p90),
        ]);
        notes.push(format!(
            "jobs (a batch job is one cell, set-up to summary): {} samples, {} beyond p90; \
             setup_s over {} passes",
            jobs.len(),
            jobs.iter().filter(|&&s| s > p90).count(),
            setups.len()
        ));
    } else {
        let spans = Spans::default();
        let (tp, traces) = batch::traced_pass_at(cells, workers, &spans, CHUNK_EVENTS);
        for (c, r) in cells.iter().zip(&tp.results) {
            check.outcome(&format!("traced {}", c.label()), r);
        }
        let traced: Vec<RunSummary> = tp.summaries().cloned().collect();
        let td = cells::summary_digest(&traced);
        check.same_digest("traced pass", cells.len(), td, digest);
        if tp.events != events {
            check.fail(format!(
                "traced pass dispatched {} events, untraced {events}",
                tp.events
            ));
        }
        traced_digest = Some(td);
        notes.push(cell_events(cells, &traces));
        let probe = server_probe(opts, cells, &traced, &traces, &mut check);
        metrics = layer_metrics(opts, cells, bases, &first, &w, &tp, &traces, &spans);
        let cell_s: Vec<f64> = spans.durations("cell").iter().map(|&n| secs(n)).collect();
        metrics.extend(pool_metrics(&cell_s, workers, secs(tp.wall_ns)));
        metrics.extend(probe);
        metrics.extend([
            ("trace.overhead_s", secs(tp.wall_ns) - median(&raw_walls)),
            ("trace.spans", spans.snapshot().len() as f64),
        ]);
        chrome_trace =
            Some(spans.to_chrome_json(&cells.iter().map(Cell::label).collect::<Vec<_>>()));
    }
    finish(
        opts,
        check,
        metrics,
        digest,
        traced_digest,
        notes,
        chrome_trace,
    )
}

fn finish(
    opts: &Options,
    check: Check,
    metrics: Vec<(&'static str, f64)>,
    digest: u64,
    traced_digest: Option<u64>,
    mut notes: Vec<String>,
    chrome_trace: Option<String>,
) -> Outcome {
    notes.push(format!(
        "error_rate {} ratio ({} failed of {} attempted)",
        check.failed as f64 / check.attempted.max(1) as f64,
        check.failed,
        check.attempted
    ));
    notes.extend(check.errors.iter().map(|e| format!("FAILED: {e}")));
    Outcome {
        correct: check.failed == 0,
        attempted: check.attempted,
        failed: check.failed,
        metrics,
        digest,
        traced_digest,
        notes,
        provenance: Provenance::collect(opts.seed, opts.workload.workers()),
        chrome_trace,
    }
}

/// Per-layer metrics of a traced pass. Shares are of the traced pass's
/// worker time (wall × workers); replay-based shares estimate the
/// layer's cost as its per-operation time times the run's exact count.
#[allow(clippy::too_many_arguments)]
fn layer_metrics(
    opts: &Options,
    cells: &[Cell],
    bases: &Bases,
    summaries: &[RunSummary],
    w: &Work,
    tp: &Pass,
    traces: &[batch::CellTrace],
    spans: &Spans,
) -> Vec<(&'static str, f64)> {
    let workers = match opts.workload {
        Workload::ServeWarm => 1,
        _ => opts.workload.workers(),
    };
    let busy_ns = tp.wall_ns as f64 * workers as f64;
    let share = |ns: f64| ns / busy_ns;
    let run_ns = spans.total_ns("machine.run_chunk") as f64;
    let new_ns = spans.total_ns("machine.new") as f64;
    let build_ns = spans.total_ns("workload.build") as f64;
    let saves: Vec<f64> = spans
        .durations("ckpt.save")
        .iter()
        .map(|&n| secs(n))
        .collect();
    let restores: Vec<f64> = spans
        .durations("ckpt.restore")
        .iter()
        .map(|&n| secs(n))
        .collect();
    let events = tp.events as f64;
    let refs = w.refs as f64;
    let sum = |f: fn(&RunSummary) -> u64| summaries.iter().map(f).sum::<u64>() as f64;
    let l2_misses: f64 = summaries
        .iter()
        .zip(&bases.per_cell)
        .map(|(s, b)| s.l2_miss_ratio * b.refs() as f64)
        .sum();
    let ring_swaps: f64 = cells
        .iter()
        .zip(summaries)
        .filter(|(c, _)| c.params.machine == MachineKind::NwCache)
        .map(|(_, s)| s.swap_outs as f64)
        .sum();
    let ns_per_action = bases.drain_ns as f64 / bases.drained_actions.max(1) as f64;
    // Tests run the replays at a twentieth of their size.
    let div = match opts.size {
        Size::Full => 1,
        Size::Tiny => 20,
    };
    let mh = layers::memhier(cells, layers::MEMHIER_REFS / div);
    let depth = 16
        * cells
            .iter()
            .map(|c| c.cfg.nodes as usize)
            .max()
            .unwrap_or(8);
    let q = layers::queue(opts.seed, depth, layers::QUEUE_OPS / div);
    let mesh = layers::mesh(cells, opts.seed, layers::MESH_SENDS / div);
    let wf = {
        let writes: u64 = bases.per_cell.iter().map(|c| c.writes).sum();
        writes as f64 / refs.max(1.0)
    };
    let disk = layers::disk(wf, opts.seed, layers::DISK_OPS / div);
    let opt = layers::optical(opts.seed, layers::OPTICAL_SWAPS / div);
    let (page_faults, swap_outs) = (sum(|s| s.page_faults), sum(|s| s.swap_outs));
    vec![
        ("base.refs", refs),
        ("base.exec_pcycles", w.exec_pcycles as f64),
        ("base.events", events),
        ("machine.run_s", run_ns / 1e9),
        ("machine.events", events),
        ("machine.ns_per_event", run_ns / events.max(1.0)),
        (
            "machine.events_per_kref",
            events / (refs / 1000.0).max(1e-9),
        ),
        ("machine.run_share", share(run_ns)),
        ("machine.new_s", new_ns / 1e9),
        ("machine.new_share", share(new_ns)),
        ("apps.ns_per_action", ns_per_action),
        ("apps.actions", bases.drained_actions as f64),
        ("apps.share", share(ns_per_action * w.actions as f64)),
        ("workload.build_s", build_ns / 1e9),
        ("workload.build_share", share(build_ns)),
        ("memhier.cache_ns_per_ref", mh.cache.ns_per_op),
        ("memhier.tlb_ns_per_ref", mh.tlb.ns_per_op),
        ("memhier.replay_refs", mh.cache.ops as f64),
        ("memhier.dir_ns_per_txn", mh.dir.ns_per_op),
        ("memhier.dir_txns", mh.dir.ops as f64),
        ("memhier.l2_miss_ratio", l2_misses / refs.max(1.0)),
        (
            "memhier.share",
            share((mh.cache.ns_per_op + mh.tlb.ns_per_op) * refs + mh.dir.ns_per_op * l2_misses),
        ),
        ("sim.queue_ns_per_op", q.ns_per_op),
        ("sim.queue_ops", q.ops as f64),
        ("sim.share", share(q.ns_per_op * 2.0 * events)),
        ("mesh.ns_per_send", mesh.ns_per_op),
        ("mesh.sends", mesh.ops as f64),
        ("mesh.messages", sum(|s| s.mesh_messages)),
        (
            "mesh.share",
            share(mesh.ns_per_op * sum(|s| s.mesh_messages)),
        ),
        ("disk.ns_per_op", disk.ns_per_op),
        ("disk.ops", disk.ops as f64),
        ("vm.page_faults", page_faults),
        ("disk.swap_outs", swap_outs),
        ("disk.swap_nacks", sum(|s| s.swap_nacks)),
        (
            "disk.share",
            share(disk.ns_per_op * (page_faults + swap_outs)),
        ),
        ("optical.ns_per_swap", opt.ns_per_op),
        ("optical.swaps", opt.ops as f64),
        ("optical.ring_hits", sum(|s| s.ring_hits)),
        ("optical.share", share(opt.ns_per_op * ring_swaps)),
        ("ckpt.save_s", median(&saves)),
        ("ckpt.restore_s", median(&restores)),
        (
            "ckpt.bytes",
            median(
                &traces
                    .iter()
                    .filter(|t| t.ckpt_bytes > 0)
                    .map(|t| t.ckpt_bytes as f64)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("ckpt.count", saves.len() as f64),
        (
            "ckpt.share",
            share((saves.iter().sum::<f64>() + restores.iter().sum::<f64>()) * 1e9),
        ),
    ]
}

/// Pool metrics from per-cell (or per-job) host times run on `workers`
/// threads over `wall_s`.
fn pool_metrics(cell_s: &[f64], workers: usize, wall_s: f64) -> [(&'static str, f64); 4] {
    [
        ("pool.cell_p50_s", median(cell_s)),
        (
            "pool.cell_max_s",
            cell_s.iter().copied().fold(0.0, f64::max),
        ),
        (
            "pool.efficiency",
            cell_s.iter().sum::<f64>() / (wall_s * workers as f64),
        ),
        ("pool.cells", cell_s.len() as f64),
    ]
}

/// Server metrics for a batch workload: its cheapest cell that pauses
/// at the traced pass's checkpoint mark is submitted once cold and
/// three times warm. Every served output must equal the traced pass's
/// summary of that cell; the warm latency is compared with the traced
/// pass's in-process restore-and-run time.
fn server_probe(
    opts: &Options,
    cells: &[Cell],
    summaries: &[RunSummary],
    traces: &[batch::CellTrace],
    check: &mut Check,
) -> Vec<(&'static str, f64)> {
    let pick = (0..cells.len())
        .filter(|&i| traces[i].events > CHUNK_EVENTS)
        .min_by_key(|&i| traces[i].events)
        .unwrap_or(0);
    let cell = &cells[pick];
    let want = summaries.get(pick).map(RunSummary::to_json);
    let mut warm_ns = Vec::new();
    let mut hits = (0, 0);
    let mut jobs = 0;
    match Session::start(opts.out_dir.join("autosave")) {
        Ok(mut session) => {
            for job in 0..4 {
                let served = session.run(cell, CHUNK_EVENTS);
                jobs += 1;
                check.outcome(&format!("served {}", cell.label()), &served.json);
                if let Ok(json) = served.json {
                    if Some(&json) != want.as_ref() {
                        check.fail(format!(
                            "served {}: output differs from the traced run",
                            cell.label()
                        ));
                    }
                    if job > 0 {
                        warm_ns.push(served.latency_ns as f64);
                    }
                }
            }
            match session.warm_counts() {
                Ok(h) => hits = h,
                Err(e) => check.fail(format!("metrics endpoint: {e}")),
            }
            session.stop();
        }
        Err(e) => check.fail(format!("server failed to start: {e}")),
    }
    let in_process = batch::restore_and_run_seconds(cell, CHUNK_EVENTS, IN_PROCESS_REPS)
        .unwrap_or_else(|e| {
            check.fail(format!("in-process {}: {e}", cell.label()));
            Vec::new()
        });
    let overhead = min(&warm_ns) / 1e9 - min(&in_process);
    vec![
        ("server.overhead_s", overhead),
        (
            "server.warm_hit_ratio",
            hits.0 as f64 / (hits.0 + hits.1).max(1) as f64,
        ),
        ("server.jobs", jobs as f64),
        ("server.share", overhead * 1e9 / min(&warm_ns).max(1.0)),
    ]
}

/// One `serve-warm` lap: every cell submitted once.
#[derive(Default)]
struct Lap {
    /// Host nanoseconds, less the reference samples taken in the lap.
    wall_ns: u64,
    /// `(cell, submit → Done host nanoseconds)` in submission order.
    jobs: Vec<(usize, u64)>,
    /// Reference samples taken between the jobs.
    ref_ns: Vec<u64>,
    /// Host nanoseconds of one set-up of every cell, taken after the lap.
    setup_ns: u64,
    /// Events the server's machines dispatched (exact).
    events: u64,
    /// Every job warm-started.
    warm: bool,
}

fn run_serve(opts: &Options, cells: &[Cell], bases: &Bases) -> Outcome {
    let warmup = cells::serve_warmup(opts.size);
    let mut check = Check::default();
    let mut notes = Vec::new();
    // The reference every served job must reproduce byte for byte: a
    // cold in-process run of the same cell.
    let reference: Vec<Result<RunSummary, String>> = cells
        .iter()
        .map(|c| {
            nwcache::try_run_sel(&c.cfg, &c.sel())
                .map(|m| m.summary())
                .map_err(|e| e.to_string())
        })
        .collect();
    for (c, r) in cells.iter().zip(&reference) {
        check.outcome(&format!("reference {}", c.label()), r);
    }
    let reference_ok: Vec<RunSummary> = reference
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .cloned()
        .collect();
    let expected: Vec<Result<String, String>> = reference
        .iter()
        .map(|r| r.as_ref().map(RunSummary::to_json).map_err(Clone::clone))
        .collect();
    let digest = cells::summary_digest(&reference_ok);
    check_recorded(&mut check, opts, cells.len(), digest, &mut notes);
    let mut session = match Session::start(opts.out_dir.join("autosave")) {
        Ok(s) => s,
        Err(e) => {
            check.fail(format!("server failed to start: {e}"));
            return finish(opts, check, Vec::new(), digest, None, notes, None);
        }
    };
    let spans = Spans::default();
    // One lap submits every cell once, in `order`, taking reference
    // samples before each job. Its wall excludes those samples.
    let mut lap = |check: &mut Check, order: &[usize], traced: bool| {
        let events0 = nwcache::observe::process_totals().events;
        let t0 = Instant::now();
        let mut l = Lap {
            warm: true,
            ..Lap::default()
        };
        let mut ref_cost = 0;
        for &i in order {
            let r = calib::sample();
            l.ref_ns.push(r.ns);
            ref_cost += r.cost_ns;
            let start = spans.now();
            let served = session.run(&cells[i], warmup);
            if traced {
                spans.record(0, i as u32, "server.job", start);
            }
            check.outcome(&format!("served {}", cells[i].label()), &served.json);
            if let (Ok(got), Ok(want)) = (&served.json, &expected[i]) {
                if got != want {
                    check.fail(format!(
                        "served {}: output differs from the cold run",
                        cells[i].label()
                    ));
                }
            }
            l.warm &= served.warm_hit;
            l.jobs.push((i, served.latency_ns));
        }
        l.wall_ns = (t0.elapsed().as_nanos() as u64).saturating_sub(ref_cost);
        l.events = nwcache::observe::process_totals().events - events0;
        l
    };
    // First lap: every job misses the warm cache and fills it.
    let in_order: Vec<usize> = (0..cells.len()).collect();
    lap(&mut check, &in_order, false);
    let budget = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut rng = Pcg32::new(opts.seed, 0x5E4E);
    let start = Instant::now();
    let mut laps: Vec<Lap> = Vec::new();
    while laps.is_empty() || !budget_spent(start.elapsed().as_secs_f64(), laps.len(), budget) {
        let mut order = in_order.clone();
        rng.shuffle(&mut order);
        let mut l = lap(&mut check, &order, false);
        if !opts.trace {
            l.setup_ns = batch::setup_ns(cells);
        }
        laps.push(l);
    }
    let events = laps.last().map_or(0, |l| l.events);
    let walls: Vec<f64> = laps.iter().map(|l| secs(l.wall_ns)).collect();
    let lat: Vec<(usize, f64)> = laps
        .iter()
        .flat_map(|l| l.jobs.iter().map(|&(i, n)| (i, secs(n))))
        .collect();
    let cold_laps = laps.iter().filter(|l| !l.warm).count();
    if cold_laps > 0 {
        check.fail(format!("{cold_laps} measured laps had a warm-cache miss"));
    }
    let w = work(bases, &reference_ok);
    notes.push(format!(
        "bases per lap: {} jobs, {} refs, {} actions, {} simulated pcycles, {} events; warmup {warmup} events",
        cells.len(),
        w.refs,
        w.actions,
        w.exec_pcycles,
        events
    ));
    let job_s: Vec<f64> = lat.iter().map(|&(_, s)| s).collect();
    notes.push(format!(
        "{} measured laps, {} jobs",
        walls.len(),
        job_s.len()
    ));
    let mut metrics = Vec::new();
    let mut traced_digest = None;
    let mut chrome_trace = None;
    if !opts.trace {
        session.stop();
        // Every host time at the reference speed.
        let ref_ns: Vec<u64> = laps.iter().flat_map(|l| l.ref_ns.iter().copied()).collect();
        let f = calib::factor(&ref_ns);
        notes.push(format!(
            "host wall_s median {}; reference-speed factor {f} from {} reference samples",
            median(&walls),
            ref_ns.len()
        ));
        let scaled_walls: Vec<f64> = laps.iter().map(|l| scaled(l.wall_ns, f)).collect();
        let setups: Vec<f64> = laps.iter().map(|l| scaled(l.setup_ns, f)).collect();
        let jobs: Vec<f64> = laps
            .iter()
            .flat_map(|l| l.jobs.iter().map(|&(_, n)| scaled(n, f)))
            .collect();
        let wall = median(&scaled_walls);
        let p90 = percentile(&jobs, 0.9);
        metrics.extend([
            ("wall_s", wall),
            ("sim_refs_per_s", w.refs as f64 / wall),
            ("sim_pcycles_per_s", w.exec_pcycles as f64 / wall),
            ("setup_s", median(&setups)),
            ("peak_rss_mb", peak_rss_mb()),
            ("job_p50_s", median(&jobs)),
            ("job_p90_s", p90),
        ]);
        notes.push(format!(
            "job latency samples {}, {} beyond p90; setup_s over {} laps",
            jobs.len(),
            jobs.iter().filter(|&&s| s > p90).count(),
            setups.len()
        ));
    } else {
        let mut traced_jobs = 0;
        let mut traced_walls = Vec::new();
        for _ in 0..walls.len() {
            let mut order = in_order.clone();
            rng.shuffle(&mut order);
            let l = lap(&mut check, &order, true);
            traced_jobs += l.jobs.len();
            traced_walls.push(secs(l.wall_ns));
        }
        let hits = session.warm_counts();
        session.stop();
        // The same cells in process: warmup, checkpoint save and
        // restore at the warmup mark, then the measured remainder.
        let (tp, traces) = batch::traced_pass_at(cells, 1, &spans, warmup);
        for (c, r) in cells.iter().zip(&tp.results) {
            check.outcome(&format!("traced {}", c.label()), r);
        }
        let traced: Vec<RunSummary> = tp.summaries().cloned().collect();
        let td = cells::summary_digest(&traced);
        check.same_digest("traced in-process cells", cells.len(), td, digest);
        if tp.events != events {
            check.fail(format!(
                "traced cells dispatched {} events, a served lap {events}",
                tp.events
            ));
        }
        traced_digest = Some(td);
        notes.push(cell_events(cells, &traces));
        metrics = layer_metrics(opts, cells, bases, &traced, &w, &tp, &traces, &spans);
        // Per-job server overhead: warm job latency minus the in-process
        // restore-and-run time of the same cell, both at their fastest,
        // averaged over the cells.
        let mut overhead = 0.0;
        for (i, c) in cells.iter().enumerate() {
            let jobs: Vec<f64> = lat
                .iter()
                .filter(|&&(j, _)| j == i)
                .map(|&(_, s)| s)
                .collect();
            let in_process = batch::restore_and_run_seconds(c, warmup, IN_PROCESS_REPS)
                .unwrap_or_else(|e| {
                    check.fail(format!("in-process {}: {e}", c.label()));
                    Vec::new()
                });
            overhead += (min(&jobs) - min(&in_process)) / cells.len() as f64;
        }
        let (h, m) = hits.unwrap_or_else(|e| {
            check.fail(format!("metrics endpoint: {e}"));
            (0, 0)
        });
        // The pool is the server's single job slot.
        metrics.extend(pool_metrics(&job_s, 1, walls.iter().sum()));
        metrics.extend([
            ("trace.overhead_s", median(&traced_walls) - median(&walls)),
            ("server.overhead_s", overhead),
            ("server.warm_hit_ratio", h as f64 / (h + m).max(1) as f64),
            (
                "server.jobs",
                (job_s.len() + traced_jobs + cells.len()) as f64,
            ),
            (
                "server.share",
                overhead * cells.len() as f64 / median(&walls).max(1e-9),
            ),
            ("trace.spans", spans.snapshot().len() as f64),
        ]);
        chrome_trace =
            Some(spans.to_chrome_json(&cells.iter().map(Cell::label).collect::<Vec<_>>()));
    }
    finish(
        opts,
        check,
        metrics,
        digest,
        traced_digest,
        notes,
        chrome_trace,
    )
}

/// `label=events` for every traced cell.
fn cell_events(cells: &[Cell], traces: &[batch::CellTrace]) -> String {
    let per: Vec<String> = cells
        .iter()
        .zip(traces)
        .map(|(c, t)| format!("{}={}", c.label(), t.events))
        .collect();
    format!("events per cell: {}", per.join(", "))
}
