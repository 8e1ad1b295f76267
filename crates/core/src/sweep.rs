//! The parallel experiment sweep engine and the `SweepReport` JSON
//! emitter.
//!
//! The paper's evaluation is a matrix of independent deterministic
//! simulations (apps × machine kinds × prefetch modes, plus fault
//! grids and ablations). This module fans such matrices out across
//! worker threads via the in-tree [`nw_sim::pool`], with three
//! guarantees the rest of the workspace builds on:
//!
//! * **determinism** — each run is a pure function of its
//!   `(MachineConfig, AppSel)`; the pool returns results in job order,
//!   so a sweep at `--jobs N` is bit-identical to `--jobs 1`
//!   (asserted by the differential-determinism integration tests);
//! * **panic isolation** — a run that panics (or returns a
//!   [`SimError`]) becomes an error *row*; sibling runs complete
//!   unaffected;
//! * **stable reporting** — [`SweepReport::to_json`] emits a
//!   fixed-schema, fixed-field-order JSON document
//!   (`"nwcache-sweep-v1"`), so exports from two builds can be
//!   diffed meaningfully.

use crate::config::{MachineConfig, MachineKind, PrefetchMode};
use crate::error::SimError;
use crate::metrics::{RunMetrics, RunSummary};
use crate::workload::AppSel;
use nw_apps::AppId;
use nw_sim::pool;

/// Run a grid of `(config, workload)` simulations on up to `jobs`
/// worker threads (0 = one per core) and return one `Result` per
/// cell, in grid order.
/// Table apps, generated scenarios and trace replays mix freely in
/// one grid; replayed traces sit behind an `Arc`, so a grid of N
/// cells over one trace decodes it once, not N times.
///
/// A cell that fails config validation, trips the watchdog, or
/// exhausts fault retries comes back as its [`SimError`]; a cell
/// whose worker panics comes back as [`SimError::Panicked`]. Either
/// way the remaining cells run to completion.
pub fn run_grid<S: Into<AppSel>>(
    jobs: usize,
    grid: Vec<(MachineConfig, S)>,
) -> Vec<Result<RunMetrics, SimError>> {
    let tasks: Vec<_> = grid
        .into_iter()
        .map(|(cfg, sel)| {
            let sel = sel.into();
            move || crate::workload::try_run_sel(&cfg, &sel)
        })
        .collect();
    pool::run(jobs, tasks)
        .into_iter()
        .map(|slot| match slot {
            Ok(run) => run,
            Err(p) => Err(SimError::Panicked(p.message)),
        })
        .collect()
}

/// The full paper evaluation matrix at `scale`: every application on
/// both machines under every prefetch mode, in a fixed deterministic
/// order (prefetch-major, then app, then standard-before-nwcache —
/// the same order the `--json` export has always used).
pub fn paper_matrix(scale: f64) -> Vec<(MachineConfig, AppId)> {
    let mut grid = Vec::new();
    for prefetch in [PrefetchMode::Optimal, PrefetchMode::Naive, PrefetchMode::Window] {
        for &app in &AppId::ALL {
            for kind in [MachineKind::Standard, MachineKind::NwCache] {
                grid.push((MachineConfig::scaled_paper(kind, prefetch, scale), app));
            }
        }
    }
    grid
}

/// One row of a [`SweepReport`]: the identity of the run plus either
/// its flat summary or the error that stopped it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Application name.
    pub app: String,
    /// Machine kind label ("standard" / "nwcache" / "dcd").
    pub machine: String,
    /// Prefetch mode label ([`PrefetchMode::label`]).
    pub prefetch: String,
    /// The run's summary, or the error that ended it.
    pub result: Result<RunSummary, String>,
}

/// A complete sweep with its provenance: what was run, with how much
/// parallelism, how long it took, and every per-run outcome.
///
/// The JSON rendering is the `nwcache-sweep-v1` schema: field order
/// is fixed and documented by the golden snapshot test, so diffs
/// between builds are meaningful.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Application/machine scale factor the sweep ran at.
    pub scale: f64,
    /// Worker threads used.
    pub jobs: usize,
    /// Cores the machine reported at run time.
    pub cores: usize,
    /// Wall-clock time for the whole sweep, milliseconds.
    pub wall_ms: u64,
    /// Per-run outcomes, in matrix order.
    pub rows: Vec<SweepRow>,
}

impl SweepReport {
    /// Run `grid` on `jobs` workers (`0` = auto), timing the sweep
    /// and collecting each cell into a row labelled with
    /// [`AppSel::name`] (the table name, the scenario spec, or the
    /// trace's recorded name). Failed cells become error rows; the
    /// sweep itself always completes.
    pub fn collect<S: Into<AppSel>>(
        scale: f64,
        jobs: usize,
        grid: Vec<(MachineConfig, S)>,
    ) -> SweepReport {
        let (meta, grid): (Vec<_>, Vec<(MachineConfig, AppSel)>) = grid
            .into_iter()
            .map(|(cfg, sel)| {
                let sel: AppSel = sel.into();
                let (machine, prefetch) = (cfg.kind.label(), cfg.prefetch.label());
                ((sel.name().to_string(), machine, prefetch), (cfg, sel))
            })
            .unzip();
        let effective = if jobs == 0 { pool::default_jobs() } else { jobs };
        let t0 = std::time::Instant::now();
        let results = run_grid(effective, grid);
        let wall_ms = t0.elapsed().as_millis() as u64;
        let rows = meta
            .into_iter()
            .zip(results)
            .map(|((app, machine, prefetch), result)| SweepRow {
                app,
                machine: machine.into(),
                prefetch: prefetch.into(),
                result: result.map(|m| m.summary()).map_err(|e| e.to_string()),
            })
            .collect();
        SweepReport {
            scale,
            jobs: effective,
            cores: pool::default_jobs(),
            wall_ms,
            rows,
        }
    }

    /// Run the full paper matrix (see [`paper_matrix`]).
    pub fn paper(scale: f64, jobs: usize) -> SweepReport {
        Self::collect(scale, jobs, paper_matrix(scale))
    }

    /// Number of rows that ended in an error.
    pub fn errors(&self) -> usize {
        self.rows.iter().filter(|r| r.result.is_err()).count()
    }

    /// Serialize the report with the stable `nwcache-sweep-v1`
    /// schema: a fixed header (`schema`, `scale`, `jobs`, `cores`,
    /// `wall_ms`), then one object per run in matrix order. Ok rows
    /// carry `"status":"ok"` and the flat metrics object; error rows
    /// carry `"status":"error"` and the message. Hand-rolled so the
    /// workspace stays dependency-free; field order never varies.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024 + self.rows.len() * 1200);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"nwcache-sweep-v1\",\n");
        out.push_str(&format!("  \"scale\": {},\n", crate::metrics::json_f64(self.scale)));
        out.push_str(&format!("  \"jobs\": {},\n", self.jobs));
        out.push_str(&format!("  \"cores\": {},\n", self.cores));
        out.push_str(&format!("  \"wall_ms\": {},\n", self.wall_ms));
        out.push_str("  \"runs\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let ident = format!(
                "\"app\":\"{}\",\"machine\":\"{}\",\"prefetch\":\"{}\"",
                crate::metrics::json_escape(&row.app),
                crate::metrics::json_escape(&row.machine),
                crate::metrics::json_escape(&row.prefetch),
            );
            match &row.result {
                Ok(summary) => out.push_str(&format!(
                    "    {{{ident},\"status\":\"ok\",\"metrics\":{}}}",
                    summary.to_json()
                )),
                Err(e) => out.push_str(&format!(
                    "    {{{ident},\"status\":\"error\",\"error\":\"{}\"}}",
                    crate::metrics::json_escape(e)
                )),
            }
            if i + 1 < self.rows.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("  ]\n}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_matrix_shape_and_order() {
        let grid = paper_matrix(0.05);
        // 3 prefetch modes x 7 apps x 2 machines.
        assert_eq!(grid.len(), 3 * AppId::ALL.len() * 2);
        // Standard strictly precedes nwcache within each pair.
        for pair in grid.chunks(2) {
            assert_eq!(pair[0].0.kind, MachineKind::Standard);
            assert_eq!(pair[1].0.kind, MachineKind::NwCache);
            assert_eq!(pair[0].1, pair[1].1);
        }
    }

    #[test]
    fn bad_config_becomes_error_row_not_a_dead_sweep() {
        let good = MachineConfig::scaled_paper(MachineKind::Standard, PrefetchMode::Naive, 0.05);
        let mut bad = good.clone();
        bad.faults.disk_error_rate = 7.0; // fails validation
        let rows = run_grid(
            2,
            vec![(good.clone(), AppId::Sor), (bad, AppId::Sor), (good, AppId::Sor)],
        );
        assert!(rows[0].is_ok());
        assert!(matches!(rows[1], Err(SimError::BadConfig(_))));
        assert!(rows[2].is_ok());
        // The healthy siblings are byte-identical to each other.
        assert_eq!(rows[0], rows[2]);
    }
}
