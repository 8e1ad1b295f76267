//! Workload selection glue: one spec string, any workload.
//!
//! [`AppSel`] is the machine-facing superset of [`nw_apps::AppId`]:
//! everywhere a CLI or experiment used to accept one of the seven
//! Table 2 kernels, it now accepts
//!
//! * a table app name (`gauss`, `sor`, ...),
//! * `workload:<trace-file>` — replay an `nwtrace-v1` file (text or
//!   binary, sniffed), or
//! * `workload:gen:<spec>` — generate a stochastic scenario on the
//!   fly (see [`nw_workload::Scenario::parse`] for the grammar).
//!
//! Replayed and generated workloads build into ordinary
//! [`nw_apps::AppBuild`]s, so they flow through sweeps, fault plans,
//! observability, and the `reproduce` harness without those layers
//! knowing the difference. Selections are cheap to clone (traces are behind
//! an [`Arc`]), which is what lets a single decoded trace fan out
//! across a parallel sweep grid without re-reading the file per cell.

use crate::config::MachineConfig;
use crate::error::SimError;
use crate::machine::Machine;
use crate::metrics::RunMetrics;
use nw_apps::{AppBuild, AppId};
use std::sync::Arc;

pub use nw_workload::{Pattern, Phase, Scenario, Trace};

/// A workload selection: a table app, a generated scenario, or a
/// trace to replay.
#[derive(Clone)]
pub enum AppSel {
    /// One of the paper's Table 2 kernels.
    Table(AppId),
    /// A stochastic scenario, materialized at build time from the
    /// machine's `nodes` and `seed`.
    Gen(Arc<Scenario>),
    /// A decoded `nwtrace-v1` trace, replayed verbatim.
    Replay(Arc<Trace>),
}

impl std::fmt::Debug for AppSel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "AppSel({})", self.name())
    }
}

impl From<AppId> for AppSel {
    fn from(app: AppId) -> Self {
        AppSel::Table(app)
    }
}

impl AppSel {
    /// Parse a workload spec. Unknown names produce
    /// [`SimError::UnknownApp`], which lists every valid name and the
    /// `workload:` syntax; an unreadable or malformed trace file, or a
    /// malformed scenario spec, produces [`SimError::BadConfig`].
    pub fn parse(spec: &str) -> Result<AppSel, SimError> {
        if let Some(app) = AppId::from_name(spec) {
            return Ok(AppSel::Table(app));
        }
        if let Some(rest) = spec.strip_prefix("workload:") {
            if let Some(sc) = rest.strip_prefix("gen:") {
                let scenario = Scenario::parse(sc)
                    .map_err(|e| SimError::BadConfig(format!("scenario spec '{sc}': {e}")))?;
                return Ok(AppSel::Gen(Arc::new(scenario)));
            }
            let bytes = std::fs::read(rest)
                .map_err(|e| SimError::BadConfig(format!("cannot read trace '{rest}': {e}")))?;
            let trace = Trace::decode(&bytes)
                .map_err(|e| SimError::BadConfig(format!("trace '{rest}': {e}")))?;
            trace
                .validate()
                .map_err(|e| SimError::BadConfig(format!("trace '{rest}': {e}")))?;
            return Ok(AppSel::Replay(Arc::new(trace)));
        }
        Err(SimError::UnknownApp {
            given: spec.to_string(),
            valid: AppId::ALL.iter().map(|a| a.name()).collect(),
        })
    }

    /// Workload name: the table name, the scenario spec, or the
    /// trace's recorded name.
    pub fn name(&self) -> &str {
        match self {
            AppSel::Table(app) => app.name(),
            AppSel::Gen(sc) => &sc.name,
            AppSel::Replay(tr) => &tr.name,
        }
    }

    /// Build the selected workload for the machine described by `cfg`
    /// (table apps and scenarios use `cfg.nodes`, `cfg.app_scale`,
    /// and `cfg.seed`; a replayed trace is fixed at record time and
    /// must match `cfg.nodes`).
    pub fn build(&self, cfg: &MachineConfig) -> Result<AppBuild, SimError> {
        match self {
            AppSel::Table(app) => Ok(nw_apps::build(
                *app,
                cfg.nodes as usize,
                cfg.app_scale,
                cfg.seed,
            )),
            AppSel::Gen(sc) => {
                sc.validate_for(cfg.nodes as usize).map_err(SimError::BadConfig)?;
                Ok(sc.build(cfg.nodes as usize, cfg.seed))
            }
            AppSel::Replay(tr) => Ok(tr.replay()),
        }
    }
}

/// Run a workload selection to completion, like [`crate::try_run_app`]
/// but accepting any [`AppSel`]. A trace recorded for the wrong node
/// count surfaces as the existing [`SimError::WorkloadMismatch`].
pub fn try_run_sel(cfg: &MachineConfig, sel: &AppSel) -> Result<RunMetrics, SimError> {
    cfg.validate().map_err(SimError::BadConfig)?;
    let build = sel.build(cfg)?;
    Machine::try_from_build(cfg.clone(), build)?.try_run()
}

/// Record the workload `sel` would run on the machine described by
/// `cfg`: capture its action streams into a trace without simulating.
/// Recording is simulation-free because streams are pure functions of
/// `(workload, nodes, scale, seed)`.
pub fn record(cfg: &MachineConfig, sel: &AppSel) -> Result<Trace, SimError> {
    cfg.validate().map_err(SimError::BadConfig)?;
    let trace = Trace::capture(sel.build(cfg)?);
    trace.validate().map_err(SimError::BadConfig)?;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{MachineKind, PrefetchMode};

    fn cfg() -> MachineConfig {
        MachineConfig::scaled_paper(MachineKind::NwCache, PrefetchMode::Naive, 0.05)
    }

    #[test]
    fn parse_table_names() {
        for app in AppId::ALL {
            match AppSel::parse(app.name()) {
                Ok(AppSel::Table(a)) => assert_eq!(a, app),
                other => panic!("{}: {other:?}", app.name()),
            }
        }
    }

    #[test]
    fn unknown_name_lists_valid_and_workload_syntax() {
        let err = AppSel::parse("guass").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("guass"), "{msg}");
        assert!(msg.contains("gauss") && msg.contains("sor"), "{msg}");
        assert!(msg.contains("workload:gen:"), "{msg}");
        assert!(msg.contains("workload:<trace-file>"), "{msg}");
    }

    #[test]
    fn gen_spec_parses_and_runs() {
        let sel = AppSel::parse("workload:gen:zipf:0.9,ws=32,acc=300").unwrap();
        assert_eq!(sel.name(), "zipf:0.9,ws=32,acc=300");
        let m = try_run_sel(&cfg(), &sel).unwrap();
        assert!(m.exec_time > 0);
    }

    #[test]
    fn bad_gen_spec_is_bad_config() {
        let err = AppSel::parse("workload:gen:lru,ws=4").unwrap_err();
        assert!(matches!(err, SimError::BadConfig(_)), "{err}");
        // Parses, but fails validation at build time.
        let sel = AppSel::parse("workload:gen:uniform,wf=1.5").unwrap();
        let err = try_run_sel(&cfg(), &sel).unwrap_err();
        assert!(matches!(err, SimError::BadConfig(_)), "{err}");
    }

    #[test]
    fn missing_trace_file_is_bad_config() {
        let err = AppSel::parse("workload:/no/such/file.nwtrace").unwrap_err();
        assert!(matches!(err, SimError::BadConfig(_)), "{err}");
    }

    #[test]
    fn record_then_replay_matches_direct_run() {
        let c = cfg();
        let sel = AppSel::Table(AppId::Gauss);
        let trace = record(&c, &sel).unwrap();
        assert_eq!(trace.name, "gauss");
        let direct = crate::try_run_app(&c, AppId::Gauss).unwrap();
        let replayed = try_run_sel(&c, &AppSel::Replay(Arc::new(trace))).unwrap();
        assert_eq!(direct, replayed);
    }

    #[test]
    fn replay_on_wrong_node_count_is_workload_mismatch() {
        let c = cfg();
        let trace = record(&c, &AppSel::Table(AppId::Sor)).unwrap();
        let mut other = c.clone();
        other.nodes = 4;
        other.io_nodes = 2;
        let err = try_run_sel(&other, &AppSel::Replay(Arc::new(trace))).unwrap_err();
        assert!(matches!(err, SimError::WorkloadMismatch { streams: 8, nodes: 4 }), "{err}");
    }
}
