//! An in-process `nw_server::Server` with one client connection, and
//! the run jobs the `serve-warm` workload submits to it.

use crate::cells::{machine_label, prefetch_label, Cell};
use nw_server::{Connection, JobKind, JobSpec, ServeOptions, ServeStats, Server, ServerHandle};
use std::path::PathBuf;
use std::thread::JoinHandle;
use std::time::Instant;

/// A running server on 127.0.0.1 plus one handshaken client.
pub struct Session {
    conn: Option<Connection>,
    handle: ServerHandle,
    thread: Option<JoinHandle<ServeStats>>,
}

/// One job as the client saw it.
pub struct Served {
    /// Submit → terminal frame, host nanoseconds.
    pub latency_ns: u64,
    /// The `Done` JSON, or the error the job ended with.
    pub json: Result<String, String>,
    /// Whether the job warm-started from the server's cache.
    pub warm_hit: bool,
}

impl Session {
    /// Bind a server with one job slot and an in-memory warm cache,
    /// start it, and connect.
    pub fn start(autosave_dir: PathBuf) -> std::io::Result<Session> {
        let server = Server::bind(ServeOptions {
            addr: "127.0.0.1:0".into(),
            job_slots: 1,
            warm_dir: None,
            autosave_dir,
            ..ServeOptions::default()
        })?;
        let addr = server.local_addr()?.to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        let conn = match Connection::connect(&addr) {
            Ok(c) => c,
            Err(e) => {
                handle.shutdown();
                let _ = thread.join();
                return Err(std::io::Error::other(e.to_string()));
            }
        };
        Ok(Session {
            conn: Some(conn),
            handle,
            thread: Some(thread),
        })
    }

    /// Submit `cell` as a run job with `warmup` events of warm prefix
    /// and wait for its terminal frame.
    pub fn run(&mut self, cell: &Cell, warmup: u64) -> Served {
        let spec = job_spec(cell, warmup);
        let conn = self.conn.as_mut().expect("session is open");
        let t0 = Instant::now();
        let result = conn.run_job(&spec, |_| {});
        let latency_ns = t0.elapsed().as_nanos() as u64;
        match result {
            Ok(r) => Served {
                latency_ns,
                warm_hit: r.warm_hit,
                json: r.json.ok_or_else(|| {
                    format!(
                        "job ended with code {}: {}",
                        r.code,
                        r.message.unwrap_or_default()
                    )
                }),
            },
            Err(e) => Served {
                latency_ns,
                warm_hit: false,
                json: Err(e.to_string()),
            },
        }
    }

    /// `(warm hits, warm misses)` from the server's metrics page.
    pub fn warm_counts(&mut self) -> Result<(u64, u64), String> {
        let conn = self.conn.as_mut().expect("session is open");
        let text = conn.metrics_text().map_err(|e| e.to_string())?;
        let value = |name: &str| {
            text.lines()
                .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse::<u64>().ok())
                .ok_or_else(|| format!("metrics page lacks {name}"))
        };
        Ok((
            value("nwserve_warm_hits_total")?,
            value("nwserve_warm_misses_total")?,
        ))
    }

    /// Close the connection, drain the server and wait for it to exit.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.conn = None;
        self.handle.shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The run request for `cell`, in the form the server accepts.
fn job_spec(cell: &Cell, warmup: u64) -> JobSpec {
    JobSpec {
        kind: JobKind::Run,
        spec: cell.spec.clone(),
        machines: vec![machine_label(cell.params.machine).to_string()],
        prefetch: prefetch_label(cell.params.prefetch).to_string(),
        scale: cell.params.scale,
        seed: cell.params.seed,
        topo: cell.params.topo.clone(),
        warmup_events: warmup,
        ..JobSpec::default()
    }
}
