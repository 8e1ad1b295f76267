//! The `nwsim serve` server: accept loop, job scheduling, graceful
//! drain.
//!
//! One thread per connection; each connection runs at most one job at
//! a time (the protocol is submit → stream → terminal frame). Jobs
//! execute on [`nw_sim::pool::spawn_job`] threads, bounded by a
//! counting semaphore of job slots, with a [`CancelToken`] polled
//! between simulation chunks — so `Cancel` frames, wall-clock
//! deadlines, and drain requests all take effect within one chunk of
//! events.
//!
//! **Graceful drain.** A SIGTERM/SIGINT (see
//! [`install_signal_handlers`]), a `Shutdown` frame, or
//! [`ServerHandle::shutdown`] sets the drain flag. The accept loop
//! stops admitting connections, new submissions are answered with
//! `ShuttingDown`, and every in-flight job autosaves an `nwckpt-v1`
//! checkpoint (atomic temp + rename) under the autosave directory and
//! reports it with a `Drained` frame — the client can later finish the
//! run with `nwsim resume`, bit-identically.
//!
//! **Metrics.** The same port answers plain HTTP: a connection whose
//! first bytes are `GET ` receives the text metrics page and is
//! closed, so `curl http://host:port/metrics` works with no extra
//! listener.

use crate::cache::{self, WarmCache, WarmStart};
use crate::metrics::ServerMetrics;
use crate::proto::{self, JobKind, JobSpec, ProtoError, Request, Response};
use nwcache::checkpoint;
use nwcache::config::{MachineKind, PrefetchMode, RunParams};
use nwcache::error::{ExitCode, SimError};
use nwcache::machine::{Machine, RunOutcome};
use nwcache::metrics::{summaries_to_json, RunSummary};
use nwcache::workload::AppSel;
use nw_sim::pool::{self, CancelToken};
use std::io::Read;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Process-wide drain request, set by the signal handler. Per-server
/// shutdown (the `Shutdown` frame / [`ServerHandle::shutdown`]) uses
/// the server's own flag instead, so in-process tests don't poison
/// each other.
static DRAIN: AtomicBool = AtomicBool::new(false);

/// Request a process-wide drain (what the SIGTERM handler does).
pub fn request_drain() {
    DRAIN.store(true, Ordering::SeqCst);
}

/// Install SIGTERM/SIGINT handlers that request a drain. Relies only
/// on the C `signal` binding std already links; an atomic store is all
/// the handler performs.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_term(_sig: i32) {
        DRAIN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGTERM, on_term as *const () as usize);
        signal(SIGINT, on_term as *const () as usize);
    }
}

/// No-op off unix; the `Shutdown` frame still drains the server.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Max concurrently *running* jobs; 0 = `max(2, cores)`.
    pub job_slots: usize,
    /// Directory persisting warm-cache entries across restarts.
    pub warm_dir: Option<PathBuf>,
    /// Max in-memory warm-cache entries (LRU beyond that).
    pub warm_capacity: usize,
    /// Where draining jobs autosave their checkpoints.
    pub autosave_dir: PathBuf,
    /// Events per simulation chunk between control checks (cancel /
    /// deadline / drain) and default progress cadence.
    pub chunk_events: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".into(),
            job_slots: 0,
            warm_dir: None,
            warm_capacity: 8,
            autosave_dir: PathBuf::from("nwserve-autosave"),
            chunk_events: 10_000,
        }
    }
}

/// Counting semaphore bounding concurrently running jobs.
struct Slots {
    free: Mutex<usize>,
    cv: Condvar,
}

impl Slots {
    fn new(n: usize) -> Slots {
        Slots {
            free: Mutex::new(n),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut free = self.free.lock().unwrap();
        while *free == 0 {
            free = self.cv.wait(free).unwrap();
        }
        *free -= 1;
    }

    fn release(&self) {
        *self.free.lock().unwrap() += 1;
        self.cv.notify_one();
    }
}

struct State {
    opts: ServeOptions,
    metrics: ServerMetrics,
    cache: WarmCache,
    shutdown: AtomicBool,
    next_job: AtomicU64,
    slots: Slots,
}

impl State {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || DRAIN.load(Ordering::SeqCst)
    }

    fn warm_snapshot(&self) -> (u64, u64, u64) {
        (
            self.cache.hits(),
            self.cache.misses(),
            self.cache.len() as u64,
        )
    }
}

/// Clonable handle for poking a running server from another thread
/// (used by tests and embedders; the CLI drains via signals).
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<State>,
}

impl ServerHandle {
    /// Request this server (only) to drain and exit.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
    }
}

/// Counter snapshot returned by [`Server::run`] when the server exits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeStats {
    /// Jobs that finished with a `Done` frame.
    pub jobs_completed: u64,
    /// Jobs that ended in a `JobError` frame.
    pub jobs_failed: u64,
    /// Jobs autosaved by the drain.
    pub jobs_drained: u64,
}

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
}

impl Server {
    /// Bind the listen socket and initialize server state.
    pub fn bind(opts: ServeOptions) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let slots = match opts.job_slots {
            0 => pool::default_jobs().max(2),
            n => n,
        };
        let cache = WarmCache::new(opts.warm_dir.clone(), opts.warm_capacity);
        let state = Arc::new(State {
            opts,
            metrics: ServerMetrics::default(),
            cache,
            shutdown: AtomicBool::new(false),
            next_job: AtomicU64::new(0),
            slots: Slots::new(slots),
        });
        Ok(Server { listener, state })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle for requesting shutdown from another thread.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Accept and serve connections until a drain is requested, then
    /// wait for every connection (and therefore every autosaving job)
    /// to finish.
    pub fn run(self) -> ServeStats {
        self.listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            if self.state.draining() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let _ = stream.set_nodelay(true);
                    let state = Arc::clone(&self.state);
                    conns.push(std::thread::spawn(move || handle_conn(state, stream)));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(15));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(15)),
            }
            conns.retain(|h| !h.is_finished());
        }
        for h in conns {
            let _ = h.join();
        }
        let m = &self.state.metrics;
        ServeStats {
            jobs_completed: m.jobs_completed.load(Ordering::Relaxed),
            jobs_failed: m.jobs_failed.load(Ordering::Relaxed),
            jobs_drained: m.jobs_drained.load(Ordering::Relaxed),
        }
    }
}

fn handle_conn(state: Arc<State>, mut stream: TcpStream) {
    ServerMetrics::incr(&state.metrics.connections);
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let mut first = [0u8; 4];
    if stream.read_exact(&mut first).is_err() {
        return;
    }
    if &first == b"GET " {
        serve_http(&state, stream);
        return;
    }
    if first != proto::MAGIC {
        return;
    }
    if proto::server_handshake_rest(&mut stream).is_err() {
        return;
    }
    // Idle poll cadence: lets the connection notice a drain without a
    // request in flight.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    conn_loop(&state, &mut stream);
}

fn serve_http(state: &State, mut stream: TcpStream) {
    ServerMetrics::incr(&state.metrics.http_scrapes);
    // Drain the request head (best effort — the response is the same
    // for every path).
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let mut buf = [0u8; 1024];
    let mut head: Vec<u8> = b"GET ".to_vec();
    while !head.windows(4).any(|w| w == b"\r\n\r\n") && head.len() < 8192 {
        match stream.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => head.extend_from_slice(&buf[..n]),
        }
    }
    let body = state.metrics.render_text(state.warm_snapshot());
    use std::io::Write;
    let _ = write!(
        stream,
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{}",
        body.len(),
        body
    );
    let _ = stream.flush();
}

fn conn_loop(state: &Arc<State>, stream: &mut TcpStream) {
    loop {
        if state.draining() {
            let _ = proto::write_response(stream, &Response::ShuttingDown);
            return;
        }
        let req = match proto::try_read_request(stream) {
            Ok(None) => continue,
            Ok(Some(r)) => r,
            Err(_) => return, // client gone or garbage: close
        };
        match req {
            Request::Ping => {
                if proto::write_response(stream, &Response::Pong).is_err() {
                    return;
                }
            }
            Request::Metrics => {
                let text = state.metrics.render_text(state.warm_snapshot());
                if proto::write_response(stream, &Response::MetricsText { text }).is_err() {
                    return;
                }
            }
            Request::Shutdown => {
                state.shutdown.store(true, Ordering::SeqCst);
                let _ = proto::write_response(stream, &Response::ShuttingDown);
                return;
            }
            // No job is streaming on this connection, so there is
            // nothing to cancel.
            Request::Cancel { .. } => {}
            Request::Submit(spec) => {
                if state.draining() {
                    let _ = proto::write_response(stream, &Response::ShuttingDown);
                    continue;
                }
                if serve_job(state, stream, spec).is_err() {
                    return;
                }
            }
        }
    }
}

/// Admit, run and stream one job on this connection. `Err` means the
/// socket failed and the connection should close.
fn serve_job(
    state: &Arc<State>,
    stream: &mut TcpStream,
    spec: JobSpec,
) -> Result<(), ProtoError> {
    let job = state.next_job.fetch_add(1, Ordering::Relaxed) + 1;
    state.slots.acquire();
    ServerMetrics::incr(&state.metrics.jobs_submitted);
    state.metrics.jobs_active.fetch_add(1, Ordering::Relaxed);
    let result = stream_job(state, stream, job, spec);
    state.metrics.jobs_active.fetch_sub(1, Ordering::Relaxed);
    state.slots.release();
    result
}

fn stream_job(
    state: &Arc<State>,
    stream: &mut TcpStream,
    job: u64,
    spec: JobSpec,
) -> Result<(), ProtoError> {
    proto::write_response(stream, &Response::Accepted { job })?;
    let (tx, rx) = mpsc::channel::<Response>();
    let job_state = Arc::clone(state);
    let handle = pool::spawn_job(move |cancel| run_job(&job_state, job, &spec, &tx, &cancel));
    // Short poll timeout while a job streams, so control frames
    // (Cancel/Ping) are picked up promptly between event batches.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(10)));
    let mut terminal = false;
    let mut io_result: Result<(), ProtoError> = Ok(());
    'stream: loop {
        // Forward job events (Progress / TraceJson / terminal) — in
        // bounded batches, so a job that streams faster than the
        // channel ever drains cannot starve the socket poll below.
        for _ in 0..256 {
            match rx.recv_timeout(Duration::from_millis(25)) {
                Ok(rsp) => {
                    let is_terminal = matches!(
                        rsp,
                        Response::Done { .. }
                            | Response::JobError { .. }
                            | Response::Drained { .. }
                    );
                    if let Err(e) = proto::write_response(stream, &rsp) {
                        handle.cancel();
                        io_result = Err(e);
                        break 'stream;
                    }
                    if is_terminal {
                        terminal = true;
                        break 'stream;
                    }
                }
                Err(RecvTimeoutError::Timeout) => break,
                Err(RecvTimeoutError::Disconnected) => break 'stream,
            }
        }
        // Poll the socket for mid-job control frames.
        match proto::try_read_request(stream) {
            Ok(None) => {}
            Ok(Some(Request::Cancel { job: id })) if id == job => handle.cancel(),
            Ok(Some(Request::Ping)) => {
                if let Err(e) = proto::write_response(stream, &Response::Pong) {
                    handle.cancel();
                    io_result = Err(e);
                    break 'stream;
                }
            }
            Ok(Some(_)) => {} // other requests are invalid mid-job; ignored
            Err(e) => {
                handle.cancel();
                io_result = Err(e);
                break 'stream;
            }
        }
    }
    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
    let joined = handle.join();
    if !terminal && io_result.is_ok() {
        // The job thread died without a terminal frame — a panic.
        let message = match joined {
            Err(p) => p.message,
            Ok(()) => "job ended without a result".into(),
        };
        ServerMetrics::incr(&state.metrics.jobs_failed);
        proto::write_response(
            stream,
            &Response::JobError {
                job,
                code: ExitCode::SimFault.code() as u64,
                message,
            },
        )?;
    }
    io_result
}

/// Execute one job on its pool thread, reporting through `tx`. Always
/// ends with exactly one terminal event (`Done`, `JobError`, or
/// `Drained`).
fn run_job(
    state: &Arc<State>,
    job: u64,
    spec: &JobSpec,
    tx: &Sender<Response>,
    cancel: &CancelToken,
) {
    let fail = |code: u64, message: String| {
        ServerMetrics::incr(&state.metrics.jobs_failed);
        let _ = tx.send(Response::JobError { job, code, message });
    };
    let sim_fail = |e: &SimError| fail(e.exit_code().code() as u64, e.to_string());

    let (prefetch, window) = match PrefetchMode::parse_spec(&spec.prefetch) {
        Ok(p) => p,
        Err(e) => return fail(ExitCode::Validation.code() as u64, e),
    };
    if spec.machines.is_empty() {
        return fail(
            ExitCode::Validation.code() as u64,
            "job names no machines".into(),
        );
    }
    if spec.kind == JobKind::Run && spec.machines.len() != 1 {
        return fail(
            ExitCode::Validation.code() as u64,
            format!("run jobs take one machine, got {}", spec.machines.len()),
        );
    }
    let mut cfgs = Vec::with_capacity(spec.machines.len());
    for label in &spec.machines {
        let kind = match MachineKind::parse(label) {
            Ok(kind) => kind,
            Err(e) => return fail(ExitCode::Validation.code() as u64, e),
        };
        let params = RunParams {
            machine: kind,
            prefetch,
            prefetch_window: window,
            scale: spec.scale,
            seed: spec.seed,
            topo: spec.topo.clone(),
        };
        match params.to_config() {
            Ok(cfg) => cfgs.push(cfg),
            Err(e) => return sim_fail(&e),
        }
    }
    if let Err(e) = AppSel::parse(&spec.spec) {
        return sim_fail(&e);
    }
    let deadline = (spec.deadline_ms > 0)
        .then(|| Instant::now() + Duration::from_millis(spec.deadline_ms));
    let chunk = if spec.progress_every > 0 {
        spec.progress_every
    } else {
        state.opts.chunk_events.max(1)
    };
    let cells = cfgs.len() as u64;
    let mut summaries: Vec<RunSummary> = Vec::with_capacity(cfgs.len());
    let mut warm_hit = false;
    for (i, cfg) in cfgs.iter().enumerate() {
        let Some((metrics, hit)) =
            run_cell(state, job, spec, cfg, i as u64, cells, chunk, deadline, cancel, tx)
        else {
            return; // terminal event already sent
        };
        warm_hit |= hit;
        summaries.push(metrics.summary());
    }
    let json = match spec.kind {
        JobKind::Run => summaries[0].to_json(),
        JobKind::Sweep => summaries_to_json(&summaries),
    };
    ServerMetrics::incr(&state.metrics.jobs_completed);
    let _ = tx.send(Response::Done {
        job,
        warm_hit,
        json,
    });
}

/// Run one `(config, workload)` cell in control-checked chunks.
/// `None` means a terminal event was already sent (failure, cancel,
/// deadline, or drain-autosave).
#[allow(clippy::too_many_arguments)]
fn run_cell(
    state: &Arc<State>,
    job: u64,
    spec: &JobSpec,
    cfg: &nwcache::MachineConfig,
    cell: u64,
    cells: u64,
    chunk: u64,
    deadline: Option<Instant>,
    cancel: &CancelToken,
    tx: &Sender<Response>,
) -> Option<(nwcache::RunMetrics, bool)> {
    let fail = |code: u64, message: String| {
        ServerMetrics::incr(&state.metrics.jobs_failed);
        let _ = tx.send(Response::JobError { job, code, message });
    };
    let mut hit = false;
    let mut machine: Box<Machine> = if spec.warmup_events > 0 {
        match cache::warm_start(
            &state.cache,
            cfg,
            &spec.spec,
            spec.warmup_events,
            spec.verify_warm,
        ) {
            Ok(WarmStart::Finished(metrics)) => return Some((*metrics, false)),
            Ok(WarmStart::Ready { machine, hit: h }) => {
                hit = h;
                machine
            }
            Err(e @ cache::WarmError::Drift { .. }) => {
                fail(ExitCode::GateFailed.code() as u64, e.to_string());
                return None;
            }
            Err(cache::WarmError::Sim(e)) => {
                fail(e.exit_code().code() as u64, e.to_string());
                return None;
            }
        }
    } else {
        let built = (|| {
            let sel = AppSel::parse(&spec.spec)?;
            cfg.validate().map_err(SimError::BadConfig)?;
            let build = sel.build(cfg)?;
            Machine::try_from_build(cfg.clone(), build)
        })();
        match built {
            Ok(m) => Box::new(m),
            Err(e) => {
                fail(e.exit_code().code() as u64, e.to_string());
                return None;
            }
        }
    };
    if spec.want_trace && spec.kind == JobKind::Run {
        machine.enable_observer(nwcache::observe::ObserveConfig::default());
    }
    loop {
        if cancel.is_cancelled() {
            ServerMetrics::incr(&state.metrics.jobs_canceled);
            fail(proto::CODE_CANCELED, "job canceled".into());
            return None;
        }
        if deadline.is_some_and(|d| Instant::now() >= d) {
            fail(
                proto::CODE_DEADLINE,
                format!("deadline of {}ms expired", spec.deadline_ms),
            );
            return None;
        }
        if state.draining() {
            let dir = &state.opts.autosave_dir;
            let _ = std::fs::create_dir_all(dir);
            let path = dir.join(format!("job-{job}.nwckpt"));
            match checkpoint::save_file(&path, &spec.spec, &mut machine) {
                Ok(()) => {
                    ServerMetrics::incr(&state.metrics.jobs_drained);
                    let _ = tx.send(Response::Drained {
                        job,
                        path: path.display().to_string(),
                        events: machine.events_dispatched(),
                    });
                }
                Err(e) => fail(e.exit_code().code() as u64, e.to_string()),
            }
            return None;
        }
        match machine.try_run_events(chunk) {
            Ok(RunOutcome::Done(metrics)) => {
                if spec.want_trace && spec.kind == JobKind::Run {
                    if let Some(obs) = machine.take_observation() {
                        let _ = tx.send(Response::TraceJson {
                            job,
                            json: obs.to_chrome_json(),
                        });
                    }
                }
                return Some((*metrics, hit));
            }
            Ok(RunOutcome::Paused) => {
                let _ = tx.send(Response::Progress {
                    job,
                    cell,
                    cells,
                    events: machine.events_dispatched(),
                    now: machine.exec_time(),
                });
            }
            Err(e) => {
                fail(e.exit_code().code() as u64, e.to_string());
                return None;
            }
        }
    }
}
