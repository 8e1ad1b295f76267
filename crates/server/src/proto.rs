//! The frozen `nwserve-v1` wire protocol.
//!
//! The serve protocol reuses the workspace's LEB128 varint codec
//! ([`nw_sim::ckpt::put_varint`] / [`read_varint`]) so the whole wire
//! format shares one scalar encoding with checkpoints and traces:
//!
//! * **handshake** — the client sends the 4-byte magic `NWSV` plus a
//!   version byte; the server echoes both back. Anything else on the
//!   socket is rejected (except an HTTP `GET`, which the server
//!   sniffs and answers with the text metrics page — see
//!   `server::handle_conn`).
//! * **frames** — every subsequent message is
//!   `varint(type) ++ varint(payload_len) ++ payload`. Payloads are
//!   themselves varint/str records with a fixed field order per type.
//!
//! Requests (client → server) use type tags 1–15, responses
//! (server → client) 16–31, so a desynchronized stream fails fast on
//! an impossible tag instead of misparsing. Job error codes are the
//! CLI's [`nwcache::ExitCode`] numbers (0–4) plus two protocol-only
//! codes: [`CODE_CANCELED`] (10) and [`CODE_DEADLINE`] (11) — a
//! client that exits with the received code therefore behaves exactly
//! like the batch CLI for every simulator-level failure.

use nw_sim::ckpt::{put_varint, read_varint};
use std::io::{Read, Write};

/// Handshake magic.
pub const MAGIC: [u8; 4] = *b"NWSV";
/// Frozen protocol version. Both sides reject anything else.
pub const VERSION: u8 = 1;

/// Largest frame payload either side will accept (16 MiB): big enough
/// for any sweep report or Perfetto trace the server streams, small
/// enough that a garbage length prefix cannot OOM the process.
pub const MAX_FRAME: u64 = 16 * 1024 * 1024;

/// Job failed: cooperative cancellation via a `Cancel` frame.
pub const CODE_CANCELED: u64 = 10;
/// Job failed: its wall-clock deadline expired mid-run.
pub const CODE_DEADLINE: u64 = 11;

/// Human label for a job error code (exit-code numbers included).
pub fn code_name(code: u64) -> &'static str {
    match code {
        0 => "success",
        1 => "gate-failed",
        2 => "validation",
        3 => "sim-fault",
        4 => "corrupt-checkpoint",
        CODE_CANCELED => "canceled",
        CODE_DEADLINE => "deadline",
        _ => "unknown",
    }
}

/// Errors produced while speaking the protocol.
#[derive(Debug)]
pub enum ProtoError {
    /// The underlying socket failed.
    Io(std::io::Error),
    /// The peer's handshake was not `NWSV` + a supported version.
    Handshake(String),
    /// A frame or payload violated the format.
    Malformed(String),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "i/o error: {e}"),
            ProtoError::Handshake(m) => write!(f, "handshake failed: {m}"),
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<std::io::Error> for ProtoError {
    fn from(e: std::io::Error) -> Self {
        ProtoError::Io(e)
    }
}

/// What a submitted job runs: one simulation or a machine sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// One `(config, workload)` cell; the result is the run's flat
    /// summary JSON — byte-identical to `nwsim run --json`.
    Run,
    /// The same workload across every machine in `machines`; the
    /// result is the `summaries_to_json` array over the cells in
    /// submission order.
    Sweep,
}

/// A job submission: everything the server needs to rebuild the exact
/// `MachineConfig` + workload the batch CLI would have run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Run or sweep.
    pub kind: JobKind,
    /// Workload spec ([`nwcache::AppSel::parse`] syntax).
    pub spec: String,
    /// Machine labels (`standard|nwcache|dcd`); exactly one for
    /// [`JobKind::Run`], one per sweep cell for [`JobKind::Sweep`].
    pub machines: Vec<String>,
    /// Prefetch spec (`optimal|naive|window|adaptive[:N]`).
    pub prefetch: String,
    /// Application/machine scale factor.
    pub scale: f64,
    /// Workload seed override.
    pub seed: Option<u64>,
    /// Generated-topology spec (DESIGN.md §17 grammar).
    pub topo: Option<String>,
    /// Events of warmup to run (or restore from the warm cache) before
    /// the measured remainder; 0 = cold start.
    pub warmup_events: u64,
    /// Re-run the warmup cold on a warm-cache hit and require the
    /// cached checkpoint to be bit-identical (ckpt-diff clean).
    pub verify_warm: bool,
    /// Wall-clock deadline in milliseconds; 0 = none.
    pub deadline_ms: u64,
    /// Events between progress frames; 0 = server default.
    pub progress_every: u64,
    /// Stream a Chrome/Perfetto trace of the run before the summary
    /// (run jobs only).
    pub want_trace: bool,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            kind: JobKind::Run,
            spec: "sor".into(),
            machines: vec!["nwcache".into()],
            prefetch: "naive".into(),
            scale: 0.25,
            seed: None,
            topo: None,
            warmup_events: 0,
            verify_warm: false,
            deadline_ms: 0,
            progress_every: 0,
            want_trace: false,
        }
    }
}

/// Client → server messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit a job; the server answers `Accepted` then streams the
    /// job's frames on this connection.
    Submit(JobSpec),
    /// Cooperatively cancel the named job.
    Cancel {
        /// Id from the `Accepted` frame.
        job: u64,
    },
    /// Ask for the text metrics page.
    Metrics,
    /// Ask the server to drain and exit.
    Shutdown,
    /// Liveness probe.
    Ping,
}

/// Server → client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The job was admitted and assigned an id.
    Accepted {
        /// Server-assigned job id (used by `Cancel`).
        job: u64,
    },
    /// Periodic progress while a job runs.
    Progress {
        /// Job id.
        job: u64,
        /// Sweep cell currently running (0 for run jobs).
        cell: u64,
        /// Total sweep cells (1 for run jobs).
        cells: u64,
        /// Events dispatched so far in the current cell.
        events: u64,
        /// Simulated time of the current cell (pcycles).
        now: u64,
    },
    /// The job finished; `json` is the final document (a summary
    /// object for runs, a summary array for sweeps).
    Done {
        /// Job id.
        job: u64,
        /// Whether a warm-cache checkpoint seeded the run.
        warm_hit: bool,
        /// Result document.
        json: String,
    },
    /// The job failed; `code` follows the exit-code numbering.
    JobError {
        /// Job id (0 when the failure precedes admission).
        job: u64,
        /// Exit-code-compatible error code.
        code: u64,
        /// Human-readable detail.
        message: String,
    },
    /// The text metrics page.
    MetricsText {
        /// Prometheus-style `name value` lines.
        text: String,
    },
    /// Liveness reply.
    Pong,
    /// A Chrome/Perfetto trace of the finished run (precedes `Done`).
    TraceJson {
        /// Job id.
        job: u64,
        /// Chrome trace-event JSON.
        json: String,
    },
    /// The server is draining and autosaved this in-flight job.
    Drained {
        /// Job id.
        job: u64,
        /// Path of the autosaved checkpoint on the server.
        path: String,
        /// Events dispatched when the autosave was taken.
        events: u64,
    },
    /// The server is draining and refused the submission.
    ShuttingDown,
}

// Frame type tags. Requests 1–15, responses 16–31.
const T_SUBMIT: u64 = 1;
const T_CANCEL: u64 = 2;
const T_METRICS_REQ: u64 = 3;
const T_SHUTDOWN: u64 = 4;
const T_PING: u64 = 5;
const T_ACCEPTED: u64 = 16;
const T_PROGRESS: u64 = 17;
const T_DONE: u64 = 18;
const T_JOB_ERROR: u64 = 19;
const T_METRICS_TEXT: u64 = 20;
const T_PONG: u64 = 21;
const T_TRACE_JSON: u64 = 22;
const T_DRAINED: u64 = 23;
const T_SHUTTING_DOWN: u64 = 24;

/// Payload encoder: varints and length-prefixed strings.
#[derive(Default)]
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u64(&mut self, v: u64) {
        put_varint(&mut self.buf, v);
    }

    fn bool(&mut self, v: bool) {
        self.u64(v as u64);
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.bool(false),
            Some(x) => {
                self.bool(true);
                self.u64(x);
            }
        }
    }

    fn opt_str(&mut self, v: Option<&str>) {
        match v {
            None => self.bool(false),
            Some(s) => {
                self.bool(true);
                self.str(s);
            }
        }
    }
}

/// Payload decoder, mirroring [`Enc`] field by field.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn u64(&mut self) -> Result<u64, ProtoError> {
        read_varint(self.buf, &mut self.pos)
            .map_err(|e| ProtoError::Malformed(format!("varint at {}: {e}", self.pos)))
    }

    fn bool(&mut self) -> Result<bool, ProtoError> {
        match self.u64()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(ProtoError::Malformed(format!("bool tag {v}"))),
        }
    }

    fn f64(&mut self) -> Result<f64, ProtoError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, ProtoError> {
        let n = self.u64()? as usize;
        if n > self.buf.len() - self.pos {
            return Err(ProtoError::Malformed(format!(
                "string of {n} bytes overruns payload at {}",
                self.pos
            )));
        }
        let raw = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        std::str::from_utf8(raw)
            .map(str::to_owned)
            .map_err(|_| ProtoError::Malformed("string is not UTF-8".into()))
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, ProtoError> {
        if self.bool()? {
            Ok(Some(self.u64()?))
        } else {
            Ok(None)
        }
    }

    fn opt_str(&mut self) -> Result<Option<String>, ProtoError> {
        if self.bool()? {
            Ok(Some(self.str()?))
        } else {
            Ok(None)
        }
    }

    fn finish(self) -> Result<(), ProtoError> {
        if self.pos != self.buf.len() {
            return Err(ProtoError::Malformed(format!(
                "{} unconsumed payload bytes",
                self.buf.len() - self.pos
            )));
        }
        Ok(())
    }
}

fn encode_job_spec(e: &mut Enc, j: &JobSpec) {
    e.u64(match j.kind {
        JobKind::Run => 0,
        JobKind::Sweep => 1,
    });
    e.str(&j.spec);
    e.u64(j.machines.len() as u64);
    for m in &j.machines {
        e.str(m);
    }
    e.str(&j.prefetch);
    e.f64(j.scale);
    e.opt_u64(j.seed);
    e.opt_str(j.topo.as_deref());
    e.u64(j.warmup_events);
    e.bool(j.verify_warm);
    e.u64(j.deadline_ms);
    e.u64(j.progress_every);
    e.bool(j.want_trace);
}

fn decode_job_spec(d: &mut Dec<'_>) -> Result<JobSpec, ProtoError> {
    let kind = match d.u64()? {
        0 => JobKind::Run,
        1 => JobKind::Sweep,
        t => return Err(ProtoError::Malformed(format!("job kind tag {t}"))),
    };
    let spec = d.str()?;
    let n = d.u64()? as usize;
    if n > 1024 {
        return Err(ProtoError::Malformed(format!("{n} sweep machines")));
    }
    let mut machines = Vec::with_capacity(n);
    for _ in 0..n {
        machines.push(d.str()?);
    }
    Ok(JobSpec {
        kind,
        spec,
        machines,
        prefetch: d.str()?,
        scale: d.f64()?,
        seed: d.opt_u64()?,
        topo: d.opt_str()?,
        warmup_events: d.u64()?,
        verify_warm: d.bool()?,
        deadline_ms: d.u64()?,
        progress_every: d.u64()?,
        want_trace: d.bool()?,
    })
}

impl Request {
    fn encode(&self) -> (u64, Vec<u8>) {
        let mut e = Enc::default();
        let t = match self {
            Request::Submit(j) => {
                encode_job_spec(&mut e, j);
                T_SUBMIT
            }
            Request::Cancel { job } => {
                e.u64(*job);
                T_CANCEL
            }
            Request::Metrics => T_METRICS_REQ,
            Request::Shutdown => T_SHUTDOWN,
            Request::Ping => T_PING,
        };
        (t, e.buf)
    }

    fn decode(t: u64, payload: &[u8]) -> Result<Request, ProtoError> {
        let mut d = Dec::new(payload);
        let req = match t {
            T_SUBMIT => Request::Submit(decode_job_spec(&mut d)?),
            T_CANCEL => Request::Cancel { job: d.u64()? },
            T_METRICS_REQ => Request::Metrics,
            T_SHUTDOWN => Request::Shutdown,
            T_PING => Request::Ping,
            other => return Err(ProtoError::Malformed(format!("request tag {other}"))),
        };
        d.finish()?;
        Ok(req)
    }
}

impl Response {
    fn encode(&self) -> (u64, Vec<u8>) {
        let mut e = Enc::default();
        let t = match self {
            Response::Accepted { job } => {
                e.u64(*job);
                T_ACCEPTED
            }
            Response::Progress {
                job,
                cell,
                cells,
                events,
                now,
            } => {
                e.u64(*job);
                e.u64(*cell);
                e.u64(*cells);
                e.u64(*events);
                e.u64(*now);
                T_PROGRESS
            }
            Response::Done {
                job,
                warm_hit,
                json,
            } => {
                e.u64(*job);
                e.bool(*warm_hit);
                e.str(json);
                T_DONE
            }
            Response::JobError { job, code, message } => {
                e.u64(*job);
                e.u64(*code);
                e.str(message);
                T_JOB_ERROR
            }
            Response::MetricsText { text } => {
                e.str(text);
                T_METRICS_TEXT
            }
            Response::Pong => T_PONG,
            Response::TraceJson { job, json } => {
                e.u64(*job);
                e.str(json);
                T_TRACE_JSON
            }
            Response::Drained { job, path, events } => {
                e.u64(*job);
                e.str(path);
                e.u64(*events);
                T_DRAINED
            }
            Response::ShuttingDown => T_SHUTTING_DOWN,
        };
        (t, e.buf)
    }

    fn decode(t: u64, payload: &[u8]) -> Result<Response, ProtoError> {
        let mut d = Dec::new(payload);
        let rsp = match t {
            T_ACCEPTED => Response::Accepted { job: d.u64()? },
            T_PROGRESS => Response::Progress {
                job: d.u64()?,
                cell: d.u64()?,
                cells: d.u64()?,
                events: d.u64()?,
                now: d.u64()?,
            },
            T_DONE => Response::Done {
                job: d.u64()?,
                warm_hit: d.bool()?,
                json: d.str()?,
            },
            T_JOB_ERROR => Response::JobError {
                job: d.u64()?,
                code: d.u64()?,
                message: d.str()?,
            },
            T_METRICS_TEXT => Response::MetricsText { text: d.str()? },
            T_PONG => Response::Pong,
            T_TRACE_JSON => Response::TraceJson {
                job: d.u64()?,
                json: d.str()?,
            },
            T_DRAINED => Response::Drained {
                job: d.u64()?,
                path: d.str()?,
                events: d.u64()?,
            },
            T_SHUTTING_DOWN => Response::ShuttingDown,
            other => return Err(ProtoError::Malformed(format!("response tag {other}"))),
        };
        d.finish()?;
        Ok(rsp)
    }
}

fn write_frame(w: &mut impl Write, t: u64, payload: &[u8]) -> Result<(), ProtoError> {
    let mut frame = Vec::with_capacity(payload.len() + 12);
    put_varint(&mut frame, t);
    put_varint(&mut frame, payload.len() as u64);
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Read one varint from the stream byte by byte. `first_byte_opt`
/// turns a timeout/would-block on the FIRST byte into `Ok(None)` (no
/// frame started yet); a stall mid-varint is retried, so a frame that
/// has started is always read to completion.
fn read_stream_varint(
    r: &mut impl Read,
    first_byte_opt: bool,
) -> Result<Option<u64>, ProtoError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    let mut first = true;
    loop {
        let mut byte = [0u8; 1];
        match r.read_exact(&mut byte) {
            Ok(()) => {}
            Err(e)
                if first
                    && first_byte_opt
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                return Ok(None);
            }
            Err(e)
                if !first
                    && matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
            {
                continue;
            }
            Err(e) => return Err(ProtoError::Io(e)),
        }
        first = false;
        let b = byte[0];
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(ProtoError::Malformed("frame varint overflow".into()));
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Ok(Some(v));
        }
        shift += 7;
    }
}

fn read_exact_retry(r: &mut impl Read, buf: &mut [u8]) -> Result<(), ProtoError> {
    let mut done = 0;
    while done < buf.len() {
        match r.read(&mut buf[done..]) {
            Ok(0) => {
                return Err(ProtoError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "peer closed mid-frame",
                )))
            }
            Ok(n) => done += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(e) => return Err(ProtoError::Io(e)),
        }
    }
    Ok(())
}

fn read_raw_frame(
    r: &mut impl Read,
    first_byte_opt: bool,
) -> Result<Option<(u64, Vec<u8>)>, ProtoError> {
    let Some(t) = read_stream_varint(r, first_byte_opt)? else {
        return Ok(None);
    };
    let len = read_stream_varint(r, false)?.expect("non-optional varint");
    if len > MAX_FRAME {
        return Err(ProtoError::Malformed(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
        )));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_retry(r, &mut payload)?;
    Ok(Some((t, payload)))
}

/// Write one request frame.
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<(), ProtoError> {
    let (t, payload) = req.encode();
    write_frame(w, t, &payload)
}

/// Write one response frame.
pub fn write_response(w: &mut impl Write, rsp: &Response) -> Result<(), ProtoError> {
    let (t, payload) = rsp.encode();
    write_frame(w, t, &payload)
}

/// Read one request frame (blocking).
pub fn read_request(r: &mut impl Read) -> Result<Request, ProtoError> {
    let (t, payload) = read_raw_frame(r, false)?.expect("non-optional frame");
    Request::decode(t, &payload)
}

/// Read one request frame if one has started arriving; `Ok(None)` when
/// the read timed out before the first byte. Used by the server's
/// streaming loop to poll for `Cancel` without blocking job progress.
pub fn try_read_request(r: &mut impl Read) -> Result<Option<Request>, ProtoError> {
    match read_raw_frame(r, true)? {
        None => Ok(None),
        Some((t, payload)) => Ok(Some(Request::decode(t, &payload)?)),
    }
}

/// Read one response frame (blocking).
pub fn read_response(r: &mut impl Read) -> Result<Response, ProtoError> {
    let (t, payload) = read_raw_frame(r, false)?.expect("non-optional frame");
    Response::decode(t, &payload)
}

/// Client side of the handshake: send magic + version, require the
/// echo.
pub fn client_handshake(s: &mut (impl Read + Write)) -> Result<(), ProtoError> {
    let mut hello = [0u8; 5];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4] = VERSION;
    s.write_all(&hello)?;
    s.flush()?;
    let mut echo = [0u8; 5];
    read_exact_retry(s, &mut echo)?;
    if echo[..4] != MAGIC {
        return Err(ProtoError::Handshake("server did not echo NWSV".into()));
    }
    if echo[4] != VERSION {
        return Err(ProtoError::Handshake(format!(
            "server speaks version {}, client speaks {VERSION}",
            echo[4]
        )));
    }
    Ok(())
}

/// Server side of the handshake, given the already-sniffed first four
/// bytes: verify the version byte and echo magic + version.
pub fn server_handshake_rest(s: &mut (impl Read + Write)) -> Result<(), ProtoError> {
    let mut ver = [0u8; 1];
    read_exact_retry(s, &mut ver)?;
    if ver[0] != VERSION {
        return Err(ProtoError::Handshake(format!(
            "client speaks version {}, server speaks {VERSION}",
            ver[0]
        )));
    }
    let mut echo = [0u8; 5];
    echo[..4].copy_from_slice(&MAGIC);
    echo[4] = VERSION;
    s.write_all(&echo)?;
    s.flush()?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let mut buf = Vec::new();
        write_request(&mut buf, &req).unwrap();
        let mut cur = std::io::Cursor::new(buf);
        assert_eq!(read_request(&mut cur).unwrap(), req);
        assert_eq!(cur.position() as usize, cur.get_ref().len());
    }

    fn round_trip_response(rsp: Response) {
        let mut buf = Vec::new();
        write_response(&mut buf, &rsp).unwrap();
        let mut cur = std::io::Cursor::new(buf);
        assert_eq!(read_response(&mut cur).unwrap(), rsp);
        assert_eq!(cur.position() as usize, cur.get_ref().len());
    }

    #[test]
    fn requests_round_trip() {
        round_trip_request(Request::Submit(JobSpec::default()));
        round_trip_request(Request::Submit(JobSpec {
            kind: JobKind::Sweep,
            spec: "workload:gen:zipf:0.9,ws=32,acc=300".into(),
            machines: vec!["standard".into(), "dcd".into(), "nwcache".into()],
            prefetch: "adaptive:16".into(),
            scale: 0.05,
            seed: Some(42),
            topo: Some("mesh=4x4,rings=2".into()),
            warmup_events: 5_000,
            verify_warm: true,
            deadline_ms: 30_000,
            progress_every: 1_000,
            want_trace: true,
        }));
        round_trip_request(Request::Cancel { job: 7 });
        round_trip_request(Request::Metrics);
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Ping);
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Accepted { job: 3 });
        round_trip_response(Response::Progress {
            job: 3,
            cell: 1,
            cells: 4,
            events: 10_000,
            now: 123_456,
        });
        round_trip_response(Response::Done {
            job: 3,
            warm_hit: true,
            json: "{\"app\":\"sor\"}".into(),
        });
        round_trip_response(Response::JobError {
            job: 3,
            code: CODE_DEADLINE,
            message: "deadline of 5ms expired".into(),
        });
        round_trip_response(Response::MetricsText {
            text: "nwserve_jobs_completed_total 9\n".into(),
        });
        round_trip_response(Response::Pong);
        round_trip_response(Response::TraceJson {
            job: 3,
            json: "{\"traceEvents\":[]}".into(),
        });
        round_trip_response(Response::Drained {
            job: 3,
            path: "autosave/job-3.nwckpt".into(),
            events: 40_000,
        });
        round_trip_response(Response::ShuttingDown);
    }

    #[test]
    fn rejects_wrong_tag_direction() {
        // A response tag is not a valid request and vice versa.
        let mut buf = Vec::new();
        write_response(&mut buf, &Response::Pong).unwrap();
        let mut cur = std::io::Cursor::new(buf);
        let err = read_request(&mut cur).unwrap_err();
        assert!(matches!(err, ProtoError::Malformed(_)), "{err}");

        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Ping).unwrap();
        let mut cur = std::io::Cursor::new(buf);
        let err = read_response(&mut cur).unwrap_err();
        assert!(matches!(err, ProtoError::Malformed(_)), "{err}");
    }

    #[test]
    fn rejects_trailing_payload_bytes() {
        let mut frame = Vec::new();
        put_varint(&mut frame, 5); // T_PING
        put_varint(&mut frame, 3); // ping carries no payload
        frame.extend_from_slice(b"xyz");
        let mut cur = std::io::Cursor::new(frame);
        let err = read_request(&mut cur).unwrap_err();
        assert!(matches!(err, ProtoError::Malformed(_)), "{err}");
    }

    #[test]
    fn rejects_oversized_frame_without_allocating() {
        let mut frame = Vec::new();
        put_varint(&mut frame, T_DONE);
        put_varint(&mut frame, u64::MAX); // absurd length prefix
        let mut cur = std::io::Cursor::new(frame);
        let err = read_response(&mut cur).unwrap_err();
        assert!(matches!(err, ProtoError::Malformed(_)), "{err}");
    }

    #[test]
    fn string_length_near_u64_max_is_malformed() {
        let mut payload = Vec::new();
        put_varint(&mut payload, 0); // a run job
        put_varint(&mut payload, u64::MAX); // its spec's length
        let mut frame = Vec::new();
        put_varint(&mut frame, T_SUBMIT);
        put_varint(&mut frame, payload.len() as u64);
        frame.extend_from_slice(&payload);
        let err = read_request(&mut std::io::Cursor::new(frame)).unwrap_err();
        assert!(matches!(err, ProtoError::Malformed(_)), "{err}");
    }

    #[test]
    fn truncated_payload_is_io_error() {
        let mut buf = Vec::new();
        write_request(&mut buf, &Request::Submit(JobSpec::default())).unwrap();
        buf.truncate(buf.len() - 4);
        let mut cur = std::io::Cursor::new(buf);
        let err = read_request(&mut cur).unwrap_err();
        assert!(matches!(err, ProtoError::Io(_)), "{err}");
    }

    #[test]
    fn handshake_round_trips_over_a_socket_pair() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut magic = [0u8; 4];
            s.read_exact(&mut magic).unwrap();
            assert_eq!(magic, MAGIC);
            server_handshake_rest(&mut s).unwrap();
            assert_eq!(read_request(&mut s).unwrap(), Request::Ping);
            write_response(&mut s, &Response::Pong).unwrap();
        });
        let mut c = std::net::TcpStream::connect(addr).unwrap();
        client_handshake(&mut c).unwrap();
        write_request(&mut c, &Request::Ping).unwrap();
        assert_eq!(read_response(&mut c).unwrap(), Response::Pong);
        server.join().unwrap();
    }

    #[test]
    fn code_names_are_stable() {
        assert_eq!(code_name(0), "success");
        assert_eq!(code_name(1), "gate-failed");
        assert_eq!(code_name(2), "validation");
        assert_eq!(code_name(3), "sim-fault");
        assert_eq!(code_name(4), "corrupt-checkpoint");
        assert_eq!(code_name(CODE_CANCELED), "canceled");
        assert_eq!(code_name(CODE_DEADLINE), "deadline");
    }
}
