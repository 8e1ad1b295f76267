//! The frozen `nwserve-v1` wire protocol.
//!
//! The serve protocol is written and read by the workspace's one
//! binary codec, the [`nw_sim::ckpt`] field visitor in its headerless
//! mode, so checkpoints, traces and frames share one scalar encoding
//! and one set of input checks:
//!
//! * **handshake** — the client sends the 4-byte magic `NWSV` plus a
//!   version byte; the server echoes both back. Anything else on the
//!   socket is rejected (except an HTTP `GET`, which the server
//!   sniffs and answers with the text metrics page — see
//!   `server::handle_conn`).
//! * **frames** — every subsequent message is
//!   `varint(type) ++ varint(payload_len) ++ payload`: an `nwckpt-v1`
//!   section whose id is the type tag. The payload is the message's
//!   fields in the fixed order of its row in the `messages!` tables
//!   below, the one list both directions walk.
//!
//! Requests (client → server) use type tags 1–15, responses
//! (server → client) 16–31, so a desynchronized stream fails fast on
//! an impossible tag instead of misparsing. Job error codes are the
//! CLI's [`nwcache::ExitCode`] numbers (0–4) plus two protocol-only
//! codes: [`CODE_CANCELED`] (10) and [`CODE_DEADLINE`] (11) — a
//! client that exits with the received code therefore behaves exactly
//! like the batch CLI for every simulator-level failure.

use nw_sim::ckpt::{read_varint, Ckpt, CkptError, CkptReader, CkptWriter};
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

/// Most machines one sweep job may name.
const MAX_SWEEP_MACHINES: usize = 1024;

impl JobSpec {
    /// Every field, in wire order, in either direction.
    fn visit(c: &mut Ckpt, j: &mut JobSpec) -> Result<(), CkptError> {
        c.choice(&mut j.kind, &[JobKind::Run, JobKind::Sweep], "job kind")?;
        c.str(&mut j.spec)?;
        c.list(&mut j.machines, MAX_SWEEP_MACHINES, 1, "sweep machines", Ckpt::str)?;
        c.str(&mut j.prefetch)?;
        c.f64(&mut j.scale)?;
        c.opt(&mut j.seed, 0, Ckpt::u64)?;
        c.opt(&mut j.topo, String::new(), Ckpt::str)?;
        c.u64(&mut j.warmup_events)?;
        c.bool(&mut j.verify_warm)?;
        c.u64(&mut j.deadline_ms)?;
        c.u64(&mut j.progress_every)?;
        c.bool(&mut j.want_trace)
    }
}

/// What the frame codec needs of a message enum; `messages!` writes
/// it from the enum's one table.
trait Message: Clone {
    /// `request` or `response`, for errors.
    const WHAT: &'static str;
    /// The type tag this message is sent under.
    fn tag(&self) -> u32;
    /// The message a type tag decodes into, its fields blank.
    fn blank(tag: u32) -> Option<Self>;
    /// Every payload field, in wire order, in either direction.
    fn fields(&mut self, c: &mut Ckpt) -> Result<(), CkptError>;
}

/// One table per message enum: each variant's type tag, then its
/// fields in wire order with the [`Ckpt`] visit of each. Both
/// directions walk this one list.
macro_rules! messages {
    ($ty:ident, $what:literal, $($tag:literal => $variant:ident { $($field:tt: $visit:path),* },)*) => {
        impl Message for $ty {
            const WHAT: &'static str = $what;

            fn tag(&self) -> u32 {
                match self {
                    $($ty::$variant { .. } => $tag,)*
                }
            }

            fn blank(tag: u32) -> Option<Self> {
                Some(match tag {
                    $($tag => $ty::$variant { $($field: Default::default()),* },)*
                    _ => return None,
                })
            }

            fn fields(&mut self, c: &mut Ckpt) -> Result<(), CkptError> {
                $($(if let $ty::$variant { $field: v, .. } = self {
                    $visit(c, v)?;
                })*)*
                Ok(())
            }
        }
    };
}

// Requests (client → server) 1–15, responses (server → client) 16–31.
messages!(Request, "request",
    1 => Submit { 0: JobSpec::visit },
    2 => Cancel { job: Ckpt::u64 },
    3 => Metrics {},
    4 => Shutdown {},
    5 => Ping {},
);
messages!(Response, "response",
    16 => Accepted { job: Ckpt::u64 },
    17 => Progress { job: Ckpt::u64, cell: Ckpt::u64, cells: Ckpt::u64, events: Ckpt::u64, now: Ckpt::u64 },
    18 => Done { job: Ckpt::u64, warm_hit: Ckpt::bool, json: Ckpt::str },
    19 => JobError { job: Ckpt::u64, code: Ckpt::u64, message: Ckpt::str },
    20 => MetricsText { text: Ckpt::str },
    21 => Pong {},
    22 => TraceJson { job: Ckpt::u64, json: Ckpt::str },
    23 => Drained { job: Ckpt::u64, path: Ckpt::str, events: Ckpt::u64 },
    24 => ShuttingDown {},
);

impl From<CkptError> for ProtoError {
    fn from(e: CkptError) -> Self {
        ProtoError::Malformed(e.to_string())
    }
}

/// Write `msg` as one frame: a headerless section whose id is the
/// message's type tag.
fn write_frame<M: Message>(w: &mut impl Write, msg: &M) -> Result<(), ProtoError> {
    // The visitor takes `&mut` in both directions; saving walks a copy.
    let mut msg = msg.clone();
    let mut out = CkptWriter::headerless();
    Ckpt::Save(&mut out)
        .section(msg.tag(), |c| msg.fields(c))
        .expect("saving cannot fail");
    w.write_all(&out.finish())?;
    w.flush()?;
    Ok(())
}

/// The message of type tag `tag` whose fields fill exactly `payload`.
fn decode<M: Message>(tag: u64, payload: &[u8]) -> Result<M, ProtoError> {
    let mut msg = u32::try_from(tag)
        .ok()
        .and_then(M::blank)
        .ok_or_else(|| ProtoError::Malformed(format!("{} tag {tag}", M::WHAT)))?;
    let mut r = CkptReader::headerless(payload);
    msg.fields(&mut Ckpt::Load(&mut r))?;
    r.finish()?;
    Ok(msg)
}

/// What a timeout/would-block before a varint's first byte means.
#[derive(Clone, Copy)]
enum Stall {
    /// No frame has started and the caller is polling: `Ok(None)`.
    Poll,
    /// No frame has started and the caller blocks: an I/O error.
    Fail,
    /// The frame has started: wait for the rest of it.
    Wait,
}

/// Read one varint from the stream byte by byte, handing what has
/// arrived to [`read_varint`] after each byte until it decides. A
/// stall before the first byte is handled as `first` says; one
/// mid-varint is retried, so a frame that has started is always read
/// to completion.
fn read_stream_varint(r: &mut impl Read, first: Stall) -> Result<Option<u64>, ProtoError> {
    // `read_varint` decides by the 10th byte: a value or an overflow.
    let mut buf = [0u8; 10];
    let mut n = 0;
    loop {
        match r.read_exact(&mut buf[n..=n]) {
            Ok(()) => n += 1,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                match (n, first) {
                    (0, Stall::Poll) => return Ok(None),
                    (0, Stall::Fail) => return Err(ProtoError::Io(e)),
                    _ => continue,
                }
            }
            Err(e) => return Err(ProtoError::Io(e)),
        }
        match read_varint(&buf[..n], &mut 0) {
            Err(CkptError::Truncated { .. }) => continue,
            v => return Ok(Some(v?)),
        }
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

fn read_raw_frame(r: &mut impl Read, first: Stall) -> Result<Option<(u64, Vec<u8>)>, ProtoError> {
    let Some(t) = read_stream_varint(r, first)? else {
        return Ok(None);
    };
    let len = read_stream_varint(r, Stall::Wait)?.expect("a started frame waits");
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
    write_frame(w, req)
}

/// Write one response frame.
pub fn write_response(w: &mut impl Write, rsp: &Response) -> Result<(), ProtoError> {
    write_frame(w, rsp)
}

/// Read one request frame (blocking).
pub fn read_request(r: &mut impl Read) -> Result<Request, ProtoError> {
    let (t, payload) = read_raw_frame(r, Stall::Fail)?.expect("non-optional frame");
    decode(t, &payload)
}

/// Read one request frame if one has started arriving; `Ok(None)` when
/// the read timed out before the first byte. Used by the server's
/// streaming loop to poll for `Cancel` without blocking job progress.
pub fn try_read_request(r: &mut impl Read) -> Result<Option<Request>, ProtoError> {
    match read_raw_frame(r, Stall::Poll)? {
        None => Ok(None),
        Some((t, payload)) => decode(t, &payload).map(Some),
    }
}

/// Read one response frame (blocking).
pub fn read_response(r: &mut impl Read) -> Result<Response, ProtoError> {
    let (t, payload) = read_raw_frame(r, Stall::Fail)?.expect("non-optional frame");
    decode(t, &payload)
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
    use nw_sim::ckpt::put_varint;

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
        put_varint(&mut frame, 18); // Done
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
        put_varint(&mut frame, 1); // Submit
        put_varint(&mut frame, payload.len() as u64);
        frame.extend_from_slice(&payload);
        let err = read_request(&mut std::io::Cursor::new(frame)).unwrap_err();
        assert!(matches!(err, ProtoError::Malformed(_)), "{err}");
    }

    #[test]
    fn bool_tags_above_one_and_oversized_sweeps_are_malformed() {
        let submit = |spec: JobSpec| {
            let mut frame = Vec::new();
            write_request(&mut frame, &Request::Submit(spec)).unwrap();
            frame
        };
        // The default spec's last byte is `want_trace`.
        let mut frame = submit(JobSpec::default());
        *frame.last_mut().unwrap() = 2;
        let err = read_request(&mut std::io::Cursor::new(frame)).unwrap_err();
        assert!(matches!(&err, ProtoError::Malformed(m) if m.contains("bool tag 2")), "{err}");

        let many = JobSpec {
            kind: JobKind::Sweep,
            machines: vec!["dcd".into(); MAX_SWEEP_MACHINES + 1],
            ..JobSpec::default()
        };
        let err = read_request(&mut std::io::Cursor::new(submit(many))).unwrap_err();
        assert!(matches!(&err, ProtoError::Malformed(m) if m.contains("1025 sweep machines")), "{err}");
    }

    #[test]
    fn frame_varint_overflow_is_malformed() {
        let mut frame = vec![0xff; 10];
        frame.push(0x01);
        let err = read_request(&mut std::io::Cursor::new(frame)).unwrap_err();
        assert!(matches!(err, ProtoError::Malformed(_)), "{err}");
    }

    /// Times out before every byte it hands over, one byte at a time.
    struct Stalling(std::io::Cursor<Vec<u8>>, bool);

    impl Read for Stalling {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.1 = !self.1;
            if self.1 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(1);
            self.0.read(&mut buf[..n])
        }
    }

    #[test]
    fn a_stall_before_a_frame_polls_and_a_stall_inside_one_waits() {
        let mut frame = Vec::new();
        write_request(&mut frame, &Request::Cancel { job: 300 }).unwrap();
        let mut r = Stalling(std::io::Cursor::new(frame), false);
        assert!(try_read_request(&mut r).unwrap().is_none());
        assert_eq!(try_read_request(&mut r).unwrap(), Some(Request::Cancel { job: 300 }));
        // A blocking read treats a stall before the frame as an error.
        let mut r = Stalling(std::io::Cursor::new(Vec::new()), false);
        assert!(matches!(read_request(&mut r), Err(ProtoError::Io(_))));
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
