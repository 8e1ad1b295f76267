//! Client side of `nwserve-v1`: connect, submit, stream, collect.
//!
//! [`Connection`] wraps one handshaken TCP stream. The convenience
//! driver [`Connection::run_job`] submits a [`JobSpec`] and pumps the
//! event stream to completion, handing every non-terminal frame to a
//! progress callback and folding the terminal frame into a
//! [`JobResult`] whose `code` is directly usable as a process exit
//! code (it is the server-side [`nwcache::ExitCode`] value, or the
//! protocol's cancel/deadline codes).

use crate::proto::{self, JobSpec, ProtoError, Request, Response};
use std::net::TcpStream;

/// Outcome of one job as seen by the client.
#[derive(Debug, Clone, Default)]
pub struct JobResult {
    /// Server-assigned job id.
    pub job: u64,
    /// Exit/error code: 0 on `Done` and `Drained`, else the
    /// `JobError` code.
    pub code: u64,
    /// Error message from a `JobError` frame.
    pub message: Option<String>,
    /// Final JSON (byte-identical to the batch CLI's) from `Done`.
    pub json: Option<String>,
    /// Chrome-trace JSON when the job asked for a trace.
    pub trace_json: Option<String>,
    /// Whether any cell warm-started from the server's cache.
    pub warm_hit: bool,
    /// `(server-side checkpoint path, events dispatched)` when the
    /// job was cut short by a drain.
    pub drained: Option<(String, u64)>,
}

/// One handshaken protocol connection.
pub struct Connection {
    stream: TcpStream,
}

impl Connection {
    /// Connect to `addr` (`host:port`) and perform the `nwserve-v1`
    /// handshake.
    pub fn connect(addr: &str) -> Result<Connection, ProtoError> {
        let stream = TcpStream::connect(addr)?;
        let _ = stream.set_nodelay(true);
        let mut conn = Connection { stream };
        proto::client_handshake(&mut conn.stream)?;
        Ok(conn)
    }

    /// Round-trip a `Ping`.
    pub fn ping(&mut self) -> Result<(), ProtoError> {
        proto::write_request(&mut self.stream, &Request::Ping)?;
        match proto::read_response(&mut self.stream)? {
            Response::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// Fetch the text metrics page over the protocol.
    pub fn metrics_text(&mut self) -> Result<String, ProtoError> {
        proto::write_request(&mut self.stream, &Request::Metrics)?;
        match proto::read_response(&mut self.stream)? {
            Response::MetricsText { text } => Ok(text),
            other => Err(unexpected("MetricsText", &other)),
        }
    }

    /// Ask the server to drain and exit.
    pub fn shutdown_server(&mut self) -> Result<(), ProtoError> {
        proto::write_request(&mut self.stream, &Request::Shutdown)?;
        match proto::read_response(&mut self.stream)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("ShuttingDown", &other)),
        }
    }

    /// Submit a job; returns the server-assigned job id once the
    /// server sends `Accepted`. A draining server answers
    /// `ShuttingDown`, reported as an error.
    pub fn submit(&mut self, spec: &JobSpec) -> Result<u64, ProtoError> {
        proto::write_request(&mut self.stream, &Request::Submit(spec.clone()))?;
        match proto::read_response(&mut self.stream)? {
            Response::Accepted { job } => Ok(job),
            Response::ShuttingDown => Err(ProtoError::Malformed(
                "server is draining and refused the job".into(),
            )),
            other => Err(unexpected("Accepted", &other)),
        }
    }

    /// Read the next streamed frame for the in-flight job.
    pub fn next_event(&mut self) -> Result<Response, ProtoError> {
        proto::read_response(&mut self.stream)
    }

    /// Request cancellation of the in-flight job.
    pub fn cancel(&mut self, job: u64) -> Result<(), ProtoError> {
        proto::write_request(&mut self.stream, &Request::Cancel { job })
    }

    /// Submit `spec` and pump the stream to its terminal frame.
    /// Non-terminal frames (`Progress`, and `TraceJson` which is also
    /// captured in the result) are passed to `on_event`.
    pub fn run_job(
        &mut self,
        spec: &JobSpec,
        mut on_event: impl FnMut(&Response),
    ) -> Result<JobResult, ProtoError> {
        let job = self.submit(spec)?;
        let mut result = JobResult {
            job,
            ..JobResult::default()
        };
        loop {
            match self.next_event()? {
                rsp @ Response::Progress { .. } => on_event(&rsp),
                rsp @ Response::TraceJson { .. } => {
                    if let Response::TraceJson { json, .. } = &rsp {
                        result.trace_json = Some(json.clone());
                    }
                    on_event(&rsp);
                }
                Response::Done {
                    warm_hit, json, ..
                } => {
                    result.warm_hit = warm_hit;
                    result.json = Some(json);
                    return Ok(result);
                }
                Response::JobError { code, message, .. } => {
                    result.code = code;
                    result.message = Some(message);
                    return Ok(result);
                }
                Response::Drained { path, events, .. } => {
                    result.drained = Some((path, events));
                    return Ok(result);
                }
                other => return Err(unexpected("job stream frame", &other)),
            }
        }
    }
}

fn unexpected(wanted: &str, got: &Response) -> ProtoError {
    ProtoError::Malformed(format!("expected {wanted}, got {got:?}"))
}
