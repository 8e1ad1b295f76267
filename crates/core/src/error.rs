//! Structured simulation errors.
//!
//! Every off-nominal condition the machine model can hit — a bad
//! configuration, a protocol inconsistency, a deadlock, a stuck event
//! loop, or an injected fault that exhausted its retries — is
//! reported as a [`SimError`] through [`crate::Machine::try_run`]
//! instead of aborting the process. The panicking entry points
//! ([`crate::Machine::new`] / [`crate::Machine::run`]) remain as thin
//! wrappers for tests and callers that prefer to crash.

use nw_sim::Time;

/// A structured error from building or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The configuration failed validation.
    BadConfig(String),
    /// The workload supplied the wrong number of action streams.
    WorkloadMismatch {
        /// Streams in the workload.
        streams: usize,
        /// Nodes in the machine.
        nodes: u32,
    },
    /// A protocol handler observed a state that the clean protocol
    /// can never produce (e.g. a disk reply for a page that is not in
    /// transit). With faults active most stale messages are tolerated;
    /// this is reserved for genuinely impossible states.
    ProtocolViolation {
        /// Simulation time of the observation.
        at: Time,
        /// What was inconsistent.
        what: String,
    },
    /// The event queue drained with unfinished processors.
    Deadlock {
        /// Simulation time when the queue emptied.
        at: Time,
        /// `(processor, why-blocked)` for each unfinished processor.
        blocked: Vec<(u32, String)>,
    },
    /// The watchdog saw too many events without simulated time
    /// advancing — the machine is livelocked.
    Stalled {
        /// The time the simulation is stuck at.
        at: Time,
        /// Events dispatched at that time before giving up.
        events: u64,
    },
    /// An injected fault was retried past `FaultPlan::max_retries`.
    RetriesExhausted {
        /// Which protocol gave up ("disk read", "swap-out", ...).
        kind: &'static str,
        /// The affected page.
        vpn: u64,
        /// Attempts made.
        attempts: u32,
    },
    /// The page-conservation checker found a frame-accounting leak.
    PageLost {
        /// The node whose accounting broke, if attributable.
        node: u32,
        /// Description of the imbalance.
        detail: String,
    },
    /// A workload spec named an application that does not exist. The
    /// error carries the full registry so the CLI message can list
    /// every valid choice alongside the `workload:` spec syntax.
    UnknownApp {
        /// The name that failed to resolve.
        given: String,
        /// All valid application names, in table order.
        valid: Vec<&'static str>,
    },
    /// The worker thread running this simulation panicked. The panic
    /// was caught at the sweep boundary, so sibling runs in the same
    /// sweep are unaffected; the payload is preserved here.
    Panicked(String),
    /// A file operation failed (reading or writing a checkpoint, a
    /// report, a trace, ...).
    Io {
        /// Path of the file.
        path: String,
        /// The underlying I/O error.
        detail: String,
    },
    /// A checkpoint file failed validation: bad magic, checksum
    /// mismatch, truncation, or structurally impossible contents.
    CheckpointCorrupt {
        /// Path of the checkpoint (`<memory>` for in-memory bytes).
        path: String,
        /// What was wrong.
        detail: String,
    },
    /// A checkpoint was written by an unsupported format version.
    CheckpointVersion {
        /// Path of the checkpoint.
        path: String,
        /// Version byte found in the file.
        found: u8,
        /// Version this build supports.
        expected: u8,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::BadConfig(msg) => write!(f, "invalid configuration: {msg}"),
            SimError::WorkloadMismatch { streams, nodes } => {
                write!(f, "workload has {streams} streams for {nodes} nodes")
            }
            SimError::ProtocolViolation { at, what } => {
                write!(f, "protocol violation at t={at}: {what}")
            }
            SimError::Deadlock { at, blocked } => {
                write!(f, "deadlock at t={at}: {} processors blocked (", blocked.len())?;
                for (i, (p, why)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "proc {p}: {why}")?;
                }
                write!(f, ")")
            }
            SimError::Stalled { at, events } => {
                write!(f, "stalled at t={at}: {events} events without time advancing")
            }
            SimError::RetriesExhausted { kind, vpn, attempts } => {
                write!(f, "{kind} for page {vpn} failed after {attempts} attempts")
            }
            SimError::PageLost { node, detail } => {
                write!(f, "page conservation broken on node {node}: {detail}")
            }
            SimError::UnknownApp { given, valid } => {
                write!(
                    f,
                    "unknown app '{given}': valid names are {}; \
                     or replay a trace with 'workload:<trace-file>', \
                     or generate one with 'workload:gen:<spec>'",
                    valid.join(", ")
                )
            }
            SimError::Panicked(msg) => {
                write!(f, "simulation worker panicked: {msg}")
            }
            SimError::Io { path, detail } => {
                write!(f, "I/O error on '{path}': {detail}")
            }
            SimError::CheckpointCorrupt { path, detail } => {
                write!(f, "corrupt checkpoint '{path}': {detail}")
            }
            SimError::CheckpointVersion {
                path,
                found,
                expected,
            } => write!(
                f,
                "checkpoint '{path}' has unsupported version {found} (this build reads {expected})"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// The one documented process exit-code contract shared by every
/// `nwsim` subcommand — and, numerically unchanged, the `nwserve-v1`
/// protocol's job error codes (the server maps a failed job's
/// [`SimError`] through [`SimError::exit_code`] and ships the same
/// number to the client, which exits with it).
///
/// | code | meaning |
/// |------|---------|
/// | 0 | success |
/// | 1 | a comparison gate tripped: `ckpt-diff` drift |
/// | 2 | validation error: bad flags, unknown app, malformed spec, invalid config |
/// | 3 | simulation fault: deadlock, livelock, exhausted fault retries, I/O failure, worker panic |
/// | 4 | corrupt or version-incompatible checkpoint file |
/// | 141 | stdout closed before the output was written (`nwsim … \| head`); nothing is printed |
///
/// 141 is the status a shell reports for a process killed by SIGPIPE
/// (128 + 13), so a `set -o pipefail` script sees the same status as
/// for any other tool cut off by its reader. No job reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ExitCode {
    /// The command completed.
    Success = 0,
    /// A comparison gate failed (checkpoint drift).
    GateFailed = 1,
    /// The request itself was invalid: flags, specs, configuration.
    Validation = 2,
    /// The simulation (or its I/O) faulted after a valid request.
    SimFault = 3,
    /// A checkpoint file was corrupt or written by another version.
    CorruptCheckpoint = 4,
    /// The reader of stdout went away before the output was written.
    StdoutClosed = 141,
}

impl ExitCode {
    /// The numeric process exit code / protocol error code.
    pub fn code(self) -> i32 {
        self as i32
    }

    /// Inverse of [`ExitCode::code`] for protocol decoders. Unknown
    /// numbers conservatively map to [`ExitCode::SimFault`].
    pub fn from_code(code: u64) -> ExitCode {
        match code {
            0 => ExitCode::Success,
            1 => ExitCode::GateFailed,
            2 => ExitCode::Validation,
            4 => ExitCode::CorruptCheckpoint,
            _ => ExitCode::SimFault,
        }
    }

    /// Exit the current process with this code.
    pub fn exit(self) -> ! {
        std::process::exit(self.code())
    }
}

impl SimError {
    /// The [`ExitCode`] this error maps to — the single place where
    /// error kinds are bucketed into the documented CLI/protocol codes.
    pub fn exit_code(&self) -> ExitCode {
        match self {
            SimError::BadConfig(_)
            | SimError::WorkloadMismatch { .. }
            | SimError::UnknownApp { .. } => ExitCode::Validation,
            SimError::CheckpointCorrupt { .. } | SimError::CheckpointVersion { .. } => {
                ExitCode::CorruptCheckpoint
            }
            SimError::ProtocolViolation { .. }
            | SimError::Deadlock { .. }
            | SimError::Stalled { .. }
            | SimError::RetriesExhausted { .. }
            | SimError::PageLost { .. }
            | SimError::Panicked(_)
            | SimError::Io { .. } => ExitCode::SimFault,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_frozen() {
        // The numeric contract is documented (DESIGN.md §18) and
        // asserted end-to-end in the CLI tests; renumbering is a
        // protocol break.
        assert_eq!(ExitCode::Success.code(), 0);
        assert_eq!(ExitCode::GateFailed.code(), 1);
        assert_eq!(ExitCode::Validation.code(), 2);
        assert_eq!(ExitCode::SimFault.code(), 3);
        assert_eq!(ExitCode::CorruptCheckpoint.code(), 4);
        for c in [0u64, 1, 2, 3, 4] {
            assert_eq!(ExitCode::from_code(c).code() as u64, c);
        }
        assert_eq!(ExitCode::from_code(99), ExitCode::SimFault);

        assert_eq!(
            SimError::BadConfig("x".into()).exit_code(),
            ExitCode::Validation
        );
        assert_eq!(
            SimError::UnknownApp { given: "x".into(), valid: vec![] }.exit_code(),
            ExitCode::Validation
        );
        assert_eq!(
            SimError::CheckpointCorrupt { path: "p".into(), detail: "d".into() }.exit_code(),
            ExitCode::CorruptCheckpoint
        );
        assert_eq!(
            SimError::CheckpointVersion { path: "p".into(), found: 9, expected: 1 }.exit_code(),
            ExitCode::CorruptCheckpoint
        );
        assert_eq!(
            SimError::Stalled { at: 1, events: 2 }.exit_code(),
            ExitCode::SimFault
        );
        assert_eq!(
            SimError::Io { path: "p".into(), detail: "d".into() }.exit_code(),
            ExitCode::SimFault
        );
    }

    #[test]
    fn display_is_informative() {
        let e = SimError::RetriesExhausted {
            kind: "disk read",
            vpn: 42,
            attempts: 6,
        };
        let s = e.to_string();
        assert!(s.contains("disk read") && s.contains("42") && s.contains("6"));

        let e = SimError::Deadlock {
            at: 100,
            blocked: vec![(0, "Fault".into()), (3, "NoFree".into())],
        };
        let s = e.to_string();
        assert!(s.contains("t=100") && s.contains("proc 3"));
    }
}
