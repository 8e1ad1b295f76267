//! The command lines of `nwsim` and `reproduce`: one declared table per
//! binary, read by the one parser in [`cli`]. Each verb declares the
//! flags its handler reads; the binaries' module docs say what they mean.

pub mod cli;

use cli::{Cli, Group, Slot::*, Verb};
use nwcache::ExitCode;
use std::io::Write;

/// `print!` for the binaries, which import it in place of `std`'s:
/// see [`stdout`].
#[macro_export]
macro_rules! print {
    ($($arg:tt)*) => {
        $crate::stdout(format_args!($($arg)*))
    };
}

/// `println!` for the binaries, which import it in place of `std`'s:
/// see [`stdout`].
#[macro_export]
macro_rules! println {
    () => {
        $crate::stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// Write to stdout, where `std`'s `print!` would panic on a failed
/// write. Once the reader has gone away (`nwsim … | head`) the process
/// ends quietly with [`ExitCode::StdoutClosed`]; any other failure is
/// reported on stderr and ends it with [`ExitCode::SimFault`].
pub fn stdout(args: std::fmt::Arguments) {
    let Err(e) = std::io::stdout().write_fmt(args) else {
        return;
    };
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        ExitCode::StdoutClosed.exit()
    }
    eprintln!("cannot write to stdout: {e}");
    ExitCode::SimFault.exit()
}

const APP: Group = &["--app SPEC"];
const MACHINE: Group = &["--machine M"];
/// The rest of what `RunParams` lowers.
const PARAMS: Group = &["--prefetch P", "--scale S", "--seed N", "--topo SPEC"];
/// Direct `MachineConfig` overrides on top of the lowered parameters.
const OVERRIDES: Group = &["--min-free N", "--disk-cache N", "--ring-slots N"];
const CHECKPOINT: Group = &["--checkpoint PATH", "--checkpoint-every N", "--stop-after N"];
const JSON: Group = &["--json"];
/// The file `workload gen|record` write, and its encoding.
const TRACE_FILE: Group = &["--out PATH", "--binary"];
const ADDR: Group = &["--addr H:P"];
/// The job fields of `client run|sweep` beyond the run parameters.
const JOB: Group = &["--warm-events N", "--verify-warm", "--deadline-ms N", "--progress-every N"];
const OBSERVE: Group = &["--trace-out PATH", "--sample-interval N", "--trace-capacity N", "--text"];
const SERVE: Group =
    &["--job-slots N", "--warm-dir DIR", "--warm-capacity N", "--autosave-dir DIR", "--chunk-events N"];

/// `nwsim`'s verbs.
pub static NWSIM: Cli = Cli {
    prog: "nwsim",
    verbs: &[
        Verb::new("run", &[], &[APP, MACHINE, PARAMS, OVERRIDES, CHECKPOINT, JSON]),
        Verb::new("resume", &[One("CKPT")], &[CHECKPOINT, JSON]),
        Verb::new("ckpt-validate", &[One("PATH")], &[]),
        Verb::new("ckpt-diff", &[One("A"), One("B")], &[]),
        Verb::new("trace", &[Opt("APP")], &[APP, MACHINE, PARAMS, OVERRIDES, OBSERVE]),
        Verb::new("trace-validate", &[One("PATH")], &[]),
        Verb::new("compare", &[], &[APP, PARAMS, &["--jobs N"]]),
        Verb::new("apps", &[], &[]),
        Verb::new("config", &[], &[MACHINE, PARAMS, OVERRIDES]),
        Verb::new("workload gen", &[], &[&["--spec SPEC", "--procs N", "--seed N"], TRACE_FILE]),
        // Streams are a function of the app, processors, scale and seed
        // alone, so `record` takes no machine or prefetch flags.
        Verb::new("workload record", &[], &[APP, &["--scale S", "--seed N", "--topo SPEC", "--procs N"], TRACE_FILE]),
        // A trace fixes its streams, seed included.
        Verb::new("workload replay", &[], &[&["--trace PATH", "--prefetch P", "--scale S", "--topo SPEC"], MACHINE, OVERRIDES, JSON]),
        Verb::new("workload describe", &[One("PATH")], &[]),
        Verb::new("serve", &[], &[ADDR, SERVE]),
        Verb::new("client run", &[], &[ADDR, APP, MACHINE, PARAMS, JOB, &["--trace-out PATH"]]),
        Verb::new("client sweep", &[], &[ADDR, APP, &["--machines M,..."], PARAMS, JOB]),
        Verb::new("client metrics", &[], &[ADDR]),
        Verb::new("client ping", &[], &[ADDR]),
        Verb::new("client shutdown", &[], &[ADDR]),
    ],
};

/// Every target word `reproduce` accepts. `all` selects each of them
/// except `faults`, which perturbs runs and must be named.
pub const TARGETS: [&str; 22] = [
    "table3", "table4", "table5", "table6", "table7", "table8", "fig3", "fig4", "overall",
    "minfree", "diskcache", "window", "prefetch", "ablations", "dcd", "scaling", "scale",
    "reuse", "zipf", "ionodes", "faults", "all",
];

/// `reproduce`'s single verb.
pub static REPRODUCE: Cli = Cli {
    prog: "reproduce",
    verbs: &[Verb::new(
        "",
        &[Many("target", &TARGETS)],
        &[
            &["--scale S", "--jobs N", "--json PATH", "--scale-json PATH"],
            &["--trace-cell APP:MACHINE:PREFETCH", "--trace-out PATH"],
        ],
    )],
};
