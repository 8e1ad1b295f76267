//! `perfbench --workload NAME --seed N --seconds S --trace 0|1`
//!
//! Runs one workload and prints every metric by name with its unit,
//! then, as the last stdout line, the result object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`. Span traces
//! and a provenance record go to `.bench_out/`. Exits 1 when an output
//! check failed and 2 on bad arguments.

use nw_perfbench::{record_json, report, result_line, run, Options, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload paper-matrix|write-staging|serve-warm \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: Workload::PaperMatrix,
        seed: nw_perfbench::cells::DEFAULT_SEED,
        seconds: 30.0,
        trace: false,
        size: Size::Full,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value '{val}' for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(val).ok_or_else(bad)?),
            "--seed" => opts.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = val.parse().map_err(|_| bad())?;
                if !(opts.seconds.is_finite() && opts.seconds > 0.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                opts.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = run(&opts);
    let p = &out.provenance;
    println!(
        "workload {} seed {} trace {} | host {} | available_parallelism {} | commit {} | \
         sim_threads {} | sweep_workers {}",
        opts.workload.name(),
        p.seed,
        opts.trace as u8,
        p.host,
        p.cores,
        p.commit,
        p.sim_threads,
        p.sweep_workers
    );
    for n in &out.notes {
        println!("{n}");
    }
    for (name, v) in &out.metrics {
        println!(
            "{name:<28} {v:>16.6} {}",
            report::unit_of(name).unwrap_or("")
        );
    }
    let stem = format!(
        "{}-seed{}-{}",
        opts.workload.name(),
        opts.seed,
        if opts.trace { "traced" } else { "untraced" }
    );
    let written = std::fs::create_dir_all(&opts.out_dir).and_then(|()| {
        std::fs::write(
            opts.out_dir.join(format!("{stem}.json")),
            record_json(&opts, &out),
        )?;
        match &out.chrome_trace {
            Some(t) => std::fs::write(opts.out_dir.join(format!("{stem}.trace.json")), t),
            None => Ok(()),
        }
    });
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", opts.out_dir.display());
    }
    println!("{}", result_line(&out));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
