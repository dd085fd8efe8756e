//! End-to-end and per-layer benchmark of the CCRP workspace.
//!
//! ```text
//! perfbench --workload <paper_sweep|difftest|rom_execute> --seed <n>
//!           --seconds <s> --trace <0|1>
//! ```
//!
//! Every run checks the outputs it produces against an oracle and prints
//! human-readable `#` lines followed by one JSON object on the last line
//! of standard output:
//!
//! * `--trace 0` — the timed, untraced closed loop; the metrics are the
//!   end-to-end set (see `README.md`).
//! * `--trace 1` — half the time untraced, half through a replica of the
//!   same work built from each layer's public functions with a span
//!   around every call; the metrics are the per-layer set, and the spans
//!   are written to `.perfbench_out/` when the run ends.

mod anchors;
mod difftest;
mod metrics;
mod oracle;
mod probe;
mod rom_execute;
mod spans;
mod stats;
mod sweep;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::Outcome;

/// The parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed (only `difftest` generates inputs from it).
    pub seed: u64,
    /// How long the timed part of the run lasts.
    pub seconds: Duration,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Worker threads: the machine's parallelism, capped at two.
    pub jobs: usize,
    /// When the process started measuring (the origin of `setup_s`).
    pub started: Instant,
}

fn parse_args(started: Instant) -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} out of range"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(Duration::from_secs(10)),
        trace: trace.unwrap_or(false),
        jobs,
        started,
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args(started) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return ExitCode::from(2);
        }
    };
    // The oracles read the committed results files at the root of the
    // checkout; without them nothing can be checked, so refuse to run.
    if let Err(err) = oracle::check_checkout() {
        eprintln!("perfbench: {err}");
        return ExitCode::from(2);
    }
    if args.trace {
        spans::init();
    }
    let outcome: Outcome = match args.workload.as_str() {
        "paper_sweep" => sweep::run(&args),
        "difftest" => difftest::run(&args),
        "rom_execute" => rom_execute::run(&args),
        other => {
            eprintln!("perfbench: unknown workload `{other}`");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        let path = format!(
            ".perfbench_out/spans-{}-seed{}.json",
            args.workload, args.seed
        );
        if let Err(err) = spans::write_out(&path) {
            eprintln!("perfbench: writing {path}: {err}");
        }
    }
    match outcome.finish() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            ExitCode::from(1)
        }
    }
}
