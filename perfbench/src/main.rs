//! Command-line entry point of the repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1-k12|finetune-k24|online-recal|serve-sim|all> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The exit code is 1
//! when an output check fails and 2 on a usage or set-up error. A run starts
//! copies of this binary with `--host-probe` as its host-speed probes.

use std::process::ExitCode;

use photon_perfbench::workloads::Workload;
use photon_perfbench::TUNING_SEED;
use photon_perfbench::{host, runner};

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workloads = None;
    let mut args = Args {
        workloads: Vec::new(),
        seed: TUNING_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workloads = Some(if value == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(&value).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!(
                            "unknown workload {value}; known: {} or all",
                            names.join(", ")
                        )
                    })?]
                })
            }
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    args.workloads = workloads.ok_or("--workload is required")?;
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().collect();
    if argv.get(1).map(String::as_str) == Some(host::PROBE_FLAG) {
        // A host-speed probe process started by a run (see `host`).
        let probe = match (argv.get(2).and_then(|c| c.parse().ok()), argv.get(3)) {
            (Some(cpu), Some(file)) => host::probe_main(cpu, std::path::Path::new(file)),
            _ => Err(format!("usage: {} <cpu> <file>", host::PROBE_FLAG)),
        };
        return match probe {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    for workload in args.workloads {
        match runner::run(workload, args.seed, args.seconds, args.trace) {
            Ok(result) => {
                for line in &result.report {
                    println!("{line}");
                }
                println!("{}", result.json());
                correct &= result.correct;
            }
            Err(e) => {
                eprintln!("perfbench: {}: set-up failed: {e}", workload.name());
                return ExitCode::from(2);
            }
        }
    }
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
