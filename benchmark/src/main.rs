//! The repo's benchmark: `pim-benchmark [--workload NAME] [--seed N]
//! [--seconds S] [--trace [0|1]]`. See README.md.
//!
//! With `--workload`, serves that workload in this process and prints each
//! metric as `workload name value unit`, then one JSON object. Without,
//! runs every workload in a child process of its own (so peak memory is
//! per workload) and prints one JSON object keyed by workload.

mod adapter;
mod driver;
mod gen;
mod measure;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

use measure::{Metric, Outcome};
use workloads::{Workload, WORKLOADS};

/// Used when `--seed` is not given. The driver of `BENCHMARK.json` always
/// gives one.
const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 24.0;

struct Args {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut argv = std::env::args().skip(1).peekable();
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a name")?;
                let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
                args.workload = Some(
                    workloads::by_name(&name)
                        .ok_or(format!("unknown workload {name:?}; one of {names:?}"))?,
                );
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be between 1 and 600".into());
                }
            }
            // `--trace` alone turns tracing on; `--trace 0|1` sets it.
            "--trace" => {
                args.trace = match argv.next_if(|v| !v.starts_with("--")).as_deref() {
                    None | Some("1") => true,
                    Some("0") => false,
                    Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&dir).expect("benchmark/out can be created under the checkout");
    dir
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

/// Prints the metric lines and the closing JSON object; `Err` names what
/// makes the result unusable.
fn emit(wl: &Workload, outcome: &Outcome) -> Result<(), String> {
    let mut json = String::new();
    for (list, in_json) in [(&outcome.notes, false), (&outcome.metrics, true)] {
        for Metric { name, value, unit } in list {
            if !valid_name(name) {
                return Err(format!(
                    "metric name {name:?} has characters outside [A-Za-z0-9_.-]"
                ));
            }
            if !value.is_finite() {
                return Err(format!("metric {name} is {value}"));
            }
            println!("{} {name} {value} {unit}", wl.name);
            if in_json {
                let sep = if json.is_empty() { "" } else { ", " };
                let _ = write!(
                    json,
                    "{sep}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                );
            }
        }
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    );
    Ok(())
}

fn run_one(wl: &Workload, args: &Args) -> Result<(), String> {
    // Generator thread + one worker: with fewer than two cores every
    // latency would be measured under oversubscription.
    if adapter::cores() < 2 {
        return Err(format!(
            "{} core available; the paced phase needs 2 (generator + worker)",
            adapter::cores()
        ));
    }
    eprintln!(
        "{}: seed {} seconds {} trace {} cores {} simd {}",
        wl.name,
        args.seed,
        args.seconds,
        args.trace,
        adapter::cores(),
        adapter::simd_level()
    );
    let dir = out_dir();
    let outcome = if args.trace {
        measure::per_layer(wl, args.seed, args.seconds, &dir)
    } else {
        measure::end_to_end(wl, args.seed, args.seconds, &dir)
    };
    emit(wl, &outcome)?;
    if outcome.correct {
        Ok(())
    } else {
        Err(
            "a response differed bitwise from a direct forward, or a ticket did not reconcile"
                .into(),
        )
    }
}

/// Every workload, each in a fresh child process.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut combined = String::new();
    let mut failed = Vec::new();
    for wl in &WORKLOADS {
        let output = Command::new(&exe)
            .args(["--workload", wl.name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", wl.name))?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or("null");
        for line in lines {
            println!("{line}");
        }
        let sep = if combined.is_empty() { "" } else { ", " };
        let _ = write!(combined, "{sep}\"{}\": {last}", wl.name);
        if !output.status.success() {
            failed.push(wl.name);
        }
    }
    println!("{{{combined}}}");
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("failed: {failed:?}"))
    }
}

fn main() -> ExitCode {
    let result = parse_args().and_then(|args| match args.workload {
        Some(wl) => run_one(wl, &args),
        None => run_all(&args),
    });
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("pim-benchmark: {why}");
            ExitCode::FAILURE
        }
    }
}
