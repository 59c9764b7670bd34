//! CLI for the workspace analyzer.
//!
//! ```text
//! pim-analyzer -- lint     [--root DIR]        # invariant linter only
//! pim-analyzer -- exhaust  [--sample SEED N]   # interleaving checker only
//! pim-analyzer -- check    [--root DIR]        # both — the CI gate
//! ```
//!
//! Exit code 0 ⇒ clean; 1 ⇒ diagnostics or a model-checking failure;
//! 2 ⇒ usage / environment error.

use std::path::PathBuf;
use std::process::ExitCode;

use pim_analyzer::exhaust::models::{check_all, Variant};
use pim_analyzer::exhaust::{sample, Options};

fn usage() -> ExitCode {
    eprintln!("usage: pim-analyzer [lint|exhaust|check] [--root DIR] [--sample SEED ITERS]");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd: Option<String> = None;
    let mut root: Option<PathBuf> = None;
    let mut sample_args: Option<(u64, u64)> = None;
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => match it.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => return usage(),
            },
            "--sample" => {
                let (Some(seed), Some(n)) = (it.next(), it.next()) else {
                    return usage();
                };
                let (Ok(seed), Ok(n)) = (parse_u64(&seed), n.parse::<u64>()) else {
                    return usage();
                };
                sample_args = Some((seed, n));
            }
            "lint" | "exhaust" | "check" if cmd.is_none() => cmd = Some(a),
            _ => return usage(),
        }
    }
    let cmd = cmd.unwrap_or_else(|| "check".to_string());

    let mut failed = false;
    if cmd == "lint" || cmd == "check" {
        let root = match root.clone().or_else(|| {
            std::env::current_dir()
                .ok()
                .and_then(|d| pim_analyzer::find_root(&d))
        }) {
            Some(r) => r,
            None => {
                eprintln!("error: cannot locate workspace root (use --root)");
                return ExitCode::from(2);
            }
        };
        match pim_analyzer::lint_workspace(&root) {
            Ok(diags) if diags.is_empty() => {
                println!("lint: clean ({} rules, 0 diagnostics)", 6);
            }
            Ok(diags) => {
                for d in &diags {
                    println!("{d}");
                }
                println!("lint: {} diagnostic(s)", diags.len());
                failed = true;
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(2);
            }
        }
    }

    if cmd == "exhaust" || cmd == "check" {
        let opts = Options::default();
        for report in check_all(opts) {
            let verdict = match (report.variant, report.ok()) {
                (Variant::Correct, true) => "pass (exhausted clean)".to_string(),
                (Variant::Correct, false) => {
                    failed = true;
                    match &report.outcome.failure {
                        Some(cex) => {
                            let mut s = format!("FAIL: {}\n  schedule:", cex.message);
                            for op in &cex.ops {
                                s.push_str("\n    ");
                                s.push_str(op);
                            }
                            s.push_str(&format!("\n  replay choices: {:?}", cex.choices));
                            s
                        }
                        None => "FAIL: tree not exhausted within execution cap".to_string(),
                    }
                }
                (Variant::Broken, true) => format!(
                    "self-test pass (counterexample found: {})",
                    report
                        .outcome
                        .failure
                        .as_ref()
                        .map(|c| c.message.as_str())
                        .unwrap_or("")
                ),
                (Variant::Broken, false) => {
                    failed = true;
                    "self-test FAIL: broken variant survived exhaustive exploration".to_string()
                }
            };
            println!(
                "exhaust: {:<8} {:<8} {:>6} executions  {}",
                report.name,
                format!("{:?}", report.variant).to_lowercase(),
                report.outcome.executions,
                verdict
            );
        }
        if let Some((seed, iters)) = sample_args {
            use pim_analyzer::exhaust::models::{mailbox, reserve};
            let opts = Options::default();
            let outcomes = [
                (
                    "mailbox",
                    sample(&mailbox(Variant::Correct), seed, iters, opts),
                ),
                (
                    "reserve",
                    sample(&reserve(Variant::Correct), seed, iters, opts),
                ),
            ];
            for (name, out) in outcomes {
                match &out.failure {
                    Some(cex) => {
                        failed = true;
                        println!(
                            "sample:  {name:<8} seed={seed:#x} FAIL after {} executions: {}",
                            out.executions, cex.message
                        );
                    }
                    None => println!(
                        "sample:  {name:<8} seed={seed:#x} clean over {} random schedules",
                        out.executions
                    ),
                }
            }
        }
    }

    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn parse_u64(s: &str) -> Result<u64, std::num::ParseIntError> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    }
}
