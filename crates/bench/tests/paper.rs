//! The reproduction gate: every gated row of `pim_bench::paper` holds at
//! the paper's platform, and a perturbed platform trips it.

use std::process::{Command, Stdio};

use pim_bench::paper::{check, nets, outcomes};
use pim_bench::BenchContext;

#[test]
fn every_gated_row_holds_at_the_paper_platform() {
    let failed: Vec<_> = check(&BenchContext::new())
        .iter()
        .map(|o| format!("{} {}: {} (tol {:?})", o.figure, o.metric, o.ours, o.tol))
        .collect();
    assert!(failed.is_empty(), "outside tolerance: {failed:#?}");
}

#[test]
fn a_doubled_pe_clock_fails_the_fig15_speedup_row() {
    let mut ctx = BenchContext::new();
    ctx.platform.hmc = ctx.platform.hmc.clone().with_pe_clock_ghz(0.625);
    let failed = check(&ctx);
    assert!(
        failed
            .iter()
            .any(|o| o.figure == "fig15_rp_speedup" && o.metric.starts_with("pim_speedup")),
        "Fig 15 RP speedup not flagged: {:?}",
        failed.iter().map(|o| &o.metric).collect::<Vec<_>>()
    );
}

#[test]
fn fig17_average_band_lies_inside_the_old_integration_band() {
    // The suite-average overall speedup was once held to [1.8, 3.6).
    let ctx = BenchContext::new();
    let rows = outcomes(&nets(&ctx), true);
    let row = rows
        .iter()
        .find(|o| o.figure == "fig17_overall" && o.metric == "PIM-CapsNet_x Mean")
        .expect("Fig 17 average row");
    let (paper, tol) = (row.paper.unwrap(), row.tol.unwrap());
    assert!(1.8 <= paper * (1.0 - tol) && paper * (1.0 + tol) < 3.6);
}

#[test]
fn a_run_that_cannot_write_its_csvs_fails() {
    // The output directory's parent is a regular file: no CSV can land.
    let blocker = std::env::temp_dir().join(format!("pim_bench_blocker_{}", std::process::id()));
    std::fs::write(&blocker, b"not a directory").unwrap();
    let status = Command::new(env!("CARGO_BIN_EXE_paper"))
        .env("PIM_BENCH_OUT", blocker.join("out"))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    std::fs::remove_file(&blocker).unwrap();
    assert!(!status.success(), "paper exited 0 with no CSV written");
}
