//! The paper's figures and tables, and the gate on the numbers it reports.
//!
//! A `Figure` is a per-network table: a function from one [`Net`] (a Table
//! 1 benchmark with each design variant evaluated once) to its row of
//! named cells, plus the `Claim`s the paper makes about those columns.
//! [`check`] returns the gated claims outside their tolerance: the measured
//! |rel_err| rounded up to the next 0.05 (at least 0.05), so the gate pins
//! today's reproduction rather than asserting agreement. Table 2, the §6.5
//! area table and the two sweeps over something other than the suite are
//! small functions.
//!
//! Table 5 runs scaled functional networks on teacher-labelled synthetic
//! data (the paper's models and datasets are not redistributable) with
//! Origin calibrated to the paper, so only the differences between its
//! columns are measured. Fig 7 keeps the P100 core and swaps only the
//! memory system, where the paper compares four GPUs.

use std::cell::OnceCell;

use capsnet::routing::{dynamic_routing_with, RoutingScratch};
use capsnet::{CapsNetSpec, ExactMath, NetworkCensus, RoutingAlgorithm};
use capsnet_workloads::accuracy::{AccuracyExperiment, AccuracyResult};
use capsnet_workloads::report::{mean, Table};
use capsnet_workloads::Benchmark;
use gpu_sim::{GpuSpec, GpuTimingModel, MemorySpec};
use hmc_sim::event::{EventSim, Request};
use hmc_sim::{AddressMapping, HmcConfig, PhaseEngine, PhaseResult, PimMapping};
use pim_capsnet::distribution::{table2, Dimension};
use pim_capsnet::intra::{build_rp_phases, AddressingMode};
use pim_capsnet::{evaluate, evaluate_with_dimension, DesignVariant, DesignVariant::*};
use pim_capsnet::{EvalResult, OverheadModel, Platform};
use pim_tensor::Tensor;

use crate::{f2, finish, header, pct, BenchContext};

/// Fig 6's on-chip storage points A–D (bytes): K40m, P100, RTX2080Ti, V100.
fn onchip(point: usize) -> u64 {
    [
        GpuSpec::k40m,
        GpuSpec::p100,
        GpuSpec::rtx2080ti,
        GpuSpec::v100,
    ][point]()
    .onchip_bytes
}
/// Fig 16's designs, one row each per network.
const FIG16: [DesignVariant; 3] = [PimIntra, PimInter, PimCapsNet];
/// Fig 18's PE clocks (GHz), one row each per network.
const PE_GHZ: [f64; 3] = [0.3125, 0.625, 0.9375];

/// One Table 1 network: each design variant evaluated once, and Table 5's
/// accuracy experiment run on first use.
pub struct Net<'a> {
    ctx: &'a BenchContext,
    bench: &'a Benchmark,
    census: NetworkCensus,
    evals: [EvalResult; DesignVariant::ALL.len()],
    accuracy: OnceCell<AccuracyResult>,
}

/// Evaluates the Table 1 suite on `ctx`'s platform.
pub fn nets(ctx: &BenchContext) -> Vec<Net<'_>> {
    let net = |bench| {
        let census = ctx.census(bench);
        let evals = DesignVariant::ALL.map(|v| evaluate(&census, &ctx.platform, v));
        Net {
            ctx,
            bench,
            census,
            evals,
            accuracy: OnceCell::new(),
        }
    };
    ctx.benchmarks.iter().map(net).collect()
}

impl Net<'_> {
    fn eval(&self, v: DesignVariant) -> &EvalResult {
        let i = DesignVariant::ALL.iter().position(|&x| x == v);
        &self.evals[i.expect("ALL lists every variant")]
    }

    fn rp_x(&self, v: DesignVariant) -> f64 {
        self.eval(v).rp_speedup_vs(self.eval(Baseline))
    }

    fn phase(&self, v: DesignVariant) -> &PhaseResult {
        self.eval(v)
            .rp_phase
            .as_ref()
            .expect("a PIM variant has a phase result")
    }

    fn gpu(&self, spec: GpuSpec) -> GpuTimingModel {
        GpuTimingModel::with_params(spec, self.ctx.platform.gpu_params)
    }

    fn rp_s(&self, spec: GpuSpec) -> f64 {
        self.gpu(spec).rp_result(&self.census.rp).time_s
    }

    fn accuracy(&self) -> &AccuracyResult {
        let run = || AccuracyExperiment::new(self.bench, 200, 0xC0FFEE).run();
        self.accuracy.get_or_init(run)
    }
}

/// A printed cell — `F2` two decimals, `Pct` a percentage, `Times` a whole
/// multiple (`41x`); a `Claim` aggregates its number.
enum Cell {
    F2(f64),
    Pct(f64),
    Times(f64),
    Text(String),
}

use Cell::{Pct, Text, Times, F2};

impl Cell {
    fn value(&self) -> f64 {
        match *self {
            F2(x) | Pct(x) | Times(x) => x,
            Text(_) => f64::NAN,
        }
    }

    fn render(&self) -> String {
        match self {
            F2(x) => f2(*x),
            Pct(x) => pct(*x),
            Times(x) => format!("{x:.0}x"),
            Text(s) => s.clone(),
        }
    }
}

/// One table row after the `network` column: `(header, cell)` pairs.
type Row = Vec<(&'static str, Cell)>;

/// A per-network table: `rows` rows per network (the first column labels
/// them when there are several), and the paper's claims on its columns.
struct Figure {
    title: &'static str,
    csv: &'static str,
    rows: usize,
    row: fn(&Net, usize) -> Row,
    claims: &'static [Claim],
}

impl Figure {
    /// The value of `col` at sub-row `row` of every network.
    fn column(&self, nets: &[Net], col: &str, row: usize) -> Vec<f64> {
        let value = |n| {
            let cells = (self.row)(n, row);
            let value = cells
                .iter()
                .find_map(|(h, c)| (*h == col).then(|| c.value()));
            value.expect("a claim names a column of its figure")
        };
        nets.iter().map(value).collect()
    }
}

/// How a `Claim` folds a column into one suite number.
#[derive(Debug, Clone, Copy)]
enum Agg {
    Mean,
    Max,
}

use Agg::{Max, Mean};

/// The paper's value for a column at one sub-row, and the largest
/// |rel_err| accepted (`None`: printed, not gated).
struct Claim {
    col: &'static str,
    row: usize,
    agg: Agg,
    paper: Option<f64>,
    tol: Option<f64>,
}

const fn gate(col: &'static str, agg: Agg, paper: f64, tol: f64) -> Claim {
    Claim {
        col,
        row: 0,
        agg,
        paper: Some(paper),
        tol: Some(tol),
    }
}

const fn shown(col: &'static str, paper: Option<f64>) -> Claim {
    Claim {
        col,
        row: 0,
        agg: Mean,
        paper,
        tol: None,
    }
}

impl Claim {
    const fn at_row(self, row: usize) -> Claim {
        Claim { row, ..self }
    }
}

/// Every per-network table and the paper's numbers on it.
const FIGURES: &[Figure] = &[
    Figure {
        title: "Fig 4 — layer breakdown of CapsNet inference on GPU (P100)",
        csv: "fig04_layer_breakdown",
        rows: 1,
        row: |n, _| {
            let t = n.gpu(n.ctx.platform.gpu.clone()).network_times(&n.census);
            let share = |x: f64| Pct(x / t.total());
            vec![
                ("conv%", share(t.conv)),
                ("l_caps%", share(t.l_caps)),
                ("rp%", share(t.rp)),
                ("fc%", share(t.fc)),
                ("time_ms", F2(t.total() * 1e3)),
            ]
        },
        claims: &[gate("rp%", Mean, 0.7462, 0.15)],
    },
    Figure {
        title: "Fig 5 — RP pipeline-stall breakdown on GPU (P100)",
        csv: "fig05_stall_breakdown",
        rows: 1,
        row: |n, _| {
            let s = n
                .gpu(n.ctx.platform.gpu.clone())
                .rp_result(&n.census.rp)
                .stalls;
            vec![
                ("memory", Pct(s.memory)),
                ("sync", Pct(s.sync)),
                ("resource", Pct(s.resource)),
                ("inst_fetch", Pct(s.inst_fetch)),
                ("other", Pct(s.other)),
            ]
        },
        claims: &[
            gate("memory", Mean, 0.4464, 0.15),
            gate("sync", Mean, 0.3445, 0.15),
        ],
    },
    Figure {
        title: "Fig 6a — intermediate-variable size / on-chip storage",
        csv: "fig06a_onchip_ratio",
        rows: 1,
        row: |n, _| {
            let ratio = |i: usize| Times(n.census.rp.sizes.ratio_to_onchip(onchip(i)));
            vec![
                ("ratio_A", ratio(0)),
                ("ratio_B", ratio(1)),
                ("ratio_C", ratio(2)),
                ("ratio_D", ratio(3)),
            ]
        },
        claims: &[],
    },
    Figure {
        title: "Fig 6b — RP performance vs on-chip storage (normalized to A)",
        csv: "fig06b_onchip_perf",
        rows: 1,
        row: |n, _| {
            let t = |i: usize| n.rp_s(GpuSpec::p100().with_onchip(onchip(i)));
            let perf = |i| F2(t(0) / t(i));
            vec![
                ("perf_A", perf(0)),
                ("perf_B", perf(1)),
                ("perf_C", perf(2)),
                ("perf_D", perf(3)),
            ]
        },
        claims: &[
            gate("perf_B", Mean, 1.09, 0.10),
            gate("perf_C", Mean, 1.11, 0.05),
            gate("perf_D", Mean, 1.14, 0.05),
        ],
    },
    Figure {
        title: "Fig 7 — RP performance vs memory bandwidth (normalized to GDDR5)",
        csv: "fig07_bandwidth",
        rows: 1,
        row: |n, _| {
            let t = |m| n.rp_s(GpuSpec::p100().with_memory(m));
            let perf = |m| F2(t(MemorySpec::gddr5()) / t(m));
            vec![
                ("GDDR5", perf(MemorySpec::gddr5())),
                ("GDDR5X", perf(MemorySpec::gddr5x())),
                ("GDDR6", perf(MemorySpec::gddr6())),
                ("HBM2", perf(MemorySpec::hbm2())),
            ]
        },
        claims: &[
            gate("GDDR5X", Mean, 1.14, 0.20),
            gate("GDDR6", Mean, 1.19, 0.30),
            gate("HBM2", Mean, 1.26, 0.45),
        ],
    },
    Figure {
        title: "Fig 15 — RP speedup & energy vs GPU baseline",
        csv: "fig15_rp_speedup",
        rows: 1,
        row: |n, _| {
            let base = n.eval(Baseline);
            let pim = n.eval(PimCapsNet);
            let dim = pim.chosen_dimension.map(|d| d.to_string());
            vec![
                ("icp_speedup", F2(n.rp_x(GpuIcp))),
                ("pim_speedup", F2(n.rp_x(PimCapsNet))),
                (
                    "pim_energy_saving",
                    Pct(1.0 - pim.rp_energy_j / base.rp_energy_j),
                ),
                ("chosen_dim", Text(dim.unwrap_or_default())),
            ]
        },
        claims: &[
            gate("pim_speedup", Mean, 2.17, 0.40),
            gate("pim_energy_saving", Mean, 0.9218, 0.10),
        ],
    },
    Figure {
        title: "Fig 16a — RP time breakdown (normalized to baseline): Execution / X-bar / VRS",
        csv: "fig16a_time_breakdown",
        rows: FIG16.len(),
        row: |n, i| {
            let p = n.phase(FIG16[i]);
            // Execution is the residual, so the three shares tile the bar.
            let exec = (p.time_s - p.xbar_s - p.vrs_s).max(0.0);
            vec![
                ("design", Text(FIG16[i].label().into())),
                ("speedup", F2(n.rp_x(FIG16[i]))),
                ("exec%", Pct(exec / p.time_s)),
                ("xbar%", Pct(p.xbar_s / p.time_s)),
                ("vrs%", Pct(p.vrs_s / p.time_s)),
            ]
        },
        claims: &[
            gate("xbar%", Mean, 0.4524, 0.25).at_row(0),
            gate("vrs%", Mean, 0.5791, 0.20).at_row(1),
        ],
    },
    Figure {
        title: "Fig 16b — RP energy breakdown: Execution / DRAM / XBAR / Vault",
        csv: "fig16b_energy_breakdown",
        rows: FIG16.len(),
        row: |n, i| {
            let e = &n.phase(FIG16[i]).energy;
            vec![
                ("design", Text(FIG16[i].label().into())),
                ("exec%", Pct(e.execution_j / e.total())),
                ("dram%", Pct(e.dram_j / e.total())),
                ("xbar%", Pct(e.xbar_j / e.total())),
                ("vault%", Pct(e.vault_j / e.total())),
                ("total_mJ", F2(e.total() * 1e3)),
            ]
        },
        claims: &[],
    },
    Figure {
        title: "Fig 17 — whole-network speedup & energy vs baseline",
        csv: "fig17_overall",
        rows: 1,
        row: |n, _| {
            let base = n.eval(Baseline);
            let speedup = |v| F2(n.eval(v).total_speedup_vs(base));
            let saving = |v| Pct(n.eval(v).energy_saving_vs(base));
            vec![
                ("base_ms", F2(base.total_time_s * 1e3)),
                ("AllInPIM_x", speedup(AllInPim)),
                ("RMAS-PIM_x", speedup(RmasPim)),
                ("RMAS-GPU_x", speedup(RmasGpu)),
                ("PIM-CapsNet_x", speedup(PimCapsNet)),
                ("PIM_energy_saving", saving(PimCapsNet)),
                ("AllInPIM_energy_saving", saving(AllInPim)),
            ]
        },
        claims: &[
            gate("PIM-CapsNet_x", Mean, 2.44, 0.15),
            gate("PIM-CapsNet_x", Max, 2.76, 0.45),
            gate("PIM_energy_saving", Mean, 0.6491, 0.10),
            gate("AllInPIM_energy_saving", Mean, 0.7109, 0.25),
        ],
    },
    Figure {
        title: "Fig 18 — RP speedup heat map: dimension (B/L/H) x PE frequency",
        csv: "fig18_dimension_heatmap",
        rows: PE_GHZ.len(),
        row: |n, i| {
            let hmc = n.ctx.platform.hmc.clone().with_pe_clock_ghz(PE_GHZ[i]);
            let platform = Platform {
                hmc,
                ..n.ctx.platform.clone()
            };
            let x = Dimension::ALL.map(|d| {
                let r = evaluate_with_dimension(&n.census, &platform, PimCapsNet, Some(d));
                n.eval(Baseline).rp_time_s / r.rp_time_s
            });
            let best = (0..3).max_by(|&a, &b| x[a].total_cmp(&x[b]));
            let best = Dimension::ALL[best.expect("three dimensions")];
            vec![
                ("freq", Text(format!("{}MHz", PE_GHZ[i] * 1e3))),
                ("B", F2(x[0])),
                ("L", F2(x[1])),
                ("H", F2(x[2])),
                ("best", Text(best.to_string())),
            ]
        },
        claims: &[],
    },
    Figure {
        title: "Sec 6.5 — logic power over the RP",
        csv: "sec65_power",
        rows: 1,
        row: |n, _| {
            let model = OverheadModel::new(n.ctx.platform.hmc.clone());
            let p = n.phase(PimCapsNet);
            // PE dynamic energy = execution energy minus the static share.
            let pe_dynamic = (p.energy.execution_j - p.time_s * model.logic_static_w).max(0.0);
            let power = model.power(pe_dynamic, p.time_s);
            vec![
                ("dynamic_W", F2(power.dynamic_w)),
                ("static_W", F2(power.static_w)),
                ("total_W", F2(power.total_w)),
                ("within_TDP", Text(power.within_tdp.to_string())),
            ]
        },
        claims: &[gate("total_W", Mean, 2.24, 0.10)],
    },
    Figure {
        title: "Table 5 — accuracy with/without approximation recovery",
        csv: "table05_accuracy",
        rows: 1,
        row: |n, _| {
            let a = n.accuracy();
            vec![
                ("origin", Pct(a.origin)),
                ("w/o_recovery", Pct(a.without_recovery)),
                ("w/_recovery", Pct(a.with_recovery)),
                ("loss_w/o", Pct(a.loss_without())),
                ("loss_w/", Pct(a.loss_with())),
            ]
        },
        // Ungated: Origin is calibrated to the paper's (see the module doc).
        claims: &[
            shown("loss_w/o", Some(0.0035)),
            shown("loss_w/", Some(0.0004)),
        ],
    },
    Figure {
        title: "Ablation — dynamic vs EM routing: does the PIM speedup generalize?",
        csv: "ablation_em_routing",
        rows: 1,
        row: |n, _| {
            let spec = CapsNetSpec {
                routing: RoutingAlgorithm::Em,
                ..n.bench.spec()
            };
            let census = NetworkCensus::from_spec(&spec, n.bench.batch_size);
            let census = census.expect("a Table 1 spec with EM routing is valid");
            let [base, pim] = [Baseline, PimCapsNet].map(|v| evaluate(&census, &n.ctx.platform, v));
            vec![
                ("dyn_gpu_ms", F2(n.eval(Baseline).rp_time_s * 1e3)),
                ("dyn_pim_x", F2(n.rp_x(PimCapsNet))),
                ("em_gpu_ms", F2(base.rp_time_s * 1e3)),
                ("em_pim_x", F2(pim.rp_speedup_vs(&base))),
            ]
        },
        claims: &[shown("em_pim_x", None)],
    },
    Figure {
        title: "Ablation — inter-vault pre-aggregation on/off (B-dimension)",
        csv: "ablation_preaggregation",
        rows: 1,
        row: |n, _| {
            let hmc = &n.ctx.platform.hmc;
            // RP time and crossbar bytes with and without pre-aggregation.
            let [with, without] = [true, false].map(|on| {
                let plan =
                    build_rp_phases(&n.census.rp, hmc, Dimension::B, AddressingMode::Pim, on);
                let bytes: u64 = plan.phases.iter().map(|p| p.xbar_payload_bytes).sum();
                (
                    PhaseEngine::new(hmc.clone()).run(&plan.phases).time_s,
                    bytes,
                )
            });
            vec![
                ("with_preagg_ms", F2(with.0 * 1e3)),
                ("without_ms", F2(without.0 * 1e3)),
                ("slowdown", F2(without.0 / with.0)),
                (
                    "xbar_bytes_ratio",
                    F2(without.1 as f64 / with.1.max(1) as f64),
                ),
            ]
        },
        claims: &[shown("slowdown", None)],
    },
];

/// One gate row: our suite number beside the paper's.
pub struct Outcome {
    /// The figure's CSV name.
    pub figure: &'static str,
    /// Column, sub-row label and aggregate, e.g. `PIM-Intra xbar% Mean`.
    pub metric: String,
    /// The paper's value, when it reports one.
    pub paper: Option<f64>,
    /// Ours, aggregated over the suite.
    pub ours: f64,
    /// Largest |rel_err| accepted; `None` when the row is not gated.
    pub tol: Option<f64>,
}

impl Outcome {
    /// `ours / paper - 1`, when the paper reports a value.
    fn rel_err(&self) -> Option<f64> {
        self.paper.map(|p| self.ours / p - 1.0)
    }

    /// `true` for a gated row outside its tolerance.
    pub fn fails(&self) -> bool {
        match (self.rel_err(), self.tol) {
            (Some(e), Some(tol)) => e.is_nan() || e.abs() > tol,
            _ => false,
        }
    }
}

/// Every claim over `nets`, or only the gated ones.
pub fn outcomes(nets: &[Net], gated_only: bool) -> Vec<Outcome> {
    let outcome = |figure, metric, c: &Claim, ours| Outcome {
        figure,
        metric,
        paper: c.paper,
        ours,
        tol: c.tol,
    };
    let mut out = Vec::new();
    for f in FIGURES {
        for c in f.claims.iter().filter(|c| !gated_only || c.tol.is_some()) {
            let values = f.column(nets, c.col, c.row);
            let ours = match c.agg {
                Mean => mean(&values),
                Max => values.iter().copied().fold(f64::MIN, f64::max),
            };
            // A multi-row figure's first column names the row.
            let mut metric = format!("{} {:?}", c.col, c.agg);
            if f.rows > 1 {
                metric = format!("{} {metric}", (f.row)(&nets[0], c.row)[0].1.render());
            }
            out.push(outcome(f.csv, metric, c, ours));
        }
    }
    // §6.5's area is not per network: its claims read the area model.
    let area = OverheadModel::new(nets[0].ctx.platform.hmc.clone()).area();
    let total = gate("total_mm2", Mean, 3.11, 0.05);
    let fraction = gate("die fraction", Mean, 0.0032, 0.05);
    for (c, ours) in [(total, area.total_mm2), (fraction, area.die_fraction)] {
        out.push(outcome("sec65_area", c.col.to_string(), &c, ours));
    }
    out
}

/// The gated rows `ctx`'s platform puts outside their tolerance.
pub fn check(ctx: &BenchContext) -> Vec<Outcome> {
    let mut rows = outcomes(&nets(ctx), true);
    rows.retain(Outcome::fails);
    rows
}

/// The gate as a table: paper / ours / rel_err / tol per row.
pub fn gate_table(outcomes: &[Outcome]) -> Table {
    let mut table = Table::new(&[
        "figure", "metric", "paper", "ours", "rel_err", "tol", "verdict",
    ]);
    let opt = |x: Option<f64>, f: fn(f64) -> String| x.map_or("-".to_string(), f);
    for o in outcomes {
        let verdict = match (o.tol, o.fails()) {
            (None, _) => "ungated",
            (Some(_), false) => "ok",
            (Some(_), true) => "FAIL",
        };
        table.row(vec![
            o.figure.to_string(),
            o.metric.clone(),
            opt(o.paper, |x| format!("{x:.4}")),
            format!("{:.4}", o.ours),
            opt(o.rel_err(), |e| format!("{e:+.3}")),
            opt(o.tol, f2),
            verdict.to_string(),
        ]);
    }
    table
}

/// Prints every per-network table over `nets` and writes its CSV.
pub fn print_figures(nets: &[Net]) {
    for f in FIGURES {
        header(f.title);
        let rows: Vec<_> = nets
            .iter()
            .flat_map(|n| (0..f.rows).map(move |i| (n.bench.name, (f.row)(n, i))))
            .collect();
        let mut headers = vec!["network"];
        headers.extend(rows[0].1.iter().map(|c| c.0));
        let mut table = Table::new(&headers);
        for (name, row) in rows {
            let mut cells = vec![name.to_string()];
            cells.extend(row.iter().map(|c| c.1.render()));
            table.row(cells);
        }
        finish(f.csv, &table);
    }
}

/// Table 2: the parallelizable dimensions of the five RP equations.
pub fn table02() {
    header("Table 2 — possible parallelizable dimensions");
    let mut table = Table::new(&["equation", "Batch(B)", "Low-level(L)", "High-level(H)"]);
    for (eq, dims) in table2() {
        let marks = dims.map(|x| if x { "x" } else { "" }.to_string());
        table.row(std::iter::once(eq.to_string()).chain(marks).collect());
    }
    finish("table02_parallelism", &table);
}

/// §6.5: area of the added logic.
pub fn sec65_area(ctx: &BenchContext) {
    header("Sec 6.5 — area, power, thermal overheads");
    let area = OverheadModel::new(ctx.platform.hmc.clone()).area();
    let mut table = Table::new(&["component", "area_mm2"]);
    table.row(vec!["per-PE".into(), format!("{:.5}", area.per_pe_mm2)]);
    table.row(vec!["512 PEs".into(), f2(area.pes_mm2)]);
    table.row(vec!["RMAS".into(), format!("{:.3}", area.rmas_mm2)]);
    table.row(vec!["total".into(), f2(area.total_mm2)]);
    table.row(vec!["die fraction".into(), pct(area.die_fraction)]);
    finish("sec65_area", &table);
}

/// Ablation (§2.2): batch-shared vs per-sample routing coefficients, by
/// output divergence and mean coefficient entropy (lower is sharper).
pub fn ablation_batch_routing() {
    header("Ablation — batch-shared vs per-sample dynamic-routing coefficients");
    let entropy = |c: &Tensor| {
        let h = |d: &[f32]| {
            d.iter()
                .filter(|&&p| p > 0.0)
                .map(|&p| -(p as f64) * (p as f64).ln())
                .sum::<f64>()
        };
        c.as_slice().chunks(10).map(h).sum::<f64>() / (c.len() / 10) as f64
    };
    let mut table = Table::new(&[
        "batch",
        "v_divergence",
        "shared_entropy",
        "per_sample_entropy",
    ]);
    for batch in [1usize, 8, 32, 64] {
        let u_hat = Tensor::uniform(&[batch, 64, 10, 16], -0.5, 0.5, 42);
        let [shared, per] = [true, false].map(|s| {
            dynamic_routing_with(&u_hat, 3, s, &ExactMath, &mut RoutingScratch::new())
                .expect("valid routing input")
        });
        let diffs = shared
            .v
            .as_slice()
            .iter()
            .zip(per.v.as_slice())
            .map(|(a, b)| (a - b).abs());
        let div = diffs.sum::<f32>() / shared.v.len() as f32;
        table.row(vec![
            batch.to_string(),
            format!("{div:.3}"),
            f2(entropy(&shared.coefficients)),
            f2(entropy(&per.coefficients)),
        ]);
    }
    finish("ablation_batch_routing", &table);
    println!("batch=1 must agree exactly (divergence 0); larger batches diverge");
}

/// Ablation (§5.3.1): dynamic vs fixed sub-page sizing on the event-level
/// vault simulator. Sixteen staggered PEs stream 64 B requests (and one
/// write-back block each) with a deterministic drift. A sub-page under the
/// request size spans banks, so every bank sees rows from many PEs; one
/// equal to it (the dynamic choice) keeps a request in one bank. A larger
/// one costs host-side interleave granularity, which this PE-only run omits.
pub fn ablation_subpage() {
    const PES: u64 = 16;
    const BLOCKS: u64 = 4;
    const REGION: u64 = 64 * 1024;
    const GAP: u64 = 8; // PE cycles between requests
    /// Deterministic per-(pe, step) issue jitter, in cycles.
    fn jitter(pe: u64, step: u64) -> u64 {
        let x = pe
            .wrapping_mul(0x9e37_79b9)
            .wrapping_add(step.wrapping_mul(0x85eb_ca6b));
        (x >> 7) % GAP
    }
    header("Ablation — dynamic vs fixed sub-page sizing (event-level, one vault)");
    let cfg = HmcConfig::gen3();
    let block = cfg.block_bytes;
    let request = BLOCKS * block;
    let stream = |map: &PimMapping| {
        let sub = map.subpage_bytes();
        let mut reqs = Vec::new();
        for step in 0..256u64 {
            for pe in 0..PES {
                let issue = step * GAP + jitter(pe, step);
                // Each PE reads its input region (regions staggered by one
                // sub-page) and writes one block of its output region.
                let read = pe * (REGION + sub) + step * request;
                let reads = (0..BLOCKS).map(|b| (read + b * block, issue));
                let write = PES * (REGION + sub) + pe * (REGION / 4 + sub) + step * block;
                for (addr, issue_cycle) in reads.chain([(write, issue + GAP / 2)]) {
                    let loc = map.locate(addr);
                    reqs.push(Request {
                        pe: pe as usize,
                        bank: loc.bank,
                        row: loc.row,
                        issue_cycle,
                    });
                }
            }
        }
        reqs.sort_by_key(|r| r.issue_cycle);
        reqs
    };
    let sim = EventSim::new(cfg.clone());
    let mut table = Table::new(&["subpage_B", "makespan_us", "row_hit", "max_queue", "note"]);
    let mut times = Vec::new();
    for subpage in [16u64, 32, 64, 128, 256] {
        let r = sim.run(&stream(&PimMapping::new(&cfg, subpage)));
        times.push((r.time_s, subpage));
        let note = if subpage == request {
            "matches request size (dynamic choice)"
        } else {
            ""
        };
        table.row(vec![
            subpage.to_string(),
            f2(r.time_s * 1e6),
            f2(r.row_hit_rate),
            r.max_queue_depth.to_string(),
            note.into(),
        ]);
    }
    finish("ablation_subpage", &table);
    let (best, fastest) = times
        .iter()
        .copied()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .expect("five sub-page sizes");
    let dynamic = times
        .iter()
        .find(|t| t.1 == request)
        .expect("the sweep includes the request size")
        .0;
    println!(
        "fastest sub-page here: {fastest} B; the dynamic choice ({request} B) is within {:.0}% of it,\n\
         while undersized sub-pages are catastrophically slower (bank-spanning requests).",
        100.0 * (dynamic - best).max(0.0) / best
    );
}
