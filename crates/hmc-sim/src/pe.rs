//! The customized processing element (§5.2.2, Fig 11).
//!
//! Each PE is built from adders, multipliers, bit shifters and muxes; the
//! special functions are *routed through* those units rather than having
//! dedicated hardware:
//!
//! * MAC — flow `1→2` (one pipelined cycle per lane-op);
//! * inverse square root — flow `3 2 1 2 1` (bit shift seed + Newton step):
//!   5 unit traversals;
//! * exponential — flow `1 2 2 3` (FP32 add, recovery multiply, bit shift):
//!   4 traversals;
//! * division — reciprocal bit-trick + Newton + multiply: 4 traversals.

use serde::{Deserialize, Serialize};

use crate::geometry::HmcConfig;

/// PE unit traversals per MAC (flow `1→2`: the mux-steered multiplier then
/// adder; the PE serializes unit traversals rather than pipelining them).
const PE_CYCLES_MAC: u64 = 2;
/// PE unit traversals per standalone add.
const PE_CYCLES_ADD: u64 = 1;
/// PE unit traversals per standalone multiply.
const PE_CYCLES_MUL: u64 = 1;
/// PE unit traversals per bit shift.
const PE_CYCLES_SHIFT: u64 = 1;
/// PE unit traversals per approximated exponential (flow `1 2 2 3`).
const PE_CYCLES_EXP: u64 = 4;
/// PE unit traversals per approximated inverse sqrt (flow `3 2 1 2 1`).
const PE_CYCLES_ISQRT: u64 = 5;
/// PE unit traversals per approximated division.
const PE_CYCLES_DIV: u64 = 4;

/// One class of PE operation with a repeat count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PeOp {
    /// Multiply-accumulate pairs routed through the mux-steered flow
    /// (`1→2`), as the routing procedure issues them.
    Mac(u64),
    /// Dense weight-stationary MAC streams (conv/FC lowering): the regular
    /// dataflow drives all four multiplier/adder banks in parallel, one MAC
    /// per bank per cycle — 8× the throughput of the mux-steered flow.
    DenseMac(u64),
    /// Standalone additions.
    Add(u64),
    /// Standalone multiplications.
    Mul(u64),
    /// Bit shifts.
    Shift(u64),
    /// Approximated exponentials.
    Exp(u64),
    /// Approximated inverse square roots.
    InvSqrt(u64),
    /// Approximated divisions.
    Div(u64),
}

impl PeOp {
    /// Count of operations.
    pub fn count(&self) -> u64 {
        match *self {
            PeOp::Mac(n)
            | PeOp::DenseMac(n)
            | PeOp::Add(n)
            | PeOp::Mul(n)
            | PeOp::Shift(n)
            | PeOp::Exp(n)
            | PeOp::InvSqrt(n)
            | PeOp::Div(n) => n,
        }
    }

    /// Unit traversals (cycles at one lane) per single operation.
    ///
    /// `DenseMac` is not expressible per-op (it packs 4 MACs per cycle);
    /// see [`PeOp::lane_cycles`].
    fn cycles_each(&self) -> u64 {
        match self {
            PeOp::Mac(_) => PE_CYCLES_MAC,
            PeOp::DenseMac(_) => 1,
            PeOp::Add(_) => PE_CYCLES_ADD,
            PeOp::Mul(_) => PE_CYCLES_MUL,
            PeOp::Shift(_) => PE_CYCLES_SHIFT,
            PeOp::Exp(_) => PE_CYCLES_EXP,
            PeOp::InvSqrt(_) => PE_CYCLES_ISQRT,
            PeOp::Div(_) => PE_CYCLES_DIV,
        }
    }

    /// Total lane-cycles for this op batch.
    fn lane_cycles(&self) -> u64 {
        match self {
            // Four parallel banks, one MAC each per cycle.
            PeOp::DenseMac(n) => n.div_ceil(4),
            _ => self.count() * self.cycles_each(),
        }
    }
}

/// The work one vault's PE array executes in a phase, plus its memory
/// traffic.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct PeProgram {
    /// Operation batches.
    pub ops: Vec<PeOp>,
    /// Bytes the PEs read from the vault.
    pub read_bytes: u64,
    /// Bytes the PEs write to the vault.
    pub write_bytes: u64,
}

impl PeProgram {
    /// An empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an op batch (skipping zero counts).
    pub fn push(&mut self, op: PeOp) {
        if op.count() > 0 {
            self.ops.push(op);
        }
    }

    /// Total lane-cycles across all ops.
    fn lane_cycles(&self) -> u64 {
        self.ops.iter().map(|o| o.lane_cycles()).sum()
    }

    /// Cycles for the vault's whole PE array to retire this program
    /// (lane-cycles spread over `pes_per_vault × pe_lanes` lanes).
    fn array_cycles(&self, cfg: &HmcConfig) -> u64 {
        let lanes = (cfg.pes_per_vault * cfg.pe_lanes) as u64;
        self.lane_cycles().div_ceil(lanes)
    }

    /// Seconds for the vault's PE array to retire this program.
    pub fn array_time_s(&self, cfg: &HmcConfig) -> f64 {
        self.array_cycles(cfg) as f64 / (cfg.pe_clock_ghz * 1e9)
    }

    /// Total bytes moved.
    pub fn traffic_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Merges another program into this one.
    pub fn merge(&mut self, other: &PeProgram) {
        self.ops.extend(other.ops.iter().copied());
        self.read_bytes += other.read_bytes;
        self.write_bytes += other.write_bytes;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_cycle_costs_match_paper_flows() {
        assert_eq!(PeOp::Mac(1).lane_cycles(), 2); // flow 1→2
        assert_eq!(PeOp::DenseMac(8).lane_cycles(), 2); // 4 banks in parallel
        assert_eq!(PeOp::Exp(1).lane_cycles(), 4); // flow 1→2→2→3
        assert_eq!(PeOp::InvSqrt(1).lane_cycles(), 5); // flow 3→2→1→2→1
        assert_eq!(PeOp::Div(1).lane_cycles(), 4);
    }

    #[test]
    fn program_accumulates() {
        let mut p = PeProgram::new();
        p.push(PeOp::Mac(1000));
        p.push(PeOp::Exp(10));
        p.push(PeOp::Add(0)); // dropped
        assert_eq!(p.ops.len(), 2);
        assert_eq!(p.lane_cycles(), 2040);
    }

    #[test]
    fn array_cycles_divide_by_lanes() {
        let cfg = HmcConfig::gen3(); // 16 PEs × 1 lane = 16 lanes
        let mut p = PeProgram::new();
        p.push(PeOp::Mac(6400)); // 12_800 lane-cycles
        assert_eq!(p.array_cycles(&cfg), 800);
        // 800 cycles at 312.5 MHz = 2.56 µs.
        assert!((p.array_time_s(&cfg) - 2.56e-6).abs() < 1e-12);
    }

    #[test]
    fn merge_combines_traffic() {
        let mut a = PeProgram {
            ops: vec![PeOp::Mac(10)],
            read_bytes: 100,
            write_bytes: 50,
        };
        let b = PeProgram {
            ops: vec![PeOp::Exp(5)],
            read_bytes: 10,
            write_bytes: 5,
        };
        a.merge(&b);
        assert_eq!(a.ops.len(), 2);
        assert_eq!(a.traffic_bytes(), 165);
    }
}
