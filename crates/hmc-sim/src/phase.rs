//! The phase-level HMC engine.
//!
//! A [`Phase`] is one bulk-synchronous step of in-memory execution: every
//! vault has a [`PeProgram`] and a per-bank traffic distribution; the phase
//! may also move data across the crossbar (inter-vault aggregation, or —
//! for the PIM-Intra comparison design — *all* memory traffic).
//!
//! Timing per vault: PE compute overlaps with memory streaming; memory time
//! is the max of the TSV-link bound and the busiest bank (the excess of the
//! busiest bank over the link bound is the **vault request stall**, VRS).
//! Crossbar time either serializes after the compute (fine-grained remote
//! access, `memory_via_xbar`) or is the explicit aggregation-message time.

use serde::{Deserialize, Serialize};

use crate::dram::{BankModel, DramTiming};
use crate::energy::{EnergyBreakdown, EnergyParams};
use crate::geometry::HmcConfig;
use crate::pe::PeProgram;

/// Usable fraction of crossbar bandwidth under block-granularity
/// arbitration (the PIM-Intra access pattern).
const FINE_GRAIN_XBAR_EFFICIENCY: f64 = 0.5;

/// Work assigned to one vault for a phase.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct VaultWork {
    /// The PE array's operations and traffic.
    pub program: PeProgram,
    /// Traffic per bank, bytes (length = banks per vault; empty = spread
    /// the program's traffic evenly over all banks).
    pub bank_bytes: Vec<u64>,
    /// Row-buffer hit rate of this vault's access pattern.
    pub row_hit_rate: f64,
}

impl VaultWork {
    /// Total bytes this vault moves.
    fn total_bytes(&self) -> u64 {
        if self.bank_bytes.is_empty() {
            self.program.traffic_bytes()
        } else {
            self.bank_bytes.iter().sum()
        }
    }
}

/// One bulk-synchronous in-memory execution step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Display name (e.g. `it0.eq2`).
    pub name: String,
    /// Per-vault work (length = vault count).
    pub vaults: Vec<VaultWork>,
    /// Inter-vault bytes crossing the crossbar (payload only; packet
    /// overhead is added from the message count).
    pub xbar_payload_bytes: u64,
    /// Number of crossbar messages (each pays head+tail overhead).
    pub xbar_messages: u64,
    /// `true` when PEs reach memory *through* the crossbar (PIM-Intra's
    /// centralized compute): all vault traffic then also pays the crossbar,
    /// serialized with execution (fine-grained remote access cannot be
    /// overlapped).
    pub memory_via_xbar: bool,
}

impl Phase {
    /// A phase with no crossbar traffic.
    pub fn local(name: impl Into<String>, vaults: Vec<VaultWork>) -> Self {
        Phase {
            name: name.into(),
            vaults,
            xbar_payload_bytes: 0,
            xbar_messages: 0,
            memory_via_xbar: false,
        }
    }
}

/// Timing/energy result of one phase (or a sum over phases).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PhaseResult {
    /// Wall-clock seconds.
    pub time_s: f64,
    /// Conflict-free execution component (compute/TSV-bound).
    pub exec_s: f64,
    /// Crossbar exposure.
    pub xbar_s: f64,
    /// Vault-request-stall exposure (bank conflicts).
    pub vrs_s: f64,
    /// Energy breakdown.
    pub energy: EnergyBreakdown,
}

impl PhaseResult {
    /// Accumulates another result.
    pub fn add(&mut self, other: &PhaseResult) {
        self.time_s += other.time_s;
        self.exec_s += other.exec_s;
        self.xbar_s += other.xbar_s;
        self.vrs_s += other.vrs_s;
        self.energy.add(&other.energy);
    }
}

/// The phase-level HMC simulator.
#[derive(Debug, Clone)]
pub struct PhaseEngine {
    cfg: HmcConfig,
    dram: DramTiming,
    energy: EnergyParams,
}

impl PhaseEngine {
    /// Engine with default DRAM timing and energy constants.
    pub fn new(cfg: HmcConfig) -> Self {
        PhaseEngine {
            cfg,
            dram: DramTiming::default(),
            energy: EnergyParams::default(),
        }
    }

    /// The cube configuration.
    pub fn config(&self) -> &HmcConfig {
        &self.cfg
    }

    /// Runs one phase.
    ///
    /// # Panics
    ///
    /// Debug-asserts that `vaults` matches the configured vault count and
    /// bank vectors match the bank count.
    // LINT-ALLOW(R6): model-checking helper: the event-level conformance tests validate one phase against `EventSim`.
    pub fn run_phase(&self, phase: &Phase) -> PhaseResult {
        debug_assert!(phase.vaults.len() <= self.cfg.vaults);
        let bank = BankModel::new(self.dram, self.cfg.block_bytes);
        let per_vault_bw = self.cfg.per_vault_gbps() * 1e9;

        let mut exec = 0.0f64; // conflict-free critical path
        let mut with_conflicts = 0.0f64;
        let mut dram_bytes_total = 0u64;

        for work in &phase.vaults {
            let t_pe = work.program.array_time_s(&self.cfg);
            let total_bytes = work.total_bytes();
            dram_bytes_total += total_bytes;
            let t_tsv = total_bytes as f64 / per_vault_bw;
            let t_worst_bank = if work.bank_bytes.is_empty() {
                // Even spread over all banks.
                bank.service_time_s(
                    total_bytes.div_ceil(self.cfg.banks_per_vault as u64),
                    work.row_hit_rate,
                )
            } else {
                debug_assert_eq!(work.bank_bytes.len(), self.cfg.banks_per_vault);
                work.bank_bytes
                    .iter()
                    .map(|&b| bank.service_time_s(b, work.row_hit_rate))
                    .fold(0.0, f64::max)
            };
            let ideal = t_pe.max(t_tsv);
            let conflicted = t_pe.max(t_tsv.max(t_worst_bank));
            exec = exec.max(ideal);
            with_conflicts = with_conflicts.max(conflicted);
        }
        let vrs = with_conflicts - exec;

        // Crossbar.
        let pkt = phase.xbar_messages * self.cfg.packet_overhead_bytes;
        let mut xbar_bytes = phase.xbar_payload_bytes + pkt;
        if phase.memory_via_xbar {
            // All vault traffic also crosses the switch, block by block —
            // each block pays packet overhead.
            let blocks = dram_bytes_total.div_ceil(self.cfg.block_bytes);
            xbar_bytes += dram_bytes_total + blocks * self.cfg.packet_overhead_bytes;
        }
        // Fine-grained (block-granularity) remote access cannot keep the
        // switch ports busy back-to-back: arbitration halves the usable
        // rate. Bulk aggregation messages stream at full rate.
        let xbar_rate = if phase.memory_via_xbar {
            self.cfg.xbar_gbps * 1e9 * FINE_GRAIN_XBAR_EFFICIENCY
        } else {
            self.cfg.xbar_gbps * 1e9
        };
        let t_xbar = xbar_bytes as f64 / xbar_rate;
        // Fine-grained remote access serializes with execution; explicit
        // aggregation messages also serialize (they happen between phases),
        // so the crossbar exposure is additive in both modes.
        let time = with_conflicts + t_xbar;

        // Energy.
        let mut pe_j = 0.0;
        for work in &phase.vaults {
            for op in &work.program.ops {
                pe_j += self.energy.op_energy(op);
            }
        }
        let blocks_total = dram_bytes_total.div_ceil(self.cfg.block_bytes);
        let energy = EnergyBreakdown {
            execution_j: pe_j + time * self.energy.logic_static_w,
            dram_j: dram_bytes_total as f64 * self.energy.pj_dram_byte
                + time * self.energy.dram_static_w,
            xbar_j: xbar_bytes as f64 * self.energy.pj_xbar_byte,
            vault_j: blocks_total as f64 * self.energy.pj_vault_block,
        };

        PhaseResult {
            time_s: time,
            exec_s: exec,
            xbar_s: t_xbar,
            vrs_s: vrs,
            energy,
        }
    }

    /// Runs a sequence of phases, summing results.
    pub fn run(&self, phases: &[Phase]) -> PhaseResult {
        let mut total = PhaseResult::default();
        for p in phases {
            total.add(&self.run_phase(p));
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pe::PeOp;

    fn cfg() -> HmcConfig {
        HmcConfig::gen3()
    }

    fn even_vault(bytes: u64, macs: u64) -> VaultWork {
        let mut program = PeProgram::new();
        program.push(PeOp::Mac(macs));
        program.read_bytes = bytes;
        VaultWork {
            program,
            bank_bytes: Vec::new(),
            row_hit_rate: 0.95,
        }
    }

    #[test]
    fn compute_bound_phase() {
        let e = PhaseEngine::new(cfg());
        // 16 lanes × 312.5 MHz = 5 G lane-ops/s per vault; a MAC costs two
        // lane-cycles, so 2.5M MACs → 1 ms.
        let phase = Phase::local("c", vec![even_vault(1000, 2_500_000); 32]);
        let r = e.run_phase(&phase);
        assert!((r.time_s - 1.0e-3).abs() / 1.0e-3 < 0.01, "{}", r.time_s);
        assert!(r.vrs_s < 1e-9);
        assert!(r.xbar_s < 1e-12);
    }

    #[test]
    fn memory_bound_phase_hits_tsv_limit() {
        let e = PhaseEngine::new(cfg());
        // 16 MB per vault at 16 GB/s TSV = 1 ms; trivial compute.
        let phase = Phase::local("m", vec![even_vault(16_000_000, 1000); 32]);
        let r = e.run_phase(&phase);
        assert!((r.time_s - 1.0e-3).abs() / 1.0e-3 < 0.05, "{}", r.time_s);
        assert!(r.vrs_s < 0.05 * r.time_s, "even spread should not stall");
    }

    #[test]
    fn bank_concentration_creates_vrs() {
        let e = PhaseEngine::new(cfg());
        let mut work = even_vault(16_000_000, 1000);
        // All 16 MB in one bank: 1M blocks × ~5-47 ns each.
        let mut banks = vec![0u64; 16];
        banks[3] = 16_000_000;
        work.bank_bytes = banks;
        work.row_hit_rate = 0.75;
        let phase = Phase::local("conflict", vec![work; 32]);
        let r = e.run_phase(&phase);
        assert!(
            r.vrs_s > r.exec_s,
            "one-bank concentration must stall: vrs {} exec {}",
            r.vrs_s,
            r.exec_s
        );
    }

    #[test]
    fn xbar_routing_serializes() {
        let e = PhaseEngine::new(cfg());
        let mut phase = Phase::local("remote", vec![even_vault(16_000_000, 1000); 32]);
        phase.memory_via_xbar = true;
        let local = e.run_phase(&Phase::local(
            "local",
            vec![even_vault(16_000_000, 1000); 32],
        ));
        let remote = e.run_phase(&phase);
        assert!(
            remote.time_s > 1.8 * local.time_s,
            "crossbar path should dominate"
        );
        assert!(remote.xbar_s > remote.exec_s);
    }

    #[test]
    fn aggregation_messages_pay_packet_overhead() {
        let e = PhaseEngine::new(cfg());
        let mut phase = Phase::local("agg", vec![even_vault(0, 0); 32]);
        phase.xbar_payload_bytes = 1 << 20;
        phase.xbar_messages = 65536; // 16 B payload each → overhead doubles bytes
        let r = e.run_phase(&phase);
        let expected = (2.0 * (1 << 20) as f64) / (512e9);
        assert!((r.xbar_s - expected).abs() / expected < 1e-9);
    }

    #[test]
    fn run_sums_phases() {
        let e = PhaseEngine::new(cfg());
        let p = Phase::local("p", vec![even_vault(1_000_000, 1_000_000); 32]);
        let single = e.run_phase(&p);
        let double = e.run(&[p.clone(), p]);
        assert!((double.time_s - 2.0 * single.time_s).abs() < 1e-12);
        assert!((double.energy.total() - 2.0 * single.energy.total()).abs() < 1e-12);
    }

    #[test]
    fn energy_has_all_components() {
        let e = PhaseEngine::new(cfg());
        let mut phase = Phase::local("e", vec![even_vault(1_000_000, 1_000_000); 32]);
        phase.xbar_payload_bytes = 1000;
        phase.xbar_messages = 10;
        let r = e.run_phase(&phase);
        assert!(r.energy.execution_j > 0.0);
        assert!(r.energy.dram_j > 0.0);
        assert!(r.energy.xbar_j > 0.0);
        assert!(r.energy.vault_j > 0.0);
    }

    #[test]
    fn slowest_vault_sets_the_pace() {
        let e = PhaseEngine::new(cfg());
        let mut vaults = vec![even_vault(1000, 1000); 32];
        vaults[7] = even_vault(16_000_000, 5_000_000);
        let r = e.run_phase(&Phase::local("imbalanced", vaults));
        // Vault 7 compute: 5M MACs × 2 / 16 lanes / 312.5 MHz = 2 ms.
        assert!((r.time_s - 2.0e-3).abs() / 2.0e-3 < 0.05, "{}", r.time_s);
    }
}
