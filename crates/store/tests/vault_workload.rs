//! Driving an `hmc-sim` workload straight from a mapped artifact: the
//! vault-aligned layout's per-vault shares become per-vault traffic, so
//! the stored bytes stand in for the paper's per-vault weight
//! partitioning (§5.1) without any repartitioning step.

use capsnet::{CapsNet, CapsNetSpec};
use hmc_sim::{HmcConfig, PeOp, PeProgram, Phase, PhaseEngine, VaultWork};
use pim_store::{MappedModel, ModelWriter, DEFAULT_VAULT_WAYS};

#[test]
fn mapped_artifact_drives_per_vault_phase() {
    let dir = std::env::temp_dir().join(format!("pim_store_hmc_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("drive.pimcaps");

    let net = CapsNet::seeded(&CapsNetSpec::tiny_for_tests(), 23).unwrap();
    ModelWriter::vault_aligned().save(&net, &path).unwrap();
    let mapped = MappedModel::open(&path).unwrap();

    // One VaultWork per stored vault share of the caps weight: each vault
    // streams its own partition (Eq 1's per-capsule GEMM reads every
    // stored byte once) and runs one MAC per element.
    let parts = mapped.vault_partitions("caps.weight").unwrap();
    assert_eq!(parts.len(), DEFAULT_VAULT_WAYS);
    let vaults: Vec<VaultWork> = parts
        .iter()
        .map(|p| {
            let bytes = p.tensor.size_bytes() as u64;
            let mut program = PeProgram::new();
            program.push(PeOp::DenseMac(p.tensor.len() as u64));
            program.read_bytes = bytes;
            VaultWork {
                program,
                bank_bytes: Vec::new(),
                row_hit_rate: 0.95,
            }
        })
        .collect();
    let total_bytes: u64 = vaults.iter().map(|v| v.program.traffic_bytes()).sum();
    assert_eq!(
        total_bytes,
        mapped.tensor("caps.weight").unwrap().size_bytes() as u64,
        "per-vault traffic must cover the whole weight exactly once"
    );

    let engine = PhaseEngine::new(HmcConfig::gen3());
    let result = engine.run_phase(&Phase::local("eq1.from_artifact", vaults));
    assert!(result.time_s > 0.0, "phase must take time: {result:?}");
    assert!(result.exec_s > 0.0);

    std::fs::remove_dir_all(&dir).unwrap();
}
