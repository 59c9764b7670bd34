//! Inter-vault workload distribution (§5.1).
//!
//! The RP's equations are independently parallelizable along up to three
//! dimensions — batch (`B`), low-level capsules (`L`), high-level capsules
//! (`H`) — but no single dimension parallelizes *all* equations (Table 2).
//! The distributor therefore models, for each candidate dimension, the
//! largest per-vault workload `E` and the inter-vault data movement `M`
//! (Eqs 6–12), and picks the dimension maximizing the execution score
//! `S = 1/(αE + βM)` (computed offline — it depends only on the network
//! configuration and device coefficients).

mod model;
mod parallelism;
mod score;
mod snippets;

pub use model::DistributionModel;
pub use parallelism::{parallelizable, parallelizable_em, table2};
pub use score::{choose_dimension, execution_score, DeviceCoeffs};
pub use snippets::{vault_shares, SnippetPlan};

use serde::{Deserialize, Serialize};

/// A distribution dimension (§5.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Dimension {
    /// Batch dimension (`N_B` input sets).
    B,
    /// Low-level capsule dimension (`N_L`).
    L,
    /// High-level capsule dimension (`N_H`).
    H,
}

impl Dimension {
    /// All three candidate dimensions.
    pub const ALL: [Dimension; 3] = [Dimension::B, Dimension::L, Dimension::H];
}

impl std::fmt::Display for Dimension {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dimension::B => write!(f, "B"),
            Dimension::L => write!(f, "L"),
            Dimension::H => write!(f, "H"),
        }
    }
}
