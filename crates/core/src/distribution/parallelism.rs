//! Table 2: which dimensions each RP equation parallelizes along.
//!
//! The aggregation structure decides everything:
//!
//! * Eq 1 (`û = u·W`) has no aggregation across B/L/H → all three;
//! * Eq 2 (`s = Σ_i û·c`) aggregates over **L** → B and H only;
//! * Eq 3 (`v = squash(s)`) has no L dimension at all → B and H;
//! * Eq 4 (`b += Σ_k v·û`) aggregates over the **batch** → L and H only;
//! * Eq 5 (`c = softmax_j(b)`) aggregates over **H** and has no batch
//!   dimension (coefficients are batch-shared) → L only.

use capsnet::RpEquation;

use super::Dimension;

/// `true` when `eq` can be split along `dim` without cross-vault
/// aggregation inside the equation.
pub fn parallelizable(eq: RpEquation, dim: Dimension) -> bool {
    use Dimension::*;
    use RpEquation::*;
    matches!(
        (eq, dim),
        (Eq1, B)
            | (Eq1, L)
            | (Eq1, H)
            | (Eq2, B)
            | (Eq2, H)
            | (Eq3, B)
            | (Eq3, H)
            | (Eq4, L)
            | (Eq4, H)
            | (Eq5, L)
    )
}

/// EM routing's parallelizable dimensions for the same five slots (the
/// slot mapping is documented on [`capsnet::RpCensus::new_em`]).
///
/// EM responsibilities are per-sample, so *every* slot parallelizes along
/// the batch; the M-step slots aggregate over L (like dynamic Eq 2) and the
/// E-step normalization aggregates over H:
///
/// * votes (Eq1): B, L, H;
/// * M-step means (Eq2): B, H;
/// * M-step variances/activations (Eq3): B, H;
/// * E-step likelihoods (Eq4): B, L, H — purely per-(k, i, j);
/// * E-step normalization (Eq5): B, L.
pub fn parallelizable_em(eq: RpEquation, dim: Dimension) -> bool {
    use Dimension::*;
    use RpEquation::*;
    matches!(
        (eq, dim),
        (Eq1, _) | (Eq4, _) | (Eq2, B) | (Eq2, H) | (Eq3, B) | (Eq3, H) | (Eq5, B) | (Eq5, L)
    )
}

/// The full Table 2 as `(equation, [B, L, H])` rows.
pub fn table2() -> Vec<(RpEquation, [bool; 3])> {
    RpEquation::ALL
        .into_iter()
        .map(|eq| {
            (
                eq,
                [
                    parallelizable(eq, Dimension::B),
                    parallelizable(eq, Dimension::L),
                    parallelizable(eq, Dimension::H),
                ],
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_parallel_on_all_dimensions() {
        for d in Dimension::ALL {
            assert!(parallelizable(RpEquation::Eq1, d), "{d}");
        }
    }

    #[test]
    fn aggregation_dimension_is_excluded() {
        // Eq2 aggregates over L.
        assert!(!parallelizable(RpEquation::Eq2, Dimension::L));
        // Eq4 aggregates over the batch.
        assert!(!parallelizable(RpEquation::Eq4, Dimension::B));
        // Eq5 aggregates over H (softmax denominator).
        assert!(!parallelizable(RpEquation::Eq5, Dimension::H));
        // Eq5 has no batch dimension (batch-shared coefficients).
        assert!(!parallelizable(RpEquation::Eq5, Dimension::B));
    }

    #[test]
    fn observation_two_no_universal_dimension() {
        // Paper Observation II: no dimension parallelizes all equations.
        for dim in Dimension::ALL {
            let all = RpEquation::ALL.iter().all(|&eq| parallelizable(eq, dim));
            assert!(!all, "dimension {dim} must not cover every equation");
        }
    }

    #[test]
    fn observation_one_every_equation_has_a_dimension() {
        // Paper Observation I: every equation parallelizes somewhere.
        for eq in RpEquation::ALL {
            assert!(
                Dimension::ALL.iter().any(|&d| parallelizable(eq, d)),
                "{eq} has no parallel dimension"
            );
        }
    }

    #[test]
    fn em_has_batch_parallelism_everywhere() {
        // EM responsibilities are per-sample: B-splitting leaves no
        // residue, unlike dynamic routing's batch-shared coefficients.
        for eq in RpEquation::ALL {
            assert!(parallelizable_em(eq, Dimension::B), "{eq} must B-split");
        }
        // Aggregation dims still excluded.
        assert!(!parallelizable_em(RpEquation::Eq2, Dimension::L));
        assert!(!parallelizable_em(RpEquation::Eq5, Dimension::H));
    }

    #[test]
    fn table2_row_count_and_marks() {
        let t = table2();
        assert_eq!(t.len(), 5);
        // Count the x-marks: Eq1:3 + Eq2:2 + Eq3:2 + Eq4:2 + Eq5:1 = 10.
        let marks: usize = t
            .iter()
            .map(|(_, row)| row.iter().filter(|&&x| x).count())
            .sum();
        assert_eq!(marks, 10);
    }
}
