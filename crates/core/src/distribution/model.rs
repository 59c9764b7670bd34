//! The inter-vault workload (`E`) and data-movement (`M`) models —
//! paper Eqs 6–12, implemented verbatim with Table 3's parameters.

use capsnet::census::RpCensus;
use serde::{Deserialize, Serialize};

use super::Dimension;

/// Bytes per FP32 variable (`SIZE_x` for scalars like `b_ij`, `c_ij`).
const SIZE_SCALAR: f64 = 4.0;
/// Packet head + tail bytes (`SIZE_pkt`).
const SIZE_PKT: f64 = 16.0;

/// Table 3's parameters plus the packet/variable sizes, bundled with the
/// E/M model evaluations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DistributionModel {
    /// Routing iterations `I`.
    pub i: f64,
    /// Batch size `N_B`.
    pub nb: f64,
    /// Low-level capsules `N_L`.
    pub nl: f64,
    /// High-level capsules `N_H`.
    pub nh: f64,
    /// Vault count `N_vault`.
    pub nvault: f64,
    /// Low-level capsule dimension `C_L`.
    pub cl: f64,
    /// High-level capsule dimension `C_H`.
    pub ch: f64,
}

impl DistributionModel {
    /// Builds the model from a census and vault count.
    pub fn from_census(rp: &RpCensus, nvault: usize) -> Self {
        DistributionModel {
            i: rp.iterations as f64,
            nb: rp.nb as f64,
            nl: rp.nl as f64,
            nh: rp.nh as f64,
            nvault: nvault as f64,
            cl: rp.cl as f64,
            ch: rp.ch as f64,
        }
    }

    fn ceil_div(a: f64, b: f64) -> f64 {
        (a / b).ceil()
    }

    /// Eq 6: largest per-vault workload under **B**-dimension distribution
    /// (full form).
    pub fn e_b(&self) -> f64 {
        let share = Self::ceil_div(self.nb, self.nvault);
        let eq1 = share * self.nl * self.nh * self.ch * (2.0 * self.cl - 1.0);
        let eq2 = share * self.nh * self.ch * (2.0 * self.nl - 1.0);
        let eq3 = share * self.nh * (3.0 * self.ch + 19.0);
        let eq4 = share * self.nl * self.nh * (2.0 * self.ch - 1.0);
        let pre_agg = self.nvault.log2().ceil() / self.nvault;
        let eq5ish = 4.0 * self.ch;
        eq1 + self.i * (eq2 + eq3 + eq4 + pre_agg + eq5ish)
    }

    /// Eq 7: the paper's `N_L ≫ 1` simplification of `E_B`.
    pub fn e_b_simplified(&self) -> f64 {
        Self::ceil_div(self.nb, self.nvault)
            * self.nl
            * self.nh
            * ((4.0 * self.i - 1.0) * self.ch + 2.0 * self.cl * self.ch - self.i)
    }

    /// Eq 8: inter-vault data movement under **B**-dimension distribution —
    /// gathering pre-aggregated `b_ij` and scattering `c_ij`.
    fn m_b(&self) -> f64 {
        self.i
            * ((self.nvault - 1.0) * self.nl * self.nh * (SIZE_SCALAR + SIZE_PKT)
                + (self.nvault - 1.0) * self.nl * self.nh * (SIZE_SCALAR + SIZE_PKT))
    }

    /// Eq 9: largest per-vault workload under **L**-dimension distribution.
    fn e_l(&self) -> f64 {
        self.nb
            * Self::ceil_div(self.nl, self.nvault)
            * self.nh
            * (2.0 * self.i * (2.0 * self.ch - 1.0) + self.ch * (2.0 * self.cl - 1.0))
    }

    /// Eq 10: inter-vault movement under **L** — all-reducing `s_j` and
    /// broadcasting `v_j` (capsule vectors of `C_H` scalars).
    fn m_l(&self) -> f64 {
        let size_s = self.ch * SIZE_SCALAR;
        let size_v = self.ch * SIZE_SCALAR;
        self.i
            * (self.nb * (self.nvault - 1.0) * self.nh * (size_s + SIZE_PKT)
                + self.nb * (self.nvault - 1.0) * self.nh * (size_v + SIZE_PKT))
    }

    /// Eq 11: largest per-vault workload under **H**-dimension
    /// distribution.
    fn e_h(&self) -> f64 {
        self.nb
            * self.nl
            * Self::ceil_div(self.nh, self.nvault)
            * self.ch
            * (2.0 * self.cl - 1.0 + 2.0 * self.i)
    }

    /// Eq 12: inter-vault movement under **H** — all-reducing `b_ij` and
    /// broadcasting `c_ij`.
    fn m_h(&self) -> f64 {
        self.i
            * ((self.nvault - 1.0) * self.nl * (SIZE_SCALAR + SIZE_PKT)
                + self.nl * (SIZE_SCALAR + SIZE_PKT))
    }

    /// `E` for a dimension.
    pub fn e(&self, dim: Dimension) -> f64 {
        match dim {
            Dimension::B => self.e_b(),
            Dimension::L => self.e_l(),
            Dimension::H => self.e_h(),
        }
    }

    /// `M` for a dimension.
    pub fn m(&self, dim: Dimension) -> f64 {
        match dim {
            Dimension::B => self.m_b(),
            Dimension::L => self.m_l(),
            Dimension::H => self.m_h(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Caps-MN1: B=100, L=1152, H=10, CL=8, CH=16, I=3, 32 vaults.
    fn mn1() -> DistributionModel {
        DistributionModel {
            i: 3.0,
            nb: 100.0,
            nl: 1152.0,
            nh: 10.0,
            nvault: 32.0,
            cl: 8.0,
            ch: 16.0,
        }
    }

    #[test]
    fn e_b_hand_computed() {
        let m = mn1();
        // share = ceil(100/32) = 4
        // eq1 = 4·1152·10·16·15 = 11_059_200
        // eq2 = 4·10·16·2303 = 1_473_920
        // eq3 = 4·10·67 = 2_680
        // eq4 = 4·1152·10·31 = 1_428_480
        // pre = ceil(log2 32)/32 = 5/32 = 0.15625
        // eq5ish = 64
        // E_B = eq1 + 3·(eq2+eq3+eq4+0.15625+64)
        let expected = 11_059_200.0 + 3.0 * (1_473_920.0 + 2_680.0 + 1_428_480.0 + 0.15625 + 64.0);
        assert!(
            (m.e_b() - expected).abs() < 1.0,
            "{} vs {expected}",
            m.e_b()
        );
    }

    #[test]
    fn simplified_e_b_close_to_full() {
        // The paper simplifies under N_L ≫ 1; for MN1 the two should agree
        // within a few percent.
        let m = mn1();
        let rel = (m.e_b() - m.e_b_simplified()).abs() / m.e_b();
        assert!(rel < 0.05, "relative gap {rel}");
    }

    #[test]
    fn m_b_hand_computed() {
        let m = mn1();
        // 3 · [31·1152·10·20 + 31·1152·10·20] = 3 · 2 · 7_142_400
        let expected = 3.0 * 2.0 * (31.0 * 1152.0 * 10.0 * 20.0);
        assert!((m.m_b() - expected).abs() < 1.0);
    }

    #[test]
    fn e_l_hand_computed() {
        let m = mn1();
        // share = ceil(1152/32) = 36
        // E_L = 100·36·10·(2·3·31 + 16·15) = 36000·(186+240) = 15_336_000
        assert!((m.e_l() - 15_336_000.0).abs() < 1.0);
    }

    #[test]
    fn m_h_much_smaller_than_m_l() {
        // For MN1, H-dimension communication (scalar b/c rows) is several
        // times cheaper than L-dimension (batch-scaled capsule vectors).
        let m = mn1();
        assert!(m.m_h() * 2.0 < m.m_l(), "{} vs {}", m.m_h(), m.m_l());
    }

    #[test]
    fn e_h_hand_computed() {
        let m = mn1();
        // share = ceil(10/32) = 1
        // E_H = 100·1152·1·16·(15+6) = 38_707_200
        assert!((m.e_h() - 38_707_200.0).abs() < 1.0);
    }

    #[test]
    fn dimension_dispatch() {
        let m = mn1();
        assert_eq!(m.e(Dimension::B), m.e_b());
        assert_eq!(m.m(Dimension::L), m.m_l());
        assert_eq!(m.e(Dimension::H), m.e_h());
    }

    #[test]
    fn from_census_roundtrip() {
        let rp = RpCensus::new(100, 1152, 10, 8, 16, 3);
        let m = DistributionModel::from_census(&rp, 32);
        assert_eq!(m, mn1());
    }
}
