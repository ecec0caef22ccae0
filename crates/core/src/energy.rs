//! Energy reporting — the Table III energy model.
//!
//! Per-command energy constants and their calibration live in
//! [`dram_sim::energy`]; the scheduler accumulates them while building a
//! timeline. This module turns the raw tally into the report shape Table
//! III uses and adds the breakdown the paper discusses (activation energy
//! dominating at large `N` because the inter-row regime's share grows).

use crate::sched::Timeline;

/// Energy summary of one scheduled NTT.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyReport {
    /// Total energy in nanojoules.
    pub total_nj: f64,
    /// Share spent on row activation/precharge, 0..1.
    pub act_share: f64,
    /// Share spent on column transfers, 0..1.
    pub col_share: f64,
    /// Share spent on compute commands, 0..1.
    pub compute_share: f64,
    /// Share spent broadcasting parameters, 0..1.
    pub param_share: f64,
}

impl EnergyReport {
    /// Builds the report from a scheduled timeline.
    pub fn from_timeline(tl: &Timeline) -> Self {
        let m = &tl.energy;
        let total = m.total_pj.max(f64::MIN_POSITIVE);
        Self {
            total_nj: m.total_nj(),
            act_share: m.act_pj / total,
            col_share: m.col_pj / total,
            compute_share: m.compute_pj / total,
            param_share: m.param_pj / total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PimConfig;
    use crate::layout::PolyLayout;
    use crate::mapper::{map_ntt, MapperOptions, NttParams};
    use crate::sched::schedule;

    fn report(n: usize) -> EnergyReport {
        let c = PimConfig::hbm2e(2);
        let layout = PolyLayout::new(&c, 0, n).unwrap();
        let q = 2_013_265_921u32; // 15 * 2^27 + 1
        let omega = modmath::prime::root_of_unity(n as u64, q as u64).unwrap() as u32;
        let prog = map_ntt(
            &c,
            &layout,
            &NttParams { q, omega },
            &MapperOptions::default(),
        )
        .unwrap();
        EnergyReport::from_timeline(&schedule(&c, &prog).unwrap())
    }

    #[test]
    fn shares_sum_to_one() {
        let r = report(1024);
        let sum = r.act_share + r.col_share + r.compute_share + r.param_share;
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn activation_share_grows_with_n() {
        // Larger N → larger inter-row fraction → activations dominate
        // (the paper's explanation for the superlinear energy growth).
        let small = report(256);
        let large = report(4096);
        assert!(large.act_share > small.act_share);
        assert!(large.total_nj > small.total_nj);
    }
}
