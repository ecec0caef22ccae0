//! Per-command energy accounting.
//!
//! PIM is supposed to be fabricated in a memory process whose energy data
//! is not public (the paper makes the same caveat for area), so these are
//! HBM2-class order-of-magnitude constants chosen to land the paper's
//! Table III NTT-PIM energy column within a small factor (the fit is
//! described on [`EnergyParams::hbm2e_pim`]). They are model *inputs*;
//! the experiment harness prints model and paper numbers side by side.

/// Energy cost per command type, in picojoules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EnergyParams {
    /// One row activation + its eventual precharge (charge/restore of a
    /// 1 KB row).
    pub act_pre_pj: f64,
    /// One column read kept inside the bank (no chip I/O — the PIM
    /// CU-read; ordinary reads that leave the chip would add I/O energy).
    pub rd_internal_pj: f64,
    /// One column write from an atom buffer back into the sense amps.
    pub wr_internal_pj: f64,
    /// One C1 intra-atom NTT command (log Na stages of Na/2 butterflies
    /// through the Montgomery multiplier).
    pub c1_pj: f64,
    /// One C2 vectorized butterfly command (Na butterflies).
    pub c2_pj: f64,
    /// Parameter broadcast over the global buffer (per 16-bit beat).
    pub param_beat_pj: f64,
}

impl EnergyParams {
    /// The calibrated defaults.
    ///
    /// These are *incremental* (above-background) energies per command,
    /// fitted so the simulated Table III NTT-PIM energy column lands
    /// within ~40% of the paper's published values across N = 256…4096;
    /// they are deliberately below datasheet HBM activation energies,
    /// which include I/O and background components the paper's column
    /// evidently excludes.
    pub fn hbm2e_pim() -> Self {
        Self {
            act_pre_pj: 40.0,
            rd_internal_pj: 2.0,
            wr_internal_pj: 2.0,
            c1_pj: 5.0,
            c2_pj: 4.0,
            param_beat_pj: 0.25,
        }
    }
}

impl Default for EnergyParams {
    fn default() -> Self {
        Self::hbm2e_pim()
    }
}

/// Running energy tally.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyMeter {
    /// Accumulated energy in picojoules.
    pub total_pj: f64,
    /// Energy spent on row activate/precharge pairs.
    pub act_pj: f64,
    /// Energy spent on column transfers.
    pub col_pj: f64,
    /// Energy spent on compute commands.
    pub compute_pj: f64,
    /// Energy spent broadcasting parameters.
    pub param_pj: f64,
}

impl EnergyMeter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one activate (+implied precharge restore).
    pub fn record_act(&mut self, p: &EnergyParams) {
        self.act_pj += p.act_pre_pj;
        self.total_pj += p.act_pre_pj;
    }

    /// Records one internal column read.
    pub fn record_rd(&mut self, p: &EnergyParams) {
        self.col_pj += p.rd_internal_pj;
        self.total_pj += p.rd_internal_pj;
    }

    /// Records one internal column write.
    pub fn record_wr(&mut self, p: &EnergyParams) {
        self.col_pj += p.wr_internal_pj;
        self.total_pj += p.wr_internal_pj;
    }

    /// Records one C1 compute command.
    pub fn record_c1(&mut self, p: &EnergyParams) {
        self.compute_pj += p.c1_pj;
        self.total_pj += p.c1_pj;
    }

    /// Records one C2 compute command.
    pub fn record_c2(&mut self, p: &EnergyParams) {
        self.compute_pj += p.c2_pj;
        self.total_pj += p.c2_pj;
    }

    /// Records `beats` 16-bit parameter broadcasts.
    pub fn record_param_beats(&mut self, p: &EnergyParams, beats: u64) {
        let e = p.param_beat_pj * beats as f64;
        self.param_pj += e;
        self.total_pj += e;
    }

    /// Total in nanojoules.
    pub fn total_nj(&self) -> f64 {
        self.total_pj / 1000.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_sums_components() {
        let p = EnergyParams::hbm2e_pim();
        let mut m = EnergyMeter::new();
        m.record_act(&p);
        m.record_rd(&p);
        m.record_wr(&p);
        m.record_c1(&p);
        m.record_c2(&p);
        m.record_param_beats(&p, 4);
        let expect = p.act_pre_pj
            + p.rd_internal_pj
            + p.wr_internal_pj
            + p.c1_pj
            + p.c2_pj
            + 4.0 * p.param_beat_pj;
        assert!((m.total_pj - expect).abs() < 1e-9);
        assert!((m.total_nj() - expect / 1000.0).abs() < 1e-12);
    }

    #[test]
    fn components_partition_total() {
        let p = EnergyParams::hbm2e_pim();
        let mut m = EnergyMeter::new();
        for _ in 0..10 {
            m.record_act(&p);
            m.record_c2(&p);
        }
        assert!((m.act_pj + m.col_pj + m.compute_pj + m.param_pj - m.total_pj).abs() < 1e-9);
    }
}
