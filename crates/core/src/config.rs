//! PIM architecture configuration (the paper's Table I plus §IV details).

use crate::PimError;
use dram_sim::timing::{Geometry, TimingParams};

pub use dram_sim::channel::Topology;

/// Compute-unit latencies, in CU-clock cycles.
///
/// The paper reports a fully pipelined butterfly unit meeting 1200 MHz with
/// `C1` latency 15 and `C2` latency 10 (§VI.B); load/store µ-ops between
/// buffers and operand registers take 2 cycles and are already folded into
/// those figures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CuTiming {
    /// Latency of the intra-atom NTT command C1.
    pub c1_cycles: u32,
    /// Latency of the vectorized butterfly command C2.
    pub c2_cycles: u32,
    /// Latency of the element-wise commands (scale / pointwise); same
    /// pipeline as C2.
    pub elementwise_cycles: u32,
    /// Latency of one scalar register load/store µ-command (single-buffer
    /// fallback path).
    pub reg_move_cycles: u32,
    /// Latency of one scalar butterfly on the operand registers.
    pub reg_bu_cycles: u32,
    /// 16-bit beats needed to broadcast one full parameter set (q, ω0, rω
    /// at 32 bits each → 6 beats; §IV.A's "in multiple cycles for higher
    /// precision values").
    pub param_beats: u32,
}

impl CuTiming {
    /// The paper's synthesized latencies.
    pub fn dac23() -> Self {
        Self {
            c1_cycles: 15,
            c2_cycles: 10,
            elementwise_cycles: 10,
            reg_move_cycles: 2,
            reg_bu_cycles: 6,
            param_beats: 6,
        }
    }
}

impl Default for CuTiming {
    fn default() -> Self {
        Self::dac23()
    }
}

/// Full PIM configuration: DRAM timing/geometry, device topology, buffer
/// count, CU clocks.
///
/// # Example
///
/// ```
/// let cfg = ntt_pim_core::config::PimConfig::hbm2e(4);
/// assert_eq!(cfg.n_bufs, 4);
/// assert_eq!(cfg.na(), 8);
/// assert_eq!(cfg.row_words(), 256);
///
/// // Scale the device out to 2 channels × 2 ranks × 4 banks.
/// let sharded = cfg.with_topology(ntt_pim_core::config::Topology::new(2, 2, 4));
/// assert_eq!(sharded.total_banks(), 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PimConfig {
    /// DRAM timing (fixed in nanoseconds regardless of CU clock).
    pub timing: TimingParams,
    /// Geometry of one bank.
    pub geometry: Geometry,
    /// Device topology: `channels × ranks × banks`, the device's bank
    /// count.
    pub topology: Topology,
    /// Total number of atom buffers `Nb`, *including* the primary (GSA).
    /// `Nb = 1` is the single-buffer strawman; `Nb = 2` the dual-buffer
    /// baseline; larger values enable pipelining.
    pub n_bufs: usize,
    /// CU / peripheral logic clock in MHz (the paper's Fig. 8 sweeps this
    /// from 300 to 1200 while DRAM latencies stay fixed).
    pub cu_clock_mhz: u32,
    /// CU latencies in CU cycles.
    pub cu: CuTiming,
    /// Model periodic refresh (tREFI/tRFC). The paper's evaluation ignores
    /// refresh; enable for the refresh-overhead ablation.
    pub refresh: bool,
}

impl PimConfig {
    /// The paper's evaluation configuration with `nb` atom buffers.
    pub fn hbm2e(nb: usize) -> Self {
        Self {
            timing: TimingParams::hbm2e(),
            geometry: Geometry::hbm2e_single_bank(),
            topology: Topology::single_rank(1),
            n_bufs: nb,
            cu_clock_mhz: 1200,
            cu: CuTiming::dac23(),
            refresh: false,
        }
    }

    /// Same configuration with a different CU clock (Fig. 8).
    pub fn with_cu_clock_mhz(mut self, mhz: u32) -> Self {
        self.cu_clock_mhz = mhz;
        self
    }

    /// Same configuration with `banks` banks *per rank* (bank-level
    /// parallelism); channels and ranks are unchanged.
    pub fn with_banks(mut self, banks: u32) -> Self {
        self.topology.banks = banks;
        self
    }

    /// Same configuration with a full `channels × ranks × banks` device
    /// topology.
    pub fn with_topology(mut self, topology: Topology) -> Self {
        self.topology = topology;
        self
    }

    /// Total banks across the whole device
    /// (`channels × ranks × banks`) — the fan-out available to the batch
    /// scheduler.
    pub fn total_banks(&self) -> usize {
        self.topology.total_banks()
    }

    /// Same configuration with refresh modeling switched on or off.
    pub fn with_refresh(mut self, refresh: bool) -> Self {
        self.refresh = refresh;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::BadConfig`] when the configuration cannot
    /// describe real hardware (no buffers, zero clock, or an atom that
    /// holds no whole words) or the model (an atom other than `Na` = 8
    /// words, or a bank past 2³² words).
    pub fn validate(&self) -> Result<(), PimError> {
        if self.n_bufs == 0 {
            return Err(PimError::BadConfig {
                reason: "at least the primary atom buffer (GSA) must exist".into(),
            });
        }
        if self.cu_clock_mhz == 0 {
            return Err(PimError::BadConfig {
                reason: "CU clock must be positive".into(),
            });
        }
        if self.geometry.atom_bytes * 8 % self.geometry.word_bits != 0 {
            return Err(PimError::BadConfig {
                reason: "atom size must be a whole number of words".into(),
            });
        }
        if !self.na().is_power_of_two() || !self.row_words().is_power_of_two() {
            return Err(PimError::BadConfig {
                reason: "atom and row word counts must be powers of two".into(),
            });
        }
        if self.na() != crate::cu::NA {
            return Err(PimError::BadConfig {
                reason: format!(
                    "atoms of {} words are not supported; the datapath is {} lanes wide",
                    self.na(),
                    crate::cu::NA
                ),
            });
        }
        let bank_words = (self.geometry.rows_per_bank as u64).checked_mul(self.row_words() as u64);
        if bank_words.is_none_or(|words| words > 1 << 32) {
            return Err(PimError::BadConfig {
                reason: "a bank holds at most 2^32 words".into(),
            });
        }
        if self.n_bufs > 256 {
            return Err(PimError::BadConfig {
                reason: "buffer ids are 8-bit; at most 256 buffers".into(),
            });
        }
        if !self.topology.is_valid() {
            return Err(PimError::BadConfig {
                reason: format!(
                    "topology {} needs at least one channel, rank, and bank",
                    self.topology
                ),
            });
        }
        // Checked: three 32-bit levels can wrap a 64-bit product (to 0
        // at 2^22 x 2^21 x 2^21), and callers size vectors by it.
        let t = self.topology;
        let banks = (t.channels as usize)
            .checked_mul(t.ranks as usize)
            .and_then(|banks| banks.checked_mul(t.banks as usize));
        if banks.is_none_or(|banks| banks > 4096) {
            return Err(PimError::BadConfig {
                reason: format!("topology {t} has more than 4096 banks, the model's cap"),
            });
        }
        Ok(())
    }

    /// Words per atom (`Na`, 8 in the paper).
    pub fn na(&self) -> usize {
        self.geometry.atom_words()
    }

    /// `log2(Na)` — the number of intra-atom stages.
    pub fn log_na(&self) -> u32 {
        self.na().trailing_zeros()
    }

    /// Words per row (`R`, 256 in the paper).
    pub fn row_words(&self) -> usize {
        self.geometry.row_words()
    }

    /// `log2(R)` — the stage index where the inter-row regime begins.
    pub fn log_row(&self) -> u32 {
        self.row_words().trailing_zeros()
    }

    /// Base word for the second operand of a length-`n` polynomial
    /// product when the first sits at word 0: the next row-aligned
    /// region (multi-atom layouts must start on a row boundary, and the
    /// operands must not overlap). The single source of this placement
    /// rule for every polymul caller.
    pub fn polymul_rhs_base(&self, n: usize) -> usize {
        n.max(self.row_words())
    }

    /// Picoseconds per CU-clock cycle.
    pub fn cu_cycle_ps(&self) -> u64 {
        dram_sim::timing::ps_per_cycle(self.cu_clock_mhz)
    }

    /// C1 latency in picoseconds (scales with the CU clock).
    pub fn c1_ps(&self) -> u64 {
        self.cu.c1_cycles as u64 * self.cu_cycle_ps()
    }

    /// C2 latency in picoseconds.
    pub fn c2_ps(&self) -> u64 {
        self.cu.c2_cycles as u64 * self.cu_cycle_ps()
    }

    /// Element-wise command latency in picoseconds.
    pub fn elementwise_ps(&self) -> u64 {
        self.cu.elementwise_cycles as u64 * self.cu_cycle_ps()
    }

    /// Scalar register-move latency in picoseconds.
    pub fn reg_move_ps(&self) -> u64 {
        self.cu.reg_move_cycles as u64 * self.cu_cycle_ps()
    }

    /// Scalar butterfly latency in picoseconds.
    pub fn reg_bu_ps(&self) -> u64 {
        self.cu.reg_bu_cycles as u64 * self.cu_cycle_ps()
    }
}

impl Default for PimConfig {
    /// The paper's headline configuration: `Nb = 2` at 1200 MHz.
    fn default() -> Self {
        Self::hbm2e(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_parameters() {
        let c = PimConfig::hbm2e(2);
        c.validate().unwrap();
        assert_eq!(c.na(), 8);
        assert_eq!(c.log_na(), 3);
        assert_eq!(c.row_words(), 256);
        assert_eq!(c.log_row(), 8);
        assert_eq!(c.cu.c1_cycles, 15);
        assert_eq!(c.cu.c2_cycles, 10);
    }

    #[test]
    fn cu_latency_scales_with_clock() {
        let fast = PimConfig::hbm2e(2);
        let slow = PimConfig::hbm2e(2).with_cu_clock_mhz(300);
        let ratio = slow.c2_ps() as f64 / fast.c2_ps() as f64;
        assert!((ratio - 4.0).abs() < 0.01, "4x slower clock, got {ratio}");
        // DRAM timing unchanged.
        assert_eq!(fast.timing.resolve(), slow.timing.resolve());
    }

    #[test]
    fn topology_defaults_to_single_rank_and_scales() {
        let c = PimConfig::hbm2e(2);
        assert_eq!(c.topology, Topology::single_rank(1));
        assert_eq!(c.total_banks(), 1);
        // with_banks keeps the legacy meaning: banks per (single) rank.
        let c16 = c.with_banks(16);
        assert_eq!(c16.topology, Topology::single_rank(16));
        assert_eq!(c16.total_banks(), 16);
        c16.validate().unwrap();
        // Full sharding: 2 channels × 2 ranks × 4 banks.
        let sharded = c.with_topology(Topology::new(2, 2, 4));
        assert_eq!(sharded.total_banks(), 16);
        sharded.validate().unwrap();
        // with_banks after with_topology changes only banks per rank.
        let reordered = c.with_topology(Topology::new(2, 2, 1)).with_banks(4);
        assert_eq!(reordered.topology, Topology::new(2, 2, 4));
        reordered.validate().unwrap();
    }

    #[test]
    fn rejects_inconsistent_or_degenerate_topologies() {
        // Zero banks per rank is an empty level of the topology.
        assert!(PimConfig::hbm2e(2).with_banks(0).validate().is_err());
        let zero = PimConfig::hbm2e(2).with_topology(Topology::new(0, 1, 1));
        assert!(zero.validate().is_err());
        let huge = PimConfig::hbm2e(2).with_topology(Topology::new(64, 64, 64));
        assert!(huge.validate().is_err());
    }

    #[test]
    fn rejects_topologies_whose_bank_count_overflows() {
        // 2^22 x 2^21 x 2^21 = 2^64 banks: the product wraps to 0.
        let wrapped = Topology::new(1 << 22, 1 << 21, 1 << 21);
        let err = PimConfig::hbm2e(2)
            .with_topology(wrapped)
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("4096"), "{err}");
        // 968973220 x 49477 x 384773 = 2^64 + 4 wraps to 4 banks, a
        // count inside the cap: refused by its real size all the same.
        let small = Topology::new(968_973_220, 49_477, 384_773);
        assert!(PimConfig::hbm2e(2).with_topology(small).validate().is_err());
        // The cap itself is allowed.
        let cap = Topology::new(4, 4, 256);
        PimConfig::hbm2e(2).with_topology(cap).validate().unwrap();
    }

    #[test]
    fn rejects_broken_configs() {
        assert!(PimConfig::hbm2e(0).validate().is_err());
        assert!(PimConfig::hbm2e(2).with_cu_clock_mhz(0).validate().is_err());
        let mut c = PimConfig::hbm2e(2);
        c.geometry.word_bits = 33;
        assert!(c.validate().is_err());
        let mut c = PimConfig::hbm2e(2);
        c.n_bufs = 1000;
        assert!(c.validate().is_err());
        let mut c = PimConfig::hbm2e(2);
        c.geometry.atom_bytes = 16;
        assert!(c.validate().is_err());
        let mut c = PimConfig::hbm2e(2);
        c.geometry.rows_per_bank = u32::MAX;
        assert!(c.validate().is_err());
    }
}
