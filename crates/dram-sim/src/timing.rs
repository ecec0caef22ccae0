//! DRAM timing and geometry parameters (the paper's Table I).
//!
//! # DRAM timing glossary
//!
//! Every constraint the simulator enforces, its meaning, the level of the
//! hierarchy it applies to, and the default value ([`TimingParams::hbm2e`],
//! memory clock 1200 MHz → 833 ps/cycle):
//!
//! | Parameter | Meaning | Scope | Default (cycles) | Default (ns) |
//! |---|---|---|---|---|
//! | `CL` | Column command → data valid at the sense amps / I/O | bank | 14 | 11.7 |
//! | `tCCD` | Column command → next column command | bank | 2 | 1.7 |
//! | `tRP` | Precharge → next activate (row close time) | bank | 14 | 11.7 |
//! | `tRAS` | Activate → earliest precharge (row restore time) | bank | 34 | 28.3 |
//! | `tRCD` | Activate → first column command (row open time) | bank | 14 | 11.7 |
//! | `tRC` | Activate → next activate, same bank (`tRAS + tRP`) | bank | 48 | 40.0 |
//! | `tWR` | End of write data → precharge (write recovery) | bank | 16 | 13.3 |
//! | `tRRD` | Activate → activate across banks of one **rank** | rank | 5 | 4.2 |
//! | `tFAW` | Rolling window holding at most four ACTs per **rank** | rank | 20 | 16.7 |
//! | `tREFI` | Average interval between refresh commands | bank | 4680 | 3900 |
//! | `tRFC` | Refresh cycle time (bank unusable during refresh) | bank | 312 | 260 |
//!
//! Bank-scope constraints live in [`crate::bank::BankTimer`]; rank-scope
//! ones in [`crate::rank::RankTimer`]. The command bus adds one more
//! implicit constraint — one command per memory cycle per **channel** —
//! modeled by [`crate::chip::FairBus`], of which a
//! [`crate::channel::Topology`]-shaped device gets one per channel.
//! Banks issue in order: each bank's commands take strictly increasing
//! bus slots, and only another bank's command can fill a gap a bank
//! leaves. [`crate::validate::validate_queues`] replays a schedule
//! through the two timers and checks all three scopes plus that order.
//! The PIM scheduler (`ntt_pim_core::sched`) claims the buses but keeps
//! its own bank fronts and rank windows from this table, so the
//! validator checks it with rules it does not share.

/// Raw timing parameters in memory-clock cycles, plus the clock they are
/// specified at. This mirrors the paper's Table I exactly.
///
/// # Example
///
/// ```
/// let t = dram_sim::timing::TimingParams::hbm2e();
/// assert_eq!(t.cl, 14);
/// assert_eq!(t.clock_mhz, 1200);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimingParams {
    /// Memory clock in MHz the cycle counts below refer to.
    pub clock_mhz: u32,
    /// CAS latency (column command to data) in cycles.
    pub cl: u32,
    /// Column-to-column command spacing in cycles.
    pub t_ccd: u32,
    /// Precharge period in cycles (precharge → activate).
    pub t_rp: u32,
    /// Row active minimum time in cycles (activate → precharge).
    pub t_ras: u32,
    /// Row-to-column delay in cycles (activate → first column command).
    pub t_rcd: u32,
    /// Write recovery in cycles (end of write data → precharge).
    pub t_wr: u32,
    /// Average refresh interval in cycles (tREFI; one REF command must be
    /// issued per interval to keep cells alive).
    pub t_refi: u32,
    /// Refresh cycle time in cycles (tRFC; the bank is unusable while a
    /// refresh is in flight).
    pub t_rfc: u32,
    /// Activate-to-activate spacing across banks of one rank (tRRD).
    pub t_rrd: u32,
    /// Four-activate window (tFAW): at most 4 ACTs per rank per window.
    pub t_faw: u32,
}

impl TimingParams {
    /// The paper's Table I: HBM2E-class parameters at 1200 MHz.
    pub fn hbm2e() -> Self {
        Self {
            clock_mhz: 1200,
            cl: 14,
            t_ccd: 2,
            t_rp: 14,
            t_ras: 34,
            t_rcd: 14,
            t_wr: 16,
            // HBM2E-class refresh: tREFI = 3.9 µs, tRFC = 260 ns.
            t_refi: 4680,
            t_rfc: 312,
            // Rank-level activation limits (HBM2-class): ~4 ns / ~16 ns.
            t_rrd: 5,
            t_faw: 20,
        }
    }

    /// Picoseconds per memory-clock cycle (rounded to the nearest ps).
    pub fn cycle_ps(&self) -> u64 {
        ps_per_cycle(self.clock_mhz)
    }

    /// Converts the cycle counts into absolute picosecond durations.
    ///
    /// DRAM core timing is an analog property of the array: it stays fixed
    /// in *nanoseconds* when the interface clock changes (this is how the
    /// paper's Fig. 8 frequency sweep keeps "the absolute latency of DRAM
    /// memory access time (in ns) constant").
    pub fn resolve(&self) -> ResolvedTiming {
        let c = self.cycle_ps();
        ResolvedTiming {
            cycle_ps: c,
            cl: self.cl as u64 * c,
            t_ccd: self.t_ccd as u64 * c,
            t_rp: self.t_rp as u64 * c,
            t_ras: self.t_ras as u64 * c,
            t_rcd: self.t_rcd as u64 * c,
            t_wr: self.t_wr as u64 * c,
            t_refi: self.t_refi as u64 * c,
            t_rfc: self.t_rfc as u64 * c,
            t_rrd: self.t_rrd as u64 * c,
            t_faw: self.t_faw as u64 * c,
        }
    }
}

impl Default for TimingParams {
    fn default() -> Self {
        Self::hbm2e()
    }
}

/// Picoseconds per cycle at `mhz` (rounded).
pub fn ps_per_cycle(mhz: u32) -> u64 {
    assert!(mhz > 0, "clock must be positive");
    // 1e6 ps per microsecond / mhz cycles per microsecond.
    (1_000_000 + mhz as u64 / 2) / mhz as u64
}

/// Timing parameters resolved to picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResolvedTiming {
    /// Command-bus slot width (one command per cycle) in ps.
    pub cycle_ps: u64,
    /// CAS latency in ps.
    pub cl: u64,
    /// Column-to-column spacing in ps.
    pub t_ccd: u64,
    /// Precharge period in ps.
    pub t_rp: u64,
    /// Row active minimum in ps.
    pub t_ras: u64,
    /// Row-to-column delay in ps.
    pub t_rcd: u64,
    /// Write recovery in ps.
    pub t_wr: u64,
    /// Average refresh interval in ps.
    pub t_refi: u64,
    /// Refresh cycle time in ps.
    pub t_rfc: u64,
    /// Cross-bank activate spacing in ps.
    pub t_rrd: u64,
    /// Four-activate window in ps.
    pub t_faw: u64,
}

impl ResolvedTiming {
    /// Row cycle time tRC = tRAS + tRP in ps.
    pub fn t_rc(&self) -> u64 {
        self.t_ras + self.t_rp
    }
}

/// Geometry of one bank (the paper's Table I: 32 B atoms; 32 columns per
/// 1 KB row; 32768 rows). How many banks a device has is its
/// [`crate::channel::Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Rows per bank.
    pub rows_per_bank: u32,
    /// DRAM atoms (columns) per row.
    pub cols_per_row: u32,
    /// Bytes per DRAM atom (the HBM access granule).
    pub atom_bytes: u32,
    /// Bits per data word stored in the array (the paper uses 32-bit
    /// coefficients).
    pub word_bits: u32,
}

impl Geometry {
    /// The paper's Table I bank geometry.
    pub fn hbm2e_single_bank() -> Self {
        Self {
            rows_per_bank: 32_768,
            cols_per_row: 32,
            atom_bytes: 32,
            word_bits: 32,
        }
    }

    /// Words per atom (`Na` in the paper; 8 for 32 B atoms of 32-bit words).
    pub fn atom_words(&self) -> usize {
        (self.atom_bytes * 8 / self.word_bits) as usize
    }

    /// Words per row (`R` in the paper; 256 here).
    pub fn row_words(&self) -> usize {
        self.atom_words() * self.cols_per_row as usize
    }

    /// Total words in one bank.
    pub fn bank_words(&self) -> usize {
        self.row_words() * self.rows_per_bank as usize
    }

    /// Splits a linear word index within a bank into `(row, col, offset)`.
    ///
    /// # Panics
    ///
    /// Panics if `word` is outside the bank.
    pub fn word_addr(&self, word: usize) -> (u32, u32, usize) {
        assert!(word < self.bank_words(), "word index {word} out of range");
        let row_words = self.row_words();
        let aw = self.atom_words();
        let row = word / row_words;
        let within = word % row_words;
        (row as u32, (within / aw) as u32, within % aw)
    }
}

impl Default for Geometry {
    fn default() -> Self {
        Self::hbm2e_single_bank()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_i_values() {
        let t = TimingParams::hbm2e();
        assert_eq!(
            (t.cl, t.t_ccd, t.t_rp, t.t_ras, t.t_rcd, t.t_wr),
            (14, 2, 14, 34, 14, 16)
        );
        let g = Geometry::hbm2e_single_bank();
        assert_eq!(g.atom_words(), 8, "Na = 8 (paper §IV.A)");
        assert_eq!(g.row_words(), 256, "R = 256 words = 1 KB row");
        assert_eq!(g.rows_per_bank, 32_768);
    }

    #[test]
    fn cycle_ps_at_known_clocks() {
        assert_eq!(ps_per_cycle(1200), 833);
        assert_eq!(ps_per_cycle(1000), 1000);
        assert_eq!(ps_per_cycle(300), 3333);
    }

    #[test]
    fn resolve_keeps_ns_fixed_across_clock_field() {
        // Resolving uses the *memory* clock only; a copy with a different
        // clock_mhz yields different ps — the Fig. 8 semantics are handled
        // by keeping the memory clock at 1200 MHz and scaling only CU time.
        let base = TimingParams::hbm2e().resolve();
        assert_eq!(base.t_rcd, 14 * 833);
        assert_eq!(base.t_rc(), (34 + 14) * 833);
    }

    #[test]
    fn word_addressing_roundtrip() {
        let g = Geometry::hbm2e_single_bank();
        for word in [0usize, 7, 8, 255, 256, 511, 8191, g.bank_words() - 1] {
            let (row, col, off) = g.word_addr(word);
            let back = row as usize * g.row_words() + col as usize * g.atom_words() + off;
            assert_eq!(back, word);
            assert!(col < g.cols_per_row);
            assert!(off < g.atom_words());
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn word_addressing_rejects_overflow() {
        let g = Geometry::hbm2e_single_bank();
        g.word_addr(g.bank_words());
    }
}
