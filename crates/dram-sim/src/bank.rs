//! Per-bank timing state machine.
//!
//! [`BankTimer`] tracks one bank's row state and the timestamps that DRAM
//! timing constraints reference, answers "when could this command issue?"
//! ([`BankTimer::earliest_issue`]) and enforces legality on issue
//! ([`BankTimer::issue_at`]).
//!
//! It is the validator's bank model: [`crate::validate::validate_queues`]
//! replays every bank of a finished schedule through a fresh one. The
//! PIM scheduler (`ntt_pim_core::sched`) does not use it; it keeps its
//! own per-bank fronts, so a rule wrong on one side shows as a
//! violation on the other.
//!
//! The modeled constraints (all from the paper's Table I):
//!
//! | edge | constraint |
//! |---|---|
//! | PRE → ACT | tRP |
//! | ACT → RD/WR | tRCD |
//! | ACT → PRE | tRAS |
//! | ACT → ACT (same bank) | tRC = tRAS + tRP |
//! | RD/WR → RD/WR | tCCD |
//! | RD → PRE | CL (data must leave the sense amps) |
//! | WR → PRE | CL + tWR (write recovery) |
//!
//! Column commands move whole DRAM atoms (32 B); data for a read is valid
//! CL after issue, which [`BankTimer::data_ready_ps`] reports so callers
//! can chain dependent work.

use crate::timing::ResolvedTiming;
use crate::TimingError;

/// A command addressed to a single bank.
///
/// The PIM extension commands (CU-read/CU-write/C1/C2) are defined by the
/// `ntt-pim-core` crate; at this level a CU-read has the timing shape of
/// `Rd` and a CU-write of `Wr`, which is exactly how the paper describes
/// them ("similar to column read/write … except that data transfer stops
/// at P or S instead of chip I/O").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BankCommand {
    /// Activate (open) a row: copies the row into the sense amplifiers.
    Act {
        /// Row index within the bank.
        row: u32,
    },
    /// Precharge (close) the open row.
    Pre,
    /// Column read of one atom from the open row.
    Rd {
        /// Column (atom) index within the row.
        col: u32,
    },
    /// Column write of one atom into the open row.
    Wr {
        /// Column (atom) index within the row.
        col: u32,
    },
    /// Refresh (all-bank style): requires the bank precharged; blocks the
    /// bank for tRFC.
    Ref,
}

impl BankCommand {
    /// Short human-readable mnemonic.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            BankCommand::Act { .. } => "ACT",
            BankCommand::Pre => "PRE",
            BankCommand::Rd { .. } => "RD",
            BankCommand::Wr { .. } => "WR",
            BankCommand::Ref => "REF",
        }
    }
}

/// Counters of issued commands.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankCounters {
    /// Row activations issued.
    pub acts: u64,
    /// Precharges issued.
    pub pres: u64,
    /// Column reads issued.
    pub reads: u64,
    /// Column writes issued.
    pub writes: u64,
    /// Refreshes issued.
    pub refreshes: u64,
    /// Row-buffer hits: column commands to the already-open row after at
    /// least one prior column command to it.
    pub row_hits: u64,
}

/// Timing state machine for one DRAM bank. Time is in picoseconds.
#[derive(Debug, Clone)]
pub struct BankTimer {
    timing: ResolvedTiming,
    open_row: Option<u32>,
    /// Row already accessed since opening (for hit counting).
    row_touched: bool,
    t_last_act: Option<u64>,
    t_last_pre: Option<u64>,
    t_last_col: Option<u64>,
    t_last_rd: Option<u64>,
    t_last_wr: Option<u64>,
    t_last_ref: Option<u64>,
    counters: BankCounters,
}

impl BankTimer {
    /// Creates an idle bank (all rows closed, no history).
    pub fn new(timing: ResolvedTiming) -> Self {
        Self {
            timing,
            open_row: None,
            row_touched: false,
            t_last_act: None,
            t_last_pre: None,
            t_last_col: None,
            t_last_rd: None,
            t_last_wr: None,
            t_last_ref: None,
            counters: BankCounters::default(),
        }
    }

    /// The resolved timing this bank enforces.
    pub fn timing(&self) -> &ResolvedTiming {
        &self.timing
    }

    /// Currently open row, if any.
    pub fn open_row(&self) -> Option<u32> {
        self.open_row
    }

    /// Issue counters so far.
    pub fn counters(&self) -> BankCounters {
        self.counters
    }

    /// Earliest time `>= now` at which `cmd` may legally issue.
    ///
    /// # Errors
    ///
    /// Returns a state error ([`TimingError::RowNotOpen`] /
    /// [`TimingError::RowAlreadyOpen`]) when no issue time could ever be
    /// legal from the current state.
    pub fn earliest_issue(&self, cmd: BankCommand, now: u64) -> Result<u64, TimingError> {
        let t = &self.timing;
        let mut earliest = now;
        match cmd {
            BankCommand::Act { row } => {
                if let Some(open) = self.open_row {
                    return Err(TimingError::RowAlreadyOpen {
                        open,
                        requested: row,
                    });
                }
                if let Some(tp) = self.t_last_pre {
                    earliest = earliest.max(tp + t.t_rp);
                }
                if let Some(ta) = self.t_last_act {
                    earliest = earliest.max(ta + t.t_rc());
                }
                if let Some(tr) = self.t_last_ref {
                    earliest = earliest.max(tr + t.t_rfc);
                }
            }
            BankCommand::Pre => {
                // Precharging an already-closed bank is legal (idempotent)
                // but still subject to recovery windows.
                if let Some(ta) = self.t_last_act {
                    earliest = earliest.max(ta + t.t_ras);
                }
                if let Some(tr) = self.t_last_rd {
                    earliest = earliest.max(tr + t.cl);
                }
                if let Some(tw) = self.t_last_wr {
                    earliest = earliest.max(tw + t.cl + t.t_wr);
                }
            }
            BankCommand::Ref => {
                if let Some(open) = self.open_row {
                    return Err(TimingError::RowAlreadyOpen {
                        open,
                        requested: u32::MAX,
                    });
                }
                if let Some(tp) = self.t_last_pre {
                    earliest = earliest.max(tp + t.t_rp);
                }
                if let Some(ta) = self.t_last_act {
                    earliest = earliest.max(ta + t.t_rc());
                }
                if let Some(tr) = self.t_last_ref {
                    earliest = earliest.max(tr + t.t_rfc);
                }
            }
            BankCommand::Rd { .. } | BankCommand::Wr { .. } => {
                if self.open_row.is_none() {
                    return Err(TimingError::RowNotOpen {
                        cmd: if matches!(cmd, BankCommand::Rd { .. }) {
                            "RD"
                        } else {
                            "WR"
                        },
                    });
                }
                if let Some(ta) = self.t_last_act {
                    earliest = earliest.max(ta + t.t_rcd);
                }
                if let Some(tc) = self.t_last_col {
                    earliest = earliest.max(tc + t.t_ccd);
                }
            }
        }
        Ok(earliest)
    }

    /// Issues `cmd` at time `at_ps`, updating state and counters.
    ///
    /// # Errors
    ///
    /// Returns [`TimingError::TooEarly`] if `at_ps` violates a constraint,
    /// or the state errors of [`Self::earliest_issue`].
    pub fn issue_at(&mut self, cmd: BankCommand, at_ps: u64) -> Result<(), TimingError> {
        let earliest = self.earliest_issue(cmd, 0)?;
        if at_ps < earliest {
            return Err(TimingError::TooEarly {
                cmd: cmd.mnemonic(),
                at_ps,
                earliest_ps: earliest,
            });
        }
        match cmd {
            BankCommand::Act { row } => {
                self.open_row = Some(row);
                self.row_touched = false;
                self.t_last_act = Some(at_ps);
                self.counters.acts += 1;
            }
            BankCommand::Pre => {
                self.open_row = None;
                self.t_last_pre = Some(at_ps);
                self.counters.pres += 1;
            }
            BankCommand::Rd { .. } => {
                self.t_last_col = Some(at_ps);
                self.t_last_rd = Some(at_ps);
                self.counters.reads += 1;
                if self.row_touched {
                    self.counters.row_hits += 1;
                }
                self.row_touched = true;
            }
            BankCommand::Wr { .. } => {
                self.t_last_col = Some(at_ps);
                self.t_last_wr = Some(at_ps);
                self.counters.writes += 1;
                if self.row_touched {
                    self.counters.row_hits += 1;
                }
                self.row_touched = true;
            }
            BankCommand::Ref => {
                self.t_last_ref = Some(at_ps);
                self.counters.refreshes += 1;
            }
        }
        Ok(())
    }

    /// When the data of a read issued at `rd_issue_ps` is available (CL
    /// after the command).
    pub fn data_ready_ps(&self, rd_issue_ps: u64) -> u64 {
        rd_issue_ps + self.timing.cl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;

    fn bank() -> BankTimer {
        BankTimer::new(TimingParams::hbm2e().resolve())
    }

    const C: u64 = 833; // ps per cycle at 1200 MHz

    #[test]
    fn act_then_read_waits_trcd() {
        let mut b = bank();
        b.issue_at(BankCommand::Act { row: 3 }, 0).unwrap();
        let e = b.earliest_issue(BankCommand::Rd { col: 0 }, 0).unwrap();
        assert_eq!(e, 14 * C);
        assert!(b.issue_at(BankCommand::Rd { col: 0 }, e - 1).is_err());
        b.issue_at(BankCommand::Rd { col: 0 }, e).unwrap();
    }

    #[test]
    fn column_commands_spaced_by_tccd() {
        let mut b = bank();
        b.issue_at(BankCommand::Act { row: 0 }, 0).unwrap();
        b.issue_at(BankCommand::Rd { col: 0 }, 14 * C).unwrap();
        let e = b.earliest_issue(BankCommand::Rd { col: 1 }, 0).unwrap();
        assert_eq!(e, 14 * C + 2 * C);
    }

    #[test]
    fn precharge_respects_tras_and_write_recovery() {
        let mut b = bank();
        b.issue_at(BankCommand::Act { row: 0 }, 0).unwrap();
        // tRAS dominates with no column activity.
        assert_eq!(b.earliest_issue(BankCommand::Pre, 0).unwrap(), 34 * C);
        b.issue_at(BankCommand::Wr { col: 5 }, 30 * C).unwrap();
        // Write recovery: WR@30 + CL(14) + tWR(16) = cycle 60.
        assert_eq!(b.earliest_issue(BankCommand::Pre, 0).unwrap(), 60 * C);
    }

    #[test]
    fn act_to_act_respects_trc() {
        let mut b = bank();
        b.issue_at(BankCommand::Act { row: 0 }, 0).unwrap();
        b.issue_at(BankCommand::Pre, 34 * C).unwrap();
        let e = b.earliest_issue(BankCommand::Act { row: 1 }, 0).unwrap();
        // max(PRE + tRP, ACT + tRC) = max(48, 48) = 48 cycles.
        assert_eq!(e, 48 * C);
    }

    #[test]
    fn read_requires_open_row() {
        let b = bank();
        assert!(matches!(
            b.earliest_issue(BankCommand::Rd { col: 0 }, 0),
            Err(TimingError::RowNotOpen { .. })
        ));
    }

    #[test]
    fn double_activate_rejected() {
        let mut b = bank();
        b.issue_at(BankCommand::Act { row: 0 }, 0).unwrap();
        assert!(matches!(
            b.earliest_issue(BankCommand::Act { row: 1 }, 0),
            Err(TimingError::RowAlreadyOpen { open: 0, .. })
        ));
    }

    #[test]
    fn hit_counting_counts_second_touch_onward() {
        let mut b = bank();
        b.issue_at(BankCommand::Act { row: 0 }, 0).unwrap();
        b.issue_at(BankCommand::Rd { col: 0 }, 14 * C).unwrap();
        b.issue_at(BankCommand::Rd { col: 1 }, 16 * C).unwrap();
        b.issue_at(BankCommand::Wr { col: 2 }, 18 * C).unwrap();
        let c = b.counters();
        assert_eq!(c.reads, 2);
        assert_eq!(c.writes, 1);
        assert_eq!(c.row_hits, 2);
    }

    #[test]
    fn data_ready_cl_after_read() {
        let b = bank();
        assert_eq!(b.data_ready_ps(100 * C), 114 * C);
    }

    #[test]
    fn refresh_requires_closed_bank_and_blocks_trfc() {
        let mut b = bank();
        b.issue_at(BankCommand::Act { row: 0 }, 0).unwrap();
        assert!(matches!(
            b.earliest_issue(BankCommand::Ref, 0),
            Err(TimingError::RowAlreadyOpen { .. })
        ));
        b.issue_at(BankCommand::Pre, 34 * C).unwrap();
        let e = b.earliest_issue(BankCommand::Ref, 0).unwrap();
        assert_eq!(e, 48 * C); // after tRP
        b.issue_at(BankCommand::Ref, e).unwrap();
        // Next activate must wait tRFC (312 cycles).
        let a = b.earliest_issue(BankCommand::Act { row: 1 }, 0).unwrap();
        assert_eq!(a, e + 312 * C);
        assert_eq!(b.counters().refreshes, 1);
    }

    #[test]
    fn back_to_back_refreshes_spaced_by_trfc() {
        let mut b = bank();
        b.issue_at(BankCommand::Ref, 0).unwrap();
        let e = b.earliest_issue(BankCommand::Ref, 0).unwrap();
        assert_eq!(e, 312 * C);
    }
}
