//! Independent schedule validation.
//!
//! The PIM scheduler in `ntt-pim-core` *constructs* command timelines with
//! its own bank fronts, rank windows and [`crate::chip::FairBus`]es; this
//! module *checks* finished timelines by replaying them through fresh
//! [`BankTimer`]s and [`RankTimer`]s and a fresh bus-occupancy map, none
//! of which the scheduler uses. Scheduler tests use it so the checker
//! shares no timing rule (and no bugs) with the producer, per the
//! verification strategy in `docs/ARCHITECTURE.md`.
//!
//! [`validate_queues`] is the one entry point. It checks a whole
//! multi-bank queue schedule on a [`Topology`] — every bus claim (DRAM
//! commands, compute-unit commands and each beat of a parameter
//! broadcast), each bank's program order and the DAG barriers between
//! queued programs. A single bank's DRAM trace is the `1 × 1 × 1` case:
//! one bank, one program, one claim per command.

use crate::bank::{BankCommand, BankTimer};
use crate::channel::Topology;
use crate::rank::RankTimer;
use crate::timing::{Geometry, ResolvedTiming};
use crate::TimingError;
use std::collections::HashMap;
use std::fmt;

/// The row or column of `cmd` that falls outside `geometry`, if any.
fn address_error(geometry: Geometry, cmd: BankCommand) -> Option<TimingError> {
    match cmd {
        BankCommand::Act { row } if row >= geometry.rows_per_bank => {
            Some(TimingError::AddressOutOfRange {
                what: "row",
                value: row as u64,
                limit: geometry.rows_per_bank as u64,
            })
        }
        BankCommand::Rd { col } | BankCommand::Wr { col } if col >= geometry.cols_per_row => {
            Some(TimingError::AddressOutOfRange {
                what: "column",
                value: col as u64,
                limit: geometry.cols_per_row as u64,
            })
        }
        _ => None,
    }
}

/// One command-bus slot a bank claimed in a multi-bank queue schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusClaim {
    /// Slot time in picoseconds.
    pub at_ps: u64,
    /// Position, in its bank's queue, of the program that claimed it.
    pub job: usize,
    /// The DRAM command the slot carries; `None` when the claim only
    /// occupies the bus (a compute-unit command, or one beat of a
    /// parameter broadcast).
    pub cmd: Option<BankCommand>,
}

/// One queued program: its barrier tags and its reported completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedJob {
    /// Barrier the program waits for: none of its claims may come before
    /// the barrier completes.
    pub waits_on: Option<usize>,
    /// Barrier the program counts toward.
    pub signals: Option<usize>,
    /// When the program finished, in picoseconds.
    pub end_ps: u64,
}

/// One bank's part of a multi-bank queue schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankSchedule {
    /// Every bus claim the bank made, in issue order.
    pub claims: Vec<BusClaim>,
    /// The bank's programs, in queue order.
    pub jobs: Vec<QueuedJob>,
}

/// The first violation [`validate_queues`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueViolation {
    /// Global bank id of the offending claim.
    pub bank: usize,
    /// Index of the offending claim in that bank's `claims`.
    pub claim: usize,
    /// What the claim violates.
    pub cause: TimingError,
}

impl fmt::Display for QueueViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bank {}, claim {}: {}",
            self.bank, self.claim, self.cause
        )
    }
}

/// Replays a multi-bank queue schedule on `topology` and returns the
/// first violation.
///
/// `banks[b]` is global bank `b` (channel-major, then rank, then bank).
/// The checks, in order:
///
/// 1. per bank, in issue order: claims are slot-aligned and strictly
///    later than the bank's previous claim, never for an earlier queued
///    program (in-order issue); no claim of a program that waits on a
///    barrier comes before that barrier completes, i.e. before the
///    latest `end_ps` of the programs signaling it (a barrier nobody
///    signals completes at 0); rows and columns are within `geometry`;
///    the DRAM commands obey bank timing and refresh rules
///    ([`BankTimer`]: a refresh needs the bank precharged and blocks it
///    for tRFC);
/// 2. per channel: at most one claim per bus slot, over all its banks;
/// 3. per rank: the banks' activations, in time order, keep tRRD and
///    tFAW ([`RankTimer`]).
///
/// Bank ids are decoded here rather than through [`Topology::location`],
/// so an addressing bug in the scheduler's routing cannot hide itself.
///
/// # Errors
///
/// The first [`QueueViolation`]; a schedule with more banks than the
/// topology reports its first extra bank as out of range.
pub fn validate_queues(
    timing: ResolvedTiming,
    geometry: Geometry,
    topology: Topology,
    banks: &[BankSchedule],
) -> Result<(), QueueViolation> {
    let fail = |bank, claim, cause| Err(QueueViolation { bank, claim, cause });
    let per_rank = topology.banks as usize;
    let per_channel = per_rank * topology.ranks as usize;
    let total = per_channel * topology.channels as usize;
    if banks.len() > total {
        let limit = total as u64;
        return fail(
            total,
            0,
            TimingError::AddressOutOfRange {
                what: "bank",
                value: limit,
                limit,
            },
        );
    }
    let mut barrier_ps: HashMap<usize, u64> = HashMap::new();
    for job in banks.iter().flat_map(|b| &b.jobs) {
        if let Some(k) = job.signals {
            let done = barrier_ps.entry(k).or_insert(0);
            *done = (*done).max(job.end_ps);
        }
    }
    // (slot, bank, claim) of every bus claim per channel and of every
    // activation per rank, for passes 2 and 3.
    let mut channel_claims = vec![Vec::new(); topology.channels as usize];
    let mut rank_acts = vec![Vec::new(); topology.channels as usize * topology.ranks as usize];
    for (b, bank) in banks.iter().enumerate() {
        let mut timer = BankTimer::new(timing);
        let mut previous: Option<&BusClaim> = None;
        for (i, claim) in bank.claims.iter().enumerate() {
            let at_ps = claim.at_ps;
            if at_ps % timing.cycle_ps != 0 {
                return fail(b, i, TimingError::BusConflict { at_ps });
            }
            if let Some(p) = previous.filter(|p| at_ps <= p.at_ps || claim.job < p.job) {
                let previous_ps = p.at_ps;
                return fail(b, i, TimingError::OutOfOrder { at_ps, previous_ps });
            }
            previous = Some(claim);
            let Some(job) = bank.jobs.get(claim.job) else {
                return fail(
                    b,
                    i,
                    TimingError::AddressOutOfRange {
                        what: "job",
                        value: claim.job as u64,
                        limit: bank.jobs.len() as u64,
                    },
                );
            };
            if let Some(barrier) = job.waits_on {
                let barrier_ps = barrier_ps.get(&barrier).copied().unwrap_or(0);
                if at_ps < barrier_ps {
                    return fail(
                        b,
                        i,
                        TimingError::BeforeBarrier {
                            at_ps,
                            barrier,
                            barrier_ps,
                        },
                    );
                }
            }
            channel_claims[b / per_channel].push((at_ps, b, i));
            let Some(cmd) = claim.cmd else { continue };
            if let Some(err) = address_error(geometry, cmd) {
                return fail(b, i, err);
            }
            if let Err(err) = timer.issue_at(cmd, at_ps) {
                return fail(b, i, err);
            }
            if let BankCommand::Act { .. } = cmd {
                rank_acts[b / per_rank].push((at_ps, b, i));
            }
        }
    }
    for claims in &mut channel_claims {
        claims.sort_unstable();
        if let Some(w) = claims.windows(2).find(|w| w[0].0 == w[1].0) {
            let (at_ps, b, i) = w[1];
            return fail(b, i, TimingError::BusConflict { at_ps });
        }
    }
    for acts in &mut rank_acts {
        acts.sort_unstable();
        let mut rank = RankTimer::new(&timing);
        for &(at_ps, b, i) in acts.iter() {
            if !rank.is_legal(at_ps) {
                return fail(
                    b,
                    i,
                    TimingError::TooEarly {
                        cmd: "ACT (rank tRRD/tFAW)",
                        at_ps,
                        earliest_ps: rank.earliest_act(0),
                    },
                );
            }
            rank.record_act(at_ps);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;

    const C: u64 = 833;

    fn setup() -> (ResolvedTiming, Geometry) {
        (
            TimingParams::hbm2e().resolve(),
            Geometry::hbm2e_single_bank(),
        )
    }

    fn claim(at_cycles: u64, job: usize, cmd: Option<BankCommand>) -> BusClaim {
        BusClaim {
            at_ps: at_cycles * C,
            job,
            cmd,
        }
    }

    /// A bank running one untagged program: ACT, a compute command, RD.
    fn one_program(start: u64) -> BankSchedule {
        BankSchedule {
            claims: vec![
                claim(start, 0, Some(BankCommand::Act { row: 0 })),
                claim(start + 1, 0, None),
                claim(start + 14, 0, Some(BankCommand::Rd { col: 0 })),
            ],
            jobs: vec![QueuedJob {
                waits_on: None,
                signals: None,
                end_ps: (start + 28) * C,
            }],
        }
    }

    fn check(topology: Topology, banks: &[BankSchedule]) -> Result<(), QueueViolation> {
        let (t, g) = setup();
        validate_queues(t, g, topology, banks)
    }

    /// One bank running one program of DRAM commands only, given as
    /// `(cycle, command)` pairs in issue order.
    fn dram_trace(cmds: &[(u64, BankCommand)]) -> BankSchedule {
        let last = cmds.last().map_or(0, |&(cycle, _)| cycle);
        BankSchedule {
            claims: cmds
                .iter()
                .map(|&(cycle, cmd)| claim(cycle, 0, Some(cmd)))
                .collect(),
            jobs: vec![QueuedJob {
                waits_on: None,
                signals: None,
                end_ps: (last + 1) * C,
            }],
        }
    }

    #[test]
    fn accepts_legal_trace() {
        let bank = dram_trace(&[
            (0, BankCommand::Act { row: 3 }),
            (14, BankCommand::Rd { col: 0 }),
            (16, BankCommand::Rd { col: 1 }),
            (18, BankCommand::Wr { col: 0 }),
            (64, BankCommand::Pre),
            (78, BankCommand::Act { row: 4 }),
        ]);
        check(Topology::single_rank(1), &[bank]).expect("legal trace");
    }

    #[test]
    fn rejects_trcd_violation() {
        let bank = dram_trace(&[
            (0, BankCommand::Act { row: 3 }),
            (13, BankCommand::Rd { col: 0 }),
        ]);
        let err = check(Topology::single_rank(1), &[bank]).unwrap_err();
        assert_eq!(err.claim, 1);
        assert!(matches!(err.cause, TimingError::TooEarly { cmd: "RD", .. }));
    }

    #[test]
    fn rejects_bus_double_booking() {
        let act = [(0, BankCommand::Act { row: 0 })];
        let banks = [dram_trace(&act), dram_trace(&act)];
        let err = check(Topology::single_rank(2), &banks).unwrap_err();
        assert_eq!((err.bank, err.claim), (1, 0));
        assert_eq!(err.cause, TimingError::BusConflict { at_ps: 0 });
    }

    #[test]
    fn rejects_unaligned_issue() {
        // A claim off the bus-cycle grid, before any bank rule applies.
        let mut bank = dram_trace(&[(0, BankCommand::Act { row: 0 })]);
        bank.claims[0].at_ps = 5;
        let err = check(Topology::single_rank(1), &[bank]).unwrap_err();
        assert_eq!((err.bank, err.claim), (0, 0));
        assert_eq!(err.cause, TimingError::BusConflict { at_ps: 5 });
    }

    #[test]
    fn rejects_bad_addresses() {
        // An ACT row past the geometry's 32768 rows.
        let bank = dram_trace(&[(0, BankCommand::Act { row: 1 << 20 })]);
        let err = check(Topology::single_rank(1), &[bank]).unwrap_err();
        assert_eq!(
            err.cause,
            TimingError::AddressOutOfRange {
                what: "row",
                value: 1 << 20,
                limit: 32_768
            }
        );
    }

    #[test]
    fn rejects_read_without_activate() {
        // An RD to a closed row.
        let bank = dram_trace(&[(0, BankCommand::Rd { col: 0 })]);
        let err = check(Topology::single_rank(1), &[bank]).unwrap_err();
        assert!(matches!(err.cause, TimingError::RowNotOpen { .. }), "{err}");
    }

    #[test]
    fn queues_share_a_bus_only_within_a_channel() {
        // Two banks of one rank, ACTs tRRD apart: legal.
        let banks = [one_program(0), one_program(5)];
        check(Topology::single_rank(2), &banks).expect("legal schedule");
        // Same slots on two channels: legal; on one channel: a conflict.
        let twins = [one_program(0), one_program(0)];
        check(Topology::new(2, 1, 1), &twins).expect("separate buses");
        let err = check(Topology::new(1, 2, 1), &twins).unwrap_err();
        assert!(
            matches!(err.cause, TimingError::BusConflict { .. }),
            "{err}"
        );
        assert_eq!((err.bank, err.claim), (1, 0));
    }

    #[test]
    fn queues_keep_trrd_per_rank() {
        // ACTs one cycle apart: legal across ranks, too early in a rank.
        let banks = [one_program(0), one_program(2)];
        check(Topology::new(1, 2, 1), &banks).expect("independent ranks");
        let err = check(Topology::single_rank(2), &banks).unwrap_err();
        assert!(
            matches!(err.cause, TimingError::TooEarly { cmd, .. } if cmd.starts_with("ACT")),
            "{err}"
        );
    }

    #[test]
    fn queues_keep_tfaw_per_rank() {
        // At Table I's values tFAW is four tRRD, so only a wider window
        // binds: with 30 cycles, a fifth ACT at the tRRD pace (cycle 20)
        // comes before the first ACT leaves the window.
        let t = TimingParams {
            t_faw: 30,
            ..TimingParams::hbm2e()
        };
        let check = |fifth: u64| {
            let banks: Vec<BankSchedule> = [0, 5, 10, 15, fifth].map(one_program).into();
            validate_queues(
                t.resolve(),
                Geometry::hbm2e_single_bank(),
                Topology::single_rank(5),
                &banks,
            )
        };
        check(30).expect("the fifth ACT after the window");
        let err = check(20).unwrap_err();
        assert!(
            matches!(err.cause, TimingError::TooEarly { cmd, .. } if cmd.starts_with("ACT")),
            "{err}"
        );
        assert_eq!((err.bank, err.claim), (4, 0));
    }

    #[test]
    fn queues_issue_in_program_order() {
        let mut bank = one_program(0);
        bank.claims.swap(1, 2);
        bank.claims[1].at_ps = 20 * C;
        let err = check(Topology::single_rank(1), &[bank]).unwrap_err();
        assert_eq!(
            err.cause,
            TimingError::OutOfOrder {
                at_ps: C,
                previous_ps: 20 * C
            }
        );
        assert_eq!(err.claim, 2);
    }

    #[test]
    fn queues_hold_gated_programs_until_the_barrier() {
        // Bank 0 signals barrier 3, finishing at 28 cycles; bank 1 waits.
        let mut first = one_program(0);
        first.jobs[0].signals = Some(3);
        let mut gated = one_program(28);
        gated.jobs[0].waits_on = Some(3);
        check(Topology::single_rank(2), &[first.clone(), gated]).expect("gate honoured");
        let mut early = one_program(27);
        early.jobs[0].waits_on = Some(3);
        let err = check(Topology::single_rank(2), &[first, early]).unwrap_err();
        assert_eq!(
            err.cause,
            TimingError::BeforeBarrier {
                at_ps: 27 * C,
                barrier: 3,
                barrier_ps: 28 * C
            }
        );
        // A barrier nobody signals never gates.
        let mut free = one_program(0);
        free.jobs[0].waits_on = Some(7);
        check(Topology::single_rank(1), &[free]).expect("unsignaled barrier");
    }

    #[test]
    fn queues_replay_bank_timing_and_reject_excess_banks() {
        let mut bank = one_program(0);
        bank.claims[2].at_ps = 13 * C; // tRCD is 14 cycles
        let err = check(Topology::single_rank(1), &[bank]).unwrap_err();
        assert!(matches!(err.cause, TimingError::TooEarly { cmd: "RD", .. }));
        let mut bank = one_program(0);
        bank.claims[1].job = 1; // no second program
        let err = check(Topology::single_rank(1), &[bank]).unwrap_err();
        assert!(matches!(
            err.cause,
            TimingError::AddressOutOfRange { what: "job", .. }
        ));
        let err = check(Topology::single_rank(1), &[one_program(0), one_program(5)]).unwrap_err();
        assert!(matches!(
            err.cause,
            TimingError::AddressOutOfRange { what: "bank", .. }
        ));
    }
}
