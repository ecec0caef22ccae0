//! Cycle-level DRAM bank simulator — the DRAMsim3 substitute of the
//! NTT-PIM reproduction.
//!
//! The paper evaluates NTT-PIM with "an in-house PIM simulator, which
//! consists of a front-end driver and DRAMsim3 working in tandem"
//! (§VI.A). This crate is the DRAMsim3 side of that pair: a deterministic,
//! command-accurate model of a DRAM bank with
//!
//! * the timing constraints of the paper's Table I (CL, tCCD, tRP, tRAS,
//!   tRCD, tWR at 1200 MHz HBM2E) as a per-bank state machine
//!   ([`bank::BankTimer`]),
//! * functional storage ([`storage::BankStorage`]) so command streams can
//!   be executed for *values*, not just times,
//! * the shared command bus ([`chip::FairBus`]) behind bank-level
//!   parallelism: one command per slot (memory cycle) per channel,
//!   backfilled across banks while each bank issues in order,
//! * the per-rank activation window ([`rank::RankTimer`]: tRRD, tFAW),
//! * the device shape ([`channel::Topology`]: channels × ranks × banks)
//!   for device-level scaling studies beyond the paper's single chip, and
//! * per-command energy accounting ([`energy`]).
//!
//! These are primitives with two users. The PIM scheduler
//! (`ntt_pim_core::sched`) claims one [`chip::FairBus`] per channel and
//! keeps its own bank and rank timing, as per-bank fronts and a per-rank
//! window. The validator [`validate::validate_queues`] replays finished
//! schedules through one [`bank::BankTimer`] per bank and one
//! [`rank::RankTimer`] per rank, so the scheduler and its checker share
//! no timing rule.
//!
//! A glossary of every modeled DRAM timing constraint, with the
//! simulator's HBM2E defaults, lives in the [`timing`] module docs.
//!
//! Times are modeled in integer **picoseconds** so that mixed clock domains
//! (DRAM latency fixed in nanoseconds, compute-unit latency scaling with
//! clock frequency — the paper's Fig. 8 experiment) compose exactly.
//!
//! Traces serialize to a textual format ([`trace`]) for inspection and
//! replay, mirroring the paper's trace-driven methodology (its Fig. 1).
//!
//! The protocol validator, [`validate::validate_queues`], replays
//! finished schedules against fresh state machines on a whole topology
//! (bus slots per channel, tRRD/tFAW per rank, bank timing and refresh,
//! per-bank program order, DAG barriers); a single bank's trace is its
//! `1 × 1 × 1` case. The PIM scheduler's tests use it so that the
//! component that *builds* schedules is never the component that
//! *checks* them.
//!
//! # Example
//!
//! ```
//! use dram_sim::timing::TimingParams;
//! use dram_sim::bank::{BankCommand, BankTimer};
//!
//! # fn main() -> Result<(), dram_sim::TimingError> {
//! let t = TimingParams::hbm2e();
//! let mut bank = BankTimer::new(t.resolve());
//! let t0 = bank.earliest_issue(BankCommand::Act { row: 7 }, 0)?;
//! bank.issue_at(BankCommand::Act { row: 7 }, t0)?;
//! // A column read must wait tRCD after the activation.
//! let t1 = bank.earliest_issue(BankCommand::Rd { col: 0 }, t0)?;
//! assert_eq!(t1 - t0, t.resolve().t_rcd);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod bank;
pub mod channel;
pub mod chip;
pub mod energy;
pub mod rank;
pub mod storage;
pub mod timing;
pub mod trace;
pub mod validate;

mod error;

pub use error::TimingError;
