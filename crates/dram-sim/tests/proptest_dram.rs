//! Property-based tests of the DRAM model: sequences generated through
//! the timing state machine are always accepted by the independent
//! validator, the earliest-issue function is consistent with issue
//! legality, and the bitset [`FairBus`] grants exactly the slots of a
//! plain ordered-set model. (Value-faithful storage under random access
//! patterns is checked where values move, in `ntt-pim-core`'s
//! `proptest_pim.rs`.)

use dram_sim::bank::{BankCommand, BankTimer};
use dram_sim::channel::Topology;
use dram_sim::chip::FairBus;
use dram_sim::timing::{Geometry, TimingParams};
use dram_sim::validate::{validate_queues, BankSchedule, BusClaim, QueuedJob};
use proptest::prelude::*;

/// A random but *state-aware* command choice: picks among the commands
/// that are legal in the current row state.
fn step_command(open: bool, pick: u8, row: u32, col: u32) -> BankCommand {
    if open {
        match pick % 4 {
            0 => BankCommand::Rd { col },
            1 => BankCommand::Wr { col },
            _ => BankCommand::Pre,
        }
    } else {
        match pick % 4 {
            0 | 1 => BankCommand::Act { row },
            2 => BankCommand::Ref,
            _ => BankCommand::Pre, // no-op precharge is legal
        }
    }
}

/// One bank running one program whose every bus claim is a DRAM command,
/// as `(ps, command)` pairs in issue order, finishing at `end_ps`.
fn one_bank(cmds: &[(u64, BankCommand)], end_ps: u64) -> [BankSchedule; 1] {
    [BankSchedule {
        claims: cmds
            .iter()
            .map(|&(at_ps, cmd)| BusClaim {
                at_ps,
                job: 0,
                cmd: Some(cmd),
            })
            .collect(),
        jobs: vec![QueuedJob {
            waits_on: None,
            signals: None,
            end_ps,
        }],
    }]
}

/// The fair-bus rule written the obvious way: walk the ordered set of
/// taken slots from the requested one to the first gap.
#[derive(Default)]
struct SetBus {
    taken: std::collections::BTreeSet<u64>,
}

impl SetBus {
    fn claim(&mut self, from: u64) -> u64 {
        let mut slot = from;
        while self.taken.contains(&slot) {
            slot += 1;
        }
        self.taken.insert(slot);
        slot
    }
}

/// Slot indices next to the bitset's word (64) and summary-word (4096)
/// edges.
const EDGES: [u64; 4] = [63, 64, 4095, 4096];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The bitset bus and the ordered-set model grant the same slot to
    /// every claim of a random sequence — repeated slots, backfills
    /// behind long saturated runs, jumps far past the horizon, and slots
    /// at the word and summary-word edges — and count the same number of
    /// issued slots.
    #[test]
    fn fair_bus_matches_ordered_set_model(
        ops in prop::collection::vec((0u8..6, any::<u64>()), 1..48),
    ) {
        let mut bus = FairBus::new();
        let mut model = SetBus::default();
        let mut last = 0u64;
        // One past the latest slot either bus granted.
        let mut horizon = 0u64;
        for (kind, a) in ops {
            let slots: Vec<u64> = match kind {
                // The previous request again.
                0 => vec![last],
                // Anywhere up to the horizon.
                1 => vec![a % (horizon + 1)],
                // Far past the horizon.
                2 => vec![horizon + 4096 + a % (1 << 18)],
                // A word or summary-word edge, off by at most one slot.
                3 => vec![EDGES[(a % 4) as usize] + (a >> 2) % 3 - 1],
                // A saturated run of consecutive slots just past the
                // horizon, long enough to fill whole summary words.
                4 => {
                    let start = horizon + (a % 130);
                    let len = 1 + (a >> 8) % 4500;
                    (start..start + len).collect()
                }
                // Into the most recent run.
                _ => vec![horizon.saturating_sub(1 + a % 4200)],
            };
            for from in slots {
                let got = bus.claim(from);
                prop_assert_eq!(got, model.claim(from), "claim from slot {}", from);
                prop_assert!(got >= from);
                last = from;
                horizon = horizon.max(got + 1);
            }
            prop_assert_eq!(bus.issued(), model.taken.len() as u64);
        }
    }

    /// Any sequence issued at the BankTimer's own earliest times replays
    /// cleanly through the independent validator.
    #[test]
    fn generated_sequences_validate(
        picks in prop::collection::vec((any::<u8>(), 0u32..64, 0u32..32), 1..120),
    ) {
        let timing = TimingParams::hbm2e().resolve();
        let geometry = Geometry::hbm2e_single_bank();
        let mut bank = BankTimer::new(timing);
        let mut trace = Vec::new();
        let mut cursor = 0u64;
        for (pick, row, col) in picks {
            let cmd = step_command(bank.open_row().is_some(), pick, row, col);
            let earliest = bank.earliest_issue(cmd, cursor).expect("state-legal");
            // Align to the command-bus grid, strictly after the previous
            // command (one command per cycle).
            let mut slot = earliest.div_ceil(timing.cycle_ps) * timing.cycle_ps;
            if !trace.is_empty() && slot <= cursor {
                slot = cursor + timing.cycle_ps;
            }
            bank.issue_at(cmd, slot).expect("earliest is legal");
            trace.push((slot, cmd));
            cursor = slot;
        }
        let banks = one_bank(&trace, cursor + timing.cycle_ps);
        validate_queues(timing, geometry, Topology::single_rank(1), &banks)
            .map_err(|v| TestCaseError::fail(v.to_string()))?;
    }

    /// Issuing even one cycle before `earliest_issue` is rejected.
    #[test]
    fn earliest_is_tight_for_act_after_pre(gap in 0u64..20) {
        let timing = TimingParams::hbm2e().resolve();
        let mut bank = BankTimer::new(timing);
        bank.issue_at(BankCommand::Act { row: 0 }, 0).unwrap();
        let pre_at = bank.earliest_issue(BankCommand::Pre, 0).unwrap();
        bank.issue_at(BankCommand::Pre, pre_at).unwrap();
        let act_at = bank.earliest_issue(BankCommand::Act { row: 1 }, 0).unwrap();
        let early = act_at.saturating_sub(gap * timing.cycle_ps);
        let act = BankCommand::Act { row: 1 };
        if early < act_at {
            let r = bank.issue_at(act, early);
            prop_assert!(r.is_err());
        } else {
            let r = bank.issue_at(act, act_at);
            prop_assert!(r.is_ok());
        }
    }

    /// The validator rejects any trace whose single perturbed entry moves
    /// earlier than its legal time.
    #[test]
    fn validator_catches_backdated_column_reads(shift_cycles in 1u64..14) {
        let timing = TimingParams::hbm2e().resolve();
        let geometry = Geometry::hbm2e_single_bank();
        let c = timing.cycle_ps;
        let banks = one_bank(
            &[
                (0, BankCommand::Act { row: 1 }),
                ((14 - shift_cycles) * c, BankCommand::Rd { col: 0 }),
            ],
            28 * c,
        );
        prop_assert!(validate_queues(timing, geometry, Topology::single_rank(1), &banks).is_err());
    }
}
