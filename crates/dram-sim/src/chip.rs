//! Multi-bank chip with a shared command bus.
//!
//! DRAM banks share the command/address bus: only one command can issue per
//! memory-clock cycle, no matter how many banks could accept one. That
//! serialization is the first-order limit on the paper's bank-level
//! parallelism claim ("near-linear speed up as the number of banks
//! increases"), and [`Chip`] models exactly it — per-bank timing from
//! [`BankTimer`] plus a [`CommandBus`] granting one slot per cycle.
//!
//! Two bus models grant those slots. [`CommandBus`] is strictly
//! monotonic: a claim never lands before the previous one, the
//! single-stream in-order model. [`FairBus`] grants the first *free*
//! cycle at or after the request, so independent per-bank streams can
//! backfill each other's gaps. It keeps occupancy in a two-level bitset
//! (one bit per cycle, one summary bit per full 64-cycle word), which
//! costs one bit per cycle up to the latest claimed slot — about 150 KB
//! per simulated millisecond per channel at the 833 ps HBM2E cycle.

use crate::bank::{BankCommand, BankCounters, BankTimer};
use crate::rank::RankTimer;
use crate::timing::{Geometry, ResolvedTiming};
use crate::TimingError;

/// The shared one-command-per-cycle command bus.
#[derive(Debug, Clone)]
pub struct CommandBus {
    cycle_ps: u64,
    next_free_ps: u64,
    issued: u64,
}

impl CommandBus {
    /// Creates an idle bus with the given slot width.
    pub fn new(cycle_ps: u64) -> Self {
        Self {
            cycle_ps,
            next_free_ps: 0,
            issued: 0,
        }
    }

    /// First slot `>= at_ps` the bus could grant (does not claim it).
    pub fn first_slot(&self, at_ps: u64) -> u64 {
        let t = at_ps.max(self.next_free_ps);
        // Align up to the cycle grid.
        t.div_ceil(self.cycle_ps) * self.cycle_ps
    }

    /// Claims the first slot `>= at_ps` and returns it.
    pub fn claim(&mut self, at_ps: u64) -> u64 {
        let slot = self.first_slot(at_ps);
        self.next_free_ps = slot + self.cycle_ps;
        self.issued += 1;
        slot
    }

    /// Commands issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Bus utilization over `[0, horizon_ps)`.
    pub fn utilization(&self, horizon_ps: u64) -> f64 {
        if horizon_ps == 0 {
            return 0.0;
        }
        (self.issued * self.cycle_ps) as f64 / horizon_ps as f64
    }
}

/// A fair multi-stream command bus: each claim takes the first
/// *unoccupied* cycle at or after the requested time, so interleaved
/// independent streams (one per bank) do not starve each other the way
/// a strictly monotonic [`CommandBus`] would. This is the bus model
/// behind bank-parallel batch execution
/// (`ntt_pim_core::sched::schedule_queues`).
///
/// Occupancy is a two-level bitset: one bit per bus cycle, and one
/// summary bit per 64-cycle word that is completely taken. A claim tests
/// the requested word, then skips full words 64 at a time through the
/// summary, so a claim behind a long saturated run reads one summary
/// word per 4096 cycles instead of walking every occupied slot. Both
/// levels grow on demand up to the latest claimed slot: one bit per
/// cycle, about 150 KB per simulated millisecond at the HBM2E 833 ps
/// cycle, plus 1/64 of that for the summary.
#[derive(Debug, Clone)]
pub struct FairBus {
    cycle_ps: u64,
    /// Bit `s % 64` of `slots[s / 64]` is set when slot `s` is taken.
    slots: Vec<u64>,
    /// Bit `w % 64` of `full[w / 64]` is set when `slots[w]` is all ones.
    full: Vec<u64>,
    issued: u64,
}

/// Word index of a bit index, for both levels of [`FairBus`].
fn word_of(bit: u64) -> usize {
    usize::try_from(bit / 64).expect("bus horizon exceeds the address space")
}

impl FairBus {
    /// Creates an idle bus with the given slot width.
    ///
    /// # Panics
    ///
    /// Panics when `cycle_ps` is zero.
    pub fn new(cycle_ps: u64) -> Self {
        assert!(cycle_ps > 0, "bus needs a non-zero cycle");
        Self {
            cycle_ps,
            slots: Vec::new(),
            full: Vec::new(),
            issued: 0,
        }
    }

    /// Claims the first free slot `>= at_ps` and returns its time.
    pub fn claim(&mut self, at_ps: u64) -> u64 {
        let slot = self.first_free(at_ps.div_ceil(self.cycle_ps));
        let w = word_of(slot);
        if w >= self.slots.len() {
            self.slots.resize(w + 1, 0);
            self.full.resize(w / 64 + 1, 0);
        }
        self.slots[w] |= 1 << (slot % 64);
        if self.slots[w] == u64::MAX {
            self.full[w / 64] |= 1 << (w % 64);
        }
        self.issued += 1;
        slot * self.cycle_ps
    }

    /// First untaken slot index `>= from`.
    fn first_free(&self, from: u64) -> u64 {
        let w = word_of(from);
        let Some(&bits) = self.slots.get(w) else {
            return from; // past the horizon: nothing claimed yet
        };
        let free = !bits & (u64::MAX << (from % 64));
        if free != 0 {
            return w as u64 * 64 + u64::from(free.trailing_zeros());
        }
        // The rest of the run: the first word after `w` that is not full.
        // Summary bits of words past the horizon are clear, so the scan
        // stops there at the latest.
        let next = w + 1;
        let mut s = next / 64;
        let mut open_mask = u64::MAX << (next % 64);
        loop {
            let open = !self.full.get(s).copied().unwrap_or(0) & open_mask;
            if open != 0 {
                let w = s * 64 + open.trailing_zeros() as usize;
                let bits = self.slots.get(w).copied().unwrap_or(0);
                return w as u64 * 64 + u64::from((!bits).trailing_zeros());
            }
            s += 1;
            open_mask = u64::MAX;
        }
    }

    /// Slots claimed so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Bus utilization over `[0, horizon_ps)`.
    pub fn utilization(&self, horizon_ps: u64) -> f64 {
        if horizon_ps == 0 {
            return 0.0;
        }
        (self.issued() * self.cycle_ps) as f64 / horizon_ps as f64
    }
}

/// A chip: `banks` independent bank timers sharing one command bus.
#[derive(Debug, Clone)]
pub struct Chip {
    geometry: Geometry,
    banks: Vec<BankTimer>,
    rank: RankTimer,
    bus: CommandBus,
}

impl Chip {
    /// Creates a chip with `geometry.banks` idle banks.
    pub fn new(timing: ResolvedTiming, geometry: Geometry) -> Self {
        Self {
            geometry,
            banks: (0..geometry.banks)
                .map(|_| BankTimer::new(timing))
                .collect(),
            rank: RankTimer::new(&timing),
            bus: CommandBus::new(timing.cycle_ps),
        }
    }

    /// The chip geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Number of banks.
    pub fn bank_count(&self) -> usize {
        self.banks.len()
    }

    /// Immutable access to a bank's timer.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank(&self, bank: usize) -> &BankTimer {
        &self.banks[bank]
    }

    /// The shared command bus.
    pub fn bus(&self) -> &CommandBus {
        &self.bus
    }

    /// Issues `cmd` to `bank` at the earliest legal time `>= not_before`,
    /// consuming a bus slot; returns the granted issue time.
    ///
    /// # Errors
    ///
    /// Propagates bank state errors; bus conflicts are resolved by waiting,
    /// never reported as errors here.
    pub fn issue(
        &mut self,
        bank: usize,
        cmd: BankCommand,
        not_before: u64,
    ) -> Result<u64, TimingError> {
        assert!(bank < self.banks.len(), "bank {bank} out of range");
        let mut ready = self.banks[bank].earliest_issue(cmd, not_before)?;
        if matches!(cmd, BankCommand::Act { .. }) {
            ready = ready.max(self.rank.earliest_act(not_before));
        }
        let slot = self.bus.claim(ready);
        self.banks[bank].issue_at(cmd, slot)?;
        if matches!(cmd, BankCommand::Act { .. }) {
            self.rank.record_act(slot);
        }
        Ok(slot)
    }

    /// Sum of all banks' counters.
    pub fn total_counters(&self) -> BankCounters {
        let mut total = BankCounters::default();
        for b in &self.banks {
            let c = b.counters();
            total.acts += c.acts;
            total.pres += c.pres;
            total.reads += c.reads;
            total.writes += c.writes;
            total.refreshes += c.refreshes;
            total.row_hits += c.row_hits;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;

    fn chip(banks: u32) -> Chip {
        let mut g = Geometry::hbm2e_single_bank();
        g.banks = banks;
        Chip::new(TimingParams::hbm2e().resolve(), g)
    }

    const C: u64 = 833;

    #[test]
    fn bus_serializes_commands_across_banks() {
        let mut chip = chip(4);
        let mut slots = Vec::new();
        for b in 0..4 {
            slots.push(chip.issue(b, BankCommand::Act { row: 0 }, 0).unwrap());
        }
        // All four banks were ready at t=0; tRRD (5 cycles) spaces the
        // activations, dominating the 1-cycle bus slots.
        assert_eq!(slots, vec![0, 5 * C, 10 * C, 15 * C]);
    }

    #[test]
    fn bank_constraint_dominates_when_later_than_bus() {
        let mut chip = chip(2);
        chip.issue(0, BankCommand::Act { row: 0 }, 0).unwrap();
        let t = chip.issue(0, BankCommand::Rd { col: 0 }, 0).unwrap();
        assert_eq!(t, 14 * C); // tRCD, not the next bus slot
    }

    #[test]
    fn interleaving_banks_hides_trcd() {
        let mut chip = chip(2);
        chip.issue(0, BankCommand::Act { row: 0 }, 0).unwrap();
        let t1 = chip.issue(1, BankCommand::Act { row: 5 }, 0).unwrap();
        assert_eq!(t1, 5 * C); // tRRD after bank 0's ACT, inside tRCD's shadow
        let r0 = chip.issue(0, BankCommand::Rd { col: 0 }, 0).unwrap();
        let r1 = chip.issue(1, BankCommand::Rd { col: 0 }, 0).unwrap();
        assert_eq!(r0, 14 * C);
        assert_eq!(r1, 19 * C); // tRCD after its own ACT
    }

    #[test]
    fn utilization_reflects_issued_commands() {
        let mut chip = chip(1);
        chip.issue(0, BankCommand::Act { row: 0 }, 0).unwrap();
        chip.issue(0, BankCommand::Rd { col: 0 }, 0).unwrap();
        let horizon = 100 * C;
        let u = chip.bus().utilization(horizon);
        assert!((u - 2.0 / 100.0).abs() < 1e-9);
    }

    #[test]
    fn tfaw_limits_activation_bursts() {
        let mut chip = chip(8);
        let mut slots = Vec::new();
        for b in 0..8 {
            slots.push(chip.issue(b, BankCommand::Act { row: 0 }, 0).unwrap());
        }
        // First four pace at tRRD (0,5,10,15); the fifth waits for the
        // tFAW window (20), and the rest continue at tRRD.
        assert_eq!(slots[4], 20 * C);
        assert!(slots[7] >= 35 * C);
    }

    #[test]
    fn fair_bus_fills_gaps_monotonic_bus_cannot() {
        let mut fair = FairBus::new(C);
        let mut mono = CommandBus::new(C);
        // Stream A claims a late slot first…
        assert_eq!(fair.claim(10 * C), 10 * C);
        assert_eq!(mono.claim(10 * C), 10 * C);
        // …then stream B asks for an early one. The fair bus backfills;
        // the monotonic bus pushes B behind A.
        assert_eq!(fair.claim(0), 0);
        assert_eq!(mono.claim(0), 11 * C);
        // Same earliest time twice: consecutive distinct slots.
        assert_eq!(fair.claim(0), C);
        assert_eq!(fair.issued(), 3);
        assert!((fair.utilization(100 * C) - 3.0 / 100.0).abs() < 1e-9);
    }

    #[test]
    fn counters_aggregate() {
        let mut chip = chip(2);
        chip.issue(0, BankCommand::Act { row: 0 }, 0).unwrap();
        chip.issue(1, BankCommand::Act { row: 1 }, 0).unwrap();
        chip.issue(0, BankCommand::Rd { col: 0 }, 0).unwrap();
        let t = chip.total_counters();
        assert_eq!(t.acts, 2);
        assert_eq!(t.reads, 1);
    }
}
