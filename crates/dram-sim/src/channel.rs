//! Multi-channel, multi-rank device topology.
//!
//! A real HBM/DDR part is not one rank behind one bus: commands fan out
//! over independent *channels*, each channel serves one or more *ranks*,
//! and each rank contains the banks. The three levels couple differently:
//!
//! * **Channels** are fully independent — private command/address bus,
//!   private data bus, private timing. Two channels never contend.
//! * **Ranks on one channel** share the channel's one-command-per-cycle
//!   command bus (bus contention couples them) but have *independent*
//!   activation windows: tRRD/tFAW are per-rank current limits, so an ACT
//!   on rank 0 never delays an ACT on rank 1.
//! * **Banks in one rank** share both the bus and the rank's tRRD/tFAW
//!   window — the single-rank model the paper's single-chip evaluation
//!   uses.
//!
//! [`Topology`] is the shape descriptor threaded through the whole stack
//! (`ntt_pim_core::config::PimConfig` carries one); [`Channel`] is the
//! self-contained timing model of one channel, composing the same shared
//! primitives the PIM scheduler wires up per channel ([`FairBus`] for
//! the bus, [`RankTimer`] per rank — the scheduler owns bank state
//! itself, so it composes the primitives directly rather than through
//! this struct). `Channel` exists for standalone channel-level studies
//! (a one-rank channel is the single-rank chip) and as the executable
//! specification of the coupling rules, pinned by this module's tests
//! and, for one rank, by [`crate::chip`]'s.
//!
//! See the DRAM timing glossary in [`crate::timing`] for the constraint
//! definitions (tRRD, tFAW, …) referenced here.

use crate::bank::{BankCommand, BankTimer};
use crate::chip::FairBus;
use crate::rank::RankTimer;
use crate::timing::ResolvedTiming;
use crate::TimingError;

/// Device shape: `channels × ranks × banks`.
///
/// `ranks` counts ranks *per channel* and `banks` counts banks *per
/// rank*, so [`Topology::total_banks`] is the product of all three.
/// Global bank ids enumerate channel-major, then rank, then bank —
/// [`Topology::location`] decodes them.
///
/// ```
/// use dram_sim::channel::Topology;
///
/// let t = Topology::new(2, 2, 4); // 2 channels × 2 ranks × 4 banks
/// assert_eq!(t.total_banks(), 16);
/// let loc = t.location(13);
/// assert_eq!((loc.channel, loc.rank, loc.bank), (1, 1, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Topology {
    /// Independent channels (private command bus each).
    pub channels: u32,
    /// Ranks per channel (shared bus, independent tRRD/tFAW windows).
    pub ranks: u32,
    /// Banks per rank (shared bus *and* shared activation window).
    pub banks: u32,
}

/// A global bank id decoded into its place in the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BankLocation {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// Bank index within the rank.
    pub bank: u32,
}

impl Topology {
    /// A `channels × ranks × banks` topology.
    pub fn new(channels: u32, ranks: u32, banks: u32) -> Self {
        Self {
            channels,
            ranks,
            banks,
        }
    }

    /// The degenerate single-channel single-rank topology the paper's
    /// single-chip evaluation uses: `1 × 1 × banks`.
    pub fn single_rank(banks: u32) -> Self {
        Self::new(1, 1, banks)
    }

    /// Whether every level has at least one member.
    pub fn is_valid(&self) -> bool {
        self.channels > 0 && self.ranks > 0 && self.banks > 0
    }

    /// Total banks across the whole device.
    pub fn total_banks(&self) -> usize {
        self.channels as usize * self.ranks as usize * self.banks as usize
    }

    /// Total ranks across the whole device.
    pub fn total_ranks(&self) -> usize {
        self.channels as usize * self.ranks as usize
    }

    /// Banks served by one channel (`ranks × banks`).
    pub fn banks_per_channel(&self) -> usize {
        self.ranks as usize * self.banks as usize
    }

    /// Decodes a global bank id (channel-major order).
    ///
    /// # Panics
    ///
    /// Panics when `global_bank >= total_banks()`.
    pub fn location(&self, global_bank: usize) -> BankLocation {
        assert!(
            global_bank < self.total_banks(),
            "bank {global_bank} out of range for {self}"
        );
        let per_channel = self.banks_per_channel();
        let channel = global_bank / per_channel;
        let within = global_bank % per_channel;
        BankLocation {
            channel: channel as u32,
            rank: (within / self.banks as usize) as u32,
            bank: (within % self.banks as usize) as u32,
        }
    }

    /// Global rank id (`0 .. total_ranks()`) of a global bank.
    ///
    /// # Panics
    ///
    /// As [`Topology::location`].
    pub fn global_rank(&self, global_bank: usize) -> usize {
        let loc = self.location(global_bank);
        loc.channel as usize * self.ranks as usize + loc.rank as usize
    }

    /// First global bank id of `channel` (its banks are contiguous).
    pub fn channel_base(&self, channel: usize) -> usize {
        channel * self.banks_per_channel()
    }
}

impl std::fmt::Display for Topology {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}x{}x{}", self.channels, self.ranks, self.banks)
    }
}

/// One channel: `ranks × banks` bank timers behind one shared command
/// bus, with one [`RankTimer`] per rank.
///
/// The bus serializes *all* commands on the channel (one per memory
/// cycle, whichever rank they target); the per-rank timers keep the
/// tRRD/tFAW activation windows independent across ranks — the two
/// couplings that distinguish rank-level from bank-level parallelism.
#[derive(Debug, Clone)]
pub struct Channel {
    banks: Vec<Vec<BankTimer>>,
    ranks: Vec<RankTimer>,
    bus: FairBus,
}

impl Channel {
    /// Creates an idle channel with `ranks` ranks of `banks` banks.
    ///
    /// # Panics
    ///
    /// Panics when `ranks` or `banks` is zero.
    pub fn new(timing: ResolvedTiming, ranks: u32, banks: u32) -> Self {
        assert!(ranks > 0 && banks > 0, "a channel needs ranks and banks");
        Self {
            banks: (0..ranks)
                .map(|_| (0..banks).map(|_| BankTimer::new(timing)).collect())
                .collect(),
            ranks: (0..ranks).map(|_| RankTimer::new(&timing)).collect(),
            bus: FairBus::new(timing.cycle_ps),
        }
    }

    /// Immutable access to a rank's activation-window timer.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn rank(&self, rank: usize) -> &RankTimer {
        &self.ranks[rank]
    }

    /// The channel's shared command bus.
    pub fn bus(&self) -> &FairBus {
        &self.bus
    }

    /// Issues `cmd` to `(rank, bank)` at the earliest legal time
    /// `>= not_before`, consuming a bus slot; returns the granted time.
    ///
    /// ACTs additionally respect the *target rank's* tRRD/tFAW window —
    /// and only that rank's: activations on sibling ranks never push the
    /// issue time.
    ///
    /// # Errors
    ///
    /// Propagates bank state errors; bus conflicts are resolved by
    /// waiting, never reported as errors here.
    pub fn issue(
        &mut self,
        rank: usize,
        bank: usize,
        cmd: BankCommand,
        not_before: u64,
    ) -> Result<u64, TimingError> {
        assert!(rank < self.ranks.len(), "rank {rank} out of range");
        assert!(bank < self.banks[rank].len(), "bank {bank} out of range");
        let mut ready = self.banks[rank][bank].earliest_issue(cmd, not_before)?;
        if matches!(cmd, BankCommand::Act { .. }) {
            ready = ready.max(self.ranks[rank].earliest_act(not_before));
        }
        let slot = self.bus.claim(ready);
        self.banks[rank][bank].issue_at(cmd, slot)?;
        if matches!(cmd, BankCommand::Act { .. }) {
            self.ranks[rank].record_act(slot);
        }
        Ok(slot)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timing::TimingParams;

    const C: u64 = 833; // ps per cycle at 1200 MHz

    fn channel(ranks: u32, banks: u32) -> Channel {
        Channel::new(TimingParams::hbm2e().resolve(), ranks, banks)
    }

    #[test]
    fn topology_addressing_roundtrips() {
        let t = Topology::new(2, 3, 4);
        assert_eq!(t.total_banks(), 24);
        assert_eq!(t.total_ranks(), 6);
        assert_eq!(t.banks_per_channel(), 12);
        for g in 0..t.total_banks() {
            let loc = t.location(g);
            let back = t.channel_base(loc.channel as usize)
                + loc.rank as usize * t.banks as usize
                + loc.bank as usize;
            assert_eq!(back, g);
            assert_eq!(
                t.global_rank(g),
                loc.channel as usize * 3 + loc.rank as usize
            );
        }
        assert_eq!(t.to_string(), "2x3x4");
        assert!(t.is_valid());
        assert!(!Topology::new(0, 1, 1).is_valid());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn topology_rejects_out_of_range_bank() {
        Topology::single_rank(4).location(4);
    }

    #[test]
    fn cross_rank_activations_are_independent() {
        // Two ranks, one bank each: back-to-back ACTs on *different*
        // ranks pace at the 1-cycle bus slot, not tRRD (5 cycles).
        let mut ch = channel(2, 1);
        let a0 = ch.issue(0, 0, BankCommand::Act { row: 0 }, 0).unwrap();
        let a1 = ch.issue(1, 0, BankCommand::Act { row: 0 }, 0).unwrap();
        assert_eq!(a0, 0);
        assert_eq!(a1, C, "only the shared bus separates cross-rank ACTs");
        // Same-rank ACTs on a sibling bank still pay tRRD.
        let mut same = channel(1, 2);
        same.issue(0, 0, BankCommand::Act { row: 0 }, 0).unwrap();
        let b1 = same.issue(0, 1, BankCommand::Act { row: 0 }, 0).unwrap();
        assert_eq!(b1, 5 * C, "same-rank ACTs pay tRRD");
    }

    #[test]
    fn tfaw_applies_per_rank_not_per_channel() {
        // 2 ranks × 4 banks: eight ACTs alternating ranks. Each rank sees
        // only four, so no tFAW stall anywhere; a single rank would stall
        // the fifth ACT to 20 cycles (see chip::tests::tfaw_limits_...).
        let mut ch = channel(2, 4);
        let mut slots = Vec::new();
        for i in 0..8usize {
            let (rank, bank) = (i % 2, i / 2);
            slots.push(
                ch.issue(rank, bank, BankCommand::Act { row: 0 }, 0)
                    .unwrap(),
            );
        }
        // Rank-alternating ACTs pace at tRRD/2 between ranks … the key
        // point: the 5th..8th ACTs never hit the 20-cycle tFAW stall.
        assert!(
            slots.iter().all(|&s| s < 20 * C),
            "no tFAW stall across ranks: {slots:?}"
        );
        assert_eq!(ch.rank(0).total_acts(), 4);
        assert_eq!(ch.rank(1).total_acts(), 4);
    }

    #[test]
    fn ranks_contend_for_the_shared_channel_bus() {
        // Both ranks want slot 0; the bus grants consecutive cycles.
        let mut ch = channel(2, 1);
        ch.issue(0, 0, BankCommand::Act { row: 0 }, 0).unwrap();
        ch.issue(1, 0, BankCommand::Act { row: 0 }, 0).unwrap();
        // tRCD after each ACT, but the two RDs also need distinct slots.
        let r0 = ch.issue(0, 0, BankCommand::Rd { col: 0 }, 0).unwrap();
        let r1 = ch.issue(1, 0, BankCommand::Rd { col: 0 }, 0).unwrap();
        assert_eq!(r0, 14 * C); // tRCD after its ACT at 0
        assert_eq!(r1, 15 * C); // tRCD after its ACT at 1*C, same bus
        assert_eq!(ch.bus().issued(), 4);
    }

    #[test]
    fn separate_channels_do_not_interact() {
        // Two channels are two `Channel` values: identical command
        // streams produce identical times regardless of the other's load.
        let mut a = channel(1, 2);
        let mut b = channel(1, 2);
        let t_loaded = {
            for bank in 0..2 {
                a.issue(0, bank, BankCommand::Act { row: 0 }, 0).unwrap();
            }
            a.issue(0, 0, BankCommand::Rd { col: 0 }, 0).unwrap()
        };
        // Channel b runs only the bank-0 stream; its RD time matches what
        // bank 0 would see on an otherwise idle channel.
        b.issue(0, 0, BankCommand::Act { row: 0 }, 0).unwrap();
        let t_idle = b.issue(0, 0, BankCommand::Rd { col: 0 }, 0).unwrap();
        assert_eq!(t_loaded, t_idle, "channel isolation");
    }
}
