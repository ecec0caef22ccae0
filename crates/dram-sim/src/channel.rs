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
//! (`ntt_pim_core::config::PimConfig` carries one) and the device's one
//! bank count. The PIM scheduler (`ntt_pim_core::sched`) builds schedules
//! on it with one [`crate::chip::FairBus`] per channel and its own rank
//! windows and bank fronts; its tests pin the coupling rules above on
//! hand-built programs. [`crate::validate::validate_queues`] checks every
//! schedule against them on its topology by replaying it through one
//! [`crate::rank::RankTimer`] per rank and one [`crate::bank::BankTimer`]
//! per bank, which the scheduler does not use.
//!
//! See the DRAM timing glossary in [`crate::timing`] for the constraint
//! definitions (tRRD, tFAW, …) referenced here.

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
