//! The shared command bus.
//!
//! DRAM banks share the command/address bus: only one command can issue per
//! memory-clock cycle, no matter how many banks could accept one. That
//! serialization is the first-order limit on the paper's bank-level
//! parallelism claim ("near-linear speed up as the number of banks
//! increases"). [`FairBus`] models exactly it, one per channel: it grants
//! the first *free* slot (memory cycle) at or after each request, so
//! independent per-bank streams backfill each other's gaps. It keeps
//! occupancy in a two-level bitset (one bit per slot, one summary bit per
//! full 64-slot word), which costs one bit per slot up to the latest
//! claimed one — about 150 KB per simulated millisecond per channel at
//! the 833 ps HBM2E cycle.
//!
//! The issue rule on top of it is in-order per bank: a bank's next claim
//! asks for no slot before the one after its previous claim, so a bank
//! never overtakes its own program. The PIM scheduler
//! (`ntt_pim_core::sched`) claims one bus per channel and keeps its own
//! bank and rank timing, and its tests pin the coupling rules (tRRD
//! spacing, tRCD against the bus, the tFAW stall); this module's tests
//! pin the backfilling.

/// A fair multi-stream command bus: each claim takes the first
/// *unoccupied* slot at or after the requested one, so interleaved
/// independent streams (one per bank) backfill each other's gaps instead
/// of queueing behind the latest claim. This is the bus of every
/// schedule (`ntt_pim_core::sched`), one per channel; each bank floors
/// its own claims at its previous slot, so the backfilling happens only
/// across banks.
///
/// Slots are memory-clock cycles, counted from 0; the caller converts
/// them to time (slot × cycle).
///
/// Occupancy is a two-level bitset: one bit per slot, and one summary
/// bit per 64-slot word that is completely taken. A claim tests the
/// requested word, then skips full words 64 at a time through the
/// summary, so a claim behind a long saturated run reads one summary
/// word per 4096 slots instead of walking every occupied slot. Both
/// levels grow on demand up to the latest claimed slot: one bit per
/// slot, about 150 KB per simulated millisecond at the HBM2E 833 ps
/// cycle, plus 1/64 of that for the summary.
#[derive(Debug, Clone, Default)]
pub struct FairBus {
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
    /// Creates an idle bus.
    pub fn new() -> Self {
        Self::default()
    }

    /// Claims the first free slot `>= from` and returns it.
    #[inline]
    pub fn claim(&mut self, from: u64) -> u64 {
        let slot = self.first_free(from);
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
        slot
    }

    /// First untaken slot index `>= from`.
    #[inline]
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fair_bus_fills_gaps_monotonic_bus_cannot() {
        let mut fair = FairBus::new();
        // Stream A claims a late slot first…
        assert_eq!(fair.claim(10), 10);
        // …then stream B asks for an early one: the fair bus backfills.
        assert_eq!(fair.claim(0), 0);
        // Same earliest slot twice: consecutive distinct slots.
        assert_eq!(fair.claim(0), 1);
        // A monotonic stream floors each claim one slot past its previous
        // one (the per-bank in-order rule), so stream A's next claim
        // cannot take the free slots before its own slot-10 claim.
        assert_eq!(fair.claim(11), 11);
        assert_eq!(fair.issued(), 4);
    }
}
