//! Functional (value-level) bank storage.
//!
//! The timing model says *when*; this says *what*. A [`BankStorage`] holds
//! the 32-bit words of one bank, so that executing a command stream
//! produces the actual memory contents the paper's front-end driver
//! verified against its software NTT.
//!
//! There is no separate row-buffer image. A CU-read takes its atom from
//! the sense amplifiers and a CU-write lands there, to be restored to the
//! array at precharge; but an open row's cells can only be reached through
//! that row, so reading and writing the array in place yields the same
//! values at every point an observer can look. The only other observer is
//! host DMA ([`BankStorage::load_words`] / [`BankStorage::read_words`]),
//! and a program runs with the bank borrowed mutably from its first
//! command to its last, so DMA can never see a row mid-flight. The
//! functional simulator (`ntt_pim_core::sim`) reaches the cells through
//! [`BankStorage::cells_mut`].
//!
//! Storage is strictly per-bank: a multi-channel, multi-rank device
//! ([`crate::channel::Topology`]) is simply
//! `channels × ranks × banks` independent [`BankStorage`] values —
//! values never cross the hierarchy, only timing couples it (the shared
//! [`crate::chip::FairBus`] per channel and the activation window per
//! rank).

use crate::timing::Geometry;

/// Value-level state of one bank: its cell array.
#[derive(Debug, Clone)]
pub struct BankStorage {
    geometry: Geometry,
    words: Vec<u32>,
}

impl BankStorage {
    /// Creates a zero-filled bank.
    pub fn new(geometry: Geometry) -> Self {
        Self {
            geometry,
            words: vec![0u32; geometry.bank_words()],
        }
    }

    /// The bank geometry.
    pub fn geometry(&self) -> &Geometry {
        &self.geometry
    }

    /// Writes a slice of words starting at a linear word address, directly
    /// into the array (host DMA before/after PIM execution; not a timed
    /// DRAM operation).
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the bank.
    pub fn load_words(&mut self, start_word: usize, data: &[u32]) {
        let end = start_word
            .checked_add(data.len())
            .expect("address overflow");
        assert!(end <= self.words.len(), "span exceeds bank");
        self.words[start_word..end].copy_from_slice(data);
    }

    /// Reads a span of words directly from the array.
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the bank.
    pub fn read_words(&self, start_word: usize, len: usize) -> Vec<u32> {
        let end = start_word.checked_add(len).expect("address overflow");
        assert!(end <= self.words.len(), "span exceeds bank");
        self.words[start_word..end].to_vec()
    }

    /// The whole cell array, row-major, for host DMA that reads it in
    /// place.
    pub fn cells(&self) -> &[u32] {
        &self.words
    }

    /// The whole cell array, row-major (`row · row_words + col ·
    /// atom_words` addresses the first word of an atom), for a command
    /// stream executed in place.
    pub fn cells_mut(&mut self) -> &mut [u32] {
        &mut self.words
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bank::{BankCommand, BankTimer};
    use crate::timing::TimingParams;

    fn storage() -> BankStorage {
        BankStorage::new(Geometry::hbm2e_single_bank())
    }

    #[test]
    fn dma_roundtrip() {
        let mut s = storage();
        let data: Vec<u32> = (0..512).collect();
        s.load_words(100, &data);
        assert_eq!(s.read_words(100, 512), data);
        assert_eq!(s.read_words(99, 1), vec![0]);
    }

    /// Issues `cmd` on `bank` at its earliest legal time from `now`.
    fn issue(bank: &mut BankTimer, cmd: BankCommand, now: &mut u64) {
        *now = bank.earliest_issue(cmd, *now).unwrap();
        bank.issue_at(cmd, *now).unwrap();
    }

    /// A row cycle with its values moved in place: the atom a column
    /// command addresses is the `row · row_words + col · atom_words` span
    /// of the cells, so a read sees what DMA loaded and a write is in the
    /// array — and visible to DMA — from the moment it is made.
    #[test]
    fn activate_read_write_precharge_cycle() {
        let mut s = storage();
        let g = *s.geometry();
        let (row_words, atom) = (g.row_words(), g.atom_words());
        let row1_base = row_words; // row 1 starts here
        s.load_words(row1_base, &[7u32; 8]);
        let at = |row: usize, col: usize| row * row_words + col * atom;
        assert_eq!(g.word_addr(at(1, 3)), (1, 3, 0));
        assert_eq!(s.cells_mut().len(), g.bank_words());

        let mut bank = BankTimer::new(TimingParams::hbm2e().resolve());
        let mut now = 0;
        issue(&mut bank, BankCommand::Act { row: 1 }, &mut now);
        issue(&mut bank, BankCommand::Rd { col: 0 }, &mut now);
        assert_eq!(&s.cells_mut()[at(1, 0)..at(1, 1)], &[7u32; 8]);
        issue(&mut bank, BankCommand::Wr { col: 3 }, &mut now);
        s.cells_mut()[at(1, 3)..at(1, 4)].fill(9);
        // Visible in the open row immediately, and already in the array.
        issue(&mut bank, BankCommand::Rd { col: 3 }, &mut now);
        assert_eq!(&s.cells_mut()[at(1, 3)..at(1, 4)], &[9u32; 8]);
        assert_eq!(s.read_words(row1_base + 24, 8), vec![9u32; 8]);
        issue(&mut bank, BankCommand::Pre, &mut now);
        assert_eq!(bank.open_row(), None);
        assert_eq!(s.read_words(row1_base + 24, 8), vec![9u32; 8]);
        assert_eq!(s.read_words(row1_base + 8, 16), vec![0u32; 16], "untouched");
    }

    /// There is no row-buffer image to restore at precharge, so a write
    /// is never lost: a snapshot of the bank taken while its row is still
    /// open — never precharged — already holds it.
    #[test]
    fn write_is_lost_only_if_never_restored() {
        let mut s = storage();
        let mut bank = BankTimer::new(TimingParams::hbm2e().resolve());
        let mut now = 0;
        issue(&mut bank, BankCommand::Act { row: 0 }, &mut now);
        issue(&mut bank, BankCommand::Wr { col: 0 }, &mut now);
        s.cells_mut()[..8].fill(1);
        assert_eq!(bank.open_row(), Some(0));
        let snapshot = s.clone();
        assert_eq!(snapshot.read_words(0, 8), vec![1u32; 8]);
        assert_eq!(snapshot.read_words(8, 8), vec![0u32; 8]);
    }

    #[test]
    #[should_panic(expected = "span exceeds bank")]
    fn dma_rejected_past_the_bank() {
        let mut s = storage();
        let end = s.geometry().bank_words();
        s.load_words(end - 2, &[1, 2, 3]);
    }
}
