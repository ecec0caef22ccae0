//! Functional (value-level) bank storage.
//!
//! The timing model says *when*; this says *what*. A [`BankStorage`] holds
//! the 32-bit words of one bank plus an explicit row-buffer image, so that
//! executing a command stream produces the actual memory contents the
//! paper's front-end driver verified against its software NTT.
//!
//! Keeping an explicit row buffer matters for correctness of the PIM
//! model: a CU-read takes its atom from the *sense amplifiers*, and a
//! CU-write lands there and is only guaranteed in the array after the
//! restore (modeled at precharge time, like DRAMsim3's open-page policy).
//!
//! Storage is strictly per-bank: a multi-channel, multi-rank device
//! ([`crate::channel::Topology`]) is simply
//! `channels × ranks × banks` independent [`BankStorage`] values —
//! values never cross the hierarchy, only timing couples it
//! ([`crate::channel::Channel`]).

use crate::timing::Geometry;
use crate::TimingError;

/// Value-level state of one bank: the cell array and the row buffer.
#[derive(Debug, Clone)]
pub struct BankStorage {
    geometry: Geometry,
    words: Vec<u32>,
    /// Open-row image (the sense amplifiers): one row's worth of words,
    /// allocated once and overwritten by every activation.
    row_image: Vec<u32>,
    /// The row the image holds; `None` when precharged.
    open: Option<u32>,
}

impl BankStorage {
    /// Creates a zero-filled bank.
    pub fn new(geometry: Geometry) -> Self {
        Self {
            geometry,
            words: vec![0u32; geometry.bank_words()],
            row_image: vec![0u32; geometry.row_words()],
            open: None,
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
        assert!(
            self.open.is_none(),
            "host DMA with an open row would race the sense amplifiers"
        );
        self.words[start_word..end].copy_from_slice(data);
    }

    /// Reads a span of words directly from the array.
    ///
    /// # Panics
    ///
    /// Panics if the span exceeds the bank or a row is open (unrestored
    /// data may live in the row buffer).
    pub fn read_words(&self, start_word: usize, len: usize) -> Vec<u32> {
        let end = start_word.checked_add(len).expect("address overflow");
        assert!(end <= self.words.len(), "span exceeds bank");
        assert!(
            self.open.is_none(),
            "host read with an open row would miss unrestored data"
        );
        self.words[start_word..end].to_vec()
    }

    /// Activates `row`: copies it from the array into the row buffer.
    ///
    /// # Errors
    ///
    /// * [`TimingError::RowAlreadyOpen`] if a row is open.
    /// * [`TimingError::AddressOutOfRange`] for a bad row index.
    pub fn activate(&mut self, row: u32) -> Result<(), TimingError> {
        if let Some(open) = self.open {
            return Err(TimingError::RowAlreadyOpen {
                open,
                requested: row,
            });
        }
        if row >= self.geometry.rows_per_bank {
            return Err(TimingError::AddressOutOfRange {
                what: "row",
                value: row as u64,
                limit: self.geometry.rows_per_bank as u64,
            });
        }
        let rw = self.geometry.row_words();
        let base = row as usize * rw;
        self.row_image.copy_from_slice(&self.words[base..base + rw]);
        self.open = Some(row);
        Ok(())
    }

    /// Precharges: restores the row buffer into the array and closes it.
    /// Precharging a closed bank is a no-op (as in real DRAM).
    pub fn precharge(&mut self) {
        if let Some(row) = self.open.take() {
            let rw = self.geometry.row_words();
            let base = row as usize * rw;
            self.words[base..base + rw].copy_from_slice(&self.row_image);
        }
    }

    /// Reads one atom (`Na` words) from the open row.
    ///
    /// # Errors
    ///
    /// * [`TimingError::RowNotOpen`] with no open row.
    /// * [`TimingError::AddressOutOfRange`] for a bad column.
    pub fn read_atom(&self, col: u32) -> Result<&[u32], TimingError> {
        if self.open.is_none() {
            return Err(TimingError::RowNotOpen { cmd: "RD" });
        }
        self.check_col(col)?;
        let aw = self.geometry.atom_words();
        let base = col as usize * aw;
        Ok(&self.row_image[base..base + aw])
    }

    /// Writes one atom into the open row (visible to later reads of the
    /// open row immediately; restored to the array at precharge).
    ///
    /// # Errors
    ///
    /// * [`TimingError::RowNotOpen`] with no open row.
    /// * [`TimingError::AddressOutOfRange`] for a bad column or wrong atom
    ///   length.
    pub fn write_atom(&mut self, col: u32, data: &[u32]) -> Result<(), TimingError> {
        let aw = self.geometry.atom_words();
        if data.len() != aw {
            return Err(TimingError::AddressOutOfRange {
                what: "atom length",
                value: data.len() as u64,
                limit: aw as u64 + 1,
            });
        }
        self.check_col(col)?;
        if self.open.is_none() {
            return Err(TimingError::RowNotOpen { cmd: "WR" });
        }
        let base = col as usize * aw;
        self.row_image[base..base + aw].copy_from_slice(data);
        Ok(())
    }

    /// The currently open row, if any.
    pub fn open_row(&self) -> Option<u32> {
        self.open
    }

    fn check_col(&self, col: u32) -> Result<(), TimingError> {
        if col >= self.geometry.cols_per_row {
            return Err(TimingError::AddressOutOfRange {
                what: "column",
                value: col as u64,
                limit: self.geometry.cols_per_row as u64,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn activate_read_write_precharge_cycle() {
        let mut s = storage();
        let row1_base = s.geometry().row_words(); // row 1 starts here
        s.load_words(row1_base, &[7u32; 8]);
        s.activate(1).unwrap();
        assert_eq!(s.read_atom(0).unwrap(), vec![7u32; 8]);
        s.write_atom(3, &[9u32; 8]).unwrap();
        // Visible in the open row immediately.
        assert_eq!(s.read_atom(3).unwrap(), vec![9u32; 8]);
        s.precharge();
        // Restored into the array.
        assert_eq!(s.read_words(row1_base + 24, 8), vec![9u32; 8]);
    }

    #[test]
    fn write_is_lost_only_if_never_restored() {
        // Not a DRAM behaviour test so much as a model-invariant test: the
        // explicit row buffer means array contents change only at precharge.
        let mut s = storage();
        s.activate(0).unwrap();
        s.write_atom(0, &[1u32; 8]).unwrap();
        // Peek the raw array through a clone that precharges.
        let mut restored = s.clone();
        restored.precharge();
        assert_eq!(restored.read_words(0, 8), vec![1u32; 8]);
    }

    #[test]
    fn errors_on_closed_bank_and_bad_addresses() {
        let mut s = storage();
        assert!(s.read_atom(0).is_err());
        assert!(s.write_atom(0, &[0; 8]).is_err());
        s.activate(0).unwrap();
        assert!(s.activate(1).is_err());
        assert!(s.read_atom(32).is_err());
        assert!(s.write_atom(0, &[0; 4]).is_err());
        assert!(s.activate(40_000).is_err()); // row open; close first
        s.precharge();
        assert!(s.activate(40_000).is_err());
    }

    #[test]
    #[should_panic(expected = "open row")]
    fn dma_rejected_while_row_open() {
        let mut s = storage();
        s.activate(0).unwrap();
        s.load_words(0, &[1, 2, 3]);
    }
}
