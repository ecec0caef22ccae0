//! The atom-buffer file: primary (GSA) plus secondary buffers (Fig. 2).
//!
//! Each buffer holds one DRAM atom (`Na` words). Buffers are single-ported;
//! a small crossbar gives the butterfly unit full connectivity (§IV.A). The
//! functional model here tracks contents and validity; *timing* ownership
//! (who may touch a buffer when) lives in the scheduler.

use crate::cmd::BufId;
use crate::PimError;

/// Functional state of the `Nb` atom buffers.
#[derive(Debug, Clone)]
pub struct BufferFile {
    atom_words: usize,
    /// Every buffer's words back to back, `atom_words` each, allocated
    /// once: a fill copies into its buffer's slice.
    words: Vec<u32>,
    /// Which buffers hold valid data (filled at least once).
    filled: Vec<bool>,
}

impl BufferFile {
    /// Creates `n_bufs` empty buffers of `atom_words` words each.
    pub fn new(n_bufs: usize, atom_words: usize) -> Self {
        Self {
            atom_words,
            words: vec![0; n_bufs * atom_words],
            filled: vec![false; n_bufs],
        }
    }

    /// Number of buffers (`Nb`).
    pub fn len(&self) -> usize {
        self.filled.len()
    }

    /// True when there are no buffers (never for a validated config).
    pub fn is_empty(&self) -> bool {
        self.filled.is_empty()
    }

    /// Words per buffer (`Na`).
    pub fn atom_words(&self) -> usize {
        self.atom_words
    }

    /// Fills `buf` with a copy of an atom (a CU-read landing).
    ///
    /// # Errors
    ///
    /// [`PimError::BufferMisuse`] for an unknown buffer or wrong length.
    pub fn fill(&mut self, buf: BufId, data: &[u32]) -> Result<(), PimError> {
        if data.len() != self.atom_words {
            return Err(PimError::BufferMisuse {
                reason: format!(
                    "atom of {} words filled into buffer expecting {}",
                    data.len(),
                    self.atom_words
                ),
            });
        }
        let range = self.range(buf)?;
        self.words[range].copy_from_slice(data);
        self.filled[buf.0 as usize] = true;
        Ok(())
    }

    /// Borrows the valid contents of `buf`.
    ///
    /// # Errors
    ///
    /// [`PimError::BufferMisuse`] for an unknown or invalid (never filled)
    /// buffer.
    pub fn contents(&self, buf: BufId) -> Result<&[u32], PimError> {
        let range = self.valid_range(buf, "read")?;
        Ok(&self.words[range])
    }

    /// Mutably borrows the valid contents of `buf` (compute in place).
    ///
    /// # Errors
    ///
    /// Same conditions as [`Self::contents`].
    pub fn contents_mut(&mut self, buf: BufId) -> Result<&mut [u32], PimError> {
        let range = self.valid_range(buf, "written")?;
        Ok(&mut self.words[range])
    }

    /// Mutably borrows two *distinct* buffers (the C2 operand pair).
    ///
    /// # Errors
    ///
    /// [`PimError::BufferMisuse`] when `a == b`, either is unknown, or
    /// either holds no valid data.
    pub fn pair_mut(&mut self, a: BufId, b: BufId) -> Result<(&mut [u32], &mut [u32]), PimError> {
        if a == b {
            return Err(PimError::BufferMisuse {
                reason: format!("C2 operands must be distinct buffers (both {a})"),
            });
        }
        let ra = self.valid_range(a, "read")?;
        let rb = self.valid_range(b, "read")?;
        if ra.start < rb.start {
            let (lo, hi) = self.words.split_at_mut(rb.start);
            Ok((&mut lo[ra], &mut hi[..self.atom_words]))
        } else {
            let (lo, hi) = self.words.split_at_mut(ra.start);
            Ok((&mut hi[..self.atom_words], &mut lo[rb]))
        }
    }

    /// The word range of `buf`.
    fn range(&self, buf: BufId) -> Result<std::ops::Range<usize>, PimError> {
        let i = buf.0 as usize;
        if i >= self.filled.len() {
            return Err(PimError::BufferMisuse {
                reason: format!("buffer {buf} does not exist in this configuration"),
            });
        }
        Ok(i * self.atom_words..(i + 1) * self.atom_words)
    }

    /// The word range of `buf`, which must hold valid data; `access`
    /// names the attempted use in the error.
    fn valid_range(&self, buf: BufId, access: &str) -> Result<std::ops::Range<usize>, PimError> {
        let range = self.range(buf)?;
        if !self.filled[buf.0 as usize] {
            return Err(PimError::BufferMisuse {
                reason: format!("buffer {buf} {access} before being filled"),
            });
        }
        Ok(range)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_and_read_back() {
        let mut f = BufferFile::new(2, 8);
        assert_eq!(f.len(), 2);
        f.fill(BufId(1), &[5; 8]).unwrap();
        assert_eq!(f.contents(BufId(1)).unwrap(), &[5; 8]);
        assert!(f.contents(BufId(0)).is_err(), "unfilled buffer");
        assert!(f.contents(BufId(2)).is_err(), "unknown buffer");
    }

    #[test]
    fn wrong_atom_size_rejected() {
        let mut f = BufferFile::new(1, 8);
        assert!(f.fill(BufId(0), &[0; 4]).is_err());
    }

    #[test]
    fn pair_mut_orders_operands_correctly() {
        let mut f = BufferFile::new(3, 8);
        f.fill(BufId(0), &[1; 8]).unwrap();
        f.fill(BufId(2), &[2; 8]).unwrap();
        {
            let (p, s) = f.pair_mut(BufId(2), BufId(0)).unwrap();
            assert_eq!(p[0], 2);
            assert_eq!(s[0], 1);
            p[0] = 9;
        }
        assert_eq!(f.contents(BufId(2)).unwrap()[0], 9);
        assert!(f.pair_mut(BufId(0), BufId(0)).is_err());
        assert!(f.pair_mut(BufId(0), BufId(1)).is_err(), "S1 unfilled");
    }
}
