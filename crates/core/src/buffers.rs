//! The atom-buffer file: primary (GSA) plus secondary buffers (Fig. 2).
//!
//! Each buffer holds one DRAM atom (`Na` words). Buffers are single-ported;
//! a small crossbar gives the butterfly unit full connectivity (§IV.A).
//! The buffer *contents* live in the functional simulator's runner
//! ([`crate::sim`]); this module models what the decoder checks about
//! them while it walks a program: which buffers exist and which hold
//! valid data. Every program starts with all buffers empty, so a program
//! that reads a buffer it never filled is rejected no matter what an
//! earlier program left behind. *Timing* ownership (who may touch a
//! buffer when) lives in the scheduler.

use crate::cmd::BufId;
use crate::PimError;

/// Which of the `Nb` atom buffers hold valid data, at one point of a
/// program being decoded.
#[derive(Debug, Clone)]
pub(crate) struct BufferState {
    /// Whether each buffer has been filled since the program began.
    filled: Vec<bool>,
}

impl BufferState {
    /// `n_bufs` empty buffers.
    pub(crate) fn new(n_bufs: usize) -> Self {
        Self {
            filled: vec![false; n_bufs],
        }
    }

    /// Marks `buf` filled (a CU-read landing) and returns its index.
    ///
    /// # Errors
    ///
    /// [`PimError::BufferMisuse`] for a buffer the configuration lacks.
    pub(crate) fn fill(&mut self, buf: BufId) -> Result<u8, PimError> {
        let i = self.index(buf)?;
        self.filled[i as usize] = true;
        Ok(i)
    }

    /// The index of `buf`, which must hold valid data; `access` names the
    /// attempted use in the error.
    ///
    /// # Errors
    ///
    /// [`PimError::BufferMisuse`] for an unknown or never-filled buffer.
    pub(crate) fn valid(&self, buf: BufId, access: &str) -> Result<u8, PimError> {
        let i = self.index(buf)?;
        if !self.filled[i as usize] {
            return Err(PimError::BufferMisuse {
                reason: format!("buffer {buf} {access} before being filled"),
            });
        }
        Ok(i)
    }

    /// The indices of a C2/Pointwise operand pair: two *distinct* valid
    /// buffers.
    ///
    /// # Errors
    ///
    /// [`PimError::BufferMisuse`] when `a == b`, or either is unknown or
    /// holds no valid data.
    pub(crate) fn pair(&self, a: BufId, b: BufId) -> Result<(u8, u8), PimError> {
        if a == b {
            return Err(PimError::BufferMisuse {
                reason: format!("C2 operands must be distinct buffers (both {a})"),
            });
        }
        Ok((self.valid(a, "read")?, self.valid(b, "read")?))
    }

    fn index(&self, buf: BufId) -> Result<u8, PimError> {
        if buf.0 as usize >= self.filled.len() {
            return Err(PimError::BufferMisuse {
                reason: format!("buffer {buf} does not exist in this configuration"),
            });
        }
        Ok(buf.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::PimCommand;
    use crate::config::PimConfig;
    use crate::mapper::Program;
    use crate::sim::FunctionalSim;

    fn program(commands: Vec<PimCommand>) -> Program {
        Program {
            commands,
            final_base: 0,
            c2_ops: 0,
            c1_ops: 0,
            marks: Vec::new(),
        }
    }

    #[test]
    fn fill_and_read_back() {
        let mut f = BufferState::new(2);
        assert_eq!(f.fill(BufId(1)).unwrap(), 1);
        assert_eq!(f.valid(BufId(1), "read").unwrap(), 1);
        assert!(f.valid(BufId(0), "read").is_err(), "unfilled buffer");
        assert!(f.valid(BufId(2), "read").is_err(), "unknown buffer");
        assert!(f.fill(BufId(2)).is_err(), "unknown buffer");
        // A filled buffer reads back the atom that landed in it.
        let c = PimConfig::hbm2e(2);
        let mut sim = FunctionalSim::new(&c).unwrap();
        sim.load_words(8, &[5; 8]);
        let (rd, wr) = (
            PimCommand::CuRead {
                row: 0,
                col: 1,
                buf: BufId(1),
            },
            PimCommand::CuWrite {
                row: 3,
                col: 0,
                buf: BufId(1),
            },
        );
        sim.execute(&program(vec![rd, wr])).unwrap();
        assert_eq!(sim.read_words(3 * c.row_words(), 8), vec![5; 8]);
    }

    #[test]
    fn wrong_atom_size_rejected() {
        // The datapath is `Na` = 8 lanes wide (Table I); any other atom
        // size is a configuration error, not a narrower or wider kernel.
        for atom_bytes in [16, 64] {
            let mut c = PimConfig::hbm2e(2);
            c.geometry.atom_bytes = atom_bytes;
            assert!(matches!(
                FunctionalSim::new(&c),
                Err(PimError::BadConfig { .. })
            ));
        }
    }

    #[test]
    fn pair_mut_orders_operands_correctly() {
        let mut f = BufferState::new(3);
        f.fill(BufId(0)).unwrap();
        f.fill(BufId(2)).unwrap();
        assert_eq!(f.pair(BufId(2), BufId(0)).unwrap(), (2, 0));
        assert!(f.pair(BufId(0), BufId(0)).is_err());
        assert!(f.pair(BufId(0), BufId(1)).is_err(), "S1 unfilled");
        // `p` is the left operand and the only one written: p ← p·s.
        let c = PimConfig::hbm2e(3);
        let mut sim = FunctionalSim::new(&c).unwrap();
        sim.load_words(0, &[2; 8]);
        sim.load_words(8, &[3; 8]);
        let rd = |col, buf| PimCommand::CuRead {
            row: 0,
            col,
            buf: BufId(buf),
        };
        let wr = |col, buf| PimCommand::CuWrite {
            row: 0,
            col,
            buf: BufId(buf),
        };
        let prog = program(vec![
            PimCommand::SetModulus { q: 7681 },
            rd(0, 0),
            rd(1, 2),
            PimCommand::Pointwise {
                p: BufId(2),
                s: BufId(0),
            },
            wr(2, 2),
            wr(3, 0),
        ]);
        sim.execute(&prog).unwrap();
        assert_eq!(sim.read_words(16, 8), vec![6; 8]);
        assert_eq!(sim.read_words(24, 8), vec![2; 8]);
    }
}
