//! The extended DRAM command set (paper §III.D, §IV.A).
//!
//! Beyond ordinary `ACT`/`PRE`, the memory controller issues:
//!
//! * [`PimCommand::CuRead`] / [`PimCommand::CuWrite`] — column transfers
//!   that stop at an atom buffer instead of chip I/O,
//! * [`PimCommand::C1`] — the intra-atom NTT (`log Na` stages of `Na/2`
//!   butterflies, Algorithm 1),
//! * [`PimCommand::C2`] — one `Na`-way vectorized butterfly between the
//!   primary-side and secondary-side buffers (Algorithm 2),
//! * [`PimCommand::SetModulus`] — parameter broadcast over the global
//!   buffer (§IV.A),
//! * element-wise extensions ([`PimCommand::Scale`],
//!   [`PimCommand::Pointwise`]) reusing the C2 datapath, marked clearly as
//!   *our* additions (they enable on-device negacyclic weighting and
//!   NTT-domain products; the paper's evaluation never times them), and
//! * scalar-register µ-commands ([`PimCommand::RegLoad`] /
//!   [`PimCommand::RegStore`] / [`PimCommand::RegBu`]) with which the
//!   single-buffer (`Nb = 1`) strawman of §III.B is expressed.
//!
//! Twiddle parameters travel *in Montgomery form* so the butterfly unit
//! multiplies plain-form data by Montgomery-form twiddles with a single
//! REDC and no data-path conversions (see [`crate::tfg`]).

/// Identifier of an atom buffer. Buffer 0 is the primary (the GSA);
/// buffers `1..Nb` are the secondaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BufId(pub u8);

impl BufId {
    /// The primary atom buffer (global sense amplifiers).
    pub const PRIMARY: BufId = BufId(0);

    /// Whether this is the primary buffer.
    pub fn is_primary(&self) -> bool {
        self.0 == 0
    }
}

impl std::fmt::Display for BufId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_primary() {
            write!(f, "P")
        } else {
            write!(f, "S{}", self.0)
        }
    }
}

/// Which operand register a scalar µ-command touches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OperandReg {
    /// Register a (the `+` output side).
    A,
    /// Register b (the `(a-b)·ω` output side).
    B,
}

/// Butterfly arithmetic order.
///
/// `Ct` multiplies the odd leg *before* add/sub (`t = ω·b; (a+t, a−t)`),
/// which pairs with the bit-reversed-input DIT graph and geometric on-the-
/// fly twiddles. `Gs` multiplies *after* (`(a+b, (a−b)·ω)`), the paper's
/// Fig. 3 drawing, which pairs with the natural-input DIF graph used for
/// the inverse/no-bit-reversal path. The paper's pseudocode does not say
/// which order a C2 uses, and the two graphs need different ones, so the
/// CU implements both and every command names its order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuOrder {
    /// Cooley–Tukey order (multiply first).
    Ct,
    /// Gentleman–Sande order (multiply last).
    Gs,
}

/// Twiddle generator parameters for one vectorized command: the generator
/// produces `ω0, ω0·rω, ω0·rω², …` (Montgomery form).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TwiddleParams {
    /// Initial twiddle, Montgomery form.
    pub omega0_mont: u32,
    /// Per-lane step, Montgomery form.
    pub r_omega_mont: u32,
}

/// The Montgomery-form stage steps of one C1: at most [`Self::MAX`],
/// stored inline with their count, so a command is `Copy` and mapping a
/// C1 allocates nothing. Reads as a slice of the steps it holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct StageSteps {
    /// The steps, then zeros.
    steps: [u32; StageSteps::MAX],
    len: u8,
}

impl StageSteps {
    /// The most stages one C1 runs: `log2(Na)` for Table I's 8-lane atom.
    pub const MAX: usize = 3;

    /// The steps `steps`, or `None` when there are more than
    /// [`Self::MAX`]. The count need not match any C1 shape: the decoder
    /// rejects a mismatch.
    pub fn new(steps: &[u32]) -> Option<Self> {
        let mut inline = Self::default();
        inline.steps.get_mut(..steps.len())?.copy_from_slice(steps);
        inline.len = steps.len() as u8;
        Some(inline)
    }
}

impl std::ops::Deref for StageSteps {
    type Target = [u32];

    fn deref(&self) -> &[u32] {
        &self.steps[..self.len as usize]
    }
}

impl<'a> IntoIterator for &'a StageSteps {
    type Item = &'a u32;
    type IntoIter = std::slice::Iter<'a, u32>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Per-stage twiddle steps for a C1 command. Stage `s` (0-indexed, span
/// `2^s`) uses twiddles `1, step[s], step[s]², …` within each butterfly
/// group, resetting at group boundaries — the hardware reset the paper's
/// Algorithm 1 alludes to with its `ω ← ω0` initialization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct C1Params {
    /// Number of points to transform (≤ `Na`; allows `N < Na` requests).
    pub points: u8,
    /// Montgomery-form step per local stage (`log2(points)` entries).
    pub stage_steps_mont: StageSteps,
    /// Butterfly order: `Ct` runs stages span 1→N/2 (DIT), `Gs` runs them
    /// span N/2→1 (DIF).
    pub order: BuOrder,
}

/// One command of the PIM-extended DRAM command set.
///
/// Row/column addresses are physical within the single target bank; the
/// multi-bank batch API replicates streams across banks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PimCommand {
    /// Activate a row (copies the row into the bitline sense amps).
    Act {
        /// Row index.
        row: u32,
    },
    /// Precharge the open row.
    Pre,
    /// Column read into an atom buffer (data never leaves the bank).
    CuRead {
        /// Row that must be open.
        row: u32,
        /// Column (atom) index.
        col: u32,
        /// Destination buffer.
        buf: BufId,
    },
    /// Column write from an atom buffer into the open row.
    CuWrite {
        /// Row that must be open.
        row: u32,
        /// Column (atom) index.
        col: u32,
        /// Source buffer.
        buf: BufId,
    },
    /// Intra-atom NTT on one buffer (Algorithm 1).
    C1 {
        /// Buffer transformed in place.
        buf: BufId,
        /// Twiddle schedule.
        params: C1Params,
    },
    /// `Na`-way vectorized butterfly between two buffers (Algorithm 2):
    /// lane `l` computes `BU(p[l], s[l])` with twiddle `ω0·rω^l`.
    C2 {
        /// Buffer holding the `a` legs (results overwrite in place).
        p: BufId,
        /// Buffer holding the `b` legs (results overwrite in place).
        s: BufId,
        /// Twiddle generator parameters.
        tw: TwiddleParams,
        /// Butterfly order.
        order: BuOrder,
    },
    /// *Extension:* multiply buffer lane `l` by `ω0·rω^l` (negacyclic
    /// weighting, `N⁻¹` scaling).
    Scale {
        /// Buffer scaled in place.
        buf: BufId,
        /// Geometric coefficient sequence.
        tw: TwiddleParams,
    },
    /// *Extension:* lane-wise product `p[l] ← p[l]·s[l]` (NTT-domain
    /// polynomial multiplication).
    Pointwise {
        /// Destination/left operand.
        p: BufId,
        /// Right operand (unchanged).
        s: BufId,
    },
    /// Broadcast the modulus and derived Montgomery constants to the CU.
    SetModulus {
        /// The (odd, < 2³¹) modulus.
        q: u32,
    },
    /// Broadcast new twiddle-generator seed parameters (issued once per
    /// stage-regime change; within a stage the generator continues or
    /// resets to the group seed on a command flag, so per-command
    /// broadcasts are unnecessary — the reason on-the-fly generation wins
    /// in §IV.A). Functionally a no-op here because every compute command
    /// carries its authoritative parameters; the scheduler charges the
    /// broadcast beats.
    SetTwiddle {
        /// 16-bit beats on the global buffer.
        beats: u8,
    },
    /// Refresh command (auto-injected by the scheduler every tREFI when
    /// refresh modeling is enabled; the paper's evaluation ignores
    /// refresh, so it defaults off).
    Refresh,
    /// Scalar µ-command: load one lane of a buffer into an operand register
    /// (single-buffer fallback; normally folded inside C1/C2).
    RegLoad {
        /// Source buffer.
        buf: BufId,
        /// Lane index within the buffer.
        lane: u8,
        /// Destination register.
        reg: OperandReg,
    },
    /// Scalar µ-command: store an operand register into one buffer lane.
    RegStore {
        /// Destination buffer.
        buf: BufId,
        /// Lane index within the buffer.
        lane: u8,
        /// Source register.
        reg: OperandReg,
    },
    /// Scalar butterfly on the operand registers with an explicit twiddle.
    RegBu {
        /// Twiddle (Montgomery form) for this single butterfly.
        omega_mont: u32,
        /// Butterfly order.
        order: BuOrder,
    },
}

// Copy, and small enough that a program's commands are one flat array:
// the program memo weighs its entries in units of one command.
const _: () = assert!(std::mem::size_of::<PimCommand>() == 24);

impl PimCommand {
    /// Short mnemonic for traces and timelines.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            PimCommand::Act { .. } => "ACT",
            PimCommand::Pre => "PRE",
            PimCommand::CuRead { .. } => "RD",
            PimCommand::CuWrite { .. } => "WR",
            PimCommand::C1 { .. } => "C1",
            PimCommand::C2 { .. } => "C2",
            PimCommand::Scale { .. } => "SCL",
            PimCommand::Pointwise { .. } => "PW",
            PimCommand::SetModulus { .. } => "CFG",
            PimCommand::SetTwiddle { .. } => "TWD",
            PimCommand::Refresh => "REF",
            PimCommand::RegLoad { .. } => "LDR",
            PimCommand::RegStore { .. } => "STR",
            PimCommand::RegBu { .. } => "BU",
        }
    }

    /// Whether the command occupies the compute unit.
    pub fn uses_cu(&self) -> bool {
        matches!(
            self,
            PimCommand::C1 { .. }
                | PimCommand::C2 { .. }
                | PimCommand::Scale { .. }
                | PimCommand::Pointwise { .. }
                | PimCommand::RegLoad { .. }
                | PimCommand::RegStore { .. }
                | PimCommand::RegBu { .. }
        )
    }

    /// Whether the command touches the DRAM array/row buffer.
    pub fn uses_bank(&self) -> bool {
        matches!(
            self,
            PimCommand::Act { .. }
                | PimCommand::Pre
                | PimCommand::CuRead { .. }
                | PimCommand::CuWrite { .. }
                | PimCommand::Refresh
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffer_display() {
        assert_eq!(BufId::PRIMARY.to_string(), "P");
        assert_eq!(BufId(3).to_string(), "S3");
        assert!(BufId(0).is_primary());
        assert!(!BufId(1).is_primary());
    }

    #[test]
    fn stage_steps_hold_up_to_three_inline() {
        for len in 0..=3u32 {
            let steps: Vec<u32> = (1..=len).collect();
            let inline = StageSteps::new(&steps).unwrap();
            assert_eq!(&*inline, &steps[..]);
            assert_eq!(inline.iter().count(), len as usize);
        }
        assert_eq!(StageSteps::new(&[1, 2, 3, 4]), None);
        // The count is part of the value: a trailing zero step is a step.
        assert_eq!(StageSteps::new(&[5, 6]), StageSteps::new(&[5, 6]));
        assert_ne!(StageSteps::new(&[5, 6]), StageSteps::new(&[5, 6, 0]));
    }

    #[test]
    fn resource_classification() {
        let rd = PimCommand::CuRead {
            row: 0,
            col: 0,
            buf: BufId(1),
        };
        assert!(rd.uses_bank() && !rd.uses_cu());
        let c2 = PimCommand::C2 {
            p: BufId(0),
            s: BufId(1),
            tw: TwiddleParams {
                omega0_mont: 1,
                r_omega_mont: 1,
            },
            order: BuOrder::Ct,
        };
        assert!(c2.uses_cu() && !c2.uses_bank());
        assert_eq!(c2.mnemonic(), "C2");
        let cfg = PimCommand::SetModulus { q: 7681 };
        assert!(!cfg.uses_cu() && !cfg.uses_bank());
    }
}
