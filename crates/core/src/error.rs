use std::fmt;

/// Errors surfaced by the PIM model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PimError {
    /// A DRAM timing or state violation (from the dram-sim substrate).
    Timing(dram_sim::TimingError),
    /// A modular-arithmetic parameter problem (bad modulus, missing root).
    Math(modmath::Error),
    /// The requested configuration is invalid.
    BadConfig {
        /// What was wrong.
        reason: String,
    },
    /// The requested transform does not fit the addressed region.
    BadRegion {
        /// What was wrong.
        reason: String,
    },
    /// A compute command referenced a buffer that does not exist or holds
    /// no valid data.
    BufferMisuse {
        /// What was wrong.
        reason: String,
    },
    /// A result and its reference differ in length.
    LengthMismatch {
        /// Words the PIM model produced.
        got: usize,
        /// Words the reference holds.
        expected: usize,
    },
    /// Functional verification against the reference NTT failed.
    VerificationFailed {
        /// First mismatching element index.
        index: usize,
        /// Value produced by the PIM model.
        got: u32,
        /// Value expected from the reference transform.
        expected: u32,
    },
}

impl fmt::Display for PimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PimError::Timing(e) => write!(f, "dram timing: {e}"),
            PimError::Math(e) => write!(f, "modular arithmetic: {e}"),
            PimError::BadConfig { reason } => write!(f, "bad configuration: {reason}"),
            PimError::BadRegion { reason } => write!(f, "bad region: {reason}"),
            PimError::BufferMisuse { reason } => write!(f, "buffer misuse: {reason}"),
            PimError::LengthMismatch { got, expected } => {
                write!(f, "result has {got} words, expected {expected}")
            }
            PimError::VerificationFailed {
                index,
                got,
                expected,
            } => write!(
                f,
                "verification failed at element {index}: got {got}, expected {expected}"
            ),
        }
    }
}

impl std::error::Error for PimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PimError::Timing(e) => Some(e),
            PimError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<dram_sim::TimingError> for PimError {
    fn from(e: dram_sim::TimingError) -> Self {
        PimError::Timing(e)
    }
}

impl From<modmath::Error> for PimError {
    fn from(e: modmath::Error) -> Self {
        PimError::Math(e)
    }
}
