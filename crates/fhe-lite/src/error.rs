use std::fmt;

/// Errors of the toy FHE layer.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FheError {
    /// Parameter construction failed.
    BadParams {
        /// What was wrong.
        reason: String,
    },
    /// Operands belong to different parameter sets.
    ParamMismatch,
    /// An underlying modular-arithmetic error.
    Math(modmath::Error),
}

impl fmt::Display for FheError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FheError::BadParams { reason } => write!(f, "bad parameters: {reason}"),
            FheError::ParamMismatch => write!(f, "operands use different parameter sets"),
            FheError::Math(e) => write!(f, "modular arithmetic: {e}"),
        }
    }
}

impl std::error::Error for FheError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FheError::Math(e) => Some(e),
            _ => None,
        }
    }
}

impl From<modmath::Error> for FheError {
    fn from(e: modmath::Error) -> Self {
        FheError::Math(e)
    }
}
