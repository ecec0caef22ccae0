//! Library backing the `ntt-pim` command-line tool.
//!
//! All functionality lives here (the binary is a thin `main`) so the
//! argument parser and every subcommand are unit-testable.

#![warn(missing_docs)]

pub mod args;
pub mod commands;

/// Top-level CLI error: message plus suggested exit code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable message.
    pub message: String,
    /// Process exit code (2 = usage, 1 = runtime failure).
    pub exit_code: i32,
}

impl CliError {
    /// A usage error (exit code 2).
    pub fn usage(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            exit_code: 2,
        }
    }

    /// A runtime error (exit code 1).
    pub fn runtime(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
            exit_code: 1,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for CliError {}

impl From<ntt_pim_core::PimError> for CliError {
    fn from(e: ntt_pim_core::PimError) -> Self {
        CliError::runtime(e.to_string())
    }
}

impl From<modmath::Error> for CliError {
    fn from(e: modmath::Error) -> Self {
        CliError::runtime(e.to_string())
    }
}
