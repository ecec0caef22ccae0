use std::fmt;

/// Errors reported by the DRAM timing model.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TimingError {
    /// A column command was issued while the bank had no open row.
    RowNotOpen {
        /// Offending command description.
        cmd: &'static str,
    },
    /// An activate was issued while another row was already open.
    RowAlreadyOpen {
        /// The currently open row.
        open: u32,
        /// The row the activate targeted.
        requested: u32,
    },
    /// A command was issued earlier than the timing constraints allow.
    TooEarly {
        /// Offending command description.
        cmd: &'static str,
        /// The attempted issue time (ps).
        at_ps: u64,
        /// The earliest legal time (ps).
        earliest_ps: u64,
    },
    /// An address fell outside the bank geometry.
    AddressOutOfRange {
        /// Which coordinate overflowed.
        what: &'static str,
        /// The offending value.
        value: u64,
        /// The exclusive limit.
        limit: u64,
    },
    /// The shared command bus already carries a command in that slot.
    BusConflict {
        /// The contested bus slot time (ps).
        at_ps: u64,
    },
    /// A bank issued a command out of its program order: no later than
    /// the bank's previous command, or for an earlier queued program.
    OutOfOrder {
        /// The offending issue time (ps).
        at_ps: u64,
        /// Issue time of the bank's previous command (ps).
        previous_ps: u64,
    },
    /// A command of a program gated on a barrier issued before the last
    /// program signaling that barrier finished.
    BeforeBarrier {
        /// The offending issue time (ps).
        at_ps: u64,
        /// The barrier id.
        barrier: usize,
        /// When the barrier's last contributor finished (ps).
        barrier_ps: u64,
    },
}

impl fmt::Display for TimingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimingError::RowNotOpen { cmd } => {
                write!(f, "{cmd} issued with no open row")
            }
            TimingError::RowAlreadyOpen { open, requested } => write!(
                f,
                "activate of row {requested} while row {open} is open (precharge first)"
            ),
            TimingError::TooEarly {
                cmd,
                at_ps,
                earliest_ps,
            } => write!(
                f,
                "{cmd} issued at {at_ps} ps, earliest legal time is {earliest_ps} ps"
            ),
            TimingError::AddressOutOfRange { what, value, limit } => {
                write!(f, "{what} {value} out of range (limit {limit})")
            }
            TimingError::BusConflict { at_ps } => {
                write!(f, "command bus slot at {at_ps} ps already occupied")
            }
            TimingError::OutOfOrder { at_ps, previous_ps } => write!(
                f,
                "command at {at_ps} ps issued out of program order \
                 (the bank's previous command issued at {previous_ps} ps)"
            ),
            TimingError::BeforeBarrier {
                at_ps,
                barrier,
                barrier_ps,
            } => write!(
                f,
                "command at {at_ps} ps issued before barrier {barrier} \
                 completed at {barrier_ps} ps"
            ),
        }
    }
}

impl std::error::Error for TimingError {}
