//! Command-trace serialization.
//!
//! The paper's methodology (its Fig. 1) is trace-shaped: the front-end
//! driver emits a DRAM command sequence that DRAMsim3 consumes. This
//! module writes and reads a textual trace format so schedules produced
//! here can be inspected, diffed, archived, or replayed by external
//! tooling:
//!
//! ```text
//! # cycle  bank  command  [row|col]
//! 0        0     ACT      17
//! 14       0     RD       3
//! 64       0     PRE
//! 1000     0     REF
//! ```
//!
//! Cycles are memory-clock cycles (the trace is clock-portable); parsing
//! round-trips exactly.
//!
//! The `bank` column is a flat id. For a sharded device, callers write
//! *global* bank ids and decode them with
//! [`crate::channel::Topology::location`] — one trace per channel is the
//! natural unit, since a channel's command bus ([`crate::chip::FairBus`])
//! is what serializes the commands a trace orders. A parsed trace is
//! checked by replaying it as bus claims through
//! [`crate::validate::validate_queues`].

use crate::bank::BankCommand;
use std::fmt::Write as _;

/// One timestamped DRAM command: a line of the text trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// Issue time in picoseconds.
    pub at_ps: u64,
    /// Target bank.
    pub bank: u32,
    /// The command.
    pub cmd: BankCommand,
}

/// Error from parsing a textual trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceError {
    /// 1-based line number of the offending line.
    pub line: usize,
    /// What was wrong.
    pub reason: String,
}

impl std::fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "trace line {}: {}", self.line, self.reason)
    }
}

impl std::error::Error for ParseTraceError {}

/// Serializes a trace to the textual format (cycles, not picoseconds).
///
/// Entries whose issue time is not a multiple of `cycle_ps` are rejected
/// by debug assertion — schedules produced by this workspace are always
/// slot-aligned.
pub fn to_text(entries: &[TraceEntry], cycle_ps: u64) -> String {
    let mut out = String::with_capacity(entries.len() * 16);
    out.push_str("# cycle bank command arg\n");
    for e in entries {
        debug_assert_eq!(e.at_ps % cycle_ps, 0, "unaligned trace entry");
        let cycle = e.at_ps / cycle_ps;
        match e.cmd {
            BankCommand::Act { row } => {
                let _ = writeln!(out, "{cycle} {} ACT {row}", e.bank);
            }
            BankCommand::Pre => {
                let _ = writeln!(out, "{cycle} {} PRE", e.bank);
            }
            BankCommand::Rd { col } => {
                let _ = writeln!(out, "{cycle} {} RD {col}", e.bank);
            }
            BankCommand::Wr { col } => {
                let _ = writeln!(out, "{cycle} {} WR {col}", e.bank);
            }
            BankCommand::Ref => {
                let _ = writeln!(out, "{cycle} {} REF", e.bank);
            }
        }
    }
    out
}

/// Parses the textual format back into entries.
///
/// # Errors
///
/// [`ParseTraceError`] with the line number on malformed input.
pub fn from_text(text: &str, cycle_ps: u64) -> Result<Vec<TraceEntry>, ParseTraceError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let err = |reason: &str| ParseTraceError {
            line,
            reason: reason.to_string(),
        };
        let cycle: u64 = parts
            .next()
            .ok_or_else(|| err("missing cycle"))?
            .parse()
            .map_err(|_| err("bad cycle"))?;
        let bank: u32 = parts
            .next()
            .ok_or_else(|| err("missing bank"))?
            .parse()
            .map_err(|_| err("bad bank"))?;
        let mnemonic = parts.next().ok_or_else(|| err("missing command"))?;
        let arg = parts.next();
        let cmd = match (mnemonic, arg) {
            ("ACT", Some(a)) => BankCommand::Act {
                row: a.parse().map_err(|_| err("bad row"))?,
            },
            ("RD", Some(a)) => BankCommand::Rd {
                col: a.parse().map_err(|_| err("bad column"))?,
            },
            ("WR", Some(a)) => BankCommand::Wr {
                col: a.parse().map_err(|_| err("bad column"))?,
            },
            ("PRE", None) => BankCommand::Pre,
            ("REF", None) => BankCommand::Ref,
            ("ACT" | "RD" | "WR", None) => return Err(err("command needs an argument")),
            ("PRE" | "REF", Some(_)) => return Err(err("command takes no argument")),
            _ => return Err(err("unknown command")),
        };
        if parts.next().is_some() {
            return Err(err("trailing tokens"));
        }
        out.push(TraceEntry {
            at_ps: cycle * cycle_ps,
            bank,
            cmd,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<TraceEntry> {
        let c = 833;
        vec![
            TraceEntry {
                at_ps: 0,
                bank: 0,
                cmd: BankCommand::Act { row: 17 },
            },
            TraceEntry {
                at_ps: 14 * c,
                bank: 0,
                cmd: BankCommand::Rd { col: 3 },
            },
            TraceEntry {
                at_ps: 16 * c,
                bank: 1,
                cmd: BankCommand::Wr { col: 31 },
            },
            TraceEntry {
                at_ps: 64 * c,
                bank: 0,
                cmd: BankCommand::Pre,
            },
            TraceEntry {
                at_ps: 5000 * c,
                bank: 0,
                cmd: BankCommand::Ref,
            },
        ]
    }

    #[test]
    fn roundtrip() {
        let entries = sample();
        let text = to_text(&entries, 833);
        let back = from_text(&text, 833).unwrap();
        assert_eq!(back, entries);
    }

    #[test]
    fn header_and_blank_lines_ignored() {
        let text = "# comment\n\n0 0 ACT 5\n";
        let back = from_text(text, 833).unwrap();
        assert_eq!(back.len(), 1);
    }

    #[test]
    fn malformed_lines_report_position() {
        for (text, expect_line) in [
            ("0 0 FROB 1\n", 1),
            ("0 0 ACT\n", 1),
            ("0 0 PRE\n1 0 PRE 9\n", 2),
            ("0 0 RD 3 junk\n", 1),
        ] {
            let e = from_text(text, 833);
            match e {
                Err(pe) => assert_eq!(pe.line, expect_line, "{text:?}"),
                Ok(_) => panic!("{text:?} should fail"),
            }
        }
    }

    #[test]
    fn parse_error_on_first_bad_token_line() {
        assert!(from_text("x 0 PRE\n", 833).is_err());
    }
}
