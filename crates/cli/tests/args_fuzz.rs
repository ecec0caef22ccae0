//! Command-line fuzzing: random argument vectors built from the
//! subcommands, their options (with valid and invalid values), flags,
//! and junk tokens.
//!
//! Properties:
//! * parsing and the per-command argument check never panic, and every
//!   rejection they make is a usage error (exit code 2);
//! * a command line they accept runs without panicking, and any error
//!   it returns carries exit code 1 (runtime) or 2 (usage).
//!
//! Each subcommand's command line always names the options that bound
//! its work (lengths, job and request counts) from small value pools,
//! so accepted lines stay cheap to run.

use ntt_pim_cli::args::ParsedArgs;
use ntt_pim_cli::commands;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Every option any subcommand reads, with values to draw from: valid
/// small ones first, then malformed or out-of-range ones.
const OPTIONS: &[(&str, &[&str])] = &[
    ("n", &["64", "256", "1000", "0", "x", "-4"]),
    ("nb", &["2", "4", "0", "x"]),
    ("clock", &["1200", "600", "0", "x"]),
    ("q", &["12289", "7681", "2013265921", "4", "1", "x"]),
    ("channels", &["1", "2", "0", "x", "4194304", "2097152"]),
    ("ranks", &["1", "2", "0", "4194304", "2097152"]),
    ("banks", &["1", "2", "4", "0", "4194304", "2097152"]),
    ("jobs", &["1", "3", "0", "5000", "x"]),
    ("lengths", &["64", "64,256", "128,", "0", "x"]),
    ("backend", &["pim", "cpu-lanes", "mentt", "bp-ntt", "frob"]),
    ("tenants", &["1", "2", "0", "300"]),
    ("requests", &["2", "4", "0", "20000"]),
    ("max-wait-us", &["100", "0", "x"]),
    ("queue-depth", &["8", "0", "x"]),
    ("tenant-inflight", &["0", "1", "x"]),
    ("devices", &["1", "2", "0", "300"]),
    ("backends", &["pim:1", "pim:1,cpu-lanes:1", "frob", "pim:0"]),
    ("steal-threshold-us", &["0", "50", "x"]),
];

const FLAGS: &[&str] = &["refresh", "split", "smoke"];

const JUNK: &[&str] = &[
    "x",
    "-n",
    "--",
    "---",
    "--=3",
    "--n=",
    "--ñ",
    "=",
    "--lengths=,",
    "--q=-1",
    "--bogus",
    "--chanels",
    "--schedule",
    "--schedule=lpt",
    "7",
];

/// Subcommands, each with the options that bound its work.
const COMMANDS: &[(&str, &[&str])] = &[
    ("run", &["n"]),
    ("trace", &["n"]),
    ("verify", &["n"]),
    ("polymul", &["n"]),
    ("sweep", &["lengths", "nb"]),
    ("batch", &["n", "jobs", "lengths"]),
    ("serve", &["requests", "tenants", "lengths"]),
    ("help", &[]),
    ("frob", &[]),
];

fn values(key: &str) -> &'static [&'static str] {
    OPTIONS
        .iter()
        .find(|(k, _)| *k == key)
        .map_or(&["1"], |(_, v)| v)
}

/// Builds one argument vector from a stream of random draws.
fn argv(draws: &[u32]) -> Vec<String> {
    let mut draws = draws.iter().copied();
    let mut pick = |n: usize| draws.next().unwrap_or(0) as usize % n;
    let (command, bounds) = COMMANDS[pick(COMMANDS.len())];
    let mut out = vec![command.to_string()];
    for key in bounds {
        let value = values(key)[pick(values(key).len())];
        out.push(format!("--{key}"));
        out.push(value.to_string());
    }
    for _ in 0..pick(5) {
        match pick(5) {
            0 | 1 => {
                let (key, vals) = OPTIONS[pick(OPTIONS.len())];
                let value = vals[pick(vals.len())];
                if pick(2) == 0 {
                    out.push(format!("--{key}={value}"));
                } else {
                    out.push(format!("--{key}"));
                    out.push(value.to_string());
                }
            }
            2 | 3 => out.push(format!("--{}", FLAGS[pick(FLAGS.len())])),
            _ => out.push(JUNK[pick(JUNK.len())].to_string()),
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn random_argv_never_panics_and_rejections_exit_2(
        draws in prop::collection::vec(0u32..u32::MAX, 24..25),
    ) {
        let argv = argv(&draws);
        let line = argv.join(" ");
        let checked = catch_unwind(|| {
            ParsedArgs::parse(argv.clone()).and_then(|args| commands::check(&args).map(|()| args))
        });
        let Ok(checked) = checked else {
            return Err(TestCaseError::fail(format!("argument check panicked on `{line}`")));
        };
        let args = match checked {
            Ok(args) => args,
            Err(e) => {
                prop_assert_eq!(e.exit_code, 2, "`{}`: {}", line, e);
                return Ok(());
            }
        };
        let ran = catch_unwind(AssertUnwindSafe(|| commands::dispatch(&args)));
        let Ok(ran) = ran else {
            return Err(TestCaseError::fail(format!("`{line}` panicked")));
        };
        if let Err(e) = ran {
            prop_assert!(
                e.exit_code == 1 || e.exit_code == 2,
                "`{}` exited {}: {}",
                line,
                e.exit_code,
                e
            );
        }
    }
}

/// The lines the argument check exists for, through the binary's own
/// parse-then-dispatch path.
#[test]
fn unread_arguments_are_usage_errors() {
    for line in [
        "batch --bogus 3",
        "batch --chanels 2",
        "batch --split yes --n 8192 --q 2013265921",
        "batch --n 1024 --n 2048",
    ] {
        let e = ParsedArgs::parse(line.split_whitespace().map(String::from))
            .and_then(|args| commands::dispatch(&args))
            .unwrap_err();
        assert_eq!(e.exit_code, 2, "{line}: {e}");
    }
}
