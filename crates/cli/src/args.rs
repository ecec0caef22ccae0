//! Minimal dependency-free argument parsing.
//!
//! Supports `--flag`, `--key value`, and `--key=value` forms plus
//! positional subcommands — enough for this tool without pulling a parser
//! crate into the workspace, which builds offline with in-tree stand-ins
//! for its few external crates (`crates/shims/README.md`).

use crate::CliError;
use std::collections::BTreeMap;

/// Parsed command line: a subcommand plus its options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedArgs {
    /// The subcommand (first positional argument).
    pub command: String,
    /// `--key value` / `--key=value` options, keyed without the dashes.
    pub options: BTreeMap<String, String>,
    /// Bare `--flag`s present.
    pub flags: Vec<String>,
}

impl ParsedArgs {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// [`CliError::usage`] on a missing subcommand, stray positionals, or
    /// a key given twice (in any mix of the `--key value`, `--key=value`
    /// and `--flag` forms).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Self, CliError> {
        let mut it = raw.into_iter().peekable();
        let command = it
            .next()
            .ok_or_else(|| CliError::usage("missing subcommand; try `ntt-pim help`"))?;
        if command.starts_with('-') {
            return Err(CliError::usage(format!(
                "expected a subcommand, got option {command}"
            )));
        }
        let mut options = BTreeMap::new();
        let mut flags: Vec<String> = Vec::new();
        while let Some(tok) = it.next() {
            let Some(stripped) = tok.strip_prefix("--") else {
                return Err(CliError::usage(format!("unexpected positional {tok}")));
            };
            let (key, value) = match stripped.split_once('=') {
                Some((k, v)) => (k.to_string(), Some(v.to_string())),
                None => {
                    let value = it.next_if(|nxt| !nxt.starts_with("--"));
                    (stripped.to_string(), value)
                }
            };
            if options.contains_key(&key) || flags.contains(&key) {
                return Err(CliError::usage(format!("--{key} given twice")));
            }
            match value {
                Some(v) => {
                    options.insert(key, v);
                }
                None => flags.push(key),
            }
        }
        Ok(Self {
            command,
            options,
            flags,
        })
    }

    /// Accepts only the named options (each with a value) and flags
    /// (each without one).
    ///
    /// # Errors
    ///
    /// [`CliError::usage`] for an option or flag outside the lists, a
    /// flag given a value, or an option given none.
    pub fn expect_only(&self, options: &[&str], flags: &[&str]) -> Result<(), CliError> {
        let command = &self.command;
        for (key, value) in &self.options {
            if flags.contains(&key.as_str()) {
                return Err(CliError::usage(format!(
                    "--{key} is a flag and takes no value (got `{value}`)"
                )));
            }
            if !options.contains(&key.as_str()) {
                return Err(CliError::usage(format!(
                    "`{command}` has no option --{key}"
                )));
            }
        }
        for flag in &self.flags {
            if options.contains(&flag.as_str()) {
                return Err(CliError::usage(format!("--{flag} needs a value")));
            }
            if !flags.contains(&flag.as_str()) {
                return Err(CliError::usage(format!("`{command}` has no flag --{flag}")));
            }
        }
        Ok(())
    }

    /// Typed option lookup with default.
    ///
    /// # Errors
    ///
    /// [`CliError::usage`] when present but unparsable.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| CliError::usage(format!("bad value for --{key}: {v}"))),
        }
    }

    /// A comma-separated list option (e.g. `--nb 1,2,4`).
    ///
    /// # Errors
    ///
    /// [`CliError::usage`] when any element is unparsable.
    pub fn get_list_or<T: std::str::FromStr>(
        &self,
        key: &str,
        default: Vec<T>,
    ) -> Result<Vec<T>, CliError> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .split(',')
                .map(|part| {
                    part.trim()
                        .parse()
                        .map_err(|_| CliError::usage(format!("bad value in --{key}: {part}")))
                })
                .collect(),
        }
    }

    /// Whether a bare flag is present.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<ParsedArgs, CliError> {
        ParsedArgs::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_subcommand_options_and_flags() {
        let a = parse("run --n 1024 --nb=4 --refresh").unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.options.get("n").unwrap(), "1024");
        assert_eq!(a.options.get("nb").unwrap(), "4");
        assert!(a.has_flag("refresh"));
        assert_eq!(a.get_or("n", 0usize).unwrap(), 1024);
        assert_eq!(a.get_or("missing", 7u32).unwrap(), 7);
    }

    #[test]
    fn parses_lists() {
        let a = parse("sweep --nb 1,2,4,6").unwrap();
        assert_eq!(a.get_list_or("nb", vec![0usize]).unwrap(), vec![1, 2, 4, 6]);
        assert_eq!(a.get_list_or("lengths", vec![256usize]).unwrap(), vec![256]);
    }

    #[test]
    fn usage_errors() {
        assert!(parse("").is_err());
        assert!(parse("--n 4").is_err());
        assert!(parse("run stray").is_err());
        let a = parse("run --n x").unwrap();
        assert!(a.get_or("n", 0usize).is_err());
    }

    #[test]
    fn repeated_keys_are_usage_errors() {
        for line in [
            "batch --n 1024 --n 2048",
            "batch --n=1024 --n 2048",
            "batch --split --split",
            "batch --split --split=yes",
        ] {
            let e = parse(line).unwrap_err();
            assert_eq!(e.exit_code, 2, "{line}");
            assert!(e.message.contains("twice"), "{line}: {e}");
        }
    }

    #[test]
    fn only_the_named_options_and_flags_pass() {
        let (options, flags) = (&["n", "q"][..], &["split"][..]);
        assert!(parse("batch --n 8 --split")
            .unwrap()
            .expect_only(options, flags)
            .is_ok());
        for (line, says) in [
            ("batch --bogus 3", "no option --bogus"),
            ("batch --frob", "no flag --frob"),
            ("batch --split yes --n 8", "takes no value"),
            ("batch --split=yes", "takes no value"),
            ("batch --n", "needs a value"),
            ("batch --q --n 8", "needs a value"),
        ] {
            let e = parse(line)
                .unwrap()
                .expect_only(options, flags)
                .unwrap_err();
            assert_eq!(e.exit_code, 2, "{line}");
            assert!(e.message.contains(says), "{line}: {e}");
        }
    }

    #[test]
    fn negative_like_values_need_equals() {
        // `--key value` treats a following `--x` as a flag boundary, so
        // values beginning with dashes use the = form.
        let a = parse("run --label=--weird").unwrap();
        assert_eq!(a.options.get("label").unwrap(), "--weird");
    }
}
