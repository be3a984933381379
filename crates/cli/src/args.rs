//! A tiny, dependency-free option parser: each subcommand declares the
//! `--key value` options and bare `--flag`s it takes, and any other
//! `--name` is refused. Other tokens are positional arguments.

use std::collections::BTreeMap;
use std::fmt;

/// A parse or lookup error, printed to the user as-is.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError(pub String);

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for ArgError {}

/// Parsed command-line arguments: positionals in order, `--key value` pairs,
/// and bare `--flags`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    positional: Vec<String>,
    options: BTreeMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses the arguments after a subcommand's name against the
    /// `options` (each takes the next token as its value) and bare `flags`
    /// it declares, both named without their leading `--`.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] for an undeclared `--name`, for an option
    /// given twice, or for one whose value is missing or starts with `--`.
    pub fn parse<S: AsRef<str>>(
        raw: &[S],
        options: &[&str],
        flags: &[&str],
    ) -> Result<Args, ArgError> {
        let mut args = Args::default();
        let mut tokens = raw.iter().map(AsRef::as_ref);
        while let Some(token) = tokens.next() {
            let Some(name) = token.strip_prefix("--") else {
                args.positional.push(token.to_string());
                continue;
            };
            if options.contains(&name) {
                let value = tokens
                    .next()
                    .filter(|v| !v.starts_with("--"))
                    .ok_or_else(|| ArgError(format!("--{name} needs a value")))?;
                if args
                    .options
                    .insert(name.to_string(), value.to_string())
                    .is_some()
                {
                    return Err(ArgError(format!("--{name} is given twice")));
                }
            } else if flags.contains(&name) {
                args.flags.push(name.to_string());
            } else {
                return Err(ArgError(format!("unknown option `{token}`")));
            }
        }
        Ok(args)
    }

    /// The positional arguments.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// Whether the bare flag `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// The raw value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.options.get(name).map(String::as_str)
    }

    /// A typed option with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] if the value fails to parse as `T`.
    pub fn opt<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, ArgError> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ArgError(format!("invalid value `{raw}` for --{name}"))),
        }
    }

    /// A comma-separated list option (empty when absent).
    pub fn list(&self, name: &str) -> Vec<String> {
        self.get(name)
            .map(|raw| raw.split(',').map(|s| s.trim().to_string()).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OPTIONS: &[&str] = &["tasks", "governors", "out", "phase"];
    const FLAGS: &[&str] = &["quick", "dry-run"];

    fn parse(raw: &[&str]) -> Result<Args, ArgError> {
        Args::parse(raw, OPTIONS, FLAGS)
    }

    #[test]
    fn parses_mixture() {
        let args = parse(&[
            "run",
            "--tasks",
            "8",
            "--quick",
            "--governors",
            "a,b , c",
            "fig1",
        ])
        .unwrap();
        assert_eq!(args.positional(), ["run", "fig1"]);
        assert_eq!(args.opt::<usize>("tasks", 0).unwrap(), 8);
        assert!(args.flag("quick"));
        assert!(!args.flag("dry-run"));
        assert_eq!(args.list("governors"), vec!["a", "b", "c"]);
        assert!(args.list("out").is_empty());
    }

    #[test]
    fn a_flag_takes_no_value() {
        let args = parse(&["--quick", "tab1_refsets", "--out", "dir", "--dry-run"]).unwrap();
        assert!(args.flag("quick"));
        assert!(args.flag("dry-run"));
        assert_eq!(args.positional(), ["tab1_refsets"]);
        assert_eq!(args.get("out"), Some("dir"));
    }

    #[test]
    fn malformed_options_are_refused() {
        for (raw, message) in [
            (&["--horizn", "3"][..], "unknown option `--horizn`"),
            (&["--shard_size", "8"], "unknown option `--shard_size`"),
            (&["--tasks"], "--tasks needs a value"),
            (&["--tasks", "--quick"], "--tasks needs a value"),
            (&["--tasks", "1", "--tasks", "2"], "--tasks is given twice"),
        ] {
            assert_eq!(parse(raw).unwrap_err().0, message);
        }
    }

    #[test]
    fn typed_errors() {
        let args = parse(&["--tasks", "eight"]).unwrap();
        assert!(args.opt::<usize>("tasks", 0).is_err());
        assert_eq!(args.opt::<usize>("out", 7).unwrap(), 7);
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        // A minus-prefixed value does not start with `--`, so it binds.
        let args = parse(&["--phase", "-1.5"]).unwrap();
        assert_eq!(args.get("phase"), Some("-1.5"));
    }
}
