//! A tiny, dependency-free option parser: `--key value` flags, `--flag`
//! booleans, and positional arguments, with typed accessors.

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
    /// Parses a raw argument list (without the program name).
    ///
    /// A token starting with `--` is a flag; if the *next* token exists and
    /// does not itself start with `--`, it becomes the flag's value.
    pub fn parse<I, S>(raw: I) -> Args
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let tokens: Vec<String> = raw.into_iter().map(Into::into).collect();
        let mut args = Args::default();
        let mut i = 0;
        while i < tokens.len() {
            let token = &tokens[i];
            if let Some(name) = token.strip_prefix("--") {
                if i + 1 < tokens.len() && !tokens[i + 1].starts_with("--") {
                    args.options.insert(name.to_string(), tokens[i + 1].clone());
                    i += 2;
                } else {
                    args.flags.push(name.to_string());
                    i += 1;
                }
            } else {
                args.positional.push(token.clone());
                i += 1;
            }
        }
        args
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

    #[test]
    fn parses_mixture() {
        let args = Args::parse([
            "run",
            "--tasks",
            "8",
            "--quick",
            "--governors",
            "a,b , c",
            "fig1",
        ]);
        assert_eq!(args.positional(), ["run", "fig1"]);
        assert_eq!(args.opt::<usize>("tasks", 0).unwrap(), 8);
        assert!(args.flag("quick"));
        assert!(!args.flag("verbose"));
        assert_eq!(args.list("governors"), vec!["a", "b", "c"]);
        assert!(args.list("missing").is_empty());
    }

    #[test]
    fn flag_followed_by_flag() {
        let args = Args::parse(["--quick", "--out", "dir", "--dry-run"]);
        assert!(args.flag("quick"));
        assert!(args.flag("dry-run"));
        assert_eq!(args.get("out"), Some("dir"));
    }

    #[test]
    fn typed_errors() {
        let args = Args::parse(["--tasks", "eight"]);
        assert!(args.opt::<usize>("tasks", 0).is_err());
        assert_eq!(args.opt::<usize>("absent", 7).unwrap(), 7);
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        // A minus-prefixed value does not start with `--`, so it binds.
        let args = Args::parse(["--phase", "-1.5"]);
        assert_eq!(args.get("phase"), Some("-1.5"));
    }
}
