//! Minimal `--key value` argument parsing.
//!
//! The workspace's allowed dependency set has no argument-parsing crate, so
//! the CLI rolls the small subset it needs: one positional subcommand
//! followed by `--key value` options and bare `--flag` switches. Every
//! command validates its option names against an allowlist so typos fail
//! loudly instead of silently falling back to defaults.

use std::collections::BTreeMap;

/// Parsed command line: subcommand plus options.
#[derive(Debug, Clone, Default)]
pub struct Args {
    sub: String,
    kv: BTreeMap<String, String>,
    flags: Vec<String>,
}

/// Errors produced while parsing or typing option values.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingSubcommand,
    /// Token didn't look like `--key`.
    UnexpectedToken(String),
    /// Required option absent.
    Missing(String),
    /// Option value failed to parse as the requested type.
    BadValue {
        key: String,
        value: String,
        expected: &'static str,
    },
    /// Option name not in the command's allowlist.
    Unknown(String),
}

impl std::fmt::Display for ArgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ArgError::MissingSubcommand => write!(f, "missing subcommand"),
            ArgError::UnexpectedToken(t) => write!(f, "unexpected token '{t}' (expected --key)"),
            ArgError::Missing(k) => write!(f, "missing required option --{k}"),
            ArgError::BadValue {
                key,
                value,
                expected,
            } => {
                write!(f, "--{key} {value}: expected {expected}")
            }
            ArgError::Unknown(k) => write!(f, "unknown option --{k}"),
        }
    }
}

impl std::error::Error for ArgError {}

impl Args {
    /// Parses `tokens` (argv without the program name).
    pub fn parse<I, S>(tokens: I) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut it = tokens.into_iter().map(Into::into).peekable();
        let sub = it.next().ok_or(ArgError::MissingSubcommand)?;
        if sub.starts_with("--") {
            return Err(ArgError::UnexpectedToken(sub));
        }
        let mut kv = BTreeMap::new();
        let mut flags = Vec::new();
        while let Some(tok) = it.next() {
            let key = tok
                .strip_prefix("--")
                .ok_or_else(|| ArgError::UnexpectedToken(tok.clone()))?
                .to_string();
            match it.peek() {
                Some(next) if !next.starts_with("--") => {
                    let val = it.next().expect("peeked");
                    kv.insert(key, val);
                }
                _ => flags.push(key),
            }
        }
        Ok(Self { sub, kv, flags })
    }

    /// The positional subcommand.
    pub fn subcommand(&self) -> &str {
        &self.sub
    }

    /// Raw string option.
    pub fn str(&self, key: &str) -> Option<&str> {
        self.kv.get(key).map(String::as_str)
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, ArgError> {
        self.str(key).ok_or_else(|| ArgError::Missing(key.into()))
    }

    fn typed<T: std::str::FromStr>(
        &self,
        key: &str,
        expected: &'static str,
    ) -> Result<Option<T>, ArgError> {
        match self.kv.get(key) {
            None => Ok(None),
            Some(v) => v.parse::<T>().map(Some).map_err(|_| ArgError::BadValue {
                key: key.into(),
                value: v.clone(),
                expected,
            }),
        }
    }

    /// `usize` option with a default.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, ArgError> {
        Ok(self
            .typed::<usize>(key, "an unsigned integer")?
            .unwrap_or(default))
    }

    /// `u64` option with a default.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, ArgError> {
        Ok(self
            .typed::<u64>(key, "an unsigned integer")?
            .unwrap_or(default))
    }

    /// Optional `u64` (present/absent matters, e.g. `--index`).
    pub fn u64_opt(&self, key: &str) -> Result<Option<u64>, ArgError> {
        self.typed::<u64>(key, "an unsigned integer")
    }

    /// `f64` option with a default.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, ArgError> {
        Ok(self.typed::<f64>(key, "a number")?.unwrap_or(default))
    }

    /// Optional `f64` (present/absent matters, e.g. `--revenue`).
    pub fn f64_opt(&self, key: &str) -> Result<Option<f64>, ArgError> {
        self.typed::<f64>(key, "a number")
    }

    /// Bare switch (`--verbose`).
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Rejects any option or flag not in `allowed` — catches misspellings.
    pub fn expect_only(&self, allowed: &[&str]) -> Result<(), ArgError> {
        for k in self.kv.keys().chain(self.flags.iter()) {
            if !allowed.contains(&k.as_str()) {
                return Err(ArgError::Unknown(k.clone()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_subcommand_options_and_flags() {
        let a = Args::parse(["value", "--train", "t.csv", "--k", "3", "--verbose"]).unwrap();
        assert_eq!(a.subcommand(), "value");
        assert_eq!(a.str("train"), Some("t.csv"));
        assert_eq!(a.usize_or("k", 1).unwrap(), 3);
        assert!(a.flag("verbose"));
        assert!(!a.flag("quiet"));
    }

    #[test]
    fn defaults_apply_when_absent() {
        let a = Args::parse(["synth"]).unwrap();
        assert_eq!(a.usize_or("n", 100).unwrap(), 100);
        assert_eq!(a.f64_or("eps", 0.1).unwrap(), 0.1);
        assert_eq!(a.u64_or("seed", 7).unwrap(), 7);
        assert_eq!(a.f64_opt("revenue").unwrap(), None);
    }

    #[test]
    fn negative_numbers_are_values_not_flags() {
        let a = Args::parse(["synth", "--shift", "-1.5"]).unwrap();
        assert_eq!(a.f64_or("shift", 0.0).unwrap(), -1.5);
    }

    #[test]
    fn missing_subcommand_is_an_error() {
        assert_eq!(
            Args::parse(Vec::<String>::new()).unwrap_err(),
            ArgError::MissingSubcommand
        );
        assert!(matches!(
            Args::parse(["--k", "3"]).unwrap_err(),
            ArgError::UnexpectedToken(_)
        ));
    }

    #[test]
    fn required_and_badly_typed_options() {
        let a = Args::parse(["value", "--k", "three"]).unwrap();
        assert_eq!(
            a.require("train").unwrap_err(),
            ArgError::Missing("train".into())
        );
        assert!(matches!(a.usize_or("k", 1), Err(ArgError::BadValue { .. })));
    }

    #[test]
    fn allowlist_rejects_typos() {
        let a = Args::parse(["value", "--trian", "x.csv"]).unwrap();
        assert_eq!(
            a.expect_only(&["train", "test"]).unwrap_err(),
            ArgError::Unknown("trian".into())
        );
        let ok = Args::parse(["value", "--train", "x.csv", "--fast"]).unwrap();
        assert!(ok.expect_only(&["train", "fast"]).is_ok());
    }

    #[test]
    fn positional_after_flag_becomes_its_value() {
        // `--flag sub` style ambiguity is resolved toward key/value; callers
        // that want switches put them last or use dedicated names.
        let a = Args::parse(["audit", "--verbose", "--inspect", "5"]).unwrap();
        assert!(a.flag("verbose"));
        assert_eq!(a.usize_or("inspect", 0).unwrap(), 5);
    }
}
