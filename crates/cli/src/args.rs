//! Minimal dependency-free argument parsing for the `real` CLI.

use std::collections::HashMap;
use std::fmt;

/// A parsed command line: the subcommand plus `--key value` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    command: String,
    flags: HashMap<String, String>,
}

/// Errors from parsing or flag extraction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// No subcommand given.
    MissingCommand,
    /// A `--flag` with no value followed (and it is not a boolean flag).
    MissingValue(String),
    /// A positional argument appeared where a flag was expected.
    Unexpected(String),
    /// A `--flag` no command reads.
    Unknown(String),
    /// A flag value failed to parse.
    BadValue {
        /// Flag name.
        flag: String,
        /// Offending value.
        value: String,
        /// Expected type.
        expected: &'static str,
    },
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingCommand => write!(f, "missing subcommand; try `real help`"),
            ArgError::MissingValue(flag) => write!(f, "flag --{flag} needs a value"),
            ArgError::Unexpected(arg) => write!(f, "unexpected argument: {arg}"),
            ArgError::Unknown(flag) => write!(f, "unknown flag --{flag}"),
            ArgError::BadValue {
                flag,
                value,
                expected,
            } => {
                write!(f, "--{flag}: cannot parse {value:?} as {expected}")
            }
        }
    }
}

impl std::error::Error for ArgError {}

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] = &[
    "no-cuda-graph",
    "quick-profile",
    "json",
    "heuristic",
    "explain",
    "replan",
    "dry-run",
    "check",
    "memo-stats",
    "async-offpolicy",
    "admit-all",
    "no-preemption",
    "spec-decode",
    "no-spec",
];

/// Flags that take a value.
const VALUE_FLAGS: &[&str] = &[
    "nodes",
    "actor",
    "critic",
    "algo",
    "batch",
    "ctx-scale",
    "seed",
    "graph",
    "steps",
    "time",
    "chains",
    "threads",
    "draft-model",
    "spec-k",
    "acceptance",
    "out",
    "checkpoint",
    "from",
    "iters",
    "plan",
    "trace",
    "metrics",
    "profile-db",
    "faults",
    "max-retries",
    "replan-steps",
    "dead-after",
    "staleness",
    "top",
    "baseline",
    "tolerance-pct",
    "model",
    "max-nodes",
    "tenants",
    "score-steps",
    "max-stretch",
    "workload",
    "horizon",
    "probe-steps",
    "file",
];

impl Args {
    /// Parses `argv` (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ArgError`] on a missing command, a flag without a value,
    /// a flag no command reads, or a stray positional argument.
    pub fn parse<I, S>(argv: I) -> Result<Self, ArgError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut it = argv.into_iter().map(Into::into).peekable();
        let command = it.next().ok_or(ArgError::MissingCommand)?;
        if command.starts_with('-') {
            return Err(ArgError::MissingCommand);
        }
        let mut flags = HashMap::new();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(ArgError::Unexpected(arg));
            };
            if BOOLEAN_FLAGS.contains(&name) {
                flags.insert(name.to_string(), "true".to_string());
                continue;
            }
            if !VALUE_FLAGS.contains(&name) {
                return Err(ArgError::Unknown(name.to_string()));
            }
            match it.next() {
                Some(v) if !v.starts_with("--") => {
                    flags.insert(name.to_string(), v);
                }
                _ => return Err(ArgError::MissingValue(name.to_string())),
            }
        }
        Ok(Self { command, flags })
    }

    /// The subcommand.
    pub fn command(&self) -> &str {
        &self.command
    }

    /// A string flag with a default.
    pub fn str_or(&self, flag: &str, default: &str) -> String {
        self.flags
            .get(flag)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// An optional string flag.
    pub fn str_opt(&self, flag: &str) -> Option<&str> {
        self.flags.get(flag).map(String::as_str)
    }

    /// A parsed numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Returns [`ArgError::BadValue`] when present but unparsable.
    pub fn num_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, ArgError> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| ArgError::BadValue {
                flag: flag.to_string(),
                value: v.clone(),
                expected: std::any::type_name::<T>(),
            }),
        }
    }

    /// A boolean flag (present → true).
    pub fn flag(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    /// Overrides a flag value (used by commands that re-run the flag set
    /// with a substituted parameter, e.g. `advise` sweeping `--nodes`).
    pub fn set(&mut self, flag: &str, value: impl Into<String>) {
        self.flags.insert(flag.to_string(), value.into());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_command_and_flags() {
        let a = Args::parse(["plan", "--nodes", "2", "--actor", "7b"]).unwrap();
        assert_eq!(a.command(), "plan");
        assert_eq!(a.num_or("nodes", 1u32).unwrap(), 2);
        assert_eq!(a.str_or("actor", "13b"), "7b");
        assert_eq!(a.str_or("critic", "7b"), "7b"); // default
    }

    #[test]
    fn boolean_flags_take_no_value() {
        let a = Args::parse(["run", "--no-cuda-graph", "--iters", "3"]).unwrap();
        assert!(a.flag("no-cuda-graph"));
        assert_eq!(a.num_or("iters", 1u32).unwrap(), 3);
        assert!(!a.flag("json"));
    }

    #[test]
    fn missing_command_rejected() {
        assert_eq!(
            Args::parse(Vec::<String>::new()).unwrap_err(),
            ArgError::MissingCommand
        );
        assert_eq!(
            Args::parse(["--nodes"]).unwrap_err(),
            ArgError::MissingCommand
        );
    }

    #[test]
    fn missing_value_rejected() {
        let e = Args::parse(["plan", "--nodes"]).unwrap_err();
        assert_eq!(e, ArgError::MissingValue("nodes".into()));
        let e = Args::parse(["plan", "--nodes", "--actor", "7b"]).unwrap_err();
        assert_eq!(e, ArgError::MissingValue("nodes".into()));
    }

    #[test]
    fn positional_rejected() {
        let e = Args::parse(["plan", "oops"]).unwrap_err();
        assert_eq!(e, ArgError::Unexpected("oops".into()));
    }

    #[test]
    fn unknown_flag_rejected() {
        let e = Args::parse(["plan", "--nodes", "1", "--stpes", "5"]).unwrap_err();
        assert_eq!(e, ArgError::Unknown("stpes".into()));
        let e = Args::parse(["plan", "--memo-in", "x.json"]).unwrap_err();
        assert_eq!(e.to_string(), "unknown flag --memo-in");
    }

    /// The flags the parser accepts are exactly the flags `real help`
    /// documents.
    #[test]
    fn known_flags_are_the_usage_flags() {
        use std::collections::BTreeSet;
        let usage: BTreeSet<&str> = crate::commands::USAGE
            .lines()
            .filter(|line| !line.starts_with("USAGE:"))
            .flat_map(|line| line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-')))
            .filter_map(|word| word.strip_prefix("--"))
            .collect();
        let known: BTreeSet<&str> = BOOLEAN_FLAGS.iter().chain(VALUE_FLAGS).copied().collect();
        assert_eq!(known.len(), BOOLEAN_FLAGS.len() + VALUE_FLAGS.len());
        assert_eq!(
            usage.difference(&known).collect::<Vec<_>>(),
            Vec::<&&str>::new()
        );
        assert_eq!(
            known.difference(&usage).collect::<Vec<_>>(),
            Vec::<&&str>::new()
        );
    }

    #[test]
    fn bad_numeric_value() {
        let a = Args::parse(["plan", "--nodes", "two"]).unwrap();
        assert!(matches!(
            a.num_or("nodes", 1u32),
            Err(ArgError::BadValue { .. })
        ));
    }
}
