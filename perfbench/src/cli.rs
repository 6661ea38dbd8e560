//! Command-line parsing. Every argument is checked before any work
//! starts, and a rejected command line produces a typed error and no
//! output files.

use crate::workloads::Workload;
use std::fmt;

/// Longest measured interval a run accepts, in seconds.
pub const MAX_SECONDS: u64 = 600;

/// A validated command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed all generated inputs derive from.
    pub seed: u64,
    /// How long the measured loop runs, in seconds (at least one pass
    /// always completes).
    pub seconds: u64,
    /// Traced run (per-layer metrics) instead of untraced (end-to-end).
    pub trace: bool,
}

/// Why a command line was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgError {
    /// A flag this benchmark does not know.
    UnknownFlag(String),
    /// A flag given without its value.
    MissingValue(&'static str),
    /// A flag given twice.
    Duplicate(&'static str),
    /// A required flag that was not given.
    Missing(&'static str),
    /// `--workload` names no workload.
    UnknownWorkload(String),
    /// `--seed` is not a non-negative 64-bit integer.
    BadSeed(String),
    /// `--seconds` is not an integer in `1..=MAX_SECONDS`.
    BadSeconds(String),
    /// `--trace` is neither `0` nor `1`.
    BadTrace(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::UnknownFlag(s) => write!(f, "unknown flag `{s}`"),
            ArgError::MissingValue(flag) => write!(f, "flag `{flag}` needs a value"),
            ArgError::Duplicate(flag) => write!(f, "flag `{flag}` given more than once"),
            ArgError::Missing(flag) => write!(f, "required flag `{flag}` missing"),
            ArgError::UnknownWorkload(s) => write!(
                f,
                "unknown workload `{s}` (expected one of: {})",
                Workload::ALL.map(Workload::name).join(", ")
            ),
            ArgError::BadSeed(s) => write!(f, "seed `{s}` is not an unsigned 64-bit integer"),
            ArgError::BadSeconds(s) => {
                write!(f, "seconds `{s}` is not an integer in 1..={MAX_SECONDS}")
            }
            ArgError::BadTrace(s) => write!(f, "trace `{s}` must be 0 or 1"),
        }
    }
}

impl std::error::Error for ArgError {}

/// The usage line printed next to a rejection.
pub const USAGE: &str = "usage: perfbench --workload <audit_batch|fleet_reconcile|scale_pipeline> \
     --seed <u64> --seconds <1..=600> --trace <0|1>";

/// Parses the arguments after the program name.
pub fn parse<I, S>(args: I) -> Result<Args, ArgError>
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let arg = arg.as_ref();
        let flag: &'static str = match arg {
            "--workload" => "--workload",
            "--seed" => "--seed",
            "--seconds" => "--seconds",
            "--trace" => "--trace",
            other => return Err(ArgError::UnknownFlag(other.to_string())),
        };
        let value = it.next().ok_or(ArgError::MissingValue(flag))?;
        let value = value.as_ref();
        let duplicate = match flag {
            "--workload" => workload.replace(parse_workload(value)?).is_some(),
            "--seed" => seed.replace(parse_seed(value)?).is_some(),
            "--seconds" => seconds.replace(parse_seconds(value)?).is_some(),
            _ => trace.replace(parse_trace(value)?).is_some(),
        };
        if duplicate {
            return Err(ArgError::Duplicate(flag));
        }
    }
    Ok(Args {
        workload: workload.ok_or(ArgError::Missing("--workload"))?,
        seed: seed.ok_or(ArgError::Missing("--seed"))?,
        seconds: seconds.ok_or(ArgError::Missing("--seconds"))?,
        trace: trace.ok_or(ArgError::Missing("--trace"))?,
    })
}

fn parse_workload(s: &str) -> Result<Workload, ArgError> {
    Workload::from_name(s).ok_or_else(|| ArgError::UnknownWorkload(s.to_string()))
}

fn parse_seed(s: &str) -> Result<u64, ArgError> {
    // `u64::from_str` accepts a leading `+`; a seed is digits only.
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return Err(ArgError::BadSeed(s.to_string()));
    }
    s.parse().map_err(|_| ArgError::BadSeed(s.to_string()))
}

fn parse_seconds(s: &str) -> Result<u64, ArgError> {
    match s.parse::<u64>() {
        Ok(n) if (1..=MAX_SECONDS).contains(&n) && !s.starts_with('+') => Ok(n),
        _ => Err(ArgError::BadSeconds(s.to_string())),
    }
}

fn parse_trace(s: &str) -> Result<bool, ArgError> {
    match s {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(ArgError::BadTrace(s.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, ArgError> {
        parse(s.split_whitespace())
    }

    #[test]
    fn accepts_a_full_command_line() {
        let a = args("--workload scale_pipeline --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::ScalePipeline);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 20, true));
    }

    #[test]
    fn rejects_bad_values_with_typed_errors() {
        let base = "--seconds 5 --trace 0";
        assert_eq!(
            args(&format!("--workload bogus --seed 1 {base}")),
            Err(ArgError::UnknownWorkload("bogus".into()))
        );
        for seed in ["-1", "+3", "1e3", "18446744073709551616", "x"] {
            assert_eq!(
                args(&format!("--workload audit_batch --seed {seed} {base}")),
                Err(ArgError::BadSeed(seed.into()))
            );
        }
        assert_eq!(
            args("--workload audit_batch --seed 1 --seconds 0 --trace 0"),
            Err(ArgError::BadSeconds("0".into()))
        );
        assert_eq!(
            args("--workload audit_batch --seed 1 --seconds 5 --trace 2"),
            Err(ArgError::BadTrace("2".into()))
        );
        assert_eq!(
            args("--workload audit_batch --seed 1 --seconds 5"),
            Err(ArgError::Missing("--trace"))
        );
        assert_eq!(
            args("--workload audit_batch --seed 1 --seed 2 --seconds 5 --trace 0"),
            Err(ArgError::Duplicate("--seed"))
        );
        assert_eq!(
            args("--workload"),
            Err(ArgError::MissingValue("--workload"))
        );
        assert_eq!(
            args("--verbose"),
            Err(ArgError::UnknownFlag("--verbose".into()))
        );
    }
}
