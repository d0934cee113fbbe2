//! Minimal shared CLI handling for the artifact bins: flag lookup plus
//! the `--json <path>` structured-output convention.

use serde::Serialize;
use std::cmp::Ordering;
use std::fmt::Display;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// The command-line arguments of one artifact bin.
#[derive(Debug, Clone)]
pub struct BinArgs {
    args: Vec<String>,
}

impl BinArgs {
    /// Captures the process arguments.
    pub fn parse() -> Self {
        BinArgs {
            args: std::env::args().skip(1).collect(),
        }
    }

    /// A `BinArgs` over explicit arguments (tests).
    pub fn from_vec(args: Vec<String>) -> Self {
        BinArgs { args }
    }

    /// The value following `flag` (e.g. `value_of("--entries")`).
    pub fn value_of(&self, flag: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// The value of the numeric flag `flag`, or `None` when the flag is
    /// absent. A missing value, one that does not parse as `T`, or one
    /// below `min` ends the process with exit status 2 and a message
    /// naming the flag and the value.
    pub fn number<T: FromStr + PartialOrd + Display>(&self, flag: &str, min: T) -> Option<T> {
        self.try_number(flag, min).unwrap_or_else(|msg| {
            eprintln!("error: {msg}");
            std::process::exit(2)
        })
    }

    /// [`BinArgs::number`], returning the message instead of exiting.
    fn try_number<T: FromStr + PartialOrd + Display>(
        &self,
        flag: &str,
        min: T,
    ) -> Result<Option<T>, String> {
        if !self.has_flag(flag) {
            return Ok(None);
        }
        let raw = self.value_of(flag).unwrap_or("");
        match raw.parse::<T>() {
            // A NaN float compares as `None`: rejected like a too-small value.
            Ok(v) if v.partial_cmp(&min).is_some_and(Ordering::is_ge) => Ok(Some(v)),
            Ok(_) => Err(format!("{flag} must be at least {min}, got '{raw}'")),
            Err(_) => Err(format!(
                "{flag} takes a number (at least {min}), got '{raw}'"
            )),
        }
    }

    /// The `--json <path>` output path, if requested.
    pub fn json_path(&self) -> Option<PathBuf> {
        self.value_of("--json").map(PathBuf::from)
    }

    /// `true` when the boolean switch `flag` is present.
    pub fn has_flag(&self, flag: &str) -> bool {
        self.args.iter().any(|a| a == flag)
    }

    /// Positional (non-flag) arguments, in order. Every `--flag` consumes
    /// the token after it as its value (all of the bins' flags do).
    pub fn positional(&self) -> Vec<&str> {
        self.positional_with(&[])
    }

    /// [`BinArgs::positional`] where the flags in `switches` are boolean
    /// (they consume no value token).
    pub fn positional_with(&self, switches: &[&str]) -> Vec<&str> {
        let mut out = Vec::new();
        let mut i = 0;
        while i < self.args.len() {
            if self.args[i].starts_with("--") {
                i += if switches.contains(&self.args[i].as_str()) {
                    1
                } else {
                    2
                };
            } else {
                out.push(self.args[i].as_str());
                i += 1;
            }
        }
        out
    }
}

/// Writes `value` as pretty-printed JSON to `path` and tells the user —
/// the bins' structured-output path (`BENCH_*.json`).
///
/// # Panics
///
/// Panics when the file cannot be written; the bins treat an explicitly
/// requested artifact path that fails as a hard error.
pub fn write_json<T: Serialize>(path: &Path, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("grid results serialize");
    std::fs::write(path, json + "\n")
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    eprintln!("wrote {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_lookup() {
        let args = BinArgs::from_vec(vec![
            "--entries".to_string(),
            "2".to_string(),
            "--json".to_string(),
            "out.json".to_string(),
        ]);
        assert_eq!(args.value_of("--entries"), Some("2"));
        assert_eq!(args.json_path(), Some(PathBuf::from("out.json")));
        assert_eq!(args.value_of("--missing"), None);
    }

    #[test]
    fn numeric_flags_parse_or_name_the_bad_value() {
        let args = |v: &[&str]| BinArgs::from_vec(v.iter().map(|s| s.to_string()).collect());
        assert_eq!(args(&[]).try_number("--entries", 1usize), Ok(None));
        assert_eq!(
            args(&["--entries", "2"]).try_number("--entries", 1usize),
            Ok(Some(2))
        );
        assert_eq!(
            args(&["--threshold", "0.05"]).try_number("--threshold", 0.0),
            Ok(Some(0.05))
        );
        for (bad, needle) in [
            (&["--entries", "two"][..], "'two'"),
            (&["--entries", "0"], "at least 1, got '0'"),
            (&["--entries", "-3"], "'-3'"),
            (&["--entries"], "got ''"),
        ] {
            let msg = args(bad).try_number("--entries", 1usize).unwrap_err();
            assert!(
                msg.starts_with("--entries") && msg.contains(needle),
                "{msg}"
            );
        }
        let nan = args(&["--threshold", "NaN"]).try_number("--threshold", 0.0);
        assert!(nan.is_err(), "{nan:?}");
    }

    #[test]
    fn trailing_flag_without_value_is_none() {
        let args = BinArgs::from_vec(vec!["--json".to_string()]);
        assert_eq!(args.json_path(), None);
    }

    #[test]
    fn positional_args_skip_flags_and_their_values() {
        let args = BinArgs::from_vec(
            ["a.json", "--threshold", "0.05", "b.json"]
                .map(String::from)
                .to_vec(),
        );
        assert_eq!(args.positional(), vec!["a.json", "b.json"]);
    }

    #[test]
    fn boolean_switches_consume_no_value() {
        let args = BinArgs::from_vec(
            ["--trend", "a.json", "b.json", "c.json"]
                .map(String::from)
                .to_vec(),
        );
        assert!(args.has_flag("--trend"));
        assert!(!args.has_flag("--other"));
        assert_eq!(
            args.positional_with(&["--trend"]),
            vec!["a.json", "b.json", "c.json"],
            "switch swallows nothing"
        );
        // without the hint, --trend would (wrongly) eat a.json
        assert_eq!(args.positional(), vec!["b.json", "c.json"]);
    }

    #[test]
    fn write_json_emits_parseable_output() {
        let dir = std::env::temp_dir().join("vliw-bench-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cells.json");
        write_json(&path, &vec![1u32, 2, 3]);
        let text = std::fs::read_to_string(&path).unwrap();
        let back: Vec<u32> = serde_json::from_str(text.trim()).unwrap();
        assert_eq!(back, vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).ok();
    }
}
