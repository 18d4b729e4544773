//! Loading layer for `trace-report`: turns every way a telemetry capture
//! can be missing or damaged into a typed [`ReportError`] with an
//! actionable message, so the CLI exits cleanly instead of panicking or
//! silently skipping.
//!
//! Failure taxonomy:
//!
//! * [`ReportError::MissingDir`] — the results directory does not exist
//!   (nothing was ever run, or the wrong `OUT_DIR_RESULTS`);
//! * [`ReportError::NoFiles`] — the directory exists but holds no
//!   `*_telemetry.json` (experiments ran with `TELEMETRY=off`, or only
//!   result JSONs were kept);
//! * [`ReportError::Unreadable`] — a named file cannot be read at all
//!   (typo on the command line, permissions);
//! * [`ReportError::Malformed`] — the file reads but is not a valid
//!   telemetry JSONL stream — the classic case is a capture truncated by
//!   a killed run, which the line-numbered parser error pinpoints.

use std::fmt;
use std::path::{Path, PathBuf};
use telemetry::RunTelemetry;

use crate::ExperimentResult;
use simnet::Checkpoint;

/// Why `trace-report` could not produce a report.
#[derive(Debug)]
pub enum ReportError {
    /// The results directory is absent.
    MissingDir(PathBuf),
    /// The results directory exists but contains no telemetry captures.
    NoFiles(PathBuf),
    /// A file named on the command line cannot be read.
    Unreadable {
        /// The offending path.
        path: PathBuf,
        /// The I/O error text.
        reason: String,
    },
    /// A telemetry file is not a valid JSONL capture (e.g. truncated).
    Malformed {
        /// The offending path.
        path: PathBuf,
        /// Parser error, including the line number.
        reason: String,
    },
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReportError::MissingDir(dir) => write!(
                f,
                "results directory {} does not exist — run an experiment binary first \
                 (e.g. `cargo run --release -p reconfig-bench --bin exp -- E1`), \
                 or point OUT_DIR_RESULTS at an existing capture directory",
                dir.display()
            ),
            ReportError::NoFiles(dir) => write!(
                f,
                "no *_telemetry.json files under {} — experiments write them unless telemetry \
                 is disabled (TELEMETRY=off)",
                dir.display()
            ),
            ReportError::Unreadable { path, reason } => {
                write!(f, "cannot read {}: {reason}", path.display())
            }
            ReportError::Malformed { path, reason } => write!(
                f,
                "{} is not a valid telemetry capture ({reason}) — the file may have been \
                 truncated by an interrupted run; re-run the experiment to regenerate it",
                path.display()
            ),
        }
    }
}

impl std::error::Error for ReportError {}

/// A fully loaded capture: the telemetry stream plus the sibling
/// `results/<id>.json` record when one exists.
pub struct LoadedRun {
    /// Where the capture was read from.
    pub path: PathBuf,
    /// The parsed telemetry.
    pub run: RunTelemetry,
    /// Title/claim from the sibling experiment record, when present.
    pub result: Option<ExperimentResult>,
}

fn scan_dir(dir: &Path) -> Result<Vec<PathBuf>, ReportError> {
    if !dir.exists() {
        return Err(ReportError::MissingDir(dir.to_path_buf()));
    }
    let entries = std::fs::read_dir(dir)
        .map_err(|e| ReportError::Unreadable { path: dir.to_path_buf(), reason: e.to_string() })?;
    let mut paths: Vec<PathBuf> = entries
        .flatten()
        .map(|entry| entry.path())
        .filter(|p| {
            p.file_name().and_then(|n| n.to_str()).is_some_and(|n| n.ends_with("_telemetry.json"))
        })
        .collect();
    if paths.is_empty() {
        return Err(ReportError::NoFiles(dir.to_path_buf()));
    }
    paths.sort();
    Ok(paths)
}

/// Resolve the capture files to report on: explicit arguments (files
/// verbatim, directories scanned), or the default directory when no
/// arguments are given. A named file that does not exist is an error here
/// — not at load time — so typos fail fast with the path spelled out.
pub fn collect_paths(args: &[String], default_dir: &Path) -> Result<Vec<PathBuf>, ReportError> {
    if args.is_empty() {
        return scan_dir(default_dir);
    }
    let mut paths = Vec::new();
    for a in args {
        let p = PathBuf::from(a);
        if p.is_dir() {
            paths.extend(scan_dir(&p)?);
        } else if p.exists() {
            paths.push(p);
        } else {
            return Err(ReportError::Unreadable {
                path: p,
                reason: "no such file or directory".into(),
            });
        }
    }
    paths.sort();
    Ok(paths)
}

/// Load one capture, distinguishing unreadable files from malformed
/// (truncated) ones. The sibling experiment record is best-effort: its
/// absence or damage never fails the telemetry report.
pub fn load_run(path: &Path) -> Result<LoadedRun, ReportError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ReportError::Unreadable { path: path.to_path_buf(), reason: e.to_string() })?;
    let run = RunTelemetry::from_jsonl(&text)
        .map_err(|e| ReportError::Malformed { path: path.to_path_buf(), reason: e })?;
    let result = run.meta("experiment").and_then(|id| {
        let sibling = path.with_file_name(format!("{}.json", id.to_lowercase()));
        let text = std::fs::read_to_string(sibling).ok()?;
        let v = serde_json::from_str(&text).ok()?;
        ExperimentResult::load(&v).ok()
    });
    Ok(LoadedRun { path: path.to_path_buf(), run, result })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("bench-report-tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn missing_results_dir_is_a_clear_error() {
        let dir = std::env::temp_dir().join("bench-report-tests/definitely-absent");
        let _ = std::fs::remove_dir_all(&dir);
        let err = collect_paths(&[], &dir).unwrap_err();
        assert!(matches!(err, ReportError::MissingDir(_)));
        let msg = err.to_string();
        assert!(msg.contains("does not exist") && msg.contains("run an experiment"), "{msg}");
    }

    #[test]
    fn empty_results_dir_is_a_clear_error() {
        let dir = tmp("empty");
        std::fs::write(dir.join("e1.json"), "{}").unwrap(); // result, not telemetry
        let err = collect_paths(&[], &dir).unwrap_err();
        assert!(matches!(err, ReportError::NoFiles(_)));
        assert!(err.to_string().contains("*_telemetry.json"), "{err}");
    }

    #[test]
    fn named_missing_file_fails_fast() {
        let args = vec!["results/nope_telemetry.json".to_string()];
        let err = collect_paths(&args, Path::new("results")).unwrap_err();
        assert!(matches!(err, ReportError::Unreadable { .. }));
        assert!(err.to_string().contains("nope_telemetry.json"), "{err}");
    }

    #[test]
    fn truncated_telemetry_is_malformed_not_a_panic() {
        // Regression: a capture cut off mid-record (killed run) must load
        // as a line-numbered Malformed error, never a panic.
        let dir = tmp("truncated");
        let tel = telemetry::Telemetry::new(telemetry::Config::default());
        tel.counter("net.rounds", &[]).add(3);
        let full = tel.capture(&[("experiment", "EX")]).to_jsonl();
        // Chop the tail off the final record so the last line is half a
        // JSON object, as a killed writer leaves it.
        let trimmed = full.trim_end();
        let cut = &trimmed[..trimmed.len() - 3];
        let path = dir.join("ex_telemetry.json");
        std::fs::write(&path, cut).unwrap();
        let err = match load_run(&path) {
            Err(e) => e,
            Ok(_) => panic!("truncated capture loaded cleanly"),
        };
        assert!(matches!(err, ReportError::Malformed { .. }), "got: {err}");
        let msg = err.to_string();
        assert!(msg.contains("line") && msg.contains("truncated"), "{msg}");
    }

    #[test]
    fn valid_capture_round_trips_through_load() {
        let dir = tmp("valid");
        let tel = telemetry::Telemetry::new(telemetry::Config::default());
        tel.counter("net.delivered", &[]).add(41);
        let run = tel.capture(&[("experiment", "EY")]);
        let path = dir.join("ey_telemetry.json");
        std::fs::write(&path, run.to_jsonl()).unwrap();
        let loaded = load_run(&path).unwrap();
        assert_eq!(loaded.run.meta("experiment"), Some("EY"));
        assert_eq!(loaded.run.snapshot.counter("net.delivered"), 41);
        assert!(loaded.result.is_none());
        // And the directory scan finds exactly this file.
        let paths = collect_paths(&[], &dir).unwrap();
        assert_eq!(paths, vec![path]);
    }
}
