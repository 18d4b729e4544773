//! Experiment-harness telemetry plumbing.
//!
//! The driver hands every experiment one recorder, configured from the
//! `TELEMETRY*` env knobs (see the `telemetry` crate docs):
//! `TELEMETRY=off` disables it (every recording call is a no-op and no
//! file is written), `TELEMETRY_TIMING=1` adds wall-clock span/phase
//! timings, which are machine-dependent; a misspelt value is a
//! [`crate::driver::RunError`] before the experiment starts. A
//! telemetry-wired experiment threads it through its instrumented
//! runners, and the driver finishes with [`write_telemetry`], which
//! captures the recorder into
//! `results/<id>_telemetry.json` (JSONL, one record per line) next to the
//! experiment's `results/<id>.json`. The `trace-report` binary renders
//! these files back into tables.

use std::path::{Path, PathBuf};
use telemetry::Telemetry;

/// Capture `tel` into `results/<id>_telemetry.json` (or under
/// `OUT_DIR_RESULTS` if set), stamping the experiment id plus `meta` into
/// the meta record. Returns `None` without touching the filesystem when
/// the recorder is disabled.
pub fn write_telemetry(
    id: &str,
    tel: &Telemetry,
    meta: &[(&str, &str)],
) -> std::io::Result<Option<PathBuf>> {
    if !tel.enabled() {
        return Ok(None);
    }
    let mut full: Vec<(&str, &str)> = vec![("experiment", id)];
    full.extend_from_slice(meta);
    let run = tel.capture(&full);
    let dir = std::env::var("OUT_DIR_RESULTS").unwrap_or_else(|_| "results".to_string());
    let path = Path::new(&dir).join(format!("{}_telemetry.json", id.to_lowercase()));
    run.write(&path)?;
    Ok(Some(path))
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::{Config, RunTelemetry};

    #[test]
    fn disabled_recorder_writes_nothing() {
        let out = write_telemetry("T0", &Telemetry::disabled(), &[]).unwrap();
        assert!(out.is_none());
    }

    #[test]
    fn written_file_round_trips() {
        let tel = Telemetry::new(Config::default());
        tel.counter("net.rounds", &[]).add(7);
        let dir = std::env::temp_dir().join("reconfig-bench-telemetry-test");
        std::env::set_var("OUT_DIR_RESULTS", &dir);
        let path = write_telemetry("T1", &tel, &[("claim", "none")]).unwrap().unwrap();
        std::env::remove_var("OUT_DIR_RESULTS");
        assert!(path.ends_with("t1_telemetry.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let back = RunTelemetry::from_jsonl(&text).unwrap();
        assert_eq!(back.meta("experiment"), Some("T1"));
        assert_eq!(back.meta("claim"), Some("none"));
        assert_eq!(back.snapshot.counter("net.rounds"), 7);
    }
}
