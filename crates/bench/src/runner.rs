//! Machine-readable experiment output.

use simnet::Checkpoint;
use std::path::Path;

/// The JSON record an experiment writes next to its printed table.
#[derive(Clone, Debug)]
pub struct ExperimentResult {
    /// Experiment id (e.g. "E1").
    pub id: String,
    /// Human title.
    pub title: String,
    /// The paper claim this regenerates.
    pub claim: String,
    /// One JSON object per table row.
    pub rows: Vec<serde_json::Value>,
    /// The experiment's verdict: one `{says, claimed, holds}` object per
    /// check (empty for the perf and scale entries).
    pub verdict: Vec<serde_json::Value>,
}

simnet::checkpoint_schema! {
    ExperimentResult {
        fields { id, title, claim, rows, verdict }
    }
}

/// Write `result` to `results/<id>.json` under the workspace root (or
/// `OUT_DIR_RESULTS` if set). Creates the directory if needed. Returns
/// the path written.
pub fn write_json(result: &ExperimentResult) -> std::io::Result<std::path::PathBuf> {
    let dir = std::env::var("OUT_DIR_RESULTS").unwrap_or_else(|_| "results".to_string());
    let dir = Path::new(&dir);
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("{}.json", result.id.to_lowercase()));
    std::fs::write(&path, serde_json::to_string_pretty(&result.save())?)?;
    Ok(path)
}

/// Logical CPUs the host offers this process — a host fact the perf
/// records (`BENCH_*.json`) carry beside their timings.
pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map(|c| c.get()).unwrap_or(1)
}

/// The CPU's model name from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Upper median of `xs` (sorts in place; panics on an empty slice).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_roundtrip_and_write() {
        let r = ExperimentResult {
            id: "E0".into(),
            title: "test".into(),
            claim: "none".into(),
            rows: vec![serde_json::json!({"n": 4, "rounds": 9})],
            verdict: vec![],
        };
        let dir = std::env::temp_dir().join("reconfig-bench-test");
        std::env::set_var("OUT_DIR_RESULTS", &dir);
        let path = write_json(&r).unwrap();
        let parsed = serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let back = ExperimentResult::load(&parsed).unwrap();
        assert_eq!(back.id, "E0");
        assert_eq!(back.rows.len(), 1);
        assert_eq!(back.rows[0].get("n").unwrap().as_u64(), Some(4));
        std::env::remove_var("OUT_DIR_RESULTS");
    }
}
