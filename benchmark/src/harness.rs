//! Measurement plumbing shared by every workload: order statistics, the
//! process's peak resident set, host facts and the repetition record.

use std::collections::BTreeMap;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// the two nearest order statistics. Panics on an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn lower_quartile(values: &[f64]) -> f64 {
    quantile(values, 0.25)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn p95(values: &[f64]) -> f64 {
    quantile(values, 0.95)
}

/// `VmHWM` of this process in MB (the kernel's high-water mark of the
/// resident set), or `None` where `/proc` does not provide it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Reset the kernel's resident-set high-water mark of this process to its
/// current resident set (`5` into `/proc/self/clear_refs`), so that the
/// next [`peak_rss_mb`] covers only what ran in between. Returns false
/// where the kernel or the sandbox does not allow it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Facts about the machine a result was taken on. `threads` is the pool
/// size the program's parallel sections used; `host_cpus` is what the
/// machine offers. They are separate fields so a row can never claim
/// parallel hardware it did not have.
pub fn host_facts() -> serde_json::Value {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    serde_json::json!({
        "host_cpus": std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        "threads": rayon::current_num_threads() as u64,
        "cpu_model": cpu_model,
    })
}

/// Set up `repeats` times in a row and return the last product with the
/// mean seconds one set-up took. A single set-up of most workloads takes
/// well under a millisecond, too short to time steadily on a shared host.
pub fn timed_setup<T>(repeats: u32, mut build: impl FnMut() -> T) -> (T, f64) {
    assert!(repeats >= 1);
    let t = std::time::Instant::now();
    let mut product = build();
    for _ in 1..repeats {
        product = std::hint::black_box(build());
    }
    (product, t.elapsed().as_secs_f64() / f64::from(repeats))
}

/// What one repetition of a workload produced.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Seconds one build of the inputs and the system under test took.
    pub setup_s: f64,
    /// Seconds spent doing the workload's work.
    pub run_s: f64,
    /// Work units attempted (ops, node-rounds, epochs or rounds).
    pub work: u64,
    /// Work units that failed.
    pub failed: u64,
    /// Replay digest of everything the repetition computed.
    pub digest: u64,
    /// Simulated (model) quantities; they repeat exactly for a seed.
    pub model: Model,
}

/// Simulated quantities a workload may define. `None` = not defined for
/// this workload (printed as `null`, never as a made-up number).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Model {
    /// Completed-op latency p50 (kv, chat) or rounds per epoch p50 (expander).
    pub p50_rounds: Option<f64>,
    /// Completed-op latency p99 (kv, chat).
    pub p99_rounds: Option<f64>,
    /// Communication work in bits per completed op / per node-round.
    pub bits_per_work: Option<f64>,
}

/// Named per-layer values; `None` = the workload does not exercise or
/// define the metric.
pub type LayerMetrics = BTreeMap<String, Option<f64>>;

/// A per-layer value for the one-line result: the contract wants a number
/// under every name, so an idle or undefined layer metric reads 0.
pub fn number_or_zero(v: Option<f64>) -> f64 {
    match v {
        Some(x) if x.is_finite() => x,
        _ => 0.0,
    }
}

/// The same value for human-facing documents, where undefined stays `null`.
pub fn number_or_null(v: Option<f64>) -> serde_json::Value {
    match v {
        Some(x) if x.is_finite() => serde_json::Value::from(x),
        _ => serde_json::Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(lower_quartile(&v), 2.0);
        assert_eq!(median(&v), 3.0);
        assert!((p95(&v) - 4.8).abs() < 1e-12);
        let even = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&even), 2.5);
        assert_eq!(lower_quartile(&even), 1.75);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
        assert_eq!(quantile(&even, 0.0), 1.0);
        assert_eq!(quantile(&even, 1.0), 4.0);
    }

    #[test]
    fn undefined_metrics_read_zero_in_the_result_and_null_in_documents() {
        assert_eq!(number_or_zero(None), 0.0);
        assert_eq!(number_or_zero(Some(f64::NAN)), 0.0);
        assert_eq!(number_or_zero(Some(1.5)), 1.5);
        assert_eq!(number_or_null(None), serde_json::Value::Null);
        assert_eq!(number_or_null(Some(f64::INFINITY)), serde_json::Value::Null);
        assert_eq!(number_or_null(Some(2.0)), serde_json::Value::from(2.0));
    }

    #[test]
    fn peak_rss_is_positive_on_linux() {
        if let Some(mb) = peak_rss_mb() {
            assert!(mb > 0.0);
        }
    }
}
