//! W-series table: workload throughput, tail latency and goodput per
//! communication-work bit, reconstructed purely from telemetry captures.
//!
//! The workload engine mirrors every batch into the `workload.*`
//! namespace under an `overlay=workload` base label; the W1–W3
//! experiments add an `arm=<name>` label per experiment arm. Canonical snapshot keys
//! therefore look like `workload.ops{arm=control,overlay=workload}`, and
//! this module discovers one table row per `(capture, label-set)` pair —
//! it never assumes which arms ran.

use crate::driver::{Row, Run, RunError};
use crate::report::LoadedRun;
use crate::table::{f, Table};
use overlay_adversary::Campaign;
use overlay_stats::summary_from_buckets;
use overlay_workload::{WorkloadEngine, WorkloadReport, WorkloadSpec};

/// Bits per DHT message (`overlay_apps::dht::MESSAGE_BITS`).
const BITS_PER_MESSAGE: u64 = 192;

/// Blocking budget fraction for the W-series faulted arms.
pub const W_BOUND: f64 = 0.02;
/// Adversary lateness for the W-series faulted arms.
pub const W_LATENESS: u64 = 2;

/// Run the control arm and the churn+DoS arm of `spec`, one row each,
/// under the table `title`. Each arm's telemetry is labeled `arm=<arm>`
/// so one capture holds both distinguishably.
pub fn run_series(run: &mut Run, title: &str, spec: &WorkloadSpec) -> Result<(), RunError> {
    spec.validate().map_err(|e| RunError::new("validate the workload spec", format!("{e:?}")))?;
    run.table(title);
    for (arm, campaign) in [("control", "none"), ("churn+dos", "churn+dos")] {
        let mut attacker = Campaign::preset(campaign, W_BOUND, W_LATENESS, spec.seed)
            .ok_or_else(|| RunError::new(format!("campaign {campaign}"), "unknown preset"))?;
        let r = WorkloadEngine::run(spec, &mut attacker, &run.tel.with_labels(&[("arm", arm)]));
        run.row(arm_row(arm, &r));
    }
    Ok(())
}

/// The table row and JSON record of one arm's report.
fn arm_row(arm: &str, r: &WorkloadReport) -> Row {
    let lat = r.latency();
    let latency = serde_json::json!({
        "p50": lat.p50, "p99": lat.p99, "p999": lat.p999, "max": lat.max,
    });
    let digest = format!("{:#018x}", r.trace_digest);
    Row::new()
        .cell("arm", "arm", arm)
        .key("campaign", r.attacker.clone())
        .key("kind", r.kind.clone())
        .cell("ops", "ops", r.account.attempted)
        .key("completed", r.account.completed)
        .key("suppressed", r.account.suppressed)
        .float("done", "completion_rate", r.account.completion_rate())
        .cell("rounds", "rounds", r.rounds)
        .float("ops/rnd", "ops_per_round", r.account.ops_per_round())
        .key("latency_rounds", latency)
        .show("p50", lat.p50.to_string())
        .show("p99", lat.p99.to_string())
        .show("p999", lat.p999.to_string())
        .show("max", lat.max.to_string())
        .cell_as(
            "goodput/bit",
            "goodput_per_bit",
            r.account.goodput_per_bit(),
            format!("{:.3e}", r.account.goodput_per_bit()),
        )
        .cell("epochs", "epochs", r.epochs)
        .key("failed_epochs", r.failed_epochs)
        .key("rotations", r.rotations)
        .key("bits", r.account.bits)
        .cell("digest", "trace_digest", digest)
}

/// Pull `arm=<v>` out of a canonical label suffix like
/// `{arm=control,overlay=workload}`.
pub(crate) fn arm_of(suffix: &str) -> &str {
    suffix
        .trim_start_matches('{')
        .trim_end_matches('}')
        .split(',')
        .find_map(|kv| kv.strip_prefix("arm="))
        .unwrap_or("-")
}

/// The W-series rows one capture contributes: one per label-set that
/// carries `workload.ops`, empty when the capture has no workload
/// metrics (non-W experiments share the results directory).
pub fn workload_rows(l: &LoadedRun) -> Vec<Vec<String>> {
    let snap = &l.run.snapshot;
    let name =
        l.result.as_ref().map(|r| r.id.clone()).unwrap_or_else(|| {
            l.path.file_name().and_then(|n| n.to_str()).unwrap_or("?").to_string()
        });
    let mut rows = Vec::new();
    for (key, &ops) in &snap.counters {
        let Some(suffix) = key.strip_prefix("workload.ops") else { continue };
        if !(suffix.is_empty() || suffix.starts_with('{')) || ops == 0 {
            continue;
        }
        let completed = snap.counter(&format!("workload.completed{suffix}"));
        let suppressed = snap.counter(&format!("workload.suppressed{suffix}"));
        let messages = snap.counter(&format!("workload.messages{suffix}"));
        let rounds = snap.gauge(&format!("workload.rounds{suffix}"));
        let lat = snap
            .histogram(&format!("workload.op_latency_rounds{suffix}"))
            .map(|h| summary_from_buckets(&h.buckets))
            .unwrap_or_default();
        let bits = messages * BITS_PER_MESSAGE;
        rows.push(vec![
            name.clone(),
            arm_of(suffix).to_string(),
            ops.to_string(),
            f(completed as f64 / ops as f64),
            suppressed.to_string(),
            if rounds == 0 { "-".into() } else { f(ops as f64 / rounds as f64) },
            lat.p50.to_string(),
            lat.p99.to_string(),
            lat.p999.to_string(),
            if bits == 0 { "-".into() } else { format!("{:.3e}", completed as f64 / bits as f64) },
        ]);
    }
    rows
}

/// Cross-run W-series table; `None` when no capture carries workload
/// metrics (so `trace-report` stays silent for non-W runs).
pub fn w_series_table(runs: &[LoadedRun]) -> Option<Table> {
    let mut t = Table::new(
        "W-series workloads (ops, tail latency in rounds, goodput per bit)",
        &[
            "run",
            "arm",
            "ops",
            "done",
            "suppressed",
            "ops/round",
            "p50",
            "p99",
            "p999",
            "goodput/bit",
        ],
    );
    for l in runs {
        for row in workload_rows(l) {
            t.row(row);
        }
    }
    if t.is_empty() {
        None
    } else {
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_label_is_extracted_or_dashed() {
        assert_eq!(arm_of("{arm=control,overlay=workload}"), "control");
        assert_eq!(arm_of("{arm=churn+dos,overlay=workload}"), "churn+dos");
        assert_eq!(arm_of("{overlay=workload}"), "-");
        assert_eq!(arm_of(""), "-");
    }
}
