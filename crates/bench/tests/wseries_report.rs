//! Regression test pinning the W-series trace-report table to a
//! committed telemetry fixture.
//!
//! The fixture is a real capture of W1 at reduced size (n=256,
//! 6 batches x 64 ops, seed 0x5731). If the workload engine's telemetry
//! contract changes — key names, label layout, histogram shape — or the
//! table math drifts, this test names the exact cell that moved.

use reconfig_bench::report::load_run;
use reconfig_bench::{w_series_table, workload_rows};
use std::path::Path;

fn fixture() -> reconfig_bench::LoadedRun {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/w1_telemetry.json");
    load_run(&path).expect("committed fixture must load")
}

#[test]
fn fixture_yields_one_row_per_arm() {
    let l = fixture();
    let mut rows = workload_rows(&l);
    rows.sort();
    assert_eq!(rows.len(), 2, "control + churn+dos arms");
    // Canonical keys sort churn+dos before control.
    assert_eq!(rows[0][1], "churn+dos");
    assert_eq!(rows[1][1], "control");
    for row in &rows {
        assert_eq!(row[2], "384", "6 batches x 64 ops");
        assert_eq!(row[3], "1.00", "smoke arms complete everything");
    }
}

#[test]
fn rendered_table_is_pinned_to_the_fixture() {
    let l = fixture();
    let table = w_series_table(std::slice::from_ref(&l)).expect("fixture has workload metrics");
    let rendered = table.render();
    // Headers.
    for h in ["run", "arm", "ops", "done", "ops/round", "p50", "p99", "p999", "goodput/bit"] {
        assert!(rendered.contains(h), "missing header {h} in:\n{rendered}");
    }
    // Pinned cells from the committed capture: ops, completion, tail
    // latency in rounds, and ops/round, for both arms.
    for needle in ["control", "churn+dos", "384", "1.00", "31", "63", "2.06"] {
        assert!(rendered.contains(needle), "missing pinned cell {needle} in:\n{rendered}");
    }
}

#[test]
fn runs_without_workload_metrics_render_no_table() {
    let mut l = fixture();
    l.run.snapshot.counters.retain(|k, _| !k.starts_with("workload."));
    assert!(workload_rows(&l).is_empty());
    assert!(w_series_table(std::slice::from_ref(&l)).is_none());
}
