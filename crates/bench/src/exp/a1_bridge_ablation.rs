//! A1 — ablation: Phase 3's pointer doubling vs naive one-hop walking.
//!
//! Expected shape: doubling's bridge rounds grow like log(segment) =
//! O(log log n); naive walking grows with the segment length itself.

use super::{hgraph, quiet_epoch};
use crate::driver::{Experiment, Row, Run, RunError};
use reconfig_core::reconfig::BridgeMode;

pub const EXP: Experiment =
    Experiment::new("A1", "Bridge ablation", "design choice: pointer doubling in Phase 3", run);

fn run(run: &mut Run) -> Result<(), RunError> {
    run.table("A1: bridge ablation — pointer doubling vs naive walk");
    for exp in [7u32, 8, 9, 10, 11] {
        let n = 1usize << exp;
        let g = hgraph(n as u64, exp as u64 * 13);
        let fast = quiet_epoch(&g, BridgeMode::PointerDoubling, 55 + exp as u64);
        let slow = quiet_epoch(&g, BridgeMode::NaiveWalk, 55 + exp as u64);
        run.row(
            Row::new()
                .cell("n", "n", n)
                .cell("doubling bridge", "doubling_bridge", fast.bridge_rounds)
                .cell("naive bridge", "naive_bridge", slow.bridge_rounds)
                .cell("doubling total", "doubling_total", fast.metrics.rounds)
                .cell("naive total", "naive_total", slow.metrics.rounds),
        );
        assert!(fast.bridge_rounds <= slow.bridge_rounds);
    }
    run.note("doubling bridges the longest empty segment in log(segment) iterations;");
    run.note("naive walking pays for the segment length — the gap widens with n.");
    Ok(())
}
