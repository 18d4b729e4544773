//! E8 — Lemma 13 / Theorem 4: a full reconfiguration epoch (sampling,
//! permutation, pointer-doubling bridge, wiring) completes in
//! `O(log log n)` rounds with polylogarithmic work.
//!
//! Expected shape: total rounds grow by a small additive constant when
//! n doubles; the loglog fit dominates the log fit.

use super::{hgraph, quiet_epoch};
use crate::driver::{Experiment, Row, Run, RunError};
use overlay_stats::{fit_log, fit_loglog};
use reconfig_core::reconfig::BridgeMode;

pub const EXP: Experiment =
    Experiment::new("E8", "Reconfiguration round count", "Lemma 13 / Theorem 4", run);

fn run(run: &mut Run) -> Result<(), RunError> {
    run.table("E8: reconfiguration rounds (Lemma 13 / Theorem 4)");
    let (mut ns, mut totals) = (Vec::new(), Vec::new());
    for exp in [6u32, 7, 8, 9, 10, 11] {
        let n = 1usize << exp;
        let g = hgraph(n as u64, exp as u64 * 7);
        let out = quiet_epoch(&g, BridgeMode::PointerDoubling, 31 + exp as u64);
        run.row(
            Row::new()
                .cell("n", "n", n)
                .cell("sampling", "sampling_rounds", out.sampling_rounds)
                .cell("bridge", "bridge_rounds", out.bridge_rounds)
                .cell("total rounds", "total_rounds", out.metrics.rounds),
        );
        ns.push(n as u64);
        totals.push(out.metrics.rounds as f64);
    }
    let ll = fit_loglog(&ns, &totals);
    let l = fit_log(&ns, &totals);
    run.note(format!(
        "total rounds: loglog fit R^2 = {:.4} (slope {:.2}) vs log fit R^2 = {:.4}",
        ll.r2, ll.b, l.r2
    ));
    run.note("a 32x growth in n adds only a handful of rounds — Lemma 13's O(log log n).");
    Ok(())
}
