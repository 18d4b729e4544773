//! E5 — Lemmas 5+7: the multiset schedule `m_i = (2+eps)^(T-i) c log n`
//! succeeds w.h.p. for adequately sized `(eps, c)` and fails when
//! undersized.
//!
//! Expected shape: a sharp boundary — failures drop to zero once `c`
//! crosses the Chernoff-sized threshold for the given `eps`.

use super::hgraph;
use crate::driver::{Experiment, Row, Run, RunError};
use crate::table::f;
use reconfig_core::config::SamplingParams;
use reconfig_core::sampling::run_alg1_direct_observed;
use telemetry::Telemetry;

pub const EXP: Experiment =
    Experiment::new("E5", "Multiset schedule robustness", "Lemmas 5 and 7 (and 9)", run);

fn run(run: &mut Run) -> Result<(), RunError> {
    let n = 512;
    let seeds = 5u64;
    let graph = hgraph(n, 1);

    run.table("E5: schedule robustness at n = 512 (Lemma 7 boundary)");
    for &eps in &[0.1f64, 0.5, 1.0] {
        for &c in &[0.25f64, 0.5, 1.0, 2.0, 4.0] {
            let params = SamplingParams { epsilon: eps, c, ..SamplingParams::default() };
            let failures: Vec<u64> = (0..seeds)
                .map(|s| run_alg1_direct_observed(&graph, &params, 1000 + s, &Telemetry::disabled()).metrics.failures)
                .collect();
            let failed_runs = failures.iter().filter(|&&x| x > 0).count() as u64;
            let total: u64 = failures.iter().sum();
            run.row(
                Row::new()
                    .float("eps", "eps", eps)
                    .float("c", "c", c)
                    .cell("runs", "runs", seeds)
                    .cell("failed runs", "failed_runs", failed_runs)
                    .cell("total underflows", "underflows", total)
                    .show("mean/run", f(total as f64 / seeds as f64)),
            );
        }
    }
    run.note("who wins: the Lemma 7 regime — once c (and eps) give the schedule a");
    run.note("geometric reserve, underflows vanish; starved schedules fail reliably.");
    Ok(())
}
