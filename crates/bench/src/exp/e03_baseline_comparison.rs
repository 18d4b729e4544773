//! E3 — the exponential improvement over plain random-walk sampling
//! (Sections 1 and 3; cf. Das Sarma et al. and the Nanongkai et al. lower
//! bound the primitive breaks through).
//!
//! Expected shape: the baseline row count grows linearly in log n; the
//! rapid sampler's only in log log n; the `ratio` column therefore widens
//! as n grows.

use super::hgraph;
use crate::driver::{Experiment, Row, Run, RunError};
use crate::table::f;
use overlay_stats::{fit_log, fit_loglog};
use reconfig_core::config::SamplingParams;
use reconfig_core::sampling::{run_alg1_observed, run_baseline_observed};
use telemetry::Telemetry;

pub const EXP: Experiment = Experiment::new(
    "E3",
    "Exponential improvement over plain random walks",
    "Section 3 headline / related-work comparison",
    run,
);

fn run(run: &mut Run) -> Result<(), RunError> {
    let params = SamplingParams::default();
    run.table("E3: rapid sampling vs plain random walks");
    let (mut ns, mut rapid_series, mut walk_series) = (Vec::new(), Vec::new(), Vec::new());

    for exp in [6u32, 7, 8, 9, 10, 11] {
        let n = 1usize << exp;
        let graph = hgraph(n as u64, exp as u64 + 100);

        let (_, rapid) = run_alg1_observed(&graph, &params, 3, &Telemetry::disabled());
        let (_, walk) = run_baseline_observed(&graph, &params, 3, &Telemetry::disabled());
        run.row(
            Row::new()
                .cell("n", "n", n)
                .cell("rapid rounds", "rapid_rounds", rapid.rounds)
                .cell("walk rounds", "walk_rounds", walk.rounds)
                .show("ratio", f(walk.rounds as f64 / rapid.rounds as f64))
                .cell("rapid msgs", "rapid_msgs", rapid.total_msgs)
                .cell("walk msgs", "walk_msgs", walk.total_msgs),
        );
        ns.push(n as u64);
        rapid_series.push(rapid.rounds as f64);
        walk_series.push(walk.rounds as f64);
    }

    let rapid_ll = fit_loglog(&ns, &rapid_series);
    let walk_l = fit_log(&ns, &walk_series);
    run.note(format!(
        "rapid ~ a + b loglog n (R^2 {:.4}, b {:.2}); walk ~ a + b log n (R^2 {:.4}, b {:.2})",
        rapid_ll.r2, rapid_ll.b, walk_l.r2, walk_l.b
    ));
    run.note("who wins: rapid sampling, by a factor that grows with n (exponential separation).");
    Ok(())
}
