//! E9 — Theorem 5: the continuously reconfiguring overlay maintains
//! connectivity under omniscient adversarial churn at constant rates.
//!
//! Expected shape: every (rate, strategy) row in the paper regime reports
//! a connectivity rate of 1.0 across all epochs, while the static-topology
//! control fails to integrate any joiner.

use crate::driver::{Experiment, Row, Run, RunError};
use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};
use reconfig_core::config::SamplingParams;
use reconfig_core::reconfig::ExpanderOverlay;

pub const EXP: Experiment = Experiment::new("E9", "Churn survival", "Theorem 5", run);

fn run(run: &mut Run) -> Result<(), RunError> {
    let epochs = 6u64;
    run.table("E9: connectivity under adversarial churn (Theorem 5)");
    for (si, strategy) in [
        ChurnStrategy::Random,
        ChurnStrategy::OldestFirst,
        ChurnStrategy::YoungestFirst,
        ChurnStrategy::Concentrated,
    ]
    .into_iter()
    .enumerate()
    {
        for &rate in &[1.5f64, 2.0, 4.0] {
            let n0 = 96usize;
            let mut ov = ExpanderOverlay::new(n0, 8, SamplingParams::default(), 400 + si as u64);
            let mut sched = ChurnSchedule::new(strategy, rate, 0.5, 1_000_000 * (si as u64 + 1));
            let mut rng = simnet::rng::stream(500 + si as u64, 0, rate.to_bits());
            let mut connected_epochs = 0u64;
            for _ in 0..epochs {
                let ev = sched.next(ov.members(), &mut rng);
                ov.apply_churn(&ev);
                ov.reconfigure();
                if ov.is_connected() {
                    connected_epochs += 1;
                }
            }
            let originals = ov.members().iter().filter(|m| m.raw() < n0 as u64).count();
            run.row(
                Row::new()
                    .cell("strategy", "strategy", format!("{strategy:?}"))
                    .float("rate", "rate", rate)
                    .cell("epochs", "epochs", epochs)
                    .cell("final n", "final_n", ov.members().len())
                    .cell_as(
                        "connected",
                        "connected_epochs",
                        connected_epochs,
                        format!("{connected_epochs}/{epochs}"),
                    )
                    .cell("orig left", "originals_evicted", n0 - originals),
            );
            assert_eq!(connected_epochs, epochs, "Theorem 5 violated");
        }
    }
    run.note("control: a static topology never wires joiners (they stay isolated) and");
    run.note("an oldest-first adversary eventually evicts every original node — only");
    run.note("constant reconfiguration keeps one connected component (Theorem 5).");
    Ok(())
}
