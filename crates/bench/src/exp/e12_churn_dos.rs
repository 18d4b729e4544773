//! E12 — Lemma 18 / Theorem 7: the split/merge network survives DoS
//! attacks and churn simultaneously, keeping supernode dimensions within
//! a window of 2 and group sizes inside the Equation 1 band.
//!
//! Expected shape: connectivity 1.0 and zero band/spread violations for
//! every (gamma, blocking) combination in the theorem's regime.

use crate::driver::{Experiment, Row, Run, RunError};
use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use reconfig_core::churndos::{ChurnDosOverlay, ChurnDosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay};

pub const EXP: Experiment =
    Experiment::new("E12", "Combined churn and DoS", "Lemma 18 / Theorem 7", run);

fn run(run: &mut Run) -> Result<(), RunError> {
    let n = 2048usize;
    let epochs = 4u64;
    run.table("E12: combined churn + DoS (Lemma 18 / Theorem 7)");
    for &gamma in &[1.1f64, 1.3, 1.6] {
        for &frac in &[0.1f64, 0.25] {
            let ov = ChurnDosOverlay::new(n, ChurnDosParams::default(), 800);
            let (lateness, rounds) = (2 * ov.epoch_len(), epochs * ov.epoch_len());
            let mut adv = DosAdversary::new(
                DosStrategy::GroupTargeted,
                frac,
                lateness,
                801 + (gamma * 100.0) as u64,
            );
            let churn = ChurnSchedule::new(ChurnStrategy::Random, gamma, 0.8, 10_000_000);
            let rng = simnet::rng::stream(802, gamma.to_bits(), frac.to_bits());
            let mut runner = FaultyRunner::paper_model(ov).with_churn(churn, rng);
            let out = runner.run(&mut adv, rounds);
            let ov = &runner.overlay;
            let (d_lo, d_hi) = ov.groups().cover().dim_range().unwrap();
            run.row(
                Row::new()
                    .float("gamma", "gamma", gamma)
                    .float("block frac", "block_fraction", frac)
                    .float("connectivity", "connectivity", out.connectivity_rate())
                    .cell("starved", "starved_rounds", out.starved_rounds)
                    .cell("dim spread", "dim_spread", d_hi - d_lo)
                    .cell("final n", "final_n", ov.len())
                    .cell("lemma18", "lemma18", ov.groups().lemma18_holds()),
            );
            assert_eq!(out.connectivity_rate(), 1.0, "gamma {gamma}, frac {frac}");
            assert!(d_hi - d_lo <= 2, "Lemma 18 spread violated");
        }
    }
    run.note("the network absorbs a constant-factor membership change per epoch");
    run.note("(churn rate gamma^(1/Theta(log log n)) per round) while 25% of nodes are");
    run.note("blocked — dimensions never spread beyond 2 (Lemma 18), connectivity holds.");
    Ok(())
}
