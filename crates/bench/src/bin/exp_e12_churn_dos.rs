//! E12 — Lemma 18 / Theorem 7: the split/merge network survives DoS
//! attacks and churn simultaneously, keeping supernode dimensions within
//! a window of 2 and group sizes inside the Equation 1 band.
//!
//! Expected shape: connectivity 1.0 and zero band/spread violations for
//! every (gamma, blocking) combination in the theorem's regime.

use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use reconfig_bench::{table::f, write_json_or_exit, ExperimentResult, Table};
use reconfig_core::churndos::{ChurnDosOverlay, ChurnDosParams};
use reconfig_core::healing::HealableOverlay;

fn main() {
    let n = 2048usize;
    let epochs = 4u64;
    let mut table = Table::new(
        "E12: combined churn + DoS (Lemma 18 / Theorem 7)",
        &["gamma", "block frac", "connectivity", "starved", "dim spread", "final n", "lemma18"],
    );
    let mut rows = Vec::new();
    for &gamma in &[1.1f64, 1.3, 1.6] {
        for &frac in &[0.1f64, 0.25] {
            let mut ov = ChurnDosOverlay::new(n, ChurnDosParams::default(), 800);
            let lateness = 2 * ov.epoch_len();
            let mut adv = DosAdversary::new(
                DosStrategy::GroupTargeted,
                frac,
                lateness,
                801 + (gamma * 100.0) as u64,
            );
            let mut churn = ChurnSchedule::new(ChurnStrategy::Random, gamma, 0.8, 10_000_000);
            let mut rng = simnet::rng::stream(802, gamma.to_bits(), frac.to_bits());
            let run = ov.run_under_attack(&mut adv, &mut churn, epochs, &mut rng);
            let (d_lo, d_hi) = ov.groups().cover().dim_range().unwrap();
            table.row(vec![
                f(gamma),
                f(frac),
                f(run.connectivity_rate()),
                run.starved_rounds.to_string(),
                (d_hi - d_lo).to_string(),
                ov.len().to_string(),
                ov.groups().lemma18_holds().to_string(),
            ]);
            rows.push(serde_json::json!({
                "gamma": gamma, "block_fraction": frac,
                "connectivity": run.connectivity_rate(),
                "starved_rounds": run.starved_rounds,
                "dim_spread": d_hi - d_lo, "final_n": ov.len(),
                "lemma18": ov.groups().lemma18_holds(),
            }));
            assert_eq!(run.connectivity_rate(), 1.0, "gamma {gamma}, frac {frac}");
            assert!(d_hi - d_lo <= 2, "Lemma 18 spread violated");
        }
    }
    table.print();
    println!();
    println!("the network absorbs a constant-factor membership change per epoch");
    println!("(churn rate gamma^(1/Theta(log log n)) per round) while 25% of nodes are");
    println!("blocked — dimensions never spread beyond 2 (Lemma 18), connectivity holds.");

    let result = ExperimentResult {
        id: "E12".into(),
        title: "Combined churn and DoS".into(),
        claim: "Lemma 18 / Theorem 7".into(),
        rows,
    };
    let path = write_json_or_exit(&result);
    println!("json: {}", path.display());
}
