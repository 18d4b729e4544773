//! A2 — ablation: where does the defense stop working as the adversary's
//! information gets fresher?
//!
//! Expected shape: connectivity 1.0 for lateness >= the reconfiguration
//! period, degrading to heavy breach at lateness 0 — the crossover sits
//! near one epoch length, exactly the `Omega(log log n)` the theorems
//! require.

use overlay_adversary::dos::{DosAdversary, DosStrategy};
use reconfig_bench::{table::f, write_json_or_exit, ExperimentResult, Table};
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::HealableOverlay;

fn main() {
    let n = 4096usize;
    let probe = DosOverlay::new(n, DosParams::default(), 0);
    let t = probe.epoch_len();
    let mut table = Table::new(
        format!("A2: lateness crossover at n = 4096 (epoch t = {t} rounds)"),
        &["lateness", "rounds", "connectivity", "starved rounds"],
    );
    let mut rows = Vec::new();
    for &lateness in &[0u64, t / 4, t / 2, t, 2 * t, 4 * t] {
        let mut ov = DosOverlay::new(n, DosParams::default(), 1200);
        let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.3, lateness, 1300 + lateness);
        let run = ov.run(&mut adv, 4 * t);
        table.row(vec![
            format!("{lateness} ({}t)", f(lateness as f64 / t as f64)),
            run.rounds.to_string(),
            f(run.connectivity_rate()),
            run.starved_rounds.to_string(),
        ]);
        rows.push(serde_json::json!({
            "lateness": lateness, "epoch_len": t,
            "connectivity": run.connectivity_rate(),
            "starved_rounds": run.starved_rounds,
        }));
    }
    table.print();
    println!();
    println!("the crossover falls at roughly one reconfiguration period: an adversary");
    println!("that is even one epoch behind attacks yesterday's groups and loses; one");
    println!("that sees the current epoch isolates a group — hence Omega(log log n)-late.");

    let result = ExperimentResult {
        id: "A2".into(),
        title: "Lateness crossover".into(),
        claim: "Theorem 6's lateness requirement is tight in the epoch scale".into(),
        rows,
    };
    let path = write_json_or_exit(&result);
    println!("json: {}", path.display());
}
