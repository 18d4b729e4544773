//! E9 — Theorem 5: the continuously reconfiguring overlay maintains
//! connectivity under omniscient adversarial churn at constant rates.
//!
//! Expected shape: every (rate, strategy) row in the paper regime reports
//! a connectivity rate of 1.0 across all epochs, while the static-topology
//! control fails to integrate any joiner.

use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};
use reconfig_bench::{table::f, write_json_or_exit, ExperimentResult, Table};
use reconfig_core::config::SamplingParams;
use reconfig_core::reconfig::ExpanderOverlay;

fn main() {
    reconfig_bench::backend_or_exit();
    let epochs = 6u64;
    let mut table = Table::new(
        "E9: connectivity under adversarial churn (Theorem 5)",
        &["strategy", "rate", "epochs", "final n", "connected", "orig left"],
    );
    let mut rows = Vec::new();
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
            table.row(vec![
                format!("{strategy:?}"),
                f(rate),
                epochs.to_string(),
                ov.members().len().to_string(),
                format!("{connected_epochs}/{epochs}"),
                (n0 - originals).to_string(),
            ]);
            rows.push(serde_json::json!({
                "strategy": format!("{strategy:?}"), "rate": rate,
                "epochs": epochs, "final_n": ov.members().len(),
                "connected_epochs": connected_epochs,
                "originals_evicted": n0 - originals,
            }));
            assert_eq!(connected_epochs, epochs, "Theorem 5 violated");
        }
    }
    table.print();
    println!();
    println!("control: a static topology never wires joiners (they stay isolated) and");
    println!("an oldest-first adversary eventually evicts every original node — only");
    println!("constant reconfiguration keeps one connected component (Theorem 5).");

    let result = ExperimentResult {
        id: "E9".into(),
        title: "Churn survival".into(),
        claim: "Theorem 5".into(),
        rows,
    };
    let path = write_json_or_exit(&result);
    println!("json: {}", path.display());
}
