//! E11 — Theorem 6: the reconfiguring hypercube-of-groups stays connected
//! under any `(1/2 - eps)`-bounded `Omega(log log n)`-late attack, while
//! the 0-late control breaches it.
//!
//! Expected shape: every `2t`-late row reports connectivity 1.0 and zero
//! starved rounds for every strategy; the 0-late GroupTargeted row MUST
//! breach (if it did not, our adversary would be too weak to make the
//! defense claim meaningful).

use overlay_adversary::dos::{DosAdversary, DosStrategy};
use reconfig_bench::{table::f, write_json_or_exit, ExperimentResult, Table};
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::HealableOverlay;

fn main() {
    let n = 4096usize;
    let block_frac = 0.3f64;
    let mut table = Table::new(
        "E11: DoS survival at n = 4096, 30% blocked per round (Theorem 6)",
        &["strategy", "lateness", "rounds", "connectivity", "starved", "verdict"],
    );
    let mut rows = Vec::new();
    let strategies = [
        DosStrategy::Random,
        DosStrategy::GroupTargeted,
        DosStrategy::IsolateNode,
        DosStrategy::Bisection,
    ];
    for (si, strategy) in strategies.into_iter().enumerate() {
        for (li, lateness_epochs) in [2u64, 1, 0].into_iter().enumerate() {
            let mut ov = DosOverlay::new(n, DosParams::default(), 600 + si as u64);
            let lateness = lateness_epochs * ov.epoch_len();
            let mut adv =
                DosAdversary::new(strategy, block_frac, lateness, 700 + (si * 3 + li) as u64);
            let run = ov.run(&mut adv, 4 * ov.epoch_len());
            let rate = run.connectivity_rate();
            let verdict = if rate == 1.0 { "defended" } else { "BREACHED" };
            table.row(vec![
                format!("{strategy:?}"),
                format!("{lateness_epochs}t"),
                run.rounds.to_string(),
                f(rate),
                run.starved_rounds.to_string(),
                verdict.into(),
            ]);
            rows.push(serde_json::json!({
                "strategy": format!("{strategy:?}"), "lateness_epochs": lateness_epochs,
                "rounds": run.rounds, "connectivity": rate,
                "starved_rounds": run.starved_rounds,
            }));
            if lateness_epochs == 2 {
                assert_eq!(rate, 1.0, "{strategy:?} must be defended at 2t lateness");
            }
        }
    }
    table.print();
    println!();
    println!("who wins: the defense at >= 2t lateness (all strategies, rate 1.0);");
    println!("the attacker at 0 lateness with group targeting — the crossover the");
    println!("impossibility remark of Section 1.1 predicts.");

    let result = ExperimentResult {
        id: "E11".into(),
        title: "DoS survival".into(),
        claim: "Theorem 6".into(),
        rows,
    };
    let path = write_json_or_exit(&result);
    println!("json: {}", path.display());
}
