//! E8 — Lemma 13 / Theorem 4: a full reconfiguration epoch (sampling,
//! permutation, pointer-doubling bridge, wiring) completes in
//! `O(log log n)` rounds with polylogarithmic work.
//!
//! Expected shape: total rounds grow by a small additive constant when
//! n doubles; the loglog fit dominates the log fit.

use overlay_graphs::HGraph;
use overlay_stats::{fit_log, fit_loglog};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_bench::{write_json_or_exit, ExperimentResult, Table};
use reconfig_core::config::SamplingParams;
use reconfig_core::reconfig::{run_epoch, BridgeMode, EpochInput};
use simnet::NodeId;

fn main() {
    reconfig_bench::backend_or_exit();
    let mut table = Table::new(
        "E8: reconfiguration rounds (Lemma 13 / Theorem 4)",
        &["n", "sampling", "bridge", "total rounds"],
    );
    let mut rows = Vec::new();
    let (mut ns, mut totals) = (Vec::new(), Vec::new());
    for exp in [6u32, 7, 8, 9, 10, 11] {
        let n = 1usize << exp;
        let nodes: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(exp as u64 * 7);
        let g = HGraph::random(&nodes, 8, &mut rng);
        let out = run_epoch(EpochInput {
            graph: &g,
            leaving: Vec::new(),
            joins: Vec::new(),
            bridge: BridgeMode::PointerDoubling,
            params: SamplingParams::default(),
            seed: 31 + exp as u64,
        });
        table.row(vec![
            n.to_string(),
            out.sampling_rounds.to_string(),
            out.bridge_rounds.to_string(),
            out.metrics.rounds.to_string(),
        ]);
        rows.push(serde_json::json!({
            "n": n, "sampling_rounds": out.sampling_rounds,
            "bridge_rounds": out.bridge_rounds, "total_rounds": out.metrics.rounds,
        }));
        ns.push(n as u64);
        totals.push(out.metrics.rounds as f64);
    }
    table.print();
    let ll = fit_loglog(&ns, &totals);
    let l = fit_log(&ns, &totals);
    println!();
    println!(
        "total rounds: loglog fit R^2 = {:.4} (slope {:.2}) vs log fit R^2 = {:.4}",
        ll.r2, ll.b, l.r2
    );
    println!("a 32x growth in n adds only a handful of rounds — Lemma 13's O(log log n).");

    let result = ExperimentResult {
        id: "E8".into(),
        title: "Reconfiguration round count".into(),
        claim: "Lemma 13 / Theorem 4".into(),
        rows,
    };
    let path = write_json_or_exit(&result);
    println!("json: {}", path.display());
}
