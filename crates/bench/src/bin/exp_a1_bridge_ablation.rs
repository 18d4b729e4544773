//! A1 — ablation: Phase 3's pointer doubling vs naive one-hop walking.
//!
//! Expected shape: doubling's bridge rounds grow like log(segment) =
//! O(log log n); naive walking grows with the segment length itself.

use overlay_graphs::HGraph;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_bench::{write_json_or_exit, ExperimentResult, Table};
use reconfig_core::config::SamplingParams;
use reconfig_core::reconfig::{run_epoch, BridgeMode, EpochInput};
use simnet::NodeId;

fn main() {
    reconfig_bench::backend_or_exit();
    let mut table = Table::new(
        "A1: bridge ablation — pointer doubling vs naive walk",
        &["n", "doubling bridge", "naive bridge", "doubling total", "naive total"],
    );
    let mut rows = Vec::new();
    for exp in [7u32, 8, 9, 10, 11] {
        let n = 1usize << exp;
        let nodes: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(exp as u64 * 13);
        let g = HGraph::random(&nodes, 8, &mut rng);
        let run_mode = |bridge: BridgeMode| {
            run_epoch(EpochInput {
                graph: &g,
                leaving: Vec::new(),
                joins: Vec::new(),
                bridge,
                params: SamplingParams::default(),
                seed: 55 + exp as u64,
            })
        };
        let fast = run_mode(BridgeMode::PointerDoubling);
        let slow = run_mode(BridgeMode::NaiveWalk);
        table.row(vec![
            n.to_string(),
            fast.bridge_rounds.to_string(),
            slow.bridge_rounds.to_string(),
            fast.metrics.rounds.to_string(),
            slow.metrics.rounds.to_string(),
        ]);
        rows.push(serde_json::json!({
            "n": n,
            "doubling_bridge": fast.bridge_rounds, "naive_bridge": slow.bridge_rounds,
            "doubling_total": fast.metrics.rounds, "naive_total": slow.metrics.rounds,
        }));
        assert!(fast.bridge_rounds <= slow.bridge_rounds);
    }
    table.print();
    println!();
    println!("doubling bridges the longest empty segment in log(segment) iterations;");
    println!("naive walking pays for the segment length — the gap widens with n.");

    let result = ExperimentResult {
        id: "A1".into(),
        title: "Bridge ablation".into(),
        claim: "design choice: pointer doubling in Phase 3".into(),
        rows,
    };
    let path = write_json_or_exit(&result);
    println!("json: {}", path.display());
}
