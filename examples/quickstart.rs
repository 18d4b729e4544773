//! Quickstart: rapid node sampling on a random H-graph.
//!
//! Builds a random H-graph, runs the paper's Algorithm 1 (random walks +
//! pointer doubling) and the plain random-walk baseline, and prints the
//! exponential round-count separation.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use overlay_graphs::HGraph;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_core::config::SamplingParams;
use reconfig_core::sampling::{run_alg1_observed, run_baseline_observed};
use simnet::NodeId;
use telemetry::Telemetry;

fn main() {
    let params = SamplingParams::default();
    println!("rapid node sampling (Algorithm 1) vs plain random walks");
    println!();
    println!(
        "{:>6} {:>14} {:>14} {:>12} {:>12} {:>9}",
        "n", "rapid rounds", "walk rounds", "samples", "max work/rnd", "failures"
    );
    for exp in [6u32, 7, 8, 9, 10] {
        let n = 1u64 << exp;
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(42 + exp as u64);
        let graph = HGraph::random(&nodes, 8, &mut rng);

        let (_, rapid) = run_alg1_observed(&graph, &params, 7, &Telemetry::disabled());
        let (_, walk) = run_baseline_observed(&graph, &params, 7, &Telemetry::disabled());
        println!(
            "{:>6} {:>14} {:>14} {:>12} {:>12} {:>9}",
            n,
            rapid.rounds,
            walk.rounds,
            rapid.samples_per_node,
            rapid.max_node_bits,
            rapid.failures
        );
    }
    println!();
    println!("rapid rounds grow with log log n; baseline rounds with log n.");
}
