//! E3 — the exponential improvement over plain random-walk sampling
//! (Sections 1 and 3; cf. Das Sarma et al. and the Nanongkai et al. lower
//! bound the primitive breaks through).
//!
//! Expected shape: the baseline row count grows linearly in log n; the
//! rapid sampler's only in log log n; the `ratio` column therefore widens
//! as n grows.

use overlay_graphs::HGraph;
use overlay_stats::{fit_log, fit_loglog};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_bench::{table::f, write_json_or_exit, ExperimentResult, Table};
use reconfig_core::config::SamplingParams;
use reconfig_core::sampling::{run_alg1, run_baseline};
use simnet::NodeId;

fn main() {
    reconfig_bench::backend_or_exit();
    let params = SamplingParams::default();
    let mut table = Table::new(
        "E3: rapid sampling vs plain random walks",
        &["n", "rapid rounds", "walk rounds", "ratio", "rapid msgs", "walk msgs"],
    );
    let mut rows = Vec::new();
    let (mut ns, mut rapid_series, mut walk_series) = (Vec::new(), Vec::new(), Vec::new());

    for exp in [6u32, 7, 8, 9, 10, 11] {
        let n = 1usize << exp;
        let nodes: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(exp as u64 + 100);
        let graph = HGraph::random(&nodes, 8, &mut rng);

        let (_, rapid) = run_alg1(&graph, &params, 3);
        let (_, walk) = run_baseline(&graph, &params, 3);
        let ratio = walk.rounds as f64 / rapid.rounds as f64;
        table.row(vec![
            n.to_string(),
            rapid.rounds.to_string(),
            walk.rounds.to_string(),
            f(ratio),
            rapid.total_msgs.to_string(),
            walk.total_msgs.to_string(),
        ]);
        rows.push(serde_json::json!({
            "n": n, "rapid_rounds": rapid.rounds, "walk_rounds": walk.rounds,
            "rapid_msgs": rapid.total_msgs, "walk_msgs": walk.total_msgs,
        }));
        ns.push(n as u64);
        rapid_series.push(rapid.rounds as f64);
        walk_series.push(walk.rounds as f64);
    }
    table.print();

    let rapid_ll = fit_loglog(&ns, &rapid_series);
    let walk_l = fit_log(&ns, &walk_series);
    println!();
    println!(
        "rapid ~ a + b loglog n (R^2 {:.4}, b {:.2}); walk ~ a + b log n (R^2 {:.4}, b {:.2})",
        rapid_ll.r2, rapid_ll.b, walk_l.r2, walk_l.b
    );
    println!("who wins: rapid sampling, by a factor that grows with n (exponential separation).");

    let result = ExperimentResult {
        id: "E3".into(),
        title: "Exponential improvement over plain random walks".into(),
        claim: "Section 3 headline / related-work comparison".into(),
        rows,
    };
    let path = write_json_or_exit(&result);
    println!("json: {}", path.display());
}
