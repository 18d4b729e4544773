//! E1 — Theorem 2: Algorithm 1 samples `>= beta log n` nodes almost
//! uniformly in `O(log log n)` rounds with polylogarithmic communication
//! work per node per round.
//!
//! Expected shape: the `rounds` column grows by <= 2 when `n` doubles
//! (one doubling iteration per squaring of n), failures stay 0, and the
//! pooled sample distribution is within small TV distance of uniform.

use overlay_graphs::HGraph;
use overlay_stats::{fit_log, fit_loglog, tv_distance_uniform};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_bench::{
    experiment_telemetry, table::f, write_json_or_exit, write_telemetry_or_exit, ExperimentResult,
    Table,
};
use reconfig_core::config::SamplingParams;
use reconfig_core::sampling::{run_alg1_direct_observed, run_alg1_observed};
use simnet::NodeId;

fn main() {
    reconfig_bench::backend_or_exit();
    let tel = experiment_telemetry();
    let params = SamplingParams::default();
    let mut table = Table::new(
        "E1: rapid node sampling in H-graphs (Theorem 2)",
        &["n", "mode", "T", "rounds", "samples", "failures", "maxbits/rnd", "TV(unif)"],
    );
    let mut rows = Vec::new();
    let mut ns = Vec::new();
    let mut rounds_series = Vec::new();

    for exp in [8u32, 9, 10, 11, 12, 13, 14] {
        let n = 1usize << exp;
        let nodes: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(exp as u64);
        let graph = HGraph::random(&nodes, 8, &mut rng);

        // Message-level fidelity up to 2^10; direct mode above (same
        // algorithm, array execution — see DESIGN.md).
        let (mode, metrics, tv) = if exp <= 10 {
            let (samples, m) = run_alg1_observed(&graph, &params, 42, &tel);
            let mut counts = vec![0u64; n];
            for (_, s) in &samples {
                for id in s {
                    counts[id.raw() as usize] += 1;
                }
            }
            ("msg", m, tv_distance_uniform(&counts, n))
        } else {
            let run = run_alg1_direct_observed(&graph, &params, 42, &tel);
            let mut counts = vec![0u64; n];
            for s in &run.samples {
                for &id in s {
                    counts[id as usize] += 1;
                }
            }
            ("direct", run.metrics, tv_distance_uniform(&counts, n))
        };
        table.row(vec![
            n.to_string(),
            mode.into(),
            metrics.iterations.to_string(),
            metrics.rounds.to_string(),
            metrics.samples_per_node.to_string(),
            metrics.failures.to_string(),
            metrics.max_node_bits.to_string(),
            f(tv),
        ]);
        rows.push(serde_json::json!({
            "n": n, "mode": mode, "iterations": metrics.iterations,
            "rounds": metrics.rounds, "samples": metrics.samples_per_node,
            "failures": metrics.failures, "max_node_bits": metrics.max_node_bits,
            "tv": tv,
        }));
        ns.push(n as u64);
        rounds_series.push(metrics.rounds as f64);
    }
    table.print();

    let ll = fit_loglog(&ns, &rounds_series);
    let l = fit_log(&ns, &rounds_series);
    println!();
    println!(
        "round growth: loglog fit R^2 = {:.4} (slope {:.2}), log fit R^2 = {:.4}",
        ll.r2, ll.b, l.r2
    );
    println!("paper shape: rounds = 2T+1 with T = ceil(log2(2 alpha log n)) -> log log n growth");

    let result = ExperimentResult {
        id: "E1".into(),
        title: "Rapid node sampling in H-graphs".into(),
        claim: "Theorem 2".into(),
        rows,
    };
    let path = write_json_or_exit(&result);
    println!("json: {}", path.display());
    if let Some(tpath) = write_telemetry_or_exit("E1", &tel, &[("claim", "Theorem 2")]) {
        println!("telemetry: {}", tpath.display());
    }
}
