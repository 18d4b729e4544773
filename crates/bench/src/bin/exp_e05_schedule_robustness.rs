//! E5 — Lemmas 5+7: the multiset schedule `m_i = (2+eps)^(T-i) c log n`
//! succeeds w.h.p. for adequately sized `(eps, c)` and fails when
//! undersized.
//!
//! Expected shape: a sharp boundary — failures drop to zero once `c`
//! crosses the Chernoff-sized threshold for the given `eps`.

use overlay_graphs::HGraph;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_bench::{table::f, write_json_or_exit, ExperimentResult, Table};
use reconfig_core::config::SamplingParams;
use reconfig_core::sampling::run_alg1_direct;
use simnet::NodeId;

fn main() {
    reconfig_bench::backend_or_exit();
    let n = 512usize;
    let seeds = 5u64;
    let nodes: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let graph = HGraph::random(&nodes, 8, &mut rng);

    let mut table = Table::new(
        "E5: schedule robustness at n = 512 (Lemma 7 boundary)",
        &["eps", "c", "runs", "failed runs", "total underflows", "mean/run"],
    );
    let mut rows = Vec::new();
    for &eps in &[0.1f64, 0.5, 1.0] {
        for &c in &[0.25f64, 0.5, 1.0, 2.0, 4.0] {
            let params = SamplingParams { epsilon: eps, c, ..SamplingParams::default() };
            let mut failed_runs = 0u64;
            let mut total = 0u64;
            for s in 0..seeds {
                let run = run_alg1_direct(&graph, &params, 1000 + s);
                if run.metrics.failures > 0 {
                    failed_runs += 1;
                }
                total += run.metrics.failures;
            }
            table.row(vec![
                f(eps),
                f(c),
                seeds.to_string(),
                failed_runs.to_string(),
                total.to_string(),
                f(total as f64 / seeds as f64),
            ]);
            rows.push(serde_json::json!({
                "eps": eps, "c": c, "runs": seeds,
                "failed_runs": failed_runs, "underflows": total,
            }));
        }
    }
    table.print();
    println!();
    println!("who wins: the Lemma 7 regime — once c (and eps) give the schedule a");
    println!("geometric reserve, underflows vanish; starved schedules fail reliably.");

    let result = ExperimentResult {
        id: "E5".into(),
        title: "Multiset schedule robustness".into(),
        claim: "Lemmas 5 and 7 (and 9)".into(),
        rows,
    };
    let path = write_json_or_exit(&result);
    println!("json: {}", path.display());
}
