//! E2 — Theorem 3: Algorithm 2 samples exactly uniformly on the hypercube
//! in `O(log log n)` rounds.
//!
//! Expected shape: rounds = 2 log2(d) + 1 for dimension d = log2 n —
//! squaring the network size adds exactly two rounds; the chi-square
//! p-value of pooled samples stays comfortably above rejection.

use overlay_stats::uniform_fit;
use reconfig_bench::{
    experiment_telemetry, table::f, write_json_or_exit, write_telemetry_or_exit, ExperimentResult,
    Table,
};
use reconfig_core::config::{SamplingParams, Schedule};
use reconfig_core::sampling::run_alg2_observed;

fn main() {
    reconfig_bench::backend_or_exit();
    let tel = experiment_telemetry();
    let params = SamplingParams { c: 3.0, ..SamplingParams::default() };
    let mut table = Table::new(
        "E2: rapid node sampling in hypercubes (Theorem 3)",
        &["dim", "n", "mode", "T", "rounds", "samples", "failures", "chi2 p"],
    );
    let mut rows = Vec::new();

    // Simulated rows (full message-level protocol).
    for dim in [2u32, 4, 8] {
        let (samples, m) = run_alg2_observed(dim, &params, 7, &tel);
        let n = 1usize << dim;
        let mut counts = vec![0u64; n];
        for (_, s) in &samples {
            for id in s {
                counts[id.raw() as usize] += 1;
            }
        }
        let (_, pval) = uniform_fit(&counts);
        table.row(vec![
            dim.to_string(),
            n.to_string(),
            "msg".into(),
            m.iterations.to_string(),
            m.rounds.to_string(),
            m.samples_per_node.to_string(),
            m.failures.to_string(),
            f(pval),
        ]);
        rows.push(serde_json::json!({
            "dim": dim, "n": n, "mode": "msg", "rounds": m.rounds,
            "failures": m.failures, "p_uniform": pval,
        }));
    }
    // Analytic rows (schedule only) for sizes beyond simulation reach:
    // the round count is determined by the schedule, not by chance.
    for dim in [16u32, 32, 64] {
        let s = Schedule::algorithm2(dim, &params);
        table.row(vec![
            dim.to_string(),
            format!("2^{dim}"),
            "schedule".into(),
            s.iterations.to_string(),
            s.rounds().to_string(),
            s.final_size().to_string(),
            "-".into(),
            "-".into(),
        ]);
        rows.push(serde_json::json!({
            "dim": dim, "mode": "schedule", "rounds": s.rounds(),
        }));
    }
    table.print();
    println!();
    println!("rounds = 2 log2(dim) + 1: dim 4 -> 5 rounds, dim 64 -> 13 rounds;");
    println!("n grows from 16 to 2^64 while rounds go 5 -> 13 (the log log n law).");

    let result = ExperimentResult {
        id: "E2".into(),
        title: "Rapid node sampling in hypercubes".into(),
        claim: "Theorem 3".into(),
        rows,
    };
    let path = write_json_or_exit(&result);
    println!("json: {}", path.display());
    if let Some(tpath) = write_telemetry_or_exit("E2", &tel, &[("claim", "Theorem 3")]) {
        println!("telemetry: {}", tpath.display());
    }
}
