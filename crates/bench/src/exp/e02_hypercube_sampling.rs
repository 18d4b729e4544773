//! E2 — Theorem 3: Algorithm 2 samples exactly uniformly on the hypercube
//! in `O(log log n)` rounds.
//!
//! Expected shape: rounds = 2 log2(d) + 1 for dimension d = log2 n —
//! squaring the network size adds exactly two rounds; the chi-square
//! p-value of pooled samples stays comfortably above rejection.

use crate::driver::{Experiment, Row, Run, RunError};
use overlay_stats::uniform_fit;
use reconfig_core::config::{SamplingParams, Schedule};
use reconfig_core::sampling::run_alg2_observed;

pub const EXP: Experiment =
    Experiment::new("E2", "Rapid node sampling in hypercubes", "Theorem 3", run).with_telemetry();

fn run(run: &mut Run) -> Result<(), RunError> {
    let params = SamplingParams { c: 3.0, ..SamplingParams::default() };
    run.table("E2: rapid node sampling in hypercubes (Theorem 3)");

    // Simulated rows (full message-level protocol).
    for dim in [2u32, 4, 8] {
        let (samples, m) = run_alg2_observed(dim, &params, 7, &run.tel);
        let n = 1usize << dim;
        let mut counts = vec![0u64; n];
        for (_, s) in &samples {
            for id in s {
                counts[id.raw() as usize] += 1;
            }
        }
        let (_, pval) = uniform_fit(&counts);
        run.row(
            Row::new()
                .cell("dim", "dim", dim)
                .cell("n", "n", n)
                .cell("mode", "mode", "msg")
                .show("T", m.iterations.to_string())
                .cell("rounds", "rounds", m.rounds)
                .show("samples", m.samples_per_node.to_string())
                .cell("failures", "failures", m.failures)
                .float("chi2 p", "p_uniform", pval),
        );
    }
    // Analytic rows (schedule only) for sizes beyond simulation reach:
    // the round count is determined by the schedule, not by chance.
    for dim in [16u32, 32, 64] {
        let s = Schedule::algorithm2(dim, &params);
        run.row(
            Row::new()
                .cell("dim", "dim", dim)
                .show("n", format!("2^{dim}"))
                .cell("mode", "mode", "schedule")
                .show("T", s.iterations.to_string())
                .cell("rounds", "rounds", s.rounds())
                .show("samples", s.final_size().to_string())
                .show("failures", "-")
                .show("chi2 p", "-"),
        );
    }
    run.note("rounds = 2 log2(dim) + 1: dim 4 -> 5 rounds, dim 64 -> 13 rounds;");
    run.note("n grows from 16 to 2^64 while rounds go 5 -> 13 (the log log n law).");
    Ok(())
}
