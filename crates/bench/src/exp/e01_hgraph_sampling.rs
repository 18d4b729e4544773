//! E1 — Theorem 2: Algorithm 1 samples `>= beta log n` nodes almost
//! uniformly in `O(log log n)` rounds with polylogarithmic communication
//! work per node per round.
//!
//! Expected shape: the `rounds` column grows by <= 2 when `n` doubles
//! (one doubling iteration per squaring of n), failures stay 0, and the
//! pooled sample distribution is within small TV distance of uniform.

use super::hgraph;
use crate::driver::{Experiment, Row, Run, RunError};
use overlay_stats::{fit_log, fit_loglog, tv_distance_uniform};
use reconfig_core::config::SamplingParams;
use reconfig_core::sampling::{run_alg1_direct_observed, run_alg1_observed};

pub const EXP: Experiment =
    Experiment::new("E1", "Rapid node sampling in H-graphs", "Theorem 2", run).with_telemetry();

fn run(run: &mut Run) -> Result<(), RunError> {
    let params = SamplingParams::default();
    run.table("E1: rapid node sampling in H-graphs (Theorem 2)");
    let mut ns = Vec::new();
    let mut rounds_series = Vec::new();

    for exp in [8u32, 9, 10, 11, 12, 13, 14] {
        let n = 1usize << exp;
        let graph = hgraph(n as u64, exp as u64);

        // Message-level fidelity up to 2^10; direct mode above (same
        // algorithm, array execution — see DESIGN.md).
        let mut counts = vec![0u64; n];
        let (mode, metrics) = if exp <= 10 {
            let (samples, m) = run_alg1_observed(&graph, &params, 42, &run.tel);
            for (_, s) in &samples {
                for id in s {
                    counts[id.raw() as usize] += 1;
                }
            }
            ("msg", m)
        } else {
            let out = run_alg1_direct_observed(&graph, &params, 42, &run.tel);
            for s in &out.samples {
                for &id in s {
                    counts[id as usize] += 1;
                }
            }
            ("direct", out.metrics)
        };
        run.row(
            Row::new()
                .cell("n", "n", n)
                .cell("mode", "mode", mode)
                .cell("T", "iterations", metrics.iterations)
                .cell("rounds", "rounds", metrics.rounds)
                .cell("samples", "samples", metrics.samples_per_node)
                .cell("failures", "failures", metrics.failures)
                .cell("maxbits/rnd", "max_node_bits", metrics.max_node_bits)
                .float("TV(unif)", "tv", tv_distance_uniform(&counts, n)),
        );
        ns.push(n as u64);
        rounds_series.push(metrics.rounds as f64);
    }

    let ll = fit_loglog(&ns, &rounds_series);
    let l = fit_log(&ns, &rounds_series);
    run.note(format!(
        "round growth: loglog fit R^2 = {:.4} (slope {:.2}), log fit R^2 = {:.4}",
        ll.r2, ll.b, l.r2
    ));
    run.note("paper shape: rounds = 2T+1 with T = ceil(log2(2 alpha log n)) -> log log n growth");
    Ok(())
}
