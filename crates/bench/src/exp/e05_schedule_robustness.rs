//! E5 — Lemmas 5+7: the multiset schedule `m_i = (2+eps)^(T-i) c log n`
//! succeeds w.h.p. for adequately sized `(eps, c)` and fails when
//! undersized.
//!
//! Expected shape: a sharp boundary — failures drop to zero once `c`
//! crosses the Chernoff-sized threshold for the given `eps`.

use super::hgraph;
use super::prelude::*;
use reconfig_core::config::SamplingParams;
use reconfig_core::sampling::run_alg1_direct_observed;
use telemetry::Telemetry;

pub const EXP: Experiment = Experiment::swept(
    "E5",
    "Multiset schedule robustness",
    "Lemmas 5 and 7 (and 9)",
    &[SWEEP],
    verdict,
);

/// Runs per cell.
const K: u64 = 5;

const SWEEP: Sweep = Sweep {
    title: "E5: schedule robustness at n = 512 (Lemma 7 boundary)",
    k: K,
    axes: || vec![Axis::new("eps", [0.1, 0.5, 1.0]), Axis::new("c", [0.25, 0.5, 1.0, 2.0, 4.0])],
    cell,
};

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let (epsilon, c) = (cell.f64("eps"), cell.f64("c"));
    let params = SamplingParams { epsilon, c, ..SamplingParams::default() };
    let [graph_seed, run_seed] = split(seed);
    let out = run_alg1_direct_observed(
        &hgraph(512, graph_seed),
        &params,
        run_seed,
        &Telemetry::disabled(),
    );
    let failures = out.metrics.failures;
    Ok(Metrics::new().rate("underflowed", failures > 0).count("underflows", failures))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let mut sized = t[0].iter().filter(|a| a.at("eps") >= 1.0 && a.at("c") >= 2.0);
    let mut starved = t[0].iter().filter(|a| a.at("c") <= 0.5);
    vec![
        Check::claim(
            "eps = 1, c >= 2: no underflow in any run",
            sized.all(|a| a.never("underflowed")),
        ),
        Check::control("c <= 0.5: every run underflows", starved.all(|a| a.always("underflowed"))),
    ]
}
