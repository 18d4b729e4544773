//! E2 — Theorem 3: Algorithm 2 samples exactly uniformly on the hypercube
//! in `O(log log n)` rounds.
//!
//! Expected shape: rounds = 2 log2(d) + 1 for dimension d = log2 n —
//! squaring the network size adds exactly two rounds; the chi-square
//! p-value of the pooled samples stays above rejection. Dimensions past
//! simulation reach are schedule rows: their round count is fixed by the
//! schedule, not by chance.

use super::prelude::*;
use reconfig_core::config::{SamplingParams, Schedule};
use reconfig_core::sampling::run_alg2_observed;

pub const EXP: Experiment = Experiment::swept(
    "E2",
    "Rapid node sampling in hypercubes",
    "Theorem 3",
    &[SIMULATED, SCHEDULED],
    verdict,
)
.with_telemetry();

/// Seeds per simulated cell.
const K: u64 = 8;

fn params() -> SamplingParams {
    SamplingParams { c: 3.0, ..SamplingParams::default() }
}

const SIMULATED: Sweep = Sweep {
    title: "E2: rapid node sampling in hypercubes (Theorem 3)",
    k: K,
    axes: || vec![Axis::new("dim", [2u32, 4, 8])],
    cell,
};

const SCHEDULED: Sweep = Sweep {
    title: "E2: the same schedule beyond simulation reach",
    k: 1,
    axes: || vec![Axis::new("dim", [16u32, 32, 64])],
    cell: |cell, _| {
        let s = Schedule::algorithm2(cell.u64("dim") as u32, &params());
        Ok(Metrics::new().count("iterations", s.iterations).count("rounds", s.rounds()))
    },
};

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let dim = cell.u64("dim") as u32;
    let (samples, m) = run_alg2_observed(dim, &params(), seed, cell.tel);
    let mut counts = vec![0u64; 1 << dim];
    samples.iter().flat_map(|(_, s)| s).for_each(|id| counts[id.raw() as usize] += 1);
    Ok(Metrics::new()
        .count("iterations", m.iterations)
        .count("rounds", m.rounds)
        .count("samples", m.samples_per_node)
        .count("failures", m.failures)
        .tally("pooled_samples", counts))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let exact = |a: &Agg| {
        a.min("rounds") == a.max("rounds") && a.max("rounds") == 2.0 * a.at("dim").log2() + 1.0
    };
    let clean = t[0].iter().all(|a| a.max("failures") == 0.0);
    let uniform = t[0].iter().all(|a| a.p_uniform("pooled_samples") > 0.01);
    vec![
        Check::claim("rounds = 2 log2(dim) + 1 in every cell", t.iter().flatten().all(exact)),
        Check::claim("no multiset underflows", clean),
        Check::claim("chi-square accepts uniform pooled samples at the 1% level", uniform),
    ]
}
