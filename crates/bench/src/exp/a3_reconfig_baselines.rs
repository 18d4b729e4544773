//! A3 — baseline comparison: Algorithm 3 vs routing-based reconfiguration
//! on a skip graph (the alternative Section 1.2 sketches and dismisses).
//!
//! In the skip-graph approach every node draws a fresh random label and
//! routes through the *old* skip graph to its new position; the epoch
//! cannot finish before the slowest route does, and with polylog degree
//! routing needs `Omega(log n / log log n)` rounds. Algorithm 3 needs
//! `O(log log n)`.
//!
//! Expected shape: the skip-graph column grows with log n; Algorithm 3's
//! stays nearly flat; the ratio widens.

use super::{hgraph, quiet_epoch};
use crate::driver::{Experiment, Row, Run, RunError};
use crate::table::f;
use overlay_graphs::SkipGraph;
use overlay_stats::{fit_log, fit_loglog};
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_core::reconfig::BridgeMode;
use simnet::NodeId;

pub const EXP: Experiment = Experiment::new(
    "A3",
    "Reconfiguration baselines",
    "Section 1.2: routing/sorting cannot beat o(log n / log log n)",
    run,
);

/// One skip-graph reconfiguration epoch: every node routes to a fresh
/// uniformly random label; the epoch length is the worst route length
/// plus the O(log n) rewiring sweep of the new skip graph.
fn skip_epoch_rounds(n: u64, seed: u64) -> u64 {
    let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let g = SkipGraph::build(&nodes, &mut rng);
    let mut worst = 0u64;
    for &v in &nodes {
        let target = rng.random::<u64>();
        let hops = g.route(v, target).len() as u64 - 1;
        worst = worst.max(hops);
    }
    // Rewiring the new skip graph: one round per level.
    worst + g.levels() as u64
}

fn run(run: &mut Run) -> Result<(), RunError> {
    run.table("A3: Algorithm 3 vs skip-graph routing reconfiguration");
    let (mut ns, mut alg3_series, mut skip_series) = (Vec::new(), Vec::new(), Vec::new());
    for exp in [6u32, 7, 8, 9, 10, 11] {
        let n = 1u64 << exp;
        let g = hgraph(n, exp as u64);
        let alg3 = quiet_epoch(&g, BridgeMode::PointerDoubling, 17 + exp as u64).metrics.rounds;
        let skip = skip_epoch_rounds(n, 100 + exp as u64);
        run.row(
            Row::new()
                .cell("n", "n", n)
                .cell("alg3 rounds", "alg3_rounds", alg3)
                .cell("skip-graph rounds", "skip_rounds", skip)
                .show("ratio", f(skip as f64 / alg3 as f64)),
        );
        ns.push(n);
        alg3_series.push(alg3 as f64);
        skip_series.push(skip as f64);
    }
    let a_ll = fit_loglog(&ns, &alg3_series);
    let s_l = fit_log(&ns, &skip_series);
    run.note(format!(
        "alg3 ~ a + b loglog n (R^2 {:.4}); skip-graph ~ a + b log n (R^2 {:.4}, b {:.2})",
        a_ll.r2, s_l.r2, s_l.b
    ));
    run.note("routing-based reconfiguration pays the log n routing toll every epoch;");
    run.note("rapid node sampling removes it — the design decision behind the paper.");
    Ok(())
}
