//! E10 — Lemmas 16 and 17: random group assignment concentrates group
//! sizes around `n/N`, and blocking any `(1/2 - eps)`-fraction of nodes
//! (without knowledge of current membership) leaves every group with a
//! strict majority unblocked.
//!
//! Expected shape: min/max group sizes hug `n/N`; the worst-group
//! unblocked share stays above 1/2 for every eps > 0, tightening as eps
//! grows.

use crate::driver::{Experiment, Row, Run, RunError};
use crate::table::f;
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use reconfig_core::dos::{DosOverlay, DosParams};

pub const EXP: Experiment =
    Experiment::new("E10", "Group concentration and blocking shares", "Lemmas 16 and 17", run);

fn run(run: &mut Run) -> Result<(), RunError> {
    run.table("E10a: group size concentration (Lemma 16)");
    for exp in [12u32, 13, 14] {
        let n = 1usize << exp;
        let ov = DosOverlay::new(n, DosParams::default(), exp as u64);
        let n_super = ov.grouped().cube().len();
        let (min, max) = ov.grouped().group_size_range();
        run.row(
            Row::new()
                .cell("n", "n", n)
                .cell("supernodes", "supernodes", n_super)
                .show("n/N", f(n as f64 / n_super as f64))
                .cell("min |R(x)|", "min_group", min)
                .cell("max |R(x)|", "max_group", max),
        );
    }

    run.table("E10b: worst-group unblocked share under (1/2 - eps) blocking (Lemma 17)");
    let n = 1usize << 13;
    for &eps in &[0.05f64, 0.1, 0.2, 0.3, 0.45] {
        // Lemma 17's "we can choose a constant c": size groups so the
        // Chernoff upper tail at deviation delta = eps / (1/2 - eps)
        // stays below 1/(50 * #groups). rate = min(d^2, d) * (1/2-eps) / 3
        // failures per member; required size = ln(50 * #groups) / rate.
        let delta = eps / (0.5 - eps);
        let rate = delta.powi(2).min(delta) * (0.5 - eps) / 3.0;
        let s_req = (50.0 * 64.0f64).ln() / rate;
        let group_c = (s_req / (n as f64).log2()).max(4.0);
        let params = DosParams { group_c, ..DosParams::default() };
        let ov = DosOverlay::new(n, params, 99);
        let mut adv = DosAdversary::new(DosStrategy::Random, 0.5 - eps, 0, 7);
        adv.observe(ov.grouped().snapshot(0));
        let blocked = adv.block(0, n);
        let unblocked = ov.grouped().unblocked_per_group(&blocked);
        let min_share = unblocked
            .iter()
            .enumerate()
            .map(|(x, &u)| u as f64 / ov.grouped().group(x as u64).len().max(1) as f64)
            .fold(1.0f64, f64::min);
        let (min_size, _) = ov.grouped().group_size_range();
        run.row(
            Row::new()
                .float("eps", "eps", eps)
                .float("blocked frac", "blocked_fraction", 0.5 - eps)
                .float("group c", "group_c", group_c)
                .cell("group size", "min_group_size", min_size)
                .float("min share", "min_unblocked_share", min_share)
                .show("majority kept", (min_share > 0.5).to_string()),
        );
        assert!(min_share > 0.5, "Lemma 17 violated at eps = {eps}");
    }
    run.note("every group keeps a strict unblocked majority for all eps > 0 — the");
    run.note("adversary cannot even starve a single group, let alone disconnect.");
    Ok(())
}
