//! The experiment registry: one module per experiment, each exporting one
//! [`Experiment`] under the id EXPERIMENTS.md uses. `exp <ID>` runs one
//! (see [`crate::driver`]).

use crate::driver::Experiment;
use overlay_graphs::HGraph;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_core::config::SamplingParams;
use reconfig_core::reconfig::{run_epoch, BridgeMode, EpochInput, EpochOutput};
use simnet::NodeId;

/// Declares each experiment module and lists its entry, so the two can
/// never disagree.
macro_rules! registry {
    ($($module:ident),* $(,)?) => {
        $(mod $module;)*

        /// Every experiment, in EXPERIMENTS.md's id order.
        pub const ALL: &[Experiment] = &[$($module::EXP),*];
    };
}

registry! {
    e01_hgraph_sampling, e02_hypercube_sampling, e03_baseline_comparison, e04_lower_bound,
    e05_schedule_robustness, e06_cycle_uniformity, e07_congestion_segments, e08_reconfig_rounds,
    e09_churn_survival, e10_group_concentration, e11_dos_survival, e12_churn_dos,
    e13_anonymizer, e14_robust_dht, e15_pubsub, e16_group_simulation,
    a1_bridge_ablation, a2_lateness_crossover, a3_reconfig_baselines, a4_crash_failures,
    a5_fault_survival, a6_adaptive_adversary, a7_byzantine, a8_recovery,
    s1_scale, n1_cluster, w1_dht_load, w2_hotkey, w3_chat, p1_alg1, p2_dos_round, p3_cluster,
}

/// What every swept module uses.
mod prelude {
    pub use crate::driver::{Check, Experiment, RunError};
    pub use crate::sweep::{split, Agg, Axis, Cell, Metrics, Sweep};
}

/// A random degree-8 H-graph on the nodes `0..n`.
fn hgraph(n: u64, seed: u64) -> HGraph {
    let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
    HGraph::random(&nodes, 8, &mut ChaCha8Rng::seed_from_u64(seed))
}

/// One reconfiguration epoch of `graph` with no churn and the default
/// sampling parameters.
fn quiet_epoch(graph: &HGraph, bridge: BridgeMode, seed: u64) -> EpochOutput {
    let params = SamplingParams::default();
    run_epoch(EpochInput { graph, leaving: Vec::new(), joins: Vec::new(), bridge, params, seed })
}

#[cfg(test)]
mod tests {
    use super::ALL;
    use crate::driver::Body;
    use std::collections::BTreeSet;

    fn unique<'a>(ids: &[&'a str]) -> BTreeSet<&'a str> {
        ids.iter().copied().collect()
    }

    /// EXPERIMENTS.md's `## <ID> — ...` sections and the registry name the
    /// same experiments, each once.
    #[test]
    fn registry_matches_experiments_md() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let text = std::fs::read_to_string(path).expect("EXPERIMENTS.md is readable");
        let documented: Vec<&str> = text
            .lines()
            .filter_map(|l| l.strip_prefix("## ")?.split_once(" — ").map(|(id, _)| id))
            .collect();
        let registered: Vec<&str> = ALL.iter().map(|e| e.id).collect();
        assert_eq!(
            unique(&documented).len(),
            documented.len(),
            "duplicate section: {documented:?}"
        );
        assert_eq!(unique(&registered).len(), registered.len(), "duplicate id: {registered:?}");
        assert_eq!(unique(&documented), unique(&registered));
        assert_eq!(registered.len(), 32);
        // Every claim experiment (E and A) runs through the sweep.
        for e in ALL.iter().filter(|e| e.id.starts_with(['E', 'A'])) {
            assert!(matches!(e.run, Body::Sweep(..)), "{} is not swept", e.id);
        }
    }

    /// No two (cell, k) pairs of a swept experiment share a seed, and no
    /// two experiments do either.
    #[test]
    fn every_swept_run_has_its_own_seed() {
        let mut seen = std::collections::BTreeMap::new();
        for e in ALL {
            let Body::Sweep(sweeps, _) = e.run else { continue };
            for (key, k, seed) in crate::sweep::seeds(e.id, sweeps) {
                let here = format!("{} {key} k={k}", e.id);
                assert!(seen.insert(seed, here.clone()).is_none(), "{here} repeats seed {seed:#x}");
            }
        }
        assert!(seen.len() > 24 * 4, "{} seeds", seen.len());
    }
}
