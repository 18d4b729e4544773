//! Serializable metrics emitted by the overlays and consumed by the
//! experiment harness.

use serde::{Deserialize, Serialize};

/// Outcome of one run of a sampling primitive.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplingMetrics {
    /// Network size.
    pub n: usize,
    /// Communication rounds used.
    pub rounds: u64,
    /// Doubling iterations `T`.
    pub iterations: usize,
    /// Samples delivered per node (the final `|M|`, minimum over nodes).
    pub samples_per_node: usize,
    /// Pop-from-empty-multiset events (0 = the algorithm "succeeded" in
    /// the sense of Lemma 7).
    pub failures: u64,
    /// Maximum per-node communication work in any round (bits).
    pub max_node_bits: u64,
    /// Maximum per-node message events in any round.
    pub max_node_msgs: u64,
    /// Total messages moved.
    pub total_msgs: u64,
}

/// Outcome of one reconfiguration epoch (Algorithm 3 across all cycles).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ReconfigMetrics {
    /// Network size after the epoch.
    pub n: usize,
    /// Rounds the epoch took (sampling + permutation + bridging + wiring).
    pub rounds: u64,
    /// Maximum number of times any node was chosen in Phase 1 (Lemma 11).
    pub max_congestion: usize,
    /// Largest empty segment on the old cycle (Lemma 12).
    pub max_empty_segment: usize,
    /// Nodes that joined this epoch.
    pub joined: usize,
    /// Nodes that left this epoch.
    pub left: usize,
    /// Whether the new topology is a valid H-graph over the surviving set.
    pub valid: bool,
}

/// Per-round observation of the DoS overlay.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct DosRoundMetrics {
    /// Round index.
    pub round: u64,
    /// Nodes blocked this round.
    pub blocked: usize,
    /// Whether the non-blocked subgraph is connected.
    pub connected: bool,
    /// Minimum over groups of available (non-blocked two rounds running)
    /// members — Lemma 17 demands this stays >= 1.
    pub min_group_available: usize,
    /// Smallest group size (Lemma 16 lower band).
    pub min_group_size: usize,
    /// Largest group size (Lemma 16 upper band).
    pub max_group_size: usize,
}

/// Outcome of a whole DoS-overlay run.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DosRunMetrics {
    /// Network size.
    pub n: usize,
    /// Rounds simulated.
    pub rounds: u64,
    /// Rounds in which the non-blocked subgraph was connected.
    pub connected_rounds: u64,
    /// Rounds in which some group had zero available members (Lemma 17
    /// violations; must be 0 for the paper's parameter regime).
    pub starved_rounds: u64,
    /// Reconfiguration epochs completed.
    pub epochs: u64,
}

impl SamplingMetrics {
    /// Derive the communication-work fields from an engine telemetry
    /// snapshot (the `net.max_node_bits` / `net.max_node_msgs` gauges and
    /// `net.total_msgs` counter recorded by
    /// [`simnet_xl::XlNetwork::set_telemetry`]); the protocol-level fields come
    /// from the runner. This is the single source of work numbers for all
    /// sampling runners — they no longer hand-thread `CommStats` fields.
    pub fn from_snapshot(
        snap: &telemetry::Snapshot,
        n: usize,
        rounds: u64,
        iterations: usize,
        samples_per_node: usize,
        failures: u64,
    ) -> Self {
        Self {
            n,
            rounds,
            iterations,
            samples_per_node,
            failures,
            max_node_bits: snap.gauge("net.max_node_bits"),
            max_node_msgs: snap.gauge("net.max_node_msgs"),
            total_msgs: snap.counter("net.total_msgs"),
        }
    }
}

simnet::checkpoint_schema! {
    SamplingMetrics {
        fields {
            n,
            rounds,
            iterations,
            samples_per_node,
            failures,
            max_node_bits,
            max_node_msgs,
            total_msgs,
        }
    }
}

impl DosRunMetrics {
    /// Fold one observed round into the run totals: the accumulation path
    /// of [`crate::healing::FaultyRunner::run`].
    pub fn absorb(&mut self, round: DosRoundMetrics) {
        self.rounds += 1;
        if round.connected {
            self.connected_rounds += 1;
        }
        if round.min_group_available == 0 {
            self.starved_rounds += 1;
        }
    }

    /// Fraction of simulated rounds that stayed connected.
    pub fn connectivity_rate(&self) -> f64 {
        if self.rounds == 0 {
            1.0
        } else {
            self.connected_rounds as f64 / self.rounds as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Checkpoint;

    #[test]
    fn connectivity_rate_handles_zero_rounds() {
        let m = DosRunMetrics::default();
        assert_eq!(m.connectivity_rate(), 1.0);
    }

    #[test]
    fn connectivity_rate_is_a_fraction() {
        let m = DosRunMetrics { rounds: 10, connected_rounds: 7, ..Default::default() };
        assert!((m.connectivity_rate() - 0.7).abs() < 1e-12);
    }

    #[test]
    fn metrics_serialize_roundtrip() {
        let m = SamplingMetrics { n: 128, rounds: 9, ..Default::default() };
        let s = serde_json::to_string(&m.save()).unwrap();
        let back = SamplingMetrics::load(&serde_json::from_str(&s).unwrap()).unwrap();
        assert_eq!(back.n, 128);
        assert_eq!(back.rounds, 9);
    }
}
