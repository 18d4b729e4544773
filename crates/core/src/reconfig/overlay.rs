//! The churn-resistant expander overlay (Section 4, Theorem 5).
//!
//! Wraps [`crate::reconfig::epoch`] into a long-running overlay: the node
//! set evolves under an adversarial churn schedule while the topology is
//! replaced by a fresh uniformly random H-graph every epoch. Because each
//! epoch takes `O(log log n)` rounds and joins/leaves take effect at epoch
//! boundaries, the network adapts to the prescribed node sets within
//! `T = O(log log n)` rounds — the delay that makes constant churn rates
//! survivable at all (cf. the `Omega(sqrt(n))` impossibility without it).

use crate::config::SamplingParams;
use crate::metrics::ReconfigMetrics;
use crate::reconfig::epoch::{run_epoch, BridgeMode, EpochInput};
use overlay_adversary::churn::ChurnEvent;
use overlay_graphs::{connectivity, HGraph};
use simnet::NodeId;
use telemetry::{EventKind, Telemetry};

/// A continuously reconfiguring H-graph overlay under churn.
pub struct ExpanderOverlay {
    graph: HGraph,
    params: SamplingParams,
    bridge: BridgeMode,
    seed: u64,
    epoch: u64,
    /// Joins received since the last reconfiguration.
    pending_joins: Vec<JoinPair>,
    /// Leave notices received since the last reconfiguration.
    pending_leaves: Vec<NodeId>,
    /// Total rounds consumed by completed epochs.
    pub total_rounds: u64,
    /// Pure observability: never consulted by the protocol, excluded from
    /// `state_digest` and from checkpoints.
    tel: Telemetry,
}

impl ExpanderOverlay {
    /// Bootstrap an overlay of `n` nodes (ids `0..n`) and degree `d` with
    /// a uniformly random initial H-graph.
    pub fn new(n: usize, d: usize, params: SamplingParams, seed: u64) -> Self {
        assert!(n >= 4, "overlay needs at least 4 nodes");
        let nodes: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
        let mut rng = simnet::rng::stream(seed, 0, 0xB007);
        let graph = HGraph::random(&nodes, d, &mut rng);
        Self {
            graph,
            params,
            bridge: BridgeMode::PointerDoubling,
            seed,
            epoch: 0,
            pending_joins: Vec::new(),
            pending_leaves: Vec::new(),
            total_rounds: 0,
            tel: Telemetry::disabled(),
        }
    }

    /// Select the Phase 3 bridging mode (A1 ablation).
    pub fn set_bridge_mode(&mut self, mode: BridgeMode) {
        self.bridge = mode;
    }

    /// Attach a telemetry recorder. Observability only: attaching (or not)
    /// never changes protocol behavior or the digest stream.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// The current topology.
    pub fn graph(&self) -> &HGraph {
        &self.graph
    }

    /// Current members.
    pub fn members(&self) -> &[NodeId] {
        self.graph.nodes()
    }

    /// Completed epochs.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Record churn prescribed by the adversary; it takes effect at the
    /// next [`Self::reconfigure`] (the paper's delay-`T` adaptation).
    pub fn apply_churn(&mut self, event: &ChurnEvent) {
        for j in &event.joins {
            assert!(
                self.graph.contains(j.introduced_to),
                "introduction target {} is not a member",
                j.introduced_to
            );
            self.pending_joins.push(JoinPair { new: j.new_node, via: j.introduced_to });
        }
        for &l in &event.leaves {
            assert!(self.graph.contains(l), "leaver {l} is not a member");
            self.pending_leaves.push(l);
        }
    }

    /// Evict a member (self-healing graceful degradation): the node is
    /// treated as a leaver and excluded at the next reconfiguration.
    /// Idempotent — double evictions collapse, and evicting a node that is
    /// not (or no longer) a member is a no-op.
    pub fn evict(&mut self, v: NodeId) {
        if self.graph.contains(v) && !self.pending_leaves.contains(&v) {
            self.pending_leaves.push(v);
        }
    }

    /// Re-admit a node after crash-recovery via the ordinary join path:
    /// the smallest-id member that is not itself leaving acts as delegate,
    /// and the join is integrated at the next reconfiguration. A no-op for
    /// staying members and for nodes already waiting to join (a rejoin
    /// racing a fresh crash in the same epoch must not enqueue twice).
    pub fn rejoin(&mut self, v: NodeId) {
        let staying = self.graph.contains(v) && !self.pending_leaves.contains(&v);
        if staying || self.pending_joins.iter().any(|j| j.new == v) {
            return;
        }
        let delegate =
            crate::healing::smallest_live_introducer(self.graph.nodes(), &self.pending_leaves, v)
                .expect("overlay has staying members");
        self.pending_joins.push(JoinPair { new: v, via: delegate });
    }

    /// Run one reconfiguration epoch: the pending joins are integrated,
    /// pending leavers excluded, and the topology replaced by a fresh
    /// uniformly random H-graph. Returns the epoch metrics.
    pub fn reconfigure(&mut self) -> ReconfigMetrics {
        self.epoch += 1;
        let _reconfig = self.tel.phase(telemetry::Phase::Reconfig);
        let out = run_epoch(EpochInput {
            graph: &self.graph,
            leaving: std::mem::take(&mut self.pending_leaves),
            joins: self.pending_joins.drain(..).map(|j| (j.new, j.via)).collect(),
            bridge: self.bridge,
            params: self.params,
            seed: self.seed.wrapping_add(self.epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        });
        self.graph = HGraph::from_cycles(out.members.clone(), out.cycles.clone());
        self.total_rounds += out.metrics.rounds;
        if self.tel.enabled() {
            let m = &out.metrics;
            self.tel.counter("overlay.epochs", &[]).inc();
            if !m.valid {
                self.tel.counter("overlay.failed_epochs", &[]).inc();
            }
            self.tel.counter("overlay.joins", &[]).add(m.joined as u64);
            self.tel.counter("overlay.leaves", &[]).add(m.left as u64);
            self.tel.histogram("overlay.epoch_rounds", &[]).record(m.rounds);
            self.tel.gauge("overlay.members", &[]).set(self.graph.len() as u64);
            let (epoch, joined, left, rounds) = (self.epoch, m.joined, m.left, m.rounds);
            self.tel.emit(epoch, EventKind::EpochFinished, None, u64::from(m.valid), || {
                format!("epoch {epoch}: {joined} joins, {left} leaves in {rounds} rounds")
            });
        }
        out.metrics
    }

    /// Is the current topology connected? (It always is — an H-graph is a
    /// union of Hamilton cycles — so this is a sanity check used by tests
    /// and experiments.)
    pub fn is_connected(&self) -> bool {
        connectivity::is_connected(&self.graph.adjacency())
    }

    /// Stable fingerprint of the full overlay state: epoch counters, sorted
    /// membership with each member's sorted adjacency, and pending churn.
    /// Golden tests pin the sequence of these across epochs; replaying with
    /// the same seed and churn schedule reproduces it exactly.
    pub fn state_digest(&self) -> u64 {
        let mut d = simnet::Digest::new();
        d.write_u64(self.epoch).write_u64(self.total_rounds);
        let mut members: Vec<NodeId> = self.graph.nodes().to_vec();
        members.sort_unstable();
        d.write_usize(members.len());
        for &v in &members {
            d.write_u64(v.raw());
            let mut nbrs = self.graph.neighbors(v);
            nbrs.sort_unstable();
            d.write_usize(nbrs.len());
            for w in nbrs {
                d.write_u64(w.raw());
            }
        }
        d.write_usize(self.pending_joins.len());
        for j in &self.pending_joins {
            d.write_u64(j.new.raw()).write_u64(j.via.raw());
        }
        d.write_usize(self.pending_leaves.len());
        for &l in &self.pending_leaves {
            d.write_u64(l.raw());
        }
        d.finish()
    }
}

/// A join waiting for the next reconfiguration: the joiner and the
/// member it was introduced to, which delegates it into the new topology.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinPair {
    /// The joining node.
    pub new: NodeId,
    /// The member that introduced it.
    pub via: NodeId,
}

simnet::checkpoint_schema! {
    JoinPair {
        fields { new, via }
    }
}

simnet::checkpoint_schema! {
    ExpanderOverlay {
        format: "expander-overlay-checkpoint",
        stamp: state_digest,
        fields {
            graph,
            params: undigested "parameters: they shape the next epoch, not the topology",
            bridge: undigested "Phase 3 mode: it shapes the next epoch, not the topology",
            seed: undigested "seed of the epoch draws: it shapes the next epoch only",
            epoch,
            pending_joins,
            pending_leaves,
            total_rounds,
        }
        skip { tel: Telemetry::disabled() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};

    #[test]
    fn overlay_survives_sustained_random_churn() {
        let mut ov = ExpanderOverlay::new(48, 8, SamplingParams::default(), 1);
        let mut sched = ChurnSchedule::new(ChurnStrategy::Random, 2.0, 0.5, 10_000);
        let mut rng = simnet::rng::stream(1, 0, 1);
        for _ in 0..5 {
            let ev = sched.next(ov.members(), &mut rng);
            let joined = ev.joins.len();
            let left = ev.leaves.len();
            ov.apply_churn(&ev);
            let m = ov.reconfigure();
            assert!(m.valid);
            assert_eq!(m.joined, joined);
            assert_eq!(m.left, left);
            assert!(ov.is_connected());
        }
        assert_eq!(ov.epoch(), 5);
    }

    #[test]
    fn oldest_first_adversary_cannot_disconnect() {
        let mut ov = ExpanderOverlay::new(40, 8, SamplingParams::default(), 2);
        let mut sched = ChurnSchedule::new(ChurnStrategy::OldestFirst, 2.0, 0.8, 10_000);
        let mut rng = simnet::rng::stream(2, 0, 1);
        for _ in 0..4 {
            let ev = sched.next(ov.members(), &mut rng);
            ov.apply_churn(&ev);
            ov.reconfigure();
            assert!(ov.is_connected());
        }
        // After 4 epochs of oldest-first churn at intensity 0.8, most of
        // the original cohort is gone yet the overlay stands.
        let originals = ov.members().iter().filter(|m| m.raw() < 40).count();
        assert!(originals < 40);
    }

    #[test]
    fn leavers_are_excluded_joiners_integrated_within_one_epoch() {
        let mut ov = ExpanderOverlay::new(16, 8, SamplingParams::default(), 3);
        let ev = ChurnEvent {
            joins: vec![overlay_adversary::churn::Join {
                new_node: NodeId(500),
                introduced_to: NodeId(3),
            }],
            leaves: vec![NodeId(7)],
        };
        ov.apply_churn(&ev);
        ov.reconfigure();
        assert!(ov.graph().contains(NodeId(500)), "joiner integrated");
        assert!(!ov.graph().contains(NodeId(7)), "leaver excluded");
    }

    #[test]
    fn membership_is_monotonic_per_id() {
        // An id that left never reappears; an id joins exactly once.
        let mut ov = ExpanderOverlay::new(24, 8, SamplingParams::default(), 4);
        let mut sched = ChurnSchedule::new(ChurnStrategy::Random, 2.0, 0.5, 10_000);
        let mut rng = simnet::rng::stream(4, 0, 1);
        let mut ever_left: Vec<NodeId> = Vec::new();
        for _ in 0..4 {
            let ev = sched.next(ov.members(), &mut rng);
            ever_left.extend(ev.leaves.iter().copied());
            ov.apply_churn(&ev);
            ov.reconfigure();
            for l in &ever_left {
                assert!(!ov.graph().contains(*l), "departed id {l} resurfaced");
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn churn_referencing_stranger_rejected() {
        let mut ov = ExpanderOverlay::new(8, 8, SamplingParams::default(), 5);
        ov.apply_churn(&ChurnEvent { joins: Vec::new(), leaves: vec![NodeId(999)] });
    }
}
