//! The epoch loop of the combined churn+DoS overlay.

use crate::churndos::splitmerge::{target_dim, LabeledGroups, SizeBand};
use crate::config::SamplingParams;
use crate::dos::epoch::EpochClock;
use crate::healing::{smallest_live_introducer, HealableOverlay};
use crate::metrics::{DosRoundMetrics, DosRunMetrics};
use crate::reconfig::JoinPair;
use overlay_adversary::churn::ChurnEvent;
use overlay_adversary::lateness::{SharedSnapshot, TopologySnapshot};
use overlay_graphs::prefix::Label;
use simnet::rng::NodeRng;
use simnet::{BlockSet, NodeId};
use std::collections::HashSet;
use std::sync::{Arc, OnceLock};
use telemetry::{EventKind, Telemetry};

/// Parameters of the Section 6 overlay.
#[derive(Clone, Copy, Debug)]
pub struct ChurnDosParams {
    /// The Equation 1 constant `c`.
    pub band_c: usize,
    /// Sampling parameters (epoch length derivation).
    pub sampling: SamplingParams,
}

impl Default for ChurnDosParams {
    fn default() -> Self {
        Self { band_c: 8, sampling: SamplingParams::default() }
    }
}

/// The churn- and DoS-resistant overlay of Theorem 7: variable-dimension
/// supernodes with split/merge, groups resampled every epoch with
/// probability `2^-d(x)` per supernode, joins/leaves applied at epoch
/// boundaries.
pub struct ChurnDosOverlay {
    groups: LabeledGroups,
    band: SizeBand,
    clock: EpochClock,
    pending_joins: Vec<JoinPair>,
    pending_leaves: Vec<NodeId>,
    rng: NodeRng,
    /// The adversary's snapshot of `groups`, built on the first
    /// [`snapshot`](Self::snapshot) after a change (an eviction or a
    /// reconfiguration) and shared until the next; never checkpointed.
    shared: OnceLock<Arc<TopologySnapshot>>,
    /// Pure observability: never consulted by the protocol, excluded from
    /// `state_digest` and from checkpoints.
    tel: Telemetry,
}

impl ChurnDosOverlay {
    /// Build the overlay over nodes `0..n`.
    pub fn new(n: usize, params: ChurnDosParams, seed: u64) -> Self {
        let nodes: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
        let dim = target_dim(n, params.band_c);
        let mut rng = simnet::rng::stream(seed, 2, 0xCD05);
        let mut groups = LabeledGroups::random(&nodes, dim.max(1), &mut rng);
        let band = SizeBand { c: params.band_c };
        groups.rebalance(band, &mut rng).expect("initial population fits Equation 1");
        // The Section 5 epoch on at least two supernode dimensions, plus a
        // constant number of rounds for the organized split/merge phase
        // (Lemma 18).
        let epoch_len = EpochClock::epoch_len_for(u32::from(dim.max(2)), &params.sampling) + 4;
        Self {
            groups,
            band,
            clock: EpochClock::new(epoch_len),
            pending_joins: Vec::new(),
            pending_leaves: Vec::new(),
            rng,
            shared: OnceLock::new(),
            tel: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry recorder. Observability only — the overlay never
    /// draws randomness or branches on the recorder, so attaching one
    /// leaves every `state_digest` unchanged.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Current members.
    pub fn members(&self) -> Vec<NodeId> {
        self.groups.nodes()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// True if the overlay has no members (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The current group structure.
    pub fn groups(&self) -> &LabeledGroups {
        &self.groups
    }

    /// Record churn; it takes effect at the next epoch boundary. A join is
    /// broadcast into the introducer's group (the paper's join operation),
    /// a leaver informs its group.
    pub fn apply_churn(&mut self, event: &ChurnEvent) {
        let members: HashSet<NodeId> = self.groups.nodes().into_iter().collect();
        for j in &event.joins {
            assert!(members.contains(&j.introduced_to), "introducer not a member");
            self.pending_joins.push(JoinPair { new: j.new_node, via: j.introduced_to });
        }
        for &l in &event.leaves {
            assert!(members.contains(&l), "leaver {l} is not a member");
            self.pending_leaves.push(l);
        }
    }

    /// Is the non-blocked subgraph connected? Reduces to connectivity of
    /// the Section 6 supernode graph (prefix rule) restricted to
    /// supernodes with a non-blocked member.
    pub fn connected_under(&self, blocked: &BlockSet) -> bool {
        let alive: Vec<Label> = self
            .groups
            .iter()
            .filter(|(_, g)| g.iter().any(|v| !blocked.contains(*v)))
            .map(|(l, _)| *l)
            .collect();
        if alive.len() <= 1 {
            return true;
        }
        let index: std::collections::HashMap<Label, usize> =
            alive.iter().enumerate().map(|(i, &l)| (l, i)).collect();
        let mut seen = vec![false; alive.len()];
        seen[0] = true;
        let mut queue = vec![alive[0]];
        let mut reached = 1;
        while let Some(x) = queue.pop() {
            for y in &alive {
                if !seen[index[y]] && x.connected(y) {
                    seen[index[y]] = true;
                    reached += 1;
                    queue.push(*y);
                }
            }
        }
        reached == alive.len()
    }

    /// Execute one round under the given block set.
    pub fn step(&mut self, blocked: &BlockSet) -> DosRoundMetrics {
        // Empty groups (possible only after self-healing evictions) are
        // skipped: a group with no members cannot starve.
        let prev = self.clock.prev_blocked();
        let min_avail = self
            .groups
            .iter()
            .filter(|(_, g)| !g.is_empty())
            .map(|(_, g)| {
                g.iter().filter(|v| !prev.contains(**v) && !blocked.contains(**v)).count()
            })
            .min()
            .unwrap_or(0);
        let (min_size, max_size) = self.groups.size_range();
        let metrics = DosRoundMetrics {
            round: self.clock.round() + 1,
            blocked: blocked.len(),
            connected: self.connected_under(blocked),
            min_group_available: min_avail,
            min_group_size: min_size,
            max_group_size: max_size,
        };
        // A failed epoch keeps the stale groups: leavers cannot depart
        // while the reconfiguration is stalled, and joins wait too
        // (monotonic membership).
        if self.clock.close(min_avail == 0, blocked) == Some(true) {
            self.reconfigure();
        }
        self.clock.record(&self.tel, &metrics);
        metrics
    }

    /// Epoch-boundary reconfiguration: apply pending churn, resample every
    /// node's supernode with probability `2^-d(x)`, then split/merge back
    /// into the Equation 1 band.
    fn reconfigure(&mut self) {
        let leaves: HashSet<NodeId> = self.pending_leaves.drain(..).collect();
        let mut population: Vec<NodeId> =
            self.groups.nodes().into_iter().filter(|v| !leaves.contains(v)).collect();
        population.extend(self.pending_joins.drain(..).map(|j| j.new));

        let cover = self.groups.cover().clone();
        let assign: Vec<(NodeId, Label)> =
            population.iter().map(|&v| (v, cover.sample(&mut self.rng))).collect();
        self.groups = LabeledGroups::from_assignment(cover, &assign);
        self.groups
            .rebalance(self.band, &mut self.rng)
            .expect("population within Equation 1's reachable regime");
        self.shared.take();
    }

    /// Stable fingerprint of the full overlay state: round/epoch counters,
    /// the labeled group structure (labels in sorted order, members sorted
    /// within each group), pending churn, and the previous block set.
    /// Golden tests pin the sequence of these across rounds.
    pub fn state_digest(&self) -> u64 {
        self.clock.digest(|d| {
            let mut entries: Vec<(u8, u64, Vec<NodeId>)> = self
                .groups
                .iter()
                .map(|(l, g)| {
                    let mut members = g.clone();
                    members.sort_unstable();
                    (l.dim(), l.prefix_bits(l.dim()), members)
                })
                .collect();
            entries.sort_unstable_by_key(|e| (e.0, e.1));
            d.write_usize(entries.len());
            for (dim, bits, members) in entries {
                d.write_u8(dim).write_u64(bits).write_usize(members.len());
                for v in members {
                    d.write_u64(v.raw());
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
        })
    }

    /// Topology snapshot for the adversary (groups + supernode adjacency),
    /// observed in `round`. Built — the `O(G^2)` label-pair scan included —
    /// on the first call after a change, with that call's round as its
    /// own, and shared until the next change.
    pub fn snapshot(&self, round: u64) -> SharedSnapshot {
        let topo = self.shared.get_or_init(|| Arc::new(self.build_snapshot(round)));
        SharedSnapshot::new(round, Arc::clone(topo))
    }

    fn build_snapshot(&self, round: u64) -> TopologySnapshot {
        let labels: Vec<&Label> = self.groups.iter().map(|(l, _)| l).collect();
        let groups: Vec<Vec<NodeId>> = self.groups.iter().map(|(_, g)| g.clone()).collect();
        let mut group_edges = Vec::new();
        for (i, a) in labels.iter().enumerate() {
            for (j, b) in labels.iter().enumerate().skip(i + 1) {
                if a.connected(b) {
                    group_edges.push((i as u32, j as u32));
                }
            }
        }
        TopologySnapshot {
            round,
            nodes: self.groups.nodes(),
            edges: Vec::new(),
            groups,
            group_edges,
        }
    }

    /// Drive the overlay against a DoS adversary and a churn schedule.
    /// Churn is injected once per epoch (rate `gamma` per epoch =
    /// `gamma^(1/epoch_len)` per round, the paper's formulation).
    pub fn run_under_attack(
        &mut self,
        adversary: &mut overlay_adversary::dos::DosAdversary,
        churn: &mut overlay_adversary::churn::ChurnSchedule,
        epochs: u64,
        churn_rng: &mut NodeRng,
    ) -> DosRunMetrics {
        let mut out = DosRunMetrics { n: self.len(), ..Default::default() };
        for _ in 0..epochs {
            let ev = churn.next(&self.members(), churn_rng);
            self.apply_churn(&ev);
            for _ in 0..self.epoch_len() {
                let blocked = crate::healing::attack_round(&*self, adversary, None).blocked;
                out.absorb(self.step(&blocked));
            }
        }
        out.epochs = self.clock.epochs();
        out
    }
}

simnet::checkpoint_schema! {
    ChurnDosOverlay {
        format: "churndos-overlay-checkpoint",
        stamp: state_digest,
        fields {
            groups,
            band: undigested "the Equation 1 constant: it shapes the next split or merge only",
            pending_joins,
            pending_leaves,
            rng: undigested "the resampling stream: `NodeRng::load` checks its shape",
        }
        flat { clock: EpochClock }
        skip { shared: OnceLock::new(), tel: Telemetry::disabled() }
    }
}

impl HealableOverlay for ChurnDosOverlay {
    fn members_sorted(&self) -> Vec<NodeId> {
        let mut m = self.members();
        m.sort_unstable();
        m
    }
    fn len(&self) -> usize {
        self.len()
    }
    fn clock(&self) -> &EpochClock {
        &self.clock
    }
    fn snapshot(&self, round: u64) -> SharedSnapshot {
        self.snapshot(round)
    }
    fn step_overlay(&mut self, blocked: &BlockSet) -> DosRoundMetrics {
        self.step(blocked)
    }
    /// Unlike a churn leave — which waits for the epoch boundary — an
    /// eviction removes the node from its group mid-epoch: the remaining
    /// members simply stop treating it as one of them. Any pending leave
    /// for the node becomes a no-op at the boundary.
    fn evict(&mut self, v: NodeId) {
        if self.groups.remove(v) {
            self.shared.take();
        }
        self.tel.emit(self.round(), EventKind::Eviction, Some(v.raw()), 0, String::new);
    }
    /// The smallest-id live member acts as introducer, and the join
    /// materializes at the next successful reconfiguration like any other.
    /// A no-op for current members and for nodes already waiting to join
    /// (a rejoin racing a fresh crash in the same epoch must not enqueue
    /// the node twice).
    fn rejoin(&mut self, v: NodeId) {
        let members = self.groups.nodes();
        if members.contains(&v) || self.pending_joins.iter().any(|j| j.new == v) {
            return;
        }
        let introducer = smallest_live_introducer(&members, &self.pending_leaves, v)
            .expect("overlay has members");
        let round = self.round();
        self.tel.emit(round, EventKind::Rejoin, Some(v.raw()), introducer.raw(), String::new);
        self.pending_joins.push(JoinPair { new: v, via: introducer });
    }
    fn structure_violation(&self) -> Option<String> {
        // The label cover itself must stay a prefix cover (Lemma 18's
        // structural half); sizes may dip below the band mid-epoch while
        // evictions outpace reconfiguration.
        (!self.groups().lemma18_holds()).then(|| "label cover out of Lemma 18 shape".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};
    use overlay_adversary::dos::{DosAdversary, DosStrategy};

    #[test]
    fn overlay_initializes_in_band() {
        let ov = ChurnDosOverlay::new(2000, ChurnDosParams::default(), 1);
        assert!(ov.groups().lemma18_holds());
        let band = SizeBand { c: 8 };
        for (l, g) in ov.groups().iter() {
            assert!(band.ok(l.dim(), g.len()), "{l:?} size {}", g.len());
        }
    }

    #[test]
    fn churn_applies_at_epoch_boundary() {
        let mut ov = ChurnDosOverlay::new(1000, ChurnDosParams::default(), 2);
        let n0 = ov.len();
        let mut sched = ChurnSchedule::new(ChurnStrategy::Random, 1.3, 1.0, 100_000);
        let mut rng = simnet::rng::stream(2, 9, 9);
        let ev = sched.next(&ov.members(), &mut rng);
        let (j, l) = (ev.joins.len(), ev.leaves.len());
        ov.apply_churn(&ev);
        // Mid-epoch: membership unchanged.
        ov.step(&BlockSet::none());
        assert_eq!(ov.len(), n0);
        // Run to the boundary.
        for _ in 1..ov.epoch_len() {
            ov.step(&BlockSet::none());
        }
        assert_eq!(ov.len(), n0 + j - l);
        assert!(ov.groups().lemma18_holds());
    }

    #[test]
    fn survives_simultaneous_churn_and_late_dos() {
        let mut ov = ChurnDosOverlay::new(2000, ChurnDosParams::default(), 3);
        let lateness = 2 * ov.epoch_len();
        let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.3, lateness, 5);
        let mut churn = ChurnSchedule::new(ChurnStrategy::Random, 1.3, 0.5, 100_000);
        let mut rng = simnet::rng::stream(3, 1, 1);
        let run = ov.run_under_attack(&mut adv, &mut churn, 4, &mut rng);
        assert_eq!(run.connected_rounds, run.rounds, "Theorem 7 regime must stay connected");
        assert_eq!(run.starved_rounds, 0);
        assert_eq!(ov.failed_epochs(), 0);
        assert!(ov.groups().lemma18_holds());
    }

    #[test]
    fn dimensions_track_population_growth() {
        let mut ov = ChurnDosOverlay::new(1000, ChurnDosParams::default(), 4);
        let (_, d_hi_before) = ov.groups().cover().dim_range().unwrap();
        // Grow the population by 4x over several epochs (gamma ~ 1.4).
        let mut next_id = 100_000u64;
        for _ in 0..4 {
            let members = ov.members();
            let joins: Vec<_> = (0..members.len() / 2)
                .map(|k| {
                    let j = overlay_adversary::churn::Join {
                        new_node: NodeId(next_id),
                        introduced_to: members[k % members.len()],
                    };
                    next_id += 1;
                    j
                })
                .collect();
            ov.apply_churn(&ChurnEvent { joins, leaves: Vec::new() });
            for _ in 0..ov.epoch_len() {
                ov.step(&BlockSet::none());
            }
        }
        let (d_lo, d_hi) = ov.groups().cover().dim_range().unwrap();
        assert!(ov.len() > 4000);
        assert!(d_hi > d_hi_before, "groups must have split as n grew");
        assert!(d_hi - d_lo <= 2, "Lemma 18 spread violated");
    }

    #[test]
    fn zero_late_adversary_breaks_the_combined_network_too() {
        let mut ov = ChurnDosOverlay::new(2000, ChurnDosParams::default(), 5);
        let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.3, 0, 6);
        let mut churn = ChurnSchedule::new(ChurnStrategy::Random, 1.1, 0.2, 200_000);
        let mut rng = simnet::rng::stream(5, 1, 1);
        let run = ov.run_under_attack(&mut adv, &mut churn, 2, &mut rng);
        assert!(run.connected_rounds < run.rounds);
    }
}
