//! The epoch loop of the DoS-resistant overlay.

use crate::config::SamplingParams;
use crate::dos::epoch::EpochClock;
use crate::dos::supernode::GroupedNetwork;
use crate::healing::HealableOverlay;
use crate::metrics::{DosRoundMetrics, DosRunMetrics};
use overlay_adversary::adaptive::Attacker;
use simnet::rng::NodeRng;
use simnet::{BlockSet, NodeId};
use telemetry::{EventKind, Telemetry};

/// Parameters of the Section 5 overlay.
#[derive(Clone, Copy, Debug)]
pub struct DosParams {
    /// The group-size constant `c` (Lemma 16): `2^d <= n / (c log n)`.
    pub group_c: f64,
    /// Sampling parameters used to derive the epoch length from the
    /// Algorithm 2 schedule.
    pub sampling: SamplingParams,
}

impl Default for DosParams {
    fn default() -> Self {
        Self { group_c: 4.0, sampling: SamplingParams::default() }
    }
}

/// The DoS-resistant overlay: groups of representatives on a hypercube,
/// rebuilt with a fresh random assignment every `Theta(log log n)` rounds
/// as long as every group keeps an available member (Lemmas 14/15).
pub struct DosOverlay {
    grouped: GroupedNetwork,
    clock: EpochClock,
    rng: NodeRng,
    /// Attached recorder (disabled by default). Pure observability: it
    /// never draws from `rng` and is excluded from [`Self::state_digest`]
    /// and the checkpoint format.
    tel: Telemetry,
}

impl DosOverlay {
    /// Build the overlay over nodes `0..n` with the Section 5 dimension
    /// choice and a uniformly random initial assignment.
    pub fn new(n: usize, params: DosParams, seed: u64) -> Self {
        let nodes: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
        let dim = GroupedNetwork::dimension_for(n, params.group_c);
        let mut rng = simnet::rng::stream(seed, 1, 0xD0);
        let grouped = GroupedNetwork::random(&nodes, dim, &mut rng);
        let clock = EpochClock::new(Self::epoch_len_for(n, &params));
        Self { grouped, clock, rng, tel: Telemetry::disabled() }
    }

    /// Attach a telemetry recorder: the overlay then emits per-round
    /// blocking/connectivity metrics, epoch events, and eviction/rejoin
    /// events. Replay identity is untouched (see the `tel` field docs).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// The current group structure.
    pub fn grouped(&self) -> &GroupedNetwork {
        &self.grouped
    }

    /// Execute one round under the given block set. Reconfigures at epoch
    /// boundaries (when the epoch's availability precondition held).
    pub fn step(&mut self, blocked: &BlockSet) -> DosRoundMetrics {
        let (avail, unblocked) = self.grouped.counts_under(self.clock.prev_blocked(), blocked);
        // Empty groups (possible only after self-healing evictions; never
        // in a paper-model run) cannot starve — the min is over occupied
        // groups.
        let min_avail = avail
            .iter()
            .zip(self.grouped.groups())
            .filter(|(_, g)| !g.is_empty())
            .map(|(&a, _)| a)
            .min()
            .unwrap_or(0);
        let (min_size, max_size) = self.grouped.group_size_range();
        let metrics = DosRoundMetrics {
            round: self.clock.round() + 1,
            blocked: blocked.len(),
            connected: self.grouped.connected_given(&unblocked),
            min_group_available: min_avail,
            min_group_size: min_size,
            max_group_size: max_size,
        };
        if self.clock.close(min_avail == 0, blocked) == Some(true) {
            // Lemma 15: fresh uniformly random assignment.
            let nodes = self.grouped.nodes();
            let dim = self.grouped.cube().dim();
            self.grouped = GroupedNetwork::random(&nodes, dim, &mut self.rng);
        }
        self.clock.record(&self.tel, &metrics);
        metrics
    }

    /// Drive the overlay against any [`Attacker`] — oblivious or adaptive —
    /// for `rounds` rounds, recording per-round metrics. The adversary
    /// observes the topology every round (its lateness gate decides what
    /// it may act on).
    pub fn run<A: Attacker>(&mut self, adversary: &mut A, rounds: u64) -> DosRunMetrics {
        let mut out = DosRunMetrics { n: self.grouped.len(), ..Default::default() };
        for _ in 0..rounds {
            let blocked = crate::healing::attack_round(&*self, adversary, None).blocked;
            out.absorb(self.step(&blocked));
        }
        out.epochs = self.clock.epochs();
        out
    }

    /// Admit a joiner through the join path. With `claimed` set the claim
    /// is **honored** (the unvalidated join path: the joiner lands in the
    /// group it asked for, modulo wrap-around); with `None` the joiner is
    /// placed uniformly at random, exactly as the per-epoch resampling
    /// would place it — the crash-recovery rejoin. Returns the group the
    /// joiner landed in, or `None` for a current member (no-op; the RNG is
    /// only drawn when an unclaimed insert happens).
    pub fn admit(&mut self, v: NodeId, claimed: Option<u64>) -> Option<u64> {
        use rand::RngExt;
        if self.grouped.supernode_of(v).is_some() {
            return None;
        }
        let x = match claimed {
            Some(x) => x % self.grouped.cube().len(),
            None => self.rng.random_range(0..self.grouped.cube().len()),
        };
        self.grouped.insert(v, x);
        self.tel.emit(self.round(), EventKind::Rejoin, Some(v.raw()), x, String::new);
        Some(x)
    }

    /// Stable fingerprint of the full overlay state: round/epoch counters
    /// and the group assignment (group index, size, sorted members).
    /// Golden tests pin the sequence of these across rounds.
    pub fn state_digest(&self) -> u64 {
        self.clock.digest(|d| {
            d.write_u32(self.grouped.cube().dim());
            let groups = self.grouped.groups();
            d.write_usize(groups.len());
            for (x, g) in groups.iter().enumerate() {
                let mut members = g.clone();
                members.sort_unstable();
                d.write_usize(x).write_usize(members.len());
                for v in members {
                    d.write_u64(v.raw());
                }
            }
        })
    }

    /// Theoretical epoch length for a network of `n` nodes — exposed so
    /// experiments can verify the `Theta(log log n)` shape without
    /// building the overlay.
    pub fn epoch_len_for(n: usize, params: &DosParams) -> u64 {
        EpochClock::epoch_len_for(
            GroupedNetwork::dimension_for(n, params.group_c),
            &params.sampling,
        )
    }
}

/// The `(1/2 - eps)`-bounded blocking budget of Theorem 6 for `n` nodes.
pub fn blocking_budget(n: usize, epsilon: f64) -> usize {
    assert!(epsilon > 0.0 && epsilon <= 0.5);
    ((0.5 - epsilon) * n as f64).floor() as usize
}

simnet::checkpoint_schema! {
    DosOverlay {
        format: "dos-overlay-checkpoint",
        stamp: state_digest,
        fields {
            grouped,
            rng: undigested "the resampling stream: `NodeRng::load` checks its shape",
        }
        flat { clock: EpochClock }
        skip { tel: Telemetry::disabled() }
    }
}

impl HealableOverlay for DosOverlay {
    fn members_sorted(&self) -> Vec<NodeId> {
        self.grouped().members_sorted()
    }
    fn len(&self) -> usize {
        self.grouped().len()
    }
    fn clock(&self) -> &EpochClock {
        &self.clock
    }
    fn snapshot(&self, round: u64) -> overlay_adversary::lateness::SharedSnapshot {
        self.grouped().snapshot(round)
    }
    fn step_overlay(&mut self, blocked: &BlockSet) -> DosRoundMetrics {
        self.step(blocked)
    }
    /// Unknown nodes are ignored.
    fn evict(&mut self, v: NodeId) {
        self.grouped.remove(v);
        self.tel.emit(self.round(), EventKind::Eviction, Some(v.raw()), 0, String::new);
    }
    /// An unclaimed [`DosOverlay::admit`]: a no-op for current members (a
    /// rejoin racing a fresh crash in the same epoch must not
    /// double-insert), and the RNG is only drawn when the insert happens.
    fn rejoin(&mut self, v: NodeId) {
        self.admit(v, None);
    }
    fn structure_violation(&self) -> Option<String> {
        // Lemma 16 upper band with generous slack: evictions shrink groups
        // but random resampling must never overfill one.
        let expected = self.grouped().len() as f64 / self.grouped().cube().len() as f64;
        let (_, max) = self.grouped().group_size_range();
        (max as f64 > 3.0 * expected.max(1.0))
            .then(|| format!("group size {max} vs expected {expected:.1}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_adversary::dos::{DosAdversary, DosStrategy};

    #[test]
    fn epoch_len_grows_like_loglog() {
        let p = DosParams::default();
        let small = DosOverlay::epoch_len_for(1 << 10, &p);
        let mid = DosOverlay::epoch_len_for(1 << 16, &p);
        let large = DosOverlay::epoch_len_for(1 << 30, &p);
        assert!(small <= mid && mid <= large);
        // A 2^20-fold increase in n adds only a handful of rounds: the
        // epoch is 2 * (2 log2(dim) + 1) + 4 with dim ~ log n.
        assert!(large - small <= 12, "epoch grew {small} -> {large}");
    }

    #[test]
    fn late_random_adversary_cannot_disconnect() {
        let p = DosParams::default();
        let mut ov = DosOverlay::new(2048, p, 1);
        let lateness = 2 * ov.epoch_len();
        let mut adv = DosAdversary::new(DosStrategy::Random, 0.3, lateness, 7);
        let run = ov.run(&mut adv, 4 * ov.epoch_len());
        assert_eq!(run.connected_rounds, run.rounds, "connectivity must hold every round");
        assert_eq!(run.starved_rounds, 0, "every group must keep an available member");
        assert!(run.epochs >= 3);
        assert_eq!(ov.failed_epochs(), 0);
    }

    #[test]
    fn late_group_targeted_adversary_cannot_disconnect() {
        // The strongest structural attack, but its information is stale:
        // by the time it blocks "all neighbors of group x", membership has
        // been resampled.
        let p = DosParams::default();
        let mut ov = DosOverlay::new(2048, p, 2);
        let lateness = 2 * ov.epoch_len();
        let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.3, lateness, 9);
        let run = ov.run(&mut adv, 4 * ov.epoch_len());
        assert_eq!(run.connected_rounds, run.rounds);
        assert_eq!(run.starved_rounds, 0);
    }

    #[test]
    fn zero_late_group_targeted_adversary_disconnects() {
        // Impossibility control: with current topology the adversary
        // surgically isolates a group.
        let p = DosParams::default();
        let mut ov = DosOverlay::new(2048, p, 3);
        let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.3, 0, 11);
        let run = ov.run(&mut adv, 2 * ov.epoch_len());
        assert!(
            run.connected_rounds < run.rounds,
            "0-late adversary should disconnect at least once"
        );
    }

    #[test]
    fn group_sizes_track_lemma16_band() {
        let p = DosParams::default();
        let ov = DosOverlay::new(4096, p, 4);
        let n = 4096f64;
        let n_super = ov.grouped().cube().len() as f64;
        let expected = n / n_super;
        let (min, max) = ov.grouped().group_size_range();
        assert!((min as f64) > 0.4 * expected, "min {min} vs expected {expected}");
        assert!((max as f64) < 2.0 * expected, "max {max} vs expected {expected}");
    }

    #[test]
    fn blocking_budget_formula() {
        assert_eq!(blocking_budget(1000, 0.2), 300);
        assert_eq!(blocking_budget(1000, 0.5), 0);
    }

    #[test]
    fn reconfiguration_changes_groups() {
        let p = DosParams::default();
        let mut ov = DosOverlay::new(1024, p, 5);
        let before: Vec<Vec<NodeId>> = ov.grouped().groups().to_vec();
        for _ in 0..ov.epoch_len() {
            ov.step(&BlockSet::none());
        }
        let after = ov.grouped().groups().to_vec();
        assert_ne!(before, after, "epoch boundary must resample groups");
        assert_eq!(ov.epochs(), 1);
        assert_eq!(ov.failed_epochs(), 0);
    }

    #[test]
    fn starved_epoch_is_not_reconfigured() {
        let p = DosParams::default();
        let mut ov = DosOverlay::new(256, p, 6);
        let before = ov.grouped().groups().to_vec();
        // Block group 0 entirely for the whole epoch: availability fails.
        let victims: BlockSet = ov.grouped().group(0).iter().copied().collect();
        for _ in 0..ov.epoch_len() {
            ov.step(&victims);
        }
        assert_eq!(ov.failed_epochs(), 1);
        assert_eq!(ov.grouped().groups().to_vec(), before, "stale groups must persist");
    }

    #[test]
    fn telemetry_attachment_never_perturbs_state_digests() {
        let p = DosParams::default();
        let mut plain = DosOverlay::new(256, p, 9);
        let mut observed = DosOverlay::new(256, p, 9);
        observed.set_telemetry(Telemetry::new(telemetry::Config::default()));
        let mut adv_a =
            DosAdversary::new(DosStrategy::GroupTargeted, 0.3, 2 * plain.epoch_len(), 11);
        let mut adv_b =
            DosAdversary::new(DosStrategy::GroupTargeted, 0.3, 2 * observed.epoch_len(), 11);
        for _ in 0..2 * plain.epoch_len() {
            adv_a.observe(plain.snapshot(plain.round()));
            adv_b.observe(observed.snapshot(observed.round()));
            let ba = adv_a.block(plain.round(), plain.len());
            let bb = adv_b.block(observed.round(), observed.len());
            plain.step(&ba);
            observed.step(&bb);
            assert_eq!(plain.state_digest(), observed.state_digest());
        }
    }

    #[test]
    fn telemetry_counters_mirror_run_metrics() {
        let p = DosParams::default();
        let mut ov = DosOverlay::new(256, p, 10);
        let tel = Telemetry::new(telemetry::Config::default());
        ov.set_telemetry(tel.clone());
        let mut adv = DosAdversary::new(DosStrategy::Random, 0.3, 2 * ov.epoch_len(), 3);
        let run = ov.run(&mut adv, 2 * ov.epoch_len());
        let snap = tel.snapshot();
        assert_eq!(snap.counter("overlay.rounds"), run.rounds);
        assert_eq!(snap.counter("overlay.starved_rounds"), run.starved_rounds);
        assert_eq!(snap.counter("overlay.epochs"), run.epochs);
        assert_eq!(snap.counter("overlay.failed_epochs"), ov.failed_epochs());
        assert_eq!(
            snap.counter("overlay.rounds") - snap.counter("overlay.disconnected_rounds"),
            run.connected_rounds
        );
        let blocked = snap.histogram("overlay.blocked").expect("blocked histogram");
        assert_eq!(blocked.count, run.rounds);
        let epoch_events =
            tel.events().0.iter().filter(|e| e.kind == telemetry::EventKind::EpochFinished).count()
                as u64;
        assert_eq!(epoch_events, run.epochs);
    }
}
