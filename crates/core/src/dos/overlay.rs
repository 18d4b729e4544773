//! The epoch loop of the DoS-resistant overlay.

use crate::config::{SamplingParams, Schedule};
use crate::dos::supernode::GroupedNetwork;
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
    /// Rounds per reconfiguration epoch.
    epoch_len: u64,
    round: u64,
    epochs_done: u64,
    /// Epochs that failed because some group starved mid-epoch.
    pub failed_epochs: u64,
    /// Whether the current epoch still satisfies the Lemma 14 precondition.
    epoch_ok: bool,
    prev_blocked: BlockSet,
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
        // Epoch length: the group-simulated Algorithm 2 run (two overlay
        // rounds per primitive round: simulate + synchronize) plus the
        // four-step reorganization of Lemma 15. The primitive runs on the
        // hypercube of supernodes, whose dimension we round up to a power
        // of two as the paper's d = 2^k assumption.
        let sched_dim = (dim as usize).next_power_of_two() as u32;
        let schedule = Schedule::algorithm2(sched_dim, &params.sampling);
        let epoch_len = 2 * schedule.rounds() as u64 + 4;
        Self {
            grouped,
            epoch_len,
            round: 0,
            epochs_done: 0,
            failed_epochs: 0,
            epoch_ok: true,
            prev_blocked: BlockSet::none(),
            rng,
            tel: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry recorder: the overlay then emits per-round
    /// blocking/connectivity metrics, epoch events, and eviction/rejoin
    /// events. Replay identity is untouched (see the `tel` field docs).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// The epoch length `t` in rounds — `Theta(log log n)`. An adversary
    /// must be at least `2t`-late for Theorem 6's argument.
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// Current round.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Completed (successful or failed) epochs.
    pub fn epochs(&self) -> u64 {
        self.epochs_done
    }

    /// The current group structure.
    pub fn grouped(&self) -> &GroupedNetwork {
        &self.grouped
    }

    /// Execute one round under the given block set. Reconfigures at epoch
    /// boundaries (when the epoch's availability precondition held).
    pub fn step(&mut self, blocked: &BlockSet) -> DosRoundMetrics {
        self.round += 1;
        let (avail, unblocked) = self.grouped.counts_under(&self.prev_blocked, blocked);
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
        if min_avail == 0 {
            self.epoch_ok = false;
        }
        let (min_size, max_size) = self.grouped.group_size_range();
        let metrics = DosRoundMetrics {
            round: self.round,
            blocked: blocked.len(),
            connected: self.grouped.connected_given(&unblocked),
            min_group_available: min_avail,
            min_group_size: min_size,
            max_group_size: max_size,
        };
        self.prev_blocked.clone_from(blocked);
        if self.tel.enabled() {
            self.record_round(&metrics);
        }

        if self.round % self.epoch_len == 0 {
            self.epochs_done += 1;
            let ok = self.epoch_ok;
            if ok {
                // Lemma 15: fresh uniformly random assignment.
                let nodes = self.grouped.nodes();
                let dim = self.grouped.cube().dim();
                self.grouped = GroupedNetwork::random(&nodes, dim, &mut self.rng);
            } else {
                self.failed_epochs += 1;
            }
            self.epoch_ok = true;
            self.tel.counter("overlay.epochs", &[]).inc();
            if !ok {
                self.tel.counter("overlay.failed_epochs", &[]).inc();
            }
            let epoch = self.epochs_done;
            self.tel.emit(self.round, EventKind::EpochFinished, None, u64::from(ok), || {
                format!("epoch {epoch} {}", if ok { "reconfigured" } else { "failed" })
            });
        }
        metrics
    }

    /// Record one round's observation into the attached recorder.
    fn record_round(&self, m: &DosRoundMetrics) {
        self.tel.counter("overlay.rounds", &[]).inc();
        if !m.connected {
            self.tel.counter("overlay.disconnected_rounds", &[]).inc();
        }
        if m.min_group_available == 0 {
            self.tel.counter("overlay.starved_rounds", &[]).inc();
        }
        self.tel.histogram("overlay.blocked", &[]).record(m.blocked as u64);
        self.tel.gauge("overlay.max_group_size", &[]).record_max(m.max_group_size as u64);
    }

    /// Drive the overlay against any [`Attacker`] — oblivious or adaptive —
    /// for `rounds` rounds, recording per-round metrics. The adversary
    /// observes the topology every round (its lateness gate decides what
    /// it may act on).
    pub fn run<A: Attacker>(&mut self, adversary: &mut A, rounds: u64) -> DosRunMetrics {
        let mut out = DosRunMetrics { n: self.grouped.len(), ..Default::default() };
        for _ in 0..rounds {
            let blocked = crate::healing::attack_round(&*self, adversary, None);
            out.absorb(self.step(&blocked));
        }
        out.epochs = self.epochs_done;
        out
    }

    /// Evict a member (self-healing graceful degradation: a node whose
    /// heartbeats stopped or whose re-requests exhausted their retries).
    /// Unknown nodes are ignored.
    pub fn evict(&mut self, v: NodeId) {
        self.grouped.remove(v);
        self.tel.emit(self.round, EventKind::Eviction, Some(v.raw()), 0, String::new);
    }

    /// Re-admit a node after crash-recovery via the join path: it is
    /// placed in a uniformly random group, exactly as the per-epoch
    /// resampling would place it. A no-op for current members (a rejoin
    /// racing a fresh crash in the same epoch must not double-insert), and
    /// the RNG is only drawn when the insert actually happens.
    pub fn rejoin(&mut self, v: NodeId) {
        use rand::RngExt;
        if self.grouped.supernode_of(v).is_some() {
            return;
        }
        let x = self.rng.random_range(0..self.grouped.cube().len());
        self.grouped.insert(v, x);
        self.tel.emit(self.round, EventKind::Rejoin, Some(v.raw()), x, String::new);
    }

    /// Admit a joiner through the join path. With `claimed` set the claim
    /// is **honored** (the unvalidated join path: the joiner lands in the
    /// group it asked for, modulo wrap-around); with `None` the joiner is
    /// placed uniformly at random, exactly like [`Self::rejoin`]. Returns
    /// the group the joiner landed in, or `None` for a current member
    /// (no-op; the RNG is only drawn when an unclaimed insert happens).
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
        self.tel.emit(self.round, EventKind::Rejoin, Some(v.raw()), x, String::new);
        Some(x)
    }

    /// Stable fingerprint of the full overlay state: round/epoch counters
    /// and the group assignment (group index, size, sorted members).
    /// Golden tests pin the sequence of these across rounds.
    pub fn state_digest(&self) -> u64 {
        let mut d = simnet::Digest::new();
        d.write_u64(self.round)
            .write_u64(self.epochs_done)
            .write_u64(self.failed_epochs)
            .write_bool(self.epoch_ok)
            .write_u32(self.grouped.cube().dim());
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
        d.write_usize(self.prev_blocked.len());
        for v in self.prev_blocked.iter() {
            d.write_u64(v.raw());
        }
        d.finish()
    }

    /// Theoretical epoch length for a network of `n` nodes — exposed so
    /// experiments can verify the `Theta(log log n)` shape without
    /// building the overlay.
    pub fn epoch_len_for(n: usize, params: &DosParams) -> u64 {
        let dim = GroupedNetwork::dimension_for(n, params.group_c);
        let sched_dim = (dim as usize).next_power_of_two() as u32;
        let schedule = Schedule::algorithm2(sched_dim, &params.sampling);
        2 * schedule.rounds() as u64 + 4
    }
}

/// The `(1/2 - eps)`-bounded blocking budget of Theorem 6 for `n` nodes.
pub fn blocking_budget(n: usize, epsilon: f64) -> usize {
    assert!(epsilon > 0.0 && epsilon <= 0.5);
    ((0.5 - epsilon) * n as f64).floor() as usize
}

impl simnet::Checkpoint for DosOverlay {
    fn save(&self) -> serde_json::Value {
        serde_json::json!({
            "format": "dos-overlay-checkpoint",
            "grouped": self.grouped.save(),
            "epoch_len": self.epoch_len,
            "round": self.round,
            "epochs_done": self.epochs_done,
            "failed_epochs": self.failed_epochs,
            "epoch_ok": self.epoch_ok,
            "prev_blocked": self.prev_blocked.save(),
            "rng": self.rng.save(),
            "digest_stamp": self.state_digest(),
        })
    }
    fn load(v: &serde_json::Value) -> simnet::CkptResult<Self> {
        use simnet::checkpoint::{field, get_bool, get_str, get_u64};
        match get_str(v, "format")? {
            "dos-overlay-checkpoint" => {}
            other => {
                return Err(simnet::CkptError::Corrupt(format!(
                    "not a dos overlay checkpoint: `{other}`"
                )))
            }
        }
        let ov = Self {
            grouped: GroupedNetwork::load(field(v, "grouped")?)?,
            epoch_len: get_u64(v, "epoch_len")?,
            round: get_u64(v, "round")?,
            epochs_done: get_u64(v, "epochs_done")?,
            failed_epochs: get_u64(v, "failed_epochs")?,
            epoch_ok: get_bool(v, "epoch_ok")?,
            prev_blocked: BlockSet::load(field(v, "prev_blocked")?)?,
            rng: NodeRng::load(field(v, "rng")?)?,
            tel: Telemetry::disabled(),
        };
        let stamped = get_u64(v, "digest_stamp")?;
        let restored = ov.state_digest();
        if restored != stamped {
            return Err(simnet::CkptError::DigestMismatch { stamped, restored });
        }
        Ok(ov)
    }
}

impl crate::healing::HealableOverlay for DosOverlay {
    fn members_sorted(&self) -> Vec<NodeId> {
        self.grouped().members_sorted()
    }
    fn len(&self) -> usize {
        self.grouped().len()
    }
    fn round(&self) -> u64 {
        self.round()
    }
    fn epoch_len(&self) -> u64 {
        self.epoch_len()
    }
    fn epochs(&self) -> u64 {
        self.epochs()
    }
    fn failed_epochs(&self) -> u64 {
        self.failed_epochs
    }
    fn snapshot(&self, round: u64) -> overlay_adversary::lateness::SharedSnapshot {
        self.grouped().snapshot(round)
    }
    fn step_overlay(&mut self, blocked: &BlockSet) -> DosRoundMetrics {
        self.step(blocked)
    }
    fn evict(&mut self, v: NodeId) {
        self.evict(v);
    }
    fn rejoin(&mut self, v: NodeId) {
        self.rejoin(v);
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
        assert_eq!(ov.failed_epochs, 0);
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
        assert_eq!(ov.failed_epochs, 0);
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
        assert_eq!(ov.failed_epochs, 1);
        assert_eq!(ov.grouped().groups().to_vec(), before, "stale groups must persist");
    }

    #[test]
    fn telemetry_attachment_never_perturbs_state_digests() {
        use crate::healing::HealableOverlay as _;
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
        assert_eq!(snap.counter("overlay.failed_epochs"), ov.failed_epochs);
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
