//! In-protocol Byzantine defenses for the DoS-resistant overlay.
//!
//! The paper's adversary only *silences* nodes; this module extends the
//! Section 5 overlay with an adversary that also *participates
//! dishonestly* — Sybil joins, forged membership updates, eclipse of the
//! join path — and with three independently toggleable defenses
//! ([`DefenseConfig`]):
//!
//! 1. **Join rate-limiting** — each supernode group accepts at most `k`
//!    joiners per reconfiguration epoch; a Sybil flood aimed at one group
//!    is throttled to the honest churn rate.
//! 2. **Quorum-confirmed membership updates** — a membership change
//!    (placement claim, eviction, desync notice) takes effect only when
//!    the member's group confirms it. Under the honest-majority invariant
//!    a lone Byzantine member can no longer evict honest peers or choose
//!    its own placement, and every rejected forgery raises *suspicion*
//!    against its sender. On the join path the quorum rule makes a joiner
//!    cross-check one introducer per hypercube dimension instead of
//!    trusting the single smallest-id member.
//! 3. **Audit & quarantine** — at every epoch boundary the group audits
//!    the epoch's membership updates: wrongfully evicted members are
//!    reinstated through the join path, forgers are suspected, and any
//!    member whose suspicion reaches [`QUARANTINE_THRESHOLD`] is evicted
//!    and permanently quarantined (its identity may never rejoin).
//!
//! The [`Defenses`] layer of a [`FaultyRunner`] round
//! ([`FaultyRunner::with_defenses`]) takes the joins, corruptions and
//! forgeries of a Byzantine [`Attacker`](overlay_adversary::adaptive::Attacker)
//! (see `overlay_adversary::byzantine`), applies whichever defenses are
//! enabled, and feeds the runner's monitor the Byzantine invariants —
//! [`Invariant::HonestMajority`], [`Invariant::SybilConcentration`],
//! [`Invariant::EclipseExposure`] — on top of the round's connectivity and
//! availability checks. Byzantine members still *occupy* membership slots
//! but never help the protocol: they are folded into the effective block
//! set every round.
//!
//! Everything here is deterministic in `(seed, campaign, defense)`;
//! telemetry is pure observability and never perturbs the overlay's RNG
//! or digest stream.

use crate::dos::DosOverlay;
use crate::healing::{smallest_live_introducer, FaultyRunner, HealableOverlay, Layer};
use crate::metrics::DosRoundMetrics;
use crate::monitor::Invariant;
use overlay_adversary::byzantine::{ByzActions, Forgery};
use simnet::idrun::union;
use simnet::{BlockSet, IdRun, IdSet, NodeId};
use telemetry::EventKind;

/// Suspicion level at which the audit defense quarantines a member: two
/// independently observed contradictions. One contradiction can be an
/// honest node racing a reconfiguration; two in distinct audits cannot.
pub const QUARANTINE_THRESHOLD: u32 = 2;

/// Rounds a group-capture condition (lost honest majority, Sybil
/// concentration) must *persist* before it counts as a violation.
/// Momentary flips — a quorum-rejected forger in its last rounds before
/// quarantine, a uniform placement briefly crowding a minimum-size group
/// — are containment in progress, not capture; sustained control (a
/// targeted flood holding a group until the next reconfiguration) far
/// outlasts this window.
pub const CAPTURE_GRACE: u64 = 3;

/// Consecutive *epoch probes* an eclipse position must survive before it
/// counts (the join path is probed once per finished epoch, so this grace
/// is in probes, not rounds). A single-epoch capture — corrupted low-id
/// nodes happening to be the minima of every checked group after one
/// resample — dissolves at the next reconfiguration by Lemma 15; holding
/// the introducer set across two independent resamples is what an actual
/// eclipse (owning the low end of the id space) does and luck does not.
pub const ECLIPSE_PROBE_GRACE: u64 = 1;

/// Which in-protocol defenses are active. Each is independently
/// toggleable so experiments can ablate them one at a time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct DefenseConfig {
    /// Max joiners a single group accepts per epoch (`None` = unlimited).
    pub join_rate_limit: Option<u32>,
    /// Membership updates (placement claims, evictions, desyncs) require
    /// group confirmation; the join path cross-checks `dim + 1`
    /// introducers.
    pub membership_quorum: bool,
    /// Epoch-boundary audit: reinstate wrongful evictions, suspect
    /// forgers, quarantine repeat offenders.
    pub audit_quarantine: bool,
}

impl DefenseConfig {
    /// Every defense off — the undefended baseline.
    pub fn none() -> Self {
        Self::default()
    }

    /// Every defense on, with the default per-group join rate.
    pub fn all() -> Self {
        Self { join_rate_limit: Some(2), membership_quorum: true, audit_quarantine: true }
    }

    /// Stable label for experiment tables: `none`, or `+`-joined active
    /// defenses (`rate-limit+quorum+audit`).
    pub fn label(&self) -> String {
        let mut parts = Vec::new();
        if self.join_rate_limit.is_some() {
            parts.push("rate-limit");
        }
        if self.membership_quorum {
            parts.push("quorum");
        }
        if self.audit_quarantine {
            parts.push("audit");
        }
        if parts.is_empty() {
            "none".to_string()
        } else {
            parts.join("+")
        }
    }

    /// The standard ablation set: no defenses, each defense alone, all
    /// defenses together.
    pub fn ablation() -> Vec<Self> {
        vec![
            Self::none(),
            Self { join_rate_limit: Some(2), ..Self::none() },
            Self { membership_quorum: true, ..Self::none() },
            Self { audit_quarantine: true, ..Self::none() },
            Self::all(),
        ]
    }
}

/// Counters of adversarial actions and defense responses over a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct ByzStats {
    /// Sybil joins the overlay accepted.
    pub joins_accepted: u64,
    /// Sybil joins turned away (rate limit or quarantined identity).
    pub joins_rejected: u64,
    /// Members corrupted into Byzantine behavior.
    pub corruptions: u64,
    /// Forged evictions that took effect.
    pub forged_evictions: u64,
    /// Forged desync notices that took effect.
    pub forged_desyncs: u64,
    /// Forgeries rejected by the quorum defense.
    pub forgeries_blocked: u64,
    /// Members quarantined by the audit defense.
    pub quarantined: u64,
    /// Wrongfully evicted members reinstated by the audit defense.
    pub reinstated: u64,
    /// Join-path eclipse probes performed (one per finished epoch).
    pub eclipse_probes: u64,
    /// Probes that found every reachable introducer Byzantine.
    pub eclipsed_probes: u64,
}

/// The Byzantine layer of a [`FaultyRunner`] round over a [`DosOverlay`]:
/// Byzantine participation and the configured [`DefenseConfig`].
/// [`FaultyRunner::with_defenses`] adds it; see the module docs for the
/// defense semantics.
#[derive(Default)]
pub struct Defenses {
    defense: DefenseConfig,
    /// Action/defense counters for experiment tables.
    pub stats: ByzStats,
    /// All identities that ever acted Byzantine (admitted Sybils and
    /// corrupted members), including since-evicted ones.
    byz: IdSet,
    /// Identities banned by the audit defense; they may never rejoin.
    quarantined: IdSet,
    /// Contradictions observed per identity (quorum rejections, audits).
    suspicion: IdRun<u32>,
    /// Joins accepted per group in the current epoch (rate-limit state),
    /// indexed by group.
    joins_this_epoch: Vec<u32>,
    /// Evictions that took effect this epoch: `(forger, victim)`.
    pending_evictions: Vec<(NodeId, NodeId)>,
    /// Desynchronized victims: `victim -> (silent_until_round, forger)`.
    desynced: IdRun<(u64, NodeId)>,
}

impl Defenses {
    /// Identities that ever acted Byzantine.
    pub fn byzantine(&self) -> &IdSet {
        &self.byz
    }

    /// Identities banned by the audit defense.
    pub fn quarantined(&self) -> &IdSet {
        &self.quarantined
    }

    /// Count one more contradiction against `v`; returns its new total.
    fn suspect(&mut self, v: NodeId) -> u32 {
        let s = self.suspicion.get(v).map_or(1, |s| s + 1);
        self.suspicion.put(v, s);
        s
    }
}

impl FaultyRunner<DosOverlay> {
    /// Add the Byzantine layer with `defense`. Only [`DosOverlay`] has it:
    /// no other family has a join path that takes a claimed placement.
    /// The monitor gains grace for the capture and eclipse invariants.
    /// Byzantine members never cooperate, so they are silent to the
    /// healing layer too: the Byzantine arms run with healing off and a
    /// fault-free schedule.
    pub fn with_defenses(self, defense: DefenseConfig) -> FaultyRunner<DosOverlay, Defenses> {
        let mut r = self.with_layer(Defenses { defense, ..Defenses::default() });
        r.monitor = std::mem::take(&mut r.monitor)
            .with_grace(Invariant::HonestMajority, CAPTURE_GRACE)
            .with_grace(Invariant::SybilConcentration, CAPTURE_GRACE)
            .with_grace(Invariant::EclipseExposure, ECLIPSE_PROBE_GRACE);
        r
    }
}

/// A runner with the Byzantine layer.
type Defended = FaultyRunner<DosOverlay, Defenses>;

impl Layer<DosOverlay> for Defenses {
    fn participate(r: &mut Defended, acts: &ByzActions) {
        let round = r.overlay.round();
        r.apply_joins(&acts.joins, round);
        r.apply_corruptions(&acts.corrupt);
        r.apply_forgeries(&acts.forges, round);
    }

    /// Byzantine members occupy slots but never cooperate: they join the
    /// block set, as do members silenced by a forged desync.
    fn open(r: &mut Defended, round: u64, blocked: &BlockSet) -> Option<BlockSet> {
        let (d, grouped) = (&r.layer, r.overlay.grouped());
        let member = |v: &NodeId| grouped.supernode_of(*v).is_some();
        let byz = d.byz.iter().filter(member);
        let forged = d.desynced.entries().filter(|(_, &(until, _))| round < until);
        let forged = forged.map(|(v, _)| v).filter(member);
        Some(BlockSet::from_iter(union(union(blocked.iter(), byz), forged)))
    }

    fn check(r: &mut Defended, m: &DosRoundMetrics) {
        r.check_capture(m.round - 1);
    }

    fn close(r: &mut Defended, m: &DosRoundMetrics) {
        if r.overlay.clock().closed_epoch().is_some() {
            r.end_of_epoch_audit(m.round - 1);
            r.probe_eclipse(m.round - 1);
        }
    }
}

// The layer's steps. `round` is the round being executed, the one before
// `DosRoundMetrics::round`.
impl Defended {
    fn is_member(&self, v: NodeId) -> bool {
        self.overlay.grouped().supernode_of(v).is_some()
    }

    fn apply_joins(&mut self, joins: &[overlay_adversary::byzantine::JoinRequest], round: u64) {
        let n_groups = self.overlay.grouped().cube().len();
        self.layer.joins_this_epoch.resize(n_groups as usize, 0);
        for j in joins {
            if self.layer.quarantined.contains(j.id) {
                self.reject_join(round, j.id, "quarantined");
                continue;
            }
            // The quorum defense ignores the joiner's placement claim and
            // places uniformly, like the per-epoch resampling would.
            let claimed = if self.layer.defense.membership_quorum { None } else { j.claimed_group };
            if let (Some(limit), Some(x)) = (self.layer.defense.join_rate_limit, claimed) {
                // Claimed destination known up front: reject before insert.
                if self.layer.joins_this_epoch[(x % n_groups) as usize] >= limit {
                    self.reject_join(round, j.id, "rate-limited");
                    continue;
                }
            }
            let Some(x) = self.overlay.admit(j.id, claimed) else {
                continue; // already a member
            };
            let count = &mut self.layer.joins_this_epoch[x as usize];
            if self.layer.defense.join_rate_limit.is_some_and(|limit| *count >= limit) {
                // Uniform placement landed in a group that already used
                // its quota: the group bounces the joiner.
                self.overlay.evict(j.id);
                self.reject_join(round, j.id, "rate-limited");
                continue;
            }
            *count += 1;
            self.layer.byz.insert(j.id);
            self.layer.stats.joins_accepted += 1;
        }
    }

    fn reject_join(&mut self, round: u64, id: NodeId, why: &'static str) {
        self.layer.stats.joins_rejected += 1;
        self.tel.counter("defense.joins_rejected", &[("why", why)]).inc();
        self.tel.emit(round, EventKind::Custom, Some(id.raw()), 0, || format!("join {why}"));
    }

    fn apply_corruptions(&mut self, corrupt: &[NodeId]) {
        for &v in corrupt {
            if self.is_member(v) && self.layer.byz.insert(v) {
                self.layer.stats.corruptions += 1;
            }
        }
    }

    fn apply_forgeries(&mut self, forges: &[Forgery], round: u64) {
        let epoch_len = self.overlay.epoch_len();
        for f in forges {
            let (by, victim) = (f.by(), f.victim());
            // Only live, unquarantined Byzantine members can forge, and
            // only honest members are worth forging against.
            if !self.layer.byz.contains(by)
                || self.layer.quarantined.contains(by)
                || !self.is_member(by)
                || !self.is_member(victim)
                || self.layer.byz.contains(victim)
            {
                continue;
            }
            if self.layer.defense.membership_quorum {
                // The victim's group never confirms the update; the forged
                // message itself is the observed contradiction, so repeat
                // offenders are ejected on the spot (audit on), without
                // waiting for the epoch-boundary review.
                self.layer.stats.forgeries_blocked += 1;
                let suspicion = self.layer.suspect(by);
                self.tel.counter("defense.forgeries_blocked", &[]).inc();
                if self.layer.defense.audit_quarantine && suspicion >= QUARANTINE_THRESHOLD {
                    self.quarantine(by, round);
                }
                continue;
            }
            match f {
                Forgery::Evict { .. } => {
                    self.overlay.evict(victim);
                    self.layer.stats.forged_evictions += 1;
                    self.layer.pending_evictions.push((by, victim));
                }
                Forgery::Desync { .. } => {
                    self.layer.desynced.put(victim, (round + epoch_len, by));
                    self.layer.stats.forged_desyncs += 1;
                }
            }
        }
    }

    /// Group-capture invariants: honest majority and Sybil concentration.
    fn check_capture(&mut self, round: u64) {
        // Honest majority: every non-empty group must keep a strict
        // honest majority, or quorum confirmation is forgeable.
        let groups = self.overlay.grouped().groups();
        let mut majority_ok = true;
        let mut worst = (0usize, 0usize, 0u64); // (honest, total, group)
        let mut live_byz = 0usize;
        let mut max_byz = (0usize, 0u64); // (count, group)
        for (x, g) in groups.iter().enumerate() {
            if g.is_empty() {
                continue;
            }
            let bad = g.iter().filter(|&&v| self.layer.byz.contains(v)).count();
            live_byz += bad;
            if bad > max_byz.0 {
                max_byz = (bad, x as u64);
            }
            let honest = g.len() - bad;
            if honest * 2 <= g.len() && (majority_ok || honest * worst.1 < worst.0 * g.len()) {
                majority_ok = false;
                worst = (honest, g.len(), x as u64);
            }
        }
        self.monitor.check(Invariant::HonestMajority, round, majority_ok, || {
            format!("group {}: only {}/{} members honest", worst.2, worst.0, worst.1)
        });

        // Sybil concentration: no group may hold much more than its fair
        // share of the Byzantine population. `3x fair share + slack`
        // tolerates random unevenness; a targeted pile-up trips it. The
        // fair share is computed over every identity the adversary has
        // ever fielded (`self.byz` is never pruned), not just the ones
        // still seated: quarantining a forger removes it from its group,
        // and a denominator that shrank with it would *tighten* the cap
        // exactly when the defense is working.
        let n_groups = groups.iter().filter(|g| !g.is_empty()).count().max(1);
        let fair = self.layer.byz.len().div_ceil(n_groups);
        let cap = (3 * fair).max(6);
        self.monitor.check(Invariant::SybilConcentration, round, max_byz.0 <= cap, || {
            format!(
                "group {} holds {} of {} live byzantine identities (cap {})",
                max_byz.1, max_byz.0, live_byz, cap
            )
        });
    }

    /// Epoch-boundary bookkeeping: reset rate-limit quotas; under the
    /// audit defense, reinstate wrongful evictions, suspect forgers and
    /// quarantine repeat offenders.
    fn end_of_epoch_audit(&mut self, round: u64) {
        self.layer.joins_this_epoch.clear();
        if !self.layer.defense.audit_quarantine {
            // No audit: desyncs expire on their own, evictions stand.
            self.layer.desynced.retain(|_, &mut (until, _)| round < until);
            self.layer.pending_evictions.clear();
            return;
        }
        for (by, victim) in std::mem::take(&mut self.layer.pending_evictions) {
            if !self.is_member(victim) {
                self.overlay.rejoin(victim);
                self.layer.stats.reinstated += 1;
                self.tel.counter("defense.reinstated", &[]).inc();
            }
            self.layer.suspect(by);
        }
        for &(until, by) in std::mem::take(&mut self.layer.desynced).values() {
            if round < until {
                // Caught desynchronizing a live member mid-flight.
                self.layer.suspect(by);
            }
        }
        let offenders: Vec<NodeId> = self
            .layer
            .suspicion
            .entries()
            .filter(|&(v, &s)| s >= QUARANTINE_THRESHOLD && !self.layer.quarantined.contains(v))
            .map(|(v, _)| v)
            .collect();
        for v in offenders {
            self.quarantine(v, round);
        }
    }

    /// Evict and permanently ban a repeat offender (idempotent).
    fn quarantine(&mut self, v: NodeId, round: u64) {
        if !self.layer.quarantined.insert(v) {
            return;
        }
        if self.is_member(v) {
            self.overlay.evict(v);
        }
        self.layer.stats.quarantined += 1;
        self.tel.counter("defense.quarantined", &[]).inc();
        self.tel.emit(round, EventKind::Custom, Some(v.raw()), 0, || "quarantined".to_string());
    }

    /// Once per epoch, probe the join path: would a fresh honest joiner
    /// reach an honest introducer? Without quorum the joiner trusts the
    /// single smallest live member; with quorum it cross-checks the
    /// smallest live member of `dim + 1` distinct groups and is eclipsed
    /// only if **all** of them are Byzantine.
    fn probe_eclipse(&mut self, round: u64) {
        let grouped = self.overlay.grouped();
        let probe = NodeId(u64::MAX); // fresh identity, never inserted
        let eclipsed = if self.layer.defense.membership_quorum {
            let q = grouped.cube().dim() as usize + 1;
            let introducers: Vec<NodeId> =
                grouped.groups().iter().filter_map(|g| g.iter().copied().min()).take(q).collect();
            introducers.is_empty() || introducers.iter().all(|&v| self.layer.byz.contains(v))
        } else {
            let members = grouped.nodes();
            match smallest_live_introducer(&members, &[], probe) {
                Some(intro) => self.layer.byz.contains(intro),
                None => true,
            }
        };
        self.layer.stats.eclipse_probes += 1;
        if eclipsed {
            self.layer.stats.eclipsed_probes += 1;
        }
        self.tel.counter("defense.eclipse_probes", &[]).inc();
        self.monitor.check(Invariant::EclipseExposure, round, !eclipsed, || {
            "every reachable introducer is byzantine".to_string()
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dos::DosParams;
    use overlay_adversary::byzantine::{
        ByzBudget, ByzHarness, EclipseCampaign, ForgeCampaign, JoinRequest, SybilCampaign,
    };
    use std::collections::BTreeSet;
    use telemetry::Telemetry;

    const N: usize = 128;
    const SEED: u64 = 0xB12A;

    fn params() -> DosParams {
        // Small groups (as in the A6 experiment) so attacks bite at small
        // budgets and tests stay fast.
        DosParams { group_c: 1.0, ..DosParams::default() }
    }

    fn join(id: u64, group: Option<u64>) -> JoinRequest {
        JoinRequest { id: NodeId(id), claimed_group: group }
    }

    /// Nodes `0..N`, all honest, no faults, no healing, budget judged at 0.
    fn runner(defense: DefenseConfig) -> Defended {
        let overlay = DosOverlay::new(N, params(), SEED);
        FaultyRunner::paper_model(overlay).with_dos_bound(0.0).with_defenses(defense)
    }

    /// One round under `acts`, played the way `FaultyRunner::run` plays a
    /// move.
    fn play(r: &mut Defended, acts: &ByzActions) {
        Defenses::participate(r, acts);
        r.step(&acts.blocked);
    }

    #[test]
    fn defense_labels_are_stable() {
        assert_eq!(DefenseConfig::none().label(), "none");
        assert_eq!(DefenseConfig::all().label(), "rate-limit+quorum+audit");
        let labels: Vec<String> = DefenseConfig::ablation().iter().map(|d| d.label()).collect();
        assert_eq!(
            labels,
            vec!["none", "rate-limit", "quorum", "audit", "rate-limit+quorum+audit"]
        );
    }

    #[test]
    fn undefended_overlay_honors_placement_claims() {
        let mut r = runner(DefenseConfig::none());
        let acts = ByzActions {
            joins: (0..6).map(|i| join(1 << 41 | i, Some(3))).collect(),
            ..ByzActions::default()
        };
        play(&mut r, &acts);
        assert_eq!(r.layer().stats.joins_accepted, 6);
        for i in 0..6 {
            assert_eq!(r.overlay.grouped().supernode_of(NodeId(1 << 41 | i)), Some(3));
        }
    }

    #[test]
    fn quorum_ignores_placement_claims() {
        let mut r = runner(DefenseConfig { membership_quorum: true, ..DefenseConfig::none() });
        let ids: Vec<u64> = (0..32).map(|i| 1 << 41 | i).collect();
        let acts = ByzActions {
            joins: ids.iter().map(|&id| join(id, Some(3))).collect(),
            ..ByzActions::default()
        };
        play(&mut r, &acts);
        let landed: BTreeSet<u64> =
            ids.iter().filter_map(|&id| r.overlay.grouped().supernode_of(NodeId(id))).collect();
        assert!(landed.len() > 1, "32 uniform joins cannot all land in one group: {landed:?}");
    }

    #[test]
    fn rate_limit_caps_joins_per_group_per_epoch() {
        let mut r = runner(DefenseConfig { join_rate_limit: Some(2), ..DefenseConfig::none() });
        let acts = ByzActions {
            joins: (0..6).map(|i| join(1 << 41 | i, Some(3))).collect(),
            ..ByzActions::default()
        };
        play(&mut r, &acts);
        assert_eq!(r.layer().stats.joins_accepted, 2);
        assert_eq!(r.layer().stats.joins_rejected, 4);
        // The quota resets at the epoch boundary.
        for _ in 0..r.overlay.epoch_len() {
            play(&mut r, &ByzActions::default());
        }
        let acts = ByzActions {
            joins: (6..8).map(|i| join(1 << 41 | i, Some(3))).collect(),
            ..ByzActions::default()
        };
        play(&mut r, &acts);
        assert_eq!(r.layer().stats.joins_accepted, 4, "fresh epoch, fresh quota");
    }

    #[test]
    fn forged_evictions_land_without_quorum_and_bounce_with_it() {
        let victim = NodeId(5);
        for (quorum, expect_member) in [(false, false), (true, true)] {
            let mut r =
                runner(DefenseConfig { membership_quorum: quorum, ..DefenseConfig::none() });
            let corrupt = ByzActions { corrupt: vec![NodeId(100)], ..ByzActions::default() };
            play(&mut r, &corrupt);
            let forge = ByzActions {
                forges: vec![Forgery::Evict { by: NodeId(100), victim }],
                ..ByzActions::default()
            };
            play(&mut r, &forge);
            assert_eq!(
                r.overlay.grouped().supernode_of(victim).is_some(),
                expect_member,
                "quorum={quorum}"
            );
            if quorum {
                assert_eq!(r.layer().stats.forgeries_blocked, 1);
            } else {
                assert_eq!(r.layer().stats.forged_evictions, 1);
            }
        }
    }

    #[test]
    fn audit_reinstates_victims_and_quarantines_repeat_forgers() {
        let mut r = runner(DefenseConfig { audit_quarantine: true, ..DefenseConfig::none() });
        let forger = NodeId(100);
        play(&mut r, &ByzActions { corrupt: vec![forger], ..ByzActions::default() });
        // Two forged evictions across two epochs: the first audit
        // reinstates and suspects, the second quarantines.
        for victim in [NodeId(5), NodeId(6)] {
            play(
                &mut r,
                &ByzActions {
                    forges: vec![Forgery::Evict { by: forger, victim }],
                    ..ByzActions::default()
                },
            );
            for _ in 0..r.overlay.epoch_len() + 1 {
                play(&mut r, &ByzActions::default());
            }
        }
        assert_eq!(r.layer().stats.reinstated, 2, "both victims rejoin: {:?}", r.layer().stats);
        assert!(r.layer().quarantined().contains(forger), "repeat forger is quarantined");
        assert!(r.overlay.grouped().supernode_of(forger).is_none(), "and evicted");
        // A quarantined identity can never rejoin.
        play(&mut r, &ByzActions { joins: vec![join(100, None)], ..ByzActions::default() });
        assert!(r.overlay.grouped().supernode_of(forger).is_none());
    }

    #[test]
    fn sybil_flood_violates_honest_majority_only_when_undefended() {
        let run = |defense: DefenseConfig| {
            let mut r = runner(defense);
            let budget = ByzBudget { byz_fraction: 0.3, joins_per_round: 4, block_bound: 0.0 };
            let mut adv = ByzHarness::new(SybilCampaign::default(), budget, 0);
            r.run(&mut adv, 3 * r.overlay.epoch_len());
            (
                r.monitor.count(Invariant::HonestMajority),
                r.monitor.count(Invariant::SybilConcentration),
                r.layer().stats,
            )
        };
        let (und_maj, und_conc, und) = run(DefenseConfig::none());
        assert!(und_maj > 0, "a targeted flood must capture its group");
        assert!(und_conc > 0, "and trip the concentration bound");
        assert_eq!(und.joins_rejected, 0, "nothing pushes back without defenses");
        // A 30% Byzantine population may still transiently flip one
        // minimum-size group under *uniform* placement, so the defended
        // claim is an order-of-magnitude differential, not exact zero.
        let (def_maj, def_conc, def) = run(DefenseConfig::all());
        assert!(def_maj * 10 <= und_maj, "defended majority flips: {def_maj} vs {und_maj}");
        assert!(def_conc * 10 <= und_conc, "defended concentration: {def_conc} vs {und_conc}");
        assert!(def.joins_rejected > 0, "the rate limit must turn joiners away");
        assert!(def.joins_accepted < und.joins_accepted);
    }

    #[test]
    fn eclipse_defense_requires_corrupting_many_introducers() {
        let run = |defense: DefenseConfig| {
            let mut r = runner(defense);
            let budget = ByzBudget { byz_fraction: 0.05, joins_per_round: 0, block_bound: 0.0 };
            let mut adv = ByzHarness::new(EclipseCampaign::default(), budget, 0);
            r.run(&mut adv, 3 * r.overlay.epoch_len());
            (r.monitor.count(Invariant::EclipseExposure), r.layer().stats.eclipse_probes)
        };
        let (undefended, probes) = run(DefenseConfig::none());
        assert!(probes > 0, "epochs must finish for probes to run");
        assert!(undefended > 0, "corrupting the smallest ids eclipses the single introducer");
        let (defended, _) = run(DefenseConfig { membership_quorum: true, ..DefenseConfig::none() });
        assert_eq!(defended, 0, "5% corruption cannot own one introducer per dimension");
    }

    #[test]
    fn forge_campaign_is_contained_by_full_defenses() {
        let run = |defense: DefenseConfig| {
            let mut r = runner(defense);
            let budget = ByzBudget { byz_fraction: 0.1, joins_per_round: 0, block_bound: 0.0 };
            let mut adv = ByzHarness::new(ForgeCampaign::default(), budget, 0);
            r.run(&mut adv, 4 * r.overlay.epoch_len());
            (r.overlay.grouped().len(), r.layer().stats)
        };
        let (undefended_n, u) = run(DefenseConfig::none());
        assert!(u.forged_evictions > 0);
        assert!(undefended_n < N, "unchecked forgeries drain the membership");
        let (defended_n, d) = run(DefenseConfig::all());
        assert!(d.forgeries_blocked > 0);
        assert_eq!(d.forged_evictions, 0);
        assert!(defended_n > undefended_n, "quorum keeps the honest members in");
    }

    #[test]
    fn byzantine_runs_replay_digest_identically() {
        let digest = |_| {
            let mut r = runner(DefenseConfig::all());
            let budget = ByzBudget { byz_fraction: 0.2, joins_per_round: 4, block_bound: 0.0 };
            let mut adv = ByzHarness::new(SybilCampaign::default(), budget, 2);
            r.run(&mut adv, 2 * r.overlay.epoch_len() + 3);
            r.overlay.state_digest()
        };
        assert_eq!(digest(0), digest(1), "same (seed, campaign, defense) must replay");
    }

    #[test]
    fn telemetry_never_perturbs_the_overlay_digest() {
        let digest = |with_tel: bool| {
            let mut r = runner(DefenseConfig::all());
            if with_tel {
                let tel = Telemetry::new(telemetry::Config::default());
                r.overlay.set_telemetry(tel.clone());
                r = r.with_telemetry(tel);
            }
            let budget = ByzBudget { byz_fraction: 0.2, joins_per_round: 4, block_bound: 0.0 };
            let mut adv = ByzHarness::new(ForgeCampaign::default(), budget, 0);
            r.run(&mut adv, 2 * r.overlay.epoch_len() + 3);
            r.overlay.state_digest()
        };
        assert_eq!(digest(false), digest(true));
    }
}
