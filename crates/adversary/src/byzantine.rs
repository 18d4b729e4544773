//! Byzantine and Sybil adversary families.
//!
//! The DoS adversaries elsewhere in this crate only *silence* nodes; the
//! adversaries here additionally **participate dishonestly**: they submit
//! Sybil join requests that claim a placement, corrupt existing members
//! into Byzantine behavior, and have corrupted members forge membership
//! updates (evictions, desynchronization claims) against honest peers.
//! The families:
//!
//! * [`SybilCampaign`] — a join campaign that concentrates fresh Sybil
//!   identities into one target supernode group (the weakest group of the
//!   stale view), aiming to capture its membership majority.
//! * [`ForgeCampaign`] — corrupts existing members; the corrupted members
//!   forge `Evict`/`Desync` membership updates against honest members of
//!   their own group, draining it from the inside.
//! * [`EclipseCampaign`] — corrupts the smallest-id members: the join
//!   path's introducer choice is "smallest live member"
//!   (`reconfig_core::healing::smallest_live_introducer`), so owning the
//!   low end of the id space eclipses every honest joiner.
//! * [`ChaosCampaign`] — rotates through all of the above and composes
//!   them with an ordinary blocking [`Attacker`], so Byzantine pressure
//!   and DoS pressure land together.
//!
//! A [`ByzHarness`] mediates between a campaign and the runner exactly
//! like [`crate::adaptive::AdaptiveHarness`] does for blocking strategies:
//! views age through the same [`TopologyHistory`] gate before the campaign
//! may see them, and every emitted action is clamped to the declared
//! [`ByzBudget`] — total Byzantine identities, joins per round, and
//! blocking fraction. A buggy or greedy campaign can never exceed the
//! declared adversary power.
//!
//! Campaigns are deterministic functions of `(view, round)`: no RNG is
//! drawn anywhere in this module, so a `(seed, campaign, budget)` triple
//! replays identically.

use crate::adaptive::{clamp, node_budget, Attacker};
use crate::lateness::{SharedSnapshot, TopologyHistory, TopologySnapshot};
use simnet::{BlockSet, NodeId};
use std::collections::BTreeSet;
use telemetry::{EventKind, Telemetry};

/// Fresh Sybil identities start here — far above any honest id, so a
/// campaign can never collide with (or be confused for) an honest node.
pub const SYBIL_ID_BASE: u64 = 1 << 40;

/// A join attempt submitted to the overlay's join path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JoinRequest {
    /// The joining identity.
    pub id: NodeId,
    /// The supernode group the joiner *claims* it should be placed in.
    /// An unvalidated join path honors the claim; the quorum defense
    /// ignores it and places uniformly.
    pub claimed_group: Option<u64>,
}

/// A protocol message forged by a Byzantine member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Forgery {
    /// `by` asserts that `victim` left / must be evicted.
    Evict {
        /// The forging (Byzantine) member.
        by: NodeId,
        /// The honest member named in the forged update.
        victim: NodeId,
    },
    /// `by` feeds `victim` a stale assignment, desynchronizing it.
    Desync {
        /// The forging (Byzantine) member.
        by: NodeId,
        /// The honest member named in the forged update.
        victim: NodeId,
    },
}

impl Forgery {
    /// The forging member.
    pub fn by(&self) -> NodeId {
        match *self {
            Forgery::Evict { by, .. } | Forgery::Desync { by, .. } => by,
        }
    }

    /// The targeted honest member.
    pub fn victim(&self) -> NodeId {
        match *self {
            Forgery::Evict { victim, .. } | Forgery::Desync { victim, .. } => victim,
        }
    }
}

/// Everything a Byzantine adversary does in one round.
#[derive(Clone, Debug, Default)]
pub struct ByzActions {
    /// Ordinary DoS blocking (composed campaigns only).
    pub blocked: BlockSet,
    /// Sybil join requests submitted this round.
    pub joins: Vec<JoinRequest>,
    /// Existing members to corrupt into Byzantine behavior.
    pub corrupt: Vec<NodeId>,
    /// Forged membership updates emitted by corrupted members.
    pub forges: Vec<Forgery>,
}

impl ByzActions {
    /// True when the round carries no adversarial action at all.
    pub fn is_empty(&self) -> bool {
        self.blocked.is_empty()
            && self.joins.is_empty()
            && self.corrupt.is_empty()
            && self.forges.is_empty()
    }
}

/// The declared power of a Byzantine adversary. The harness clamps every
/// emission to these bounds.
#[derive(Clone, Copy, Debug)]
pub struct ByzBudget {
    /// Cap on total Byzantine identities (Sybil joins + corruptions) as a
    /// fraction of the current population.
    pub byz_fraction: f64,
    /// Cap on join requests per round.
    pub joins_per_round: usize,
    /// Blocking budget fraction `r` for composed DoS pressure.
    pub block_bound: f64,
}

impl Default for ByzBudget {
    fn default() -> Self {
        Self { byz_fraction: 0.1, joins_per_round: 4, block_bound: 0.0 }
    }
}

/// A Byzantine campaign: a deterministic plan of one round's actions
/// given a (stale) topology view. The harness owns lateness and budgets;
/// the campaign only decides *what* to attempt.
pub trait ByzCampaign {
    /// Short stable name for experiment tables and repro files.
    fn name(&self) -> &'static str;
    /// Plan this round's actions from the stale view. `byz` is the set of
    /// identities already Byzantine (admitted Sybils + corruptions) so a
    /// campaign can aim the remaining budget at fresh targets.
    fn plan(
        &mut self,
        view: &SharedSnapshot,
        round: u64,
        n_current: usize,
        byz: &BTreeSet<NodeId>,
    ) -> ByzActions;
}

/// Round-stepped Byzantine adversary interface, the analogue of
/// [`Attacker`] for runners that accept joins and forgeries as well as
/// block sets.
pub trait ByzAttacker {
    /// Record the current topology; called every round before [`act`].
    ///
    /// [`act`]: ByzAttacker::act
    fn observe(&mut self, snap: SharedSnapshot);
    /// The round's actions; `n_current` defines the budgets.
    fn act(&mut self, round: u64, n_current: usize) -> ByzActions;
    /// Human-readable label for experiment tables.
    fn label(&self) -> String;
}

impl<A: ByzAttacker + ?Sized> ByzAttacker for Box<A> {
    fn observe(&mut self, snap: SharedSnapshot) {
        (**self).observe(snap)
    }

    fn act(&mut self, round: u64, n_current: usize) -> ByzActions {
        (**self).act(round, n_current)
    }

    fn label(&self) -> String {
        (**self).label()
    }
}

/// The weakest (smallest) non-empty group of a view — the cheapest
/// majority to capture. Falls back to group 0.
fn weakest_group(view: &TopologySnapshot) -> u64 {
    view.groups
        .iter()
        .enumerate()
        .filter(|(_, g)| !g.is_empty())
        .min_by_key(|(x, g)| (g.len(), *x))
        .map(|(x, _)| x as u64)
        .unwrap_or(0)
}

/// Concentrate fresh Sybil identities into one target group.
#[derive(Clone, Debug)]
pub struct SybilCampaign {
    next_id: u64,
    /// The captured target: locked to the weakest group of the first view
    /// so the flood keeps piling onto one group instead of chasing
    /// whichever group its own joins just made non-weakest.
    target: Option<u64>,
    /// Join requests attempted per round (further clamped by the budget).
    pub rate: usize,
}

impl Default for SybilCampaign {
    fn default() -> Self {
        Self { next_id: SYBIL_ID_BASE, target: None, rate: 4 }
    }
}

impl ByzCampaign for SybilCampaign {
    fn name(&self) -> &'static str {
        "byz:sybil"
    }

    fn plan(
        &mut self,
        view: &SharedSnapshot,
        _round: u64,
        _n_current: usize,
        _byz: &BTreeSet<NodeId>,
    ) -> ByzActions {
        let target = *self.target.get_or_insert_with(|| weakest_group(view));
        let joins = (0..self.rate)
            .map(|_| {
                let id = NodeId(self.next_id);
                self.next_id += 1;
                JoinRequest { id, claimed_group: Some(target) }
            })
            .collect();
        ByzActions { joins, ..ByzActions::default() }
    }
}

/// Corrupt members and forge membership updates against their honest
/// group-mates.
#[derive(Clone, Debug)]
pub struct ForgeCampaign {
    /// Corruptions attempted per round (further clamped by the budget).
    pub corrupt_rate: usize,
    /// Forgeries emitted per corrupted member per round.
    pub forges_per_member: usize,
}

impl Default for ForgeCampaign {
    fn default() -> Self {
        Self { corrupt_rate: 1, forges_per_member: 1 }
    }
}

impl ByzCampaign for ForgeCampaign {
    fn name(&self) -> &'static str {
        "byz:forge"
    }

    fn plan(
        &mut self,
        view: &SharedSnapshot,
        round: u64,
        _n_current: usize,
        byz: &BTreeSet<NodeId>,
    ) -> ByzActions {
        // Corrupt one member per group, preferring groups that have no
        // Byzantine presence yet: a spread of single insiders forges
        // against group-mates everywhere at once, instead of piling into
        // one group (which would trade forgery reach for a concentration
        // no forgery defense could be blamed for missing). Within a
        // group, pick the largest-id honest member — an ordinary member,
        // never the smallest-id introducer.
        let mut candidates: Vec<(usize, std::cmp::Reverse<NodeId>)> = view
            .groups
            .iter()
            .filter_map(|grp| {
                let byz_here = grp.iter().filter(|v| byz.contains(v)).count();
                grp.iter()
                    .filter(|v| !byz.contains(v))
                    .max()
                    .map(|&m| (byz_here, std::cmp::Reverse(m)))
            })
            .collect();
        candidates.sort_unstable();
        let corrupt: Vec<NodeId> =
            candidates.into_iter().take(self.corrupt_rate).map(|(_, r)| r.0).collect();
        // Every Byzantine member in the view forges against honest
        // members of its own group — the membership updates a group-mate
        // is entitled to emit, which is what makes the forgery plausible.
        let mut forges = Vec::new();
        for grp in &view.groups {
            let (bad, good): (Vec<NodeId>, Vec<NodeId>) = grp.iter().partition(|v| byz.contains(v));
            for (k, &by) in bad.iter().enumerate() {
                for j in 0..self.forges_per_member {
                    if good.is_empty() {
                        break;
                    }
                    let victim = good[(round as usize + k + j) % good.len()];
                    // Alternate eviction and desync forgeries.
                    forges.push(if (round as usize + k + j) % 2 == 0 {
                        Forgery::Evict { by, victim }
                    } else {
                        Forgery::Desync { by, victim }
                    });
                }
            }
        }
        ByzActions { corrupt, forges, ..ByzActions::default() }
    }
}

/// Capture the join path: corrupt the smallest-id members, which the
/// "smallest live member" introducer rule hands every honest joiner.
#[derive(Clone, Debug)]
pub struct EclipseCampaign {
    /// Corruptions attempted per round (further clamped by the budget).
    pub corrupt_rate: usize,
}

impl Default for EclipseCampaign {
    fn default() -> Self {
        Self { corrupt_rate: 2 }
    }
}

impl ByzCampaign for EclipseCampaign {
    fn name(&self) -> &'static str {
        "byz:eclipse"
    }

    fn plan(
        &mut self,
        view: &SharedSnapshot,
        _round: u64,
        _n_current: usize,
        byz: &BTreeSet<NodeId>,
    ) -> ByzActions {
        let mut ids: Vec<NodeId> = view.nodes.clone();
        ids.sort_unstable();
        let corrupt: Vec<NodeId> =
            ids.into_iter().filter(|v| !byz.contains(v)).take(self.corrupt_rate).collect();
        ByzActions { corrupt, ..ByzActions::default() }
    }
}

/// Rotate Sybil, forge and eclipse pressure, optionally composed with an
/// ordinary blocking [`Attacker`] running inside the same round.
pub struct ChaosCampaign {
    sybil: SybilCampaign,
    forge: ForgeCampaign,
    eclipse: EclipseCampaign,
    /// Rounds per rotation slot.
    pub period: u64,
    blocker: Option<Box<dyn Attacker>>,
}

impl Default for ChaosCampaign {
    fn default() -> Self {
        Self {
            sybil: SybilCampaign::default(),
            forge: ForgeCampaign::default(),
            eclipse: EclipseCampaign::default(),
            period: 4,
            blocker: None,
        }
    }
}

impl ChaosCampaign {
    /// Compose with a blocking attacker (oblivious or adaptive): its block
    /// set is merged into each round's actions and clamped against the
    /// harness's `block_bound`.
    pub fn with_blocker(mut self, blocker: Box<dyn Attacker>) -> Self {
        self.blocker = Some(blocker);
        self
    }
}

impl ByzCampaign for ChaosCampaign {
    fn name(&self) -> &'static str {
        "byz:chaos"
    }

    fn plan(
        &mut self,
        view: &SharedSnapshot,
        round: u64,
        n_current: usize,
        byz: &BTreeSet<NodeId>,
    ) -> ByzActions {
        let period = self.period.max(1);
        let mut acts = match (round / period) % 3 {
            0 => self.sybil.plan(view, round, n_current, byz),
            1 => self.forge.plan(view, round, n_current, byz),
            _ => self.eclipse.plan(view, round, n_current, byz),
        };
        if let Some(blocker) = &mut self.blocker {
            // The inner attacker keeps its own lateness discipline on top
            // of the harness's: it is shown the aged view (a pointer copy).
            blocker.observe(view.clone());
            acts.blocked = blocker.block(round, n_current);
        }
        acts
    }
}

/// The campaign suite as a closed enum, nameable in experiment tables and
/// fuzz repro output (mirrors [`crate::adaptive::AdaptiveStrategy`]).
pub enum ByzFamily {
    /// [`SybilCampaign`].
    Sybil(SybilCampaign),
    /// [`ForgeCampaign`].
    Forge(ForgeCampaign),
    /// [`EclipseCampaign`].
    Eclipse(EclipseCampaign),
    /// [`ChaosCampaign`].
    Chaos(ChaosCampaign),
}

impl ByzFamily {
    /// One instance of every family, in a stable order.
    pub fn all() -> Vec<Self> {
        vec![
            Self::Sybil(SybilCampaign::default()),
            Self::Forge(ForgeCampaign::default()),
            Self::Eclipse(EclipseCampaign::default()),
            Self::Chaos(ChaosCampaign::default()),
        ]
    }

    /// Look a family up by its [`ByzCampaign::name`].
    pub fn by_name(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|f| f.name() == name)
    }
}

impl ByzCampaign for ByzFamily {
    fn name(&self) -> &'static str {
        match self {
            Self::Sybil(c) => c.name(),
            Self::Forge(c) => c.name(),
            Self::Eclipse(c) => c.name(),
            Self::Chaos(c) => c.name(),
        }
    }

    fn plan(
        &mut self,
        view: &SharedSnapshot,
        round: u64,
        n_current: usize,
        byz: &BTreeSet<NodeId>,
    ) -> ByzActions {
        match self {
            Self::Sybil(c) => c.plan(view, round, n_current, byz),
            Self::Forge(c) => c.plan(view, round, n_current, byz),
            Self::Eclipse(c) => c.plan(view, round, n_current, byz),
            Self::Chaos(c) => c.plan(view, round, n_current, byz),
        }
    }
}

/// Runs a [`ByzCampaign`] under the model's rules: views age through a
/// [`TopologyHistory`] before the campaign may see them, and every
/// emission is clamped to the [`ByzBudget`] — joins per round, total
/// Byzantine identities, blocking fraction. The harness tracks which
/// identities it has already spent budget on, so re-corrupting or
/// re-joining the same identity is free (idempotent), not double-charged.
pub struct ByzHarness<C> {
    campaign: C,
    budget: ByzBudget,
    history: TopologyHistory,
    /// Identities charged against the `byz_fraction` budget so far.
    spent: BTreeSet<NodeId>,
    /// Pure observability; never consulted when planning.
    tel: Telemetry,
}

impl<C: ByzCampaign> ByzHarness<C> {
    /// Harness a campaign with the given budget and lateness `t`.
    pub fn new(campaign: C, budget: ByzBudget, lateness: u64) -> Self {
        assert!(
            (0.0..1.0).contains(&budget.byz_fraction),
            "byz_fraction must be in [0, 1), got {}",
            budget.byz_fraction
        );
        assert!(
            (0.0..1.0).contains(&budget.block_bound),
            "block_bound must be in [0, 1), got {}",
            budget.block_bound
        );
        Self {
            campaign,
            budget,
            history: TopologyHistory::new(lateness),
            spent: BTreeSet::new(),
            tel: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry recorder (builder-style): emitted actions record
    /// into `adv.byz.*` counters.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        tel.emit(0, EventKind::StrategyChoice, None, 0, || self.campaign.name().to_string());
        self.tel = tel;
        self
    }

    /// The declared budget.
    pub fn budget(&self) -> ByzBudget {
        self.budget
    }

    /// The enforced lateness `t`.
    pub fn lateness(&self) -> u64 {
        self.history.lateness()
    }

    /// Identities the harness has charged against the identity budget.
    pub fn spent_identities(&self) -> usize {
        self.spent.len()
    }
}

impl<C: ByzCampaign> ByzAttacker for ByzHarness<C> {
    fn observe(&mut self, snap: SharedSnapshot) {
        self.history.push(snap);
    }

    fn act(&mut self, round: u64, n_current: usize) -> ByzActions {
        let identity_cap = node_budget(self.budget.byz_fraction, n_current);
        let mut acts = match self.history.view(round) {
            Some(view) => self.campaign.plan(view.seen, round, n_current, &self.spent),
            None => ByzActions::default(),
        };
        // Joins-per-round cap, then the global identity budget. Each kept
        // join or corruption charges one identity; repeats are free.
        acts.joins.truncate(self.budget.joins_per_round);
        acts.joins.retain(|j| {
            self.spent.contains(&j.id)
                || (self.spent.len() < identity_cap && self.spent.insert(j.id))
        });
        acts.corrupt.retain(|v| {
            self.spent.contains(v) || (self.spent.len() < identity_cap && self.spent.insert(*v))
        });
        // Forgeries may only be emitted by identities inside the budget.
        acts.forges.retain(|f| self.spent.contains(&f.by()));
        // Blocking is clamped by the helper AdaptiveHarness clamps with.
        let block_cap = node_budget(self.budget.block_bound, n_current);
        acts.blocked = clamp(std::mem::take(&mut acts.blocked), block_cap);
        if self.tel.enabled() {
            let name = self.campaign.name();
            self.tel.counter("adv.byz.joins", &[("family", name)]).add(acts.joins.len() as u64);
            self.tel
                .counter("adv.byz.corrupted", &[("family", name)])
                .add(acts.corrupt.len() as u64);
            self.tel.counter("adv.byz.forges", &[("family", name)]).add(acts.forges.len() as u64);
            self.tel.counter("adv.byz.blocked", &[("family", name)]).add(acts.blocked.len() as u64);
        }
        acts
    }

    fn label(&self) -> String {
        self.campaign.name().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grouped_snapshot(round: u64, groups: &[&[u64]]) -> SharedSnapshot {
        SharedSnapshot::from(TopologySnapshot {
            round,
            nodes: groups.iter().flat_map(|g| g.iter().copied().map(NodeId)).collect(),
            edges: Vec::new(),
            groups: groups.iter().map(|g| g.iter().copied().map(NodeId).collect()).collect(),
            group_edges: (0..groups.len().saturating_sub(1))
                .map(|i| (i as u32, i as u32 + 1))
                .collect(),
        })
    }

    #[test]
    fn sybil_campaign_targets_the_weakest_group() {
        let budget = ByzBudget { byz_fraction: 0.5, joins_per_round: 3, block_bound: 0.0 };
        let mut h = ByzHarness::new(SybilCampaign::default(), budget, 0);
        h.observe(grouped_snapshot(0, &[&[0, 1, 2, 3], &[4, 5], &[6, 7, 8]]));
        let acts = h.act(0, 9);
        assert_eq!(acts.joins.len(), 3, "joins_per_round caps the rate");
        for j in &acts.joins {
            assert_eq!(j.claimed_group, Some(1), "group 1 is the smallest");
            assert!(j.id.raw() >= SYBIL_ID_BASE, "sybil ids never collide with honest ids");
        }
    }

    #[test]
    fn forge_campaign_forges_within_the_forgers_group() {
        let budget = ByzBudget { byz_fraction: 0.5, joins_per_round: 0, block_bound: 0.0 };
        let mut h = ByzHarness::new(ForgeCampaign::default(), budget, 0);
        // Pre-corrupt node 5 by letting the campaign pick it (largest id).
        h.observe(grouped_snapshot(0, &[&[0, 1, 2], &[3, 4, 5]]));
        let first = h.act(0, 6);
        assert_eq!(first.corrupt, vec![NodeId(5)], "largest id is corrupted first");
        h.observe(grouped_snapshot(1, &[&[0, 1, 2], &[3, 4, 5]]));
        let second = h.act(1, 6);
        assert!(!second.forges.is_empty(), "the corrupted member must forge");
        for f in &second.forges {
            assert_eq!(f.by(), NodeId(5));
            assert!(
                [NodeId(3), NodeId(4)].contains(&f.victim()),
                "victims come from the forger's own group: {f:?}"
            );
        }
    }

    #[test]
    fn eclipse_campaign_corrupts_the_smallest_ids() {
        let budget = ByzBudget { byz_fraction: 0.5, joins_per_round: 0, block_bound: 0.0 };
        let mut h = ByzHarness::new(EclipseCampaign::default(), budget, 0);
        h.observe(grouped_snapshot(0, &[&[7, 2, 9], &[4, 1, 6]]));
        let acts = h.act(0, 6);
        assert_eq!(acts.corrupt, vec![NodeId(1), NodeId(2)], "smallest ids own the join path");
    }

    #[test]
    fn harness_enforces_identity_budget_and_lateness() {
        // byz_fraction 0.3 of 10 = 3 identities total, ever.
        let budget = ByzBudget { byz_fraction: 0.3, joins_per_round: 10, block_bound: 0.0 };
        let mut h =
            ByzHarness::new(SybilCampaign { rate: 10, ..SybilCampaign::default() }, budget, 4);
        h.observe(grouped_snapshot(0, &[&[0, 1, 2, 3, 4], &[5, 6, 7, 8, 9]]));
        assert!(h.act(2, 10).is_empty(), "no view is 4 rounds old yet");
        let acts = h.act(4, 10);
        assert_eq!(acts.joins.len(), 3, "identity budget clamps the flood");
        assert_eq!(h.spent_identities(), 3);
        // The budget is global: later rounds get nothing new.
        h.observe(grouped_snapshot(5, &[&[0, 1, 2, 3, 4], &[5, 6, 7, 8, 9]]));
        let later = h.act(9, 10);
        assert!(later.joins.is_empty(), "spent budget stays spent: {later:?}");
    }

    #[test]
    fn harness_drops_forgeries_from_unfunded_identities() {
        struct Rogue;
        impl ByzCampaign for Rogue {
            fn name(&self) -> &'static str {
                "test:rogue"
            }
            fn plan(
                &mut self,
                _view: &SharedSnapshot,
                _round: u64,
                _n: usize,
                _byz: &BTreeSet<NodeId>,
            ) -> ByzActions {
                ByzActions {
                    forges: vec![Forgery::Evict { by: NodeId(0), victim: NodeId(1) }],
                    ..ByzActions::default()
                }
            }
        }
        let budget = ByzBudget { byz_fraction: 0.5, joins_per_round: 0, block_bound: 0.0 };
        let mut h = ByzHarness::new(Rogue, budget, 0);
        h.observe(grouped_snapshot(0, &[&[0, 1]]));
        let acts = h.act(0, 2);
        assert!(acts.forges.is_empty(), "an uncorrupted identity cannot forge");
    }

    #[test]
    fn chaos_rotates_families_and_clamps_blocking() {
        use crate::adaptive::HighDegreeAttack;
        use crate::AdaptiveHarness;
        let blocker = Box::new(AdaptiveHarness::new(HighDegreeAttack, 0.5, 0));
        let campaign = ChaosCampaign { period: 1, ..ChaosCampaign::default() }
            .with_blocker(blocker as Box<dyn Attacker>);
        let budget = ByzBudget { byz_fraction: 0.9, joins_per_round: 2, block_bound: 0.2 };
        let mut h = ByzHarness::new(campaign, budget, 0);
        let mut saw_joins = false;
        let mut saw_corrupt = false;
        for r in 0..6 {
            h.observe(grouped_snapshot(r, &[&[0, 1, 2, 3, 4], &[5, 6, 7, 8, 9]]));
            let acts = h.act(r, 10);
            saw_joins |= !acts.joins.is_empty();
            saw_corrupt |= !acts.corrupt.is_empty();
            assert!(acts.blocked.len() <= 2, "block_bound 0.2 of 10 caps blocking");
        }
        assert!(saw_joins && saw_corrupt, "rotation must exercise several families");
    }

    #[test]
    fn families_are_nameable_and_replayable() {
        let names: Vec<&str> = ByzFamily::all().iter().map(|f| f.name()).collect();
        assert_eq!(names, vec!["byz:sybil", "byz:forge", "byz:eclipse", "byz:chaos"]);
        for name in names {
            assert_eq!(ByzFamily::by_name(name).expect("known").name(), name);
        }
        assert!(ByzFamily::by_name("byz:nope").is_none());
    }

    #[test]
    fn telemetry_mirrors_emitted_actions() {
        let tel = Telemetry::new(telemetry::Config::default());
        let budget = ByzBudget { byz_fraction: 0.5, joins_per_round: 2, block_bound: 0.0 };
        let mut h =
            ByzHarness::new(SybilCampaign::default(), budget, 0).with_telemetry(tel.clone());
        h.observe(grouped_snapshot(0, &[&[0, 1, 2, 3], &[4, 5, 6, 7]]));
        let acts = h.act(0, 8);
        let snap = tel.snapshot();
        assert_eq!(snap.counter("adv.byz.joins{family=byz:sybil}"), acts.joins.len() as u64);
        assert!(acts.joins.len() as u64 > 0);
    }
}
