//! Fault-campaign composition for the W-series heavy-traffic workloads.
//!
//! The workload engine drives millions of DHT/pubsub ops while a fault
//! schedule runs underneath. This module composes the existing blocking
//! adversaries — the oblivious `r`-bounded DoS families ([`DosAdversary`])
//! and the adaptive red-team harnesses ([`AdaptiveHarness`]) — into one
//! [`Attacker`] whose per-round block set is the union of its members'
//! emissions, optionally re-capped to a combined budget so a stacked
//! campaign stays paper-legal (`r`-bounded in total, not just per member).
//!
//! Presets mirror the experiment series: [`Campaign::a5_style`] is the
//! oblivious random-blocking schedule of experiment A5, and
//! [`Campaign::a6_style`] is the adaptive min-cut schedule of A6. The
//! [`Campaign::preset`] parser maps the workload CLI/knob vocabulary
//! (`none`, `a5`, `a6`, `a5+a6`, `churn+dos`) onto those constructors,
//! with [`ChurnBlocker`] supplying the churn half of `churn+dos`.

use crate::adaptive::{clamp, node_budget, AdaptiveHarness, AdaptiveStrategy, Attacker};
use crate::churn::{ChurnSchedule, ChurnStrategy};
use crate::dos::{DosAdversary, DosStrategy};
use crate::lateness::SharedSnapshot;
use simnet::rng::NodeRng;
use simnet::{BlockSet, NodeId};
use std::collections::BTreeSet;

/// Churn expressed as blocking pressure on a fixed server set.
///
/// The DHT's server population is static — churn there manifests as
/// servers that are *mid-rejoin* and therefore unresponsive for a round.
/// This attacker reuses the existing [`ChurnSchedule`] machinery to
/// prescribe which logical members are churning each round, then maps
/// them onto servers (`id % n_current`) that count as blocked while they
/// re-join. Composed into a [`Campaign`] with the DoS families this gives
/// the W-series its churn+DoS arm without inventing a second churn model.
pub struct ChurnBlocker {
    schedule: ChurnSchedule,
    rng: NodeRng,
    members: Vec<NodeId>,
    rate: f64,
}

impl ChurnBlocker {
    /// `rate >= 1.0` is the schedule's churn rate `r`; `seed` makes the
    /// blocker replay-deterministic.
    pub fn new(rate: f64, seed: u64) -> Self {
        Self {
            schedule: ChurnSchedule::new(ChurnStrategy::Random, rate, 0.5, 1 << 40),
            rng: simnet::rng::stream(seed, 0, 0x4348_524E),
            members: Vec::new(),
            rate,
        }
    }
}

impl Attacker for ChurnBlocker {
    fn observe(&mut self, snap: SharedSnapshot) {
        // The logical population seeds itself from the first snapshot and
        // evolves under the schedule from then on.
        if self.members.is_empty() {
            self.members.clone_from(&snap.nodes);
        }
    }

    fn block(&mut self, _round: u64, n_current: usize) -> BlockSet {
        if self.members.len() < 4 || n_current == 0 {
            return BlockSet::none();
        }
        let ev = self.schedule.next(&self.members, &mut self.rng);
        let leaving: BTreeSet<NodeId> = ev.leaves.iter().copied().collect();
        self.members.retain(|m| !leaving.contains(m));
        for j in &ev.joins {
            self.members.push(j.new_node);
        }
        ev.leaves.iter().map(|v| NodeId(v.raw() % n_current as u64)).collect()
    }

    fn label(&self) -> String {
        format!("churn@r={}", self.rate)
    }
}

/// A composite attacker: every member sees every snapshot, and the
/// campaign's block set is the union of the members' block sets.
pub struct Campaign {
    members: Vec<Box<dyn Attacker>>,
    /// Combined budget fraction; `None` trusts each member's own bound.
    cap: Option<f64>,
}

impl Campaign {
    /// Empty campaign (blocks nothing — the fault-free control arm).
    pub fn none() -> Self {
        Self { members: Vec::new(), cap: None }
    }

    /// Campaign over explicit members, each enforcing its own budget.
    pub fn new(members: Vec<Box<dyn Attacker>>) -> Self {
        Self { members, cap: None }
    }

    /// Re-cap the *union* to `floor(bound * n_current)` nodes per round.
    /// Without this, stacking two `r`-bounded members can block up to a
    /// `2r` fraction; with it the campaign itself is `r`-bounded. The cap
    /// keeps the smallest node ids (block sets iterate in sorted order),
    /// which is deterministic and favors no member.
    pub fn capped(mut self, bound: f64) -> Self {
        assert!((0.0..1.0).contains(&bound), "cap must be in [0, 1), got {bound}");
        self.cap = Some(bound);
        self
    }

    /// Add one more member (builder-style).
    pub fn with(mut self, member: Box<dyn Attacker>) -> Self {
        self.members.push(member);
        self
    }

    /// Number of composed members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True for the fault-free control campaign.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// A5-style oblivious schedule: random `r`-bounded `t`-late blocking.
    pub fn a5_style(bound: f64, lateness: u64, seed: u64) -> Self {
        Self::new(vec![Box::new(DosAdversary::new(DosStrategy::Random, bound, lateness, seed))])
    }

    /// A6-style adaptive schedule: min-cut targeting behind the lateness
    /// gate, the strongest single family of the A7 defense matrix.
    pub fn a6_style(bound: f64, lateness: u64) -> Self {
        let strategy = AdaptiveStrategy::by_name("adaptive:min-cut")
            .expect("adaptive:min-cut is a built-in strategy");
        Self::new(vec![Box::new(AdaptiveHarness::new(strategy, bound, lateness))])
    }

    /// Parse a workload campaign name. Each member gets the full `bound`;
    /// stacked presets are re-capped so the union stays `r`-bounded.
    ///
    /// * `"none"` — fault-free control.
    /// * `"a5"` — oblivious random blocking.
    /// * `"a6"` — adaptive min-cut.
    /// * `"a5+a6"` — both, union capped at `bound`.
    /// * `"churn+dos"` — churn-as-blocking plus both DoS families, union
    ///   capped at `bound` (the W-series faulted arm).
    pub fn preset(name: &str, bound: f64, lateness: u64, seed: u64) -> Option<Self> {
        match name {
            "none" => Some(Self::none()),
            "a5" => Some(Self::a5_style(bound, lateness, seed)),
            "a6" => Some(Self::a6_style(bound, lateness)),
            "a5+a6" => {
                let a5 = Self::a5_style(bound, lateness, seed);
                let a6 = Self::a6_style(bound, lateness);
                let mut members = a5.members;
                members.extend(a6.members);
                Some(Self::new(members).capped(bound))
            }
            "churn+dos" => {
                let mut c = Self::preset("a5+a6", bound, lateness, seed)?;
                c.members.insert(0, Box::new(ChurnBlocker::new(1.25, seed ^ 0x4348_524E)));
                Some(c)
            }
            _ => None,
        }
    }

    /// Names accepted by [`Campaign::preset`].
    pub fn preset_names() -> &'static [&'static str] {
        &["none", "a5", "a6", "a5+a6", "churn+dos"]
    }

    /// Show every member the current topology: an overlay's shared
    /// snapshot, or a snapshot of its own ([`Attacker::observe`] with the
    /// conversion spelled out).
    pub fn observe(&mut self, snap: impl Into<SharedSnapshot>) {
        Attacker::observe(self, snap.into());
    }
}

impl Attacker for Campaign {
    fn observe(&mut self, snap: SharedSnapshot) {
        for m in &mut self.members {
            m.observe(snap.clone());
        }
    }

    fn block(&mut self, round: u64, n_current: usize) -> BlockSet {
        let mut union: BlockSet = BlockSet::none();
        for m in &mut self.members {
            union.union_with(&m.block(round, n_current));
        }
        match self.cap {
            Some(bound) => clamp(union, node_budget(bound, n_current)),
            None => union,
        }
    }

    fn label(&self) -> String {
        if self.members.is_empty() {
            return "campaign[none]".to_string();
        }
        let parts: Vec<String> = self.members.iter().map(|m| m.label()).collect();
        match self.cap {
            Some(b) => format!("campaign[{}]@{b}", parts.join("+")),
            None => format!("campaign[{}]", parts.join("+")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(round: u64, n: u64) -> SharedSnapshot {
        crate::lateness::TopologySnapshot::nodes_only(round, (0..n).map(NodeId).collect()).into()
    }

    fn drive(c: &mut Campaign, rounds: u64, n: u64) -> Vec<BlockSet> {
        (0..rounds)
            .map(|r| {
                c.observe(snap(r, n));
                c.block(r, n as usize)
            })
            .collect()
    }

    #[test]
    fn empty_campaign_blocks_nothing() {
        let mut c = Campaign::none();
        for b in drive(&mut c, 8, 64) {
            assert!(b.is_empty());
        }
        assert_eq!(c.label(), "campaign[none]");
    }

    #[test]
    fn union_contains_each_members_picks() {
        // Two A5 members with different seeds: the union must be at least
        // as large as either alone (same snapshots, same rounds).
        let mut lone = Campaign::a5_style(0.1, 2, 7);
        let mut both = Campaign::a5_style(0.1, 2, 7).with(Box::new(DosAdversary::new(
            DosStrategy::Random,
            0.1,
            2,
            8,
        )));
        let solo = drive(&mut lone, 12, 256);
        let joint = drive(&mut both, 12, 256);
        for (s, j) in solo.iter().zip(&joint) {
            for v in s.iter() {
                assert!(j.contains(v), "union lost a member pick");
            }
        }
        assert!(joint.iter().any(|j| !j.is_empty()), "a5 never blocked anyone");
    }

    #[test]
    fn cap_bounds_the_union() {
        let n = 200usize;
        let bound = 0.1;
        let mut c = Campaign::preset("a5+a6", bound, 2, 11).unwrap();
        for b in drive(&mut c, 16, n as u64) {
            assert!(
                b.len() <= (bound * n as f64).floor() as usize,
                "capped campaign exceeded its combined budget: {}",
                b.len()
            );
        }
    }

    #[test]
    fn presets_parse_and_unknown_is_rejected() {
        for name in Campaign::preset_names() {
            assert!(Campaign::preset(name, 0.05, 1, 3).is_some(), "preset {name} missing");
        }
        assert!(Campaign::preset("a9", 0.05, 1, 3).is_none());
    }

    #[test]
    fn churn_blocker_replays_and_stays_in_range() {
        let n = 128u64;
        let mut a = ChurnBlocker::new(1.25, 9);
        let mut b = ChurnBlocker::new(1.25, 9);
        let sa = drive_attacker(&mut a, 16, n);
        let sb = drive_attacker(&mut b, 16, n);
        assert_eq!(sa, sb, "same seed must replay identically");
        assert!(sa.iter().any(|s| !s.is_empty()), "churn never downed a server");
        for s in &sa {
            for v in s.iter() {
                assert!(v.raw() < n, "blocked id {} outside the server set", v.raw());
            }
        }
        // The churn+dos preset stays within its combined budget.
        let bound = 0.1;
        let mut c = Campaign::preset("churn+dos", bound, 2, 17).unwrap();
        for s in drive(&mut c, 16, n) {
            assert!(s.len() <= (bound * n as f64).floor() as usize);
        }
    }

    fn drive_attacker(a: &mut dyn Attacker, rounds: u64, n: u64) -> Vec<BlockSet> {
        (0..rounds)
            .map(|r| {
                a.observe(snap(r, n));
                a.block(r, n as usize)
            })
            .collect()
    }

    #[test]
    fn campaign_replays_deterministically() {
        let mut a = Campaign::preset("a5+a6", 0.1, 2, 5).unwrap();
        let mut b = Campaign::preset("a5+a6", 0.1, 2, 5).unwrap();
        assert_eq!(drive(&mut a, 20, 128), drive(&mut b, 20, 128));
    }
}
