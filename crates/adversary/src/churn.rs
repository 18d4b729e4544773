//! Adversarial churn (Section 1.1).
//!
//! The adversary prescribes node sets `W_i` with churn rate `r`:
//! `|W_i|/r <= |W_{i+1}| <= r |W_i|`. Every new node is introduced to
//! exactly one staying node, and at most `ceil(r)` new nodes are introduced
//! to any single node per round. Every id enters and leaves at most once.
//!
//! The adversary is **omniscient**: strategies may inspect the full current
//! membership (and the ages we track for them) when choosing victims.
//! Operationally the schedule is queried once per reconfiguration epoch and
//! emits joins and leaves for that epoch.

use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use simnet::idrun::{ascending, difference};
use simnet::{IdRun, IdSet, NodeId};

/// A node joining, and the existing member it is introduced to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Join {
    /// The fresh id entering the system.
    pub new_node: NodeId,
    /// The staying member that learns `new_node`'s id.
    pub introduced_to: NodeId,
}

/// Churn prescribed for one epoch.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// Nodes entering, each with its introduction target.
    pub joins: Vec<Join>,
    /// Nodes prescribed to leave.
    pub leaves: Vec<NodeId>,
}

impl ChurnEvent {
    /// True if nothing happens this epoch.
    pub fn is_empty(&self) -> bool {
        self.joins.is_empty() && self.leaves.is_empty()
    }

    /// Apply the event to a membership list: the leavers go, the stayers
    /// keep their places, and the joiners are appended in event order.
    pub fn apply(&self, members: &mut Vec<NodeId>) {
        let leaving = IdSet::from_iter(self.leaves.iter().copied());
        members.retain(|&m| !leaving.contains(m));
        members.extend(self.joins.iter().map(|j| j.new_node));
    }
}

/// How the omniscient adversary chooses its victims and introducers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnStrategy {
    /// Uniformly random leavers; introductions spread randomly.
    Random,
    /// Remove the oldest members first — attacks any "stable core"
    /// assumption.
    OldestFirst,
    /// Remove the youngest members first — tries to evict nodes before
    /// they are integrated.
    YoungestFirst,
    /// Introduce all new nodes to as few members as possible (respecting
    /// the `ceil(r)` cap) while removing random members — stresses the
    /// delegation path of Algorithm 3.
    Concentrated,
}

/// An omniscient churn schedule of rate `r` and per-epoch intensity in
/// `(0, 1]` (1 = use the full budget the rate allows).
#[derive(Clone, Debug)]
pub struct ChurnSchedule {
    strategy: ChurnStrategy,
    rate: f64,
    intensity: f64,
    next_id: u64,
    /// Epoch in which each current member joined.
    ages: IdRun<u64>,
    epoch: u64,
}

impl ChurnSchedule {
    /// Create a schedule. `rate >= 1`; fresh ids are drawn starting at
    /// `first_free_id` (must exceed every existing id — ids are used at
    /// most once).
    pub fn new(strategy: ChurnStrategy, rate: f64, intensity: f64, first_free_id: u64) -> Self {
        assert!(rate >= 1.0, "churn rate must be >= 1, got {rate}");
        assert!(intensity > 0.0 && intensity <= 1.0, "intensity must be in (0, 1]");
        Self { strategy, rate, intensity, next_id: first_free_id, ages: IdRun::default(), epoch: 0 }
    }

    /// The churn rate `r`.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Maximum introductions per member per epoch (`ceil(r)`).
    pub fn max_intro_per_node(&self) -> usize {
        self.rate.ceil() as usize
    }

    /// Prescribe churn for the next epoch given the current membership.
    ///
    /// Guarantees: `|members'| in [|members|/r, r |members|]`, never fewer
    /// than 4 survivors, introductions only to staying members with at most
    /// `ceil(r)` per member, and fresh never-reused ids.
    pub fn next<R: rand::Rng + ?Sized>(&mut self, members: &[NodeId], rng: &mut R) -> ChurnEvent {
        self.epoch += 1;
        // Members the schedule has not aged yet (all of them on the first
        // call, none once it prescribes every change): one walk, and no
        // rebuild of the run when there are none.
        let seen = self.epoch - 1;
        let unaged: Vec<NodeId> =
            difference(ascending(members).iter().copied(), self.ages.iter()).collect();
        self.ages.insert_all(&unaged, |_| seen);
        let n = members.len();
        assert!(n >= 4, "membership too small for churn");

        // Budget: leave up to (1 - 1/r) n, join up to (r - 1) n, scaled by
        // intensity, such that the size ratio constraint always holds.
        let max_leave = ((1.0 - 1.0 / self.rate) * n as f64 * self.intensity).floor() as usize;
        let max_join = ((self.rate - 1.0) * n as f64 * self.intensity).floor() as usize;
        let leaves_n = max_leave.min(n.saturating_sub(4));
        let joins_n = max_join;

        let mut pool = members.to_vec();
        match self.strategy {
            ChurnStrategy::Random | ChurnStrategy::Concentrated => pool.shuffle(rng),
            ChurnStrategy::OldestFirst => {
                pool.sort_by_cached_key(|&m| (self.age(m), m.raw()));
            }
            ChurnStrategy::YoungestFirst => {
                pool.sort_by_cached_key(|&m| (std::cmp::Reverse(self.age(m)), m.raw()));
            }
        }
        let leaves: Vec<NodeId> = pool[..leaves_n].to_vec();
        let stayers: Vec<NodeId> = pool[leaves_n..].to_vec();
        self.ages.remove_all(ascending(&leaves).iter().copied());

        // The paper's cap of ceil(r) introductions is per *round*; an epoch
        // spans several rounds, but we conservatively apply the per-round
        // cap per epoch and clamp the join budget to what stayers can take.
        let cap = self.max_intro_per_node();
        let joins_n = joins_n.min(stayers.len() * cap);
        let mut joins = Vec::with_capacity(joins_n);
        let mut intro_order: Vec<NodeId> = match self.strategy {
            // Concentrate on the fewest possible introducers.
            ChurnStrategy::Concentrated => stayers.clone(),
            _ => {
                let mut s = stayers.clone();
                s.shuffle(rng);
                s
            }
        };
        // Round-robin chunks of size `cap` over the introducer order:
        // introducer[0] gets the first `cap` joins, etc.
        intro_order.truncate(joins_n.div_ceil(cap).max(1));
        for j in 0..joins_n {
            let target = intro_order[j / cap];
            let id = NodeId(self.next_id);
            self.next_id += 1;
            // Fresh ids exceed every tracked one: each put is an append.
            self.ages.put(id, self.epoch);
            joins.push(Join { new_node: id, introduced_to: target });
        }
        ChurnEvent { joins, leaves }
    }

    /// The epoch in which member `m` joined.
    fn age(&self, m: NodeId) -> u64 {
        *self.ages.get(m).expect("every member is aged on entry")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use std::collections::HashMap;

    fn members(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    fn apply(members: &[NodeId], ev: &ChurnEvent) -> Vec<NodeId> {
        let mut out = members.to_vec();
        ev.apply(&mut out);
        out
    }

    #[test]
    fn apply_keeps_stayer_order_and_appends_joiners_in_event_order() {
        let join = |id: u64| Join { new_node: NodeId(id), introduced_to: NodeId(7) };
        let ev = ChurnEvent { joins: vec![join(50), join(40)], leaves: vec![NodeId(9), NodeId(2)] };
        let mut members: Vec<NodeId> = [9, 7, 2, 5, 1].into_iter().map(NodeId).collect();
        ev.apply(&mut members);
        let want: Vec<NodeId> = [7, 5, 1, 50, 40].into_iter().map(NodeId).collect();
        assert_eq!(members, want);
    }

    #[test]
    fn size_ratio_respected() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut sched = ChurnSchedule::new(ChurnStrategy::Random, 2.0, 1.0, 1000);
        let m = members(100);
        let ev = sched.next(&m, &mut rng);
        let m2 = apply(&m, &ev);
        assert!(m2.len() >= 50 && m2.len() <= 200, "size {} out of [n/r, rn]", m2.len());
    }

    #[test]
    fn introductions_respect_cap_and_stayers() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut sched = ChurnSchedule::new(ChurnStrategy::Concentrated, 3.0, 1.0, 1000);
        let m = members(60);
        let ev = sched.next(&m, &mut rng);
        let cap = sched.max_intro_per_node();
        let mut per_target: HashMap<NodeId, usize> = HashMap::new();
        for j in &ev.joins {
            assert!(!ev.leaves.contains(&j.introduced_to), "introduced to a leaver");
            *per_target.entry(j.introduced_to).or_insert(0) += 1;
        }
        for (&t, &c) in &per_target {
            assert!(c <= cap, "target {t} got {c} > cap {cap}");
        }
        // Concentrated: uses the minimum number of introducers.
        assert_eq!(per_target.len(), ev.joins.len().div_ceil(cap));
    }

    #[test]
    fn ids_are_fresh_and_unique() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut sched = ChurnSchedule::new(ChurnStrategy::Random, 2.0, 0.5, 1000);
        let mut m = members(40);
        let mut seen: Vec<NodeId> = m.clone();
        for _ in 0..5 {
            let ev = sched.next(&m, &mut rng);
            for j in &ev.joins {
                assert!(!seen.contains(&j.new_node), "id reuse: {}", j.new_node);
                seen.push(j.new_node);
            }
            m = apply(&m, &ev);
        }
    }

    #[test]
    fn oldest_first_removes_initial_members() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut sched = ChurnSchedule::new(ChurnStrategy::OldestFirst, 2.0, 0.5, 1000);
        let m = members(20);
        let ev1 = sched.next(&m, &mut rng);
        // All leavers are from the original (age-0) cohort.
        for l in &ev1.leaves {
            assert!(l.raw() < 20);
        }
        let m2 = apply(&m, &ev1);
        let ev2 = sched.next(&m2, &mut rng);
        // Second round still prefers remaining age-0 members over joiners.
        for l in &ev2.leaves {
            assert!(l.raw() < 20, "leaver {l} is not oldest-cohort");
        }
    }

    #[test]
    fn never_removes_below_four_members() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut sched = ChurnSchedule::new(ChurnStrategy::Random, 100.0, 1.0, 1000);
        let m = members(5);
        let ev = sched.next(&m, &mut rng);
        assert!(m.len() - ev.leaves.len() >= 4);
    }

    #[test]
    #[should_panic(expected = "rate must be >= 1")]
    fn sub_one_rate_rejected() {
        ChurnSchedule::new(ChurnStrategy::Random, 0.5, 1.0, 0);
    }
}
