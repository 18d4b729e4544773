//! Crash failures vs DoS blocking (the closing discussion of Section 6).
//!
//! The paper observes that the churn rate of Theorem 7 extends to crash
//! failures **only if** a crash can be distinguished from a node under
//! DoS attack:
//!
//! * *Distinguishable*: the groupmates of a crashed node emulate its
//!   departure (it leaves at the next reconfiguration) and the overlay
//!   stays healthy.
//! * *Indistinguishable*: the group cannot know how long to emulate a
//!   silent member. Give up too early and a merely-blocked node is
//!   evicted; once evicted, it must rejoin through the nodes it knows and
//!   that know it — but after `O(log log n)` rounds the adversary has
//!   learned exactly that contact set from the topology, so a dedicated
//!   attack isolates the returning node.
//!
//! This module makes the dilemma executable: a population with silent
//! members (crashed or blocked — the observer cannot tell), a group
//! emulation policy with finite patience, and an adversary that blocks
//! the known contacts of evicted nodes when they try to return.

use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use simnet::idrun::ascending;
use simnet::rng::NodeRng;
use simnet::{BlockSet, IdRun, IdSet, NodeId};

/// Whether the system can tell a crash from a DoS-blocked node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum CrashVisibility {
    /// Crashes are announced (e.g. by failure detectors): groupmates
    /// emulate the departure immediately.
    Distinguishable,
    /// Silence is ambiguous: the group emulates a silent member for
    /// `patience` epochs, then evicts.
    Indistinguishable {
        /// Epochs of silence tolerated before eviction.
        patience: u32,
    },
}

/// Outcome of a crash-failure scenario.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CrashOutcome {
    /// Nodes that actually crashed and were cleanly removed.
    pub crashes_handled: usize,
    /// Live nodes wrongly evicted while they were merely blocked.
    pub wrong_evictions: usize,
    /// Wrongly evicted nodes that later rejoined successfully.
    pub rejoined: usize,
    /// Wrongly evicted nodes isolated by the adversary on return.
    pub isolated: usize,
}

/// A population where members can crash (permanently) or be blocked
/// (temporarily) and the observer only sees *silence*.
#[derive(Clone, Debug)]
pub struct CrashScenario {
    members: Vec<NodeId>,
    crashed: IdSet,
    /// Silent-epochs counter per member.
    silent_for: IdRun<u32>,
    /// Contacts each evicted node still knows (its last group).
    contacts_of_evicted: IdRun<Vec<NodeId>>,
    visibility: CrashVisibility,
    rng: NodeRng,
}

impl CrashScenario {
    /// A population of `n` members under the given visibility model.
    pub fn new(n: usize, visibility: CrashVisibility, seed: u64) -> Self {
        Self {
            members: (0..n as u64).map(NodeId).collect(),
            crashed: IdSet::none(),
            silent_for: IdRun::default(),
            contacts_of_evicted: IdRun::default(),
            visibility,
            rng: simnet::rng::stream(seed, 6, 0xC2A5),
        }
    }

    /// Current live membership.
    pub fn members(&self) -> &[NodeId] {
        &self.members
    }

    /// Crash `count` random members (they go permanently silent).
    pub fn crash_random(&mut self, count: usize) -> Vec<NodeId> {
        let mut pool: Vec<NodeId> =
            self.members.iter().copied().filter(|&m| !self.crashed.contains(m)).collect();
        pool.shuffle(&mut self.rng);
        pool.truncate(count);
        self.crashed.union_with(&IdSet::from_iter(pool.iter().copied()));
        pool
    }

    /// Run one reconfiguration epoch. `blocked` are live members the DoS
    /// adversary silenced for this whole epoch; `group_of` assigns each
    /// member its current groupmates (the contacts it would rejoin
    /// through). Returns what the epoch did.
    pub fn epoch<FG: Fn(NodeId) -> Vec<NodeId>>(
        &mut self,
        blocked: &BlockSet,
        group_of: FG,
    ) -> CrashOutcome {
        let mut out = CrashOutcome::default();
        let mut evict: Vec<NodeId> = Vec::new();
        let mut wronged: Vec<NodeId> = Vec::new();
        // Members silent for fewer epochs than the patience, with their
        // new count; everyone else's counter ends this epoch.
        let mut tolerated: Vec<(NodeId, u32)> = Vec::new();
        for &m in &self.members {
            let crashed = self.crashed.contains(m);
            match self.visibility {
                CrashVisibility::Distinguishable => {
                    // Only true crashes are announced; blocked nodes are
                    // left alone.
                    if crashed {
                        evict.push(m);
                        out.crashes_handled += 1;
                    }
                }
                CrashVisibility::Indistinguishable { patience } => {
                    if !crashed && !blocked.contains(m) {
                        continue;
                    }
                    let c = self.silent_for.get(m).map_or(1, |c| c + 1);
                    if c <= patience {
                        tolerated.push((m, c));
                        continue;
                    }
                    if crashed {
                        out.crashes_handled += 1;
                    } else {
                        out.wrong_evictions += 1;
                        wronged.push(m);
                    }
                    evict.push(m);
                }
            }
        }
        let evicted = IdSet::from(evict);
        self.members.retain(|&m| !evicted.contains(m));
        self.silent_for = IdRun::from_unsorted(tolerated).expect("members are distinct");
        // An evicted node is no member, so it has no contacts entry yet.
        self.contacts_of_evicted.insert_all(&ascending(&wronged), group_of);
        out
    }

    /// A wrongly evicted node becomes unblocked and tries to rejoin via
    /// any of its remembered contacts. The adversary — which by now has
    /// read the (stale but sufficient) topology — blocks up to `budget`
    /// nodes of its choosing; since the contact set has only logarithmic
    /// size, it blocks exactly those, isolating the victim (the paper's
    /// "dedicated DoS-attack can easily isolate v").
    pub fn attempt_rejoin(&mut self, v: NodeId, adversary_budget: usize) -> bool {
        let Some(contacts) = self.contacts_of_evicted.remove(v) else {
            return false; // nothing known about the network anymore
        };
        let live_contacts: Vec<NodeId> = contacts
            .into_iter()
            .filter(|&c| self.members.contains(&c) && !self.crashed.contains(c))
            .collect();
        // The adversary blocks the victim's known contacts first.
        let reachable = live_contacts.len().saturating_sub(adversary_budget);
        if reachable > 0 {
            self.members.push(v);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn group_of_stub(groupmates: usize) -> impl Fn(NodeId) -> Vec<NodeId> {
        move |v: NodeId| (1..=groupmates as u64).map(|i| NodeId((v.raw() + i) % 1000)).collect()
    }

    #[test]
    fn distinguishable_crashes_are_handled_cleanly() {
        let mut sc = CrashScenario::new(100, CrashVisibility::Distinguishable, 1);
        let victims = sc.crash_random(10);
        assert_eq!(victims.len(), 10);
        // Heavy blocking alongside: must NOT cause evictions.
        let blocked: BlockSet = (50..90).map(NodeId).collect();
        let out = sc.epoch(&blocked, group_of_stub(8));
        assert_eq!(out.crashes_handled, 10);
        assert_eq!(out.wrong_evictions, 0);
        assert_eq!(sc.members().len(), 90);
    }

    #[test]
    fn indistinguishable_blocking_beyond_patience_evicts_live_nodes() {
        let mut sc = CrashScenario::new(100, CrashVisibility::Indistinguishable { patience: 2 }, 2);
        // Block the same 20 live nodes for 3 epochs: patience exceeded.
        let blocked: BlockSet = (0..20).map(NodeId).collect();
        let mut wrong = 0;
        for _ in 0..3 {
            wrong += sc.epoch(&blocked, group_of_stub(8)).wrong_evictions;
        }
        assert_eq!(wrong, 20, "sustained blocking must trigger wrong evictions");
        assert_eq!(sc.members().len(), 80);
    }

    #[test]
    fn short_blocking_within_patience_is_tolerated() {
        let mut sc = CrashScenario::new(100, CrashVisibility::Indistinguishable { patience: 3 }, 3);
        let blocked: BlockSet = (0..20).map(NodeId).collect();
        for _ in 0..2 {
            let out = sc.epoch(&blocked, group_of_stub(8));
            assert_eq!(out.wrong_evictions, 0);
        }
        // Silence ends: counters reset.
        let out = sc.epoch(&BlockSet::none(), group_of_stub(8));
        assert_eq!(out.wrong_evictions, 0);
        assert_eq!(sc.members().len(), 100);
    }

    #[test]
    fn adversary_with_contact_budget_isolates_returning_nodes() {
        let mut sc = CrashScenario::new(100, CrashVisibility::Indistinguishable { patience: 1 }, 4);
        let blocked: BlockSet = (0..5).map(NodeId).collect();
        for _ in 0..2 {
            sc.epoch(&blocked, group_of_stub(8));
        }
        // Contacts are known to the adversary; budget >= contact-set size
        // isolates, smaller budget lets the node back in.
        assert!(!sc.attempt_rejoin(NodeId(0), 8), "full contact blocking isolates");
        assert!(sc.attempt_rejoin(NodeId(1), 4), "partial blocking fails to isolate");
        assert!(sc.members().contains(&NodeId(1)));
        assert!(!sc.members().contains(&NodeId(0)));
    }

    #[test]
    fn crashed_nodes_eventually_evicted_even_when_indistinguishable() {
        let mut sc = CrashScenario::new(50, CrashVisibility::Indistinguishable { patience: 2 }, 5);
        sc.crash_random(7);
        let mut handled = 0;
        for _ in 0..4 {
            handled += sc.epoch(&BlockSet::none(), group_of_stub(8)).crashes_handled;
        }
        assert_eq!(handled, 7);
        assert_eq!(sc.members().len(), 43);
    }
}
