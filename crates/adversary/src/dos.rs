//! `r`-bounded, `t`-late DoS adversaries.
//!
//! The adversary may block up to an `r`-fraction of the current nodes per
//! round, deciding only from topology that is at least `t` rounds old
//! (enforced by [`crate::lateness::TopologyHistory`] — the strategy code never
//! sees fresher state). The strategy suite approximates the universally quantified
//! adversary of Theorem 6 with the strongest concrete attacks we know
//! against the group construction, plus a current-topology (0-late)
//! control that demonstrates the paper's impossibility remark: once the
//! adversary knows the topology, isolating a node only requires blocking
//! its polylogarithmically many neighbors.

use crate::adaptive::{AdaptiveAdversary, AdaptiveHarness, Attacker};
use crate::lateness::{LateView, SharedSnapshot, TopologySnapshot};
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use simnet::fault::merge_ascending;
use simnet::rng::NodeRng;
use simnet::{BlockSet, NodeId};
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

/// Blocking strategies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DosStrategy {
    /// Block a uniformly random `r`-fraction of the stale node list.
    Random,
    /// Isolate a victim: block the victim's entire (stale) neighborhood,
    /// then spend leftover budget on further victims' neighborhoods.
    IsolateNode,
    /// Attack the group structure: pick a victim group and block all nodes
    /// of its neighboring groups, isolating the victim group's members.
    GroupTargeted,
    /// Try to cut the (stale) graph: grow a BFS region to half the nodes
    /// and block its boundary.
    Bisection,
}

impl DosStrategy {
    /// Every strategy, in a stable order.
    pub const ALL: [Self; 4] =
        [Self::Random, Self::IsolateNode, Self::GroupTargeted, Self::Bisection];
}

/// A [`DosStrategy`] with its seeded randomness: the oblivious picks as one
/// more strategy under the [`AdaptiveHarness`]. The RNG is drawn only when
/// the harness asks for a pick, i.e. when a view exists and the budget is
/// non-zero.
#[derive(Debug)]
struct ObliviousPicks {
    strategy: DosStrategy,
    rng: NodeRng,
    /// The group index of the last view picked from, kept with its shared
    /// snapshot: a structure is indexed once, not once per round.
    index: Option<(Arc<TopologySnapshot>, GroupIndex)>,
}

/// The group index of `topo`, rebuilt only when `topo` is not the snapshot
/// `cache` indexed last.
fn group_index<'a>(
    cache: &'a mut Option<(Arc<TopologySnapshot>, GroupIndex)>,
    topo: &Arc<TopologySnapshot>,
) -> &'a GroupIndex {
    if !cache.as_ref().is_some_and(|(seen, _)| Arc::ptr_eq(seen, topo)) {
        *cache = Some((Arc::clone(topo), GroupIndex::new(&topo.groups)));
    }
    &cache.as_ref().expect("indexed just above").1
}

impl AdaptiveAdversary for ObliviousPicks {
    fn name(&self) -> &'static str {
        match self.strategy {
            DosStrategy::Random => "oblivious:Random",
            DosStrategy::IsolateNode => "oblivious:IsolateNode",
            DosStrategy::GroupTargeted => "oblivious:GroupTargeted",
            DosStrategy::Bisection => "oblivious:Bisection",
        }
    }

    fn pick(&mut self, view: &LateView<'_>, budget: usize) -> BlockSet {
        let picks = match self.strategy {
            DosStrategy::Random => pick_random(view, budget, &mut self.rng),
            DosStrategy::IsolateNode => pick_isolate(view, budget, &mut self.rng),
            DosStrategy::GroupTargeted => {
                let index = group_index(&mut self.index, &view.topo);
                pick_group_targeted(view, index, budget, &mut self.rng)
            }
            DosStrategy::Bisection => pick_bisection(view, budget, &mut self.rng),
        };
        BlockSet::from_iter(picks)
    }
}

/// An `r`-bounded `t`-late DoS adversary: the [`AdaptiveHarness`] (lateness
/// gate, `floor(r * n)` budget, clamp) around one [`DosStrategy`].
#[derive(Debug)]
pub struct DosAdversary(AdaptiveHarness<ObliviousPicks>);

impl DosAdversary {
    /// Create an adversary blocking at most `bound`-fraction of the current
    /// nodes, seeing topology at least `lateness` rounds old.
    pub fn new(strategy: DosStrategy, bound: f64, lateness: u64, seed: u64) -> Self {
        let rng = simnet::rng::stream(seed, u64::MAX, 0xD05);
        Self(AdaptiveHarness::new(ObliviousPicks { strategy, rng, index: None }, bound, lateness))
    }

    /// The blocking budget fraction `r`.
    pub fn bound(&self) -> f64 {
        self.0.bound()
    }

    /// The enforced lateness `t`.
    pub fn lateness(&self) -> u64 {
        self.0.lateness()
    }

    /// Record the current topology (call every round, *before* asking for
    /// blocks; the history enforces the lateness): an overlay's shared
    /// snapshot, or a snapshot of its own.
    pub fn observe(&mut self, snap: impl Into<SharedSnapshot>) {
        self.0.observe(snap.into());
    }

    /// The nodes to block this round. `n_current` is the current network
    /// size defining the budget `floor(bound * n_current)`.
    pub fn block(&mut self, round: u64, n_current: usize) -> BlockSet {
        self.0.block(round, n_current)
    }
}

impl Attacker for DosAdversary {
    fn observe(&mut self, snap: SharedSnapshot) {
        self.0.observe(snap);
    }
    fn block(&mut self, round: u64, n_current: usize) -> BlockSet {
        self.0.block(round, n_current)
    }
    fn label(&self) -> String {
        self.0.label()
    }
}

fn pick_random(view: &TopologySnapshot, budget: usize, rng: &mut NodeRng) -> Vec<NodeId> {
    let mut nodes = view.nodes.clone();
    nodes.shuffle(rng);
    nodes.truncate(budget);
    nodes
}

/// Top `out` up to `budget` with the shuffled `rest` (the members not
/// picked yet, in the view's order).
fn fill_randomly(out: &mut Vec<NodeId>, mut rest: Vec<NodeId>, budget: usize, rng: &mut NodeRng) {
    rest.shuffle(rng);
    while out.len() < budget {
        match rest.pop() {
            Some(v) => out.push(v),
            None => break,
        }
    }
}

fn pick_isolate(view: &TopologySnapshot, budget: usize, rng: &mut NodeRng) -> Vec<NodeId> {
    let adj = view.adjacency();
    // Victims in ascending degree order: cheapest isolations first.
    let mut victims: Vec<usize> = (0..adj.len()).collect();
    victims.sort_by_key(|&i| (adj.degree(i), adj.node(i).raw()));
    let mut blocked: HashSet<NodeId> = HashSet::new();
    for i in victims {
        let new: Vec<NodeId> = adj
            .neighbors(i)
            .iter()
            .map(|&j| adj.node(j as usize))
            .filter(|w| *w != adj.node(i) && !blocked.contains(w))
            .collect();
        if blocked.len() + new.len() > budget {
            break;
        }
        blocked.extend(new);
    }
    // Spend leftover budget randomly.
    let mut out: Vec<NodeId> = blocked.iter().copied().collect();
    let rest = view.nodes.iter().copied().filter(|v| !blocked.contains(v)).collect();
    fill_randomly(&mut out, rest, budget, rng);
    out
}

/// The groups of a view as ranks among its distinct members: what the
/// group-targeted picker marks instead of hashing ids. Built once per
/// shared snapshot; groups may share ids and list one id twice.
#[derive(Debug)]
struct GroupIndex {
    /// The distinct ids of all groups, ascending.
    ids: Vec<NodeId>,
    /// The position in `ids` of every entry of `groups.iter().flatten()`.
    rank: Vec<u32>,
    /// Group `g`'s entries are `rank[start[g]..start[g + 1]]`.
    start: Vec<usize>,
}

impl GroupIndex {
    fn new(groups: &[Vec<NodeId>]) -> Self {
        let mut ids = groups.concat();
        ids.sort_unstable();
        ids.dedup();
        let rank_of = |v: &NodeId| ids.binary_search(v).expect("every member is listed") as u32;
        let rank = groups.iter().flatten().map(rank_of).collect();
        let mut start = vec![0];
        for g in groups {
            start.push(start[start.len() - 1] + g.len());
        }
        Self { ids, rank, start }
    }
}

/// `index` must be the [`GroupIndex`] of `view.groups`.
fn pick_group_targeted(
    view: &TopologySnapshot,
    index: &GroupIndex,
    budget: usize,
    rng: &mut NodeRng,
) -> Vec<NodeId> {
    if view.groups.is_empty() {
        // No group structure observed — fall back to isolation.
        return pick_isolate(view, budget, rng);
    }
    let groups = &view.groups;
    let g = groups.len();
    // Edges naming a group the view does not list are ignored.
    let edges: Vec<(usize, usize)> = view
        .group_edges
        .iter()
        .map(|&(a, b)| (a as usize, b as usize))
        .filter(|&(a, b)| a < g && b < g)
        .collect();
    // Isolating a group costs the members of all its neighbor groups;
    // choose the victims whose neighborhood is cheapest to block.
    let mut cost = vec![0usize; g];
    for &(a, b) in &edges {
        cost[a] += groups[b].len();
        cost[b] += groups[a].len();
    }
    let mut order: Vec<usize> = (0..g).collect();
    order.sort_by_key(|&gi| (cost[gi], gi));
    let smallest = groups.iter().map(Vec::len).min().unwrap_or(0);
    // The block set is a union of whole groups: each group is added once,
    // and its entries mark their distinct ids, so `blocked` counts the set
    // exactly even where groups share ids.
    let mut added = vec![false; g];
    let mut taken = vec![false; index.ids.len()];
    let mut blocked = 0;
    let mut block = |x: usize, blocked: &mut usize| {
        if !std::mem::replace(&mut added[x], true) {
            for &r in &index.rank[index.start[x]..index.start[x + 1]] {
                *blocked += usize::from(!std::mem::replace(&mut taken[r as usize], true));
            }
        }
    };
    for gi in order {
        if cost[gi] == 0 || blocked + cost[gi] > budget {
            continue;
        }
        for &(a, b) in &edges {
            if a == gi {
                block(b, &mut blocked);
            }
            if b == gi {
                block(a, &mut blocked);
            }
        }
        if blocked + smallest > budget {
            break;
        }
    }
    // Leftover budget: filled at random from the entries not blocked yet.
    // Both lists are compacted without a branch per entry: every entry is
    // written, and the cursor only moves past the ones that stay.
    let mut out = vec![NodeId(0); blocked + 1];
    let mut at = 0;
    for (&v, &t) in index.ids.iter().zip(&taken) {
        out[at] = v;
        at += usize::from(t);
    }
    out.truncate(at);
    let mut rest = vec![NodeId(0); index.rank.len() + 1];
    let mut at = 0;
    for (&v, &r) in groups.iter().flatten().zip(&index.rank) {
        rest[at] = v;
        at += usize::from(!taken[r as usize]);
    }
    rest.truncate(at);
    fill_randomly(&mut out, rest, budget, rng);
    // Ascending for the block set: the blocked ids already are, and the
    // random tail merges in.
    let mut tail = out.split_off(blocked);
    tail.sort_unstable();
    tail.dedup();
    let mut picks = Vec::with_capacity(out.len() + tail.len());
    picks.extend(merge_ascending(out, tail));
    picks
}

fn pick_bisection(view: &TopologySnapshot, budget: usize, rng: &mut NodeRng) -> Vec<NodeId> {
    let adj = view.adjacency();
    let Some(start) = view.nodes.first().and_then(|&v| adj.index_of(v)) else {
        return Vec::new();
    };
    // BFS until half the nodes are inside.
    let half = view.nodes.len() / 2;
    let mut inside = vec![false; adj.len()];
    inside[start] = true;
    let mut count = 1;
    let mut q = VecDeque::from([start]);
    while let Some(i) = q.pop_front() {
        for &j in adj.neighbors(i) {
            if count >= half {
                break;
            }
            if !std::mem::replace(&mut inside[j as usize], true) {
                count += 1;
                q.push_back(j as usize);
            }
        }
    }
    // Block the inner boundary: inside-nodes with an edge out, in ascending
    // id order (the adjacency is indexed that way).
    let mut boundary: Vec<NodeId> = (0..adj.len())
        .filter(|&i| inside[i] && adj.neighbors(i).iter().any(|&j| !inside[j as usize]))
        .map(|i| adj.node(i))
        .collect();
    boundary.truncate(budget);
    // Leftover: random fills.
    let taken: HashSet<NodeId> = boundary.iter().copied().collect();
    let rest = view.nodes.iter().copied().filter(|v| !taken.contains(v)).collect();
    fill_randomly(&mut boundary, rest, budget, rng);
    boundary
}

#[cfg(test)]
mod picker_diff;

#[cfg(test)]
mod tests {
    use super::*;

    fn line_snapshot(round: u64, n: u64) -> TopologySnapshot {
        TopologySnapshot {
            round,
            nodes: (0..n).map(NodeId).collect(),
            edges: (0..n - 1).map(|i| (NodeId(i), NodeId(i + 1))).collect(),
            groups: Vec::new(),
            group_edges: Vec::new(),
        }
    }

    #[test]
    fn budget_respected() {
        let mut adv = DosAdversary::new(DosStrategy::Random, 0.25, 0, 1);
        adv.observe(line_snapshot(0, 100));
        let b = adv.block(0, 100);
        assert_eq!(b.len(), 25);
        assert!(b.within_bound(0.25, 100));
    }

    #[test]
    fn no_view_no_blocks() {
        let mut adv = DosAdversary::new(DosStrategy::Random, 0.25, 5, 1);
        adv.observe(line_snapshot(0, 100));
        // Round 2: the only snapshot is 2 rounds old, lateness is 5.
        assert!(adv.block(2, 100).is_empty());
        // Round 5: now it is exactly 5 old.
        assert!(!adv.block(5, 100).is_empty());
    }

    #[test]
    fn isolate_blocks_a_neighborhood() {
        let mut adv = DosAdversary::new(DosStrategy::IsolateNode, 0.1, 0, 2);
        adv.observe(line_snapshot(0, 50));
        let b = adv.block(0, 50);
        // Endpoint node 0 has a single neighbor (node 1) — cheapest victim.
        assert!(b.contains(NodeId(1)), "endpoint neighbor should be blocked");
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn group_targeted_blocks_whole_neighbor_groups() {
        // 4 groups in a cycle; each group has 3 nodes.
        let groups: Vec<Vec<NodeId>> =
            (0..4).map(|g| (0..3).map(|i| NodeId(g * 3 + i)).collect()).collect();
        let snap = TopologySnapshot {
            round: 0,
            nodes: (0..12).map(NodeId).collect(),
            edges: Vec::new(),
            groups: groups.clone(),
            group_edges: vec![(0, 1), (1, 2), (2, 3), (3, 0)],
        };
        let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.5, 0, 3);
        adv.observe(snap);
        let b = adv.block(0, 12);
        assert_eq!(b.len(), 6);
        // Some group's full neighborhood (two groups of 3) must be inside.
        let fully_blocked: Vec<usize> =
            (0..4).filter(|&g| groups[g].iter().all(|v| b.contains(*v))).collect();
        assert_eq!(fully_blocked.len(), 2, "two whole neighbor groups blocked");
    }

    #[test]
    fn bisection_cuts_a_line() {
        let mut adv = DosAdversary::new(DosStrategy::Bisection, 0.1, 0, 4);
        adv.observe(line_snapshot(0, 40));
        let b = adv.block(0, 40);
        assert!(!b.is_empty());
        // On a line, blocking the BFS boundary around the midpoint
        // disconnects it: check some middle node is blocked.
        let any_middle = (10..30).any(|i| b.contains(NodeId(i)));
        assert!(any_middle);
    }

    #[test]
    #[should_panic(expected = "bound must be in")]
    fn full_blocking_rejected() {
        DosAdversary::new(DosStrategy::Random, 1.0, 0, 0);
    }
}
