//! Topology history and `t`-late views.
//!
//! The DoS adversary of the paper may base its blocking decisions **only on
//! the topology of the overlay network**, and a `t`-late adversary only on
//! topology that is at least `t` rounds old. Every harness in this crate
//! pushes one [`TopologySnapshot`] per round into a [`TopologyHistory`] and
//! reads the topology back only through [`TopologyHistory::view`] — the one
//! place that decides what a `t`-late attacker may see — so a strategy
//! physically cannot read fresher state.

use overlay_graphs::Adjacency;
use serde::{Deserialize, Serialize};
use simnet::NodeId;
use std::borrow::Cow;
use std::collections::VecDeque;

/// What the adversary may see: node set, overlay edges, and (if the overlay
/// is group-structured like Sections 5/6) the group composition and
/// group-level adjacency. No message contents, no node-internal state.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct TopologySnapshot {
    /// Round this snapshot was taken in.
    pub round: u64,
    /// All nodes present.
    pub nodes: Vec<NodeId>,
    /// Undirected overlay edges.
    pub edges: Vec<(NodeId, NodeId)>,
    /// Group composition (empty if the overlay is not group-structured).
    pub groups: Vec<Vec<NodeId>>,
    /// Adjacency between groups, as index pairs into `groups`.
    pub group_edges: Vec<(u32, u32)>,
}

impl TopologySnapshot {
    /// A snapshot with only a node list (for adversaries that ignore
    /// structure).
    pub fn nodes_only(round: u64, nodes: Vec<NodeId>) -> Self {
        Self { round, nodes, ..Self::default() }
    }

    /// The members in ascending id order without repeats. Overlays list
    /// `nodes` group by group; strategies whose answer depends on id order
    /// read this instead (it borrows when `nodes` is already canonical).
    pub fn members(&self) -> Cow<'_, [NodeId]> {
        if self.nodes.windows(2).all(|w| w[0] < w[1]) {
            return Cow::Borrowed(&self.nodes);
        }
        let mut sorted = self.nodes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        Cow::Owned(sorted)
    }

    /// Node-level adjacency under `edges`, indexed in [`members`] order.
    /// Edges with an endpoint outside the member list are ignored.
    ///
    /// [`members`]: TopologySnapshot::members
    pub fn adjacency(&self) -> Adjacency {
        let members = self.members();
        let known = |v: &NodeId| members.binary_search(v).is_ok();
        let edges: Vec<(NodeId, NodeId)> =
            self.edges.iter().copied().filter(|(a, b)| known(a) && known(b)).collect();
        Adjacency::from_edges(&members, &edges)
    }
}

/// What [`TopologyHistory::view`] hands out: the newest snapshot old enough
/// to be seen, and the snapshot pushed just before it. Dereferences to the
/// visible [`TopologySnapshot`].
#[derive(Clone, Copy, Debug)]
pub struct LateView<'a> {
    /// The visible snapshot.
    pub topo: &'a TopologySnapshot,
    /// Its predecessor in push order (`None` for the first snapshot ever).
    pub prev: Option<&'a TopologySnapshot>,
}

impl LateView<'_> {
    /// Members of the visible snapshot that its predecessor lacked, in
    /// ascending order — fresh joins and heal-layer rejoins, exactly what a
    /// "follow the healer" strategy hunts.
    pub fn rejoined(&self) -> Vec<NodeId> {
        let Some(prev) = self.prev else { return Vec::new() };
        let before = prev.members();
        let mut out = self.topo.members().into_owned();
        out.retain(|v| before.binary_search(v).is_err());
        out
    }
}

impl std::ops::Deref for LateView<'_> {
    type Target = TopologySnapshot;

    fn deref(&self) -> &TopologySnapshot {
        self.topo
    }
}

/// The lateness gate: a queue of snapshots serving exactly-`t`-late views.
#[derive(Clone, Debug, Default)]
pub struct TopologyHistory {
    lateness: u64,
    buf: VecDeque<TopologySnapshot>,
}

impl TopologyHistory {
    /// A history enforcing `t`-lateness. `lateness == 0` models the
    /// current-topology adversary used as a control.
    pub fn new(lateness: u64) -> Self {
        Self { lateness, buf: VecDeque::new() }
    }

    /// The enforced lateness `t`.
    pub fn lateness(&self) -> u64 {
        self.lateness
    }

    /// Record the current topology. Snapshots must be pushed in
    /// nondecreasing round order.
    ///
    /// Prunes as it goes: a snapshot whose successor is already `t` rounds
    /// old can never be served again, and is kept only while it is the
    /// predecessor of one that can. With one push per round that leaves at
    /// most `t + 2` snapshots, whether or not anybody calls [`view`].
    ///
    /// [`view`]: TopologyHistory::view
    pub fn push(&mut self, snap: TopologySnapshot) {
        if let Some(last) = self.buf.back() {
            assert!(snap.round >= last.round, "snapshots must be pushed in round order");
        }
        let cutoff = snap.round.checked_sub(self.lateness);
        self.buf.push_back(snap);
        while self.buf.len() >= 3 && cutoff.is_some_and(|c| self.buf[2].round <= c) {
            self.buf.pop_front();
        }
    }

    /// The newest snapshot that is at least `t` rounds old as of
    /// `current_round`, or `None` if no such snapshot exists yet. Rounds
    /// before the newest pushed one may find their snapshot pruned (and
    /// get an older one or `None`, never a fresher one).
    pub fn view(&self, current_round: u64) -> Option<LateView<'_>> {
        let cutoff = current_round.checked_sub(self.lateness)?;
        let i = self.buf.partition_point(|s| s.round <= cutoff).checked_sub(1)?;
        Some(LateView { topo: &self.buf[i], prev: i.checked_sub(1).map(|j| &self.buf[j]) })
    }

    /// Number of retained snapshots.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if no snapshots are stored.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(round: u64) -> TopologySnapshot {
        TopologySnapshot::nodes_only(round, vec![NodeId(round)])
    }

    fn ring(round: u64, n: u64) -> TopologySnapshot {
        TopologySnapshot {
            round,
            nodes: (0..n).rev().map(NodeId).collect(),
            edges: (0..n).map(|i| (NodeId(i), NodeId((i + 1) % n))).collect(),
            ..TopologySnapshot::default()
        }
    }

    #[test]
    fn view_is_at_least_t_old() {
        let mut h = TopologyHistory::new(3);
        for cur in 0..10 {
            h.push(snap(cur));
            match h.view(cur) {
                Some(v) => assert_eq!(v.round, cur - 3, "newest snapshot that is >= 3 old"),
                None => assert!(cur < 3),
            }
        }
        assert_eq!(h.view(10).unwrap().round, 7);
    }

    #[test]
    fn buffer_enforces_lateness() {
        let mut h = TopologyHistory::new(4);
        for r in 0..10 {
            h.push(ring(r, 3));
        }
        // At round 10, the freshest permissible snapshot is round 6, and
        // its predecessor is still there to diff against.
        let v = h.view(10).unwrap();
        assert_eq!((v.round, v.prev.map(|p| p.round)), (6, Some(5)));
        // An earlier round never gets anything fresher than it may see.
        assert!(h.view(8).is_none_or(|v| v.round <= 4));
    }

    #[test]
    fn zero_lateness_serves_current() {
        let mut h = TopologyHistory::new(0);
        h.push(snap(5));
        assert_eq!(h.view(5).unwrap().round, 5);
    }

    #[test]
    fn zero_lateness_sees_current_round() {
        let mut h = TopologyHistory::new(0);
        for r in 0..8 {
            h.push(ring(r, 3));
            assert_eq!(h.view(r).unwrap().round, r);
        }
        assert!(h.len() <= 2);
    }

    #[test]
    fn too_early_gives_none() {
        let mut h = TopologyHistory::new(4);
        h.push(snap(0));
        h.push(snap(1));
        assert!(h.view(3).is_none(), "no snapshot is 4 rounds old yet");
        assert!(h.view(4).is_some());
    }

    #[test]
    fn pruning_keeps_served_snapshot() {
        let mut h = TopologyHistory::new(2);
        for r in 0..100 {
            h.push(snap(r));
        }
        assert!(h.len() <= 4, "history should prune, kept {}", h.len());
        assert_eq!(h.view(100).unwrap().round, 98);
        assert_eq!(h.view(99).unwrap().round, 97, "the round of the last push is still served");
    }

    #[test]
    fn buffer_is_bounded() {
        // Nobody ever calls `view` (a zero-budget attacker returns before
        // it): the history must stay bounded all the same.
        for lateness in [0, 1, 7] {
            let mut h = TopologyHistory::new(lateness);
            for r in 0..10_000 {
                h.push(ring(r, 2));
                assert!(h.len() as u64 <= lateness + 2, "kept {} at t={lateness}", h.len());
            }
            assert_eq!(h.view(10_000).unwrap().round, 10_000 - lateness.max(1));
        }
    }

    #[test]
    fn rejoined_is_the_diff_against_the_predecessor() {
        let ids = |v: &[u64]| v.iter().copied().map(NodeId).collect::<Vec<_>>();
        let mut h = TopologyHistory::new(1);
        h.push(TopologySnapshot::nodes_only(0, ids(&[4, 2, 9])));
        h.push(TopologySnapshot::nodes_only(1, ids(&[9, 4])));
        assert!(h.view(1).unwrap().rejoined().is_empty(), "the first snapshot has no predecessor");
        h.push(TopologySnapshot::nodes_only(2, ids(&[7, 9, 2, 4])));
        assert!(h.view(2).unwrap().rejoined().is_empty(), "round 1 only lost a member");
        h.push(TopologySnapshot::nodes_only(3, ids(&[4])));
        assert_eq!(h.view(3).unwrap().rejoined(), ids(&[2, 7]));
    }

    #[test]
    fn degrees_and_adjacency_on_a_ring() {
        let mut v = ring(0, 5);
        assert_eq!(v.members().as_ref(), (0..5).map(NodeId).collect::<Vec<_>>());
        let adj = v.adjacency();
        assert!((0..5).all(|i| adj.degree(i) == 2 && adj.node(i) == NodeId(i as u64)));
        // An edge to a non-member is not part of the member graph.
        v.edges.push((NodeId(0), NodeId(99)));
        assert_eq!(v.adjacency().degree(0), 2);
    }

    #[test]
    #[should_panic(expected = "round order")]
    fn out_of_order_push_panics() {
        let mut h = TopologyHistory::new(1);
        h.push(snap(5));
        h.push(snap(3));
    }
}
