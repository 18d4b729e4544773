//! Topology history and `t`-late views.
//!
//! The DoS adversary of the paper may base its blocking decisions **only on
//! the topology of the overlay network**, and a `t`-late adversary only on
//! topology that is at least `t` rounds old. Every harness in this crate
//! pushes one [`SharedSnapshot`] per round into a [`TopologyHistory`] and
//! reads the topology back only through [`TopologyHistory::view`] — the one
//! place that decides what a `t`-late attacker may see — so a strategy
//! physically cannot read fresher state.

use overlay_graphs::Adjacency;
use serde::{Deserialize, Serialize};
use simnet::NodeId;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

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

/// One observation: the round it was made in and the topology seen, shared.
///
/// An overlay builds its [`TopologySnapshot`] once per structural change
/// and hands out clones of one `Arc` until the next change, so observing an
/// unchanged structure — and keeping a `t + 2`-deep history of it — copies
/// pointers, not topologies. `round` is the observation's round; the
/// snapshot's own `round` is the round it was built in, which for a shared
/// snapshot may be older. Dereferences to the snapshot.
#[derive(Clone, Debug)]
pub struct SharedSnapshot {
    /// Round the observation was made in.
    pub round: u64,
    /// The topology seen.
    pub topo: Arc<TopologySnapshot>,
}

impl SharedSnapshot {
    /// An observation of `topo` made in `round`.
    pub fn new(round: u64, topo: Arc<TopologySnapshot>) -> Self {
        Self { round, topo }
    }
}

impl From<TopologySnapshot> for SharedSnapshot {
    /// A snapshot of its own, observed in the round it was taken in.
    fn from(snap: TopologySnapshot) -> Self {
        Self { round: snap.round, topo: Arc::new(snap) }
    }
}

impl std::ops::Deref for SharedSnapshot {
    type Target = TopologySnapshot;

    fn deref(&self) -> &TopologySnapshot {
        &self.topo
    }
}

/// What [`TopologyHistory::view`] hands out: the newest observation old
/// enough to be seen, and the observation pushed just before it.
/// Dereferences to the visible [`SharedSnapshot`], so `view.round` is the
/// round the visible observation was made in.
#[derive(Clone, Copy, Debug)]
pub struct LateView<'a> {
    /// The visible observation.
    pub seen: &'a SharedSnapshot,
    /// Its predecessor in push order (`None` for the first push ever).
    pub prev: Option<&'a SharedSnapshot>,
}

impl LateView<'_> {
    /// Members of the visible snapshot that its predecessor lacked, in
    /// ascending order — fresh joins and heal-layer rejoins, exactly what a
    /// "follow the healer" strategy hunts.
    pub fn rejoined(&self) -> Vec<NodeId> {
        let Some(prev) = self.prev else { return Vec::new() };
        if Arc::ptr_eq(&prev.topo, &self.seen.topo) {
            return Vec::new();
        }
        let before = prev.members();
        let mut out = self.seen.members().into_owned();
        out.retain(|v| before.binary_search(v).is_err());
        out
    }
}

impl std::ops::Deref for LateView<'_> {
    type Target = SharedSnapshot;

    fn deref(&self) -> &SharedSnapshot {
        self.seen
    }
}

/// The lateness gate: a queue of observations serving exactly-`t`-late
/// views, one entry per push (an unchanged structure pushed every round is
/// one entry per round, all sharing its `Arc`).
#[derive(Clone, Debug, Default)]
pub struct TopologyHistory {
    lateness: u64,
    buf: VecDeque<SharedSnapshot>,
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

    /// Record the current topology. Observations must be pushed in
    /// nondecreasing round order.
    ///
    /// Prunes as it goes: a snapshot whose successor is already `t` rounds
    /// old can never be served again, and is kept only while it is the
    /// predecessor of one that can. With one push per round that leaves at
    /// most `t + 2` snapshots, whether or not anybody calls [`view`].
    ///
    /// [`view`]: TopologyHistory::view
    pub fn push(&mut self, snap: SharedSnapshot) {
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
        Some(LateView { seen: &self.buf[i], prev: i.checked_sub(1).map(|j| &self.buf[j]) })
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

    fn snap(round: u64) -> SharedSnapshot {
        TopologySnapshot::nodes_only(round, vec![NodeId(round)]).into()
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
            h.push(ring(r, 3).into());
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
            h.push(ring(r, 3).into());
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
                h.push(ring(r, 2).into());
                assert!(h.len() as u64 <= lateness + 2, "kept {} at t={lateness}", h.len());
            }
            assert_eq!(h.view(10_000).unwrap().round, 10_000 - lateness.max(1));
        }
    }

    #[test]
    fn rejoined_is_the_diff_against_the_predecessor() {
        let ids = |v: &[u64]| v.iter().copied().map(NodeId).collect::<Vec<_>>();
        let mut h = TopologyHistory::new(1);
        h.push(TopologySnapshot::nodes_only(0, ids(&[4, 2, 9])).into());
        h.push(TopologySnapshot::nodes_only(1, ids(&[9, 4])).into());
        assert!(h.view(1).unwrap().rejoined().is_empty(), "the first snapshot has no predecessor");
        h.push(TopologySnapshot::nodes_only(2, ids(&[7, 9, 2, 4])).into());
        assert!(h.view(2).unwrap().rejoined().is_empty(), "round 1 only lost a member");
        h.push(TopologySnapshot::nodes_only(3, ids(&[4])).into());
        assert_eq!(h.view(3).unwrap().rejoined(), ids(&[2, 7]));
    }

    #[test]
    fn one_arc_pushed_every_round_serves_what_fresh_copies_serve() {
        // A shared overlay pushes one `Arc` per structure, round after
        // round; a fresh copy per round is the reference.
        let ids = |v: &[u64]| v.iter().copied().map(NodeId).collect::<Vec<_>>();
        let structures = [ids(&[3, 1, 2]), ids(&[2, 3, 1, 7]), ids(&[7, 5]), ids(&[5, 7])];
        for lateness in [0, 1, 3, 6] {
            let mut fresh = TopologyHistory::new(lateness);
            let mut shared = TopologyHistory::new(lateness);
            let mut current = Arc::new(TopologySnapshot::default());
            for r in 0..40u64 {
                // The structure changes every fifth round, sometimes twice
                // in a row in content only (`[7, 5]` then `[5, 7]`).
                let nodes = &structures[(r / 5 % 4) as usize];
                if r % 5 == 0 {
                    current = Arc::new(TopologySnapshot::nodes_only(r, nodes.clone()));
                }
                fresh.push(TopologySnapshot::nodes_only(r, nodes.clone()).into());
                shared.push(SharedSnapshot::new(r, Arc::clone(&current)));
                assert_eq!(fresh.len(), shared.len(), "one entry per push");
                for asked in r.saturating_sub(3)..=r + 3 {
                    let seen = |v: LateView<'_>| {
                        (v.round, v.prev.map(|p| p.round), v.rejoined(), v.members().into_owned())
                    };
                    assert_eq!(
                        fresh.view(asked).map(seen),
                        shared.view(asked).map(seen),
                        "t = {lateness}, pushed {r}, asked {asked}"
                    );
                }
            }
            // Up to `t + 2` entries, but only the structures they span.
            let changes = shared.buf.iter().zip(shared.buf.iter().skip(1));
            let distinct = 1 + changes.filter(|(a, b)| !Arc::ptr_eq(&a.topo, &b.topo)).count();
            assert!(distinct <= 2, "t = {lateness}: {distinct} topologies kept");
        }
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
