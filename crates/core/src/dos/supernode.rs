//! Supernodes and groups of representatives.

use overlay_adversary::lateness::{SharedSnapshot, TopologySnapshot};
use overlay_graphs::Hypercube;
use rand::{Rng, RngExt};
use simnet::{BlockSet, IdRun, NodeId};
use std::sync::{Arc, OnceLock};

/// A population of nodes partitioned into groups, one per supernode of a
/// binary hypercube. The physical topology is: intra-group cliques plus
/// complete bipartite graphs between groups of neighboring supernodes.
///
/// Two views of one partition are kept in step. `groups` holds the members
/// of each supernode in *arrival* order (the order `random` drew them in,
/// then rejoins appended): that order feeds the next resampling's RNG and
/// so the digests. `assign` is the inverse map as an [`IdRun`], which
/// makes `supernode_of` a binary search, the sorted member list a copy,
/// and every "how many members of each group are outside these block
/// sets" question one merge walk against the sorted [`BlockSet`]s.
/// `insert` and `remove` shift its tail, which evictions and rejoins — a
/// handful per round — can afford.
///
/// The adversary's [`TopologySnapshot`] of the partition is built on the
/// first [`snapshot`](Self::snapshot) after a change and shared until the
/// next `insert` or `remove`.
#[derive(Clone, Debug)]
pub struct GroupedNetwork {
    cube: Hypercube,
    /// Members of `R(x)` for each supernode label `x` (index = label).
    groups: Vec<Vec<NodeId>>,
    /// Inverse map: each node's supernode.
    assign: IdRun<u64>,
    /// The snapshot of this partition, once somebody asked for it.
    shared: OnceLock<Arc<TopologySnapshot>>,
}

impl GroupedNetwork {
    /// Dimension choice of Section 5: the largest `d` with
    /// `2^d <= n / (c log2 n)`, at least 1.
    pub fn dimension_for(n: usize, c: f64) -> u32 {
        assert!(n >= 4);
        let target = n as f64 / (c * (n as f64).log2());
        let mut d = 1;
        while (1u64 << (d + 1)) as f64 <= target {
            d += 1;
        }
        d
    }

    /// Assign every node to a uniformly random supernode of a hypercube of
    /// dimension `dim`, drawing in the order `nodes` lists them (distinct
    /// ids; the order is part of the replayed behaviour).
    pub fn random<R: Rng + ?Sized>(nodes: &[NodeId], dim: u32, rng: &mut R) -> Self {
        let cube = Hypercube::new(dim);
        let n_super = cube.len();
        let mut groups = vec![Vec::new(); n_super as usize];
        let mut assign = Vec::with_capacity(nodes.len());
        for &v in nodes {
            let x = rng.random_range(0..n_super);
            groups[x as usize].push(v);
            assign.push((v, x));
        }
        let assign =
            IdRun::from_unsorted(assign).unwrap_or_else(|e| panic!("{} listed twice", e.0));
        Self { cube, groups, assign, shared: OnceLock::new() }
    }

    /// The hypercube of supernodes.
    pub fn cube(&self) -> &Hypercube {
        &self.cube
    }

    /// Number of physical nodes.
    pub fn len(&self) -> usize {
        self.assign.len()
    }

    /// True if no nodes are present.
    pub fn is_empty(&self) -> bool {
        self.assign.is_empty()
    }

    /// All physical nodes (group by group).
    pub fn nodes(&self) -> Vec<NodeId> {
        self.groups.iter().flatten().copied().collect()
    }

    /// All physical nodes in ascending id order.
    pub fn members_sorted(&self) -> Vec<NodeId> {
        self.assign.ids().to_vec()
    }

    /// The group `R(x)`.
    pub fn group(&self, x: u64) -> &[NodeId] {
        &self.groups[x as usize]
    }

    /// All groups, indexed by supernode label.
    pub fn groups(&self) -> &[Vec<NodeId>] {
        &self.groups
    }

    /// The supernode a node belongs to.
    pub fn supernode_of(&self, v: NodeId) -> Option<u64> {
        self.assign.get(v).copied()
    }

    /// Remove a node from its group (self-healing eviction). Returns false
    /// if the node was not a member.
    pub fn remove(&mut self, v: NodeId) -> bool {
        let Some(x) = self.assign.remove(v) else { return false };
        self.groups[x as usize].retain(|&u| u != v);
        self.shared.take();
        true
    }

    /// Insert a node into the group of supernode `x` (rejoin after
    /// crash-recovery). The node must not already be a member.
    pub fn insert(&mut self, v: NodeId, x: u64) {
        assert!(x < self.cube.len(), "supernode {x} out of range");
        assert!(!self.assign.contains(v), "{v:?} is already a member");
        self.assign.put(v, x);
        self.groups[x as usize].push(v);
        self.shared.take();
    }

    /// Smallest and largest group size (Lemma 16 quantities).
    pub fn group_size_range(&self) -> (usize, usize) {
        let min = self.groups.iter().map(Vec::len).min().unwrap_or(0);
        let max = self.groups.iter().map(Vec::len).max().unwrap_or(0);
        (min, max)
    }

    /// A round's two per-group counts in one walk over the id-sorted
    /// inverse map, with a cursor into each block set: members available
    /// (in neither `prev` nor `cur`), and members unblocked (not in `cur`).
    pub(crate) fn counts_under(&self, prev: &BlockSet, cur: &BlockSet) -> (Vec<usize>, Vec<usize>) {
        let (a, b) = (prev.as_slice(), cur.as_slice());
        let mut available = vec![0; self.groups.len()];
        let mut unblocked = vec![0; self.groups.len()];
        let (mut i, mut j) = (0, 0);
        for (v, &x) in self.assign.entries() {
            while i < a.len() && a[i] < v {
                i += 1;
            }
            while j < b.len() && b[j] < v {
                j += 1;
            }
            let free = b.get(j) != Some(&v);
            unblocked[x as usize] += usize::from(free);
            available[x as usize] += usize::from(free && a.get(i) != Some(&v));
        }
        (available, unblocked)
    }

    /// Per-group count of members *not* in `blocked`.
    pub fn unblocked_per_group(&self, blocked: &BlockSet) -> Vec<usize> {
        self.counts_under(&BlockSet::none(), blocked).1
    }

    /// Per-group count of members available this round: non-blocked in
    /// both the previous and the current round (the paper's availability).
    pub fn available_per_group(&self, prev: &BlockSet, cur: &BlockSet) -> Vec<usize> {
        self.counts_under(prev, cur).0
    }

    /// Is the subgraph induced by non-blocked nodes connected?
    ///
    /// Non-blocked members of a group form a clique and any non-blocked
    /// pair across neighboring groups is adjacent (complete bipartite), so
    /// the question reduces to connectivity of the hypercube restricted to
    /// supernodes with at least one non-blocked member.
    pub fn connected_under(&self, blocked: &BlockSet) -> bool {
        self.connected_given(&self.unblocked_per_group(blocked))
    }

    /// [`connected_under`](Self::connected_under) from the per-group
    /// unblocked counts.
    pub(crate) fn connected_given(&self, unblocked: &[usize]) -> bool {
        let alive: Vec<bool> = unblocked.iter().map(|&c| c > 0).collect();
        let total_alive = alive.iter().filter(|&&a| a).count();
        if total_alive <= 1 {
            return true; // zero or one occupied supernode is trivially connected
        }
        // BFS over alive supernodes.
        let start = alive.iter().position(|&a| a).expect("total_alive >= 1");
        let mut seen = vec![false; alive.len()];
        seen[start] = true;
        let mut queue = vec![start as u64];
        let mut reached = 1;
        while let Some(x) = queue.pop() {
            for y in self.cube.neighbors(x) {
                if alive[y as usize] && !seen[y as usize] {
                    seen[y as usize] = true;
                    reached += 1;
                    queue.push(y);
                }
            }
        }
        reached == total_alive
    }

    /// Topology snapshot for the adversary, observed in `round`: groups and
    /// group adjacency (the paper's adversary sees topology, and group
    /// membership *is* topology here — cliques and bipartite blocks). The
    /// snapshot is built on the first call after a change, with that
    /// call's round as its own, and shared until the next change.
    pub fn snapshot(&self, round: u64) -> SharedSnapshot {
        let topo = self.shared.get_or_init(|| Arc::new(self.build_snapshot(round)));
        SharedSnapshot::new(round, Arc::clone(topo))
    }

    fn build_snapshot(&self, round: u64) -> TopologySnapshot {
        let group_edges: Vec<(u32, u32)> = self
            .cube
            .vertices()
            .flat_map(|x| {
                self.cube
                    .neighbors(x)
                    .into_iter()
                    .filter(move |&y| y > x)
                    .map(move |y| (x as u32, y as u32))
            })
            .collect();
        TopologySnapshot {
            round,
            nodes: self.nodes(),
            edges: Vec::new(), // node-level edges implied by groups
            groups: self.groups.clone(),
            group_edges,
        }
    }
}

impl simnet::Checkpoint for GroupedNetwork {
    fn save(&self) -> serde_json::Value {
        // Groups are stored verbatim, preserving within-group member order:
        // `insert` appends, so live state is not necessarily id-sorted, and
        // the order feeds the next resampling's draws.
        let groups: Vec<serde_json::Value> =
            self.groups.iter().map(|g| simnet::checkpoint::save_slice(g)).collect();
        serde_json::json!({ "dim": u64::from(self.cube.dim()), "groups": groups })
    }
    fn load(v: &serde_json::Value) -> simnet::CkptResult<Self> {
        use simnet::checkpoint::{get_array, load_vec};
        // The cube's own loader reads `dim` and refuses one no cube has.
        let cube = Hypercube::load(v)?;
        let raw = get_array(v, "groups")?;
        if raw.len() != cube.len() as usize {
            return Err(simnet::CkptError::Corrupt(format!(
                "{} groups for a dimension-{} cube",
                raw.len(),
                cube.dim()
            )));
        }
        let mut groups: Vec<Vec<NodeId>> = Vec::with_capacity(raw.len());
        for g in raw {
            groups.push(load_vec(g)?);
        }
        let listed = groups.iter().enumerate().flat_map(|(x, g)| g.iter().map(move |&v| (v, x)));
        let assign = IdRun::from_unsorted(listed.map(|(v, x)| (v, x as u64)).collect()).map_err(
            |(v, x, y)| {
                simnet::CkptError::Corrupt(if x == y {
                    format!("{v} twice in group {x}")
                } else {
                    format!("{v} in groups {x} and {y}")
                })
            },
        )?;
        Ok(Self { cube, groups, assign, shared: OnceLock::new() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_adversary::byzantine::SYBIL_ID_BASE;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use simnet::idrun::ascending;
    use simnet::Checkpoint;

    fn nodes(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn dimension_matches_paper_formula() {
        // n = 4096, c = 2: n / (c log n) = 4096 / 24 ≈ 170 -> d = 7.
        assert_eq!(GroupedNetwork::dimension_for(4096, 2.0), 7);
        // Tiny n never yields d < 1.
        assert!(GroupedNetwork::dimension_for(8, 4.0) >= 1);
    }

    #[test]
    fn every_node_is_in_exactly_one_group() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = GroupedNetwork::random(&nodes(500), 4, &mut rng);
        assert_eq!(g.len(), 500);
        let total: usize = g.groups().iter().map(Vec::len).sum();
        assert_eq!(total, 500);
        for v in nodes(500) {
            let x = g.supernode_of(v).unwrap();
            assert!(g.group(x).contains(&v));
        }
    }

    #[test]
    fn group_sizes_concentrate() {
        // Lemma 16 shape: with n/N = 64 expected, sizes stay within a
        // generous constant factor.
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = GroupedNetwork::random(&nodes(1024), 4, &mut rng);
        let (min, max) = g.group_size_range();
        assert!(min >= 32, "min {min}");
        assert!(max <= 110, "max {max}");
    }

    #[test]
    fn unblocked_graph_stays_connected_under_scattered_blocking() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = GroupedNetwork::random(&nodes(512), 4, &mut rng);
        // Block every third node: every group keeps survivors.
        let blocked: BlockSet = (0..512).filter(|i| i % 3 == 0).map(NodeId).collect();
        assert!(g.connected_under(&blocked));
    }

    #[test]
    fn killing_a_neighborhood_disconnects() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let g = GroupedNetwork::random(&nodes(256), 3, &mut rng);
        // Block ALL members of every neighbor group of supernode 0.
        let mut blocked = BlockSet::none();
        for y in g.cube().neighbors(0) {
            for &v in g.group(y) {
                blocked.insert(v);
            }
        }
        // Supernode 0 still has unblocked members but no unblocked
        // neighbor groups.
        assert!(!g.group(0).is_empty());
        assert!(!g.connected_under(&blocked), "victim group should be isolated");
    }

    #[test]
    fn availability_needs_two_clean_rounds() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let g = GroupedNetwork::random(&nodes(64), 2, &mut rng);
        let some_node = g.group(0)[0];
        let prev = BlockSet::from_iter([some_node]);
        let cur = BlockSet::none();
        let avail = g.available_per_group(&prev, &cur);
        let unblocked = g.unblocked_per_group(&cur);
        // The node blocked last round is unblocked now but NOT available.
        assert_eq!(avail[0], unblocked[0] - 1);
    }

    #[test]
    fn snapshot_carries_groups_and_cube_edges() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let g = GroupedNetwork::random(&nodes(128), 3, &mut rng);
        let snap = g.snapshot(42);
        assert_eq!(snap.round, 42);
        assert_eq!(snap.groups.len(), 8);
        // 3-cube has 12 edges.
        assert_eq!(snap.group_edges.len(), 12);
        assert_eq!(snap.nodes.len(), 128);
    }

    /// The fused walk of `counts_under` against a probe per member, over
    /// seeded histories of evictions (whole groups now and then), rejoins
    /// and joiners above `SYBIL_ID_BASE`, under block sets that also list
    /// non-members; the inverse map is checked against the groups as it goes.
    #[test]
    fn per_group_counts_match_per_member_probes() {
        let (mut evictions, mut joiners, mut foreign, mut disconnected) = (0, 0, 0, 0);
        for case in 0..240 {
            let mut rng = simnet::rng::stream(0x0612_05E7, case, 0xD1FF);
            let n = rng.random_range(8..200u64);
            let mut g = GroupedNetwork::random(&nodes(n), rng.random_range(1..=4u32), &mut rng);
            let mut evicted = Vec::new();
            for step in 0..rng.random_range(1..12u64) {
                let mut doomed: Vec<NodeId> = (0..rng.random_range(0..8))
                    .map(|_| NodeId(rng.random_range(0..n + 4)))
                    .collect();
                if case % 4 == 0 && rng.random_bool(0.3) {
                    doomed.extend_from_slice(g.group(rng.random_range(0..g.cube().len())));
                }
                let before = evicted.len();
                evicted.extend(doomed.into_iter().filter(|&v| g.remove(v)));
                evictions += evicted.len() - before;
                for v in evicted.split_off(evicted.len().saturating_sub(rng.random_range(0..4))) {
                    g.insert(v, rng.random_range(0..g.cube().len()));
                }
                if rng.random_bool(0.4) {
                    let joiner = NodeId(SYBIL_ID_BASE + 1000 * case + step);
                    g.insert(joiner, rng.random_range(0..g.cube().len()));
                    joiners += 1;
                }
                assert_eq!(g.members_sorted(), ascending(&g.nodes()).as_ref(), "case {case}");
                for (x, grp) in g.groups().iter().enumerate() {
                    assert!(grp.iter().all(|&v| g.supernode_of(v) == Some(x as u64)));
                }
                assert!(evicted.iter().all(|&v| g.supernode_of(v).is_none()), "case {case}");

                let density = [0.0, 0.2, 0.6, 0.95][rng.random_range(0..4usize)];
                let mut draw = || -> BlockSet {
                    let mut s: Vec<NodeId> =
                        g.nodes().into_iter().filter(|_| rng.random_bool(density)).collect();
                    s.extend(evicted.iter().copied().filter(|_| rng.random_bool(0.5)));
                    s.push(NodeId(SYBIL_ID_BASE - 1 - rng.random_range(0..50u64)));
                    BlockSet::from(s)
                };
                let (prev, mut cur) = (draw(), draw());
                if rng.random_bool(0.25) {
                    for y in g.cube().neighbors(rng.random_range(0..g.cube().len())) {
                        cur.union_with(&g.group(y).iter().copied().collect());
                    }
                }
                let probe = |sets: &[&BlockSet]| -> Vec<usize> {
                    let free = |v: &&NodeId| sets.iter().all(|s| !s.contains(**v));
                    g.groups().iter().map(|grp| grp.iter().filter(free).count()).collect()
                };
                let unblocked = probe(&[&cur]);
                assert_eq!(g.unblocked_per_group(&cur), unblocked, "case {case}");
                assert_eq!(g.available_per_group(&prev, &cur), probe(&[&prev, &cur]));
                foreign += cur.iter().filter(|&v| g.supernode_of(v).is_none()).count();
                disconnected += usize::from(!g.connected_given(&unblocked));
            }
        }
        assert!(evictions >= 2_000 && joiners >= 300, "{evictions} evictions, {joiners} joiners");
        assert!(
            foreign >= 1_000 && disconnected >= 100,
            "{foreign} strangers, {disconnected} cuts"
        );
    }

    #[test]
    fn load_names_the_node_a_corrupt_checkpoint_lists_twice() {
        let load = |groups: &str| {
            let text = format!(r#"{{ "dim": 1, "groups": {groups} }}"#);
            GroupedNetwork::load(&serde_json::from_str(&text).expect("test JSON parses"))
        };
        let fine = load("[[5, 2], [9]]").expect("unsorted groups are legal");
        assert_eq!(fine.members_sorted(), [2, 5, 9].map(NodeId));
        assert_eq!(
            (fine.supernode_of(NodeId(5)), fine.supernode_of(NodeId(9))),
            (Some(0), Some(1))
        );

        let message = |groups| match load(groups) {
            Err(simnet::CkptError::Corrupt(m)) => m,
            other => panic!("expected Corrupt, got {:?}", other.map(|g| g.groups)),
        };
        assert_eq!(message("[[5, 2], [9, 5]]"), "n5 in groups 0 and 1");
        assert_eq!(message("[[7, 2, 7], []]"), "n7 twice in group 0");
        assert!(message(r#"[[1, "two"], []]"#).contains("mistyped"));
        assert!(message("[[1]]").contains("1 groups for a dimension-1 cube"));
    }

    #[test]
    fn load_refuses_a_dimension_no_cube_has() {
        for dim in [0, 64, (1u64 << 32) + 1] {
            let v = serde_json::json!({ "dim": dim, "groups": serde_json::json!([]) });
            match GroupedNetwork::load(&v) {
                Err(simnet::CkptError::Corrupt(m)) => assert!(m.contains("`dim`"), "{dim}: {m}"),
                other => panic!("dim {dim}: expected Corrupt, got {:?}", other.map(|g| g.groups)),
            }
        }
    }
}
