//! Supernodes and groups of representatives.

use overlay_adversary::lateness::TopologySnapshot;
use overlay_graphs::Hypercube;
use rand::{Rng, RngExt};
use simnet::{BlockSet, NodeId};

/// A population of nodes partitioned into groups, one per supernode of a
/// binary hypercube. The physical topology is: intra-group cliques plus
/// complete bipartite graphs between groups of neighboring supernodes.
///
/// Two views of one partition are kept in step. `groups` holds the members
/// of each supernode in *arrival* order (the order `random` drew them in,
/// then rejoins appended): that order feeds the next resampling's RNG and
/// so the digests. `assign` is the inverse map as a flat list sorted by
/// node id, which makes `supernode_of` a binary search, the sorted member
/// list a copy, and every "how many members of each group are outside
/// these block sets" question one merge walk against the sorted
/// [`BlockSet`]s. `insert` and `remove` shift its tail, which evictions
/// and rejoins — a handful per round — can afford.
#[derive(Clone, Debug)]
pub struct GroupedNetwork {
    cube: Hypercube,
    /// Members of `R(x)` for each supernode label `x` (index = label).
    groups: Vec<Vec<NodeId>>,
    /// Inverse map: `(node, its supernode)`, strictly ascending by node.
    assign: Vec<(NodeId, u64)>,
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
        assign.sort_unstable();
        assert!(assign.windows(2).all(|w| w[0].0 < w[1].0), "a node listed twice");
        Self { cube, groups, assign }
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
        self.assign.iter().map(|&(v, _)| v).collect()
    }

    /// The group `R(x)`.
    pub fn group(&self, x: u64) -> &[NodeId] {
        &self.groups[x as usize]
    }

    /// All groups, indexed by supernode label.
    pub fn groups(&self) -> &[Vec<NodeId>] {
        &self.groups
    }

    /// Where `v` is, or would be inserted, in the inverse map.
    fn slot(&self, v: NodeId) -> Result<usize, usize> {
        self.assign.binary_search_by_key(&v, |&(u, _)| u)
    }

    /// The supernode a node belongs to.
    pub fn supernode_of(&self, v: NodeId) -> Option<u64> {
        self.slot(v).ok().map(|at| self.assign[at].1)
    }

    /// Remove a node from its group (self-healing eviction). Returns false
    /// if the node was not a member.
    pub fn remove(&mut self, v: NodeId) -> bool {
        match self.slot(v) {
            Ok(at) => {
                let (_, x) = self.assign.remove(at);
                self.groups[x as usize].retain(|&u| u != v);
                true
            }
            Err(_) => false,
        }
    }

    /// Insert a node into the group of supernode `x` (rejoin after
    /// crash-recovery). The node must not already be a member.
    pub fn insert(&mut self, v: NodeId, x: u64) {
        assert!(x < self.cube.len(), "supernode {x} out of range");
        match self.slot(v) {
            Ok(_) => panic!("{v:?} is already a member"),
            Err(at) => self.assign.insert(at, (v, x)),
        }
        self.groups[x as usize].push(v);
    }

    /// Smallest and largest group size (Lemma 16 quantities).
    pub fn group_size_range(&self) -> (usize, usize) {
        let min = self.groups.iter().map(Vec::len).min().unwrap_or(0);
        let max = self.groups.iter().map(Vec::len).max().unwrap_or(0);
        (min, max)
    }

    /// Per-group count of members in neither ascending id run: one walk
    /// over the id-sorted inverse map with a cursor into each run.
    fn count_outside(&self, a: &[NodeId], b: &[NodeId]) -> Vec<usize> {
        let mut counts = vec![0; self.groups.len()];
        let (mut i, mut j) = (0, 0);
        for &(v, x) in &self.assign {
            while i < a.len() && a[i] < v {
                i += 1;
            }
            while j < b.len() && b[j] < v {
                j += 1;
            }
            let listed = a.get(i) == Some(&v) || b.get(j) == Some(&v);
            counts[x as usize] += usize::from(!listed);
        }
        counts
    }

    /// Per-group count of members *not* in `blocked`.
    pub fn unblocked_per_group(&self, blocked: &BlockSet) -> Vec<usize> {
        self.count_outside(blocked.as_slice(), &[])
    }

    /// Per-group count of members available this round: non-blocked in
    /// both the previous and the current round (the paper's availability).
    pub fn available_per_group(&self, prev: &BlockSet, cur: &BlockSet) -> Vec<usize> {
        self.count_outside(prev.as_slice(), cur.as_slice())
    }

    /// Is the subgraph induced by non-blocked nodes connected?
    ///
    /// Non-blocked members of a group form a clique and any non-blocked
    /// pair across neighboring groups is adjacent (complete bipartite), so
    /// the question reduces to connectivity of the hypercube restricted to
    /// supernodes with at least one non-blocked member.
    pub fn connected_under(&self, blocked: &BlockSet) -> bool {
        let alive: Vec<bool> = self.unblocked_per_group(blocked).iter().map(|&c| c > 0).collect();
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

    /// Topology snapshot for the adversary: groups and group adjacency
    /// (the paper's adversary sees topology, and group membership *is*
    /// topology here — cliques and bipartite blocks).
    pub fn snapshot(&self, round: u64) -> TopologySnapshot {
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
        use simnet::checkpoint::{get_array, get_u64, load_vec};
        let cube = Hypercube::new(get_u64(v, "dim")? as u32);
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
        let mut assign: Vec<(NodeId, u64)> = groups
            .iter()
            .enumerate()
            .flat_map(|(x, g)| g.iter().map(move |&v| (v, x as u64)))
            .collect();
        assign.sort_unstable();
        if let Some(w) = assign.windows(2).find(|w| w[0].0 == w[1].0) {
            let (v, x, y) = (w[0].0, w[0].1, w[1].1);
            return Err(simnet::CkptError::Corrupt(if x == y {
                format!("{v} twice in group {x}")
            } else {
                format!("{v} in groups {x} and {y}")
            }));
        }
        Ok(Self { cube, groups, assign })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

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
}

#[cfg(test)]
mod grouped_diff;
