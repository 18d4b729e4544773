//! The grouped-network differential: the `HashMap` inverse map and the
//! per-member set probes [`GroupedNetwork`] had before its inverse map
//! became an id-sorted list — kept here, verbatim, as the oracle — against
//! the merge walks, over seeded histories of evictions and rejoins.

use super::*;
use overlay_adversary::byzantine::SYBIL_ID_BASE;
use rand::seq::SliceRandom;
use simnet::Checkpoint;
use std::collections::{BTreeSet, HashMap};

/// The reference: group lists plus a hashed inverse map, every block-set
/// question answered by probing a `BTreeSet` once per member.
struct MapGrouped {
    cube: Hypercube,
    groups: Vec<Vec<NodeId>>,
    assign: HashMap<NodeId, u64>,
}

impl MapGrouped {
    fn random<R: Rng + ?Sized>(nodes: &[NodeId], dim: u32, rng: &mut R) -> Self {
        let cube = Hypercube::new(dim);
        let n_super = cube.len();
        let mut groups = vec![Vec::new(); n_super as usize];
        let mut assign = HashMap::with_capacity(nodes.len());
        for &v in nodes {
            let x = rng.random_range(0..n_super);
            groups[x as usize].push(v);
            assign.insert(v, x);
        }
        Self { cube, groups, assign }
    }

    fn remove(&mut self, v: NodeId) -> bool {
        match self.assign.remove(&v) {
            Some(x) => {
                self.groups[x as usize].retain(|&u| u != v);
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, v: NodeId, x: u64) {
        assert!(!self.assign.contains_key(&v), "{v:?} is already a member");
        self.groups[x as usize].push(v);
        self.assign.insert(v, x);
    }

    fn members_sorted(&self) -> Vec<NodeId> {
        let mut m: Vec<NodeId> = self.groups.iter().flatten().copied().collect();
        m.sort_unstable();
        m
    }

    fn unblocked_per_group(&self, blocked: &BTreeSet<NodeId>) -> Vec<usize> {
        self.groups.iter().map(|g| g.iter().filter(|v| !blocked.contains(v)).count()).collect()
    }

    fn available_per_group(&self, prev: &BTreeSet<NodeId>, cur: &BTreeSet<NodeId>) -> Vec<usize> {
        self.groups
            .iter()
            .map(|g| g.iter().filter(|v| !prev.contains(v) && !cur.contains(v)).count())
            .collect()
    }

    fn connected_under(&self, blocked: &BTreeSet<NodeId>) -> bool {
        let alive: Vec<bool> =
            self.groups.iter().map(|g| g.iter().any(|v| !blocked.contains(v))).collect();
        let total_alive = alive.iter().filter(|&&a| a).count();
        if total_alive <= 1 {
            return true;
        }
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
}

/// Every query of both structures agrees, under the given pair of sets.
fn assert_same(
    case: u64,
    new: &GroupedNetwork,
    old: &MapGrouped,
    prev: &BTreeSet<NodeId>,
    cur: &BTreeSet<NodeId>,
    probes: &[NodeId],
) -> bool {
    assert_eq!(new.groups(), &old.groups[..], "case {case}: arrival order within groups");
    assert_eq!(new.len(), old.assign.len(), "case {case}: len");
    assert_eq!(new.members_sorted(), old.members_sorted(), "case {case}: members_sorted");
    for &v in probes {
        assert_eq!(new.supernode_of(v), old.assign.get(&v).copied(), "case {case}: {v:?}");
    }
    let (prev_set, cur_set): (BlockSet, BlockSet) =
        (prev.iter().copied().collect(), cur.iter().copied().collect());
    assert_eq!(new.unblocked_per_group(&cur_set), old.unblocked_per_group(cur), "case {case}");
    assert_eq!(
        new.available_per_group(&prev_set, &cur_set),
        old.available_per_group(prev, cur),
        "case {case}: available"
    );
    let connected = old.connected_under(cur);
    assert_eq!(new.connected_under(&cur_set), connected, "case {case}: connected_under");
    connected
}

#[test]
fn merge_walks_match_the_hashmap_reference() {
    const CASES: u64 = 420;
    let (mut evictions, mut rejoins, mut sybil_joins) = (0u64, 0u64, 0u64);
    let (mut empty_groups, mut disconnected, mut connected, mut foreign_blocks) = (0, 0, 0, 0u64);
    for case in 0..CASES {
        let mut rng = simnet::rng::stream(0x0612_05E7, case, 0xD1FF);
        let n = rng.random_range(8..200u64);
        let dim = rng.random_range(1..=4u32);
        // The draw order is the digest: present the nodes shuffled, as a
        // group-by-group `nodes()` list would be.
        let mut nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        nodes.shuffle(&mut rng);
        let mut twin = rng.clone();
        let mut new = GroupedNetwork::random(&nodes, dim, &mut rng);
        let mut old = MapGrouped::random(&nodes, dim, &mut twin);
        assert_eq!(rng.random::<u64>(), twin.random::<u64>(), "case {case}: same draws consumed");

        let mut evicted: Vec<NodeId> = Vec::new();
        let mut next_sybil = SYBIL_ID_BASE + case;
        for _ in 0..rng.random_range(1..12usize) {
            // Interleaved evictions (whole groups now and then), rejoins of
            // the evicted, and joiners with ids far above `n`.
            if case % 4 == 0 && rng.random_bool(0.3) {
                let x = rng.random_range(0..new.cube().len());
                for v in new.group(x).to_vec() {
                    assert!(new.remove(v) && old.remove(v));
                    evicted.push(v);
                    evictions += 1;
                }
            }
            for _ in 0..rng.random_range(0..8usize) {
                let v = NodeId(rng.random_range(0..n + 4));
                let was = old.assign.contains_key(&v);
                assert_eq!(new.remove(v), was, "case {case}: remove({v:?})");
                assert_eq!(old.remove(v), was);
                if was {
                    evicted.push(v);
                    evictions += 1;
                }
            }
            evicted.shuffle(&mut rng);
            for _ in 0..rng.random_range(0..4usize) {
                let Some(v) = evicted.pop() else { break };
                let x = rng.random_range(0..new.cube().len());
                new.insert(v, x);
                old.insert(v, x);
                rejoins += 1;
            }
            if rng.random_bool(0.4) {
                let (v, x) = (NodeId(next_sybil), rng.random_range(0..new.cube().len()));
                next_sybil += 1 + rng.random_range(0..1000u64);
                new.insert(v, x);
                old.insert(v, x);
                sybil_joins += 1;
            }

            // Block sets: scattered members, sometimes whole neighbourhoods
            // (to disconnect), plus ids that are not members at all.
            let members = old.members_sorted();
            let density = [0.0, 0.2, 0.6, 0.95][rng.random_range(0..4usize)];
            let draw_set = |rng: &mut simnet::rng::NodeRng| -> BTreeSet<NodeId> {
                let mut s: BTreeSet<NodeId> =
                    members.iter().copied().filter(|_| rng.random_bool(density)).collect();
                s.extend(evicted.iter().copied().filter(|_| rng.random_bool(0.5)));
                s.insert(NodeId(SYBIL_ID_BASE - 1 - rng.random_range(0..50u64)));
                s
            };
            let prev = draw_set(&mut rng);
            let mut cur = draw_set(&mut rng);
            if rng.random_bool(0.25) {
                let x = rng.random_range(0..new.cube().len());
                for y in new.cube().neighbors(x) {
                    cur.extend(new.group(y).iter().copied());
                }
            }
            foreign_blocks += cur.iter().filter(|v| !old.assign.contains_key(v)).count() as u64;
            empty_groups += old.groups.iter().filter(|g| g.is_empty()).count();
            let mut probes = members.clone();
            probes.extend(evicted.iter().copied());
            probes.extend([NodeId(n + 7), NodeId(SYBIL_ID_BASE - 1), NodeId(u64::MAX)]);
            if assert_same(case, &new, &old, &prev, &cur, &probes) {
                connected += 1;
            } else {
                disconnected += 1;
            }

            // A checkpoint round trip rebuilds the same inverse map.
            let back = GroupedNetwork::load(&new.save()).expect("round trip");
            assert_eq!(back.assign, new.assign, "case {case}: reloaded inverse map");
            assert_eq!(back.groups, new.groups, "case {case}: reloaded groups");
        }
    }
    assert!(evictions >= 2_000 && rejoins >= 1_000, "{evictions} evictions, {rejoins} rejoins");
    assert!(sybil_joins >= 500, "joiners above 2^40: {sybil_joins}");
    assert!(empty_groups >= 100, "empty groups seen: {empty_groups}");
    assert!(foreign_blocks >= 2_000, "blocked non-members: {foreign_blocks}");
    assert!(connected >= 200 && disconnected >= 200, "{connected} connected, {disconnected} not");
}

#[test]
fn load_names_the_node_a_corrupt_checkpoint_lists_twice() {
    let load = |groups: &str| {
        let text = format!(r#"{{ "dim": 1, "groups": {groups} }}"#);
        GroupedNetwork::load(&serde_json::from_str(&text).expect("test JSON parses"))
    };
    let fine = load("[[5, 2], [9]]").expect("unsorted groups are legal");
    assert_eq!(fine.members_sorted(), [2, 5, 9].map(NodeId));
    assert_eq!((fine.supernode_of(NodeId(5)), fine.supernode_of(NodeId(9))), (Some(0), Some(1)));

    let message = |groups| match load(groups) {
        Err(simnet::CkptError::Corrupt(m)) => m,
        other => panic!("expected Corrupt, got {:?}", other.map(|g| g.groups)),
    };
    assert_eq!(message("[[5, 2], [9, 5]]"), "n5 in groups 0 and 1");
    assert_eq!(message("[[7, 2, 7], []]"), "n7 twice in group 0");
    assert!(message(r#"[[1, "two"], []]"#).contains("mistyped"));
    assert!(message("[[1]]").contains("1 groups for a dimension-1 cube"));
}
