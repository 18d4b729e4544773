//! The group-targeted picker differential: `pick_group_targeted` and
//! `fill_randomly` as they were before the picker marked groups — hashing
//! every blocked id through a `HashSet` — kept here, verbatim, as the
//! oracle, against the picker on a [`GroupIndex`], over seeded snapshots
//! whose groups share ids, repeat ids and run empty.

use super::*;
use rand::{RngCore, RngExt};

/// Top `out` up to `budget` with the shuffled members of `pool` that
/// `taken` does not hold yet.
fn fill_randomly(
    out: &mut Vec<NodeId>,
    taken: &HashSet<NodeId>,
    pool: impl Iterator<Item = NodeId>,
    budget: usize,
    rng: &mut NodeRng,
) {
    let mut rest: Vec<NodeId> = pool.filter(|v| !taken.contains(v)).collect();
    rest.shuffle(rng);
    while out.len() < budget {
        match rest.pop() {
            Some(v) => out.push(v),
            None => break,
        }
    }
}

fn pick_group_targeted(view: &TopologySnapshot, budget: usize, rng: &mut NodeRng) -> Vec<NodeId> {
    if view.groups.is_empty() {
        // No group structure observed — fall back to isolation.
        return pick_isolate(view, budget, rng);
    }
    let groups = &view.groups;
    // Isolating a group costs the members of all its neighbor groups;
    // choose the victims whose neighborhood is cheapest to block.
    let mut cost = vec![0usize; groups.len()];
    for &(a, b) in &view.group_edges {
        cost[a as usize] += groups[b as usize].len();
        cost[b as usize] += groups[a as usize].len();
    }
    let mut order: Vec<usize> = (0..groups.len()).collect();
    order.sort_by_key(|&gi| (cost[gi], gi));
    let smallest = groups.iter().map(Vec::len).min().unwrap_or(0);
    let mut blocked: HashSet<NodeId> = HashSet::new();
    for gi in order {
        if cost[gi] == 0 || blocked.len() + cost[gi] > budget {
            continue;
        }
        for &(a, b) in &view.group_edges {
            if a as usize == gi {
                blocked.extend(&groups[b as usize]);
            }
            if b as usize == gi {
                blocked.extend(&groups[a as usize]);
            }
        }
        if blocked.len() + smallest > budget {
            break;
        }
    }
    // Leftover budget: block the largest half-groups to maximize the chance
    // some group loses all members.
    let mut out: Vec<NodeId> = blocked.iter().copied().collect();
    fill_randomly(&mut out, &blocked, groups.iter().flatten().copied(), budget, rng);
    out
}

/// How a case draws its group members.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Ids {
    /// Every entry a fresh id, as the overlays produce.
    Disjoint,
    /// Entries drawn with replacement from a small range: ids shared
    /// between groups and repeated within one.
    Shared,
    /// Fresh ids far above the rest (Sybil joiners), shuffled in.
    Sparse,
}

#[test]
fn marked_groups_match_the_hashset_reference() {
    const CASES: u64 = 480;
    let (mut shared_ids, mut repeated_in_group, mut empty_groups, mut no_groups) = (0, 0, 0, 0);
    let (mut zero_budget, mut below_smallest, mut whole_view, mut self_loops) = (0, 0, 0, 0);
    let (mut blocked_groups, mut filled, mut short_of_budget) = (0, 0, 0);
    for case in 0..CASES {
        let mut rng = simnet::rng::stream(0x0612_0DD5, case, 0xD1FF);
        let mode = [Ids::Disjoint, Ids::Shared, Ids::Sparse][(case % 3) as usize];
        let g = if case % 40 == 7 { 0 } else { rng.random_range(1..=16usize) };
        let mut next = 0u64;
        let groups: Vec<Vec<NodeId>> = (0..g)
            .map(|_| {
                let empty = case % 4 == 1 && rng.random_bool(0.3);
                let size = if empty { 0 } else { rng.random_range(1..12usize) };
                (0..size)
                    .map(|_| match mode {
                        Ids::Disjoint => {
                            next += 1;
                            NodeId(next)
                        }
                        Ids::Shared => NodeId(rng.random_range(0..24u64)),
                        Ids::Sparse => {
                            next += 1 + rng.random_range(0..3u64);
                            NodeId(if rng.random_bool(0.3) { (1 << 40) + next } else { next })
                        }
                    })
                    .collect()
            })
            .collect();
        // Group edges: cube-like neighbours, random pairs, repeats and
        // self-loops — all in range (out-of-range edges panic the
        // reference; the new picker's handling of them has its own test).
        let mut group_edges: Vec<(u32, u32)> = Vec::new();
        for _ in 0..rng.random_range(0..3 * g.max(1)) {
            let a = rng.random_range(0..g.max(1)) as u32;
            let b = if rng.random_bool(0.1) { a } else { rng.random_range(0..g.max(1)) as u32 };
            if g > 0 {
                group_edges.push((a, b));
            }
        }
        if g > 1 && rng.random_bool(0.3) {
            group_edges.extend((0..g as u32 - 1).map(|a| (a, a + 1)));
        }
        let mut nodes: Vec<NodeId> = groups.iter().flatten().copied().collect();
        if g == 0 {
            nodes = (0..rng.random_range(1..30u64)).map(NodeId).collect();
        }
        let edges: Vec<(NodeId, NodeId)> =
            nodes.windows(2).filter(|_| rng.random_bool(0.5)).map(|w| (w[0], w[1])).collect();
        let view = TopologySnapshot { round: case, nodes, edges, groups, group_edges };

        let entries: usize = view.groups.iter().map(Vec::len).sum();
        let smallest = view.groups.iter().map(Vec::len).min().unwrap_or(0);
        let budget = match case % 6 {
            0 => 0,
            1 => rng.random_range(0..smallest.max(1)),
            2 => entries + rng.random_range(0..5usize),
            _ => rng.random_range(0..=entries.max(1)),
        };

        let index = GroupIndex::new(&view.groups);
        let mut twin = rng.clone();
        let new = BlockSet::from_iter(super::pick_group_targeted(&view, &index, budget, &mut rng));
        let old = BlockSet::from_iter(pick_group_targeted(&view, budget, &mut twin));
        assert_eq!(new, old, "case {case}: {mode:?}, budget {budget}");
        assert_eq!(rng.next_u64(), twin.next_u64(), "case {case}: the RNG streams part");

        let distinct = index.ids.len();
        shared_ids += usize::from(mode == Ids::Shared && distinct < entries);
        repeated_in_group += usize::from(view.groups.iter().any(|grp| {
            let mut s = grp.clone();
            s.sort_unstable();
            s.windows(2).any(|w| w[0] == w[1])
        }));
        empty_groups += view.groups.iter().filter(|grp| grp.is_empty()).count();
        no_groups += usize::from(g == 0);
        zero_budget += usize::from(budget == 0);
        below_smallest += usize::from(budget < smallest);
        whole_view += usize::from(g > 0 && budget >= entries);
        self_loops += view.group_edges.iter().filter(|(a, b)| a == b).count();
        // A whole non-empty group blocked is the targeted part at work; a
        // set smaller than both budget and view is the repeat-aware count.
        blocked_groups += usize::from(
            budget < distinct
                && view
                    .groups
                    .iter()
                    .any(|grp| !grp.is_empty() && grp.iter().all(|&v| old.contains(v))),
        );
        filled += usize::from(budget > 0 && old.len() < distinct && !old.is_empty());
        short_of_budget += usize::from(g > 0 && old.len() < budget.min(distinct));
    }
    assert!(
        shared_ids >= 120 && repeated_in_group >= 100,
        "{shared_ids} shared, {repeated_in_group} repeated"
    );
    assert!(
        empty_groups >= 250 && no_groups >= 10,
        "{empty_groups} empty groups, {no_groups} groupless"
    );
    assert!(
        zero_budget >= 70 && below_smallest >= 120,
        "{zero_budget} zero, {below_smallest} below smallest"
    );
    assert!(
        whole_view >= 70 && self_loops >= 100,
        "{whole_view} whole-view budgets, {self_loops} loops"
    );
    assert!(blocked_groups >= 100 && filled >= 150, "{blocked_groups} targeted, {filled} filled");
    assert!(short_of_budget >= 20, "{short_of_budget} sets short of their budget");
}

#[test]
fn edges_to_missing_groups_are_ignored() {
    // Three groups; edges name groups 3 and 7, which the view does not
    // list. They are skipped, as `adaptive::group_separator` skips them.
    let groups: Vec<Vec<NodeId>> = (0..3).map(|g| vec![NodeId(2 * g), NodeId(2 * g + 1)]).collect();
    let view = |group_edges: Vec<(u32, u32)>| TopologySnapshot {
        round: 0,
        nodes: (0..6).map(NodeId).collect(),
        edges: Vec::new(),
        groups: groups.clone(),
        group_edges,
    };
    let clean = view(vec![(0, 1), (1, 2)]);
    let malformed = view(vec![(0, 1), (3, 0), (1, 2), (2, 7), (u32::MAX, u32::MAX)]);
    let index = GroupIndex::new(&groups);
    for budget in 0..=7 {
        let pick = |v: &TopologySnapshot| {
            let mut rng = simnet::rng::stream(5, budget as u64, 0xD05);
            BlockSet::from_iter(super::pick_group_targeted(v, &index, budget, &mut rng))
        };
        assert_eq!(pick(&malformed), pick(&clean), "budget {budget}");
    }
    // Group 0's only neighbour is group 1: blocking it costs two.
    let mut rng = simnet::rng::stream(5, 0, 0xD05);
    let two = super::pick_group_targeted(&malformed, &index, 2, &mut rng);
    assert_eq!(two, [NodeId(2), NodeId(3)]);
}
