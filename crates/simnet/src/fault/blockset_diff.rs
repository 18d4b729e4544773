//! The block-set differential: the `BTreeSet`-backed [`BlockSet`] this
//! crate had before the set became a sorted `Vec` — kept here, verbatim, as
//! the oracle — against the `Vec`, over seeded random operation sequences.

use super::*;
use rand::seq::SliceRandom;
use std::collections::BTreeSet;

/// The reference representation: every operation is the `BTreeSet` call the
/// old `BlockSet` forwarded to.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct TreeBlockSet {
    blocked: BTreeSet<NodeId>,
}

impl TreeBlockSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        Self { blocked: iter.into_iter().collect() }
    }

    fn contains(&self, node: NodeId) -> bool {
        self.blocked.contains(&node)
    }

    fn insert(&mut self, node: NodeId) {
        self.blocked.insert(node);
    }

    fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.blocked.iter().copied()
    }

    fn save(&self) -> Value {
        Value::Array(self.blocked.iter().map(|v| Value::from(v.raw())).collect())
    }

    fn load(v: &Value) -> CkptResult<Self> {
        let ids = v.as_array().ok_or_else(|| missing("block set"))?;
        let blocked = ids
            .iter()
            .map(|x| x.as_u64().map(NodeId).ok_or_else(|| missing("block set id")))
            .collect::<CkptResult<BTreeSet<NodeId>>>()?;
        Ok(Self { blocked })
    }
}

/// Both sets hold the same ids and answer every query alike.
fn assert_same(case: u64, what: &str, vec: &BlockSet, tree: &TreeBlockSet) {
    assert!(vec.iter().eq(tree.iter()), "case {case} {what}: {vec:?} vs {tree:?}");
    assert!(vec.as_slice().windows(2).all(|w| w[0] < w[1]), "case {case} {what}: order");
    assert_eq!(vec.len(), tree.blocked.len(), "case {case} {what}: len");
    assert_eq!(vec.is_empty(), tree.blocked.is_empty(), "case {case} {what}: is_empty");
}

/// Where a case draws its ids from: a dense low range (many repeats and
/// hits), or a few islands up to the Sybil id base and the top of `u64`
/// (gaps, and ids far beyond both ends of most sets).
fn draw_id(rng: &mut NodeRng, wide: bool) -> NodeId {
    if !wide {
        return NodeId(rng.random_range(0..96u64));
    }
    let base = [0, 5_000, 1 << 40, u64::MAX - 64][rng.random_range(0..4usize)];
    NodeId(base + rng.random_range(0..64u64))
}

#[derive(Default)]
struct Coverage {
    unsorted_input: u64,
    duplicated_input: u64,
    ascending_input: u64,
    empty_sets: u64,
    hits: u64,
    misses: u64,
    beyond_ends: u64,
    sybil_ids: u64,
    overlapping_unions: u64,
    disjoint_appends: u64,
    cutting_truncates: u64,
}

#[test]
fn sorted_vec_block_set_matches_the_btreeset_reference() {
    const CASES: u64 = 480;
    let mut cov = Coverage::default();
    for case in 0..CASES {
        let mut rng = stream(0x0B10_C5E7, case, 0xD1FF);
        let wide = case % 3 == 0;

        // `from_iter`: unsorted input with repeats, or (every fifth case)
        // input that already ascends.
        let mut input: Vec<NodeId> =
            (0..rng.random_range(0..160usize)).map(|_| draw_id(&mut rng, wide)).collect();
        if case % 5 == 0 {
            input.sort_unstable();
            input.dedup();
        }
        let strictly_ascending = input.windows(2).all(|w| w[0] < w[1]);
        let distinct = input.iter().collect::<BTreeSet<_>>().len();
        cov.ascending_input += u64::from(strictly_ascending && input.len() > 1);
        cov.unsorted_input += u64::from(!input.windows(2).all(|w| w[0] <= w[1]));
        cov.duplicated_input += u64::from(distinct < input.len());
        cov.empty_sets += u64::from(input.is_empty());
        cov.sybil_ids += u64::from(input.iter().any(|v| v.raw() >= 1 << 40));

        let mut vec = BlockSet::from_iter(input.iter().copied());
        let mut tree = TreeBlockSet::from_iter(input.iter().copied());
        assert_same(case, "from_iter", &vec, &tree);
        assert_eq!(vec, input.iter().copied().collect::<BlockSet>(), "case {case}: FromIterator");

        // `==` between equal sets built in different orders.
        let mut shuffled = input.clone();
        shuffled.shuffle(&mut rng);
        shuffled.extend(input.iter().take(3).copied());
        assert_eq!(vec, BlockSet::from_iter(shuffled.iter().copied()), "case {case}: eq");

        // `insert`: ascending, descending, random, or one id repeated.
        let mut extra: Vec<NodeId> =
            (0..rng.random_range(1..40usize)).map(|_| draw_id(&mut rng, wide)).collect();
        match case % 4 {
            0 => extra.sort_unstable(),
            1 => extra.sort_unstable_by(|a, b| b.cmp(a)),
            2 => {}
            _ => extra = vec![extra[0]; extra.len()],
        }
        for &v in &extra {
            vec.insert(v);
            tree.insert(v);
            assert_same(case, "insert", &vec, &tree);
        }

        // `contains`: every member, every gap next to one, both ends.
        let mut probes: Vec<NodeId> = tree.iter().collect();
        for v in tree.iter() {
            probes.extend([NodeId(v.raw().wrapping_sub(1)), NodeId(v.raw().wrapping_add(1))]);
        }
        probes.extend([NodeId(0), NodeId(u64::MAX)]);
        probes.extend((0..16).map(|_| draw_id(&mut rng, !wide)));
        for v in probes {
            assert_eq!(vec.contains(v), tree.contains(v), "case {case}: contains({v:?})");
            cov.hits += u64::from(tree.contains(v));
            cov.misses += u64::from(!tree.contains(v));
            let ends = tree.blocked.first().zip(tree.blocked.last());
            cov.beyond_ends += u64::from(ends.is_some_and(|(&lo, &hi)| v < lo || v > hi));
        }

        // Union: overlapping, or (every seventh case) wholly above.
        let lift = if case % 7 == 0 { tree.blocked.last().map_or(0, |m| m.raw() + 1) } else { 0 };
        let other: Vec<NodeId> = (0..rng.random_range(0..80usize))
            .map(|_| NodeId((draw_id(&mut rng, wide).raw() / 2).saturating_add(lift)))
            .collect();
        let other_vec = BlockSet::from_iter(other.iter().copied());
        let overlap = other.iter().filter(|v| tree.contains(**v)).count();
        cov.overlapping_unions += u64::from(overlap > 0 && overlap < other_vec.len());
        cov.disjoint_appends +=
            u64::from(!other.is_empty() && tree.blocked.last() < other_vec.as_slice().first());
        let merged: Vec<NodeId> = merge_ascending(vec.iter(), other_vec.iter()).collect();
        let kept: Vec<NodeId> = minus_ascending(vec.iter(), other_vec.iter()).collect();
        let other_tree: BTreeSet<NodeId> = other.iter().copied().collect();
        assert!(merged.iter().eq(tree.blocked.union(&other_tree)), "case {case}: merge");
        assert!(kept.iter().eq(tree.blocked.difference(&other_tree)), "case {case}: minus");
        vec.union_with(&other_vec);
        for &v in &other {
            tree.insert(v);
        }
        assert_same(case, "union_with", &vec, &tree);
        assert!(vec.iter().eq(merged.iter().copied()), "case {case}: union_with == merge");

        // Checkpoint form (the only serialised one: this workspace's serde
        // derives expand to nothing): the same JSON bytes, and a load that
        // accepts any order and repeats.
        let json = serde_json::to_string(&vec.save()).unwrap();
        assert_eq!(json, serde_json::to_string(&tree.save()).unwrap(), "case {case}: save");
        assert_eq!(BlockSet::load(&vec.save()).unwrap(), vec, "case {case}: round trip");
        let mut hostile: Vec<NodeId> = vec.as_slice().iter().rev().copied().collect();
        hostile.extend(vec.iter().take(5));
        let hostile = Value::Array(hostile.iter().map(|v| Value::from(v.raw())).collect());
        let loaded = BlockSet::load(&hostile).unwrap();
        assert_same(case, "hostile load", &loaded, &TreeBlockSet::load(&hostile).unwrap());
        assert_eq!(serde_json::to_string(&loaded.save()).unwrap(), json, "case {case}: resave");

        // The budget clamp keeps the smallest ids; `clone_from` and
        // `assign` reuse an allocation without leaking its old contents.
        let budget = rng.random_range(0..vec.len() + 4);
        cov.cutting_truncates += u64::from(budget < vec.len());
        let mut scratch = BlockSet::from_iter((0..50).map(NodeId));
        scratch.clone_from(&vec);
        assert_eq!(scratch, vec, "case {case}: clone_from");
        scratch.assign(shuffled.iter().copied());
        assert_eq!(scratch, BlockSet::from_iter(input.iter().copied()), "case {case}: assign");
        vec.truncate(budget);
        let clamped = TreeBlockSet::from_iter(tree.iter().take(budget));
        assert_same(case, "truncate", &vec, &clamped);
        assert_eq!(vec.fraction_of(200), clamped.blocked.len() as f64 / 200.0);
        assert_eq!(vec.within_bound(0.25, 200), clamped.blocked.len() <= 50);
    }

    assert!(cov.unsorted_input >= CASES / 2, "unsorted inputs: {}", cov.unsorted_input);
    assert!(cov.duplicated_input >= CASES / 4, "duplicated inputs: {}", cov.duplicated_input);
    assert!(cov.ascending_input >= CASES / 8, "ascending inputs: {}", cov.ascending_input);
    assert!(cov.empty_sets >= 1, "no empty input");
    assert!(cov.hits >= 10_000 && cov.misses >= 10_000, "probes {} / {}", cov.hits, cov.misses);
    assert!(cov.beyond_ends >= 500, "probes beyond both ends: {}", cov.beyond_ends);
    assert!(cov.sybil_ids >= CASES / 8, "sets with ids above 2^40: {}", cov.sybil_ids);
    assert!(cov.overlapping_unions >= CASES / 4, "overlaps: {}", cov.overlapping_unions);
    assert!(cov.disjoint_appends >= 20, "append-only unions: {}", cov.disjoint_appends);
    assert!(cov.cutting_truncates >= CASES / 4, "clamps that cut: {}", cov.cutting_truncates);
}

/// What a `BTreeSet` absorbed silently, the sorted `Vec` has to normalise
/// on the way in: a `Repro` file or checkpoint may list ids in any order.
#[test]
fn load_normalises_hostile_arrays_and_rejects_non_numbers() {
    let ids = |raw: &[u64]| Value::Array(raw.iter().map(|&i| Value::from(i)).collect());
    let descending = BlockSet::load(&ids(&[9, 7, 4, 1])).unwrap();
    assert_eq!(descending.as_slice(), [1, 4, 7, 9].map(NodeId));
    assert!(descending.contains(NodeId(4)) && !descending.contains(NodeId(5)));
    let duplicated = BlockSet::load(&ids(&[3, 3, 1 << 40, 3, 0, 1 << 40])).unwrap();
    assert_eq!(duplicated.as_slice(), [0, 3, 1 << 40].map(NodeId));
    assert_eq!(duplicated.save(), ids(&[0, 3, 1 << 40]));

    let text = Value::Array(vec![Value::from(1u64), Value::from("two")]);
    assert!(matches!(BlockSet::load(&text), Err(crate::CkptError::Corrupt(_))));
    assert!(matches!(BlockSet::load(&Value::from(7u64)), Err(crate::CkptError::Corrupt(_))));
    let negative = serde_json::from_str("[1, -2]").unwrap();
    assert!(matches!(BlockSet::load(&negative), Err(crate::CkptError::Corrupt(_))));
}
