//! The property test of [`IdRun`]: every operation, values included,
//! against a `BTreeMap` (a `BTreeSet` for the set algebra) over seeded
//! random operation sequences, with coverage floors on what the cases
//! exercised.

use super::*;
use crate::rng::{stream, NodeRng};
use crate::{BlockSet, Checkpoint, CkptError};
use rand::seq::SliceRandom;
use rand::RngExt;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Debug;

/// The run holds exactly the map's entries, in order, in two parallel
/// vectors.
fn assert_same<V: Debug + PartialEq>(
    case: u64,
    what: &str,
    run: &IdRun<V>,
    map: &BTreeMap<NodeId, V>,
) {
    assert!(
        run.entries().eq(map.iter().map(|(&v, x)| (v, x))),
        "case {case} {what}: {run:?} vs {map:?}"
    );
    assert!(ascending_strictly(run.ids()), "case {case} {what}: order");
    assert_eq!((run.len(), run.values().len()), (map.len(), map.len()), "case {case} {what}: len");
    assert_eq!(run.is_empty(), map.is_empty(), "case {case} {what}: is_empty");
}

fn as_map(tree: &BTreeSet<NodeId>) -> BTreeMap<NodeId, ()> {
    tree.iter().map(|&v| (v, ())).collect()
}

/// Where a case draws its ids from: a dense low range (many repeats and
/// hits), or a few islands up to the Sybil id base and the top of `u64`
/// (gaps, and ids far beyond both ends of most runs).
fn draw_ids(rng: &mut NodeRng, wide: bool, max: usize) -> Vec<NodeId> {
    let draw = |rng: &mut NodeRng| match wide {
        false => NodeId(rng.random_range(0..96u64)),
        true => {
            let base = [0, 5_000, 1 << 40, u64::MAX - 64][rng.random_range(0..4usize)];
            NodeId(base + rng.random_range(0..64u64))
        }
    };
    (0..rng.random_range(0..max)).map(|_| draw(rng)).collect()
}

/// `ids` sorted and deduplicated, as a `BTreeSet` would hold them.
fn canonical(ids: &[NodeId]) -> Vec<NodeId> {
    ids.iter().copied().collect::<BTreeSet<_>>().into_iter().collect()
}

#[test]
fn id_runs_match_the_btreemap_reference() {
    const CASES: u64 = 480;
    let mut cov: BTreeMap<&str, u64> = BTreeMap::new();
    let mut seen = |what, yes: bool| *cov.entry(what).or_default() += u64::from(yes);
    for case in 0..CASES {
        let mut rng = stream(0x1D_5E7, case, 0xD1FF);
        let wide = case % 3 == 0;

        // The checked constructor: unsorted entries with repeats, or (every
        // fifth case) entries that already ascend.
        let mut input = draw_ids(&mut rng, wide, 160);
        if case % 5 == 0 {
            input = canonical(&input);
        }
        seen("ascending input", ascending_strictly(&input) && input.len() > 1);
        seen("unsorted input", !input.windows(2).all(|w| w[0] <= w[1]));
        seen("ids above 2^40", input.iter().any(|v| v.raw() >= 1 << 40));
        let entries: Vec<(NodeId, u64)> = input.iter().map(|&v| (v, rng.random())).collect();
        let repeat =
            canonical(&input).into_iter().find(|v| input.iter().filter(|u| *u == v).count() > 1);
        seen("repeated input", repeat.is_some());
        match (IdRun::from_unsorted(entries.clone()), repeat) {
            (Err((v, x, y)), Some(w)) => {
                assert_eq!(v, w, "case {case}: the first repeated id");
                let values: Vec<u64> = entries.iter().filter(|e| e.0 == v).map(|e| e.1).collect();
                assert_eq!([x, y], values[..2], "case {case}: its values in input order");
            }
            (Ok(run), None) => {
                assert_same(case, "from_unsorted", &run, &entries.iter().copied().collect())
            }
            (other, _) => panic!("case {case}: {:?} for repeat {repeat:?}", other.map(|r| r.len())),
        }

        // The first entry of each id builds the map the case mutates.
        let mut map = BTreeMap::new();
        let distinct: Vec<(NodeId, u64)> =
            entries.iter().copied().filter(|e| *map.entry(e.0).or_insert(e.1) == e.1).collect();
        let mut run = IdRun::from_unsorted(distinct).expect("distinct ids");
        assert_same(case, "from_unsorted", &run, &map);
        seen("empty run", map.is_empty());

        // `put`: ascending above the run's maximum (appends), descending,
        // random, or one id repeated.
        let mut extra = draw_ids(&mut rng, wide, 40);
        let top = map.last_key_value().map_or(0, |(v, _)| v.raw());
        match case % 4 {
            0 => {
                extra.iter_mut().for_each(|v| *v = NodeId(v.raw().saturating_add(top)));
                extra.sort_unstable();
            }
            1 => extra.sort_unstable_by(|a, b| b.cmp(a)),
            2 => {}
            _ => extra = vec![extra.first().copied().unwrap_or(NodeId(3)); extra.len()],
        }
        for &v in &extra {
            let x = rng.random();
            seen("put: append", map.last_key_value().is_none_or(|(&max, _)| max < v));
            seen("put: shift", map.range(v..).next().is_some_and(|(&u, _)| u > v));
            let old = map.insert(v, x);
            seen("put: replace", old.is_some());
            assert_eq!(run.put(v, x), old, "case {case}: put({v:?})");
        }
        assert_same(case, "put", &run, &map);

        // Lookups: every id, every gap next to one, both ends, strangers.
        let mut probes: Vec<NodeId> = map.keys().copied().collect();
        for &v in map.keys() {
            probes.extend([NodeId(v.raw().wrapping_sub(1)), NodeId(v.raw().wrapping_add(1))]);
        }
        probes.extend([NodeId(0), NodeId(u64::MAX)]);
        probes.extend(draw_ids(&mut rng, !wide, 16));
        let ends =
            map.first_key_value().zip(map.last_key_value()).map(|((&lo, _), (&hi, _))| (lo, hi));
        for &v in &probes {
            let want = map.get(&v);
            assert_eq!(run.contains(v), want.is_some(), "case {case}: contains({v:?})");
            assert_eq!(run.get(v), want, "case {case}: get({v:?})");
            let rank = map.range(..v).count();
            let at = if want.is_some() { Ok(rank) } else { Err(rank) };
            assert_eq!(run.position(v), at, "case {case}: position({v:?})");
            seen("hit", want.is_some());
            seen("miss", want.is_none());
            seen("beyond the ends", ends.is_some_and(|(lo, hi)| v < lo || v > hi));
        }

        // `get_mut` and `remove`: members and strangers.
        for &v in probes.iter().step_by(3) {
            if let Some(x) = run.get_mut(v) {
                *x ^= 1;
                *map.get_mut(&v).unwrap() ^= 1;
            }
        }
        for &v in probes.iter().step_by(5) {
            let old = map.remove(&v);
            seen("removed", old.is_some());
            assert_eq!(run.remove(v), old, "case {case}: remove({v:?})");
        }
        assert_same(case, "get_mut / remove", &run, &map);

        // `insert_all`: an ascending batch, part present, part not.
        let batch = canonical(&draw_ids(&mut rng, wide, 60));
        let make = |v: NodeId| v.raw().rotate_left(7);
        let fresh = batch.iter().filter(|v| !map.contains_key(v)).count();
        for &v in &batch {
            seen("insert_all: new", !map.contains_key(&v));
            seen("insert_all: present", map.contains_key(&v));
            map.entry(v).or_insert_with(|| make(v));
        }
        assert_eq!(run.insert_all(&batch, make), fresh, "case {case}: insert_all");
        assert_same(case, "insert_all", &run, &map);

        // `put_all`: a run of entries, part replacing, part new.
        let batch = IdSet::from(draw_ids(&mut rng, wide, 60));
        let fresh: Vec<(NodeId, u64)> = batch.iter().map(|v| (v, rng.random())).collect();
        for &(v, x) in &fresh {
            seen("put_all: replace", map.insert(v, x).is_some());
        }
        run.put_all(IdRun::from_unsorted(fresh).expect("distinct ids"));
        assert_same(case, "put_all", &run, &map);

        // `remove_all`, fed a filtered walk over members and strangers, and
        // `retain`.
        let mut listed = draw_ids(&mut rng, wide, 60);
        listed.extend(map.keys().copied().filter(|_| rng.random_bool(0.3)));
        let listed = canonical(&listed);
        let odd = |v: &NodeId| v.raw() % 2 == 1;
        for v in listed.iter().filter(|v| odd(v)) {
            let hit = map.remove(v).is_some();
            seen("remove_all: hit", hit);
            seen("remove_all: absent", !hit);
        }
        run.remove_all(listed.iter().copied().filter(odd));
        assert_same(case, "remove_all", &run, &map);
        let bar = rng.random::<u64>();
        map.retain(|v, x| v.raw() % 3 != 0 || *x < bar);
        run.retain(|v, x| v.raw() % 3 != 0 || *x < bar);
        assert_same(case, "retain", &run, &map);
        let mut copy = IdRun::from_unsorted(vec![(NodeId(7), 7)]).unwrap();
        copy.clone_from(&run);
        assert_eq!(copy, run, "case {case}: clone_from");

        // The set algebra, on the run's ids and another set: overlapping,
        // or (every seventh case) wholly above.
        let tree: BTreeSet<NodeId> = map.keys().copied().collect();
        let mut set: IdSet = run.iter().collect();
        assert_same(case, "collect", &set, &as_map(&tree));
        let lift =
            if case % 7 == 0 { tree.last().map_or(0, |m| m.raw().saturating_add(1)) } else { 0 };
        let other: Vec<NodeId> = draw_ids(&mut rng, wide, 80)
            .iter()
            .map(|v| NodeId((v.raw() / 2).saturating_add(lift)))
            .collect();
        let other_set = IdSet::from_iter(other.iter().copied());
        let other_tree = BTreeSet::from_iter(other.iter().copied());
        assert_same(case, "from_iter", &other_set, &as_map(&other_tree));
        let overlap = other_tree.intersection(&tree).count();
        seen("overlapping union", overlap > 0 && overlap < other_tree.len());
        seen("disjoint union", !other.is_empty() && tree.last() < other_tree.first());
        assert!(
            union(set.iter(), other_set.iter()).eq(tree.union(&other_tree).copied()),
            "case {case}: union"
        );
        let kept: Vec<NodeId> = difference(set.iter(), other_set.iter()).collect();
        assert!(kept.iter().eq(tree.difference(&other_tree)), "case {case}: difference");
        seen("proper difference", !kept.is_empty() && kept.len() < tree.len());
        let back = difference(other_set.iter(), set.iter());
        assert!(back.eq(other_tree.difference(&tree).copied()), "case {case}: difference back");
        let mut tree_plus = tree.clone();
        for v in other.iter().take(4).copied() {
            assert_eq!(set.insert(v), tree_plus.insert(v), "case {case}: insert({v:?})");
        }
        set.union_with(&other_set);
        let both: BTreeSet<NodeId> = tree_plus.union(&other_tree).copied().collect();
        assert_same(case, "union_with", &set, &as_map(&both));

        // `==` and `assign` between sets built in different orders, from
        // input with repeats; `ascending` borrows exactly when it can.
        let mut shuffled = other.clone();
        shuffled.shuffle(&mut rng);
        shuffled.extend(other.iter().take(3).copied());
        assert_eq!(other_set, shuffled.iter().copied().collect::<IdSet>(), "case {case}: eq");
        assert!(ascending(&shuffled).iter().eq(other_tree.iter()), "case {case}: ascending");
        assert!(
            matches!(ascending(other_set.as_slice()), Cow::Borrowed(_)),
            "case {case}: borrowed"
        );
        let mut reused = IdSet::from_iter((0..50).map(NodeId));
        reused.clone_from(&set);
        assert_eq!(reused, set, "case {case}: clone_from");
        reused.assign(shuffled.iter().copied());
        assert_eq!(reused, other_set, "case {case}: assign");

        // Checkpoint form: the `BTreeSet`'s JSON, and a load that accepts
        // any order and repeats.
        let json = Value::Array(both.iter().map(|v| Value::from(v.raw())).collect());
        assert_eq!(
            serde_json::to_string(&set.save()).unwrap(),
            serde_json::to_string(&json).unwrap()
        );
        let mut hostile: Vec<u64> = set.ids().iter().rev().map(|v| v.raw()).collect();
        hostile.extend(set.iter().take(5).map(|v| v.raw()));
        let loaded = BlockSet::load(&Value::Array(hostile.into_iter().map(Value::from).collect()));
        assert_eq!(loaded.unwrap(), set, "case {case}: hostile load");

        // The budget clamp keeps the smallest ids.
        let budget = rng.random_range(0..set.len() + 4);
        seen("cutting clamp", budget < set.len());
        set.truncate(budget);
        let clamped: BTreeSet<NodeId> = both.iter().copied().take(budget).collect();
        assert_same(case, "truncate", &set, &as_map(&clamped));
        assert_eq!(set.fraction_of(200), clamped.len() as f64 / 200.0);
        assert_eq!(set.within_bound(0.25, 200), clamped.len() <= 50);
    }

    let floors = [
        ("ascending input", CASES / 8),
        ("unsorted input", CASES / 2),
        ("repeated input", CASES / 4),
        ("ids above 2^40", CASES / 8),
        ("empty run", 1),
        ("put: append", 1_000),
        ("put: shift", 1_000),
        ("put: replace", 500),
        ("hit", 10_000),
        ("miss", 10_000),
        ("beyond the ends", 500),
        ("removed", 2_000),
        ("insert_all: new", 2_000),
        ("insert_all: present", 1_000),
        ("put_all: replace", 1_000),
        ("remove_all: hit", 1_000),
        ("remove_all: absent", 1_000),
        ("overlapping union", CASES / 4),
        ("disjoint union", 20),
        ("proper difference", CASES / 4),
        ("cutting clamp", CASES / 4),
    ];
    for (what, floor) in floors {
        assert!(cov[what] >= floor, "coverage of {what}: {} < {floor}", cov[what]);
    }
}

/// What a `BTreeSet` absorbed silently, the sorted run has to normalise on
/// the way in: a `Repro` file or checkpoint may list ids in any order.
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
    assert!(matches!(BlockSet::load(&text), Err(CkptError::Corrupt(_))));
    assert!(matches!(BlockSet::load(&Value::from(7u64)), Err(CkptError::Corrupt(_))));
    let negative = serde_json::from_str("[1, -2]").unwrap();
    assert!(matches!(BlockSet::load(&negative), Err(CkptError::Corrupt(_))));
}
