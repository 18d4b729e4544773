//! Sorted runs of node ids: the one representation of the node-id sets and
//! maps the round walks — the `r`-bounded block set, the delivery and
//! availability rule of Section 1.1, a group's available members. Lookups
//! are binary searches over contiguous ids, set operations are merge walks,
//! and iteration is in the id order that RNG draws and digests owe their
//! determinism to. [`crate::BlockSet`] is an [`IdSet`].

use crate::NodeId;
use std::borrow::Cow;

/// Node ids, strictly ascending, each with a value of type `V`.
///
/// The ids and the values are two parallel vectors: [`ids`](Self::ids) is
/// a `&[NodeId]` whatever `V` is, and an [`IdSet`] (`V = ()`) never
/// allocates for its values. Every constructor and mutator keeps the ids
/// strictly ascending, so no input — unsorted picks, a hand-edited
/// checkpoint — can make a lookup answer wrongly.
#[derive(Debug, PartialEq, Eq)]
pub struct IdRun<V> {
    ids: Vec<NodeId>,
    vals: Vec<V>,
}

/// A sorted run of node ids without values.
pub type IdSet = IdRun<()>;

impl<V> Default for IdRun<V> {
    fn default() -> Self {
        Self { ids: Vec::new(), vals: Vec::new() }
    }
}

impl<V: Clone> Clone for IdRun<V> {
    fn clone(&self) -> Self {
        Self { ids: self.ids.clone(), vals: self.vals.clone() }
    }

    fn clone_from(&mut self, source: &Self) {
        self.ids.clone_from(&source.ids);
        self.vals.clone_from(&source.vals);
    }
}

impl<V> IdRun<V> {
    /// Build a run from entries in any order, or name the first id (in
    /// ascending order) that the entries list twice, with its two values in
    /// input order.
    pub fn from_unsorted(mut entries: Vec<(NodeId, V)>) -> Result<Self, (NodeId, V, V)> {
        entries.sort_by_key(|e| e.0);
        if let Some(at) = entries.windows(2).position(|w| w[0].0 == w[1].0) {
            let (_, y) = entries.remove(at + 1);
            let (v, x) = entries.swap_remove(at);
            return Err((v, x, y));
        }
        let (ids, vals) = entries.into_iter().unzip();
        Ok(Self { ids, vals })
    }

    /// Number of ids.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True if the run holds no id.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The ids, strictly ascending.
    pub fn ids(&self) -> &[NodeId] {
        &self.ids
    }

    /// The values, in id order.
    pub fn values(&self) -> &[V] {
        &self.vals
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ids.iter().copied()
    }

    /// The `(id, value)` entries in id order.
    pub fn entries(&self) -> impl Iterator<Item = (NodeId, &V)> + '_ {
        self.ids.iter().copied().zip(&self.vals)
    }

    /// Is `id` in the run? Only the emptiness test is inlined (the
    /// fault-free arms probe an empty block set once per routed hop); the
    /// binary search stays out of line, so that the engine's delivery loop,
    /// which falls back to it only for a receiver that left, keeps its
    /// common path tight.
    #[inline]
    pub fn contains(&self, id: NodeId) -> bool {
        !self.ids.is_empty() && self.search(id)
    }

    #[inline(never)]
    fn search(&self, id: NodeId) -> bool {
        self.ids.binary_search(&id).is_ok()
    }

    /// Where `id` is (`Ok`), or where it would be inserted (`Err`).
    pub fn position(&self, id: NodeId) -> Result<usize, usize> {
        self.ids.binary_search(&id)
    }

    /// The value of `id`.
    pub fn get(&self, id: NodeId) -> Option<&V> {
        self.position(id).ok().map(|at| &self.vals[at])
    }

    /// The value of `id`, for an in-place update.
    pub fn get_mut(&mut self, id: NodeId) -> Option<&mut V> {
        self.position(id).ok().map(|at| &mut self.vals[at])
    }

    /// Set the value of `id`, returning the one it replaces: an append for
    /// a new maximum, a shifting insert otherwise (batches go through
    /// [`insert_all`](Self::insert_all)).
    pub fn put(&mut self, id: NodeId, value: V) -> Option<V> {
        let at = if self.ids.last().is_none_or(|&max| max < id) {
            self.ids.len()
        } else {
            match self.position(id) {
                Ok(at) => return Some(std::mem::replace(&mut self.vals[at], value)),
                Err(at) => at,
            }
        };
        self.ids.insert(at, id);
        self.vals.insert(at, value);
        None
    }

    /// Remove `id`, returning its value.
    pub fn remove(&mut self, id: NodeId) -> Option<V> {
        let at = self.position(id).ok()?;
        self.ids.remove(at);
        Some(self.vals.remove(at))
    }

    /// Add an entry made by `make` for every id of the strictly ascending
    /// `ids` that the run lacks, in one merge; returns how many were added.
    pub fn insert_all(&mut self, ids: &[NodeId], mut make: impl FnMut(NodeId) -> V) -> usize {
        debug_assert!(ascending_strictly(ids), "ids must ascend");
        if ids.is_empty() {
            return 0;
        }
        let before = self.len();
        let (old_ids, old_vals) = (std::mem::take(&mut self.ids), std::mem::take(&mut self.vals));
        self.ids.reserve(before + ids.len());
        self.vals.reserve(before + ids.len());
        let mut old = old_ids.iter().copied().zip(old_vals).peekable();
        for v in union(old_ids.iter().copied(), ids.iter().copied()) {
            self.ids.push(v);
            self.vals.push(old.next_if(|e| e.0 == v).map_or_else(|| make(v), |e| e.1));
        }
        self.len() - before
    }

    /// Set the value of every entry of `run`, replacing the value of each
    /// id this run already holds: two merge walks however they overlap.
    pub fn put_all(&mut self, run: IdRun<V>) {
        self.remove_all(run.iter());
        let mut vals = run.vals.into_iter();
        self.insert_all(&run.ids, |_| vals.next().expect("one value per id"));
    }

    /// Drop every id the ascending `ids` list, in one walk.
    pub fn remove_all(&mut self, ids: impl IntoIterator<Item = NodeId>) {
        let mut listed = ids.into_iter().peekable();
        if listed.peek().is_none() {
            return;
        }
        self.retain(|v, _| {
            while listed.next_if(|&u| u < v).is_some() {}
            listed.peek() != Some(&v)
        });
    }

    /// Keep only the entries `keep` accepts, visited in id order.
    pub fn retain(&mut self, mut keep: impl FnMut(NodeId, &mut V) -> bool) {
        let mut kept = 0;
        for at in 0..self.ids.len() {
            if keep(self.ids[at], &mut self.vals[at]) {
                self.ids.swap(kept, at);
                self.vals.swap(kept, at);
                kept += 1;
            }
        }
        self.truncate(kept);
    }

    /// Keep only the `len` smallest ids (the adversary's budget clamp).
    pub fn truncate(&mut self, len: usize) {
        self.ids.truncate(len);
        self.vals.truncate(len);
    }
}

impl IdSet {
    /// The empty set (no node blocked).
    pub fn none() -> Self {
        Self::default()
    }

    /// Exactly the given ids. (Shadows the `FromIterator` method by design
    /// — both behave identically.)
    #[allow(clippy::should_implement_trait)]
    pub fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        Self::from(iter.into_iter().collect::<Vec<_>>())
    }

    /// Replace the contents with exactly the given ids, keeping the
    /// allocation. Input that already ascends strictly (a merge walk, a
    /// filtered sorted list) costs one comparison per id; anything else is
    /// sorted and deduplicated.
    pub fn assign<I: IntoIterator<Item = NodeId>>(&mut self, iter: I) {
        let mut ids = std::mem::take(&mut self.ids);
        ids.clear();
        ids.extend(iter);
        *self = Self::from(ids);
    }

    /// Add an id: an append when it is the new maximum, a shifting insert
    /// otherwise. Returns whether the id was new.
    pub fn insert(&mut self, id: NodeId) -> bool {
        self.put(id, ()).is_none()
    }

    /// Add every id of `other`, by one merge of the two ascending runs.
    pub fn union_with(&mut self, other: &IdSet) {
        if !other.is_empty() {
            let mine = std::mem::take(&mut self.ids);
            self.ids.reserve(mine.len() + other.len());
            self.ids.extend(union(mine, other.iter()));
            self.vals.resize(self.ids.len(), ());
        }
    }

    /// The ids, ascending and without duplicates.
    pub fn as_slice(&self) -> &[NodeId] {
        &self.ids
    }

    /// The fraction of `n` nodes this set holds.
    pub fn fraction_of(&self, n: usize) -> f64 {
        if n == 0 {
            0.0
        } else {
            self.len() as f64 / n as f64
        }
    }

    /// Check the adversary's budget: at most `floor(r * n)` nodes blocked.
    ///
    /// The bound is exact in the integers — an `r`-bounded adversary may
    /// block an `r`-fraction of the nodes, and a fraction of nodes is a
    /// whole number — matching the `floor` budget [`crate::NodeId`]-level
    /// adversaries actually spend.
    pub fn within_bound(&self, r: f64, n: usize) -> bool {
        self.len() <= (r * n as f64).floor() as usize
    }
}

/// Takes the vector's allocation: sorted and deduplicated in place unless
/// it already ascends strictly.
impl From<Vec<NodeId>> for IdSet {
    fn from(mut ids: Vec<NodeId>) -> Self {
        if !ascending_strictly(&ids) {
            ids.sort_unstable();
            ids.dedup();
        }
        let vals = vec![(); ids.len()];
        Self { ids, vals }
    }
}

impl FromIterator<NodeId> for IdSet {
    fn from_iter<I: IntoIterator<Item = NodeId>>(iter: I) -> Self {
        IdSet::from_iter(iter)
    }
}

fn ascending_strictly(ids: &[NodeId]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

/// `ids` ascending and without repeats: borrowed when they already are.
pub fn ascending(ids: &[NodeId]) -> Cow<'_, [NodeId]> {
    if ascending_strictly(ids) {
        Cow::Borrowed(ids)
    } else {
        Cow::Owned(IdSet::from(ids.to_vec()).ids)
    }
}

/// The union of two strictly ascending id runs, strictly ascending, one id
/// per step: the one-pass set algebra of the round (`adversary ∪ down ∪
/// desynced` is two of these nested). Ids present in both come out once.
pub fn union(
    a: impl IntoIterator<Item = NodeId>,
    b: impl IntoIterator<Item = NodeId>,
) -> impl Iterator<Item = NodeId> {
    let (mut a, mut b) = (a.into_iter().peekable(), b.into_iter().peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(&x), Some(&y)) => {
            if x <= y {
                a.next();
            }
            if y <= x {
                b.next();
            }
            Some(x.min(y))
        }
        (Some(_), None) => a.next(),
        (None, _) => b.next(),
    })
}

/// The ids of the strictly ascending run `a` that the strictly ascending
/// run `b` does not list, in order: `members − down` by one two-cursor
/// walk instead of a probe per member.
pub fn difference(
    a: impl IntoIterator<Item = NodeId>,
    b: impl IntoIterator<Item = NodeId>,
) -> impl Iterator<Item = NodeId> {
    let mut b = b.into_iter().peekable();
    a.into_iter().filter(move |&x| {
        while b.next_if(|&y| y < x).is_some() {}
        b.peek() != Some(&x)
    })
}

#[cfg(test)]
mod props;
