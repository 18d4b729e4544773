//! Split/merge machinery for variable-dimension supernodes.

use overlay_graphs::prefix::{Label, PrefixCover};
use rand::{Rng, RngExt};
use simnet::NodeId;
use std::collections::BTreeMap;

/// The group-size band of Equation 1 with the paper's split/merge rules:
/// `x` splits if `|R(x)| > 2 c d(x)` and merges if `|R(x)| < c d(x) - c`
/// (both strict). The *stable* set is therefore the closed band
/// `[c d(x) - c, 2 c d(x)]` — using the open band as the stability
/// criterion livelocks at the boundary size `2 c d(x)`, whose split
/// children land exactly on the merge threshold and re-merge.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SizeBand {
    /// The positive constant `c`.
    pub c: usize,
}

impl SizeBand {
    /// A supernode of dimension `dim` splits when its group size strictly
    /// exceeds `2 c d(x)`.
    pub fn split_at(&self, dim: u8) -> usize {
        2 * self.c * dim as usize
    }

    /// A supernode of dimension `dim` merges when its group size falls
    /// strictly below `c d(x) - c`.
    pub fn merge_at(&self, dim: u8) -> usize {
        (self.c * dim as usize).saturating_sub(self.c)
    }

    /// Whether `size` is stable (neither split nor merge fires).
    pub fn ok(&self, dim: u8, size: usize) -> bool {
        size >= self.merge_at(dim) && size <= self.split_at(dim)
    }
}

/// The dimension `d` the Lemma 18 proof works with: the unique integer
/// with `2^d * 2cd < n <= 2^(d+1) * 2c(d+1)`.
pub fn target_dim(n: usize, c: usize) -> u8 {
    assert!(n > 4 * c, "population too small for any supernode");
    let mut d = 1u8;
    while (1u64 << (d + 1)) * 2 * c as u64 * (d as u64 + 1) < n as u64 {
        d += 1;
        assert!(d < 60, "dimension runaway");
    }
    d
}

/// Groups of representatives keyed by prefix-free supernode labels, with
/// split and merge restoring the Equation 1 band.
#[derive(Clone, Debug)]
pub struct LabeledGroups {
    cover: PrefixCover,
    groups: BTreeMap<Label, Vec<NodeId>>,
}

impl LabeledGroups {
    /// Assign every node a label of the cover `uniform(dim)` uniformly at
    /// random.
    pub fn random<R: Rng + ?Sized>(nodes: &[NodeId], dim: u8, rng: &mut R) -> Self {
        let cover = PrefixCover::uniform(dim);
        let mut groups: BTreeMap<Label, Vec<NodeId>> =
            cover.iter().map(|&l| (l, Vec::new())).collect();
        for &v in nodes {
            let l = cover.sample(rng);
            groups.get_mut(&l).expect("sampled label is in cover").push(v);
        }
        Self { cover, groups }
    }

    /// Rebuild from an explicit assignment over an existing cover.
    pub fn from_assignment(cover: PrefixCover, assign: &[(NodeId, Label)]) -> Self {
        let mut groups: BTreeMap<Label, Vec<NodeId>> =
            cover.iter().map(|&l| (l, Vec::new())).collect();
        for &(v, l) in assign {
            groups.get_mut(&l).expect("label must be in the cover").push(v);
        }
        Self { cover, groups }
    }

    /// The label cover.
    pub fn cover(&self) -> &PrefixCover {
        &self.cover
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.groups.values().map(Vec::len).sum()
    }

    /// True when no nodes are assigned.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The group of a label.
    pub fn group(&self, l: &Label) -> &[NodeId] {
        self.groups.get(l).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Iterate over `(label, group)` in label order. Groups live in a
    /// `BTreeMap` so the order — and therefore the RNG consumption order
    /// of everything that walks the groups — is stable across processes
    /// (deterministic replay).
    pub fn iter(&self) -> impl Iterator<Item = (&Label, &Vec<NodeId>)> {
        self.groups.iter()
    }

    /// All member nodes.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.groups.values().flatten().copied().collect()
    }

    /// Remove a node from whichever group holds it (self-healing
    /// eviction). Returns false if the node is not a member. The label
    /// cover is left untouched — mid-epoch departures do not re-shape
    /// supernodes; the next reconfiguration's split/merge pass restores
    /// the Equation 1 band.
    pub fn remove(&mut self, v: NodeId) -> bool {
        for g in self.groups.values_mut() {
            if let Some(i) = g.iter().position(|&u| u == v) {
                g.remove(i);
                return true;
            }
        }
        false
    }

    /// Split supernode `l`: its members are divided uniformly at random
    /// between the two children (the paper's split operation).
    pub fn split<R: Rng + ?Sized>(&mut self, l: Label, rng: &mut R) {
        let members = self.groups.remove(&l).expect("split of unknown label");
        let (c0, c1) = self.cover.split(l);
        let mut g0 = Vec::with_capacity(members.len() / 2 + 1);
        let mut g1 = Vec::with_capacity(members.len() / 2 + 1);
        for v in members {
            if rng.random::<bool>() {
                g1.push(v);
            } else {
                g0.push(v);
            }
        }
        self.groups.insert(c0, g0);
        self.groups.insert(c1, g1);
    }

    /// Merge supernode `l` with its sibling, forcing the sibling's subtree
    /// to merge first if it was split deeper (the paper's forced merge).
    pub fn merge(&mut self, l: Label) {
        let sib = l.sibling();
        // If the sibling was split deeper, merge its subtree bottom-up
        // until it exists: the deepest label under `sib` always has its
        // own sibling present (the cover is exact), so pairs align.
        while !self.cover.contains(&sib) {
            let deepest = *self
                .cover
                .iter()
                .filter(|x| sib.is_prefix_of(x))
                .max_by_key(|x| x.dim())
                .expect("subtree of a missing sibling is non-empty");
            self.merge_pair(deepest);
        }
        self.merge_pair(l);
    }

    /// Merge `l` with its (present) sibling into the parent.
    fn merge_pair(&mut self, l: Label) {
        let sib = l.sibling();
        let mut a = self.groups.remove(&l).expect("merge of unknown label");
        let b = self.groups.remove(&sib).expect("sibling group exists");
        a.extend(b);
        let p = self.cover.merge(l);
        self.groups.insert(p, a);
    }

    /// Run split/merge until every group satisfies Equation 1's band, or
    /// report the label that cannot be fixed (a too-small total population
    /// can make the band unsatisfiable at dimension 1).
    pub fn rebalance<R: Rng + ?Sized>(
        &mut self,
        band: SizeBand,
        rng: &mut R,
    ) -> Result<u32, Label> {
        let mut ops = 0u32;
        loop {
            let violator = self
                .groups
                .iter()
                .filter(|(l, g)| !band.ok(l.dim(), g.len()))
                .map(|(l, g)| (*l, g.len()))
                .min_by_key(|(l, _)| (l.dim(), l.prefix_bits(l.dim())));
            let Some((l, size)) = violator else { return Ok(ops) };
            ops += 1;
            assert!(ops < 100_000, "rebalance did not converge");
            if size > band.split_at(l.dim()) {
                if l.dim() >= Label::MAX_LEN - 1 {
                    return Err(l);
                }
                self.split(l, rng);
            } else {
                debug_assert!(l.dim() > 0, "the root never merges (merge_at(0) = 0)");
                self.merge(l);
            }
        }
    }

    /// Lemma 18's invariants: dimension spread at most 2, and (loosely)
    /// `0.5 log2 n < d(x) < log2 n + 2` for every supernode.
    pub fn lemma18_holds(&self) -> bool {
        let Some((min_d, max_d)) = self.cover.dim_range() else { return false };
        if max_d - min_d > 2 {
            return false;
        }
        let n = self.len().max(2) as f64;
        let logn = n.log2();
        (min_d as f64) > 0.25 * logn - 2.0 && (max_d as f64) < logn + 2.0
    }

    /// Group-size range.
    pub fn size_range(&self) -> (usize, usize) {
        let min = self.groups.values().map(Vec::len).min().unwrap_or(0);
        let max = self.groups.values().map(Vec::len).max().unwrap_or(0);
        (min, max)
    }
}

simnet::checkpoint_schema! {
    SizeBand {
        fields { c }
    }
}

impl simnet::Checkpoint for LabeledGroups {
    fn save(&self) -> serde_json::Value {
        // `(label, members)` pairs in BTreeMap order; member order within a
        // group is preserved verbatim. The cover is exactly the label set.
        let entries: Vec<serde_json::Value> = self
            .groups
            .iter()
            .map(|(l, g)| {
                serde_json::json!({ "label": l.save(), "members": simnet::checkpoint::save_slice(g) })
            })
            .collect();
        serde_json::Value::Array(entries)
    }
    fn load(v: &serde_json::Value) -> simnet::CkptResult<Self> {
        use simnet::checkpoint::{get, missing};
        let entries = v.as_array().ok_or_else(|| missing("labeled groups"))?;
        let mut groups: BTreeMap<Label, Vec<NodeId>> = BTreeMap::new();
        for e in entries {
            let l: Label = get(e, "label")?;
            let members: Vec<NodeId> = get(e, "members")?;
            if groups.insert(l, members).is_some() {
                return Err(simnet::CkptError::Corrupt(format!("duplicate label {l:?}")));
            }
        }
        let cover = PrefixCover::from_labels(groups.keys().copied());
        if !cover.is_exact_cover() {
            return Err(simnet::CkptError::Corrupt(
                "labels do not form an exact prefix cover".into(),
            ));
        }
        Ok(Self { cover, groups })
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
    fn band_boundaries_follow_the_strict_rules() {
        let band = SizeBand { c: 4 };
        // dim 3: split above 24, merge below 8; [8, 24] is stable.
        assert!(!band.ok(3, 7));
        assert!(band.ok(3, 8));
        assert!(band.ok(3, 24));
        assert!(!band.ok(3, 25));
    }

    #[test]
    fn target_dim_is_logarithmic() {
        let d1 = target_dim(1 << 10, 4);
        let d2 = target_dim(1 << 20, 4);
        assert!(d2 > d1);
        assert!((d2 - d1) as i32 >= 8, "doubling the exponent should nearly double d");
    }

    #[test]
    fn split_partitions_members() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut lg = LabeledGroups::random(&nodes(200), 2, &mut rng);
        let l = *lg.cover().iter().next().unwrap();
        let before = lg.group(&l).len();
        lg.split(l, &mut rng);
        let (c0, c1) = (l.child(0), l.child(1));
        assert_eq!(lg.group(&c0).len() + lg.group(&c1).len(), before);
        assert!(lg.cover().is_exact_cover());
        assert_eq!(lg.len(), 200);
    }

    #[test]
    fn merge_absorbs_sibling() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut lg = LabeledGroups::random(&nodes(100), 3, &mut rng);
        let l = Label::new(0b010, 3);
        let total = lg.group(&l).len() + lg.group(&l.sibling()).len();
        lg.merge(l);
        assert_eq!(lg.group(&l.parent()).len(), total);
        assert!(lg.cover().is_exact_cover());
    }

    #[test]
    fn forced_merge_collapses_deeper_sibling_subtree() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let mut lg = LabeledGroups::random(&nodes(100), 2, &mut rng);
        // Split sibling of 01 (i.e. 00) twice so it is deeper.
        lg.split(Label::new(0b00, 2), &mut rng);
        lg.split(Label::new(0b000, 3), &mut rng);
        assert!(!lg.cover().contains(&Label::new(0b00, 2)));
        // Merging 01 must force 00's subtree back together first.
        lg.merge(Label::new(0b01, 2));
        assert!(lg.cover().contains(&Label::new(0b0, 1)));
        assert!(lg.cover().is_exact_cover());
        assert_eq!(lg.len(), 100);
    }

    #[test]
    fn rebalance_restores_the_band() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let band = SizeBand { c: 4 };
        let n = 2000u64;
        let dim = target_dim(n as usize, band.c);
        // Start deliberately coarse: dimension dim - 2 (oversized groups).
        let mut lg = LabeledGroups::random(&nodes(n), dim.saturating_sub(2).max(1), &mut rng);
        let ops = lg.rebalance(band, &mut rng).expect("rebalance succeeds");
        assert!(ops > 0);
        for (l, g) in lg.iter() {
            assert!(band.ok(l.dim(), g.len()), "group {l:?} size {} out of band", g.len());
        }
        assert!(lg.lemma18_holds(), "dim range {:?}", lg.cover().dim_range());
        assert_eq!(lg.len(), n as usize);
    }

    #[test]
    fn boundary_size_does_not_livelock() {
        // Exactly 2*c*d members at one supernode: under the strict rules
        // this is stable (no split fires), so rebalance terminates with
        // zero operations.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let band = SizeBand { c: 4 };
        let cover = PrefixCover::uniform(2);
        let assign: Vec<(NodeId, Label)> = nodes(4 * 16)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, Label::new(i as u64 % 4, 2)))
            .collect();
        let mut lg = LabeledGroups::from_assignment(cover, &assign);
        // Every group has 16 = 2 * 4 * 2 members: exactly split_at(2).
        let ops = lg.rebalance(band, &mut rng).expect("stable");
        assert_eq!(ops, 0);
    }
}
