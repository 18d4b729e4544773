//! Groups of representatives over a k-ary hypercube of supernodes — the
//! straightforward extension of the Section 5 reconfiguration procedure
//! that Section 7.2 calls for.

use overlay_graphs::KaryHypercube;
use rand::{Rng, RngExt};
use simnet::{idrun, BlockSet, NodeId};

/// Node groups keyed by k-ary hypercube supernode.
#[derive(Clone, Debug)]
pub struct KaryGroups {
    cube: KaryHypercube,
    groups: Vec<Vec<NodeId>>,
    /// Every node once, ascending: the order [`KaryGroups::resample`]
    /// draws in.
    nodes: Vec<NodeId>,
}

impl KaryGroups {
    /// Choose the k-ary cube so that `k^d <= n / (c log2 n)` with the
    /// RoBuSt shape `d ~ k / log k`, then assign every node to a uniform
    /// random supernode.
    pub fn random<R: Rng + ?Sized>(nodes: &[NodeId], c: f64, rng: &mut R) -> Self {
        let n = nodes.len();
        assert!(n >= 16, "k-ary group overlay needs at least 16 nodes");
        let target = (n as f64 / (c * (n as f64).log2())).max(2.0);
        // kappa = log2(target); robust_params picks k, d from it.
        let kappa = (target.log2().floor() as u32).max(4);
        let mut cube = KaryHypercube::robust_params(kappa);
        // Shrink if rounding overshot the target population.
        while cube.len() as f64 > 2.0 * target && cube.dim() > 1 {
            cube = KaryHypercube::new(cube.k(), cube.dim() - 1);
        }
        let mut groups = vec![Vec::new(); cube.len() as usize];
        for &v in nodes {
            groups[rng.random_range(0..cube.len()) as usize].push(v);
        }
        let nodes = idrun::ascending(nodes).into_owned();
        Self { cube, groups, nodes }
    }

    /// The supernode cube.
    pub fn cube(&self) -> &KaryHypercube {
        &self.cube
    }

    /// All groups, indexed by supernode label.
    pub fn groups(&self) -> &[Vec<NodeId>] {
        &self.groups
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The *home supernode* of a server: a fixed hash of its id. Requests
    /// for server `v` are routed to `R(home(v))`, which then talks to `v`
    /// directly — this is what makes data movement unnecessary.
    pub fn home_supernode(&self, v: NodeId) -> u64 {
        // SplitMix-style hash onto the supernode space.
        let mut x = v.raw().wrapping_add(0x9E37_79B9_7F4A_7C15);
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (x ^ (x >> 31)) % self.cube.len()
    }

    /// Does supernode `x`'s group have a non-blocked member?
    pub fn has_unblocked_member(&self, x: u64, blocked: &BlockSet) -> bool {
        self.groups[x as usize].iter().any(|v| !blocked.contains(*v))
    }

    /// Resample all assignments uniformly (the epoch-boundary
    /// reconfiguration of Lemma 15 carried over to the k-ary cube).
    ///
    /// Nodes draw their new supernode in ascending id order, whatever
    /// order they were handed over in: two same-seed overlays must agree
    /// at every epoch boundary (the workload replay determinism test
    /// compares exactly that).
    pub fn resample<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for g in self.groups.iter_mut() {
            g.clear();
        }
        for &v in &self.nodes {
            self.groups[rng.random_range(0..self.cube.len()) as usize].push(v);
        }
    }

    /// Smallest and largest group size.
    pub fn group_size_range(&self) -> (usize, usize) {
        let min = self.groups.iter().map(Vec::len).min().unwrap_or(0);
        let max = self.groups.iter().map(Vec::len).max().unwrap_or(0);
        (min, max)
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
    fn every_node_assigned_once() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let g = KaryGroups::random(&nodes(1000), 2.0, &mut rng);
        assert_eq!(g.len(), 1000);
        let total: usize = g.groups().iter().map(Vec::len).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn supernode_count_tracks_n_over_log() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let g = KaryGroups::random(&nodes(4096), 2.0, &mut rng);
        let target = 4096.0 / (2.0 * (4096f64).log2());
        let count = g.cube().len() as f64;
        assert!(count <= 2.0 * target, "supernodes {count} vs target {target}");
        assert!(count >= target / 8.0, "supernodes {count} vs target {target}");
    }

    #[test]
    fn home_supernode_is_stable_and_in_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let g = KaryGroups::random(&nodes(256), 2.0, &mut rng);
        for v in nodes(256) {
            let h1 = g.home_supernode(v);
            let h2 = g.home_supernode(v);
            assert_eq!(h1, h2);
            assert!(h1 < g.cube().len());
        }
    }

    #[test]
    fn resample_changes_groups_but_keeps_population() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut g = KaryGroups::random(&nodes(512), 2.0, &mut rng);
        let before = g.groups().to_vec();
        g.resample(&mut rng);
        assert_ne!(g.groups().to_vec(), before);
        assert_eq!(g.len(), 512);
    }
}
