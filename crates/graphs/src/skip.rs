//! A skip graph (Aspnes–Wieder style), used as the *routing-based
//! reconfiguration baseline* of Section 1.2.
//!
//! The paper's related-work discussion sketches the natural alternative to
//! rapid node sampling: keep the nodes in a skip graph over labels chosen
//! uniformly from `[0, 1)`; to reconfigure, every node draws a fresh label
//! and **routes** a message through the old skip graph to the node closest
//! to its new label, after which the new skip graph is wired in `O(log n)`
//! rounds. The routing dominates: with polylogarithmic degree it cannot
//! beat `o(log n / log log n)` rounds — exponentially slower than
//! Algorithm 3's `O(log log n)`. Experiment A3 measures exactly this gap.
//!
//! Nodes carry a position label (sorted order) and a random membership
//! vector; level `i` links nodes sharing their first `i` membership bits
//! into doubly linked lists ordered by label.

use crate::connectivity::Adjacency;
use rand::{Rng, RngExt};
use simnet::{IdRun, NodeId};
use std::collections::HashMap;

/// A static skip graph over a labeled node set. Nodes are held by their
/// position in label order; links name positions.
#[derive(Clone, Debug)]
pub struct SkipGraph {
    /// Nodes in ascending label order.
    order: Vec<NodeId>,
    /// The label of each position, ascending.
    label: Vec<u64>,
    /// Each node's position in `order`.
    at: IdRun<usize>,
    /// `(predecessor, successor)` per position and level, `levels` per
    /// position.
    links: Vec<(Option<usize>, Option<usize>)>,
    levels: usize,
}

impl SkipGraph {
    /// Build a skip graph over `nodes` with uniformly random labels and
    /// membership vectors. `levels = ceil(log2 n) + 1`.
    pub fn build<R: Rng + ?Sized>(nodes: &[NodeId], rng: &mut R) -> Self {
        assert!(nodes.len() >= 2, "a skip graph needs at least 2 nodes");
        let n = nodes.len();
        let levels = (usize::BITS - (n - 1).leading_zeros()) as usize + 1;
        // `(label, id, membership vector)`, drawn label first, in `nodes`
        // order. Distinct labels w.h.p.; collisions are broken by node id
        // in the sort below, which is equivalent to label perturbation.
        let mut drawn: Vec<(u64, NodeId, u64)> =
            nodes.iter().map(|&v| (rng.random::<u64>(), v, rng.random::<u64>())).collect();
        drawn.sort_by_key(|&(label, v, _)| (label, v));
        let order: Vec<NodeId> = drawn.iter().map(|d| d.1).collect();
        let at = order.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let at = IdRun::from_unsorted(at).expect("skip graph nodes are distinct");

        let mut links = vec![(None, None); n * levels];
        for lvl in 0..levels {
            // Nodes sharing their first `lvl` membership bits form a list;
            // `tail` holds each list's last position so far.
            let mask = if lvl == 0 { 0 } else { (1u64 << lvl) - 1 };
            let mut tail: HashMap<u64, usize> = HashMap::new();
            for (i, d) in drawn.iter().enumerate() {
                if let Some(p) = tail.insert(d.2 & mask, i) {
                    links[p * levels + lvl].1 = Some(i);
                    links[i * levels + lvl].0 = Some(p);
                }
            }
        }
        let label = drawn.iter().map(|d| d.0).collect();
        Self { order, label, at, links, levels }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// True if fewer than 2 nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Number of levels.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// The position of `v` in label order.
    fn position(&self, v: NodeId) -> usize {
        *self.at.get(v).expect("node of the skip graph")
    }

    /// The links of the node at position `i`, one per level.
    fn links(&self, i: usize) -> &[(Option<usize>, Option<usize>)] {
        &self.links[i * self.levels..(i + 1) * self.levels]
    }

    /// The position label of `v`.
    pub fn label_of(&self, v: NodeId) -> u64 {
        self.label[self.position(v)]
    }

    /// All distinct neighbors of `v` across levels.
    pub fn neighbors(&self, v: NodeId) -> Vec<NodeId> {
        let links = self.links(self.position(v)).iter().flat_map(|&(p, s)| [p, s]);
        let mut out: Vec<NodeId> = links.flatten().map(|i| self.order[i]).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Maximum degree over all nodes (should be `O(log n)`).
    pub fn max_degree(&self) -> usize {
        self.order.iter().map(|&v| self.neighbors(v).len()).max().unwrap_or(0)
    }

    /// The position whose label is closest to `target` (ties toward the
    /// smaller label).
    fn closest_position(&self, target: u64) -> usize {
        let idx = self.label.partition_point(|&l| l < target);
        let candidates = [idx.checked_sub(1), Some(idx.min(self.order.len() - 1))];
        candidates
            .into_iter()
            .flatten()
            .min_by_key(|&i| self.label[i].abs_diff(target))
            .expect("non-empty")
    }

    /// The node whose label is closest to `target` (ties toward the
    /// smaller label).
    pub fn closest(&self, target: u64) -> NodeId {
        self.order[self.closest_position(target)]
    }

    /// Greedy route from `from` toward the node closest to `target`:
    /// at each hop, move to the neighbor whose label is closest to the
    /// target without overshooting past it (classic skip-graph search).
    /// Returns the hop sequence including the start node.
    pub fn route(&self, from: NodeId, target: u64) -> Vec<NodeId> {
        let goal = self.closest_position(target);
        let goal_label = self.label[goal];
        let mut path = vec![from];
        let mut cur = self.position(from);
        while cur != goal {
            let going_right = self.label[cur] < goal_label;
            let links = self.links(cur);
            // Highest-level neighbor in the right direction that does not
            // overshoot the goal.
            let next = links.iter().rev().find_map(|&(p, s)| {
                let w = if going_right { s } else { p }?;
                let ok = if going_right {
                    self.label[w] <= goal_label
                } else {
                    self.label[w] >= goal_label
                };
                ok.then_some(w)
            });
            cur = next.unwrap_or_else(|| {
                // Fall back to the level-0 list (always makes progress).
                let (p, s) = links[0];
                if going_right {
                    s.expect("goal is to the right")
                } else {
                    p.expect("goal is to the left")
                }
            });
            path.push(self.order[cur]);
            assert!(path.len() <= self.len(), "routing did not converge");
        }
        path
    }

    /// Undirected adjacency over all levels (for connectivity/spectral
    /// checks — a skip graph over random labels is an expander w.h.p.).
    pub fn adjacency(&self) -> Adjacency {
        let mut edges = Vec::new();
        for &v in &self.order {
            for w in self.neighbors(v) {
                if v < w {
                    edges.push((v, w));
                }
            }
        }
        Adjacency::from_edges(&self.order, &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn build(n: u64, seed: u64) -> SkipGraph {
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        SkipGraph::build(&nodes, &mut rng)
    }

    #[test]
    fn level_zero_is_one_list() {
        let g = build(64, 1);
        assert!(crate::connectivity::is_connected(&g.adjacency()));
    }

    #[test]
    fn degree_is_logarithmic() {
        let g = build(256, 2);
        let d = g.max_degree();
        assert!(d <= 4 * 9, "degree {d} too large for n = 256");
        assert!(d >= 2);
    }

    #[test]
    fn closest_finds_nearest_label() {
        let g = build(32, 3);
        for probe in [0u64, u64::MAX / 3, u64::MAX] {
            let c = g.closest(probe);
            let best = (0..32).map(NodeId).min_by_key(|v| g.label_of(*v).abs_diff(probe)).unwrap();
            assert_eq!(g.label_of(c).abs_diff(probe), g.label_of(best).abs_diff(probe));
        }
    }

    #[test]
    fn routing_reaches_the_closest_node() {
        let g = build(128, 4);
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..50 {
            let from = NodeId(rng.random_range(0..128));
            let target = rng.random::<u64>();
            let path = g.route(from, target);
            assert_eq!(*path.last().unwrap(), g.closest(target));
            // consecutive hops are skip-graph edges
            for w in path.windows(2) {
                assert!(g.neighbors(w[0]).contains(&w[1]), "non-edge hop");
            }
        }
    }

    #[test]
    fn route_length_is_logarithmic() {
        let g = build(512, 6);
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut worst = 0usize;
        for _ in 0..100 {
            let from = NodeId(rng.random_range(0..512));
            let path = g.route(from, rng.random::<u64>());
            worst = worst.max(path.len() - 1);
        }
        // O(log n) hops w.h.p.: allow a generous constant.
        assert!(worst <= 6 * 9, "worst route {worst} too long for n = 512");
        assert!(worst >= 2, "worst route suspiciously short");
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn singleton_rejected() {
        let nodes = vec![NodeId(0)];
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        SkipGraph::build(&nodes, &mut rng);
    }
}
