//! The plain random-walk sampler — the state of the art Section 3 improves
//! upon exponentially (cf. Das Sarma et al. and the lower bound of
//! Nanongkai et al., discussed in Section 1.2).
//!
//! Every node launches `k` tokens; each token performs a simple random
//! walk of length `t = ceil(2 alpha log_{d/4} n)` (the mixing length of
//! Lemma 2), one hop per communication round. The final holder reports its
//! id back to the origin in one extra round. Total: `t + 1 = Theta(log n)`
//! rounds, versus Algorithm 1's `2 log2(t) + 1 = Theta(log log n)`.

use super::envelope::Envelope;
use crate::config::SamplingParams;
use crate::metrics::SamplingMetrics;
use overlay_graphs::HGraph;
use rand::RngExt;
use simnet::{Ctx, NodeId, Payload, Protocol};
use telemetry::Telemetry;

/// Messages of the baseline sampler.
#[derive(Clone, Debug)]
pub enum WalkMsg {
    /// A walking token: who launched it and how many hops remain.
    Token { origin: NodeId, remaining: u32 },
    /// Walk finished; the endpoint reports itself to the origin.
    Result { endpoint: NodeId },
}

impl Payload for WalkMsg {
    fn size_bits(&self) -> u64 {
        match self {
            WalkMsg::Token { .. } => 8 + NodeId::SIZE_BITS + 32,
            WalkMsg::Result { .. } => 8 + NodeId::SIZE_BITS,
        }
    }
}

/// Per-node state of the baseline sampler.
pub struct BaselineNode {
    neighbors: Vec<NodeId>,
    tokens_to_launch: usize,
    walk_length: u32,
    /// Uniform samples received back so far.
    pub results: Vec<NodeId>,
}

impl BaselineNode {
    /// A node launching `k` tokens of the given walk length.
    pub fn new(neighbors: Vec<NodeId>, k: usize, walk_length: u32) -> Self {
        assert!(!neighbors.is_empty());
        Self { neighbors, tokens_to_launch: k, walk_length, results: Vec::with_capacity(k) }
    }

    fn random_neighbor(&self, rng: &mut simnet::NodeRng) -> NodeId {
        self.neighbors[rng.random_range(0..self.neighbors.len())]
    }
}

impl Protocol for BaselineNode {
    type Msg = WalkMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, WalkMsg>) {
        if ctx.round() == 0 {
            let me = ctx.me();
            for _ in 0..self.tokens_to_launch {
                let first = self.random_neighbor(ctx.rng());
                let msg = WalkMsg::Token { origin: me, remaining: self.walk_length - 1 };
                ctx.send(first, msg);
            }
            self.tokens_to_launch = 0;
            return;
        }
        let inbox = ctx.take_inbox();
        let me = ctx.me();
        for env in inbox {
            match env.msg {
                WalkMsg::Token { origin, remaining } => {
                    if remaining == 0 {
                        ctx.send(origin, WalkMsg::Result { endpoint: me });
                    } else {
                        let next = self.random_neighbor(ctx.rng());
                        ctx.send(next, WalkMsg::Token { origin, remaining: remaining - 1 });
                    }
                }
                WalkMsg::Result { endpoint } => self.results.push(endpoint),
            }
        }
    }
}

/// Run the baseline sampler: every node of `graph` launches
/// `beta log n` tokens walking for the Lemma 2 mixing length. Returns the
/// per-node samples and metrics (note `rounds = Theta(log n)`), and folds
/// the run's telemetry into `tel`.
pub fn run_baseline_observed(
    graph: &HGraph,
    params: &SamplingParams,
    seed: u64,
    tel: &Telemetry,
) -> (Vec<(NodeId, Vec<NodeId>)>, SamplingMetrics) {
    let n = graph.len();
    let k = params.samples_needed(n);
    let t = params.walk_length(n, graph.degree()).max(1) as u32;
    // t hop-rounds + 1 result round + 1 to process the final delivery.
    let (out, metrics, _) = Envelope { tel, n, rounds: t as u64 + 2, iterations: t as usize }
        .simulate(
            seed,
            None,
            graph.nodes().iter().map(|&v| (v, BaselineNode::new(graph.neighbors(v), k, t))),
            |node: &BaselineNode| (node.results.clone(), 0),
            format!("baseline n={n} walk={t}"),
            |_| format!("baseline n={n}"),
        );
    (out, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn graph(n: u64, seed: u64) -> HGraph {
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        HGraph::random(&nodes, 8, &mut rng)
    }

    #[test]
    fn every_token_comes_home() {
        let g = graph(64, 1);
        let p = SamplingParams::default();
        let (samples, metrics) = run_baseline_observed(&g, &p, 2, &Telemetry::disabled());
        let k = p.samples_needed(64);
        for (_, s) in &samples {
            assert_eq!(s.len(), k, "all launched tokens must return");
        }
        assert_eq!(metrics.samples_per_node, k);
    }

    #[test]
    fn baseline_needs_logarithmically_many_rounds() {
        let p = SamplingParams::default();
        let (_, m1) = run_baseline_observed(&graph(32, 3), &p, 1, &Telemetry::disabled());
        let (_, m2) = run_baseline_observed(&graph(256, 4), &p, 1, &Telemetry::disabled());
        // 8x nodes: walk length grows by a constant factor (log n), much
        // more than the <= 2 extra rounds of Algorithm 1.
        assert!(m2.rounds >= m1.rounds + 4, "{} vs {}", m2.rounds, m1.rounds);
    }

    #[test]
    fn endpoints_spread_over_the_graph() {
        let g = graph(32, 5);
        let p = SamplingParams::default();
        let (samples, _) = run_baseline_observed(&g, &p, 7, &Telemetry::disabled());
        let mut seen = std::collections::HashSet::new();
        for (_, s) in &samples {
            seen.extend(s.iter().copied());
        }
        assert!(seen.len() >= 28, "coverage {}", seen.len());
    }
}
