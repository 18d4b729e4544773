//! Algorithm 2: rapid node sampling in the hypercube.
//!
//! Each node `u` of the `d`-dimensional hypercube (`d = log2 n`, a power of
//! two) keeps one multiset `M_j` per coordinate `j in 1..=d`. Phase 1
//! fills every `M_j` with `m_0` entries, each being `n_j(u)` or `u` by a
//! fair coin — i.e. endpoints of one-round token walks along coordinate
//! `j`. Iteration `i` doubles the randomized coordinate range: for every
//! `j ≡ 1 (mod 2^i)` the node pops `m_i` entries `v` from `M_j` and asks
//! each `v` for an entry of *its* `M_{j + 2^(i-1)}`; the concatenation has
//! coordinates `j .. j + 2^i - 1` uniformly random (Lemma 8). After
//! `T = log2 d` iterations, `M_1` holds ids with *all* coordinates random:
//! exactly uniform samples (Theorem 3).
//!
//! Sizes follow Lemma 9: `m_i = (1 + eps)^(T-i) c log n`. The requester
//! pops from sets `M_j` with `j ≡ 1 (mod 2^i)` while responders pop from
//! the disjoint class `j ≡ 1 + 2^(i-1) (mod 2^i)`, which is why the slimmer
//! base `1 + eps` suffices here (compare Lemma 7's `2 + eps`).

use super::envelope::Envelope;
use super::pop;
use crate::config::{SamplingParams, Schedule};
use crate::metrics::SamplingMetrics;
use overlay_graphs::Hypercube;
use rand::RngExt;
use simnet::{Ctx, NodeId, Payload, Protocol};
use std::sync::Arc;
use telemetry::Telemetry;

/// Messages of Algorithm 2.
#[derive(Clone, Debug)]
pub enum CubeMsg {
    /// "Give me an entry of your `M_{j + 2^(i-1)}`" — `j` identifies the
    /// requester's target set; the responder derives the source set from
    /// the current iteration.
    Request { j: u16 },
    /// An endpoint for the requester's `M_j`.
    Response { id: NodeId, j: u16 },
}

impl Payload for CubeMsg {
    fn size_bits(&self) -> u64 {
        match self {
            CubeMsg::Request { .. } => 8 + 16,
            CubeMsg::Response { .. } => 8 + 16 + NodeId::SIZE_BITS,
        }
    }
}

/// Per-node state of Algorithm 2.
pub struct Alg2Node {
    schedule: Arc<Schedule>,
    cube: Hypercube,
    /// `M_1..M_d`; index `j-1` holds `M_j`.
    m: Vec<Vec<NodeId>>,
    /// Iterations completed.
    iter: usize,
    /// Pop-from-empty events.
    pub failures: u64,
    /// Final samples (`M_1` after the last iteration).
    pub samples: Option<Vec<NodeId>>,
}

impl Alg2Node {
    /// Create the node state for a node of the given hypercube.
    pub fn new(schedule: Arc<Schedule>, cube: Hypercube) -> Self {
        Self { schedule, cube, m: Vec::new(), iter: 0, failures: 0, samples: None }
    }

    /// Phase 2 of iteration `self.iter + 1`: fire requests for every
    /// active set `j ≡ 1 (mod 2^(iter+1))`.
    fn send_requests(&mut self, ctx: &mut Ctx<'_, CubeMsg>) {
        let i = self.iter + 1;
        let step = 1usize << i;
        let k = self.schedule.m_at(i);
        let me = ctx.me();
        let dim = self.cube.dim() as usize;
        let mut j = 1;
        while j <= dim {
            for _ in 0..k {
                let v = pop(&mut self.m[j - 1], &mut self.failures, me, ctx.rng());
                ctx.send(v, CubeMsg::Request { j: j as u16 });
            }
            j += step;
        }
    }
}

impl Protocol for Alg2Node {
    type Msg = CubeMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, CubeMsg>) {
        let round = ctx.round();
        if round == 0 {
            // Phase 1 (local): every M_j gets m_0 one-step token walks
            // along coordinate j.
            let m0 = self.schedule.m_at(0);
            let me = ctx.me();
            let dim = self.cube.dim();
            self.m = (1..=dim)
                .map(|j| {
                    (0..m0)
                        .map(|_| {
                            if ctx.rng().random::<bool>() {
                                NodeId(self.cube.neighbor(me.raw(), j))
                            } else {
                                me
                            }
                        })
                        .collect()
                })
                .collect();
            if self.schedule.iterations > 0 {
                self.send_requests(ctx);
            } else {
                self.samples = Some(self.m[0].clone());
            }
            return;
        }
        if self.samples.is_some() {
            return;
        }
        let inbox = ctx.take_inbox();
        if round % 2 == 1 {
            // Phase 3: responder pops from M_{j + 2^(i-1)} for iteration
            // i = iter + 1 (the iteration currently in flight).
            let half = 1usize << self.iter; // 2^(i-1)
            let me = ctx.me();
            for env in inbox {
                if let CubeMsg::Request { j } = env.msg {
                    let src = j as usize + half;
                    debug_assert!(src <= self.cube.dim() as usize);
                    let v = pop(&mut self.m[src - 1], &mut self.failures, me, ctx.rng());
                    ctx.send(env.from, CubeMsg::Response { id: v, j });
                }
            }
        } else {
            // Phase 4: clear all sets (the paper's lines 17-18 — sets not
            // refilled by responses are dead from here on), then file the
            // responses.
            for set in self.m.iter_mut() {
                set.clear();
            }
            for env in inbox {
                if let CubeMsg::Response { id, j } = env.msg {
                    self.m[j as usize - 1].push(id);
                }
            }
            self.iter += 1;
            if self.iter < self.schedule.iterations {
                self.send_requests(ctx);
            } else {
                self.samples = Some(std::mem::take(&mut self.m[0]));
            }
        }
    }
}

/// Run Algorithm 2 on a hypercube of dimension `dim` (a power of two):
/// every node samples `m_T` exactly-uniform node ids. Folds the run's
/// telemetry into `tel`.
pub fn run_alg2_observed(
    dim: u32,
    params: &SamplingParams,
    seed: u64,
    tel: &Telemetry,
) -> (Vec<(NodeId, Vec<NodeId>)>, SamplingMetrics) {
    let cube = Hypercube::new(dim);
    let schedule = Arc::new(Schedule::algorithm2(dim, params));
    let n = cube.len() as usize;
    let (rounds, iterations) = (schedule.rounds() as u64, schedule.iterations);
    let (out, metrics, _) = Envelope { tel, n, rounds, iterations }.simulate(
        seed,
        None,
        cube.vertices().map(|v| (NodeId(v), Alg2Node::new(Arc::clone(&schedule), cube))),
        |node: &Alg2Node| (node.samples.clone().expect("sampler finished"), node.failures),
        format!("alg2 dim={dim} T={iterations}"),
        |failures| format!("alg2 dim={dim} failures={failures}"),
    );
    (out, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nodes_sample_and_finish() {
        // dim 8 (power of two), n = 256.
        let p = SamplingParams::default();
        let (samples, metrics) = run_alg2_observed(8, &p, 3, &Telemetry::disabled());
        assert_eq!(samples.len(), 256);
        assert_eq!(metrics.iterations, 3); // log2(8)
        assert_eq!(metrics.rounds, 7);
        for (_, s) in &samples {
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn no_failures_in_the_lemma9_regime() {
        let p = SamplingParams { c: 3.0, ..SamplingParams::default() };
        let (_, metrics) = run_alg2_observed(8, &p, 5, &Telemetry::disabled());
        assert_eq!(metrics.failures, 0);
    }

    #[test]
    fn samples_are_near_uniform() {
        // Pool all samples of all nodes; chi-square against uniform over
        // the 2^4 = 16 vertices.
        let p = SamplingParams { c: 4.0, ..SamplingParams::default() };
        let (samples, _) = run_alg2_observed(4, &p, 11, &Telemetry::disabled());
        let mut counts = vec![0u64; 16];
        for (_, s) in &samples {
            for id in s {
                counts[id.raw() as usize] += 1;
            }
        }
        let (_, pval) = overlay_stats::uniform_fit(&counts);
        assert!(pval > 1e-4, "uniformity rejected: p = {pval}");
    }

    #[test]
    fn per_source_samples_are_uniform_not_local() {
        // A single node's samples should cover far vertices, not just its
        // neighborhood — the signature of full-coordinate randomization.
        let p = SamplingParams { c: 4.0, ..SamplingParams::default() };
        let (samples, _) = run_alg2_observed(4, &p, 13, &Telemetry::disabled());
        let cube = Hypercube::new(4);
        let (src, s) = &samples[0];
        let far = s.iter().filter(|v| cube.distance(src.raw(), v.raw()) >= 2).count();
        assert!(far * 2 >= s.len(), "samples clustered near the source");
    }

    #[test]
    fn deterministic_given_seed() {
        let p = SamplingParams::default();
        let (a, _) = run_alg2_observed(4, &p, 99, &Telemetry::disabled());
        let (b, _) = run_alg2_observed(4, &p, 99, &Telemetry::disabled());
        assert_eq!(a.len(), b.len());
        for ((va, sa), (vb, sb)) in a.iter().zip(&b) {
            assert_eq!(va, vb);
            assert_eq!(sa, sb);
        }
    }
}
