//! Algorithm 1: rapid node sampling in H-graphs.
//!
//! Each node keeps a multiset `M` of node ids. Phase 1 fills `M` with
//! `m_0` uniformly random neighbors (walks of length 1). Each iteration
//! `i` then *doubles* every walk: the node sends `m_i` requests, each to a
//! walk endpoint popped from `M`; a node answering a request pops another
//! endpoint from its own `M` and returns it. Since the responder's entries
//! are themselves endpoints of independent length-`2^(i-1)` walks starting
//! at the responder, the concatenation is an independent walk of length
//! `2^i` (Lemma 5). After `T = ceil(log2 t)` iterations the entries are
//! endpoints of walks of length `>= t`, which are almost-uniform samples
//! by Lemma 2.
//!
//! One iteration costs two communication rounds (requests travel, then
//! responses travel), so the whole primitive takes `2T + 1 = O(log log n)`
//! rounds.
//!
//! The multiset sizes follow Lemma 7: `m_i = (2 + eps)^(T-i) c log n`, so
//! that w.h.p. `M` never runs empty: popping `m_i` own requests plus the
//! (Binomial, mean `m_i`) incoming requests stays below `m_{i-1}`.
//! A pop from an empty `M` is counted as a *failure* and answered with the
//! node's own id so the protocol can proceed; experiments report the count
//! (E5 probes the parameter boundary where failures appear).

use crate::backend::AnyNet;
use crate::config::{SamplingParams, Schedule};
use crate::metrics::SamplingMetrics;
use overlay_graphs::HGraph;
use rand::RngExt;
use simnet::{Ctx, NodeId, Payload, Protocol};
use std::sync::Arc;
use telemetry::{EventKind, Phase, Telemetry};

/// Messages of Algorithm 1.
#[derive(Clone, Debug)]
pub enum SampleMsg {
    /// "Give me one of your walk endpoints."
    Request,
    /// A walk endpoint.
    Response(NodeId),
}

impl Payload for SampleMsg {
    fn size_bits(&self) -> u64 {
        match self {
            SampleMsg::Request => 8,
            SampleMsg::Response(_) => 8 + NodeId::SIZE_BITS,
        }
    }

    fn digest(&self, digest: &mut simnet::Digest) {
        match self {
            SampleMsg::Request => {
                digest.write_u8(0);
            }
            SampleMsg::Response(v) => {
                digest.write_u8(1).write_u64(v.raw());
            }
        }
    }
}

/// Per-node state of Algorithm 1.
pub struct Alg1Node {
    schedule: Arc<Schedule>,
    neighbors: Vec<NodeId>,
    m: Vec<NodeId>,
    /// Iterations completed.
    iter: usize,
    /// Pop-from-empty events.
    pub failures: u64,
    /// Final samples, set after iteration `T` completes.
    pub samples: Option<Vec<NodeId>>,
}

impl Alg1Node {
    /// Create the node state. `neighbors` are the node's `d` H-graph
    /// neighbors with multiplicity (two per Hamilton cycle).
    pub fn new(schedule: Arc<Schedule>, neighbors: Vec<NodeId>) -> Self {
        assert!(!neighbors.is_empty(), "a sampler node needs neighbors");
        Self { schedule, neighbors, m: Vec::new(), iter: 0, failures: 0, samples: None }
    }

    /// Pop a uniformly random element of `M`; on underflow count a failure
    /// and fall back to the node's own id (`me`).
    fn pop(&mut self, me: NodeId, rng: &mut simnet::NodeRng) -> NodeId {
        if self.m.is_empty() {
            self.failures += 1;
            return me;
        }
        let k = rng.random_range(0..self.m.len());
        self.m.swap_remove(k)
    }

    /// Send the `m_{iter+1}` requests that start the next iteration.
    fn send_requests(&mut self, ctx: &mut Ctx<'_, SampleMsg>) {
        let k = self.schedule.m_at(self.iter + 1);
        let me = ctx.me();
        for _ in 0..k {
            let target = self.pop(me, ctx.rng());
            ctx.send(target, SampleMsg::Request);
        }
    }
}

impl Protocol for Alg1Node {
    type Msg = SampleMsg;

    fn digest(&self, digest: &mut simnet::Digest) {
        digest.write_usize(self.iter).write_u64(self.failures);
        digest.write_usize(self.m.len());
        for v in &self.m {
            digest.write_u64(v.raw());
        }
        match &self.samples {
            None => {
                digest.write_u8(0);
            }
            Some(s) => {
                digest.write_u8(1).write_usize(s.len());
                for v in s {
                    digest.write_u64(v.raw());
                }
            }
        }
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, SampleMsg>) {
        let round = ctx.round();
        if round == 0 {
            // Phase 1 (local): m_0 uniformly random neighbors = walks of
            // length 1. Then immediately fire iteration 1's requests.
            let m0 = self.schedule.m_at(0);
            self.m = (0..m0)
                .map(|_| self.neighbors[ctx.rng().random_range(0..self.neighbors.len())])
                .collect();
            if self.schedule.iterations > 0 {
                self.send_requests(ctx);
            } else {
                self.samples = Some(self.m.clone());
            }
            return;
        }
        if self.samples.is_some() {
            return; // done; ignore stray traffic
        }
        let inbox = ctx.take_inbox();
        if round % 2 == 1 {
            // Phase 3: answer every request with a popped endpoint.
            let me = ctx.me();
            for env in inbox {
                if let SampleMsg::Request = env.msg {
                    let v = self.pop(me, ctx.rng());
                    ctx.send(env.from, SampleMsg::Response(v));
                }
            }
        } else {
            // Phase 4: collect responses into the new M; they are endpoints
            // of walks of doubled length.
            let mut new_m = Vec::with_capacity(self.schedule.m_at(self.iter + 1));
            for env in inbox {
                if let SampleMsg::Response(v) = env.msg {
                    new_m.push(v);
                }
            }
            self.m = new_m;
            self.iter += 1;
            if self.iter < self.schedule.iterations {
                self.send_requests(ctx);
            } else {
                self.samples = Some(self.m.clone());
            }
        }
    }
    /// A finished sampler ignores all traffic forever (`on_round` early
    /// returns on `samples.is_some()`), so the sharded backend may drop it
    /// from the per-round worklist.
    fn quiescent(&self) -> bool {
        self.samples.is_some()
    }
}

impl simnet::Checkpoint for SampleMsg {
    fn save(&self) -> serde_json::Value {
        match self {
            SampleMsg::Request => serde_json::json!({ "kind": "request" }),
            SampleMsg::Response(v) => serde_json::json!({ "kind": "response", "v": v.raw() }),
        }
    }
    fn load(v: &serde_json::Value) -> simnet::CkptResult<Self> {
        use simnet::checkpoint::{get, get_str};
        match get_str(v, "kind")? {
            "request" => Ok(SampleMsg::Request),
            "response" => Ok(SampleMsg::Response(get(v, "v")?)),
            other => Err(simnet::CkptError::Corrupt(format!("unknown SampleMsg `{other}`"))),
        }
    }
}

simnet::checkpoint_schema! {
    Alg1Node {
        fields {
            schedule: undigested "the round digest does not cover it; the invariants below do",
            neighbors: undigested "the round digest does not cover it; it must not be empty"
                where |s| !s.neighbors.is_empty() => "a sampler node needs neighbors",
            m,
            iter where |s| s.iter <= s.schedule.iterations
                => format!("{} past the schedule's {} iterations", s.iter, s.schedule.iterations),
            failures,
            samples,
        }
    }
}

/// Run Algorithm 1 on the given H-graph: every node samples
/// `m_T >= beta log n` nodes. Returns per-node samples and run metrics.
pub fn run_alg1(
    graph: &HGraph,
    params: &SamplingParams,
    seed: u64,
) -> (Vec<(NodeId, Vec<NodeId>)>, SamplingMetrics) {
    let (out, metrics, _) = run_alg1_inner(graph, params, seed, false, &Telemetry::disabled());
    (out, metrics)
}

/// [`run_alg1`] that folds the run's telemetry (engine work metrics,
/// sampling events, phase profile) into `tel`.
pub fn run_alg1_observed(
    graph: &HGraph,
    params: &SamplingParams,
    seed: u64,
    tel: &Telemetry,
) -> (Vec<(NodeId, Vec<NodeId>)>, SamplingMetrics) {
    let (out, metrics, _) = run_alg1_inner(graph, params, seed, false, tel);
    (out, metrics)
}

/// Per-node samples, run metrics, and the engine's per-round digest stream.
pub type DigestedRun = (Vec<(NodeId, Vec<NodeId>)>, SamplingMetrics, Vec<simnet::RoundDigest>);

/// [`run_alg1`] with per-round state digests: returns the digest stream
/// recorded by the simnet engine (one [`simnet::RoundDigest`] per round)
/// alongside the usual outputs. Replaying with identical graph, params and
/// seed yields an identical stream; golden tests pin it.
pub fn run_alg1_digested(graph: &HGraph, params: &SamplingParams, seed: u64) -> DigestedRun {
    run_alg1_inner(graph, params, seed, true, &Telemetry::disabled())
}

/// [`run_alg1_digested`] that also folds the run's telemetry into `tel`.
/// The determinism guard uses this combination to prove that observing a
/// run leaves its digest stream byte-identical.
pub fn run_alg1_digested_observed(
    graph: &HGraph,
    params: &SamplingParams,
    seed: u64,
    tel: &Telemetry,
) -> DigestedRun {
    run_alg1_inner(graph, params, seed, true, tel)
}

fn run_alg1_inner(
    graph: &HGraph,
    params: &SamplingParams,
    seed: u64,
    digests: bool,
    tel: &Telemetry,
) -> DigestedRun {
    let n = graph.len();
    let schedule = Arc::new(Schedule::algorithm1(n, graph.degree(), params));
    // Every run records into a private collector; the work fields of
    // `SamplingMetrics` derive from its snapshot, and callers observing the
    // run absorb it wholesale. Attaching it never perturbs the engine's
    // digest stream (observability guarantee of `XlNetwork::set_telemetry`).
    let collector =
        Telemetry::new(telemetry::Config { timing: tel.timing(), ..Default::default() });
    let _sampling = collector.phase(Phase::Sampling);
    let iterations = schedule.iterations;
    collector.emit(0, EventKind::SamplingStarted, None, n as u64, || {
        format!("alg1 n={n} T={iterations}")
    });
    let mut net: AnyNet<Alg1Node> = crate::backend::select().build(seed);
    net.set_telemetry(collector.clone());
    if digests {
        net.enable_digests();
        net.set_manifest(format!(
            "alg1 n={n} d={} alpha={} beta={} epsilon={} c={}",
            graph.degree(),
            params.alpha,
            params.beta,
            params.epsilon,
            params.c
        ));
    }
    for &v in graph.nodes() {
        net.add_node(v, Alg1Node::new(Arc::clone(&schedule), graph.neighbors(v)));
    }
    let rounds = schedule.rounds() as u64;
    net.run(rounds);

    let mut out = Vec::with_capacity(n);
    let mut failures = 0;
    let mut min_samples = usize::MAX;
    for &v in graph.nodes() {
        let node = net.node(v).expect("node still present");
        failures += node.failures;
        let samples = node.samples.clone().expect("sampler finished");
        min_samples = min_samples.min(samples.len());
        out.push((v, samples));
    }
    collector.emit(rounds, EventKind::SamplingFinished, None, failures, || {
        format!("alg1 n={n} failures={failures}")
    });
    let metrics = SamplingMetrics::from_snapshot(
        &collector.snapshot(),
        n,
        rounds,
        schedule.iterations,
        if n == 0 { 0 } else { min_samples },
        failures,
    );
    drop(_sampling);
    tel.absorb(&collector);
    (out, metrics, net.trace().digests().to_vec())
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

    /// A saved sampler node with member `key` replaced by `value`.
    fn node_with(key: &str, value: serde_json::Value) -> serde_json::Value {
        let schedule = Arc::new(Schedule::algorithm1(64, 8, &SamplingParams::default()));
        let node = Alg1Node::new(schedule, graph(64, 1).neighbors(NodeId(0)));
        let serde_json::Value::Object(mut saved) = simnet::Checkpoint::save(&node) else {
            unreachable!("a node saves as an object")
        };
        saved.insert(key.into(), value);
        serde_json::Value::Object(saved)
    }

    /// Neither `schedule` nor `neighbors` is in the node's digest, so a
    /// short schedule or an empty neighbor list would pass an engine's
    /// stamp and then index past the end mid-run.
    #[test]
    fn load_refuses_what_the_digest_does_not_cover() {
        use simnet::{Checkpoint, CkptError};
        let short = serde_json::json!({ "iterations": 3u64, "m": vec![9u64, 3] });
        let empty = serde_json::Value::Array(Vec::new());
        for (key, value) in [("schedule", short), ("neighbors", empty), ("iter", 99u64.into())] {
            match Alg1Node::load(&node_with(key, value)) {
                Err(CkptError::Corrupt(m)) => assert!(m.contains(&format!("`{key}`")), "{m}"),
                Err(e) => panic!("{key}: expected Corrupt, got {e}"),
                Ok(_) => panic!("{key}: loaded"),
            }
        }
    }

    #[test]
    fn all_nodes_get_enough_samples() {
        let g = graph(64, 1);
        let p = SamplingParams::default();
        let (samples, metrics) = run_alg1(&g, &p, 42);
        assert_eq!(samples.len(), 64);
        let need = p.samples_needed(64);
        for (_, s) in &samples {
            assert!(s.len() >= need, "{} < {need}", s.len());
        }
        assert_eq!(metrics.rounds as usize, 2 * metrics.iterations + 1);
    }

    #[test]
    fn no_failures_with_default_parameters() {
        let g = graph(128, 2);
        let (_, metrics) = run_alg1(&g, &SamplingParams::default(), 7);
        assert_eq!(metrics.failures, 0, "Lemma 7 regime must not underflow");
    }

    #[test]
    fn undersized_schedule_fails() {
        // c far below the Chernoff sizing and epsilon tiny: pops collide.
        let g = graph(128, 3);
        let p = SamplingParams { epsilon: 0.01, c: 0.2, ..SamplingParams::default() };
        let (_, metrics) = run_alg1(&g, &p, 7);
        assert!(metrics.failures > 0, "deliberately broken schedule should underflow");
    }

    #[test]
    fn samples_cover_the_graph() {
        // Aggregate samples from all nodes should hit most of the graph.
        let n = 64;
        let g = graph(n, 4);
        let (samples, _) = run_alg1(&g, &SamplingParams::default(), 9);
        let mut seen = std::collections::HashSet::new();
        for (_, s) in &samples {
            seen.extend(s.iter().copied());
        }
        assert!(seen.len() as u64 >= n * 9 / 10, "coverage {} of {n}", seen.len());
    }

    #[test]
    fn deterministic_given_seed() {
        let g = graph(32, 5);
        let p = SamplingParams::default();
        let (a, ma) = run_alg1(&g, &p, 123);
        let (b, mb) = run_alg1(&g, &p, 123);
        assert_eq!(ma.total_msgs, mb.total_msgs);
        for ((va, sa), (vb, sb)) in a.iter().zip(&b) {
            assert_eq!(va, vb);
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn rounds_are_loglog_scale() {
        let p = SamplingParams::default();
        let (_, m_small) = run_alg1(&graph(32, 6), &p, 1);
        let (_, m_big) = run_alg1(&graph(256, 7), &p, 1);
        // 8x the nodes adds at most 2 rounds (one doubling iteration).
        assert!(m_big.rounds <= m_small.rounds + 2);
    }
}
