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

use super::direct::pop_into;
use super::envelope::Envelope;
use super::pop;
use crate::config::{SamplingParams, Schedule};
use crate::metrics::SamplingMetrics;
use overlay_graphs::Hypercube;
use rand::RngExt;
use simnet::rng::{stream, NodeRng};
use simnet::{Ctx, NodeId, Payload, Protocol};
use std::sync::Arc;
use telemetry::{Phase, Telemetry};

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

/// [`run_alg2_observed`] on flat per-node arrays, with no engine: the same
/// samples, failures and [`SamplingMetrics`], for every seed and constant.
///
/// It makes each of the message-level run's choices the way parity's
/// delivery order makes them. Vertex `v` draws from `stream(seed, v, 0)`,
/// the stream `XlNetwork::add_node` gives it. A responder answers its
/// requests in requester order, then in the order they were sent (the
/// engine's message key is the sender's sequence number, which is the
/// vertex, then its outbox position). A requester files its responses in
/// responder order, then in the order it sent the requests. An empty
/// multiset yields the popping node's own id without a draw. The work
/// columns are the engine's per-round charges, counted analytically: every
/// message is charged to its sender in the round it is sent and to its
/// receiver in the next. `alg2_direct_matches_the_message_level_run` holds
/// the two equal row for row.
pub fn run_alg2_direct_observed(
    dim: u32,
    params: &SamplingParams,
    seed: u64,
    tel: &Telemetry,
) -> (Vec<(NodeId, Vec<NodeId>)>, SamplingMetrics) {
    let cube = Hypercube::new(dim);
    assert!(dim < 32, "vertex ids are stored as u32");
    let schedule = Schedule::algorithm2(dim, params);
    let (n, d) = (cube.len() as usize, dim as usize);
    let (rounds, iterations) = (schedule.rounds() as u64, schedule.iterations);
    let run = Envelope { tel, n, rounds, iterations }
        .open(format!("alg2-direct dim={dim} T={iterations}"));
    let request_bits = CubeMsg::Request { j: 0 }.size_bits();
    let response_bits = CubeMsg::Response { id: NodeId(0), j: 0 }.size_bits();

    // Phase 1: `M_j` of vertex `u` is row `u * d + j - 1` of `m`, `m0` wide,
    // its first `live[row]` entries in use. Every later set is smaller.
    let m0 = schedule.m_at(0);
    let mut rngs: Vec<NodeRng> = (0..n as u64).map(|v| stream(seed, v, 0)).collect();
    let mut m = vec![0u32; n * d * m0];
    let mut live = vec![m0; n * d];
    for (u, rng) in rngs.iter_mut().enumerate() {
        for j in 1..=dim {
            let row = (u * d + j as usize - 1) * m0;
            let flip = cube.neighbor(u as u64, j) as u32;
            for slot in &mut m[row..row + m0] {
                *slot = if rng.random::<bool>() { flip } else { u as u32 };
            }
        }
    }

    // Iteration `i` sends `per_node(i)` requests from every vertex: `m_i`
    // for each of its `d / 2^i` sets `j = 1 (mod 2^i)`.
    let per_node = |i: usize| (d >> i) * schedule.m_at(i);
    let widest = if iterations > 0 { per_node(1) } else { 0 };
    let mut target = vec![0u32; n * widest];
    let mut answer = vec![0u32; n * widest];
    let mut bucket = vec![0u32; n * widest];
    let mut off = vec![0usize; n + 1];
    let mut cursor = vec![0usize; n];
    let mut failures = 0u64;
    // Round 0 sends the first requests; round `2i - 1` answers them, round
    // `2i` files the answers and sends the next requests.
    let (mut max_msgs, mut max_bits) = if iterations > 0 {
        (per_node(1) as u64, per_node(1) as u64 * request_bits)
    } else {
        (0, 0)
    };
    let mut total_msgs = 0u64;
    let mut total_bits = 0u64;
    for i in 1..=iterations {
        let (mi, step, sent) = (schedule.m_at(i), 1usize << i, per_node(i));
        let set_of = |r: usize| 1 + (r / mi) * step;

        // Phase 2: request `r` of `u` targets what it pops from `M_{set_of(r)}`,
        // `m_i` pops per set.
        for (u, rng) in rngs.iter_mut().enumerate() {
            let sets = target[u * sent..(u + 1) * sent].chunks_exact_mut(mi);
            for (s, out) in sets.enumerate() {
                let row = u * d + s * step;
                failures += pop_into(out, &mut m[row * m0..], &mut live[row], u as u32, rng);
            }
        }
        let requests = &target[..n * sent];

        // Each responder's requests, in requester order then send order: a
        // stable counting sort of the request indices by target.
        off.fill(0);
        for &t in requests {
            off[t as usize + 1] += 1;
        }
        for v in 0..n {
            off[v + 1] += off[v];
        }
        cursor.copy_from_slice(&off[..n]);
        for (k, &t) in requests.iter().enumerate() {
            bucket[cursor[t as usize]] = k as u32;
            cursor[t as usize] += 1;
        }

        // Phase 3: responder `v` answers from `M_{j + 2^(i-1)}`.
        for (v, rng) in rngs.iter_mut().enumerate() {
            for &k in &bucket[off[v]..off[v + 1]] {
                let k = k as usize;
                let row = v * d + set_of(k % sent) + step / 2 - 1;
                let out = &mut answer[k..=k];
                failures += pop_into(out, &mut m[row * m0..], &mut live[row], v as u32, rng);
            }
        }

        // Phase 4: every set is cleared, then each requester files its
        // answers in responder order, then in its own send order.
        live.fill(0);
        for &k in &bucket[..n * sent] {
            let (u, r) = (k as usize / sent, k as usize % sent);
            let row = u * d + set_of(r) - 1;
            m[row * m0 + live[row]] = answer[k as usize];
            live[row] += 1;
        }

        let fan_in = off.windows(2).map(|w| (w[1] - w[0]) as u64).max().unwrap_or(0);
        let next = if i < iterations { per_node(i + 1) as u64 } else { 0 };
        let sent = sent as u64;
        max_msgs = max_msgs.max(2 * fan_in).max(sent + next);
        max_bits = max_bits
            .max(fan_in * (request_bits + response_bits))
            .max(sent * response_bits + next * request_bits);
        // Every request and every response is charged once sent and once
        // received.
        total_msgs += 4 * n as u64 * sent;
        total_bits += 2 * n as u64 * sent * (request_bits + response_bits);
    }

    let samples: Vec<(NodeId, Vec<NodeId>)> = (0..n)
        .map(|u| {
            let row = u * d;
            let taken = &m[row * m0..row * m0 + live[row]];
            (NodeId(u as u64), taken.iter().map(|&v| NodeId(v as u64)).collect())
        })
        .collect();
    let collector = &run.collector;
    collector.gauge("net.max_node_bits", &[]).record_max(max_bits);
    collector.gauge("net.max_node_msgs", &[]).record_max(max_msgs);
    collector.counter("net.total_msgs", &[]).add(total_msgs);
    collector.counter("net.total_bits", &[]).add(total_bits);
    // The engine's own counters: every message is sent once and delivered
    // once, and its work is charged to both phases.
    collector.counter("net.rounds", &[]).add(rounds);
    collector.counter("net.delivered", &[]).add(total_msgs / 2);
    collector.add_work(Phase::Send, total_bits / 2, total_msgs / 2);
    collector.add_work(Phase::Deliver, total_bits / 2, total_msgs / 2);
    let fewest = samples.iter().map(|(_, s)| s.len()).min().unwrap_or(0);
    let metrics = run.close(fewest, failures, format!("alg2-direct dim={dim} failures={failures}"));
    (samples, metrics)
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

    /// The array level against the message level on parity, row for row:
    /// samples, failures, samples per node, rounds and the work columns,
    /// and every counter, gauge and phase work total the array level
    /// records into the caller's recorder. `c = 0.3` starves the
    /// responders' multisets, so the sweep reaches the fallback path; that
    /// it does is asserted.
    #[test]
    fn alg2_direct_matches_the_message_level_run() {
        let mut underflowing = 0;
        for dim in [1, 2, 4, 8] {
            for c in [0.3, 1.0, 2.0] {
                let p = SamplingParams { c, ..SamplingParams::default() };
                for seed in [0, 1, 7, 11, 0xC0FFEE] {
                    let (want_tel, got_tel) = (Telemetry::collector(), Telemetry::collector());
                    let (want, want_metrics) =
                        crate::backend::with_backend(crate::backend::Backend::Parity, || {
                            run_alg2_observed(dim, &p, seed, &want_tel)
                        });
                    let (got, got_metrics) = run_alg2_direct_observed(dim, &p, seed, &got_tel);
                    let case = format!("dim {dim} c {c} seed {seed}");
                    assert_eq!(got.len(), want.len(), "{case}: rows");
                    for (g, w) in got.iter().zip(&want) {
                        assert_eq!(g, w, "{case}: samples of vertex {}", w.0);
                    }
                    assert_eq!(got_metrics, want_metrics, "{case}: metrics");
                    let (want_snap, got_snap) = (want_tel.snapshot(), got_tel.snapshot());
                    for (key, &value) in &got_snap.counters {
                        assert_eq!(value, want_snap.counter(key), "{case}: counter {key}");
                    }
                    for (key, &value) in &got_snap.gauges {
                        assert_eq!(value, want_snap.gauge(key), "{case}: gauge {key}");
                    }
                    for phase in [Phase::Send, Phase::Deliver, Phase::Sampling] {
                        let (w, g) =
                            (want_tel.profile().stat(phase), got_tel.profile().stat(phase));
                        assert_eq!((g.bits, g.msgs), (w.bits, w.msgs), "{case}: {phase:?} work");
                    }
                    underflowing += usize::from(want_metrics.failures > 0);
                }
            }
        }
        assert!(underflowing > 0, "no case of the sweep popped an empty multiset");
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
