//! Array execution of Algorithm 1: what every reconfiguration epoch runs.
//!
//! Runs the *same* algorithm and schedule as [`crate::sampling::hgraph`]
//! on dense node indices, with the multisets in flat row-major arenas and
//! no per-message envelopes, so an epoch at `n` in the thousands is bound
//! by its arithmetic (about 12 random draws per delivered sample at the
//! default schedule) and sweeps can reach `n` in the hundreds of
//! thousands. Work accounting is derived from the exact message counts the
//! envelope version would have produced (same message types, same sizes),
//! so metrics remain comparable.
//!
//! **What ties it to the envelope version.** Not sample-for-sample
//! equality: there, the order of a node's inbox decides which pop answers
//! which request, and here requests are answered in requester order. The
//! tie is statistical — `distribution_agrees_with_envelope_version` pools
//! every sample of both at n = 64 and tests each against uniform — and is
//! spelt out, with what it does not cover, in DESIGN.md "Fidelity levels".
//! What pins *this* implementation's values is `tests/golden/
//! sampling_direct.digests` and the nested-`Vec` reference in this file's
//! tests, which the flat sampler must equal row for row.
//!
//! **Layout.** One iteration moves `n * m_i` requests and as many
//! responses. Every node's randomness is a stream keyed by (seed, node,
//! purpose), so the order in which nodes are processed is free; that is
//! what allows Phase 1 to be fused into the first request round (a node's
//! `m_0` entries are generated into a worker's scratch row and popped
//! while that row is in L1; only the survivors are stored) and lets
//! contiguous node ranges run on separate workers with identical results
//! at any pool size.

use super::envelope::Envelope;
use crate::config::{SamplingParams, Schedule};
use crate::metrics::SamplingMetrics;
use overlay_graphs::HGraph;
use rand::RngExt;
use rand_chacha::ChaCha8Wide;
use rayon::prelude::*;
use simnet::rng::stream_wide;
use telemetry::{Phase, Telemetry};

/// Bit sizes matching [`crate::sampling::hgraph::SampleMsg`].
const REQUEST_BITS: u64 = 8;
const RESPONSE_BITS: u64 = 8 + 64;

/// Every node's samples as one row-major table: row `u` belongs to the
/// `u`-th node of `graph.nodes()` and all rows have the same length, the
/// schedule's final `m_T`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SampleTable {
    ids: Vec<u32>,
    rows: usize,
    stride: usize,
}

impl SampleTable {
    /// Number of rows (nodes).
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The samples of dense node `u`.
    pub fn row(&self, u: usize) -> &[u32] {
        assert!(u < self.rows, "row {u} of a {}-row sample table", self.rows);
        &self.ids[u * self.stride..(u + 1) * self.stride]
    }

    /// The rows in node order.
    pub fn iter(&self) -> Rows<'_> {
        Rows { table: self, next: 0 }
    }
}

/// Iterator over the rows of a [`SampleTable`].
#[derive(Clone, Debug)]
pub struct Rows<'a> {
    table: &'a SampleTable,
    next: usize,
}

impl<'a> Iterator for Rows<'a> {
    type Item = &'a [u32];

    fn next(&mut self) -> Option<&'a [u32]> {
        (self.next < self.table.rows).then(|| {
            self.next += 1;
            self.table.row(self.next - 1)
        })
    }
}

impl<'a> IntoIterator for &'a SampleTable {
    type Item = &'a [u32];
    type IntoIter = Rows<'a>;

    fn into_iter(self) -> Rows<'a> {
        self.iter()
    }
}

/// Result of a direct-mode run.
#[derive(Clone, Debug, PartialEq)]
pub struct DirectRun {
    /// Per-node samples, indexed densely in `graph.nodes()` order.
    pub samples: SampleTable,
    /// Run metrics (rounds, failures, work) equivalent to the
    /// envelope-level implementation.
    pub metrics: SamplingMetrics,
}

/// Fill `out` by popping uniformly at random from the multiset
/// `row[..*live]`. Popping from an empty multiset yields `fallback` — the
/// popping node itself, like the envelope version — without a draw; the
/// number of such underflows is returned.
#[inline]
fn pop_into(
    out: &mut [u32],
    row: &mut [u32],
    live: &mut usize,
    fallback: u32,
    rng: &mut ChaCha8Wide,
) -> u64 {
    let mut underflows = 0;
    for slot in out {
        *slot = if *live == 0 {
            underflows += 1;
            fallback
        } else {
            let k = rng.random_range(0..*live);
            *live -= 1;
            let id = row[k];
            row[k] = row[*live];
            id
        };
    }
    underflows
}

/// One worker's contiguous node range `first..first + live.len()` of an
/// iteration's state: the nodes' multiset rows, how much of each is live,
/// and the part of the wire those nodes write.
struct Shard<'a> {
    first: usize,
    rows: &'a mut [u32],
    live: &'a mut [usize],
    wire: &'a mut [u32],
}

/// `s` cut at `cuts` (ascending, starting at 0).
fn split_mut(mut s: &mut [u32], cuts: impl Iterator<Item = usize>) -> Vec<&mut [u32]> {
    let mut pieces = Vec::new();
    let mut at = 0;
    for cut in cuts.skip(1) {
        let (head, tail) = s.split_at_mut(cut - at);
        pieces.push(head);
        s = tail;
        at = cut;
    }
    pieces
}

/// Cut the iteration's state into one [`Shard`] per entry of `node_cuts`
/// (node boundaries, ascending from 0 to n). Node `u`'s row is
/// `rows[u * stride..][..stride]`; its part of the wire starts at
/// `wire_at(u)`.
fn shards<'a>(
    node_cuts: &[usize],
    rows: &'a mut [u32],
    stride: usize,
    mut live: &'a mut [usize],
    wire: &'a mut [u32],
    wire_at: impl Fn(usize) -> usize,
) -> Vec<Shard<'a>> {
    let rows = split_mut(rows, node_cuts.iter().map(|&u| u * stride));
    let wire = split_mut(wire, node_cuts.iter().map(|&u| wire_at(u)));
    let mut out = Vec::with_capacity(rows.len());
    for ((rows, wire), bounds) in rows.into_iter().zip(wire).zip(node_cuts.windows(2)) {
        let (head, tail) = live.split_at_mut(bounds[1] - bounds[0]);
        live = tail;
        out.push(Shard { first: bounds[0], rows, live: head, wire });
    }
    out
}

/// Run Algorithm 1 in direct mode on `graph` with dense node indices,
/// folding the run's telemetry into `tel`. There is
/// no simulated network here, so the analytic work accounting is recorded
/// under the same `net.*` metric names the envelope runners use, keeping
/// [`SamplingMetrics::from_snapshot`] the single derivation path. Each
/// step of an iteration is a span, timed when `tel` is:
/// `alg1.phase1_requests` (the fused first iteration), `alg1.requests`,
/// `alg1.scatter`, `alg1.answers`, `alg1.regroup`.
pub fn run_alg1_direct_observed(
    graph: &HGraph,
    params: &SamplingParams,
    seed: u64,
    tel: &Telemetry,
) -> DirectRun {
    let n = graph.len();
    let d = graph.degree();
    let schedule = Schedule::algorithm1(n, d, params);
    let iterations = schedule.iterations;
    assert!(iterations >= 1, "Schedule::algorithm1 walks at least two steps");
    let rounds = schedule.rounds() as u64;
    let run =
        Envelope { tel, n, rounds, iterations }.open(format!("alg1-direct n={n} T={iterations}"));
    let collector = &run.collector;

    // Dense neighbor table: neighbors of node u at [u*d .. (u+1)*d].
    let mut dense: std::collections::HashMap<simnet::NodeId, u32> =
        std::collections::HashMap::with_capacity(n);
    for (i, &v) in graph.nodes().iter().enumerate() {
        dense.insert(v, i as u32);
    }
    let mut nbr: Vec<u32> = Vec::with_capacity(n * d);
    for &v in graph.nodes() {
        for w in graph.neighbors(v) {
            nbr.push(dense[&w]);
        }
    }

    // Arenas, allocated once and reused by every iteration. `cur` holds the
    // multisets M, `next` receives the regrouped answers; `wire` is the
    // iteration's messages — requests in requester order until they are
    // scattered, then the responses, aligned with `bucket_from`.
    let m0 = schedule.m_at(0);
    let widest = (1..=iterations).map(|i| schedule.m_at(i)).max().unwrap_or(0);
    let survivors = m0.saturating_sub(schedule.m_at(1));
    let mut cur = vec![0u32; n * survivors.max(widest)];
    let mut next = vec![0u32; n * widest];
    let mut live = vec![0usize; n];
    let mut wire = vec![0u32; n * widest];
    let mut bucket_from = vec![0u32; n * widest];
    let mut off = vec![0usize; n + 1];
    let mut cursor = vec![0usize; n];

    let workers = rayon::current_num_threads().clamp(1, n.max(1));
    let node_cuts: Vec<usize> = (0..=workers).map(|w| w * n / workers).collect();

    let mut failures = 0u64;
    let mut max_node_msgs = 0u64;
    let mut max_node_bits = 0u64;
    let mut total_msgs = 0u64;

    for i in 1..=iterations {
        let mi = schedule.m_at(i);
        // Row length of `cur`: the m_{i-1} answers of the last iteration,
        // or what is left of Phase 1's m_0 after the first m_1 pops.
        let stride = if i == 1 { survivors } else { schedule.m_at(i - 1) };

        // Phases 1-2: every node pops m_i walk endpoints and targets them.
        // In the first iteration the multiset popped from is Phase 1's m_0
        // uniform random neighbors, generated here.
        let span = collector.span(if i == 1 { "alg1.phase1_requests" } else { "alg1.requests" });
        let mut jobs = shards(&node_cuts, &mut cur, stride, &mut live, &mut wire, |u| u * mi);
        let underflows: Vec<u64> = jobs
            .par_iter_mut()
            .map(|shard| {
                let mut scratch = vec![0u32; if i == 1 { m0 } else { 0 }];
                let mut underflows = 0;
                for (j, have) in shard.live.iter_mut().enumerate() {
                    let u = shard.first + j;
                    let row = &mut shard.rows[j * stride..(j + 1) * stride];
                    let targets = &mut shard.wire[j * mi..(j + 1) * mi];
                    let mut rng = stream_wide(seed, u as u64, 100 + i as u64);
                    if i == 1 {
                        let mut phase1 = stream_wide(seed, u as u64, 1);
                        for slot in scratch.iter_mut() {
                            *slot = nbr[u * d + phase1.random_range(0..d)];
                        }
                        *have = m0;
                        underflows += pop_into(targets, &mut scratch, have, u as u32, &mut rng);
                        row[..*have].copy_from_slice(&scratch[..*have]);
                    } else {
                        *have = stride;
                        underflows += pop_into(targets, row, have, u as u32, &mut rng);
                    }
                }
                underflows
            })
            .collect();
        failures += underflows.iter().sum::<u64>();
        drop(span);

        // Bucket requests by target: a stable counting sort, so bucket v
        // lists its requesters in node order, a node's repeats adjacent.
        let span = collector.span("alg1.scatter");
        let requests = &wire[..n * mi];
        off.fill(0);
        for &t in requests {
            off[t as usize + 1] += 1;
        }
        for v in 0..n {
            off[v + 1] += off[v];
        }
        cursor.copy_from_slice(&off[..n]);
        for u in 0..n {
            for &t in &requests[u * mi..(u + 1) * mi] {
                bucket_from[cursor[t as usize]] = u as u32;
                cursor[t as usize] += 1;
            }
        }
        drop(span);

        // Phase 3: every node answers its incoming requests by popping
        // from its own M; response k answers the request `bucket_from[k]`.
        let span = collector.span("alg1.answers");
        let mut jobs = shards(&node_cuts, &mut cur, stride, &mut live, &mut wire, |v| off[v]);
        let underflows: Vec<u64> = jobs
            .par_iter_mut()
            .map(|shard| {
                let base = off[shard.first];
                let mut underflows = 0;
                for (j, have) in shard.live.iter_mut().enumerate() {
                    let v = shard.first + j;
                    let row = &mut shard.rows[j * stride..(j + 1) * stride];
                    let answers = &mut shard.wire[off[v] - base..off[v + 1] - base];
                    let mut rng = stream_wide(seed, v as u64, 200 + i as u64);
                    underflows += pop_into(answers, row, have, v as u32, &mut rng);
                }
                underflows
            })
            .collect();
        failures += underflows.iter().sum::<u64>();
        drop(span);

        // Phase 4: regroup responses by requester, in bucket order. Every
        // requester sent m_i requests and gets m_i answers, fallbacks
        // included, so the new M is a full n x m_i table.
        let span = collector.span("alg1.regroup");
        cursor.fill(0);
        for (&from, &id) in bucket_from[..n * mi].iter().zip(&wire[..n * mi]) {
            let from = from as usize;
            next[from * mi + cursor[from]] = id;
            cursor[from] += 1;
        }
        std::mem::swap(&mut cur, &mut next);
        drop(span);

        // Work accounting (matching the envelope implementation):
        // request round: each node sends m_i requests; response round: each
        // node receives its bucket and sends as many responses; final
        // round: receives m_i responses.
        let max_bucket = off.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0) as u64;
        max_node_msgs = max_node_msgs.max(mi as u64).max(2 * max_bucket);
        max_node_bits = max_node_bits
            .max(mi as u64 * REQUEST_BITS)
            .max(max_bucket * (REQUEST_BITS + RESPONSE_BITS))
            .max(mi as u64 * RESPONSE_BITS);
        // n*m_i requests + n*m_i responses, each charged as one send event
        // and one receive event (matching CommStats conventions).
        total_msgs += 4 * (n * mi) as u64;
    }

    // The arena that ends up holding the table may be many times its size.
    let stride = schedule.final_size();
    cur.truncate(n * stride);
    cur.shrink_to_fit();
    let samples = SampleTable { ids: cur, rows: n, stride };
    collector.gauge("net.max_node_bits", &[]).record_max(max_node_bits);
    collector.gauge("net.max_node_msgs", &[]).record_max(max_node_msgs);
    collector.counter("net.total_msgs", &[]).add(total_msgs);
    collector.add_work(Phase::Sampling, 0, total_msgs);
    let metrics = run.close(stride, failures, format!("alg1-direct n={n} failures={failures}"));
    DirectRun { samples, metrics }
}

/// The nested-`Vec` sampler this module ran before its state was flattened,
/// on the one-block generator: the oracle the flat sampler must equal row
/// for row (`flat_sampler_matches_the_reference`). It shares no storage
/// code, no keystream reader and no phase fusion with the code above — only
/// the algorithm.
#[cfg(test)]
mod reference {
    use super::{REQUEST_BITS, RESPONSE_BITS};
    use crate::config::{SamplingParams, Schedule};
    use overlay_graphs::HGraph;
    use rand::RngExt;
    use rayon::prelude::*;
    use simnet::rng::stream;

    /// What the reference computes: samples and the raw accounting.
    #[derive(Debug, PartialEq)]
    pub struct ReferenceRun {
        pub samples: Vec<Vec<u32>>,
        pub failures: u64,
        pub max_node_msgs: u64,
        pub max_node_bits: u64,
        pub total_msgs: u64,
    }

    pub fn run(graph: &HGraph, params: &SamplingParams, seed: u64) -> ReferenceRun {
        let n = graph.len();
        let d = graph.degree();
        let schedule = Schedule::algorithm1(n, d, params);
        let dense: std::collections::HashMap<simnet::NodeId, u32> =
            graph.nodes().iter().enumerate().map(|(i, &v)| (v, i as u32)).collect();
        let mut nbr: Vec<u32> = Vec::with_capacity(n * d);
        for &v in graph.nodes() {
            for w in graph.neighbors(v) {
                nbr.push(dense[&w]);
            }
        }

        // Phase 1: m_0 uniform random neighbors per node.
        let m0 = schedule.m_at(0);
        let mut m: Vec<Vec<u32>> = (0..n)
            .into_par_iter()
            .map(|u| {
                let mut rng = stream(seed, u as u64, 1);
                (0..m0).map(|_| nbr[u * d + rng.random_range(0..d)]).collect()
            })
            .collect();

        let mut failures = 0u64;
        let mut max_node_msgs = 0u64;
        let mut max_node_bits = 0u64;
        let mut total_msgs = 0u64;

        for i in 1..=schedule.iterations {
            let mi = schedule.m_at(i);

            // Phase 2: every node pops m_i walk endpoints and targets them.
            let (requests, req_underflows): (Vec<Vec<u32>>, Vec<u64>) = m
                .par_iter_mut()
                .enumerate()
                .map(|(u, set)| {
                    let mut rng = stream(seed, u as u64, 100 + i as u64);
                    let mut under = 0u64;
                    let targets: Vec<u32> = (0..mi)
                        .map(|_| {
                            if set.is_empty() {
                                under += 1;
                                u as u32 // fallback: self, like the envelope version
                            } else {
                                let k = rng.random_range(0..set.len());
                                set.swap_remove(k)
                            }
                        })
                        .collect();
                    (targets, under)
                })
                .unzip();
            failures += req_underflows.iter().sum::<u64>();

            // Bucket requests by target (serial scatter; cheap relative to the
            // parallel pops around it).
            let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n];
            for (u, targets) in requests.iter().enumerate() {
                for &t in targets {
                    buckets[t as usize].push(u as u32);
                }
            }

            // Phase 3: every node answers its incoming requests by popping
            // from its own M. Buckets align with M, so this parallelizes.
            let (responses, resp_underflows): (Vec<Vec<(u32, u32)>>, Vec<u64>) = m
                .par_iter_mut()
                .zip(buckets.par_iter())
                .enumerate()
                .map(|(v, (set, bucket))| {
                    let mut rng = stream(seed, v as u64, 200 + i as u64);
                    let mut under = 0u64;
                    let out: Vec<(u32, u32)> = bucket
                        .iter()
                        .map(|&from| {
                            let id = if set.is_empty() {
                                under += 1;
                                v as u32 // fallback: self
                            } else {
                                let k = rng.random_range(0..set.len());
                                set.swap_remove(k)
                            };
                            (from, id)
                        })
                        .collect();
                    (out, under)
                })
                .unzip();
            failures += resp_underflows.iter().sum::<u64>();

            // Phase 4: regroup responses by requester.
            let mut new_m: Vec<Vec<u32>> = vec![Vec::with_capacity(mi); n];
            for resp in &responses {
                for &(from, id) in resp {
                    new_m[from as usize].push(id);
                }
            }
            m = new_m;

            // Work accounting (matching the envelope implementation):
            // request round: each node sends m_i requests; response round: each
            // node receives its bucket and sends as many responses; final
            // round: receives m_i responses.
            let max_bucket = buckets.par_iter().map(Vec::len).max().unwrap_or(0) as u64;
            max_node_msgs = max_node_msgs.max(mi as u64).max(2 * max_bucket).max(mi as u64);
            max_node_bits = max_node_bits
                .max(mi as u64 * REQUEST_BITS)
                .max(max_bucket * (REQUEST_BITS + RESPONSE_BITS))
                .max(mi as u64 * RESPONSE_BITS);
            // n*m_i requests + n*m_i responses, each charged as one send event
            // and one receive event (matching CommStats conventions).
            total_msgs += 4 * (n * mi) as u64;
        }

        ReferenceRun { samples: m, failures, max_node_msgs, max_node_bits, total_msgs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use simnet::NodeId;

    fn graph(n: u64, seed: u64) -> HGraph {
        graph_of_degree(n, 8, seed)
    }

    fn graph_of_degree(n: u64, d: usize, seed: u64) -> HGraph {
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        HGraph::random(&nodes, d, &mut rng)
    }

    /// Seeded cases for the differential: mostly small populations, every
    /// tenth one in the hundreds (on a thin schedule, to keep a debug run
    /// short), degrees whose Phase 1 draw rejects (6, 10, 12) and does not
    /// (8), schedules from one iteration (`alpha` 0.1) to six, and
    /// multiset constants from far too small (underflows in every
    /// iteration) to generous. `Schedule::algorithm1` rejects d <= 4
    /// (Lemma 2's log base is d/4), so 6 is the smallest degree there is.
    fn differential_case(k: u64) -> (HGraph, SamplingParams, u64) {
        let mut rng = simnet::rng::stream(0xD1FF, k, 0);
        let big = k % 10 == 9;
        let n = if big { rng.random_range(200..=600) } else { rng.random_range(3..=70) };
        let d = [6, 8, 10, 12][rng.random_range(0..4usize)];
        let c_choices: &[f64] =
            if big { &[0.05, 0.15, 0.4] } else { &[0.05, 0.15, 0.5, 1.0, 2.0, 4.0] };
        let params = SamplingParams {
            alpha: [0.1, 0.5, 1.0, 2.0][rng.random_range(0..4usize)],
            beta: 1.0,
            epsilon: [0.01, 0.25, 0.5, 1.0][rng.random_range(0..4usize)],
            c: c_choices[rng.random_range(0..c_choices.len())],
        };
        (graph_of_degree(n, d, 1000 + k), params, rng.random())
    }

    #[test]
    fn flat_sampler_matches_the_reference() {
        let (mut underflowed, mut single_iteration, mut rejecting_degree) = (0, 0, 0);
        for k in 0..240 {
            let (g, params, seed) = differential_case(k);
            let what = format!("case {k}: n={} d={} {params:?} seed={seed}", g.len(), g.degree());
            let flat = run_alg1_direct_observed(&g, &params, seed, &Telemetry::disabled());
            let oracle = reference::run(&g, &params, seed);
            assert_eq!(flat.samples.len(), oracle.samples.len(), "{what}");
            for (u, (got, want)) in flat.samples.iter().zip(&oracle.samples).enumerate() {
                assert_eq!(got, want.as_slice(), "{what}: row {u}");
            }
            assert_eq!(flat.metrics.failures, oracle.failures, "{what}");
            assert_eq!(flat.metrics.max_node_msgs, oracle.max_node_msgs, "{what}");
            assert_eq!(flat.metrics.max_node_bits, oracle.max_node_bits, "{what}");
            assert_eq!(flat.metrics.total_msgs, oracle.total_msgs, "{what}");
            let row_len = oracle.samples.iter().map(Vec::len).min().unwrap();
            assert_eq!(flat.metrics.samples_per_node, row_len, "{what}");
            underflowed += usize::from(oracle.failures > 0);
            single_iteration += usize::from(flat.metrics.iterations == 1);
            rejecting_degree += usize::from(g.degree() != 8);
        }
        // The sweep must reach the paths it exists for.
        assert!(underflowed >= 40, "only {underflowed} cases underflowed");
        assert!(single_iteration >= 10, "only {single_iteration} one-iteration schedules");
        assert!(rejecting_degree >= 100, "only {rejecting_degree} cases off d = 8");
    }

    #[test]
    fn flat_sampler_matches_the_reference_at_benchmark_shape() {
        // Default schedule, n in the hundreds: the shape `expander_churn`
        // runs (m_0 in the thousands, so Phase 1's scratch row is reused
        // across many nodes and every arena is exercised at full stride).
        let g = graph(300, 21);
        let params = SamplingParams::default();
        let flat = run_alg1_direct_observed(&g, &params, 11, &Telemetry::disabled());
        let oracle = reference::run(&g, &params, 11);
        let rows: Vec<Vec<u32>> = flat.samples.iter().map(<[u32]>::to_vec).collect();
        assert_eq!(rows, oracle.samples);
        assert_eq!(flat.metrics.failures, 0);
        assert_eq!(flat.metrics.max_node_msgs, oracle.max_node_msgs);
    }

    #[test]
    fn pool_size_does_not_change_the_run() {
        let cases = [
            (graph(257, 8), SamplingParams::default(), 5),
            (
                graph_of_degree(97, 6, 9),
                SamplingParams { epsilon: 0.01, c: 0.15, ..SamplingParams::default() },
                6,
            ),
            (graph(3, 10), SamplingParams::default(), 7),
        ];
        for (g, params, seed) in &cases {
            let run = |threads: usize| {
                let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
                pool.install(|| run_alg1_direct_observed(g, params, *seed, &Telemetry::disabled()))
            };
            let serial = run(1);
            assert_eq!(run(2), serial, "n={} two workers", g.len());
            assert_eq!(run(3), serial, "n={} three workers", g.len());
        }
    }

    #[test]
    fn direct_mode_delivers_full_sample_sets() {
        let g = graph(256, 1);
        let p = SamplingParams::default();
        let run = run_alg1_direct_observed(&g, &p, 3, &Telemetry::disabled());
        assert_eq!(run.samples.len(), 256);
        assert_eq!(run.metrics.failures, 0);
        let need = p.samples_needed(256);
        for s in &run.samples {
            assert!(s.len() >= need);
        }
    }

    #[test]
    fn direct_mode_scales_to_larger_n() {
        let g = graph(4096, 2);
        let run =
            run_alg1_direct_observed(&g, &SamplingParams::default(), 5, &Telemetry::disabled());
        assert_eq!(run.metrics.failures, 0);
        assert!(run.metrics.rounds <= 13, "rounds {}", run.metrics.rounds);
    }

    #[test]
    fn distribution_agrees_with_envelope_version() {
        // Pool all samples and compare both implementations against the
        // uniform distribution — both must pass at the same confidence.
        let g = graph(64, 3);
        let p = SamplingParams { c: 4.0, ..SamplingParams::default() };
        let direct = run_alg1_direct_observed(&g, &p, 7, &Telemetry::disabled());
        let mut counts = vec![0u64; 64];
        for s in &direct.samples {
            for &id in s {
                counts[id as usize] += 1;
            }
        }
        let (_, p_direct) = overlay_stats::uniform_fit(&counts);
        assert!(p_direct > 1e-4, "direct-mode uniformity rejected: {p_direct}");

        let (env_samples, _) =
            crate::sampling::run_alg1_observed(&g, &p, 7, &Telemetry::disabled());
        let mut counts2 = vec![0u64; 64];
        for (_, s) in &env_samples {
            for id in s {
                counts2[id.raw() as usize] += 1;
            }
        }
        let (_, p_env) = overlay_stats::uniform_fit(&counts2);
        assert!(p_env > 1e-4, "envelope uniformity rejected: {p_env}");
    }

    #[test]
    fn deterministic_given_seed() {
        let g = graph(128, 4);
        let p = SamplingParams::default();
        let a = run_alg1_direct_observed(&g, &p, 11, &Telemetry::disabled());
        let b = run_alg1_direct_observed(&g, &p, 11, &Telemetry::disabled());
        assert_eq!(a.samples, b.samples);
    }

    #[test]
    fn undersized_schedule_reports_failures() {
        let g = graph(128, 5);
        let p = SamplingParams { epsilon: 0.01, c: 0.15, ..SamplingParams::default() };
        let run = run_alg1_direct_observed(&g, &p, 13, &Telemetry::disabled());
        assert!(run.metrics.failures > 0);
    }
}
