//! The workload engine: drives a [`WorkloadSpec`] through the robust
//! DHT / pubsub stack under a fault campaign.
//!
//! ## Execution model
//!
//! The engine runs in *batches*. Each batch:
//!
//! 1. shows the campaign the current topology (servers + group
//!    composition from [`overlay_apps::dht::kary_groups::KaryGroups`]) and
//!    asks for the round's [`BlockSet`];
//! 2. generates `batch_size` seed-deterministic ops (Zipf key mix,
//!    hot-set storm, or chat publishes + fan-out fetches);
//! 3. serves them (`RobustDht::serve_batch` / `PubSub` calls), folding
//!    requests, completions, per-op latency buckets and message costs
//!    into a [`GoodputAccount`] and the replay [`WorkloadTrace`];
//! 4. advances the DHT the rounds the batch consumed; at every epoch
//!    boundary the engine runs the Section 4 sampling control plane
//!    (`run_alg2`) **through the selected simulation backend** and folds
//!    the sampled ids into the trace. The resulting salt seeds hot-set
//!    rotations, so a backend that sampled differently would visibly
//!    change the op stream — cross-backend bit-identity of the trace is a
//!    real parity claim, not a vacuous one.
//!
//! ## Latency accounting
//!
//! DHT ops get their true per-op latency from `BatchMetrics::latency`
//! (round the quorum-th replica arrived, simulate+synchronize scale).
//! Chat ops route one at a time, so the engine charges the uncongested
//! single-op costs: `2*(d+1)+2` rounds per publish (`d` = butterfly
//! depth) and `(1 + reads) * (2d+2)` per fetch. Each subscriber keeps a
//! feed cursor, so `reads` is what was published since its last complete
//! fetch: a subscriber that has not fetched for a while (a joiner, one
//! past the fan-out cap, one whose fetch was suppressed) pays for the
//! whole gap, which is where the chat tail comes from.

use overlay_adversary::adaptive::Attacker;
use overlay_adversary::churn::{ChurnEvent, ChurnSchedule, ChurnStrategy};
use overlay_adversary::lateness::{SharedSnapshot, TopologySnapshot};
use overlay_apps::dht::{DhtError, DhtOp, RobustDht, MESSAGE_BITS};
use overlay_apps::pubsub::{FetchOutcome, PubSub};
use overlay_stats::{GoodputAccount, LatencySummary};
use rand::RngExt;
use reconfig_core::backend;
use reconfig_core::config::SamplingParams;
use reconfig_core::dos::EpochClock;
use reconfig_core::sampling::run_alg2_observed;
use serde::{Deserialize, Serialize};
use simnet::rng::NodeRng;
use simnet::{BlockSet, Digest, NodeId};
use std::collections::BTreeSet;
use std::sync::Arc;
use telemetry::{EventKind, Telemetry};

use crate::spec::{WorkloadKind, WorkloadSpec};
use crate::trace::WorkloadTrace;
use crate::zipf::Zipf;

/// Outcome of one workload run. Two runs with equal `(spec, campaign)`
/// produce equal reports on every parity backend.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadReport {
    /// Workload kind name (`zipf-kv` / `hot-key` / `chat`).
    pub kind: String,
    /// The campaign's label.
    pub attacker: String,
    /// Batches executed.
    pub batches: u64,
    /// DHT rounds stepped.
    pub rounds: u64,
    /// Reconfiguration epochs the control plane executed.
    pub epochs: u64,
    /// Epochs whose availability precondition failed.
    pub failed_epochs: u64,
    /// Hot-set rotations performed (0 outside `hot-key`).
    pub rotations: u64,
    /// The op/bit/latency account.
    pub account: GoodputAccount,
    /// Replay digest of the full run history.
    pub trace_digest: u64,
}

impl WorkloadReport {
    /// p50/p99/p999/max completed-op latency in rounds.
    pub fn latency(&self) -> LatencySummary {
        self.account.latency_summary()
    }
}

/// Per-epoch control plane: steps the DHT round by round and, at each
/// epoch boundary of its clock, executes the sampling algorithm on the
/// selected backend, distilling the sampled ids into a salt.
struct ControlPlane {
    seed: u64,
    sched_dim: u32,
    salt: u64,
    /// The campaign's view of the DHT and the epoch it was built in: the
    /// groups only resample at an epoch boundary, so one snapshot serves
    /// every batch of an epoch.
    topology: Option<(u64, Arc<TopologySnapshot>)>,
}

impl ControlPlane {
    fn new(spec: &WorkloadSpec, dht: &RobustDht) -> Self {
        let sched_dim = EpochClock::schedule_dim(dht.groups().cube().dim().max(2));
        Self { seed: spec.seed, sched_dim, salt: 0, topology: None }
    }

    /// The DHT's current topology for the campaign, built on the first
    /// batch of each epoch and shared by the rest.
    fn snapshot(&mut self, dht: &RobustDht) -> SharedSnapshot {
        let (round, epoch) = (dht.clock().round(), dht.clock().epochs());
        if self.topology.as_ref().is_none_or(|(built, _)| *built != epoch) {
            self.topology = Some((epoch, Arc::new(snapshot(round, dht))));
        }
        let (_, topo) = self.topology.as_ref().expect("built above");
        SharedSnapshot::new(round, Arc::clone(topo))
    }

    /// Step `k` DHT rounds under `blocked`, running the backend-dispatched
    /// sampling control plane at every epoch boundary crossed.
    fn advance(
        &mut self,
        dht: &mut RobustDht,
        blocked: &BlockSet,
        k: u64,
        trace: &mut WorkloadTrace,
        tel: &Telemetry,
    ) {
        for _ in 0..k {
            dht.step(blocked);
            if dht.clock().closed_epoch().is_none() {
                continue;
            }
            let epoch = dht.clock().epochs();
            let epoch_seed = self.seed ^ epoch.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            // Dispatched via `backend::select()` inside: every backend that
            // delivers in parity's order must sample identically here or the
            // trace digest (and the hot-set rotations downstream) diverge.
            let (samples, _metrics) =
                run_alg2_observed(self.sched_dim, &SamplingParams::default(), epoch_seed, tel);
            let mut d = Digest::new();
            d.write_u64(epoch);
            for (v, s) in &samples {
                d.write_u64(v.raw());
                for x in s {
                    d.write_u64(x.raw());
                }
            }
            self.salt = d.finish();
            trace.epoch(epoch, self.salt);
        }
    }
}

/// The workload engine. Stateless — [`WorkloadEngine::run`] owns a whole
/// run from spec to report.
pub struct WorkloadEngine;

impl WorkloadEngine {
    /// Run `spec` against `attacker`, mirroring progress into `tel`
    /// (pure observability: the report is identical with telemetry
    /// disabled).
    ///
    /// The spec must already be validated; an invalid spec panics.
    pub fn run(
        spec: &WorkloadSpec,
        attacker: &mut dyn Attacker,
        tel: &Telemetry,
    ) -> WorkloadReport {
        Self::run_stepped(spec, attacker, tel, &mut |_| {})
    }

    /// [`WorkloadEngine::run`], showing `after_batch` the serving DHT once
    /// each batch is served and its rounds are stepped: its clock (rounds,
    /// epochs) and `messages_total` so far. Pure observation, like `tel`;
    /// `tests/cost.rs` reads its per-batch counters here.
    pub fn run_stepped(
        spec: &WorkloadSpec,
        attacker: &mut dyn Attacker,
        tel: &Telemetry,
        after_batch: &mut dyn FnMut(&RobustDht),
    ) -> WorkloadReport {
        spec.validate().expect("spec validated before running");
        let tel = tel.with_labels(&[("overlay", "workload")]);
        match &spec.kind {
            WorkloadKind::ZipfKv { .. } | WorkloadKind::HotKey { .. } => {
                run_kv(spec, attacker, &tel, after_batch)
            }
            WorkloadKind::Chat { .. } => run_chat(spec, attacker, &tel, after_batch),
        }
    }
}

/// Snapshot the DHT's current topology.
fn snapshot(round: u64, dht: &RobustDht) -> TopologySnapshot {
    TopologySnapshot {
        round,
        nodes: (0..dht.len() as u64).map(NodeId).collect(),
        edges: Vec::new(),
        groups: dht.groups().groups().to_vec(),
        group_edges: Vec::new(),
    }
}

/// Mirror a batch outcome into telemetry (workload.* namespace).
fn observe_batch(
    tel: &Telemetry,
    round: u64,
    kind: &str,
    attempted: u64,
    completed: u64,
    messages: u64,
) {
    tel.counter("workload.ops", &[]).add(attempted);
    tel.counter("workload.completed", &[]).add(completed);
    tel.counter("workload.suppressed", &[]).add(attempted - completed);
    tel.counter("workload.messages", &[]).add(messages);
    tel.emit(round, EventKind::OpBatch, None, completed, || kind.to_string());
}

/// Replay a latency histogram into the `workload.op_latency_rounds`
/// telemetry histogram (bucket-representative values, same layout).
fn observe_latency(tel: &Telemetry, buckets: &[u64]) {
    let hist = tel.histogram("workload.op_latency_rounds", &[]);
    for (i, &b) in buckets.iter().enumerate() {
        for _ in 0..b {
            hist.record(if i == 0 { 0 } else { 1u64 << (i - 1) });
        }
    }
}

/// W1/W2: Zipf-skewed and hot-key get/put mixes over the DHT.
fn run_kv(
    spec: &WorkloadSpec,
    attacker: &mut dyn Attacker,
    tel: &Telemetry,
    after_batch: &mut dyn FnMut(&RobustDht),
) -> WorkloadReport {
    let mut dht = RobustDht::new(spec.n, 2.0, spec.seed);
    dht.set_telemetry(tel.clone());
    let mut ctl = ControlPlane::new(spec, &dht);
    let mut trace = WorkloadTrace::new(spec);
    let mut account = GoodputAccount::new();
    let mut gen = simnet::rng::stream(spec.seed, 1, 0x574B_4C31);
    let mut rotations = 0u64;
    let mut hot: Vec<u64> = Vec::new();
    // The cumulative table costs a `powf` per rank; it depends on the spec
    // alone, so one serves every batch.
    let zipf = match spec.kind {
        WorkloadKind::ZipfKv { keyspace, skew, .. } => Some(Zipf::new(keyspace, skew)),
        _ => None,
    };

    for batch in 0..spec.batches {
        attacker.observe(ctl.snapshot(&dht));
        let round = dht.clock().round();
        let blocked = attacker.block(round, spec.n);
        trace.blocked(round, &blocked);

        // Hot-set rotation: seeded by the control plane's sampling salt,
        // so the op stream depends on what the backend sampled.
        if let WorkloadKind::HotKey { keyspace, top_k, rotate_every, .. } = spec.kind {
            if batch % rotate_every == 0 {
                hot = rotate_hot_set(spec.seed, ctl.salt, rotations, top_k, keyspace);
                trace.rotation(rotations, &hot);
                tel.emit(round, EventKind::HotRotation, None, rotations, || {
                    format!("salt {:#018x}", ctl.salt)
                });
                rotations += 1;
            }
        }

        let ops = generate_kv_ops(spec, zipf.as_ref(), &hot, &mut gen, &mut trace);
        let m = dht.serve_batch(&ops, &blocked);
        account.fold_batch(&m.latency, m.requests as u64, (m.requests - m.completed) as u64);
        account.add_bits(m.messages * MESSAGE_BITS);
        account.add_rounds(m.rounds);
        trace.batch(&m);
        observe_batch(
            tel,
            round,
            spec.kind.name(),
            m.requests as u64,
            m.completed as u64,
            m.messages,
        );
        observe_latency(tel, m.latency.buckets());

        ctl.advance(&mut dht, &blocked, m.rounds, &mut trace, tel);
        after_batch(&dht);
    }
    let clock = dht.clock();
    tel.gauge("workload.rounds", &[]).record_max(clock.round());

    WorkloadReport {
        kind: spec.kind.name().to_string(),
        attacker: attacker.label(),
        batches: spec.batches,
        rounds: clock.round(),
        epochs: clock.epochs(),
        failed_epochs: clock.failed_epochs(),
        rotations,
        account,
        trace_digest: trace.finish(),
    }
}

/// Derive a fresh hot set from the master seed, the control-plane salt
/// and the rotation index.
fn rotate_hot_set(seed: u64, salt: u64, rotation: u64, top_k: usize, keyspace: u64) -> Vec<u64> {
    let mut d = Digest::new();
    d.write_u64(seed).write_u64(salt).write_u64(rotation);
    let mut rng = simnet::rng::stream(d.finish(), 2, 0x484F_5421);
    let mut set = BTreeSet::new();
    // Draw until top_k distinct keys (or the keyspace is exhausted).
    while set.len() < top_k.min(keyspace as usize) {
        set.insert(rng.random_range(0..keyspace));
    }
    set.into_iter().collect()
}

/// One batch of get/put ops for the ZipfKv / HotKey mixes (`zipf` is the
/// ZipfKv spec's sampler, `hot` the HotKey spec's current hot set).
fn generate_kv_ops(
    spec: &WorkloadSpec,
    zipf: Option<&Zipf>,
    hot: &[u64],
    gen: &mut NodeRng,
    trace: &mut WorkloadTrace,
) -> Vec<DhtOp> {
    let mut ops = Vec::with_capacity(spec.batch_size);
    match &spec.kind {
        WorkloadKind::ZipfKv { read_fraction, .. } => {
            let zipf = zipf.expect("run_kv builds the sampler of a ZipfKv spec");
            for _ in 0..spec.batch_size {
                let key = zipf.sample(gen);
                if gen.random_bool(*read_fraction) {
                    trace.op(0, key, 0);
                    ops.push(DhtOp::Read { key });
                } else {
                    let value = gen.random::<u64>();
                    trace.op(1, key, value);
                    ops.push(DhtOp::Write { key, value });
                }
            }
        }
        WorkloadKind::HotKey { keyspace, hot_fraction, .. } => {
            for _ in 0..spec.batch_size {
                let key = if !hot.is_empty() && gen.random_bool(*hot_fraction) {
                    hot[gen.random_range(0..hot.len() as u64) as usize]
                } else {
                    gen.random_range(0..*keyspace)
                };
                // Hot storms mix reads and writes evenly.
                if gen.random_bool(0.5) {
                    trace.op(0, key, 0);
                    ops.push(DhtOp::Read { key });
                } else {
                    let value = gen.random::<u64>();
                    trace.op(1, key, value);
                    ops.push(DhtOp::Write { key, value });
                }
            }
        }
        WorkloadKind::Chat { .. } => unreachable!("chat runs through run_chat"),
    }
    ops
}

/// W3: fan-out chat feeds with per-topic subscriber churn over pubsub.
fn run_chat(
    spec: &WorkloadSpec,
    attacker: &mut dyn Attacker,
    tel: &Telemetry,
    after_batch: &mut dyn FnMut(&RobustDht),
) -> WorkloadReport {
    let WorkloadKind::Chat { topics, skew, subscribers, churn_rate, fanout_cap } = spec.kind else {
        unreachable!("run_chat only handles Chat specs");
    };
    let mut ps = PubSub::new(spec.n, spec.seed);
    ps.set_telemetry(tel.clone());
    let mut ctl = ControlPlane::new(spec, ps.dht());
    let mut trace = WorkloadTrace::new(spec);
    let mut account = GoodputAccount::new();
    let mut gen = simnet::rng::stream(spec.seed, 1, 0x574B_4C31);
    let mut churn_rng = simnet::rng::stream(spec.seed, 3, 0x574B_4C33);
    let zipf = Zipf::new(topics, skew);

    // Subscriber population: logical clients, ids disjoint from servers.
    let first_sub = 1u64 << 32;
    let mut subs =
        Subscribers::new((0..subscribers as u64).map(|i| NodeId(first_sub + i)).collect());
    let mut churn =
        ChurnSchedule::new(ChurnStrategy::Random, churn_rate, 0.5, first_sub + subscribers as u64);
    let depth = ps.dht().groups().cube().dim() as u64;
    let publish_latency = 2 * (depth + 1) + 2;
    let read_cost = 2 * depth + 2;
    let reads_per_fetch = tel.histogram("workload.reads_per_fetch", &[]);

    for _ in 0..spec.batches {
        attacker.observe(ctl.snapshot(ps.dht()));
        let round = ps.dht().clock().round();
        let blocked = attacker.block(round, spec.n);
        trace.blocked(round, &blocked);

        // Per-topic subscriber churn: the existing churn adversary
        // prescribes the joins/leaves of the subscriber population.
        if subs.members.len() >= 4 {
            let ev = churn.next(&subs.members, &mut churn_rng);
            subs.churn(&ev);
            for l in &ev.leaves {
                trace.value(l.raw());
            }
            for j in &ev.joins {
                trace.value(j.new_node.raw());
            }
        }

        // Fan-out publishes over Zipf-popular topics.
        let pubs: Vec<(u64, u64)> = (0..spec.batch_size)
            .map(|_| {
                let topic = zipf.sample(&mut gen);
                let payload = gen.random::<u64>();
                trace.op(2, topic, payload);
                (topic, payload)
            })
            .collect();
        let msgs_before = ps.dht().messages_total;
        let mut batch_rounds = 0u64;
        let mut batch_attempted = 0u64;
        let mut batch_completed = 0u64;
        match ps.publish_batch(&pubs, &blocked) {
            Ok(pm) => {
                for _ in 0..pm.stored {
                    account.complete(publish_latency);
                }
                for _ in 0..pm.suppressed {
                    account.suppress();
                }
                batch_attempted += pm.submitted as u64;
                batch_completed += pm.stored as u64;
                batch_rounds = batch_rounds.max(pm.rounds);
                trace.value(pm.stored as u64);
                trace.value(pm.suppressed as u64);
            }
            Err(_) => {
                // No butterfly route at all: the whole batch is lost.
                for _ in 0..pubs.len() {
                    account.suppress();
                }
                batch_attempted += pubs.len() as u64;
                trace.value(u64::MAX);
            }
        }

        // Fan-out delivery: up to `fanout_cap` subscribers of each topic
        // touched this batch read what is new on its feed.
        let touched: BTreeSet<u64> = pubs.iter().map(|&(t, _)| t).collect();
        for &topic in &touched {
            subs.fan_out(&mut ps, topic, topics, fanout_cap, &blocked, |_, fetched| {
                batch_attempted += 1;
                if let Ok(out) = fetched {
                    reads_per_fetch.record(1 + (out.delivered.len() + out.suppressed) as u64);
                }
                match fetched {
                    Ok(out) if out.suppressed == 0 => {
                        let reads = 1 + out.delivered.len() as u64;
                        account.complete(reads * read_cost);
                        batch_completed += 1;
                        batch_rounds = batch_rounds.max(reads * read_cost);
                        trace.value(out.delivered.len() as u64);
                        for &p in &out.delivered {
                            trace.value(p);
                        }
                    }
                    Ok(out) => {
                        account.suppress();
                        trace.value(out.suppressed as u64);
                    }
                    Err(_) => {
                        account.suppress();
                        trace.value(u64::MAX);
                    }
                }
            });
        }
        let messages = ps.dht().messages_total - msgs_before;
        account.add_bits(messages * MESSAGE_BITS);
        account.add_rounds(batch_rounds);
        trace.batches += 1;
        trace.value(messages);
        observe_batch(tel, round, "chat", batch_attempted, batch_completed, messages);

        ctl.advance(ps.dht_mut(), &blocked, batch_rounds.max(1), &mut trace, tel);
        after_batch(ps.dht());
    }
    observe_latency(tel, account.latency().buckets());
    let clock = ps.dht().clock();
    tel.gauge("workload.rounds", &[]).record_max(clock.round());

    WorkloadReport {
        kind: "chat".to_string(),
        attacker: attacker.label(),
        batches: spec.batches,
        rounds: clock.round(),
        epochs: clock.epochs(),
        failed_epochs: clock.failed_epochs(),
        rotations: 0,
        account,
        trace_digest: trace.finish(),
    }
}

/// The chat subscriber population and, at the same positions, each
/// member's feed cursor: the last index of its home topic it has read
/// (DESIGN.md §6's position rule; no id-keyed map). Churn keeps the two in
/// step: a leaver's cursor goes with it and a joiner's starts at 0, so its
/// first complete fetch catches up on the whole feed.
struct Subscribers {
    members: Vec<NodeId>,
    cursors: Vec<u64>,
}

impl Subscribers {
    fn new(members: Vec<NodeId>) -> Self {
        let cursors = vec![0; members.len()];
        Self { members, cursors }
    }

    fn churn(&mut self, ev: &ChurnEvent) {
        ev.apply_aligned(&mut self.members, &mut self.cursors, 0);
    }

    /// The first `cap` subscribers of `topic`, in member order, each fetch
    /// what is new to it, and `seen` gets each one's result. A cursor moves
    /// to the head its fetch read only if nothing was suppressed; a
    /// suppressed fetch is read again from the old cursor next time.
    fn fan_out(
        &mut self,
        ps: &mut PubSub,
        topic: u64,
        topics: u64,
        cap: usize,
        blocked: &BlockSet,
        mut seen: impl FnMut(NodeId, &Result<FetchOutcome, DhtError>),
    ) {
        let readers = self
            .members
            .iter()
            .zip(&mut self.cursors)
            .filter(|(m, _)| topic_of(m.raw(), topics) == topic)
            .take(cap);
        for (&member, cursor) in readers {
            let fetched = ps.fetch_after(topic, *cursor, blocked);
            if let Ok(out) = &fetched {
                if out.suppressed == 0 {
                    *cursor = out.head;
                }
            }
            seen(member, &fetched);
        }
    }
}

/// A subscriber's home topic: a fixed SplitMix-style hash of its id.
fn topic_of(subscriber: u64, topics: u64) -> u64 {
    let mut x = subscriber.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)) % topics
}

/// Run the same `(spec, campaign-builder)` on a specific backend.
///
/// Convenience wrapper for the determinism tests and the bench binaries:
/// the campaign is rebuilt per run (attackers are stateful), and the
/// whole run — including the epoch control plane — executes under
/// [`backend::with_backend`].
pub fn run_on_backend(
    be: backend::Backend,
    spec: &WorkloadSpec,
    mut make_attacker: impl FnMut() -> Box<dyn Attacker>,
    tel: &Telemetry,
) -> WorkloadReport {
    backend::with_backend(be, || {
        let mut attacker = make_attacker();
        WorkloadEngine::run(spec, &mut attacker, tel)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_adversary::Campaign;

    fn kv_spec() -> WorkloadSpec {
        WorkloadSpec {
            n: 128,
            seed: 11,
            batches: 3,
            batch_size: 48,
            kind: WorkloadKind::ZipfKv { keyspace: 200, skew: 1.0, read_fraction: 0.4 },
        }
    }

    fn hot_spec() -> WorkloadSpec {
        WorkloadSpec {
            n: 128,
            seed: 12,
            batches: 4,
            batch_size: 32,
            kind: WorkloadKind::HotKey {
                keyspace: 500,
                top_k: 8,
                rotate_every: 2,
                hot_fraction: 0.8,
            },
        }
    }

    fn chat_spec() -> WorkloadSpec {
        WorkloadSpec {
            n: 128,
            seed: 13,
            batches: 3,
            batch_size: 16,
            kind: WorkloadKind::Chat {
                topics: 8,
                skew: 0.8,
                subscribers: 40,
                churn_rate: 1.3,
                fanout_cap: 2,
            },
        }
    }

    fn run(spec: &WorkloadSpec, campaign: &str) -> WorkloadReport {
        let mut attacker = Campaign::preset(campaign, 0.02, 2, spec.seed).unwrap();
        WorkloadEngine::run(spec, &mut attacker, &Telemetry::disabled())
    }

    #[test]
    fn fault_free_kv_completes_everything() {
        let r = run(&kv_spec(), "none");
        assert_eq!(r.kind, "zipf-kv");
        assert_eq!(r.account.attempted, 3 * 48);
        assert_eq!(r.account.completed, r.account.attempted);
        assert_eq!(r.account.latency().total(), r.account.completed);
        assert!(r.account.bits > 0);
        assert!(r.rounds > 0);
        assert!(r.account.goodput_per_bit() > 0.0);
    }

    #[test]
    fn hot_key_rotates_and_completes() {
        let r = run(&hot_spec(), "none");
        assert_eq!(r.kind, "hot-key");
        assert_eq!(r.rotations, 2, "4 batches / rotate_every 2");
        assert_eq!(r.account.completed, r.account.attempted);
    }

    #[test]
    fn chat_delivers_fanout_under_churned_subscribers() {
        let r = run(&chat_spec(), "none");
        assert_eq!(r.kind, "chat");
        assert!(r.account.attempted > 3 * 16, "fetch fan-out adds ops beyond publishes");
        assert_eq!(r.account.completed, r.account.attempted, "fault-free chat loses nothing");
        assert!(r.account.latency_summary().max >= r.account.latency_summary().p50);
    }

    /// The whole-feed fetch is the cursors' oracle. Over seeded publish,
    /// block and churn sequences, the publications each subscriber's
    /// complete fetches delivered, concatenated, are its topic's whole feed
    /// read fault-free: nothing skipped, nothing read twice, whether the
    /// subscriber was there from the start, joined late and caught up, or
    /// had a fetch suppressed on the way.
    #[test]
    fn cursor_deliveries_concatenate_to_the_whole_feed() {
        let (n, topics, first) = (128usize, 4u64, 1u64 << 32);
        let none = BlockSet::none();
        let (mut suppressed, mut catch_ups) = (0, 0);
        for seed in 0..4u64 {
            let mut ps = PubSub::new(n, seed);
            let mut subs = Subscribers::new((0..24).map(|i| NodeId(first + i)).collect());
            let mut churn = ChurnSchedule::new(ChurnStrategy::Random, 1.3, 0.5, first + 24);
            let mut rng = simnet::rng::stream(seed, 5, 0xC0);
            // Deliveries by subscriber, at `id - first` (ids are handed out
            // in order, joiners after the initial 24).
            let mut got: Vec<Vec<u64>> = Vec::new();
            let mut fetch = |ps: &mut PubSub,
                             subs: &mut Subscribers,
                             topic,
                             cap,
                             blocked: &BlockSet| {
                subs.fan_out(ps, topic, topics, cap, blocked, |member, fetched| match fetched {
                    Ok(out) if out.suppressed == 0 => {
                        let i = (member.raw() - first) as usize;
                        got.resize_with(got.len().max(i + 1), Vec::new);
                        if i >= 24 && got[i].is_empty() && out.delivered.len() >= 2 {
                            catch_ups += 1;
                        }
                        got[i].extend(&out.delivered);
                    }
                    Ok(_) => suppressed += 1,
                    Err(_) => {}
                });
            };
            for batch in 0..12 {
                let ev = churn.next(&subs.members, &mut rng);
                subs.churn(&ev);
                let pubs: Vec<(u64, u64)> =
                    (0..8).map(|_| (rng.random_range(0..topics), rng.random())).collect();
                ps.publish_batch(&pubs, &none).unwrap();
                // Every third batch's fetches run with a third of the
                // servers blocked.
                let blocked: BlockSet = match batch % 3 {
                    1 => (0..n as u64).filter(|_| rng.random_bool(0.34)).map(NodeId).collect(),
                    _ => BlockSet::none(),
                };
                let touched: BTreeSet<u64> = pubs.iter().map(|&(t, _)| t).collect();
                for topic in touched {
                    fetch(&mut ps, &mut subs, topic, 3, &blocked);
                }
                assert_eq!(subs.cursors.len(), subs.members.len(), "seed {seed} batch {batch}");
            }
            // Fault-free, every member reads up to the head.
            for topic in 0..topics {
                fetch(&mut ps, &mut subs, topic, usize::MAX, &none);
            }
            for member in &subs.members {
                let want = ps.fetch(topic_of(member.raw(), topics), &none).unwrap();
                let got = got.get((member.raw() - first) as usize).map_or(&[][..], Vec::as_slice);
                assert_eq!(got, want, "seed {seed}: subscriber {member:?}");
            }
        }
        assert!(suppressed > 0, "no fetch was suppressed on the way");
        assert!(catch_ups > 0, "no joiner caught up on a backlog");
    }

    #[test]
    fn replay_is_bit_identical_and_seed_sensitive() {
        for spec in [kv_spec(), hot_spec(), chat_spec()] {
            let a = run(&spec, "a5");
            let b = run(&spec, "a5");
            assert_eq!(a, b, "same (spec, campaign) must replay identically");
            let mut reseeded = spec.clone();
            reseeded.seed ^= 0x5EED;
            let c = run(&reseeded, "a5");
            assert_ne!(a.trace_digest, c.trace_digest, "seed must matter ({})", spec.kind.name());
        }
    }

    #[test]
    fn campaign_arm_degrades_goodput_not_the_engine() {
        let control = run(&kv_spec(), "none");
        let attacked = run(&kv_spec(), "a5+a6");
        assert!(attacked.account.completed <= control.account.completed);
        assert!(attacked.account.attempted == control.account.attempted);
        assert!(attacked.attacker.starts_with("campaign["));
    }

    #[test]
    fn telemetry_attachment_does_not_change_the_report() {
        let spec = kv_spec();
        let quiet = run(&spec, "a5");
        let mut attacker = Campaign::preset("a5", 0.02, 2, spec.seed).unwrap();
        let loud = WorkloadEngine::run(&spec, &mut attacker, &Telemetry::collector());
        assert_eq!(quiet, loud, "telemetry is pure observability");
    }
}
