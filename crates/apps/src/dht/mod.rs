//! The robust DHT (Section 7.2, Theorem 8).
//!
//! A RoBuSt-style distributed storage system over a *fixed* set of `n`
//! servers, made DoS-resistant without full interconnection by running the
//! Section 5 reconfiguration on a **k-ary hypercube** of supernodes
//! (Definition 1) and emulating a k-ary **butterfly** over it for routing.
//! Data never moves during reconfiguration: values live on the fixed
//! servers (with logarithmic redundancy across hash-chosen replicas);
//! only the group overlay that routes requests is continuously resampled.
//!
//! Substitution note (documented in DESIGN.md): the original RoBuSt
//! internals (coding-based storage) are replaced by replication with
//! majority reads, which preserves the Theorem 8 claim shape — any batch
//! of read/write requests (O(1) per non-blocked server) completes in
//! polylogarithmic rounds with polylogarithmic congestion while at most
//! `gamma * n^(1/log log n)` servers are blocked.

pub mod kary_groups;
pub mod routing;
pub mod store;

use kary_groups::KaryGroups;
use overlay_stats::BucketHistogram;
use rand::RngExt;
use reconfig_core::config::SamplingParams;
use reconfig_core::dos::EpochClock;
use routing::{Packet, RouteScratch};
use serde::{Deserialize, Serialize};
use simnet::rng::NodeRng;
use simnet::{BlockSet, NodeId};
use store::{fill_replicas, ServerStore, MAX_REDUNDANCY};
use telemetry::{EventKind, Phase, Telemetry};

/// Accounting size of one routed message (key + value + addressing), in
/// bits. Every forwarded queue entry and every group <-> server exchange
/// is charged this much communication work.
pub const MESSAGE_BITS: u64 = 192;

/// Why a DHT operation failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DhtError {
    /// No route: some butterfly level had its group fully blocked.
    Unroutable,
    /// Fewer than a majority of replicas answered.
    QuorumFailed,
}

/// A read/write request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DhtOp {
    /// Read the value of a key.
    Read { key: u64 },
    /// Write a value to a key.
    Write { key: u64, value: u64 },
}

/// Metrics of one served batch (the Theorem 8 quantities).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct BatchMetrics {
    /// Requests in the batch.
    pub requests: usize,
    /// Requests completed successfully.
    pub completed: usize,
    /// Overlay rounds consumed (`O(log^3 n)` by Theorem 8).
    pub rounds: u64,
    /// Maximum messages handled by any single group in any round —
    /// the congestion bound (`O(log^3 n)`).
    pub congestion: u64,
    /// Per-completed-request latency in overlay rounds (the round the
    /// quorum-th replica arrived, on the same simulate+synchronize scale
    /// as [`BatchMetrics::rounds`]): the W-series tail-latency source.
    pub latency: BucketHistogram,
    /// Message events the batch cost: butterfly queue forwards (after
    /// combining) plus the final group <-> server exchanges. Multiply by
    /// [`MESSAGE_BITS`] for communication-work bits.
    pub messages: u64,
}

/// Buffers [`RobustDht::serve_batch`] refills on every call; they carry
/// nothing from one batch to the next.
#[derive(Default)]
struct BatchScratch {
    route: RouteScratch,
    /// The batch's ops, writes first.
    ordered: Vec<DhtOp>,
    /// One packet per (op, replica): op `i` owns packets
    /// `i * redundancy..(i + 1) * redundancy`, and `replicas` (the server
    /// each packet is for) is strided the same way.
    packets: Vec<Packet>,
    replicas: Vec<NodeId>,
}

/// The robust DHT.
pub struct RobustDht {
    /// The local stores of the fixed servers `0..n`, indexed by id.
    servers: Vec<ServerStore>,
    /// The reconfigurable k-ary hypercube of groups.
    groups: KaryGroups,
    /// Replicas per key (logarithmic redundancy).
    redundancy: usize,
    clock: EpochClock,
    rng: NodeRng,
    scratch: BatchScratch,
    /// Cumulative message events across every served batch and single
    /// read (multiply by [`MESSAGE_BITS`] for communication-work bits) —
    /// the workload engine's goodput denominator.
    pub messages_total: u64,
    /// Pure observability: batch/op metrics mirror into it; routing,
    /// resampling and the RNG never see or branch on the recorder, so it
    /// is excluded from replay digests.
    tel: Telemetry,
}

impl RobustDht {
    /// Stand up a DHT over servers `0..n`. `group_c` controls supernode
    /// count (`k^d <= n / (group_c * log2 n)`).
    pub fn new(n: usize, group_c: f64, seed: u64) -> Self {
        let nodes: Vec<NodeId> = (0..n as u64).map(NodeId).collect();
        let mut rng = simnet::rng::stream(seed, 4, 0xD47);
        let groups = KaryGroups::random(&nodes, group_c, &mut rng);
        let redundancy = ((n.max(4) as f64).log2().ceil() as usize).max(3);
        // The Section 5 epoch on the supernode population's binary
        // dimension, at least two.
        let dim = groups.cube().dim().max(2);
        let clock = EpochClock::new(EpochClock::epoch_len_for(dim, &SamplingParams::default()));
        Self {
            servers: vec![ServerStore::default(); n],
            groups,
            redundancy,
            clock,
            rng,
            scratch: BatchScratch::default(),
            messages_total: 0,
            tel: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry recorder. Pure observability — the DHT's
    /// behavior, RNG consumption and replay digests are identical with or
    /// without it (the telemetry determinism guard pins this pattern).
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel.with_labels(&[("overlay", "dht")]);
    }

    /// Servers in the system.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// True if no servers exist.
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Replicas per key.
    pub fn redundancy(&self) -> usize {
        self.redundancy
    }

    /// Rounds per reconfiguration epoch.
    pub fn epoch_len(&self) -> u64 {
        self.clock.epoch_len()
    }

    /// The reconfiguration epoch: rounds stepped, epochs completed and
    /// failed, and what the last round did at a boundary.
    pub fn clock(&self) -> &EpochClock {
        &self.clock
    }

    /// The group overlay.
    pub fn groups(&self) -> &KaryGroups {
        &self.groups
    }

    /// The Theorem 8 blocking budget `gamma * n^(1/log log n)`.
    pub fn blocking_budget(n: usize, gamma: f64) -> usize {
        let n_f = n.max(16) as f64;
        let exponent = 1.0 / n_f.log2().log2();
        (gamma * n_f.powf(exponent)).floor() as usize
    }

    /// Advance one overlay round under `blocked` (availability tracking +
    /// epoch-boundary group resampling, as in Section 5).
    pub fn step(&mut self, blocked: &BlockSet) {
        // A caller stepping through a batch's rounds passes one set over
        // and over: then a member is available iff it is not in that set,
        // and the clock has nothing to copy.
        let prev = self.clock.prev_blocked();
        let same = prev == blocked;
        let available = self
            .groups
            .groups()
            .iter()
            .all(|g| g.iter().any(|v| !blocked.contains(*v) && (same || !prev.contains(*v))));
        let Some(ok) = self.clock.close(!available, blocked) else { return };
        if ok {
            self.groups.resample(&mut self.rng);
        } else {
            self.tel.counter("dht.failed_epochs", &[]).inc();
        }
        let epoch = self.clock.epochs();
        self.tel.emit(self.clock.round(), EventKind::EpochFinished, None, u64::from(ok), || {
            format!("dht epoch {epoch} {}", if ok { "ok" } else { "failed" })
        });
    }

    /// Serve a batch of requests while `blocked` holds.
    ///
    /// Every request spawns one packet per replica; the packets are routed
    /// over the emulated butterfly by [`routing::route_batch`] (per-level
    /// queues, `O(log n)` forwards per group per round, Ranade-style
    /// combining of equal-key packets). The final group exchanges messages
    /// with the replica server directly — data never moves with the
    /// overlay. A request completes when a majority of its replicas were
    /// reached.
    pub fn serve_batch(&mut self, ops: &[DhtOp], blocked: &BlockSet) -> BatchMetrics {
        let Self { scratch, groups, servers, rng, .. } = self;
        let BatchScratch { route, ordered, packets, replicas } = scratch;
        let n_servers = servers.len();
        let redundancy = self.redundancy;

        // Writes first so reads in the same batch observe them.
        ordered.clear();
        ordered.extend(ops.iter().filter(|op| matches!(op, DhtOp::Write { .. })));
        ordered.extend(ops.iter().filter(|op| matches!(op, DhtOp::Read { .. })));

        // One packet per (request, replica).
        packets.clear();
        replicas.clear();
        replicas.resize(ordered.len() * redundancy, NodeId(0));
        for (op, op_replicas) in ordered.iter().zip(replicas.chunks_exact_mut(redundancy)) {
            let key = match *op {
                DhtOp::Read { key } | DhtOp::Write { key, .. } => key,
            };
            fill_replicas(key, n_servers as u64, op_replicas);
            for &srv in op_replicas.iter() {
                let entry = rng.random_range(0..groups.cube().len());
                packets.push(Packet { entry, target: groups.home_supernode(srv), key });
            }
        }

        let capacity = (n_servers.max(2) as f64).log2().ceil() as usize;
        let route = route.route_batch(groups.cube(), packets, capacity, |sn| {
            !groups.has_unblocked_member(sn, blocked)
        });

        // Final hop: the target group talks to the replica server. A
        // replica outside the fixed server set never counts as reached —
        // the op degrades toward QuorumFailed instead of panicking.
        let quorum = redundancy / 2 + 1;
        let mut latency = BucketHistogram::new();
        let mut completed = 0usize;
        let mut exchanges = 0u64;
        let strides = replicas
            .chunks_exact(redundancy)
            .zip(route.delivered.chunks_exact(redundancy))
            .zip(route.arrival.chunks_exact(redundancy));
        for (op, ((op_replicas, delivered), arrival)) in ordered.iter().zip(strides) {
            // Arrival rounds of the replicas this op reached.
            let mut arrivals = [0u64; MAX_REDUNDANCY];
            let mut reached = 0;
            for ((&srv, &delivered), &arrival) in op_replicas.iter().zip(delivered).zip(arrival) {
                if !delivered || blocked.contains(srv) {
                    continue;
                }
                let Some(store) = servers.get_mut(srv.raw() as usize) else { continue };
                if let DhtOp::Write { key, value } = *op {
                    store.write(key, value);
                }
                arrivals[reached] = arrival;
                reached += 1;
            }
            exchanges += reached as u64;
            if reached < quorum {
                continue;
            }
            completed += 1;
            // The op is done when its quorum-th replica arrives; scale to
            // the batch's simulate+synchronize cadence (2x + final hop).
            let arrivals = &mut arrivals[..reached];
            arrivals.sort_unstable();
            latency.record(2 * arrivals[quorum - 1] + 2);
        }
        let messages = route.forwards + exchanges;
        self.messages_total += messages;

        self.tel.counter("dht.requests", &[]).add(ops.len() as u64);
        self.tel.counter("dht.completed", &[]).add(completed as u64);
        self.tel.counter("dht.messages", &[]).add(messages);
        self.tel.counter("dht.dropped_packets", &[]).add(route.dropped);
        self.tel.histogram("dht.batch_congestion", &[]).record(route.max_congestion);
        let lat_hist = self.tel.histogram("dht.op_latency_rounds", &[]);
        for (i, &b) in latency.buckets().iter().enumerate() {
            for _ in 0..b {
                lat_hist.record(if i == 0 { 0 } else { 1u64 << (i - 1) });
            }
        }
        self.tel.add_work(Phase::Deliver, messages * MESSAGE_BITS, messages);

        BatchMetrics {
            requests: ops.len(),
            completed,
            // Route rounds (one butterfly level per round of combined
            // queue service) doubled for the simulate+synchronize cadence,
            // plus the final group <-> server exchange.
            rounds: 2 * route.rounds + 2,
            congestion: route.max_congestion,
            latency,
            messages,
        }
    }

    /// Read a single key under `blocked`: majority over replicas. A key no
    /// reachable replica holds fails like a lost quorum; [`RobustDht::lookup`]
    /// tells the two apart.
    pub fn read(&mut self, key: u64, blocked: &BlockSet) -> Result<u64, DhtError> {
        self.lookup(key, blocked)?.ok_or(DhtError::QuorumFailed)
    }

    /// Read a single key under `blocked`: `Ok(None)` when a majority of
    /// replicas answered and none holds the key, [`DhtError::QuorumFailed`]
    /// only when too few were reachable. Every path draws one route entry
    /// per replica, so the outcome never changes the DHT's draws.
    pub fn lookup(&mut self, key: u64, blocked: &BlockSet) -> Result<Option<u64>, DhtError> {
        let mut buf = [NodeId(0); MAX_REDUNDANCY];
        let replicas = &mut buf[..self.redundancy];
        fill_replicas(key, self.len() as u64, replicas);
        // The newest `(version, value)` seen; of equal versions the later
        // replica's wins.
        let mut newest: Option<(u64, u64)> = None;
        let mut reachable = 0usize;
        for &srv in replicas.iter() {
            let target = self.groups.home_supernode(srv);
            let entry = self.rng.random_range(0..self.groups.cube().len());
            let Some(hops) = self.open_route_len(entry, target, blocked) else { continue };
            if blocked.contains(srv) {
                continue;
            }
            let Some(store) = self.servers.get(srv.raw() as usize) else { continue };
            // One hop per route vertex plus the group <-> server exchange.
            self.messages_total += hops + 1;
            reachable += 1;
            if let Some(vv) = store.read(key) {
                if newest.is_none_or(|(ver, _)| vv.0 >= ver) {
                    newest = Some(vv);
                }
            }
        }
        if reachable < self.redundancy / 2 + 1 {
            return Err(DhtError::QuorumFailed);
        }
        Ok(newest.map(|(_, val)| val))
    }

    /// Number of supernodes on the digit-correcting route from `entry` to
    /// `target` (the vertices of `KaryHypercube::route`, walked without
    /// building the path), or `None` if one of them has no available
    /// member.
    fn open_route_len(&self, entry: u64, target: u64, blocked: &BlockSet) -> Option<u64> {
        let cube = self.groups.cube();
        let mut cur = entry;
        let mut len = 1;
        if !self.groups.has_unblocked_member(cur, blocked) {
            return None;
        }
        for i in 0..cube.dim() {
            let want = cube.digit(target, i);
            if cube.digit(cur, i) != want {
                cur = cube.with_digit(cur, i, want);
                len += 1;
                if !self.groups.has_unblocked_member(cur, blocked) {
                    return None;
                }
            }
        }
        Some(len)
    }

    /// Write a single key under `blocked`.
    pub fn write(&mut self, key: u64, value: u64, blocked: &BlockSet) -> Result<(), DhtError> {
        let m = self.serve_batch(&[DhtOp::Write { key, value }], blocked);
        if m.completed == 1 {
            Ok(())
        } else {
            Err(DhtError::QuorumFailed)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_read_roundtrip() {
        let mut dht = RobustDht::new(512, 2.0, 1);
        let none = BlockSet::none();
        dht.write(42, 4242, &none).unwrap();
        assert_eq!(dht.read(42, &none).unwrap(), 4242);
        dht.write(42, 4343, &none).unwrap();
        assert_eq!(dht.read(42, &none).unwrap(), 4343, "latest version wins");
    }

    #[test]
    fn missing_key_reports_quorum_of_empties() {
        let mut dht = RobustDht::new(256, 2.0, 2);
        assert_eq!(dht.read(7, &BlockSet::none()), Err(DhtError::QuorumFailed));
    }

    #[test]
    fn lookup_tells_a_missing_key_from_a_lost_quorum_with_the_same_draws() {
        let replicas = |dht: &RobustDht| -> BlockSet {
            store::replica_servers(7, dht.len() as u64, dht.redundancy()).into_iter().collect()
        };
        let mut missing = RobustDht::new(256, 2.0, 2);
        let mut lost = RobustDht::new(256, 2.0, 2);
        assert_eq!(missing.lookup(7, &BlockSet::none()), Ok(None));
        let blocked = replicas(&lost);
        assert_eq!(lost.lookup(7, &blocked), Err(DhtError::QuorumFailed));
        assert_eq!(missing.rng.random::<u64>(), lost.rng.random::<u64>(), "draws diverged");
        missing.write(7, 70, &BlockSet::none()).unwrap();
        assert_eq!(missing.lookup(7, &BlockSet::none()), Ok(Some(70)));
    }

    #[test]
    fn survives_theorem8_blocking_budget() {
        let n = 1024;
        let mut dht = RobustDht::new(n, 2.0, 3);
        let none = BlockSet::none();
        for k in 0..50u64 {
            dht.write(k, k * 10, &none).unwrap();
        }
        // Block gamma * n^(1/loglog n) random-ish servers.
        let budget = RobustDht::blocking_budget(n, 1.0);
        assert!(budget > 0 && budget < n / 4);
        let blocked: BlockSet = (0..budget as u64).map(|i| NodeId(i * 7 % n as u64)).collect();
        for k in 0..50u64 {
            assert_eq!(dht.read(k, &blocked).unwrap(), k * 10, "key {k}");
        }
    }

    #[test]
    fn batch_metrics_are_polylog() {
        let n = 1024usize;
        let mut dht = RobustDht::new(n, 2.0, 4);
        let ops: Vec<DhtOp> =
            (0..n as u64 / 2).map(|k| DhtOp::Write { key: k, value: k }).collect();
        let m = dht.serve_batch(&ops, &BlockSet::none());
        assert_eq!(m.completed, m.requests);
        let log3 = (n as f64).log2().powi(3);
        assert!((m.rounds as f64) < log3, "rounds {} vs log^3 {}", m.rounds, log3);
        assert!((m.congestion as f64) < 40.0 * log3, "congestion {}", m.congestion);
    }

    #[test]
    fn reconfiguration_does_not_move_data() {
        let mut dht = RobustDht::new(256, 2.0, 5);
        let none = BlockSet::none();
        dht.write(99, 1234, &none).unwrap();
        let before = dht.groups().groups().to_vec();
        for _ in 0..dht.epoch_len() {
            dht.step(&none);
        }
        assert_ne!(dht.groups().groups().to_vec(), before, "groups resampled");
        assert_eq!(dht.read(99, &none).unwrap(), 1234, "data survives reconfiguration");
    }

    #[test]
    fn availability_spans_consecutive_rounds_only_when_the_set_changes() {
        // Split one group's members over two block sets: each alone leaves
        // the group a member, but nobody is free in both of two
        // consecutive rounds when the sets alternate.
        let fresh = || RobustDht::new(256, 2.0, 9);
        let group = fresh().groups().groups().iter().find(|g| g.len() >= 2).unwrap().clone();
        let (a, b) = group.split_at(group.len() / 2);
        let a: BlockSet = a.iter().copied().collect();
        let b: BlockSet = b.iter().copied().collect();

        // `EpochFinished` carries the success flag, like every overlay's.
        let failed_events = |tel: &telemetry::Telemetry| {
            let (events, _) = tel.events();
            events.iter().filter(|e| e.kind == EventKind::EpochFinished && e.value == 0).count()
                as u64
        };

        let mut steady = fresh();
        let tel = telemetry::Telemetry::collector();
        steady.set_telemetry(tel.clone());
        for _ in 0..steady.epoch_len() {
            steady.step(&a);
        }
        assert_eq!(steady.clock().failed_epochs(), 0, "a repeated set is judged on its own");
        assert_eq!(failed_events(&tel), steady.clock().failed_epochs());

        let mut alternating = fresh();
        let tel = telemetry::Telemetry::collector();
        alternating.set_telemetry(tel.clone());
        for round in 0..alternating.epoch_len() {
            alternating.step(if round % 2 == 0 { &a } else { &b });
        }
        assert_eq!(alternating.clock().failed_epochs(), 1, "the previous round's set still counts");
        assert_eq!(failed_events(&tel), alternating.clock().failed_epochs());
    }

    #[test]
    fn route_walk_agrees_with_the_materialised_route() {
        let dht = RobustDht::new(1024, 2.0, 10);
        let cube = *dht.groups().cube();
        let none = BlockSet::none();
        for entry in cube.vertices().step_by(3) {
            for target in cube.vertices().step_by(5) {
                let path = cube.route(entry, target);
                assert_eq!(dht.open_route_len(entry, target, &none), Some(path.len() as u64));
                // Blocking the whole group of any vertex on the path closes it.
                let mid = path[path.len() / 2];
                let blocked: BlockSet =
                    dht.groups().groups()[mid as usize].iter().copied().collect();
                assert_eq!(dht.open_route_len(entry, target, &blocked), None);
            }
        }
    }

    #[test]
    fn per_op_latency_tracks_completions() {
        let n = 1024usize;
        let mut dht = RobustDht::new(n, 2.0, 7);
        let ops: Vec<DhtOp> =
            (0..n as u64 / 2).map(|k| DhtOp::Write { key: k, value: k }).collect();
        let m = dht.serve_batch(&ops, &BlockSet::none());
        assert_eq!(m.latency.total(), m.completed as u64, "one latency sample per completion");
        assert!(m.messages > 0);
        // No op can finish after the batch itself finished.
        assert!(m.latency.percentile(1.0).unwrap() <= 2 * m.rounds);
        assert!(m.latency.percentile(0.5).unwrap() >= 1, "latency is measured in rounds >= 1");
    }

    #[test]
    fn telemetry_attachment_does_not_change_metrics() {
        let run = |with_tel: bool| {
            let mut dht = RobustDht::new(256, 2.0, 8);
            if with_tel {
                dht.set_telemetry(telemetry::Telemetry::collector());
            }
            let ops: Vec<DhtOp> = (0..64).map(|k| DhtOp::Write { key: k, value: k }).collect();
            let m = dht.serve_batch(&ops, &BlockSet::none());
            for _ in 0..dht.epoch_len() {
                dht.step(&BlockSet::none());
            }
            (m.completed, m.rounds, m.congestion, m.messages, format!("{:?}", dht.groups.groups()))
        };
        assert_eq!(run(false), run(true), "telemetry is pure observability");
    }

    #[test]
    fn fully_blocked_replicas_fail_the_read() {
        let mut dht = RobustDht::new(128, 2.0, 6);
        let none = BlockSet::none();
        dht.write(5, 55, &none).unwrap();
        let replicas = store::replica_servers(5, 128, dht.redundancy());
        let blocked: BlockSet = replicas.into_iter().collect();
        assert!(dht.read(5, &blocked).is_err());
    }
}
