//! Robust publish-subscribe (Section 7.3).
//!
//! Emulated on the robust DHT: every subscriber group is identified by a
//! key `k`; the DHT stores the publication counter `m(k)` under `k` and
//! publication `i` under the derived key `(k, i)`. A batch of publications
//! is first *aggregated by key* (the paper uses Ranade-style combining on
//! the butterfly in `O(log n / log log n)` rounds; we aggregate at the
//! batch interface and charge the butterfly depth), then `m(k)` is bumped
//! once per key and the publications are stored under consecutive indices.
//!
//! A subscriber keeps a cursor: the last index of the topic it has read.
//! A fetch reads `m(k)` and then only the publications `(cursor, m(k)]`,
//! and reports the head `m(k)` it read, which becomes the new cursor
//! once nothing was suppressed. A fetch from cursor 0 is the whole feed.

use crate::dht::{DhtError, RobustDht};
use serde::{Deserialize, Serialize};
use simnet::BlockSet;
use std::collections::BTreeMap;
use telemetry::Telemetry;

/// Derived DHT key for publication `i` of topic `k`.
fn pub_key(topic: u64, index: u64) -> u64 {
    // Distinct from raw topic keys: fold (topic, index) through a hash.
    let mut x = topic.rotate_left(17) ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= x >> 29;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 32)
}

/// Metrics of one publication batch.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PublishMetrics {
    /// Publications submitted.
    pub submitted: usize,
    /// Publications durably stored *and* reachable by subscribers (their
    /// topic counter reflects them).
    pub stored: usize,
    /// Publications the current `BlockSet` suppressed: the payload write
    /// lost its quorum, or the topic-counter update did (orphaning the
    /// batch's stores). `stored + suppressed == submitted`, so goodput
    /// under DoS is honest instead of aborting on the first failure.
    pub suppressed: usize,
    /// Distinct topics touched.
    pub topics: usize,
    /// Overlay rounds, including the aggregation sweep.
    pub rounds: u64,
}

/// Result of a [`PubSub::fetch_after`] call: what got through, what the
/// blocking suppressed, and the head the fetch read.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FetchOutcome {
    /// Publications delivered, oldest first (suppressed ones skipped).
    pub delivered: Vec<u64>,
    /// Publications whose read lost its quorum under the `BlockSet`.
    pub suppressed: usize,
    /// The topic counter `m(k)` the fetch read: the cursor to fetch after
    /// next time if `suppressed == 0`. When the counter's own read lost
    /// its quorum nothing past the cursor was read, and this is the
    /// cursor the fetch started from.
    pub head: u64,
}

/// A publish-subscribe system on the robust DHT.
pub struct PubSub {
    dht: RobustDht,
    /// Pure observability (see [`RobustDht::set_telemetry`]).
    tel: Telemetry,
}

impl PubSub {
    /// Build over `n` servers.
    pub fn new(n: usize, seed: u64) -> Self {
        Self { dht: RobustDht::new(n, 2.0, seed), tel: Telemetry::disabled() }
    }

    /// Attach a telemetry recorder to the pubsub layer and its DHT. Pure
    /// observability: behavior and replay digests are unchanged.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.dht.set_telemetry(tel.clone());
        self.tel = tel.with_labels(&[("overlay", "pubsub")]);
    }

    /// The underlying DHT.
    pub fn dht(&self) -> &RobustDht {
        &self.dht
    }

    /// Access the underlying DHT (e.g. to drive reconfiguration rounds).
    pub fn dht_mut(&mut self) -> &mut RobustDht {
        &mut self.dht
    }

    /// Publish a batch of `(topic, payload)` pairs under blocking.
    ///
    /// Per-publication quorum failures no longer abort the batch: each
    /// topic stores what it can under consecutive indices and counts the
    /// rest in [`PublishMetrics::suppressed`]. Only [`DhtError::Unroutable`]
    /// (no butterfly route at all) aborts.
    pub fn publish_batch(
        &mut self,
        pubs: &[(u64, u64)],
        blocked: &BlockSet,
    ) -> Result<PublishMetrics, DhtError> {
        // Aggregation: count publications per topic (the butterfly
        // combining step), assigning each a consecutive local index.
        let mut by_topic: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for &(topic, payload) in pubs {
            by_topic.entry(topic).or_default().push(payload);
        }
        let mut stored = 0usize;
        let mut suppressed = 0usize;
        let mut rounds = 0u64;
        // Aggregation sweep cost: one butterfly traversal.
        rounds += 2 * self.dht.groups().cube().dim() as u64;
        for (&topic, payloads) in &by_topic {
            let m = match self.dht.read(topic, blocked) {
                Ok(v) => v,
                Err(DhtError::QuorumFailed) => 0, // topic not yet created
                Err(e) => return Err(e),
            };
            // Store what the blocking allows under consecutive indices so
            // the counter update below keeps fetches gap-free.
            let mut batch_stored = 0u64;
            for &payload in payloads {
                match self.dht.write(pub_key(topic, m + 1 + batch_stored), payload, blocked) {
                    Ok(()) => batch_stored += 1,
                    Err(DhtError::QuorumFailed) => suppressed += 1,
                    Err(e) => return Err(e),
                }
                rounds += 1;
            }
            if batch_stored > 0 {
                rounds += 1;
                match self.dht.write(topic, m + batch_stored, blocked) {
                    Ok(()) => stored += batch_stored as usize,
                    // Counter update lost its quorum: the stores are
                    // orphaned — no subscriber will see them.
                    Err(DhtError::QuorumFailed) => suppressed += batch_stored as usize,
                    Err(e) => return Err(e),
                }
            }
        }
        self.tel.counter("pubsub.published", &[]).add(stored as u64);
        self.tel.counter("pubsub.suppressed", &[]).add(suppressed as u64);
        Ok(PublishMetrics {
            submitted: pubs.len(),
            stored,
            suppressed,
            topics: by_topic.len(),
            rounds,
        })
    }

    /// Fetch all publications of a topic, oldest first. Fails on the
    /// first suppressed publication (the strict historical behavior);
    /// [`PubSub::fetch_detailed`] reports the blocked-vs-delivered split
    /// instead.
    pub fn fetch(&mut self, topic: u64, blocked: &BlockSet) -> Result<Vec<u64>, DhtError> {
        let out = self.fetch_detailed(topic, blocked)?;
        if out.suppressed > 0 {
            return Err(DhtError::QuorumFailed);
        }
        Ok(out.delivered)
    }

    /// The whole feed with honest suppression accounting: every
    /// publication of the topic in order, from a subscriber that has read
    /// none ([`PubSub::fetch_after`] from cursor 0).
    pub fn fetch_detailed(
        &mut self,
        topic: u64,
        blocked: &BlockSet,
    ) -> Result<FetchOutcome, DhtError> {
        self.fetch_after(topic, 0, blocked)
    }

    /// What is new to a subscriber whose cursor is `after`: one read of the
    /// topic counter `m(k)`, then one read per publication in
    /// `(after, m(k)]`, delivered in order plus the count the `BlockSet`
    /// suppressed. Only a quorum failure on the topic counter itself (which
    /// delivers nothing and leaves [`FetchOutcome::head`] at `after`) or
    /// an unroutable butterfly fails the call.
    pub fn fetch_after(
        &mut self,
        topic: u64,
        after: u64,
        blocked: &BlockSet,
    ) -> Result<FetchOutcome, DhtError> {
        let head = match self.dht.read(topic, blocked) {
            Ok(v) => v,
            Err(DhtError::QuorumFailed) => {
                return Ok(FetchOutcome { head: after, ..FetchOutcome::default() })
            }
            Err(e) => return Err(e),
        };
        let mut out = FetchOutcome { head, ..FetchOutcome::default() };
        for i in after + 1..=head {
            match self.dht.read(pub_key(topic, i), blocked) {
                Ok(v) => out.delivered.push(v),
                Err(DhtError::QuorumFailed) => out.suppressed += 1,
                Err(e) => return Err(e),
            }
        }
        self.tel.counter("pubsub.fetched", &[]).add(out.delivered.len() as u64);
        self.tel.counter("pubsub.fetch_suppressed", &[]).add(out.suppressed as u64);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_then_fetch_roundtrip() {
        let mut ps = PubSub::new(512, 1);
        let none = BlockSet::none();
        let m = ps.publish_batch(&[(7, 100), (7, 101), (9, 200)], &none).unwrap();
        assert_eq!(m.stored, 3);
        assert_eq!(m.topics, 2);
        assert_eq!(ps.fetch(7, &none).unwrap(), vec![100, 101]);
        assert_eq!(ps.fetch(9, &none).unwrap(), vec![200]);
        assert!(ps.fetch(12345, &none).unwrap().is_empty());
    }

    #[test]
    fn later_batches_append() {
        let mut ps = PubSub::new(512, 2);
        let none = BlockSet::none();
        ps.publish_batch(&[(5, 1)], &none).unwrap();
        ps.publish_batch(&[(5, 2), (5, 3)], &none).unwrap();
        assert_eq!(ps.fetch(5, &none).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn a_fetch_after_a_cursor_reads_only_what_is_new() {
        let mut ps = PubSub::new(512, 7);
        let none = BlockSet::none();
        ps.publish_batch(&[(5, 1), (5, 2), (5, 3)], &none).unwrap();
        let all = ps.fetch_after(5, 0, &none).unwrap();
        assert_eq!((all.delivered, all.suppressed, all.head), (vec![1, 2, 3], 0, 3));
        ps.publish_batch(&[(5, 4), (5, 5)], &none).unwrap();
        let new = ps.fetch_after(5, all.head, &none).unwrap();
        assert_eq!((new.delivered, new.head), (vec![4, 5], 5));
        // Caught up: only the topic counter is read.
        let before = ps.dht().messages_total;
        let none_new = ps.fetch_after(5, 5, &none).unwrap();
        let counter_read = ps.dht().messages_total - before;
        assert_eq!((none_new.delivered.len(), none_new.head), (0, 5));
        let before = ps.dht().messages_total;
        ps.fetch_detailed(5, &none).unwrap();
        assert!(ps.dht().messages_total - before > 5 * counter_read / 2, "a whole feed costs more");
    }

    #[test]
    fn survives_bounded_blocking() {
        let n = 1024;
        let mut ps = PubSub::new(n, 3);
        let none = BlockSet::none();
        ps.publish_batch(&[(1, 11), (2, 22)], &none).unwrap();
        let budget = RobustDht::blocking_budget(n, 1.0);
        let blocked: BlockSet =
            (0..budget as u64).map(|i| simnet::NodeId(i * 13 % n as u64)).collect();
        assert_eq!(ps.fetch(1, &blocked).unwrap(), vec![11]);
        ps.publish_batch(&[(1, 12)], &blocked).unwrap();
        assert_eq!(ps.fetch(1, &none).unwrap(), vec![11, 12]);
    }

    #[test]
    fn blocked_replicas_split_into_suppressed_vs_delivered() {
        use crate::dht::store::replica_servers;

        let n = 256usize;
        let none = BlockSet::none();
        let redundancy = PubSub::new(n, 5).dht().redundancy();
        // Find a topic where blocking exactly publication #2's replicas
        // leaves the topic counter and the other publications readable.
        for topic in 0..64u64 {
            let mut fresh = PubSub::new(n, 5);
            let m = fresh.publish_batch(&[(topic, 10), (topic, 20), (topic, 30)], &none).unwrap();
            assert_eq!((m.stored, m.suppressed), (3, 0));
            let blocked: BlockSet =
                replica_servers(pub_key(topic, 2), n as u64, redundancy).into_iter().collect();
            let Ok(out) = fresh.fetch_detailed(topic, &blocked) else { continue };
            if out.suppressed != 1 || out.delivered != vec![10, 30] {
                continue;
            }
            // The split is pinned: one suppressed, the rest delivered in
            // order — and the strict fetch still reports the failure.
            assert_eq!(fresh.fetch(topic, &blocked), Err(DhtError::QuorumFailed));
            assert_eq!(fresh.fetch(topic, &none).unwrap(), vec![10, 20, 30]);
            return;
        }
        panic!("no topic produced the expected one-suppressed split");
    }

    #[test]
    fn publish_counts_suppressed_instead_of_aborting() {
        let n = 128usize;
        let none = BlockSet::none();
        // Block enough servers that some writes lose their quorum but the
        // overlay stays routable (well beyond the Theorem 8 budget).
        let blocked: BlockSet =
            (0..(n as u64) / 3).map(|i| simnet::NodeId((i * 5) % n as u64)).collect();
        let mut ps = PubSub::new(n, 6);
        let pubs: Vec<(u64, u64)> = (0..40).map(|i| (i % 8, 100 + i)).collect();
        let m = ps.publish_batch(&pubs, &blocked).unwrap();
        assert_eq!(m.submitted, 40);
        assert_eq!(m.stored + m.suppressed, m.submitted, "accounting is exhaustive");
        // Everything stored must actually come back fault-free.
        let total: usize = (0..8u64).map(|t| ps.fetch(t, &none).unwrap().len()).sum();
        assert_eq!(total, m.stored, "stored means reachable");
    }

    #[test]
    fn aggregation_counts_topics_once() {
        let mut ps = PubSub::new(256, 4);
        let none = BlockSet::none();
        let pubs: Vec<(u64, u64)> = (0..20).map(|i| (3, i)).collect();
        let m = ps.publish_batch(&pubs, &none).unwrap();
        assert_eq!(m.topics, 1);
        assert_eq!(ps.fetch(3, &none).unwrap().len(), 20);
    }
}
