//! Butterfly routing with Ranade-style combining (Section 7.2/7.3).
//!
//! The extended RoBuSt system routes request packets over the emulated
//! `d`-dimensional `k`-ary butterfly: a packet entering at level 0
//! corrects one digit of its position per level until it reaches its
//! target supernode at level `d`. Each supernode (group) forwards a
//! bounded number of packets per round; packets addressed to the same
//! `(target, key)` are **combined** at every queue (Ranade's trick), which
//! is what caps the congestion of all-to-one access patterns.
//!
//! This module simulates the per-level queues round by round, producing
//! the exact round count and per-group congestion that
//! [`crate::dht::RobustDht::serve_batch`] reports.

use overlay_graphs::KaryHypercube;
use serde::{Deserialize, Serialize};

/// A request packet to be routed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Packet {
    /// Entry supernode (level 0 position).
    pub entry: u64,
    /// Target supernode (level `d` position).
    pub target: u64,
    /// Request key — packets with equal `(target, key)` combine.
    pub key: u64,
}

/// Result of routing one batch.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RouteOutcome {
    /// Per input packet: did it reach its target supernode?
    pub delivered: Vec<bool>,
    /// Per input packet: the round it arrived at its target (0 when it
    /// never arrived — deliveries always happen in round >= 1).
    pub arrival: Vec<u64>,
    /// Rounds until the last packet arrived (or was dropped).
    pub rounds: u64,
    /// Maximum packets handled by any single supernode in any round.
    pub max_congestion: u64,
    /// Packets that vanished into a blocked supernode.
    pub dropped: u64,
    /// Number of queue entries saved by combining.
    pub combined: u64,
    /// Queue entries forwarded across all rounds — the message-event count
    /// of the route (combining already subtracted, which is its point).
    pub forwards: u64,
}

/// "No entry" in the intrusive lists below.
const NIL: u32 = u32::MAX;

/// One in-flight queue entry. Entry `i` is born from packet `i` (which
/// supplies its `target` and `key`), so the arena is exactly as long as
/// the batch and never grows while routing.
#[derive(Clone, Copy)]
struct Entry {
    /// Next entry of the queue or arrival list this entry is linked into
    /// (meaningless on a list's last entry).
    next: u32,
    /// Last packet of the entry's packet list. The list starts at the
    /// entry's own index and runs through [`RouteScratch::pkt_next`].
    last_pkt: u32,
    /// Packets combined into this entry.
    count: u32,
    /// Butterfly level the entry is queued at.
    level: u32,
    /// Supernode the entry is queued at.
    pos: u32,
}

/// A FIFO of entries threaded through [`Entry::next`].
#[derive(Clone, Copy, Default)]
struct List {
    head: u32,
    tail: u32,
    len: u32,
}

impl List {
    fn push_back(&mut self, entries: &mut [Entry], e: u32) {
        if self.len == 0 {
            self.head = e;
        } else {
            entries[self.tail as usize].next = e;
        }
        self.tail = e;
        self.len += 1;
    }

    /// `self = front ++ self`, in O(1).
    fn prepend(&mut self, entries: &mut [Entry], front: List) {
        if front.len == 0 {
            return;
        }
        if self.len == 0 {
            self.tail = front.tail;
        } else {
            entries[front.tail as usize].next = self.head;
        }
        self.head = front.head;
        self.len += front.len;
    }
}

/// Per-supernode state, valid for the call whose stamp it carries.
#[derive(Clone, Copy, Default)]
struct Slot {
    /// [`RouteScratch::call`] of the call that last touched this slot; a
    /// slot with an older stamp is reset on first touch, so a call pays
    /// for the positions it uses and not for the cube.
    call: u32,
    /// The caller's `blocked(pos)`, evaluated once per call.
    blocked: bool,
    /// Already on the list of positions to serve next round.
    listed: bool,
    /// Entries waiting here, in service order.
    queue: List,
    /// Entries that arrived during the current round.
    arrivals: List,
}

/// One bucket of the round-scoped combine index.
#[derive(Clone, Copy, Default)]
struct IndexSlot {
    /// [`RouteScratch::round`] of the round that wrote the bucket; any
    /// other value means empty, so the table is never cleared.
    round: u32,
    entry: u32,
}

/// The reusable buffers of [`route_batch`].
///
/// A caller that routes repeatedly (the DHT serves a batch per call) keeps
/// one of these and calls [`RouteScratch::route_batch`], which then
/// allocates only the two per-packet vectors of its [`RouteOutcome`]. The
/// buffers hold no state between calls.
#[derive(Default)]
pub struct RouteScratch {
    /// Dense per-supernode queues, indexed by position.
    slots: Vec<Slot>,
    /// Entry arena; entry `i` starts as packet `i`.
    entries: Vec<Entry>,
    /// Intrusive packet lists: the packet combined after packet `i`.
    pkt_next: Vec<u32>,
    /// Open-addressing index over this round's arrivals, keyed by
    /// `(level, pos, target, key)`. A call uses the first `mask + 1`
    /// buckets, a power of two sized to its batch.
    index: Vec<IndexSlot>,
    mask: usize,
    /// Positions with a non-empty queue, ascending.
    active: Vec<u32>,
    /// Positions to serve next round, in discovery order until sorted.
    next_active: Vec<u32>,
    /// `k^level` for every level below the depth.
    strides: Vec<u32>,
    call: u32,
    round: u32,
}

impl RouteScratch {
    /// [`route_batch`] on this scratch's buffers.
    pub fn route_batch<F: Fn(u64) -> bool>(
        &mut self,
        cube: &KaryHypercube,
        packets: &[Packet],
        capacity: usize,
        blocked: F,
    ) -> RouteOutcome {
        assert!(capacity >= 1);
        let positions = cube.len();
        assert!(
            positions <= u64::from(NIL) && packets.len() < NIL as usize,
            "dense butterfly queues index supernodes and packets with 32 bits"
        );
        let depth = cube.dim();
        let k = cube.k() as u32;
        let capacity = capacity.min(NIL as usize) as u32;
        let mut out = RouteOutcome {
            delivered: vec![false; packets.len()],
            arrival: vec![0; packets.len()],
            ..Default::default()
        };
        self.begin_call(cube, packets.len());

        // Round 0: every packet arrives at its entry supernode, where
        // equal packets combine like any other same-round arrivals.
        self.begin_round();
        for (i, p) in packets.iter().enumerate() {
            let routable = p.entry < positions && p.target < positions;
            let i = i as u32;
            self.entries.push(Entry {
                next: NIL,
                last_pkt: i,
                count: 1,
                level: 0,
                pos: if routable { p.entry as u32 } else { NIL },
            });
            if routable {
                self.arrive(i, packets, &blocked, &mut out);
            } else {
                out.dropped += 1;
            }
        }
        self.end_round();

        let mut rounds = 0u64;
        while !self.active.is_empty() {
            rounds += 1;
            assert!(
                rounds <= 4 * (depth as u64 + 1) + packets.len() as u64,
                "butterfly routing did not drain"
            );
            self.begin_round();
            for a in 0..self.active.len() {
                let pos = self.active[a];
                let queue = self.slots[pos as usize].queue;
                out.max_congestion = out.max_congestion.max(u64::from(queue.len));
                // Forward up to `capacity` entries; the rest wait here.
                let take = queue.len.min(capacity);
                out.forwards += u64::from(take);
                let mut e = queue.head;
                for _ in 0..take {
                    let Entry { next, count, level, .. } = self.entries[e as usize];
                    if level == depth {
                        let mut i = e as usize;
                        for _ in 0..count {
                            out.delivered[i] = true;
                            out.arrival[i] = rounds;
                            i = self.pkt_next[i] as usize;
                        }
                    } else {
                        // Correct digit `level` toward the target.
                        let stride = self.strides[level as usize];
                        let target = packets[e as usize].target as u32;
                        let new_pos =
                            pos - pos / stride % k * stride + target / stride % k * stride;
                        let entry = &mut self.entries[e as usize];
                        entry.level = level + 1;
                        entry.pos = new_pos;
                        self.arrive(e, packets, &blocked, &mut out);
                    }
                    e = next;
                }
                let slot = &mut self.slots[pos as usize];
                slot.queue.head = e;
                slot.queue.len -= take;
                if slot.queue.len > 0 && !slot.listed {
                    slot.listed = true;
                    self.next_active.push(pos);
                }
            }
            self.end_round();
        }
        out.rounds = rounds;
        out
    }

    fn begin_call(&mut self, cube: &KaryHypercube, packets: usize) {
        if self.call == u32::MAX {
            self.slots.fill(Slot::default());
            self.call = 0;
        }
        self.call += 1;
        let positions = cube.len() as usize;
        if self.slots.len() < positions {
            self.slots.resize(positions, Slot::default());
        }
        // At most one bucket per live entry is written in a round, so the
        // table stays at most half full.
        let buckets = (2 * packets).next_power_of_two();
        if self.index.len() < buckets {
            self.index.resize(buckets, IndexSlot::default());
        }
        self.mask = buckets - 1;
        self.entries.clear();
        self.entries.reserve(packets);
        self.pkt_next.clear();
        self.pkt_next.resize(packets, NIL);
        self.active.clear();
        self.next_active.clear();
        self.strides.clear();
        self.strides.extend((0..cube.dim()).map(|level| cube.k().pow(level) as u32));
    }

    fn begin_round(&mut self) {
        if self.round == u32::MAX {
            self.index.fill(IndexSlot::default());
            self.round = 0;
        }
        self.round += 1;
    }

    /// Queue this round's arrivals *ahead of* the entries that waited, and
    /// put the positions to serve next into ascending order.
    fn end_round(&mut self) {
        for &pos in &self.next_active {
            let slot = &mut self.slots[pos as usize];
            slot.listed = false;
            let arrivals = std::mem::take(&mut slot.arrivals);
            slot.queue.prepend(&mut self.entries, arrivals);
        }
        self.next_active.sort_unstable();
        std::mem::swap(&mut self.active, &mut self.next_active);
        self.next_active.clear();
    }

    /// Entry `e` reaches the supernode and level recorded in it: drop it
    /// if the supernode is blocked, combine it into an equal entry that
    /// arrived there this round, or append it to the arrivals.
    fn arrive<F: Fn(u64) -> bool>(
        &mut self,
        e: u32,
        packets: &[Packet],
        blocked: &F,
        out: &mut RouteOutcome,
    ) {
        let Entry { last_pkt, count, level, pos, .. } = self.entries[e as usize];
        let slot = &mut self.slots[pos as usize];
        if slot.call != self.call {
            *slot = Slot { call: self.call, blocked: blocked(u64::from(pos)), ..Slot::default() };
        }
        if slot.blocked {
            out.dropped += u64::from(count);
            return;
        }
        let Packet { target, key, .. } = packets[e as usize];
        let mask = self.mask;
        let mut bucket = combine_hash(level, pos, target, key) as usize & mask;
        loop {
            let IndexSlot { round, entry: other } = self.index[bucket];
            if round != self.round {
                break;
            }
            let o = &mut self.entries[other as usize];
            let op = &packets[other as usize];
            if o.level == level && o.pos == pos && op.target == target && op.key == key {
                self.pkt_next[o.last_pkt as usize] = e;
                o.last_pkt = last_pkt;
                o.count += count;
                out.combined += u64::from(count);
                return;
            }
            bucket = (bucket + 1) & mask;
        }
        self.index[bucket] = IndexSlot { round: self.round, entry: e };
        slot.arrivals.push_back(&mut self.entries, e);
        if !slot.listed {
            slot.listed = true;
            self.next_active.push(pos);
        }
    }
}

/// Bucket hash of the combine index (a SplitMix64-style finalizer). Keys
/// come from the simulation's own generators; colliding keys would only
/// lengthen probe sequences, never change what combines.
fn combine_hash(level: u32, pos: u32, target: u64, key: u64) -> u64 {
    let mut x = key ^ (target << 32 | u64::from(pos)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9) ^ u64::from(level);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Route a batch of packets through the butterfly over `cube`.
///
/// * `capacity` — packets a group can forward per round (the paper allows
///   polylog work per node per round; `O(log n)` is the natural setting).
/// * `blocked` — supernodes whose group currently has no available
///   member; packets needing them are dropped (the caller's higher-level
///   redundancy absorbs this). Evaluated at most once per supernode.
///
/// A packet whose `entry` or `target` is not a supernode of `cube` is
/// counted as dropped.
///
/// The queue discipline (DESIGN.md §14, pinned by
/// `tests/golden/workload.digests`): supernodes are served in ascending
/// order; a supernode forwards the first `capacity` entries of its queue;
/// the entries that arrive in a round are queued *ahead of* those that
/// waited, in the order they were forwarded; and an arriving entry
/// combines only with an equal `(level, target, key)` entry that arrived
/// at the same supernode in the same round.
pub fn route_batch<F: Fn(u64) -> bool>(
    cube: &KaryHypercube,
    packets: &[Packet],
    capacity: usize,
    blocked: F,
) -> RouteOutcome {
    RouteScratch::default().route_batch(cube, packets, capacity, blocked)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn cube() -> KaryHypercube {
        KaryHypercube::new(4, 3) // 64 supernodes, depth 3
    }

    /// The routing kernel this module shipped before the dense queues,
    /// verbatim: a `BTreeMap` of `Vec` queues, a linear scan for the
    /// combinable entry, a `Vec<usize>` per entry. It *is* the queue
    /// discipline; the differential test below holds [`route_batch`] to
    /// it field by field.
    fn route_batch_reference<F: Fn(u64) -> bool>(
        cube: &KaryHypercube,
        packets: &[Packet],
        capacity: usize,
        blocked: F,
    ) -> RouteOutcome {
        assert!(capacity >= 1);
        let depth = cube.dim();
        let mut out = RouteOutcome {
            delivered: vec![false; packets.len()],
            arrival: vec![0; packets.len()],
            ..Default::default()
        };

        // In-flight entries: (level, position, target, key) -> original packet
        // indices (combined packets share one entry).
        type Entry = (u32, u64, u64, u64);
        let mut queues: BTreeMap<u64, Vec<(Entry, Vec<usize>)>> = BTreeMap::new();
        for (i, p) in packets.iter().enumerate() {
            if blocked(p.entry) {
                out.dropped += 1;
                continue;
            }
            let entry: Entry = (0, p.entry, p.target, p.key);
            let queue = queues.entry(p.entry).or_default();
            match queue.iter_mut().find(|(e, _)| *e == entry) {
                Some((_, idxs)) => {
                    idxs.push(i);
                    out.combined += 1;
                }
                None => queue.push((entry, vec![i])),
            }
        }

        let mut rounds = 0u64;
        while queues.values().any(|q| !q.is_empty()) {
            rounds += 1;
            assert!(
                rounds <= 4 * (depth as u64 + 1) + packets.len() as u64,
                "butterfly routing did not drain"
            );
            let mut next: BTreeMap<u64, Vec<(Entry, Vec<usize>)>> = BTreeMap::new();
            for (pos, queue) in queues.iter_mut() {
                let load = queue.len() as u64;
                out.max_congestion = out.max_congestion.max(load);
                // Forward up to `capacity` entries; the rest wait here.
                let take = queue.len().min(capacity);
                let forwarded: Vec<(Entry, Vec<usize>)> = queue.drain(..take).collect();
                out.forwards += take as u64;
                for ((level, _, target, key), idxs) in forwarded {
                    if level == depth {
                        for i in idxs {
                            out.delivered[i] = true;
                            out.arrival[i] = rounds;
                        }
                        continue;
                    }
                    // Correct digit `level` toward the target.
                    let new_pos = cube.with_digit(*pos, level, cube.digit(target, level));
                    if blocked(new_pos) {
                        out.dropped += idxs.len() as u64;
                        continue;
                    }
                    let entry: Entry = (level + 1, new_pos, target, key);
                    let q = next.entry(new_pos).or_default();
                    match q.iter_mut().find(|(e, _)| *e == entry) {
                        Some((_, existing)) => {
                            out.combined += idxs.len() as u64;
                            existing.extend(idxs);
                        }
                        None => q.push((entry, idxs)),
                    }
                }
            }
            // Entries that waited (over capacity) stay at their position.
            for (pos, queue) in queues {
                if !queue.is_empty() {
                    next.entry(pos).or_default().extend(queue);
                }
            }
            queues = next;
        }
        out.rounds = rounds;
        out
    }

    fn assert_same_outcome(a: &RouteOutcome, b: &RouteOutcome, case: &str) {
        assert_eq!(a.delivered, b.delivered, "delivered, {case}");
        assert_eq!(a.arrival, b.arrival, "arrival, {case}");
        assert_eq!(a.rounds, b.rounds, "rounds, {case}");
        assert_eq!(a.max_congestion, b.max_congestion, "max_congestion, {case}");
        assert_eq!(a.dropped, b.dropped, "dropped, {case}");
        assert_eq!(a.combined, b.combined, "combined, {case}");
        assert_eq!(a.forwards, b.forwards, "forwards, {case}");
    }

    #[test]
    fn dense_kernel_matches_the_reference_on_random_batches() {
        use rand::RngExt;
        let mut rng = simnet::rng::stream(0xD1FF, 0, 0x2007);
        // One scratch for every case: reuse across cubes and batch sizes
        // must not leak state from one call into the next.
        let mut scratch = RouteScratch::default();
        let (mut combined, mut dropped, mut queued) = (0, 0, 0);
        for case in 0..400 {
            let cube = KaryHypercube::new(rng.random_range(2..6u64), rng.random_range(1..5u32));
            let n_packets = rng.random_range(0..=600usize);
            let n_keys = rng.random_range(1..=8u64);
            let capacity = rng.random_range(1..14usize);
            let blocked: Vec<bool> = (0..cube.len()).map(|_| rng.random_bool(0.1)).collect();
            // Few distinct targets as well, so equal (target, key) pairs meet.
            let n_targets = rng.random_range(1..=cube.len().min(6));
            let targets: Vec<u64> =
                (0..n_targets).map(|_| rng.random_range(0..cube.len())).collect();
            let packets: Vec<Packet> = (0..n_packets)
                .map(|_| Packet {
                    entry: rng.random_range(0..cube.len()),
                    target: targets[rng.random_range(0..n_targets) as usize],
                    key: rng.random_range(0..n_keys),
                })
                .collect();
            let label = format!(
                "case {case}: k={} dim={} packets={n_packets} keys={n_keys} capacity={capacity}",
                cube.k(),
                cube.dim()
            );
            let want = route_batch_reference(&cube, &packets, capacity, |x| blocked[x as usize]);
            let got = scratch.route_batch(&cube, &packets, capacity, |x| blocked[x as usize]);
            assert_same_outcome(&got, &want, &label);
            let fresh = route_batch(&cube, &packets, capacity, |x| blocked[x as usize]);
            assert_same_outcome(&fresh, &want, &label);
            combined += want.combined;
            dropped += want.dropped;
            queued += u64::from(want.max_congestion > capacity as u64);
        }
        // The cases must reach the paths the discipline is about.
        assert!(combined > 1000 && dropped > 1000, "combined {combined}, dropped {dropped}");
        assert!(queued > 100, "only {queued} cases left entries waiting over capacity");
    }

    #[test]
    fn blocked_is_asked_once_per_supernode() {
        use std::cell::RefCell;
        let c = cube();
        let asked = RefCell::new(vec![0u32; c.len() as usize]);
        let packets: Vec<Packet> =
            (0..200).map(|i| Packet { entry: i % 64, target: (i * 7) % 64, key: i % 5 }).collect();
        route_batch(&c, &packets, 2, |x| {
            asked.borrow_mut()[x as usize] += 1;
            false
        });
        assert!(asked.borrow().iter().all(|&n| n <= 1), "{:?}", asked.borrow());
    }

    #[test]
    fn packets_outside_the_cube_are_dropped_not_indexed() {
        let c = cube();
        let inside = Packet { entry: 1, target: 62, key: 9 };
        for bad in [
            Packet { entry: c.len(), target: 0, key: 9 },
            Packet { entry: u64::MAX, target: 0, key: 9 },
            Packet { entry: 0, target: c.len(), key: 9 },
            Packet { entry: 0, target: u64::MAX, key: 9 },
        ] {
            let out = route_batch(&c, &[inside, bad, inside], 8, |x| {
                assert!(x < c.len(), "blocked() asked about supernode {x}");
                false
            });
            assert_eq!(out.delivered, vec![true, false, true], "{bad:?}");
            assert_eq!(out.arrival[1], 0);
            assert_eq!(out.dropped, 1);
            assert_eq!(out.combined, 1, "the routable pair still combines");
        }
    }

    #[test]
    fn single_packet_takes_depth_plus_one_rounds() {
        let c = cube();
        let out = route_batch(&c, &[Packet { entry: 0, target: 63, key: 1 }], 8, |_| false);
        assert_eq!(out.delivered, vec![true]);
        // depth hops + the final delivery round.
        assert_eq!(out.rounds, c.dim() as u64 + 1);
        assert_eq!(out.arrival, vec![out.rounds], "delivery round is recorded");
        assert_eq!(out.forwards, c.dim() as u64 + 1, "one forward per level plus delivery");
        assert_eq!(out.dropped, 0);
    }

    #[test]
    fn undelivered_packets_record_no_arrival() {
        let c = cube();
        let first_hop = c.with_digit(0, 0, 3);
        let out =
            route_batch(&c, &[Packet { entry: 0, target: 63, key: 1 }], 8, |x| x == first_hop);
        assert_eq!(out.arrival, vec![0]);
    }

    #[test]
    fn queueing_delays_show_in_arrival_spread() {
        let c = cube();
        let packets: Vec<Packet> =
            (0..10).map(|i| Packet { entry: 0, target: 63, key: i }).collect();
        let out = route_batch(&c, &packets, 1, |_| false);
        assert!(out.delivered.iter().all(|&d| d));
        let min = out.arrival.iter().min().copied().unwrap();
        let max = out.arrival.iter().max().copied().unwrap();
        assert!(max > min, "capacity-1 queueing must spread arrivals ({min}..{max})");
        assert_eq!(max, out.rounds, "last arrival is the route's round count");
    }

    #[test]
    fn all_to_one_combines_instead_of_congesting() {
        let c = cube();
        // Every supernode requests the same (target, key): combining must
        // keep congestion near k per node, not n.
        let packets: Vec<Packet> =
            c.vertices().map(|v| Packet { entry: v, target: 7, key: 99 }).collect();
        let out = route_batch(&c, &packets, 8, |_| false);
        assert!(out.delivered.iter().all(|&d| d));
        assert!(out.combined > 0);
        assert!(
            out.max_congestion <= 8,
            "combining should cap congestion, got {}",
            out.max_congestion
        );
    }

    #[test]
    fn distinct_keys_do_not_combine() {
        let c = cube();
        let packets: Vec<Packet> =
            (0..16).map(|i| Packet { entry: i, target: 7, key: i }).collect();
        let out = route_batch(&c, &packets, 64, |_| false);
        assert!(out.delivered.iter().all(|&d| d));
        assert_eq!(out.combined, 0);
    }

    #[test]
    fn blocked_supernode_drops_packets_through_it() {
        let c = cube();
        // Route 0 -> 63: first hop goes to position with digit0 = 3.
        let first_hop = c.with_digit(0, 0, 3);
        let out =
            route_batch(&c, &[Packet { entry: 0, target: 63, key: 1 }], 8, |x| x == first_hop);
        assert_eq!(out.delivered, vec![false]);
        assert_eq!(out.dropped, 1);
    }

    #[test]
    fn capacity_one_creates_queueing_rounds() {
        let c = cube();
        // Many distinct-key packets from one entry: with capacity 1 they
        // serialize.
        let packets: Vec<Packet> =
            (0..10).map(|i| Packet { entry: 0, target: 63, key: i }).collect();
        let fast = route_batch(&c, &packets, 16, |_| false);
        let slow = route_batch(&c, &packets, 1, |_| false);
        assert!(slow.rounds > fast.rounds);
        assert!(slow.delivered.iter().all(|&d| d));
    }

    #[test]
    fn entry_equals_target_still_counts_delivery() {
        let c = cube();
        let out = route_batch(&c, &[Packet { entry: 5, target: 5, key: 0 }], 4, |_| false);
        assert_eq!(out.delivered, vec![true]);
    }
}
