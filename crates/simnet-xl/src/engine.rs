//! The engine.
//!
//! See the crate docs for the architecture overview and DESIGN.md §10 for
//! the ordering contract. The short version: a node's sequence number is
//! the lowest-level name the engine has for it (the most recently freed
//! one is reused first, else the next fresh one), every sent message
//! carries the key `(seq << 32) | outbox_position` (injections sort after
//! all sends), and one rule, [`Rule::judge`], decides every message's
//! fate. On one shard the send arena is already in key order, so delivery
//! walks it serially and inbox order and fault-RNG draw order follow the
//! key; on more, shards route their arenas in parallel.

use crate::{Backend, ExecMode};
use rayon::prelude::*;
use simnet::accounting::{CommStats, RoundWork};
use simnet::backend::SimEngine;
use simnet::conduct::{Conduct, SendFate};
use simnet::fault::{BlockSet, FaultModel, LinkFate};
use simnet::instrument::NetObserver;
use simnet::protocol::{node_state_digest, Ctx, Protocol};
use simnet::rng::{splitmix64, stream, NodeRng};
use simnet::trace::{Trace, TraceEvent};
use simnet::{Digest, Envelope, NodeId, Payload, RoundDigest, RunManifest};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;
use telemetry::{EventKind, Phase, Telemetry};

/// Sort key of a pending message: `(seq << 32) | outbox_position` for
/// protocol sends, `INJECT_BIT | counter` for external injections (which
/// are delivered after the round's sends).
type Key = u64;

/// A key-sorted run of pending messages: one shard's send arena, or the
/// injection lane.
type Run<M> = Vec<(Key, Envelope<M>)>;

/// Below this many nodes a fast round runs its shards one after the other:
/// the pool's dispatch cost only pays off for larger populations. Public so
/// tests can pick populations on both sides of the switch.
pub const PAR_THRESHOLD: usize = 512;

const INJECT_BIT: Key = 1 << 63;

/// Marker for a vacant sequence number in the seq → local table.
const VACANT: u32 = u32::MAX;

/// Stream salt of the per-shard per-round fault-fate RNG of a round routed
/// over more than one shard, chosen disjoint from every other stream
/// purpose.
const FAST_FATE_SALT: u64 = 0xFA57_FA7E;

// --------------------------------------------------------------------------
// Id index: a std HashMap with a splitmix64 hasher. NodeId lookups are on
// the per-message delivery path; SipHash is measurable overhead there and
// ids are already high-entropy enough after one splitmix round.
// --------------------------------------------------------------------------

/// One-shot hasher for 8-byte keys (NodeId hashes as a single `u64`).
#[derive(Clone, Default)]
pub struct SplitMixHasher(u64);

impl Hasher for SplitMixHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut buf = [0u8; 8];
            buf[..chunk.len()].copy_from_slice(chunk);
            self.0 = splitmix64(self.0 ^ u64::from_le_bytes(buf));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = splitmix64(self.0 ^ x);
    }
}

type IdMap = HashMap<NodeId, u32, BuildHasherDefault<SplitMixHasher>>;

// --------------------------------------------------------------------------
// The delivery rule: dense bitsets over sequence numbers (what every
// message and every stepped node probes instead of the id-keyed set), the
// one judging function, and the counters its verdicts fold into.
// --------------------------------------------------------------------------

/// Dense bit set over sequence numbers, rebuilt once per round from an
/// id-keyed [`BlockSet`] so membership tests are one shift and mask instead
/// of a search of the set.
///
/// The rebuild goes through the *current* id → seq table, so a bit is set
/// exactly for the blocked ids that are members now: a departed id sets
/// none, and a joiner that took a departed node's seq does not inherit its
/// block. For a present id the bit therefore equals `set.contains(id)`;
/// only an id with no seq needs the set itself (see [`Rule::judge`]).
#[derive(Default)]
struct SeqBits {
    words: Vec<u64>,
}

impl SeqBits {
    fn rebuild(&mut self, set: &BlockSet, idmap: &IdMap, seqs: usize) {
        self.words.clear();
        self.words.resize(seqs.div_ceil(64), 0);
        for id in set.iter() {
            if let Some(&seq) = idmap.get(&id) {
                self.words[seq as usize / 64] |= 1 << (seq % 64);
            }
        }
    }

    #[inline]
    fn get(&self, seq: u32) -> bool {
        (self.words[seq as usize / 64] >> (seq % 64)) & 1 == 1
    }
}

/// Add the counters of `counts`, a counters-only [`Trace`] a shard's
/// route passes keep, to `trace`, and zero them.
fn fold_counts(counts: &mut Trace, trace: &mut Trace) {
    let c = std::mem::take(counts);
    trace.delivered += c.delivered;
    trace.dropped_blocked += c.dropped_blocked;
    trace.dropped_missing += c.dropped_missing;
    trace.dropped_fault += c.dropped_fault;
    trace.dropped_link += c.dropped_link;
    trace.duplicated += c.duplicated;
    trace.delayed += c.delayed;
}

/// Where a message reaching [`Rule::judge`] was queued, which decides the
/// probes the Section 1.1 rule needs for it.
///
/// The rule drops a message whose *sender* was blocked in the send round.
/// For [`Lane::Arena`] that probe is skipped: an arena holds what the
/// compute walk of round `r − 1` collected, the walk runs no node whose bit
/// is set in that round's block view, so a node that sent in `r − 1` is
/// not in `prev_blocked`. Nothing of the kind holds for
/// [`Lane::Injected`], whose nominal sender never ran.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Lane {
    /// A shard's send arena: protocol sends of the previous round.
    Arena,
    /// [`XlNetwork::inject`]ed from outside — and, after a parity restore,
    /// the checkpoint's in-flight mail, which is queued the same way.
    Injected,
    /// Held back by a delay fault and now due: only the receiver's
    /// current block state is re-checked.
    Matured,
}

/// Where a judged message's link fate comes from.
enum Fates<'a> {
    /// The fault model itself: its shared stream and its scheduled-delay
    /// cursors, consumed in the order messages are judged. Every lane of a
    /// one-shard round, and the serial lanes (matured, injected) of any
    /// round.
    Model(&'a mut FaultModel),
    /// The arena of one shard of several, judged concurrently with the
    /// others: a private stream per (shard, round), created only when a
    /// fault model is installed. Scheduled delays never reach here (the
    /// engine refuses them above one shard).
    Shard { faults: &'a FaultModel, rng: Option<NodeRng> },
}

/// What [`Rule::judge`] decides for one message.
enum Verdict {
    /// Into the inbox of the receiver with this seq, with an extra copy if
    /// a link fault duplicated it.
    Deliver { seq: u32, duplicate: bool },
    /// Not delivered this round: the trace event that says why — a drop,
    /// or a delay (whose `until` is the round it matures in).
    Not(TraceEvent),
}

/// The read-only inputs of one round's delivery: membership, the block
/// views and sets, and the nodes the fault model has down.
struct Rule<'a> {
    round: u64,
    idmap: &'a IdMap,
    prev_bits: &'a SeqBits,
    cur_bits: &'a SeqBits,
    prev_blocked: &'a BlockSet,
    blocked: &'a BlockSet,
    downs: &'a BlockSet,
    /// A non-null fault model is installed.
    faulty: bool,
}

impl Rule<'_> {
    /// The delivery rule, for every lane and shard count: the Section 1.1
    /// blocking check, then node-fault and partition checks, then (for
    /// fresh messages only) a scheduled delay and a link-fate draw, then a
    /// missing receiver. [`Lane::Matured`] messages are not fresh: they
    /// re-check just the receiver-side conditions and are never delayed
    /// twice.
    ///
    /// The blocking check probes [`SeqBits`], so the receiver's seq is
    /// looked up *first* — but under [`Fates::Model`] a receiver without
    /// one is still classified *last*, after every check above has had its
    /// say and the fault RNG has been drawn from exactly as if the receiver
    /// were there. For such a receiver (departed, or never a member) the
    /// blocking check falls back to the id-keyed sets, so a message to a
    /// departed *and* blocked node counts as `dropped_blocked`.
    ///
    /// Under [`Fates::Shard`] — an arena of a round routed over several
    /// shards — two checks are relaxed (DESIGN.md §10): a receiver with no
    /// seq is classified first, as `dropped_missing`, and the sender's
    /// `down(from, sent_round)` test is skipped, which only a fault model
    /// installed between send and delivery could tell apart.
    #[inline(always)]
    fn judge<M>(&self, fates: &mut Fates<'_>, env: &Envelope<M>, lane: Lane) -> Verdict {
        let (round, from, to) = (self.round, env.from, env.to);
        let exact = matches!(fates, Fates::Model(_));
        let fresh = lane != Lane::Matured;
        let to_seq = self.idmap.get(&to).copied();
        let receiver_blocked = match to_seq {
            Some(seq) => (fresh && self.prev_bits.get(seq)) || self.cur_bits.get(seq),
            None if !exact => return Verdict::Not(TraceEvent::DroppedMissing { round, from, to }),
            None => (fresh && self.prev_blocked.contains(to)) || self.blocked.contains(to),
        };
        if receiver_blocked || (lane == Lane::Injected && self.prev_blocked.contains(from)) {
            return Verdict::Not(TraceEvent::DroppedBlocked { round, from, to });
        }
        let mut duplicate = false;
        if self.faulty {
            let faults: &FaultModel = match fates {
                Fates::Model(faults) => faults,
                Fates::Shard { faults, .. } => faults,
            };
            if self.downs.contains(to)
                || (exact && faults.down(from, env.sent_round))
                || faults.cut(from, to, round)
            {
                return Verdict::Not(TraceEvent::DroppedFault { round, from, to });
            }
            if fresh {
                let fate = match fates {
                    Fates::Model(faults) => {
                        // Scheduled per-message delays are judged before
                        // the probabilistic link fate and consume no
                        // randomness, so a schedule-only model (live-cluster
                        // replay) leaves every RNG stream untouched.
                        if let Some(extra) = faults.scheduled_extra(from, to, env.sent_round) {
                            let until = round + extra;
                            return Verdict::Not(TraceEvent::Delayed { round, from, to, until });
                        }
                        faults.link_fate()
                    }
                    Fates::Shard { faults, rng } => {
                        faults.link_fate_with(rng.as_mut().expect("a stream per faulty round"))
                    }
                };
                match fate {
                    LinkFate::Deliver => {}
                    LinkFate::Drop => {
                        return Verdict::Not(TraceEvent::DroppedLink { round, from, to });
                    }
                    LinkFate::Duplicate => duplicate = true,
                    LinkFate::Delay(extra) => {
                        let until = round + extra;
                        return Verdict::Not(TraceEvent::Delayed { round, from, to, until });
                    }
                }
            }
        }
        match to_seq {
            Some(seq) => Verdict::Deliver { seq, duplicate },
            None => Verdict::Not(TraceEvent::DroppedMissing { round, from, to }),
        }
    }
}

/// Messages a serial lane routes before it absorbs them: the bucket of a
/// serial lane never holds more than this.
const CHUNK: usize = 1024;

/// Deliver one serial lane: judged in order with the fault model's own
/// fates, routed by shard 0 [`CHUNK`] messages at a time through the first
/// row of `buckets`, each chunk absorbed into every destination shard
/// before the next is routed. What a delay holds waits in shard 0's `held`.
#[allow(clippy::too_many_arguments)]
fn serial_lane<P: Protocol>(
    mut mail: impl Iterator<Item = Envelope<P::Msg>>,
    lane: Lane,
    shards: &mut [Shard<P>],
    buckets: &mut [Bucket<P::Msg>],
    seq_local: &[u32],
    rule: &Rule<'_>,
    faults: &mut FaultModel,
    mut log: Option<&mut Trace>,
) {
    let row = &mut buckets[..shards.len()];
    while let Some(first) = mail.next() {
        let chunk = std::iter::once(first).chain(mail.by_ref().take(CHUNK - 1));
        let fates = &mut Fates::Model(faults);
        shards[0].route(chunk, lane, row, fates, rule, log.as_deref_mut());
        for (shard, bucket) in shards.iter_mut().zip(row.iter_mut()) {
            shard.absorb(std::slice::from_mut(bucket), seq_local);
        }
    }
}

/// Routed messages bound for one destination shard, resolved to the
/// receiver's sequence number: a cell of the k × k routing matrix, or of
/// the row a serial lane routes through.
type Bucket<M> = Vec<(u32, Envelope<M>)>;

/// One source shard's route job: its index, the shard, and its row of
/// destination buckets.
type RouteJob<'a, P> = (usize, &'a mut Shard<P>, &'a mut [Bucket<<P as Protocol>::Msg>]);

/// One destination shard's absorb job: the shard and its row of
/// (post-transpose) inbound buckets.
type AbsorbJob<'a, P> = (&'a mut Shard<P>, &'a mut [Bucket<<P as Protocol>::Msg>]);

// --------------------------------------------------------------------------
// Shard: structure-of-arrays node state plus the shard's send arena.
// --------------------------------------------------------------------------

struct Shard<P: Protocol> {
    /// Parallel arrays indexed by dense local index.
    ids: Vec<NodeId>,
    seqs: Vec<u32>,
    protos: Vec<P>,
    rngs: Vec<NodeRng>,
    inboxes: Vec<Vec<Envelope<P::Msg>>>,
    /// Membership of the active set, per local index: what the walk
    /// checks, since a seq's bit can outlive the node that set it.
    flags: Vec<bool>,
    /// The active-set worklist for the next round: a bit per sequence
    /// number (stable across `swap_remove`, unlike local indices), so the
    /// walk visits it in seq order without a sort. The scratch is the
    /// previous round's, all zero once walked.
    dirty: Vec<u64>,
    dirty_scratch: Vec<u64>,
    /// Per-node outbox buffer lent to `Ctx`, reused across nodes.
    scratch: Vec<Envelope<P::Msg>>,
    /// Send arena: this shard's outgoing messages of the current round,
    /// key-sorted by construction (nodes step in seq order).
    sent: Run<P::Msg>,
    /// Messages this shard's route pass held back on a link-delay fault,
    /// drained into the engine's delay queue serially.
    held: Vec<(u64, Envelope<P::Msg>)>,
    /// This shard's route-pass delivery counters of the current round: a
    /// counters-only trace, folded into the engine's serially.
    counts: Trace,
    /// Send-side totals of the last `run_round`.
    sent_bits: u64,
    sent_msgs: u64,
    /// Conduct decisions of the last `run_round`, folded into the engine
    /// totals serially (each shard judges only its own senders).
    conduct_dropped: u64,
    conduct_forged: u64,
    /// Per-round work accounting with sparse reset via `touched`.
    work_bits: Vec<u64>,
    work_msgs: Vec<u64>,
    touched: Vec<u32>,
}

impl<P: Protocol> Shard<P> {
    fn new() -> Self {
        Self {
            ids: Vec::new(),
            seqs: Vec::new(),
            protos: Vec::new(),
            rngs: Vec::new(),
            inboxes: Vec::new(),
            flags: Vec::new(),
            dirty: Vec::new(),
            dirty_scratch: Vec::new(),
            scratch: Vec::new(),
            sent: Vec::new(),
            held: Vec::new(),
            counts: Trace::counters_only(),
            sent_bits: 0,
            sent_msgs: 0,
            conduct_dropped: 0,
            conduct_forged: 0,
            work_bits: Vec::new(),
            work_msgs: Vec::new(),
            touched: Vec::new(),
        }
    }

    #[inline]
    fn mark_dirty(&mut self, seq: u32, local: usize) {
        if !self.flags[local] {
            self.flags[local] = true;
            let word = seq as usize / 64;
            if word >= self.dirty.len() {
                self.dirty.resize(word + 1, 0);
            }
            self.dirty[word] |= 1 << (seq % 64);
        }
    }

    #[inline]
    fn charge(&mut self, local: usize, bits: u64) {
        if self.work_msgs[local] == 0 {
            self.touched.push(local as u32);
        }
        self.work_bits[local] += bits;
        self.work_msgs[local] += 1;
    }

    /// Compute + send for every active node of this shard, in seq order
    /// (which keeps the send arena key-sorted). Safe to run concurrently
    /// with other shards: touches only this shard's state.
    ///
    /// `cur_bits` is the seq-indexed view of this round's block set.
    ///
    /// `conduct` judges every send before it enters the arena (at every
    /// shard count). Safe under shard parallelism: the hook's contract
    /// (`Send + Sync`, order-independent decisions) is documented in
    /// [`simnet::conduct`].
    fn run_round(
        &mut self,
        round: u64,
        downs: &BlockSet,
        seq_local: &[u32],
        cur_bits: &SeqBits,
        conduct: Option<&dyn Conduct<P::Msg>>,
    ) {
        self.sent_bits = 0;
        self.sent_msgs = 0;
        self.conduct_dropped = 0;
        self.conduct_forged = 0;
        let mut work = std::mem::replace(&mut self.dirty, std::mem::take(&mut self.dirty_scratch));
        let mut outbox = std::mem::take(&mut self.scratch);
        let marked = work.iter_mut().enumerate().flat_map(|(word, bits)| {
            let mut bits = std::mem::take(bits);
            std::iter::from_fn(move || {
                let bit = (bits != 0).then(|| bits.trailing_zeros())?;
                bits &= bits - 1;
                Some(word as u32 * 64 + bit)
            })
        });
        for seq in marked {
            let local = seq_local[seq as usize];
            if local == VACANT {
                continue; // marked, then removed before this round
            }
            let local = local as usize;
            if !self.flags[local] {
                continue;
            }
            self.flags[local] = false;
            let id = self.ids[local];
            if cur_bits.get(seq) || downs.contains(id) {
                // A blocked or down node neither runs nor sends; pending
                // inbox content is discarded. It stays on the worklist
                // (unless permanently passive) because it will act again
                // once unblocked.
                self.inboxes[local].clear();
                if !self.protos[local].quiescent() {
                    self.mark_dirty(seq, local);
                }
                continue;
            }
            if self.protos[local].quiescent() {
                // Contract of `Protocol::quiescent`: on_round would not
                // mutate state, draw randomness or send — skipping the
                // call is invisible to the digest. The engine-side inbox
                // clear still applies.
                self.inboxes[local].clear();
                continue;
            }
            let mut ctx = Ctx::from_parts(
                id,
                round,
                &mut self.inboxes[local],
                &mut outbox,
                &mut self.rngs[local],
            );
            self.protos[local].on_round(&mut ctx);
            self.inboxes[local].clear();
            for (pos, mut env) in outbox.drain(..).enumerate() {
                if let Some(judge) = conduct {
                    match judge.judge(env.from, env.to, round, pos as u64, &env.msg) {
                        SendFate::Deliver => {}
                        SendFate::Drop => {
                            self.conduct_dropped += 1;
                            continue;
                        }
                        SendFate::Replace(forged) => {
                            self.conduct_forged += 1;
                            env.msg = forged;
                        }
                    }
                }
                let bits = env.msg.size_bits();
                self.charge(local, bits);
                self.sent_bits += bits;
                self.sent_msgs += 1;
                self.sent.push((((seq as u64) << 32) | pos as u64, env));
            }
            if !self.protos[local].quiescent() {
                self.mark_dirty(seq, local);
            }
        }
        self.dirty_scratch = work;
        self.scratch = outbox;
    }

    /// Judge every message of `mail` — one lane, in order — and scatter
    /// the survivors into `row`, one bucket per destination shard, the
    /// receiver already resolved to its sequence number. Verdicts are
    /// counted in this shard's `counts`, or with `log` recorded as trace
    /// events in judge order; delayed messages wait in `held`.
    ///
    /// The arenas of a round over several shards are routed concurrently,
    /// each with its own [`Fates::Shard`]: every shared input is read-only.
    fn route(
        &mut self,
        mail: impl Iterator<Item = Envelope<P::Msg>>,
        lane: Lane,
        row: &mut [Bucket<P::Msg>],
        fates: &mut Fates<'_>,
        rule: &Rule<'_>,
        log: Option<&mut Trace>,
    ) {
        let k = row.len();
        let sink = log.unwrap_or(&mut self.counts);
        let events = sink.is_enabled();
        for env in mail {
            match rule.judge(fates, &env, lane) {
                Verdict::Deliver { seq, duplicate } => {
                    let (round, from, to) = (rule.round, env.from, env.to);
                    // A delivery only bumps a counter unless events are on.
                    if events {
                        sink.record(TraceEvent::Delivered { round, from, to });
                    } else {
                        sink.delivered += 1;
                    }
                    let bucket = &mut row[if k == 1 { 0 } else { seq as usize % k }];
                    let copy = duplicate.then(|| env.clone());
                    bucket.push((seq, env));
                    if let Some(copy) = copy {
                        bucket.push((seq, copy));
                        sink.record(TraceEvent::Duplicated { round, from, to });
                    }
                }
                Verdict::Not(event) => {
                    if let TraceEvent::Delayed { until, .. } = event {
                        self.held.push((until, env));
                    }
                    sink.record(event);
                }
            }
        }
    }

    /// Push every routed message bound for this shard into its receiver's
    /// inbox, bucket by bucket, in push order. Above one shard the absorb
    /// pass runs concurrently across shards: it touches only this shard's
    /// state.
    fn absorb(&mut self, row: &mut [Bucket<P::Msg>], seq_local: &[u32]) {
        for bucket in row {
            for (seq, env) in bucket.drain(..) {
                let local = seq_local[seq as usize] as usize;
                self.charge(local, env.msg.size_bits());
                self.inboxes[local].push(env);
                self.mark_dirty(seq, local);
            }
        }
    }
}

// --------------------------------------------------------------------------
// The engine
// --------------------------------------------------------------------------

/// A simulated overlay network of nodes running protocol `P`: the one
/// implementation of the `simnet` round model.
///
/// The engine owns the nodes, delivers messages according to the
/// synchronous model (a message sent in round `i` is processed in round
/// `i + 1`), applies the DoS blocking rule of [`simnet::fault`], accounts
/// communication work, and supports node churn between rounds. See the
/// crate docs for the layout and the two execution modes.
pub struct XlNetwork<P: Protocol> {
    master_seed: u64,
    round: u64,
    /// 1 in parity mode; fast mode's shard count otherwise.
    n_shards: usize,
    mode: ExecMode,
    shards: Vec<Shard<P>>,
    /// Above one shard: the k × k routing matrix, row-major by source
    /// shard; cell `(src, dst)` holds messages from `src` bound for `dst`.
    /// The bucket vectors (and their capacity) persist across rounds.
    buckets: Vec<Bucket<P::Msg>>,
    /// Seq-indexed views of last round's and this round's block sets,
    /// rebuilt at the top of every round's delivery.
    prev_bits: SeqBits,
    cur_bits: SeqBits,
    /// id → sequence number.
    idmap: IdMap,
    /// seq → local index within shard `seq % n_shards`; [`VACANT`] if free.
    seq_local: Vec<u32>,
    /// Free sequence numbers, reused most-recently-freed first.
    free: Vec<u32>,
    /// External injections pending for next round, keyed after all sends.
    injected: Run<P::Msg>,
    inject_seq: u64,
    /// Messages held back by a link-delay fault, with maturity round.
    delayed: Vec<(u64, Envelope<P::Msg>)>,
    scratch_delayed: Vec<(u64, Envelope<P::Msg>)>,
    /// Last round's block set by id: source of `prev_bits`, and what the
    /// delivery rule falls back to where there is no seq to probe.
    prev_blocked: BlockSet,
    faults: FaultModel,
    /// Send-path interception policy (see [`simnet::conduct`]), judged
    /// inside the parallel shard walk; `None` is the honest default.
    conduct: Option<Arc<dyn Conduct<P::Msg>>>,
    conduct_dropped: u64,
    conduct_forged: u64,
    stats: CommStats,
    trace: Trace,
    obs: NetObserver,
    digests_enabled: bool,
}

impl<P: Protocol> XlNetwork<P> {
    /// Create an empty parity network: one shard, one global delivery
    /// order, the digest stream the golden files pin. All node randomness
    /// derives from `master_seed`; identical seeds give identical runs.
    pub fn new(master_seed: u64) -> Self {
        Self::with_layout(master_seed, ExecMode::Parity, 1)
    }

    /// Create an empty [`ExecMode::Fast`] network over `shards` shards (`0`
    /// means automatic, see [`crate::default_shards`]). The run is
    /// deterministic for a fixed `(master_seed, shards)` pair; at one shard
    /// it runs exactly as parity does, at more it differs — see the
    /// [`ExecMode`] docs.
    pub fn fast(master_seed: u64, shards: usize) -> Self {
        let shards = if shards == 0 { crate::default_shards() } else { shards };
        Self::with_layout(master_seed, ExecMode::Fast, shards)
    }

    fn with_layout(master_seed: u64, mode: ExecMode, n_shards: usize) -> Self {
        Self {
            master_seed,
            round: 0,
            n_shards,
            mode,
            shards: (0..n_shards).map(|_| Shard::new()).collect(),
            buckets: Vec::new(),
            prev_bits: SeqBits::default(),
            cur_bits: SeqBits::default(),
            idmap: IdMap::default(),
            seq_local: Vec::new(),
            free: Vec::new(),
            injected: Vec::new(),
            inject_seq: 0,
            delayed: Vec::new(),
            scratch_delayed: Vec::new(),
            prev_blocked: BlockSet::none(),
            faults: FaultModel::null(),
            conduct: None,
            conduct_dropped: 0,
            conduct_forged: 0,
            stats: CommStats::new(),
            trace: Trace::counters_only(),
            obs: NetObserver::disabled(),
            digests_enabled: false,
        }
    }

    /// Number of shards node state is split across: 1 in parity mode.
    pub fn shard_count(&self) -> usize {
        self.n_shards
    }

    /// The execution mode this network was created with.
    pub fn exec_mode(&self) -> ExecMode {
        self.mode
    }

    /// Attach a telemetry recorder. The engine then emits per-round
    /// delivery/fault/work metrics, brackets deliver/compute/send in
    /// profiler phases, and records node lifecycle events.
    ///
    /// Telemetry is pure observability: it never draws simulation
    /// randomness, never feeds [`Self::round_digest`], and is not
    /// checkpointed — a run's digest stream is identical with or without a
    /// recorder attached. The default is [`Telemetry::disabled`], whose
    /// hot-path cost is a single branch per operation.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.obs = NetObserver::new(tel, &self.trace);
    }

    /// The attached telemetry recorder.
    pub fn telemetry(&self) -> &Telemetry {
        self.obs.telemetry()
    }

    /// Enable event tracing with the given buffer capacity. Counters,
    /// digests and the manifest accumulated before this call are kept.
    pub fn enable_trace(&mut self, cap: usize) {
        self.trace.enable(cap);
    }

    /// Record a [`RoundDigest`] into the trace after every subsequent round.
    pub fn enable_digests(&mut self) {
        self.digests_enabled = true;
    }

    /// Attach a reproduction manifest to the trace. The network fills in
    /// its master seed and crate version; `config` should describe
    /// everything else that defines the run.
    pub fn set_manifest(&mut self, config: impl Into<String>) {
        self.trace.set_manifest(RunManifest::new(self.master_seed, config));
    }

    /// Install a fault model on the delivery path, replacing the previous
    /// one (the default is [`FaultModel::null`], which restores the exact
    /// Section 1.1 semantics). Installing mid-run is allowed; scheduled
    /// node faults are interpreted against the absolute round counter.
    ///
    /// Scheduled per-message delays need one shard: occurrences under one
    /// key are consumed in global delivery order, and a round over several
    /// shards judges link fates concurrently per shard, where that order
    /// does not exist.
    pub fn set_fault_model(&mut self, faults: FaultModel) {
        assert!(
            self.n_shards == 1 || !faults.has_scheduled(),
            "scheduled per-message delays require the global delivery order of one \
             shard; ExecMode::Fast does not support them at more than one shard"
        );
        self.faults = faults;
    }

    /// The installed fault model.
    pub fn fault_model(&self) -> &FaultModel {
        &self.faults
    }

    /// Install (or with `None`, remove) a send-path [`Conduct`] policy, in
    /// both parity and fast modes. Every subsequent protocol send is judged
    /// by it at collection time; see [`simnet::conduct`] for the
    /// determinism contract.
    ///
    /// Conduct is configuration, not state: it is **not checkpointed**. A
    /// resumed run must re-install the same conduct to continue the
    /// original behavior — doing so reproduces the uninterrupted digest
    /// stream exactly, because conduct decisions hash the absolute round
    /// counter, not elapsed time since installation.
    pub fn set_conduct(&mut self, conduct: Option<Arc<dyn Conduct<P::Msg>>>) {
        self.conduct = conduct;
    }

    /// Totals of messages `(dropped, forged)` by the installed conduct so
    /// far. Identical across modes and shard counts for identically driven
    /// runs (the hook's decisions are order-independent).
    pub fn conduct_counts(&self) -> (u64, u64) {
        (self.conduct_dropped, self.conduct_forged)
    }

    /// The master seed this network was created with.
    pub fn master_seed(&self) -> u64 {
        self.master_seed
    }

    /// Current round number.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Number of nodes currently in the network.
    pub fn len(&self) -> usize {
        self.idmap.len()
    }

    /// True if no nodes are present.
    pub fn is_empty(&self) -> bool {
        self.idmap.is_empty()
    }

    /// Whether `id` is currently a member.
    pub fn contains(&self, id: NodeId) -> bool {
        self.idmap.contains_key(&id)
    }

    /// Iterate over current member ids (unspecified order).
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.idmap.keys().copied()
    }

    /// Iterate over `(id, state)` of current members (unspecified order).
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.shards.iter().flat_map(|s| s.ids.iter().copied().zip(s.protos.iter()))
    }

    #[inline]
    fn locate(&self, seq: u32) -> (usize, usize) {
        (seq as usize % self.n_shards, self.seq_local[seq as usize] as usize)
    }

    /// Shared access to a node's protocol state.
    pub fn node(&self, id: NodeId) -> Option<&P> {
        let &seq = self.idmap.get(&id)?;
        let (sh, local) = self.locate(seq);
        Some(&self.shards[sh].protos[local])
    }

    /// Exclusive access to a node's protocol state.
    ///
    /// The node is put back on the active-set worklist: the caller may
    /// mutate it out of quiescence, and the engine cannot see which fields
    /// changed.
    pub fn node_mut(&mut self, id: NodeId) -> Option<&mut P> {
        let &seq = self.idmap.get(&id)?;
        let (sh, local) = self.locate(seq);
        let shard = &mut self.shards[sh];
        shard.mark_dirty(seq, local);
        Some(&mut shard.protos[local])
    }

    /// Communication-work statistics recorded so far.
    pub fn stats(&self) -> &CommStats {
        &self.stats
    }

    /// Reset communication-work statistics.
    pub fn reset_stats(&mut self) {
        self.stats.clear();
    }

    /// The event trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Add a node. Panics if `id` is already present (the paper assumes
    /// every id enters the system at most once). It takes the most
    /// recently freed sequence number, else the next fresh one.
    pub fn add_node(&mut self, id: NodeId, proto: P) {
        assert!(!self.idmap.contains_key(&id), "duplicate node id {id}");
        let rng = stream(self.master_seed, id.raw(), 0);
        let seq = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = self.seq_local.len() as u32;
                self.seq_local.push(VACANT);
                s
            }
        };
        let sh = seq as usize % self.n_shards;
        let shard = &mut self.shards[sh];
        let local = shard.ids.len();
        shard.ids.push(id);
        shard.seqs.push(seq);
        shard.protos.push(proto);
        shard.rngs.push(rng);
        shard.inboxes.push(Vec::new());
        shard.flags.push(false);
        shard.work_bits.push(0);
        shard.work_msgs.push(0);
        shard.mark_dirty(seq, local);
        self.seq_local[seq as usize] = local as u32;
        self.idmap.insert(id, seq);
        self.trace.record(TraceEvent::NodeAdded { round: self.round, node: id });
        self.obs.node_event(self.round, EventKind::NodeAdded, id);
    }

    /// Remove a node, returning its protocol state. Messages in flight to
    /// it are dropped at delivery time.
    pub fn remove_node(&mut self, id: NodeId) -> Option<P> {
        let seq = self.idmap.remove(&id)?;
        let (sh, local) = self.locate(seq);
        let shard = &mut self.shards[sh];
        let last = shard.ids.len() - 1;
        shard.ids.swap_remove(local);
        shard.seqs.swap_remove(local);
        let proto = shard.protos.swap_remove(local);
        shard.rngs.swap_remove(local);
        shard.inboxes.swap_remove(local);
        shard.flags.swap_remove(local);
        shard.work_bits.swap_remove(local);
        shard.work_msgs.swap_remove(local);
        if local != last {
            let moved = shard.seqs[local];
            self.seq_local[moved as usize] = local as u32;
        }
        self.seq_local[seq as usize] = VACANT;
        self.free.push(seq);
        self.trace.record(TraceEvent::NodeRemoved { round: self.round, node: id });
        self.obs.node_event(self.round, EventKind::NodeRemoved, id);
        Some(proto)
    }

    /// Inject a message from outside the simulation; it is subject to the
    /// normal delivery rule next round, after all protocol sends, with
    /// `from` as the nominal sender.
    pub fn inject(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        let key = INJECT_BIT | self.inject_seq;
        self.inject_seq += 1;
        self.injected.push((key, Envelope { from, to, sent_round: self.round, msg }));
    }

    /// Execute one round with no nodes blocked.
    pub fn step(&mut self) {
        self.step_blocked(&BlockSet::none());
    }

    /// Run `rounds` rounds with no blocking.
    pub fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Execute one round with the given set of nodes blocked.
    ///
    /// Blocked nodes neither receive (their pending messages are dropped per
    /// the model's delivery rule) nor execute `on_round` nor send. Nodes
    /// down under the installed [`FaultModel`] behave like blocked nodes;
    /// surviving messages are additionally judged for link faults.
    pub fn step_blocked(&mut self, blocked: &BlockSet) {
        let round = self.round;

        // Crash-recovery transitions: a node due back this round restarts
        // with lost state — protocol reset hook, cleared inbox, and a fresh
        // RNG incarnation (the pre-crash stream position is part of the
        // state the crash destroys).
        if !self.faults.is_null() {
            for id in self.faults.recovering(round) {
                if let Some(&seq) = self.idmap.get(&id) {
                    let (sh, local) = self.locate(seq);
                    let shard = &mut self.shards[sh];
                    shard.protos[local].on_crash_recover();
                    shard.inboxes[local].clear();
                    shard.rngs[local] = stream(self.master_seed, id.raw(), (1 << 63) | round);
                    shard.mark_dirty(seq, local);
                    self.trace.record(TraceEvent::NodeRecovered { round, node: id });
                    self.obs.node_event(round, EventKind::NodeRecovered, id);
                }
            }
        }
        let downs =
            if self.faults.is_null() { BlockSet::none() } else { self.faults.down_set(round) };

        // Step 1: deliver — matured delays first, then last round's sends:
        // walked serially in key order on one shard, routed in parallel per
        // shard on more. Membership is fixed until the round ends, so the
        // seq-indexed block views built here serve delivery and the
        // compute walk alike.
        {
            let _deliver = self.obs.telemetry().phase(Phase::Deliver);
            self.prev_bits.rebuild(&self.prev_blocked, &self.idmap, self.seq_local.len());
            self.cur_bits.rebuild(blocked, &self.idmap, self.seq_local.len());
            self.deliver(round, blocked, &downs);
        }

        // Steps 2+3: compute and send, parallel over fast mode's shards.
        // Each shard fills its own arena, so no cross-shard synchronization
        // happens until next round's delivery.
        {
            let _compute = self.obs.telemetry().phase(Phase::Compute);
            let (seq_local, cur_bits) = (&self.seq_local, &self.cur_bits);
            let conduct = self.conduct.as_deref();
            let parallel = self.n_shards > 1 && self.idmap.len() >= PAR_THRESHOLD;
            if parallel {
                self.shards
                    .par_iter_mut()
                    .for_each(|sh| sh.run_round(round, &downs, seq_local, cur_bits, conduct));
            } else {
                for sh in &mut self.shards {
                    sh.run_round(round, &downs, seq_local, cur_bits, conduct);
                }
            }
        }

        let (mut sent_bits, mut sent_msgs) = (0u64, 0u64);
        {
            let _send = self.obs.telemetry().phase(Phase::Send);
            for sh in &self.shards {
                sent_bits += sh.sent_bits;
                sent_msgs += sh.sent_msgs;
                self.conduct_dropped += sh.conduct_dropped;
                self.conduct_forged += sh.conduct_forged;
            }
        }

        let work = self.finish_work(round);
        self.stats.push(work);
        if self.obs.enabled() {
            self.obs.on_round(&self.trace, work, self.idmap.len(), sent_bits, sent_msgs);
        }
        self.prev_blocked.clone_from(blocked);
        self.round += 1;

        if self.digests_enabled {
            let value = self.round_digest();
            self.trace.record_digest(RoundDigest { round, value });
        }
    }

    /// Deliver everything pending for this round, every message judged by
    /// [`Rule::judge`] and settled by a route pass into buckets and an
    /// absorb pass into inboxes: first the held-back messages that are due
    /// (in the order they were held; the rest go back on the queue), then
    /// last round's sends, then the injection lane.
    ///
    /// The matured and injection lanes are *serial*: judged in order with
    /// the fault model's own fates, routed [`CHUNK`] messages at a time
    /// through one row of buckets and absorbed before the next chunk. On
    /// one shard the arena is a serial lane too, and since the arena and
    /// the injection lane are key-sorted by construction and every arena
    /// key sorts below every injection key (a restored checkpoint's mail
    /// leads the injection lane while the arena is empty), the round is
    /// delivered in global key order. Two passes over a chunk beat one
    /// pass that settles each message as it is judged: the id lookups of a
    /// chunk, and then its inbox writes, do not wait on each other.
    ///
    /// Above one shard the arenas take the parallel route instead: (1)
    /// parallel over *source* shards, judge each arena message with the
    /// shard's private fate stream and scatter survivors into the k × k
    /// bucket matrix, (2) transpose the matrix in place, (3) parallel over
    /// *destination* shards, drain each shard's buckets into inboxes in
    /// (source shard, send order). Everything is deterministic for a fixed
    /// `(master_seed, n_shards)`.
    fn deliver(&mut self, round: u64, blocked: &BlockSet, downs: &BlockSet) {
        let Self {
            master_seed,
            n_shards: k,
            shards,
            buckets,
            prev_bits,
            cur_bits,
            idmap,
            seq_local,
            injected,
            inject_seq,
            delayed,
            scratch_delayed,
            prev_blocked,
            faults,
            trace,
            ..
        } = self;
        let (k, master_seed, seq_local) = (*k, *master_seed, &seq_local[..]);
        let rule = Rule {
            round,
            idmap,
            prev_bits,
            cur_bits,
            prev_blocked,
            blocked,
            downs,
            faulty: !faults.is_null(),
        };
        if buckets.len() != k * k {
            *buckets = (0..k * k).map(|_| Vec::new()).collect();
        }
        let tracing = trace.is_enabled();

        let mut held = std::mem::replace(delayed, std::mem::take(scratch_delayed));
        let due = held.drain(..).filter_map(|(due, env)| {
            if due <= round {
                return Some(env);
            }
            delayed.push((due, env));
            None
        });
        let log = tracing.then_some(&mut *trace);
        serial_lane(due, Lane::Matured, shards, &mut buckets[..], seq_local, &rule, faults, log);
        *scratch_delayed = held;

        if k == 1 {
            // Taken out of the shard so delivery can borrow it mutably, and
            // handed back drained so its capacity is reused.
            let mut sent = std::mem::take(&mut shards[0].sent);
            let mail = sent.drain(..).map(|(_, env)| env);
            let log = tracing.then_some(&mut *trace);
            serial_lane(mail, Lane::Arena, shards, &mut buckets[..], seq_local, &rule, faults, log);
            shards[0].sent = sent;
            delayed.append(&mut shards[0].held);
        } else {
            let parallel = idmap.len() >= PAR_THRESHOLD;
            let faults = &*faults;
            let mut jobs: Vec<RouteJob<'_, P>> = shards
                .iter_mut()
                .zip(buckets.chunks_mut(k))
                .enumerate()
                .map(|(i, (sh, row))| (i, sh, row))
                .collect();
            let route = |(i, sh, row): &mut RouteJob<'_, P>| {
                let rng =
                    rule.faulty.then(|| stream(master_seed ^ FAST_FATE_SALT, *i as u64, round));
                let mut sent = std::mem::take(&mut sh.sent);
                let mail = sent.drain(..).map(|(_, env)| env);
                sh.route(mail, Lane::Arena, row, &mut Fates::Shard { faults, rng }, &rule, None);
                sh.sent = sent;
            };
            if parallel {
                jobs.par_iter_mut().for_each(route);
            } else {
                jobs.iter_mut().for_each(route);
            }

            // Serial glue, in shard order so totals and the delay queue
            // stay deterministic; then transpose so each destination owns
            // a row.
            for sh in shards.iter_mut() {
                fold_counts(&mut sh.counts, trace);
                delayed.append(&mut sh.held);
            }
            for src in 0..k {
                for dst in src + 1..k {
                    buckets.swap(src * k + dst, dst * k + src);
                }
            }
            let mut jobs: Vec<AbsorbJob<'_, P>> =
                shards.iter_mut().zip(buckets.chunks_mut(k)).collect();
            if parallel {
                jobs.par_iter_mut().for_each(|(sh, row)| sh.absorb(row, seq_local));
            } else {
                for (sh, row) in &mut jobs {
                    sh.absorb(row, seq_local);
                }
            }
        }

        // Injections last — their keys sort after all sends.
        let mail = injected.drain(..).map(|(_, env)| env);
        let log = tracing.then_some(&mut *trace);
        serial_lane(mail, Lane::Injected, shards, &mut buckets[..], seq_local, &rule, faults, log);
        delayed.append(&mut shards[0].held);
        *inject_seq = 0;
        fold_counts(&mut shards[0].counts, trace);
    }

    /// Fold the shards' sparse work cells into one [`RoundWork`] and reset
    /// them — O(touched), not O(n).
    fn finish_work(&mut self, round: u64) -> RoundWork {
        let mut work = RoundWork { round, ..RoundWork::default() };
        for sh in &mut self.shards {
            for &local in &sh.touched {
                let local = local as usize;
                let bits = sh.work_bits[local];
                let msgs = sh.work_msgs[local];
                work.max_node_bits = work.max_node_bits.max(bits);
                work.total_bits += bits;
                work.max_node_msgs = work.max_node_msgs.max(msgs);
                work.total_msgs += msgs;
                sh.work_bits[local] = 0;
                sh.work_msgs[local] = 0;
            }
            sh.touched.clear();
        }
        work
    }

    /// Stable fingerprint of the full network state: round counter,
    /// membership, per-node RNG stream positions and protocol states
    /// (via [`Protocol::digest`]), and every in-flight message (via
    /// [`Payload::digest`]).
    ///
    /// Nodes are hashed in id order and in-flight messages in a canonical
    /// sort order, so the value is independent of shard layout, `HashMap`
    /// iteration order and the thread schedule that produced the state.
    /// Two runs are replay-identical iff their digest streams match
    /// round for round.
    pub fn round_digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_u64(self.round);
        d.write_usize(self.idmap.len());

        let mut ids: Vec<NodeId> = self.idmap.keys().copied().collect();
        ids.sort_unstable();
        for id in ids {
            let (sh, local) = self.locate(self.idmap[&id]);
            let shard = &self.shards[sh];
            d.write_u64(id.raw());
            d.write_u128(shard.rngs[local].get_word_pos());
            shard.protos[local].digest(&mut d);
        }

        let mut flight: Vec<(u64, u64, u64, u64)> = self
            .pending()
            .map(|(_, env)| {
                let mut m = Digest::new();
                env.msg.digest(&mut m);
                (env.from.raw(), env.to.raw(), env.sent_round, m.finish())
            })
            .collect();
        flight.sort_unstable();
        d.write_usize(flight.len());
        for (from, to, sent_round, msg) in flight {
            d.write_u64(from).write_u64(to).write_u64(sent_round).write_u64(msg);
        }

        if !self.delayed.is_empty() {
            let mut held: Vec<(u64, u64, u64, u64, u64)> = self
                .delayed
                .iter()
                .map(|(due, env)| {
                    let mut m = Digest::new();
                    env.msg.digest(&mut m);
                    (*due, env.from.raw(), env.to.raw(), env.sent_round, m.finish())
                })
                .collect();
            held.sort_unstable();
            d.write_u64(0xDE1A_FED0);
            d.write_usize(held.len());
            for (due, from, to, sent_round, msg) in held {
                d.write_u64(due).write_u64(from).write_u64(to).write_u64(sent_round).write_u64(msg);
            }
        }

        d.finish()
    }

    /// The canonical per-node state fingerprint of one member, or `None`
    /// if `id` is not present: [`simnet::protocol::node_state_digest`] over
    /// the node's id, RNG stream position and protocol state.
    ///
    /// Unlike [`Self::round_digest`] this composes per node, so a live
    /// deployment driving the same [`Protocol`] outside the simulator (the
    /// `reconfig-node` daemon) can publish the identical fingerprint and be
    /// compared node by node against a simulated replay.
    pub fn node_digest(&self, id: NodeId) -> Option<u64> {
        let (sh, local) = self.locate(*self.idmap.get(&id)?);
        let shard = &self.shards[sh];
        Some(node_state_digest(id, shard.rngs[local].get_word_pos(), &shard.protos[local]))
    }

    /// All messages pending delivery next round (arena contents plus
    /// injections), in arbitrary order; sort by the key for queue order.
    fn pending(&self) -> impl Iterator<Item = &(Key, Envelope<P::Msg>)> {
        self.shards.iter().flat_map(|s| s.sent.iter()).chain(self.injected.iter())
    }
}

impl<P: Protocol> SimEngine<P> for XlNetwork<P> {
    fn master_seed(&self) -> u64 {
        XlNetwork::master_seed(self)
    }

    fn round(&self) -> u64 {
        XlNetwork::round(self)
    }

    fn len(&self) -> usize {
        XlNetwork::len(self)
    }

    fn contains(&self, id: NodeId) -> bool {
        XlNetwork::contains(self, id)
    }

    fn ids(&self) -> Vec<NodeId> {
        XlNetwork::ids(self).collect()
    }

    fn add_node(&mut self, id: NodeId, proto: P) {
        XlNetwork::add_node(self, id, proto);
    }

    fn remove_node(&mut self, id: NodeId) -> Option<P> {
        XlNetwork::remove_node(self, id)
    }

    fn node(&self, id: NodeId) -> Option<&P> {
        XlNetwork::node(self, id)
    }

    fn node_mut(&mut self, id: NodeId) -> Option<&mut P> {
        XlNetwork::node_mut(self, id)
    }

    fn inject(&mut self, from: NodeId, to: NodeId, msg: P::Msg) {
        XlNetwork::inject(self, from, to, msg);
    }

    fn step_blocked(&mut self, blocked: &BlockSet) {
        XlNetwork::step_blocked(self, blocked);
    }

    fn set_fault_model(&mut self, faults: FaultModel) {
        XlNetwork::set_fault_model(self, faults);
    }

    fn fault_model(&self) -> &FaultModel {
        XlNetwork::fault_model(self)
    }

    fn set_conduct(&mut self, conduct: Option<Arc<dyn Conduct<P::Msg>>>) {
        XlNetwork::set_conduct(self, conduct);
    }

    fn conduct_counts(&self) -> (u64, u64) {
        XlNetwork::conduct_counts(self)
    }

    fn set_telemetry(&mut self, tel: Telemetry) {
        XlNetwork::set_telemetry(self, tel);
    }

    fn telemetry(&self) -> &Telemetry {
        XlNetwork::telemetry(self)
    }

    fn enable_trace(&mut self, cap: usize) {
        XlNetwork::enable_trace(self, cap);
    }

    fn enable_digests(&mut self) {
        XlNetwork::enable_digests(self);
    }

    fn set_manifest(&mut self, config: String) {
        XlNetwork::set_manifest(self, config);
    }

    fn trace(&self) -> &Trace {
        XlNetwork::trace(self)
    }

    fn stats(&self) -> &CommStats {
        XlNetwork::stats(self)
    }

    fn round_digest(&self) -> u64 {
        XlNetwork::round_digest(self)
    }
}

// ---------------------------------------------------------------------------
// Checkpointing: the `simnet-network-checkpoint` v1 format. The layout is a
// slot vector indexed by sequence number, so a checkpoint restores at any
// shard count; the digest stamp is the layout-invariant `round_digest`.
// ---------------------------------------------------------------------------

use serde_json::Value;
use simnet::checkpoint::{
    check_format, check_stamp, get, get_array, get_str, missing, write_value_atomic, Checkpoint,
    CkptError, CkptResult,
};

/// The execution-mode stamp of a checkpoint. Checkpoints written before
/// the stamp existed carry no field and are parity by definition (no
/// relaxed-order writer existed then); a stamp that is present must be a
/// known mode's name.
fn exec_mode_of(v: &Value) -> CkptResult<ExecMode> {
    if v.get("exec_mode").is_none() {
        return Ok(ExecMode::Parity);
    }
    let s = get_str(v, "exec_mode")?;
    ExecMode::parse(s).ok_or_else(|| CkptError::Corrupt(format!("unknown exec mode `{s}`")))
}

/// The strict loaders' check: the checkpoint was written in `mode`.
fn expect_mode(v: &Value, mode: ExecMode) -> CkptResult<()> {
    let stamped = exec_mode_of(v)?;
    if stamped != mode {
        return Err(CkptError::ModeMismatch { checkpoint: stamped.name(), engine: mode.name() });
    }
    Ok(())
}

impl<P> XlNetwork<P>
where
    P: Protocol + Checkpoint,
    P::Msg: Checkpoint,
{
    /// Serialize the complete dynamic state of the network: round counter,
    /// every node's protocol state and RNG position in the `slots` array
    /// (indexed by sequence number, vacant ones as nulls — delivery order
    /// depends on that layout), pending messages in queue (key) order,
    /// delayed messages, the previous block set, and the fault model
    /// including its RNG position. The engine's own round digest is
    /// stamped into the value; the loaders verify it after restoring, so a
    /// corrupt or hand-edited checkpoint is rejected instead of silently
    /// diverging.
    ///
    /// Observability state (trace events, comm statistics) is *not*
    /// checkpointed: it never feeds back into execution, so a resumed run
    /// restarts those collectors empty while its digest stream continues
    /// bit-for-bit.
    pub fn save_state(&self) -> Value {
        let slots: Vec<Value> = (0..self.seq_local.len())
            .map(|seq| {
                let local = self.seq_local[seq];
                if local == VACANT {
                    return Value::Null;
                }
                let sh = &self.shards[seq % self.n_shards];
                let local = local as usize;
                serde_json::json!({
                    "id": sh.ids[local].raw(),
                    "rng": sh.rngs[local].save(),
                    "proto": sh.protos[local].save(),
                    "inbox": simnet::checkpoint::save_slice(&sh.inboxes[local]),
                    "outbox": Value::Array(Vec::new()),
                })
            })
            .collect();
        let mut pending: Vec<&(Key, Envelope<P::Msg>)> = self.pending().collect();
        pending.sort_unstable_by_key(|(key, _)| *key);
        let in_flight: Vec<Value> = pending.iter().map(|(_, env)| env.save()).collect();
        // Fast mode also persists the sort keys: a fast resume rebuilds the
        // per-shard send arenas from them so the interrupted round routes
        // (and draws per-shard fate randomness) exactly like the
        // uninterrupted run would have. Parity restores don't need them —
        // parity delivers in key order, which is the saved order.
        let in_flight_keys: Option<Vec<u64>> =
            (self.mode == ExecMode::Fast).then(|| pending.iter().map(|(key, _)| *key).collect());
        let delayed: Vec<Value> = self
            .delayed
            .iter()
            .map(|(due, env)| serde_json::json!({ "due": *due, "env": env.save() }))
            .collect();
        let mut out = serde_json::json!({
            "format": "simnet-network-checkpoint",
            "version": 1u64,
            "master_seed": self.master_seed,
            "round": self.round,
            "slots": Value::Array(slots),
            "free": self.free.iter().map(|&i| i as u64).collect::<Vec<u64>>(),
            "in_flight": Value::Array(in_flight),
            "delayed": Value::Array(delayed),
            "prev_blocked": self.prev_blocked.save(),
            "faults": self.faults.save(),
            "exec_mode": self.mode.name(),
            "digests_enabled": self.digests_enabled,
            "digest_stamp": self.round_digest(),
        });
        if let Some(keys) = in_flight_keys {
            let Value::Object(top) = &mut out else { unreachable!("json! object") };
            top.insert("in_flight_keys".into(), Value::from(keys));
        }
        out
    }

    /// Rebuild a parity network from [`Self::save_state`] output. The
    /// restored instance continues the original run exactly: stepping it
    /// produces the same round-digest stream as the uninterrupted original.
    ///
    /// This is the **strict parity loader**: a checkpoint stamped with a
    /// different execution mode is rejected with
    /// [`CkptError::ModeMismatch`] — a fast run resumed under parity (or
    /// vice versa) would silently diverge from both oracles, so crossing
    /// modes must be asked for explicitly via [`Self::from_state_as`].
    ///
    /// A v1 file whose slots carry a non-empty `outbox` (a mid-round
    /// snapshot; no engine ever wrote one) cannot be represented — there is
    /// no persistent per-node outbox — and is rejected as corrupt; every
    /// between-rounds checkpoint restores exactly.
    pub fn from_state(v: &Value) -> CkptResult<Self> {
        expect_mode(v, ExecMode::Parity)?;
        Self::restore(v, Backend::Parity)
    }

    /// The strict fast-mode loader: rebuild a checkpoint a fast network
    /// wrote into a fast network over `shards` shards (`0` = automatic).
    /// Resumed at the shard count that wrote it, the run replays the
    /// original exactly; a parity checkpoint is a
    /// [`CkptError::ModeMismatch`].
    pub fn from_state_fast(v: &Value, shards: usize) -> CkptResult<Self> {
        expect_mode(v, ExecMode::Fast)?;
        Self::restore(v, Backend::fast(shards))
    }

    /// Rebuild a checkpoint into an engine of the given backend, regardless
    /// of the mode the checkpoint was written under. The strict loaders
    /// ([`Self::from_state`], [`Self::from_state_fast`]) refuse cross-mode
    /// resumes; this is the intentional conversion path — state converts
    /// exactly (the digest stamp still has to verify), only the delivery
    /// order of *future* rounds changes.
    pub fn from_state_as(v: &Value, backend: Backend) -> CkptResult<Self> {
        exec_mode_of(v)?; // reject unknown stamps even when converting
        Self::restore(v, backend)
    }

    fn restore(v: &Value, backend: Backend) -> CkptResult<Self> {
        check_format(v, "simnet-network-checkpoint")?;
        // Files written up to 867e6f0 carry the stepping knob of the engine
        // that wrote them; it never affected state, so it is only validated.
        if let Some(m) = v.get("par_mode") {
            if !matches!(m.as_str(), Some("auto" | "serial" | "parallel")) {
                let name = m.as_str().unwrap_or("<not a string>");
                return Err(CkptError::Corrupt(format!("unknown par mode `{name}`")));
            }
        }
        let mut net = backend.build(get(v, "master_seed")?);
        net.round = get(v, "round")?;
        net.digests_enabled = get(v, "digests_enabled")?;
        net.prev_blocked = get(v, "prev_blocked")?;
        net.faults = get(v, "faults")?;

        for (seq, slot) in get_array(v, "slots")?.iter().enumerate() {
            net.seq_local.push(VACANT);
            match slot {
                Value::Null => {}
                s => {
                    let id: NodeId = get(s, "id")?;
                    if net.idmap.contains_key(&id) {
                        return Err(CkptError::Corrupt(format!("duplicate node id {id}")));
                    }
                    let outbox: Vec<Envelope<P::Msg>> = get(s, "outbox")?;
                    if !outbox.is_empty() {
                        return Err(CkptError::Corrupt(format!(
                            "node {id} has a non-empty outbox: mid-round checkpoints are not \
                             restorable"
                        )));
                    }
                    let seq = seq as u32;
                    let sh = seq as usize % net.n_shards;
                    let shard = &mut net.shards[sh];
                    let local = shard.ids.len();
                    shard.ids.push(id);
                    shard.seqs.push(seq);
                    shard.protos.push(get(s, "proto")?);
                    shard.rngs.push(get(s, "rng")?);
                    shard.inboxes.push(get(s, "inbox")?);
                    shard.flags.push(false);
                    shard.work_bits.push(0);
                    shard.work_msgs.push(0);
                    shard.mark_dirty(seq, local);
                    net.seq_local[seq as usize] = local as u32;
                    net.idmap.insert(id, seq);
                }
            }
        }
        net.free = get_array(v, "free")?
            .iter()
            .map(|x| {
                x.as_u64().and_then(|i| u32::try_from(i).ok()).ok_or_else(|| missing("free index"))
            })
            .collect::<CkptResult<Vec<u32>>>()?;

        let in_flight: Vec<Envelope<P::Msg>> = get(v, "in_flight")?;
        match v.get("in_flight_keys") {
            Some(keys) if net.mode == ExecMode::Fast => {
                // Fast resume: scatter pending messages back into the
                // per-shard send arenas by their original sort key, so the
                // next round's route pass (and its per-shard fate streams)
                // replays the interrupted run exactly. The globally sorted
                // checkpoint order keeps every per-shard run key-sorted.
                let Value::Array(keys) = keys else {
                    return Err(CkptError::Corrupt("in_flight_keys is not an array".into()));
                };
                if keys.len() != in_flight.len() {
                    return Err(CkptError::Corrupt(format!(
                        "in_flight_keys length {} does not match in_flight length {}",
                        keys.len(),
                        in_flight.len()
                    )));
                }
                for (key, env) in keys.iter().zip(in_flight) {
                    let key = key.as_u64().ok_or_else(|| missing("in-flight key"))?;
                    if key & INJECT_BIT != 0 {
                        net.inject_seq = net.inject_seq.max((key & !INJECT_BIT) + 1);
                        net.injected.push((key, env));
                    } else {
                        net.shards[(key >> 32) as usize % net.n_shards].sent.push((key, env));
                    }
                }
            }
            _ => {
                // Parity (and keyless fast) restore: the saved queue order
                // carries over as ascending keys in a single "injected"
                // run; later injections continue after it (INJECT_BIT
                // sorts them last, matching the append).
                net.inject_seq = in_flight.len() as u64;
                net.injected =
                    in_flight.into_iter().enumerate().map(|(i, env)| (i as Key, env)).collect();
            }
        }
        for entry in get_array(v, "delayed")? {
            net.delayed.push((get(entry, "due")?, get(entry, "env")?));
        }
        check_stamp(v, net.round_digest())?;
        Ok(net)
    }

    /// Write a crash-consistent checkpoint file.
    pub fn checkpoint_to(&self, path: &std::path::Path) -> CkptResult<()> {
        write_value_atomic(path, &self.save_state())
    }

    /// Resume from a checkpoint file written by [`Self::checkpoint_to`]
    /// (or a [`simnet::Checkpointer`]).
    pub fn resume_from(path: &std::path::Path) -> CkptResult<Self> {
        Self::from_state(&simnet::checkpoint::read_value(path)?)
    }
}

#[cfg(test)]
mod tests;
