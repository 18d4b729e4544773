//! DoS blocking semantics and the generalized fault model.
//!
//! An `r`-bounded adversary may block any `r`-fraction of the current nodes
//! in a round. A blocked node can neither send nor receive in that round.
//! A message sent from `v` to `w` in round `i` is received and processed by
//! `w` only if
//!
//! * `v` is non-blocked in round `i`, and
//! * `w` is non-blocked in round `i` **and** round `i + 1`.
//!
//! If so, `w` is called *available* in round `i + 1`. The engine consults a
//! [`BlockSet`] per round and applies exactly this rule.
//!
//! Beyond the paper's model, a [`FaultModel`] composes the blocking rule
//! with *link faults* (probabilistic message drop, duplication and bounded
//! extra delay) and *node faults* (crash-stop, crash-recovery with state
//! loss, and a network partition window). All fault randomness derives from
//! a dedicated seed-keyed stream and messages are judged in the engine's
//! canonical delivery order, so faulty runs replay bit-for-bit. The
//! [`FaultModel::null`] model draws nothing and changes nothing: under it
//! the engine behaves exactly as the Section 1.1 delivery rule prescribes,
//! digest streams included.

use crate::idrun::{IdRun, IdSet};
use crate::rng::{stream, NodeRng};
use crate::NodeId;
use rand::RngExt;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// The set of nodes blocked in a given round: an [`IdSet`], so sorted
/// storage *is* the deterministic iteration order that block sets owe the
/// RNG draws and digests downstream.
pub type BlockSet = IdSet;

/// Decide whether a message sent in round `i` is delivered in round `i + 1`.
///
/// `blocked_at_send` is the block set of round `i`; `blocked_at_recv` the
/// block set of round `i + 1`.
#[inline]
pub fn delivered(
    from: NodeId,
    to: NodeId,
    blocked_at_send: &BlockSet,
    blocked_at_recv: &BlockSet,
) -> bool {
    !blocked_at_send.contains(from)
        && !blocked_at_send.contains(to)
        && !blocked_at_recv.contains(to)
}

// ---------------------------------------------------------------------------
// Generalized fault model (beyond the paper's Section 1.1)
// ---------------------------------------------------------------------------

/// Probabilistic link faults applied to every message that survives the
/// Section 1.1 delivery rule and the node-fault checks.
///
/// Fates are mutually exclusive and judged in priority order
/// drop > duplicate > delay, with exactly one uniform draw per configured
/// fate so the draw sequence is a pure function of the delivery order.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct LinkFaults {
    /// Probability a message is silently dropped.
    pub drop_prob: f64,
    /// Probability a message is delivered twice in the same round.
    pub dup_prob: f64,
    /// Probability a message is held back for extra rounds.
    pub delay_prob: f64,
    /// Maximum extra delay in rounds; actual delays are uniform in
    /// `1..=max_delay`. Ignored when `delay_prob` is zero.
    pub max_delay: u64,
}

impl LinkFaults {
    /// A perfectly reliable link.
    pub const NONE: Self = Self { drop_prob: 0.0, dup_prob: 0.0, delay_prob: 0.0, max_delay: 0 };

    /// True if this configuration can never alter a delivery.
    pub fn is_null(&self) -> bool {
        self.drop_prob <= 0.0 && self.dup_prob <= 0.0 && self.delay_prob <= 0.0
    }
}

impl Default for LinkFaults {
    fn default() -> Self {
        Self::NONE
    }
}

/// A scheduled node fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum NodeFault {
    /// The node halts permanently at the start of round `at`.
    CrashStop { at: u64 },
    /// The node halts at round `at` and comes back `down_for` rounds later
    /// with total state loss: the engine clears its inbox, re-keys its RNG
    /// stream and calls [`crate::Protocol::on_crash_recover`].
    CrashRecover { at: u64, down_for: u64 },
}

impl NodeFault {
    /// Is a node with this fault down (neither sending nor receiving nor
    /// computing) in `round`?
    pub fn down_in(&self, round: u64) -> bool {
        match *self {
            NodeFault::CrashStop { at } => round >= at,
            NodeFault::CrashRecover { at, down_for } => round >= at && round < at + down_for,
        }
    }

    /// The round in which the node comes back, if it ever does.
    pub fn recovery_round(&self) -> Option<u64> {
        match *self {
            NodeFault::CrashStop { .. } => None,
            NodeFault::CrashRecover { at, down_for } => Some(at + down_for),
        }
    }
}

/// A network partition: during rounds `from..until`, no message crosses
/// between `side` and its complement. Traffic within either side is
/// unaffected.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Partition {
    /// One side of the cut (the complement is everything else).
    pub side: IdSet,
    /// First partitioned round (inclusive).
    pub from: u64,
    /// First healed round (exclusive end of the window).
    pub until: u64,
}

impl Partition {
    /// Does the partition cut the edge `a -- b` in `round`?
    pub fn cuts(&self, a: NodeId, b: NodeId, round: u64) -> bool {
        round >= self.from && round < self.until && self.side.contains(a) != self.side.contains(b)
    }
}

/// The fate of one message under [`LinkFaults`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LinkFate {
    /// Delivered normally.
    Deliver,
    /// Silently dropped.
    Drop,
    /// Delivered twice this round.
    Duplicate,
    /// Held back; delivered the given number of rounds late.
    Delay(u64),
}

/// A composed fault model interposed on the engine's delivery path.
///
/// The model sits *behind* the Section 1.1 blocking rule: a message first
/// has to survive the [`BlockSet`] check, then the node-fault and partition
/// checks, and only then is its link fate drawn. All draws come from one
/// ChaCha stream keyed by `(seed, FAULT_STREAM, FAULT_PURPOSE)` and happen
/// in the engine's canonical delivery order, so a faulty run replays
/// identically from its seed. [`FaultModel::null`] (the engine default)
/// short-circuits every check and draws nothing.
///
/// Beyond the probabilistic [`LinkFaults`], *scheduled* per-message delays
/// ([`FaultModel::with_scheduled_delay`]) hold back specific messages —
/// identified by `(from, to, sent_round)`, with repeated occurrences
/// consumed in delivery order — for an exact number of extra rounds. They
/// draw no randomness, so a schedule-only model replays a recorded run
/// (e.g. latencies observed in a live `reconfig-node` cluster) without
/// perturbing any RNG stream.
#[derive(Clone, Debug)]
pub struct FaultModel {
    link: LinkFaults,
    node_faults: IdRun<NodeFault>,
    partition: Option<Partition>,
    /// Exact extra delays for specific messages, keyed by
    /// `(from, to, sent_round)`. `next` is the consumption cursor: the
    /// engine judges occurrences of the same key in delivery order, so the
    /// k-th matching message receives `extras[k]` (messages beyond the
    /// scheduled count deliver normally).
    scheduled: BTreeMap<(u64, u64, u64), ScheduledDelays>,
    rng: NodeRng,
}

/// Per-key state of a scheduled-delay entry: the extra-round values for
/// each occurrence of the `(from, to, sent_round)` key, plus how many have
/// been consumed so far.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ScheduledDelays {
    extras: Vec<u64>,
    next: usize,
}

/// Pseudo-node id keying the fault model's RNG stream (distinct from any
/// real node and from the fuzzer's plan stream).
const FAULT_STREAM: u64 = u64::MAX - 2;
/// Purpose tag of the fault model's RNG stream.
const FAULT_PURPOSE: u64 = 0xFA_017;

impl FaultModel {
    /// The identity model: no link faults, no node faults, no partition.
    pub fn null() -> Self {
        Self::new(0)
    }

    /// An empty model drawing its link-fault randomness from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            link: LinkFaults::NONE,
            node_faults: IdRun::default(),
            partition: None,
            scheduled: BTreeMap::new(),
            rng: stream(seed, FAULT_STREAM, FAULT_PURPOSE),
        }
    }

    /// Set the link-fault configuration.
    pub fn with_link(mut self, link: LinkFaults) -> Self {
        self.link = link;
        self
    }

    /// Schedule a node fault. At most one fault per node; a second call for
    /// the same node replaces the first.
    pub fn with_node_fault(mut self, node: NodeId, fault: NodeFault) -> Self {
        self.node_faults.put(node, fault);
        self
    }

    /// Install a partition window.
    pub fn with_partition(mut self, partition: Partition) -> Self {
        self.partition = Some(partition);
        self
    }

    /// Schedule an exact extra delay for one occurrence of the message
    /// `(from, to, sent_round)`: instead of arriving at `sent_round + 1` it
    /// arrives at `sent_round + 1 + extra`, subject to the usual
    /// receiver-side re-check at maturity. Repeated calls for the same key
    /// stack, feeding successive occurrences in delivery order. Panics on
    /// `extra == 0` — a zero delay is a normal delivery and scheduling it
    /// would silently change nothing.
    ///
    /// Scheduled delays are judged *before* the probabilistic link fate and
    /// consume no randomness: a model carrying only scheduled delays leaves
    /// every RNG stream untouched, which is what lets a recorded live-cluster
    /// run replay in the simulator with bit-identical node states.
    pub fn with_scheduled_delay(
        mut self,
        from: NodeId,
        to: NodeId,
        sent_round: u64,
        extra: u64,
    ) -> Self {
        assert!(extra > 0, "scheduled delay must be at least one round");
        self.scheduled
            .entry((from.raw(), to.raw(), sent_round))
            .or_insert_with(|| ScheduledDelays { extras: Vec::new(), next: 0 })
            .extras
            .push(extra);
        self
    }

    /// True if any scheduled per-message delays are installed (consumed or
    /// not). Fast mode judges link fates per shard and cannot honor a
    /// cross-shard consumption order, so the engine rejects such models
    /// there loudly instead of replaying them wrong.
    pub fn has_scheduled(&self) -> bool {
        !self.scheduled.is_empty()
    }

    /// Consume the next scheduled extra delay for `(from, to, sent_round)`,
    /// if one remains. Occurrences are consumed in call order — the engine
    /// calls this in its canonical delivery order.
    pub fn scheduled_extra(&mut self, from: NodeId, to: NodeId, sent_round: u64) -> Option<u64> {
        let slot = self.scheduled.get_mut(&(from.raw(), to.raw(), sent_round))?;
        let extra = slot.extras.get(slot.next).copied()?;
        slot.next += 1;
        Some(extra)
    }

    /// True if the model can never alter a run: the engine skips all fault
    /// processing, preserving the exact Section 1.1 semantics (and digest
    /// streams) of a model-free run.
    pub fn is_null(&self) -> bool {
        self.link.is_null()
            && self.node_faults.is_empty()
            && self.partition.is_none()
            && self.scheduled.is_empty()
    }

    /// The link-fault configuration.
    pub fn link(&self) -> &LinkFaults {
        &self.link
    }

    /// Is `node` down (crashed and not yet recovered) in `round`?
    pub fn down(&self, node: NodeId, round: u64) -> bool {
        self.node_faults.get(node).is_some_and(|f| f.down_in(round))
    }

    /// All nodes down in `round`, as a block-set the engine composes with
    /// the adversary's.
    pub fn down_set(&self, round: u64) -> BlockSet {
        self.node_faults.entries().filter(|(_, f)| f.down_in(round)).map(|(v, _)| v).collect()
    }

    /// Nodes whose crash-recovery completes at the start of `round`, in id
    /// order.
    pub fn recovering(&self, round: u64) -> Vec<NodeId> {
        self.node_faults
            .entries()
            .filter(|(_, f)| f.recovery_round() == Some(round))
            .map(|(v, _)| v)
            .collect()
    }

    /// Does the partition cut `from -> to` in `round`?
    pub fn cut(&self, from: NodeId, to: NodeId, round: u64) -> bool {
        self.partition.as_ref().is_some_and(|p| p.cuts(from, to, round))
    }

    /// Judge the link fate of one message that passed all other checks.
    /// Draws exactly one uniform per configured fate (in drop, duplicate,
    /// delay order) plus one for the delay length, so the stream position
    /// is a pure function of the judged-message sequence.
    pub fn link_fate(&mut self) -> LinkFate {
        let link = self.link;
        judge_link_fate(&link, &mut self.rng)
    }

    /// [`Self::link_fate`] drawing from a caller-supplied stream instead of
    /// the model's own. Relaxed-order backends (simnet-xl fast mode) use
    /// per-shard streams so shards can judge fates concurrently; the draw
    /// discipline (one uniform per configured fate, in drop > duplicate >
    /// delay order) is identical, so per-stream fate sequences stay a pure
    /// function of that stream's judged-message order.
    pub fn link_fate_with(&self, rng: &mut NodeRng) -> LinkFate {
        judge_link_fate(&self.link, rng)
    }
}

/// Shared fate-judging core of [`FaultModel::link_fate`] /
/// [`FaultModel::link_fate_with`].
fn judge_link_fate(link: &LinkFaults, rng: &mut NodeRng) -> LinkFate {
    if link.is_null() {
        return LinkFate::Deliver;
    }
    if link.drop_prob > 0.0 && rng.random::<f64>() < link.drop_prob {
        return LinkFate::Drop;
    }
    if link.dup_prob > 0.0 && rng.random::<f64>() < link.dup_prob {
        return LinkFate::Duplicate;
    }
    if link.delay_prob > 0.0 && link.max_delay > 0 && rng.random::<f64>() < link.delay_prob {
        return LinkFate::Delay(rng.random_range(1..=link.max_delay));
    }
    LinkFate::Deliver
}

// ---------------------------------------------------------------------------
// Correlated catastrophic fault events (beyond the composite fault model)
// ---------------------------------------------------------------------------

/// Which correlated slice of the membership a [`Burst`] crashes.
///
/// Correlation is the point: independent per-node crash hazards (the
/// [`FaultModel`] / composite-schedule regime) spread damage evenly, which
/// group-structured overlays absorb well. Real catastrophes — a rack, an
/// AS, a cloud zone — take out *related* nodes at once.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum BurstTarget {
    /// A contiguous run of the sorted member list starting at a seed-drawn
    /// offset (wrapping). Under random group assignment this scatters
    /// across groups — the benign flavour of a correlated slice.
    Contiguous,
    /// Whole groups, chosen by breadth-first walk over the group adjacency
    /// from a seed-drawn pivot, *excluding the pivot itself*: the burst
    /// eats the pivot's neighborhood outward until the victim budget is
    /// spent. Once the whole distance-1 shell is covered the pivot is
    /// structurally isolated — the worst case a group overlay admits.
    Groups,
}

/// One mass-crash event: at round `at`, a `frac`-fraction of the current
/// members — chosen as one correlated slice per `target` — crash-stops,
/// and every victim attempts to come back within the following
/// `storm_window` rounds (the flash-crowd rejoin storm).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Burst {
    /// Round the burst fires (start of round).
    pub at: u64,
    /// Fraction of the current membership crashed, in `[0, 1]`.
    pub frac: f64,
    /// Which correlated slice is taken.
    pub target: BurstTarget,
    /// Width of the rejoin storm: every victim draws a return round
    /// uniformly in `at + 1 ..= at + storm_window` (`0` is treated as 1 —
    /// all victims return together the next round).
    pub storm_window: u64,
}

/// A finite-duration partition with an explicit heal round: from round
/// `at` up to (excluding) `heal_at`, a seed-drawn `side_frac` minority of
/// the membership is cut off; at `heal_at` the two halves must be
/// reconciled (the caller decides how — that is the recovery layer's job).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimedPartition {
    /// First partitioned round (inclusive).
    pub at: u64,
    /// First healed round (exclusive end of the window). Must be `> at`.
    pub heal_at: u64,
    /// Fraction of the membership on the minority side, in `[0, 1]`.
    pub side_frac: f64,
}

/// Pseudo-node id keying the burst schedule's RNG stream (distinct from
/// the fault model's, the composite schedule's and the fuzz plan's).
const BURST_STREAM: u64 = u64::MAX - 4;
/// Purpose tag of the burst schedule's RNG stream.
const BURST_PURPOSE: u64 = 0xB0_257;

/// A seed-derived schedule of correlated catastrophic events: mass-crash
/// [`Burst`]s with flash-crowd rejoin storms, and [`TimedPartition`]s with
/// an explicit heal round.
///
/// All randomness (victim slices, per-victim storm offsets, partition
/// sides) comes from one ChaCha stream keyed by
/// `(seed, BURST_STREAM, BURST_PURPOSE)` and is drawn in a canonical
/// order — events in schedule order, victims in sorted-member order — so a
/// schedule replays bit-identically from its seed and is independent of
/// the simulation backend or shard count. [`BurstSchedule::null`] draws
/// nothing and schedules nothing.
#[derive(Clone, Debug)]
pub struct BurstSchedule {
    bursts: Vec<Burst>,
    partitions: Vec<TimedPartition>,
    rng: NodeRng,
}

impl BurstSchedule {
    /// The empty schedule: no bursts, no partitions, no draws.
    pub fn null() -> Self {
        Self::new(0)
    }

    /// An empty schedule drawing its randomness from `seed`.
    pub fn new(seed: u64) -> Self {
        Self {
            bursts: Vec::new(),
            partitions: Vec::new(),
            rng: stream(seed, BURST_STREAM, BURST_PURPOSE),
        }
    }

    /// Add a burst event (builder-style). Panics on a fraction outside
    /// `[0, 1]` — a silent clamp would run a different catastrophe than
    /// the one asked for.
    pub fn with_burst(mut self, burst: Burst) -> Self {
        assert!(
            (0.0..=1.0).contains(&burst.frac),
            "burst fraction must be in [0, 1], got {}",
            burst.frac
        );
        self.bursts.push(burst);
        self
    }

    /// Add a timed partition (builder-style). Panics on an empty window or
    /// a side fraction outside `[0, 1]`.
    pub fn with_partition(mut self, p: TimedPartition) -> Self {
        assert!(
            p.heal_at > p.at,
            "partition must heal after it starts ({} <= {})",
            p.heal_at,
            p.at
        );
        assert!(
            (0.0..=1.0).contains(&p.side_frac),
            "partition side fraction must be in [0, 1], got {}",
            p.side_frac
        );
        self.partitions.push(p);
        self
    }

    /// True when the schedule can never fire: no events, no draws, and a
    /// run under it is bit-identical to one without it.
    pub fn is_null(&self) -> bool {
        self.bursts.is_empty() && self.partitions.is_empty()
    }

    /// The scheduled bursts, in insertion order.
    pub fn bursts(&self) -> &[Burst] {
        &self.bursts
    }

    /// The scheduled partitions, in insertion order.
    pub fn partitions(&self) -> &[TimedPartition] {
        &self.partitions
    }

    /// Indices of bursts firing at `round` (insertion order).
    pub fn bursts_due(&self, round: u64) -> Vec<usize> {
        self.bursts.iter().enumerate().filter(|(_, b)| b.at == round).map(|(i, _)| i).collect()
    }

    /// Indices of partitions starting at `round` (insertion order).
    pub fn partitions_due(&self, round: u64) -> Vec<usize> {
        self.partitions.iter().enumerate().filter(|(_, p)| p.at == round).map(|(i, _)| i).collect()
    }

    /// Draw burst `idx`'s victims and their storm return rounds.
    ///
    /// `members` must be the current membership in ascending id order;
    /// `groups` / `group_edges` the group composition and group adjacency
    /// (as in a topology snapshot) — only consulted for
    /// [`BurstTarget::Groups`], and may be empty otherwise. Victims are
    /// returned in ascending id order, each with a return round drawn
    /// uniformly in `at + 1 ..= at + storm_window`; draws happen in that
    /// sorted order, so the stream position is a pure function of the
    /// schedule's event sequence.
    pub fn draw_burst(
        &mut self,
        idx: usize,
        members: &[NodeId],
        groups: &[Vec<NodeId>],
        group_edges: &[(u32, u32)],
    ) -> Vec<(NodeId, u64)> {
        let burst = self.bursts[idx];
        let budget = (burst.frac * members.len() as f64).floor() as usize;
        if budget == 0 || members.is_empty() {
            return Vec::new();
        }
        let victims = match burst.target {
            BurstTarget::Contiguous => self.wrapped_run(members, budget),
            BurstTarget::Groups => self.group_shell_victims(budget, members, groups, group_edges),
        };
        let window = burst.storm_window.max(1);
        victims.iter().map(|v| (v, burst.at + 1 + self.rng.random_range(0..window))).collect()
    }

    /// Victims for a [`BurstTarget::Groups`] burst: whole groups in BFS
    /// order from a drawn pivot, pivot exempt, until the budget is spent
    /// (the last group may overshoot — whole groups die, that is the
    /// correlation). Falls back to a contiguous slice when no group
    /// structure was supplied.
    fn group_shell_victims(
        &mut self,
        budget: usize,
        members: &[NodeId],
        groups: &[Vec<NodeId>],
        group_edges: &[(u32, u32)],
    ) -> IdSet {
        let occupied: Vec<usize> = (0..groups.len()).filter(|&g| !groups[g].is_empty()).collect();
        if occupied.is_empty() {
            return self.wrapped_run(members, budget);
        }
        let pivot = occupied[self.rng.random_range(0..occupied.len())];
        let mut adj: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for &(a, b) in group_edges {
            adj.entry(a as usize).or_default().insert(b as usize);
            adj.entry(b as usize).or_default().insert(a as usize);
        }
        // Deterministic BFS from the pivot (neighbors in ascending group
        // index); the pivot itself is never a victim.
        let mut seen: BTreeSet<usize> = [pivot].into();
        let mut frontier: Vec<usize> = vec![pivot];
        let mut victims = IdSet::none();
        while victims.len() < budget && !frontier.is_empty() {
            let mut next = Vec::new();
            for &g in &frontier {
                for &h in adj.get(&g).into_iter().flatten() {
                    if seen.insert(h) {
                        next.push(h);
                    }
                }
            }
            next.sort_unstable();
            for g in next.iter().copied() {
                if victims.len() >= budget {
                    break;
                }
                victims.union_with(&IdSet::from(groups[g].clone()));
            }
            frontier = next;
        }
        victims
    }

    /// Draw partition `idx`'s minority side: a contiguous run of the
    /// sorted membership starting at a drawn offset (wrapping). Returned
    /// in ascending id order.
    pub fn draw_partition_side(&mut self, idx: usize, members: &[NodeId]) -> IdSet {
        let p = self.partitions[idx];
        let count = (p.side_frac * members.len() as f64).floor() as usize;
        if count == 0 || members.is_empty() {
            return IdSet::none();
        }
        self.wrapped_run(members, count)
    }

    /// `count` members in a contiguous run of the sorted membership from a
    /// drawn offset, wrapping.
    fn wrapped_run(&mut self, members: &[NodeId], count: usize) -> IdSet {
        let start = self.rng.random_range(0..members.len());
        (0..count).map(|k| members[(start + k) % members.len()]).collect()
    }
}

// ---------------------------------------------------------------------------
// Checkpointing
// ---------------------------------------------------------------------------

use crate::checkpoint::{
    f64_bits, field, get_f64_bits, get_str, get_u64, missing, Checkpoint, CkptResult,
};
use serde_json::Value;

impl Checkpoint for BlockSet {
    fn save(&self) -> Value {
        Value::Array(self.iter().map(|v| Value::from(v.raw())).collect())
    }

    /// Accepts the ids in any order and with repeats, as the `BTreeSet`
    /// this type once wrapped did: a hand-written `Repro` or an old
    /// checkpoint loads to the same set and saves back in ascending order.
    fn load(v: &Value) -> CkptResult<Self> {
        let ids = v.as_array().ok_or_else(|| missing("block set"))?;
        ids.iter()
            .map(|x| x.as_u64().map(NodeId).ok_or_else(|| missing("block set id")))
            .collect::<CkptResult<BlockSet>>()
    }
}

impl Checkpoint for LinkFaults {
    fn save(&self) -> Value {
        serde_json::json!({
            "drop_bits": f64_bits(self.drop_prob),
            "dup_bits": f64_bits(self.dup_prob),
            "delay_bits": f64_bits(self.delay_prob),
            "max_delay": self.max_delay,
        })
    }

    fn load(v: &Value) -> CkptResult<Self> {
        Ok(Self {
            drop_prob: get_f64_bits(v, "drop_bits")?,
            dup_prob: get_f64_bits(v, "dup_bits")?,
            delay_prob: get_f64_bits(v, "delay_bits")?,
            max_delay: get_u64(v, "max_delay")?,
        })
    }
}

impl Checkpoint for NodeFault {
    fn save(&self) -> Value {
        match *self {
            NodeFault::CrashStop { at } => serde_json::json!({ "kind": "stop", "at": at }),
            NodeFault::CrashRecover { at, down_for } => {
                serde_json::json!({ "kind": "recover", "at": at, "down_for": down_for })
            }
        }
    }

    fn load(v: &Value) -> CkptResult<Self> {
        match get_str(v, "kind")? {
            "stop" => Ok(NodeFault::CrashStop { at: get_u64(v, "at")? }),
            "recover" => Ok(NodeFault::CrashRecover {
                at: get_u64(v, "at")?,
                down_for: get_u64(v, "down_for")?,
            }),
            other => Err(crate::checkpoint::CkptError::Corrupt(format!(
                "unknown node-fault kind `{other}`"
            ))),
        }
    }
}

impl Checkpoint for Partition {
    fn save(&self) -> Value {
        serde_json::json!({
            "side": self.side.save(),
            "from": self.from,
            "until": self.until,
        })
    }

    fn load(v: &Value) -> CkptResult<Self> {
        let side = IdSet::load(field(v, "side")?)?;
        Ok(Self { side, from: get_u64(v, "from")?, until: get_u64(v, "until")? })
    }
}

impl Checkpoint for FaultModel {
    fn save(&self) -> Value {
        let mut out = serde_json::json!({
            "link": self.link.save(),
            "node_faults": Value::Array(
                self.node_faults
                    .entries()
                    .map(|(v, f)| serde_json::json!({ "node": v.raw(), "fault": f.save() }))
                    .collect(),
            ),
            "partition": match &self.partition {
                Some(p) => p.save(),
                None => Value::Null,
            },
            "rng": self.rng.save(),
        });
        // Written only when present: checkpoints of schedule-free models
        // stay byte-identical to those produced before scheduled delays
        // existed.
        if !self.scheduled.is_empty() {
            let entries: Vec<Value> = self
                .scheduled
                .iter()
                .map(|(&(from, to, sent_round), slot)| {
                    serde_json::json!({
                        "from": from,
                        "to": to,
                        "sent_round": sent_round,
                        "extras": slot.extras.clone(),
                        "next": slot.next as u64,
                    })
                })
                .collect();
            if let Value::Object(m) = &mut out {
                m.insert("scheduled".into(), Value::Array(entries));
            }
        }
        out
    }

    fn load(v: &Value) -> CkptResult<Self> {
        let mut listed = Vec::new();
        for entry in crate::checkpoint::get_array(v, "node_faults")? {
            listed
                .push((NodeId(get_u64(entry, "node")?), NodeFault::load(field(entry, "fault")?)?));
        }
        let node_faults = IdRun::from_unsorted(listed).map_err(|(node, _, _)| {
            crate::checkpoint::CkptError::Corrupt(format!("node_faults lists {node} twice"))
        })?;
        let partition = match field(v, "partition")? {
            Value::Null => None,
            p => Some(Partition::load(p)?),
        };
        // Absent in pre-schedule checkpoints: treat as empty.
        let mut scheduled = BTreeMap::new();
        if v.get("scheduled").is_some() {
            for entry in crate::checkpoint::get_array(v, "scheduled")? {
                let key =
                    (get_u64(entry, "from")?, get_u64(entry, "to")?, get_u64(entry, "sent_round")?);
                let extras = crate::checkpoint::get_array(entry, "extras")?
                    .iter()
                    .map(|x| x.as_u64().ok_or_else(|| missing("scheduled extra")))
                    .collect::<CkptResult<Vec<u64>>>()?;
                let next = get_u64(entry, "next")? as usize;
                if next > extras.len() {
                    return Err(crate::checkpoint::CkptError::Corrupt(format!(
                        "scheduled-delay cursor {next} beyond {} extras",
                        extras.len()
                    )));
                }
                scheduled.insert(key, ScheduledDelays { extras, next });
            }
        }
        Ok(Self {
            link: LinkFaults::load(field(v, "link")?)?,
            node_faults,
            partition,
            scheduled,
            rng: NodeRng::load(field(v, "rng")?)?,
        })
    }
}

impl Checkpoint for Burst {
    fn save(&self) -> Value {
        serde_json::json!({
            "at": self.at,
            "frac_bits": f64_bits(self.frac),
            "target": match self.target {
                BurstTarget::Contiguous => "contiguous",
                BurstTarget::Groups => "groups",
            },
            "storm_window": self.storm_window,
        })
    }

    fn load(v: &Value) -> CkptResult<Self> {
        let target = match get_str(v, "target")? {
            "contiguous" => BurstTarget::Contiguous,
            "groups" => BurstTarget::Groups,
            other => {
                return Err(crate::checkpoint::CkptError::Corrupt(format!(
                    "unknown burst target `{other}`"
                )))
            }
        };
        Ok(Self {
            at: get_u64(v, "at")?,
            frac: get_f64_bits(v, "frac_bits")?,
            target,
            storm_window: get_u64(v, "storm_window")?,
        })
    }
}

impl Checkpoint for TimedPartition {
    fn save(&self) -> Value {
        serde_json::json!({
            "at": self.at,
            "heal_at": self.heal_at,
            "side_frac_bits": f64_bits(self.side_frac),
        })
    }

    fn load(v: &Value) -> CkptResult<Self> {
        Ok(Self {
            at: get_u64(v, "at")?,
            heal_at: get_u64(v, "heal_at")?,
            side_frac: get_f64_bits(v, "side_frac_bits")?,
        })
    }
}

impl Checkpoint for BurstSchedule {
    fn save(&self) -> Value {
        serde_json::json!({
            "bursts": Value::Array(self.bursts.iter().map(|b| b.save()).collect()),
            "partitions": Value::Array(self.partitions.iter().map(|p| p.save()).collect()),
            "rng": self.rng.save(),
        })
    }

    fn load(v: &Value) -> CkptResult<Self> {
        Ok(Self {
            bursts: crate::checkpoint::get_array(v, "bursts")?
                .iter()
                .map(Burst::load)
                .collect::<CkptResult<Vec<_>>>()?,
            partitions: crate::checkpoint::get_array(v, "partitions")?
                .iter()
                .map(TimedPartition::load)
                .collect::<CkptResult<Vec<_>>>()?,
            rng: NodeRng::load(field(v, "rng")?)?,
        })
    }
}

impl<M: Checkpoint> Checkpoint for crate::message::Envelope<M> {
    fn save(&self) -> Value {
        serde_json::json!({
            "from": self.from.raw(),
            "to": self.to.raw(),
            "sent_round": self.sent_round,
            "msg": self.msg.save(),
        })
    }

    fn load(v: &Value) -> CkptResult<Self> {
        Ok(Self {
            from: NodeId(get_u64(v, "from")?),
            to: NodeId(get_u64(v, "to")?),
            sent_round: get_u64(v, "sent_round")?,
            msg: M::load(field(v, "msg")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bs(ids: &[u64]) -> BlockSet {
        ids.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn delivery_requires_sender_unblocked_at_send() {
        let send = bs(&[1]);
        let recv = bs(&[]);
        assert!(!delivered(NodeId(1), NodeId(2), &send, &recv));
        assert!(delivered(NodeId(3), NodeId(2), &send, &recv));
    }

    #[test]
    fn delivery_requires_receiver_unblocked_in_both_rounds() {
        // Receiver blocked at the send round: dropped.
        assert!(!delivered(NodeId(1), NodeId(2), &bs(&[2]), &bs(&[])));
        // Receiver blocked at the receive round: dropped.
        assert!(!delivered(NodeId(1), NodeId(2), &bs(&[]), &bs(&[2])));
        // Unblocked in both: delivered.
        assert!(delivered(NodeId(1), NodeId(2), &bs(&[]), &bs(&[])));
    }

    #[test]
    fn sender_blocked_only_at_receive_round_is_fine() {
        // Only the *send-round* status of the sender matters.
        assert!(delivered(NodeId(1), NodeId(2), &bs(&[]), &bs(&[1])));
    }

    #[test]
    fn delivery_rule_full_truth_table() {
        // Section 1.1: a message v -> w sent in round i is delivered iff
        // v is non-blocked at i, and w is non-blocked at i AND i+1. The
        // sender's status at i+1 is irrelevant. Enumerate all 8
        // combinations of the three relevant bits.
        let (v, w) = (NodeId(1), NodeId(2));
        for v_send in [false, true] {
            for w_send in [false, true] {
                for w_recv in [false, true] {
                    let mut send = BlockSet::none();
                    let mut recv = BlockSet::none();
                    if v_send {
                        send.insert(v);
                    }
                    if w_send {
                        send.insert(w);
                    }
                    if w_recv {
                        recv.insert(w);
                    }
                    let expect = !v_send && !w_send && !w_recv;
                    assert_eq!(
                        delivered(v, w, &send, &recv),
                        expect,
                        "v@send={v_send} w@send={w_send} w@recv={w_recv}"
                    );
                    // Blocking the sender at the receive round must never
                    // change the outcome.
                    recv.insert(v);
                    assert_eq!(
                        delivered(v, w, &send, &recv),
                        expect,
                        "sender status at i+1 must be irrelevant"
                    );
                }
            }
        }
    }

    #[test]
    fn self_send_follows_the_same_rule() {
        // v -> v: blocked in either round kills it (v is both endpoints).
        let v = NodeId(5);
        assert!(delivered(v, v, &bs(&[]), &bs(&[])));
        assert!(!delivered(v, v, &bs(&[5]), &bs(&[])));
        assert!(!delivered(v, v, &bs(&[]), &bs(&[5])));
    }

    #[test]
    fn delivery_is_per_edge_not_global() {
        // A block set only affects edges touching its members.
        let send = bs(&[7]);
        let recv = bs(&[8]);
        assert!(delivered(NodeId(1), NodeId(2), &send, &recv));
        assert!(!delivered(NodeId(7), NodeId(2), &send, &recv));
        assert!(!delivered(NodeId(1), NodeId(8), &send, &recv));
    }

    #[test]
    fn bound_check() {
        let set = bs(&[1, 2, 3]);
        assert!(set.within_bound(0.5, 6));
        assert!(!set.within_bound(0.4, 6));
        assert_eq!(set.fraction_of(6), 0.5);
        assert_eq!(BlockSet::none().fraction_of(0), 0.0);
    }

    #[test]
    fn bound_is_exact_at_the_boundary() {
        // Exactly floor(r * n) blocked nodes is legal; one more is not.
        // r = 0.3, n = 10: budget is exactly 3.
        assert!(bs(&[1, 2, 3]).within_bound(0.3, 10));
        assert!(!bs(&[1, 2, 3, 4]).within_bound(0.3, 10));
        // r = 0.5, n = 7: budget is floor(3.5) = 3.
        assert!(bs(&[1, 2, 3]).within_bound(0.5, 7));
        assert!(!bs(&[1, 2, 3, 4]).within_bound(0.5, 7));
        // A zero bound admits only the empty set.
        assert!(BlockSet::none().within_bound(0.0, 10));
        assert!(!bs(&[1]).within_bound(0.0, 10));
        // Float grime like 0.1 * 3 = 0.30000000000000004 must not leak an
        // extra unit of budget.
        assert!(!bs(&[1]).within_bound(0.1, 3));
    }

    #[test]
    fn iter_is_sorted() {
        let set = bs(&[9, 2, 7, 4]);
        let order: Vec<u64> = set.iter().map(|v| v.raw()).collect();
        assert_eq!(order, vec![2, 4, 7, 9]);
    }

    #[test]
    fn insert_and_iter() {
        let mut set = BlockSet::none();
        assert!(set.is_empty());
        set.insert(NodeId(9));
        assert!(set.contains(NodeId(9)));
        assert_eq!(set.iter().count(), 1);
    }

    // -- FaultModel ---------------------------------------------------------

    #[test]
    fn null_model_is_null_and_draws_nothing() {
        let mut m = FaultModel::null();
        assert!(m.is_null());
        let before = m.rng.get_word_pos();
        for _ in 0..10 {
            assert_eq!(m.link_fate(), LinkFate::Deliver);
        }
        assert_eq!(m.rng.get_word_pos(), before, "null model must not consume randomness");
        assert!(m.down_set(5).is_empty());
        assert!(!m.cut(NodeId(1), NodeId(2), 5));
    }

    #[test]
    fn crash_stop_is_forever_crash_recover_is_a_window() {
        let stop = NodeFault::CrashStop { at: 3 };
        assert!(!stop.down_in(2));
        assert!(stop.down_in(3));
        assert!(stop.down_in(1_000_000));
        assert_eq!(stop.recovery_round(), None);

        let rec = NodeFault::CrashRecover { at: 3, down_for: 4 };
        assert!(!rec.down_in(2));
        assert!(rec.down_in(3));
        assert!(rec.down_in(6));
        assert!(!rec.down_in(7));
        assert_eq!(rec.recovery_round(), Some(7));
    }

    #[test]
    fn down_set_and_recovering_follow_the_schedule() {
        let m = FaultModel::new(1)
            .with_node_fault(NodeId(1), NodeFault::CrashStop { at: 2 })
            .with_node_fault(NodeId(2), NodeFault::CrashRecover { at: 1, down_for: 3 });
        assert!(!m.is_null());
        assert_eq!(m.down_set(0).len(), 0);
        assert_eq!(m.down_set(1).len(), 1);
        assert_eq!(m.down_set(2).len(), 2);
        assert_eq!(m.down_set(4).len(), 1, "node 2 recovered at round 4");
        assert_eq!(m.recovering(4), vec![NodeId(2)]);
        assert!(m.recovering(3).is_empty());
    }

    #[test]
    fn partition_cuts_only_across_and_only_in_window() {
        let p = Partition { side: [NodeId(1), NodeId(2)].into_iter().collect(), from: 5, until: 8 };
        let m = FaultModel::new(2).with_partition(p);
        // Across the cut, inside the window.
        assert!(m.cut(NodeId(1), NodeId(3), 5));
        assert!(m.cut(NodeId(3), NodeId(1), 7));
        // Within a side.
        assert!(!m.cut(NodeId(1), NodeId(2), 6));
        assert!(!m.cut(NodeId(3), NodeId(4), 6));
        // Outside the window.
        assert!(!m.cut(NodeId(1), NodeId(3), 4));
        assert!(!m.cut(NodeId(1), NodeId(3), 8));
    }

    #[test]
    fn link_fates_are_deterministic_in_the_seed() {
        let fates = |seed: u64| {
            let mut m = FaultModel::new(seed).with_link(LinkFaults {
                drop_prob: 0.3,
                dup_prob: 0.2,
                delay_prob: 0.2,
                max_delay: 4,
            });
            (0..64).map(|_| m.link_fate()).collect::<Vec<_>>()
        };
        assert_eq!(fates(7), fates(7));
        assert_ne!(fates(7), fates(8));
    }

    #[test]
    fn extreme_probabilities_force_fates() {
        let mut all_drop = FaultModel::new(1).with_link(LinkFaults {
            drop_prob: 1.0,
            dup_prob: 0.0,
            delay_prob: 0.0,
            max_delay: 0,
        });
        let mut all_dup = FaultModel::new(1).with_link(LinkFaults {
            drop_prob: 0.0,
            dup_prob: 1.0,
            delay_prob: 0.0,
            max_delay: 0,
        });
        let mut all_delay = FaultModel::new(1).with_link(LinkFaults {
            drop_prob: 0.0,
            dup_prob: 0.0,
            delay_prob: 1.0,
            max_delay: 3,
        });
        for _ in 0..16 {
            assert_eq!(all_drop.link_fate(), LinkFate::Drop);
            assert_eq!(all_dup.link_fate(), LinkFate::Duplicate);
            match all_delay.link_fate() {
                LinkFate::Delay(k) => assert!((1..=3).contains(&k)),
                other => panic!("expected a delay, got {other:?}"),
            }
        }
    }

    #[test]
    fn scheduled_delays_consume_in_order_and_draw_nothing() {
        let mut m = FaultModel::null()
            .with_scheduled_delay(NodeId(1), NodeId(2), 5, 3)
            .with_scheduled_delay(NodeId(1), NodeId(2), 5, 1)
            .with_scheduled_delay(NodeId(4), NodeId(2), 5, 2);
        assert!(!m.is_null());
        assert!(m.has_scheduled());
        let before = m.rng.get_word_pos();
        // Same key: occurrences in scheduling order. Other keys untouched.
        assert_eq!(m.scheduled_extra(NodeId(1), NodeId(2), 5), Some(3));
        assert_eq!(m.scheduled_extra(NodeId(1), NodeId(2), 5), Some(1));
        assert_eq!(m.scheduled_extra(NodeId(1), NodeId(2), 5), None, "exhausted");
        assert_eq!(m.scheduled_extra(NodeId(4), NodeId(2), 5), Some(2));
        assert_eq!(m.scheduled_extra(NodeId(9), NodeId(9), 5), None, "unscheduled key");
        assert_eq!(m.scheduled_extra(NodeId(1), NodeId(2), 6), None, "other round");
        assert_eq!(m.rng.get_word_pos(), before, "scheduled delays must not draw");
        // Link fates still deliver without drawing (link config is null).
        assert_eq!(m.link_fate(), LinkFate::Deliver);
        assert_eq!(m.rng.get_word_pos(), before);
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_scheduled_delay_panics() {
        let _ = FaultModel::null().with_scheduled_delay(NodeId(1), NodeId(2), 0, 0);
    }

    #[test]
    fn scheduled_checkpoint_roundtrips_mid_consumption() {
        let mut m = FaultModel::null()
            .with_scheduled_delay(NodeId(1), NodeId(2), 3, 4)
            .with_scheduled_delay(NodeId(1), NodeId(2), 3, 7);
        assert_eq!(m.scheduled_extra(NodeId(1), NodeId(2), 3), Some(4));
        let mut restored = FaultModel::load(&m.save()).expect("roundtrip");
        // The cursor survives: the restored copy serves the *second*
        // occurrence next, exactly like the original.
        assert_eq!(restored.scheduled_extra(NodeId(1), NodeId(2), 3), Some(7));
        assert_eq!(restored.scheduled_extra(NodeId(1), NodeId(2), 3), None);
        // Schedule-free checkpoints keep the pre-schedule shape.
        let plain = FaultModel::new(3).save();
        assert!(plain.get("scheduled").is_none(), "empty schedule must not be written");
        assert!(FaultModel::load(&plain).expect("legacy shape loads").is_null());
    }

    #[test]
    fn load_names_the_node_a_corrupt_fault_model_lists_twice() {
        let m = FaultModel::new(4)
            .with_node_fault(NodeId(5), NodeFault::CrashStop { at: 2 })
            .with_node_fault(NodeId(3), NodeFault::CrashRecover { at: 1, down_for: 2 });
        let saved = m.save();
        let with_faults = |faults: Vec<Value>| {
            let mut v = saved.clone();
            if let Value::Object(top) = &mut v {
                top.insert("node_faults".into(), Value::Array(faults));
            }
            v
        };
        let listed = crate::checkpoint::get_array(&saved, "node_faults").unwrap().clone();
        assert_eq!(get_u64(&listed[0], "node").unwrap(), 3, "saved ascending");
        let reversed = FaultModel::load(&with_faults(listed.iter().rev().cloned().collect()));
        assert_eq!(reversed.expect("any order loads").save(), saved);
        let mut twice = listed.clone();
        twice
            .push(serde_json::json!({ "node": 5, "fault": NodeFault::CrashStop { at: 9 }.save() }));
        match FaultModel::load(&with_faults(twice)) {
            Err(crate::CkptError::Corrupt(m)) => assert_eq!(m, "node_faults lists n5 twice"),
            other => panic!("expected Corrupt, got {:?}", other.map(|m| m.save())),
        }
    }

    // -- burst schedules --

    type BurstFixture = (Vec<NodeId>, Vec<Vec<NodeId>>, Vec<(u32, u32)>);

    fn burst_fixture() -> BurstFixture {
        // 8 groups of 4 on a 3-cube: group g holds nodes 4g..4g+3, group
        // edges differ in one bit.
        let members: Vec<NodeId> = (0..32).map(NodeId).collect();
        let groups: Vec<Vec<NodeId>> =
            (0..8u64).map(|g| (4 * g..4 * g + 4).map(NodeId).collect()).collect();
        let mut edges = Vec::new();
        for g in 0..8u32 {
            for bit in 0..3 {
                let h = g ^ (1 << bit);
                if g < h {
                    edges.push((g, h));
                }
            }
        }
        (members, groups, edges)
    }

    #[test]
    fn burst_schedule_replays_bit_identically() {
        let draw = |seed: u64| {
            let mut s = BurstSchedule::new(seed)
                .with_burst(Burst {
                    at: 5,
                    frac: 0.25,
                    target: BurstTarget::Groups,
                    storm_window: 4,
                })
                .with_burst(Burst {
                    at: 9,
                    frac: 0.25,
                    target: BurstTarget::Contiguous,
                    storm_window: 1,
                })
                .with_partition(TimedPartition { at: 12, heal_at: 20, side_frac: 0.3 });
            let (members, groups, edges) = burst_fixture();
            let a = s.draw_burst(0, &members, &groups, &edges);
            let b = s.draw_burst(1, &members, &groups, &edges);
            let side: Vec<NodeId> = s.draw_partition_side(0, &members).iter().collect();
            (a, b, side)
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(43));
    }

    #[test]
    fn group_burst_kills_whole_groups_and_spares_the_pivot() {
        let (members, groups, edges) = burst_fixture();
        let mut s = BurstSchedule::new(7).with_burst(Burst {
            at: 3,
            frac: 0.5,
            target: BurstTarget::Groups,
            storm_window: 2,
        });
        let victims = s.draw_burst(0, &members, &groups, &edges);
        assert!(victims.len() >= 16, "budget floor(0.5*32)=16, got {}", victims.len());
        let victim_set: BTreeSet<NodeId> = victims.iter().map(|&(v, _)| v).collect();
        // Victims are unions of whole groups, and at least one group (the
        // pivot) is fully spared.
        let mut spared = 0;
        for g in &groups {
            let hit = g.iter().filter(|v| victim_set.contains(v)).count();
            assert!(hit == 0 || hit == g.len(), "group partially hit: {hit}/{}", g.len());
            if hit == 0 {
                spared += 1;
            }
        }
        assert!(spared >= 1);
        // Storm returns land strictly inside (at, at + window].
        for &(_, back) in &victims {
            assert!((4..=5).contains(&back), "return round {back} outside storm window");
        }
    }

    #[test]
    fn contiguous_burst_takes_a_wrapped_run() {
        let (members, groups, edges) = burst_fixture();
        let mut s = BurstSchedule::new(11).with_burst(Burst {
            at: 2,
            frac: 0.25,
            target: BurstTarget::Contiguous,
            storm_window: 0,
        });
        let victims = s.draw_burst(0, &members, &groups, &edges);
        assert_eq!(victims.len(), 8);
        // window 0 behaves as 1: everyone returns the next round.
        assert!(victims.iter().all(|&(_, back)| back == 3));
        // The victim ids form one contiguous run modulo n.
        let ids: Vec<u64> = victims.iter().map(|&(v, _)| v.raw()).collect();
        let start = *ids.iter().find(|&&i| !ids.contains(&((i + 32 - 1) % 32))).unwrap_or(&ids[0]);
        let expect: BTreeSet<u64> = (0..8).map(|k| (start + k) % 32).collect();
        assert_eq!(ids.into_iter().collect::<BTreeSet<_>>(), expect);
    }

    #[test]
    fn partition_side_respects_fraction() {
        let (members, _, _) = burst_fixture();
        let mut s = BurstSchedule::new(3).with_partition(TimedPartition {
            at: 1,
            heal_at: 4,
            side_frac: 0.3,
        });
        let side = s.draw_partition_side(0, &members);
        assert_eq!(side.len(), 9); // floor(0.3 * 32)
        assert_eq!(s.partitions_due(1), vec![0]);
        assert!(s.partitions_due(2).is_empty());
    }

    #[test]
    fn null_schedule_is_null() {
        let s = BurstSchedule::null();
        assert!(s.is_null());
        assert!(s.bursts_due(0).is_empty() && s.partitions_due(0).is_empty());
        assert!(!BurstSchedule::new(1)
            .with_burst(Burst {
                at: 0,
                frac: 0.1,
                target: BurstTarget::Contiguous,
                storm_window: 1
            })
            .is_null());
    }

    #[test]
    fn burst_schedule_checkpoint_roundtrip_preserves_draws() {
        let mk = || {
            BurstSchedule::new(99)
                .with_burst(Burst {
                    at: 4,
                    frac: 0.4,
                    target: BurstTarget::Groups,
                    storm_window: 3,
                })
                .with_partition(TimedPartition { at: 8, heal_at: 12, side_frac: 0.2 })
        };
        let (members, groups, edges) = burst_fixture();
        let mut warm = mk();
        // Advance the stream, snapshot mid-flight, then compare the next
        // draws of the original vs the restored copy.
        let _ = warm.draw_burst(0, &members, &groups, &edges);
        let mut restored = BurstSchedule::load(&warm.save()).expect("roundtrip");
        assert_eq!(
            warm.draw_partition_side(0, &members),
            restored.draw_partition_side(0, &members)
        );
    }

    #[test]
    #[should_panic(expected = "burst fraction")]
    fn burst_fraction_out_of_range_panics() {
        let _ = BurstSchedule::new(0).with_burst(Burst {
            at: 0,
            frac: 1.5,
            target: BurstTarget::Contiguous,
            storm_window: 1,
        });
    }

    #[test]
    #[should_panic(expected = "heal after")]
    fn partition_healing_before_start_panics() {
        let _ = BurstSchedule::new(0).with_partition(TimedPartition {
            at: 5,
            heal_at: 5,
            side_frac: 0.1,
        });
    }
}
