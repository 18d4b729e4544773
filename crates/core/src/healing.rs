//! Self-healing under composite faults.
//!
//! The paper's model has no message loss and no crashes: a blocked node is
//! silenced by the adversary but keeps its state, and the availability
//! precondition (every group keeps an available member) guarantees that
//! reconfiguration information reaches everyone. This module drives the
//! overlay families through the *beyond-model* faults of
//! [`overlay_adversary::faults::FaultSchedule`] — probabilistic loss of
//! reconfiguration broadcasts, crash-stop, crash-recovery with state loss —
//! and implements the self-healing the paper does not need:
//!
//! * **heartbeat staleness counters** — a member that stays silent for a
//!   configurable number of epochs is evicted (graceful degradation), so
//!   crash-stopped corpses do not accumulate in the membership;
//! * **re-requests with capped retry + exponential backoff** — a member
//!   that missed a reconfiguration broadcast (it is *desynchronized*: it no
//!   longer knows the current group structure) re-requests the assignment;
//!   each attempt is itself subject to message loss, attempts back off
//!   exponentially in rounds, and exhausting the retry budget evicts the
//!   node;
//! * **rejoin after crash-recovery** — a node that recovers after its
//!   membership was evicted re-enters through the family's ordinary join
//!   path.
//!
//! Without healing, desynchronization is *sticky*: the re-request protocol
//! is exactly what healing adds, so a node that missed the assignment never
//! learns the current structure — later broadcasts are routed within a
//! structure it no longer tracks. The no-healing control therefore
//! accumulates stale members until the availability precondition collapses,
//! reconfiguration freezes (a failed epoch does not resample), and the
//! overlay degrades — which is what the fuzz control tests and the
//! `exp_a5_fault_survival` benchmark demonstrate.
//!
//! One modeling line is held throughout: **paper-model DoS blocking never
//! desynchronizes anyone.** A blocked node keeps its state and the paper's
//! epoch protocol tolerates blocking by design; only beyond-model loss and
//! crashes cause state divergence. Healing timeouts are measured in epochs
//! so that a member legally blocked for a long stretch is not evicted
//! wrongly.

use crate::dos::epoch::EpochClock;
use crate::metrics::{DosRoundMetrics, DosRunMetrics};
use crate::monitor::{Invariant, InvariantMonitor};
use crate::reconfig::overlay::ExpanderOverlay;
use overlay_adversary::adaptive::Attacker;
use overlay_adversary::byzantine::ByzActions;
use overlay_adversary::faults::FaultSchedule;
use overlay_adversary::lateness::SharedSnapshot;
use overlay_graphs::connectivity::is_connected_restricted;
use simnet::idrun::{ascending, difference, union};
use simnet::{BlockSet, IdRun, IdSet, NodeId};
use telemetry::{EventKind, Phase, Telemetry};

/// The join path's delegate choice, shared by every overlay family: the
/// smallest-id member that is not excluded (pending leavers, the joiner
/// itself) acts as introducer. `None` when nobody qualifies.
pub fn smallest_live_introducer(
    members: &[NodeId],
    excluded: &[NodeId],
    joiner: NodeId,
) -> Option<NodeId> {
    members.iter().copied().filter(|v| *v != joiner && !excluded.contains(v)).min()
}

/// Tuning knobs of the self-healing layer.
#[derive(Clone, Copy, Debug)]
pub struct HealingParams {
    /// Epochs of continuous silence before a member is evicted. Measured
    /// in epochs (not rounds) because a `(1/2 - eps)`-bounded adversary may
    /// legally block the same node for many consecutive rounds; evicting
    /// paper-legally-blocked members would break the theorems' regime.
    pub heartbeat_epochs: u64,
    /// Maximum re-request attempts for a lost reconfiguration message.
    pub max_retries: u32,
    /// Rounds until the first retry; attempt `k` waits `base * 2^k`.
    pub backoff_base: u64,
}

impl Default for HealingParams {
    fn default() -> Self {
        Self { heartbeat_epochs: 3, max_retries: 5, backoff_base: 1 }
    }
}

/// Capped exponential backoff: attempt `k` waits `min(base << k, cap)`
/// rounds. The healing retry ladder uses it uncapped (its retry budget is
/// small, so the exponential never runs away); the recovery layer caps it
/// so a long rejoin storm keeps retrying at a bounded cadence instead of
/// backing off past the horizon.
#[derive(Clone, Copy, Debug)]
pub struct Backoff {
    /// Delay of attempt 0, in rounds (floored to 1).
    pub base: u64,
    /// Upper bound on any delay.
    pub cap: u64,
}

impl Backoff {
    /// Exponential backoff with no cap.
    pub fn uncapped(base: u64) -> Self {
        Self { base, cap: u64::MAX }
    }

    /// Exponential backoff capped at `cap` rounds.
    pub fn capped(base: u64, cap: u64) -> Self {
        Self { base, cap }
    }

    /// Rounds to wait after attempt number `attempt` (0-based). The shift
    /// saturates: once `base << attempt` would drop its high bits the delay
    /// is `u64::MAX` (before the cap), so it never falls as attempts grow.
    pub fn delay(&self, attempt: u32) -> u64 {
        let base = self.base.max(1);
        let delay = if attempt <= base.leading_zeros() { base << attempt } else { u64::MAX };
        delay.min(self.cap)
    }
}

/// Aggregate healing statistics of a run.
#[derive(Clone, Copy, Debug, Default)]
pub struct HealingStats {
    /// Members that lost a reconfiguration broadcast.
    pub desync_events: u64,
    /// Re-request attempts sent.
    pub retries: u64,
    /// Re-requests that succeeded (member resynchronized).
    pub resyncs: u64,
    /// Members whose retry budget ran out.
    pub exhausted: u64,
    /// Members evicted (stale heartbeat or exhausted retries).
    pub evictions: u64,
    /// Recovered nodes re-admitted via the join path.
    pub rejoins: u64,
    /// Crash events injected by the schedule.
    pub crashes: u64,
}

/// Outcome of one re-request attempt.
#[derive(Clone, Copy)]
enum RetryOutcome {
    /// The assignment arrived; the member is synchronized again.
    Resynced,
    /// Lost again; the member backs off and will retry later.
    Backoff,
    /// The retry budget is spent; the member gives up.
    Exhausted,
}

#[derive(Clone, Copy, Debug)]
struct RetryState {
    attempts: u32,
    next_due: u64,
}

/// Per-member failure-detection state: staleness counters and the desync
/// set with its retry schedules. Each is an [`IdRun`], so a round's
/// bookkeeping is a few merge walks over it rather than a map operation per
/// member.
#[derive(Clone, Debug)]
pub struct HealthTracker {
    timeout_epochs: u64,
    /// Multiplier on `timeout_epochs`, normally 1. The recovery layer's
    /// SafeMode widens heartbeat timeouts through this so that burst
    /// victims expected back within the storm window are not evicted
    /// mid-storm (an eviction turns a free desync-return into a join).
    timeout_factor: u64,
    max_retries: u32,
    backoff_base: u64,
    /// Consecutive epochs of silence per member (bumped at boundaries).
    staleness: IdRun<u64>,
    /// Members that missed a reconfiguration broadcast and have not yet
    /// recovered the current structure, each with its re-request schedule
    /// (with healing on, every desynced member is re-requesting; with it
    /// off nobody is, and the schedules are never read).
    desynced: IdRun<RetryState>,
    /// Aggregate counters.
    pub stats: HealingStats,
}

impl HealthTracker {
    /// Build a tracker from the healing parameters.
    pub fn new(params: HealingParams) -> Self {
        Self {
            timeout_epochs: params.heartbeat_epochs.max(1),
            timeout_factor: 1,
            max_retries: params.max_retries.max(1),
            backoff_base: params.backoff_base.max(1),
            staleness: IdRun::default(),
            desynced: IdRun::default(),
            stats: HealingStats::default(),
        }
    }

    /// Record that the ascending `ids` missed a reconfiguration broadcast,
    /// scheduling each one's first re-request (with healing off nobody
    /// sends it, and the desync is sticky).
    fn mark_desynced(&mut self, ids: &[NodeId], round: u64) {
        let first = RetryState { attempts: 0, next_due: round + self.backoff_base };
        self.stats.desync_events += self.desynced.insert_all(ids, |_| first) as u64;
    }

    /// Members currently desynchronized (sorted).
    pub fn desynced(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.desynced.iter()
    }

    /// Number of desynchronized members.
    pub fn desynced_len(&self) -> usize {
        self.desynced.len()
    }

    /// Send every re-request due at `round`, in id order; `delivered` draws
    /// whether an attempt got through. Returns each attempt's member, its
    /// delivery and its outcome. Resynchronized and exhausted members leave
    /// the desync run, and exhausted ones are forgotten (the caller evicts
    /// them).
    fn retry_due(
        &mut self,
        round: u64,
        mut delivered: impl FnMut() -> bool,
    ) -> Vec<(NodeId, bool, RetryOutcome)> {
        let mut attempts = Vec::new();
        self.desynced.retain(|v, state| {
            if state.next_due > round {
                return true;
            }
            let success = delivered();
            self.stats.retries += 1;
            state.attempts += 1;
            let outcome = if success {
                self.stats.resyncs += 1;
                RetryOutcome::Resynced
            } else if state.attempts >= self.max_retries {
                self.stats.exhausted += 1;
                RetryOutcome::Exhausted
            } else {
                state.next_due = round + Backoff::uncapped(self.backoff_base).delay(state.attempts);
                RetryOutcome::Backoff
            };
            attempts.push((v, success, outcome));
            matches!(outcome, RetryOutcome::Backoff)
        });
        let exhausted = attempts.iter().filter(|a| matches!(a.2, RetryOutcome::Exhausted));
        self.staleness.remove_all(exhausted.map(|a| a.0));
        attempts
    }

    /// Resynchronize `v` out of band (e.g. the recovery layer's
    /// reconciliation delivered the assignment reliably). Returns whether
    /// `v` was actually desynchronized.
    fn resync(&mut self, v: NodeId) -> bool {
        let was = self.desynced.remove(v).is_some();
        self.stats.resyncs += u64::from(was);
        was
    }

    /// Bump epoch-granularity staleness counters: `silent` holds the
    /// members that produced no heartbeat this epoch. Members in an active
    /// retry exchange are being healed, not suspected — their counters do
    /// not advance. Returns the members whose silence outlived the timeout
    /// (the caller evicts them). Every list ascends, so this is a few merge
    /// walks: members that spoke lose their counters, quiet ones gain one,
    /// and counters of ids that are no longer members are carried over
    /// untouched.
    fn observe_epoch(&mut self, members: &[NodeId], silent: &[NodeId]) -> Vec<NodeId> {
        let limit = self.timeout_epochs.saturating_mul(self.timeout_factor.max(1));
        let all = || members.iter().copied();
        let silent_members = difference(all(), difference(all(), silent.iter().copied()));
        let quiet: Vec<NodeId> = difference(silent_members, self.desynced.iter()).collect();
        self.staleness.remove_all(difference(all(), quiet.iter().copied()));
        self.staleness.insert_all(&quiet, |_| 0);
        let (mut evict, mut q) = (Vec::new(), quiet.iter().copied().peekable());
        self.staleness.retain(|v, c| {
            while q.next_if(|&u| u < v).is_some() {}
            if q.peek() == Some(&v) {
                *c += 1;
                if *c >= limit {
                    evict.push(v);
                    return false;
                }
            }
            true
        });
        self.forget(&evict);
        evict
    }

    /// Drop all state about the ascending `ids` (evicted or crashed).
    fn forget(&mut self, ids: &[NodeId]) {
        self.staleness.remove_all(ids.iter().copied());
        self.desynced.remove_all(ids.iter().copied());
    }
}

/// The round-stepped overlay interface the healing runner drives: both
/// group families ([`crate::dos::overlay::DosOverlay`] and
/// [`crate::churndos::overlay::ChurnDosOverlay`]) expose exactly this
/// shape, with the impls living next to each overlay. The round and epoch
/// accessors read the family's [`EpochClock`], whose
/// [`closed_epoch`](EpochClock::closed_epoch) tells a runner whether the
/// round it just stepped resampled the groups. The epoch-level expander
/// family has its own runner ([`ExpanderFaultRun`]).
pub trait HealableOverlay {
    /// Current members in ascending id order.
    fn members_sorted(&self) -> Vec<NodeId>;
    /// Member count.
    fn len(&self) -> usize;
    /// True when no members remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// The overlay's epoch clock.
    fn clock(&self) -> &EpochClock;
    /// Rounds executed so far.
    fn round(&self) -> u64 {
        self.clock().round()
    }
    /// Rounds per epoch.
    fn epoch_len(&self) -> u64 {
        self.clock().epoch_len()
    }
    /// Completed epochs (successful or failed).
    fn epochs(&self) -> u64 {
        self.clock().epochs()
    }
    /// Epochs that failed the availability precondition.
    fn failed_epochs(&self) -> u64 {
        self.clock().failed_epochs()
    }
    /// Topology snapshot for the (late) adversary, observed in `round`: the
    /// overlay's shared snapshot of its current structure, built on the
    /// first call after a structural change.
    fn snapshot(&self, round: u64) -> SharedSnapshot;
    /// Execute one overlay round under the given block set.
    fn step_overlay(&mut self, blocked: &BlockSet) -> DosRoundMetrics;
    /// Remove a member (graceful degradation).
    fn evict(&mut self, v: NodeId);
    /// Re-admit a recovered node via the family's join path (may be
    /// deferred to the next reconfiguration).
    fn rejoin(&mut self, v: NodeId);
    /// Family-specific structural check beyond connectivity; `None` = ok.
    fn structure_violation(&self) -> Option<String>;
}

/// A layer of [`FaultyRunner`]'s round. [`FaultyRunner::step`] calls
/// these in a fixed order — `open` before the healing work, `check` inside
/// the monitor section, `close` after it — and an attacked round
/// ([`FaultyRunner::round_timed`]) calls `participate` between the attack
/// prologue and the step. `()` is the inert layer: every method is a no-op
/// except `check`, which runs the healing invariants. The real layers are
/// catastrophe recovery ([`crate::recovery::Catastrophes`]), the Byzantine
/// defenses ([`crate::byzantine::Defenses`]) and per-epoch churn
/// ([`crate::churndos::EpochChurn`]).
pub trait Layer<O: HealableOverlay>: Sized {
    /// Apply the parts of the adversary's move beyond blocking: joins,
    /// corruptions, forgeries. Only the defense layer has a join path that
    /// takes them; the others ignore them.
    fn participate(_r: &mut FaultyRunner<O, Self>, _acts: &ByzActions) {}
    /// Open `round`: act on the overlay before the healing work and return
    /// the block set the round runs under when the layer widens the
    /// adversary's (`None` keeps it).
    fn open(_r: &mut FaultyRunner<O, Self>, _round: u64, _blocked: &BlockSet) -> Option<BlockSet> {
        None
    }
    /// The layer's invariants, judged after connectivity and
    /// availability; the default is the healing layer's: the family's
    /// structural band, and crashed or desynchronized members under half
    /// the membership.
    fn check(r: &mut FaultyRunner<O, Self>, m: &DosRoundMetrics) {
        let structure = r.overlay.structure_violation();
        r.monitor.check(Invariant::GroupSizeBand, m.round, structure.is_none(), || {
            structure.clone().unwrap_or_default()
        });
        // Crashed nodes that are still members.
        let evicted = r.down.values().iter().filter(|d| d.evicted).count();
        let stale = r.tracker.desynced_len() + r.down.len() - evicted;
        let n_now = r.overlay.len().max(1);
        r.monitor.check(Invariant::StaleBound, m.round, stale * 2 <= n_now, || {
            format!("{stale} of {n_now} members crashed or desynchronized")
        });
    }
    /// Close the round once the monitor has judged it.
    fn close(_r: &mut FaultyRunner<O, Self>, _m: &DosRoundMetrics) {}
}

impl<O: HealableOverlay> Layer<O> for () {}

/// What a runner knows of a crashed node.
#[derive(Clone, Copy, Debug)]
struct Down {
    /// Recovery round — epoch, for [`ExpanderFaultRun`] (`u64::MAX` =
    /// crash-stop).
    back: u64,
    /// Its membership was evicted while it was down, so a return goes
    /// through the join path.
    evicted: bool,
}

/// Drives a round-stepped overlay through a composite fault schedule with
/// (or, as a control, without) self-healing, checking the invariants every
/// round. `L` is the round's extra [`Layer`], added by
/// [`with_catastrophes`](Self::with_catastrophes) or
/// [`with_defenses`](Self::with_defenses); the default `()` adds nothing.
pub struct FaultyRunner<O: HealableOverlay, L = ()> {
    /// The overlay under test.
    pub overlay: O,
    schedule: FaultSchedule,
    tracker: HealthTracker,
    /// Per-round invariant verdicts.
    pub monitor: InvariantMonitor,
    healing: bool,
    /// Declared adversary budget, checked as the blocking-budget invariant.
    dos_bound: Option<f64>,
    /// Crashed nodes, by id.
    down: IdRun<Down>,
    /// The round's effective block set, rebuilt in place every step.
    eff: BlockSet,
    /// Pure observability: mirrors the healing protocol's decisions as
    /// events and `heal.*` counters; never consulted by the protocol.
    pub(crate) tel: Telemetry,
    /// The round's extra layer.
    pub(crate) layer: L,
}

impl<O: HealableOverlay> FaultyRunner<O> {
    /// Wrap an overlay. `healing = false` is the degradation control: the
    /// same faults are injected but nobody re-requests, evicts or rejoins.
    pub fn new(overlay: O, schedule: FaultSchedule, params: HealingParams, healing: bool) -> Self {
        let epoch_len = overlay.epoch_len();
        let monitor = InvariantMonitor::new()
            // Availability gets one epoch of grace: a transiently starved
            // group only matters if it stays starved long enough to fail
            // the epoch's precondition.
            .with_grace(Invariant::Availability, epoch_len)
            .with_grace(Invariant::StaleBound, epoch_len);
        Self {
            overlay,
            schedule,
            tracker: HealthTracker::new(params),
            monitor,
            healing,
            dos_bound: None,
            down: IdRun::default(),
            eff: BlockSet::none(),
            tel: Telemetry::disabled(),
            layer: (),
        }
    }

    /// The paper's model around `overlay`: no beyond-model fault and
    /// healing off, so every round is the overlay's own step under the
    /// adversary's block set. (Healing would evict a member blocked across
    /// `heartbeat_epochs` epoch boundaries, which the paper never does.)
    pub fn paper_model(overlay: O) -> Self {
        Self::new(overlay, FaultSchedule::none(), HealingParams::default(), false)
    }

    /// The same runner with `layer` added to its round.
    pub(crate) fn with_layer<L: Layer<O>>(self, layer: L) -> FaultyRunner<O, L> {
        let Self {
            overlay, schedule, tracker, monitor, healing, dos_bound, down, eff, tel, ..
        } = self;
        FaultyRunner {
            overlay,
            schedule,
            tracker,
            monitor,
            healing,
            dos_bound,
            down,
            eff,
            tel,
            layer,
        }
    }
}

impl<O: HealableOverlay, L: Layer<O>> FaultyRunner<O, L> {
    /// Declare the adversary's blocking budget so the monitor can check it.
    pub fn with_dos_bound(mut self, bound: f64) -> Self {
        self.dos_bound = Some(bound);
        self
    }

    /// Attach a telemetry recorder (builder-style). The recorder also
    /// propagates to the invariant monitor; attaching one never changes a
    /// protocol decision or an overlay digest.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.monitor.set_telemetry(tel.clone());
        self.tel = tel;
        self
    }

    /// One healing decision: event plus a matching `heal.<what>` counter.
    fn heal_event(&self, round: u64, kind: EventKind, what: &'static str, v: NodeId, value: u64) {
        if self.tel.enabled() {
            self.tel.counter("heal.events", &[("what", what)]).inc();
            self.tel.emit(round, kind, Some(v.raw()), value, String::new);
        }
    }

    /// Healing statistics accumulated so far.
    pub fn stats(&self) -> HealingStats {
        self.tracker.stats
    }

    /// Members currently crashed.
    pub fn down_len(&self) -> usize {
        self.down.len()
    }

    /// Members currently desynchronized.
    pub fn desynced_len(&self) -> usize {
        self.tracker.desynced_len()
    }

    /// The round's extra layer (its counters and state).
    pub fn layer(&self) -> &L {
        &self.layer
    }

    // -- catastrophe-layer hooks ---------------------------------------------
    //
    // The catastrophe layer (`crate::recovery`) owns *when* burst victims
    // crash and return; these hooks let it act through the same bookkeeping
    // the schedule-driven path uses, so stats, telemetry and digests stay
    // coherent. None of them is called on the ordinary path.

    /// Crash-stop `v` right now (burst injection). The node stays down
    /// until [`Self::return_node`] or [`Self::abandon`]; the internal
    /// schedule-driven recovery never fires for it. No-op when `v` is
    /// already down.
    pub(crate) fn force_crash(&mut self, v: NodeId) {
        if self.down.contains(v) {
            return;
        }
        let round = self.overlay.round();
        self.down.put(v, Down { back: u64::MAX, evicted: false });
        self.tracker.stats.crashes += 1;
        self.tracker.forget(&[v]);
        self.heal_event(round, EventKind::Crash, "crash", v, u64::MAX);
    }

    /// Return a crashed node to the overlay: a rejoin if its membership
    /// was evicted while it was down, otherwise a desynchronized comeback
    /// (its state is lost either way). `None` when `v` was not down, else
    /// whether it went through the join path. The caller — not the
    /// healing flag — decides that the join happens; use [`Self::abandon`]
    /// for the no-recovery arm's rejected joiners.
    pub(crate) fn return_node(&mut self, v: NodeId) -> Option<bool> {
        let down = self.down.remove(v)?;
        let round = self.overlay.round();
        if down.evicted {
            self.overlay.rejoin(v);
            self.tracker.stats.rejoins += 1;
            self.heal_event(round, EventKind::Rejoin, "rejoin", v, 0);
        } else {
            self.tracker.mark_desynced(&[v], round);
            self.heal_event(round, EventKind::Desync, "desync", v, 0);
        }
        Some(down.evicted)
    }

    /// Forget a crashed node entirely: it neither returns nor rejoins
    /// (a permanently orphaned storm victim in the no-recovery control).
    pub(crate) fn abandon(&mut self, v: NodeId) {
        self.down.remove(v);
        self.tracker.forget(&[v]);
    }

    /// Mark a live member desynchronized right now (partition-heal: the
    /// minority side missed reconfigurations during the window).
    pub(crate) fn mark_desynced_now(&mut self, v: NodeId) {
        let round = self.overlay.round();
        self.tracker.mark_desynced(&[v], round);
        self.heal_event(round, EventKind::Desync, "desync", v, 2);
    }

    /// Resynchronize a member out of band (reconciliation delivered the
    /// assignment reliably). Returns whether it was desynchronized.
    pub(crate) fn force_resync(&mut self, v: NodeId) -> bool {
        let was = self.tracker.resync(v);
        if was {
            self.heal_event(self.overlay.round(), EventKind::Resync, "resync", v, 1);
        }
        was
    }

    /// Widen (or restore) the heartbeat timeout: silence is tolerated for
    /// `factor * heartbeat_epochs` epochs. SafeMode sets this above 1 so
    /// storm victims due back shortly are not evicted mid-storm.
    pub(crate) fn set_heartbeat_factor(&mut self, factor: u64) {
        self.tracker.timeout_factor = factor.max(1);
    }

    /// Was the crashed `v`'s membership evicted while it was down (so a
    /// return needs the join path)?
    pub(crate) fn was_evicted_while_down(&self, v: NodeId) -> bool {
        self.down.get(v).is_some_and(|d| d.evicted)
    }

    /// Execute one round: open the layer, inject recoveries and fresh
    /// crashes, run the healing protocol, step the overlay under the
    /// *effective* block set (adversary and layer ∪ crashed ∪ desynced — a
    /// desynchronized node cannot participate: it does not know the
    /// current structure), then draw reconfiguration-broadcast losses if an
    /// epoch boundary resampled, feed the invariant monitor and close the
    /// layer.
    pub fn step(&mut self, dos_blocked: &BlockSet) -> DosRoundMetrics {
        self.step_with(dos_blocked, |_| {})
    }

    /// One attacked round: show the adversary the current topology, take
    /// its move, judge the move's blocking budget against the population
    /// the adversary was shown (healing may shrink the membership inside
    /// the step without retroactively delegitimizing the block set) when a
    /// bound is declared, hand the rest of the move to the layer and
    /// [`step`](Self::step). `lap` is called with a section's name as each
    /// section of the round ends — in order: `snapshot`, `observe + pick`,
    /// `budget judge`, `membership`, `crash draws`, `retries + staleness`,
    /// `effective set`, `overlay step`, `broadcast draws`, `monitor`.
    /// `exp P2` reads a clock in `lap`; [`run`](Self::run) passes a no-op
    /// that compiles away.
    pub fn round_timed<A: Attacker>(
        &mut self,
        adversary: &mut A,
        mut lap: impl FnMut(&'static str),
    ) -> DosRoundMetrics {
        let (round, n) = (self.overlay.round(), self.overlay.len());
        let snapshot = self.overlay.snapshot(round);
        lap("snapshot");
        adversary.observe(snapshot);
        let acts = adversary.act(round, n);
        lap("observe + pick");
        if let Some(bound) = self.dos_bound {
            self.monitor.check_budget(round, &acts.blocked, bound, n);
        }
        lap("budget judge");
        L::participate(self, &acts);
        self.step_with(&acts.blocked, lap)
    }

    /// [`Self::step`], calling `lap` as each of its seven sections ends.
    fn step_with(
        &mut self,
        dos_blocked: &BlockSet,
        mut lap: impl FnMut(&'static str),
    ) -> DosRoundMetrics {
        let round = self.overlay.round(); // round about to execute
        let widened = L::open(self, round, dos_blocked);
        let dos_blocked = widened.as_ref().unwrap_or(dos_blocked);
        let healing_phase = self.tel.phase(Phase::Healing);

        // Crash-recoveries due this round.
        let mut due = Vec::new();
        self.down.retain(|v, d| {
            if d.back <= round {
                due.push((v, d.evicted));
            }
            d.back > round
        });
        let mut lost_state = Vec::new();
        for (v, evicted) in due {
            if evicted {
                // Its membership is gone; only healing re-admits it.
                if self.healing {
                    self.overlay.rejoin(v);
                    self.tracker.stats.rejoins += 1;
                    self.heal_event(round, EventKind::Rejoin, "rejoin", v, 0);
                }
            } else {
                // Still a member, but its state is lost: it no longer
                // knows the current group structure.
                lost_state.push(v);
                self.heal_event(round, EventKind::Desync, "desync", v, 0);
            }
        }
        self.tracker.mark_desynced(&lost_state, round);

        // Fresh crashes among live members.
        let members = self.overlay.members_sorted();
        let up: Vec<NodeId> = difference(members.iter().copied(), self.down.iter()).collect();
        lap("membership");
        let crashed = self.schedule.draw_crashes(&up, members.len());
        let back = self.schedule.recover_after().map_or(u64::MAX, |k| round + k);
        self.down.insert_all(&crashed, |_| Down { back, evicted: false });
        self.tracker.stats.crashes += crashed.len() as u64;
        // Whatever retry conversation they had is lost with their state.
        self.tracker.forget(&crashed);
        for &v in &crashed {
            self.heal_event(round, EventKind::Crash, "crash", v, back);
        }
        lap("crash draws");

        if self.healing {
            // Due re-requests: each attempt is one message exchange,
            // itself subject to loss.
            let schedule = &mut self.schedule;
            for (v, success, outcome) in self.tracker.retry_due(round, || !schedule.lose_message())
            {
                self.heal_event(round, EventKind::RetryAttempt, "retry", v, u64::from(success));
                match outcome {
                    RetryOutcome::Resynced => {
                        self.heal_event(round, EventKind::Resync, "resync", v, 0);
                    }
                    RetryOutcome::Backoff => {}
                    RetryOutcome::Exhausted => {
                        self.overlay.evict(v);
                        self.tracker.stats.evictions += 1;
                        self.heal_event(round, EventKind::RetryExhausted, "exhausted", v, 0);
                        self.heal_event(round, EventKind::Eviction, "eviction", v, 0);
                    }
                }
            }
            // Heartbeat staleness, bumped once per epoch: from the group's
            // point of view a crashed, desynced or blocked member is just
            // silent; retrying members are exempt (the healing exchange is
            // their heartbeat).
            if round > 0 && round % self.overlay.epoch_len() == 0 {
                let silent: Vec<NodeId> = self.silenced(dos_blocked).collect();
                let members_now = self.overlay.members_sorted();
                for v in self.tracker.observe_epoch(&members_now, &silent) {
                    self.overlay.evict(v);
                    self.tracker.stats.evictions += 1;
                    if let Some(d) = self.down.get_mut(v) {
                        d.evicted = true;
                    }
                    self.heal_event(round, EventKind::Eviction, "eviction", v, 1);
                }
            }
        }
        drop(healing_phase);
        lap("retries + staleness");

        // Effective silence: adversary blocking plus crashed plus
        // desynchronized members.
        let mut eff = std::mem::take(&mut self.eff);
        eff.assign(self.silenced(dos_blocked));
        lap("effective set");
        let m = self.overlay.step_overlay(&eff);
        lap("overlay step");

        // If the boundary just resampled, every live member must learn its
        // fresh assignment; each broadcast is subject to loss. A failed
        // epoch keeps the stale structure, so there is nothing new to miss
        // — and nothing that would resynchronize anyone either.
        if self.overlay.clock().closed_epoch() == Some(true) {
            let members = self.overlay.members_sorted();
            let schedule = &mut self.schedule;
            let lost: Vec<NodeId> =
                difference(members, self.down.iter()).filter(|_| schedule.lose_message()).collect();
            self.tracker.mark_desynced(&lost, m.round);
            for v in lost {
                self.heal_event(m.round, EventKind::Desync, "desync", v, 1);
            }
        }

        lap("broadcast draws");

        let monitor_phase = self.tel.phase(Phase::Monitor);
        self.monitor.begin_round();
        self.monitor.check(Invariant::Connectivity, m.round, m.connected, || {
            format!("effective block set of {} silences a cut", eff.len())
        });
        self.monitor.check(Invariant::Availability, m.round, m.min_group_available > 0, || {
            "a group has no available member".to_string()
        });
        L::check(self, &m);
        self.eff = eff;
        drop(monitor_phase);
        lap("monitor");
        L::close(self, &m);
        m
    }

    /// Everyone silent this round, ascending: adversary blocking plus
    /// crashed plus desynchronized members, the three sorted runs merged in
    /// one pass.
    fn silenced<'a>(&'a self, dos_blocked: &'a BlockSet) -> impl Iterator<Item = NodeId> + 'a {
        union(union(dos_blocked.iter(), self.down.iter()), self.tracker.desynced())
    }

    /// Drive the overlay against any [`Attacker`] — oblivious, adaptive or
    /// Byzantine — for `rounds` attacked rounds (see
    /// [`round_timed`](Self::round_timed)), and fold them into the run's
    /// totals.
    pub fn run<A: Attacker>(&mut self, adversary: &mut A, rounds: u64) -> DosRunMetrics {
        let mut out = DosRunMetrics { n: self.overlay.len(), ..DosRunMetrics::default() };
        for _ in 0..rounds {
            out.absorb(self.round_timed(adversary, |_| {}));
        }
        out.epochs = self.overlay.epochs();
        out
    }
}

/// Epoch-level fault runner for the expander family: crash and loss events
/// are drawn per epoch, retries are compressed into the epoch they belong
/// to (the epoch is `Theta(log log n)` rounds — room for a full backoff
/// ladder), and connectivity is judged on the H-graph minus the silent
/// members.
pub struct ExpanderFaultRun {
    /// The overlay under test.
    pub overlay: ExpanderOverlay,
    schedule: FaultSchedule,
    params: HealingParams,
    /// Per-epoch invariant verdicts (`round` = epoch number).
    pub monitor: InvariantMonitor,
    healing: bool,
    /// Crashed nodes, each with its recovery epoch.
    down: IdRun<Down>,
    desynced: IdSet,
    /// Heartbeat staleness of the crashed members; its desync run stays
    /// empty (the compressed retry ladder below never leaves one pending).
    heartbeat: HealthTracker,
    /// Rounds of the last completed epoch (converts crash-recovery
    /// downtimes from rounds to epochs).
    last_epoch_rounds: u64,
    /// Aggregate healing counters.
    pub stats: HealingStats,
}

impl ExpanderFaultRun {
    /// Wrap an overlay; `healing = false` is the degradation control.
    pub fn new(
        overlay: ExpanderOverlay,
        schedule: FaultSchedule,
        params: HealingParams,
        healing: bool,
    ) -> Self {
        Self {
            overlay,
            schedule,
            params,
            monitor: InvariantMonitor::new(),
            healing,
            down: IdRun::default(),
            desynced: IdSet::none(),
            heartbeat: HealthTracker::new(params),
            last_epoch_rounds: 16,
            stats: HealingStats::default(),
        }
    }

    /// Members currently desynchronized.
    pub fn desynced_len(&self) -> usize {
        self.desynced.len()
    }

    /// Run one reconfiguration epoch under the fault schedule.
    pub fn run_epoch(&mut self) {
        let epoch = self.overlay.epoch();

        // Crash-recoveries due this epoch.
        let mut due = Vec::new();
        self.down.retain(|v, d| {
            if d.back <= epoch {
                due.push((v, d.evicted));
            }
            d.back > epoch
        });
        for (v, evicted) in due {
            if evicted {
                if self.healing {
                    self.overlay.rejoin(v);
                    self.stats.rejoins += 1;
                }
            } else if !self.desynced.contains(v) {
                self.desynced.insert(v);
                self.stats.desync_events += 1;
            }
        }

        // Fresh crashes among live members.
        let members = ascending(self.overlay.members()).into_owned();
        let up: Vec<NodeId> = difference(members.iter().copied(), self.down.iter()).collect();
        let epochs_down =
            self.schedule.recover_after().map(|rounds| 1 + rounds / self.last_epoch_rounds.max(1));
        let crashed = self.schedule.draw_crashes(&up, members.len());
        let back = epochs_down.map_or(u64::MAX, |k| epoch + k);
        self.down.insert_all(&crashed, |_| Down { back, evicted: false });
        self.stats.crashes += crashed.len() as u64;

        // Heartbeat staleness: crashed members go silent; desynced ones
        // are in the retry exchange (their heartbeat) unless healing is
        // off, in which case nobody watches anyway.
        if self.healing {
            for v in self.heartbeat.observe_epoch(&members, self.down.ids()) {
                self.overlay.evict(v);
                self.down.get_mut(v).expect("only the crashed go silent").evicted = true;
                self.stats.evictions += 1;
            }
        }

        let metrics = self.overlay.reconfigure();
        self.last_epoch_rounds = metrics.rounds.max(1);

        // The epoch's closing broadcast announces the fresh topology to
        // each synchronized live member independently, subject to loss.
        // Desync is *sticky*: a member that missed an earlier broadcast no
        // longer tracks the structure later announcements are routed
        // through, so it cannot hear them either — recovering it is
        // exactly what the healing re-request does.
        let graph = self.overlay.graph();
        self.desynced.retain(|v, _| graph.contains(v));
        let now_members = ascending(self.overlay.members());
        let schedule = &mut self.schedule;
        let lost: Vec<NodeId> =
            difference(now_members.iter().copied(), union(self.down.iter(), self.desynced.iter()))
                .filter(|_| schedule.lose_message())
                .collect();
        self.stats.desync_events += self.desynced.insert_all(&lost, |_| ()) as u64;
        // Healing: compressed retry ladder within the epoch, covering
        // every desynchronized live member — fresh broadcast losses and
        // just-recovered nodes alike. Exhaustion evicts for good.
        if self.healing {
            let pending: Vec<NodeId> = difference(self.desynced.iter(), self.down.iter()).collect();
            for &v in &pending {
                let mut synced = false;
                for _ in 0..self.params.max_retries {
                    self.stats.retries += 1;
                    if !self.schedule.lose_message() {
                        synced = true;
                        break;
                    }
                }
                if synced {
                    self.stats.resyncs += 1;
                } else {
                    self.stats.exhausted += 1;
                    self.overlay.evict(v);
                    self.stats.evictions += 1;
                }
            }
            self.desynced.remove_all(pending);
        }

        // Invariants, judged per epoch on the functional graph: members
        // minus the crashed and desynchronized.
        let dead: IdSet = union(self.down.iter(), self.desynced.iter()).collect();
        let e = self.overlay.epoch();
        self.monitor.begin_round();
        // The H-graph restricted to the live members (vacuously connected
        // when fewer than two remain).
        let connected = is_connected_restricted(&self.overlay.graph().adjacency(), &dead);
        self.monitor.check(Invariant::Connectivity, e, connected, || {
            format!("graph minus {} dead members is disconnected", dead.len())
        });
        let d = self.overlay.graph().degree();
        let degree_ok =
            self.overlay.members().iter().all(|&v| self.overlay.graph().neighbors(v).len() == d);
        self.monitor.check(Invariant::DegreeBound, e, degree_ok, || {
            format!("a member's degree deviates from d = {d}")
        });
        let n = self.overlay.members().len().max(1);
        let stale = self.overlay.members().iter().filter(|&&v| dead.contains(v)).count();
        self.monitor.check(Invariant::StaleBound, e, stale * 2 <= n, || {
            format!("{stale} of {n} members crashed or desynchronized")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::churndos::overlay::{ChurnDosOverlay, ChurnDosParams};
    use crate::config::SamplingParams;
    use crate::dos::overlay::{DosOverlay, DosParams};
    use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};
    use overlay_adversary::dos::{DosAdversary, DosStrategy};
    use overlay_adversary::lateness::TopologySnapshot;
    use std::sync::Arc;

    fn sched(seed: u64, loss: f64, hazard: f64, recover: Option<u64>) -> FaultSchedule {
        FaultSchedule::new(seed, loss, hazard, recover, 0.1)
    }

    /// Three epochs of a runner under a null schedule against the plain
    /// round loop over `plain`, both attacked by a 2t-late group-targeted
    /// blocker at `bound`: the overlay's own step under the adversary's
    /// block set, with `epoch_start` run before the attacker observes each
    /// epoch's first round. Equal digests every round, equal run totals,
    /// nothing healed.
    fn assert_plain_loop<O: HealableOverlay, L: Layer<O>>(
        runner: impl Fn() -> FaultyRunner<O, L>,
        mut plain: O,
        bound: f64,
        mut epoch_start: impl FnMut(&mut O),
        digest: fn(&O) -> u64,
    ) {
        let t = plain.epoch_len();
        let attacker = || DosAdversary::new(DosStrategy::GroupTargeted, bound, 2 * t, 5);
        let mut reference = attacker();
        let mut want = DosRunMetrics { n: plain.len(), ..DosRunMetrics::default() };
        let mut digests = Vec::new();
        for _ in 0..3 * t {
            if plain.round() % t == 0 {
                epoch_start(&mut plain);
            }
            let (round, n) = (plain.round(), plain.len());
            reference.observe(plain.snapshot(round));
            want.absorb(plain.step_overlay(&reference.block(round, n)));
            digests.push(digest(&plain));
        }
        want.epochs = plain.epochs();
        let mut whole = runner();
        assert_eq!(whole.run(&mut attacker(), 3 * t), want);
        let s = whole.stats();
        assert_eq!(
            (s.crashes, s.desync_events, s.evictions, s.rejoins, s.retries),
            (0, 0, 0, 0, 0)
        );
        let (mut stepped, mut adv) = (runner(), attacker());
        for (round, want) in digests.into_iter().enumerate() {
            stepped.round_timed(&mut adv, |_| {});
            assert_eq!(digest(&stepped.overlay), want, "round {round}");
        }
    }

    #[test]
    fn faultless_schedule_is_the_identity() {
        // Healing on reproduces the plain loop while nobody is blocked;
        // healing off (the paper model) does so under attack too.
        for (healing, bound) in [(true, 0.0), (false, 0.3)] {
            let dos = || DosOverlay::new(512, DosParams::default(), 1);
            let runner =
                || FaultyRunner::new(dos(), FaultSchedule::none(), Default::default(), healing);
            assert_plain_loop(runner, dos(), bound, |_| {}, DosOverlay::state_digest);
            let cd = || ChurnDosOverlay::new(600, ChurnDosParams::default(), 1);
            let runner =
                || FaultyRunner::new(cd(), FaultSchedule::none(), Default::default(), healing);
            assert_plain_loop(runner, cd(), bound, |_| {}, ChurnDosOverlay::state_digest);
        }
        // The churn layer against `apply_churn` at each epoch's start.
        let cd = || ChurnDosOverlay::new(600, ChurnDosParams::default(), 2);
        let churn = || ChurnSchedule::new(ChurnStrategy::Random, 1.3, 0.5, 100_000);
        let rng = || simnet::rng::stream(2, 1, 1);
        let runner = || FaultyRunner::paper_model(cd()).with_churn(churn(), rng());
        let (mut schedule, mut rng) = (churn(), rng());
        let epoch_start = |ov: &mut ChurnDosOverlay| {
            let event = schedule.next(&ov.members(), &mut rng);
            ov.apply_churn(&event);
        };
        assert_plain_loop(runner, cd(), 0.3, epoch_start, ChurnDosOverlay::state_digest);
    }

    #[test]
    fn healing_survives_loss_and_crashes() {
        let ov = DosOverlay::new(512, DosParams::default(), 2);
        let epoch_len = ov.epoch_len();
        let mut runner = FaultyRunner::new(
            ov,
            sched(3, 0.25, 0.001, Some(2 * epoch_len)),
            HealingParams::default(),
            true,
        )
        .with_dos_bound(0.3);
        let mut adv = DosAdversary::new(DosStrategy::Random, 0.3, 2 * epoch_len, 5);
        runner.run(&mut adv, 6 * epoch_len);
        assert_eq!(runner.monitor.count(Invariant::Connectivity), 0, "{}", runner.monitor.report());
        assert_eq!(runner.monitor.count(Invariant::GroupSizeBand), 0);
        let s = runner.stats();
        assert!(s.desync_events > 0, "loss at 0.25 must desync someone");
        assert!(s.resyncs > 0, "retries must succeed sometimes");
    }

    #[test]
    fn no_healing_control_degrades() {
        // Same fault pressure, no healing: desync is sticky, corpses stay
        // members, and the stale-membership bound must eventually fall.
        let ov = DosOverlay::new(512, DosParams::default(), 2);
        let epoch_len = ov.epoch_len();
        let mut runner =
            FaultyRunner::new(ov, sched(3, 0.35, 0.002, None), HealingParams::default(), false);
        let mut adv = DosAdversary::new(DosStrategy::Random, 0.3, 2 * epoch_len, 5);
        runner.run(&mut adv, 10 * epoch_len);
        assert!(!runner.monitor.ok(), "control run should violate an invariant");
        assert_eq!(runner.stats().retries, 0, "control must not heal");
    }

    #[test]
    fn recovered_node_rejoins_via_join_path() {
        // Crash one era long enough for the heartbeat to evict, then watch
        // the node rejoin after recovery.
        let ov = ChurnDosOverlay::new(600, ChurnDosParams::default(), 3);
        let epoch_len = ov.epoch_len();
        let params = HealingParams { heartbeat_epochs: 1, ..HealingParams::default() };
        let mut runner =
            FaultyRunner::new(ov, sched(11, 0.0, 0.004, Some(4 * epoch_len)), params, true);
        for _ in 0..8 * epoch_len {
            runner.step(&BlockSet::none());
        }
        let s = runner.stats();
        assert!(s.crashes > 0, "hazard 0.004 over 8 epochs must crash someone");
        assert!(s.evictions > 0, "1-epoch heartbeat must evict crashed members");
        assert!(s.rejoins > 0, "recovered nodes must rejoin");
        assert!(runner.monitor.count(Invariant::Connectivity) == 0, "{}", runner.monitor.report());
    }

    #[test]
    fn retry_exhaustion_fires_exactly_at_the_cap() {
        // attempts == max_retries is the first exhausted attempt — not one
        // earlier, not one later.
        let params = HealingParams { heartbeat_epochs: 3, max_retries: 3, backoff_base: 1 };
        let mut t = HealthTracker::new(params);
        let v = NodeId(7);
        t.mark_desynced(&[v], 0);
        // Attempts 1 and 2 fail: still backing off (rounds far apart, so
        // every attempt is due).
        for k in 1..3u64 {
            let out = t.retry_due(100 * k, || false);
            assert!(
                matches!(out[..], [(w, false, RetryOutcome::Backoff)] if w == v),
                "attempt {k} of 3 must back off"
            );
        }
        // Attempt 3 == max_retries: exhausted even though it also failed,
        // and the member is forgotten.
        assert!(matches!(t.retry_due(300, || false)[..], [(_, false, RetryOutcome::Exhausted)]));
        assert_eq!(t.stats.exhausted, 1);
        assert_eq!(t.stats.retries, 3);
        assert_eq!(t.desynced_len(), 0);
        // A success on the final attempt resyncs instead of exhausting.
        let mut t2 = HealthTracker::new(params);
        t2.mark_desynced(&[v], 0);
        let _ = t2.retry_due(100, || false);
        let _ = t2.retry_due(200, || false);
        assert!(matches!(t2.retry_due(300, || true)[..], [(_, true, RetryOutcome::Resynced)]));
        assert_eq!(t2.stats.exhausted, 0);
        assert_eq!(t2.desynced_len(), 0);
    }

    #[test]
    fn backoff_doubles_per_attempt() {
        let params = HealingParams { heartbeat_epochs: 3, max_retries: 5, backoff_base: 2 };
        let mut t = HealthTracker::new(params);
        let v = NodeId(1);
        t.mark_desynced(&[v], 10);
        // The rounds at which an attempt is made, every attempt failing.
        let attempted: Vec<u64> =
            (10..30).filter(|&round| !t.retry_due(round, || false).is_empty()).collect();
        // First retry due at 10 + base; failed attempt k reschedules
        // base << k rounds out: 12 + (2 << 1), then 16 + (2 << 2).
        assert_eq!(attempted, [12, 16, 24]);
    }

    #[test]
    fn double_eviction_is_a_noop_everywhere() {
        use crate::healing::HealableOverlay as _;
        // DosOverlay: evicting an evicted (now unknown) node changes nothing.
        let mut dos = DosOverlay::new(256, DosParams::default(), 4);
        let victim = dos.members_sorted()[0];
        dos.evict(victim);
        let digest = dos.state_digest();
        let n = dos.len();
        dos.evict(victim);
        assert_eq!((dos.len(), dos.state_digest()), (n, digest));

        // ChurnDosOverlay likewise.
        let mut cd = ChurnDosOverlay::new(600, ChurnDosParams::default(), 4);
        let victim = cd.members()[0];
        cd.evict(victim);
        let digest = cd.state_digest();
        cd.evict(victim);
        assert_eq!(cd.state_digest(), digest);

        // ExpanderOverlay: pending-leave dedup plus non-member no-op.
        let mut ex = ExpanderOverlay::new(16, 8, crate::config::SamplingParams::default(), 4);
        let victim = ex.members()[0];
        ex.evict(victim);
        let digest = ex.state_digest();
        ex.evict(victim);
        assert_eq!(ex.state_digest(), digest);
        ex.evict(NodeId(999_999)); // never a member
        assert_eq!(ex.state_digest(), digest);
    }

    #[test]
    fn rejoin_racing_a_fresh_crash_does_not_double_enqueue() {
        // A node is evicted, rejoins, and "crashes + rejoins" again within
        // the same epoch: the join path must hold exactly one entry for it,
        // and a rejoin of a still-standing member must be a no-op.
        let mut cd = ChurnDosOverlay::new(600, ChurnDosParams::default(), 5);
        let v = cd.members()[0];
        cd.evict(v);
        cd.rejoin(v);
        let digest = cd.state_digest();
        cd.rejoin(v); // second rejoin in the same epoch: already pending
        assert_eq!(cd.state_digest(), digest);
        let member = cd.members()[0];
        cd.rejoin(member); // still a member: no-op
        assert_eq!(cd.state_digest(), digest);

        let mut ex = ExpanderOverlay::new(16, 8, crate::config::SamplingParams::default(), 5);
        let v = ex.members()[0];
        ex.evict(v);
        ex.rejoin(v);
        let digest = ex.state_digest();
        ex.rejoin(v);
        assert_eq!(ex.state_digest(), digest);
        let staying = *ex.members().iter().find(|u| **u != v).unwrap();
        ex.rejoin(staying);
        assert_eq!(ex.state_digest(), digest);

        // DosOverlay rejoins immediately; a member rejoin must not draw RNG
        // or double-insert.
        let mut dos = DosOverlay::new(256, DosParams::default(), 5);
        use crate::healing::HealableOverlay as _;
        let v = dos.members_sorted()[0];
        dos.evict(v);
        dos.rejoin(v);
        let digest = dos.state_digest();
        let n = dos.len();
        dos.rejoin(v);
        assert_eq!((dos.len(), dos.state_digest()), (n, digest));
    }

    #[test]
    fn telemetry_mirrors_healing_stats_and_violations() {
        let ov = DosOverlay::new(512, DosParams::default(), 2);
        let epoch_len = ov.epoch_len();
        let tel = Telemetry::new(telemetry::Config::default());
        let mut runner = FaultyRunner::new(
            ov,
            sched(3, 0.25, 0.001, Some(2 * epoch_len)),
            HealingParams::default(),
            true,
        )
        .with_telemetry(tel.clone());
        let mut adv = DosAdversary::new(DosStrategy::Random, 0.3, 2 * epoch_len, 5);
        runner.run(&mut adv, 6 * epoch_len);
        let snap = tel.snapshot();
        let s = runner.stats();
        assert_eq!(snap.counter("heal.events{what=retry}"), s.retries);
        assert_eq!(snap.counter("heal.events{what=resync}"), s.resyncs);
        assert_eq!(snap.counter("heal.events{what=crash}"), s.crashes);
        assert!(s.retries > 0, "loss at 0.25 must trigger retries");
        let (events, _) = tel.events();
        let retry_events = events.iter().filter(|e| e.kind == EventKind::RetryAttempt).count();
        assert!(retry_events > 0);
        // The healing phase was profiled (work-free but entered each round).
        let prof = tel.profile();
        assert_eq!(prof.stat(Phase::Healing).enters, 6 * epoch_len);
        assert_eq!(prof.stat(Phase::Monitor).enters, 6 * epoch_len);
        // Violations mirror into the monitor counters 1:1.
        assert_eq!(snap.counters.keys().filter(|k| k.starts_with("monitor.")).count(), 0);
        assert!(runner.monitor.ok(), "{}", runner.monitor.report());
    }

    #[test]
    fn backoff_caps_the_exponential() {
        let b = Backoff::capped(2, 16);
        assert_eq!(b.delay(0), 2);
        assert_eq!(b.delay(2), 8);
        assert_eq!(b.delay(3), 16);
        assert_eq!(b.delay(40), 16, "capped");
        assert_eq!(Backoff::uncapped(1).delay(3), 8);
        assert_eq!(Backoff::uncapped(1).delay(200), u64::MAX, "overflow saturates");
        assert_eq!(Backoff::uncapped(0).delay(0), 1, "base floored to 1");
        // Shifting past the top bit saturates instead of wrapping to zero.
        assert_eq!(Backoff::capped(2, 64).delay(63), 64);
        assert_eq!(Backoff::uncapped(1).delay(63), 1 << 63);
        assert_eq!(Backoff::uncapped(3).delay(63), u64::MAX);
    }

    #[test]
    fn backoff_never_falls_as_attempts_grow() {
        for base in 1..=5 {
            for b in [Backoff::uncapped(base), Backoff::capped(base, 64)] {
                for attempt in 0..70 {
                    assert!(b.delay(attempt + 1) >= b.delay(attempt), "{b:?} at {attempt}");
                }
            }
        }
    }

    /// Asks `ov` for its snapshot and checks it against `last`: a new `Arc`
    /// exactly when `changed`, observed in the current round, and equal
    /// field for field to the snapshot a checkpoint copy of `ov` (which has
    /// nothing cached) builds in the round the shared one was built in.
    fn next_snapshot<O: HealableOverlay + simnet::Checkpoint>(
        ov: &O,
        last: &mut SharedSnapshot,
        changed: bool,
        what: &str,
    ) {
        let snap = ov.snapshot(ov.round());
        assert_eq!(!Arc::ptr_eq(&snap.topo, &last.topo), changed, "{what}: a new snapshot?");
        assert_eq!(snap.round, ov.round(), "{what}: observation round");
        let fresh = O::load(&ov.save()).expect("checkpoint round trip").snapshot(snap.topo.round);
        let fields = |t: &TopologySnapshot| {
            (t.round, t.nodes.clone(), t.edges.clone(), t.groups.clone(), t.group_edges.clone())
        };
        assert_eq!(fields(&snap.topo), fields(&fresh.topo), "{what}: stale snapshot");
        *last = snap;
    }

    /// Every kind of structural change rebuilds the shared snapshot; quiet
    /// rounds, no-op evictions and failed epochs keep the same `Arc`.
    fn shared_snapshot_follows_structure<O: HealableOverlay + simnet::Checkpoint>(
        mut ov: O,
        rejoin_changes: bool,
    ) {
        let none = BlockSet::none();
        let victim = ov.members_sorted()[3];
        let mut last = ov.snapshot(ov.round());
        next_snapshot(&ov, &mut last, false, "asked twice");
        ov.step_overlay(&none);
        next_snapshot(&ov, &mut last, false, "a quiet round");
        ov.evict(victim);
        next_snapshot(&ov, &mut last, true, "eviction");
        ov.evict(victim);
        next_snapshot(&ov, &mut last, false, "evicting a non-member");
        ov.rejoin(victim);
        next_snapshot(&ov, &mut last, rejoin_changes, "rejoin");
        while ov.round() % ov.epoch_len() != ov.epoch_len() - 1 {
            ov.step_overlay(&none);
            next_snapshot(&ov, &mut last, false, "mid-epoch round");
        }
        ov.step_overlay(&none);
        assert_eq!(ov.failed_epochs(), 0);
        next_snapshot(&ov, &mut last, true, "resample");
        // Everyone blocked: the epoch fails and keeps its structure.
        let all = BlockSet::from_iter(ov.members_sorted());
        for _ in 0..ov.epoch_len() {
            ov.step_overlay(&all);
            next_snapshot(&ov, &mut last, false, "starved round");
        }
        assert_eq!(ov.failed_epochs(), 1);
        // A loaded checkpoint starts with nothing cached and shares from
        // then on.
        let loaded = O::load(&ov.save()).expect("checkpoint round trip");
        let mut from_load = loaded.snapshot(loaded.round());
        assert!(!Arc::ptr_eq(&from_load.topo, &last.topo), "nothing cached in a checkpoint");
        assert_eq!((&from_load.nodes, &from_load.groups), (&last.nodes, &last.groups));
        next_snapshot(&loaded, &mut from_load, false, "after load");
    }

    #[test]
    fn dos_snapshot_is_rebuilt_after_each_structural_change_only() {
        let mut ov = DosOverlay::new(256, DosParams::default(), 12);
        let mut last = ov.snapshot(ov.round());
        assert_eq!(
            ov.admit(NodeId(1 << 40), None),
            Some(ov.grouped().supernode_of(NodeId(1 << 40)).unwrap())
        );
        next_snapshot(&ov, &mut last, true, "admit");
        assert_eq!(ov.admit(NodeId(1 << 40), Some(0)), None);
        next_snapshot(&ov, &mut last, false, "admitting a member");
        shared_snapshot_follows_structure(ov, true);
    }

    #[test]
    fn churndos_snapshot_is_rebuilt_after_each_structural_change_only() {
        // A rejoin waits for the next reconfiguration: the groups, and so
        // the snapshot, stay as they are until the resample.
        shared_snapshot_follows_structure(
            ChurnDosOverlay::new(600, ChurnDosParams::default(), 12),
            false,
        );
    }

    #[test]
    fn force_crash_and_return_round_trip() {
        let ov = DosOverlay::new(256, DosParams::default(), 6);
        let mut runner =
            FaultyRunner::new(ov, sched(1, 0.0, 0.0, None), HealingParams::default(), true);
        let v = runner.overlay.members_sorted()[0];
        assert!(!runner.down.contains(v));
        runner.force_crash(v);
        assert!(runner.down.contains(v));
        let crashes = runner.stats().crashes;
        runner.force_crash(v); // idempotent
        assert_eq!(runner.stats().crashes, crashes);
        // Still a member (nothing evicted it): it returns desynchronized.
        assert_eq!(runner.return_node(v), Some(false));
        assert!(!runner.down.contains(v));
        assert_eq!(runner.desynced_len(), 1);
        assert!(runner.force_resync(v));
        assert_eq!(runner.desynced_len(), 0);
        assert!(!runner.force_resync(v), "second resync is a no-op");
        // Returning a node that is not down is ignored.
        assert_eq!(runner.return_node(v), None);
    }

    #[test]
    fn returning_an_evicted_victim_rejoins_and_abandon_forgets() {
        let ov = DosOverlay::new(256, DosParams::default(), 7);
        let epoch_len = ov.epoch_len();
        let mut runner =
            FaultyRunner::new(ov, sched(2, 0.0, 0.0, None), HealingParams::default(), true);
        let members = runner.overlay.members_sorted();
        let (a, b) = (members[0], members[1]);
        runner.force_crash(a);
        runner.force_crash(b);
        // Stay down past the heartbeat timeout so both are evicted.
        for _ in 0..4 * epoch_len {
            runner.step(&BlockSet::none());
        }
        assert!(runner.was_evicted_while_down(a), "3-epoch heartbeat must evict");
        let n = runner.overlay.len();
        assert_eq!(runner.return_node(a), Some(true));
        assert_eq!(runner.overlay.len(), n + 1);
        assert!(runner.stats().rejoins >= 1);
        // Abandoning the other leaves it gone for good.
        runner.abandon(b);
        assert!(!runner.down.contains(b));
        assert_eq!(runner.overlay.len(), n + 1);
        assert_eq!(runner.return_node(b), None);
    }

    #[test]
    fn widened_heartbeat_tolerates_longer_silence() {
        // Same crash, same silence; factor 4 outlives a timeout that the
        // default factor 1 does not.
        let run = |factor: u64| {
            let ov = DosOverlay::new(256, DosParams::default(), 8);
            let epoch_len = ov.epoch_len();
            let mut runner =
                FaultyRunner::new(ov, sched(3, 0.0, 0.0, None), HealingParams::default(), true);
            runner.set_heartbeat_factor(factor);
            let v = runner.overlay.members_sorted()[0];
            runner.force_crash(v);
            for _ in 0..4 * epoch_len {
                runner.step(&BlockSet::none());
            }
            runner.was_evicted_while_down(v)
        };
        assert!(run(1), "default heartbeat evicts after 3 epochs of silence");
        assert!(!run(4), "widened heartbeat (12 epochs) must not");
    }

    #[test]
    fn expander_healing_beats_control() {
        let mk = || ExpanderOverlay::new(64, 8, SamplingParams::default(), 4);
        let mut healed =
            ExpanderFaultRun::new(mk(), sched(7, 0.3, 0.01, None), HealingParams::default(), true);
        let mut control =
            ExpanderFaultRun::new(mk(), sched(7, 0.3, 0.01, None), HealingParams::default(), false);
        for _ in 0..8 {
            healed.run_epoch();
            control.run_epoch();
        }
        assert_eq!(
            healed.monitor.count(Invariant::Connectivity)
                + healed.monitor.count(Invariant::DegreeBound),
            0,
            "{}",
            healed.monitor.report()
        );
        // Healing resolves desync (resync or evict); the control's is
        // sticky and accumulates.
        assert!(healed.stats.resyncs > 0, "retries must land sometimes");
        assert!(control.desynced_len() > healed.desynced_len());
        assert!(
            !control.monitor.ok(),
            "sticky desync plus corpses must break an invariant: {}",
            control.monitor.report()
        );
    }
}

#[cfg(test)]
mod tracker_diff;
