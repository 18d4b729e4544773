//! The healing-state differential: [`HealthTracker`] and the crashed-node
//! bookkeeping of [`FaultyRunner`] as they were before they became sorted
//! runs — `BTreeMap`/`BTreeSet` staleness, retries, desync set, `down` map
//! and `evicted_while_down` set, driven by the same round loop — kept here,
//! verbatim, as the oracle, against the runs, over seeded histories of
//! crashes, recoveries, broadcast losses, retries, staleness evictions and
//! the recovery layer's hooks.

use super::*;
use crate::churndos::overlay::{ChurnDosOverlay, ChurnDosParams};
use crate::dos::overlay::{DosOverlay, DosParams};
use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use rand::RngExt;
use std::collections::{BTreeMap, BTreeSet};

#[derive(Clone, Debug)]
struct RetryState {
    attempts: u32,
    next_due: u64,
}

/// Per-member failure-detection state: staleness counters and retry
/// schedules.
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
    staleness: BTreeMap<NodeId, u64>,
    /// Members currently re-requesting the assignment.
    retries: BTreeMap<NodeId, RetryState>,
    /// Members that missed a reconfiguration broadcast and have not yet
    /// recovered the current structure.
    desynced: BTreeSet<NodeId>,
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
            staleness: BTreeMap::new(),
            retries: BTreeMap::new(),
            desynced: BTreeSet::new(),
            stats: HealingStats::default(),
        }
    }

    /// Record that `v` missed a reconfiguration broadcast. With healing,
    /// this schedules its first re-request; without, the desync is sticky.
    fn mark_desynced(&mut self, v: NodeId, round: u64, healing: bool) {
        if self.desynced.insert(v) {
            self.stats.desync_events += 1;
        }
        if healing {
            self.retries
                .entry(v)
                .or_insert(RetryState { attempts: 0, next_due: round + self.backoff_base });
        }
    }

    /// Members currently desynchronized (sorted).
    pub fn desynced(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.desynced.iter().copied()
    }

    /// Number of desynchronized members.
    pub fn desynced_len(&self) -> usize {
        self.desynced.len()
    }

    /// Members whose next re-request is due at `round` (sorted).
    fn due_retries(&self, round: u64) -> Vec<NodeId> {
        self.retries.iter().filter(|(_, s)| s.next_due <= round).map(|(&v, _)| v).collect()
    }

    /// Account one re-request attempt for `v`.
    fn note_retry(&mut self, v: NodeId, round: u64, success: bool) -> RetryOutcome {
        self.stats.retries += 1;
        let state = self.retries.get_mut(&v).expect("retry state exists");
        state.attempts += 1;
        if success {
            self.retries.remove(&v);
            self.desynced.remove(&v);
            self.stats.resyncs += 1;
            RetryOutcome::Resynced
        } else if state.attempts >= self.max_retries {
            self.stats.exhausted += 1;
            RetryOutcome::Exhausted
        } else {
            state.next_due = round + Backoff::uncapped(self.backoff_base).delay(state.attempts);
            RetryOutcome::Backoff
        }
    }

    /// Resynchronize `v` out of band (e.g. the recovery layer's
    /// reconciliation delivered the assignment reliably). Returns whether
    /// `v` was actually desynchronized.
    fn resync(&mut self, v: NodeId) -> bool {
        let was = self.desynced.remove(&v);
        if was {
            self.retries.remove(&v);
            self.stats.resyncs += 1;
        }
        was
    }

    /// Bump epoch-granularity staleness counters: `silent` holds the
    /// members that produced no heartbeat this epoch. Members in an active
    /// retry exchange are being healed, not suspected — their counters do
    /// not advance. Returns the members whose silence outlived the timeout
    /// (the caller evicts them). Both lists ascend, so one cursor into
    /// `silent` answers every membership question.
    fn observe_epoch(&mut self, members: &[NodeId], silent: &[NodeId]) -> Vec<NodeId> {
        let mut evict = Vec::new();
        let mut at = 0;
        for &v in members {
            while at < silent.len() && silent[at] < v {
                at += 1;
            }
            if silent.get(at) == Some(&v) && !self.retries.contains_key(&v) {
                let c = self.staleness.entry(v).or_insert(0);
                *c += 1;
                if *c >= self.timeout_epochs.saturating_mul(self.timeout_factor.max(1)) {
                    evict.push(v);
                }
            } else {
                self.staleness.remove(&v);
            }
        }
        for v in &evict {
            self.forget(*v);
        }
        evict
    }

    /// Drop all state about `v` (evicted or crashed).
    fn forget(&mut self, v: NodeId) {
        self.staleness.remove(&v);
        self.retries.remove(&v);
        self.desynced.remove(&v);
    }
}

/// Drives a round-stepped overlay through a composite fault schedule with
/// (or, as a control, without) self-healing, checking the invariants every
/// round.
pub struct FaultyRunner<O: HealableOverlay> {
    /// The overlay under test.
    pub overlay: O,
    schedule: FaultSchedule,
    tracker: HealthTracker,
    /// Per-round invariant verdicts.
    pub monitor: InvariantMonitor,
    healing: bool,
    /// Declared adversary budget, checked as the blocking-budget invariant.
    dos_bound: Option<f64>,
    /// Crashed nodes -> recovery round (`u64::MAX` = crash-stop).
    down: BTreeMap<NodeId, u64>,
    /// Crashed nodes whose membership was evicted while they were down;
    /// always a subset of `down`'s keys.
    evicted_while_down: BTreeSet<NodeId>,
    /// The round's effective block set, rebuilt in place every step.
    eff: BlockSet,
    /// Pure observability: mirrors the healing protocol's decisions as
    /// events and `heal.*` counters; never consulted by the protocol.
    tel: Telemetry,
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
            down: BTreeMap::new(),
            evicted_while_down: BTreeSet::new(),
            eff: BlockSet::none(),
            tel: Telemetry::disabled(),
        }
    }

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

    // -- recovery-layer hooks ------------------------------------------------
    //
    // The catastrophic-recovery layer (`crate::recovery`) owns *when* burst
    // victims crash and return; these hooks let it act through the same
    // bookkeeping the schedule-driven path uses, so stats, telemetry and
    // digests stay coherent. None of them is called on the ordinary path —
    // a runner that never sees them behaves bit-identically to before.

    /// Crash-stop `v` right now (burst injection). The node stays down
    /// until [`Self::return_node`] or [`Self::abandon`]; the internal
    /// schedule-driven recovery never fires for it. No-op when `v` is
    /// already down.
    pub fn force_crash(&mut self, v: NodeId) {
        if self.down.contains_key(&v) {
            return;
        }
        let round = self.overlay.round();
        self.down.insert(v, u64::MAX);
        self.tracker.stats.crashes += 1;
        self.tracker.forget(v);
        self.heal_event(round, EventKind::Crash, "crash", v, u64::MAX);
    }

    /// Return a crashed node to the overlay: a rejoin if its membership
    /// was evicted while it was down, otherwise a desynchronized comeback
    /// (its state is lost either way). `None` when `v` was not down, else
    /// whether it went through the join path. The caller — not the
    /// healing flag — decides that the join happens; use
    /// [`Self::abandon`] for the no-recovery arm's rejected joiners.
    pub fn return_node(&mut self, v: NodeId) -> Option<bool> {
        self.down.remove(&v)?;
        let round = self.overlay.round();
        if self.evicted_while_down.remove(&v) {
            self.overlay.rejoin(v);
            self.tracker.stats.rejoins += 1;
            self.heal_event(round, EventKind::Rejoin, "rejoin", v, 0);
            Some(true)
        } else {
            self.tracker.mark_desynced(v, round, self.healing);
            self.heal_event(round, EventKind::Desync, "desync", v, 0);
            Some(false)
        }
    }

    /// Forget a crashed node entirely: it neither returns nor rejoins
    /// (a permanently orphaned storm victim in the no-recovery control).
    pub fn abandon(&mut self, v: NodeId) {
        self.down.remove(&v);
        self.evicted_while_down.remove(&v);
        self.tracker.forget(v);
    }

    /// Mark a live member desynchronized right now (partition-heal: the
    /// minority side missed reconfigurations during the window).
    pub fn mark_desynced_now(&mut self, v: NodeId) {
        let round = self.overlay.round();
        self.tracker.mark_desynced(v, round, self.healing);
        self.heal_event(round, EventKind::Desync, "desync", v, 2);
    }

    /// Resynchronize a member out of band (reconciliation delivered the
    /// assignment reliably). Returns whether it was desynchronized.
    pub fn force_resync(&mut self, v: NodeId) -> bool {
        let was = self.tracker.resync(v);
        if was {
            self.heal_event(self.overlay.round(), EventKind::Resync, "resync", v, 1);
        }
        was
    }

    /// Widen (or restore) the heartbeat timeout: silence is tolerated for
    /// `factor * heartbeat_epochs` epochs. SafeMode sets this above 1 so
    /// storm victims due back shortly are not evicted mid-storm.
    pub fn set_heartbeat_factor(&mut self, factor: u64) {
        self.tracker.timeout_factor = factor.max(1);
    }

    /// Is `v` currently crashed?
    pub fn is_down(&self, v: NodeId) -> bool {
        self.down.contains_key(&v)
    }

    /// Was the crashed `v`'s membership evicted while it was down (so a
    /// return needs the join path)?
    pub fn was_evicted_while_down(&self, v: NodeId) -> bool {
        self.evicted_while_down.contains(&v)
    }

    /// The declared adversary blocking budget, if any.
    pub fn dos_bound(&self) -> Option<f64> {
        self.dos_bound
    }

    /// Is the self-healing layer active (vs the degradation control)?
    pub fn healing_enabled(&self) -> bool {
        self.healing
    }

    /// Execute one round: inject recoveries and fresh crashes, run the
    /// healing protocol, step the overlay under the *effective* block set
    /// (adversary ∪ crashed ∪ desynced — a desynchronized node cannot
    /// participate: it does not know the current structure), then draw
    /// reconfiguration-broadcast losses if an epoch boundary resampled,
    /// and feed the invariant monitor.
    pub fn step(&mut self, dos_blocked: &BlockSet) -> DosRoundMetrics {
        let round = self.overlay.round(); // round about to execute
        let epochs_before = self.overlay.epochs();
        let failed_before = self.overlay.failed_epochs();
        let healing_phase = self.tel.phase(Phase::Healing);

        // Crash-recoveries due this round.
        let due: Vec<NodeId> =
            self.down.iter().filter(|&(_, &r)| r <= round).map(|(&v, _)| v).collect();
        for v in due {
            self.down.remove(&v);
            if self.evicted_while_down.remove(&v) {
                // Its membership is gone; only healing re-admits it.
                if self.healing {
                    self.overlay.rejoin(v);
                    self.tracker.stats.rejoins += 1;
                    self.heal_event(round, EventKind::Rejoin, "rejoin", v, 0);
                }
            } else {
                // Still a member, but its state is lost: it no longer
                // knows the current group structure.
                self.tracker.mark_desynced(v, round, self.healing);
                self.heal_event(round, EventKind::Desync, "desync", v, 0);
            }
        }

        // Fresh crashes among live members.
        let members = self.overlay.members_sorted();
        let up: Vec<NodeId> =
            difference(members.iter().copied(), self.down.keys().copied()).collect();
        for v in self.schedule.draw_crashes(&up, members.len()) {
            let back = self.schedule.recover_after().map_or(u64::MAX, |k| round + k);
            self.down.insert(v, back);
            self.tracker.stats.crashes += 1;
            // Whatever retry conversation it had is lost with its state.
            self.tracker.forget(v);
            self.heal_event(round, EventKind::Crash, "crash", v, back);
        }

        if self.healing {
            // Due re-requests: each attempt is one message exchange,
            // itself subject to loss.
            for v in self.tracker.due_retries(round) {
                let success = !self.schedule.lose_message();
                self.heal_event(round, EventKind::RetryAttempt, "retry", v, u64::from(success));
                match self.tracker.note_retry(v, round, success) {
                    RetryOutcome::Resynced => {
                        self.heal_event(round, EventKind::Resync, "resync", v, 0);
                    }
                    RetryOutcome::Backoff => {}
                    RetryOutcome::Exhausted => {
                        self.tracker.forget(v);
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
                    if self.down.contains_key(&v) {
                        self.evicted_while_down.insert(v);
                    }
                    self.heal_event(round, EventKind::Eviction, "eviction", v, 1);
                }
            }
        }
        drop(healing_phase);

        // Effective silence: adversary blocking plus crashed plus
        // desynchronized members.
        let mut eff = std::mem::take(&mut self.eff);
        eff.assign(self.silenced(dos_blocked));
        let m = self.overlay.step_overlay(&eff);

        // If the boundary just resampled (epochs advanced, no new failed
        // epoch), every live member must learn its fresh assignment; each
        // broadcast is subject to loss. A failed epoch keeps the stale
        // structure, so there is nothing new to miss — and nothing that
        // would resynchronize anyone either.
        if self.overlay.epochs() > epochs_before && self.overlay.failed_epochs() == failed_before {
            let members = self.overlay.members_sorted();
            let live: Vec<NodeId> = difference(members, self.down.keys().copied()).collect();
            for v in live {
                if self.schedule.lose_message() {
                    self.tracker.mark_desynced(v, m.round, self.healing);
                    self.heal_event(m.round, EventKind::Desync, "desync", v, 1);
                }
            }
        }

        let monitor_phase = self.tel.phase(Phase::Monitor);
        self.monitor.begin_round();
        self.monitor.check(Invariant::Connectivity, m.round, m.connected, || {
            format!("effective block set of {} silences a cut", eff.len())
        });
        self.monitor.check(Invariant::Availability, m.round, m.min_group_available > 0, || {
            "a group has no available member".to_string()
        });
        let structure = self.overlay.structure_violation();
        self.monitor.check(Invariant::GroupSizeBand, m.round, structure.is_none(), || {
            structure.clone().unwrap_or_default()
        });
        // Crashed nodes that are still members: `evicted_while_down` only
        // ever holds keys of `down`.
        debug_assert!(self.evicted_while_down.iter().all(|v| self.down.contains_key(v)));
        let stale = self.tracker.desynced_len() + self.down.len() - self.evicted_while_down.len();
        let n_now = self.overlay.len().max(1);
        self.monitor.check(Invariant::StaleBound, m.round, stale * 2 <= n_now, || {
            format!("{stale} of {n_now} members crashed or desynchronized")
        });
        self.eff = eff;
        drop(monitor_phase);
        m
    }

    /// Everyone silent this round, ascending: adversary blocking plus
    /// crashed plus desynchronized members, the three sorted runs merged in
    /// one pass.
    fn silenced<'a>(&'a self, dos_blocked: &'a BlockSet) -> impl Iterator<Item = NodeId> + 'a {
        union(union(dos_blocked.iter(), self.down.keys().copied()), self.tracker.desynced())
    }

    /// Drive the overlay against any [`Attacker`] — oblivious or adaptive —
    /// for `rounds` rounds, judging the blocking budget against the
    /// population the adversary was shown.
    pub fn run<A: Attacker>(&mut self, adversary: &mut A, rounds: u64) {
        for _ in 0..rounds {
            let (round, n) = (self.overlay.round(), self.overlay.len());
            adversary.observe(self.overlay.snapshot(round));
            let blocked = adversary.act(round, n).blocked;
            if let Some(bound) = self.dos_bound {
                self.monitor.check_budget(round, &blocked, bound, n);
            }
            self.step(&blocked);
        }
    }
}

/// What one call of either runner may have changed, compared field by
/// field: every accessor, the runs against the maps, the overlay, the
/// monitor and the telemetry each runner recorded.
fn assert_same<O: HealableOverlay>(
    ctx: &str,
    new: &super::FaultyRunner<O>,
    old: &FaultyRunner<O>,
    digest: fn(&O) -> u64,
    probes: &[NodeId],
) {
    assert_eq!(format!("{:?}", new.stats()), format!("{:?}", old.stats()), "{ctx}: stats");
    assert_eq!(new.down_len(), old.down_len(), "{ctx}: down_len");
    assert_eq!(new.desynced_len(), old.desynced_len(), "{ctx}: desynced_len");
    assert_eq!(new.dos_bound, old.dos_bound(), "{ctx}: dos_bound");
    assert_eq!(new.healing, old.healing_enabled(), "{ctx}: healing_enabled");
    for &v in probes {
        assert_eq!(new.down.contains(v), old.is_down(v), "{ctx}: is_down({v:?})");
        let (n, o) = (new.was_evicted_while_down(v), old.was_evicted_while_down(v));
        assert_eq!(n, o, "{ctx}: was_evicted_while_down({v:?})");
    }
    let down: Vec<(NodeId, u64, bool)> =
        old.down.iter().map(|(&v, &b)| (v, b, old.evicted_while_down.contains(&v))).collect();
    let runs: Vec<(NodeId, u64, bool)> =
        new.down.entries().map(|(v, d)| (v, d.back, d.evicted)).collect();
    assert_eq!(runs, down, "{ctx}: down");
    let (t, r) = (&new.tracker, &old.tracker);
    assert_eq!(t.desynced().collect::<Vec<_>>(), r.desynced().collect::<Vec<_>>(), "{ctx}");
    let staleness: Vec<_> = t.staleness.entries().map(|(v, &c)| (v, c)).collect();
    assert_eq!(staleness, r.staleness.iter().map(|(&v, &c)| (v, c)).collect::<Vec<_>>(), "{ctx}");
    // With healing on every desynced member re-requests; with it off the
    // schedules the runs carry are never read, and the reference has none.
    let retries: Vec<_> = r.retries.iter().map(|(v, s)| (*v, s.attempts, s.next_due)).collect();
    if new.healing {
        let runs: Vec<_> = t.desynced.entries().map(|(v, s)| (v, s.attempts, s.next_due)).collect();
        assert_eq!(runs, retries, "{ctx}: retries");
    } else {
        assert!(retries.is_empty(), "{ctx}: no retries without healing");
    }
    assert_eq!(t.timeout_factor, r.timeout_factor, "{ctx}: timeout factor");
    assert_eq!(digest(&new.overlay), digest(&old.overlay), "{ctx}: overlay");
    assert_eq!(new.overlay.members_sorted(), old.overlay.members_sorted(), "{ctx}: members");
    let (m, n) = (&new.monitor, &old.monitor);
    assert_eq!((m.total(), m.rounds()), (n.total(), n.rounds()), "{ctx}: monitor");
    for inv in [
        Invariant::Connectivity,
        Invariant::Availability,
        Invariant::GroupSizeBand,
        Invariant::StaleBound,
        Invariant::BlockingBudget,
    ] {
        assert_eq!(m.count(inv), n.count(inv), "{ctx}: {inv:?}");
    }
}

/// Counts of what the seeded histories exercised (the coverage floors).
#[derive(Default, Debug)]
struct Seen {
    rounds: u64,
    crashes: u64,
    rejoins: u64,
    desyncs: u64,
    retries: u64,
    backoffs: u64,
    exhausted: u64,
    stale_evictions: u64,
    returned: [u64; 3],
    forced_crashes: u64,
    abandoned: u64,
    marked: u64,
    resynced: [u64; 2],
    factors: u64,
    foreign_counters: u64,
}

/// How a history hands a churn event to its overlay (`ChurnDosOverlay`
/// only: the other overlays take no churn).
type ApplyChurn<O> = fn(&mut O, &overlay_adversary::churn::ChurnEvent);

/// One seeded history, driven through both runners in lockstep.
fn history<O: HealableOverlay>(
    case: u64,
    mk: impl Fn() -> O,
    digest: fn(&O) -> u64,
    mut churn: Option<(&mut ChurnSchedule, ApplyChurn<O>)>,
    seen: &mut Seen,
) {
    let mut rng = simnet::rng::stream(0x7EA1_D1FF, case, 0x4EA1);
    let healing = case % 5 != 4;
    let params = HealingParams {
        heartbeat_epochs: rng.random_range(1..=3),
        max_retries: rng.random_range(1..=4),
        backoff_base: rng.random_range(1..=3),
    };
    let epoch_len = mk().epoch_len();
    let loss = [0.0, 0.1, 0.3, 0.6][rng.random_range(0..4usize)];
    let hazard = [0.0, 0.01, 0.04][rng.random_range(0..3usize)];
    let recover = rng.random_bool(0.7).then(|| rng.random_range(1..3 * epoch_len));
    let max_frac = [0.1, 0.3, 0.6][rng.random_range(0..3usize)];
    let schedule = || FaultSchedule::new(case ^ 0x5EED, loss, hazard, recover, max_frac);
    let tel = || Telemetry::new(telemetry::Config { events_cap: 1 << 20, ..Default::default() });
    let (tel_new, tel_old) = (tel(), tel());
    let mut new = super::FaultyRunner::new(mk(), schedule(), params, healing)
        .with_dos_bound(0.3)
        .with_telemetry(tel_new.clone());
    let mut old = FaultyRunner::new(mk(), schedule(), params, healing)
        .with_dos_bound(0.3)
        .with_telemetry(tel_old.clone());
    let adversary = || DosAdversary::new(DosStrategy::GroupTargeted, 0.3, epoch_len, case);
    let (mut adv_new, mut adv_old) = (adversary(), adversary());
    let mut probes: Vec<NodeId> = old.overlay.members_sorted();
    probes.extend([NodeId(1 << 40), NodeId(u64::MAX)]);

    for round in 0..rng.random_range(3..7) * epoch_len {
        let ctx = format!("case {case} round {round}");
        if let Some((schedule, apply)) = churn.as_mut() {
            if round % epoch_len == 1 {
                let ev = schedule.next(&old.overlay.members_sorted(), &mut rng);
                apply(&mut new.overlay, &ev);
                apply(&mut old.overlay, &ev);
                probes.extend(ev.joins.iter().map(|j| j.new_node));
            }
        }
        // The recovery layer's hooks, on members, on crashed nodes and on
        // ids nobody knows.
        for _ in 0..rng.random_range(0..3) {
            let members = old.overlay.members_sorted();
            let down: Vec<NodeId> = old.down.keys().copied().collect();
            let desynced: Vec<NodeId> = old.tracker.desynced().collect();
            let pick = |from: &[NodeId], rng: &mut simnet::rng::NodeRng| match from {
                [] => NodeId(1 << 40),
                _ if rng.random_bool(0.1) => probes[rng.random_range(0..probes.len())],
                _ => from[rng.random_range(0..from.len())],
            };
            match rng.random_range(0..6) {
                0 => {
                    let v = pick(&members, &mut rng);
                    seen.forced_crashes += u64::from(!old.is_down(v));
                    new.force_crash(v);
                    old.force_crash(v);
                }
                1 => {
                    let v = pick(&down, &mut rng);
                    let outcome = old.return_node(v);
                    assert_eq!(new.return_node(v), outcome, "{ctx}: return_node({v:?})");
                    seen.returned[outcome.map_or(2, usize::from)] += 1;
                }
                2 => {
                    let v = pick(&down, &mut rng);
                    seen.abandoned += u64::from(old.is_down(v));
                    new.abandon(v);
                    old.abandon(v);
                }
                3 => {
                    let v = pick(&members, &mut rng);
                    new.mark_desynced_now(v);
                    old.mark_desynced_now(v);
                    seen.marked += 1;
                }
                4 => {
                    let v = pick(&desynced, &mut rng);
                    let was = old.force_resync(v);
                    assert_eq!(new.force_resync(v), was, "{ctx}: force_resync({v:?})");
                    seen.resynced[usize::from(was)] += 1;
                }
                _ => {
                    let factor = rng.random_range(0..4);
                    new.set_heartbeat_factor(factor);
                    old.set_heartbeat_factor(factor);
                    seen.factors += 1;
                }
            }
            assert_same(&format!("{ctx} (hook)"), &new, &old, digest, &probes);
        }
        if rng.random_bool(0.5) {
            new.run(&mut adv_new, 1);
            old.run(&mut adv_old, 1);
        } else {
            // Scattered blocking, now and then a whole group starved.
            let members = old.overlay.members_sorted();
            let density = [0.0, 0.1, 0.3][rng.random_range(0..3usize)];
            let mut blocked: Vec<NodeId> =
                members.iter().copied().filter(|_| rng.random_bool(density)).collect();
            if rng.random_bool(0.1) {
                blocked.extend(members.iter().copied().filter(|v| v.raw() % 7 == round % 7));
            }
            let blocked = BlockSet::from_iter(blocked);
            let m = old.step(&blocked);
            assert_eq!(format!("{:?}", new.step(&blocked)), format!("{m:?}"), "{ctx}: metrics");
        }
        assert_same(&ctx, &new, &old, digest, &probes);
        let members = old.overlay.members_sorted();
        seen.foreign_counters +=
            old.tracker.staleness.keys().filter(|v| members.binary_search(v).is_err()).count()
                as u64;
        seen.rounds += 1;
    }
    assert_eq!(tel_new.events(), tel_old.events(), "case {case}: telemetry events");
    let s = old.stats();
    seen.crashes += s.crashes;
    seen.rejoins += s.rejoins;
    seen.desyncs += s.desync_events;
    seen.retries += s.retries;
    seen.exhausted += s.exhausted;
    seen.stale_evictions += s.evictions - s.exhausted;
    let (events, _) = tel_old.events();
    let failed =
        events.iter().filter(|e| e.kind == EventKind::RetryAttempt && e.value == 0).count();
    seen.backoffs += failed as u64 - s.exhausted;
}

#[test]
fn sorted_runs_match_the_btree_reference() {
    let mut seen = Seen::default();
    for case in 0..60 {
        let n = 64 + 8 * (case as usize % 24);
        history(
            case,
            || DosOverlay::new(n, DosParams::default(), case),
            DosOverlay::state_digest,
            None,
            &mut seen,
        );
    }
    for case in 60..72 {
        let mut churn = ChurnSchedule::new(ChurnStrategy::Random, 1.2, 0.5, 1 << 20);
        let apply: fn(&mut ChurnDosOverlay, &_) = |ov, ev| ov.apply_churn(ev);
        let mk = || ChurnDosOverlay::new(400, ChurnDosParams::default(), case);
        history(case, mk, ChurnDosOverlay::state_digest, Some((&mut churn, apply)), &mut seen);
    }
    let s = &seen;
    assert!(s.rounds >= 3_000, "{s:?}");
    assert!(s.crashes >= 2_500 && s.rejoins >= 300 && s.desyncs >= 9_000, "{s:?}");
    assert!(s.retries >= 9_000 && s.backoffs >= 2_800 && s.exhausted >= 850, "{s:?}");
    assert!(s.stale_evictions >= 1_000, "{s:?}");
    assert!(s.returned.iter().all(|&k| k >= 45), "{s:?}");
    assert!(s.forced_crashes >= 350 && s.abandoned >= 250 && s.marked >= 350, "{s:?}");
    assert!(s.resynced.iter().all(|&k| k >= 130) && s.factors >= 400, "{s:?}");
    assert!(s.foreign_counters >= 3_000, "{s:?}");
}
