//! Catastrophic-failure recovery: beyond-budget bursts, a degraded-mode
//! state machine, and partition-heal reconciliation.
//!
//! The healing layer ([`crate::healing`]) assumes faults arrive within the
//! adversary's budget: losses and crashes trickle in, retries and
//! heartbeats absorb them, and the monitor stays green. This module is
//! about the day that assumption breaks — a rack dies, a zone partitions,
//! and a correlated slice of the overlay vanishes at once, then floods
//! back as a rejoin storm. Three pieces:
//!
//! * **burst injection** — a [`BurstSchedule`] crash-stops a seed-chosen
//!   correlated slice (whole supernode groups, or a contiguous id range)
//!   at a scheduled round, with every victim due back inside a storm
//!   window, and cuts finite-duration partitions with an explicit heal
//!   round;
//! * **the mode machine** — `Normal → Degraded → SafeMode → Recovering →
//!   Normal`, driven purely by the invariant monitor's per-round health
//!   with enter/exit hysteresis. SafeMode sheds non-essential work (the
//!   caller suspends sampling/app probes via [`RecoveryRunner::shedding`])
//!   and widens heartbeat timeouts so storm victims due back shortly are
//!   not evicted mid-storm; Recovering drains the storm through
//!   token-bucket admission with capped exponential backoff and jittered
//!   retry on rejected rejoins;
//! * **partition-heal reconciliation** — when a partition heals, minority
//!   members that missed a reconfiguration are *reconciled* (marked
//!   desynchronized, then resynchronized through a rate-limited reliable
//!   exchange) and members evicted during the window re-enter through the
//!   join path — instead of the healed half being treated as strangers.
//!
//! The central modeling line, documented in DESIGN.md §12: **the join path
//! has per-round capacity** ([`RecoveryParams::join_capacity`], the
//! introducer-handshake budget), shared by both arms. Without the recovery
//! protocol a rejoiner rejected at the storm peak holds a stale introducer
//! pointer and is *permanently orphaned*; with it, rejections back off and
//! retry until admitted. That — plus SafeMode keeping victims as members
//! so their returns need no join at all — is why the recovery arm survives
//! bursts that disconnect the control.
//!
//! Everything is digest-neutral when inactive: a [`RecoveryRunner`] with a
//! null schedule draws nothing, transitions nowhere (streaks are tracked,
//! modes only move when `enabled`), and steps the wrapped runner with the
//! adversary's block set untouched.

use crate::healing::{attack_round, Backoff, FaultyRunner, HealableOverlay, ReturnOutcome};
use crate::metrics::DosRoundMetrics;
use overlay_adversary::adaptive::Attacker;
use overlay_adversary::knobs::{env_u64_knob, KnobError, KnobReason};
use simnet::rng::NodeRng;
use simnet::{BlockSet, BurstSchedule, IdSet, NodeId};
use std::collections::{BTreeMap, VecDeque};
use telemetry::{EventKind, Telemetry};

/// Pseudo-node id keying the recovery layer's jitter stream (distinct
/// from every other reserved stream).
const JITTER_STREAM: u64 = u64::MAX - 5;
/// Purpose tag of the jitter stream.
const JITTER_PURPOSE: u64 = 0x4EC0;

/// The recovery state machine's modes, in escalation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum RecoveryMode {
    /// All invariants green; full service.
    Normal,
    /// Health has been failing for a short streak; watching.
    Degraded,
    /// Sustained failure: non-essential work is shed and heartbeat
    /// timeouts widen so the storm does not evict its own victims.
    SafeMode,
    /// Draining a rejoin storm / reconciliation queue under token-bucket
    /// admission.
    Recovering,
}

impl RecoveryMode {
    /// Stable lower-kebab name used in telemetry labels and transition
    /// streams.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryMode::Normal => "normal",
            RecoveryMode::Degraded => "degraded",
            RecoveryMode::SafeMode => "safe-mode",
            RecoveryMode::Recovering => "recovering",
        }
    }
}

/// Tuning knobs of the recovery layer.
#[derive(Clone, Copy, Debug)]
pub struct RecoveryParams {
    /// Consecutive unhealthy rounds before `Normal -> Degraded`.
    pub degraded_after: u64,
    /// *Additional* unhealthy rounds (beyond `degraded_after`) before
    /// `Degraded -> SafeMode`.
    pub safe_after: u64,
    /// Consecutive healthy rounds required to exit back to `Normal`
    /// (the `G` of the A8 time-to-recover metric).
    pub exit_hysteresis: u64,
    /// Heartbeat-timeout multiplier applied while in SafeMode/Recovering.
    pub safe_heartbeat_factor: u64,
    /// Token-bucket refill: rejoin admissions granted per round.
    pub admit_rate: u64,
    /// Token-bucket capacity (burst admissions after a quiet stretch).
    pub admit_burst: u64,
    /// Base of the capped exponential backoff on rejected rejoins.
    pub retry_base: u64,
    /// Cap on any single backoff delay, in rounds.
    pub retry_cap: u64,
    /// Joins the overlay can take per round — introducer-handshake
    /// capacity, shared by the recovery arm and the control.
    pub join_capacity: usize,
}

impl Default for RecoveryParams {
    fn default() -> Self {
        Self {
            degraded_after: 2,
            safe_after: 3,
            exit_hysteresis: 8,
            safe_heartbeat_factor: 4,
            admit_rate: 2,
            admit_burst: 4,
            retry_base: 2,
            retry_cap: 64,
            join_capacity: 4,
        }
    }
}

impl RecoveryParams {
    /// Defaults overridden by validated environment knobs:
    /// `RECOVERY_HYSTERESIS` (exit hysteresis, `[1, 100000]`),
    /// `SAFEMODE_AFTER` (`[1, 10000]`), `SAFEMODE_HEARTBEAT_FACTOR`
    /// (`[1, 64]`), `STORM_ADMIT_RATE` and `STORM_ADMIT_BURST`
    /// (`[1, 1000000]`, burst >= rate). Invalid or out-of-range values
    /// are rejected with a named error, never clamped.
    pub fn from_env() -> Result<Self, KnobError> {
        let mut p = Self::default();
        p.exit_hysteresis = env_u64_knob("RECOVERY_HYSTERESIS", p.exit_hysteresis, 1, 100_000)?;
        p.safe_after = env_u64_knob("SAFEMODE_AFTER", p.safe_after, 1, 10_000)?;
        p.safe_heartbeat_factor =
            env_u64_knob("SAFEMODE_HEARTBEAT_FACTOR", p.safe_heartbeat_factor, 1, 64)?;
        p.admit_rate = env_u64_knob("STORM_ADMIT_RATE", p.admit_rate, 1, 1_000_000)?;
        p.admit_burst = env_u64_knob("STORM_ADMIT_BURST", p.admit_burst, 1, 1_000_000)?;
        if p.admit_burst < p.admit_rate {
            // A bucket smaller than its refill silently discards tokens —
            // reject it as out of band rather than quietly throttling.
            return Err(KnobError {
                name: "STORM_ADMIT_BURST".into(),
                value: p.admit_burst.to_string(),
                reason: KnobReason::OutOfRange { lo: p.admit_rate as usize, hi: 1_000_000 },
            });
        }
        Ok(p)
    }
}

/// Aggregate counters of one recovery run.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryStats {
    /// Rejoin/return admissions granted.
    pub admitted: u64,
    /// Admission rejections (the joiner backs off and retries).
    pub rejected: u64,
    /// Nodes permanently lost (control arm: rejected with no retry
    /// protocol).
    pub orphaned: u64,
    /// Members reconciled (resynchronized) after a partition heal.
    pub reconciled: u64,
    /// Rounds spent shedding non-essential work (SafeMode + Recovering).
    pub shed_rounds: u64,
    /// Burst events fired.
    pub bursts_fired: u64,
    /// Partitions healed.
    pub partitions_healed: u64,
}

/// Why a node is waiting in the arrival queue.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum ArrivalKind {
    /// A burst victim due back from its crash.
    CrashReturn,
    /// A node orphaned on a partition's minority side (evicted during the
    /// window) re-entering through the join path.
    OrphanJoin,
}

#[derive(Clone, Copy, Debug)]
struct Arrival {
    due: u64,
    attempts: u32,
    kind: ArrivalKind,
}

/// A partition currently in force.
struct ActivePartition {
    side: IdSet,
    heal_at: u64,
    /// Successful resamples completed while the partition was up — the
    /// minority side missed these, so a positive count means it must be
    /// reconciled at heal.
    resamples: u64,
}

/// Wraps a [`FaultyRunner`] with burst injection, the recovery mode
/// machine, storm admission and partition-heal reconciliation.
///
/// `enabled = false` is the control arm: the same bursts and partitions
/// are injected (streaks are even tracked, so time-to-recover is
/// measurable), but the mode machine never leaves Normal, no work is
/// shed, heartbeats stay narrow, and a rejoiner rejected at the join
/// capacity is permanently orphaned instead of retrying.
pub struct RecoveryRunner<O: HealableOverlay> {
    /// The wrapped healing runner (overlay and monitor are reachable
    /// through it).
    pub runner: FaultyRunner<O>,
    schedule: BurstSchedule,
    params: RecoveryParams,
    enabled: bool,
    mode: RecoveryMode,
    unhealthy_streak: u64,
    healthy_streak: u64,
    transitions: Vec<(u64, RecoveryMode)>,
    arrivals: BTreeMap<NodeId, Arrival>,
    tokens: u64,
    resync_queue: VecDeque<NodeId>,
    partitions: Vec<ActivePartition>,
    jitter: NodeRng,
    stats: RecoveryStats,
    /// Burst crashes actually injected, per round — the raw material of a
    /// catastrophe repro trace.
    crash_log: Vec<(u64, Vec<NodeId>)>,
    tel: Telemetry,
}

impl<O: HealableOverlay> RecoveryRunner<O> {
    /// Wrap `runner` under `schedule`. `seed` keys the retry-jitter
    /// stream (conventionally the same seed that keyed the schedule).
    pub fn new(
        runner: FaultyRunner<O>,
        schedule: BurstSchedule,
        params: RecoveryParams,
        enabled: bool,
        seed: u64,
    ) -> Self {
        let tokens = params.admit_burst;
        Self {
            runner,
            schedule,
            params,
            enabled,
            mode: RecoveryMode::Normal,
            unhealthy_streak: 0,
            healthy_streak: 0,
            transitions: Vec::new(),
            arrivals: BTreeMap::new(),
            tokens,
            resync_queue: VecDeque::new(),
            partitions: Vec::new(),
            jitter: simnet::rng::stream(seed, JITTER_STREAM, JITTER_PURPOSE),
            stats: RecoveryStats::default(),
            crash_log: Vec::new(),
            tel: Telemetry::disabled(),
        }
    }

    /// Attach a telemetry recorder (builder-style); propagates to the
    /// wrapped runner and monitor. Pure observability.
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        self.runner = self.runner.with_telemetry(tel.clone());
        self.tel = tel;
        self
    }

    /// Current mode.
    pub fn mode(&self) -> RecoveryMode {
        self.mode
    }

    /// The full `(round, mode)` transition stream, in order.
    pub fn transitions(&self) -> &[(u64, RecoveryMode)] {
        &self.transitions
    }

    /// Consecutive healthy rounds as of the last step.
    pub fn healthy_streak(&self) -> u64 {
        self.healthy_streak
    }

    /// Aggregate recovery counters.
    pub fn stats(&self) -> RecoveryStats {
        self.stats
    }

    /// True while non-essential work (sampling probes, app traffic)
    /// should be suspended.
    pub fn shedding(&self) -> bool {
        matches!(self.mode, RecoveryMode::SafeMode | RecoveryMode::Recovering)
    }

    /// Nodes still waiting to be admitted (pending arrivals).
    pub fn pending_arrivals(&self) -> usize {
        self.arrivals.len()
    }

    /// Burst crashes injected so far, grouped by round (repro capture).
    pub fn crash_trace(&self) -> &[(u64, Vec<NodeId>)] {
        &self.crash_log
    }

    fn goto(&mut self, round: u64, mode: RecoveryMode) {
        if mode == self.mode {
            return;
        }
        self.mode = mode;
        self.transitions.push((round, mode));
        if self.tel.enabled() {
            self.tel.counter("recovery.mode_transitions", &[("to", mode.name())]).inc();
            self.tel.emit(round, EventKind::ModeTransition, None, 0, || mode.name().to_string());
        }
        match mode {
            RecoveryMode::SafeMode => {
                self.runner.set_heartbeat_factor(self.params.safe_heartbeat_factor);
            }
            RecoveryMode::Normal => {
                self.runner.set_heartbeat_factor(1);
            }
            _ => {}
        }
    }

    /// Fire due schedule events: bursts crash their victims and queue the
    /// storm arrivals; partitions draw their side; heals reconcile.
    fn apply_due_events(&mut self, round: u64) {
        for idx in self.schedule.bursts_due(round) {
            let members = self.runner.overlay.members_sorted();
            let snap = self.runner.overlay.snapshot(round);
            let victims = self.schedule.draw_burst(idx, &members, &snap.groups, &snap.group_edges);
            let mut crashed = Vec::with_capacity(victims.len());
            for (v, back) in victims {
                self.runner.force_crash(v);
                self.arrivals
                    .insert(v, Arrival { due: back, attempts: 0, kind: ArrivalKind::CrashReturn });
                crashed.push(v);
            }
            self.stats.bursts_fired += 1;
            if self.tel.enabled() {
                self.tel.counter("recovery.bursts", &[]).add(crashed.len() as u64);
            }
            self.crash_log.push((round, crashed));
        }
        for idx in self.schedule.partitions_due(round) {
            let members = self.runner.overlay.members_sorted();
            let side = self.schedule.draw_partition_side(idx, &members);
            let heal_at = self.schedule.partitions()[idx].heal_at;
            self.partitions.push(ActivePartition { side, heal_at, resamples: 0 });
        }

        let (healing_now, keep): (Vec<_>, _) =
            std::mem::take(&mut self.partitions).into_iter().partition(|p| p.heal_at <= round);
        self.partitions = keep;
        for p in healing_now {
            self.stats.partitions_healed += 1;
            let members = IdSet::from(self.runner.overlay.members_sorted());
            for v in p.side.iter() {
                if members.contains(v) {
                    // Still a member. If reconfiguration resampled while it
                    // was cut off, its view of the structure is stale:
                    // reconcile instead of letting staleness fester.
                    if p.resamples > 0 {
                        self.runner.mark_desynced_now(v);
                        if self.enabled {
                            self.resync_queue.push_back(v);
                        }
                    }
                } else {
                    // Evicted during the window: orphaned on the minority
                    // side. Reconciliation re-runs the join path for it,
                    // queued for this round's capacity gate (where the
                    // control's losers are orphaned for good).
                    self.arrivals.insert(
                        v,
                        Arrival { due: round, attempts: 0, kind: ArrivalKind::OrphanJoin },
                    );
                }
            }
        }
    }

    /// Process due arrivals through the admission gate and drain the
    /// reconciliation queue.
    fn process_arrivals(&mut self, round: u64) {
        self.tokens = (self.tokens + self.params.admit_rate).min(self.params.admit_burst);
        let mut join_budget = self.params.join_capacity;

        let due: Vec<(NodeId, Arrival)> =
            self.arrivals.iter().filter(|(_, a)| a.due <= round).map(|(&v, &a)| (v, a)).collect();
        for (v, a) in due {
            let needs_join =
                a.kind == ArrivalKind::OrphanJoin || self.runner.was_evicted_while_down(v);
            if !needs_join {
                // Crash victim still on the membership: its return is a
                // free desynchronized comeback — healing resyncs it.
                let out = self.runner.return_node(v);
                debug_assert_ne!(out, ReturnOutcome::Rejoined);
                self.arrivals.remove(&v);
                self.stats.admitted += 1;
                continue;
            }
            // The control arm has no admission protocol: first-come joins
            // up to the capacity, and everyone else holds a stale
            // introducer pointer and is permanently orphaned.
            if join_budget > 0 && (self.tokens > 0 || !self.enabled) {
                if self.enabled {
                    self.tokens -= 1;
                }
                join_budget -= 1;
                match a.kind {
                    ArrivalKind::CrashReturn => {
                        let out = self.runner.return_node(v);
                        debug_assert_eq!(out, ReturnOutcome::Rejoined);
                    }
                    ArrivalKind::OrphanJoin => self.runner.overlay.rejoin(v),
                }
                self.arrivals.remove(&v);
                self.stats.admitted += 1;
                if self.enabled && self.tel.enabled() {
                    self.tel.counter("recovery.admitted", &[]).inc();
                }
            } else if self.enabled {
                // Rejected: capped exponential backoff plus seeded
                // jitter *proportional to the delay* (each retry is
                // spread over a window as wide as its own backoff).
                // Constant jitter would leave a rejected flash crowd
                // in lockstep — everyone sleeps the capped delay,
                // wakes in the same round, loses again, and the
                // admission slot idles between herd arrivals.
                let backoff = Backoff::capped(self.params.retry_base, self.params.retry_cap);
                let entry = self.arrivals.get_mut(&v).expect("arrival exists");
                let delay = backoff.delay(entry.attempts);
                let jit = {
                    use rand::RngExt;
                    self.jitter.random_range(0..=delay)
                };
                entry.due = round + 1 + delay + jit;
                entry.attempts += 1;
                self.stats.rejected += 1;
                if self.tel.enabled() {
                    self.tel.counter("recovery.rejected", &[]).inc();
                }
            } else {
                self.runner.abandon(v);
                self.arrivals.remove(&v);
                self.stats.orphaned += 1;
            }
        }

        // Reconciliation resyncs are a reliable exchange, rate-limited by
        // the same refill rate (they spend no join capacity — the member
        // never left).
        let drain = (self.params.admit_rate as usize).min(self.resync_queue.len());
        for _ in 0..drain {
            if let Some(v) = self.resync_queue.pop_front() {
                if self.runner.force_resync(v) {
                    self.stats.reconciled += 1;
                    if self.tel.enabled() {
                        self.tel.counter("recovery.reconciled", &[]).inc();
                    }
                }
            }
        }
    }

    /// Post-step health bookkeeping and mode transitions.
    fn update_mode(&mut self, round: u64) {
        if self.runner.monitor.healthy_round() {
            self.healthy_streak += 1;
            self.unhealthy_streak = 0;
        } else {
            self.unhealthy_streak += 1;
            self.healthy_streak = 0;
        }
        if !self.enabled {
            return;
        }
        let p = self.params;
        let drained = self.arrivals.is_empty() && self.resync_queue.is_empty();
        match self.mode {
            RecoveryMode::Normal => {
                if self.unhealthy_streak >= p.degraded_after {
                    self.goto(round, RecoveryMode::Degraded);
                }
            }
            RecoveryMode::Degraded => {
                if self.unhealthy_streak >= p.degraded_after + p.safe_after {
                    self.goto(round, RecoveryMode::SafeMode);
                } else if self.healthy_streak >= p.exit_hysteresis {
                    self.goto(round, RecoveryMode::Normal);
                }
            }
            RecoveryMode::SafeMode | RecoveryMode::Recovering => {
                if drained && self.healthy_streak >= p.exit_hysteresis {
                    self.goto(round, RecoveryMode::Normal);
                }
            }
        }
    }

    /// Execute one round: fire due catastrophe events, admit arrivals,
    /// compose active partition sides into the effective block set, step
    /// the wrapped runner, and advance the mode machine.
    pub fn step(&mut self, dos_blocked: &BlockSet) -> DosRoundMetrics {
        let round = self.runner.overlay.round();
        self.apply_due_events(round);

        // SafeMode flips to Recovering the moment drain work is due — the
        // admission gate below runs in the same round.
        if self.enabled && self.mode == RecoveryMode::SafeMode {
            let work_due =
                !self.resync_queue.is_empty() || self.arrivals.values().any(|a| a.due <= round);
            if work_due {
                self.goto(round, RecoveryMode::Recovering);
            }
        }

        self.process_arrivals(round);

        let mut eff = dos_blocked.clone();
        for p in &self.partitions {
            eff.union_with(&p.side);
        }

        let m = self.runner.step(&eff);
        if self.runner.overlay.clock().closed_epoch() == Some(true) {
            for p in &mut self.partitions {
                p.resamples += 1;
            }
        }

        if self.shedding() {
            self.stats.shed_rounds += 1;
        }
        self.update_mode(m.round);
        m
    }

    /// Drive the overlay against any [`Attacker`] for `rounds` rounds,
    /// judging the blocking budget exactly as [`FaultyRunner::run`] does.
    pub fn run<A: Attacker>(&mut self, adversary: &mut A, rounds: u64) {
        for _ in 0..rounds {
            let judge = self.runner.dos_bound().map(|bound| (&mut self.runner.monitor, bound));
            let blocked = attack_round(&self.runner.overlay, adversary, judge);
            self.step(&blocked);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dos::overlay::{DosOverlay, DosParams};
    use crate::healing::HealingParams;
    use overlay_adversary::faults::FaultSchedule;
    use simnet::{Burst, BurstTarget, TimedPartition};

    fn small_params() -> DosParams {
        DosParams { group_c: 1.0, ..DosParams::default() }
    }

    fn mk_runner(seed: u64) -> FaultyRunner<DosOverlay> {
        FaultyRunner::new(
            DosOverlay::new(256, small_params(), seed),
            FaultSchedule::new(seed, 0.0, 0.0, None, 0.1),
            HealingParams::default(),
            true,
        )
    }

    #[test]
    fn null_schedule_is_digest_neutral() {
        // Recovery plumbing compiled in but inactive == bare runner,
        // digest for digest, with zero transitions.
        let mut bare = mk_runner(5);
        let mut wrapped = RecoveryRunner::new(
            mk_runner(5),
            BurstSchedule::null(),
            RecoveryParams::default(),
            true,
            5,
        );
        let epoch_len = bare.overlay.epoch_len();
        for _ in 0..4 * epoch_len {
            bare.step(&BlockSet::none());
            wrapped.step(&BlockSet::none());
        }
        assert_eq!(bare.overlay.state_digest(), wrapped.runner.overlay.state_digest());
        assert!(wrapped.transitions().is_empty());
        assert_eq!(wrapped.mode(), RecoveryMode::Normal);
        let s = wrapped.stats();
        assert_eq!((s.admitted, s.rejected, s.orphaned, s.bursts_fired), (0, 0, 0, 0));
    }

    #[test]
    fn burst_crashes_and_storm_returns_drain() {
        let ov = DosOverlay::new(256, small_params(), 9);
        let epoch_len = ov.epoch_len();
        let schedule = BurstSchedule::new(9).with_burst(Burst {
            at: epoch_len + 1,
            frac: 0.15,
            target: BurstTarget::Groups,
            storm_window: 3,
        });
        let mut r = RecoveryRunner::new(mk_runner(9), schedule, RecoveryParams::default(), true, 9);
        let n0 = r.runner.overlay.len();
        for _ in 0..6 * epoch_len {
            r.step(&BlockSet::none());
        }
        let s = r.stats();
        assert_eq!(s.bursts_fired, 1);
        assert!(s.admitted > 0, "storm victims must come back");
        assert_eq!(r.pending_arrivals(), 0, "storm fully drained");
        assert_eq!(s.orphaned, 0, "recovery arm never orphans");
        assert_eq!(r.runner.overlay.len(), n0, "membership restored");
        assert_eq!(r.crash_trace().len(), 1);
        assert!(!r.crash_trace()[0].1.is_empty());
    }

    #[test]
    fn mode_machine_escalates_and_exits_with_hysteresis() {
        // A big group-targeted burst with a long storm must push the
        // machine through Degraded/SafeMode and back to Normal.
        let ov = DosOverlay::new(256, small_params(), 11);
        let epoch_len = ov.epoch_len();
        let schedule = BurstSchedule::new(11).with_burst(Burst {
            at: 2 * epoch_len,
            frac: 0.3,
            target: BurstTarget::Groups,
            storm_window: 4 * epoch_len,
        });
        let mut r =
            RecoveryRunner::new(mk_runner(11), schedule, RecoveryParams::default(), true, 11);
        for _ in 0..16 * epoch_len {
            r.step(&BlockSet::none());
        }
        let modes: Vec<RecoveryMode> = r.transitions().iter().map(|&(_, m)| m).collect();
        assert!(modes.contains(&RecoveryMode::Degraded), "transitions: {modes:?}");
        assert_eq!(r.mode(), RecoveryMode::Normal, "must settle back: {modes:?}");
        assert!(r.healthy_streak() >= RecoveryParams::default().exit_hysteresis);
        assert!(r.stats().shed_rounds > 0 || !modes.contains(&RecoveryMode::SafeMode));
    }

    #[test]
    fn control_arm_orphans_at_the_join_capacity() {
        // Same burst, recovery disabled, long storm so victims are
        // evicted: the flash crowd exceeds the per-round join capacity
        // and the overflow is orphaned forever.
        let ov = DosOverlay::new(256, small_params(), 13);
        let epoch_len = ov.epoch_len();
        // Storm window longer than the 3-epoch heartbeat: victims are
        // evicted while down, so every return needs a join slot.
        let schedule = BurstSchedule::new(13).with_burst(Burst {
            at: epoch_len,
            frac: 0.35,
            target: BurstTarget::Groups,
            storm_window: 5 * epoch_len,
        });
        // One join slot per round: the post-eviction tail of the storm
        // (about two victims a round) overflows it.
        let tight = RecoveryParams { join_capacity: 1, ..RecoveryParams::default() };
        let mut control = RecoveryRunner::new(mk_runner(13), schedule, tight, false, 13);
        let n0 = control.runner.overlay.len();
        for _ in 0..12 * epoch_len {
            control.step(&BlockSet::none());
        }
        let s = control.stats();
        assert_eq!(control.transitions().len(), 0, "control never changes mode");
        assert!(s.orphaned > 0, "overflow beyond join capacity must orphan");
        assert!(control.runner.overlay.len() < n0, "membership stays short");
    }

    #[test]
    fn partition_heal_reconciles_instead_of_rejoining() {
        let ov = DosOverlay::new(256, small_params(), 17);
        let epoch_len = ov.epoch_len();
        // Short partition (under the heartbeat timeout): nobody is
        // evicted, so heal must produce reconciliations and no joins.
        let schedule = BurstSchedule::new(17).with_partition(TimedPartition {
            at: epoch_len + 1,
            heal_at: 3 * epoch_len + 1,
            side_frac: 0.2,
        });
        let mut r =
            RecoveryRunner::new(mk_runner(17), schedule, RecoveryParams::default(), true, 17);
        for _ in 0..8 * epoch_len {
            r.step(&BlockSet::none());
        }
        let s = r.stats();
        assert_eq!(s.partitions_healed, 1);
        assert!(s.reconciled > 0, "minority side missed resamples and must reconcile");
        assert_eq!(s.orphaned, 0);
        assert_eq!(r.runner.desynced_len(), 0, "reconciliation drains");
    }

    #[test]
    fn from_env_rejects_bad_knobs() {
        // Pure parse-path checks (raw values, no env mutation).
        use overlay_adversary::knobs::parse_u64_knob;
        assert!(parse_u64_knob("RECOVERY_HYSTERESIS", Some("0"), 8, 1, 100_000).is_err());
        assert!(parse_u64_knob("SAFEMODE_HEARTBEAT_FACTOR", Some("65"), 4, 1, 64).is_err());
        assert_eq!(parse_u64_knob("STORM_ADMIT_RATE", Some("3"), 2, 1, 1_000_000), Ok(3));
        // The cross-field burst >= rate constraint.
        let p = RecoveryParams { admit_rate: 8, admit_burst: 2, ..RecoveryParams::default() };
        assert!(p.admit_burst < p.admit_rate, "fixture sanity");
    }
}
