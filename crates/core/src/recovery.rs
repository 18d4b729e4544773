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
//!   caller suspends sampling/app probes via [`Catastrophes::shedding`])
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
//! The three pieces are one [`Layer`] of [`FaultyRunner`]'s round,
//! [`Catastrophes`], added with [`FaultyRunner::with_catastrophes`]: it
//! opens the round (events, admission, partition sides) and closes it
//! (missed resamples, the mode machine). Everything is digest-neutral when
//! inactive: with a null schedule the layer draws nothing, transitions
//! nowhere (streaks are tracked, modes only move when `enabled`), and the
//! round runs under the adversary's block set untouched.

use crate::healing::{Backoff, FaultyRunner, HealableOverlay, Layer};
use crate::metrics::DosRoundMetrics;
use overlay_adversary::knobs::{parse_knob, KnobError, KnobReason};
use simnet::rng::NodeRng;
use simnet::{BlockSet, BurstSchedule, IdRun, IdSet, NodeId};
use std::collections::VecDeque;
use telemetry::EventKind;

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
    /// Defaults overridden by validated environment knobs; see
    /// [`Self::parse_knobs`].
    pub fn from_env() -> Result<Self, KnobError> {
        Self::parse_knobs(|name| std::env::var(name).ok())
    }

    /// Defaults overridden by the knobs `raw` returns a value for:
    /// `RECOVERY_HYSTERESIS` (exit hysteresis, `[1, 100000]`),
    /// `SAFEMODE_AFTER` (`[1, 10000]`), `SAFEMODE_HEARTBEAT_FACTOR`
    /// (`[1, 64]`), `STORM_ADMIT_RATE` and `STORM_ADMIT_BURST`
    /// (`[1, 1000000]`, burst >= rate). Invalid or out-of-range values
    /// are rejected with a named error, never clamped.
    pub fn parse_knobs(raw: impl Fn(&str) -> Option<String>) -> Result<Self, KnobError> {
        let knob = |name: &str, default: u64, hi: u64| {
            parse_knob(name, raw(name).as_deref(), default, 1, hi)
        };
        let mut p = Self::default();
        p.exit_hysteresis = knob("RECOVERY_HYSTERESIS", p.exit_hysteresis, 100_000)?;
        p.safe_after = knob("SAFEMODE_AFTER", p.safe_after, 10_000)?;
        p.safe_heartbeat_factor = knob("SAFEMODE_HEARTBEAT_FACTOR", p.safe_heartbeat_factor, 64)?;
        p.admit_rate = knob("STORM_ADMIT_RATE", p.admit_rate, 1_000_000)?;
        p.admit_burst = knob("STORM_ADMIT_BURST", p.admit_burst, 1_000_000)?;
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

/// The catastrophe layer of a [`FaultyRunner`] round: burst injection, the
/// recovery mode machine, storm admission and partition-heal
/// reconciliation. [`FaultyRunner::with_catastrophes`] adds it.
///
/// `enabled = false` is the control arm: the same bursts and partitions
/// are injected (streaks are even tracked, so time-to-recover is
/// measurable), but the mode machine never leaves Normal, no work is
/// shed, heartbeats stay narrow, and a rejoiner rejected at the join
/// capacity is permanently orphaned instead of retrying.
pub struct Catastrophes {
    schedule: BurstSchedule,
    params: RecoveryParams,
    enabled: bool,
    mode: RecoveryMode,
    unhealthy_streak: u64,
    healthy_streak: u64,
    transitions: Vec<(u64, RecoveryMode)>,
    arrivals: IdRun<Arrival>,
    tokens: u64,
    resync_queue: VecDeque<NodeId>,
    partitions: Vec<ActivePartition>,
    jitter: NodeRng,
    stats: RecoveryStats,
    /// Burst crashes actually injected, per round — the raw material of a
    /// catastrophe repro trace.
    crash_log: Vec<(u64, Vec<NodeId>)>,
}

impl Catastrophes {
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
}

impl<O: HealableOverlay> FaultyRunner<O> {
    /// Add the catastrophe layer: `schedule`'s bursts and partitions, with
    /// the recovery protocol on (`enabled`) or as the control arm. `seed`
    /// keys the retry-jitter stream (conventionally the same seed that
    /// keyed the schedule).
    pub fn with_catastrophes(
        self,
        schedule: BurstSchedule,
        params: RecoveryParams,
        enabled: bool,
        seed: u64,
    ) -> FaultyRunner<O, Catastrophes> {
        self.with_layer(Catastrophes {
            schedule,
            params,
            enabled,
            mode: RecoveryMode::Normal,
            unhealthy_streak: 0,
            healthy_streak: 0,
            transitions: Vec::new(),
            arrivals: IdRun::default(),
            tokens: params.admit_burst,
            resync_queue: VecDeque::new(),
            partitions: Vec::new(),
            jitter: simnet::rng::stream(seed, JITTER_STREAM, JITTER_PURPOSE),
            stats: RecoveryStats::default(),
            crash_log: Vec::new(),
        })
    }
}

impl<O: HealableOverlay> Layer<O> for Catastrophes {
    /// Fire due catastrophe events, admit arrivals, and compose active
    /// partition sides into the block set.
    fn open(r: &mut FaultyRunner<O, Self>, round: u64, blocked: &BlockSet) -> Option<BlockSet> {
        r.apply_due_events(round);

        // SafeMode flips to Recovering the moment drain work is due — the
        // admission gate below runs in the same round.
        let c = &r.layer;
        if c.enabled && c.mode == RecoveryMode::SafeMode {
            let work_due =
                !c.resync_queue.is_empty() || c.arrivals.values().iter().any(|a| a.due <= round);
            if work_due {
                r.goto(round, RecoveryMode::Recovering);
            }
        }

        r.process_arrivals(round);

        let partitions = &r.layer.partitions;
        (!partitions.is_empty()).then(|| {
            let mut eff = blocked.clone();
            for p in partitions {
                eff.union_with(&p.side);
            }
            eff
        })
    }

    /// Count resamples the partitioned sides missed, and advance the mode
    /// machine.
    fn close(r: &mut FaultyRunner<O, Self>, m: &DosRoundMetrics) {
        if r.overlay.clock().closed_epoch() == Some(true) {
            for p in &mut r.layer.partitions {
                p.resamples += 1;
            }
        }
        if r.layer.shedding() {
            r.layer.stats.shed_rounds += 1;
        }
        r.update_mode(m.round);
    }
}

impl<O: HealableOverlay> FaultyRunner<O, Catastrophes> {
    fn goto(&mut self, round: u64, mode: RecoveryMode) {
        if mode == self.layer.mode {
            return;
        }
        self.layer.mode = mode;
        self.layer.transitions.push((round, mode));
        if self.tel.enabled() {
            self.tel.counter("recovery.mode_transitions", &[("to", mode.name())]).inc();
            self.tel.emit(round, EventKind::ModeTransition, None, 0, || mode.name().to_string());
        }
        let safe = self.layer.params.safe_heartbeat_factor;
        match mode {
            RecoveryMode::SafeMode => self.set_heartbeat_factor(safe),
            RecoveryMode::Normal => self.set_heartbeat_factor(1),
            _ => {}
        }
    }

    /// Fire due schedule events: bursts crash their victims and queue the
    /// storm arrivals; partitions draw their side; heals reconcile.
    fn apply_due_events(&mut self, round: u64) {
        for idx in self.layer.schedule.bursts_due(round) {
            let members = self.overlay.members_sorted();
            let snap = self.overlay.snapshot(round);
            let victims =
                self.layer.schedule.draw_burst(idx, &members, &snap.groups, &snap.group_edges);
            let mut crashed = Vec::with_capacity(victims.len());
            let mut arrivals = Vec::with_capacity(victims.len());
            for (v, back) in victims {
                self.force_crash(v);
                arrivals
                    .push((v, Arrival { due: back, attempts: 0, kind: ArrivalKind::CrashReturn }));
                crashed.push(v);
            }
            self.layer.arrivals.put_all(IdRun::from_unsorted(arrivals).expect("distinct victims"));
            self.layer.stats.bursts_fired += 1;
            if self.tel.enabled() {
                self.tel.counter("recovery.bursts", &[]).add(crashed.len() as u64);
            }
            self.layer.crash_log.push((round, crashed));
        }
        for idx in self.layer.schedule.partitions_due(round) {
            let members = self.overlay.members_sorted();
            let side = self.layer.schedule.draw_partition_side(idx, &members);
            let heal_at = self.layer.schedule.partitions()[idx].heal_at;
            self.layer.partitions.push(ActivePartition { side, heal_at, resamples: 0 });
        }

        let (healing_now, keep): (Vec<_>, _) = std::mem::take(&mut self.layer.partitions)
            .into_iter()
            .partition(|p| p.heal_at <= round);
        self.layer.partitions = keep;
        for p in healing_now {
            self.layer.stats.partitions_healed += 1;
            let members = IdSet::from(self.overlay.members_sorted());
            let mut orphans = Vec::new();
            for v in p.side.iter() {
                if members.contains(v) {
                    // Still a member. If reconfiguration resampled while it
                    // was cut off, its view of the structure is stale:
                    // reconcile instead of letting staleness fester.
                    if p.resamples > 0 {
                        self.mark_desynced_now(v);
                        if self.layer.enabled {
                            self.layer.resync_queue.push_back(v);
                        }
                    }
                } else {
                    // Evicted during the window: orphaned on the minority
                    // side. Reconciliation re-runs the join path for it,
                    // queued for this round's capacity gate (where the
                    // control's losers are orphaned for good).
                    orphans.push((
                        v,
                        Arrival { due: round, attempts: 0, kind: ArrivalKind::OrphanJoin },
                    ));
                }
            }
            self.layer.arrivals.put_all(IdRun::from_unsorted(orphans).expect("a side is a set"));
        }
    }

    /// Process due arrivals through the admission gate and drain the
    /// reconciliation queue.
    fn process_arrivals(&mut self, round: u64) {
        let c = &mut self.layer;
        let (params, enabled) = (c.params, c.enabled);
        c.tokens = (c.tokens + params.admit_rate).min(params.admit_burst);
        let mut join_budget = params.join_capacity;

        let due: Vec<(NodeId, Arrival)> =
            c.arrivals.entries().filter(|(_, a)| a.due <= round).map(|(v, &a)| (v, a)).collect();
        // Admitted and abandoned arrivals, ascending; dropped in one walk.
        let mut settled = Vec::new();
        for (v, a) in due {
            let needs_join = a.kind == ArrivalKind::OrphanJoin || self.was_evicted_while_down(v);
            if !needs_join {
                // Crash victim still on the membership: its return is a
                // free desynchronized comeback — healing resyncs it.
                let out = self.return_node(v);
                debug_assert_ne!(out, Some(true));
                settled.push(v);
                self.layer.stats.admitted += 1;
                continue;
            }
            // The control arm has no admission protocol: first-come joins
            // up to the capacity, and everyone else holds a stale
            // introducer pointer and is permanently orphaned.
            if join_budget > 0 && (self.layer.tokens > 0 || !enabled) {
                if enabled {
                    self.layer.tokens -= 1;
                }
                join_budget -= 1;
                match a.kind {
                    ArrivalKind::CrashReturn => {
                        let out = self.return_node(v);
                        debug_assert_eq!(out, Some(true));
                    }
                    ArrivalKind::OrphanJoin => self.overlay.rejoin(v),
                }
                settled.push(v);
                self.layer.stats.admitted += 1;
                if enabled && self.tel.enabled() {
                    self.tel.counter("recovery.admitted", &[]).inc();
                }
            } else if enabled {
                // Rejected: capped exponential backoff plus seeded
                // jitter *proportional to the delay* (each retry is
                // spread over a window as wide as its own backoff).
                // Constant jitter would leave a rejected flash crowd
                // in lockstep — everyone sleeps the capped delay,
                // wakes in the same round, loses again, and the
                // admission slot idles between herd arrivals.
                let backoff = Backoff::capped(params.retry_base, params.retry_cap);
                let c = &mut self.layer;
                let entry = c.arrivals.get_mut(v).expect("arrival exists");
                let delay = backoff.delay(entry.attempts);
                let jit = {
                    use rand::RngExt;
                    c.jitter.random_range(0..=delay)
                };
                entry.due = round + 1 + delay + jit;
                entry.attempts += 1;
                c.stats.rejected += 1;
                if self.tel.enabled() {
                    self.tel.counter("recovery.rejected", &[]).inc();
                }
            } else {
                self.abandon(v);
                settled.push(v);
                self.layer.stats.orphaned += 1;
            }
        }
        self.layer.arrivals.remove_all(settled);

        // Reconciliation resyncs are a reliable exchange, rate-limited by
        // the same refill rate (they spend no join capacity — the member
        // never left).
        let drain = (params.admit_rate as usize).min(self.layer.resync_queue.len());
        for _ in 0..drain {
            if let Some(v) = self.layer.resync_queue.pop_front() {
                if self.force_resync(v) {
                    self.layer.stats.reconciled += 1;
                    if self.tel.enabled() {
                        self.tel.counter("recovery.reconciled", &[]).inc();
                    }
                }
            }
        }
    }

    /// Post-step health bookkeeping and mode transitions.
    fn update_mode(&mut self, round: u64) {
        let healthy = self.monitor.healthy_round();
        let c = &mut self.layer;
        if healthy {
            c.healthy_streak += 1;
            c.unhealthy_streak = 0;
        } else {
            c.unhealthy_streak += 1;
            c.healthy_streak = 0;
        }
        if !c.enabled {
            return;
        }
        use RecoveryMode::{Degraded, Normal, Recovering, SafeMode};
        let (p, bad, good) = (c.params, c.unhealthy_streak, c.healthy_streak);
        let drained = c.arrivals.is_empty() && c.resync_queue.is_empty();
        let next = match c.mode {
            Normal if bad >= p.degraded_after => Degraded,
            Degraded if bad >= p.degraded_after + p.safe_after => SafeMode,
            Degraded if good >= p.exit_hysteresis => Normal,
            SafeMode | Recovering if drained && good >= p.exit_hysteresis => Normal,
            mode => mode,
        };
        self.goto(round, next);
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
            FaultSchedule::none(),
            HealingParams::default(),
            true,
        )
    }

    #[test]
    fn null_schedule_is_digest_neutral() {
        // Recovery plumbing compiled in but inactive == bare runner,
        // digest for digest, with zero transitions.
        let mut bare = mk_runner(5);
        let mut wrapped = mk_runner(5).with_catastrophes(
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
        assert_eq!(bare.overlay.state_digest(), wrapped.overlay.state_digest());
        assert!(wrapped.layer().transitions().is_empty());
        assert_eq!(wrapped.layer().mode(), RecoveryMode::Normal);
        let s = wrapped.layer().stats();
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
        let mut r = mk_runner(9).with_catastrophes(schedule, RecoveryParams::default(), true, 9);
        let n0 = r.overlay.len();
        for _ in 0..6 * epoch_len {
            r.step(&BlockSet::none());
        }
        let s = r.layer().stats();
        assert_eq!(s.bursts_fired, 1);
        assert!(s.admitted > 0, "storm victims must come back");
        assert_eq!(r.layer().pending_arrivals(), 0, "storm fully drained");
        assert_eq!(s.orphaned, 0, "recovery arm never orphans");
        assert_eq!(r.overlay.len(), n0, "membership restored");
        assert_eq!(r.layer().crash_trace().len(), 1);
        assert!(!r.layer().crash_trace()[0].1.is_empty());
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
        let mut r = mk_runner(11).with_catastrophes(schedule, RecoveryParams::default(), true, 11);
        for _ in 0..16 * epoch_len {
            r.step(&BlockSet::none());
        }
        let modes: Vec<RecoveryMode> = r.layer().transitions().iter().map(|&(_, m)| m).collect();
        assert!(modes.contains(&RecoveryMode::Degraded), "transitions: {modes:?}");
        assert_eq!(r.layer().mode(), RecoveryMode::Normal, "must settle back: {modes:?}");
        assert!(r.layer().healthy_streak() >= RecoveryParams::default().exit_hysteresis);
        assert!(r.layer().stats().shed_rounds > 0 || !modes.contains(&RecoveryMode::SafeMode));
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
        let mut control = mk_runner(13).with_catastrophes(schedule, tight, false, 13);
        let n0 = control.overlay.len();
        for _ in 0..12 * epoch_len {
            control.step(&BlockSet::none());
        }
        let s = control.layer().stats();
        assert_eq!(control.layer().transitions().len(), 0, "control never changes mode");
        assert!(s.orphaned > 0, "overflow beyond join capacity must orphan");
        assert!(control.overlay.len() < n0, "membership stays short");
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
        let mut r = mk_runner(17).with_catastrophes(schedule, RecoveryParams::default(), true, 17);
        for _ in 0..8 * epoch_len {
            r.step(&BlockSet::none());
        }
        let s = r.layer().stats();
        assert_eq!(s.partitions_healed, 1);
        assert!(s.reconciled > 0, "minority side missed resamples and must reconcile");
        assert_eq!(s.orphaned, 0);
        assert_eq!(r.desynced_len(), 0, "reconciliation drains");
    }

    #[test]
    fn from_env_rejects_bad_knobs() {
        // Raw values through the same parse path `from_env` takes; no env
        // mutation.
        let parse = |knobs: &[(&str, &str)]| {
            let knobs: Vec<(String, String)> =
                knobs.iter().map(|&(k, v)| (k.to_string(), v.to_string())).collect();
            RecoveryParams::parse_knobs(|name| {
                knobs.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone())
            })
        };
        let d = RecoveryParams::default();
        let p = parse(&[]).unwrap();
        assert_eq!((p.exit_hysteresis, p.admit_rate, p.admit_burst), (d.exit_hysteresis, 2, 4));
        let p = parse(&[("STORM_ADMIT_RATE", "3"), ("SAFEMODE_AFTER", "7")]).unwrap();
        assert_eq!((p.admit_rate, p.safe_after), (3, 7));
        let err = parse(&[("RECOVERY_HYSTERESIS", "0")]).unwrap_err();
        assert_eq!(err.reason, KnobReason::OutOfRange { lo: 1, hi: 100_000 });
        let err = parse(&[("SAFEMODE_HEARTBEAT_FACTOR", "65")]).unwrap_err();
        assert_eq!(err.name, "SAFEMODE_HEARTBEAT_FACTOR");
        let err = parse(&[("STORM_ADMIT_BURST", "lots")]).unwrap_err();
        assert_eq!(err.reason, KnobReason::NotAnInteger);
        // The cross-field burst >= rate constraint, named on the burst.
        let err = parse(&[("STORM_ADMIT_RATE", "8"), ("STORM_ADMIT_BURST", "2")]).unwrap_err();
        assert_eq!((err.name.as_str(), err.value.as_str()), ("STORM_ADMIT_BURST", "2"));
        assert_eq!(err.reason, KnobReason::OutOfRange { lo: 8, hi: 1_000_000 });
        assert!(parse(&[("STORM_ADMIT_RATE", "8"), ("STORM_ADMIT_BURST", "8")]).is_ok());
    }
}
