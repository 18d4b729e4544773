//! Per-round invariant monitoring.
//!
//! An [`InvariantMonitor`] is fed one boolean verdict per invariant per
//! round by whatever harness drives an overlay (the self-healing runners in
//! [`crate::healing`], the fuzz tests, the benchmarks). It tolerates a
//! configurable per-invariant *grace window* — a violation is only recorded
//! once the check has failed for more than `grace` consecutive rounds — and
//! it remembers the **first** violating round together with a minimal
//! human-readable report, so a failing fuzz seed immediately tells a reader
//! *what* broke, *when*, and *how*.

use simnet::BlockSet;
use std::collections::BTreeMap;
use telemetry::{EventKind, Telemetry};

/// The invariants the harnesses track.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Invariant {
    /// The overlay (minus blocked/failed nodes) forms one connected
    /// component.
    Connectivity,
    /// Every node's degree stays within the overlay's design bound.
    DegreeBound,
    /// Every group size stays inside the permitted band.
    GroupSizeBand,
    /// Every (non-empty) group has at least one available member.
    Availability,
    /// The adversary's block set respects its declared budget.
    BlockingBudget,
    /// The fraction of members that are crashed or desynchronized stays
    /// below the stale-membership bound.
    StaleBound,
    /// Every (non-empty) group has a strict majority of honest members, so
    /// quorum-confirmed decisions cannot be forged by Byzantine members.
    HonestMajority,
    /// No single supernode group concentrates more than its fair share of
    /// Sybil identities (the Sybil concentration bound).
    SybilConcentration,
    /// Honest joiners are not eclipsed: each join epoch, at least one
    /// honest joiner reached an honest introducer.
    EclipseExposure,
}

impl Invariant {
    /// Short stable name, used in reports and experiment tables.
    pub fn name(self) -> &'static str {
        match self {
            Invariant::Connectivity => "connectivity",
            Invariant::DegreeBound => "degree-bound",
            Invariant::GroupSizeBand => "group-size-band",
            Invariant::Availability => "availability",
            Invariant::BlockingBudget => "blocking-budget",
            Invariant::StaleBound => "stale-bound",
            Invariant::HonestMajority => "honest-majority",
            Invariant::SybilConcentration => "sybil-concentration",
            Invariant::EclipseExposure => "eclipse-exposure",
        }
    }

    pub const ALL: [Invariant; 9] = [
        Invariant::Connectivity,
        Invariant::DegreeBound,
        Invariant::GroupSizeBand,
        Invariant::Availability,
        Invariant::BlockingBudget,
        Invariant::StaleBound,
        Invariant::HonestMajority,
        Invariant::SybilConcentration,
        Invariant::EclipseExposure,
    ];
}

/// One recorded violation: which invariant, at which round, with a short
/// description of the violating state.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The violated invariant.
    pub invariant: Invariant,
    /// The round the violation was recorded (after any grace window).
    pub round: u64,
    /// Minimal description of the violating state.
    pub detail: String,
}

/// Violations kept verbatim; beyond this only counters grow.
const MAX_RECORDED: usize = 32;

/// Per-round invariant monitor with grace windows and first-violation
/// reporting.
#[derive(Clone, Debug, Default)]
pub struct InvariantMonitor {
    grace: BTreeMap<Invariant, u64>,
    streak: BTreeMap<Invariant, u64>,
    counts: BTreeMap<Invariant, u64>,
    first: Option<Violation>,
    recorded: Vec<Violation>,
    rounds: u64,
    /// Pure observability; recorded violations mirror into it as
    /// [`EventKind::Violation`] events.
    tel: Telemetry,
}

impl InvariantMonitor {
    /// A monitor with no grace anywhere: every failing check is a
    /// violation.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allow `rounds` consecutive failing checks of `inv` before recording
    /// a violation (builder-style).
    pub fn with_grace(mut self, inv: Invariant, rounds: u64) -> Self {
        self.grace.insert(inv, rounds);
        self
    }

    /// Mirror recorded violations into a telemetry recorder as
    /// [`EventKind::Violation`] events plus `monitor.violations{invariant=..}`
    /// counters. Observability only: verdicts are unaffected.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.tel = tel;
    }

    /// Count a monitored round. Call once per overlay round before the
    /// round's `check` calls.
    pub fn begin_round(&mut self) {
        self.rounds += 1;
    }

    /// Feed one verdict. `detail` is only invoked when a violation is
    /// recorded, so expensive formatting costs nothing on the happy path.
    pub fn check(&mut self, inv: Invariant, round: u64, ok: bool, detail: impl FnOnce() -> String) {
        if ok {
            self.streak.insert(inv, 0);
            return;
        }
        let streak = self.streak.entry(inv).or_insert(0);
        *streak += 1;
        if *streak <= self.grace.get(&inv).copied().unwrap_or(0) {
            return;
        }
        *self.counts.entry(inv).or_insert(0) += 1;
        let v = Violation { invariant: inv, round, detail: detail() };
        self.tel.counter("monitor.violations", &[("invariant", inv.name())]).inc();
        self.tel
            .emit(round, EventKind::Violation, None, 0, || format!("{}: {}", inv.name(), v.detail));
        if self.first.is_none() {
            self.first = Some(v.clone());
        }
        if self.recorded.len() < MAX_RECORDED {
            self.recorded.push(v);
        }
    }

    /// Judge a round's block set against the declared `r`-bound, over the
    /// population `n` the adversary was given.
    pub fn check_budget(&mut self, round: u64, blocked: &BlockSet, bound: f64, n: usize) {
        self.check(Invariant::BlockingBudget, round, blocked.within_bound(bound, n), || {
            format!("{} blocked of {n} (bound {bound:.3})", blocked.len())
        });
    }

    /// True while nothing has been recorded.
    pub fn ok(&self) -> bool {
        self.first.is_none()
    }

    /// The first recorded violation, if any.
    pub fn first_violation(&self) -> Option<&Violation> {
        self.first.as_ref()
    }

    /// Recorded violations (capped; see counts for totals).
    pub fn violations(&self) -> &[Violation] {
        &self.recorded
    }

    /// Total violations recorded for `inv` (uncapped).
    pub fn count(&self, inv: Invariant) -> u64 {
        self.counts.get(&inv).copied().unwrap_or(0)
    }

    /// True when the most recent round left every checked invariant with a
    /// zero failing streak — the instantaneous "all green" signal the
    /// recovery layer keys its hysteresis on. Unlike [`Self::ok`] this
    /// forgives history: a monitor with past recorded violations is
    /// healthy again once current checks pass.
    pub fn healthy_round(&self) -> bool {
        self.streak.values().all(|&s| s == 0)
    }

    /// Consecutive failing rounds currently accumulated for `inv` (zero
    /// when its last check passed). Counts from the first failing round,
    /// i.e. inside the grace window too.
    pub fn failing_streak(&self, inv: Invariant) -> u64 {
        self.streak.get(&inv).copied().unwrap_or(0)
    }

    /// Total violations across all invariants (uncapped).
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Monitored rounds so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Minimal report: the first violation plus per-invariant totals, or a
    /// clean bill of health.
    pub fn report(&self) -> String {
        match &self.first {
            None => format!("ok: no violations in {} rounds", self.rounds),
            Some(v) => {
                let mut totals = String::new();
                for inv in Invariant::ALL {
                    let c = self.count(inv);
                    if c > 0 {
                        if !totals.is_empty() {
                            totals.push_str(", ");
                        }
                        totals.push_str(&format!("{}={}", inv.name(), c));
                    }
                }
                format!(
                    "first violation: {} at round {} ({}); totals over {} rounds: {}",
                    v.invariant.name(),
                    v.round,
                    v.detail,
                    self.rounds,
                    totals,
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_monitor_reports_ok() {
        let mut m = InvariantMonitor::new();
        for r in 0..10 {
            m.begin_round();
            m.check(Invariant::Connectivity, r, true, || unreachable!());
        }
        assert!(m.ok());
        assert_eq!(m.rounds(), 10);
        assert!(m.report().starts_with("ok:"));
    }

    #[test]
    fn first_violation_is_remembered_with_detail() {
        let mut m = InvariantMonitor::new();
        m.begin_round();
        m.check(Invariant::Connectivity, 3, false, || "2 components".into());
        m.begin_round();
        m.check(Invariant::Availability, 4, false, || "group 1 starved".into());
        let first = m.first_violation().expect("violation recorded");
        assert_eq!(first.invariant, Invariant::Connectivity);
        assert_eq!(first.round, 3);
        assert_eq!(first.detail, "2 components");
        assert_eq!(m.total(), 2);
        assert!(m.report().contains("connectivity at round 3"));
        assert!(m.report().contains("availability=1"));
    }

    #[test]
    fn grace_window_swallows_short_streaks() {
        let mut m = InvariantMonitor::new().with_grace(Invariant::Availability, 2);
        // Two failing rounds, then recovery: within grace, nothing recorded.
        for r in 0..2 {
            m.begin_round();
            m.check(Invariant::Availability, r, false, || "starved".into());
        }
        m.begin_round();
        m.check(Invariant::Availability, 2, true, || unreachable!());
        assert!(m.ok());
        // Three failing rounds in a row exceed the grace and record once
        // per round past it.
        for r in 3..6 {
            m.begin_round();
            m.check(Invariant::Availability, r, false, || "starved".into());
        }
        assert!(!m.ok());
        assert_eq!(m.first_violation().unwrap().round, 5);
        assert_eq!(m.count(Invariant::Availability), 1);
    }

    #[test]
    fn recording_is_capped_but_counts_are_not() {
        let mut m = InvariantMonitor::new();
        for r in 0..100 {
            m.begin_round();
            m.check(Invariant::DegreeBound, r, false, || format!("round {r}"));
        }
        assert_eq!(m.violations().len(), MAX_RECORDED);
        assert_eq!(m.count(Invariant::DegreeBound), 100);
        assert_eq!(m.total(), 100);
    }

    #[test]
    fn byzantine_invariants_have_stable_names() {
        // Experiment tables and fuzz reports key on these strings.
        assert_eq!(Invariant::HonestMajority.name(), "honest-majority");
        assert_eq!(Invariant::SybilConcentration.name(), "sybil-concentration");
        assert_eq!(Invariant::EclipseExposure.name(), "eclipse-exposure");
        let names: std::collections::BTreeSet<_> =
            Invariant::ALL.iter().map(|i| i.name()).collect();
        assert_eq!(names.len(), Invariant::ALL.len(), "names must be distinct");
    }

    #[test]
    fn grace_is_per_invariant() {
        let mut m = InvariantMonitor::new().with_grace(Invariant::Availability, 5);
        m.begin_round();
        m.check(Invariant::Availability, 0, false, || "starved".into());
        m.check(Invariant::Connectivity, 0, false, || "split".into());
        assert_eq!(m.count(Invariant::Availability), 0);
        assert_eq!(m.count(Invariant::Connectivity), 1);
    }

    #[test]
    fn healthy_round_tracks_current_streaks_not_history() {
        let mut m = InvariantMonitor::new().with_grace(Invariant::Availability, 3);
        assert!(m.healthy_round());
        m.begin_round();
        // A failure inside the grace window is unhealthy *now*, even
        // though nothing is recorded yet.
        m.check(Invariant::Availability, 0, false, || "starved".into());
        assert!(!m.healthy_round());
        assert_eq!(m.failing_streak(Invariant::Availability), 1);
        assert!(m.ok(), "grace swallowed the record");
        // Recovery clears the streak; history (recorded or not) is
        // forgiven.
        m.begin_round();
        m.check(Invariant::Availability, 1, true, || unreachable!());
        assert!(m.healthy_round());
        assert_eq!(m.failing_streak(Invariant::Availability), 0);
    }
}
