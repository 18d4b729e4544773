//! # telemetry — unified observability for the overlay stack
//!
//! The paper's claims are quantitative — per-node communication work
//! (Section 1.1), reconfiguration rounds (Theorem 5), congestion and
//! empty-segment bounds (Lemmas 11–12) — so the reproduction measures
//! everything through one recorder with three pillars:
//!
//! * a **metrics registry** ([`registry`]) — named counters, gauges and
//!   log-bucketed histograms with labels, an atomic hot path, and
//!   deterministic snapshot/merge for rayon workers;
//! * **structured spans and events** ([`span`]) — scoped timers plus typed
//!   protocol events (sampling, epochs, healing, violations, adversary
//!   decisions, checkpoints), ring-buffered with overflow accounting;
//! * a **round profiler** ([`profiler`]) — wall-clock and work per
//!   simulation phase (deliver/compute/send, healing, monitor, ...).
//!
//! ## The two guarantees
//!
//! **Zero overhead when disabled.** [`Telemetry::disabled`] carries no
//! state; every operation on it is a single branch, and handles vended by
//! it are no-ops. The simulation engine runs with a disabled recorder
//! unless one is attached.
//!
//! **Determinism when enabled.** With wall-clock timing off (the default)
//! every exported byte is a pure function of the run: metric keys sort
//! canonically, event sequence numbers are assigned in emission order, and
//! profiler wall-clock fields are zeroed. Telemetry is never hashed into
//! round digests and never checkpointed, so replay identity is untouched
//! either way — the CI determinism guard pins this.
//!
//! ## Env knobs
//!
//! | variable | effect |
//! |---|---|
//! | `TELEMETRY=off` | [`Telemetry::from_env`] returns the disabled recorder |
//! | `TELEMETRY_TIMING=1` | sample wall-clock in spans and phase guards |
//! | `TELEMETRY_EVENTS_CAP=N` | event ring capacity (default 4096) |
//!
//! The two switches take `1`/`on`/`true` or `0`/`off`/`false`/`none`; an
//! unset or empty variable keeps the default. Any other value is an
//! [`EnvError`] naming the variable, the value and the accepted spellings.

pub mod export;
pub mod profiler;
pub mod registry;
pub mod span;

pub use export::RunTelemetry;
pub use profiler::{Phase, PhaseStat, ProfilerSnapshot};
pub use registry::{Counter, Gauge, HistSnapshot, Histogram, Snapshot};
pub use span::{Event, EventKind};

use profiler::RoundProfiler;
use registry::Registry;
use span::EventRing;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default event-ring capacity.
pub const DEFAULT_EVENTS_CAP: usize = 4096;

/// Recorder configuration (see the crate docs for the env knobs).
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Record anything at all?
    pub enabled: bool,
    /// Sample wall-clock time in spans and phase guards. Off keeps every
    /// export byte-deterministic.
    pub timing: bool,
    /// Event ring capacity.
    pub events_cap: usize,
}

impl Default for Config {
    fn default() -> Self {
        Self { enabled: true, timing: false, events_cap: DEFAULT_EVENTS_CAP }
    }
}

impl Config {
    /// Read the `TELEMETRY*` env knobs (defaults: enabled, timing off,
    /// cap 4096). A value no spelling accepts is an [`EnvError`], never a
    /// silent default.
    pub fn from_env() -> Result<Self, EnvError> {
        Self::parse(|name| std::env::var(name).ok())
    }

    /// The configuration the knobs spell, reading each variable's raw
    /// value through `var`; an unset or empty variable keeps its default.
    pub fn parse(var: impl Fn(&'static str) -> Option<String>) -> Result<Self, EnvError> {
        let raw = |name| var(name).filter(|v| !v.is_empty());
        let switch = |name, default| match raw(name) {
            None => Ok(default),
            Some(v) => match v.as_str() {
                "1" | "on" | "true" => Ok(true),
                "0" | "off" | "false" | "none" => Ok(false),
                _ => Err(EnvError { name, value: v, accepted: SWITCH }),
            },
        };
        let (enabled, timing) = (switch("TELEMETRY", true)?, switch("TELEMETRY_TIMING", false)?);
        let name = "TELEMETRY_EVENTS_CAP";
        let events_cap = match raw(name) {
            None => DEFAULT_EVENTS_CAP,
            Some(v) => v.parse().map_err(|_| EnvError { name, value: v, accepted: COUNT })?,
        };
        Ok(Self { enabled, timing, events_cap })
    }
}

/// What the two switches accept.
const SWITCH: &str = "1, on, true (on) or 0, off, false, none (off)";
/// What `TELEMETRY_EVENTS_CAP` accepts.
const COUNT: &str = "a non-negative integer";

/// A `TELEMETRY*` variable holding a value it does not accept.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EnvError {
    /// The variable.
    pub name: &'static str,
    /// The raw value found there.
    pub value: String,
    /// The spellings the variable accepts.
    pub accepted: &'static str,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Self { name, value, accepted } = self;
        write!(f, "environment variable {name} must be {accepted}, got `{value}`")
    }
}

impl std::error::Error for EnvError {}

#[derive(Debug)]
struct Inner {
    timing: bool,
    registry: Registry,
    events: Mutex<EventRing>,
    profiler: RoundProfiler,
}

/// The recorder handle. Cloning shares the underlying collector;
/// [`Telemetry::with_labels`] derives a handle that stamps base labels on
/// every metric it registers (family, phase, node-class, ...).
#[derive(Clone, Debug, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
    labels: Vec<(String, String)>,
}

impl Telemetry {
    /// The no-op recorder: records nothing, costs one branch per call.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// An enabled collector with the given configuration.
    pub fn new(cfg: Config) -> Self {
        if !cfg.enabled {
            return Self::disabled();
        }
        Self {
            inner: Some(Arc::new(Inner {
                timing: cfg.timing,
                registry: Registry::new(),
                events: Mutex::new(EventRing::new(cfg.events_cap)),
                profiler: RoundProfiler::default(),
            })),
            labels: Vec::new(),
        }
    }

    /// An enabled, timing-off collector — the deterministic default used
    /// by instrumented runners.
    pub fn collector() -> Self {
        Self::new(Config { enabled: true, timing: false, events_cap: DEFAULT_EVENTS_CAP })
    }

    /// Recorder configured from the `TELEMETRY*` env knobs.
    pub fn from_env() -> Result<Self, EnvError> {
        Config::from_env().map(Self::new)
    }

    /// Is anything recorded at all?
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Is wall-clock timing sampled?
    pub fn timing(&self) -> bool {
        self.inner.as_ref().is_some_and(|i| i.timing)
    }

    /// A handle sharing this collector that stamps `labels` onto every
    /// metric it registers (appended to any labels the call site passes).
    pub fn with_labels(&self, labels: &[(&str, &str)]) -> Telemetry {
        let mut out = self.clone();
        out.labels.extend(labels.iter().map(|(k, v)| (k.to_string(), v.to_string())));
        out
    }

    fn merged<'a>(&'a self, labels: &'a [(&'a str, &'a str)]) -> Vec<(&'a str, &'a str)> {
        let mut all: Vec<(&str, &str)> =
            self.labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        all.extend_from_slice(labels);
        all
    }

    /// Counter handle (no-op on a disabled recorder).
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Counter {
        match &self.inner {
            Some(i) => i.registry.counter(name, &self.merged(labels)),
            None => Counter::noop(),
        }
    }

    /// Gauge handle (no-op on a disabled recorder).
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Gauge {
        match &self.inner {
            Some(i) => i.registry.gauge(name, &self.merged(labels)),
            None => Gauge::noop(),
        }
    }

    /// Histogram handle (no-op on a disabled recorder).
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)]) -> Histogram {
        match &self.inner {
            Some(i) => i.registry.histogram(name, &self.merged(labels)),
            None => Histogram::noop(),
        }
    }

    /// Record a typed event. `detail` is only rendered when the recorder
    /// is enabled, so formatting costs nothing on the no-op path.
    #[inline]
    pub fn emit(
        &self,
        round: u64,
        kind: EventKind,
        node: Option<u64>,
        value: u64,
        detail: impl FnOnce() -> String,
    ) {
        if let Some(i) = &self.inner {
            i.events.lock().unwrap().push(round, kind, node, value, detail());
        }
    }

    /// Open a scoped span: the guard bumps `span.count{span=name}` on drop
    /// and, when timing is on, records elapsed nanoseconds into
    /// `span.ns{span=name}`.
    pub fn span(&self, name: &'static str) -> SpanGuard {
        match &self.inner {
            None => SpanGuard { count: Counter::noop(), ns: Histogram::noop(), start: None },
            Some(i) => {
                let span_label = [("span", name)];
                let labels = self.merged(&span_label);
                SpanGuard {
                    count: i.registry.counter("span.count", &labels),
                    ns: if i.timing {
                        i.registry.histogram("span.ns", &labels)
                    } else {
                        Histogram::noop()
                    },
                    start: i.timing.then(Instant::now),
                }
            }
        }
    }

    /// Bracket a profiled phase: the guard counts the entry and, when
    /// timing is on, accumulates wall-clock on drop.
    #[inline]
    pub fn phase(&self, phase: Phase) -> PhaseGuard {
        match &self.inner {
            None => PhaseGuard { inner: None, phase, start: None },
            Some(i) => {
                i.profiler.enter(phase);
                PhaseGuard { inner: Some(Arc::clone(i)), phase, start: i.timing.then(Instant::now) }
            }
        }
    }

    /// Attribute communication work (bits, message events) to a phase.
    #[inline]
    pub fn add_work(&self, phase: Phase, bits: u64, msgs: u64) {
        if let Some(i) = &self.inner {
            i.profiler.add_work(phase, bits, msgs);
        }
    }

    /// Deterministic snapshot of the metrics registry (empty when
    /// disabled).
    pub fn snapshot(&self) -> Snapshot {
        self.inner.as_ref().map(|i| i.registry.snapshot()).unwrap_or_default()
    }

    /// Retained events plus the overflow count (empty when disabled).
    pub fn events(&self) -> (Vec<Event>, u64) {
        match &self.inner {
            None => (Vec::new(), 0),
            Some(i) => {
                let ring = i.events.lock().unwrap();
                (ring.events().cloned().collect(), ring.overflow)
            }
        }
    }

    /// Profiler snapshot (wall-clock zeroed unless timing is on; empty
    /// when disabled).
    pub fn profile(&self) -> ProfilerSnapshot {
        self.inner.as_ref().map(|i| i.profiler.snapshot(i.timing)).unwrap_or_default()
    }

    /// Fold another recorder's state into this one: counters add, gauges
    /// keep maxima, histogram buckets add, events append (renumbered),
    /// profiler phases add. Used by instrumented runners to fold a per-run
    /// collector into a long-lived experiment recorder.
    pub fn absorb(&self, other: &Telemetry) {
        let Some(i) = &self.inner else { return };
        if !other.enabled() {
            return;
        }
        i.registry.absorb(&other.snapshot());
        let (events, overflow) = other.events();
        {
            let mut ring = i.events.lock().unwrap();
            ring.overflow += overflow;
            for ev in events {
                ring.push(ev.round, ev.kind, ev.node, ev.value, ev.detail);
            }
        }
        i.profiler.absorb(&other.profile());
    }

    /// Capture everything into an exportable [`RunTelemetry`] record.
    /// `meta` is free-form run description (experiment id, seed, config).
    pub fn capture(&self, meta: &[(&str, &str)]) -> RunTelemetry {
        let (events, events_overflow) = self.events();
        RunTelemetry {
            meta: meta.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            timing: self.timing(),
            snapshot: self.snapshot(),
            events,
            events_overflow,
            profile: self.profile(),
        }
    }
}

impl RoundProfiler {
    /// Element-wise addition of a snapshot (see [`Telemetry::absorb`]).
    pub(crate) fn absorb(&self, snap: &ProfilerSnapshot) {
        for stat in &snap.phases {
            let cell = &self.cells[stat.phase.index()];
            use std::sync::atomic::Ordering::Relaxed;
            cell.enters.fetch_add(stat.enters, Relaxed);
            cell.wall_ns.fetch_add(stat.wall_ns, Relaxed);
            cell.bits.fetch_add(stat.bits, Relaxed);
            cell.msgs.fetch_add(stat.msgs, Relaxed);
        }
    }
}

/// Scoped span guard (see [`Telemetry::span`]).
#[must_use = "a span measures the scope it lives in"]
pub struct SpanGuard {
    count: Counter,
    ns: Histogram,
    start: Option<Instant>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.count.inc();
        if let Some(start) = self.start {
            self.ns.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// Scoped phase guard (see [`Telemetry::phase`]).
#[must_use = "a phase guard measures the scope it lives in"]
pub struct PhaseGuard {
    inner: Option<Arc<Inner>>,
    phase: Phase,
    start: Option<Instant>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let (Some(i), Some(start)) = (&self.inner, self.start) {
            i.profiler.add_wall_ns(self.phase, start.elapsed().as_nanos() as u64);
        }
    }
}

/// `span!(tel, "epoch")` — open a scoped span on recorder `tel`.
#[macro_export]
macro_rules! span {
    ($tel:expr, $name:expr) => {
        $tel.span($name)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_a_noop() {
        let t = Telemetry::disabled();
        assert!(!t.enabled());
        t.counter("c", &[]).add(5);
        t.gauge("g", &[]).record_max(5);
        t.histogram("h", &[]).record(5);
        t.emit(0, EventKind::Crash, None, 0, || unreachable!("detail must not render"));
        {
            let _s = t.span("x");
            let _p = t.phase(Phase::Compute);
        }
        t.add_work(Phase::Compute, 10, 1);
        assert!(t.snapshot().is_empty());
        assert_eq!(t.events().0.len(), 0);
        assert!(t.profile().phases.is_empty());
    }

    #[test]
    fn base_labels_stamp_every_metric() {
        let t = Telemetry::collector();
        let fam = t.with_labels(&[("family", "dos")]);
        fam.counter("rounds", &[]).inc();
        fam.counter("rounds", &[("phase", "p1")]).inc();
        let s = t.snapshot();
        assert_eq!(s.counter("rounds{family=dos}"), 1);
        assert_eq!(s.counter("rounds{family=dos,phase=p1}"), 1);
    }

    #[test]
    fn spans_count_without_timing() {
        let t = Telemetry::collector();
        for _ in 0..3 {
            let _s = span!(t, "epoch");
        }
        let s = t.snapshot();
        assert_eq!(s.counter("span.count{span=epoch}"), 3);
        assert!(s.histogram("span.ns{span=epoch}").is_none(), "no wall-clock with timing off");
    }

    #[test]
    fn spans_time_when_timing_on() {
        let t = Telemetry::new(Config { enabled: true, timing: true, events_cap: 16 });
        {
            let _s = t.span("work");
        }
        let s = t.snapshot();
        assert_eq!(s.counter("span.count{span=work}"), 1);
        assert_eq!(s.histogram("span.ns{span=work}").unwrap().count, 1);
    }

    #[test]
    fn phases_profile_work_and_enters() {
        let t = Telemetry::collector();
        {
            let _p = t.phase(Phase::Deliver);
            t.add_work(Phase::Deliver, 256, 4);
        }
        let prof = t.profile();
        let stat = prof.phases[Phase::Deliver.index()];
        assert_eq!((stat.enters, stat.bits, stat.msgs, stat.wall_ns), (1, 256, 4, 0));
    }

    #[test]
    fn events_flow_into_the_ring() {
        let t = Telemetry::new(Config { enabled: true, timing: false, events_cap: 2 });
        t.emit(1, EventKind::Desync, Some(7), 0, || "lost broadcast".into());
        t.emit(2, EventKind::Resync, Some(7), 1, String::new);
        t.emit(3, EventKind::Eviction, Some(9), 0, String::new);
        let (events, overflow) = t.events();
        assert_eq!(events.len(), 2);
        assert_eq!(overflow, 1);
        assert_eq!(events[0].kind, EventKind::Resync);
        assert_eq!(events[1].node, Some(9));
    }

    #[test]
    fn absorb_folds_a_worker_collector() {
        let parent = Telemetry::collector();
        parent.counter("net.rounds", &[]).add(2);
        let worker = Telemetry::collector();
        worker.counter("net.rounds", &[]).add(3);
        worker.gauge("net.max_node_bits", &[]).record_max(64);
        worker.emit(5, EventKind::EpochFinished, None, 1, String::new);
        {
            let _p = worker.phase(Phase::Sampling);
        }
        parent.absorb(&worker);
        let s = parent.snapshot();
        assert_eq!(s.counter("net.rounds"), 5);
        assert_eq!(s.gauge("net.max_node_bits"), 64);
        assert_eq!(parent.events().0.len(), 1);
        assert_eq!(parent.profile().phases[Phase::Sampling.index()].enters, 1);
    }

    #[test]
    fn knob_values_parse_or_name_what_was_wrong() {
        let cfg = |knobs: &[(&str, &str)]| {
            let knobs: Vec<(String, String)> =
                knobs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
            Config::parse(move |name| knobs.iter().find(|(k, _)| k == name).map(|(_, v)| v.clone()))
        };
        let ok = cfg(&[]).unwrap();
        assert_eq!((ok.enabled, ok.timing, ok.events_cap), (true, false, DEFAULT_EVENTS_CAP));
        let ok = cfg(&[
            ("TELEMETRY", "off"),
            ("TELEMETRY_TIMING", "on"),
            ("TELEMETRY_EVENTS_CAP", "16"),
        ])
        .unwrap();
        assert_eq!((ok.enabled, ok.timing, ok.events_cap), (false, true, 16));
        let empty = [("TELEMETRY", ""), ("TELEMETRY_TIMING", ""), ("TELEMETRY_EVENTS_CAP", "")];
        let ok = cfg(&empty).unwrap();
        assert_eq!((ok.enabled, ok.timing, ok.events_cap), (true, false, DEFAULT_EVENTS_CAP));
        for on in ["1", "on", "true"] {
            assert!(cfg(&[("TELEMETRY_TIMING", on)]).unwrap().timing);
        }
        for off in ["0", "off", "false", "none"] {
            assert!(!cfg(&[("TELEMETRY", off)]).unwrap().enabled);
        }
        let bad = [
            ("TELEMETRY", "of"),
            ("TELEMETRY_TIMING", "yes"),
            ("TELEMETRY_EVENTS_CAP", "lots"),
            ("TELEMETRY_EVENTS_CAP", "-1"),
        ];
        for (name, value) in bad {
            let e = cfg(&[(name, value)]).unwrap_err();
            assert_eq!((e.name, e.value.as_str()), (name, value));
            let text = e.to_string();
            assert!(text.contains(name) && text.contains(value) && text.contains(e.accepted));
        }
    }

    #[test]
    fn identical_runs_capture_identically() {
        let run = || {
            let t = Telemetry::collector();
            for i in 0..10u64 {
                t.counter("c", &[("family", "x")]).add(i);
                t.histogram("h", &[]).record(i * i);
                t.emit(i, EventKind::EpochFinished, Some(i), i, || format!("epoch {i}"));
                let _p = t.phase(Phase::Compute);
            }
            t.capture(&[("exp", "unit"), ("seed", "1")]).to_jsonl()
        };
        assert_eq!(run(), run(), "timing-off capture must be byte-identical");
    }
}
