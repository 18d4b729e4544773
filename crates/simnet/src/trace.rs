//! Optional event tracing for debugging protocols, plus the replay
//! verification record: per-round state digests and the run manifest.

use crate::digest::{RoundDigest, RunManifest};
use crate::NodeId;
use serde::{Deserialize, Serialize};

/// A traced simulator event.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A message was delivered.
    Delivered { round: u64, from: NodeId, to: NodeId },
    /// A message was dropped by the DoS delivery rule.
    DroppedBlocked { round: u64, from: NodeId, to: NodeId },
    /// A message was addressed to a node no longer (or not yet) present.
    DroppedMissing { round: u64, from: NodeId, to: NodeId },
    /// A message was dropped by a node fault or partition of the installed
    /// [`crate::fault::FaultModel`].
    DroppedFault { round: u64, from: NodeId, to: NodeId },
    /// A message was dropped by a probabilistic link fault.
    DroppedLink { round: u64, from: NodeId, to: NodeId },
    /// A link fault delivered an extra copy of a message (the original is
    /// traced as [`TraceEvent::Delivered`]).
    Duplicated { round: u64, from: NodeId, to: NodeId },
    /// A link fault held a message back until round `until`.
    Delayed { round: u64, from: NodeId, to: NodeId, until: u64 },
    /// A node joined the simulation.
    NodeAdded { round: u64, node: NodeId },
    /// A node left the simulation.
    NodeRemoved { round: u64, node: NodeId },
    /// A node completed crash-recovery with state loss.
    NodeRecovered { round: u64, node: NodeId },
}

/// Bounded event log. Disabled by default; when enabled it records up to
/// `cap` events and counts overflow. Also holds the replay-verification
/// record of a run: the per-round digest stream and the [`RunManifest`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    enabled: bool,
    cap: usize,
    events: Vec<TraceEvent>,
    digests: Vec<RoundDigest>,
    manifest: Option<RunManifest>,
    /// Events not recorded because the buffer was full.
    pub overflow: u64,
    /// Total dropped-by-blocking messages (counted even when disabled).
    pub dropped_blocked: u64,
    /// Total dropped-missing-receiver messages (counted even when disabled).
    pub dropped_missing: u64,
    /// Total delivered messages (counted even when disabled).
    pub delivered: u64,
    /// Total messages dropped by node faults or partitions (counted even
    /// when disabled).
    pub dropped_fault: u64,
    /// Total messages dropped by link faults (counted even when disabled).
    pub dropped_link: u64,
    /// Total *extra* copies delivered by duplication faults (counted even
    /// when disabled; originals count under `delivered`).
    pub duplicated: u64,
    /// Total messages held back by delay faults (counted even when
    /// disabled; each is classified again at maturity).
    pub delayed: u64,
}

impl Trace {
    /// A disabled trace that still maintains the aggregate counters.
    pub fn counters_only() -> Self {
        Self::default()
    }

    /// An enabled trace recording up to `cap` events.
    pub fn with_capacity(cap: usize) -> Self {
        Self { enabled: true, cap, ..Self::default() }
    }

    /// Switch event recording on (up to `cap` events) without disturbing
    /// counters, digests or the manifest accumulated so far.
    pub fn enable(&mut self, cap: usize) {
        self.enabled = true;
        self.cap = cap;
    }

    /// Whether events are buffered (counters are kept either way).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Count (and, when enabled, buffer) one simulator event. The engine
    /// calls this on every delivery outcome, in either execution mode, so
    /// the always-on counters stay comparable.
    pub fn record(&mut self, ev: TraceEvent) {
        match &ev {
            TraceEvent::Delivered { .. } => self.delivered += 1,
            TraceEvent::DroppedBlocked { .. } => self.dropped_blocked += 1,
            TraceEvent::DroppedMissing { .. } => self.dropped_missing += 1,
            TraceEvent::DroppedFault { .. } => self.dropped_fault += 1,
            TraceEvent::DroppedLink { .. } => self.dropped_link += 1,
            TraceEvent::Duplicated { .. } => self.duplicated += 1,
            TraceEvent::Delayed { .. } => self.delayed += 1,
            _ => {}
        }
        if self.enabled {
            if self.events.len() < self.cap {
                self.events.push(ev);
            } else {
                self.overflow += 1;
            }
        }
    }

    /// Append one round digest to the replay-verification stream.
    pub fn record_digest(&mut self, d: RoundDigest) {
        self.digests.push(d);
    }

    /// Attach (or replace) the run manifest.
    pub fn set_manifest(&mut self, manifest: RunManifest) {
        self.manifest = Some(manifest);
    }

    /// Recorded events (empty when disabled).
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Per-round state digests (empty unless digest recording was enabled
    /// on the network; see [`crate::SimEngine::enable_digests`]).
    pub fn digests(&self) -> &[RoundDigest] {
        &self.digests
    }

    /// The run manifest, if one was attached.
    pub fn manifest(&self) -> Option<&RunManifest> {
        self.manifest.as_ref()
    }

    /// Clear recorded events, digests, manifest and counters.
    pub fn clear(&mut self) {
        self.events.clear();
        self.digests.clear();
        self.manifest = None;
        self.overflow = 0;
        self.dropped_blocked = 0;
        self.dropped_missing = 0;
        self.delivered = 0;
        self.dropped_fault = 0;
        self.dropped_link = 0;
        self.duplicated = 0;
        self.delayed = 0;
    }
}

// ---------------------------------------------------------------------------
// Value serialization
// ---------------------------------------------------------------------------
//
// The serde derives above are hermetic no-op shims, so persistable form goes
// through the workspace's `Checkpoint` convention instead. Note this is for
// *offline analysis* (dumping a trace next to experiment results); the
// engine itself never checkpoints observability state.

use crate::checkpoint::{get, get_str, Checkpoint, CkptError, CkptResult};
use serde_json::{json, Value};

impl Checkpoint for TraceEvent {
    fn save(&self) -> Value {
        let (t, round, a, b, until) = match *self {
            TraceEvent::Delivered { round, from, to } => {
                ("delivered", round, from.raw(), to.raw(), None)
            }
            TraceEvent::DroppedBlocked { round, from, to } => {
                ("dropped-blocked", round, from.raw(), to.raw(), None)
            }
            TraceEvent::DroppedMissing { round, from, to } => {
                ("dropped-missing", round, from.raw(), to.raw(), None)
            }
            TraceEvent::DroppedFault { round, from, to } => {
                ("dropped-fault", round, from.raw(), to.raw(), None)
            }
            TraceEvent::DroppedLink { round, from, to } => {
                ("dropped-link", round, from.raw(), to.raw(), None)
            }
            TraceEvent::Duplicated { round, from, to } => {
                ("duplicated", round, from.raw(), to.raw(), None)
            }
            TraceEvent::Delayed { round, from, to, until } => {
                ("delayed", round, from.raw(), to.raw(), Some(until))
            }
            TraceEvent::NodeAdded { round, node } => ("node-added", round, node.raw(), 0, None),
            TraceEvent::NodeRemoved { round, node } => ("node-removed", round, node.raw(), 0, None),
            TraceEvent::NodeRecovered { round, node } => {
                ("node-recovered", round, node.raw(), 0, None)
            }
        };
        let mut v = json!({ "t": t, "round": round, "a": a, "b": b });
        if let (Value::Object(m), Some(until)) = (&mut v, until) {
            m.insert("until".into(), Value::from(until));
        }
        v
    }

    fn load(v: &Value) -> CkptResult<Self> {
        let round = get(v, "round")?;
        let a = get(v, "a")?;
        let b = get(v, "b")?;
        Ok(match get_str(v, "t")? {
            "delivered" => TraceEvent::Delivered { round, from: a, to: b },
            "dropped-blocked" => TraceEvent::DroppedBlocked { round, from: a, to: b },
            "dropped-missing" => TraceEvent::DroppedMissing { round, from: a, to: b },
            "dropped-fault" => TraceEvent::DroppedFault { round, from: a, to: b },
            "dropped-link" => TraceEvent::DroppedLink { round, from: a, to: b },
            "duplicated" => TraceEvent::Duplicated { round, from: a, to: b },
            "delayed" => TraceEvent::Delayed { round, from: a, to: b, until: get(v, "until")? },
            "node-added" => TraceEvent::NodeAdded { round, node: a },
            "node-removed" => TraceEvent::NodeRemoved { round, node: a },
            "node-recovered" => TraceEvent::NodeRecovered { round, node: a },
            other => return Err(CkptError::Corrupt(format!("unknown trace event `{other}`"))),
        })
    }
}

crate::checkpoint_schema! {
    RoundDigest {
        fields { round, value }
    }
}

crate::checkpoint_schema! {
    RunManifest {
        fields { master_seed, config, crate_version }
    }
}

crate::checkpoint_schema! {
    Trace {
        fields {
            enabled,
            cap,
            events,
            digests,
            manifest,
            overflow,
            dropped_blocked,
            dropped_missing,
            delivered,
            dropped_fault,
            dropped_link,
            duplicated,
            delayed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        let mut t = Trace::default();
        t.record(TraceEvent::Delivered { round: 0, from: NodeId(1), to: NodeId(2) });
        assert!(t.events().is_empty(), "default trace must not buffer events");
        assert_eq!(t.overflow, 0, "disabled recording is not overflow");
        assert_eq!(t.delivered, 1, "aggregate counters stay on");
    }

    #[test]
    fn zero_capacity_overflows_every_event() {
        let mut t = Trace::with_capacity(0);
        for i in 0..4 {
            t.record(TraceEvent::NodeAdded { round: i, node: NodeId(i) });
        }
        assert!(t.events().is_empty());
        assert_eq!(t.overflow, 4);
    }

    #[test]
    fn value_round_trip_preserves_everything() {
        let mut t = Trace::with_capacity(8);
        t.record(TraceEvent::Delivered { round: 0, from: NodeId(1), to: NodeId(2) });
        t.record(TraceEvent::Delayed { round: 1, from: NodeId(2), to: NodeId(3), until: 4 });
        t.record(TraceEvent::NodeRemoved { round: 2, node: NodeId(3) });
        t.record(TraceEvent::DroppedLink { round: 3, from: NodeId(0), to: NodeId(1) });
        t.record_digest(RoundDigest { round: 0, value: 0xDEAD_BEEF });
        t.set_manifest(RunManifest::new(7, "ring n=4"));
        let restored = Trace::load(&t.save()).expect("round trip");
        assert_eq!(restored, t);

        // And through actual JSON text, as a file would store it.
        let text = serde_json::to_string(&t.save()).unwrap();
        let reparsed = Trace::load(&serde_json::from_str(&text).unwrap()).unwrap();
        assert_eq!(reparsed, t);
    }

    #[test]
    fn value_round_trip_of_overflowed_trace() {
        let mut t = Trace::with_capacity(1);
        for i in 0..3 {
            t.record(TraceEvent::NodeAdded { round: i, node: NodeId(i) });
        }
        let restored = Trace::load(&t.save()).unwrap();
        assert_eq!(restored.overflow, 2);
        assert_eq!(restored.events().len(), 1);
    }

    #[test]
    fn corrupt_event_is_rejected() {
        let v = serde_json::from_str(r#"{"t":"no-such-event","round":0,"a":1,"b":2}"#).unwrap();
        assert!(TraceEvent::load(&v).is_err());
    }

    #[test]
    fn counters_work_when_disabled() {
        let mut t = Trace::counters_only();
        t.record(TraceEvent::Delivered { round: 0, from: NodeId(1), to: NodeId(2) });
        t.record(TraceEvent::DroppedBlocked { round: 0, from: NodeId(1), to: NodeId(3) });
        assert_eq!(t.delivered, 1);
        assert_eq!(t.dropped_blocked, 1);
        assert!(t.events().is_empty());
    }

    #[test]
    fn capacity_bounds_event_log() {
        let mut t = Trace::with_capacity(2);
        for i in 0..5 {
            t.record(TraceEvent::NodeAdded { round: i, node: NodeId(i) });
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.overflow, 3);
    }

    #[test]
    fn clear_resets_everything() {
        let mut t = Trace::with_capacity(8);
        t.record(TraceEvent::Delivered { round: 0, from: NodeId(1), to: NodeId(2) });
        t.clear();
        assert_eq!(t.delivered, 0);
        assert!(t.events().is_empty());
    }
}
