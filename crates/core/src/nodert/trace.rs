//! The recorded event trace of a cluster run.
//!
//! The coordinator writes one [`RoundRecord`] per executed round; the
//! whole run is a [`ClusterTrace`]. Each is declared with
//! [`simnet::checkpoint_schema!`], like every persisted struct, so the
//! format is stable and inspectable: traces are artifacts that outlive the
//! process that wrote them — the cluster harness persists them under
//! `results/cluster/<run-id>/` and the replay oracle (and CI) reads them
//! back.

use simnet::{Checkpoint, CkptError, CkptResult, NodeId};

/// A frame observed to be delivered late on a live node.
///
/// `extra` counts rounds beyond the model's `sent_round + 1` delivery
/// point. The replay oracle maps each observation to
/// `FaultModel::with_scheduled_delay(from, to, sent_round, extra)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DelayObs {
    /// Sender of the delayed frame.
    pub from: NodeId,
    /// Receiver that observed (and reported) the delay.
    pub to: NodeId,
    /// Round the frame was sent in.
    pub sent_round: u64,
    /// Rounds of delay beyond the normal delivery round.
    pub extra: u64,
}

/// Everything that happened in one cluster round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RoundRecord {
    /// The round number.
    pub round: u64,
    /// DoS block set applied this round.
    pub blocked: Vec<u64>,
    /// Nodes crash-stopped at this round boundary (they did not execute
    /// this round and never return).
    pub kills: Vec<u64>,
    /// Nodes that joined at this round (they execute it as their first).
    pub joins: Vec<u64>,
    /// Delay observations reported by receivers this round.
    pub delays: Vec<DelayObs>,
    /// `(node, digest)` for every node that executed (or was blocked
    /// during) this round and reported back.
    pub digests: Vec<(u64, u64)>,
}

/// A full recorded run: the shared seed, the initial membership span, and
/// one record per executed round.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClusterTrace {
    /// Master seed every node derived its RNG stream from.
    pub seed: u64,
    /// Initial cluster size; initial nodes have ids `0..n0`.
    pub n0: u64,
    /// Per-round records, in round order.
    pub rounds: Vec<RoundRecord>,
}

simnet::checkpoint_schema! {
    DelayObs {
        fields { from, to, sent_round, extra }
    }
}

simnet::checkpoint_schema! {
    RoundRecord {
        fields { round, blocked, kills, joins, delays, digests with node_digests }
    }
}

/// The codec of [`RoundRecord::digests`]: `{"node": .., "digest": ..}`
/// objects.
mod node_digests {
    use simnet::checkpoint::{get, load_vec, CkptResult, Value};

    pub fn save(pairs: &[(u64, u64)]) -> Value {
        let pair =
            |&(node, digest): &(u64, u64)| serde_json::json!({ "node": node, "digest": digest });
        Value::Array(pairs.iter().map(pair).collect())
    }

    pub fn load(v: &Value) -> CkptResult<Vec<(u64, u64)>> {
        let pairs: Vec<Value> = load_vec(v)?;
        pairs.iter().map(|p| Ok((get(p, "node")?, get(p, "digest")?))).collect()
    }
}

simnet::checkpoint_schema! {
    ClusterTrace {
        fields { seed, n0, rounds }
    }
}

impl ClusterTrace {
    /// Parse a trace from its JSON text.
    pub fn from_json(text: &str) -> CkptResult<Self> {
        Self::load(&serde_json::from_str(text).map_err(|e| CkptError::Parse(e.to_string()))?)
    }

    /// Pretty JSON text of the whole trace.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(&self.save()).expect("trace is valid json")
    }

    /// Total number of delay observations across all rounds.
    pub fn total_delays(&self) -> usize {
        self.rounds.iter().map(|r| r.delays.len()).sum()
    }

    /// Total number of digests recorded across all rounds.
    pub fn total_digests(&self) -> usize {
        self.rounds.iter().map(|r| r.digests.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn sample() -> ClusterTrace {
        ClusterTrace {
            seed: 42,
            n0: 3,
            rounds: vec![
                RoundRecord {
                    round: 0,
                    blocked: vec![],
                    kills: vec![],
                    joins: vec![],
                    delays: vec![],
                    digests: vec![(0, 10), (1, 11), (2, 12)],
                },
                RoundRecord {
                    round: 1,
                    blocked: vec![2],
                    kills: vec![1],
                    joins: vec![3],
                    delays: vec![DelayObs {
                        from: NodeId(0),
                        to: NodeId(2),
                        sent_round: 0,
                        extra: 2,
                    }],
                    digests: vec![(0, 20), (2, 22), (3, 23)],
                },
            ],
        }
    }

    #[test]
    fn trace_roundtrips_through_json() {
        let trace = sample();
        let text = trace.to_json();
        let back = ClusterTrace::from_json(&text).unwrap();
        assert_eq!(back, trace);
        assert_eq!(back.total_delays(), 1);
        assert_eq!(back.total_digests(), 6);
    }

    #[test]
    fn missing_and_mistyped_fields_are_typed_errors() {
        let corrupt_naming = |r: CkptResult<ClusterTrace>, key: &str| match r {
            Err(CkptError::Corrupt(m)) => m.contains(&format!("`{key}`")),
            _ => false,
        };
        let missing = json!({ "seed": 1, "rounds": json!([]) });
        assert!(corrupt_naming(ClusterTrace::load(&missing), "n0"));
        let mistyped = json!({ "seed": 1, "n0": "three", "rounds": json!([]) });
        assert!(corrupt_naming(ClusterTrace::load(&mistyped), "n0"));
        assert!(matches!(ClusterTrace::from_json("not json"), Err(CkptError::Parse(_))));
        let record = json!({
            "round": 0,
            "blocked": json!([]),
            "kills": json!([]),
            "joins": json!([]),
            "delays": json!([json!({ "from": 1, "to": 2, "sent_round": 0 })]),
            "digests": json!([]),
        });
        let err = RoundRecord::load(&record).unwrap_err().to_string();
        assert!(err.contains("`delays`") && err.contains("`extra`"), "{err}");
    }
}
