//! The simulator-as-oracle replay check.
//!
//! A recorded cluster run ([`ClusterTrace`]) is rebuilt inside the
//! simulation engine: every observed frame delay becomes a scheduled
//! per-message delay fault, every kill a crash-stop fault, every join an
//! `add_node` before the join round, and every round is stepped with the
//! recorded block set. After each simulated round the per-node state
//! fingerprints ([`simnet::node_state_digest`]) must match what the live
//! nodes reported. A mismatch pins divergence to the exact round and node
//! where the live execution left the model.

use simnet::{BlockSet, FaultModel, NodeFault, NodeId};
use simnet_xl::XlNetwork;

use super::proto::WireProto;
use super::trace::ClusterTrace;

/// Why a replay rejected a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ReplayError {
    /// A live digest disagreed with the simulator's.
    DigestMismatch {
        /// Round of the divergence.
        round: u64,
        /// Node whose fingerprint diverged.
        node: u64,
        /// What the live node reported.
        live: u64,
        /// What the simulator computed.
        sim: u64,
    },
    /// The trace reports a digest for a node the simulator does not have.
    MissingNode {
        /// Round of the report.
        round: u64,
        /// The unknown node.
        node: u64,
    },
    /// The trace itself is malformed (non-contiguous rounds, joiner id
    /// colliding with the initial span, ...).
    BadTrace(String),
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::DigestMismatch { round, node, live, sim } => write!(
                f,
                "round {round} node {node}: live digest {live:#018x} != simulated {sim:#018x}"
            ),
            ReplayError::MissingNode { round, node } => {
                write!(f, "round {round}: trace reports digest for unknown node {node}")
            }
            ReplayError::BadTrace(why) => write!(f, "malformed trace: {why}"),
        }
    }
}

impl std::error::Error for ReplayError {}

/// What a successful replay verified.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Rounds stepped.
    pub rounds: u64,
    /// Node digests compared (all equal).
    pub digests_checked: u64,
    /// Delay observations mapped to scheduled faults.
    pub delays_applied: u64,
    /// Crash-stop faults installed.
    pub kills: u64,
    /// Joins performed.
    pub joins: u64,
}

/// Replay `trace` in the simulator and check every recorded digest.
pub fn replay(trace: &ClusterTrace) -> Result<ReplaySummary, ReplayError> {
    if trace.n0 == 0 {
        return Err(ReplayError::BadTrace("empty initial membership".into()));
    }
    let mut summary = ReplaySummary::default();

    // The whole fault schedule is known up front: observed delays and kill
    // rounds are data in the trace, not decisions made during the run.
    let mut faults = FaultModel::null();
    for record in &trace.rounds {
        for obs in &record.delays {
            faults = faults.with_scheduled_delay(obs.from, obs.to, obs.sent_round, obs.extra);
            summary.delays_applied += 1;
        }
        for &victim in &record.kills {
            faults =
                faults.with_node_fault(NodeId(victim), NodeFault::CrashStop { at: record.round });
            summary.kills += 1;
        }
    }

    // Parity, whatever `SIMNET_BACKEND` says: scheduled delays need the one
    // global delivery order, and an oracle must not relax with a knob.
    let mut net: XlNetwork<WireProto> = XlNetwork::new(trace.seed);
    for id in 0..trace.n0 {
        net.add_node(NodeId(id), WireProto::new(trace.n0));
    }
    net.set_fault_model(faults);

    for record in &trace.rounds {
        if net.round() != record.round {
            return Err(ReplayError::BadTrace(format!(
                "expected round {} next, trace has {}",
                net.round(),
                record.round
            )));
        }
        for &joiner in &record.joins {
            if joiner < trace.n0 {
                return Err(ReplayError::BadTrace(format!(
                    "joiner id {joiner} collides with initial span {}",
                    trace.n0
                )));
            }
            net.add_node(NodeId(joiner), WireProto::new(trace.n0));
            summary.joins += 1;
        }
        net.step_blocked(&BlockSet::from_iter(record.blocked.iter().copied().map(NodeId)));
        summary.rounds += 1;

        for &(node, live) in &record.digests {
            match net.node_digest(NodeId(node)) {
                Some(sim) if sim == live => summary.digests_checked += 1,
                Some(sim) => {
                    return Err(ReplayError::DigestMismatch {
                        round: record.round,
                        node,
                        live,
                        sim,
                    })
                }
                None => return Err(ReplayError::MissingNode { round: record.round, node }),
            }
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodert::driver::{RoundDriver, TickDirective};
    use crate::nodert::trace::RoundRecord;
    use std::collections::BTreeMap;

    /// A campaign step for the in-process virtual cluster below.
    #[derive(Default, Clone)]
    struct Step {
        blocked: Vec<u64>,
        kills: Vec<u64>,
        joins: Vec<u64>,
        /// node -> hold_extra lag applied to frames deliverable this tick.
        lags: BTreeMap<u64, u64>,
    }

    /// Run a cluster of [`RoundDriver`]s with an in-process "network":
    /// sends are routed straight into receivers' ingest buffers, exactly
    /// as the TCP layer would after the round-mark barrier. This is the
    /// differential half of the oracle test — no sockets, same state
    /// machine the daemon runs.
    fn run_virtual(seed: u64, n0: u64, steps: &[Step]) -> ClusterTrace {
        let mut drivers: BTreeMap<u64, RoundDriver> =
            (0..n0).map(|id| (id, RoundDriver::new(seed, NodeId(id), n0))).collect();
        let mut rounds = Vec::new();
        for (round, step) in steps.iter().enumerate() {
            let round = round as u64;
            for &victim in &step.kills {
                // Killed at the round boundary: the victim never sees this
                // tick; frames already queued to it die with it.
                drivers.remove(&victim);
            }
            for &joiner in &step.joins {
                assert!(joiner >= n0, "joiner ids start at n0");
                drivers.insert(joiner, RoundDriver::new(seed, NodeId(joiner), n0));
            }
            let blocked = BlockSet::from_iter(step.blocked.iter().copied().map(NodeId));
            let mut record = RoundRecord {
                round,
                blocked: step.blocked.clone(),
                kills: step.kills.clone(),
                joins: step.joins.clone(),
                ..RoundRecord::default()
            };
            let mut wire = Vec::new();
            for (&id, driver) in drivers.iter_mut() {
                let tick = TickDirective {
                    round,
                    blocked: blocked.clone(),
                    hold_extra: step.lags.get(&id).copied().unwrap_or(0),
                };
                let out = driver.on_tick(&tick);
                record.delays.extend(out.delays);
                record.digests.push((id, out.digest));
                wire.extend(out.sends);
            }
            for env in wire {
                if let Some(receiver) = drivers.get_mut(&env.to.raw()) {
                    receiver.ingest(env.from, env.sent_round, env.msg);
                }
            }
            rounds.push(record);
        }
        ClusterTrace { seed, n0, rounds }
    }

    fn quiet(n: usize) -> Vec<Step> {
        vec![Step::default(); n]
    }

    #[test]
    fn quiet_cluster_replays_clean() {
        let trace = run_virtual(11, 4, &quiet(8));
        let summary = replay(&trace).unwrap();
        assert_eq!(summary.rounds, 8);
        assert_eq!(summary.digests_checked, 32);
    }

    #[test]
    fn dos_blocking_replays_clean() {
        let mut steps = quiet(10);
        steps[2].blocked = vec![1];
        steps[3].blocked = vec![1, 3];
        steps[6].blocked = vec![0];
        let trace = run_virtual(12, 4, &steps);
        let summary = replay(&trace).unwrap();
        assert_eq!(summary.digests_checked, 40, "blocked nodes still report digests");
    }

    #[test]
    fn lag_campaign_replays_through_scheduled_delays() {
        let mut steps = quiet(12);
        steps[3].lags.insert(2, 2);
        steps[5].lags.insert(0, 1);
        steps[5].blocked = vec![1];
        let trace = run_virtual(13, 4, &steps);
        assert!(trace.total_delays() > 0, "campaign must actually produce holds");
        let summary = replay(&trace).unwrap();
        assert_eq!(summary.delays_applied as usize, trace.total_delays());
    }

    #[test]
    fn churn_kills_and_joins_replay_clean() {
        let mut steps = quiet(10);
        steps[4].kills = vec![2];
        steps[5].joins = vec![4];
        steps[7].kills = vec![1];
        let trace = run_virtual(14, 4, &steps);
        let summary = replay(&trace).unwrap();
        assert_eq!(summary.kills, 2);
        assert_eq!(summary.joins, 1);
    }

    #[test]
    fn combined_campaign_replays_clean() {
        let mut steps = quiet(16);
        steps[2].blocked = vec![3];
        for node in 0..5 {
            steps[3].lags.insert(node, 3);
        }
        steps[5].kills = vec![3];
        steps[6].joins = vec![5];
        steps[8].blocked = vec![0, 2];
        steps[9].lags.insert(2, 1);
        let trace = run_virtual(15, 5, &steps);
        let summary = replay(&trace).unwrap();
        assert!(summary.digests_checked > 0);
        assert!(summary.delays_applied > 0);
    }

    #[test]
    fn tampered_digest_is_pinned_to_round_and_node() {
        let mut trace = run_virtual(16, 3, &quiet(5));
        trace.rounds[3].digests[1].1 ^= 1;
        let node = trace.rounds[3].digests[1].0;
        match replay(&trace) {
            Err(ReplayError::DigestMismatch { round: 3, node: n, .. }) if n == node => {}
            other => panic!("expected pinned mismatch, got {other:?}"),
        }
    }

    #[test]
    fn dropped_delay_observation_is_caught() {
        let mut steps = quiet(8);
        steps[3].lags.insert(0, 2);
        let mut trace = run_virtual(17, 3, &steps);
        let had = trace.total_delays();
        assert!(had > 0);
        for record in &mut trace.rounds {
            record.delays.clear();
        }
        assert!(replay(&trace).is_err(), "erasing delay observations must break digest agreement");
    }

    #[test]
    fn malformed_traces_are_rejected_with_bad_trace() {
        let empty = ClusterTrace { seed: 1, n0: 0, rounds: vec![] };
        assert!(matches!(replay(&empty), Err(ReplayError::BadTrace(_))));

        let mut gap = run_virtual(18, 3, &quiet(4));
        gap.rounds[2].round = 7;
        assert!(matches!(replay(&gap), Err(ReplayError::BadTrace(_))));

        let mut collide = run_virtual(19, 3, &quiet(4));
        collide.rounds[1].joins = vec![0];
        assert!(matches!(replay(&collide), Err(ReplayError::BadTrace(_))));

        let mut ghost = run_virtual(20, 3, &quiet(4));
        ghost.rounds[1].digests.push((99, 5));
        assert!(matches!(replay(&ghost), Err(ReplayError::MissingNode { node: 99, .. })));
    }
}
