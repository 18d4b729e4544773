//! Fault campaigns for live `reconfig-node` clusters.
//!
//! The simulator drives its attackers round by round; a cluster
//! coordinator instead wants the whole campaign *planned up front* so it
//! can broadcast each round's directives over the control channel without
//! consulting the adversary mid-run (and so the plan itself is a
//! replayable artifact). [`CampaignSpec`] declares the campaign — an
//! optional `r`-bounded `t`-late DoS attacker plus explicit churn (kills,
//! joins) and lag injections — and [`CampaignSpec::plan`] expands it into
//! one [`CampaignStep`] per round, running the real [`DosAdversary`]
//! machinery over the evolving membership.

use serde_json::{json, Value};

use crate::dos::{DosAdversary, DosStrategy};
use crate::lateness::{SharedSnapshot, TopologySnapshot};
use simnet::NodeId;
use std::sync::Arc;

/// The DoS half of a campaign: which attacker, how much budget, how stale
/// its view is.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DosSpec {
    /// Blocking strategy.
    pub strategy: DosStrategy,
    /// Budget fraction `r` in `[0, 1)`.
    pub bound: f64,
    /// Enforced view lateness `t` in rounds.
    pub lateness: u64,
}

/// A declarative cluster fault campaign.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CampaignSpec {
    /// Rounds the cluster runs.
    pub rounds: u64,
    /// Seed for the attacker's randomness.
    pub seed: u64,
    /// Optional DoS attacker; `None` means no blocking.
    pub dos: Option<DosSpec>,
    /// `(round, node)` crash-stops: the node never executes `round` or any
    /// later round.
    pub kills: Vec<(u64, u64)>,
    /// `(round, node)` joins: the node executes `round` as its first.
    /// Joiner ids must be `>= n0`.
    pub joins: Vec<(u64, u64)>,
    /// `(round, node, extra)` lag injections: every frame becoming
    /// deliverable to `node` at `round` is held `extra` further rounds.
    pub lags: Vec<(u64, u64, u64)>,
}

/// One round of planned directives.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CampaignStep {
    /// The round these directives apply to.
    pub round: u64,
    /// DoS block set.
    pub blocked: Vec<u64>,
    /// Nodes crash-stopped at this round boundary.
    pub kills: Vec<u64>,
    /// Nodes joining this round.
    pub joins: Vec<u64>,
    /// `(node, extra)` lag directives.
    pub lags: Vec<(u64, u64)>,
}

/// Why a spec failed validation.
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignError {
    /// An event names a round outside `0..rounds`.
    RoundOutOfRange { round: u64, rounds: u64 },
    /// A joiner id collides with the initial span `0..n0`.
    JoinerInSpan { node: u64, n0: u64 },
    /// An event targets a node that is not alive at that round.
    NodeNotAlive { round: u64, node: u64 },
    /// A node joins or dies twice.
    DuplicateEvent { node: u64 },
    /// A lag of zero rounds (use no entry instead).
    ZeroLag { round: u64, node: u64 },
    /// DoS bound outside `[0, 1)`.
    BadBound { bound: f64 },
    /// Malformed JSON spec.
    BadSpec(&'static str),
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::RoundOutOfRange { round, rounds } => {
                write!(f, "round {round} outside campaign length {rounds}")
            }
            CampaignError::JoinerInSpan { node, n0 } => {
                write!(f, "joiner {node} collides with initial span 0..{n0}")
            }
            CampaignError::NodeNotAlive { round, node } => {
                write!(f, "node {node} not alive at round {round}")
            }
            CampaignError::DuplicateEvent { node } => {
                write!(f, "node {node} appears in more than one churn event")
            }
            CampaignError::ZeroLag { round, node } => {
                write!(f, "zero-round lag for node {node} at round {round}")
            }
            CampaignError::BadBound { bound } => write!(f, "DoS bound {bound} outside [0, 1)"),
            CampaignError::BadSpec(what) => write!(f, "malformed campaign spec: {what}"),
        }
    }
}

impl std::error::Error for CampaignError {}

impl CampaignSpec {
    /// A quiet campaign: `rounds` rounds, no faults.
    pub fn quiet(rounds: u64) -> Self {
        Self { rounds, ..Self::default() }
    }

    /// The CI smoke campaign for an `n0`-node cluster: a random `t`-late
    /// DoS attacker at a quarter budget, one kill and one join mid-run,
    /// and two lag injections exercising the scheduled-delay replay path.
    pub fn smoke(n0: u64, rounds: u64, seed: u64) -> Self {
        assert!(n0 >= 3 && rounds >= 8, "smoke campaign needs >= 3 nodes and >= 8 rounds");
        let mid = rounds / 2;
        Self {
            rounds,
            seed,
            dos: Some(DosSpec { strategy: DosStrategy::Random, bound: 0.25, lateness: 2 }),
            kills: vec![(mid, n0 - 1)],
            joins: vec![(mid + 1, n0)],
            lags: vec![(2, 0, 2), (mid + 2, 1, 1)],
        }
    }

    /// The demo campaign: light blocking, no churn — something to watch,
    /// nothing that kills a 3-node cluster.
    pub fn demo(rounds: u64, seed: u64) -> Self {
        Self {
            rounds,
            seed,
            dos: Some(DosSpec { strategy: DosStrategy::Random, bound: 0.2, lateness: 1 }),
            lags: vec![(2, 0, 1)],
            ..Self::default()
        }
    }

    /// Check the spec against an initial span of `n0` nodes.
    pub fn validate(&self, n0: u64) -> Result<(), CampaignError> {
        if let Some(dos) = &self.dos {
            if !(0.0..1.0).contains(&dos.bound) {
                return Err(CampaignError::BadBound { bound: dos.bound });
            }
        }
        let mut churned = std::collections::BTreeSet::new();
        for &(round, node) in &self.joins {
            if round >= self.rounds {
                return Err(CampaignError::RoundOutOfRange { round, rounds: self.rounds });
            }
            if node < n0 {
                return Err(CampaignError::JoinerInSpan { node, n0 });
            }
            if !churned.insert(node) {
                return Err(CampaignError::DuplicateEvent { node });
            }
        }
        let join_round: std::collections::BTreeMap<u64, u64> =
            self.joins.iter().map(|&(round, node)| (node, round)).collect();
        let mut killed = std::collections::BTreeSet::new();
        for &(round, node) in &self.kills {
            if round >= self.rounds {
                return Err(CampaignError::RoundOutOfRange { round, rounds: self.rounds });
            }
            let born = if node < n0 { 0 } else { *join_round.get(&node).unwrap_or(&u64::MAX) };
            if born == u64::MAX || round < born {
                return Err(CampaignError::NodeNotAlive { round, node });
            }
            if !killed.insert(node) {
                return Err(CampaignError::DuplicateEvent { node });
            }
        }
        for &(round, node, extra) in &self.lags {
            if round >= self.rounds {
                return Err(CampaignError::RoundOutOfRange { round, rounds: self.rounds });
            }
            if extra == 0 {
                return Err(CampaignError::ZeroLag { round, node });
            }
            let _ = node; // any id is allowed; lag on a dead node is a no-op
        }
        Ok(())
    }

    /// Expand into per-round directives for an `n0`-node cluster, running
    /// the DoS attacker over the membership as it evolves under the
    /// campaign's own churn.
    pub fn plan(&self, n0: u64) -> Result<Vec<CampaignStep>, CampaignError> {
        self.validate(n0)?;
        let mut attacker = self
            .dos
            .as_ref()
            .map(|d| DosAdversary::new(d.strategy, d.bound, d.lateness, self.seed));
        let mut alive: Vec<u64> = (0..n0).collect();
        // The membership as the attacker sees it, shared until it changes.
        let mut topo: Option<Arc<TopologySnapshot>> = None;
        let mut steps = Vec::with_capacity(self.rounds as usize);
        for round in 0..self.rounds {
            let kills: Vec<u64> =
                self.kills.iter().filter(|&&(r, _)| r == round).map(|&(_, n)| n).collect();
            let joins: Vec<u64> =
                self.joins.iter().filter(|&&(r, _)| r == round).map(|&(_, n)| n).collect();
            alive.retain(|node| !kills.contains(node));
            alive.extend(&joins);
            if !kills.is_empty() || !joins.is_empty() {
                topo = None;
            }
            let blocked = match attacker.as_mut() {
                Some(adv) => {
                    let nodes = || alive.iter().map(|&n| NodeId(n)).collect();
                    let topo = topo.get_or_insert_with(|| {
                        Arc::new(TopologySnapshot::nodes_only(round, nodes()))
                    });
                    adv.observe(SharedSnapshot::new(round, Arc::clone(topo)));
                    let set = adv.block(round, alive.len());
                    let mut picks: Vec<u64> =
                        alive.iter().copied().filter(|&node| set.contains(NodeId(node))).collect();
                    picks.sort_unstable();
                    picks
                }
                None => Vec::new(),
            };
            let lags: Vec<(u64, u64)> = self
                .lags
                .iter()
                .filter(|&&(r, _, _)| r == round)
                .map(|&(_, node, extra)| (node, extra))
                .collect();
            steps.push(CampaignStep { round, blocked, kills, joins, lags });
        }
        Ok(steps)
    }

    /// Encode as a JSON object (the `--campaign <file>` format).
    pub fn to_value(&self) -> Value {
        let dos = match &self.dos {
            Some(d) => json!({
                "strategy": strategy_name(d.strategy),
                "bound": d.bound,
                "lateness": d.lateness,
            }),
            None => Value::Null,
        };
        json!({
            "rounds": self.rounds,
            "seed": self.seed,
            "dos": dos,
            "kills": self.kills.iter().map(|&(r, n)| json!({ "round": r, "node": n })).collect::<Vec<_>>(),
            "joins": self.joins.iter().map(|&(r, n)| json!({ "round": r, "node": n })).collect::<Vec<_>>(),
            "lags": self.lags.iter()
                .map(|&(r, n, e)| json!({ "round": r, "node": n, "extra": e }))
                .collect::<Vec<_>>(),
        })
    }

    /// Decode from [`CampaignSpec::to_value`] output.
    pub fn from_value(v: &Value) -> Result<Self, CampaignError> {
        let rounds = req_u64(v, "rounds")?;
        let seed = req_u64(v, "seed")?;
        let dos = match v.get("dos") {
            None | Some(Value::Null) => None,
            Some(d) => Some(DosSpec {
                strategy: parse_strategy(
                    d.get("strategy")
                        .and_then(Value::as_str)
                        .ok_or(CampaignError::BadSpec("dos.strategy"))?,
                )?,
                bound: d
                    .get("bound")
                    .and_then(Value::as_f64)
                    .ok_or(CampaignError::BadSpec("dos.bound"))?,
                lateness: d
                    .get("lateness")
                    .and_then(Value::as_u64)
                    .ok_or(CampaignError::BadSpec("dos.lateness"))?,
            }),
        };
        let pair = |field: &'static str| -> Result<Vec<(u64, u64)>, CampaignError> {
            v.get(field)
                .and_then(Value::as_array)
                .ok_or(CampaignError::BadSpec(field))?
                .iter()
                .map(|e| Ok((req_u64(e, "round")?, req_u64(e, "node")?)))
                .collect()
        };
        let lags = v
            .get("lags")
            .and_then(Value::as_array)
            .ok_or(CampaignError::BadSpec("lags"))?
            .iter()
            .map(|e| Ok((req_u64(e, "round")?, req_u64(e, "node")?, req_u64(e, "extra")?)))
            .collect::<Result<_, _>>()?;
        Ok(Self { rounds, seed, dos, kills: pair("kills")?, joins: pair("joins")?, lags })
    }

    /// Parse a spec from JSON text.
    pub fn from_json(text: &str) -> Result<Self, CampaignError> {
        let v: Value = serde_json::from_str(text).map_err(|_| CampaignError::BadSpec("json"))?;
        Self::from_value(&v)
    }
}

fn req_u64(v: &Value, field: &'static str) -> Result<u64, CampaignError> {
    v.get(field).and_then(Value::as_u64).ok_or(CampaignError::BadSpec(field))
}

fn strategy_name(s: DosStrategy) -> &'static str {
    match s {
        DosStrategy::Random => "random",
        DosStrategy::IsolateNode => "isolate-node",
        DosStrategy::GroupTargeted => "group-targeted",
        DosStrategy::Bisection => "bisection",
    }
}

fn parse_strategy(name: &str) -> Result<DosStrategy, CampaignError> {
    match name {
        "random" => Ok(DosStrategy::Random),
        "isolate-node" => Ok(DosStrategy::IsolateNode),
        "group-targeted" => Ok(DosStrategy::GroupTargeted),
        "bisection" => Ok(DosStrategy::Bisection),
        _ => Err(CampaignError::BadSpec("dos.strategy")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_plan_has_no_directives() {
        let steps = CampaignSpec::quiet(5).plan(4).unwrap();
        assert_eq!(steps.len(), 5);
        assert!(steps.iter().all(|s| {
            s.blocked.is_empty() && s.kills.is_empty() && s.joins.is_empty() && s.lags.is_empty()
        }));
    }

    #[test]
    fn smoke_plan_is_deterministic_and_bounded() {
        let a = CampaignSpec::smoke(8, 20, 7).plan(8).unwrap();
        let b = CampaignSpec::smoke(8, 20, 7).plan(8).unwrap();
        assert_eq!(a, b, "same spec, same plan");
        assert!(a.iter().any(|s| !s.blocked.is_empty()), "attacker must act");
        for step in &a {
            assert!(step.blocked.len() <= 8 / 4 + 1, "quarter budget respected");
        }
        assert_eq!(a[10].kills, vec![7]);
        assert_eq!(a[11].joins, vec![8]);
    }

    #[test]
    fn lateness_blinds_the_attacker_initially() {
        let spec = CampaignSpec {
            rounds: 6,
            seed: 3,
            dos: Some(DosSpec { strategy: DosStrategy::Random, bound: 0.5, lateness: 3 }),
            ..CampaignSpec::default()
        };
        let steps = spec.plan(6).unwrap();
        for step in &steps[..3] {
            assert!(step.blocked.is_empty(), "no view older than t yet at round {}", step.round);
        }
        assert!(steps[3..].iter().any(|s| !s.blocked.is_empty()));
    }

    #[test]
    fn validation_rejects_bad_specs() {
        let n0 = 4;
        let base = CampaignSpec::quiet(10);

        let mut bad = base.clone();
        bad.kills = vec![(12, 0)];
        assert_eq!(bad.plan(n0), Err(CampaignError::RoundOutOfRange { round: 12, rounds: 10 }));

        let mut bad = base.clone();
        bad.joins = vec![(1, 2)];
        assert_eq!(bad.plan(n0), Err(CampaignError::JoinerInSpan { node: 2, n0 }));

        let mut bad = base.clone();
        bad.kills = vec![(1, 9)];
        assert_eq!(bad.plan(n0), Err(CampaignError::NodeNotAlive { round: 1, node: 9 }));

        let mut bad = base.clone();
        bad.joins = vec![(2, 5)];
        bad.kills = vec![(1, 5)];
        assert_eq!(bad.plan(n0), Err(CampaignError::NodeNotAlive { round: 1, node: 5 }));

        let mut bad = base.clone();
        bad.lags = vec![(1, 0, 0)];
        assert_eq!(bad.plan(n0), Err(CampaignError::ZeroLag { round: 1, node: 0 }));

        let mut bad = base.clone();
        bad.dos = Some(DosSpec { strategy: DosStrategy::Random, bound: 1.5, lateness: 1 });
        assert_eq!(bad.plan(n0), Err(CampaignError::BadBound { bound: 1.5 }));
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = CampaignSpec::smoke(8, 20, 7);
        let text = serde_json::to_string_pretty(&spec.to_value()).unwrap();
        let back = CampaignSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);

        let quiet = CampaignSpec::quiet(3);
        let back = CampaignSpec::from_value(&quiet.to_value()).unwrap();
        assert_eq!(back, quiet);
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        assert_eq!(CampaignSpec::from_json("nope"), Err(CampaignError::BadSpec("json")));
        assert_eq!(CampaignSpec::from_json("{\"seed\": 1}"), Err(CampaignError::BadSpec("rounds")));
        let mut v = CampaignSpec::quiet(3).to_value();
        if let Value::Object(map) = &mut v {
            map.insert(
                "dos".to_string(),
                json!({ "strategy": "psychic", "bound": 0.1, "lateness": 0 }),
            );
        }
        assert_eq!(CampaignSpec::from_value(&v), Err(CampaignError::BadSpec("dos.strategy")));
    }
}
