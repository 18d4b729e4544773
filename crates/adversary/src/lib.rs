//! # overlay-adversary — churn and DoS adversaries
//!
//! Implements the two adversary models of the paper (Section 1.1):
//!
//! * [`churn`] — an omniscient adversary of churn rate `r` that prescribes
//!   node sets `W_i` with `|W_i|/r <= |W_{i+1}| <= r |W_i|`, introducing
//!   each new node to exactly one staying node and at most `ceil(r)` new
//!   nodes to any single node per round.
//! * [`dos`] — an `r`-bounded, `t`-late adversary that blocks up to an
//!   `r`-fraction of the nodes each round using only topology information
//!   that is at least `t` rounds old, served from the [`lateness`] gate
//!   every attacker in this crate reads through. Includes a 0-late
//!   control adversary that demonstrates the impossibility result (any
//!   polylog-degree overlay can be disconnected by a current-topology
//!   adversary).
//! * [`fuzz`] — seed-driven generation of paper-legal fault schedules
//!   (random strategy/bound/lateness/rate combinations within the limits
//!   above) for the fuzz-testing harness.
//! * [`faults`] — beyond-model composite fault schedules (probabilistic
//!   message loss, crash-stop and crash-recovery with state loss) used by
//!   the self-healing robustness harness in `reconfig-core`.
//! * [`adaptive`] — the harness every blocking attacker runs under (gate,
//!   `floor(r n)` budget, clamp, trace, telemetry) and the red-team
//!   strategies that react to the observed topology: min-cut targeting,
//!   hub/leader targeting, oscillating partitions, and follow-the-healer.
//! * [`shrink`] — delta-debugging reduction of invariant-violating block
//!   traces to minimal replayable repro files.
//! * [`workload`] — fault-campaign composition for the W-series
//!   heavy-traffic workloads: union of blocking attackers with an optional
//!   combined budget cap, plus the A5/A6-style presets.
//! * [`catastrophe`] — beyond-budget correlated-fault campaigns (mass
//!   crash bursts, rejoin storms, timed partitions) composed with the
//!   blocking attackers, with two-axis shrinkable repro traces.
//! * [`byzantine`] — Byzantine/Sybil adversary families that participate
//!   dishonestly instead of merely blocking: Sybil join campaigns, message
//!   forgery by corrupted members, eclipse attacks on the join path, and
//!   chaos mixes composable with the blocking attackers above, all driven
//!   through a budget- and lateness-enforcing harness.

pub mod adaptive;
pub mod byzantine;
pub mod catastrophe;
pub mod churn;
pub mod dos;
pub mod faults;
pub mod fuzz;
pub mod knobs;
pub mod lateness;
pub mod remote;
pub mod shrink;
pub mod workload;

pub use adaptive::{
    AdaptiveAdversary, AdaptiveHarness, AdaptiveStrategy, Attacker, FollowTheHealer,
    HighDegreeAttack, MinCutAttack, OscillatingPartition,
};
pub use byzantine::{
    ByzActions, ByzBudget, ByzCampaign, ByzFamily, ByzHarness, ChaosCampaign, EclipseCampaign,
    ForgeCampaign, Forgery, JoinRequest, SybilCampaign,
};
pub use catastrophe::{
    shrink_catastrophe, CatastropheCampaign, CatastropheRepro, CatastropheSpec, CatastropheTrace,
};
pub use churn::{ChurnEvent, ChurnSchedule, ChurnStrategy};
pub use dos::{DosAdversary, DosStrategy};
pub use faults::{FaultConfigError, FaultSchedule};
pub use fuzz::{FaultPlan, FuzzLimits};
pub use knobs::{env_knob, parse_knob, KnobError, KnobReason};
pub use lateness::{LateView, TopologyHistory, TopologySnapshot};
pub use remote::{CampaignError, CampaignSpec, CampaignStep, DosSpec};
pub use shrink::{shrink_trace, AdversaryTrace, ReplayAdversary, Repro, ShrinkReport};
pub use workload::{Campaign, ChurnBlocker};
