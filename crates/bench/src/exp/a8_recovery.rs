//! A8 — catastrophic-failure time-to-recover.
//!
//! Injects beyond-budget correlated bursts (whole supernode groups crash
//! at once, then flood back inside a storm window) and finite-duration
//! partitions, with an ambient within-budget blocking adversary running
//! throughout, and measures *time-to-recover*: rounds from the
//! catastrophe until every monitor invariant has held for `G`
//! consecutive rounds (`G` = the recovery layer's exit hysteresis).
//! Every seed of every cell runs twice — with the recovery protocol
//! (mode machine, SafeMode shedding + widened heartbeats, token-bucket
//! storm admission with backoff/retry, partition-heal reconciliation)
//! and without (the control: same bursts, same join capacity, but a
//! rejoiner rejected at the capacity is permanently orphaned).
//!
//! The join path has a per-round capacity shared by both arms (DESIGN.md
//! §12); A8 runs it tight (`join_capacity = 1`, a single stressed
//! introducer) so the storm peak actually overflows it. Expected shape:
//! short storms (returns inside the heartbeat timeout) recover in both
//! arms; once the storm outlives the eviction timeout, the control
//! orphans the overflow and never returns to size, while the recovery
//! arm keeps victims on the membership (widened heartbeats) or retries
//! them through the admission gate until everyone is back and the
//! monitor is green for `G` straight rounds.

use super::prelude::*;
use overlay_adversary::catastrophe::{CatastropheCampaign, CatastropheSpec};
use overlay_adversary::faults::FaultSchedule;
use overlay_adversary::{DosAdversary, DosStrategy};
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay, HealingParams};
use reconfig_core::monitor::Invariant;
use reconfig_core::recovery::RecoveryParams;
use simnet::{Burst, BurstTarget, TimedPartition};

pub const EXP: Experiment = Experiment::swept(
    "A8",
    "catastrophic-failure time-to-recover",
    "the recovery protocol survives correlated bursts that permanently shrink or \
            disconnect the no-recovery control, with bounded time-to-recover",
    &[GROUPS, CONTIGUOUS, PARTITIONS],
    verdict,
);

/// Seeds per cell; each seed runs both arms.
const K: u64 = 16;

/// Same small-group regime as A6/A7 (`c = 1`): group-targeted bursts
/// empty whole groups instead of denting big ones.
fn params() -> DosParams {
    DosParams { group_c: 1.0, ..DosParams::default() }
}

/// Ambient blocking pressure present in every cell (well within budget).
const AMBIENT_BOUND: f64 = 0.10;

/// The population of every cell.
const N: usize = 512;

fn epoch_len() -> u64 {
    DosOverlay::epoch_len_for(N, &params())
}

/// The catastrophe strikes at the start of epoch 3.
fn event_at() -> u64 {
    3 * epoch_len()
}

const GROUPS: Sweep = Sweep {
    title: "A8: time-to-recover after a group-targeted burst, recovery vs control",
    k: K,
    axes: || {
        let fracs = Axis::new("frac", [0.10, 0.20, 0.30, 0.45]);
        vec![fracs, Axis::new("storm_window_epochs", [1u64, 4, 8])]
    },
    cell: |cell, seed| burst(cell, seed, BurstTarget::Groups),
};

const CONTIGUOUS: Sweep = Sweep {
    title: "A8: the same after a contiguous burst",
    k: K,
    axes: || vec![Axis::new("frac", [0.30]), Axis::new("storm_window_epochs", [4u64])],
    cell: |cell, seed| burst(cell, seed, BurstTarget::Contiguous),
};

const PARTITIONS: Sweep = Sweep {
    title: "A8: time-to-recover after a healed partition",
    k: K,
    axes: || vec![Axis::new("side_frac", [0.20, 0.45]), Axis::new("partition_epochs", [2u64, 6])],
    cell: |cell, seed| {
        // TTR's clock starts at the heal round: recovery here is
        // reconciliation speed.
        let heal_at = event_at() + cell.u64("partition_epochs") * epoch_len();
        let [spec_seed, run_seed] = split(seed);
        let side_frac = cell.f64("side_frac");
        let cut = TimedPartition { at: event_at(), heal_at, side_frac };
        arms(&CatastropheSpec::new(spec_seed).with_partition(cut), 34, heal_at, run_seed)
    },
};

/// Bursts run 26 epochs.
fn burst(cell: &Cell, seed: u64, target: BurstTarget) -> Result<Metrics, RunError> {
    let storm_window = cell.u64("storm_window_epochs") * epoch_len();
    let [spec_seed, run_seed] = split(seed);
    let b = Burst { at: event_at(), frac: cell.f64("frac"), target, storm_window };
    arms(&CatastropheSpec::new(spec_seed).with_burst(b), 26, event_at(), run_seed)
}

/// Both arms of one run, under the same seed.
fn arms(spec: &CatastropheSpec, epochs: u64, event: u64, seed: u64) -> Result<Metrics, RunError> {
    let base = RecoveryParams::from_env()
        .map_err(|e| RunError::new("parse recovery knobs", e.to_string()))?;
    // One join slot per round: a single stressed introducer, so the
    // post-eviction tail of a long storm actually overflows the join
    // path (with the default capacity the control quietly keeps up and
    // the arms are indistinguishable).
    let rp = RecoveryParams { join_capacity: 1, ..base };
    let rec = run_arm(spec, true, rp, epochs * epoch_len(), event, seed);
    let ctl = run_arm(spec, false, rp, epochs * epoch_len(), event, seed);
    Ok(Metrics::new()
        .rate("recovery_survives", rec.survived)
        .maybe("recovery_ttr", rec.ttr)
        .count("recovery_members", rec.members)
        .rate("control_survives", ctl.survived)
        .maybe("control_ttr", ctl.ttr)
        .count("control_orphaned", ctl.orphaned)
        .count("control_members", ctl.members)
        .count("connectivity_violations", rec.connectivity.max(ctl.connectivity)))
}

/// What one arm of one run did.
struct Arm {
    survived: bool,
    ttr: Option<f64>,
    orphaned: u64,
    members: usize,
    connectivity: u64,
}

/// Run one arm (overlay + ambient adversary + catastrophe spec) for
/// `rounds`. Recovery is declared at the first round after `event` where
/// every invariant has been green for `G` straight rounds and the storm
/// queue is drained; `event` anchors the TTR clock (burst round, or
/// partition heal round).
fn run_arm(
    spec: &CatastropheSpec,
    on: bool,
    rp: RecoveryParams,
    rounds: u64,
    event: u64,
    seed: u64,
) -> Arm {
    let [overlay_seed, ambient_seed] = split(seed);
    let ov = DosOverlay::new(N, params(), overlay_seed);
    let ambient =
        DosAdversary::new(DosStrategy::Random, AMBIENT_BOUND, 2 * ov.epoch_len(), ambient_seed);
    let mut r = FaultyRunner::new(ov, FaultSchedule::none(), HealingParams::default(), true)
        .with_catastrophes(spec.schedule(), rp, on, spec.seed);
    let mut adv = CatastropheCampaign::new(ambient, spec.clone());
    let mut ttr = None;
    for _ in 0..rounds {
        r.run(&mut adv, 1);
        let (now, c) = (r.overlay.round(), r.layer());
        let green = c.healthy_streak() >= rp.exit_hysteresis && c.pending_arrivals() == 0;
        if ttr.is_none() && now > event && green {
            ttr = Some((now - event) as f64);
        }
    }
    // Survival = green for G straight rounds after the event with no node
    // permanently lost *to the catastrophe*: the TTR clock only starts
    // once the storm queue is drained, so zero orphans means every victim
    // made it back. (The ambient blocker occasionally evicts an unlucky
    // node it kept silent for three straight epochs — identical noise in
    // both arms, not counted against survival; the members column shows
    // it.)
    let orphaned = r.layer().stats().orphaned;
    let (members, connectivity) = (r.overlay.len(), r.monitor.count(Invariant::Connectivity));
    Arm { survived: ttr.is_some() && orphaned == 0, ttr, orphaned, members, connectivity }
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let bursts = || t[0].iter().chain(&t[1]);
    let recovered = bursts().all(|a| a.always("recovery_survives"));
    let apart = |a: &Agg| a.wilson("control_survives").1 < a.wilson("recovery_survives").0;
    vec![
        Check::claim("the recovery arm survives every burst cell on every seed", recovered),
        Check::claim(
            "some burst cell separates the arms (control's Wilson interval below recovery's)",
            bursts().any(apart),
        ),
    ]
}
