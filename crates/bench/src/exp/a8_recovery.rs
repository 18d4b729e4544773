//! A8 — catastrophic-failure time-to-recover.
//!
//! Injects beyond-budget correlated bursts (whole supernode groups crash
//! at once, then flood back inside a storm window) and finite-duration
//! partitions, with an ambient within-budget blocking adversary running
//! throughout, and measures *time-to-recover*: rounds from the
//! catastrophe until every monitor invariant has held for `G`
//! consecutive rounds (`G` = the recovery layer's exit hysteresis).
//! Every cell runs twice on the same seed — with the recovery protocol
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

use crate::driver::{or_null, Experiment, Row, Run, RunError};
use overlay_adversary::catastrophe::{CatastropheCampaign, CatastropheSpec};
use overlay_adversary::faults::FaultSchedule;
use overlay_adversary::{DosAdversary, DosStrategy};
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay, HealingParams};
use reconfig_core::monitor::Invariant;
use reconfig_core::recovery::RecoveryParams;
use simnet::{Burst, BurstTarget, TimedPartition};

pub const EXP: Experiment = Experiment::new(
    "A8",
    "catastrophic-failure time-to-recover",
    "the recovery protocol survives correlated bursts that permanently shrink or \
            disconnect the no-recovery control, with bounded time-to-recover",
    run,
);

/// Same small-group regime as A6/A7 (`c = 1`): group-targeted bursts
/// empty whole groups instead of denting big ones.
fn params() -> DosParams {
    DosParams { group_c: 1.0, ..DosParams::default() }
}

/// Ambient blocking pressure present in every cell (well within budget).
const AMBIENT_BOUND: f64 = 0.10;

/// The invariants that count as survival failures for A8.
const SURVIVAL: [Invariant; 4] = [
    Invariant::Connectivity,
    Invariant::Availability,
    Invariant::GroupSizeBand,
    Invariant::StaleBound,
];

/// The population and seed of every cell.
const N: usize = 512;
const SEED: u64 = 0xA8A8;

/// Run one arm of one cell (overlay + ambient adversary + catastrophe
/// spec) and complete its `row` with what the arm did; also returns
/// whether it survived and its time-to-recover. `event_round` anchors
/// the TTR clock (burst round, or partition heal round). Recovery is
/// declared at the first post-event round where every invariant has been
/// green for `G` straight rounds and the storm queue is drained.
fn run_cell(
    row: Row,
    spec: &CatastropheSpec,
    enabled: bool,
    rp: RecoveryParams,
    total_epochs: u64,
    event_round: u64,
) -> (Row, bool, Option<u64>) {
    let ov = DosOverlay::new(N, params(), SEED);
    let epoch_len = ov.epoch_len();
    let faults = FaultSchedule::none();
    let mut r = FaultyRunner::new(ov, faults, HealingParams::default(), true).with_catastrophes(
        spec.schedule(),
        rp,
        enabled,
        spec.seed,
    );
    let initial = r.overlay.len();
    let mut adv = CatastropheCampaign::new(
        DosAdversary::new(DosStrategy::Random, AMBIENT_BOUND, 2 * epoch_len, SEED ^ 0xA8),
        spec.clone(),
    );
    let g = rp.exit_hysteresis;
    let mut ttr = None;
    for _ in 0..total_epochs * epoch_len {
        r.run(&mut adv, 1);
        let (now, c) = (r.overlay.round(), r.layer());
        if ttr.is_none() && now > event_round && c.healthy_streak() >= g && c.pending_arrivals() == 0
        {
            ttr = Some(now - event_round);
        }
    }
    let s = r.layer().stats();
    let monitor = &r.monitor;
    let members = r.overlay.len();
    // Survival = green for G straight rounds after the event with no node
    // permanently lost *to the catastrophe*: the TTR clock only starts
    // once the storm queue is drained, so zero orphans means every victim
    // made it back. (The ambient blocker occasionally evicts an unlucky
    // node it kept silent for three straight epochs — identical noise in
    // both arms, not counted against survival; the members column shows
    // it.)
    let survived = ttr.is_some() && s.orphaned == 0;
    let shown_ttr = match (survived, ttr) {
        (true, Some(t)) => t.to_string(),
        // Stabilized, but minus its orphans: lossy, not a recovery.
        (false, Some(t)) => format!("{t} (lossy)"),
        _ => "never".into(),
    };
    let row = row
        .cell("arm", "arm", if enabled { "recovery" } else { "control" })
        .cell_as("TTR (rounds)", "ttr_rounds", or_null(ttr), shown_ttr)
        .cell("conn viol", "connectivity_violations", monitor.count(Invariant::Connectivity))
        .cell("orphaned", "orphaned", s.orphaned)
        .cell_as("members", "final_members", members, format!("{members}/{initial}"))
        .key("initial_members", initial)
        .key("n", N)
        .key("survived", survived)
        .key("total_violations", SURVIVAL.iter().map(|&inv| monitor.count(inv)).sum::<u64>())
        .key("admitted", s.admitted)
        .key("rejected", s.rejected)
        .key("reconciled", s.reconciled)
        .key("shed_rounds", s.shed_rounds)
        .key("mode_transitions", r.layer().transitions().len());
    (row, survived, ttr)
}

fn run(run: &mut Run) -> Result<(), RunError> {
    let fracs = [0.10, 0.20, 0.30, 0.45];
    let windows = [1u64, 4, 8];
    let partition_cells = [(0.20, 2u64), (0.20, 6), (0.45, 2), (0.45, 6)];
    let (burst_epochs, partition_epochs) = (26u64, 34u64);

    let base = RecoveryParams::from_env()
        .map_err(|e| RunError::new("parse recovery knobs", e.to_string()))?;
    // One join slot per round: a single stressed introducer, so the
    // post-eviction tail of a long storm actually overflows the join
    // path (with the default capacity the control quietly keeps up and
    // the arms are indistinguishable).
    let rp = RecoveryParams { join_capacity: 1, ..base };

    let epoch_len = DosOverlay::epoch_len_for(N, &params());
    let burst_at = 3 * epoch_len;

    run.table("A8: time-to-recover, recovery vs control");

    // Burst sweep: fraction x storm window x arm, group-targeted, plus
    // one contiguous-target pair for comparison.
    let mut burst_cells: Vec<(f64, u64, BurstTarget)> = Vec::new();
    for &frac in &fracs {
        for &w in &windows {
            burst_cells.push((frac, w, BurstTarget::Groups));
        }
    }
    burst_cells.push((0.30, 4, BurstTarget::Contiguous));

    // (frac, window, target-label, arm, survived, ttr) for the headline.
    type MatrixRow = (f64, u64, &'static str, bool, bool, Option<u64>);
    let mut matrix: Vec<MatrixRow> = Vec::new();
    for &(frac, w, target) in &burst_cells {
        let tname = match target {
            BurstTarget::Groups => "groups",
            BurstTarget::Contiguous => "contiguous",
        };
        let spec = CatastropheSpec::new(SEED).with_burst(Burst {
            at: burst_at,
            frac,
            target,
            storm_window: w * epoch_len,
        });
        for enabled in [true, false] {
            let cell = Row::new()
                .show("cell", format!("burst {tname} f={frac:.2} w={w}ep"))
                .key("kind", "burst")
                .key("target", tname)
                .key("frac", frac)
                .key("storm_window_epochs", w)
                .key("partition_epochs", 0u64);
            let (row, survived, ttr) = run_cell(cell, &spec, enabled, rp, burst_epochs, burst_at);
            run.row(row);
            matrix.push((frac, w, tname, enabled, survived, ttr));
        }
    }

    // Partition cells: side fraction x duration x arm. TTR clock starts
    // at the heal round — recovery here is reconciliation speed.
    for &(side_frac, dur) in &partition_cells {
        let heal_at = burst_at + dur * epoch_len;
        let spec = CatastropheSpec::new(SEED).with_partition(TimedPartition {
            at: burst_at,
            heal_at,
            side_frac,
        });
        for enabled in [true, false] {
            let cell = Row::new()
                .show("cell", format!("partition s={side_frac:.2} d={dur}ep"))
                .key("kind", "partition")
                .key("target", "side")
                .key("frac", side_frac)
                .key("storm_window_epochs", 0u64)
                .key("partition_epochs", dur);
            run.row(run_cell(cell, &spec, enabled, rp, partition_epochs, heal_at).0);
        }
    }

    // Max survivable burst per arm and storm window (group-targeted).
    run.table("max survivable burst fraction");
    for &w in &windows {
        let best = |arm_enabled: bool| {
            matrix
                .iter()
                .filter(|&&(_, mw, t, e, s, _)| mw == w && t == "groups" && e == arm_enabled && s)
                .map(|&(f, ..)| f)
                .fold(None::<f64>, |acc, f| Some(acc.map_or(f, |a: f64| a.max(f))))
        };
        let show = |b: Option<f64>| b.map(|f| format!("{f:.2}")).unwrap_or_else(|| "none".into());
        let (r_best, c_best) = (best(true), best(false));
        run.row(
            Row::new()
                .cell_as("storm window", "storm_window_epochs", w, format!("{w} epochs"))
                .cell_as("recovery", "recovery", or_null(r_best), show(r_best))
                .cell_as("control", "control", or_null(c_best), show(c_best))
                .key("kind", "max_survivable")
                .key("n", N),
        );
    }

    // Headline: a cell where the recovery arm comes back whole and the
    // control does not.
    let separated: Vec<&MatrixRow> = matrix
        .iter()
        .filter(|&&(f, w, t, e, s, _)| {
            e && s
                && matrix
                    .iter()
                    .any(|&(f2, w2, t2, e2, s2, _)| !e2 && !s2 && f2 == f && w2 == w && t2 == t)
        })
        .collect();
    run.note(if let Some(&&(f, w, t, _, _, ttr)) = separated.first() {
        format!(
            "separation: burst {t} f={f:.2} w={w}ep kills the control (orphaned, never whole \
             again) while the recovery arm returns to all-invariants-green in {} rounds.",
            ttr.map(|t| t.to_string()).unwrap_or_else(|| "?".into()),
        )
    } else {
        "warning: no cell separates the arms — inspect the matrix above.".into()
    });
    Ok(())
}
