//! A5 — survival under composite faults, with and without self-healing.
//!
//! Sweeps message-loss rate × crash hazard over the Section 5 overlay
//! (n = 512, Random 2t-late DoS at r = 0.3 throughout) and runs every
//! seed of every cell twice: with the self-healing layer (heartbeat
//! eviction, re-request with backoff, rejoin) and as a no-healing control
//! under the *identical* fault draws. A run survives when connectivity
//! and the group-size band hold in every round and stale members
//! (crashed or desynchronized) never reach half the membership.
//!
//! Expected shape: the fault-free cell survives on both sides; as loss
//! and crashes grow, the no-healing column flips to failure — sticky
//! desynchronization freezes reconfiguration and stale members accumulate
//! — while the healed column keeps surviving. The crossover between the
//! two columns is the experiment's result: healing is what buys the
//! beyond-model fault tolerance, not the overlay alone.

use super::prelude::*;
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use overlay_adversary::faults::FaultSchedule;
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay, HealingParams};
use reconfig_core::monitor::{Invariant, InvariantMonitor};

pub const EXP: Experiment = Experiment::swept(
    "A5",
    "Fault survival with and without self-healing",
    "Beyond-model extension (Section 7 outlook)",
    &[SWEEP],
    verdict,
)
.with_telemetry();

/// Seeds per cell; each seed runs both arms.
const K: u64 = 16;

const SWEEP: Sweep = Sweep {
    title: "A5: fault survival, healing vs control (beyond-model faults)",
    k: K,
    axes: || {
        let loss = [0.0, 0.1, 0.2, 0.3, 0.45].map(|l| (format!("{l:.2}"), l));
        let hazard = [0.0, 0.002, 0.005].map(|h| (format!("{h:.3}"), h));
        vec![Axis::shown("loss", loss), Axis::shown("crash_hazard", hazard)]
    },
    cell,
};

/// One arm of one run: its monitor and its heal counters.
fn arm(cell: &Cell, seed: u64, healing: bool) -> (InvariantMonitor, u64, u64) {
    let [overlay_seed, fault_seed, attacker_seed] = split(seed);
    let mut ov = DosOverlay::new(512, DosParams::default(), overlay_seed);
    let epoch_len = ov.epoch_len();
    let tel = cell.tel.with_labels(&[("arm", if healing { "healed" } else { "control" })]);
    ov.set_telemetry(tel.clone());
    // Crash-recovery after two epochs; the crashed fraction is capped at
    // 10% of the population, the paper-legal DoS budget stays at 0.3.
    let (loss, hazard) = (cell.f64("loss"), cell.f64("crash_hazard"));
    let schedule = FaultSchedule::new(fault_seed, loss, hazard, Some(2 * epoch_len), 0.1);
    let mut runner = FaultyRunner::new(ov, schedule, HealingParams::default(), healing)
        .with_dos_bound(0.3)
        .with_telemetry(tel);
    let mut adv = DosAdversary::new(DosStrategy::Random, 0.3, 2 * epoch_len, attacker_seed);
    runner.run(&mut adv, 8 * epoch_len);
    let (evictions, rejoins) = (runner.stats().evictions, runner.stats().rejoins);
    (runner.monitor, evictions, rejoins)
}

fn survived(m: &InvariantMonitor) -> bool {
    let watched = [Invariant::Connectivity, Invariant::StaleBound, Invariant::GroupSizeBand];
    watched.iter().all(|&i| m.count(i) == 0)
}

fn cell(cell: &Cell, seed: u64) -> Result<Metrics, RunError> {
    let (healed, evictions, rejoins) = arm(cell, seed, true);
    let (control, ..) = arm(cell, seed, false);
    let first = control.first_violation().map(|v| v.round as f64);
    Ok(Metrics::new()
        .rate("healed_survives", survived(&healed))
        .count("healed_evictions", evictions)
        .count("healed_rejoins", rejoins)
        .rate("control_survives", survived(&control))
        .count("control_stale_rounds", control.count(Invariant::StaleBound))
        .maybe("control_first_violation", first))
}

fn verdict(t: &[Vec<Agg>]) -> Vec<Check> {
    let both = |a: &Agg| a.always("healed_survives") && a.always("control_survives");
    let model =
        t[0].iter().filter(|a| a.at("loss") == 0.0 && a.at("crash_hazard") == 0.0).all(both);
    let healed = t[0].iter().all(|a| a.always("healed_survives"));
    let apart = |a: &Agg| a.wilson("control_survives").1 < a.wilson("healed_survives").0;
    vec![
        Check::claim("inside the paper's model both arms survive on every seed", model),
        Check::claim("the healed arm survives every cell on every seed", healed),
        Check::claim(
            "some cell separates the arms (control's Wilson interval below the healed one's)",
            t[0].iter().any(apart),
        ),
    ]
}
