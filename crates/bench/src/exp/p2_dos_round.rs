//! Perf trajectory of the healed DoS round: where one
//! `FaultyRunner<DosOverlay>` round spends its time.
//!
//! ```text
//! cargo run --release -p reconfig-bench --bin exp -- P2 [--smoke] [--seed N]
//! ```
//!
//! Builds the repo benchmark's `dos_healing` workload (n = 8 192, four
//! epochs, loss 0.2, crash hazard 0.002 per round, recovery after two
//! epochs, at most 10 % down, healing on, a 2t-late `GroupTargeted`
//! attacker at r = 0.3 with its budget judged) and reads a clock at every
//! section boundary of every round, all ten reported by
//! [`FaultyRunner::round_timed`]'s `lap` callback: the three steps of the
//! attack prologue (the overlay's snapshot, the attacker's observe and
//! pick, the budget judge), then the seven sections of the step. Prints
//! microseconds per round (a repetition's total over its rounds, so the
//! per-epoch work — staleness, the reconfiguration and its broadcast
//! draws — is spread over the rounds that pay for it) as the median over
//! repetitions. The full run
//! rewrites `BENCH_DOS_ROUND.json` at the workspace root (the driver adds
//! the host facts);
//! `--smoke` runs a small population, checks that the timed round computes
//! what `FaultyRunner::run` computes, and writes nothing.
//!
//! The round has no parallel section, so there is no `--cores`. Allocation
//! counts are not reported: a counting allocator is an `unsafe impl`, and
//! `benchmark/` already reports `allocs_per_call` for these calls.

use crate::driver::{Experiment, Row, Run, RunError};
use crate::median;
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use overlay_adversary::faults::FaultSchedule;
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay, HealingParams};
use std::time::Instant;

pub const EXP: Experiment = Experiment {
    smoke: true,
    seed: Some(11),
    ..Experiment::new(
        "P2",
        "The healed DoS round: sections of FaultyRunner<DosOverlay>::step and its attack prologue",
        "perf trajectory of the healed DoS round (BENCH_DOS_ROUND.json)",
        run,
    )
};

/// The attacker's budget, declared to the monitor as well.
const DOS_BOUND: f64 = 0.3;

/// Sections of one round in execution order, as `round_timed` reports
/// them: the attack prologue, then the step.
const SECTIONS: [&str; 10] = [
    "snapshot",
    "observe + pick",
    "budget judge",
    "membership",
    "crash draws",
    "retries + staleness",
    "effective set",
    "overlay step",
    "broadcast draws",
    "monitor",
];

/// The `dos_healing` workload of `benchmark/src/workloads/dos.rs`.
fn build(n: usize, epochs: u64, seed: u64) -> (FaultyRunner<DosOverlay>, DosAdversary, u64) {
    let overlay = DosOverlay::new(n, DosParams::default(), seed);
    let t = overlay.epoch_len();
    let schedule = FaultSchedule::new(seed ^ 0x5EED, 0.2, 0.002, Some(2 * t), 0.1);
    let runner = FaultyRunner::new(overlay, schedule, HealingParams::default(), true)
        .with_dos_bound(DOS_BOUND);
    let adversary = DosAdversary::new(DosStrategy::GroupTargeted, DOS_BOUND, 2 * t, seed + 1);
    (runner, adversary, epochs * t)
}

/// What a run computed: the overlay's final digest, the healing counters
/// and the monitor's totals.
fn fingerprint(runner: &FaultyRunner<DosOverlay>) -> [u64; 7] {
    let s = runner.stats();
    let m = &runner.monitor;
    [
        runner.overlay.state_digest(),
        s.crashes,
        s.evictions,
        s.retries,
        s.rejoins,
        m.total(),
        m.rounds(),
    ]
}

/// One repetition: seconds spent in each section, and the fingerprint.
fn timed_rep(n: usize, epochs: u64, seed: u64) -> ([f64; 10], [u64; 7], u64) {
    let (mut runner, mut adversary, rounds) = build(n, epochs, seed);
    let mut spent = [0.0f64; 10];
    for _ in 0..rounds {
        let mut last = Instant::now();
        let mut slot = 0;
        let mut lap = |name: &'static str| {
            let now = Instant::now();
            spent[slot] += (now - last).as_secs_f64();
            last = now;
            assert_eq!(SECTIONS[slot], name, "sections are reported in order");
            slot += 1;
        };
        runner.round_timed(&mut adversary, &mut lap);
        assert_eq!(slot, SECTIONS.len(), "every section of the round was reported");
    }
    (spent, fingerprint(&runner), rounds)
}

fn run(run: &mut Run) -> Result<(), RunError> {
    let seed = run.seed;
    let (n, epochs, reps) = if run.smoke { (512, 2, 2) } else { (8192, 4, 15) };

    let (mut plain, mut adversary, rounds) = build(n, epochs, seed);
    plain.run(&mut adversary, rounds);
    let expected = fingerprint(&plain);

    let mut per_section: Vec<Vec<f64>> = vec![Vec::new(); SECTIONS.len()];
    let mut per_round = Vec::new();
    for rep in 0..=reps {
        let (spent, got, rounds) = timed_rep(n, epochs, seed);
        if got != expected {
            return Err(RunError::new(
                "compare the timed round with FaultyRunner::run",
                format!("{got:x?} vs {expected:x?}"),
            ));
        }
        if rep == 0 {
            continue; // warm-up: first-touch page faults
        }
        for (slot, s) in per_section.iter_mut().zip(spent) {
            slot.push(s * 1e6 / rounds as f64);
        }
        per_round.push(spent.iter().sum::<f64>() * 1e6 / rounds as f64);
    }

    let round_us = median(&mut per_round);
    run.table(format!(
        "P2: FaultyRunner<DosOverlay> n={n} seed={seed}, {rounds} rounds, \
         median of {reps} repetitions"
    ));
    for (slot, name) in per_section.iter_mut().zip(SECTIONS) {
        let us = median(slot);
        run.row(
            Row::new()
                .cell("section", "section", name)
                .cell_as("us / round", "us_per_round", us, format!("{us:.1}"))
                .show("share", format!("{:.0}%", 100.0 * us / round_us)),
        );
    }
    let whole =
        Row::new().show("section", "whole round").show("us / round", format!("{round_us:.1}"));
    run.row(whole.show("share", "100%"));
    let sections = run.take_rows();

    if run.smoke {
        run.note(format!("P2 smoke: timed and untimed rounds agree, digest {:#018x}", expected[0]));
        return Ok(());
    }
    let body = serde_json::json!({
        "n": n, "epochs": epochs, "rounds": rounds, "seed": seed, "repetitions": reps,
        "state_digest": format!("{:#018x}", expected[0]),
        "round_us": round_us,
        "sections": sections,
    });
    run.bench("DOS_ROUND", body);
    Ok(())
}
