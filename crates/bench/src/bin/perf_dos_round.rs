//! Perf trajectory of the healed DoS round: where one
//! `FaultyRunner<DosOverlay>` round spends its time.
//!
//! ```text
//! cargo run --release -p reconfig-bench --bin perf_dos_round -- [--smoke] [--seed N]
//! ```
//!
//! Builds the repo benchmark's `dos_healing` workload (n = 8 192, four
//! epochs, loss 0.2, crash hazard 0.002 per round, recovery after two
//! epochs, at most 10 % down, healing on, a 2t-late `GroupTargeted`
//! attacker at r = 0.3 with its budget judged) and reads a clock at every
//! section boundary of every round: the three steps of the attack prologue
//! that [`attack_round`](reconfig_core::healing::attack_round) runs (the overlay's snapshot, the attacker's
//! observe and pick, the budget judge), then the seven sections of
//! [`FaultyRunner::step_timed`] from its `lap` callback. Prints microseconds
//! per round (a repetition's total over its rounds, so the per-epoch work —
//! staleness, the reconfiguration and its broadcast draws — is spread over
//! the rounds that pay for it) as the median over repetitions. The full run
//! rewrites `BENCH_DOS_ROUND.json` at the workspace root with host facts;
//! `--smoke` runs a small population, checks that the timed round computes
//! what `FaultyRunner::run` computes, and writes nothing.
//!
//! The round has no parallel section, so there is no `--cores`. Allocation
//! counts are not reported: a counting allocator is an `unsafe impl`, and
//! `benchmark/` already reports `allocs_per_call` for these calls.

use overlay_adversary::dos::{DosAdversary, DosStrategy};
use overlay_adversary::faults::FaultSchedule;
use reconfig_bench::{cpu_model, host_cpus, median, RunError, Table};
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay, HealingParams};
use std::time::Instant;

/// The attacker's budget, declared to the monitor as well.
const DOS_BOUND: f64 = 0.3;

/// Sections of one round in execution order: the prologue this binary
/// times itself, then the names `step_timed` reports.
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
        // `attack_round`, one lap per step.
        let (round, n) = (runner.overlay.round(), runner.overlay.len());
        let snap = runner.overlay.snapshot(round);
        lap("snapshot");
        adversary.observe(snap);
        let blocked = adversary.block(round, n);
        lap("observe + pick");
        runner.monitor.check_budget(round, &blocked, DOS_BOUND, n);
        lap("budget judge");
        runner.step_timed(&blocked, &mut lap);
        assert_eq!(slot, SECTIONS.len(), "every section of the round was reported");
    }
    (spent, fingerprint(&runner), rounds)
}

fn run(smoke: bool, seed: u64) {
    let (n, epochs, reps) = if smoke { (512, 2, 2) } else { (8192, 4, 15) };

    let (mut plain, mut adversary, rounds) = build(n, epochs, seed);
    plain.run(&mut adversary, rounds);
    let expected = fingerprint(&plain);

    let mut per_section: Vec<Vec<f64>> = vec![Vec::new(); SECTIONS.len()];
    let mut per_round = Vec::new();
    for rep in 0..=reps {
        let (spent, got, rounds) = timed_rep(n, epochs, seed);
        if got != expected {
            RunError::new(
                "compare the timed round with FaultyRunner::run",
                format!("{got:x?} vs {expected:x?}"),
            )
            .exit();
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
    let mut table = Table::new(
        format!(
            "perf_dos_round: FaultyRunner<DosOverlay> n={n} seed={seed}, {rounds} rounds, \
             median of {reps} repetitions"
        ),
        &["section", "us / round", "share"],
    );
    let mut rows = Vec::new();
    for (slot, name) in per_section.iter_mut().zip(SECTIONS) {
        let us = median(slot);
        table.row(vec![name.into(), format!("{us:.1}"), format!("{:.0}%", 100.0 * us / round_us)]);
        rows.push(serde_json::json!({ "section": name, "us_per_round": us }));
    }
    table.row(vec!["whole round".into(), format!("{round_us:.1}"), "100%".into()]);
    table.print();

    if smoke {
        println!(
            "perf_dos_round smoke: timed and untimed rounds agree, digest {:#018x}",
            expected[0]
        );
        return;
    }
    let bench = serde_json::json!({
        "bench": "DOS_ROUND",
        "title": "The healed DoS round: sections of FaultyRunner<DosOverlay>::step and its attack prologue",
        "host_cpus": host_cpus(),
        "cpu": cpu_model(),
        "target_arch": std::env::consts::ARCH,
        "n": n, "epochs": epochs, "rounds": rounds, "seed": seed, "repetitions": reps,
        "state_digest": format!("{:#018x}", expected[0]),
        "round_us": round_us,
        "sections": rows,
    });
    let path = "BENCH_DOS_ROUND.json";
    let pretty = serde_json::to_string_pretty(&bench)
        .unwrap_or_else(|e| RunError::new(format!("serialize {path}"), e).exit());
    std::fs::write(path, pretty + "\n")
        .unwrap_or_else(|e| RunError::new(format!("write {path}"), e).exit());
    println!("bench: {path}");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let seed =
        args.iter().position(|a| a == "--seed").and_then(|i| args.get(i + 1)).map_or(11, |v| {
            v.parse::<u64>().unwrap_or_else(|_| {
                RunError::new("parse --seed", format!("takes an unsigned integer, got `{v}`"))
                    .exit()
            })
        });
    run(smoke, seed);
}
