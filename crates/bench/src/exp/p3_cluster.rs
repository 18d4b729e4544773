//! Perf trajectory of the live cluster: how fast four and eight daemons
//! turn rounds over loopback TCP, and what one round costs.
//!
//! ```text
//! cargo run --release -p reconfig-bench --bin exp -- P3 [--smoke] [--seed N]
//! ```
//!
//! Runs `CampaignSpec::smoke(n0, rounds, seed)` — the `cluster_rounds`
//! campaign of the repo benchmark (a random 2-late DoS at a quarter budget,
//! one kill, one join, two lag injections) — in thread mode with the
//! coordinator's pacing floor at zero, at n0 = 4 and n0 = 8. Per n0 it
//! prints rounds per second (median over repetitions), the p50 / p99 / max
//! of the per-round latency the coordinator measures (first tick written to
//! last report read, pooled over repetitions), the threads each daemon runs
//! (a sampler counts `/proc/self/task` during one paced run) and the time
//! of the replay oracle on the recorded trace. Every repetition must record
//! the same trace. The full run rewrites `BENCH_CLUSTER.json` at the
//! workspace root (the driver adds the host facts); `--smoke` runs 60 rounds and writes
//! nothing.

use crate::driver::{or_null, Experiment, Row, Run, RunError};
use crate::median;
use overlay_adversary::remote::CampaignSpec;
use overlay_stats::percentile;
use reconfig_core::nodert::{replay, ClusterTrace};
use reconfig_node::cluster::{run_cluster, ClusterConfig, ClusterReport};
use simnet::Digest;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

pub const EXP: Experiment = Experiment {
    smoke: true,
    seed: Some(11),
    ..Experiment::new(
        "P3",
        "The live cluster: thread-mode daemons over loopback TCP, smoke campaign, no pacing floor",
        "perf trajectory of the live cluster's round (BENCH_CLUSTER.json)",
        run,
    )
};

/// What the rows are measured at.
const SIZES: [u64; 2] = [4, 8];

/// The digest `benchmark/src/workloads/cluster.rs` prints for a trace.
fn trace_digest(trace: &ClusterTrace) -> u64 {
    let mut d = Digest::new();
    for r in &trace.rounds {
        d.write_u64(r.round);
        for &(node, digest) in &r.digests {
            d.write_u64(node).write_u64(digest);
        }
    }
    d.finish()
}

fn run_or_err(config: &ClusterConfig) -> Result<ClusterReport, RunError> {
    run_cluster(config).map_err(|e| RunError::new(format!("run the n0={} cluster", config.n0), e))
}

/// Threads this process runs right now; `None` without `/proc`.
fn live_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|dir| dir.count())
}

/// Peak threads per daemon during one run of `config`, from a sampler
/// thread counting this process's threads; the sampler and every thread
/// that existed before the run are not the daemons'.
fn threads_per_daemon(config: &ClusterConfig) -> Result<Option<f64>, RunError> {
    let Some(before) = live_threads() else { return Ok(None) };
    let done = AtomicBool::new(false);
    let peak = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Relaxed) {
                peak = peak.max(live_threads().unwrap_or(0));
                std::thread::sleep(Duration::from_micros(200));
            }
            peak
        });
        let report = run_or_err(config);
        done.store(true, Ordering::Relaxed);
        report.map(|_| sampler.join().expect("sampler thread"))
    })?;
    Ok(Some(peak.saturating_sub(before + 1) as f64 / config.n0 as f64))
}

fn run(run: &mut Run) -> Result<(), RunError> {
    let seed = run.seed;
    let (rounds, reps) = if run.smoke { (60, 2) } else { (1200, 9) };
    run.table(format!(
        "P3: thread-mode cluster, smoke campaign seed={seed}, {rounds} rounds, \
         epoch_ms 0, {reps} repetitions"
    ));
    for n0 in SIZES {
        let mut config = ClusterConfig::threads(n0, seed, CampaignSpec::smoke(n0, rounds, seed));
        config.knobs.epoch_ms = 0;
        // Warm-up: first-touch costs, and any pool the replay starts.
        let expected = trace_digest(&run_or_err(&config)?.trace);
        // Counted at a 1 ms floor, so the sampler sees the run many times.
        let mut paced = config.clone();
        paced.knobs.epoch_ms = 1;
        let threads = threads_per_daemon(&paced)?;

        let (mut per_s, mut replay_ms, mut latencies_us) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..reps {
            let start = Instant::now();
            let report = run_or_err(&config)?;
            per_s.push(rounds as f64 / start.elapsed().as_secs_f64());
            let got = trace_digest(&report.trace);
            if got != expected {
                return Err(RunError::new(
                    format!("compare n0={n0} repetitions"),
                    format!("trace digest {got:#018x} != {expected:#018x}"),
                ));
            }
            let start = Instant::now();
            replay(&report.trace).map_err(|e| RunError::new("replay the trace", e))?;
            replay_ms.push(start.elapsed().as_secs_f64() * 1e3);
            latencies_us.extend(report.round_latencies.iter().map(|d| d.as_secs_f64() * 1e6));
        }
        latencies_us.sort_by(f64::total_cmp);
        let (p50, p99, max) = (
            percentile(&latencies_us, 0.50),
            percentile(&latencies_us, 0.99),
            latencies_us[latencies_us.len() - 1],
        );
        let (per_s, replay_ms) = (median(&mut per_s), median(&mut replay_ms));
        let us = |v: f64| format!("{v:.1}");
        run.row(
            Row::new()
                .cell("n0", "n0", n0)
                .cell_as("rounds/s", "rounds_per_s", per_s, format!("{per_s:.0}"))
                .cell_as("p50 us", "round_p50_us", p50, us(p50))
                .cell_as("p99 us", "round_p99_us", p99, us(p99))
                .cell_as("max us", "round_max_us", max, us(max))
                .cell_as(
                    "threads/daemon",
                    "threads_per_daemon",
                    or_null(threads),
                    threads.map_or("n/a".into(), us),
                )
                .cell_as("replay ms", "replay_ms", replay_ms, format!("{replay_ms:.2}"))
                .key("trace_digest", format!("{expected:#018x}")),
        );
    }
    let rows = run.take_rows();

    if run.smoke {
        run.note("P3 smoke: every repetition recorded the same trace and it replays");
        return Ok(());
    }
    let body = serde_json::json!({
        "seed": seed, "rounds": rounds, "repetitions": reps, "epoch_ms": 0,
        "rows": rows,
    });
    run.bench("CLUSTER", body);
    Ok(())
}
