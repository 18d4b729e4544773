//! Perf trajectory of the live cluster: how fast four and eight daemons
//! turn rounds over loopback TCP, and what one round costs.
//!
//! ```text
//! cargo run --release -p reconfig-bench --bin perf_cluster -- [--smoke] [--seed N]
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
//! workspace root with host facts; `--smoke` runs 60 rounds and writes
//! nothing.

use overlay_adversary::remote::CampaignSpec;
use reconfig_bench::{cpu_model, host_cpus, median, RunError, Table};
use reconfig_core::nodert::{replay, ClusterTrace};
use reconfig_node::cluster::{run_cluster, ClusterConfig, ClusterReport};
use simnet::Digest;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

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

fn run_or_exit(config: &ClusterConfig) -> ClusterReport {
    run_cluster(config)
        .unwrap_or_else(|e| RunError::new(format!("run the n0={} cluster", config.n0), e).exit())
}

/// Threads this process runs right now; `None` without `/proc`.
fn live_threads() -> Option<usize> {
    std::fs::read_dir("/proc/self/task").ok().map(|dir| dir.count())
}

/// Peak threads per daemon during one run of `config`, from a sampler
/// thread counting this process's threads; the sampler and every thread
/// that existed before the run are not the daemons'.
fn threads_per_daemon(config: &ClusterConfig) -> Option<f64> {
    let before = live_threads()?;
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
        run_or_exit(config);
        done.store(true, Ordering::Relaxed);
        sampler.join().expect("sampler thread")
    });
    Some(peak.saturating_sub(before + 1) as f64 / config.n0 as f64)
}

/// Nearest-rank percentile of sorted `xs`.
fn percentile(xs: &[f64], q: f64) -> f64 {
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

fn run(smoke: bool, seed: u64) {
    let (rounds, reps) = if smoke { (60, 2) } else { (1200, 9) };
    let mut table = Table::new(
        format!(
            "perf_cluster: thread-mode cluster, smoke campaign seed={seed}, {rounds} rounds, \
             epoch_ms 0, {reps} repetitions"
        ),
        &["n0", "rounds/s", "p50 us", "p99 us", "max us", "threads/daemon", "replay ms"],
    );
    let mut rows = Vec::new();
    for n0 in SIZES {
        let mut config = ClusterConfig::threads(n0, seed, CampaignSpec::smoke(n0, rounds, seed));
        config.knobs.epoch_ms = 0;
        // Warm-up: first-touch costs, and any pool the replay starts.
        let expected = trace_digest(&run_or_exit(&config).trace);
        // Counted at a 1 ms floor, so the sampler sees the run many times.
        let mut paced = config.clone();
        paced.knobs.epoch_ms = 1;
        let threads = threads_per_daemon(&paced);

        let (mut per_s, mut replay_ms, mut latencies_us) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..reps {
            let start = Instant::now();
            let report = run_or_exit(&config);
            per_s.push(rounds as f64 / start.elapsed().as_secs_f64());
            let got = trace_digest(&report.trace);
            if got != expected {
                RunError::new(
                    format!("compare n0={n0} repetitions"),
                    format!("trace digest {got:#018x} != {expected:#018x}"),
                )
                .exit();
            }
            let start = Instant::now();
            replay(&report.trace).unwrap_or_else(|e| RunError::new("replay the trace", e).exit());
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
        let threads_cell = threads.map_or("n/a".into(), |t| format!("{t:.1}"));
        table.row(vec![
            n0.to_string(),
            format!("{per_s:.0}"),
            format!("{p50:.1}"),
            format!("{p99:.1}"),
            format!("{max:.1}"),
            threads_cell,
            format!("{replay_ms:.2}"),
        ]);
        rows.push(serde_json::json!({
            "n0": n0,
            "rounds_per_s": per_s,
            "round_p50_us": p50,
            "round_p99_us": p99,
            "round_max_us": max,
            "threads_per_daemon": threads.map_or(serde_json::Value::Null, Into::into),
            "replay_ms": replay_ms,
            "trace_digest": format!("{expected:#018x}"),
        }));
    }
    table.print();

    if smoke {
        println!("perf_cluster smoke: every repetition recorded the same trace and it replays");
        return;
    }
    let bench = serde_json::json!({
        "bench": "CLUSTER",
        "title": "The live cluster: thread-mode daemons over loopback TCP, smoke campaign, no pacing floor",
        "host_cpus": host_cpus(),
        "cpu": cpu_model(),
        "target_arch": std::env::consts::ARCH,
        "seed": seed, "rounds": rounds, "repetitions": reps, "epoch_ms": 0,
        "rows": rows,
    });
    let path = "BENCH_CLUSTER.json";
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
