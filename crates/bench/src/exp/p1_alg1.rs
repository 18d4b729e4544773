//! Perf trajectory of the Algorithm 1 layer: the two keystream readers and
//! the phases of one `run_alg1_direct_observed` call.
//!
//! ```text
//! cargo run --release -p reconfig-bench --bin exp -- P1 [--smoke] [--cores N]
//! ```
//!
//! Prints nanoseconds per `next_u64` and per `random_range(0..4860)` (the
//! mask-and-reject draw the sampler's first pops make) for the one-block
//! `ChaCha8Rng` and the eight-block `ChaCha8Wide`, then the per-phase split
//! of `run_alg1_direct_observed` at the `expander_churn` shape (n = 1 024, d = 8,
//! default schedule) from the sampler's own spans. The full run rewrites
//! `BENCH_ALG1.json` at the workspace root (the driver adds the host
//! facts); `--smoke` runs small sizes, checks the two readers agree on
//! every timed draw and writes nothing. The record names the wide refill
//! that ran (`"refill_isa"`: `"avx2"` where the CPU has it, else
//! `"portable"`). The wide reader's gain exists only while rustc
//! vectorises its refill (DESIGN.md, "Hermetic dependency shims"): a
//! toolchain bump that stops doing so shows here as `wide` no longer
//! beating `narrow`, and `--smoke` says so on stderr.
//!
//! `--cores` defaults to 1, the pool size the repo benchmark runs under.
//! Allocation counts are not reported: a counting allocator is an `unsafe
//! impl`, and `benchmark/` already reports `allocs_per_call` for this call.

use super::hgraph;
use crate::driver::{Experiment, Pools, Row, Run, RunError};
use crate::median;
use rand::{RngCore, RngExt};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::{ChaCha8Rng, ChaCha8Wide};
use reconfig_core::config::SamplingParams;
use reconfig_core::sampling::run_alg1_direct_observed;
use std::hint::black_box;
use std::time::Instant;

pub const EXP: Experiment = Experiment {
    smoke: true,
    cores: Some(Pools { default: 1, list: false }),
    ..Experiment::new(
        "P1",
        "Algorithm 1 layer: keystream readers and the phases of run_alg1_direct",
        "perf trajectory of the Algorithm 1 layer (BENCH_ALG1.json)",
        run,
    )
};

/// The phases of one call, as (row label, span name).
const PHASES: [(&str, &str); 5] = [
    ("phase 1 + first request pops", "alg1.phase1_requests"),
    ("request pops (iterations >= 2)", "alg1.requests"),
    ("bucket scatter", "alg1.scatter"),
    ("answer pops", "alg1.answers"),
    ("regroup", "alg1.regroup"),
];

/// Best-of-`repeats` nanoseconds per draw, and the xor of every draw of the
/// last repeat (so the two readers can be compared and nothing is elided).
fn time_draws<R: RngCore>(
    mut fresh: impl FnMut() -> R,
    draws: u64,
    repeats: usize,
    mut draw: impl FnMut(&mut R) -> u64,
) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut check = 0;
    for _ in 0..repeats {
        let mut rng = fresh();
        check = 0;
        let start = Instant::now();
        for _ in 0..draws {
            check ^= draw(&mut rng);
        }
        best = best.min(start.elapsed().as_nanos() as f64 / draws as f64);
        black_box(check);
    }
    (best, check)
}

fn run(run: &mut Run) -> Result<(), RunError> {
    let (draws, repeats, n, calls) =
        if run.smoke { (200_000, 3, 128u64, 2) } else { (20_000_000, 5, 1024, 7) };

    // ---- Keystream readers. ----
    run.table(format!(
        "P1: keystream readers (best of repeats; wide refill: {})",
        ChaCha8Wide::refill_isa()
    ));
    // Each draw kind is timed through its own monomorphised closure; a
    // `fn` pointer would put an indirect call into a 4 ns loop body.
    let narrow = || ChaCha8Rng::seed_from_u64(11);
    let wide = || ChaCha8Wide::seed_from_u64(11);
    let timings = [
        (
            "next_u64",
            time_draws(narrow, draws, repeats, |r| r.next_u64()),
            time_draws(wide, draws, repeats, |r| r.next_u64()),
        ),
        (
            "random_range(0..4860)",
            time_draws(narrow, draws, repeats, |r| r.random_range(0..4860u64)),
            time_draws(wide, draws, repeats, |r| r.random_range(0..4860u64)),
        ),
    ];
    for (name, (narrow, a), (wide, b)) in timings {
        if a != b {
            return Err(RunError::new(
                format!("compare the readers on {name}"),
                "the keystreams differ",
            ));
        }
        if wide >= narrow {
            eprintln!(
                "P1: the wide reader ({wide:.2} ns) does not beat the narrow one \
                 ({narrow:.2} ns) on {name} — is its refill still vectorised?"
            );
        }
        run.row(
            Row::new()
                .cell("draw", "draw", name)
                .key("draws", draws)
                .cell_as("narrow ns", "narrow_ns", narrow, format!("{narrow:.2}"))
                .cell_as("wide ns", "wide_ns", wide, format!("{wide:.2}"))
                .show("narrow/wide", format!("{:.2}x", narrow / wide)),
        );
    }
    let readers = run.take_rows();

    // ---- One sampler call, by phase. ----
    let graph = hgraph(n, 7);
    let params = SamplingParams::default();
    let mut call_ms = Vec::new();
    let mut phase_ms: Vec<Vec<f64>> = vec![Vec::new(); PHASES.len()];
    let mut failures = 0;
    for call in 0..=calls {
        let tel =
            telemetry::Telemetry::new(telemetry::Config { timing: true, ..Default::default() });
        let start = Instant::now();
        let out = run_alg1_direct_observed(&graph, &params, 11, &tel);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        failures = out.metrics.failures;
        if call == 0 {
            continue; // warm-up: first-touch page faults of the arenas
        }
        call_ms.push(ms);
        let snap = tel.snapshot();
        for (slot, (_, span)) in phase_ms.iter_mut().zip(PHASES) {
            let ns = snap.histogram(&format!("span.ns{{span={span}}}")).map_or(0, |h| h.sum);
            slot.push(ns as f64 / 1e6);
        }
    }
    let call = median(&mut call_ms);
    run.table(format!("P1: run_alg1_direct n={n} d=8 seed=11, median of {calls} calls"));
    for (slot, (label, span)) in phase_ms.iter_mut().zip(PHASES) {
        let ms = median(slot);
        run.row(
            Row::new()
                .cell("phase", "phase", label)
                .key("span", span)
                .cell_as("ms", "ms", ms, format!("{ms:.2}"))
                .show("share", format!("{:.0}%", 100.0 * ms / call)),
        );
    }
    run.row(
        Row::new()
            .show("phase", "whole call")
            .show("ms", format!("{call:.2}"))
            .show("share", "100%"),
    );
    let phases = run.take_rows();

    if run.smoke {
        run.note(format!(
            "P1 smoke: readers agree on {draws} draws x 2 kinds; failures={failures}"
        ));
        return Ok(());
    }
    let body = serde_json::json!({
        "cores": rayon::current_num_threads(),
        "refill_isa": ChaCha8Wide::refill_isa(),
        "readers": readers,
        "sampler": serde_json::json!({
            "n": n, "d": 8, "seed": 11, "calls": calls, "failures": failures,
            "call_ms": call, "phases": phases,
        }),
    });
    run.bench("ALG1", body);
    Ok(())
}
