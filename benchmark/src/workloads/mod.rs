//! The seven workloads. Each has two entry points:
//!
//! * `run` — one untraced repetition through the program's own loop (or,
//!   where the benchmark owns the loop, that loop with the tracer off).
//!   End-to-end numbers only ever come from here.
//! * `traced` — one repetition through a benchmark-owned mirror of the
//!   loop built from public calls only, with a span around every call into
//!   a layer. Per-layer numbers only ever come from here.
//!
//! Every repetition is rebuilt from the same seed, so all repetitions of a
//! workload must produce the same digest.

pub mod chat;
pub mod cluster;
pub mod dos;
pub mod expander;
pub mod gossip;
pub mod kv;

use crate::harness::{Model, Rep};
use crate::layers;
use crate::trace::Tracer;
use overlay_workload::WorkloadReport;
use std::collections::BTreeMap;
use telemetry::{Phase, ProfilerSnapshot, Telemetry};

/// Full sizes are what `BENCHMARK.json` measures; smoke sizes exist only
/// so `--check` can exercise every code path in seconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

/// State a traced repetition records into.
pub struct TraceCtx {
    pub tracer: Tracer,
    /// The program's own profiler, timing on: source of the `*.phase_s`
    /// and `simnet.*_s` scalars. Replaced at the start of each repetition.
    pub tel: Telemetry,
    scalars: BTreeMap<&'static str, Vec<f64>>,
}

impl TraceCtx {
    pub fn new() -> Self {
        Self { tracer: Tracer::on(), tel: timing_telemetry(), scalars: BTreeMap::new() }
    }

    /// Start repetition `rep`: fresh profiler, spans labelled with `rep`.
    pub fn begin_rep(&mut self, rep: u32) {
        self.tracer.set_rep(rep);
        self.tel = timing_telemetry();
    }

    /// Record one repetition's value of a scalar per-layer metric.
    pub fn scalar(&mut self, name: &'static str, value: f64) {
        self.scalars.entry(name).or_default().push(value);
    }

    /// Seconds the program's profiler attributed to `phase` this repetition.
    pub fn phase_s(&self, phase: Phase) -> f64 {
        self.tel.profile().stat(phase).wall_ns as f64 / 1e9
    }

    /// Record the engine's deliver/compute/send split from `profile`.
    pub fn engine_phases(&mut self, profile: &ProfilerSnapshot) {
        for (name, phase) in [
            ("simnet.deliver_s", Phase::Deliver),
            ("simnet.compute_s", Phase::Compute),
            ("simnet.send_s", Phase::Send),
        ] {
            self.scalar(name, profile.stat(phase).wall_ns as f64 / 1e9);
        }
    }

    /// Mean over repetitions of every scalar recorded.
    pub fn scalar_means(&self) -> BTreeMap<&'static str, f64> {
        self.scalars.iter().map(|(&k, v)| (k, v.iter().sum::<f64>() / v.len() as f64)).collect()
    }
}

fn timing_telemetry() -> Telemetry {
    Telemetry::new(telemetry::Config { enabled: true, timing: true, events_cap: 64 })
}

/// A workload: its name, its work unit and its two entry points.
pub struct Workload {
    pub name: &'static str,
    /// What one unit of `work_per_s` is.
    pub unit: &'static str,
    /// One line on why the workload exists (also in `BENCHMARK.json`).
    pub why: &'static str,
    pub run: fn(Size, u64) -> Rep,
    pub traced: fn(Size, u64, &mut TraceCtx) -> Rep,
    /// Extra correctness check on the warm-up repetition, beyond "every
    /// repetition has the same digest and no failed work".
    pub verify: fn(Size, u64, &Rep) -> Result<(), String>,
    /// Whether the traced loop must reproduce the untraced digest. False
    /// where the program's op generator is private and the mirror draws
    /// its own op stream.
    pub mirror_exact: bool,
}

fn no_extra_check(_: Size, _: u64, _: &Rep) -> Result<(), String> {
    Ok(())
}

pub const ALL: [Workload; 7] = [
    Workload {
        name: "kv_read_clean",
        unit: "ops",
        why: "skewed reads, no attacker: batch routing with key combining in apps::dht",
        run: kv::run_read_clean,
        traced: kv::traced_read_clean,
        verify: no_extra_check,
        mirror_exact: false,
    },
    Workload {
        name: "kv_write_faulted",
        unit: "ops",
        why: "near-uniform writes under churn+dos: uncombined write path plus the adversary",
        run: kv::run_write_faulted,
        traced: kv::traced_write_faulted,
        verify: no_extra_check,
        mirror_exact: false,
    },
    Workload {
        name: "chat_fanout",
        unit: "ops",
        why: "pubsub fan-out over the single-op DHT path that the batch workloads bypass",
        run: chat::run,
        traced: chat::traced,
        verify: no_extra_check,
        mirror_exact: false,
    },
    Workload {
        name: "engine_gossip",
        unit: "node-rounds",
        why: "always-on gossip under blocks and churn: simnet deliver/compute/send only",
        run: gossip::run,
        traced: gossip::traced,
        verify: gossip::verify,
        mirror_exact: true,
    },
    Workload {
        name: "expander_churn",
        unit: "epochs",
        why: "the paper's core: sampling and reconfiguration epochs under oldest-first churn",
        run: expander::run,
        traced: expander::traced,
        verify: no_extra_check,
        mirror_exact: true,
    },
    Workload {
        name: "dos_healing",
        unit: "rounds",
        why: "DoS overlay, faults, healing, monitor, late group attacker; no engine or apps",
        run: dos::run,
        traced: dos::traced,
        verify: no_extra_check,
        mirror_exact: true,
    },
    Workload {
        name: "cluster_rounds",
        unit: "rounds",
        why: "four daemons over loopback TCP, replay oracle on: wire, sockets, round barrier",
        run: cluster::run,
        traced: cluster::traced,
        verify: no_extra_check,
        mirror_exact: true,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Fold a workload-engine report into a repetition record (kv and chat).
fn rep_from_report(report: &WorkloadReport, setup_s: f64, run_s: f64) -> Rep {
    let acct = &report.account;
    let lat = report.latency();
    // A percentile is only reported with at least ten samples beyond it.
    let p99 = (acct.completed >= 1000).then_some(lat.p99 as f64);
    Rep {
        setup_s,
        run_s,
        work: acct.attempted,
        failed: acct.suppressed,
        digest: report.trace_digest,
        model: Model {
            p50_rounds: (acct.completed >= 20).then_some(lat.p50 as f64),
            p99_rounds: p99,
            bits_per_work: (acct.completed > 0).then(|| acct.bits as f64 / acct.completed as f64),
        },
    }
}

/// Batches a repetition may run when its campaign or subscriber set grows
/// per batch. `ChurnBlocker` (rate 1.25, intensity 0.5) multiplies its
/// member list by about 1.025 every batch and never shrinks it, and the
/// chat subscriber list and feed backlog grow the same way: W1 at 256
/// batches takes seconds, at 512 it took 14 minutes and 5 GB. The growth
/// is reported as `adversary.block_growth`; see the README's known issues.
pub const MAX_GROWING_BATCHES: u64 = 64;

/// Ratio of the mean of the last eight values to the mean of the first
/// eight (fewer when the series is short); 1.0 = flat.
pub fn growth_ratio(series: &[u64]) -> f64 {
    if series.is_empty() {
        return 1.0;
    }
    let k = 8.min(series.len());
    let mean = |s: &[u64]| s.iter().sum::<u64>() as f64 / s.len() as f64;
    let first = mean(&series[..k]);
    let last = mean(&series[series.len() - k..]);
    if first > 0.0 {
        last / first
    } else {
        1.0
    }
}

/// Scalars of the campaign's observe+block calls this repetition.
fn adversary_scalars(ctx: &mut TraceCtx, blocked_sizes: &[u64], first_span: usize) {
    if blocked_sizes.is_empty() {
        return;
    }
    let mean = blocked_sizes.iter().sum::<u64>() as f64 / blocked_sizes.len() as f64;
    ctx.scalar("adversary.blocked_per_round", mean);
    let durations: Vec<u64> = ctx.tracer.spans()[first_span..]
        .iter()
        .filter(|s| s.name == layers::ADV_OBSERVE_BLOCK)
        .map(|s| s.dur_ns())
        .collect();
    ctx.scalar("adversary.block_growth", growth_ratio(&durations));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_ratio_compares_tail_to_head() {
        assert_eq!(growth_ratio(&[]), 1.0);
        assert_eq!(growth_ratio(&[5, 5, 5]), 1.0);
        let ramp: Vec<u64> = (1..=32).collect();
        // mean(25..=32) / mean(1..=8) = 28.5 / 4.5
        assert!((growth_ratio(&ramp) - 28.5 / 4.5).abs() < 1e-12);
    }

    #[test]
    fn workload_names_are_unique_and_well_formed() {
        for (i, w) in ALL.iter().enumerate() {
            assert!(layers::name_ok(w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
            assert!(ALL[..i].iter().all(|o| o.name != w.name));
        }
    }
}
