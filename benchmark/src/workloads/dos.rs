//! Workload 6: the run-loop stack ROADMAP item 3 wants to fold. The
//! Section 5 DoS overlay under link loss and crash-recover faults with
//! self-healing on, the invariant monitor judging every round, and an
//! oblivious group-targeted attacker seeing topology two epochs late:
//! `core::dos` + `core::healing` + `core::monitor` + `adversary::dos`,
//! with no simulation engine and no apps underneath.

use super::{Size, TraceCtx};
use crate::harness::{timed_setup, Model, Rep};
use crate::layers;
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use overlay_adversary::faults::FaultSchedule;
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay, HealingParams};
use reconfig_core::monitor::Invariant;
use simnet::Digest;
use std::time::Instant;
use telemetry::{Phase, Telemetry};

/// The attacker's blocking budget, declared to the monitor as well.
const DOS_BOUND: f64 = 0.3;

struct Cfg {
    n: usize,
    epochs: u64,
}

impl Cfg {
    fn new(size: Size) -> Self {
        match size {
            Size::Full => Self { n: 8192, epochs: 4 },
            Size::Smoke => Self { n: 512, epochs: 2 },
        }
    }
}

struct Built {
    runner: FaultyRunner<DosOverlay>,
    adversary: DosAdversary,
    rounds: u64,
}

fn build(cfg: &Cfg, seed: u64, tel: Option<&Telemetry>) -> Built {
    let mut ov = DosOverlay::new(cfg.n, DosParams::default(), seed);
    if let Some(tel) = tel {
        ov.set_telemetry(tel.clone());
    }
    let epoch_len = ov.epoch_len();
    // Loss 0.2, crash hazard 0.002 per round, recovery after two epochs,
    // at most 10 % of the population crashed at once.
    let schedule = FaultSchedule::new(seed ^ 0x5EED, 0.2, 0.002, Some(2 * epoch_len), 0.1);
    let mut runner =
        FaultyRunner::new(ov, schedule, HealingParams::default(), true).with_dos_bound(DOS_BOUND);
    if let Some(tel) = tel {
        runner = runner.with_telemetry(tel.clone());
    }
    let adversary = DosAdversary::new(
        DosStrategy::GroupTargeted,
        DOS_BOUND,
        2 * epoch_len,
        seed.wrapping_add(1),
    );
    Built { runner, adversary, rounds: cfg.epochs * epoch_len }
}

fn finish(b: &Built, setup_s: f64, run_s: f64) -> Rep {
    let m = &b.runner.monitor;
    // Violating checks among the three structural invariants; with healing
    // on there are none, so double-counting a round cannot arise.
    let violations = m.count(Invariant::Connectivity)
        + m.count(Invariant::StaleBound)
        + m.count(Invariant::GroupSizeBand);
    let stats = b.runner.stats();
    let mut d = Digest::new();
    d.write_u64(b.runner.overlay.state_digest())
        .write_u64(m.total())
        .write_u64(m.rounds())
        .write_u64(stats.crashes)
        .write_u64(stats.evictions)
        .write_u64(stats.retries)
        .write_u64(stats.rejoins);
    Rep {
        setup_s,
        run_s,
        work: b.rounds,
        failed: violations.min(b.rounds),
        digest: d.finish(),
        model: Model::default(),
    }
}

/// Set-ups timed per untraced repetition (one takes about 0.4 ms).
const SETUP_REPEATS: u32 = 16;

pub fn run(size: Size, seed: u64) -> Rep {
    let cfg = Cfg::new(size);
    let (mut b, setup_s) = timed_setup(SETUP_REPEATS, || build(&cfg, seed, None));
    let t = Instant::now();
    b.runner.run(&mut b.adversary, b.rounds);
    let run_s = t.elapsed().as_secs_f64();
    finish(&b, setup_s, run_s)
}

/// Bench-owned mirror of `FaultyRunner::run`, one span per layer call.
pub fn traced(size: Size, seed: u64, ctx: &mut TraceCtx) -> Rep {
    let cfg = Cfg::new(size);
    let root = ctx.tracer.enter(layers::REP);
    let t = Instant::now();
    let tel = ctx.tel.clone();
    let mut b = build(&cfg, seed, Some(&tel));
    let setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut blocked_sizes = Vec::new();
    for _ in 0..b.rounds {
        let round = b.runner.overlay.round();
        let snap = ctx.tracer.scoped(layers::DOS_SNAPSHOT, || b.runner.overlay.snapshot(round));
        let n = b.runner.overlay.len();
        let blocked = ctx.tracer.scoped(layers::ADV_OBSERVE_BLOCK, || {
            b.adversary.observe(snap);
            b.adversary.block(round, n)
        });
        blocked_sizes.push(blocked.len() as u64);
        b.runner.monitor.check(
            Invariant::BlockingBudget,
            round,
            blocked.within_bound(DOS_BOUND, n),
            || format!("{} blocked of {n}", blocked.len()),
        );
        ctx.tracer.scoped(layers::HEALING_STEP, || b.runner.step(&blocked));
    }
    let run_s = t.elapsed().as_secs_f64();
    ctx.tracer.exit(root);

    let (healing, monitor) = (ctx.phase_s(Phase::Healing), ctx.phase_s(Phase::Monitor));
    ctx.scalar("core.healing.phase_s", healing);
    ctx.scalar("core.monitor.phase_s", monitor);
    let stats = b.runner.stats();
    ctx.scalar("core.healing.evictions", stats.evictions as f64);
    ctx.scalar("core.healing.retries", stats.retries as f64);
    // No `adversary.block_growth` here: this attacker's history is a ring
    // buffer of fixed length, and its first calls (no view yet behind the
    // lateness window) cost nothing, so a last-to-first ratio says nothing.
    let blocked = blocked_sizes.iter().sum::<u64>() as f64 / blocked_sizes.len() as f64;
    ctx.scalar("adversary.blocked_per_round", blocked);
    finish(&b, setup_s, run_s)
}
