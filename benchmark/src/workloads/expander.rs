//! Workload 5: the paper's primary contribution. A churn-resistant
//! expander overlay reconfigures into a fresh random H-graph every epoch
//! while an oldest-first churn schedule replaces members: `core::sampling`
//! (Algorithm 1) plus `core::reconfig` (Algorithm 3) plus `graphs`, all
//! executed over the simulation engine.
//!
//! The benchmark owns this loop, so the untraced and the traced run execute
//! the same code with the tracer off or on.

use super::{Size, TraceCtx};
use crate::harness::{median, timed_setup, Model, Rep};
use crate::layers;
use crate::trace::Tracer;
use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};
use reconfig_core::config::SamplingParams;
use reconfig_core::reconfig::ExpanderOverlay;
use reconfig_core::sampling::run_alg1_observed;
use std::hint::black_box;
use std::time::Instant;
use telemetry::{Phase, Telemetry};

struct Cfg {
    n: usize,
    degree: usize,
    epochs: u64,
}

impl Cfg {
    fn new(size: Size) -> Self {
        match size {
            Size::Full => Self { n: 1024, degree: 8, epochs: 2 },
            Size::Smoke => Self { n: 128, degree: 8, epochs: 2 },
        }
    }
}

/// Set-ups timed per untraced repetition (one takes about 0.2 ms).
const SETUP_REPEATS: u32 = 32;

fn drive(
    cfg: &Cfg,
    seed: u64,
    setup_repeats: u32,
    tel: Option<&Telemetry>,
    tracer: &mut Tracer,
) -> (Rep, ExpanderOverlay) {
    let ((mut ov, mut churn, mut rng), setup_s) = timed_setup(setup_repeats, || {
        let ov = tracer.scoped(layers::HGRAPH_BUILD, || {
            ExpanderOverlay::new(cfg.n, cfg.degree, SamplingParams::default(), seed)
        });
        let churn = ChurnSchedule::new(ChurnStrategy::OldestFirst, 2.0, 0.5, cfg.n as u64);
        (ov, churn, simnet::rng::stream(seed, 0, 0xBE05))
    });
    if let Some(tel) = tel {
        ov.set_telemetry(tel.clone());
    }

    let t = Instant::now();
    let mut failed = 0u64;
    let mut epoch_rounds = Vec::new();
    for _ in 0..cfg.epochs {
        let mut ev = tracer.scoped(layers::ADV_CHURN_NEXT, || churn.next(ov.members(), &mut rng));
        // As many joins as leaves, so the membership stays at `n`.
        ev.joins.truncate(ev.leaves.len());
        tracer.scoped(layers::APPLY_CHURN, || ov.apply_churn(&ev));
        let m = tracer.scoped(layers::RECONFIGURE, || ov.reconfigure());
        let connected = tracer.scoped(layers::IS_CONNECTED, || ov.is_connected());
        if !(m.valid && connected) {
            failed += 1;
        }
        epoch_rounds.push(m.rounds as f64);
    }
    let digest = ov.state_digest();
    let run_s = t.elapsed().as_secs_f64();
    let rep = Rep {
        setup_s,
        run_s,
        work: cfg.epochs,
        failed,
        digest,
        model: Model { p50_rounds: Some(median(&epoch_rounds)), ..Model::default() },
    };
    (rep, ov)
}

pub fn run(size: Size, seed: u64) -> Rep {
    drive(&Cfg::new(size), seed, SETUP_REPEATS, None, &mut Tracer::off()).0
}

pub fn traced(size: Size, seed: u64, ctx: &mut TraceCtx) -> Rep {
    let cfg = Cfg::new(size);
    let root = ctx.tracer.enter(layers::REP);
    let tel = ctx.tel.clone();
    let (rep, ov) = drive(&cfg, seed, 1, Some(&tel), &mut ctx.tracer);
    ctx.tracer.exit(root);
    let reconfig = ctx.phase_s(Phase::Reconfig);
    ctx.scalar("core.reconfig.phase_s", reconfig);
    ctx.scalar("core.reconfig.rounds_per_epoch", rep.model.p50_rounds.unwrap_or(0.0));

    // `run_epoch` keeps its engine private, so Algorithm 1 is priced by one
    // extra run on the repetition's final graph, outside the root span.
    // Its profiler is separate so the phase times above stay the epochs'.
    let alg1_tel = super::timing_telemetry();
    let (samples, _) = ctx.tracer.scoped(layers::ALG1, || {
        run_alg1_observed(ov.graph(), &SamplingParams::default(), seed, &alg1_tel)
    });
    black_box(samples);
    let profile = alg1_tel.profile();
    ctx.scalar("core.sampling.phase_s", profile.stat(Phase::Sampling).wall_ns as f64 / 1e9);
    ctx.engine_phases(&profile);
    rep
}
