//! Workload 4: the raw engine. An always-on gossip mesh (the S1
//! experiment's churndos family) under per-round DoS blocks and periodic
//! churn bursts, on whatever backend `backend::select()` picks. No node is
//! ever quiescent, so `simnet` delivery/compute/send is all of the work;
//! apps, workload and adversary are idle.
//!
//! The benchmark owns this loop, so the untraced and the traced run execute
//! the same code with the tracer off or on.

use super::{Size, TraceCtx};
use crate::harness::{Model, Rep};
use crate::layers;
use crate::trace::{SpanId, Tracer};
use rand::RngExt;
use reconfig_core::backend::{self, AnyNet, Backend};
use simnet::{BlockSet, Ctx, NodeId, Protocol, SimEngine};
use std::time::Instant;
use telemetry::Telemetry;

/// Gossips two messages to uniformly random members every round, forever.
struct GossipNode {
    span: u64,
    acc: u64,
}

impl Protocol for GossipNode {
    type Msg = u64;

    fn digest(&self, d: &mut simnet::Digest) {
        d.write_u64(self.acc);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) {
        for env in ctx.take_inbox() {
            self.acc = self.acc.wrapping_mul(0x100_0000_01b3) ^ env.msg;
        }
        for _ in 0..2 {
            let to = NodeId(ctx.rng().random_range(0..self.span));
            let msg = self.acc ^ ctx.rng().random::<u64>();
            ctx.send(to, msg);
        }
    }

    fn on_crash_recover(&mut self) {
        self.acc = 0;
    }
}

struct Cfg {
    n: u64,
    rounds: u64,
}

impl Cfg {
    fn new(size: Size) -> Self {
        match size {
            Size::Full => Self { n: 8_192, rounds: 48 },
            Size::Smoke => Self { n: 2_048, rounds: 8 },
        }
    }
}

/// Fraction of nodes blocked each round.
const BLOCK_RATE: f64 = 0.01;

/// The input: one block set per round, drawn from the seed.
fn block_schedule(cfg: &Cfg, seed: u64) -> Vec<BlockSet> {
    let mut rng = simnet::rng::stream(seed, 9, 0xD05);
    (0..cfg.rounds)
        .map(|_| (0..cfg.n).filter(|_| rng.random::<f64>() < BLOCK_RATE).map(NodeId).collect())
        .collect()
}

struct Driven {
    setup_s: f64,
    run_s: f64,
    node_rounds: u64,
    digest: u64,
    bits: u64,
    msgs: u64,
}

/// Populate a network on `backend` (inside a `simnet.add_node` span when
/// `add_span` is set: one span per network, not per node) and drive it
/// through the schedule with a `step_span` span around every round.
fn drive(
    backend: Backend,
    cfg: &Cfg,
    seed: u64,
    tel: Option<&Telemetry>,
    tracer: &mut Tracer,
    add_span: bool,
    step_span: &'static str,
) -> Driven {
    let t = Instant::now();
    let blocks = block_schedule(cfg, seed);
    let mut net: AnyNet<GossipNode> = backend.build(seed ^ 0xCD);
    if let Some(tel) = tel {
        net.set_telemetry(tel.clone());
    }
    let add = if add_span { tracer.enter(layers::NET_ADD_NODE) } else { SpanId::NONE };
    for i in 0..cfg.n {
        net.add_node(NodeId(i), GossipNode { span: cfg.n, acc: i });
    }
    tracer.exit(add);
    let setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut node_rounds = 0u64;
    for (r, blocked) in blocks.iter().enumerate() {
        let r = r as u64;
        if r % 6 == 5 {
            // Churn burst: four members leave, four fresh ids join.
            for k in 0..4u64 {
                net.remove_node(NodeId((r * 131 + k * 17) % cfg.n));
                net.add_node(NodeId(cfg.n + r * 4 + k), GossipNode { span: cfg.n, acc: r ^ k });
            }
        }
        node_rounds += net.len() as u64;
        tracer.scoped(step_span, || net.step_blocked(blocked));
    }
    let digest = net.round_digest();
    let run_s = t.elapsed().as_secs_f64();
    Driven {
        setup_s,
        run_s,
        node_rounds,
        digest,
        bits: net.stats().total_bits(),
        msgs: net.stats().total_msgs(),
    }
}

fn rep_of(d: &Driven) -> Rep {
    Rep {
        setup_s: d.setup_s,
        run_s: d.run_s,
        work: d.node_rounds,
        failed: 0,
        digest: d.digest,
        model: Model {
            bits_per_work: Some(d.bits as f64 / d.node_rounds as f64),
            ..Model::default()
        },
    }
}

pub fn run(size: Size, seed: u64) -> Rep {
    let cfg = Cfg::new(size);
    let mut off = Tracer::off();
    rep_of(&drive(backend::select(), &cfg, seed, None, &mut off, false, layers::NET_STEP))
}

/// The default backend must leave the same state as the `xl:1` parity
/// engine driven identically.
pub fn verify(size: Size, seed: u64, rep: &Rep) -> Result<(), String> {
    let cfg = Cfg::new(size);
    let parity = Backend::parse("xl:1").ok_or("backend spec `xl:1` no longer parses")?;
    let d = drive(parity, &cfg, seed, None, &mut Tracer::off(), false, layers::XL_PARITY_STEP);
    if d.digest == rep.digest {
        Ok(())
    } else {
        Err(format!(
            "default-backend digest {:#018x} differs from xl:1 parity digest {:#018x}",
            rep.digest, d.digest
        ))
    }
}

pub fn traced(size: Size, seed: u64, ctx: &mut TraceCtx) -> Rep {
    let cfg = Cfg::new(size);
    let root = ctx.tracer.enter(layers::REP);
    let tel = ctx.tel.clone();
    let d =
        drive(backend::select(), &cfg, seed, Some(&tel), &mut ctx.tracer, true, layers::NET_STEP);
    ctx.tracer.exit(root);

    let profile = ctx.tel.profile();
    ctx.engine_phases(&profile);
    ctx.scalar("simnet.msgs_per_round", d.msgs as f64 / cfg.rounds as f64);
    ctx.scalar("simnet.bits_per_node_round", d.bits as f64 / d.node_rounds as f64);

    // The same loop on the sharded engine, outside the repetition's root
    // span so it does not count towards this workload's coverage. A spec
    // that no longer parses (ROADMAP item 2 folds the engines) is skipped.
    for (spec, span) in [("xl:1", layers::XL_PARITY_STEP), ("xl:fast:1", layers::XL_FAST_STEP)] {
        if let Some(be) = Backend::parse(spec) {
            drive(be, &cfg, seed, None, &mut ctx.tracer, false, span);
        }
    }
    rep_of(&d)
}
