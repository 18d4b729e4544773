//! Workloads 1 and 2: Zipf get/put mixes over the robust DHT.
//!
//! `kv_read_clean` and `kv_write_faulted` use the same DHT in opposite
//! ways. The first shares keys heavily (skew 1.1, 95 % reads, no attacker),
//! so Ranade combining in `apps::dht::routing` and the per-epoch `run_alg2`
//! control plane do the work and `adversary` does none. The second shares
//! almost nothing (skew 0.2, 95 % writes) under the `churn+dos` campaign,
//! so the adversary and long uncombined queues do the work. A gain for
//! reads that costs writes, or for clean runs that costs faulted ones,
//! shows on the other one.

use super::{adversary_scalars, rep_from_report, Size, TraceCtx, MAX_GROWING_BATCHES};
use crate::harness::{timed_setup, Rep};
use crate::layers;
use overlay_adversary::adaptive::Attacker;
use overlay_adversary::lateness::TopologySnapshot;
use overlay_adversary::Campaign;
use overlay_apps::dht::{DhtOp, RobustDht, MESSAGE_BITS};
use overlay_stats::GoodputAccount;
use overlay_workload::{WorkloadEngine, WorkloadKind, WorkloadSpec, Zipf};
use rand::RngExt;
use reconfig_core::config::SamplingParams;
use reconfig_core::sampling::run_alg2_observed;
use simnet::{Digest, NodeId};
use std::hint::black_box;
use std::time::Instant;
use telemetry::{Phase, Telemetry};

struct KvCfg {
    n: usize,
    keyspace: u64,
    skew: f64,
    read_fraction: f64,
    batches: u64,
    batch_size: usize,
    /// `Campaign::preset` name with its bound and lateness.
    campaign: &'static str,
    bound: f64,
    lateness: u64,
}

impl KvCfg {
    fn read_clean(size: Size) -> Self {
        let (batches, batch_size) = match size {
            Size::Full => (40, 1024),
            Size::Smoke => (4, 128),
        };
        Self {
            n: 4096,
            keyspace: 65_536,
            skew: 1.1,
            read_fraction: 0.95,
            batches,
            batch_size,
            campaign: "none",
            bound: 0.0,
            lateness: 0,
        }
    }

    fn write_faulted(size: Size) -> Self {
        let (batches, batch_size) = match size {
            Size::Full => (12, 2048),
            Size::Smoke => (3, 256),
        };
        Self {
            n: 4096,
            keyspace: 65_536,
            skew: 0.2,
            read_fraction: 0.05,
            batches,
            batch_size,
            campaign: "churn+dos",
            bound: 0.04,
            lateness: 2,
        }
    }

    fn spec(&self, seed: u64) -> WorkloadSpec {
        let spec = WorkloadSpec {
            n: self.n,
            seed,
            batches: self.batches,
            batch_size: self.batch_size,
            kind: WorkloadKind::ZipfKv {
                keyspace: self.keyspace,
                skew: self.skew,
                read_fraction: self.read_fraction,
            },
        };
        spec.validate().expect("benchmark spec is inside the documented bands");
        spec
    }

    fn campaign(&self, seed: u64) -> Campaign {
        if self.campaign != "none" {
            assert!(
                self.batches <= MAX_GROWING_BATCHES,
                "{} batches under a campaign whose state grows every batch",
                self.batches
            );
        }
        Campaign::preset(self.campaign, self.bound, self.lateness, seed)
            .expect("campaign preset exists")
    }
}

pub fn run_read_clean(size: Size, seed: u64) -> Rep {
    run(&KvCfg::read_clean(size), seed)
}

pub fn run_write_faulted(size: Size, seed: u64) -> Rep {
    run(&KvCfg::write_faulted(size), seed)
}

pub fn traced_read_clean(size: Size, seed: u64, ctx: &mut TraceCtx) -> Rep {
    traced(&KvCfg::read_clean(size), seed, ctx)
}

pub fn traced_write_faulted(size: Size, seed: u64, ctx: &mut TraceCtx) -> Rep {
    traced(&KvCfg::write_faulted(size), seed, ctx)
}

/// Set-ups timed per repetition (one takes about a millisecond).
const SETUP_REPEATS: u32 = 4;

fn run(cfg: &KvCfg, seed: u64) -> Rep {
    let ((spec, mut campaign), setup_s) = timed_setup(SETUP_REPEATS, || {
        // `WorkloadEngine::run` builds its own DHT and Zipf table inside
        // the timed call; building them here as well is how their
        // construction cost is seen as set-up from outside.
        black_box(RobustDht::new(cfg.n, 2.0, seed));
        black_box(Zipf::new(cfg.keyspace, cfg.skew));
        (cfg.spec(seed), cfg.campaign(seed))
    });

    let t = Instant::now();
    let report = WorkloadEngine::run(&spec, &mut campaign, &Telemetry::disabled());
    let run_s = t.elapsed().as_secs_f64();
    rep_from_report(&report, setup_s, run_s)
}

/// The topology the engine shows the campaign each batch.
pub(super) fn snapshot(round: u64, dht: &RobustDht) -> TopologySnapshot {
    TopologySnapshot {
        round,
        nodes: (0..dht.len() as u64).map(NodeId).collect(),
        edges: Vec::new(),
        groups: dht.groups().groups().to_vec(),
        group_edges: Vec::new(),
    }
}

/// Mirror of the engine's per-epoch control plane: steps the DHT and runs
/// Algorithm 2 on the selected backend at every epoch boundary.
pub(super) struct ControlPlane {
    seed: u64,
    sched_dim: u32,
    epoch_len: u64,
    pub rounds: u64,
    epochs: u64,
}

impl ControlPlane {
    pub fn new(seed: u64, dht: &RobustDht) -> Self {
        let sched_dim = (dht.groups().cube().dim().max(2) as usize).next_power_of_two() as u32;
        Self { seed, sched_dim, epoch_len: dht.epoch_len(), rounds: 0, epochs: 0 }
    }

    pub fn advance(
        &mut self,
        dht: &mut RobustDht,
        blocked: &simnet::BlockSet,
        k: u64,
        digest: &mut Digest,
        ctx: &mut TraceCtx,
    ) {
        for _ in 0..k {
            ctx.tracer.scoped(layers::DHT_STEP, || dht.step(blocked));
            self.rounds += 1;
            if self.rounds % self.epoch_len != 0 {
                continue;
            }
            self.epochs += 1;
            let epoch_seed = self.seed ^ self.epochs.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let tel = ctx.tel.clone();
            let (samples, _) = ctx.tracer.scoped(layers::ALG2, || {
                run_alg2_observed(self.sched_dim, &SamplingParams::default(), epoch_seed, &tel)
            });
            digest.write_u64(self.epochs);
            for (v, s) in &samples {
                digest.write_u64(v.raw());
                for x in s {
                    digest.write_u64(x.raw());
                }
            }
        }
    }
}

/// Per-repetition scalars every DHT-backed mirror reports.
pub(super) fn dht_scalars(ctx: &mut TraceCtx, account: &GoodputAccount, messages: u64) {
    if account.completed > 0 {
        ctx.scalar("apps.dht.msgs_per_op", messages as f64 / account.completed as f64);
    }
    let sampling = ctx.phase_s(Phase::Sampling);
    ctx.scalar("core.sampling.phase_s", sampling);
    let profile = ctx.tel.profile();
    ctx.engine_phases(&profile);
}

/// Bench-owned mirror of `WorkloadEngine::run` for the ZipfKv kind. It
/// draws its own op stream (the engine's generator is private), so its
/// digest differs from the untraced run's; it repeats exactly per seed.
fn traced(cfg: &KvCfg, seed: u64, ctx: &mut TraceCtx) -> Rep {
    let first_span = ctx.tracer.spans().len();
    let root = ctx.tracer.enter(layers::REP);
    let t = Instant::now();
    cfg.spec(seed);
    let mut campaign = cfg.campaign(seed);
    let mut dht = RobustDht::new(cfg.n, 2.0, seed);
    dht.set_telemetry(ctx.tel.clone());
    let mut ctl = ControlPlane::new(seed, &dht);
    let mut gen = simnet::rng::stream(seed, 1, 0xBE4C);
    let setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut account = GoodputAccount::new();
    let mut digest = Digest::new();
    let mut messages = 0u64;
    let mut blocked_sizes = Vec::new();
    for _ in 0..cfg.batches {
        let snap = snapshot(ctl.rounds, &dht);
        let blocked = ctx.tracer.scoped(layers::ADV_OBSERVE_BLOCK, || {
            campaign.observe(snap);
            campaign.block(ctl.rounds, cfg.n)
        });
        blocked_sizes.push(blocked.len() as u64);

        // The engine rebuilds the cumulative table every batch.
        let zipf = ctx.tracer.scoped(layers::ZIPF_BUILD, || Zipf::new(cfg.keyspace, cfg.skew));
        let ops: Vec<DhtOp> = ctx.tracer.scoped(layers::ZIPF_SAMPLE, || {
            (0..cfg.batch_size)
                .map(|_| {
                    let key = zipf.sample(&mut gen);
                    if gen.random_bool(cfg.read_fraction) {
                        DhtOp::Read { key }
                    } else {
                        DhtOp::Write { key, value: gen.random::<u64>() }
                    }
                })
                .collect()
        });

        let m = ctx.tracer.scoped(layers::DHT_SERVE_BATCH, || dht.serve_batch(&ops, &blocked));
        account.fold_batch(&m.latency, m.requests as u64, (m.requests - m.completed) as u64);
        account.add_bits(m.messages * MESSAGE_BITS);
        account.add_rounds(m.rounds);
        messages += m.messages;
        digest
            .write_u64(m.completed as u64)
            .write_u64(m.rounds)
            .write_u64(m.congestion)
            .write_u64(m.messages);

        ctl.advance(&mut dht, &blocked, m.rounds, &mut digest, ctx);
    }
    let run_s = t.elapsed().as_secs_f64();
    ctx.tracer.exit(root);

    dht_scalars(ctx, &account, messages);
    adversary_scalars(ctx, &blocked_sizes, first_span);
    Rep {
        setup_s,
        run_s,
        work: account.attempted,
        failed: account.suppressed,
        digest: digest.finish(),
        model: Default::default(),
    }
}
