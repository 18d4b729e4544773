//! Workload 3: chat/feed fan-out over pubsub.
//!
//! Every publish and every fetch goes through the single-op
//! `RobustDht::read`/`write` path that the batch workloads bypass, which
//! makes an op roughly an order of magnitude dearer than in
//! `kv_read_clean`. No attacker: the cost is `apps::pubsub` and the DHT's
//! one-at-a-time routing.

use super::kv::{dht_scalars, snapshot, ControlPlane};
use super::{adversary_scalars, rep_from_report, Size, TraceCtx, MAX_GROWING_BATCHES};
use crate::harness::{timed_setup, Rep};
use crate::layers;
use overlay_adversary::adaptive::Attacker;
use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};
use overlay_adversary::Campaign;
use overlay_apps::dht::MESSAGE_BITS;
use overlay_apps::pubsub::PubSub;
use overlay_stats::GoodputAccount;
use overlay_workload::{WorkloadEngine, WorkloadKind, WorkloadSpec, Zipf};
use rand::RngExt;
use simnet::{Digest, NodeId};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;
use telemetry::Telemetry;

struct ChatCfg {
    n: usize,
    topics: u64,
    skew: f64,
    subscribers: usize,
    churn_rate: f64,
    fanout_cap: usize,
    batches: u64,
    batch_size: usize,
}

impl ChatCfg {
    fn new(size: Size) -> Self {
        let (batches, batch_size) = match size {
            Size::Full => (24, 64),
            Size::Smoke => (4, 16),
        };
        // The subscriber list and each feed's backlog grow every batch.
        assert!(batches <= MAX_GROWING_BATCHES);
        Self {
            n: 512,
            topics: 64,
            skew: 1.0,
            subscribers: 512,
            churn_rate: 1.25,
            fanout_cap: 8,
            batches,
            batch_size,
        }
    }

    fn spec(&self, seed: u64) -> WorkloadSpec {
        let spec = WorkloadSpec {
            n: self.n,
            seed,
            batches: self.batches,
            batch_size: self.batch_size,
            kind: WorkloadKind::Chat {
                topics: self.topics,
                skew: self.skew,
                subscribers: self.subscribers,
                churn_rate: self.churn_rate,
                fanout_cap: self.fanout_cap,
            },
        };
        spec.validate().expect("benchmark spec is inside the documented bands");
        spec
    }
}

/// Set-ups timed per repetition (one takes about 50 microseconds).
const SETUP_REPEATS: u32 = 64;

pub fn run(size: Size, seed: u64) -> Rep {
    let cfg = ChatCfg::new(size);
    let (spec, setup_s) = timed_setup(SETUP_REPEATS, || {
        // Built again inside `WorkloadEngine::run`; see `kv::run`.
        black_box(PubSub::new(cfg.n, seed));
        black_box(Zipf::new(cfg.topics, cfg.skew));
        cfg.spec(seed)
    });
    let mut campaign = Campaign::none();

    let t = Instant::now();
    let report = WorkloadEngine::run(&spec, &mut campaign, &Telemetry::disabled());
    let run_s = t.elapsed().as_secs_f64();
    rep_from_report(&report, setup_s, run_s)
}

/// A subscriber's home topic (SplitMix64 finalizer of its id).
fn topic_of(subscriber: u64, topics: u64) -> u64 {
    let mut x = subscriber.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (x ^ (x >> 31)) % topics
}

/// Bench-owned mirror of the engine's chat loop (own op stream, so its
/// digest differs from the untraced run's; it repeats exactly per seed).
pub fn traced(size: Size, seed: u64, ctx: &mut TraceCtx) -> Rep {
    let cfg = ChatCfg::new(size);
    let first_span = ctx.tracer.spans().len();
    let root = ctx.tracer.enter(layers::REP);
    let t = Instant::now();
    cfg.spec(seed);
    let mut campaign = Campaign::none();
    let mut ps = PubSub::new(cfg.n, seed);
    ps.set_telemetry(ctx.tel.clone());
    let mut ctl = ControlPlane::new(seed, ps.dht());
    let mut gen = simnet::rng::stream(seed, 1, 0xBE4C);
    let mut churn_rng = simnet::rng::stream(seed, 3, 0xBE4D);
    let zipf = ctx.tracer.scoped(layers::ZIPF_BUILD, || Zipf::new(cfg.topics, cfg.skew));
    let first_sub = 1u64 << 32;
    let mut members: Vec<NodeId> =
        (0..cfg.subscribers as u64).map(|i| NodeId(first_sub + i)).collect();
    let mut churn = ChurnSchedule::new(
        ChurnStrategy::Random,
        cfg.churn_rate,
        0.5,
        first_sub + cfg.subscribers as u64,
    );
    let depth = ps.dht().groups().cube().dim() as u64;
    let publish_latency = 2 * (depth + 1) + 2;
    let read_cost = 2 * depth + 2;
    let setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let mut account = GoodputAccount::new();
    let mut digest = Digest::new();
    let mut blocked_sizes = Vec::new();
    let (mut fetches, mut reads) = (0u64, 0u64);
    for _ in 0..cfg.batches {
        let snap = snapshot(ctl.rounds, ps.dht());
        let blocked = ctx.tracer.scoped(layers::ADV_OBSERVE_BLOCK, || {
            campaign.observe(snap);
            campaign.block(ctl.rounds, cfg.n)
        });
        blocked_sizes.push(blocked.len() as u64);

        if members.len() >= 4 {
            let ev =
                ctx.tracer.scoped(layers::ADV_CHURN_NEXT, || churn.next(&members, &mut churn_rng));
            let leaving: BTreeSet<NodeId> = ev.leaves.iter().copied().collect();
            members.retain(|m| !leaving.contains(m));
            members.extend(ev.joins.iter().map(|j| j.new_node));
            digest.write_usize(members.len());
        }

        let pubs: Vec<(u64, u64)> = ctx.tracer.scoped(layers::ZIPF_SAMPLE, || {
            (0..cfg.batch_size).map(|_| (zipf.sample(&mut gen), gen.random::<u64>())).collect()
        });
        let msgs_before = ps.dht().messages_total;
        let mut batch_rounds = 0u64;
        match ctx.tracer.scoped(layers::PUBSUB_PUBLISH, || ps.publish_batch(&pubs, &blocked)) {
            Ok(pm) => {
                (0..pm.stored).for_each(|_| account.complete(publish_latency));
                (0..pm.suppressed).for_each(|_| account.suppress());
                batch_rounds = batch_rounds.max(pm.rounds);
                digest.write_usize(pm.stored).write_usize(pm.suppressed);
            }
            Err(_) => (0..pubs.len()).for_each(|_| account.suppress()),
        }

        let touched: BTreeSet<u64> = pubs.iter().map(|&(t, _)| t).collect();
        for &topic in &touched {
            let readers = members
                .iter()
                .filter(|m| topic_of(m.raw(), cfg.topics) == topic)
                .take(cfg.fanout_cap)
                .count();
            for _ in 0..readers {
                let out =
                    ctx.tracer.scoped(layers::PUBSUB_FETCH, || ps.fetch_detailed(topic, &blocked));
                fetches += 1;
                match out {
                    Ok(out) if out.suppressed == 0 => {
                        let n_reads = 1 + out.delivered.len() as u64;
                        reads += n_reads;
                        account.complete(n_reads * read_cost);
                        batch_rounds = batch_rounds.max(n_reads * read_cost);
                        digest.write_usize(out.delivered.len());
                        out.delivered.iter().for_each(|&p| {
                            digest.write_u64(p);
                        });
                    }
                    _ => account.suppress(),
                }
            }
        }
        let messages = ps.dht().messages_total - msgs_before;
        account.add_bits(messages * MESSAGE_BITS);
        account.add_rounds(batch_rounds);
        digest.write_u64(messages);

        ctl.advance(ps.dht_mut(), &blocked, batch_rounds.max(1), &mut digest, ctx);
    }
    let run_s = t.elapsed().as_secs_f64();
    ctx.tracer.exit(root);

    let messages = ps.dht().messages_total;
    dht_scalars(ctx, &account, messages);
    adversary_scalars(ctx, &blocked_sizes, first_span);
    if fetches > 0 {
        ctx.scalar("apps.pubsub.reads_per_fetch", reads as f64 / fetches as f64);
    }
    Rep {
        setup_s,
        run_s,
        work: account.attempted,
        failed: account.suppressed,
        digest: digest.finish(),
        model: Default::default(),
    }
}
