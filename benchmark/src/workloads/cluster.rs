//! Workload 7: four node daemons as threads of this process, talking real
//! TCP over the host's **loopback** interface (no link is crossed), driven
//! through the CI smoke campaign (random 2-late DoS at a quarter budget,
//! one kill, one join, two lag injections) with the coordinator's pacing
//! floor at zero and the simulator-as-oracle replay left on. It measures
//! `node::wire` and `node::daemon` round latency; a round waits for the
//! slowest of the daemons, which share the host's CPUs.

use super::{Size, TraceCtx};
use crate::harness::{timed_setup, Model, Rep};
use crate::layers;
use overlay_adversary::remote::CampaignSpec;
use rand::RngExt;
use reconfig_core::nodert::{replay, ClusterTrace};
use reconfig_node::cluster::{run_cluster, ClusterConfig};
use reconfig_node::wire::{Frame, DEFAULT_MAX_FRAME};
use simnet::Digest;
use std::hint::black_box;
use std::time::Instant;

const NODES: u64 = 4;

struct Cfg {
    rounds: u64,
    /// Frames in the wire codec micro-measurement (traced run only).
    frames: usize,
}

impl Cfg {
    fn new(size: Size) -> Self {
        match size {
            Size::Full => Self { rounds: 1200, frames: 100_000 },
            Size::Smoke => Self { rounds: 60, frames: 5_000 },
        }
    }

    fn config(&self, seed: u64) -> ClusterConfig {
        let mut config =
            ClusterConfig::threads(NODES, seed, CampaignSpec::smoke(NODES, self.rounds, seed));
        // No pacing floor: rounds run as fast as the daemons answer.
        config.knobs.epoch_ms = 0;
        config
    }
}

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

/// Set-ups timed per repetition (one takes about 0.3 ms).
const SETUP_REPEATS: u32 = 16;

pub fn run(size: Size, seed: u64) -> Rep {
    let cfg = Cfg::new(size);
    let (config, setup_s) = timed_setup(SETUP_REPEATS, || {
        let config = cfg.config(seed);
        // `run_cluster` plans the campaign itself; planning it here as
        // well shows its cost as set-up. Launching the daemons happens
        // inside `run_cluster` and cannot be told apart from its rounds.
        black_box(config.spec.plan(NODES).expect("smoke campaign is valid"));
        config
    });

    let t = Instant::now();
    let outcome = run_cluster(&config);
    let run_s = t.elapsed().as_secs_f64();
    match outcome {
        Ok(report) => Rep {
            setup_s,
            run_s,
            work: cfg.rounds,
            failed: 0,
            digest: trace_digest(&report.trace),
            model: Model::default(),
        },
        Err(e) => {
            // A digest the oracle rejects (or any cluster failure) fails
            // every round of the repetition.
            eprintln!("cluster_rounds: {e}");
            Rep { setup_s, run_s, work: cfg.rounds, failed: cfg.rounds, ..Rep::default() }
        }
    }
}

/// A representative frame mix: mostly protocol messages, with the round
/// marks, ticks and reports that accompany them.
fn sample_frames(count: usize, seed: u64) -> Vec<Frame> {
    let mut rng = simnet::rng::stream(seed, 7, 0xBE07);
    (0..count)
        .map(|i| {
            let round = i as u64 / 16;
            match rng.random_range(0..10u32) {
                0 => Frame::RoundMark { from: rng.random_range(0..NODES), round },
                1 => Frame::Tick {
                    round,
                    hold_extra: 0,
                    blocked: vec![rng.random_range(0..NODES)],
                    marks: (0..NODES).collect(),
                },
                2 => Frame::Report {
                    node: rng.random_range(0..NODES),
                    round,
                    digest: rng.random(),
                    delivered: 2,
                    dropped: 0,
                    delays: vec![(0, 1, round, 1)],
                },
                _ => Frame::Msg {
                    from: rng.random_range(0..NODES),
                    to: rng.random_range(0..NODES),
                    sent_round: round,
                    payload: rng.random(),
                },
            }
        })
        .collect()
}

/// `run_cluster` owns its loop and its sockets, so it is one span; the
/// planner, the replay oracle and the wire codec are priced separately.
pub fn traced(size: Size, seed: u64, ctx: &mut TraceCtx) -> Rep {
    let cfg = Cfg::new(size);
    let root = ctx.tracer.enter(layers::REP);
    let t = Instant::now();
    let config = cfg.config(seed);
    let steps = ctx.tracer.scoped(layers::REMOTE_PLAN, || config.spec.plan(NODES));
    black_box(steps.expect("smoke campaign is valid"));
    let setup_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let outcome = ctx.tracer.scoped(layers::CLUSTER_RUN, || run_cluster(&config));
    let run_s = t.elapsed().as_secs_f64();
    let rep = match outcome {
        Ok(report) => {
            // The oracle already ran inside `run_cluster`; run it again on
            // the recorded trace to price it on its own.
            let again = ctx.tracer.scoped(layers::REPLAY, || replay(&report.trace));
            let failed = if again.is_ok() { 0 } else { cfg.rounds };
            Rep {
                setup_s,
                run_s,
                work: cfg.rounds,
                failed,
                digest: trace_digest(&report.trace),
                model: Model::default(),
            }
        }
        Err(e) => {
            eprintln!("cluster_rounds: {e}");
            Rep { setup_s, run_s, work: cfg.rounds, failed: cfg.rounds, ..Rep::default() }
        }
    };
    ctx.tracer.exit(root);

    let frames = sample_frames(cfg.frames, seed);
    let t = Instant::now();
    let encoded: Vec<Vec<u8>> = frames.iter().map(Frame::encode).collect();
    let encode_ns = t.elapsed().as_nanos() as f64 / frames.len() as f64;
    let t = Instant::now();
    for bytes in &encoded {
        black_box(Frame::decode(bytes, DEFAULT_MAX_FRAME).expect("own encoding decodes"));
    }
    let decode_ns = t.elapsed().as_nanos() as f64 / frames.len() as f64;
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    ctx.scalar("node.wire.encode_ns", encode_ns);
    ctx.scalar("node.wire.decode_ns", decode_ns);
    ctx.scalar("node.wire.bytes_per_frame", bytes as f64 / frames.len() as f64);
    rep
}
