//! Exact cost counters of the engine, per round: allocations and the bytes
//! they span (`telemetry::alloc::CountingAlloc`), ChaCha8 blocks generated
//! (`rand_chacha::blocks_generated`), and the messages and bits the engine
//! accounts. Unlike a wall-clock pair these are exact, so they say what a
//! change to the round path did before any timing does.
//!
//! `tests/golden/cost.json` holds the figures for three shapes on the
//! parity engine: the `engine_gossip` benchmark workload (n = 8 192, 48
//! rounds, 1 % blocks, a churn burst every 6 rounds), the S1 `churndos`
//! smoke cell (n = 50 000, 12 rounds, 8 % blocks, the same churn) and a
//! ring with a fixed fan-in of two (n = 8 192, 24 rounds, a sliding block
//! window of 1 %, no churn). Messages, bits and RNG blocks must equal the
//! file round for round — they are what the run does, not what it costs.
//! Allocations and bytes must not exceed it in setup or in any round after
//! the first two, which warm up the engine's scratch buffers.
//!
//! A warm round allocates nothing for mail (DESIGN.md §10): every inbox is
//! a buffer that keeps its high-water capacity. Where fan-in is random, a
//! round still allocates whenever some inbox sees more mail than it ever
//! has (on `engine_gossip`, 311 blocks in round 6, 31 in round 46); the
//! ring's fan-in is fixed, so there every round after the first four must
//! allocate nothing at all.
//!
//! The file also holds one workload shape, `chat_fanout`: the benchmark's
//! W3 spec (n = 512, 24 batches of 64 publishes, 512 churned subscribers,
//! up to 8 readers per touched topic, seed 11, no attacker) through
//! `WorkloadEngine::run_stepped`, batch by batch. Per batch: allocations
//! and bytes (batch 0 includes the run's setup), ChaCha8 blocks, the
//! DHT's messages, the rounds it stepped and the epochs it closed, and
//! the publications fetches delivered (`pubsub.fetched`, read from a
//! second, telemetry-on run of the same spec). Blocks, messages, rounds,
//! epochs and `fetched` must equal the file batch for batch; allocations
//! and bytes must not exceed it.
//!
//! The counters are process-wide, so this binary holds exactly one test.
//! `UPDATE_GOLDEN=1 cargo test -q -p integration-tests --test cost`
//! rewrites the file; the deltas against it are printed either way.

use overlay_adversary::Campaign;
use overlay_workload::{WorkloadEngine, WorkloadKind, WorkloadSpec};
use rand::RngExt;
use simnet::{BlockSet, Ctx, NodeId, Protocol};
use simnet_xl::Backend;
use simnet_xl::XlNetwork;
use std::fmt::Write as _;
use std::path::PathBuf;
use telemetry::alloc::{AllocCounts, CountingAlloc};
use telemetry::Telemetry;

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The gossip node of `engine_gossip` and of S1's `churndos` family: two
/// messages to uniformly random ids of the initial population per round,
/// forever. On the ring (`ring` is the node's own id) the two go to the
/// next two ids instead.
struct GossipNode {
    span: u64,
    acc: u64,
    ring: Option<u64>,
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
        for i in 0..2 {
            let to = match self.ring {
                Some(me) => NodeId((me + 1 + i) % self.span),
                None => NodeId(ctx.rng().random_range(0..self.span)),
            };
            let msg = self.acc ^ ctx.rng().random::<u64>();
            ctx.send(to, msg);
        }
    }
}

/// One shape: population, rounds, block rate and the two seeds.
struct Shape {
    name: &'static str,
    n: u64,
    rounds: u64,
    /// Random fan-out, a churn burst every 6 rounds and blocks drawn at
    /// `block_rate` — or the ring: fixed fan-out, no churn, and a window
    /// of `n / 100` consecutive ids blocked that moves every round.
    ring: bool,
    block_rate: f64,
    /// Seed of the block schedule's stream.
    seed: u64,
    /// The network's master seed.
    net_seed: u64,
}

/// `benchmark/src/workloads/gossip.rs` at `--seed 11`.
const ENGINE_GOSSIP: Shape = Shape {
    name: "engine_gossip",
    n: 8_192,
    rounds: 48,
    ring: false,
    block_rate: 0.01,
    seed: 11,
    net_seed: 11 ^ 0xCD,
};

/// `exp S1 --smoke`, family `churndos`.
const S1_CHURNDOS: Shape = Shape {
    name: "s1_churndos_smoke",
    n: 50_000,
    rounds: 12,
    ring: false,
    block_rate: 0.08,
    seed: 0x51_5CA1E,
    net_seed: 0x51_5CA1E ^ 0xCD,
};

/// Fixed fan-in: what a warm round of an engine that allocates nothing for
/// mail looks like.
const RING: Shape = Shape {
    name: "ring_fan_in_2",
    n: 8_192,
    rounds: 24,
    ring: true,
    block_rate: 0.01,
    seed: 23,
    net_seed: 23 ^ 0xCD,
};

/// Rounds whose allocations are not held against the golden: round 0
/// delivers nothing, and round 1's first mail sizes the engine's scratch
/// buffers, which a change to the round path may size differently. The
/// deltas are printed.
const WARM_UP: usize = 2;

/// What one phase cost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Cost {
    allocs: u64,
    bytes: u64,
    rng_blocks: u64,
    msgs: u64,
    bits: u64,
}

struct Measured {
    setup: Cost,
    rounds: Vec<Cost>,
}

fn block_schedule(shape: &Shape) -> Vec<BlockSet> {
    if shape.ring {
        let window = shape.n / 100;
        return (0..shape.rounds)
            .map(|r| (0..window).map(|j| NodeId((r * 97 + j) % shape.n)).collect())
            .collect();
    }
    let mut rng = simnet::rng::stream(shape.seed, 9, 0xD05);
    (0..shape.rounds)
        .map(|_| {
            (0..shape.n).filter(|_| rng.random::<f64>() < shape.block_rate).map(NodeId).collect()
        })
        .collect()
}

/// Counters now: allocations, bytes and RNG blocks (messages and bits are
/// read from the engine).
fn counters() -> (AllocCounts, u64) {
    (AllocCounts::now(), rand_chacha::blocks_generated())
}

fn spent(before: (AllocCounts, u64)) -> Cost {
    let (alloc, blocks) = counters();
    let alloc = alloc - before.0;
    Cost {
        allocs: alloc.allocs,
        bytes: alloc.bytes,
        rng_blocks: blocks - before.1,
        ..Cost::default()
    }
}

/// Drive `shape` on `backend` exactly as the benchmark and S1 do, counting
/// each phase.
fn measure(shape: &Shape, backend: Backend) -> Measured {
    let blocks = block_schedule(shape);
    let mut net: XlNetwork<GossipNode> = backend.build(shape.net_seed);
    let before = counters();
    for i in 0..shape.n {
        net.add_node(
            NodeId(i),
            GossipNode { span: shape.n, acc: i, ring: shape.ring.then_some(i) },
        );
    }
    let setup = spent(before);
    let mut rounds = Vec::with_capacity(blocks.len());
    for (r, blocked) in blocks.iter().enumerate() {
        let r = r as u64;
        let before = counters();
        let burst = !shape.ring && r % 6 == 5;
        if burst {
            for k in 0..4u64 {
                net.remove_node(NodeId((r * 131 + k * 17) % shape.n));
                let node = GossipNode { span: shape.n, acc: r ^ k, ring: None };
                net.add_node(NodeId(shape.n + r * 4 + k), node);
            }
        }
        net.step_blocked(blocked);
        let mut cost = spent(before);
        let work = net.stats().rounds().last().expect("one entry per round");
        (cost.msgs, cost.bits) = (work.total_msgs, work.total_bits);
        rounds.push(cost);
        // The per-round work history grows with the run; clearing it (it
        // keeps its capacity) leaves only the round path in the count.
        net.reset_stats();
    }
    Measured { setup, rounds }
}

/// `benchmark/src/workloads/chat.rs` at full size and `--seed 11`.
fn chat_fanout_spec() -> WorkloadSpec {
    WorkloadSpec {
        n: 512,
        seed: 11,
        batches: 24,
        batch_size: 64,
        kind: WorkloadKind::Chat {
            topics: 64,
            skew: 1.0,
            subscribers: 512,
            churn_rate: 1.25,
            fanout_cap: 8,
        },
    }
}

/// What one chat batch cost and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct BatchCost {
    allocs: u64,
    bytes: u64,
    rng_blocks: u64,
    msgs: u64,
    rounds: u64,
    epochs: u64,
    fetched: u64,
}

impl BatchCost {
    /// The quantities that say what the run did, which must not move.
    fn run(&self) -> (u64, u64, u64, u64, u64) {
        (self.rng_blocks, self.msgs, self.rounds, self.epochs, self.fetched)
    }
}

/// Run `chat_fanout` twice: once counting each batch's allocations, bytes,
/// blocks and DHT deltas, once with a collector attached to read
/// `pubsub.fetched` (telemetry is pure observation, so the DHT deltas of
/// the two runs must agree).
fn measure_chat() -> Vec<BatchCost> {
    let spec = chat_fanout_spec();
    let mut costs: Vec<BatchCost> = Vec::with_capacity(spec.batches as usize);
    let mut before = counters();
    let mut last = (0, 0, 0);
    // The observer only reads counters and pushes into reserved space, so
    // it allocates nothing itself.
    WorkloadEngine::run_stepped(&spec, &mut Campaign::none(), &Telemetry::disabled(), &mut |dht| {
        let c = spent(before);
        let now = (dht.messages_total, dht.clock().round(), dht.clock().epochs());
        costs.push(BatchCost {
            allocs: c.allocs,
            bytes: c.bytes,
            rng_blocks: c.rng_blocks,
            msgs: now.0 - last.0,
            rounds: now.1 - last.1,
            epochs: now.2 - last.2,
            fetched: 0,
        });
        last = now;
        before = counters();
    });
    assert_eq!(costs.len() as u64, spec.batches, "one observation per batch");

    let tel = Telemetry::collector();
    let mut seen = Vec::new();
    let mut fetched_before = 0;
    WorkloadEngine::run_stepped(&spec, &mut Campaign::none(), &tel, &mut |dht| {
        let snap = tel.snapshot();
        let fetched: u64 = snap
            .counters
            .iter()
            .filter(|(k, _)| *k == "pubsub.fetched" || k.starts_with("pubsub.fetched{"))
            .map(|(_, v)| v)
            .sum();
        seen.push((dht.messages_total, dht.clock().round(), fetched - fetched_before));
        fetched_before = fetched;
    });
    let mut totals = (0, 0);
    for (c, (msgs, round, fetched)) in costs.iter_mut().zip(seen) {
        totals = (totals.0 + c.msgs, totals.1 + c.rounds);
        assert_eq!(totals, (msgs, round), "telemetry moved the chat run");
        c.fetched = fetched;
    }
    costs
}

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/cost.json")
}

fn cost_json(c: &Cost) -> String {
    format!(
        "{{\"allocs\": {}, \"bytes\": {}, \"rng_blocks\": {}, \"msgs\": {}, \"bits\": {}}}",
        c.allocs, c.bytes, c.rng_blocks, c.msgs, c.bits
    )
}

fn batch_json(c: &BatchCost) -> String {
    format!(
        "{{\"allocs\": {}, \"bytes\": {}, \"rng_blocks\": {}, \"msgs\": {}, \"rounds\": {}, \
         \"epochs\": {}, \"fetched\": {}}}",
        c.allocs, c.bytes, c.rng_blocks, c.msgs, c.rounds, c.epochs, c.fetched
    )
}

fn render(shapes: &[(&Shape, &Measured)], chat: &[BatchCost]) -> String {
    let mut out = String::from("{\n");
    for (shape, m) in shapes {
        let _ = writeln!(out, "  \"{}\": {{", shape.name);
        let _ = writeln!(
            out,
            "    \"n\": {}, \"rounds\": {}, \"ring\": {}, \"block_rate\": {},",
            shape.n, shape.rounds, shape.ring, shape.block_rate
        );
        let _ = writeln!(out, "    \"setup\": {},", cost_json(&m.setup));
        out.push_str("    \"per_round\": [\n");
        for (r, c) in m.rounds.iter().enumerate() {
            let sep = if r + 1 == m.rounds.len() { "" } else { "," };
            let _ = writeln!(out, "      {}{sep}", cost_json(c));
        }
        out.push_str("    ]\n  },\n");
    }
    let spec = chat_fanout_spec();
    let WorkloadKind::Chat { subscribers, fanout_cap, .. } = spec.kind else { unreachable!() };
    let _ = writeln!(out, "  \"{CHAT_FANOUT}\": {{");
    let _ = writeln!(
        out,
        "    \"n\": {}, \"batches\": {}, \"batch_size\": {}, \"subscribers\": {subscribers}, \
         \"fanout_cap\": {fanout_cap}, \"seed\": {},",
        spec.n, spec.batches, spec.batch_size, spec.seed
    );
    out.push_str("    \"per_batch\": [\n");
    for (b, c) in chat.iter().enumerate() {
        let sep = if b + 1 == chat.len() { "" } else { "," };
        let _ = writeln!(out, "      {}{sep}", batch_json(c));
    }
    out.push_str("    ]\n  }\n}\n");
    out
}

/// The workload shape's name in `cost.json`.
const CHAT_FANOUT: &str = "chat_fanout";

fn cost_of(v: &serde_json::Value) -> Cost {
    let get = |k: &str| v.get(k).and_then(|x| x.as_u64()).unwrap_or_else(|| panic!("{k} in {v:?}"));
    Cost {
        allocs: get("allocs"),
        bytes: get("bytes"),
        rng_blocks: get("rng_blocks"),
        msgs: get("msgs"),
        bits: get("bits"),
    }
}

fn total(costs: &[Cost]) -> Cost {
    costs.iter().fold(Cost::default(), |a, c| Cost {
        allocs: a.allocs + c.allocs,
        bytes: a.bytes + c.bytes,
        rng_blocks: a.rng_blocks + c.rng_blocks,
        msgs: a.msgs + c.msgs,
        bits: a.bits + c.bits,
    })
}

/// Hold `got` against the golden `want` of one shape and print the deltas.
fn compare(shape: &Shape, got: &Measured, want: &serde_json::Value) {
    let rounds: Vec<Cost> = want
        .get("per_round")
        .and_then(|v| v.as_array())
        .expect("per_round")
        .iter()
        .map(cost_of)
        .collect();
    assert_eq!(rounds.len(), got.rounds.len(), "{}: round count", shape.name);
    let setup = cost_of(want.get("setup").expect("setup"));
    for (r, (g, w)) in got.rounds.iter().zip(&rounds).enumerate() {
        assert_eq!(
            (g.msgs, g.bits, g.rng_blocks),
            (w.msgs, w.bits, w.rng_blocks),
            "{} round {r}: (msgs, bits, rng_blocks) moved — the run itself changed",
            shape.name
        );
    }
    assert_eq!(got.setup.rng_blocks, setup.rng_blocks, "{}: setup rng_blocks", shape.name);
    let (g, w) = (total(&got.rounds), total(&rounds));
    let (gw, ww) = (total(&got.rounds[..WARM_UP]), total(&rounds[..WARM_UP]));
    eprintln!(
        "{}: setup allocs {} -> {} bytes {} -> {}; warm-up rounds allocs {} -> {} bytes {} -> {}; \
         all rounds allocs {} -> {} bytes {} -> {}; rng_blocks {}, msgs {}, bits {} (unchanged)",
        shape.name,
        setup.allocs,
        got.setup.allocs,
        setup.bytes,
        got.setup.bytes,
        ww.allocs,
        gw.allocs,
        ww.bytes,
        gw.bytes,
        w.allocs,
        g.allocs,
        w.bytes,
        g.bytes,
        g.rng_blocks,
        g.msgs,
        g.bits,
    );
    assert!(
        got.setup.allocs <= setup.allocs && got.setup.bytes <= setup.bytes,
        "{}: setup allocates more than the golden",
        shape.name
    );
    for (r, (g, w)) in got.rounds.iter().zip(&rounds).enumerate().skip(WARM_UP) {
        assert!(
            g.allocs <= w.allocs && g.bytes <= w.bytes,
            "{} round {r} allocates more than the golden: {g:?} vs {w:?}",
            shape.name
        );
    }
}

fn batch_cost_of(v: &serde_json::Value) -> BatchCost {
    let get = |k: &str| v.get(k).and_then(|x| x.as_u64()).unwrap_or_else(|| panic!("{k} in {v:?}"));
    BatchCost {
        allocs: get("allocs"),
        bytes: get("bytes"),
        rng_blocks: get("rng_blocks"),
        msgs: get("msgs"),
        rounds: get("rounds"),
        epochs: get("epochs"),
        fetched: get("fetched"),
    }
}

/// Hold the chat batches against the golden and print the deltas.
fn compare_chat(got: &[BatchCost], want: &serde_json::Value) {
    let want: Vec<BatchCost> = want
        .get("per_batch")
        .and_then(|v| v.as_array())
        .expect("per_batch")
        .iter()
        .map(batch_cost_of)
        .collect();
    assert_eq!(want.len(), got.len(), "{CHAT_FANOUT}: batch count");
    let sum = |cs: &[BatchCost]| {
        cs.iter().fold(BatchCost::default(), |a, c| BatchCost {
            allocs: a.allocs + c.allocs,
            bytes: a.bytes + c.bytes,
            rng_blocks: a.rng_blocks + c.rng_blocks,
            msgs: a.msgs + c.msgs,
            rounds: a.rounds + c.rounds,
            epochs: a.epochs + c.epochs,
            fetched: a.fetched + c.fetched,
        })
    };
    let (g, w) = (sum(got), sum(&want));
    eprintln!(
        "{CHAT_FANOUT}: allocs {} -> {} bytes {} -> {} rng_blocks {} -> {} msgs {} -> {} \
         rounds {} -> {} epochs {} -> {} fetched {} -> {}",
        w.allocs,
        g.allocs,
        w.bytes,
        g.bytes,
        w.rng_blocks,
        g.rng_blocks,
        w.msgs,
        g.msgs,
        w.rounds,
        g.rounds,
        w.epochs,
        g.epochs,
        w.fetched,
        g.fetched,
    );
    for (b, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            g.run(),
            w.run(),
            "{CHAT_FANOUT} batch {b}: (rng_blocks, msgs, rounds, epochs, fetched) moved — the run \
             itself changed"
        );
        assert!(
            g.allocs <= w.allocs && g.bytes <= w.bytes,
            "{CHAT_FANOUT} batch {b} allocates more than the golden: {g:?} vs {w:?}"
        );
    }
}

#[test]
fn engine_costs_match_the_golden_and_warm_rounds_allocate_nothing() {
    let gossip = measure(&ENGINE_GOSSIP, Backend::Parity);
    let churndos = measure(&S1_CHURNDOS, Backend::Parity);
    let ring = measure(&RING, Backend::Parity);

    // A node's first mail allocates its inbox. Round 1 brings every node
    // its first mail but those blocked then or in round 0 (a message is
    // dropped if its receiver is blocked in the send or the receive
    // round); round 2 brings round 0's window theirs, round 3 round 1's.
    for (r, cost) in ring.rounds.iter().enumerate().skip(4) {
        assert_eq!((cost.allocs, cost.bytes), (0, 0), "warm ring round {r} allocated");
    }

    // RNG blocks are counted process-wide, so a sharded run counts the
    // same on a pool of one thread and of two.
    let on_pool = |threads: usize| {
        let pool = rayon::ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
        let m = pool.install(|| measure(&ENGINE_GOSSIP, Backend::fast(2)));
        m.rounds.iter().map(|c| (c.rng_blocks, c.msgs, c.bits)).collect::<Vec<_>>()
    };
    assert_eq!(on_pool(1), on_pool(2), "RNG blocks differ between pools of 1 and 2 threads");

    let chat = measure_chat();

    let shapes = [(&ENGINE_GOSSIP, &gossip), (&S1_CHURNDOS, &churndos), (&RING, &ring)];
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(golden_path(), render(&shapes, &chat)).unwrap();
        return;
    }
    let text = std::fs::read_to_string(golden_path()).expect("tests/golden/cost.json");
    let golden: serde_json::Value = serde_json::from_str(&text).expect("cost.json is JSON");
    for (shape, got) in shapes {
        compare(shape, got, golden.get(shape.name).expect("shape in cost.json"));
    }
    compare_chat(&chat, golden.get(CHAT_FANOUT).expect("chat_fanout in cost.json"));
}
