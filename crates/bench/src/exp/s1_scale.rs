//! S1 — engine scaling: the `simnet-xl` engine in parity and fast modes,
//! n = 10⁵ → 10⁶, shards × cores × mode.
//!
//! Two protocol families bracket the engine's cost model:
//!
//! * **hgraph** — a token-walk over a degree-8 H-graph in which every node
//!   has a finite, staggered activity budget and goes permanently
//!   quiescent when it runs out. The active population decays to zero
//!   midway through the run, so the tail rounds cost O(active) — the
//!   workload shape of the Algorithm 1 samplers.
//! * **churndos** — an always-on gossip mesh under per-round DoS blocks
//!   and periodic churn, the ChurnDos overlay's shape. No node is ever
//!   quiescent, so this measures raw per-round throughput of the
//!   structure-of-arrays state.
//!
//! The sweep crosses both families with the backends (`xl`, parity on its
//! one shard, which is the baseline of every group; `xl:fast` at shards 1
//! and 4). The rayon worker-pool size is set by `--cores <k>[,<k>...]`
//! (default: `RAYON_NUM_THREADS` or the host count; a list runs the whole
//! sweep once per pool size) and every row records the **actual** pool
//! size it ran under (`cores`) alongside the physical `host_cpus` — the two
//! are deliberately separate fields so a row can never claim parallel
//! hardware it didn't have.
//!
//! Fast mode at one shard is parity — the one data plane at one shard — so
//! `xl` and `xl:fast:1` must both produce the digest streams recorded when
//! the two still had separate delivery paths; at four shards fast mode
//! relaxes delivery order (see DESIGN.md §10) and is checked for
//! *reproducibility* (two runs, identical streams) instead, with its
//! distributional equivalence covered by `tests/fast_mode_equivalence.rs`.
//! `--smoke` (n = 5·10⁴, the CI `s1-smoke` job) runs exactly those checks
//! before reporting timings. The
//! full sweep writes `results/s1.json` plus `BENCH_S1.json` at the
//! workspace root.
//!
//! Timings exclude setup (graph construction, node insertion): the
//! claim under test is steady-state rounds/sec, not build cost.

use super::hgraph;
use crate::driver::{Experiment, Pools, Row, Run, RunError};
use rand::RngExt;
use reconfig_core::backend::{AnyNet, Backend, ExecMode};
use simnet::{BlockSet, Ctx, NodeId, Protocol, RoundDigest};
use std::time::Instant;

pub const EXP: Experiment = Experiment {
    smoke: true,
    cores: Some(Pools { default: 0, list: true }),
    ..Experiment::new(
        "S1",
        "Engine scaling: simnet-xl parity and fast, shards x cores x mode",
        "at n=1e6: xl and xl:fast:1 are one code path (the smoke holds both to the recorded \
            digests); xl:fast:4 runs faster on two cores than on one",
        run,
    )
    .with_telemetry()
};

const SEED: u64 = 0x51_5CA1E;

// ---------------------------------------------------------------------------
// Family 1: hgraph — token walk with decaying activity
// ---------------------------------------------------------------------------

/// Walks tokens over static H-graph neighbor lists until its activity
/// budget runs out, then goes dark forever (the sampler workload shape).
struct WalkNode {
    peers: Vec<NodeId>,
    acc: u64,
    budget: u32,
}

impl Protocol for WalkNode {
    type Msg = u64;

    fn digest(&self, d: &mut simnet::Digest) {
        d.write_u64(self.acc).write_u64(self.budget as u64);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        for env in ctx.take_inbox() {
            self.acc = self.acc.rotate_left(7) ^ env.msg;
        }
        for _ in 0..2 {
            let peer = self.peers[ctx.rng().random_range(0..self.peers.len())];
            let msg = self.acc ^ ctx.rng().random::<u64>();
            ctx.send(peer, msg);
        }
    }

    fn quiescent(&self) -> bool {
        self.budget == 0
    }
}

/// Per-node neighbor lists of a random degree-8 H-graph, extracted by
/// walking each Hamilton cycle once (O(n·d)) so the graph itself can be
/// dropped before the large-n runs.
fn hgraph_peers(n: usize) -> Vec<Vec<NodeId>> {
    let graph = hgraph(n as u64, SEED);
    let mut peers = vec![Vec::with_capacity(graph.degree()); n];
    for cycle in graph.cycles() {
        let order = cycle.order();
        let m = order.len();
        for (i, &v) in order.iter().enumerate() {
            peers[v.raw() as usize].push(order[(i + 1) % m]);
            peers[v.raw() as usize].push(order[(i + m - 1) % m]);
        }
    }
    peers
}

/// Staggered budget: the active population decays linearly to zero over
/// the first ~30 rounds, leaving a long all-quiescent tail.
fn walk_budget(i: u64) -> u32 {
    6 + (i % 24) as u32
}

fn run_hgraph(
    backend: Backend,
    peers: &[Vec<NodeId>],
    rounds: u64,
    digests: bool,
    tel: &telemetry::Telemetry,
) -> RunOut {
    let n = peers.len();
    let mut net: AnyNet<WalkNode> = backend.build(SEED);
    net.set_telemetry(tel.clone());
    for (i, p) in peers.iter().enumerate() {
        let id = NodeId(i as u64);
        net.add_node(
            id,
            WalkNode { peers: p.clone(), acc: i as u64, budget: walk_budget(i as u64) },
        );
    }
    if digests {
        net.enable_digests();
    }
    let start = Instant::now();
    net.run(rounds);
    finish(net, n, rounds, start)
}

// ---------------------------------------------------------------------------
// Family 2: churndos — always-on gossip under blocks and churn
// ---------------------------------------------------------------------------

/// Gossips two messages to uniformly random members every round, forever
/// — nothing is ever quiescent, so every node is touched every round.
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

/// Per-round DoS block sets at the given rate, drawn from a dedicated
/// stream so every backend consumes the identical schedule.
fn block_schedule(n: u64, rounds: u64, rate: f64) -> Vec<BlockSet> {
    let mut rng = simnet::rng::stream(SEED, 9, 0xD05);
    (0..rounds)
        .map(|_| {
            let mut b = BlockSet::none();
            for id in 0..n {
                if rng.random::<f64>() < rate {
                    b.insert(NodeId(id));
                }
            }
            b
        })
        .collect()
}

fn run_churndos(
    backend: Backend,
    n: u64,
    blocks: &[BlockSet],
    digests: bool,
    tel: &telemetry::Telemetry,
) -> RunOut {
    let mut net: AnyNet<GossipNode> = backend.build(SEED ^ 0xCD);
    net.set_telemetry(tel.clone());
    for i in 0..n {
        net.add_node(NodeId(i), GossipNode { span: n, acc: i });
    }
    if digests {
        net.enable_digests();
    }
    let rounds = blocks.len() as u64;
    let start = Instant::now();
    for (r, blocked) in blocks.iter().enumerate() {
        let r = r as u64;
        if r % 6 == 5 {
            // Churn burst: four members leave, four fresh ids join.
            for k in 0..4u64 {
                net.remove_node(NodeId((r * 131 + k * 17) % n));
                net.add_node(NodeId(n + r * 4 + k), GossipNode { span: n, acc: r ^ k });
            }
        }
        net.step_blocked(blocked);
    }
    finish(net, n as usize, rounds, start)
}

// ---------------------------------------------------------------------------
// Measurement plumbing
// ---------------------------------------------------------------------------

struct RunOut {
    elapsed_s: f64,
    rounds_per_sec: f64,
    bytes_per_node: f64,
    digests: Vec<RoundDigest>,
    /// Backend as reported by the network after construction (fast mode's
    /// automatic shard count resolved to its actual value).
    backend: Backend,
    mode: ExecMode,
    shards: usize,
    /// Actual rayon worker count this run executed under.
    cores: usize,
}

fn finish<P: Protocol>(net: AnyNet<P>, n: usize, rounds: u64, start: Instant) -> RunOut {
    let elapsed_s = start.elapsed().as_secs_f64();
    let (mode, shards) = (net.exec_mode(), net.shard_count());
    RunOut {
        elapsed_s,
        rounds_per_sec: rounds as f64 / elapsed_s.max(1e-9),
        bytes_per_node: net.stats().total_bits() as f64 / 8.0 / n as f64,
        digests: net.trace().digests().to_vec(),
        backend: match mode {
            ExecMode::Parity => Backend::Parity,
            ExecMode::Fast => Backend::fast(shards),
        },
        mode,
        shards,
        cores: rayon::current_num_threads(),
    }
}

/// One sweep cell: a (family, n) workload crossed with a backend list.
/// All rows of a cell share the baseline (the first backend listed).
struct Cell {
    family: &'static str,
    n: usize,
    rounds: u64,
    backends: Vec<Backend>,
}

fn run_cell(cell: &Cell, digests: bool, tel: &telemetry::Telemetry) -> Vec<RunOut> {
    let peers = if cell.family == "hgraph" { hgraph_peers(cell.n) } else { Vec::new() };
    let blocks = if cell.family == "churndos" {
        block_schedule(cell.n as u64, cell.rounds, 0.08)
    } else {
        Vec::new()
    };
    let mut rows = Vec::new();
    for &backend in &cell.backends {
        let out = match cell.family {
            "hgraph" => run_hgraph(backend, &peers, cell.rounds, digests, tel),
            _ => run_churndos(backend, cell.n as u64, &blocks, digests, tel),
        };
        eprintln!(
            "  {} n={} {} [cores={}]: {:.2}s ({:.1} rounds/s)",
            cell.family, cell.n, out.backend, out.cores, out.elapsed_s, out.rounds_per_sec
        );
        rows.push(out);
    }
    rows
}

/// Add a cell's rows, which share a baseline (the first row).
fn emit_group(cell: &Cell, outs: &[RunOut], run: &mut Run) {
    let base = &outs[0];
    let base_label = base.backend.to_string();
    for out in outs {
        let speedup = out.rounds_per_sec / base.rounds_per_sec;
        let shown = if std::ptr::eq(out, base) { "-".into() } else { format!("{speedup:.2}x") };
        run.row(
            Row::new()
                .cell("family", "family", cell.family)
                .cell("n", "n", cell.n)
                .key("rounds", cell.rounds)
                .cell("backend", "backend", out.backend.to_string())
                .cell("mode", "mode", out.mode.name())
                .cell("shards", "shards", out.shards)
                .cell("cores", "cores", out.cores)
                .key("host_cpus", run.host_cpus)
                .float("elapsed s", "elapsed_s", out.elapsed_s)
                .cell_as(
                    "rounds/s",
                    "rounds_per_sec",
                    out.rounds_per_sec,
                    format!("{:.1}", out.rounds_per_sec),
                )
                .cell_as(
                    "bytes/node",
                    "bytes_per_node",
                    out.bytes_per_node,
                    format!("{:.0}", out.bytes_per_node),
                )
                .key("baseline", base_label.as_str())
                .cell_as("speedup", "speedup_vs_baseline", speedup, shown),
        );
    }
}

// ---------------------------------------------------------------------------
// Smoke: the fast-mode oracle and reproducibility for CI
// ---------------------------------------------------------------------------

/// CI gate at n = 5·10⁴ with digests on:
///
/// * oracle — `xl` and `xl:fast:1` (the same engine) must produce the
///   digest stream recorded when the two still delivered through separate
///   paths;
/// * reproducibility — `xl:fast:4`, run twice, must produce identical
///   streams (and must actually produce digests).
fn smoke(run: &mut Run) {
    let cells = [
        ("hgraph", 50_000usize, 24u64, RECORDED_HGRAPH),
        ("churndos", 50_000, 12, RECORDED_CHURNDOS),
    ];
    for (family, n, rounds, recorded) in cells {
        let cell = Cell {
            family,
            n,
            rounds,
            backends: vec![Backend::Parity, Backend::fast(1), Backend::fast(4), Backend::fast(4)],
        };
        let rows = run_cell(&cell, true, &run.tel);
        for one_shard in &rows[..2] {
            assert!(!one_shard.digests.is_empty(), "digests were not captured");
            assert_eq!(
                fingerprint(&one_shard.digests),
                recorded,
                "digest divergence: {family} n={n} {} vs the recorded stream",
                one_shard.backend
            );
        }
        let (fast_a, fast_b) = (&rows[2], &rows[3]);
        assert!(!fast_a.digests.is_empty(), "fast digests were not captured");
        assert_eq!(fast_a.digests, fast_b.digests, "fast mode is not reproducible: {family} n={n}");
        // Report one fast row, not the reproducibility duplicate.
        emit_group(&cell, &rows[..3], run);
    }
    run.note(
        "s1-smoke: xl and xl:fast:1 reproduce the recorded streams and xl:fast:4 is \
         reproducible for both families at n=5e4",
    );
}

/// The smoke cells' one-shard digest streams, fingerprinted: recorded at
/// the commit before one-shard delivery became the route pass's serial
/// case.
const RECORDED_HGRAPH: u64 = 0x1d40_adda_0aa8_ba24;
const RECORDED_CHURNDOS: u64 = 0xd2e4_28f1_0da6_3a72;

/// One number for a digest stream.
fn fingerprint(stream: &[RoundDigest]) -> u64 {
    let mut d = simnet::Digest::new();
    for r in stream {
        d.write_u64(r.round).write_u64(r.value);
    }
    d.finish()
}

// ---------------------------------------------------------------------------
// Full sweep
// ---------------------------------------------------------------------------

fn full_sweep(run: &mut Run) {
    let modes = || vec![Backend::Parity, Backend::fast(1), Backend::fast(4)];
    let cells = [
        Cell { family: "hgraph", n: 100_000, rounds: 48, backends: modes() },
        Cell { family: "hgraph", n: 1_000_000, rounds: 48, backends: modes() },
        Cell { family: "churndos", n: 100_000, rounds: 24, backends: modes() },
        Cell { family: "churndos", n: 1_000_000, rounds: 24, backends: modes() },
    ];
    for cell in &cells {
        let rows = run_cell(cell, false, &run.tel);
        emit_group(cell, &rows, run);
    }
    // Each pool's run adds its rows; the last one's record holds them all.
    let auto = rayon::current_num_threads();
    let cores: Vec<usize> = run.cores.iter().map(|&k| if k == 0 { auto } else { k }).collect();
    let body = serde_json::json!({ "cores": cores, "rows": run.rows().to_vec() });
    run.bench("S1", body);
}

/// One run per `--cores` pool size (the driver installs the pool).
fn run(run: &mut Run) -> Result<(), RunError> {
    eprintln!("s1: rayon pool size {} (host cpus {})", rayon::current_num_threads(), run.host_cpus);
    run.table("S1: engine scaling (rounds/sec, higher is better)");
    if run.smoke {
        smoke(run);
    } else {
        full_sweep(run);
    }
    Ok(())
}
