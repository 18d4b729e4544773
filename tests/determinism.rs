//! Deterministic-replay verification: golden digest streams and
//! serial/parallel differential tests.
//!
//! Golden tests pin the per-round digest stream of one fixed run per
//! protocol family. If an intentional change shifts the digests, refresh
//! the files with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -q -p integration-tests --test determinism
//! ```
//!
//! and review the diff under `tests/golden/`. An *unintentional* digest
//! change means the simulation is no longer replay-identical — a bug.
//!
//! Differential tests prove the engine's parallelism claim: stepping nodes
//! serially, through the rayon pool, and under pools of different thread
//! counts must produce byte-identical digest streams, for populations on
//! both sides of [`simnet::PAR_THRESHOLD`].

use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use overlay_adversary::Campaign;
use overlay_graphs::HGraph;
use overlay_workload::{WorkloadEngine, WorkloadKind, WorkloadSpec};
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_core::churndos::{ChurnDosOverlay, ChurnDosParams};
use reconfig_core::config::SamplingParams;
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::reconfig::ExpanderOverlay;
use reconfig_core::sampling::run_alg1_digested;
use simnet::{Ctx, Network, NodeId, ParMode, Protocol, PAR_THRESHOLD};
use std::path::PathBuf;
use telemetry::Telemetry;

// ---------------------------------------------------------------------------
// Golden-file plumbing
// ---------------------------------------------------------------------------

fn golden_path(name: &str) -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/integration-tests; goldens live in the
    // repository-root tests/golden/ next to the test sources.
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name)
}

/// Compare `lines` against the checked-in golden file, or rewrite it when
/// `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, header: &str, lines: &[String]) {
    let path = golden_path(name);
    let mut actual = format!("# {header}\n");
    for l in lines {
        actual.push_str(l);
        actual.push('\n');
    }
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with \
             UPDATE_GOLDEN=1 cargo test -q -p integration-tests --test determinism",
            path.display()
        )
    });
    assert_eq!(
        expected,
        actual,
        "digest stream diverged from {}; if the change is intentional, refresh \
         with UPDATE_GOLDEN=1 cargo test -q -p integration-tests --test determinism",
        path.display()
    );
}

// ---------------------------------------------------------------------------
// Golden runs, one per protocol family
// ---------------------------------------------------------------------------

#[test]
fn golden_sampling_alg1_digest_stream() {
    let nodes: Vec<NodeId> = (0..32).map(NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(0xA11CE);
    let graph = HGraph::random(&nodes, 8, &mut rng);
    let params = SamplingParams::default();
    let (_, _, digests) = run_alg1_digested(&graph, &params, 42);
    assert!(!digests.is_empty());
    let lines: Vec<String> =
        digests.iter().map(|d| format!("{} {:016x}", d.round, d.value)).collect();
    check_golden(
        "sampling_alg1.digests",
        "core/sampling: run_alg1_digested, n=32 d=8 graph_seed=0xA11CE run_seed=42",
        &lines,
    );
}

#[test]
fn golden_reconfig_expander_digest_stream() {
    let mut ov = ExpanderOverlay::new(24, 8, SamplingParams::default(), 7);
    let mut sched = ChurnSchedule::new(ChurnStrategy::Random, 2.0, 0.5, 10_000);
    let mut rng = simnet::rng::stream(7, 0, 1);
    let mut lines = vec![format!("{} {:016x}", 0, ov.state_digest())];
    for epoch in 1..=3u64 {
        let ev = sched.next(ov.members(), &mut rng);
        ov.apply_churn(&ev);
        ov.reconfigure();
        lines.push(format!("{} {:016x}", epoch, ov.state_digest()));
    }
    check_golden(
        "reconfig_expander.digests",
        "core/reconfig: ExpanderOverlay n=24 d=8 seed=7, Random churn rate=2.0 \
         intensity=0.5, state_digest per epoch",
        &lines,
    );
}

#[test]
fn golden_dos_overlay_digest_stream() {
    let mut ov = DosOverlay::new(256, DosParams::default(), 9);
    let lateness = 2 * ov.epoch_len();
    let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.3, lateness, 11);
    let mut lines = Vec::new();
    for _ in 0..2 * ov.epoch_len() {
        adv.observe(ov.grouped().snapshot(ov.round()));
        let blocked = adv.block(ov.round(), ov.grouped().len());
        ov.step(&blocked);
        lines.push(format!("{} {:016x}", ov.round(), ov.state_digest()));
    }
    check_golden(
        "dos_overlay.digests",
        "core/dos: DosOverlay n=256 seed=9, GroupTargeted r=0.3 2t-late adv_seed=11, \
         state_digest per round over 2 epochs",
        &lines,
    );
}

#[test]
fn golden_churndos_overlay_digest_stream() {
    let mut ov = ChurnDosOverlay::new(400, ChurnDosParams::default(), 13);
    let lateness = 2 * ov.epoch_len();
    let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.3, lateness, 17);
    let mut churn = ChurnSchedule::new(ChurnStrategy::Random, 1.3, 0.5, 100_000);
    let mut churn_rng = simnet::rng::stream(13, 1, 1);
    let mut lines = Vec::new();
    for _ in 0..2u64 {
        let ev = churn.next(&ov.members(), &mut churn_rng);
        ov.apply_churn(&ev);
        for _ in 0..ov.epoch_len() {
            adv.observe(ov.snapshot(ov.round()));
            let blocked = adv.block(ov.round(), ov.len());
            ov.step(&blocked);
            lines.push(format!("{} {:016x}", ov.round(), ov.state_digest()));
        }
    }
    check_golden(
        "churndos_overlay.digests",
        "core/churndos: ChurnDosOverlay n=400 seed=13, GroupTargeted r=0.3 2t-late \
         adv_seed=17, Random churn rate=1.3 intensity=0.5, state_digest per round \
         over 2 epochs",
        &lines,
    );
}

/// The W-series at the `--smoke` sizes of `exp_w{1,2,3}`, both arms each.
///
/// `workload_determinism.rs` compares backends with each other, so a change
/// to the DHT's routing kernel that shifts legacy and xl *together* is
/// invisible there. This golden pins the absolute values: the replay digest
/// (ops, block sets, per-batch rounds/congestion/messages, sampled ids),
/// the rounds stepped, the communication-work bits and the completions.
/// DESIGN.md §14 "Routing contract" is the queue discipline they fix.
#[test]
fn golden_workload_digests() {
    let spec =
        |seed, batches, batch_size, kind| WorkloadSpec { n: 256, seed, batches, batch_size, kind };
    let specs = [
        (
            "w1",
            spec(
                0x5731,
                6,
                64,
                WorkloadKind::ZipfKv { keyspace: 4096, skew: 1.1, read_fraction: 0.7 },
            ),
        ),
        (
            "w2",
            spec(
                0x5732,
                6,
                64,
                WorkloadKind::HotKey {
                    keyspace: 4096,
                    top_k: 16,
                    rotate_every: 4,
                    hot_fraction: 0.9,
                },
            ),
        ),
        (
            "w3",
            spec(
                0x5733,
                4,
                16,
                WorkloadKind::Chat {
                    topics: 64,
                    skew: 1.0,
                    subscribers: 64,
                    churn_rate: 1.3,
                    fanout_cap: 4,
                },
            ),
        ),
    ];
    let mut lines = Vec::new();
    for (name, spec) in &specs {
        for campaign in ["none", "churn+dos"] {
            let mut attacker = Campaign::preset(campaign, 0.02, 2, spec.seed).unwrap();
            let r = WorkloadEngine::run(spec, &mut attacker, &Telemetry::disabled());
            lines.push(format!(
                "{name} {campaign} {:016x} rounds={} bits={} completed={}/{}",
                r.trace_digest, r.rounds, r.account.bits, r.account.completed, r.account.attempted
            ));
        }
    }
    check_golden(
        "workload.digests",
        "workload: WorkloadEngine::run at the exp_w{1,2,3} --smoke specs (n=256), campaigns \
         none and churn+dos (bound 0.02, lateness 2, seed = spec seed): trace_digest, DHT \
         rounds, communication-work bits, completed/attempted ops",
        &lines,
    );
}

// ---------------------------------------------------------------------------
// Serial vs parallel differential tests
// ---------------------------------------------------------------------------

/// A protocol that exercises everything the round digest covers: per-node
/// RNG draws, protocol state evolution, and message traffic with
/// payload-dependent content.
struct Gossip {
    n: u64,
    acc: u64,
}

impl Protocol for Gossip {
    type Msg = u64;

    fn digest(&self, digest: &mut simnet::Digest) {
        digest.write_u64(self.n).write_u64(self.acc);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) {
        for env in ctx.take_inbox() {
            self.acc = self.acc.wrapping_mul(0x100_0000_01b3) ^ env.msg;
        }
        let n = self.n;
        let target = NodeId(ctx.rng().random_range(0..n));
        let value: u64 = ctx.rng().random();
        ctx.send(target, value);
    }
}

fn gossip_digests(n: u64, seed: u64, rounds: u64, mode: ParMode) -> Vec<simnet::RoundDigest> {
    let mut net: Network<Gossip> = Network::new(seed);
    net.set_par_mode(mode);
    net.enable_digests();
    net.set_manifest(format!("gossip n={n} rounds={rounds} mode={mode:?}"));
    for i in 0..n {
        net.add_node(NodeId(i), Gossip { n, acc: i });
    }
    net.run(rounds);
    net.trace().digests().to_vec()
}

#[test]
fn serial_and_parallel_digests_match_below_threshold() {
    let n = 64;
    assert!((n as usize) < PAR_THRESHOLD);
    let serial = gossip_digests(n, 5150, 12, ParMode::Serial);
    assert_eq!(gossip_digests(n, 5150, 12, ParMode::Parallel), serial);
    assert_eq!(gossip_digests(n, 5150, 12, ParMode::Auto), serial);
}

#[test]
fn serial_and_parallel_digests_match_above_threshold() {
    let n = 600;
    assert!((n as usize) > PAR_THRESHOLD);
    let serial = gossip_digests(n, 5151, 6, ParMode::Serial);
    assert_eq!(gossip_digests(n, 5151, 6, ParMode::Parallel), serial);
    assert_eq!(gossip_digests(n, 5151, 6, ParMode::Auto), serial);
}

#[test]
fn one_thread_and_many_threads_agree() {
    // The same parallel-mode run under a 1-thread pool and an N-thread
    // pool: chunking and scheduling differ, digests must not.
    let run_with = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| gossip_digests(600, 5152, 6, ParMode::Parallel))
    };
    let one = run_with(1);
    let four = run_with(4);
    assert_eq!(one, four);
    // And both match an un-pooled serial run.
    assert_eq!(one, gossip_digests(600, 5152, 6, ParMode::Serial));
}

#[test]
fn digest_streams_differ_across_seeds() {
    // Sanity: the digest is not degenerate — different seeds must produce
    // different streams once randomness is consumed.
    let a = gossip_digests(64, 1, 8, ParMode::Serial);
    let b = gossip_digests(64, 2, 8, ParMode::Serial);
    assert_ne!(a, b);
}

#[test]
fn overlay_state_digests_are_replay_identical() {
    // The overlay-family digests replayed in-process: two identical runs
    // must agree round for round (cross-process identity is pinned by the
    // golden files).
    let run_once = || {
        let mut ov = ChurnDosOverlay::new(400, ChurnDosParams::default(), 3);
        let mut adv = DosAdversary::new(DosStrategy::Random, 0.2, 2 * ov.epoch_len(), 5);
        let mut out = Vec::new();
        for _ in 0..ov.epoch_len() {
            adv.observe(ov.snapshot(ov.round()));
            let blocked = adv.block(ov.round(), ov.len());
            ov.step(&blocked);
            out.push(ov.state_digest());
        }
        out
    };
    assert_eq!(run_once(), run_once());
}

#[test]
fn sampling_digest_stream_is_replay_identical_and_mode_independent() {
    let nodes: Vec<NodeId> = (0..600).map(NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let graph = HGraph::random(&nodes, 8, &mut rng);
    let params = SamplingParams::default();
    // n=600 > PAR_THRESHOLD: run_alg1 steps in parallel under ParMode::Auto.
    let (_, _, a) = run_alg1_digested(&graph, &params, 9);
    let (_, _, b) = run_alg1_digested(&graph, &params, 9);
    assert_eq!(a, b);
    assert!(!a.is_empty());
}
