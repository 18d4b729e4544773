//! Deterministic-replay verification: golden digest streams and the
//! pool-size differential of fast mode.
//!
//! Golden tests pin the per-round digest stream of one fixed run per
//! protocol family, of the raw engine and of the live cluster. If an
//! intentional change shifts the digests, refresh the files with
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test -q -p integration-tests --test determinism
//! ```
//!
//! and review the diff under `tests/golden/`. An *unintentional* digest
//! change means the simulation is no longer replay-identical — a bug.
//!
//! Parity runs on one shard, serially; the only parallel engine is fast
//! mode, and its claim is that the thread schedule is invisible: four
//! shards under pools of one and four threads must produce byte-identical
//! digest streams, for a population above [`simnet_xl::PAR_THRESHOLD`].

use overlay_adversary::adaptive::{AdaptiveHarness, AdaptiveStrategy, Attacker};
use overlay_adversary::byzantine::{ByzActions, ByzBudget, ByzFamily, ByzHarness};
use overlay_adversary::catastrophe::{
    CatastropheCampaign, CatastropheRepro, CatastropheSpec, CatastropheTrace,
};
use overlay_adversary::churn::{ChurnEvent, ChurnSchedule, ChurnStrategy};
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use overlay_adversary::faults::FaultSchedule;
use overlay_adversary::lateness::{SharedSnapshot, TopologySnapshot};
use overlay_adversary::remote::CampaignSpec;
use overlay_adversary::shrink::{AdversaryTrace, Repro};
use overlay_adversary::Campaign;
use overlay_graphs::HGraph;
use overlay_workload::{WorkloadEngine, WorkloadKind, WorkloadSpec};
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_bench::runner::ExperimentResult;
use reconfig_core::backend::{with_backend, Backend};
use reconfig_core::byzantine::{DefenseConfig, Defenses};
use reconfig_core::churndos::{ChurnDosOverlay, ChurnDosParams, SizeBand};
use reconfig_core::config::{SamplingParams, Schedule};
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{
    ExpanderFaultRun, FaultyRunner, HealableOverlay, HealingParams, HealingStats,
};
use reconfig_core::metrics::SamplingMetrics;
use reconfig_core::monitor::Invariant;
use reconfig_core::nodert::{ClusterTrace, DelayObs, RoundRecord};
use reconfig_core::reconfig::{ExpanderOverlay, JoinPair};
use reconfig_core::recovery::RecoveryParams;
use reconfig_core::sampling::{
    run_alg1_digested_observed, run_alg1_direct_observed, run_alg1_observed, run_alg2_observed,
    run_baseline_observed, Alg1Node, SampleMsg,
};
use reconfig_node::cluster::{run_cluster, ClusterConfig};
use simnet::checkpoint::{get_array, get_str, read_value, FieldKey, Schema};
use simnet::conduct::PPM;
use simnet::{
    BlockSet, Burst, BurstSchedule, BurstTarget, ByzantineConduct, Checkpoint, CkptError,
    CkptResult, Ctx, Digest, Envelope, FaultModel, LinkFaults, NodeFault, NodeId, Partition,
    Protocol, RoundDigest, RunManifest, TimedPartition, Trace, TraceEvent,
};
use simnet_xl::{XlNetwork, PAR_THRESHOLD};
use std::path::PathBuf;
use std::sync::Arc;
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
    let (_, _, digests) = run_alg1_digested_observed(&graph, &params, 42, &Telemetry::disabled());
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

/// The direct sampler is what every reconfiguration epoch runs, yet
/// `reconfig_expander.digests` sees only the few samples `pool.pop()`
/// consumes at n = 24. This pins the whole sample table and the metrics:
/// d = 6 makes Phase 1 itself reject (6 is not a power of two), and the
/// undersized schedules pin the self-fallback on an empty multiset.
#[test]
fn golden_sampling_direct_digests() {
    let undersized = SamplingParams { epsilon: 0.01, c: 0.15, ..SamplingParams::default() };
    let cases: [(u64, usize, SamplingParams, u64); 5] = [
        (24, 8, SamplingParams::default(), 42),
        (200, 6, SamplingParams::default(), 43),
        (1024, 8, SamplingParams::default(), 44),
        (128, 8, undersized, 13),
        (200, 6, undersized, 45),
    ];
    let mut lines = Vec::new();
    for (n, d, params, seed) in cases {
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(0xD1EC7 + n);
        let graph = HGraph::random(&nodes, d, &mut rng);
        let run = run_alg1_direct_observed(&graph, &params, seed, &Telemetry::disabled());
        let mut dg = Digest::new();
        dg.write_usize(run.samples.len());
        for row in &run.samples {
            dg.write_usize(row.len());
            for &id in row {
                dg.write_u32(id);
            }
        }
        let m = &run.metrics;
        assert_eq!(m.failures > 0, params.c < 1.0, "n={n} d={d}: only undersized cases underflow");
        lines.push(format!(
            "n={n} d={d} eps={} c={} seed={seed} samples={:016x} rounds={} iterations={} \
             per_node={} failures={} max_node_bits={} max_node_msgs={} total_msgs={}",
            params.epsilon,
            params.c,
            dg.finish(),
            m.rounds,
            m.iterations,
            m.samples_per_node,
            m.failures,
            m.max_node_bits,
            m.max_node_msgs,
            m.total_msgs,
        ));
    }
    check_golden(
        "sampling_direct.digests",
        "core/sampling: run_alg1_direct, graph_seed=0xD1EC7+n, digest of the full sample table \
         (row count, then each row's length and ids) plus SamplingMetrics",
        &lines,
    );
}

/// One line of `sampling_runs.digests`: the per-node samples, all eight
/// `SamplingMetrics` fields and the JSONL capture of the recorder the run
/// was observed into (its events with their details, the metrics and the
/// phase enters).
fn sampling_run_line(
    label: &str,
    rows: impl IntoIterator<Item = (u64, Vec<u64>)>,
    m: &SamplingMetrics,
    tel: &Telemetry,
    extra: &str,
) -> String {
    let mut dg = Digest::new();
    for (node, row) in rows {
        dg.write_u64(node).write_usize(row.len());
        for id in row {
            dg.write_u64(id);
        }
    }
    let jsonl = tel.capture(&[("run", label)]).to_jsonl();
    format!(
        "{label} samples={:016x} n={} rounds={} iterations={} per_node={} failures={} \
         max_node_bits={} max_node_msgs={} total_msgs={} telemetry={}:{:016x}{extra}",
        dg.finish(),
        m.n,
        m.rounds,
        m.iterations,
        m.samples_per_node,
        m.failures,
        m.max_node_bits,
        m.max_node_msgs,
        m.total_msgs,
        jsonl.len(),
        fnv64(jsonl.as_bytes()),
    )
}

/// The five sampling entry points share one envelope: a private collector,
/// the `Sampling` phase, the start and finish events, the metrics derived
/// from the collector's snapshot, and the absorb into the caller's
/// recorder. This pins what each of them records, at two sizes each, on
/// the parity engine with a timing-off recorder. The larger size runs an
/// undersized schedule, so its finish events carry a nonzero failure
/// count. The sixth entry point, `run_alg2_direct_observed`, came later;
/// `alg2_direct_matches_the_message_level_run` holds it to `run_alg2_observed`.
#[test]
fn golden_sampling_run_digests() {
    let undersized = SamplingParams { epsilon: 0.01, c: 0.2, ..SamplingParams::default() };
    let seed = 0x5A3F;
    let ids = |samples: &[(NodeId, Vec<NodeId>)]| -> Vec<(u64, Vec<u64>)> {
        samples.iter().map(|(v, s)| (v.raw(), s.iter().map(|x| x.raw()).collect())).collect()
    };
    let mut lines = Vec::new();
    with_backend(Backend::Parity, || {
        for (n, params) in [(32u64, SamplingParams::default()), (200, undersized)] {
            let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
            let mut rng = ChaCha8Rng::seed_from_u64(0x5A3F + n);
            let graph = HGraph::random(&nodes, 8, &mut rng);

            let tel = Telemetry::collector();
            let (samples, m) = run_alg1_observed(&graph, &params, seed, &tel);
            lines.push(sampling_run_line(&format!("alg1 n={n}"), ids(&samples), &m, &tel, ""));

            let tel = Telemetry::collector();
            let (samples, m, digests) = run_alg1_digested_observed(&graph, &params, seed, &tel);
            let mut dg = Digest::new();
            for d in &digests {
                dg.write_u64(d.round).write_u64(d.value);
            }
            let extra = format!(" digests={}:{:016x}", digests.len(), dg.finish());
            let label = format!("alg1-digested n={n}");
            lines.push(sampling_run_line(&label, ids(&samples), &m, &tel, &extra));

            let tel = Telemetry::collector();
            let (samples, m) = run_baseline_observed(&graph, &params, seed, &tel);
            lines.push(sampling_run_line(&format!("baseline n={n}"), ids(&samples), &m, &tel, ""));

            let tel = Telemetry::collector();
            let run = run_alg1_direct_observed(&graph, &params, seed, &tel);
            let rows = run
                .samples
                .iter()
                .enumerate()
                .map(|(u, row)| (u as u64, row.iter().map(|&x| u64::from(x)).collect()));
            let label = format!("alg1-direct n={n}");
            lines.push(sampling_run_line(&label, rows, &run.metrics, &tel, ""));
        }
        for (dim, params) in [(4u32, SamplingParams::default()), (8, undersized)] {
            let tel = Telemetry::collector();
            let (samples, m) = run_alg2_observed(dim, &params, seed, &tel);
            lines.push(sampling_run_line(&format!("alg2 dim={dim}"), ids(&samples), &m, &tel, ""));
        }
    });
    check_golden(
        "sampling_runs.digests",
        "core/sampling: the five entry points on the parity engine, d=8 graph_seed=0x5A3F+n \
         run_seed=0x5A3F, default params at n=32 and dim=4, eps=0.01 c=0.2 at n=200 and dim=8; \
         samples digest, SamplingMetrics, byte length and FNV-1a of the timing-off recorder's \
         JSONL capture",
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

// ---------------------------------------------------------------------------
// The healed DoS round
// ---------------------------------------------------------------------------

/// Population of the healed-round golden and of the checkpoint fixture.
const HEALED_N: usize = 1024;
/// Epochs each healed-round arm runs.
const HEALED_EPOCHS: u64 = 6;
/// Round after which `dos_overlay_v1.ckpt.json` was saved: mid-epoch, after
/// the first evicted members have rejoined out of id order.
const HEALED_CKPT_ROUND: u64 = 59;

/// Heartbeat timeout of two epochs, so that a member crashed for two
/// epochs is evicted while down and has to come back through the join
/// path; the default of three never evicts a crash-recover victim.
fn healed_params() -> HealingParams {
    HealingParams { heartbeat_epochs: 2, ..HealingParams::default() }
}

/// The benchmark's `dos_healing` mix around `overlay`: loss 0.2, crash
/// hazard 0.002 per round, recovery after two epochs, at most 10 % down,
/// a 2t-late `GroupTargeted` attacker at r = 0.3 with its budget judged.
fn healed_runner<O: HealableOverlay>(
    overlay: O,
    seed: u64,
    healing: bool,
) -> (FaultyRunner<O>, DosAdversary) {
    let t = overlay.epoch_len();
    let faults = FaultSchedule::new(seed ^ 0x5EED, 0.2, 0.002, Some(2 * t), 0.1);
    let runner = FaultyRunner::new(overlay, faults, healed_params(), healing).with_dos_bound(0.3);
    (runner, DosAdversary::new(DosStrategy::GroupTargeted, 0.3, 2 * t, seed + 1))
}

/// Every observable of `HEALED_EPOCHS` epochs of one arm: per round the
/// overlay's `state_digest`, each `DosRoundMetrics` field and the runner's
/// membership / down / desynced counts; then the `HealingStats` and the
/// monitor's totals.
fn healed_lines<O: HealableOverlay>(
    tag: &str,
    overlay: O,
    seed: u64,
    healing: bool,
    digest: impl Fn(&O) -> u64,
) -> (Vec<String>, HealingStats) {
    let (mut runner, mut adv) = healed_runner(overlay, seed, healing);
    let mut lines = Vec::new();
    for _ in 0..HEALED_EPOCHS * runner.overlay.epoch_len() {
        let m = runner.round_timed(&mut adv, |_| {});
        lines.push(format!(
            "{tag} {} {:016x} blocked={} connected={} min_avail={} sizes={}..{} members={} \
             down={} desynced={}",
            m.round,
            digest(&runner.overlay),
            m.blocked,
            m.connected,
            m.min_group_available,
            m.min_group_size,
            m.max_group_size,
            runner.overlay.len(),
            runner.down_len(),
            runner.desynced_len(),
        ));
    }
    let s = runner.stats();
    let mon = &runner.monitor;
    let counts: Vec<String> = [
        Invariant::Connectivity,
        Invariant::Availability,
        Invariant::GroupSizeBand,
        Invariant::BlockingBudget,
        Invariant::StaleBound,
    ]
    .iter()
    .map(|&inv| format!("{}={}", inv.name(), mon.count(inv)))
    .collect();
    lines.push(format!(
        "{tag} stats desync={} retries={} resyncs={} exhausted={} evictions={} rejoins={} \
         crashes={} epochs={} failed_epochs={} monitor total={} rounds={} {}",
        s.desync_events,
        s.retries,
        s.resyncs,
        s.exhausted,
        s.evictions,
        s.rejoins,
        s.crashes,
        runner.overlay.epochs(),
        runner.overlay.failed_epochs(),
        mon.total(),
        mon.rounds(),
        counts.join(" "),
    ));
    (lines, s)
}

/// The healed DoS round, end to end: `attacker.digests` pins the block
/// streams and `fault_injection.rs` asserts outcomes, but nothing else pins
/// what `FaultyRunner::step` computes from them — the crash and loss draws,
/// the retry ladder, staleness evictions, rejoins, the effective block set
/// the overlay is stepped under, and the monitor's verdicts. Written at the
/// commit before `BlockSet` became a sorted `Vec`.
#[test]
fn golden_healing_round_digests() {
    let mut lines = Vec::new();
    for healing in [true, false] {
        let arm = if healing { "healed" } else { "control" };
        let (dos, dos_stats) = healed_lines(
            &format!("dos/{arm}"),
            DosOverlay::new(HEALED_N, DosParams::default(), 21),
            21,
            healing,
            DosOverlay::state_digest,
        );
        let (churndos, churndos_stats) = healed_lines(
            &format!("churndos/{arm}"),
            ChurnDosOverlay::new(HEALED_N, ChurnDosParams::default(), 22),
            22,
            healing,
            ChurnDosOverlay::state_digest,
        );
        for s in [dos_stats, churndos_stats] {
            assert!(s.crashes > 0 && s.desync_events > 0, "{arm}: the fault mix must bite");
            assert_eq!(s.retries > 0, healing, "{arm}: retries happen exactly when healing");
            assert_eq!(s.evictions > 0, healing, "{arm}: evictions happen exactly when healing");
            assert_eq!(s.rejoins > 0, healing, "{arm}: rejoins happen exactly when healing");
        }
        lines.extend(dos);
        lines.extend(churndos);
    }
    check_golden(
        "healing_round.digests",
        "core/healing: FaultyRunner over DosOverlay (seed 21) and ChurnDosOverlay (seed 22), \
         n=1024, 6 epochs, loss=0.2 hazard=0.002 recover=2t cap=0.1 heartbeat=2 epochs, \
         GroupTargeted r=0.3 2t-late adv_seed=seed+1 with the budget judged, healing on \
         (healed) and off (control); per round: state_digest, DosRoundMetrics, members, down, \
         desynced; then HealingStats and monitor totals",
        &lines,
    );
}

/// `dos_overlay_v1.ckpt.json` is an input, like `network_v1.ckpt.json`:
/// the `DosOverlay` of the `dos/healed` arm above, saved (pretty-printed,
/// trailing newline) after round `HEALED_CKPT_ROUND` by the commit whose
/// `BlockSet` was a `BTreeSet` and whose `GroupedNetwork` kept a `HashMap`.
/// It must load, stamp the digest `healing_round.digests` has for that
/// round, and re-`save()` to the same bytes; `UPDATE_GOLDEN` never rewrites
/// it.
#[test]
fn golden_dos_overlay_v1_checkpoint_round_trips_byte_for_byte() {
    let path = golden_path("dos_overlay_v1.ckpt.json");
    let text = std::fs::read_to_string(&path).expect("committed fixture");
    let snap = read_value(&path).expect("committed fixture parses");
    let ov = DosOverlay::load(&snap).expect("a parent-written checkpoint loads");
    assert_eq!(ov.round(), HEALED_CKPT_ROUND);
    assert_ne!(ov.round() % ov.epoch_len(), 0, "saved mid-epoch");
    assert!(!get_array(&snap, "prev_blocked").expect("prev_blocked").is_empty());
    let unsorted = |g: &Vec<NodeId>| g.windows(2).any(|w| w[0] > w[1]);
    assert!(ov.grouped().groups().iter().any(unsorted), "a rejoin appended out of id order");
    assert_eq!(serde_json::to_string_pretty(&ov.save()).unwrap() + "\n", text);

    let golden = std::fs::read_to_string(golden_path("healing_round.digests")).unwrap();
    let stamped = format!("dos/healed {HEALED_CKPT_ROUND} {:016x} ", ov.state_digest());
    assert!(golden.lines().any(|l| l.starts_with(&stamped)), "not the golden run's round");

    // Replaying the arm to the same round reproduces the file.
    let (mut runner, mut adv) =
        healed_runner(DosOverlay::new(HEALED_N, DosParams::default(), 21), 21, true);
    for _ in 0..HEALED_CKPT_ROUND {
        runner.round_timed(&mut adv, |_| {});
    }
    assert_eq!(serde_json::to_string_pretty(&runner.overlay.save()).unwrap() + "\n", text);

    let tamper = |key: &str, value: serde_json::Value| {
        let mut bad = snap.clone();
        let serde_json::Value::Object(top) = &mut bad else { panic!("checkpoint is an object") };
        top.insert(key.into(), value);
        DosOverlay::load(&bad).err()
    };
    assert!(matches!(tamper("round", 99u64.into()), Some(CkptError::DigestMismatch { .. })));
    assert!(matches!(tamper("prev_blocked", 7u64.into()), Some(CkptError::Corrupt(_))));
    // The stamp does not cover `epoch_len`, and a stamp is no proof: after
    // it, the epoch counters must agree with each other. An edit that
    // breaks that is `Corrupt`, naming a field, even when re-stamped.
    let restamped = |key: &str, value: u64| {
        let mut bad = snap.clone();
        let serde_json::Value::Object(top) = &mut bad else { panic!("checkpoint is an object") };
        top.insert(key.into(), value.into());
        if let Some(CkptError::DigestMismatch { restored, .. }) = tamper(key, value.into()) {
            top.insert("digest_stamp".into(), restored.into());
        }
        matches!(DosOverlay::load(&bad), Err(CkptError::Corrupt(m)) if m.contains(key))
    };
    assert!(restamped("epoch_len", 0));
    assert!(restamped("epoch_len", HEALED_CKPT_ROUND + 1));
    assert!(restamped("round", 99));
    assert!(restamped("epochs_done", ov.epochs() + 1));
    assert!(restamped("failed_epochs", ov.epochs() + 1));
}

/// `churndos_overlay_v1.ckpt.json` is an input too: the `ChurnDosOverlay`
/// of the `churndos/healed` arm above, saved (pretty-printed, trailing
/// newline) after round `HEALED_CKPT_ROUND`, mid-epoch, with rejoins
/// pending at the next boundary and a non-empty previous block set, by the
/// commit before the epoch counters moved into one clock. It must load,
/// stamp the digest `healing_round.digests` has for that round, and
/// re-`save()` to the same bytes; `UPDATE_GOLDEN` never rewrites it.
#[test]
fn golden_churndos_overlay_v1_checkpoint_round_trips_byte_for_byte() {
    let path = golden_path("churndos_overlay_v1.ckpt.json");
    let text = std::fs::read_to_string(&path).expect("committed fixture");
    let snap = read_value(&path).expect("committed fixture parses");
    let ov = ChurnDosOverlay::load(&snap).expect("a parent-written checkpoint loads");
    assert_eq!(ov.round(), HEALED_CKPT_ROUND);
    assert_ne!(ov.round() % ov.epoch_len(), 0, "saved mid-epoch");
    assert!(!get_array(&snap, "pending_joins").expect("pending_joins").is_empty());
    assert!(!get_array(&snap, "prev_blocked").expect("prev_blocked").is_empty());
    assert_eq!(serde_json::to_string_pretty(&ov.save()).unwrap() + "\n", text);

    let golden = std::fs::read_to_string(golden_path("healing_round.digests")).unwrap();
    let stamped = format!("churndos/healed {HEALED_CKPT_ROUND} {:016x} ", ov.state_digest());
    assert!(golden.lines().any(|l| l.starts_with(&stamped)), "not the golden run's round");

    // Replaying the arm to the same round reproduces the file.
    let (mut runner, mut adv) =
        healed_runner(ChurnDosOverlay::new(HEALED_N, ChurnDosParams::default(), 22), 22, true);
    for _ in 0..HEALED_CKPT_ROUND {
        runner.round_timed(&mut adv, |_| {});
    }
    assert_eq!(serde_json::to_string_pretty(&runner.overlay.save()).unwrap() + "\n", text);

    let tamper = |key: &str, value: serde_json::Value| {
        let mut bad = snap.clone();
        let serde_json::Value::Object(top) = &mut bad else { panic!("checkpoint is an object") };
        top.insert(key.into(), value);
        ChurnDosOverlay::load(&bad).err()
    };
    assert!(matches!(tamper("round", 99u64.into()), Some(CkptError::DigestMismatch { .. })));
    assert!(matches!(tamper("prev_blocked", 7u64.into()), Some(CkptError::Corrupt(_))));
    assert!(matches!(tamper("pending_joins", 7u64.into()), Some(CkptError::Corrupt(_))));
    let restamped = |key: &str, value: u64| {
        let mut bad = snap.clone();
        let serde_json::Value::Object(top) = &mut bad else { panic!("checkpoint is an object") };
        top.insert(key.into(), value.into());
        if let Some(CkptError::DigestMismatch { restored, .. }) = tamper(key, value.into()) {
            top.insert("digest_stamp".into(), restored.into());
        }
        matches!(ChurnDosOverlay::load(&bad), Err(CkptError::Corrupt(m)) if m.contains(key))
    };
    assert!(restamped("epoch_len", 0));
    assert!(restamped("epoch_len", HEALED_CKPT_ROUND + 1));
    assert!(restamped("round", 99));
    assert!(restamped("epochs_done", ov.epochs() + 1));
    assert!(restamped("failed_epochs", ov.epochs() + 1));
}

// ---------------------------------------------------------------------------
// Persisted formats, fenced by their bytes
// ---------------------------------------------------------------------------

/// FNV-1a over `bytes`.
fn fnv64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// One persisted format of the fence: a saved instance, how to load and
/// re-save it, and — for a type declared with `checkpoint_schema!` — its
/// declared keys.
struct Format {
    name: &'static str,
    saved: serde_json::Value,
    resave: Resave,
    keys: Option<Vec<FieldKey>>,
}

/// Load a saved value and save the result again.
type Resave = Box<dyn Fn(&serde_json::Value) -> CkptResult<serde_json::Value>>;

/// The format of a schema type, from a saved value of it.
fn schema_value<T: Schema + 'static>(name: &'static str, saved: serde_json::Value) -> Format {
    let resave = Box::new(|v: &serde_json::Value| T::load(v).map(|x| x.save()));
    Format { name, saved, resave, keys: Some(T::keys()) }
}

fn schema<T: Schema + 'static>(name: &'static str, x: &T) -> Format {
    schema_value::<T>(name, x.save())
}

/// The format of a hand-written codec.
fn hand_written(
    name: &'static str,
    saved: serde_json::Value,
    resave: impl Fn(&serde_json::Value) -> CkptResult<serde_json::Value> + 'static,
) -> Format {
    Format { name, saved, resave: Box::new(resave), keys: None }
}

/// `name byte_len fnv64` of the format's instance pretty-printed, after
/// checking that loading and re-saving it reproduces the same bytes.
fn format_line(f: &Format) -> String {
    let text = serde_json::to_string_pretty(&f.saved).unwrap();
    let again = (f.resave)(&f.saved).unwrap_or_else(|e| panic!("{}: {e}", f.name));
    let again = serde_json::to_string_pretty(&again).unwrap();
    assert_eq!(again, text, "{} does not re-save to the bytes it loaded", f.name);
    format!("{} {} {:016x}", f.name, text.len(), fnv64(text.as_bytes()))
}

/// The fault model of the format fence: link faults, both node-fault
/// kinds, a partition and scheduled delays (two under one key).
fn fenced_faults() -> FaultModel {
    FaultModel::new(0xFE)
        .with_link(LinkFaults { drop_prob: 0.12, dup_prob: 0.07, delay_prob: 0.15, max_delay: 3 })
        .with_node_fault(NodeId(4), NodeFault::CrashRecover { at: 5, down_for: 4 })
        .with_node_fault(NodeId(9), NodeFault::CrashStop { at: 12 })
        .with_partition(Partition { side: (0..4).map(NodeId).collect(), from: 10, until: 14 })
        .with_scheduled_delay(NodeId(1), NodeId(2), 0, 2)
        .with_scheduled_delay(NodeId(1), NodeId(2), 0, 1)
        .with_scheduled_delay(NodeId(3), NodeId(0), 1, 1)
}

/// An Algorithm 1 network of 16 nodes under [`fenced_faults`], two rounds
/// in: multisets filled, requests in flight.
fn fenced_alg1_network() -> XlNetwork<Alg1Node> {
    let nodes: Vec<NodeId> = (0..16).map(NodeId).collect();
    let graph = HGraph::random(&nodes, 8, &mut ChaCha8Rng::seed_from_u64(31));
    let schedule = Arc::new(Schedule::algorithm1(16, 8, &SamplingParams::default()));
    let mut net = XlNetwork::<Alg1Node>::new(0xA1);
    net.set_fault_model(fenced_faults());
    for &v in &nodes {
        net.add_node(v, Alg1Node::new(Arc::clone(&schedule), graph.neighbors(v)));
    }
    net.step();
    net.step();
    net
}

fn fenced_catastrophe_trace() -> CatastropheTrace {
    let set = |ids: &[u64]| ids.iter().map(|&i| NodeId(i)).collect::<BlockSet>();
    CatastropheTrace::new(
        AdversaryTrace::new(vec![set(&[1, 2]), BlockSet::none(), set(&[7])]),
        AdversaryTrace::new(vec![BlockSet::none(), set(&[3, 4, 5])]),
    )
}

fn fenced_cluster_trace() -> ClusterTrace {
    let delay = DelayObs { from: NodeId(0), to: NodeId(2), sent_round: 0, extra: 2 };
    ClusterTrace {
        seed: 42,
        n0: 3,
        rounds: vec![
            RoundRecord {
                round: 0,
                digests: vec![(0, 10), (1, 11), (2, 12)],
                ..Default::default()
            },
            RoundRecord {
                round: 1,
                blocked: vec![2],
                kills: vec![1],
                joins: vec![3],
                delays: vec![delay],
                digests: vec![(0, 20), (2, 22), (3, 23)],
            },
        ],
    }
}

/// Every persisted format, each a seeded instance with every `Option` set
/// and non-empty vectors.
fn state_formats() -> Vec<Format> {
    let mut formats = Vec::new();
    let faults = fenced_faults();
    formats.push(schema("LinkFaults", faults.link()));
    formats.push(schema(
        "Partition",
        &Partition { side: (0..4).map(NodeId).collect(), from: 10, until: 14 },
    ));
    formats
        .push(hand_written("FaultModel", faults.save(), |v| FaultModel::load(v).map(|f| f.save())));
    let burst = Burst { at: 5, frac: 0.2, target: BurstTarget::Groups, storm_window: 8 };
    let timed = TimedPartition { at: 20, heal_at: 30, side_frac: 0.25 };
    formats.push(schema("Burst", &burst));
    formats.push(schema("TimedPartition", &timed));
    formats.push(schema(
        "BurstSchedule",
        &BurstSchedule::new(77).with_burst(burst).with_partition(timed),
    ));
    let env = Envelope {
        from: NodeId(3),
        to: NodeId(5),
        sent_round: 9,
        msg: SampleMsg::Response(NodeId(8)),
    };
    formats.push(schema("Envelope<SampleMsg>", &env));

    let mut trace = Trace::with_capacity(3);
    trace.record(TraceEvent::Delivered { round: 0, from: NodeId(1), to: NodeId(2) });
    trace.record(TraceEvent::Delayed { round: 1, from: NodeId(2), to: NodeId(3), until: 4 });
    trace.record(TraceEvent::NodeRemoved { round: 2, node: NodeId(3) });
    trace.record(TraceEvent::DroppedLink { round: 3, from: NodeId(0), to: NodeId(1) });
    trace.record_digest(RoundDigest { round: 0, value: 0xDEAD_BEEF });
    trace.set_manifest(RunManifest::new(7, "ring n=4"));
    formats.push(schema("Trace", &trace));

    let spec = CatastropheSpec::new(77).with_burst(burst).with_partition(timed);
    formats.push(schema("CatastropheSpec", &spec));
    formats.push(schema("CatastropheTrace", &fenced_catastrophe_trace()));
    let repro = CatastropheRepro {
        family: "dos".into(),
        seed: 5,
        n: 64,
        spec,
        trace: fenced_catastrophe_trace(),
    };
    formats.push(schema("CatastropheRepro", &repro));
    let repro = Repro {
        family: "churndos".into(),
        strategy: "late-random".into(),
        seed: 6,
        n: 128,
        bound: 0.3,
        lateness: 24,
        trace: fenced_catastrophe_trace().blocks,
    };
    formats.push(schema("Repro", &repro));

    let params = SamplingParams::paper_whp(2.0);
    formats.push(schema("SamplingParams", &params));
    formats.push(schema("Schedule", &Schedule::algorithm1(4096, 8, &params)));
    formats.push(schema("SizeBand", &SizeBand { c: 8 }));
    let net = fenced_alg1_network();
    let saved = net.save_state();
    let slot = &get_array(&saved, "slots").expect("slots")[3];
    let mut node = Alg1Node::load(slot.get("proto").expect("proto")).expect("alg1 node");
    node.samples = Some((0..5).map(NodeId).collect());
    formats.push(schema("Alg1Node", &node));
    formats.push(hand_written("XlNetwork<Alg1Node>", saved, |v| {
        XlNetwork::<Alg1Node>::from_state(v).map(|net| net.save_state())
    }));

    let mut ov = ExpanderOverlay::new(24, 8, SamplingParams::default(), 5);
    ov.reconfigure();
    let join = overlay_adversary::churn::Join { new_node: NodeId(500), introduced_to: NodeId(3) };
    ov.apply_churn(&ChurnEvent { joins: vec![join], leaves: vec![NodeId(7), NodeId(11)] });
    formats.push(schema("ExpanderOverlay", &ov));
    let mut r = FaultyRunner::paper_model(DosOverlay::new(256, DosParams::default(), 3));
    let mut adv = DosAdversary::new(DosStrategy::Random, 0.2, 0, 5);
    r.run(&mut adv, r.overlay.epoch_len() + 3);
    formats.push(schema("DosOverlay", &r.overlay));
    let mut ov = ChurnDosOverlay::new(400, ChurnDosParams::default(), 3);
    let mut adv = DosAdversary::new(DosStrategy::Random, 0.2, 0, 5);
    for _ in 0..ov.epoch_len() + 3 {
        adv.observe(ov.snapshot(ov.round()));
        let blocked = adv.block(ov.round(), ov.len());
        ov.step(&blocked);
    }
    let join = overlay_adversary::churn::Join { new_node: NodeId(900), introduced_to: NodeId(3) };
    ov.apply_churn(&ChurnEvent { joins: vec![join], leaves: vec![NodeId(8)] });
    formats.push(schema("ChurnDosOverlay", &ov));

    let cluster = fenced_cluster_trace();
    formats.push(schema("DelayObs", &cluster.rounds[1].delays[0]));
    formats.push(schema("RoundRecord", &cluster.rounds[1]));
    formats.push(schema("ClusterTrace", &cluster));
    let metrics = SamplingMetrics {
        n: 4096,
        rounds: 9,
        iterations: 4,
        samples_per_node: 24,
        failures: 1,
        max_node_bits: 7000,
        max_node_msgs: 90,
        total_msgs: 123_456,
    };
    formats.push(schema("SamplingMetrics", &metrics));
    let result = ExperimentResult {
        id: "E0".into(),
        title: "format fence".into(),
        claim: "bytes do not move".into(),
        rows: vec![serde_json::json!({ "n": 8, "ok": true }), serde_json::json!({ "n": 16 })],
        verdict: vec![serde_json::json!({ "says": "n doubles", "claimed": true, "holds": true })],
    };
    formats.push(schema("ExperimentResult", &result));
    formats
}

/// Every persisted format's bytes, before and after any change to how
/// they are written: a renamed key, a dropped field or a changed encoding
/// moves a line of `state_formats.digests`.
#[test]
fn golden_state_formats() {
    check_golden(
        "state_formats.digests",
        "persisted formats: type, byte length and FNV-1a 64 of one seeded instance's \
         pretty-printed save(); each loads and re-saves to the same bytes",
        &state_formats().iter().map(format_line).collect::<Vec<_>>(),
    );
}

/// The first number in `v`, depth first in key order.
fn first_number(v: &mut serde_json::Value) -> Option<&mut serde_json::Value> {
    match v {
        serde_json::Value::Number(_) => Some(v),
        serde_json::Value::Array(items) => items.iter_mut().find_map(first_number),
        serde_json::Value::Object(members) => members.values_mut().find_map(first_number),
        _ => None,
    }
}

/// Every format of the fence, the schema types only nested there and the
/// three committed checkpoints, corrupted one top-level key at a time:
/// the key dropped, its value replaced by one of another JSON kind, and
/// its first number bumped by one. No load may panic. For a schema type,
/// whose declared keys must be exactly the saved ones, a dropped or
/// retyped key is `Corrupt` naming the key, and a bumped key of a stamped
/// type loads only if it is declared undigested.
#[test]
fn schema_keys_corrupted_one_at_a_time_are_typed_errors() {
    let mut formats = state_formats();
    formats.push(schema("RoundDigest", &RoundDigest { round: 3, value: 9 }));
    formats.push(schema("RunManifest", &RunManifest::new(7, "ring n=4")));
    formats.push(schema("JoinPair", &JoinPair { new: NodeId(9), via: NodeId(2) }));
    let file = |name| read_value(&golden_path(name)).expect("committed fixture");
    let name = "dos_overlay_v1.ckpt.json";
    formats.push(schema_value::<DosOverlay>(name, file(name)));
    let name = "churndos_overlay_v1.ckpt.json";
    formats.push(schema_value::<ChurnDosOverlay>(name, file(name)));
    let name = "network_v1.ckpt.json";
    formats.push(hand_written(name, file(name), |v| {
        XlNetwork::<Chatter>::from_state(v).map(|net| net.save_state())
    }));

    let mut failures = Vec::new();
    for f in &formats {
        let serde_json::Value::Object(top) = &f.saved else { panic!("{} is an object", f.name) };
        let saved_keys: Vec<&str> = top.keys().map(String::as_str).collect();
        let keys = match &f.keys {
            Some(keys) => {
                let mut declared: Vec<&str> = keys.iter().map(|k| k.key).collect();
                declared.sort_unstable();
                assert_eq!(declared, saved_keys, "{}: declared keys are the saved keys", f.name);
                keys.iter().map(|k| (k.key, k.undigested)).collect()
            }
            None => saved_keys.iter().map(|&k| (k, None)).collect::<Vec<_>>(),
        };
        let stamped = f.keys.is_some() && top.contains_key("digest_stamp");
        for (key, undigested) in keys {
            let mut load = |case: &str, edit: &dyn Fn(&mut serde_json::Value)| {
                let mut bad = f.saved.clone();
                edit(&mut bad);
                let run = std::panic::AssertUnwindSafe(|| (f.resave)(&bad));
                let out = std::panic::catch_unwind(run).ok();
                if out.is_none() {
                    failures.push(format!("{}: {case} `{key}` panicked", f.name));
                }
                out
            };
            let names_key = |r: &CkptResult<serde_json::Value>| match r {
                Err(CkptError::Corrupt(m)) => m.contains(&format!("`{key}`")),
                _ => false,
            };
            let dropped = load("dropping", &|v| {
                let serde_json::Value::Object(m) = v else { unreachable!() };
                m.remove(key);
            });
            let retyped = load("retyping", &|v| {
                let value = v.get(key).and_then(serde_json::Value::as_str).map_or_else(
                    || serde_json::Value::from("x"),
                    |_| serde_json::Value::from(7u64),
                );
                let serde_json::Value::Object(m) = v else { unreachable!() };
                m.insert(key.to_string(), value);
            });
            let mut bumped_value = f.saved.get(key).cloned().expect("saved key");
            let bumped = match first_number(&mut bumped_value) {
                None => None,
                Some(x) => {
                    *x = match x.as_u64() {
                        Some(n) => serde_json::Value::from(n.wrapping_add(1)),
                        None => serde_json::Value::from(x.as_f64().unwrap_or(0.0) + 1.0),
                    };
                    load("bumping", &|v| {
                        let serde_json::Value::Object(m) = v else { unreachable!() };
                        m.insert(key.to_string(), bumped_value.clone());
                    })
                }
            };
            if f.keys.is_none() {
                continue;
            }
            for (case, out) in [("dropped", &dropped), ("retyped", &retyped)] {
                if let Some(r) = out.as_ref().filter(|r| !names_key(r)) {
                    failures.push(format!("{}: {case} `{key}` gave {r:?}", f.name));
                }
            }
            if let Some(Ok(_)) = bumped.filter(|_| stamped && undigested.is_none()) {
                failures.push(format!("{}: bumped `{key}` loaded past the stamp", f.name));
            }
        }
    }
    assert!(failures.is_empty(), "{} failures:\n{}", failures.len(), failures.join("\n"));
}

/// The W-series at reduced sizes (n = 256, a few short batches), both arms
/// each: W1-W3's workload kinds and seeds, at the sizes their former
/// `--smoke` runs used. These specs are the golden's own; the header line
/// below still names those runs because it is part of the golden bytes.
///
/// `workload_determinism.rs` compares shard counts with each other, so a
/// change to the DHT's routing kernel that shifts them *together* is
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

/// Digests every emission of the attacker it wraps, so a golden line pins
/// the whole `(round, BlockSet)` / `(round, ByzActions)` stream bit for bit.
struct Tap<A> {
    inner: A,
    digest: Digest,
    blocked: usize,
    /// Digest whole Byzantine moves, not just their block sets.
    byz: bool,
}

impl<A> Tap<A> {
    fn new(inner: A) -> Self {
        Self { inner, digest: Digest::new(), blocked: 0, byz: false }
    }

    fn byz(inner: A) -> Self {
        Self { byz: true, ..Self::new(inner) }
    }

    /// One emission: the round, the block set, and (for Byzantine moves)
    /// the `Debug` rendering of everything else.
    fn eat(&mut self, round: u64, blocked: &BlockSet, rest: &str) {
        self.blocked += blocked.len();
        self.digest.write_u64(round).write_str(rest).write_usize(blocked.len());
        for v in blocked.iter() {
            self.digest.write_u64(v.raw());
        }
    }

    fn line(&self, section: &str, label: &str, lateness: u64) -> String {
        format!(
            "{section} {label} t={lateness} {:016x} blocked={}",
            self.digest.finish(),
            self.blocked
        )
    }
}

impl<A: Attacker> Attacker for Tap<A> {
    fn observe(&mut self, snap: SharedSnapshot) {
        self.inner.observe(snap);
    }
    fn block(&mut self, round: u64, n_current: usize) -> BlockSet {
        let blocked = self.inner.block(round, n_current);
        self.eat(round, &blocked, "");
        blocked
    }
    fn act(&mut self, round: u64, n_current: usize) -> ByzActions {
        if !self.byz {
            return ByzActions { blocked: self.block(round, n_current), ..ByzActions::default() };
        }
        let acts = self.inner.act(round, n_current);
        let rest = format!("{:?} {:?} {:?}", acts.joins, acts.corrupt, acts.forges);
        self.eat(round, &acts.blocked, &rest);
        acts
    }
    fn label(&self) -> String {
        self.inner.label()
    }
}

const ATTACKER_N: usize = 512;
const ATTACKER_BOUND: f64 = 0.3;

/// The Byzantine arms' runner: `DosOverlay` n=512 `group_c = 1` with no
/// faults and no healing, blocks judged against 0.1, under `defense`.
fn defended(seed: u64, defense: DefenseConfig) -> FaultyRunner<DosOverlay, Defenses> {
    let overlay = DosOverlay::new(ATTACKER_N, attacker_params(), seed);
    FaultyRunner::paper_model(overlay).with_dos_bound(0.1).with_defenses(defense)
}

/// `group_c = 1` (32 groups of ~16, as in `adaptive_adversary.rs`): a whole
/// group neighbourhood fits the 0.3 budget, so the structural branches of
/// the group-aware strategies run instead of their random fallbacks.
fn attacker_params() -> DosParams {
    DosParams { group_c: 1.0, ..DosParams::default() }
}

/// Every blocking strategy, oblivious then adaptive, at lateness `t`.
fn blockers(t: u64) -> Vec<Box<dyn Attacker>> {
    let mut out: Vec<Box<dyn Attacker>> = Vec::new();
    for (i, s) in DosStrategy::ALL.into_iter().enumerate() {
        out.push(Box::new(DosAdversary::new(s, ATTACKER_BOUND, t, 40 + i as u64)));
    }
    for s in AdaptiveStrategy::all() {
        out.push(Box::new(AdaptiveHarness::new(s, ATTACKER_BOUND, t)));
    }
    out
}

/// A hand-rolled stream with explicit node edges (ring plus chords), ids
/// listed out of order and one member absent per round (back the next):
/// the adjacency, sorted-order and rejoin paths no overlay snapshot reaches.
fn edge_snapshot(round: u64) -> TopologySnapshot {
    const M: u64 = 96;
    let absent = (round * 5) % M;
    let nodes = (0..M).map(|i| (i * 37 + 11) % M).filter(|&v| v != absent).map(NodeId).collect();
    let edges = (0..M)
        .flat_map(|i| [(i, (i + 1) % M), (i, (i + 7) % M)])
        .filter(|&(a, b)| a != absent && b != absent)
        .map(|(a, b)| (NodeId(a), NodeId(b)))
        .collect();
    TopologySnapshot { round, nodes, edges, groups: Vec::new(), group_edges: Vec::new() }
}

/// The attacker side of the stack, emission by emission: every oblivious
/// and adaptive blocking strategy at lateness 0, one and two epochs over a
/// `DosOverlay`, the same strategies over a healed run whose membership
/// shrinks and regrows, over an edge-bearing synthetic stream, and one
/// `ByzHarness` stream per Byzantine family. The other goldens see an
/// attacker only through what the overlay did with its blocks, and only
/// `GroupTargeted@2t` and `Random+ChurnBlocker` at that; this one pins the
/// lateness gate, the budget, the clamp and every pick bit for bit.
#[test]
fn golden_attacker_digests() {
    let mut lines = Vec::new();
    let epoch = DosOverlay::new(ATTACKER_N, attacker_params(), 31).epoch_len();
    for t in [0, epoch, 2 * epoch] {
        for adv in blockers(t) {
            let mut tap = Tap::new(adv);
            let ov = DosOverlay::new(ATTACKER_N, attacker_params(), 31);
            FaultyRunner::paper_model(ov).run(&mut tap, 4 * epoch);
            lines.push(tap.line("overlay", &tap.label(), t));
        }
    }
    for t in [0, epoch] {
        for adv in blockers(t) {
            let mut tap = Tap::new(adv);
            let schedule = FaultSchedule::new(32, 0.1, 0.01, Some(epoch), 0.2);
            let ov = DosOverlay::new(ATTACKER_N, attacker_params(), 33);
            FaultyRunner::new(ov, schedule, HealingParams::default(), true)
                .with_dos_bound(ATTACKER_BOUND)
                .run(&mut tap, 4 * epoch);
            lines.push(tap.line("healed", &tap.label(), t));
        }
    }
    for t in [0, 3] {
        for adv in blockers(t) {
            let mut tap = Tap::new(adv);
            for round in 0..24 {
                let snap = edge_snapshot(round);
                let n = snap.nodes.len();
                tap.observe(snap.into());
                tap.block(round, n);
            }
            lines.push(tap.line("edges", &tap.label(), t));
        }
    }
    for family in ByzFamily::all() {
        let family = match family {
            // Chaos with a blocker inside, so the stream carries block sets.
            ByzFamily::Chaos(c) => {
                let strategy = AdaptiveStrategy::by_name("adaptive:high-degree").unwrap();
                ByzFamily::Chaos(c.with_blocker(Box::new(AdaptiveHarness::new(strategy, 0.2, 0))))
            }
            other => other,
        };
        let budget = ByzBudget { byz_fraction: 0.1, joins_per_round: 3, block_bound: 0.1 };
        let mut tap = Tap::byz(ByzHarness::new(family, budget, epoch));
        defended(34, DefenseConfig::all()).run(&mut tap, 4 * epoch);
        lines.push(tap.line("byz", &tap.label(), epoch));
    }
    check_golden(
        "attacker.digests",
        "adversary: FNV-1a over each attacker's emission stream. overlay = DosOverlay n=512 \
         group_c=1 seed=31 over 4 epochs; healed = FaultyRunner<DosOverlay> seed=33 (loss 0.1, \
         crash hazard 0.01, recovery after one epoch); edges = 24 rounds of a 96-node ring with \
         chords, one member absent per round; bound 0.3, oblivious seeds 40..43; byz = \
         ByzantineRunner seed=34, all defenses, identities 0.1, 3 joins/round, blocks 0.1",
        &lines,
    );
}

// ---------------------------------------------------------------------------
// The other runners' node-id state
// ---------------------------------------------------------------------------

/// The monitor's verdict counts, one `name=count` per invariant.
fn verdicts(mon: &reconfig_core::monitor::InvariantMonitor, invariants: &[Invariant]) -> String {
    let counts: Vec<String> =
        invariants.iter().map(|&inv| format!("{}={}", inv.name(), mon.count(inv))).collect();
    format!("total={} {}", mon.total(), counts.join(" "))
}

fn healing_stats_line(s: &HealingStats) -> String {
    format!(
        "desync={} retries={} resyncs={} exhausted={} evictions={} rejoins={} crashes={}",
        s.desync_events, s.retries, s.resyncs, s.exhausted, s.evictions, s.rejoins, s.crashes
    )
}

/// `ExpanderFaultRun`, healing on and off: per epoch the overlay's
/// `state_digest` (sorted members and their adjacency), the members and
/// desynced counts, the `HealingStats` and the monitor's verdicts.
fn expander_runner_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for healing in [true, false] {
        let arm = if healing { "healed" } else { "control" };
        let overlay = ExpanderOverlay::new(96, 8, SamplingParams::default(), 41);
        let schedule = FaultSchedule::new(42, 0.3, 0.01, Some(40), 0.2);
        let mut run = ExpanderFaultRun::new(overlay, schedule, HealingParams::default(), healing);
        for _ in 0..12 {
            run.run_epoch();
            lines.push(format!(
                "expander/{arm} {} {:016x} members={} desynced={} {} {}",
                run.overlay.epoch(),
                run.overlay.state_digest(),
                run.overlay.members().len(),
                run.desynced_len(),
                healing_stats_line(&run.stats),
                verdicts(
                    &run.monitor,
                    &[Invariant::Connectivity, Invariant::DegreeBound, Invariant::StaleBound]
                ),
            ));
        }
        let s = run.stats;
        assert!(s.crashes > 0 && s.desync_events > 0, "{arm}: the fault mix must bite");
        assert_eq!(s.rejoins > 0, healing, "{arm}: a crash outlives the heartbeat and rejoins");
    }
    lines
}

/// The catastrophe layer under a live catastrophe (one burst, one partition),
/// recovery enabled and control: per round the overlay's `state_digest`,
/// the mode and the pending arrivals; then the recovery counters.
fn recovery_runner_lines() -> Vec<String> {
    let mut lines = Vec::new();
    for enabled in [true, false] {
        let arm = if enabled { "enabled" } else { "control" };
        let seed = 0x4EC2;
        let overlay = DosOverlay::new(256, attacker_params(), seed);
        let t = overlay.epoch_len();
        let faults = FaultSchedule::new(seed, 0.05, 0.001, Some(t), 0.1);
        let runner = FaultyRunner::new(overlay, faults, healed_params(), true);
        let spec = CatastropheSpec::new(seed)
            .with_burst(Burst {
                at: t + 1,
                frac: 0.3,
                target: BurstTarget::Groups,
                storm_window: 2 * t,
            })
            .with_partition(TimedPartition { at: 4 * t, heal_at: 6 * t, side_frac: 0.1 });
        let mut r =
            runner.with_catastrophes(spec.schedule(), RecoveryParams::default(), enabled, seed);
        let mut adv = CatastropheCampaign::new(
            DosAdversary::new(DosStrategy::Random, 0.1, 2 * t, seed ^ 1),
            spec,
        );
        for _ in 0..9 * t {
            r.run(&mut adv, 1);
            lines.push(format!(
                "recovery/{arm} {} {:016x} mode={} pending={} members={} down={} desynced={}",
                r.overlay.round(),
                r.overlay.state_digest(),
                r.layer().mode().name(),
                r.layer().pending_arrivals(),
                r.overlay.len(),
                r.down_len(),
                r.desynced_len(),
            ));
        }
        let s = r.layer().stats();
        assert!(s.bursts_fired == 1 && s.partitions_healed == 1, "{arm}: both events fire");
        assert_eq!(s.reconciled > 0, enabled, "{arm}: the minority side missed a resample");
        lines.push(format!(
            "recovery/{arm} stats admitted={} rejected={} orphaned={} reconciled={} shed={} {}",
            s.admitted,
            s.rejected,
            s.orphaned,
            s.reconciled,
            s.shed_rounds,
            healing_stats_line(&r.stats()),
        ));
    }
    lines
}

/// The Byzantine layer with every defense, one run per Byzantine family
/// (and forgeries against no defense, so that forged desyncs land): per
/// round the overlay's `state_digest`, the `ByzStats` and the Byzantine and
/// quarantined counts.
fn byzantine_runner_lines() -> Vec<String> {
    let mut lines = Vec::new();
    let epoch = DosOverlay::new(ATTACKER_N, attacker_params(), 35).epoch_len();
    let arms = ByzFamily::all().into_iter().map(|f| (f, DefenseConfig::all()));
    // Without the quorum, forgeries land: the forged-desync silencing runs.
    let arms = arms.chain([(ByzFamily::by_name("byz:forge").unwrap(), DefenseConfig::none())]);
    for (family, defense) in arms {
        let budget = ByzBudget { byz_fraction: 0.1, joins_per_round: 3, block_bound: 0.1 };
        let mut adv = ByzHarness::new(family, budget, epoch);
        let label = format!("{}/{}", adv.label(), defense.label());
        let mut runner = defended(35, defense);
        for _ in 0..4 * epoch {
            let round = runner.overlay.round();
            runner.run(&mut adv, 1);
            let d = runner.layer();
            let s = d.stats;
            lines.push(format!(
                "byz/{label} {round} {:016x} byz={} quarantined={} joins={}/{} corrupt={} \
                 evict={} desync={} blocked={} quarantines={} reinstated={} probes={}/{}",
                runner.overlay.state_digest(),
                d.byzantine().len(),
                d.quarantined().len(),
                s.joins_accepted,
                s.joins_rejected,
                s.corruptions,
                s.forged_evictions,
                s.forged_desyncs,
                s.forgeries_blocked,
                s.quarantined,
                s.reinstated,
                s.eclipse_probes,
                s.eclipsed_probes,
            ));
        }
    }
    lines
}

/// The node-id state of the three runners no other golden reaches:
/// `healing_round.digests` covers `FaultyRunner` without a layer,
/// `recovery_determinism.rs` checks only a null catastrophe against
/// `dos_overlay.digests`, and `attacker.digests` pins what the Byzantine
/// harness emits, not what the defense layer makes of it.
#[test]
fn golden_runner_digests() {
    let mut lines = expander_runner_lines();
    lines.extend(recovery_runner_lines());
    lines.extend(byzantine_runner_lines());
    check_golden(
        "runners.digests",
        "core runners: expander = ExpanderFaultRun n=96 d=8 seed=41, loss 0.3 hazard 0.01 \
         recover=40 rounds cap 0.2 (schedule seed 42), 12 epochs, healing on/off; recovery = \
         RecoveryRunner<DosOverlay n=256 group_c=1 seed=0x4EC2> over a healed FaultyRunner \
         (loss 0.05 hazard 0.001 recover=t heartbeat=2), one Groups burst 0.3 at t+1 (storm 2t) \
         and a 0.25 partition over [4t, 6t), Random r=0.1 2t-late, 9 epochs, enabled/control; \
         byz = ByzantineRunner n=512 group_c=1 seed=35, all defenses for every family and none \
         for forge, identities 0.1, 3 joins/round, blocks 0.1, 4 epochs",
        &lines,
    );
}

// ---------------------------------------------------------------------------
// The live cluster
// ---------------------------------------------------------------------------

/// Thread-mode `run_cluster` over real loopback TCP, three campaigns: the
/// benchmark's four-node smoke campaign at seeds 11 and 23, the N1 churn
/// cell (eight nodes, one kill and one join) and a six-node demo. Pins per
/// round every `(node, digest)` pair and every delay observation, then the
/// oracle's `ReplaySummary`. `node_cluster.rs` only compares two runs of
/// the same code with each other; this file was written by the daemon
/// whose peers had one reader thread per connection, before the barrier
/// read its sockets itself.
#[test]
fn golden_cluster_trace_digests() {
    let runs = [
        ("smoke4/11", 4, 11, CampaignSpec::smoke(4, 60, 11)),
        ("smoke4/23", 4, 23, CampaignSpec::smoke(4, 60, 23)),
        ("smoke8/202", 8, 202, CampaignSpec::smoke(8, 48, 202)),
        ("demo6/7", 6, 7, CampaignSpec::demo(24, 7)),
    ];
    let mut lines = Vec::new();
    for (tag, n0, seed, spec) in runs {
        let report = run_cluster(&ClusterConfig::threads(n0, seed, spec))
            .unwrap_or_else(|e| panic!("{tag}: {e}"));
        for r in &report.trace.rounds {
            let digests: Vec<String> =
                r.digests.iter().map(|(node, digest)| format!("{node}:{digest:016x}")).collect();
            let delays: Vec<String> = r
                .delays
                .iter()
                .map(|d| format!("{}>{}@{}+{}", d.from.raw(), d.to.raw(), d.sent_round, d.extra))
                .collect();
            lines.push(format!(
                "{tag} {} {} delays=[{}]",
                r.round,
                digests.join(" "),
                delays.join(" ")
            ));
        }
        let s = report.replay;
        lines.push(format!(
            "{tag} replay rounds={} digests_checked={} delays_applied={} kills={} joins={}",
            s.rounds, s.digests_checked, s.delays_applied, s.kills, s.joins
        ));
    }
    check_golden(
        "cluster_trace.digests",
        "node: thread-mode run_cluster (ClusterConfig::threads), campaigns smoke(4, 60, s) at \
         n0=4 seed=s for s in {11, 23}, smoke(8, 48, 202) at n0=8 seed=202, demo(24, 7) at n0=6 \
         seed=7; per round: node:digest pairs and from>to@sent_round+extra delay observations; \
         then the ReplaySummary",
        &lines,
    );
}

// ---------------------------------------------------------------------------
// Raw-engine goldens
// ---------------------------------------------------------------------------

/// One protocol with everything the engine treats specially: RNG-addressed
/// sends (some to departed ids), an activity budget that ends in
/// quiescence, and state loss on crash-recovery.
struct Chatter {
    n: u64,
    acc: u64,
    budget: u64,
}

impl Protocol for Chatter {
    type Msg = u64;

    fn digest(&self, d: &mut Digest) {
        d.write_u64(self.acc).write_u64(self.budget);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) {
        if self.budget == 0 {
            return;
        }
        self.budget -= 1;
        for env in ctx.take_inbox() {
            self.acc = self.acc.wrapping_mul(0x100_0000_01b3) ^ env.msg;
        }
        for _ in 0..2 {
            let to = NodeId(ctx.rng().random_range(0..self.n));
            let msg = self.acc ^ ctx.rng().random::<u64>();
            ctx.send(to, msg);
        }
    }

    fn on_crash_recover(&mut self) {
        self.acc = 0;
        self.budget = 6;
    }

    fn quiescent(&self) -> bool {
        self.budget == 0
    }
}

simnet::checkpoint_schema! {
    Chatter {
        fields { n, acc, budget }
    }
}

fn chatter(n: u64, acc: u64) -> Chatter {
    Chatter { n, acc, budget: 20 }
}

/// Populate `net` with ids `0..n`, run `rounds` rounds — `before_round`
/// does the between-round churn and names the round's block set — and
/// record the digest stream, closed by every counter the engine keeps.
fn engine_case(
    mut net: XlNetwork<Chatter>,
    tag: &str,
    n: u64,
    rounds: u64,
    mut before_round: impl FnMut(&mut XlNetwork<Chatter>, u64) -> BlockSet,
    lines: &mut Vec<String>,
) {
    for i in 0..n {
        net.add_node(NodeId(i), chatter(n, i));
    }
    for r in 0..rounds {
        let blocked = before_round(&mut net, r);
        net.step_blocked(&blocked);
        lines.push(format!("{tag} {r} {:016x}", net.round_digest()));
    }
    let (t, s, (conduct_dropped, conduct_forged)) =
        (net.trace(), net.stats(), net.conduct_counts());
    lines.push(format!(
        "{tag} end delivered={} dropped_blocked={} dropped_missing={} dropped_fault={} \
         dropped_link={} duplicated={} delayed={} bits={} msgs={} max_node_bits={} \
         max_node_msgs={} conduct_dropped={conduct_dropped} conduct_forged={conduct_forged}",
        t.delivered,
        t.dropped_blocked,
        t.dropped_missing,
        t.dropped_fault,
        t.dropped_link,
        t.duplicated,
        t.delayed,
        s.total_bits(),
        s.total_msgs(),
        s.max_node_bits(),
        s.max_node_msgs(),
    ));
}

/// The churn of the gossip cases: removals, joins that take the freed
/// slots most-recently-freed first, injections, an external wake-up of a
/// quiescent node, and a block set that moves every round.
fn churn_script(net: &mut XlNetwork<Chatter>, r: u64) -> BlockSet {
    const N: u64 = 24;
    match r {
        4 => {
            for id in [3, 11, 5] {
                net.remove_node(NodeId(id));
            }
        }
        6 => {
            for id in [100, 101] {
                net.add_node(NodeId(id), chatter(N, id));
            }
        }
        9 => {
            net.inject(NodeId(999), NodeId(0), 0xFEED);
            net.inject(NodeId(999), NodeId(7), 0xBEEF);
        }
        23 => net.node_mut(NodeId(2)).expect("member").budget += 3,
        _ => {}
    }
    (0..N).filter(|i| (i + r) % 7 == 0).map(NodeId).collect()
}

/// Link drop/dup/delay, crash-stop, two crash-recoveries and a partition
/// window, all inside the 30 rounds of the gossip case.
fn stress_faults(seed: u64) -> FaultModel {
    FaultModel::new(seed)
        .with_link(LinkFaults { drop_prob: 0.12, dup_prob: 0.07, delay_prob: 0.15, max_delay: 3 })
        .with_node_fault(NodeId(4), NodeFault::CrashRecover { at: 5, down_for: 4 })
        .with_node_fault(NodeId(9), NodeFault::CrashStop { at: 12 })
        .with_node_fault(NodeId(17), NodeFault::CrashRecover { at: 2, down_for: 2 })
        .with_partition(Partition { side: (0..8).map(NodeId).collect(), from: 10, until: 14 })
}

/// Every raw-engine scenario.
fn engine_lines() -> Vec<String> {
    let engine = XlNetwork::<Chatter>::new;
    let mut lines = Vec::new();

    gossip_and_faults(engine, "", &mut lines);

    // Scheduled delays. `shift`: of two injections only the named one is
    // held (two rounds), and every protocol send of round 1 is held one
    // round. `order`: three messages under one key take the two scheduled
    // extras in send order, the third is on time. `blocked`: the receiver
    // is blocked in the round the held message matures.
    let inject = |msgs: &'static [(u64, u64)], block: Option<(u64, u64)>| {
        move |net: &mut XlNetwork<Chatter>, r: u64| {
            if r == 0 {
                for &(to, msg) in msgs {
                    net.inject(NodeId(9), NodeId(to), msg);
                }
            }
            block.filter(|&(at, _)| at == r).map(|(_, id)| NodeId(id)).into_iter().collect()
        }
    };
    let mut shift = FaultModel::null().with_scheduled_delay(NodeId(9), NodeId(1), 0, 2);
    for (from, to) in (0..4).flat_map(|a| (0..4).map(move |b| (a, b))) {
        shift = shift.with_scheduled_delay(NodeId(from), NodeId(to), 1, 1);
    }
    let order = FaultModel::null()
        .with_scheduled_delay(NodeId(9), NodeId(1), 0, 1)
        .with_scheduled_delay(NodeId(9), NodeId(1), 0, 3);
    let held = FaultModel::null().with_scheduled_delay(NodeId(9), NodeId(1), 0, 1);
    for (tag, faults, msgs, block) in [
        ("sched-shift", shift, &[(1, 7), (2, 8)][..], None),
        ("sched-order", order, &[(1, 100), (1, 200), (1, 300)][..], None),
        ("sched-blocked", held, &[(1, 7)][..], Some((1, 1))),
    ] {
        let mut net = engine(0x5C4ED);
        net.set_fault_model(faults);
        engine_case(net, tag, 4, 6, inject(msgs, block), &mut lines);
    }
    conduct_case(engine, "", &mut lines);
    lines
}

/// The `gossip` and `faults` scenarios, the head of `engine.digests`. Tags
/// get `prefix` in front.
fn gossip_and_faults(
    engine: impl Fn(u64) -> XlNetwork<Chatter>,
    prefix: &str,
    lines: &mut Vec<String>,
) {
    engine_case(engine(0xD1CE), &format!("{prefix}gossip"), 24, 30, churn_script, lines);
    let mut net = engine(0xFADE);
    net.set_fault_model(stress_faults(0xFA17));
    engine_case(net, &format!("{prefix}faults"), 24, 30, churn_script, lines);
}

/// The `conduct` scenario, the tail of `engine.digests`.
fn conduct_case(engine: impl Fn(u64) -> XlNetwork<Chatter>, prefix: &str, lines: &mut Vec<String>) {
    let mut net = engine(0xB12A);
    net.set_conduct(Some(Arc::new(
        ByzantineConduct::new(9, [2, 7, 14].map(NodeId))
            .dropping(PPM / 3)
            .forging(PPM / 4, |m| m ^ 0xDEAD_BEEF),
    )));
    engine_case(net, &format!("{prefix}conduct"), 24, 30, churn_script, lines);
}

/// The eight rounds after `network_v1.ckpt.json`.
fn resume_lines() -> Vec<String> {
    let snap = read_value(&golden_path("network_v1.ckpt.json")).expect("committed fixture");
    let mut net = XlNetwork::<Chatter>::from_state(&snap).expect("v1 reader");
    (0..8)
        .map(|_| {
            let round = net.round();
            net.step();
            format!("resume {round} {:016x}", net.round_digest())
        })
        .collect()
}

/// The round model itself, in absolute values recorded from the engine
/// this one replaced (the boxed-slot `Network` of `simnet`, deleted in PR 17;
/// CHANGES.md says how the two files were generated at its parent commit).
#[test]
fn golden_engine_digests() {
    let mut reference = engine_lines();
    reference.extend(resume_lines());
    check_golden(
        "engine.digests",
        "engine (recorded from crates/simnet/src/engine.rs at 867e6f0, the commit before it \
         was deleted): round_digest per round of raw-engine runs, each closed by its trace \
         counters, CommStats totals and conduct counts. gossip = 24 Chatter nodes seed=0xD1CE, \
         30 rounds of churn (slot reuse), injections, a wake-up and moving block sets; faults = \
         the same at seed=0xFADE under link drop/dup/delay, crash-stop, crash-recover and a \
         partition window (fault seed 0xFA17); sched-* = scheduled per-message delays, 4 nodes \
         seed=0x5C4ED; conduct = gossip at seed=0xB12A with ByzantineConduct(9, {2,7,14}) \
         dropping 1/3 forging 1/4; resume = the 8 rounds after network_v1.ckpt.json",
        &reference,
    );
}

/// The engine above one shard, where arenas are routed in parallel with a
/// private fate stream per shard: the unscheduled scenarios of
/// `engine.digests` at two and seven shards, plus the `gossip` population
/// at 600 nodes and four shards, past `PAR_THRESHOLD`. Written at the
/// commit before one shard's delivery became the route pass's serial case,
/// so it pins that everything above one shard kept its behaviour.
#[test]
fn golden_engine_fast_digests() {
    let mut lines = Vec::new();
    for shards in [2, 7] {
        let engine = |seed| XlNetwork::<Chatter>::fast(seed, shards);
        let prefix = format!("fast:{shards} ");
        gossip_and_faults(engine, &prefix, &mut lines);
        conduct_case(engine, &prefix, &mut lines);
    }
    let mut net = XlNetwork::<Chatter>::fast(0x600D, 4);
    net.set_fault_model(stress_faults(0x5EED));
    engine_case(
        net,
        "fast:4 faults-600",
        600,
        12,
        |_, r| (0..600).filter(|i| (i + r) % 29 == 0).map(NodeId).collect(),
        &mut lines,
    );
    check_golden(
        "engine_fast.digests",
        "engine above one shard (recorded at the commit before one-shard delivery became the \
         serial case of the route pass): the gossip, faults and conduct scenarios of \
         engine.digests on XlNetwork::fast at 2 and 7 shards, then 600 Chatter nodes at 4 \
         shards (routed in parallel) under stress faults seed 0x5EED with a moving 1/29 block \
         set, 12 rounds; round_digest per round and each run's closing counters",
        &lines,
    );
}

/// `network_v1.ckpt.json` is an input, not an output: a file the deleted
/// engine's `checkpoint_to` wrote mid-run, with link-fault RNG mid-stream,
/// held messages, a vacated slot and the `par_mode` field only that engine
/// knew. `UPDATE_GOLDEN` never rewrites it. The continuation it must
/// resume into is pinned by `golden_engine_digests`; this checks the file
/// still has the shape that makes it worth keeping, and that a damaged
/// copy is refused with a typed error instead of resuming somewhere else.
#[test]
fn golden_network_v1_checkpoint_is_hard_state_and_tamper_evident() {
    let snap = read_value(&golden_path("network_v1.ckpt.json")).expect("committed fixture");
    assert_eq!(get_str(&snap, "par_mode").ok(), Some("auto"));
    assert!(!get_array(&snap, "delayed").expect("delayed").is_empty(), "held messages");
    assert!(get_array(&snap, "slots").expect("slots").contains(&serde_json::Value::Null), "a hole");
    assert!(!get_array(&snap, "free").expect("free").is_empty());

    let tamper = |key: &str, value: serde_json::Value| {
        let mut bad = snap.clone();
        let serde_json::Value::Object(top) = &mut bad else { panic!("checkpoint is an object") };
        top.insert(key.into(), value);
        XlNetwork::<Chatter>::from_state(&bad).err()
    };
    assert!(matches!(tamper("round", 99u64.into()), Some(CkptError::DigestMismatch { .. })));
    assert!(matches!(tamper("par_mode", "turbo".into()), Some(CkptError::Corrupt(_))));
    assert!(matches!(tamper("exec_mode", "fast".into()), Some(CkptError::ModeMismatch { .. })));
    assert!(matches!(tamper("exec_mode", 7u64.into()), Some(CkptError::Corrupt(_))));
    assert!(matches!(tamper("slots", 7u64.into()), Some(CkptError::Corrupt(_))));
}

// ---------------------------------------------------------------------------
// The pool-size differential of fast mode
// ---------------------------------------------------------------------------

/// A [`Chatter`] population (active throughout: every run here is shorter
/// than the budget) exercises everything the round digest covers: per-node
/// RNG draws, protocol state evolution, payload-dependent traffic.
fn gossip_digests(mut net: XlNetwork<Chatter>, n: u64, rounds: u64) -> Vec<simnet::RoundDigest> {
    net.enable_digests();
    for i in 0..n {
        net.add_node(NodeId(i), chatter(n, i));
    }
    net.run(rounds);
    net.trace().digests().to_vec()
}

#[test]
fn one_thread_and_many_threads_agree() {
    // `xl:fast:4` above PAR_THRESHOLD steps and routes its shards through
    // the pool: a pool of one thread runs them one after the other, a pool
    // of four concurrently, and the digests must not see the difference.
    let n = 600;
    assert!((n as usize) > PAR_THRESHOLD);
    let run_with = |threads: usize| {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| gossip_digests(XlNetwork::fast(5152, 4), n, 6))
    };
    let one = run_with(1);
    assert!(!one.is_empty());
    assert_eq!(run_with(4), one);
}

#[test]
fn digest_streams_differ_across_seeds() {
    // Sanity: the digest is not degenerate — different seeds must produce
    // different streams once randomness is consumed.
    let a = gossip_digests(XlNetwork::new(1), 64, 8);
    let b = gossip_digests(XlNetwork::new(2), 64, 8);
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
fn sampling_digest_stream_is_replay_identical_and_matches_its_fingerprint() {
    let nodes: Vec<NodeId> = (0..600).map(NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let graph = HGraph::random(&nodes, 8, &mut rng);
    let params = SamplingParams::default();
    let (_, _, a) = run_alg1_digested_observed(&graph, &params, 9, &Telemetry::disabled());
    let (_, _, b) = run_alg1_digested_observed(&graph, &params, 9, &Telemetry::disabled());
    assert_eq!(a, b);
    assert!(!a.is_empty());
    // Fast mode at one shard is parity's code path, so running it beside
    // parity would compare the engine with itself. The stream is held
    // against the fingerprint parity produced instead.
    let mut d = Digest::new();
    for r in &a {
        d.write_u64(r.round).write_u64(r.value);
    }
    assert_eq!(
        (a.len(), d.finish()),
        (11, 0xaecb_0b27_5b31_cb84),
        "the Algorithm 1 digest stream moved"
    );
}

// ---------------------------------------------------------------------------
// Node-id state: the std maps and sets that remain (DESIGN.md §6)
// ---------------------------------------------------------------------------

/// Does `line` open a module (`mod`, `pub mod`, `pub(crate) mod`)?
fn opens_mod(line: &str) -> bool {
    let rest = match line.strip_prefix("pub") {
        None => line,
        Some(vis) => {
            let vis = match vis.strip_prefix('(') {
                None => vis,
                Some(inner) => match inner.split_once(')') {
                    Some((scope, after))
                        if !scope.is_empty() && scope.bytes().all(|b| b.is_ascii_lowercase()) =>
                    {
                        after
                    }
                    _ => return false,
                },
            };
            match vis.strip_prefix(' ') {
                Some(rest) => rest,
                None => return false,
            }
        }
    };
    rest.starts_with("mod ")
}

/// The lines of non-test code under `crates/*/src` that key a std map or
/// set by node id (`HashMap|BTreeMap|HashSet|BTreeSet` then
/// `<NodeId` or `<simnet::NodeId`), counted per file. Non-test code is
/// what `scripts/loc.sh` counts: every `*.rs` file except `*_diff.rs`,
/// `props.rs` and `tests.rs`, up to the first column-0 `#[cfg(test)]`
/// whose next line opens a `mod`, without blank and `//` lines.
fn node_id_std_collections(root: &std::path::Path) -> std::collections::BTreeMap<String, usize> {
    fn walk(dir: &std::path::Path, out: &mut Vec<PathBuf>) {
        for entry in std::fs::read_dir(dir).expect("readable source dir") {
            let path = entry.expect("dir entry").path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root.join("crates")).expect("crates dir") {
        let src = krate.expect("dir entry").path().join("src");
        if src.is_dir() {
            walk(&src, &mut files);
        }
    }
    let mut counts = std::collections::BTreeMap::new();
    for path in files {
        let name = path.file_name().and_then(|n| n.to_str()).expect("utf-8 file name");
        if name.ends_with("_diff.rs") || name == "props.rs" || name == "tests.rs" {
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("readable source");
        let mut prev = "";
        let mut hits = 0;
        for line in text.lines() {
            if prev == "#[cfg(test)]" && opens_mod(line) {
                break;
            }
            prev = line;
            let code = line.trim_start();
            if code.is_empty() || code.starts_with("//") {
                continue;
            }
            let keyed = ["HashMap<", "BTreeMap<", "HashSet<", "BTreeSet<"].iter().any(|ty| {
                code.match_indices(ty).any(|(at, _)| {
                    let key = &code[at + ty.len()..];
                    key.starts_with("NodeId") || key.starts_with("simnet::NodeId")
                })
            });
            hits += usize::from(keyed);
        }
        if hits > 0 {
            let rel = path.strip_prefix(root).expect("under the root");
            counts.insert(rel.to_string_lossy().replace('\\', "/"), hits);
        }
    }
    counts
}

/// Node-id state has one representation (sorted runs or dense vectors);
/// a std map or set keyed by node id stays only where DESIGN.md's
/// survivors table lists it with its reason. A new one fails here until
/// it is listed there.
#[test]
fn node_id_std_collections_are_the_listed_survivors() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let root = root.canonicalize().expect("repository root");
    let design = std::fs::read_to_string(root.join("DESIGN.md")).expect("DESIGN.md");
    let section = design
        .split_once("### Node-id state")
        .map(|(_, rest)| rest.split("\n#").next().unwrap_or(rest))
        .expect("DESIGN.md has the node-id state section");
    let listed: std::collections::BTreeMap<String, usize> = section
        .lines()
        .filter_map(|row| row.strip_prefix("| `crates/"))
        .map(|row| {
            let cells: Vec<&str> = row.split('|').map(str::trim).collect();
            let file = format!("crates/{}", cells[0].trim_end_matches('`'));
            (file, cells[1].parse().expect("a line count in the second column"))
        })
        .collect();
    assert!(!listed.is_empty(), "the survivors table lists no file");
    assert_eq!(
        node_id_std_collections(&root),
        listed,
        "NodeId-keyed std collections in non-test code (left) vs DESIGN.md's survivors (right)"
    );
}
