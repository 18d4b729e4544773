//! Telemetry determinism guard: the four golden runs of `determinism.rs`,
//! replayed with telemetry attached, must produce digest streams
//! byte-identical to the committed golden files.
//!
//! This is the CI-enforced form of the observability contract: a recorder
//! never draws from protocol RNG streams, never feeds a digest, and never
//! enters a checkpoint, so attaching one — even with wall-clock timing on —
//! cannot shift a single digest. If one of these tests fails while its twin
//! in `determinism.rs` passes, telemetry instrumentation has leaked into
//! protocol state; do NOT refresh the goldens, fix the leak.
//!
//! The goldens themselves are owned by `determinism.rs` (refresh with
//! `UPDATE_GOLDEN=1` there); this file only ever compares.

use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use overlay_graphs::HGraph;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_core::churndos::{ChurnDosOverlay, ChurnDosParams};
use reconfig_core::config::SamplingParams;
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::HealableOverlay;
use reconfig_core::reconfig::ExpanderOverlay;
use reconfig_core::sampling::run_alg1_digested_observed;
use simnet::NodeId;
use std::path::PathBuf;
use telemetry::{Config, Telemetry};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name)
}

/// Compare against the committed golden file — never rewrites. The header
/// line is whatever `determinism.rs` wrote; only the digest lines matter
/// here, so the comparison skips the leading `# ` comment.
fn assert_matches_golden(name: &str, lines: &[String]) {
    let path = golden_path(name);
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {} ({e}); generate it with \
             UPDATE_GOLDEN=1 cargo test -q -p integration-tests --test determinism",
            path.display()
        )
    });
    let expected_digests: Vec<&str> = expected.lines().filter(|l| !l.starts_with('#')).collect();
    let actual: Vec<&str> = lines.iter().map(String::as_str).collect();
    assert_eq!(
        expected_digests,
        actual,
        "digest stream diverged from {} with telemetry attached: \
         instrumentation has perturbed protocol state (do not refresh the \
         golden; find the RNG/digest/checkpoint leak)",
        path.display()
    );
}

/// A recorder with everything on — events, metrics, and wall-clock timing.
/// Timing is the adversarial case: it is the only nondeterministic input
/// telemetry touches, and it must stay confined to the profiler.
fn full_recorder() -> Telemetry {
    Telemetry::new(Config { enabled: true, timing: true, ..Default::default() })
}

#[test]
fn sampling_alg1_digests_unchanged_under_telemetry() {
    let nodes: Vec<NodeId> = (0..32).map(NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(0xA11CE);
    let graph = HGraph::random(&nodes, 8, &mut rng);
    let params = SamplingParams::default();
    let tel = full_recorder();
    let (_, _, digests) = run_alg1_digested_observed(&graph, &params, 42, &tel);
    let lines: Vec<String> =
        digests.iter().map(|d| format!("{} {:016x}", d.round, d.value)).collect();
    assert_matches_golden("sampling_alg1.digests", &lines);
    // The recorder really observed the run: engine round metrics exist.
    let snap = tel.snapshot();
    assert!(snap.counter("net.rounds") > 0, "recorder saw no rounds");
    assert!(snap.counter("net.delivered") > 0, "recorder saw no messages");
}

#[test]
fn reconfig_expander_digests_unchanged_under_telemetry() {
    let mut ov = ExpanderOverlay::new(24, 8, SamplingParams::default(), 7);
    let tel = full_recorder();
    ov.set_telemetry(tel.clone());
    let mut sched = ChurnSchedule::new(ChurnStrategy::Random, 2.0, 0.5, 10_000);
    let mut rng = simnet::rng::stream(7, 0, 1);
    let mut lines = vec![format!("{} {:016x}", 0, ov.state_digest())];
    for epoch in 1..=3u64 {
        let ev = sched.next(ov.members(), &mut rng);
        ov.apply_churn(&ev);
        ov.reconfigure();
        lines.push(format!("{} {:016x}", epoch, ov.state_digest()));
    }
    assert_matches_golden("reconfig_expander.digests", &lines);
    assert_eq!(tel.snapshot().counter("overlay.epochs"), 3);
    let (events, _) = tel.events();
    assert_eq!(events.len(), 3, "one EpochFinished per epoch");
}

#[test]
fn dos_overlay_digests_unchanged_under_telemetry() {
    let mut ov = DosOverlay::new(256, DosParams::default(), 9);
    let tel = full_recorder();
    ov.set_telemetry(tel.clone());
    let lateness = 2 * ov.epoch_len();
    let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.3, lateness, 11);
    let mut lines = Vec::new();
    for _ in 0..2 * ov.epoch_len() {
        adv.observe(ov.grouped().snapshot(ov.round()));
        let blocked = adv.block(ov.round(), ov.grouped().len());
        ov.step(&blocked);
        lines.push(format!("{} {:016x}", ov.round(), ov.state_digest()));
    }
    assert_matches_golden("dos_overlay.digests", &lines);
    assert_eq!(tel.snapshot().counter("overlay.rounds"), 2 * ov.epoch_len());
}

#[test]
fn churndos_overlay_digests_unchanged_under_telemetry() {
    let mut ov = ChurnDosOverlay::new(400, ChurnDosParams::default(), 13);
    let tel = full_recorder();
    ov.set_telemetry(tel.clone());
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
    assert_matches_golden("churndos_overlay.digests", &lines);
    assert_eq!(tel.snapshot().counter("overlay.rounds"), 2 * ov.epoch_len());
}

#[test]
fn metric_content_is_deterministic_with_timing_off() {
    // Beyond digest identity: with timing off, the full captured telemetry
    // of two identical runs is byte-identical (events, counters, profile).
    let capture = || {
        let mut ov = DosOverlay::new(128, DosParams::default(), 21);
        let tel = Telemetry::new(Config::default()); // timing off
        ov.set_telemetry(tel.clone());
        let mut adv = DosAdversary::new(DosStrategy::Random, 0.3, 2 * ov.epoch_len(), 22);
        for _ in 0..ov.epoch_len() {
            adv.observe(ov.grouped().snapshot(ov.round()));
            let blocked = adv.block(ov.round(), ov.grouped().len());
            ov.step(&blocked);
        }
        tel.capture(&[("run", "twin")]).to_jsonl()
    };
    assert_eq!(capture(), capture());
}
