//! Red-team integration tests: adaptive adversaries against the DoS
//! overlay, end-to-end through recording, shrinking and repro replay.
//!
//! The paper's guarantee is conditional on lateness: a `2t`-late adversary
//! of any strategy cannot disconnect the overlay (Theorem 6), while the
//! impossibility argument says a 0-late adversary can. These tests pin the
//! *strategy* axis of that boundary: at equal budget and equal (zero)
//! lateness, the adaptive min-cut attacker finds a disconnecting cut where
//! an oblivious random blocker does not — adaptivity strictly increases
//! attack power, which is exactly why the reconfiguration defense matters.

use overlay_adversary::adaptive::{AdaptiveHarness, AdaptiveStrategy, MinCutAttack};
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use overlay_adversary::shrink::{shrink_trace, AdversaryTrace, ReplayAdversary, Repro};
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay};
use std::path::PathBuf;

fn tmp(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir.join(name)
}

const N: usize = 512;
const BOUND: f64 = 0.3;

/// Smaller groups than the defaults (`c = 1` gives dimension 5 — 32
/// groups of ~16) so that silencing one corner's neighbor groups (~80
/// members) fits the 0.3 budget of 153. With the default `c = 4` the
/// overlay has 8 groups of ~64 and the cheapest separator needs ~192 of
/// 153 allowed: no strategy can disconnect, and the survival boundary
/// this file pins would be invisible.
fn params() -> DosParams {
    DosParams { group_c: 1.0, ..DosParams::default() }
}

#[test]
fn adaptive_min_cut_beats_oblivious_random_at_equal_budget() {
    // Same budget, same (zero) lateness, same overlay seed. The oblivious
    // random blocker never disconnects; the adaptive min-cut attacker does.
    let ov = || FaultyRunner::paper_model(DosOverlay::new(N, params(), 21));
    let rounds = 2 * ov().overlay.epoch_len();
    let mut random = DosAdversary::new(DosStrategy::Random, BOUND, 0, 3);
    let run = ov().run(&mut random, rounds);
    assert_eq!(
        run.connected_rounds, run.rounds,
        "random blocking at bound {BOUND} should not disconnect"
    );

    let mut mincut = AdaptiveHarness::new(MinCutAttack::default(), BOUND, 0);
    let run = ov().run(&mut mincut, rounds);
    assert!(
        run.connected_rounds < run.rounds,
        "adaptive min-cut at the same budget must find a disconnecting cut"
    );
}

#[test]
fn paper_lateness_defeats_every_adaptive_strategy() {
    // Theorem 6's regime: at 2t lateness even the adaptive strategies are
    // working from pre-reconfiguration information and must fail.
    for strategy in AdaptiveStrategy::all() {
        let ov = DosOverlay::new(N, params(), 22);
        let lateness = 2 * ov.epoch_len();
        let rounds = 4 * ov.epoch_len();
        let mut adv = AdaptiveHarness::new(strategy, BOUND, lateness);
        let run = FaultyRunner::paper_model(ov).run(&mut adv, rounds);
        assert_eq!(
            run.connected_rounds,
            run.rounds,
            "{} disconnected a 2t-late run",
            adv.strategy_name()
        );
    }
}

/// Replay `trace` against a fresh overlay; true if any round disconnects.
fn trace_disconnects(trace: &AdversaryTrace, seed: u64) -> bool {
    let mut replay = ReplayAdversary::new(trace.clone());
    let run = FaultyRunner::paper_model(DosOverlay::new(N, params(), seed))
        .run(&mut replay, trace.len() as u64);
    run.connected_rounds < run.rounds
}

#[test]
fn shrinker_reduces_a_live_violation_to_a_smaller_replayable_repro() {
    // Record a violating trace from the adaptive min-cut attacker.
    let seed = 23;
    let ov = DosOverlay::new(N, params(), seed);
    let rounds = 2 * ov.epoch_len();
    let mut adv = AdaptiveHarness::new(MinCutAttack::default(), BOUND, 0).recording();
    let run = FaultyRunner::paper_model(ov).run(&mut adv, rounds);
    assert!(run.connected_rounds < run.rounds, "seeding the violation failed");
    let original = AdversaryTrace::from_emissions(adv.trace());
    assert!(trace_disconnects(&original, seed), "recorded trace must replay the violation");

    let (shrunk, report) = shrink_trace(&original, |t| trace_disconnects(t, seed), 400);
    assert!(trace_disconnects(&shrunk, seed), "shrunk trace must still violate");
    assert!(
        shrunk.strictly_smaller_than(&original),
        "shrinker must make progress: {:?} -> {:?}",
        report.original,
        report.shrunk
    );

    // The repro file round-trips and still reproduces.
    let repro = Repro {
        family: "dos".to_string(),
        strategy: "adaptive:min-cut".to_string(),
        seed,
        n: N,
        bound: BOUND,
        lateness: 0,
        trace: shrunk,
    };
    let path = tmp("mincut.repro.json");
    repro.write(&path).expect("write repro");
    let back = Repro::read(&path).expect("read repro");
    assert_eq!(back.seed, seed);
    assert!(trace_disconnects(&back.trace, back.seed), "repro file must reproduce");
}
