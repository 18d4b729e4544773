//! Cross-crate integration: DoS resistance (Sections 5 and 6) against the
//! full adversary suite, including the lateness crossover.

use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use reconfig_core::churndos::{ChurnDosOverlay, ChurnDosParams};
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay};

#[test]
fn theorem6_all_strategies_fail_when_sufficiently_late() {
    for (i, strategy) in [
        DosStrategy::Random,
        DosStrategy::GroupTargeted,
        DosStrategy::IsolateNode,
        DosStrategy::Bisection,
    ]
    .into_iter()
    .enumerate()
    {
        let ov = DosOverlay::new(2048, DosParams::default(), 100 + i as u64);
        let (lateness, rounds) = (2 * ov.epoch_len(), 3 * ov.epoch_len());
        let mut adv = DosAdversary::new(strategy, 0.3, lateness, 200 + i as u64);
        let run = FaultyRunner::paper_model(ov).run(&mut adv, rounds);
        assert_eq!(
            run.connected_rounds, run.rounds,
            "{strategy:?} should not disconnect a 2t-late defense"
        );
        assert_eq!(run.starved_rounds, 0, "{strategy:?}");
    }
}

#[test]
fn lateness_crossover_exists() {
    // A2's shape: 0-late wins, 2t-late loses. Drive both from identical
    // overlays and compare connectivity rates.
    let rate = |lateness_epochs: u64, seed: u64| {
        let ov = DosOverlay::new(2048, DosParams::default(), seed);
        let (lateness, rounds) = (lateness_epochs * ov.epoch_len(), 3 * ov.epoch_len());
        let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.3, lateness, seed + 1);
        let run = FaultyRunner::paper_model(ov).run(&mut adv, rounds);
        run.connectivity_rate()
    };
    let current = rate(0, 11);
    let late = rate(2, 11);
    assert!(current < 1.0, "0-late must breach (got rate {current})");
    assert_eq!(late, 1.0, "2t-late must be fully defended");
}

#[test]
fn lemma17_blocking_shares_stay_below_half_per_group() {
    // Block a random (1/2 - eps) fraction; no group should lose half or
    // more of its members.
    let ov = DosOverlay::new(4096, DosParams::default(), 12);
    let mut adv = DosAdversary::new(DosStrategy::Random, 0.5 - 0.2, 0, 13);
    adv.observe(ov.grouped().snapshot(0));
    let blocked = adv.block(0, 4096);
    let unblocked = ov.grouped().unblocked_per_group(&blocked);
    for (x, &u) in unblocked.iter().enumerate() {
        let size = ov.grouped().group(x as u64).len();
        assert!(2 * u > size, "group {x}: only {u} of {size} unblocked — Lemma 17 violated");
    }
}

#[test]
fn theorem7_combined_attack_is_survived() {
    let ov = ChurnDosOverlay::new(2048, ChurnDosParams::default(), 14);
    let (lateness, rounds) = (2 * ov.epoch_len(), 3 * ov.epoch_len());
    let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.25, lateness, 15);
    let churn = ChurnSchedule::new(ChurnStrategy::YoungestFirst, 1.3, 0.5, 1_000_000);
    let rng = simnet::rng::stream(14, 5, 5);
    let mut runner = FaultyRunner::paper_model(ov).with_churn(churn, rng);
    let run = runner.run(&mut adv, rounds);
    assert_eq!(run.connected_rounds, run.rounds);
    assert_eq!(run.starved_rounds, 0);
    assert!(runner.overlay.groups().lemma18_holds());
}

#[test]
fn epsilon_sweep_defense_weakens_gracefully() {
    // Larger blocked fraction (smaller eps) keeps the Theorem 6 guarantee
    // as long as the fraction stays below 1/2.
    for eps_block in [0.1f64, 0.25, 0.4] {
        let ov = DosOverlay::new(2048, DosParams::default(), 16);
        let (lateness, rounds) = (2 * ov.epoch_len(), 2 * ov.epoch_len());
        let mut adv = DosAdversary::new(DosStrategy::Random, eps_block, lateness, 17);
        let run = FaultyRunner::paper_model(ov).run(&mut adv, rounds);
        assert_eq!(
            run.connected_rounds, run.rounds,
            "blocking fraction {eps_block} should be survivable"
        );
    }
}
