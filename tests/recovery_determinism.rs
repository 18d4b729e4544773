//! Determinism, parity, and digest-neutrality of the catastrophic-failure
//! recovery layer (`reconfig-core::recovery`).
//!
//! Everything the recovery layer does — burst victim draws, storm return
//! rounds, partition sides, retry jitter — comes from reserved seeded
//! streams, so a run is a pure function of `(seed, schedule, params,
//! enabled)`. This suite pins that down three ways:
//!
//! * **replay** — the same catastrophe run twice is bit-identical in
//!   digest stream, mode-transition stream, and counters, and equal to the
//!   trace recorded before the boxed-slot engine was deleted;
//! * **digest neutrality** — the committed `dos_overlay` golden family,
//!   re-driven through a `FaultyRunner` whose catastrophe layer has a
//!   null schedule, must
//!   reproduce the golden digest stream byte-for-byte: recovery plumbing
//!   compiled in but inactive changes nothing;
//! * **fuzz** — `RECOVERY_CASES` (env knob, default 6) random
//!   burst/partition configurations, each checked for replay identity,
//!   backend independence (supernode overlays never instantiate a simnet
//!   engine, so the backend knob must be invisible to the recovery layer),
//!   and the no-orphans guarantee of the enabled arm.

use overlay_adversary::catastrophe::{CatastropheCampaign, CatastropheSpec};
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use overlay_adversary::env_knob;
use overlay_adversary::faults::FaultSchedule;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_core::backend::{with_backend, Backend};
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay, HealingParams};
use reconfig_core::recovery::RecoveryParams;
use simnet::{Burst, BurstSchedule, BurstTarget, TimedPartition};
use std::path::PathBuf;

fn small_params() -> DosParams {
    DosParams { group_c: 1.0, ..DosParams::default() }
}

fn mk_runner(n: usize, seed: u64) -> FaultyRunner<DosOverlay> {
    FaultyRunner::new(
        DosOverlay::new(n, small_params(), seed),
        FaultSchedule::none(),
        HealingParams::default(),
        true,
    )
}

/// A burst + partition spec that exercises every recovery path: the storm
/// outlives nothing (short window), the partition heals mid-run.
fn spec(seed: u64, epoch_len: u64) -> CatastropheSpec {
    CatastropheSpec::new(seed)
        .with_burst(Burst {
            at: epoch_len + 1,
            frac: 0.25,
            target: BurstTarget::Groups,
            storm_window: 2 * epoch_len,
        })
        .with_partition(TimedPartition {
            at: 4 * epoch_len,
            heal_at: 5 * epoch_len,
            side_frac: 0.2,
        })
}

/// Everything observable about one recovery run.
#[derive(Debug, PartialEq, Eq)]
struct RunTrace {
    digests: Vec<u64>,
    transitions: Vec<(u64, &'static str)>,
    admitted: u64,
    rejected: u64,
    orphaned: u64,
    reconciled: u64,
    bursts_fired: u64,
    partitions_healed: u64,
}

/// Drive one full catastrophe run (ambient blocking adversary + the
/// composed campaign) and capture its trace.
fn run_trace(backend: Backend, n: usize, seed: u64, enabled: bool, epochs: u64) -> RunTrace {
    with_backend(backend, || {
        let runner = mk_runner(n, seed);
        let epoch_len = runner.overlay.epoch_len();
        let sp = spec(seed, epoch_len);
        let mut r =
            runner.with_catastrophes(sp.schedule(), RecoveryParams::default(), enabled, seed);
        let mut adv = CatastropheCampaign::new(
            DosAdversary::new(DosStrategy::Random, 0.1, 2 * epoch_len, seed ^ 1),
            sp,
        );
        let mut digests = Vec::new();
        for _ in 0..epochs * epoch_len {
            r.run(&mut adv, 1);
            digests.push(r.overlay.state_digest());
        }
        let s = r.layer().stats();
        RunTrace {
            digests,
            transitions: r.layer().transitions().iter().map(|&(at, m)| (at, m.name())).collect(),
            admitted: s.admitted,
            rejected: s.rejected,
            orphaned: s.orphaned,
            reconciled: s.reconciled,
            bursts_fired: s.bursts_fired,
            partitions_healed: s.partitions_healed,
        }
    })
}

#[test]
fn catastrophe_runs_replay_bit_identically() {
    for enabled in [true, false] {
        let a = run_trace(Backend::Parity, 128, 0x4EC1, enabled, 7);
        let b = run_trace(Backend::Parity, 128, 0x4EC1, enabled, 7);
        assert_eq!(a, b, "enabled={enabled}: replay diverged");
        assert_eq!(a.bursts_fired, 1);
        assert_eq!(a.partitions_healed, 1);
    }
    // Across versions too: FNV-1a over the `Debug` rendering of the whole
    // trace under the `legacy` backend at 867e6f0, the last commit that
    // had one.
    const LEGACY: u64 = 0x7265_813d_379f_1b50;
    let xl = run_trace(Backend::Parity, 128, 0x4EC2, true, 7);
    assert!(xl.admitted > 0, "fixture must exercise the storm path");
    assert_eq!(simnet::Digest::new().write_str(&format!("{xl:?}")).finish(), LEGACY);
}

#[test]
fn burst_draws_are_schedule_replay_invariant() {
    // The schedule's draws must depend only on (seed, call sequence), not
    // on which schedule instance makes them: two instances from the same
    // spec draw identical victims, return rounds, and partition sides.
    let members: Vec<simnet::NodeId> = (0..96).map(simnet::NodeId).collect();
    let groups: Vec<Vec<simnet::NodeId>> = members.chunks(4).map(|c| c.to_vec()).collect();
    let group_edges: Vec<(u32, u32)> =
        (0..groups.len() as u32).flat_map(|g| [(g, (g + 1) % 24), (g, (g + 7) % 24)]).collect();
    let sp = spec(0x4EC3, 16);
    let mut a = sp.schedule();
    let mut b = sp.schedule();
    assert_eq!(
        a.draw_burst(0, &members, &groups, &group_edges),
        b.draw_burst(0, &members, &groups, &group_edges),
    );
    assert_eq!(a.draw_partition_side(0, &members), b.draw_partition_side(0, &members));
}

/// Body lines (digest records) of a committed golden file.
fn golden_lines(name: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    text.lines().filter(|l| !l.starts_with('#')).map(String::from).collect()
}

#[test]
fn recovery_plumbing_is_digest_neutral_on_the_golden_family() {
    // The committed dos_overlay golden family, re-driven through a
    // catastrophe layer with a null schedule: identical digest stream, no
    // transitions, no counters. Recovery compiled in but inactive is
    // provably invisible.
    let runner = FaultyRunner::new(
        DosOverlay::new(256, DosParams::default(), 9),
        FaultSchedule::none(),
        HealingParams::default(),
        true,
    );
    let epoch_len = runner.overlay.epoch_len();
    let mut r = runner.with_catastrophes(BurstSchedule::null(), RecoveryParams::default(), true, 9);
    let mut adv = DosAdversary::new(DosStrategy::GroupTargeted, 0.3, 2 * epoch_len, 11);
    let mut lines = Vec::new();
    for _ in 0..2 * epoch_len {
        r.run(&mut adv, 1);
        lines.push(format!("{} {:016x}", r.overlay.round(), r.overlay.state_digest()));
    }
    assert_eq!(lines, golden_lines("dos_overlay.digests"));
    assert!(r.layer().transitions().is_empty());
    let s = r.layer().stats();
    assert_eq!((s.admitted, s.orphaned, s.bursts_fired, s.partitions_healed), (0, 0, 0, 0));
}

#[test]
fn arms_share_the_catastrophe_but_only_the_control_orphans() {
    // A storm that outlives the heartbeat timeout under a tight join
    // capacity: the control orphans the overflow, the recovery arm
    // drains everyone back (the integration-level restatement of the A8
    // headline).
    let n = 128;
    let seed = 0x4EC4;
    let runner = mk_runner(n, seed);
    let epoch_len = runner.overlay.epoch_len();
    let sp = CatastropheSpec::new(seed).with_burst(Burst {
        at: epoch_len,
        frac: 0.35,
        target: BurstTarget::Groups,
        storm_window: 5 * epoch_len,
    });
    let tight = RecoveryParams { join_capacity: 1, ..RecoveryParams::default() };
    let mut outcomes = Vec::new();
    for enabled in [true, false] {
        let mut r = mk_runner(n, seed).with_catastrophes(sp.schedule(), tight, enabled, seed);
        for _ in 0..14 * epoch_len {
            r.step(&simnet::BlockSet::none());
        }
        let c = r.layer();
        outcomes.push((enabled, c.stats(), c.transitions().len(), c.pending_arrivals()));
    }
    let (_, rec, rec_tr, rec_pending) = outcomes[0];
    let (_, ctl, ctl_tr, _) = outcomes[1];
    assert_eq!(rec.orphaned, 0, "recovery arm never orphans");
    assert_eq!(rec_pending, 0, "recovery arm drains the storm");
    assert!(rec_tr > 0, "recovery arm must change modes");
    assert!(ctl.orphaned > 0, "control overflow must orphan");
    assert_eq!(ctl_tr, 0, "control never changes modes");
    assert_eq!(rec.bursts_fired, ctl.bursts_fired, "same schedule in both arms");
}

#[test]
fn fuzzed_catastrophes_replay_and_agree_across_backends() {
    // RECOVERY_CASES random catastrophe configurations (burst fraction,
    // target, storm window, optional partition), each run under xl
    // twice and xl:fast:2 once: all three traces identical, and the
    // enabled arm never orphans. Nightly CI turns the count up.
    let cases = env_knob::<usize>("RECOVERY_CASES", 6, 1, 10_000)
        .unwrap_or_else(|e| panic!("RECOVERY_CASES: {e}"));
    let mut plan_rng = ChaCha8Rng::seed_from_u64(0x4EC_FA55);
    for case in 0..cases {
        let seed = plan_rng.random::<u64>();
        let n = 96 + 16 * (case % 3);
        let probe = DosOverlay::new(n, small_params(), seed);
        let epoch_len = probe.epoch_len();
        let frac = 0.05 + plan_rng.random::<f64>() * 0.4;
        let target = if plan_rng.random::<f64>() < 0.5 {
            BurstTarget::Groups
        } else {
            BurstTarget::Contiguous
        };
        let window = 1 + plan_rng.random_range(0..3 * epoch_len);
        let mut sp = CatastropheSpec::new(seed).with_burst(Burst {
            at: epoch_len + plan_rng.random_range(0..epoch_len),
            frac,
            target,
            storm_window: window,
        });
        if plan_rng.random::<f64>() < 0.4 {
            let at = 2 * epoch_len + plan_rng.random_range(0..epoch_len);
            sp = sp.with_partition(TimedPartition {
                at,
                heal_at: at + 1 + plan_rng.random_range(0..2 * epoch_len),
                side_frac: 0.1 + plan_rng.random::<f64>() * 0.3,
            });
        }
        let run = |backend| {
            with_backend(backend, || {
                let mut r = mk_runner(n, seed).with_catastrophes(
                    sp.schedule(),
                    RecoveryParams::default(),
                    true,
                    seed,
                );
                for _ in 0..8 * epoch_len {
                    r.step(&simnet::BlockSet::none());
                }
                let s = r.layer().stats();
                (
                    r.overlay.state_digest(),
                    r.layer()
                        .transitions()
                        .iter()
                        .map(|&(at, m)| (at, m.name()))
                        .collect::<Vec<_>>(),
                    (s.admitted, s.rejected, s.orphaned, s.reconciled),
                )
            })
        };
        let a = run(Backend::Parity);
        let b = run(Backend::Parity);
        let c = run(Backend::fast(2));
        assert_eq!(a, b, "case {case} (seed {seed:#x}): replay diverged");
        assert_eq!(a, c, "case {case} (seed {seed:#x}): xl:fast:2 diverged");
        assert_eq!(a.2 .2, 0, "case {case} (seed {seed:#x}): enabled arm orphaned");
    }
}
