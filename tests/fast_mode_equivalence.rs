//! Statistical equivalence of the relaxed-order `xl:fast` execution mode
//! against the parity oracle.
//!
//! The fast path (see `simnet_xl::ExecMode` and DESIGN.md §10) splits the
//! engine over shards and drops the global key order, so at more than one
//! shard its digest streams are *not* expected to match the committed
//! goldens bit-for-bit (at one shard with no fault model they do; the
//! engine's unit tests pin that). What the paper's guarantees
//! require — and what this suite checks — is that every distributional
//! observable agrees with the parity engine:
//!
//! * **seed-replicated sampling** — each family runs the *same* seed list
//!   under both modes and pools the resulting histograms (`pool_counts`),
//!   so the two samples differ only by execution order and independent
//!   RNG draw order, never by workload;
//! * **TV distance + chi-square homogeneity** via
//!   `overlay_stats::EquivalenceHarness`, whose rejection thresholds
//!   (3x the expected-TV sampling bound; `alpha = 1e-4`) are derived and
//!   documented in `crates/stats/src/equivalence.rs`;
//! * the two Section 5/6 golden families (`dos_overlay`,
//!   `churndos_overlay`) never instantiate a simnet engine, so under
//!   `xl:fast` they must stay **byte-identical** to the goldens — the
//!   strongest form of equivalence, and proof the mode knob doesn't leak;
//! * fuzzed fault plans (satellite: reusing `overlay_adversary::fuzz`)
//!   must never make a fast run violate a monitor invariant that the
//!   parity run satisfies, at shard counts 1/2/7/16.
//!
//! Sample sizes are controlled by the `EQUIV_SAMPLES` env knob (default 6
//! replicate seeds; CI smoke uses a reduced count) so the suite scales
//! from PR gating to a thorough local run.

use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use overlay_adversary::fuzz::{FaultPlan, FuzzLimits};
use overlay_graphs::HGraph;
use overlay_stats::{EquivalenceConfig, EquivalenceHarness};
use proptest::prelude::*;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_core::backend::{with_backend, Backend};
use reconfig_core::churndos::{ChurnDosOverlay, ChurnDosParams};
use reconfig_core::config::SamplingParams;
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{ExpanderFaultRun, HealableOverlay, HealingParams};
use reconfig_core::monitor::Invariant;
use reconfig_core::reconfig::ExpanderOverlay;
use reconfig_core::sampling::run_alg1_digested_observed;
use simnet::{BlockSet, Ctx, FaultModel, LinkFaults, NodeId, Protocol, RoundDigest};
use simnet_xl::XlNetwork;
use std::path::PathBuf;
use telemetry::Telemetry;

/// Fast-mode shard counts the fault-plan property sweeps: the serial edge
/// case, the smallest parallel split, a prime that misaligns with
/// everything, and the automatic-count ceiling.
const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];

/// Replicate seeds per family, from the `EQUIV_SAMPLES` env knob.
///
/// The default of 6 keeps pooled histograms large enough that the TV
/// threshold is tight; CI smoke sets `EQUIV_SAMPLES=3` for speed. The
/// floor of 2 keeps every pooled comparison non-degenerate.
fn replicate_seeds() -> Vec<u64> {
    let k = std::env::var("EQUIV_SAMPLES")
        .ok()
        .and_then(|s| s.parse::<usize>().ok())
        .unwrap_or(6)
        .clamp(2, 64);
    (0..k as u64).map(|i| 0x5EED_0001 + i * 7919).collect()
}

fn harness() -> EquivalenceHarness {
    EquivalenceHarness::new(EquivalenceConfig::default())
}

/// Body lines (digest records) of a committed golden file.
fn golden_lines(name: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    text.lines().filter(|l| !l.starts_with('#')).map(String::from).collect()
}

// ---------------------------------------------------------------------------
// Family 1: Algorithm 1 sampling outcomes
// ---------------------------------------------------------------------------

/// Histogram of sampled node ids over the fixed 32-node support.
fn alg1_outcome_hist(backend: Backend, graph: &HGraph, seed: u64) -> Vec<u64> {
    let params = SamplingParams::default();
    let (samples, _, _) = with_backend(backend, || {
        run_alg1_digested_observed(graph, &params, seed, &Telemetry::disabled())
    });
    let mut hist = vec![0u64; 32];
    for (_, picks) in &samples {
        for p in picks {
            hist[p.0 as usize] += 1;
        }
    }
    hist
}

#[test]
fn alg1_outcomes_are_statistically_equivalent_under_fast() {
    // Same graph and seed list as the golden family, run under parity and
    // fast; pooled walk-outcome histograms must agree in TV and pass the
    // homogeneity test. (Lemma 2 says both should be near-uniform over the
    // 32 nodes, but the check here is mode-vs-mode, not vs-uniform.)
    let nodes: Vec<NodeId> = (0..32).map(NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(0xA11CE);
    let graph = HGraph::random(&nodes, 8, &mut rng);

    let mut parity_runs = Vec::new();
    let mut fast_runs = Vec::new();
    for seed in replicate_seeds() {
        parity_runs.push(alg1_outcome_hist(Backend::Parity, &graph, seed));
        fast_runs.push(alg1_outcome_hist(Backend::fast(4), &graph, seed));
    }
    let parity = overlay_stats::pool_counts(&parity_runs);
    let fast = overlay_stats::pool_counts(&fast_runs);
    assert!(parity.iter().sum::<u64>() > 0, "parity runs produced no samples");

    let mut h = harness();
    h.compare_counts("alg1/walk-outcomes", &parity, &fast);
    h.finish().assert_ok();
}

// ---------------------------------------------------------------------------
// Family 2: expander reconfiguration
// ---------------------------------------------------------------------------

/// Run churn + reconfigure epochs and histogram two engine-sensitive
/// observables of the final overlay: member degrees (support `0..=d`) and
/// neighbor-id residues mod 8 (near-uniform under Lemma 10's uniformly
/// random reconfigured cycles).
fn expander_hists(backend: Backend, seed: u64) -> (Vec<u64>, Vec<u64>) {
    with_backend(backend, || {
        let mut ov = ExpanderOverlay::new(32, 8, SamplingParams::default(), seed);
        let mut sched = ChurnSchedule::new(ChurnStrategy::Random, 2.0, 0.5, 10_000);
        let mut rng = simnet::rng::stream(seed, 0, 1);
        for _ in 0..2 {
            let ev = sched.next(ov.members(), &mut rng);
            ov.apply_churn(&ev);
            ov.reconfigure();
        }
        let mut degrees = vec![0u64; 9];
        let mut residues = vec![0u64; 8];
        for &v in ov.members() {
            let nbrs = ov.graph().neighbors(v);
            degrees[nbrs.len().min(8)] += 1;
            for u in nbrs {
                residues[(u.0 % 8) as usize] += 1;
            }
        }
        (degrees, residues)
    })
}

#[test]
fn expander_reconfig_is_statistically_equivalent_under_fast() {
    let (mut pd, mut pr, mut fd, mut fr) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for seed in replicate_seeds() {
        let (d, r) = expander_hists(Backend::Parity, seed);
        pd.push(d);
        pr.push(r);
        let (d, r) = expander_hists(Backend::fast(4), seed);
        fd.push(d);
        fr.push(r);
    }
    let mut h = harness();
    h.compare_counts(
        "expander/degrees",
        &overlay_stats::pool_counts(&pd),
        &overlay_stats::pool_counts(&fd),
    );
    h.compare_counts(
        "expander/neighbor-residues",
        &overlay_stats::pool_counts(&pr),
        &overlay_stats::pool_counts(&fr),
    );
    h.finish().assert_ok();
}

// ---------------------------------------------------------------------------
// Families 3+4: Section 5/6 overlays (group sizes) — exact under fast
// ---------------------------------------------------------------------------

#[test]
fn dos_and_churndos_goldens_are_byte_identical_under_fast() {
    // The supernode overlays (and hence their group-size distributions)
    // never instantiate a simnet engine, so `xl:fast` must reproduce the
    // committed digest streams exactly — equivalence with TV distance 0.
    let dos = with_backend(Backend::fast(7), || {
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
        lines
    });
    assert_eq!(dos, golden_lines("dos_overlay.digests"));

    let churndos = with_backend(Backend::fast(7), || {
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
        lines
    });
    assert_eq!(churndos, golden_lines("churndos_overlay.digests"));
}

// ---------------------------------------------------------------------------
// Healed fault runs
// ---------------------------------------------------------------------------

/// Drive a healed `ExpanderFaultRun` and return (heal-event profile,
/// final degree histogram, monitor-clean flag).
fn healed_observables(backend: Backend, seed: u64) -> (Vec<u64>, Vec<u64>, bool) {
    with_backend(backend, || {
        let plan = FaultPlan::generate(seed, &FuzzLimits::default());
        let ov = ExpanderOverlay::new(48, 8, SamplingParams::default(), plan.seed ^ 0xE8);
        let mut run =
            ExpanderFaultRun::new(ov, plan.fault_schedule(), HealingParams::default(), true);
        for _ in 0..2 {
            run.run_epoch();
        }
        let s = &run.stats;
        let profile = vec![
            s.desync_events,
            s.retries,
            s.resyncs,
            s.exhausted,
            s.evictions,
            s.rejoins,
            s.crashes,
        ];
        let mut degrees = vec![0u64; 9];
        for &v in run.overlay.members() {
            degrees[run.overlay.graph().neighbors(v).len().min(8)] += 1;
        }
        (profile, degrees, run.monitor.ok())
    })
}

#[test]
fn healed_fault_runs_are_statistically_equivalent_under_fast() {
    let (mut pp, mut pd, mut fp, mut fd) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for seed in replicate_seeds() {
        let (profile, degrees, parity_ok) = healed_observables(Backend::Parity, seed);
        pp.push(profile);
        pd.push(degrees);
        let (profile, degrees, fast_ok) = healed_observables(Backend::fast(4), seed);
        fp.push(profile);
        fd.push(degrees);
        // Invariant preservation: fast may only violate what parity also
        // violates (the statistical checks below compare magnitudes).
        assert!(!parity_ok || fast_ok, "seed {seed}: fast violated invariants parity satisfied");
    }
    let mut h = harness();
    h.compare_counts(
        "healed/heal-event-profile",
        &overlay_stats::pool_counts(&pp),
        &overlay_stats::pool_counts(&fp),
    );
    h.compare_counts(
        "healed/degrees",
        &overlay_stats::pool_counts(&pd),
        &overlay_stats::pool_counts(&fd),
    );
    h.finish().assert_ok();
}

// ---------------------------------------------------------------------------
// Per-round event counts on the raw engine
// ---------------------------------------------------------------------------

/// Chatty protocol (same shape as the `xl_parity.rs` sweep driver): mixes
/// its inbox and sends two RNG-addressed messages per round.
struct Mixer {
    n: u64,
    acc: u64,
}

impl Protocol for Mixer {
    type Msg = u64;

    fn digest(&self, d: &mut simnet::Digest) {
        d.write_u64(self.acc);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) {
        for env in ctx.take_inbox() {
            self.acc = self.acc.wrapping_mul(0x100_0000_01b3) ^ env.msg;
        }
        for _ in 0..2 {
            let to = NodeId(ctx.rng().random_range(0..self.n));
            let msg = self.acc ^ ctx.rng().random::<u64>();
            ctx.send(to, msg);
        }
    }
}

/// Per-round deltas of the aggregate trace counters most sensitive to
/// delivery order: `(delivered, dropped_blocked + dropped_fault +
/// dropped_link)`, over 24 rounds with link faults, a crash-recover node
/// and rotating DoS blocks.
fn round_series(backend: Backend, seed: u64) -> (Vec<u64>, Vec<u64>) {
    const N: u64 = 96;
    const ROUNDS: usize = 24;
    let mut net: XlNetwork<Mixer> = backend.build(seed);
    net.set_fault_model(
        FaultModel::new(seed ^ 0xF017)
            .with_link(LinkFaults {
                drop_prob: 0.05,
                dup_prob: 0.03,
                delay_prob: 0.05,
                max_delay: 3,
            })
            .with_node_fault(NodeId(5), simnet::NodeFault::CrashRecover { at: 4, down_for: 5 }),
    );
    for i in 0..N {
        net.add_node(NodeId(i), Mixer { n: N, acc: i });
    }
    let mut rng = simnet::rng::stream(seed, 7, 0xB10C);
    let (mut delivered, mut dropped) = (Vec::with_capacity(ROUNDS), Vec::with_capacity(ROUNDS));
    let (mut last_del, mut last_drop) = (0u64, 0u64);
    for _ in 0..ROUNDS {
        let mut blocked = BlockSet::none();
        for id in 0..N {
            if rng.random::<f64>() < 0.08 {
                blocked.insert(NodeId(id));
            }
        }
        net.step_blocked(&blocked);
        let t = net.trace();
        let drops = t.dropped_blocked + t.dropped_fault + t.dropped_link;
        delivered.push(t.delivered - last_del);
        dropped.push(drops - last_drop);
        last_del = t.delivered;
        last_drop = drops;
    }
    (delivered, dropped)
}

#[test]
fn per_round_event_counts_are_statistically_equivalent_under_fast() {
    let (mut pdel, mut pdrop, mut fdel, mut fdrop) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for seed in replicate_seeds() {
        let (d, x) = round_series(Backend::Parity, seed);
        pdel.push(d);
        pdrop.push(x);
        let (d, x) = round_series(Backend::fast(4), seed);
        fdel.push(d);
        fdrop.push(x);
    }
    let mut h = harness();
    h.compare_round_counts(
        "engine/delivered-per-round",
        &overlay_stats::pool_counts(&pdel),
        &overlay_stats::pool_counts(&fdel),
    );
    h.compare_round_counts(
        "engine/dropped-per-round",
        &overlay_stats::pool_counts(&pdrop),
        &overlay_stats::pool_counts(&fdrop),
    );
    h.finish().assert_ok();
}

// ---------------------------------------------------------------------------
// Byzantine family: the Conduct hook under fast mode
// ---------------------------------------------------------------------------

/// The `Mixer` sweep with a Byzantine [`simnet::ByzantineConduct`]
/// installed: every eighth node drops a quarter and forges another quarter
/// of its sends. `conduct_roll` keys each judgement on
/// `(seed, from, to, round, pos)` — none of which depend on delivery
/// order — so the *judgements* are identical across modes, and the
/// per-round delivery series must stay statistically equivalent.
fn byz_round_series(backend: Backend, seed: u64) -> (Vec<u64>, Vec<u64>) {
    const N: u64 = 96;
    const ROUNDS: usize = 24;
    const PPM_QUARTER: u32 = 250_000;
    let mut net: XlNetwork<Mixer> = backend.build(seed);
    net.set_fault_model(FaultModel::new(seed ^ 0xF017).with_link(LinkFaults {
        drop_prob: 0.05,
        dup_prob: 0.03,
        delay_prob: 0.05,
        max_delay: 3,
    }));
    for i in 0..N {
        net.add_node(NodeId(i), Mixer { n: N, acc: i });
    }
    let byz = (0..N).filter(|i| i % 8 == 0).map(NodeId);
    net.set_conduct(Some(std::sync::Arc::new(
        simnet::ByzantineConduct::new(seed ^ 0xB12, byz)
            .dropping(PPM_QUARTER)
            .forging(PPM_QUARTER, |m: &u64| m ^ 0xDEAD),
    )));
    let (mut delivered, mut judged) = (Vec::with_capacity(ROUNDS), Vec::with_capacity(ROUNDS));
    let (mut last_del, mut last_judged) = (0u64, 0u64);
    for _ in 0..ROUNDS {
        net.step_blocked(&BlockSet::none());
        let (dropped, forged) = net.conduct_counts();
        delivered.push(net.trace().delivered - last_del);
        judged.push(dropped + forged - last_judged);
        last_del = net.trace().delivered;
        last_judged = dropped + forged;
    }
    (delivered, judged)
}

#[test]
fn byzantine_conduct_is_statistically_equivalent_under_fast() {
    let (mut pdel, mut fdel) = (Vec::new(), Vec::new());
    for seed in replicate_seeds() {
        let (d, pj) = byz_round_series(Backend::Parity, seed);
        pdel.push(d);
        let (d, fj) = byz_round_series(Backend::fast(4), seed);
        fdel.push(d);
        // The conduct judgement stream is order-invariant by construction:
        // exactly the same sends are dropped/forged in both modes.
        assert_eq!(pj, fj, "conduct judgements diverged across modes at seed {seed}");
    }
    let mut h = harness();
    h.compare_round_counts(
        "engine/byz-delivered-per-round",
        &overlay_stats::pool_counts(&pdel),
        &overlay_stats::pool_counts(&fdel),
    );
    h.finish().assert_ok();
}

#[test]
fn byzantine_fast_runs_are_reproducible_per_seed_and_shards() {
    for shards in SHARD_COUNTS {
        let runs: Vec<_> = (0..2)
            .map(|_| {
                let mut net: XlNetwork<Mixer> = XlNetwork::fast(0xB12AC7, shards);
                for i in 0..64 {
                    net.add_node(NodeId(i), Mixer { n: 64, acc: i });
                }
                net.set_conduct(Some(std::sync::Arc::new(
                    simnet::ByzantineConduct::new(0xB12, (0..64).step_by(8).map(NodeId))
                        .dropping(250_000)
                        .forging(250_000, |m: &u64| m ^ 0xDEAD),
                )));
                for _ in 0..16 {
                    net.step_blocked(&BlockSet::none());
                }
                (net.round_digest(), net.conduct_counts())
            })
            .collect();
        assert_eq!(runs[0], runs[1], "fast Byzantine run not a function of (seed, {shards})");
    }
}

// ---------------------------------------------------------------------------
// Fuzzed fault plans: fast preserves the invariants parity satisfies
// ---------------------------------------------------------------------------

/// Per-invariant violation counts of a healed run under `backend`.
fn plan_violations(backend: Backend, plan: &FaultPlan) -> Vec<(Invariant, u64)> {
    with_backend(backend, || {
        let ov = ExpanderOverlay::new(48, 8, SamplingParams::default(), plan.seed ^ 0xE8);
        let mut run =
            ExpanderFaultRun::new(ov, plan.fault_schedule(), HealingParams::default(), true);
        for _ in 0..2 {
            run.run_epoch();
        }
        Invariant::ALL.iter().map(|&inv| (inv, run.monitor.count(inv))).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn fuzzed_fast_runs_preserve_parity_invariants(seed in 0u64..10_000) {
        let plan = FaultPlan::generate(seed, &FuzzLimits::default());
        let parity = plan_violations(Backend::Parity, &plan);
        for shards in SHARD_COUNTS {
            let fast = plan_violations(Backend::fast(shards), &plan);
            for ((inv, p), (_, f)) in parity.iter().zip(&fast) {
                // Fast mode must not introduce violations of invariants the
                // parity run satisfies; where parity already violates, fast
                // is allowed any count (magnitudes are compared statistically
                // in the healed-run equivalence test).
                prop_assert!(
                    *p > 0 || *f == 0,
                    "xl:fast:{} violated {} ({} times) where parity was clean [{}]",
                    shards, inv.name(), f, plan.describe()
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Recovery family: mode-transition streams across exec modes
// ---------------------------------------------------------------------------

/// Drive a catastrophe (group burst + storm) through a `FaultyRunner`'s
/// catastrophe layer and capture the digest stream plus the mode-transition stream.
fn recovery_trace(backend: Backend) -> (Vec<u64>, Vec<(u64, &'static str)>) {
    use overlay_adversary::faults::FaultSchedule;
    use reconfig_core::healing::FaultyRunner;
    use reconfig_core::recovery::RecoveryParams;
    with_backend(backend, || {
        let seed = 0x4EC_FA57;
        let ov = DosOverlay::new(128, DosParams { group_c: 1.0, ..DosParams::default() }, seed);
        let epoch_len = ov.epoch_len();
        let runner = FaultyRunner::new(ov, FaultSchedule::none(), HealingParams::default(), true);
        let schedule = simnet::BurstSchedule::new(seed).with_burst(simnet::Burst {
            at: 2 * epoch_len,
            frac: 0.3,
            target: simnet::BurstTarget::Groups,
            storm_window: 4 * epoch_len,
        });
        let mut r = runner.with_catastrophes(schedule, RecoveryParams::default(), true, seed);
        let mut digests = Vec::new();
        for _ in 0..12 * epoch_len {
            r.step(&BlockSet::none());
            digests.push(r.overlay.state_digest());
        }
        (digests, r.layer().transitions().iter().map(|&(at, m)| (at, m.name())).collect())
    })
}

#[test]
fn recovery_transitions_are_identical_across_exec_modes() {
    // The recovery layer's randomness comes from reserved seeded streams
    // and the supernode overlay never instantiates a simnet engine, so
    // even `xl:fast` — which is allowed to reorder engine work — must
    // reproduce the digest stream and the mode-transition stream
    // byte-identically. The mode knob cannot leak into recovery. (Fast
    // mode at one shard is parity's code path, so it is not run here.)
    let (digests, transitions) = recovery_trace(Backend::Parity);
    assert!(!transitions.is_empty(), "fixture must exercise the mode machine");
    let (d, t) = recovery_trace(Backend::fast(4));
    assert_eq!(digests, d, "digest stream diverged on four shards");
    assert_eq!(transitions, t, "transition stream diverged on four shards");
}

// ---------------------------------------------------------------------------
// Determinism of the fast mode itself (per seed and shard count)
// ---------------------------------------------------------------------------

#[test]
fn fast_runs_are_reproducible_per_seed_and_shards() {
    // The equivalence harness needs replicated seeds to be meaningful:
    // a fast run must be a *function* of (seed, shards), not of thread
    // scheduling. (The simnet-xl crate tests cover the raw engine; this
    // covers the full runner path through the backend knob.)
    let nodes: Vec<NodeId> = (0..32).map(NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(0xA11CE);
    let graph = HGraph::random(&nodes, 8, &mut rng);
    let params = SamplingParams::default();
    let run = |shards| {
        with_backend(Backend::fast(shards), || {
            run_alg1_digested_observed(&graph, &params, 42, &Telemetry::disabled())
        })
    };
    let (s1, _, d1): (_, _, Vec<RoundDigest>) = run(4);
    let (s2, _, d2) = run(4);
    assert_eq!(s1, s2);
    assert_eq!(d1, d2);
}
