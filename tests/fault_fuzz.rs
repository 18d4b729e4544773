//! Fault-schedule fuzzing: every paper-legal adversary schedule must leave
//! the paper's guarantees intact.
//!
//! [`overlay_adversary::fuzz::FaultPlan`] draws an adversary configuration
//! (DoS strategy + bound + lateness, churn strategy + rate + intensity,
//! run length) from a seed, always within the limits the theorems assume.
//! Each test below draws `FUZZ_CASES` plans from consecutive seeds
//! (default 100, override with the env var) and drives one overlay family
//! under each, asserting the round-by-round invariants:
//!
//! * connectivity of the non-blocked subgraph (Theorems 5/6/7),
//! * blocking budgets and churn-rate bounds actually respected,
//! * group sizes inside the Lemma 16 / Equation 1 bands,
//! * every group keeps an available member (Lemma 14 precondition),
//! * the Section 1.1 delivery rule, checked event-by-event against an
//!   independent oracle on a simnet run under fuzzed block schedules.
//!
//! A failure message always carries `plan.describe()`, whose seed replays
//! the exact schedule.

use overlay_adversary::fuzz::{FaultPlan, FuzzLimits};
use rand::RngExt;
use reconfig_core::churndos::{ChurnDosOverlay, ChurnDosParams, SizeBand};
use reconfig_core::config::SamplingParams;
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::HealableOverlay;
use reconfig_core::reconfig::ExpanderOverlay;
use simnet::{BlockSet, Ctx, NodeId, Protocol, TraceEvent};
use simnet_xl::XlNetwork;
use std::collections::HashMap;

/// Schedules per overlay family; `FUZZ_CASES` overrides the default 100
/// (validated against [1, 100_000] — garbage or out-of-range values abort with a
/// message naming the variable instead of silently falling back).
fn fuzz_cases() -> u64 {
    overlay_adversary::knobs::env_knob::<usize>("FUZZ_CASES", 100, 1, 100_000)
        .unwrap_or_else(|e| panic!("{e}")) as u64
}

#[test]
fn fuzzed_churn_schedules_cannot_break_the_expander_overlay() {
    let limits = FuzzLimits::default();
    for seed in 0..fuzz_cases() {
        let plan = FaultPlan::generate(seed, &limits);
        let mut ov = ExpanderOverlay::new(16, 8, SamplingParams::default(), seed ^ 0xE0);
        let mut sched = plan.churn_schedule(1_000_000);
        let mut rng = simnet::rng::stream(seed, 3, 0xC);
        for _ in 0..plan.epochs {
            let n_before = ov.members().len();
            let ev = sched.next(ov.members(), &mut rng);
            // The prescribed-set bound of Section 1.1:
            // |W_{i+1}| in [|W_i| / r, r |W_i|].
            let n_after = n_before + ev.joins.len() - ev.leaves.len();
            assert!(
                (n_after as f64) <= plan.churn_rate * n_before as f64 + 1e-9
                    && (n_after as f64) >= n_before as f64 / plan.churn_rate - 1e-9,
                "churn rate bound violated: {n_before} -> {n_after} [{}]",
                plan.describe()
            );
            // Per-member introduction cap ceil(r).
            let mut intro: HashMap<NodeId, usize> = HashMap::new();
            for j in &ev.joins {
                *intro.entry(j.introduced_to).or_insert(0) += 1;
            }
            let cap = plan.churn_rate.ceil() as usize;
            for (&t, &c) in &intro {
                assert!(c <= cap, "introducer {t} got {c} > ceil(r) = {cap} [{}]", plan.describe());
            }
            ov.apply_churn(&ev);
            let m = ov.reconfigure();
            assert!(m.valid, "epoch invalid [{}]", plan.describe());
            assert_eq!(ov.members().len(), n_after, "membership drifted [{}]", plan.describe());
            // Degree bound: an H-graph overlay is d-regular by construction.
            assert_eq!(ov.graph().degree(), 8, "degree changed [{}]", plan.describe());
            for &v in ov.members() {
                assert_eq!(
                    ov.graph().neighbors(v).len(),
                    8,
                    "node {v} degree off [{}]",
                    plan.describe()
                );
            }
            assert!(ov.is_connected(), "overlay disconnected [{}]", plan.describe());
        }
    }
}

#[test]
fn fuzzed_dos_schedules_cannot_break_the_dos_overlay() {
    let limits = FuzzLimits::default();
    let n = 512;
    for seed in 0..fuzz_cases() {
        let plan = FaultPlan::generate(seed, &limits);
        let mut ov = DosOverlay::new(n, DosParams::default(), seed ^ 0xD0);
        let mut adv = plan.dos_adversary(ov.epoch_len());
        let n_super = ov.grouped().cube().len() as f64;
        let expected_size = n as f64 / n_super;
        for _ in 0..plan.epochs * ov.epoch_len() {
            adv.observe(ov.grouped().snapshot(ov.round()));
            let blocked = adv.block(ov.round(), n);
            assert!(
                blocked.within_bound(plan.dos_bound, n),
                "blocking budget exceeded: {} of {n} [{}]",
                blocked.len(),
                plan.describe()
            );
            let m = ov.step(&blocked);
            assert!(m.connected, "round {} disconnected [{}]", m.round, plan.describe());
            assert!(
                m.min_group_available > 0,
                "round {}: a group starved [{}]",
                m.round,
                plan.describe()
            );
            // Lemma 16 band (generous constants, as in the unit tests).
            assert!(
                (m.min_group_size as f64) > 0.3 * expected_size
                    && (m.max_group_size as f64) < 2.5 * expected_size,
                "group sizes [{}, {}] left the Lemma 16 band around {expected_size} [{}]",
                m.min_group_size,
                m.max_group_size,
                plan.describe()
            );
        }
        assert_eq!(ov.failed_epochs(), 0, "an epoch failed [{}]", plan.describe());
    }
}

#[test]
fn fuzzed_combined_schedules_cannot_break_the_churndos_overlay() {
    let limits = FuzzLimits::default();
    for seed in 0..fuzz_cases() {
        let plan = FaultPlan::generate(seed, &limits);
        let mut ov = ChurnDosOverlay::new(800, ChurnDosParams::default(), seed ^ 0xCD);
        let mut adv = plan.dos_adversary(ov.epoch_len());
        let mut churn = plan.churn_schedule(10_000_000);
        let mut churn_rng = simnet::rng::stream(seed, 4, 0xC);
        let band = SizeBand { c: ChurnDosParams::default().band_c };
        for _ in 0..plan.epochs {
            let ev = churn.next(&ov.members(), &mut churn_rng);
            ov.apply_churn(&ev);
            for _ in 0..ov.epoch_len() {
                adv.observe(ov.snapshot(ov.round()));
                let blocked = adv.block(ov.round(), ov.len());
                assert!(
                    blocked.within_bound(plan.dos_bound, ov.len()),
                    "blocking budget exceeded [{}]",
                    plan.describe()
                );
                let m = ov.step(&blocked);
                assert!(m.connected, "round {} disconnected [{}]", m.round, plan.describe());
                assert!(
                    m.min_group_available > 0,
                    "round {}: a group starved [{}]",
                    m.round,
                    plan.describe()
                );
            }
            // Epoch boundary: Lemma 18 and the Equation 1 band must hold.
            assert!(ov.groups().lemma18_holds(), "Lemma 18 violated [{}]", plan.describe());
            for (l, g) in ov.groups().iter() {
                assert!(
                    band.ok(l.dim(), g.len()),
                    "group {l:?} size {} out of Equation 1 band [{}]",
                    g.len(),
                    plan.describe()
                );
            }
        }
        assert_eq!(ov.failed_epochs(), 0, "an epoch failed [{}]", plan.describe());
    }
}

// ---------------------------------------------------------------------------
// Section 1.1 blocking rule, checked against an independent oracle
// ---------------------------------------------------------------------------

/// Floods random traffic for the first `active_rounds` rounds, then goes
/// quiet so all in-flight messages drain and every send gets classified.
struct Flood {
    n: u64,
    active_rounds: u64,
    heard: u64,
}

impl Protocol for Flood {
    type Msg = u64;

    fn digest(&self, digest: &mut simnet::Digest) {
        digest.write_u64(self.heard);
    }

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) {
        self.heard += ctx.take_inbox().len() as u64;
        if ctx.round() < self.active_rounds {
            let n = self.n;
            for _ in 0..2 {
                let to = NodeId(ctx.rng().random_range(0..n));
                let val: u64 = ctx.rng().random();
                ctx.send(to, val);
            }
        }
    }
}

#[test]
fn fuzzed_block_schedules_match_the_delivery_rule_oracle() {
    let cases = fuzz_cases();
    let n = 24u64;
    let active_rounds = 8u64;
    for seed in 0..cases {
        // A fuzzed per-round block schedule: each round blocks an
        // independent random set of at most floor(n/3) nodes.
        let mut schedule_rng = simnet::rng::stream(seed, 5, 0xB10C);
        let total_rounds = active_rounds + 2; // +2 drains the last sends
        let schedule: Vec<BlockSet> = (0..total_rounds)
            .map(|_| {
                let k = schedule_rng.random_range(0..=(n as usize / 3));
                let mut set = BlockSet::none();
                while set.len() < k {
                    set.insert(NodeId(schedule_rng.random_range(0..n)));
                }
                set
            })
            .collect();

        let mut net: XlNetwork<Flood> = XlNetwork::new(seed ^ 0xF100D);
        net.enable_trace(1 << 16);
        for i in 0..n {
            net.add_node(NodeId(i), Flood { n, active_rounds, heard: 0 });
        }
        for blocked in &schedule {
            net.step_blocked(blocked);
        }

        // Counter consistency: every sent message is classified exactly
        // once after the network drains (delivered, dropped by the rule,
        // or dropped for a missing receiver — no churn here, so zero).
        // Blocked nodes do not run, so each active round produces exactly
        // two sends per unblocked node.
        let sent: u64 =
            schedule[..active_rounds as usize].iter().map(|b| 2 * (n - b.len() as u64)).sum();
        let t = net.trace();
        assert_eq!(t.dropped_missing, 0);
        assert_eq!(
            t.delivered + t.dropped_blocked,
            sent,
            "messages leaked or double-counted (seed {seed})"
        );
        assert_eq!(t.overflow, 0, "trace capacity too small for the oracle check");

        // Event-by-event oracle: a message processed in round i+1 was sent
        // in round i; Delivered/DroppedBlocked must match fault::delivered
        // applied to the recorded schedule.
        for ev in t.events() {
            match *ev {
                TraceEvent::Delivered { round, from, to } => {
                    assert!(round >= 1);
                    let ok = simnet::fault::delivered(
                        from,
                        to,
                        &schedule[round as usize - 1],
                        &schedule[round as usize],
                    );
                    assert!(ok, "delivered against the rule: r{round} {from}->{to} (seed {seed})");
                }
                TraceEvent::DroppedBlocked { round, from, to } => {
                    assert!(round >= 1);
                    let ok = simnet::fault::delivered(
                        from,
                        to,
                        &schedule[round as usize - 1],
                        &schedule[round as usize],
                    );
                    assert!(!ok, "dropped a legal message: r{round} {from}->{to} (seed {seed})");
                }
                _ => {}
            }
        }
    }
}
