//! Fault-injection integration tests.
//!
//! Three layers are pinned down here:
//!
//! 1. **Engine truth table** — the composition of the paper's DoS blocking
//!    rule with the beyond-model `simnet::FaultModel` (link drops, node
//!    crashes) classifies every message into exactly one fate, with the
//!    documented precedence: blocking rule first, node faults second,
//!    probabilistic link faults last.
//! 2. **Null-model differential** — a run with an explicitly installed
//!    null `FaultModel` is byte-identical to a run that never touched the
//!    fault API, and the golden digest streams recorded before the fault
//!    layer existed still reproduce byte-for-byte.
//! 3. **Self-healing sweep** — `FUZZ_CASES` composite fault schedules
//!    (loss + crashes on top of paper-legal DoS/churn plans) leave the
//!    healed overlays connected and structurally sound, while a no-healing
//!    control under the same faults demonstrably degrades.

use overlay_adversary::dos::{DosAdversary, DosStrategy};
use overlay_adversary::faults::FaultSchedule;
use overlay_adversary::fuzz::{FaultPlan, FuzzLimits};
use rand::RngExt;
use reconfig_core::churndos::{ChurnDosOverlay, ChurnDosParams};
use reconfig_core::config::SamplingParams;
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{ExpanderFaultRun, FaultyRunner, HealableOverlay, HealingParams};
use reconfig_core::monitor::Invariant;
use reconfig_core::reconfig::ExpanderOverlay;
use reconfig_core::sampling::run_alg1_digested_observed;
use simnet::{BlockSet, Ctx, FaultModel, LinkFaults, NodeFault, NodeId, Protocol};
use simnet_xl::XlNetwork;
use telemetry::Telemetry;

/// Schedules per overlay family; `FUZZ_CASES` overrides the default 100
/// (validated against [1, 100_000] — garbage or out-of-range values abort with a
/// message naming the variable instead of silently falling back).
fn fuzz_cases() -> u64 {
    overlay_adversary::knobs::env_knob::<usize>("FUZZ_CASES", 100, 1, 100_000)
        .unwrap_or_else(|e| panic!("{e}")) as u64
}

// ---------------------------------------------------------------------------
// 1. Engine truth table: BlockSet × link drop × crash
// ---------------------------------------------------------------------------

/// Node 0 fires one message per round at node 1; node 1 does nothing.
struct Shooter;

impl Protocol for Shooter {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) {
        ctx.take_inbox();
        if ctx.me() == NodeId(0) {
            ctx.send(NodeId(1), ctx.round());
        }
    }
}

/// Message-fate counters after driving `Shooter` for 8 rounds under one
/// cell of the truth table.
fn fates(block_receiver: bool, crash_receiver: bool, drop_links: bool) -> (u64, u64, u64, u64) {
    let mut net: XlNetwork<Shooter> = XlNetwork::new(1);
    net.add_node(NodeId(0), Shooter);
    net.add_node(NodeId(1), Shooter);
    let mut faults = FaultModel::new(2);
    if crash_receiver {
        faults = faults.with_node_fault(NodeId(1), NodeFault::CrashStop { at: 0 });
    }
    if drop_links {
        faults = faults.with_link(LinkFaults { drop_prob: 1.0, ..LinkFaults::NONE });
    }
    net.set_fault_model(faults);
    let blocked: BlockSet =
        if block_receiver { [NodeId(1)].into_iter().collect() } else { BlockSet::none() };
    for _ in 0..8 {
        net.step_blocked(&blocked);
    }
    let t = net.trace();
    (t.delivered, t.dropped_blocked, t.dropped_fault, t.dropped_link)
}

#[test]
fn truth_table_classifies_every_message_exactly_once() {
    // (block, crash, drop) -> which single fate wins. The blocking rule is
    // the paper's model and is judged first; a crashed receiver beats the
    // link-fate draw (the message has no live endpoint to arrive at).
    for (block, crash, drop) in [
        (false, false, false),
        (false, false, true),
        (false, true, false),
        (false, true, true),
        (true, false, false),
        (true, false, true),
        (true, true, false),
        (true, true, true),
    ] {
        let (delivered, d_blocked, d_fault, d_link) = fates(block, crash, drop);
        let attempts = delivered + d_blocked + d_fault + d_link;
        assert!(attempts > 0, "shooter must have fired ({block},{crash},{drop})");
        let expect = |del: bool, b: bool, f: bool, l: bool| {
            assert_eq!(
                (delivered > 0, d_blocked > 0, d_fault > 0, d_link > 0),
                (del, b, f, l),
                "cell (block={block}, crash={crash}, drop={drop}) gave \
                 (delivered={delivered}, blocked={d_blocked}, fault={d_fault}, link={d_link})"
            );
        };
        match (block, crash, drop) {
            (true, _, _) => expect(false, true, false, false),
            (false, true, _) => expect(false, false, true, false),
            (false, false, true) => expect(false, false, false, true),
            (false, false, false) => expect(true, false, false, false),
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Null-model differentials
// ---------------------------------------------------------------------------

/// The determinism suite's Gossip protocol, re-declared here to drive the
/// engine through RNG draws, state evolution and payload traffic.
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

fn gossip_digests(explicit_null: bool) -> Vec<simnet::RoundDigest> {
    let mut net: XlNetwork<Gossip> = XlNetwork::new(4242);
    if explicit_null {
        net.set_fault_model(FaultModel::null());
    }
    net.enable_digests();
    for i in 0..96 {
        net.add_node(NodeId(i), Gossip { n: 96, acc: i });
    }
    net.run(16);
    net.trace().digests().to_vec()
}

#[test]
fn explicit_null_model_matches_untouched_engine() {
    assert_eq!(gossip_digests(true), gossip_digests(false));
}

#[test]
fn null_model_reproduces_pre_fault_golden_stream_byte_for_byte() {
    // The golden file was recorded before the fault layer existed; the
    // engine (default = null model) must still produce the identical
    // bytes. This is the differential guard against the fault layer
    // perturbing the delivery path or the digest definition.
    let nodes: Vec<NodeId> = (0..32).map(NodeId).collect();
    use rand_chacha::rand_core::SeedableRng;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xA11CE);
    let graph = overlay_graphs::HGraph::random(&nodes, 8, &mut rng);
    let (_, _, digests) =
        run_alg1_digested_observed(&graph, &SamplingParams::default(), 42, &Telemetry::disabled());
    let mut actual = String::from(
        "# core/sampling: run_alg1_digested, n=32 d=8 graph_seed=0xA11CE run_seed=42\n",
    );
    for d in &digests {
        actual.push_str(&format!("{} {:016x}\n", d.round, d.value));
    }
    let path = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden/sampling_alg1.digests");
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    assert_eq!(expected, actual, "null fault model must leave the golden stream untouched");
}

// ---------------------------------------------------------------------------
// 3. Self-healing fuzz sweep + no-healing control
// ---------------------------------------------------------------------------

/// Drive one fuzzed plan over the Section 5 overlay with healing.
fn healed_dos_run(plan: &FaultPlan) -> FaultyRunner<DosOverlay> {
    let ov = DosOverlay::new(512, DosParams::default(), plan.seed ^ 0xD05);
    let epoch_len = ov.epoch_len();
    let mut runner = FaultyRunner::new(ov, plan.fault_schedule(), HealingParams::default(), true)
        .with_dos_bound(plan.dos_bound);
    let mut adv = plan.dos_adversary(epoch_len);
    runner.run(&mut adv, plan.epochs * epoch_len);
    runner
}

/// Drive one fuzzed plan over the Section 6 overlay (churn + DoS + faults)
/// with healing.
fn healed_churndos_run(plan: &FaultPlan) -> FaultyRunner<ChurnDosOverlay> {
    let ov = ChurnDosOverlay::new(600, ChurnDosParams::default(), plan.seed ^ 0xCD);
    let epoch_len = ov.epoch_len();
    let mut runner = FaultyRunner::new(ov, plan.fault_schedule(), HealingParams::default(), true)
        .with_dos_bound(plan.dos_bound);
    let mut adv = plan.dos_adversary(epoch_len);
    let mut churn = plan.churn_schedule(1_000_000);
    let mut churn_rng = simnet::rng::stream(plan.seed, 6, 6);
    for _ in 0..plan.epochs {
        let members = reconfig_core::healing::HealableOverlay::members_sorted(&runner.overlay);
        let ev = churn.next(&members, &mut churn_rng);
        runner.overlay.apply_churn(&ev);
        runner.run(&mut adv, epoch_len);
    }
    runner
}

#[test]
fn healed_overlays_survive_fuzzed_composite_fault_schedules() {
    let limits = FuzzLimits::default();
    let mut desyncs = 0u64;
    let mut crashes = 0u64;
    for seed in 0..fuzz_cases() {
        let plan = FaultPlan::generate(seed, &limits);
        let (monitor, stats) = if seed % 2 == 0 {
            let r = healed_dos_run(&plan);
            (r.monitor.clone(), r.stats())
        } else {
            let r = healed_churndos_run(&plan);
            (r.monitor.clone(), r.stats())
        };
        for inv in [Invariant::Connectivity, Invariant::GroupSizeBand, Invariant::BlockingBudget] {
            assert_eq!(
                monitor.count(inv),
                0,
                "{} violated under healed plan [{}]: {}",
                inv.name(),
                plan.describe(),
                monitor.report()
            );
        }
        desyncs += stats.desync_events;
        crashes += stats.crashes;
    }
    // The sweep must actually exercise the fault space, not vacuously pass.
    assert!(desyncs > 0, "no plan produced a lost broadcast");
    assert!(crashes > 0, "no plan produced a crash");
}

#[test]
fn healed_expander_survives_fuzzed_composite_fault_schedules() {
    let limits = FuzzLimits::default();
    for seed in 0..fuzz_cases() / 4 {
        let plan = FaultPlan::generate(seed, &limits);
        let ov = ExpanderOverlay::new(64, 8, SamplingParams::default(), plan.seed ^ 0xE8);
        let mut run =
            ExpanderFaultRun::new(ov, plan.fault_schedule(), HealingParams::default(), true);
        for _ in 0..plan.epochs + 2 {
            run.run_epoch();
        }
        for inv in [Invariant::Connectivity, Invariant::DegreeBound] {
            assert_eq!(
                run.monitor.count(inv),
                0,
                "{} violated under healed plan [{}]: {}",
                inv.name(),
                plan.describe(),
                run.monitor.report()
            );
        }
    }
}

#[test]
fn no_healing_control_demonstrably_violates_what_healing_preserves() {
    // Identical overlay, adversary and fault schedule; the only difference
    // is the healing switch. Sticky desync accumulates in the control
    // until reconfiguration freezes and the invariants fall.
    let make = |healing: bool| {
        let ov = DosOverlay::new(512, DosParams::default(), 77);
        let epoch_len = ov.epoch_len();
        let mut runner = FaultyRunner::new(
            ov,
            FaultSchedule::new(99, 0.35, 0.002, None, 0.1),
            HealingParams::default(),
            healing,
        );
        let mut adv = DosAdversary::new(DosStrategy::Random, 0.3, 2 * epoch_len, 5);
        runner.run(&mut adv, 10 * epoch_len);
        runner
    };
    let healed = make(true);
    let control = make(false);
    assert_eq!(
        healed.monitor.count(Invariant::Connectivity),
        0,
        "healed: {}",
        healed.monitor.report()
    );
    assert_eq!(healed.monitor.count(Invariant::GroupSizeBand), 0);
    assert!(
        !control.monitor.ok(),
        "control with identical faults should degrade: {}",
        control.monitor.report()
    );
    // The control's stale membership keeps growing; healing keeps it low.
    assert!(
        control.desynced_len() + control.down_len() > healed.desynced_len() + healed.down_len()
    );
}

#[test]
fn no_healing_expander_control_fragments() {
    let make = |healing: bool| {
        let ov = ExpanderOverlay::new(64, 8, SamplingParams::default(), 13);
        let mut run = ExpanderFaultRun::new(
            ov,
            FaultSchedule::new(31, 0.3, 0.01, None, 0.1),
            HealingParams::default(),
            healing,
        );
        for _ in 0..8 {
            run.run_epoch();
        }
        run
    };
    let healed = make(true);
    let control = make(false);
    assert_eq!(
        healed.monitor.count(Invariant::Connectivity)
            + healed.monitor.count(Invariant::DegreeBound),
        0,
        "healed: {}",
        healed.monitor.report()
    );
    assert!(!control.monitor.ok(), "control: {}", control.monitor.report());
}

#[test]
fn faulty_healing_runs_replay_identically() {
    // The whole stack — fuzzed plan, DoS adversary, fault schedule,
    // healing decisions — is a pure function of the seed.
    let run_once = |seed: u64| {
        let plan = FaultPlan::generate(seed, &FuzzLimits::default());
        let r = healed_dos_run(&plan);
        (r.overlay.state_digest(), format!("{:?}", r.stats()), r.monitor.total())
    };
    for seed in [0u64, 3, 17] {
        assert_eq!(run_once(seed), run_once(seed));
    }
}
