//! Digest parity of the engine across shard counts.
//!
//! The committed golden digest streams under `tests/golden/` are the
//! oracle — four of them were recorded when the runners still sat on the
//! boxed-slot engine this one replaced: the engine must reproduce them
//! byte-for-byte at every shard count, driven through the same public
//! runners (`reconfig_core::backend::with_backend` sets the shard count
//! without touching any call site). On top of the pinned runs, a proptest
//! sweeps fuzzed fault plans and checks shard-count invariance of raw
//! engine runs under DoS blocks, churn, link faults and crashes.

use overlay_adversary::churn::{ChurnSchedule, ChurnStrategy};
use overlay_adversary::dos::{DosAdversary, DosStrategy};
use overlay_adversary::fuzz::{FaultPlan, FuzzLimits};
use overlay_graphs::HGraph;
use proptest::prelude::*;
use rand::RngExt;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use reconfig_core::backend::{with_backend, Backend};
use reconfig_core::churndos::{ChurnDosOverlay, ChurnDosParams};
use reconfig_core::config::SamplingParams;
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{ExpanderFaultRun, HealingParams};
use reconfig_core::reconfig::ExpanderOverlay;
use reconfig_core::sampling::run_alg1_digested;
use simnet::{
    BlockSet, Ctx, FaultModel, LinkFaults, NodeFault, NodeId, Protocol, RoundDigest, SimEngine,
};
use simnet_xl::XlNetwork;
use std::path::PathBuf;

/// Shard counts every parity check runs at: the serial edge case, the
/// smallest parallel split, a prime that misaligns with everything, and
/// the auto-clamp ceiling.
const SHARD_COUNTS: [usize; 4] = [1, 2, 7, 16];

/// Body lines (digest records) of a committed golden file.
fn golden_lines(name: &str) -> Vec<String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden").join(name);
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden file {}: {e}", path.display()));
    text.lines().filter(|l| !l.starts_with('#')).map(String::from).collect()
}

fn digest_lines(digests: &[RoundDigest]) -> Vec<String> {
    digests.iter().map(|d| format!("{} {:016x}", d.round, d.value)).collect()
}

// ---------------------------------------------------------------------------
// Golden families on the sharded backend
// ---------------------------------------------------------------------------

#[test]
fn golden_sampling_alg1_reproduces_on_xl_at_every_shard_count() {
    let golden = golden_lines("sampling_alg1.digests");
    let nodes: Vec<NodeId> = (0..32).map(NodeId).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(0xA11CE);
    let graph = HGraph::random(&nodes, 8, &mut rng);
    let params = SamplingParams::default();
    let (default_samples, _, _) = run_alg1_digested(&graph, &params, 42);
    for shards in SHARD_COUNTS {
        let (samples, _, digests) =
            with_backend(Backend::parity(shards), || run_alg1_digested(&graph, &params, 42));
        assert_eq!(digest_lines(&digests), golden, "xl:{shards} diverged from the golden stream");
        assert_eq!(samples, default_samples, "xl:{shards} returned different samples");
    }
}

#[test]
fn golden_reconfig_expander_reproduces_on_xl_at_every_shard_count() {
    let golden = golden_lines("reconfig_expander.digests");
    for shards in SHARD_COUNTS {
        let lines = with_backend(Backend::parity(shards), || {
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
            lines
        });
        assert_eq!(lines, golden, "xl:{shards} diverged from the golden stream");
    }
}

#[test]
fn golden_dos_overlay_is_backend_independent() {
    // The Section 5/6 overlays digest supernode structures that never
    // instantiate a simnet engine — the backend knob must not leak into
    // them. Reproducing the committed stream under `xl` proves it doesn't.
    let golden = golden_lines("dos_overlay.digests");
    let lines = with_backend(Backend::parity(7), || {
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
    assert_eq!(lines, golden);
}

#[test]
fn golden_churndos_overlay_is_backend_independent() {
    let golden = golden_lines("churndos_overlay.digests");
    let lines = with_backend(Backend::parity(7), || {
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
    assert_eq!(lines, golden);
}

// ---------------------------------------------------------------------------
// Healed fault runs through the backend knob
// ---------------------------------------------------------------------------

#[test]
fn healed_expander_fault_run_matches_legacy_on_xl() {
    // The self-healing stack (FaultSchedule + monitors + reconfiguration
    // epochs) reaches the engine through `run_epoch`; at every shard count
    // the state digest and the monitor's violation count are the ones
    // recorded under the `legacy` backend at 867e6f0, the last commit
    // that had one.
    let run = || {
        let plan = FaultPlan::generate(5, &FuzzLimits::default());
        let ov = ExpanderOverlay::new(48, 8, SamplingParams::default(), plan.seed ^ 0xE8);
        let mut run =
            ExpanderFaultRun::new(ov, plan.fault_schedule(), HealingParams::default(), true);
        for _ in 0..3 {
            run.run_epoch();
        }
        (run.overlay.state_digest(), run.monitor.total())
    };
    const LEGACY: (u64, u64) = (0x050d_2aee_50c0_6a94, 0);
    for shards in [1, 2, 7] {
        assert_eq!(with_backend(Backend::parity(shards), run), LEGACY, "xl:{shards}");
    }
}

// ---------------------------------------------------------------------------
// Fuzzed shard-count invariance on the raw engine
// ---------------------------------------------------------------------------

/// Chatty protocol with a finite activity budget: mixes its inbox, sends
/// two RNG-addressed messages per active round, then goes quiescent (so
/// the sweep also exercises the active-set worklist); crash-recovery
/// re-activates it.
struct Chatter {
    n: u64,
    acc: u64,
    budget: u64,
}

impl Protocol for Chatter {
    type Msg = u64;

    fn digest(&self, d: &mut simnet::Digest) {
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
        self.budget = 8;
    }

    fn quiescent(&self) -> bool {
        self.budget == 0
    }
}

/// Drive one engine through the plan-derived schedule: link faults and
/// crashes from the plan's composite-fault fields, per-round DoS blocks
/// drawn at the plan's blocking bound, and a churn burst at the plan's
/// intensity. Returns the digest stream.
fn plan_run<E: SimEngine<Chatter>>(net: &mut E, plan: &FaultPlan) -> Vec<RoundDigest> {
    let n = 48u64;
    let mut faults = FaultModel::new(plan.seed ^ 0xF017).with_link(LinkFaults {
        drop_prob: plan.link_loss,
        dup_prob: plan.link_loss * 0.5,
        delay_prob: plan.link_loss,
        max_delay: 1 + plan.lateness_factor.min(4),
    });
    if plan.crash_hazard > 0.0 {
        let victim = NodeId(plan.seed % n);
        let at = 3 + plan.seed % 5;
        faults = match plan.crash_recover_after {
            Some(d) => faults
                .with_node_fault(victim, NodeFault::CrashRecover { at, down_for: d.clamp(1, 6) }),
            None => faults.with_node_fault(victim, NodeFault::CrashStop { at }),
        };
    }
    net.set_fault_model(faults);
    for i in 0..n {
        net.add_node(NodeId(i), Chatter { n, acc: i, budget: 18 });
    }
    net.enable_digests();
    let mut rng = simnet::rng::stream(plan.seed, 7, 0xB10C);
    for r in 0..24u64 {
        if r == 8 && plan.churn_intensity > 0.3 {
            let gone = NodeId(plan.seed % n);
            net.remove_node(gone);
            net.add_node(NodeId(n + r), Chatter { n, acc: 0, budget: 12 });
        }
        let mut blocked = BlockSet::none();
        for id in 0..n {
            if rng.random::<f64>() < plan.dos_bound {
                blocked.insert(NodeId(id));
            }
        }
        net.step_blocked(&blocked);
    }
    net.trace().digests().to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fuzzed_plans_are_shard_count_invariant(seed in 0u64..10_000) {
        let plan = FaultPlan::generate(seed, &FuzzLimits::default());
        let [one, rest @ ..] = SHARD_COUNTS;
        let expected = plan_run(&mut XlNetwork::with_shards(plan.seed, one), &plan);
        prop_assert!(!expected.is_empty());
        for shards in rest {
            let got = plan_run(&mut XlNetwork::with_shards(plan.seed, shards), &plan);
            prop_assert_eq!(&got, &expected, "xl:{} diverged [{}]", shards, plan.describe());
        }
    }
}
