//! Byzantine-campaign fuzzing: no fuzzed campaign, run against the *full*
//! defense stack, may violate an invariant the honest run satisfies.
//!
//! Each case draws a campaign configuration from a seed — family (Sybil /
//! forge / eclipse / chaos), Byzantine identity fraction, join rate,
//! lateness — always inside the budget regime A7 shows the defenses
//! contain (`results/a7.json`: every all-defenses survival threshold sits
//! well above the fuzzed fraction cap). The control is the same overlay,
//! same defenses, same rounds, against the same campaign stripped down to
//! its *corruptions* (the out-of-band power: no defense can stop the
//! adversary from owning a node it already owns — and corrupted nodes sit
//! wherever placement put them). Any invariant the corrupt-only control
//! keeps clean, the full campaign — which additionally acts *through the
//! protocol* via Sybil joins, placement claims and forged membership
//! updates — must keep clean too: that delta is precisely what the
//! rate-limit / quorum / audit stack guarantees. Everything is a
//! deterministic function of the case seed, so a failure message's
//! `describe()` replays the exact campaign.
//!
//! `BYZ_CASES` overrides the default depth (40 on the PR gate; the
//! nightly job runs 200).

use overlay_adversary::byzantine::{ByzBudget, ByzCampaign, ByzFamily, ByzHarness};
use rand::RngExt;
use reconfig_core::byzantine::{ByzantineRunner, DefenseConfig};
use reconfig_core::dos::DosParams;
use reconfig_core::monitor::Invariant;

/// Fuzzed campaigns per run; `BYZ_CASES` overrides the default 40
/// (validated against [1, 100_000] — garbage or out-of-range values abort
/// with a message naming the variable instead of silently falling back).
fn byz_cases() -> u64 {
    overlay_adversary::knobs::env_usize_knob("BYZ_CASES", 40, 1, 100_000)
        .unwrap_or_else(|e| panic!("{e}")) as u64
}

const N: usize = 128;
/// Cap on the fuzzed Byzantine fraction: less than half the smallest
/// all-defenses survival threshold A7 measures (eclipse, f* = 0.18 at
/// n = 512 / 0.24 at the smoke n = 128), so a defended run violating
/// anything is a defense regression, not an over-budget adversary.
const MAX_FRACTION: f64 = 0.10;

/// One fuzzed campaign configuration, drawn deterministically from `seed`.
struct ByzCase {
    seed: u64,
    family: &'static str,
    fraction: f64,
    joins_per_round: usize,
    /// Index into {0, t/2, t, 2t}.
    late_sel: usize,
}

impl ByzCase {
    fn generate(seed: u64) -> Self {
        let mut rng = simnet::rng::stream(seed, 11, 0xB42);
        let families = ByzFamily::all();
        let family = families[rng.random_range(0..families.len())].name();
        let fraction = 0.02 + rng.random::<f64>() * (MAX_FRACTION - 0.02);
        let joins_per_round = rng.random_range(1..=6);
        let late_sel = rng.random_range(0..4usize);
        Self { seed, family, fraction, joins_per_round, late_sel }
    }

    fn describe(&self) -> String {
        format!(
            "byz-fuzz seed={} family={} fraction={:.3} joins/round={} late_sel={}",
            self.seed, self.family, self.fraction, self.joins_per_round, self.late_sel
        )
    }
}

/// Wraps a campaign and strips every in-protocol action, keeping only the
/// corruptions — the control arm: what the adversary gets "for free",
/// before it sends a single protocol message.
struct CorruptOnly<C>(C);

impl<C: ByzCampaign> ByzCampaign for CorruptOnly<C> {
    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn plan(
        &mut self,
        view: &overlay_adversary::lateness::SharedSnapshot,
        round: u64,
        n_current: usize,
        byz: &std::collections::BTreeSet<simnet::NodeId>,
    ) -> overlay_adversary::byzantine::ByzActions {
        let mut acts = self.0.plan(view, round, n_current, byz);
        acts.joins.clear();
        acts.forges.clear();
        acts.blocked = simnet::BlockSet::none();
        acts
    }
}

/// Per-invariant violation counts (plus the final overlay digest) of one
/// fully-defended run; `full = false` runs the corrupt-only control arm.
fn run_case(case: &ByzCase, full: bool) -> (Vec<(Invariant, u64)>, u64) {
    // Paper-default group sizing (`c = 4`), unlike A7's deliberately
    // fragile `c = 1` regime: the defenses' guarantee is per-group and
    // the paper's w.h.p. properties assume Θ(log n)-sized groups. With
    // them, the 2-joins-per-group-per-epoch rate limit structurally
    // rules out majority capture at the fuzzed fractions.
    let mut r =
        ByzantineRunner::new(N, DosParams::default(), case.seed ^ 0x0D5, DefenseConfig::all());
    let epoch = r.overlay().epoch_len();
    let lateness = [0, epoch / 2, epoch, 2 * epoch][case.late_sel];
    let budget = ByzBudget {
        byz_fraction: case.fraction,
        joins_per_round: case.joins_per_round,
        block_bound: 0.0,
    };
    let campaign = ByzFamily::by_name(case.family)
        .unwrap_or_else(|| panic!("unknown family [{}]", case.describe()));
    if full {
        let mut adv = ByzHarness::new(campaign, budget, lateness);
        r.run(&mut adv, 2 * epoch, 0.0);
    } else {
        let mut adv = ByzHarness::new(CorruptOnly(campaign), budget, lateness);
        r.run(&mut adv, 2 * epoch, 0.0);
    }
    let counts = Invariant::ALL.iter().map(|&inv| (inv, r.monitor.count(inv))).collect();
    (counts, r.overlay().state_digest())
}

#[test]
fn fuzzed_defended_campaigns_preserve_corrupt_only_invariants() {
    for seed in 0..byz_cases() {
        let case = ByzCase::generate(seed);
        let (control, _) = run_case(&case, false);
        let (attacked, _) = run_case(&case, true);
        for ((inv, c), (_, a)) in control.iter().zip(&attacked) {
            assert!(
                *c > 0 || *a == 0,
                "defended {} violated {} ({a} times) where the corrupt-only control was clean [{}]",
                case.family,
                inv.name(),
                case.describe()
            );
        }
    }
}

#[test]
fn fuzzed_byzantine_runs_replay_identically() {
    // Campaign, harness and runner are all RNG-free given the seed, so a
    // replay must agree bit-for-bit — counts and final overlay digest.
    for seed in 0..byz_cases().min(10) {
        let case = ByzCase::generate(seed);
        let first = run_case(&case, true);
        let second = run_case(&case, true);
        assert_eq!(first, second, "replay diverged [{}]", case.describe());
    }
}
