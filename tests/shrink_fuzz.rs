//! Shrinker fuzzing: delta-debugging must stay sound on arbitrary traces.
//!
//! `shrink_trace` promises that its output still violates the oracle and
//! never grows. Those are easy properties to break silently — an
//! off-by-one in the prefix bisection returns a non-violating trace, a
//! sloppy pass 3 grows a round — so this target fuzzes the shrinker the
//! same way `fault_fuzz` fuzzes the overlays: `FUZZ_CASES` seeds (default
//! 100, deep nightly runs override the env var), each drawing a random
//! trace plus a random oracle, asserting soundness after every run and
//! exact minimality when the oracle budget is generous.
//!
//! Three oracle regimes:
//!
//! 1. **synthetic monotone** — the violation is "these k (round, node)
//!    pairs are all blocked". The minimal core is known in closed form, so
//!    the shrinker's output can be checked for *exact* minimality, not
//!    just progress.
//! 2. **starved budget** — the oracle allowance is tiny; the shrinker must
//!    still return a violating, no-larger trace when cut off mid-pass.
//! 3. **live overlay** — traces recorded from the adaptive min-cut
//!    attacker against real [`DosOverlay`]s across seeds, shrunk against
//!    the real replay oracle (the `soak` binary's exact path).

use overlay_adversary::adaptive::{AdaptiveHarness, MinCutAttack};
use overlay_adversary::shrink::{shrink_trace, AdversaryTrace, ReplayAdversary};
use rand::RngExt;
use reconfig_core::dos::{DosOverlay, DosParams};
use reconfig_core::healing::{FaultyRunner, HealableOverlay};
use simnet::{BlockSet, NodeId};

/// Cases per regime; `FUZZ_CASES` overrides the default 100 (validated
/// against [1, 100_000] as everywhere else; out-of-range values abort).
fn fuzz_cases() -> u64 {
    overlay_adversary::knobs::env_knob::<usize>("FUZZ_CASES", 100, 1, 100_000)
        .unwrap_or_else(|e| panic!("{e}")) as u64
}

/// A random trace: 4..40 rounds, each blocking 0..8 of 64 nodes.
fn random_trace(rng: &mut impl rand::RngExt) -> AdversaryTrace {
    let len = rng.random_range(4..40usize);
    let rounds = (0..len)
        .map(|_| {
            let k = rng.random_range(0..8usize);
            let mut set = BlockSet::none();
            for _ in 0..k {
                set.insert(NodeId(rng.random_range(0..64u64)));
            }
            set
        })
        .collect();
    AdversaryTrace::new(rounds)
}

/// Pick 1..=3 distinct (round, node) pairs actually blocked in `trace`;
/// inserts one if the trace came up all-empty.
fn required_pairs(trace: &mut AdversaryTrace, rng: &mut impl rand::RngExt) -> Vec<(usize, NodeId)> {
    let mut present: Vec<(usize, NodeId)> =
        trace.rounds.iter().enumerate().flat_map(|(i, b)| b.iter().map(move |v| (i, v))).collect();
    if present.is_empty() {
        trace.rounds[0].insert(NodeId(0));
        present.push((0, NodeId(0)));
    }
    let want = rng.random_range(1..=3usize).min(present.len());
    let mut picked = Vec::new();
    while picked.len() < want {
        let p = present[rng.random_range(0..present.len())];
        if !picked.contains(&p) {
            picked.push(p);
        }
    }
    picked
}

fn all_present(t: &AdversaryTrace, pairs: &[(usize, NodeId)]) -> bool {
    pairs.iter().all(|&(r, v)| t.rounds.get(r).is_some_and(|b| b.contains(v)))
}

#[test]
fn fuzzed_monotone_oracles_shrink_to_the_exact_minimal_core() {
    for seed in 0..fuzz_cases() {
        let mut rng = simnet::rng::stream(seed, 6, 0x5412);
        let mut trace = random_trace(&mut rng);
        let pairs = required_pairs(&mut trace, &mut rng);
        let oracle = |t: &AdversaryTrace| all_present(t, &pairs);
        assert!(oracle(&trace), "generator must seed a violating trace (seed {seed})");

        let (shrunk, report) = shrink_trace(&trace, oracle, 50_000);
        assert!(oracle(&shrunk), "shrunk trace stopped violating (seed {seed})");
        assert!(report.tests_run <= 50_000);
        assert_eq!(report.shrunk, shrunk.size(), "report out of sync (seed {seed})");
        // The budget is generous, so the result must be the closed-form
        // minimum: the prefix ends at the last required round and exactly
        // the required node-blocks survive.
        let last = pairs.iter().map(|&(r, _)| r).max().unwrap();
        assert_eq!(shrunk.len(), last + 1, "prefix not minimal (seed {seed})");
        assert_eq!(shrunk.total_blocked(), pairs.len(), "extra blocks survived (seed {seed})");
    }
}

#[test]
fn fuzzed_starved_budgets_still_return_sound_results() {
    for seed in 0..fuzz_cases() {
        let mut rng = simnet::rng::stream(seed, 6, 0x5413);
        let mut trace = random_trace(&mut rng);
        let pairs = required_pairs(&mut trace, &mut rng);
        let oracle = |t: &AdversaryTrace| all_present(t, &pairs);
        let budget = rng.random_range(1..25usize);

        let (shrunk, report) = shrink_trace(&trace, oracle, budget);
        assert!(oracle(&shrunk), "starved shrink lost the violation (seed {seed})");
        assert!(report.tests_run <= budget, "oracle budget overdrawn (seed {seed})");
        let (r, b) = shrunk.size();
        let (or, ob) = trace.size();
        assert!(r <= or && b <= ob, "shrink grew the trace (seed {seed})");
    }
}

/// Replay `trace` against a fresh overlay; true if any round disconnects.
/// Same scenario as `tests/adaptive_adversary.rs`: `group_c = 1` keeps
/// the cheapest group separator inside the 0.3 budget.
fn trace_disconnects(trace: &AdversaryTrace, seed: u64) -> bool {
    let params = DosParams { group_c: 1.0, ..DosParams::default() };
    let mut replay = ReplayAdversary::new(trace.clone());
    let run = FaultyRunner::paper_model(DosOverlay::new(512, params, seed))
        .run(&mut replay, trace.len() as u64);
    run.connected_rounds < run.rounds
}

#[test]
fn fuzzed_live_min_cut_violations_shrink_and_replay() {
    // Live-overlay oracle runs are ~two orders of magnitude costlier than
    // the synthetic ones, so scale the case count down instead of
    // ignoring the knob.
    let cases = (fuzz_cases() / 25).clamp(1, 8);
    let params = DosParams { group_c: 1.0, ..DosParams::default() };
    let mut violations = 0u32;
    for seed in 100..100 + cases {
        let ov = DosOverlay::new(512, params, seed);
        let rounds = 2 * ov.epoch_len();
        let mut adv = AdaptiveHarness::new(MinCutAttack::default(), 0.3, 0).recording();
        let run = FaultyRunner::paper_model(ov).run(&mut adv, rounds);
        if run.connected_rounds == run.rounds {
            continue; // this topology resisted; the next seed won't
        }
        violations += 1;
        let original = AdversaryTrace::from_emissions(adv.trace());
        assert!(trace_disconnects(&original, seed), "recorded trace must replay (seed {seed})");
        let (shrunk, report) = shrink_trace(&original, |t| trace_disconnects(t, seed), 300);
        assert!(trace_disconnects(&shrunk, seed), "shrunk trace must replay (seed {seed})");
        assert!(
            shrunk.strictly_smaller_than(&original),
            "no progress on seed {seed}: {:?} -> {:?}",
            report.original,
            report.shrunk
        );
    }
    assert!(violations > 0, "no seed produced a violation; the regime is miscalibrated");
}
