//! Counterexample shrinking for adversarial traces.
//!
//! When a fuzzed or adaptive run violates an invariant, the raw witness is
//! a long per-round block-set trace — far too big to reason about. The
//! shrinker reduces it to a minimal reproducing prefix with three
//! delta-debugging passes, each guarded by an oracle callback that re-runs
//! the scenario and reports whether the violation still fires:
//!
//! 1. **prefix truncation** — binary-search the shortest violating prefix;
//! 2. **round sparsification** — try emptying whole rounds, last to first;
//! 3. **node minimization** — per surviving round, drop halves then single
//!    nodes (classic ddmin granularity refinement).
//!
//! Every pass preserves the invariant "the current candidate violates", so
//! the result is always a valid, strictly-no-larger reproduction. The
//! oracle budget caps total re-runs; an exhausted budget returns the best
//! candidate found so far.
//!
//! [`ReplayAdversary`] plays a trace back verbatim through the
//! [`Attacker`] interface, and [`Repro`] bundles a trace with the scenario
//! parameters as a replayable JSON file.

use crate::adaptive::Attacker;
use crate::lateness::SharedSnapshot;
use serde_json::Value;
use simnet::checkpoint::{
    check_format, f64_bits, get_f64_bits, get_str, get_u64, get_usize, missing, read_value,
    write_value_atomic, Checkpoint, CkptResult,
};
use simnet::BlockSet;
use std::path::Path;

/// A per-round block-set trace: `rounds[i]` is the set blocked in overlay
/// round `i`. Rounds past the end block nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AdversaryTrace {
    /// Block set per round, indexed by round number.
    pub rounds: Vec<BlockSet>,
}

impl AdversaryTrace {
    /// Trace from explicit per-round sets.
    pub fn new(rounds: Vec<BlockSet>) -> Self {
        Self { rounds }
    }

    /// Trace from `(round, blocked)` emissions (as recorded by
    /// [`crate::adaptive::AdaptiveHarness::trace`]); gaps block nothing.
    pub fn from_emissions(emissions: &[(u64, BlockSet)]) -> Self {
        let len = emissions.iter().map(|&(r, _)| r as usize + 1).max().unwrap_or(0);
        let mut rounds = vec![BlockSet::none(); len];
        for (r, b) in emissions {
            rounds[*r as usize] = b.clone();
        }
        Self { rounds }
    }

    /// Number of rounds covered.
    pub fn len(&self) -> usize {
        self.rounds.len()
    }

    /// True when no rounds are covered.
    pub fn is_empty(&self) -> bool {
        self.rounds.is_empty()
    }

    /// Total node-blocks across all rounds.
    pub fn total_blocked(&self) -> usize {
        self.rounds.iter().map(BlockSet::len).sum()
    }

    /// `(rounds, total node-blocks)` — the shrinker's size measure.
    pub fn size(&self) -> (usize, usize) {
        (self.len(), self.total_blocked())
    }

    /// Strictly smaller: no larger in both coordinates, smaller in one.
    pub fn strictly_smaller_than(&self, other: &Self) -> bool {
        let (r, b) = self.size();
        let (or, ob) = other.size();
        r <= or && b <= ob && (r < or || b < ob)
    }

    fn prefix(&self, len: usize) -> Self {
        Self { rounds: self.rounds[..len.min(self.rounds.len())].to_vec() }
    }
}

impl Checkpoint for AdversaryTrace {
    fn save(&self) -> Value {
        Value::Array(self.rounds.iter().map(Checkpoint::save).collect())
    }

    fn load(v: &Value) -> CkptResult<Self> {
        let rounds = v
            .as_array()
            .ok_or_else(|| missing("trace rounds"))?
            .iter()
            .map(BlockSet::load)
            .collect::<CkptResult<Vec<BlockSet>>>()?;
        Ok(Self { rounds })
    }
}

/// Plays an [`AdversaryTrace`] back verbatim: round `i` emits
/// `trace.rounds[i]` regardless of topology. Budget legality is the
/// recorded trace's property, not re-derived.
#[derive(Clone, Debug)]
pub struct ReplayAdversary {
    trace: AdversaryTrace,
}

impl ReplayAdversary {
    /// Replay the given trace.
    pub fn new(trace: AdversaryTrace) -> Self {
        Self { trace }
    }
}

impl Attacker for ReplayAdversary {
    fn observe(&mut self, _snap: SharedSnapshot) {}

    fn block(&mut self, round: u64, _n_current: usize) -> BlockSet {
        self.trace.rounds.get(round as usize).cloned().unwrap_or_else(BlockSet::none)
    }

    fn label(&self) -> String {
        format!("replay[{} rounds]", self.trace.len())
    }
}

/// What the shrinker did.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShrinkReport {
    /// Oracle invocations spent.
    pub tests_run: usize,
    /// `(rounds, node-blocks)` of the input trace.
    pub original: (usize, usize),
    /// `(rounds, node-blocks)` of the result.
    pub shrunk: (usize, usize),
}

/// Shrink a violating trace to a smaller trace that still violates.
///
/// `violates(candidate)` must re-run the scenario under the candidate
/// trace and report whether the invariant still breaks; it is called at
/// most `max_tests` times. If the input itself does not violate, it is
/// returned unchanged (`tests_run == 1`).
pub fn shrink_trace<F>(
    trace: &AdversaryTrace,
    mut violates: F,
    max_tests: usize,
) -> (AdversaryTrace, ShrinkReport)
where
    F: FnMut(&AdversaryTrace) -> bool,
{
    let mut report = ShrinkReport { original: trace.size(), ..Default::default() };
    let budget = max_tests.max(1);
    let mut test = |t: &AdversaryTrace, report: &mut ShrinkReport| -> Option<bool> {
        if report.tests_run >= budget {
            return None;
        }
        report.tests_run += 1;
        Some(violates(t))
    };

    if test(trace, &mut report) != Some(true) {
        report.shrunk = trace.size();
        return (trace.clone(), report);
    }
    let mut best = trace.clone();

    // Pass 1: shortest violating prefix, by bisection. `hi` always
    // violates; `lo` is the largest known-non-violating length.
    let mut lo = 0usize;
    let mut hi = best.len();
    if hi > 0 && test(&best.prefix(0), &mut report) == Some(true) {
        hi = 0;
    }
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        match test(&best.prefix(mid), &mut report) {
            Some(true) => hi = mid,
            Some(false) => lo = mid,
            None => break,
        }
    }
    best = best.prefix(hi);

    // Pass 2: empty whole rounds, last to first. Later rounds are closer
    // to the violation and thus more likely load-bearing — clearing from
    // the back first removes the cheap wins early.
    for i in (0..best.len()).rev() {
        if best.rounds[i].is_empty() {
            continue;
        }
        let mut candidate = best.clone();
        candidate.rounds[i] = BlockSet::none();
        match test(&candidate, &mut report) {
            Some(true) => best = candidate,
            Some(false) => {}
            None => break,
        }
    }

    // Pass 3: per-round node minimization — halves first, then singles.
    'rounds: for i in 0..best.len() {
        // Halving.
        loop {
            let nodes: Vec<_> = best.rounds[i].iter().collect();
            if nodes.len() < 2 {
                break;
            }
            let mut halved = false;
            for keep in [&nodes[..nodes.len() / 2], &nodes[nodes.len() / 2..]] {
                let mut candidate = best.clone();
                candidate.rounds[i] = BlockSet::from_iter(keep.iter().copied());
                match test(&candidate, &mut report) {
                    Some(true) => {
                        best = candidate;
                        halved = true;
                        break;
                    }
                    Some(false) => {}
                    None => break 'rounds,
                }
            }
            if !halved {
                break;
            }
        }
        // Single-node removal.
        for v in best.rounds[i].iter().collect::<Vec<_>>() {
            let mut candidate = best.clone();
            candidate.rounds[i] = BlockSet::from_iter(best.rounds[i].iter().filter(|&w| w != v));
            match test(&candidate, &mut report) {
                Some(true) => best = candidate,
                Some(false) => {}
                None => break 'rounds,
            }
        }
    }

    report.shrunk = best.size();
    (best, report)
}

/// A replayable counterexample: the scenario parameters plus the
/// (shrunk) trace that violates an invariant under them.
#[derive(Clone, Debug)]
pub struct Repro {
    /// Overlay family (`"dos"`, `"churndos"`, ...).
    pub family: String,
    /// Adversary label the trace was recorded from.
    pub strategy: String,
    /// Overlay construction seed.
    pub seed: u64,
    /// Initial network size.
    pub n: usize,
    /// Blocking budget fraction the trace was recorded under.
    pub bound: f64,
    /// Lateness the adversary operated at.
    pub lateness: u64,
    /// The violating block-set trace.
    pub trace: AdversaryTrace,
}

impl Checkpoint for Repro {
    fn save(&self) -> Value {
        serde_json::json!({
            "format": "adversary-repro",
            "family": self.family.clone(),
            "strategy": self.strategy.clone(),
            "seed": self.seed,
            "n": self.n as u64,
            "bound": f64_bits(self.bound),
            "lateness": self.lateness,
            "trace": self.trace.save(),
        })
    }

    fn load(v: &Value) -> CkptResult<Self> {
        check_format(v, "adversary-repro")?;
        Ok(Self {
            family: get_str(v, "family")?.to_string(),
            strategy: get_str(v, "strategy")?.to_string(),
            seed: get_u64(v, "seed")?,
            n: get_usize(v, "n")?,
            bound: get_f64_bits(v, "bound")?,
            lateness: get_u64(v, "lateness")?,
            trace: AdversaryTrace::load(v.get("trace").ok_or_else(|| missing("trace"))?)?,
        })
    }
}

impl Repro {
    /// Write as a JSON repro file (atomic: tmp + rename).
    pub fn write(&self, path: &Path) -> CkptResult<()> {
        write_value_atomic(path, &self.save())
    }

    /// Load a repro file written by [`write`](Self::write).
    pub fn read(path: &Path) -> CkptResult<Self> {
        Self::load(&read_value(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeId;

    fn set(ids: &[u64]) -> BlockSet {
        BlockSet::from_iter(ids.iter().map(|&i| NodeId(i)))
    }

    #[test]
    fn trace_round_trips_through_checkpoint() {
        let t = AdversaryTrace::new(vec![set(&[1, 2]), BlockSet::none(), set(&[7])]);
        let back = AdversaryTrace::load(&t.save()).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn from_emissions_scatters_by_round() {
        let t = AdversaryTrace::from_emissions(&[(0, set(&[1])), (3, set(&[9]))]);
        assert_eq!(t.len(), 4);
        assert!(t.rounds[1].is_empty() && t.rounds[2].is_empty());
        assert_eq!(t.total_blocked(), 2);
    }

    #[test]
    fn shrinker_finds_the_minimal_core() {
        // Violation fires iff node 42 is blocked in some round >= 5.
        let mut rounds = vec![set(&[1, 2, 3]); 12];
        rounds[7] = set(&[10, 42, 99]);
        let t = AdversaryTrace::new(rounds);
        let oracle = |c: &AdversaryTrace| {
            c.rounds.iter().enumerate().any(|(i, b)| i >= 5 && b.contains(NodeId(42)))
        };
        let (shrunk, report) = shrink_trace(&t, oracle, 10_000);
        assert!(oracle(&shrunk), "the shrunk trace must still violate");
        assert!(shrunk.strictly_smaller_than(&t));
        assert_eq!(shrunk.len(), 8, "prefix should stop right after the trigger round");
        assert_eq!(shrunk.total_blocked(), 1, "only the trigger node survives");
        assert!(shrunk.rounds[7].contains(NodeId(42)));
        assert_eq!(report.shrunk, shrunk.size());
        assert!(report.tests_run <= 10_000);
    }

    #[test]
    fn non_violating_trace_is_returned_unchanged() {
        let t = AdversaryTrace::new(vec![set(&[1]); 4]);
        let (out, report) = shrink_trace(&t, |_| false, 100);
        assert_eq!(out, t);
        assert_eq!(report.tests_run, 1);
    }

    #[test]
    fn budget_exhaustion_still_returns_a_violating_trace() {
        let t = AdversaryTrace::new(vec![set(&[1, 2, 3, 4, 5]); 50]);
        let oracle = |c: &AdversaryTrace| c.total_blocked() >= 10;
        let (shrunk, report) = shrink_trace(&t, oracle, 5);
        assert!(oracle(&shrunk));
        assert_eq!(report.tests_run, 5);
    }

    #[test]
    fn replay_adversary_echoes_the_trace() {
        let t = AdversaryTrace::new(vec![set(&[3]), set(&[4, 5])]);
        let mut replay = ReplayAdversary::new(t);
        replay.observe(crate::lateness::TopologySnapshot::nodes_only(0, vec![NodeId(0)]).into());
        assert_eq!(replay.block(0, 10), set(&[3]));
        assert_eq!(replay.block(1, 10), set(&[4, 5]));
        assert!(replay.block(2, 10).is_empty(), "past the trace end nothing is blocked");
    }

    #[test]
    fn repro_file_round_trips() {
        let repro = Repro {
            family: "dos".into(),
            strategy: "adaptive:min-cut".into(),
            seed: 11,
            n: 256,
            bound: 0.25,
            lateness: 16,
            trace: AdversaryTrace::new(vec![set(&[1, 2])]),
        };
        let dir = std::env::temp_dir().join("overlay-repro-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repro.json");
        repro.write(&path).unwrap();
        let back = Repro::read(&path).unwrap();
        assert_eq!(back.family, "dos");
        assert_eq!(back.bound, 0.25);
        assert_eq!(back.trace, repro.trace);
        std::fs::remove_dir_all(&dir).ok();
    }
}
