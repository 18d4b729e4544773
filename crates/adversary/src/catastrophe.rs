//! Catastrophe campaigns: composing correlated burst faults with the
//! blocking adversaries, plus shrinkable repro traces.
//!
//! A catastrophe scenario has two independent axes: an *ambient* blocking
//! adversary (any [`Attacker`]) that keeps paper-model DoS pressure on,
//! and a [`CatastropheSpec`] of correlated bursts / timed partitions that
//! the fault runner's catastrophe layer injects out of band.
//! [`CatastropheCampaign`] bundles the two into one object so an
//! experiment cell or a fuzz case is a single value; the blocking side
//! delegates verbatim to the inner attacker (the campaign never spends
//! blocking budget itself — bursts are crashes, not blocks, and are judged
//! by the recovery invariants instead).
//!
//! For minimal violation repros, [`CatastropheTrace`] records both axes —
//! per-round block sets and per-round injected crash sets — and
//! [`shrink_catastrophe`] reduces them with the existing delta-debugging
//! shrinker ([`shrink_trace`]), one axis at a time: first the crash trace
//! (holding blocks fixed), then the block trace (holding the shrunk
//! crashes fixed). The crash axis is what the catastrophe layer captures
//! (`reconfig_core::recovery::Catastrophes::crash_trace`): round `i`'s
//! crash set is the set of burst victims that layer crash-stopped in round
//! `i`; the block axis replays as round `i`'s set through the ordinary
//! step path.

use crate::adaptive::Attacker;
use crate::lateness::SharedSnapshot;
use crate::shrink::{shrink_trace, AdversaryTrace, ShrinkReport};
use serde_json::Value;
use simnet::checkpoint::{
    check_format, field, get_str, get_u64, get_usize, get_vec, read_value, save_slice,
    write_value_atomic, Checkpoint, CkptResult,
};
use simnet::{BlockSet, Burst, BurstSchedule, TimedPartition};
use std::path::Path;

/// The catastrophe axis of a campaign as checkpointable data: the seed
/// and event list from which a [`BurstSchedule`] is derived. Keeping the
/// spec (not the schedule) serializable means a repro file pins the
/// events while the RNG stream is rebuilt from the seed at replay.
#[derive(Clone, Debug, PartialEq)]
pub struct CatastropheSpec {
    /// Seed of the schedule's draw stream.
    pub seed: u64,
    /// Mass-crash events.
    pub bursts: Vec<Burst>,
    /// Finite partitions with heal rounds.
    pub partitions: Vec<TimedPartition>,
}

impl CatastropheSpec {
    /// A spec with no events.
    pub fn new(seed: u64) -> Self {
        Self { seed, bursts: Vec::new(), partitions: Vec::new() }
    }

    /// Add a burst (builder-style).
    pub fn with_burst(mut self, b: Burst) -> Self {
        self.bursts.push(b);
        self
    }

    /// Add a timed partition (builder-style).
    pub fn with_partition(mut self, p: TimedPartition) -> Self {
        self.partitions.push(p);
        self
    }

    /// Materialize the replayable [`BurstSchedule`] (validation happens
    /// here, via the schedule's builders).
    pub fn schedule(&self) -> BurstSchedule {
        let mut s = BurstSchedule::new(self.seed);
        for &b in &self.bursts {
            s = s.with_burst(b);
        }
        for &p in &self.partitions {
            s = s.with_partition(p);
        }
        s
    }
}

impl Checkpoint for CatastropheSpec {
    fn save(&self) -> Value {
        serde_json::json!({
            "seed": self.seed,
            "bursts": save_slice(&self.bursts),
            "partitions": save_slice(&self.partitions),
        })
    }

    fn load(v: &Value) -> CkptResult<Self> {
        Ok(Self {
            seed: get_u64(v, "seed")?,
            bursts: get_vec(v, "bursts")?,
            partitions: get_vec(v, "partitions")?,
        })
    }
}

/// An ambient blocking attacker bundled with a catastrophe spec. The
/// [`Attacker`] impl delegates to the inner adversary unchanged; the
/// recovery runner takes the spec's schedule separately.
pub struct CatastropheCampaign<A: Attacker> {
    /// The ambient blocking adversary.
    pub inner: A,
    /// The correlated-fault axis.
    pub spec: CatastropheSpec,
}

impl<A: Attacker> CatastropheCampaign<A> {
    /// Bundle an attacker with a catastrophe spec.
    pub fn new(inner: A, spec: CatastropheSpec) -> Self {
        Self { inner, spec }
    }
}

impl<A: Attacker> Attacker for CatastropheCampaign<A> {
    fn observe(&mut self, snap: SharedSnapshot) {
        self.inner.observe(snap);
    }

    fn block(&mut self, round: u64, n_current: usize) -> BlockSet {
        self.inner.block(round, n_current)
    }

    fn label(&self) -> String {
        format!(
            "catastrophe[{}b/{}p]+{}",
            self.spec.bursts.len(),
            self.spec.partitions.len(),
            self.inner.label()
        )
    }
}

/// A two-axis violation witness: per-round block sets and per-round
/// injected crash sets (both indexed by round, reusing the
/// [`AdversaryTrace`] representation — a "crash set" is a [`BlockSet`] of
/// node ids).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CatastropheTrace {
    /// Ambient blocking per round.
    pub blocks: AdversaryTrace,
    /// Crash injections per round (from
    /// `Catastrophes::crash_trace`-style captures).
    pub crashes: AdversaryTrace,
}

impl CatastropheTrace {
    /// Build from the two axes.
    pub fn new(blocks: AdversaryTrace, crashes: AdversaryTrace) -> Self {
        Self { blocks, crashes }
    }

    /// `(block rounds, node-blocks, crash rounds, node-crashes)`.
    pub fn size(&self) -> (usize, usize, usize, usize) {
        let (br, bb) = self.blocks.size();
        let (cr, cb) = self.crashes.size();
        (br, bb, cr, cb)
    }
}

impl Checkpoint for CatastropheTrace {
    fn save(&self) -> Value {
        serde_json::json!({
            "blocks": self.blocks.save(),
            "crashes": self.crashes.save(),
        })
    }

    fn load(v: &Value) -> CkptResult<Self> {
        Ok(Self {
            blocks: AdversaryTrace::load(field(v, "blocks")?)?,
            crashes: AdversaryTrace::load(field(v, "crashes")?)?,
        })
    }
}

/// Shrink a catastrophe witness one axis at a time: the crash trace first
/// (bursts are usually the interesting axis; blocks held fixed), then the
/// block trace (shrunk crashes held fixed). The oracle sees the full
/// candidate both times. `max_tests` caps *each* pass.
pub fn shrink_catastrophe<F>(
    trace: &CatastropheTrace,
    mut violates: F,
    max_tests: usize,
) -> (CatastropheTrace, ShrinkReport, ShrinkReport)
where
    F: FnMut(&CatastropheTrace) -> bool,
{
    let blocks_fixed = trace.blocks.clone();
    let (crashes, crash_report) = shrink_trace(
        &trace.crashes,
        |cand| violates(&CatastropheTrace::new(blocks_fixed.clone(), cand.clone())),
        max_tests,
    );
    let crashes_fixed = crashes.clone();
    let (blocks, block_report) = shrink_trace(
        &trace.blocks,
        |cand| violates(&CatastropheTrace::new(cand.clone(), crashes_fixed.clone())),
        max_tests,
    );
    (CatastropheTrace::new(blocks, crashes), crash_report, block_report)
}

/// A replayable catastrophe repro file: scenario parameters, the spec
/// that generated the events, and the (possibly shrunk) two-axis trace.
#[derive(Clone, Debug, PartialEq)]
pub struct CatastropheRepro {
    /// Overlay family (`"dos"`, `"churndos"`).
    pub family: String,
    /// Overlay construction seed.
    pub seed: u64,
    /// Initial network size.
    pub n: usize,
    /// The catastrophe axis that produced the trace.
    pub spec: CatastropheSpec,
    /// The witness.
    pub trace: CatastropheTrace,
}

impl Checkpoint for CatastropheRepro {
    fn save(&self) -> Value {
        serde_json::json!({
            "format": "catastrophe-repro",
            "family": self.family.clone(),
            "seed": self.seed,
            "n": self.n,
            "spec": self.spec.save(),
            "trace": self.trace.save(),
        })
    }

    fn load(v: &Value) -> CkptResult<Self> {
        check_format(v, "catastrophe-repro")?;
        Ok(Self {
            family: get_str(v, "family")?.to_string(),
            seed: get_u64(v, "seed")?,
            n: get_usize(v, "n")?,
            spec: CatastropheSpec::load(field(v, "spec")?)?,
            trace: CatastropheTrace::load(field(v, "trace")?)?,
        })
    }
}

impl CatastropheRepro {
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
    use crate::dos::{DosAdversary, DosStrategy};
    use crate::lateness::TopologySnapshot;
    use simnet::{BurstTarget, NodeId};

    fn bs(ids: &[u64]) -> BlockSet {
        BlockSet::from_iter(ids.iter().map(|&i| NodeId(i)))
    }

    fn spec() -> CatastropheSpec {
        CatastropheSpec::new(77)
            .with_burst(Burst { at: 5, frac: 0.2, target: BurstTarget::Groups, storm_window: 8 })
            .with_partition(TimedPartition { at: 20, heal_at: 30, side_frac: 0.25 })
    }

    #[test]
    fn campaign_delegates_blocking_verbatim() {
        let mk = || DosAdversary::new(DosStrategy::Random, 0.2, 4, 9);
        let mut bare = mk();
        let mut campaign = CatastropheCampaign::new(mk(), spec());
        for round in 0..12 {
            let snap = TopologySnapshot {
                round,
                nodes: (0..64).map(NodeId).collect(),
                edges: vec![],
                groups: vec![],
                group_edges: vec![],
            };
            let snap = SharedSnapshot::from(snap);
            bare.observe(snap.clone());
            campaign.observe(snap);
            assert_eq!(bare.block(round, 64), campaign.block(round, 64));
        }
        assert!(campaign.label().contains("catastrophe[1b/1p]"));
    }

    #[test]
    fn spec_roundtrips_and_rebuilds_identical_schedules() {
        let s = spec();
        let restored = CatastropheSpec::load(&s.save()).expect("roundtrip");
        assert_eq!(s, restored);
        // The derived schedules draw identically.
        let members: Vec<NodeId> = (0..40).map(NodeId).collect();
        let mut a = s.schedule();
        let mut b = restored.schedule();
        assert_eq!(a.draw_burst(0, &members, &[], &[]), b.draw_burst(0, &members, &[], &[]));
        assert_eq!(a.draw_partition_side(0, &members), b.draw_partition_side(0, &members));
    }

    #[test]
    fn shrink_reduces_both_axes() {
        // Synthetic oracle: violates iff node 3 crashes in some round AND
        // node 9 is blocked in some round. Everything else is noise the
        // shrinker must strip.
        let blocks = AdversaryTrace::new(vec![bs(&[1, 2]), bs(&[9, 4]), bs(&[5])]);
        let crashes = AdversaryTrace::new(vec![bs(&[7]), bs(&[3, 8]), bs(&[6])]);
        let trace = CatastropheTrace::new(blocks, crashes);
        let oracle = |t: &CatastropheTrace| {
            t.crashes.rounds.iter().any(|r| r.contains(NodeId(3)))
                && t.blocks.rounds.iter().any(|r| r.contains(NodeId(9)))
        };
        assert!(oracle(&trace), "fixture must violate");
        let (shrunk, crash_rep, block_rep) = shrink_catastrophe(&trace, oracle, 200);
        assert!(oracle(&shrunk), "shrinking preserves the violation");
        assert_eq!(shrunk.crashes.total_blocked(), 1, "{:?}", shrunk.crashes);
        assert_eq!(shrunk.blocks.total_blocked(), 1, "{:?}", shrunk.blocks);
        assert!(crash_rep.tests_run > 0 && block_rep.tests_run > 0);
    }

    #[test]
    fn repro_file_roundtrip() {
        let repro = CatastropheRepro {
            family: "dos".into(),
            seed: 42,
            n: 256,
            spec: spec(),
            trace: CatastropheTrace::new(
                AdversaryTrace::new(vec![bs(&[1])]),
                AdversaryTrace::new(vec![bs(&[2, 3])]),
            ),
        };
        let dir = std::env::temp_dir().join("catastrophe-repro-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repro.json");
        repro.write(&path).unwrap();
        assert_eq!(CatastropheRepro::read(&path).unwrap(), repro);
        // Wrong format tag is rejected.
        let wrong = serde_json::json!({
            "format": "adversary-repro",
            "family": "dos",
            "seed": 42u64,
            "n": 256u64,
            "spec": repro.spec.save(),
            "trace": repro.trace.save(),
        });
        assert!(CatastropheRepro::load(&wrong).is_err());
        std::fs::remove_file(&path).unwrap();
    }
}
