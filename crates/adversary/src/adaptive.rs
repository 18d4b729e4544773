//! Adaptive red-team adversaries, and the one harness every blocking
//! attacker runs under.
//!
//! The oblivious strategies of [`crate::dos`] fix a plan up front and draw
//! from their own randomness; the *adaptive* strategies here react round by
//! round to what the overlay actually looks like — still under the paper's
//! information rule (topology only, at least `t` rounds late) and budget
//! rule (at most an `r`-fraction of current nodes blocked per round). Both
//! kinds implement [`AdaptiveAdversary`]; the [`AdaptiveHarness`] mediates
//! between a strategy and the runner: it ages snapshots through the
//! [`TopologyHistory`] gate, computes the `floor(r * n)` budget, clamps
//! over-budget answers so a strategy can never exceed the model's power,
//! and optionally records the emissions and mirrors them into telemetry.
//!
//! The suite — [`MinCutAttack`], [`HighDegreeAttack`],
//! [`OscillatingPartition`], [`FollowTheHealer`] — is closed under
//! [`AdaptiveStrategy`], which names each one for tables and repro files.
//!
//! [`Attacker`] abstracts "observe a snapshot, emit a block set" so
//! runners drive harnessed strategies, composite campaigns and recorded
//! [`crate::shrink::ReplayAdversary`] traces interchangeably.

use crate::lateness::{LateView, SharedSnapshot, TopologyHistory, TopologySnapshot};
use overlay_graphs::sparsest_vertex_cut;
use simnet::{BlockSet, NodeId};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;
use telemetry::{EventKind, Telemetry};

/// Round-stepped adversary interface: the runner shows the adversary the
/// current topology every round (lateness is the adversary's own
/// responsibility) and asks for the round's block set.
pub trait Attacker {
    /// Record the current topology; called every round before [`block`].
    ///
    /// [`block`]: Attacker::block
    fn observe(&mut self, snap: SharedSnapshot);
    /// The nodes to block this round; `n_current` defines the budget.
    fn block(&mut self, round: u64, n_current: usize) -> BlockSet;
    /// Human-readable label for experiment tables and repro files.
    fn label(&self) -> String;
}

impl<A: Attacker + ?Sized> Attacker for Box<A> {
    fn observe(&mut self, snap: SharedSnapshot) {
        (**self).observe(snap);
    }
    fn block(&mut self, round: u64, n_current: usize) -> BlockSet {
        (**self).block(round, n_current)
    }
    fn label(&self) -> String {
        (**self).label()
    }
}

/// A blocking strategy under the model's rules.
///
/// `pick` is called once per round with the freshest view the lateness
/// rule permits and the exact node budget for this round; implementations
/// return the nodes to block. The harness — not the strategy — is
/// responsible for clamping over-budget answers, so a buggy strategy can
/// never exceed the model's power. A strategy that wants to remember what
/// it did keeps that in `self`: its own actions are its own information,
/// not the network's, and not subject to the lateness rule.
pub trait AdaptiveAdversary {
    /// Stable strategy name (used in experiment tables and repro files).
    fn name(&self) -> &'static str;

    /// Choose this round's block set, at most `budget` nodes.
    fn pick(&mut self, view: &LateView<'_>, budget: usize) -> BlockSet;
}

/// The node budget of an `r`-bounded attacker facing `n` nodes.
pub(crate) fn node_budget(bound: f64, n: usize) -> usize {
    (bound * n as f64).floor() as usize
}

/// Clamp, never trust: cut `picks` down to `budget` nodes, deterministically
/// (block sets iterate in ascending id order, so the smallest ids stay).
pub(crate) fn clamp(mut picks: BlockSet, budget: usize) -> BlockSet {
    picks.truncate(budget);
    picks
}

/// Fill `out` up to `budget` with the lowest-degree members not yet
/// picked (cheap victims make the leftover budget count).
fn fill_low_degree(out: &mut BTreeSet<NodeId>, view: &TopologySnapshot, budget: usize) {
    if out.len() >= budget {
        return;
    }
    let adj = view.adjacency();
    let mut rest: Vec<usize> = (0..adj.len()).filter(|&i| !out.contains(&adj.node(i))).collect();
    rest.sort_by_key(|&i| (adj.degree(i), adj.node(i).raw()));
    out.extend(rest.into_iter().take(budget - out.len()).map(|i| adj.node(i)));
}

/// FNV-1a over everything the min-cut answer depends on. The topology
/// only changes at reconfiguration boundaries, so hashing the view is
/// how [`MinCutAttack`] avoids re-running the cut search every round.
fn topology_fingerprint(view: &TopologySnapshot, budget: usize) -> u64 {
    let mut d = simnet::Digest::new();
    d.write_usize(budget).write_usize(view.nodes.len());
    for v in &view.nodes {
        d.write_u64(v.raw());
    }
    for &(a, b) in &view.edges {
        d.write_u64(a.raw()).write_u64(b.raw());
    }
    for g in &view.groups {
        d.write_u64(u64::MAX);
        for v in g {
            d.write_u64(v.raw());
        }
    }
    for &(a, b) in &view.group_edges {
        d.write_u32(a).write_u32(b);
    }
    d.finish()
}

/// Lightest member-weighted group separator of the implied group graph:
/// a set of groups whose members, all silenced, leave the alive
/// supernodes disconnected. Greedy region growth from every group as a
/// seed, absorbing the heaviest boundary group each step, keeping the
/// lightest vertex boundary that fits the budget. Group counts are tiny
/// (`2^d <= n / (c log n)`), so this is cheap where the node-level cut
/// search on the implied clique graph is not.
fn group_separator(view: &TopologySnapshot, budget: usize) -> Option<Vec<NodeId>> {
    let g = view.groups.len();
    let members = view.members();
    let live: Vec<Vec<NodeId>> = view
        .groups
        .iter()
        .map(|grp| grp.iter().copied().filter(|v| members.binary_search(v).is_ok()).collect())
        .collect();
    let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); g];
    for &(a, b) in &view.group_edges {
        let (a, b) = (a as usize, b as usize);
        if a < g && b < g && a != b {
            adj[a].insert(b);
            adj[b].insert(a);
        }
    }
    let mut best: Option<(usize, BTreeSet<usize>)> = None;
    for seed in 0..g {
        let mut region: BTreeSet<usize> = std::iter::once(seed).collect();
        loop {
            let boundary: BTreeSet<usize> = region
                .iter()
                .flat_map(|&x| adj[x].iter().copied())
                .filter(|y| !region.contains(y))
                .collect();
            // A boundary only separates if something is left outside it.
            if boundary.is_empty() || region.len() + boundary.len() >= g {
                break;
            }
            let weight: usize = boundary.iter().map(|&y| live[y].len()).sum();
            if weight <= budget && best.as_ref().is_none_or(|(w, _)| weight < *w) {
                best = Some((weight, boundary.clone()));
            }
            if region.len() >= g / 2 {
                break;
            }
            // Absorb the heaviest boundary group: its expensive members
            // move from the separator into the region.
            let &grow =
                boundary.iter().max_by_key(|&&y| (live[y].len(), y)).expect("boundary is nonempty");
            region.insert(grow);
        }
    }
    best.map(|(_, sep)| sep.iter().flat_map(|&y| live[y].iter().copied()).collect())
}

/// Block a sparsest vertex cut of the stale view.
///
/// Group-structured views get a member-weighted separator over the group
/// graph (supernode connectivity is what the overlay's own connectivity
/// predicate measures, and a supernode stays alive while any member is
/// unblocked — so only whole-group silencing cuts anything); explicit-edge
/// views get the node-level [`sparsest_vertex_cut`]. Either way the answer
/// is cached, so the search reruns only when the view actually changes
/// (once per reconfiguration, not once per round): a view that is the
/// cached shared snapshot itself at the same budget is answered without
/// looking at it, any other view is matched by a topology fingerprint.
#[derive(Clone, Debug, Default)]
pub struct MinCutAttack {
    cache: Option<MinCutAnswer>,
}

/// The last answer and what it was computed from. Holding the `Arc` keeps
/// its allocation alive, so an equal pointer is the same snapshot.
#[derive(Clone, Debug)]
struct MinCutAnswer {
    topo: Arc<TopologySnapshot>,
    budget: usize,
    fingerprint: u64,
    picks: BlockSet,
}

impl AdaptiveAdversary for MinCutAttack {
    fn name(&self) -> &'static str {
        "adaptive:min-cut"
    }

    fn pick(&mut self, view: &LateView<'_>, budget: usize) -> BlockSet {
        let same = |c: &&MinCutAnswer| c.budget == budget && Arc::ptr_eq(&c.topo, &view.topo);
        if let Some(c) = self.cache.as_ref().filter(same) {
            return c.picks.clone();
        }
        let fingerprint = topology_fingerprint(view, budget);
        let picks = match self.cache.take().filter(|c| c.fingerprint == fingerprint) {
            Some(c) => c.picks,
            None => {
                let separator = if view.edges.is_empty() && !view.groups.is_empty() {
                    group_separator(view, budget)
                } else {
                    sparsest_vertex_cut(&view.adjacency(), budget).map(|cut| cut.separator)
                };
                let mut out: BTreeSet<NodeId> = separator.into_iter().flatten().collect();
                fill_low_degree(&mut out, view, budget);
                BlockSet::from_iter(out)
            }
        };
        let topo = Arc::clone(&view.topo);
        self.cache = Some(MinCutAnswer { topo, budget, fingerprint, picks: picks.clone() });
        picks
    }
}

/// Block the highest-degree nodes, group leaders first.
#[derive(Clone, Copy, Debug, Default)]
pub struct HighDegreeAttack;

impl AdaptiveAdversary for HighDegreeAttack {
    fn name(&self) -> &'static str {
        "adaptive:high-degree"
    }

    fn pick(&mut self, view: &LateView<'_>, budget: usize) -> BlockSet {
        let adj = view.adjacency();
        // A group's smallest id acts as its introducer/leader in the join
        // construction; silencing leaders hits the most join paths.
        let leaders: BTreeSet<NodeId> =
            view.groups.iter().filter_map(|g| g.iter().min().copied()).collect();
        let n = adj.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| {
            let score = adj.degree(i) + if leaders.contains(&adj.node(i)) { n } else { 0 };
            (std::cmp::Reverse(score), adj.node(i).raw())
        });
        order.into_iter().take(budget).map(|i| adj.node(i)).collect()
    }
}

/// Alternately block the lower and upper half of the id space.
#[derive(Clone, Copy, Debug)]
pub struct OscillatingPartition {
    /// Rounds between side switches.
    pub period: u64,
}

impl Default for OscillatingPartition {
    fn default() -> Self {
        Self { period: 4 }
    }
}

impl AdaptiveAdversary for OscillatingPartition {
    fn name(&self) -> &'static str {
        "adaptive:oscillate"
    }

    fn pick(&mut self, view: &LateView<'_>, budget: usize) -> BlockSet {
        let members = view.members();
        let half = members.len() / 2;
        // Budget goes to the chosen side's border with the other half:
        // nodes nearest the split point churn in and out of the block set
        // as the sides alternate.
        if (view.round / self.period.max(1)) % 2 == 0 {
            members[..half].iter().rev().take(budget).copied().collect()
        } else {
            members[half..].iter().take(budget).copied().collect()
        }
    }
}

/// Re-block nodes immediately after the healing layer re-admits them.
#[derive(Clone, Debug)]
pub struct FollowTheHealer {
    /// Recently rejoined nodes, most recent first.
    recent: VecDeque<NodeId>,
    cap: usize,
}

impl Default for FollowTheHealer {
    fn default() -> Self {
        Self { recent: VecDeque::new(), cap: 256 }
    }
}

impl AdaptiveAdversary for FollowTheHealer {
    fn name(&self) -> &'static str {
        "adaptive:follow-healer"
    }

    fn pick(&mut self, view: &LateView<'_>, budget: usize) -> BlockSet {
        for &v in view.rejoined().iter().rev() {
            self.recent.retain(|&w| w != v);
            self.recent.push_front(v);
        }
        self.recent.truncate(self.cap);
        let members = view.members();
        let mut out = BTreeSet::new();
        for &v in &self.recent {
            if out.len() >= budget {
                break;
            }
            if members.binary_search(&v).is_ok() {
                out.insert(v);
            }
        }
        fill_low_degree(&mut out, view, budget);
        BlockSet::from_iter(out)
    }
}

/// The strategy suite as a closed enum: concrete (checkpointable,
/// nameable in repro files) while still dispatching through
/// [`AdaptiveAdversary`].
#[derive(Clone, Debug)]
pub enum AdaptiveStrategy {
    /// [`MinCutAttack`].
    MinCut(MinCutAttack),
    /// [`HighDegreeAttack`].
    HighDegree(HighDegreeAttack),
    /// [`OscillatingPartition`].
    Oscillate(OscillatingPartition),
    /// [`FollowTheHealer`].
    FollowHealer(FollowTheHealer),
}

impl AdaptiveStrategy {
    /// One instance of every strategy, in a stable order.
    pub fn all() -> Vec<Self> {
        vec![
            Self::MinCut(MinCutAttack::default()),
            Self::HighDegree(HighDegreeAttack),
            Self::Oscillate(OscillatingPartition::default()),
            Self::FollowHealer(FollowTheHealer::default()),
        ]
    }

    /// Look a strategy up by its [`AdaptiveAdversary::name`] (used when
    /// replaying repro files).
    pub fn by_name(name: &str) -> Option<Self> {
        Self::all().into_iter().find(|s| s.name() == name)
    }
}

impl AdaptiveAdversary for AdaptiveStrategy {
    fn name(&self) -> &'static str {
        match self {
            Self::MinCut(s) => s.name(),
            Self::HighDegree(s) => s.name(),
            Self::Oscillate(s) => s.name(),
            Self::FollowHealer(s) => s.name(),
        }
    }

    fn pick(&mut self, view: &LateView<'_>, budget: usize) -> BlockSet {
        match self {
            Self::MinCut(s) => s.pick(view, budget),
            Self::HighDegree(s) => s.pick(view, budget),
            Self::Oscillate(s) => s.pick(view, budget),
            Self::FollowHealer(s) => s.pick(view, budget),
        }
    }
}

/// Runs an [`AdaptiveAdversary`] under the model's rules — the one place
/// that spells them out for every blocking attacker, oblivious
/// ([`crate::dos::DosAdversary`] is this harness around a
/// [`crate::dos::DosStrategy`]) or adaptive: snapshots age through the
/// [`TopologyHistory`] gate before the strategy may see them, the budget
/// is `floor(bound * n_current)`, the strategy is asked only when a view
/// exists and the budget is non-zero, and over-budget answers are clamped
/// deterministically (smallest ids keep priority). Optionally records the
/// emitted block-set trace for counterexample shrinking.
#[derive(Clone, Debug)]
pub struct AdaptiveHarness<S> {
    strategy: S,
    bound: f64,
    history: TopologyHistory,
    /// Full emission record `(round, blocked)` when recording.
    trace: Vec<(u64, BlockSet)>,
    record: bool,
    /// Pure observability: budget spend and strategy choices mirror into
    /// it; the strategy never sees or branches on the recorder.
    tel: Telemetry,
}

impl<S: AdaptiveAdversary> AdaptiveHarness<S> {
    /// Harness a strategy with budget fraction `bound` and `t = lateness`.
    pub fn new(strategy: S, bound: f64, lateness: u64) -> Self {
        assert!((0.0..1.0).contains(&bound), "bound must be in [0, 1), got {bound}");
        Self {
            strategy,
            bound,
            history: TopologyHistory::new(lateness),
            trace: Vec::new(),
            record: false,
            tel: Telemetry::disabled(),
        }
    }

    /// Record every emitted block set (for the shrinker / repro files).
    pub fn recording(mut self) -> Self {
        self.record = true;
        self
    }

    /// Attach a telemetry recorder (builder-style): every emission records
    /// its budget spend (`adv.blocked` counter + histogram and a
    /// [`EventKind::BudgetSpend`] event) and the strategy identity
    /// ([`EventKind::StrategyChoice`], once per label).
    pub fn with_telemetry(mut self, tel: Telemetry) -> Self {
        tel.emit(0, EventKind::StrategyChoice, None, 0, || self.strategy.name().to_string());
        self.tel = tel;
        self
    }

    /// The blocking budget fraction `r`.
    pub fn bound(&self) -> f64 {
        self.bound
    }

    /// The enforced lateness `t`.
    pub fn lateness(&self) -> u64 {
        self.history.lateness()
    }

    /// The wrapped strategy's name.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// The recorded `(round, blocked)` emissions (empty unless
    /// [`recording`](Self::recording) was enabled).
    pub fn trace(&self) -> &[(u64, BlockSet)] {
        &self.trace
    }
}

impl<S: AdaptiveAdversary> Attacker for AdaptiveHarness<S> {
    fn observe(&mut self, snap: SharedSnapshot) {
        self.history.push(snap);
    }

    fn block(&mut self, round: u64, n_current: usize) -> BlockSet {
        let budget = node_budget(self.bound, n_current);
        let blocked = match self.history.view(round) {
            Some(view) if budget > 0 => clamp(self.strategy.pick(&view, budget), budget),
            _ => BlockSet::none(),
        };
        if self.record {
            self.trace.push((round, blocked.clone()));
        }
        if self.tel.enabled() {
            let name = self.strategy.name();
            let spent = blocked.len() as u64;
            self.tel.counter("adv.rounds", &[("strategy", name)]).inc();
            self.tel.counter("adv.blocked", &[("strategy", name)]).add(spent);
            self.tel.histogram("adv.spend", &[("strategy", name)]).record(spent);
            self.tel.emit(round, EventKind::BudgetSpend, None, spent, || {
                format!("{name} blocked {spent} of budget {budget}")
            });
        }
        blocked
    }

    fn label(&self) -> String {
        self.strategy.name().to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line_snapshot(round: u64, n: u64) -> TopologySnapshot {
        TopologySnapshot {
            round,
            nodes: (0..n).map(NodeId).collect(),
            edges: (0..n - 1).map(|i| (NodeId(i), NodeId(i + 1))).collect(),
            groups: Vec::new(),
            group_edges: Vec::new(),
        }
    }

    /// Barbell: two cliques of `k` joined by the single edge (k-1, k).
    fn barbell_snapshot(round: u64, k: u64) -> TopologySnapshot {
        let mut edges = Vec::new();
        for side in 0..2 {
            let base = side * k;
            for i in 0..k {
                for j in i + 1..k {
                    edges.push((NodeId(base + i), NodeId(base + j)));
                }
            }
        }
        edges.push((NodeId(k - 1), NodeId(k)));
        TopologySnapshot {
            round,
            nodes: (0..2 * k).map(NodeId).collect(),
            edges,
            groups: Vec::new(),
            group_edges: Vec::new(),
        }
    }

    #[test]
    fn min_cut_finds_the_barbell_bridge() {
        let mut h = AdaptiveHarness::new(MinCutAttack::default(), 0.2, 0);
        h.observe(barbell_snapshot(0, 8).into());
        let b = h.block(0, 16);
        // Budget 3; the bridge endpoints are the only 1-node separators.
        assert!(b.contains(NodeId(7)) || b.contains(NodeId(8)), "bridge must be cut: {b:?}");
        assert!(b.within_bound(0.2, 16));
    }

    #[test]
    fn min_cut_answers_a_shared_snapshot_from_its_cache() {
        // One `Arc` observed round after round answers exactly like a fresh
        // copy per round, and the cache keeps that `Arc` (so the pointer it
        // compares cannot be recycled).
        let shared = Arc::new(barbell_snapshot(0, 8));
        let mut by_arc = AdaptiveHarness::new(MinCutAttack::default(), 0.2, 1);
        let mut by_copy = AdaptiveHarness::new(MinCutAttack::default(), 0.2, 1);
        for r in 0..8 {
            by_arc.observe(SharedSnapshot::new(r, Arc::clone(&shared)));
            by_copy.observe(barbell_snapshot(r, 8).into());
            // The budget moves with `n`: equal answers across a budget change
            // too (the fingerprint covers the budget).
            let n = 16 + (r as usize / 4) * 10;
            assert_eq!(by_arc.block(r, n), by_copy.block(r, n), "round {r}");
        }
        let cached = by_arc.strategy.cache.as_ref().expect("answered");
        assert!(Arc::ptr_eq(&cached.topo, &shared));
        assert_eq!(cached.budget, (0.2 * 26.0) as usize);
        // Copies with the same content are matched by fingerprint, and the
        // cache moves to the copy it last answered.
        let seen = by_copy.history.view(7).expect("a view").seen.topo.clone();
        assert!(Arc::ptr_eq(&by_copy.strategy.cache.as_ref().expect("answered").topo, &seen));
    }

    #[test]
    fn min_cut_uses_implied_group_topology() {
        // Path of 3 groups: isolating an end group means blocking the
        // middle group entirely.
        let groups: Vec<Vec<NodeId>> =
            (0..3).map(|g| (0..3).map(|i| NodeId(g * 3 + i)).collect()).collect();
        let snap = TopologySnapshot {
            round: 0,
            nodes: (0..9).map(NodeId).collect(),
            edges: Vec::new(),
            groups: groups.clone(),
            group_edges: vec![(0, 1), (1, 2)],
        };
        let mut h = AdaptiveHarness::new(MinCutAttack::default(), 0.4, 0);
        h.observe(snap.into());
        let b = h.block(0, 9);
        assert!(groups[1].iter().all(|&v| b.contains(v)), "middle group is the separator: {b:?}");
    }

    #[test]
    fn high_degree_prefers_leaders_and_hubs() {
        // Star: node 0 is the hub.
        let snap = TopologySnapshot {
            round: 0,
            nodes: (0..10).map(NodeId).collect(),
            edges: (1..10).map(|i| (NodeId(0), NodeId(i))).collect(),
            groups: Vec::new(),
            group_edges: Vec::new(),
        };
        let mut h = AdaptiveHarness::new(HighDegreeAttack, 0.11, 0);
        h.observe(snap.into());
        let b = h.block(0, 10);
        assert!(b.contains(NodeId(0)), "the hub must be the first pick");
    }

    #[test]
    fn oscillation_switches_sides() {
        let mut h = AdaptiveHarness::new(OscillatingPartition { period: 2 }, 0.25, 0);
        let mut at = |r: u64| {
            h.observe(line_snapshot(r, 20).into());
            h.block(r, 20)
        };
        let early = at(1); // round 1/2 = 0 -> even -> lower half
        let mid = at(2); // round 2/2 = 1 -> odd -> upper half
        let late = at(4); // round 4/2 = 2 -> even -> lower half again
        assert!(early.iter().all(|v| v.raw() < 10), "even phase blocks the lower half");
        assert!(mid.iter().all(|v| v.raw() >= 10), "odd phase blocks the upper half");
        assert_eq!(early, late);
        assert_ne!(early, mid);
    }

    #[test]
    fn follow_the_healer_reblocks_rejoiners() {
        let mut h = AdaptiveHarness::new(FollowTheHealer::default(), 0.1, 0);
        // Node 5 vanishes, then reappears.
        let full: Vec<NodeId> = (0..30).map(NodeId).collect();
        let without: Vec<NodeId> = full.iter().copied().filter(|v| v.raw() != 5).collect();
        h.observe(TopologySnapshot::nodes_only(0, full.clone()).into());
        h.observe(TopologySnapshot::nodes_only(1, without).into());
        h.observe(TopologySnapshot::nodes_only(2, full).into());
        let b = h.block(2, 30);
        assert!(b.contains(NodeId(5)), "the healed node is re-blocked first: {b:?}");
    }

    #[test]
    fn harness_enforces_lateness_and_budget() {
        struct Greedy;
        impl AdaptiveAdversary for Greedy {
            fn name(&self) -> &'static str {
                "test:greedy"
            }
            fn pick(&mut self, view: &LateView<'_>, _budget: usize) -> BlockSet {
                BlockSet::from_iter(view.nodes.iter().copied()) // ignores the budget
            }
        }
        let mut h = AdaptiveHarness::new(Greedy, 0.3, 4);
        h.observe(line_snapshot(0, 10).into());
        assert!(h.block(2, 10).is_empty(), "no view is 4 rounds old yet");
        let b = h.block(4, 10);
        assert_eq!(b.len(), 3, "over-budget answers are clamped");
    }

    #[test]
    fn recording_captures_the_trace() {
        let mut h = AdaptiveHarness::new(HighDegreeAttack, 0.2, 0).recording();
        for r in 0..5 {
            h.observe(line_snapshot(r, 10).into());
            h.block(r, 10);
        }
        assert_eq!(h.trace().len(), 5);
        assert!(h.trace().iter().all(|(_, b)| b.len() <= 2));
    }

    #[test]
    fn telemetry_tracks_budget_spend_per_strategy() {
        let tel = Telemetry::new(telemetry::Config::default());
        let mut h = AdaptiveHarness::new(HighDegreeAttack, 0.2, 0).with_telemetry(tel.clone());
        let mut total = 0;
        for r in 0..5 {
            h.observe(line_snapshot(r, 10).into());
            total += h.block(r, 10).len() as u64;
        }
        let snap = tel.snapshot();
        assert_eq!(snap.counter("adv.rounds{strategy=adaptive:high-degree}"), 5);
        assert_eq!(snap.counter("adv.blocked{strategy=adaptive:high-degree}"), total);
        assert!(total > 0, "budget 0.2 of 10 must block someone");
        let spend =
            snap.histogram("adv.spend{strategy=adaptive:high-degree}").expect("spend histogram");
        assert_eq!(spend.count, 5);
        let (events, _) = tel.events();
        assert!(events.iter().any(|e| e.kind == EventKind::StrategyChoice));
        assert_eq!(events.iter().filter(|e| e.kind == EventKind::BudgetSpend).count(), 5);
    }
}
