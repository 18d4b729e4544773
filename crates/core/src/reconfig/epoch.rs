//! One reconfiguration epoch (Algorithm 3) as a message-level protocol.
//!
//! All `d/2` Hamilton cycles are rebuilt simultaneously; messages carry a
//! cycle tag. Phase 1's uniform targets come from an actual run of the
//! rapid node sampling primitive on the old graph ([`crate::sampling`]);
//! additional parallel sampling instances are started if an epoch needs
//! more targets than one instance yields (parallel instances cost no extra
//! rounds, only work — exactly the paper's "polylogarithmically many
//! instances ... executed in parallel").

use crate::backend::AnyNet;
use crate::config::{SamplingParams, Schedule};
use crate::metrics::ReconfigMetrics;
use crate::sampling::run_alg1_direct_observed;
use overlay_graphs::{HGraph, HamiltonCycle};
use rand::seq::SliceRandom;
use simnet::{Ctx, IdRun, IdSet, NodeId, Payload, Protocol};
use telemetry::Telemetry;

/// How Phase 3 bridges empty segments (A1 ablation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BridgeMode {
    /// Pointer doubling: `O(log segment)` iterations (the paper's choice).
    PointerDoubling,
    /// One hop per iteration: `O(segment)` iterations (ablation baseline).
    NaiveWalk,
}

impl simnet::Checkpoint for BridgeMode {
    fn save(&self) -> serde_json::Value {
        match self {
            BridgeMode::PointerDoubling => "pointer-doubling".into(),
            BridgeMode::NaiveWalk => "naive-walk".into(),
        }
    }
    fn load(v: &serde_json::Value) -> simnet::CkptResult<Self> {
        match v.as_str() {
            Some("pointer-doubling") => Ok(BridgeMode::PointerDoubling),
            Some("naive-walk") => Ok(BridgeMode::NaiveWalk),
            _ => Err(simnet::CkptError::Corrupt("unknown bridge mode".into())),
        }
    }
}

/// Input to one epoch.
#[derive(Clone, Debug)]
pub struct EpochInput<'a> {
    /// The old topology (its node set are the current members).
    pub graph: &'a HGraph,
    /// Current members prescribed to leave during this epoch.
    pub leaving: Vec<NodeId>,
    /// New nodes and the current member each was introduced to.
    pub joins: Vec<(NodeId, NodeId)>,
    /// Bridging mode for Phase 3.
    pub bridge: BridgeMode,
    /// Sampling parameters for Phase 1.
    pub params: SamplingParams,
    /// Epoch seed.
    pub seed: u64,
}

/// Output of one epoch.
#[derive(Clone, Debug)]
pub struct EpochOutput {
    /// The fresh Hamilton cycles over the surviving node set.
    pub cycles: Vec<HamiltonCycle>,
    /// The surviving node set (stayers plus joiners).
    pub members: Vec<NodeId>,
    /// Epoch metrics.
    pub metrics: ReconfigMetrics,
    /// Rounds attributable to Phase 1 sampling.
    pub sampling_rounds: u64,
    /// Rounds attributable to Phase 3 bridging (pointer doubling).
    pub bridge_rounds: u64,
}

/// Messages of the reconfiguration protocol. `cycle` tags the Hamilton
/// cycle instance.
#[derive(Clone, Debug)]
pub enum ReMsg {
    /// Phase 1: place `id` at the receiver (the receiver becomes active).
    Candidate { cycle: u8, id: NodeId },
    /// Phase 3: "is your pointer target active, and where does your
    /// pointer point now?"
    JumpQuery { cycle: u8 },
    /// Phase 3 reply: the responder's activity and current pointer.
    JumpReply { cycle: u8, active: bool, ptr: NodeId },
    /// Phase 3: an active node forwards its block's last element to its
    /// closest active successor.
    EndFwd { cycle: u8, last: NodeId },
    /// Phase 3 reply: the successor returns its block's first element.
    BackFwd { cycle: u8, first: NodeId },
    /// Phase 4: the new cycle neighbors of the receiver.
    Wire { cycle: u8, pred: NodeId, succ: NodeId },
}

impl Payload for ReMsg {
    fn size_bits(&self) -> u64 {
        let id = NodeId::SIZE_BITS;
        8 + match self {
            ReMsg::Candidate { .. } => 8 + id,
            ReMsg::JumpQuery { .. } => 8,
            ReMsg::JumpReply { .. } => 8 + 1 + id,
            ReMsg::EndFwd { .. } | ReMsg::BackFwd { .. } => 8 + id,
            ReMsg::Wire { .. } => 8 + 2 * id,
        }
    }
}

#[derive(Clone, Debug, Default)]
struct PerCycle {
    /// Successor on the old cycle (old members only).
    old_succ: Option<NodeId>,
    /// Current bridge pointer (old members only).
    ptr: Option<NodeId>,
    /// Whether `ptr` is known to point at an active node.
    converged: bool,
    /// Whether this node is active (received >= 1 candidate).
    active: bool,
    /// Candidates received, in permuted order.
    block: Vec<NodeId>,
    /// Predecessor block's last element (the paper's `u_0`).
    u0: Option<NodeId>,
    /// Successor block's first element (the paper's `u_{m+1}`).
    um1: Option<NodeId>,
    /// Wire messages sent.
    wired: bool,
    /// As a candidate: assigned neighbors in the new cycle.
    new_pred: Option<NodeId>,
    new_succ: Option<NodeId>,
}

/// Node state of the reconfiguration protocol.
pub struct ReconfigNode {
    /// Per-cycle Phase 1 placements this node must perform:
    /// `(candidate id, sampled target)`.
    placements: Vec<Vec<(NodeId, NodeId)>>,
    cycles: Vec<PerCycle>,
    bridge: BridgeMode,
    old_member: bool,
}

impl ReconfigNode {
    fn wire_if_ready(&mut self, ctx: &mut Ctx<'_, ReMsg>, c: usize) {
        let pc = &mut self.cycles[c];
        if !pc.active || pc.wired || pc.u0.is_none() || pc.um1.is_none() {
            return;
        }
        pc.wired = true;
        let m = pc.block.len();
        let block = pc.block.clone();
        let u0 = pc.u0.unwrap();
        let um1 = pc.um1.unwrap();
        for i in 0..m {
            let pred = if i == 0 { u0 } else { block[i - 1] };
            let succ = if i + 1 == m { um1 } else { block[i + 1] };
            ctx.send(block[i], ReMsg::Wire { cycle: c as u8, pred, succ });
        }
    }
}

impl Protocol for ReconfigNode {
    type Msg = ReMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, ReMsg>) {
        let round = ctx.round();
        if round == 0 {
            // Phase 1: place candidates at their sampled targets.
            for (c, list) in self.placements.iter().enumerate() {
                for &(cand, target) in list {
                    ctx.send(target, ReMsg::Candidate { cycle: c as u8, id: cand });
                }
            }
            return;
        }

        let inbox = ctx.take_inbox();
        // Candidates first: activity must be final before answering queries.
        for env in &inbox {
            if let ReMsg::Candidate { cycle, id } = env.msg {
                self.cycles[cycle as usize].block.push(id);
            }
        }
        if round == 1 {
            // Phase 2: permute blocks; start bridging on every old member
            // (inactive nodes must also jump so pointers double through
            // them).
            for c in 0..self.cycles.len() {
                let active = !self.cycles[c].block.is_empty();
                self.cycles[c].active = active;
                if active {
                    let mut block = std::mem::take(&mut self.cycles[c].block);
                    block.shuffle(ctx.rng());
                    self.cycles[c].block = block;
                }
                if self.old_member {
                    let ptr = self.cycles[c].ptr.expect("old member has a pointer");
                    ctx.send(ptr, ReMsg::JumpQuery { cycle: c as u8 });
                }
            }
        }

        for env in inbox {
            match env.msg {
                ReMsg::Candidate { .. } => {} // handled above
                ReMsg::JumpQuery { cycle } => {
                    let c = cycle as usize;
                    let pc = &self.cycles[c];
                    // Naive mode advances one old-cycle hop per iteration;
                    // doubling hands out the responder's own (jumping)
                    // pointer.
                    let ptr = match self.bridge {
                        BridgeMode::PointerDoubling => pc.ptr,
                        BridgeMode::NaiveWalk => pc.old_succ,
                    }
                    .expect("queried node is an old member");
                    let reply = ReMsg::JumpReply { cycle, active: pc.active, ptr };
                    ctx.send(env.from, reply);
                }
                ReMsg::JumpReply { cycle, active, ptr } => {
                    let c = cycle as usize;
                    if active {
                        // Converged: current ptr target is the closest
                        // active successor. Active nodes announce their
                        // block end to it exactly once (convergence stops
                        // further queries, so this branch runs once).
                        self.cycles[c].converged = true;
                        if self.cycles[c].active {
                            let target = self.cycles[c].ptr.expect("old member");
                            let last = *self.cycles[c].block.last().expect("active block");
                            ctx.send(target, ReMsg::EndFwd { cycle, last });
                        }
                    } else {
                        self.cycles[c].ptr = Some(ptr);
                        let target = self.cycles[c].ptr.unwrap();
                        ctx.send(target, ReMsg::JumpQuery { cycle });
                    }
                }
                ReMsg::EndFwd { cycle, last } => {
                    let c = cycle as usize;
                    self.cycles[c].u0 = Some(last);
                    let first = *self.cycles[c]
                        .block
                        .first()
                        .expect("EndFwd is addressed to an active node");
                    ctx.send(env.from, ReMsg::BackFwd { cycle, first });
                    self.wire_if_ready(ctx, c);
                }
                ReMsg::BackFwd { cycle, first } => {
                    let c = cycle as usize;
                    self.cycles[c].um1 = Some(first);
                    self.wire_if_ready(ctx, c);
                }
                ReMsg::Wire { cycle, pred, succ } => {
                    let c = cycle as usize;
                    self.cycles[c].new_pred = Some(pred);
                    self.cycles[c].new_succ = Some(succ);
                }
            }
        }
    }
}

/// Run one reconfiguration epoch. Returns the fresh cycles over
/// `stayers + joiners` plus metrics.
///
/// Panics if the surviving membership would be smaller than 3 (a Hamilton
/// cycle needs a triangle) or if an id joins and leaves simultaneously.
pub fn run_epoch(input: EpochInput<'_>) -> EpochOutput {
    let graph = input.graph;
    let old_members: Vec<NodeId> = graph.nodes().to_vec();
    let leaving = IdSet::from_iter(input.leaving.iter().copied());
    for &(new, delegate) in &input.joins {
        assert!(!graph.contains(new), "joining id {new} already present");
        assert!(graph.contains(delegate), "delegate {delegate} not a member");
        assert!(!leaving.contains(new), "id {new} cannot join and leave at once");
    }
    let n_cycles = graph.degree() / 2;

    // ---- Phase 1 sampling: uniform targets from the rapid sampler. ----
    // Candidates each member must place, per cycle (same across cycles),
    // indexed by the member's position in `old_members`.
    let mut to_place: Vec<Vec<NodeId>> =
        old_members.iter().map(|&v| if leaving.contains(v) { vec![] } else { vec![v] }).collect();
    if !input.joins.is_empty() {
        let at = old_members.iter().enumerate().map(|(i, &v)| (v, i)).collect();
        let at = IdRun::from_unsorted(at).expect("graph nodes are distinct");
        for &(new, delegate) in &input.joins {
            to_place[at.get(delegate).copied().expect("delegate is a member")].push(new);
        }
    }
    let total_candidates: usize = to_place.iter().map(Vec::len).sum();
    assert!(total_candidates >= 3, "surviving membership too small for a Hamilton cycle");

    // Draw targets from real sampler runs; start more parallel instances
    // if one run's beta*log(n) samples per node do not suffice.
    let mut sample_pool: Vec<Vec<NodeId>> = vec![Vec::new(); old_members.len()];
    let mut salt = 0u64;
    let schedule = Schedule::algorithm1(old_members.len(), graph.degree(), &input.params);
    loop {
        let enough =
            sample_pool.iter().zip(&to_place).all(|(pool, c)| pool.len() >= c.len() * n_cycles);
        if enough {
            break;
        }
        let run = run_alg1_direct_observed(
            graph,
            &input.params,
            input.seed.wrapping_add(salt),
            &Telemetry::disabled(),
        );
        for (pool, row) in sample_pool.iter_mut().zip(&run.samples) {
            pool.extend(row.iter().map(|&j| old_members[j as usize]));
        }
        salt = salt.wrapping_add(0x9E37_79B9);
        assert!(salt < 0x9E37_79B9 * 64, "sampling cannot satisfy target demand");
    }
    let sampling_rounds = schedule.rounds() as u64;

    // ---- Build the epoch network. ----
    let mut net: AnyNet<ReconfigNode> = crate::backend::select().build(input.seed ^ 0xEC0C);
    for ((&v, pool), cands) in old_members.iter().zip(&mut sample_pool).zip(&to_place) {
        let placements: Vec<Vec<(NodeId, NodeId)>> = (0..n_cycles)
            .map(|_| {
                cands.iter().map(|&cand| (cand, pool.pop().expect("pool sized above"))).collect()
            })
            .collect();
        let cycles: Vec<PerCycle> = graph
            .cycles()
            .iter()
            .map(|cy| PerCycle {
                old_succ: Some(cy.successor(v)),
                ptr: Some(cy.successor(v)),
                ..PerCycle::default()
            })
            .collect();
        net.add_node(
            v,
            ReconfigNode { placements, cycles, bridge: input.bridge, old_member: true },
        );
    }
    for &(new, _) in &input.joins {
        net.add_node(
            new,
            ReconfigNode {
                placements: vec![Vec::new(); n_cycles],
                cycles: vec![PerCycle::default(); n_cycles],
                bridge: input.bridge,
                old_member: false,
            },
        );
    }

    // ---- Run to completion. ----
    let survivors: Vec<NodeId> = old_members
        .iter()
        .copied()
        .filter(|&v| !leaving.contains(v))
        .chain(input.joins.iter().map(|&(new, _)| new))
        .collect();
    let max_rounds = 6 * (usize::BITS - old_members.len().leading_zeros()) as u64 + 24;
    let mut bridge_rounds = 0u64;
    let mut converged_at: Option<u64> = None;
    loop {
        net.step();
        if converged_at.is_none() {
            let all_converged = net
                .nodes()
                .filter(|(_, p)| p.old_member)
                .all(|(_, p)| p.cycles.iter().all(|pc| pc.converged));
            if all_converged {
                converged_at = Some(net.round());
                bridge_rounds = net.round().saturating_sub(2);
            }
        }
        let done = survivors.iter().all(|v| {
            net.node(*v)
                .map(|p| p.cycles.iter().all(|pc| pc.new_pred.is_some() && pc.new_succ.is_some()))
                .unwrap_or(false)
        });
        if done {
            break;
        }
        assert!(
            net.round() < max_rounds,
            "epoch did not converge within {max_rounds} rounds (round {})",
            net.round()
        );
    }
    let network_rounds = net.round();

    // ---- Extract the new cycles. ----
    let mut new_cycles = Vec::with_capacity(n_cycles);
    let mut max_congestion = 0usize;
    for c in 0..n_cycles {
        let succ = |v: NodeId| net.node(v).expect("survivor present").cycles[c].new_succ;
        let succ_of = survivors.iter().map(|&v| (v, succ(v).expect("wired"))).collect();
        let succ_of = IdRun::from_unsorted(succ_of).expect("survivors are distinct");
        let start = succ_of.ids()[0];
        let mut order = Vec::with_capacity(survivors.len());
        let mut cur = start;
        loop {
            order.push(cur);
            cur = *succ_of.get(cur).expect("successor is a survivor");
            if cur == start {
                break;
            }
            assert!(order.len() <= survivors.len(), "new cycle is not Hamiltonian");
        }
        assert_eq!(order.len(), survivors.len(), "new cycle misses nodes");
        new_cycles.push(HamiltonCycle::from_order(order));
        let cong = net.nodes().map(|(_, p)| p.cycles[c].block.len()).max().unwrap_or(0);
        max_congestion = max_congestion.max(cong);
    }

    // ---- Empty segments on the old cycles (Lemma 12). ----
    let mut max_empty_segment = 0usize;
    for (c, cy) in graph.cycles().iter().enumerate() {
        let order = cy.order();
        let active: Vec<bool> =
            order.iter().map(|v| net.node(*v).expect("old member").cycles[c].active).collect();
        max_empty_segment = max_empty_segment.max(longest_false_run_cyclic(&active));
    }

    let metrics = ReconfigMetrics {
        n: survivors.len(),
        rounds: sampling_rounds + network_rounds,
        max_congestion,
        max_empty_segment,
        joined: input.joins.len(),
        left: leaving.len(),
        valid: true,
    };
    EpochOutput { cycles: new_cycles, members: survivors, metrics, sampling_rounds, bridge_rounds }
}

/// Longest run of `false` in a cyclic boolean sequence.
fn longest_false_run_cyclic(flags: &[bool]) -> usize {
    let n = flags.len();
    if flags.iter().all(|&f| !f) {
        return n;
    }
    let mut best = 0;
    let mut run = 0;
    // Doubling the sequence handles wraparound; runs are < n because at
    // least one flag is true.
    for i in 0..2 * n {
        if !flags[i % n] {
            run += 1;
            best = best.max(run.min(n));
        } else {
            run = 0;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn graph(n: u64, seed: u64) -> HGraph {
        let nodes: Vec<NodeId> = (0..n).map(NodeId).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        HGraph::random(&nodes, 8, &mut rng)
    }

    fn plain_epoch(g: &HGraph, seed: u64) -> EpochOutput {
        run_epoch(EpochInput {
            graph: g,
            leaving: Vec::new(),
            joins: Vec::new(),
            bridge: BridgeMode::PointerDoubling,
            params: SamplingParams::default(),
            seed,
        })
    }

    #[test]
    fn epoch_rebuilds_valid_cycles() {
        let g = graph(32, 1);
        let out = plain_epoch(&g, 7);
        assert_eq!(out.cycles.len(), 4);
        assert_eq!(out.members.len(), 32);
        for cy in &out.cycles {
            assert_eq!(cy.len(), 32);
        }
        assert!(out.metrics.valid);
    }

    #[test]
    fn epoch_handles_joins_and_leaves() {
        let g = graph(24, 2);
        let out = run_epoch(EpochInput {
            graph: &g,
            leaving: vec![NodeId(0), NodeId(5), NodeId(11)],
            joins: vec![
                (NodeId(100), NodeId(1)),
                (NodeId(101), NodeId(2)),
                (NodeId(102), NodeId(1)),
            ],
            bridge: BridgeMode::PointerDoubling,
            params: SamplingParams::default(),
            seed: 5,
        });
        assert_eq!(out.members.len(), 24);
        assert!(out.members.contains(&NodeId(100)));
        assert!(!out.members.contains(&NodeId(5)));
        for cy in &out.cycles {
            assert!(cy.contains(NodeId(101)));
            assert!(!cy.contains(NodeId(11)));
        }
        assert_eq!(out.metrics.joined, 3);
        assert_eq!(out.metrics.left, 3);
    }

    #[test]
    fn congestion_and_segments_are_small() {
        let g = graph(128, 3);
        let out = plain_epoch(&g, 11);
        // Lemma 11/12: polylog bounds; generous numeric caps at n = 128.
        assert!(out.metrics.max_congestion <= 16, "congestion {}", out.metrics.max_congestion);
        assert!(
            out.metrics.max_empty_segment <= 64,
            "empty segment {}",
            out.metrics.max_empty_segment
        );
    }

    #[test]
    fn pointer_doubling_beats_naive_walk() {
        let g = graph(96, 4);
        let fast = plain_epoch(&g, 13);
        let slow = run_epoch(EpochInput {
            graph: &g,
            leaving: Vec::new(),
            joins: Vec::new(),
            bridge: BridgeMode::NaiveWalk,
            params: SamplingParams::default(),
            seed: 13,
        });
        assert!(
            fast.bridge_rounds <= slow.bridge_rounds,
            "doubling {} vs naive {}",
            fast.bridge_rounds,
            slow.bridge_rounds
        );
        // Both must still produce valid cycles.
        assert_eq!(slow.members.len(), 96);
    }

    #[test]
    fn deterministic_given_seed() {
        let g = graph(24, 6);
        let a = plain_epoch(&g, 21);
        let b = plain_epoch(&g, 21);
        for (ca, cb) in a.cycles.iter().zip(&b.cycles) {
            assert_eq!(ca.canonical_key(), cb.canonical_key());
        }
    }

    #[test]
    fn epoch_rounds_are_loglog_scale() {
        let small = plain_epoch(&graph(16, 7), 3);
        let large = plain_epoch(&graph(256, 8), 3);
        // 16x nodes: a handful of extra rounds at most.
        assert!(
            large.metrics.rounds <= small.metrics.rounds + 8,
            "{} vs {}",
            large.metrics.rounds,
            small.metrics.rounds
        );
    }

    #[test]
    #[should_panic(expected = "already present")]
    fn joining_existing_id_rejected() {
        let g = graph(16, 9);
        run_epoch(EpochInput {
            graph: &g,
            leaving: Vec::new(),
            joins: vec![(NodeId(3), NodeId(1))],
            bridge: BridgeMode::PointerDoubling,
            params: SamplingParams::default(),
            seed: 1,
        });
    }
}
