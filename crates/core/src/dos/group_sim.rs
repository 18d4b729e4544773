//! Message-level simulation of supernodes by their groups (Section 5,
//! Lemma 14).
//!
//! The paper has each group `R(x)` jointly *simulate* its supernode `x`:
//! every step of the supernode protocol costs two physical rounds —
//!
//! * **Simulation round** — every available node `v` of `R(x)` locally
//!   executes the supernode's round on its copy of the state `S(x)`
//!   (randomness may differ between members!) and broadcasts its candidate
//!   result `m_v` (new state + outgoing supernode messages) to all of
//!   `R(x)`.
//! * **Synchronization round** — every available node adopts the candidate
//!   of the *lowest-id* voter, and for each supernode message `m`
//!   addressed to supernode `y`, sends `m` to **all** nodes of `R(y)`
//!   (receivers deduplicate by `(source supernode, step)`).
//!
//! Lemma 14: as long as every group has at least one *available* member
//!   (non-blocked in two consecutive rounds) in every round, the groups
//!   correctly simulate the supernode protocol. This module implements the
//!   machinery generically over a [`SuperProtocol`] and the tests verify
//!   both directions: correct progress under heavy-but-survivable
//!   blocking, and stall when a group is starved.

use rand::RngExt;
use simnet::rng::NodeRng;
use simnet::{Ctx, NodeId, Payload, Protocol};
use simnet_xl::XlNetwork;
use std::collections::HashSet;
use std::sync::Arc;

/// A protocol executed by *supernodes* (to be simulated by their groups).
///
/// One call to [`SuperProtocol::on_step`] is one supernode round: consume
/// the messages delivered this step, mutate the state, emit messages to
/// other supernodes (delivered next step).
pub trait SuperProtocol: Clone + Send + Sync + 'static {
    /// Message exchanged between supernodes.
    type SMsg: Clone + Send + Sync + 'static;

    /// Execute one supernode round. `me` is the executing supernode's
    /// label; `inbox` carries `(source supernode, message)` pairs.
    fn on_step(
        &mut self,
        me: u64,
        inbox: &[(u64, Self::SMsg)],
        rng: &mut NodeRng,
    ) -> Vec<(u64, Self::SMsg)>;
}

/// Accounting size of a candidate/state broadcast in bits (states are
/// protocol-specific; we charge a flat polylog-size constant, which is the
/// paper's assumption for `S(x)`).
const STATE_BITS: u64 = 1024;

/// Messages of the group-simulation protocol.
#[derive(Clone)]
pub enum GroupMsg<P: SuperProtocol> {
    /// Simulation-round broadcast: a member's candidate execution result.
    Candidate {
        /// The executing step index.
        step: u32,
        /// Resulting supernode state from this voter's randomness.
        state: P,
        /// Supernode messages the state wants to emit.
        out: Vec<(u64, P::SMsg)>,
    },
    /// A supernode-level message relayed group-to-group.
    Super {
        /// Step in which the message was emitted.
        step: u32,
        /// Source supernode.
        from_super: u64,
        /// Index within the source's outgoing batch of that step
        /// (distinguishes multiple messages between the same pair; the
        /// relay fan-out otherwise makes duplicates indistinguishable).
        idx: u32,
        /// Payload.
        msg: P::SMsg,
    },
}

impl<P: SuperProtocol> Payload for GroupMsg<P> {
    fn size_bits(&self) -> u64 {
        match self {
            GroupMsg::Candidate { out, .. } => STATE_BITS + 64 * out.len() as u64,
            GroupMsg::Super { .. } => 64 + 64,
        }
    }
}

/// A candidate execution result: `(step, voter, state, outgoing)`.
type Vote<P> = (u32, NodeId, P, Vec<(u64, <P as SuperProtocol>::SMsg)>);

/// Physical-node state: one member of one group.
pub struct GroupSimNode<P: SuperProtocol> {
    /// The supernode this node represents.
    supernode: u64,
    /// Members of every group, indexed by supernode label; the own group's
    /// members are the broadcast targets. In the paper these references
    /// travel inside the supernode state (`S(x)` holds references to
    /// `R(y)` for every supernode `y` stored in `x`); since the group
    /// composition is fixed for the duration of one simulated run, a
    /// shared directory is behaviorally equivalent and avoids threading
    /// reference lists through every message type.
    directory: Arc<[Vec<NodeId>]>,
    /// The adopted supernode state.
    pub state: P,
    /// Next supernode step to execute.
    pub step: u32,
    /// Supernode inbox for the next step, deduplicated by
    /// (source, step, index).
    pending: Vec<(u64, P::SMsg)>,
    seen: HashSet<(u64, u32, u32)>,
    /// Candidates received this synchronization round. Steps may differ
    /// when members return from blocking with stale state.
    votes: Vec<Vote<P>>,
}

impl<P: SuperProtocol> GroupSimNode<P> {
    /// Create a member of `supernode`'s group.
    pub fn new(supernode: u64, directory: Arc<[Vec<NodeId>]>, initial: P) -> Self {
        Self {
            supernode,
            directory,
            state: initial,
            step: 0,
            pending: Vec::new(),
            seen: HashSet::new(),
            votes: Vec::new(),
        }
    }
}

impl<P: SuperProtocol> Protocol for GroupSimNode<P> {
    type Msg = GroupMsg<P>;

    fn on_round(&mut self, ctx: &mut Ctx<'_, GroupMsg<P>>) {
        // Collect everything first.
        for env in ctx.take_inbox() {
            match env.msg {
                GroupMsg::Candidate { step, state, out } => {
                    self.votes.push((step, env.from, state, out));
                }
                GroupMsg::Super { step, from_super, idx, msg } => {
                    if self.seen.insert((from_super, step, idx)) {
                        self.pending.push((from_super, msg));
                    }
                }
            }
        }

        if ctx.round() % 2 == 0 {
            // Simulation round: execute the supernode step on the adopted
            // state with *this member's* randomness and broadcast the
            // candidate.
            let mut candidate = self.state.clone();
            let inbox: Vec<(u64, P::SMsg)> = std::mem::take(&mut self.pending);
            let me_super = self.supernode;
            let out = candidate.on_step(me_super, &inbox, ctx.rng());
            // Members that were blocked may have stale `pending`; the
            // lowest-id available voter's view wins at synchronization, so
            // divergent inboxes resolve exactly as in the paper.
            let msg = GroupMsg::Candidate { step: self.step, state: candidate, out };
            for &w in &self.directory[me_super as usize] {
                ctx.send(w, msg.clone());
            }
        } else {
            // Synchronization round: among the candidates of the most
            // advanced step, adopt the lowest-id voter's result and relay
            // its supernode messages. Members returning from blocking may
            // still vote with stale steps; taking the max step first makes
            // them *fast-forward* instead of dragging the group back
            // (this is what the paper's every-round S(x) broadcast buys).
            self.votes.sort_by_key(|(step, voter, _, _)| (std::cmp::Reverse(*step), *voter));
            if let Some((step, _, state, out)) = self.votes.first().cloned() {
                // Never regress: only adopt execution results at or ahead
                // of our current step.
                if step + 1 > self.step {
                    self.state = state;
                    let from_super = self.supernode;
                    for (idx, (dest_super, m)) in out.into_iter().enumerate() {
                        if let Some(group) = self.directory.get(dest_super as usize) {
                            for &w in group {
                                ctx.send(
                                    w,
                                    GroupMsg::Super {
                                        step,
                                        from_super,
                                        idx: idx as u32,
                                        msg: m.clone(),
                                    },
                                );
                            }
                        }
                    }
                    self.step = step + 1;
                }
            }
            // A starved group (no candidates) simply does not advance —
            // exactly the Lemma 14 failure mode.
            self.votes.clear();
        }
    }
}

/// Build a group-simulation network: groups of `members_per_group`
/// physical nodes represent the supernodes `0..n_super`; `initial(x)` is
/// the per-supernode start state. Returns the network plus the group
/// table.
pub fn build_group_sim<P, FI>(
    n_super: u64,
    members_per_group: usize,
    initial: FI,
    seed: u64,
) -> (XlNetwork<GroupSimNode<P>>, Vec<Vec<NodeId>>)
where
    P: SuperProtocol,
    FI: Fn(u64) -> P,
{
    assert!(members_per_group >= 1);
    let groups: Vec<Vec<NodeId>> = (0..n_super)
        .map(|x| {
            (0..members_per_group as u64)
                .map(|i| NodeId(x * members_per_group as u64 + i))
                .collect()
        })
        .collect();
    let directory: Arc<[Vec<NodeId>]> = groups.clone().into();
    // Parity explicitly, not `backend::select()`: `SIMNET_BACKEND=xl:fast`
    // must not change what E16 and the Lemma 14 tests run.
    let mut net = XlNetwork::new(seed);
    for x in 0..n_super {
        for &v in &groups[x as usize] {
            net.add_node(v, GroupSimNode::new(x, Arc::clone(&directory), initial(x)));
        }
    }
    (net, groups)
}

/// The supernode protocol the Section 5 network actually needs: the token
/// random walk sampler of Section 2.3 on the hypercube of supernodes. Each
/// supernode launches one token; in step `i` the holder flips a coin and
/// either keeps it or forwards it along coordinate `i`; after `dim` steps
/// the holder reports the endpoint back to the origin, which stores it in
/// `samples`.
#[derive(Clone)]
pub struct TokenWalkSampler {
    /// Hypercube dimension.
    pub dim: u32,
    /// Whether the own token has been launched (first step only).
    pub launched: bool,
    /// Uniform samples collected by this supernode (walk endpoints
    /// reported back).
    pub samples: Vec<u64>,
}

/// Messages of [`TokenWalkSampler`].
#[derive(Clone)]
pub enum TokenMsg {
    /// A walking token: origin and the number of coordinates already
    /// decided.
    Token { origin: u64, level: u32 },
    /// Walk finished at `endpoint`.
    Done { endpoint: u64 },
}

impl SuperProtocol for TokenWalkSampler {
    type SMsg = TokenMsg;

    fn on_step(
        &mut self,
        me: u64,
        inbox: &[(u64, TokenMsg)],
        rng: &mut NodeRng,
    ) -> Vec<(u64, TokenMsg)> {
        let mut out = Vec::new();
        let mut tokens: Vec<(u64, u32)> = Vec::new();
        for (_, msg) in inbox {
            match msg {
                TokenMsg::Token { origin, level } => tokens.push((*origin, *level)),
                TokenMsg::Done { endpoint } => self.samples.push(*endpoint),
            }
        }
        // First step only: launch the own token (level 0 = no coordinate
        // decided yet).
        if !self.launched {
            self.launched = true;
            tokens.push((me, 0));
        }
        for (origin, level) in tokens {
            if level >= self.dim {
                if origin == me {
                    self.samples.push(me);
                } else {
                    out.push((origin, TokenMsg::Done { endpoint: me }));
                }
                continue;
            }
            let next_level = level + 1;
            let target = if rng.random::<bool>() { me ^ (1u64 << level) } else { me };
            if target == me {
                // Keep the token: re-inject it locally next step by
                // sending to ourselves.
                out.push((me, TokenMsg::Token { origin, level: next_level }));
            } else {
                out.push((target, TokenMsg::Token { origin, level: next_level }));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_graphs::Hypercube;
    use simnet::BlockSet;

    fn build(
        dim: u32,
        members: usize,
        seed: u64,
    ) -> (XlNetwork<GroupSimNode<TokenWalkSampler>>, Vec<Vec<NodeId>>) {
        let h = Hypercube::new(dim);
        build_group_sim(
            h.len(),
            members,
            move |_| TokenWalkSampler { dim, launched: false, samples: Vec::new() },
            seed,
        )
    }

    /// Steps needed for all walks to finish and report: dim hops + 1
    /// report step, times 2 physical rounds per step, plus slack.
    fn rounds_for(dim: u32) -> u64 {
        2 * (dim as u64 + 3)
    }

    #[test]
    fn unblocked_simulation_completes_every_walk() {
        let dim = 3;
        let (mut net, groups) = build(dim, 4, 1);
        net.run(rounds_for(dim));
        for (x, group) in groups.iter().enumerate() {
            let node = net.node(group[0]).expect("present");
            assert_eq!(node.state.samples.len(), 1, "supernode {x} must have exactly one sample");
            assert!(node.state.samples[0] < 1 << dim);
        }
    }

    #[test]
    fn all_members_agree_on_the_state() {
        // The lowest-id adoption rule keeps every member's copy of S(x)
        // identical at the end of each synchronization round.
        let dim = 3;
        let (mut net, groups) = build(dim, 5, 2);
        net.run(rounds_for(dim));
        for group in &groups {
            let reference = &net.node(group[0]).unwrap().state.samples;
            for &v in &group[1..] {
                assert_eq!(&net.node(v).unwrap().state.samples, reference);
            }
        }
    }

    #[test]
    fn survives_blocking_that_leaves_one_member_available() {
        // Block all but one member of every group, alternating which
        // members, for the whole run: Lemma 14's precondition (>= 1
        // available per round) still holds, so the simulation completes.
        let dim = 3;
        let members = 4;
        let (mut net, groups) = build(dim, members, 3);
        let rounds = rounds_for(dim) + 8;
        for r in 0..rounds {
            // Keep two overlapping members alive per group, rotating every
            // 4 rounds. The overlap guarantees the model's progress
            // condition: some node available in round i can reach a node
            // available in round i+1 (a single rotating keeper would
            // violate it at every switch).
            let keep_a = ((r / 4) as usize) % members;
            let keep_b = (keep_a + 1) % members;
            let blocked: BlockSet = groups
                .iter()
                .flat_map(|g| {
                    g.iter()
                        .enumerate()
                        .filter(move |(i, _)| *i != keep_a && *i != keep_b)
                        .map(|(_, v)| *v)
                })
                .collect();
            net.step_blocked(&blocked);
        }
        let mut done = 0;
        for group in &groups {
            // Some member (the survivors) must have completed the walk.
            let finished = group.iter().any(|&v| !net.node(v).unwrap().state.samples.is_empty());
            if finished {
                done += 1;
            }
        }
        assert_eq!(done, groups.len(), "every supernode's walk completes under blocking");
    }

    #[test]
    fn starving_a_group_stalls_its_supernode() {
        // Block group 0 entirely: its supernode never advances — the
        // Lemma 14 precondition is necessary, not just sufficient.
        let dim = 3;
        let (mut net, groups) = build(dim, 3, 4);
        let blocked: BlockSet = groups[0].iter().copied().collect();
        for _ in 0..rounds_for(dim) + 10 {
            net.step_blocked(&blocked);
        }
        let stalled = net.node(groups[0][0]).unwrap();
        assert_eq!(stalled.step, 0, "a fully blocked group cannot simulate");
        assert!(stalled.state.samples.is_empty());
    }

    #[test]
    fn samples_are_roughly_uniform_across_runs() {
        // Pool the walk endpoints of supernode 0 over many seeds.
        let dim = 3;
        let mut counts = vec![0u64; 8];
        for seed in 0..400 {
            let (mut net, groups) = build(dim, 3, 100 + seed);
            net.run(rounds_for(dim));
            let s = &net.node(groups[0][0]).unwrap().state.samples;
            assert_eq!(s.len(), 1);
            counts[s[0] as usize] += 1;
        }
        let (_, p) = overlay_stats::uniform_fit(&counts);
        assert!(p > 1e-4, "token-walk endpoints rejected uniformity: p = {p}");
    }
}
