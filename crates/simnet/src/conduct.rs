//! Per-node send-path interception: the [`Conduct`] hook.
//!
//! The paper's adversary blocks honest nodes from the *outside*; a
//! Byzantine member misbehaves from the *inside* — it silently drops
//! messages it promised to forward, or replaces their content with forged
//! payloads. `Conduct` is the engine-level interception point for that
//! behavior: installed on a network (parity and fast modes alike), it
//! judges every protocol send at collection time, before the message
//! enters the in-flight queue.
//!
//! ## Determinism contract
//!
//! The hook is judged concurrently across shards, so an implementation
//! must be `Send + Sync`, must not carry per-call mutable state, and must
//! make its decision a pure function of the arguments. Randomized conduct
//! derives its coin flips from [`conduct_roll`] — an FNV-1a hash of `(seed,
//! from, to, round, outbox position)` — which makes every decision
//! independent of evaluation order, execution mode, shard count and thread
//! schedule. A run with a given conduct installed therefore replays
//! digest-identically at any shard count.
//!
//! Conduct is *configuration*, not simulation state: like a fault model's
//! parameters it shapes future rounds, but unlike the fault model it holds
//! no RNG position, so it is **not checkpointed**. A caller resuming a run
//! from a checkpoint must re-install the same conduct to continue the
//! original behavior (the engine documents and tests this).
//!
//! Suppressed messages are never charged to the sender's communication
//! work and do not count toward `sent_bits`/`sent_msgs`; forged
//! replacements are charged at the forged payload's size. External
//! injections ([`crate::SimEngine::inject`]) bypass the hook — they model
//! out-of-band stimulus, not member traffic.

use crate::digest::Digest;
use crate::NodeId;
use std::collections::BTreeSet;

/// Stream salt of [`conduct_roll`], disjoint from every other purpose
/// constant in the workspace (`FAST_FATE_SALT`, RNG purposes, digest
/// section markers).
pub const CONDUCT_SALT: u64 = 0xB12A_C7ED;

/// What happens to one outgoing message.
pub enum SendFate<M> {
    /// Pass the message through unchanged.
    Deliver,
    /// Silently drop it (the sender is not charged for it).
    Drop,
    /// Replace the payload with a forgery (charged at the forged size).
    Replace(M),
}

/// A per-node send-path policy: judges every protocol send of every round.
///
/// See the [module docs](self) for the determinism contract. `judge`
/// receives the sender, receiver, the sending round and the message's
/// position in the sender's outbox for that round (`pos`) — the tuple
/// `(from, round, pos)` uniquely names one send across the whole run, and
/// is identical across backends.
pub trait Conduct<M>: Send + Sync {
    /// Decide the fate of one outgoing message.
    fn judge(&self, from: NodeId, to: NodeId, round: u64, pos: u64, msg: &M) -> SendFate<M>;

    /// Short label for manifests and experiment records.
    fn name(&self) -> &'static str {
        "conduct"
    }
}

/// Deterministic coin material for conduct decisions: an FNV-1a hash of
/// the seed and the send's identity. Uniform enough for probability
/// thresholds, and — unlike an RNG stream — independent of how many other
/// sends were judged before this one.
pub fn conduct_roll(seed: u64, from: NodeId, to: NodeId, round: u64, pos: u64) -> u64 {
    let mut d = Digest::new();
    d.write_u64(CONDUCT_SALT)
        .write_u64(seed)
        .write_u64(from.raw())
        .write_u64(to.raw())
        .write_u64(round)
        .write_u64(pos);
    d.finish()
}

/// Probability scale of [`ByzantineConduct`]: decisions are expressed in
/// parts per million, so thresholds are exact integers (no float
/// comparisons on the replay path).
pub const PPM: u32 = 1_000_000;

/// A concrete [`Conduct`]: a fixed set of Byzantine members that drop
/// and/or forge their outgoing messages with configured probabilities.
/// Honest senders pass through untouched.
///
/// Decisions hash `(seed, from, to, round, pos)` via [`conduct_roll`], so
/// the same construction replays identically on every backend.
pub struct ByzantineConduct<M> {
    byz: BTreeSet<u64>,
    drop_ppm: u32,
    forge_ppm: u32,
    forge: Option<fn(&M) -> M>,
    seed: u64,
}

impl<M> ByzantineConduct<M> {
    /// A conduct with the given Byzantine member set and no misbehavior
    /// configured yet (add it with [`Self::dropping`] / [`Self::forging`]).
    pub fn new(seed: u64, byz: impl IntoIterator<Item = NodeId>) -> Self {
        Self {
            byz: byz.into_iter().map(|id| id.raw()).collect(),
            drop_ppm: 0,
            forge_ppm: 0,
            forge: None,
            seed,
        }
    }

    /// Byzantine members drop each outgoing message with probability
    /// `ppm / 1e6` (clamped to certainty at [`PPM`]).
    pub fn dropping(mut self, ppm: u32) -> Self {
        self.drop_ppm = ppm.min(PPM);
        self
    }

    /// Byzantine members replace each surviving outgoing message with
    /// `forge(original)` with probability `ppm / 1e6`. The forge function
    /// must be pure — it is applied under the same determinism contract as
    /// the rest of the hook.
    pub fn forging(mut self, ppm: u32, forge: fn(&M) -> M) -> Self {
        self.forge_ppm = ppm.min(PPM);
        self.forge = Some(forge);
        self
    }

    /// Whether `id` is in the Byzantine set.
    pub fn is_byzantine(&self, id: NodeId) -> bool {
        self.byz.contains(&id.raw())
    }

    /// Number of Byzantine members.
    pub fn byzantine_count(&self) -> usize {
        self.byz.len()
    }
}

impl<M: Send + Sync> Conduct<M> for ByzantineConduct<M> {
    fn judge(&self, from: NodeId, to: NodeId, round: u64, pos: u64, msg: &M) -> SendFate<M> {
        if !self.byz.contains(&from.raw()) {
            return SendFate::Deliver;
        }
        let roll = (conduct_roll(self.seed, from, to, round, pos) % PPM as u64) as u32;
        if roll < self.drop_ppm {
            return SendFate::Drop;
        }
        if roll < self.drop_ppm.saturating_add(self.forge_ppm) {
            if let Some(forge) = self.forge {
                return SendFate::Replace(forge(msg));
            }
        }
        SendFate::Deliver
    }

    fn name(&self) -> &'static str {
        "byzantine"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_stable_and_distinguish_sends() {
        let a = conduct_roll(1, NodeId(2), NodeId(3), 4, 5);
        assert_eq!(a, conduct_roll(1, NodeId(2), NodeId(3), 4, 5), "pure function");
        assert_ne!(a, conduct_roll(2, NodeId(2), NodeId(3), 4, 5), "seed matters");
        assert_ne!(a, conduct_roll(1, NodeId(9), NodeId(3), 4, 5), "sender matters");
        assert_ne!(a, conduct_roll(1, NodeId(2), NodeId(3), 9, 5), "round matters");
        assert_ne!(a, conduct_roll(1, NodeId(2), NodeId(3), 4, 9), "position matters");
    }

    #[test]
    fn honest_senders_always_deliver() {
        let c: ByzantineConduct<u64> =
            ByzantineConduct::new(7, [NodeId(1)]).dropping(PPM).forging(PPM, |m| m + 1);
        for pos in 0..50 {
            match c.judge(NodeId(2), NodeId(1), 0, pos, &0) {
                SendFate::Deliver => {}
                _ => panic!("honest sender must pass through"),
            }
        }
    }

    #[test]
    fn certain_drop_always_drops() {
        let c: ByzantineConduct<u64> = ByzantineConduct::new(7, [NodeId(1)]).dropping(PPM);
        for pos in 0..50 {
            match c.judge(NodeId(1), NodeId(2), 3, pos, &0) {
                SendFate::Drop => {}
                _ => panic!("drop probability 1 must drop"),
            }
        }
    }

    #[test]
    fn certain_forge_applies_the_transform() {
        let c: ByzantineConduct<u64> =
            ByzantineConduct::new(7, [NodeId(1)]).forging(PPM, |m| m ^ 0xFF);
        match c.judge(NodeId(1), NodeId(2), 0, 0, &1) {
            SendFate::Replace(m) => assert_eq!(m, 1 ^ 0xFF),
            _ => panic!("forge probability 1 must forge"),
        }
    }

    #[test]
    fn partial_probability_hits_a_plausible_fraction() {
        let c: ByzantineConduct<u64> = ByzantineConduct::new(11, [NodeId(1)]).dropping(PPM / 2);
        let dropped = (0..2000)
            .filter(|&pos| matches!(c.judge(NodeId(1), NodeId(2), 0, pos, &0), SendFate::Drop))
            .count();
        assert!((800..1200).contains(&dropped), "~50% expected, got {dropped}/2000");
    }

    #[test]
    fn decisions_are_order_independent() {
        let c: ByzantineConduct<u64> = ByzantineConduct::new(3, [NodeId(1)]).dropping(PPM / 2);
        let fate = |pos| matches!(c.judge(NodeId(1), NodeId(2), 5, pos, &0), SendFate::Drop);
        let forward: Vec<bool> = (0..64).map(fate).collect();
        let mut backward: Vec<bool> = (0..64).rev().map(fate).collect();
        backward.reverse();
        assert_eq!(forward, backward);
    }
}
