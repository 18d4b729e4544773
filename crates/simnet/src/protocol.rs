//! The node-side protocol interface.

use crate::digest::Digest;
use crate::message::{Envelope, Payload};
use crate::rng::NodeRng;
use crate::NodeId;

/// A distributed protocol, executed locally by every node.
///
/// `on_round` is called once per synchronous round on every *non-blocked*
/// node. Within it, the node performs the three steps of the paper's model:
/// it reads the messages delivered this round via [`Ctx::take_inbox`],
/// performs arbitrary local computation, and queues outgoing messages via
/// [`Ctx::send`]; those are delivered at the start of the next round
/// (subject to the DoS blocking rule, see [`crate::fault`]).
pub trait Protocol: Send {
    /// The message type exchanged by this protocol.
    type Msg: Payload;

    /// Execute one round.
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>);

    /// Feed this node's protocol state into a replay-verification digest
    /// (see [`crate::SimEngine::round_digest`]).
    ///
    /// The default contributes nothing, which is always *sound* — the
    /// engine separately digests membership, RNG positions and in-flight
    /// messages — but protocols should override this to hash every field
    /// that defines their state, so that state divergence between two runs
    /// is caught at the round it happens rather than when it first affects
    /// a message.
    fn digest(&self, digest: &mut Digest) {
        let _ = digest;
    }

    /// Called when the node completes a crash-recovery fault with state
    /// loss (see [`crate::fault::NodeFault::CrashRecover`]).
    ///
    /// Protocols model the loss by resetting their fields here; the default
    /// keeps the state unchanged, which models a node whose protocol state
    /// survives on durable storage. The engine separately clears the inbox
    /// and re-keys the node's RNG stream in either case.
    fn on_crash_recover(&mut self) {}

    /// True when this node has gone permanently passive: for every future
    /// round and *any* inbox contents, [`Protocol::on_round`] would neither
    /// mutate protocol state, nor draw from the node RNG, nor send a
    /// message. The flag may only flip back to `false` through an external
    /// state change the engine can see ([`Protocol::on_crash_recover`] or
    /// direct mutation via `node_mut`).
    ///
    /// The engine's active-set worklist (see `simnet-xl`) uses this to
    /// skip the `on_round` call entirely — it still clears the inbox, as
    /// the round model requires — so quiescent rounds cost O(active)
    /// instead of O(n). Because a quiescent `on_round` touches nothing, a
    /// skipped call is indistinguishable from an executed one and the
    /// round-digest stream is unchanged. The default is `false`: always
    /// step.
    fn quiescent(&self) -> bool {
        false
    }
}

/// The canonical per-node state fingerprint: the
/// node's id, its RNG stream position, and its protocol state, hashed in
/// that order into one [`Digest`].
///
/// The simulator exposes it per member as `XlNetwork::node_digest`; a live
/// driver (the `reconfig-node` daemon) computes the same value from its own
/// copy of the state. Two executions of the same protocol agree on a node's
/// fingerprint after a round iff the node's visible state — including how
/// much private randomness it consumed — is identical, which is the
/// node-level contract behind simulator-as-oracle replay.
pub fn node_state_digest<P: Protocol>(id: NodeId, rng_word_pos: u128, proto: &P) -> u64 {
    let mut d = Digest::new();
    d.write_u64(id.raw());
    d.write_u128(rng_word_pos);
    proto.digest(&mut d);
    d.finish()
}

/// Per-round execution context handed to [`Protocol::on_round`].
///
/// Borrows the node's inbox, outbox and private RNG stream from the engine.
pub struct Ctx<'a, M> {
    pub(crate) me: NodeId,
    pub(crate) round: u64,
    pub(crate) inbox: &'a mut Vec<Envelope<M>>,
    pub(crate) outbox: &'a mut Vec<Envelope<M>>,
    pub(crate) rng: &'a mut NodeRng,
}

impl<'a, M: Payload> Ctx<'a, M> {
    /// Assemble a context from its parts.
    ///
    /// This is the engine's entry point (and a live driver's, see
    /// `reconfig_core::nodert`): it borrows a node's inbox, a send buffer
    /// and the node's private RNG stream. `outbox` receives the envelopes
    /// queued by [`Ctx::send`]; the caller routes them after `on_round`
    /// returns.
    pub fn from_parts(
        me: NodeId,
        round: u64,
        inbox: &'a mut Vec<Envelope<M>>,
        outbox: &'a mut Vec<Envelope<M>>,
        rng: &'a mut NodeRng,
    ) -> Self {
        Self { me, round, inbox, outbox, rng }
    }

    /// This node's identifier.
    #[inline]
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// The current round number.
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Messages delivered to this node this round (sent in the previous
    /// round). Taking the inbox leaves it empty; a second call within the
    /// same round returns nothing.
    pub fn take_inbox(&mut self) -> Vec<Envelope<M>> {
        std::mem::take(self.inbox)
    }

    /// Peek at the inbox without consuming it.
    pub fn inbox(&self) -> &[Envelope<M>] {
        self.inbox
    }

    /// Queue a message to `to`, delivered next round.
    ///
    /// Sending to oneself is allowed (the overlay model places no
    /// restriction on it) and delivers next round like any other message.
    pub fn send(&mut self, to: NodeId, msg: M) {
        self.outbox.push(Envelope { from: self.me, to, sent_round: self.round, msg });
    }

    /// The node's deterministic private RNG stream.
    #[inline]
    pub fn rng(&mut self) -> &mut NodeRng {
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream;

    #[test]
    fn ctx_send_records_metadata() {
        let mut inbox = Vec::new();
        let mut outbox = Vec::new();
        let mut rng = stream(0, 1, 0);
        let mut ctx = Ctx::<NodeId> {
            me: NodeId(1),
            round: 5,
            inbox: &mut inbox,
            outbox: &mut outbox,
            rng: &mut rng,
        };
        ctx.send(NodeId(2), NodeId(9));
        assert_eq!(outbox.len(), 1);
        assert_eq!(outbox[0].from, NodeId(1));
        assert_eq!(outbox[0].to, NodeId(2));
        assert_eq!(outbox[0].sent_round, 5);
        assert_eq!(outbox[0].msg, NodeId(9));
    }

    #[test]
    fn take_inbox_drains() {
        let mut inbox =
            vec![Envelope { from: NodeId(2), to: NodeId(1), sent_round: 4, msg: NodeId(3) }];
        let mut outbox = Vec::new();
        let mut rng = stream(0, 1, 0);
        let mut ctx = Ctx::<NodeId> {
            me: NodeId(1),
            round: 5,
            inbox: &mut inbox,
            outbox: &mut outbox,
            rng: &mut rng,
        };
        assert_eq!(ctx.inbox().len(), 1);
        let got = ctx.take_inbox();
        assert_eq!(got.len(), 1);
        assert!(ctx.take_inbox().is_empty());
    }
}
