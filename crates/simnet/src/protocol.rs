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
    /// `None` once [`Ctx::take_inbox`] has moved the borrow into an
    /// [`Inbox`].
    pub(crate) inbox: Option<&'a mut Vec<Envelope<M>>>,
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
    /// returns. `inbox` is lent, not given away: whatever the protocol does
    /// with its mail, the buffer comes back with its capacity, so a caller
    /// that keeps it across rounds stops allocating once it is warm (and
    /// must clear it itself if the protocol never took it).
    pub fn from_parts(
        me: NodeId,
        round: u64,
        inbox: &'a mut Vec<Envelope<M>>,
        outbox: &'a mut Vec<Envelope<M>>,
        rng: &'a mut NodeRng,
    ) -> Self {
        Self { me, round, inbox: Some(inbox), outbox, rng }
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
    /// round), in delivery order. Taking the inbox leaves it empty: a
    /// second call within the same round yields nothing, and so does
    /// [`Ctx::inbox`] afterwards.
    ///
    /// The returned [`Inbox`] drains the engine's buffer in place rather
    /// than carrying it off, and it does not borrow the context — `for env
    /// in ctx.take_inbox() { ctx.send(..) }` is fine. Mail still unread
    /// when it is dropped is discarded.
    #[inline]
    pub fn take_inbox(&mut self) -> Inbox<'a, M> {
        Inbox { mail: self.inbox.take().map(|buf| buf.drain(..)) }
    }

    /// Peek at the inbox without consuming it.
    pub fn inbox(&self) -> &[Envelope<M>] {
        match &self.inbox {
            Some(buf) => buf,
            None => &[],
        }
    }

    /// The not-yet-taken inbox as a mutable slice, for a protocol that
    /// wants its mail in an order of its own before reading it (sort here,
    /// then [`Ctx::take_inbox`]). Empty after a take.
    pub fn inbox_mut(&mut self) -> &mut [Envelope<M>] {
        match &mut self.inbox {
            Some(buf) => buf,
            None => &mut [],
        }
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

/// This round's mail, handed out by [`Ctx::take_inbox`].
///
/// Iterating by value yields each [`Envelope`] once, in delivery order;
/// iterating `&inbox` (or [`Inbox::as_slice`]) looks at what has not been
/// yielded yet without consuming it. Dropping the inbox discards the rest.
/// Either way the engine's buffer ends the round empty with its capacity
/// intact — the mailbox is drained where it lies, never moved out.
pub struct Inbox<'a, M> {
    /// `None` when the inbox had already been taken this round.
    mail: Option<std::vec::Drain<'a, Envelope<M>>>,
}

impl<M> Inbox<'_, M> {
    /// The envelopes not yet yielded, in delivery order.
    pub fn as_slice(&self) -> &[Envelope<M>] {
        match &self.mail {
            Some(mail) => mail.as_slice(),
            None => &[],
        }
    }

    /// True when every envelope has been yielded (or there were none).
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }
}

impl<M> Iterator for Inbox<'_, M> {
    type Item = Envelope<M>;

    #[inline]
    fn next(&mut self) -> Option<Envelope<M>> {
        self.mail.as_mut()?.next()
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.as_slice().len();
        (left, Some(left))
    }
}

impl<M> ExactSizeIterator for Inbox<'_, M> {}

impl<'i, M> IntoIterator for &'i Inbox<'_, M> {
    type Item = &'i Envelope<M>;
    type IntoIter = std::slice::Iter<'i, Envelope<M>>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream;

    fn mail(n: u64) -> Vec<Envelope<NodeId>> {
        (0..n)
            .map(|i| Envelope {
                from: NodeId(10 + i),
                to: NodeId(1),
                sent_round: 4,
                msg: NodeId(i),
            })
            .collect()
    }

    /// Run `f` against a context over `inbox` and hand back the outbox.
    fn with_ctx(
        inbox: &mut Vec<Envelope<NodeId>>,
        f: impl FnOnce(&mut Ctx<'_, NodeId>),
    ) -> Vec<Envelope<NodeId>> {
        let mut outbox = Vec::new();
        let mut rng = stream(0, 1, 0);
        f(&mut Ctx::from_parts(NodeId(1), 5, inbox, &mut outbox, &mut rng));
        outbox
    }

    #[test]
    fn ctx_send_records_metadata() {
        let outbox = with_ctx(&mut Vec::new(), |ctx| ctx.send(NodeId(2), NodeId(9)));
        assert_eq!(outbox.len(), 1);
        assert_eq!(outbox[0].from, NodeId(1));
        assert_eq!(outbox[0].to, NodeId(2));
        assert_eq!(outbox[0].sent_round, 5);
        assert_eq!(outbox[0].msg, NodeId(9));
    }

    #[test]
    fn take_inbox_drains() {
        let mut inbox = mail(1);
        with_ctx(&mut inbox, |ctx| {
            assert_eq!(ctx.inbox().len(), 1);
            let got = ctx.take_inbox();
            assert_eq!(got.len(), 1);
            assert!(ctx.take_inbox().is_empty());
            assert!(ctx.inbox().is_empty() && ctx.inbox_mut().is_empty());
        });
        assert!(inbox.is_empty());
    }

    #[test]
    fn take_inbox_yields_delivery_order_and_does_not_borrow_the_context() {
        let mut inbox = mail(5);
        let cap = inbox.capacity();
        let outbox = with_ctx(&mut inbox, |ctx| {
            let mut taken = ctx.take_inbox();
            assert_eq!(taken.len(), 5);
            // By reference first (nothing consumed), sending while the
            // inbox is alive; then by value.
            for env in &taken {
                ctx.send(env.from, env.msg);
            }
            assert_eq!(taken.next().map(|env| env.msg), Some(NodeId(0)));
            assert_eq!(taken.as_slice().len(), 4);
            assert_eq!(taken.size_hint(), (4, Some(4)));
            let rest: Vec<u64> = taken.map(|env| env.msg.raw()).collect();
            assert_eq!(rest, [1, 2, 3, 4]);
        });
        let echoed: Vec<u64> = outbox.iter().map(|env| env.msg.raw()).collect();
        assert_eq!(echoed, [0, 1, 2, 3, 4]);
        assert!(inbox.is_empty());
        assert_eq!(inbox.capacity(), cap, "the buffer is drained in place, not carried off");
    }

    #[test]
    fn half_read_inbox_discards_the_rest() {
        let mut inbox = mail(4);
        let cap = inbox.capacity();
        with_ctx(&mut inbox, |ctx| {
            let mut taken = ctx.take_inbox();
            taken.next();
            taken.next();
        });
        assert!(inbox.is_empty());
        assert_eq!(inbox.capacity(), cap);
    }

    #[test]
    fn inbox_mut_reorders_what_take_inbox_then_yields() {
        let mut inbox = mail(3);
        with_ctx(&mut inbox, |ctx| {
            ctx.inbox_mut().reverse();
            let order: Vec<u64> = ctx.take_inbox().map(|env| env.msg.raw()).collect();
            assert_eq!(order, [2, 1, 0]);
        });
    }

    #[test]
    fn untaken_inbox_is_left_for_the_caller_to_clear() {
        let mut inbox = mail(2);
        with_ctx(&mut inbox, |ctx| assert_eq!(ctx.inbox().len(), 2));
        assert_eq!(inbox.len(), 2);
    }
}
