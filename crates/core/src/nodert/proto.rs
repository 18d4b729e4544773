//! The protocol a `reconfig-node` cluster runs.
//!
//! [`WireProto`] is intentionally small — the point of the node daemon is
//! to validate the *runtime* (wire protocol, round pacing, fault campaign,
//! replay oracle), not to exercise a sophisticated overlay — but it is
//! chosen so that its digest is maximally sensitive to execution
//! divergence: every received payload is folded into an FNV accumulator,
//! every sent payload mixes in private randomness, and the targets of each
//! round's fanout are drawn from the node RNG. A single message delivered
//! to the wrong node, in the wrong round, or with a flipped bit changes
//! the digests of every node downstream of it.

use rand::RngExt;
use simnet::{Ctx, Digest, NodeId, Protocol};

/// Messages each node sends per round.
pub const FANOUT: usize = 2;

/// FNV-1a offset basis; the accumulator starts here so an empty history
/// hashes to a recognizable non-zero value.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Random-fanout gossip with an order-insensitive payload accumulator.
///
/// Each round a node folds the payloads delivered to it into `acc` —
/// after sorting them by `(from, sent_round, payload)`, so the digest does
/// not depend on the arrival order, which a real network does not
/// guarantee — and then sends [`FANOUT`] messages to uniformly random
/// targets in `0..span`, each payload mixing `acc` with a fresh draw from
/// the node's private RNG stream.
///
/// `span` is the *initial* cluster size: joiners get ids `>= span`, so
/// they inject traffic into the core but never receive any, which keeps
/// late arrivals from needing the full frame-delivery machinery.
pub struct WireProto {
    span: u64,
    acc: u64,
}

impl WireProto {
    /// A fresh node targeting the `span` initial members.
    pub fn new(span: u64) -> Self {
        assert!(span > 0, "cluster span must be non-empty");
        Self { span, acc: FNV_OFFSET }
    }

    /// The payload accumulator (exposed for tests and status reporting).
    pub fn acc(&self) -> u64 {
        self.acc
    }

    /// Number of initial members this node targets.
    pub fn span(&self) -> u64 {
        self.span
    }
}

impl Protocol for WireProto {
    type Msg = u64;

    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>) {
        // Canonical order: live delivery (TCP interleaving) and simulated
        // delivery (matured-delays-first) may hand us the same multiset of
        // envelopes in different orders; the fold must not care. Sorted
        // where the mail lies, so no copy of the inbox is made.
        ctx.inbox_mut().sort_by_key(|env| (env.from.raw(), env.sent_round, env.msg));
        for env in ctx.take_inbox() {
            self.acc = self.acc.wrapping_mul(FNV_PRIME) ^ env.msg;
        }
        for _ in 0..FANOUT {
            let to = NodeId(ctx.rng().random_range(0..self.span));
            let payload = self.acc ^ ctx.rng().random::<u64>();
            ctx.send(to, payload);
        }
    }

    fn digest(&self, digest: &mut Digest) {
        digest.write_u64(self.span).write_u64(self.acc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::rng::stream;
    use simnet::Envelope;

    fn env(from: u64, sent_round: u64, msg: u64) -> Envelope<u64> {
        Envelope { from: NodeId(from), to: NodeId(0), sent_round, msg }
    }

    fn run_round(proto: &mut WireProto, inbox: Vec<Envelope<u64>>) -> (Vec<Envelope<u64>>, u128) {
        let mut inbox = inbox;
        let mut outbox = Vec::new();
        let mut rng = stream(7, 0, 0);
        let mut ctx = Ctx::from_parts(NodeId(0), 3, &mut inbox, &mut outbox, &mut rng);
        proto.on_round(&mut ctx);
        (outbox, rng.get_word_pos())
    }

    #[test]
    fn accumulator_is_delivery_order_insensitive() {
        let batch = vec![env(2, 1, 77), env(1, 1, 11), env(1, 2, 50)];
        let mut forward = WireProto::new(4);
        let mut reverse = WireProto::new(4);
        run_round(&mut forward, batch.clone());
        run_round(&mut reverse, batch.into_iter().rev().collect());
        assert_eq!(forward.acc(), reverse.acc());
    }

    #[test]
    fn payload_values_change_the_accumulator() {
        let mut a = WireProto::new(4);
        let mut b = WireProto::new(4);
        run_round(&mut a, vec![env(1, 1, 11)]);
        run_round(&mut b, vec![env(1, 1, 12)]);
        assert_ne!(a.acc(), b.acc());
    }

    #[test]
    fn sends_fanout_messages_into_span() {
        let mut proto = WireProto::new(4);
        let (sends, word_pos) = run_round(&mut proto, vec![]);
        assert_eq!(sends.len(), FANOUT);
        for envlp in &sends {
            assert!(envlp.to.raw() < 4, "target outside span: {}", envlp.to);
            assert_eq!(envlp.from, NodeId(0));
            assert_eq!(envlp.sent_round, 3);
        }
        assert!(word_pos > 0, "fanout must draw from the node stream");
    }

    #[test]
    #[should_panic(expected = "span must be non-empty")]
    fn zero_span_panics() {
        WireProto::new(0);
    }
}
