//! Messages and envelopes.

use crate::digest::Digest;
use crate::NodeId;

/// A message payload.
///
/// Payloads must report their size so the engine can account the
/// communication work of each node (total bits sent and received per round,
/// the cost measure of the paper). Node identifiers should be counted at
/// [`NodeId::SIZE_BITS`] bits each.
pub trait Payload: Clone + Send + Sync + 'static {
    /// Size of this message in bits, as charged to both endpoints.
    fn size_bits(&self) -> u64;

    /// Feed this payload into a replay-verification digest.
    ///
    /// The default hashes only [`size_bits`](Self::size_bits), which
    /// distinguishes variable-size payloads but collapses equal-size ones;
    /// override to hash content so replay divergence in message *values*
    /// is detected, not just in message *shapes*.
    fn digest(&self, digest: &mut Digest) {
        digest.write_u64(self.size_bits());
    }
}

/// Unit payload for protocols that only need "a message arrived".
impl Payload for () {
    fn size_bits(&self) -> u64 {
        1
    }

    fn digest(&self, digest: &mut Digest) {
        digest.write_u8(0);
    }
}

impl Payload for NodeId {
    fn size_bits(&self) -> u64 {
        NodeId::SIZE_BITS
    }

    fn digest(&self, digest: &mut Digest) {
        digest.write_u64(self.raw());
    }
}

impl Payload for u64 {
    fn size_bits(&self) -> u64 {
        64
    }

    fn digest(&self, digest: &mut Digest) {
        digest.write_u64(*self);
    }
}

impl<T: Payload> Payload for Vec<T> {
    fn size_bits(&self) -> u64 {
        // Length prefix plus elements.
        32 + self.iter().map(Payload::size_bits).sum::<u64>()
    }

    fn digest(&self, digest: &mut Digest) {
        digest.write_usize(self.len());
        for item in self {
            item.digest(digest);
        }
    }
}

impl<A: Payload, B: Payload> Payload for (A, B) {
    fn size_bits(&self) -> u64 {
        self.0.size_bits() + self.1.size_bits()
    }

    fn digest(&self, digest: &mut Digest) {
        self.0.digest(digest);
        self.1.digest(digest);
    }
}

/// A message in flight or delivered: payload plus addressing metadata.
#[derive(Clone, Debug)]
pub struct Envelope<M> {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Round in which the message was sent (it is processed in
    /// `sent_round + 1`).
    pub sent_round: u64,
    /// The payload.
    pub msg: M,
}

crate::checkpoint_schema! {
    Envelope<M: crate::Checkpoint> {
        fields { from, to, sent_round, msg }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_payload_size_includes_length_prefix() {
        let v = vec![NodeId(1), NodeId(2), NodeId(3)];
        assert_eq!(v.size_bits(), 32 + 3 * 64);
    }

    #[test]
    fn tuple_payload_size_is_sum() {
        let p = (NodeId(1), 7u64);
        assert_eq!(p.size_bits(), 128);
    }

    #[test]
    fn unit_payload_costs_one_bit() {
        assert_eq!(().size_bits(), 1);
    }
}
