//! The per-node round state machine.
//!
//! A live node cannot trust the network for round structure — TCP delivers
//! whenever it likes — so the daemon buffers incoming frames here and the
//! driver re-imposes the synchronous model locally: a frame sent in round
//! `s` becomes eligible at tick `s + 1`, passes exactly the Section 1.1
//! rule [`simnet::fault::delivered`] against the recorded block sets, and
//! only then reaches the protocol. The driver mirrors
//! `simnet_xl::XlNetwork::step_blocked` for a single node; every rule
//! here has a counterpart there, and the pair is what makes live digests
//! replayable (see [`crate::nodert::replay()`]).

use std::collections::BTreeMap;

use simnet::fault::delivered;
use simnet::rng::stream;
use simnet::{node_state_digest, BlockSet, Ctx, Envelope, NodeId, NodeRng, Protocol};

use super::proto::WireProto;
use super::trace::DelayObs;

/// What the coordinator tells a node at the start of a round.
#[derive(Clone, Debug)]
pub struct TickDirective {
    /// The round to execute.
    pub round: u64,
    /// The full DoS block set for this round (the adversary is omniscient;
    /// every node learns the set so it can apply the delivery rule
    /// locally, exactly as the simulator does globally).
    pub blocked: BlockSet,
    /// Artificial lag, in rounds, applied to every frame that becomes
    /// deliverable this tick. `0` means deliver on time. This is the
    /// campaign's mechanism for exercising the scheduled-delay path of the
    /// replay oracle.
    pub hold_extra: u64,
}

/// What a node reports back after executing a tick.
#[derive(Clone, Debug)]
pub struct TickOutcome {
    /// The round that was executed.
    pub round: u64,
    /// Envelopes to put on the wire (empty when the node was blocked).
    pub sends: Vec<Envelope<u64>>,
    /// The node state fingerprint after the round
    /// ([`simnet::node_state_digest`]).
    pub digest: u64,
    /// Delay observations: frames held back by `hold_extra` this tick.
    /// The replay oracle turns each into a scheduled per-message delay.
    pub delays: Vec<DelayObs>,
    /// Frames handed to the protocol this round.
    pub delivered: u64,
    /// Frames discarded by the delivery rule (blocked endpoints) or by
    /// staleness.
    pub dropped: u64,
    /// Whether this node was blocked this round (it then skipped
    /// `on_round` and sent nothing, but still reports its digest).
    pub blocked: bool,
}

struct Held {
    env: Envelope<u64>,
    until: u64,
}

/// Replays the simulator's round discipline on a live node.
///
/// Sans-io: the daemon calls [`RoundDriver::ingest`] for every `Msg` frame
/// read off a socket and [`RoundDriver::on_tick`] when the coordinator
/// releases a round; the driver never blocks or performs IO.
pub struct RoundDriver {
    me: NodeId,
    proto: WireProto,
    rng: NodeRng,
    /// Frames received but not yet eligible (eligible at `sent_round + 1`).
    fresh: Vec<Envelope<u64>>,
    /// Frames held back by a lag directive, with their maturity round.
    held: Vec<Held>,
    /// Block sets by round, kept as long as a frame might still need them.
    blocked_hist: BTreeMap<u64, BlockSet>,
    ticks: u64,
}

impl RoundDriver {
    /// A driver for node `me` in a cluster of `span` initial members,
    /// derived from the shared `seed` exactly like the simulator derives
    /// node streams (`stream(seed, me, 0)`).
    pub fn new(seed: u64, me: NodeId, span: u64) -> Self {
        Self {
            me,
            proto: WireProto::new(span),
            rng: stream(seed, me.raw(), 0),
            fresh: Vec::new(),
            held: Vec::new(),
            blocked_hist: BTreeMap::new(),
            ticks: 0,
        }
    }

    /// This node's id.
    pub fn me(&self) -> NodeId {
        self.me
    }

    /// Number of ticks executed.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// The node's current state fingerprint ([`simnet::node_state_digest`]).
    pub fn digest(&self) -> u64 {
        node_state_digest(self.me, self.rng.get_word_pos(), &self.proto)
    }

    /// Buffer a payload frame read off the wire. Cheap; called from the
    /// daemon's reader context at any time relative to ticks.
    pub fn ingest(&mut self, from: NodeId, sent_round: u64, payload: u64) {
        self.fresh.push(Envelope { from, to: self.me, sent_round, msg: payload });
    }

    /// Execute one round.
    ///
    /// Mirrors `XlNetwork::step_blocked` for this node: matured held frames
    /// are delivered first (their Section 1.1 check ran when the hold was
    /// imposed; maturity only re-checks the receiver's block state), then
    /// frames sent last round under the full rule, then `on_round` —
    /// skipped entirely, RNG untouched, when the node is blocked.
    pub fn on_tick(&mut self, tick: &TickDirective) -> TickOutcome {
        let round = tick.round;
        self.blocked_hist.insert(round, tick.blocked.clone());
        self.ticks += 1;

        let me_blocked = tick.blocked.contains(self.me);
        let mut inbox: Vec<Envelope<u64>> = Vec::new();
        let mut delays: Vec<DelayObs> = Vec::new();
        let (mut delivered_n, mut dropped_n) = (0u64, 0u64);

        // 1. Matured held frames, in original hold order.
        let mut still = Vec::new();
        for held in self.held.drain(..) {
            if held.until <= round {
                if me_blocked {
                    dropped_n += 1;
                } else {
                    delivered_n += 1;
                    inbox.push(held.env);
                }
            } else {
                still.push(held);
            }
        }
        self.held = still;

        // 2. Fresh frames sent last round, under the full delivery rule.
        let mut keep = Vec::new();
        let empty = BlockSet::none();
        for env in self.fresh.drain(..) {
            if env.sent_round + 1 > round {
                // Sent this round by a peer that ticked before us; eligible
                // next tick.
                keep.push(env);
                continue;
            }
            if env.sent_round + 1 < round {
                // Stale: the round-mark barrier should make this
                // impossible, but a frame racing a kill can slip through.
                dropped_n += 1;
                continue;
            }
            let at_send = self.blocked_hist.get(&env.sent_round).unwrap_or(&empty);
            if !delivered(env.from, self.me, at_send, &tick.blocked) {
                dropped_n += 1;
                continue;
            }
            if tick.hold_extra > 0 {
                // Held: observed delay recorded now (the replay oracle
                // consumes the scheduled delay at the delivery round, before
                // the maturity re-check, so the observation must exist even
                // if the frame is later dropped at maturity).
                delays.push(DelayObs {
                    from: env.from,
                    to: self.me,
                    sent_round: env.sent_round,
                    extra: tick.hold_extra,
                });
                self.held.push(Held { env, until: round + tick.hold_extra });
            } else {
                delivered_n += 1;
                inbox.push(env);
            }
        }
        self.fresh = keep;

        // 3. Compute and send — unless blocked, in which case the protocol
        // does not run and the node RNG is not advanced, exactly like the
        // simulator skipping a blocked node's `on_round`.
        let mut sends = Vec::new();
        if me_blocked {
            inbox.clear();
        } else {
            let mut ctx = Ctx::from_parts(self.me, round, &mut inbox, &mut sends, &mut self.rng);
            self.proto.on_round(&mut ctx);
        }

        // Block sets older than this round can no longer be referenced:
        // the only lookups are `B[sent_round]` for frames with
        // `sent_round + 1 == round`.
        self.blocked_hist.retain(|&r, _| r >= round);

        let digest = node_state_digest(self.me, self.rng.get_word_pos(), &self.proto);
        TickOutcome {
            round,
            sends,
            digest,
            delays,
            delivered: delivered_n,
            dropped: dropped_n,
            blocked: me_blocked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(round: u64, blocked: &[u64], hold_extra: u64) -> TickDirective {
        TickDirective {
            round,
            blocked: BlockSet::from_iter(blocked.iter().map(|&b| NodeId(b))),
            hold_extra,
        }
    }

    #[test]
    fn frame_sent_round_s_delivers_at_tick_s_plus_one() {
        let mut driver = RoundDriver::new(1, NodeId(0), 4);
        driver.ingest(NodeId(1), 0, 99);
        let out0 = driver.on_tick(&tick(0, &[], 0));
        assert_eq!(out0.delivered, 0, "not eligible before sent_round + 1");
        let out1 = driver.on_tick(&tick(1, &[], 0));
        assert_eq!(out1.delivered, 1);
        assert_eq!(out1.sends.len(), super::super::proto::FANOUT);
    }

    #[test]
    fn blocked_sender_or_receiver_drops_the_frame() {
        // Sender 1 blocked in the send round: dropped.
        let mut driver = RoundDriver::new(1, NodeId(0), 4);
        driver.on_tick(&tick(0, &[1], 0));
        driver.ingest(NodeId(1), 0, 5);
        let out = driver.on_tick(&tick(1, &[], 0));
        assert_eq!((out.delivered, out.dropped), (0, 1));

        // Receiver blocked in the receive round: dropped, and the node
        // neither runs nor sends, but still reports a digest.
        let mut driver = RoundDriver::new(1, NodeId(0), 4);
        driver.on_tick(&tick(0, &[], 0));
        driver.ingest(NodeId(1), 0, 5);
        let out = driver.on_tick(&tick(1, &[0], 0));
        assert_eq!((out.delivered, out.dropped), (0, 1));
        assert!(out.blocked && out.sends.is_empty());
    }

    #[test]
    fn blocked_round_leaves_rng_untouched() {
        let mut blocked_node = RoundDriver::new(1, NodeId(0), 4);
        let fresh_digest = blocked_node.digest();
        let out = blocked_node.on_tick(&tick(0, &[0], 0));
        assert_eq!(out.digest, fresh_digest, "blocked tick must not advance state");
    }

    #[test]
    fn hold_extra_delays_and_records_the_observation() {
        let mut driver = RoundDriver::new(1, NodeId(0), 4);
        driver.on_tick(&tick(0, &[], 0));
        driver.ingest(NodeId(2), 0, 42);
        let out1 = driver.on_tick(&tick(1, &[], 2));
        assert_eq!(out1.delivered, 0);
        assert_eq!(out1.delays.len(), 1);
        let obs = &out1.delays[0];
        assert_eq!((obs.from, obs.to, obs.sent_round, obs.extra), (NodeId(2), NodeId(0), 0, 2));
        let out2 = driver.on_tick(&tick(2, &[], 0));
        assert_eq!(out2.delivered, 0, "still one round short of maturity");
        let out3 = driver.on_tick(&tick(3, &[], 0));
        assert_eq!(out3.delivered, 1, "matures at delivery_round + extra");
    }

    #[test]
    fn held_frame_dropped_if_receiver_blocked_at_maturity() {
        let mut driver = RoundDriver::new(1, NodeId(0), 4);
        driver.on_tick(&tick(0, &[], 0));
        driver.ingest(NodeId(2), 0, 42);
        let out1 = driver.on_tick(&tick(1, &[], 1));
        assert_eq!(out1.delays.len(), 1, "observation exists even though later dropped");
        let out2 = driver.on_tick(&tick(2, &[0], 0));
        assert_eq!((out2.delivered, out2.dropped), (0, 1));
    }

    #[test]
    fn early_frames_wait_for_their_round() {
        let mut driver = RoundDriver::new(1, NodeId(0), 4);
        // A peer that ticked round 1 before us sends a frame we receive
        // while still executing round 1 ourselves.
        driver.on_tick(&tick(0, &[], 0));
        driver.ingest(NodeId(3), 1, 8);
        let out1 = driver.on_tick(&tick(1, &[], 0));
        assert_eq!(out1.delivered, 0);
        let out2 = driver.on_tick(&tick(2, &[], 0));
        assert_eq!(out2.delivered, 1);
    }
}
