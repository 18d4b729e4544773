//! The engine interface.
//!
//! [`SimEngine`] is what this crate — the model — asks of whatever executes
//! it: membership churn, round stepping with DoS block sets, fault-model
//! installation, observability attachment and the replay-verification
//! digest. `simnet_xl::XlNetwork` is the implementation; its docs carry
//! the semantics of every method.
//!
//! The trait exposes ids as a collected `Vec` rather than an iterator so it
//! stays object-safe; the call sites that enumerate members are all
//! control-plane code where the allocation is irrelevant.

use crate::accounting::CommStats;
use crate::conduct::Conduct;
use crate::fault::{BlockSet, FaultModel};
use crate::protocol::Protocol;
use crate::trace::Trace;
use crate::NodeId;
use std::sync::Arc;
use telemetry::Telemetry;

/// A synchronous-round simulation engine executing protocol `P`.
///
/// Two engines driven identically must produce identical
/// [`round_digest`](SimEngine::round_digest) streams.
pub trait SimEngine<P: Protocol> {
    /// The master seed this engine was created with.
    fn master_seed(&self) -> u64;

    /// Current round number (the next round to execute).
    fn round(&self) -> u64;

    /// Number of nodes currently in the network.
    fn len(&self) -> usize;

    /// True if no nodes are present.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether `id` is currently a member.
    fn contains(&self, id: NodeId) -> bool;

    /// Current member ids, in unspecified order.
    fn ids(&self) -> Vec<NodeId>;

    /// Add a node. Panics if `id` is already present.
    fn add_node(&mut self, id: NodeId, proto: P);

    /// Remove a node, returning its protocol state.
    fn remove_node(&mut self, id: NodeId) -> Option<P>;

    /// Shared access to a node's protocol state.
    fn node(&self, id: NodeId) -> Option<&P>;

    /// Exclusive access to a node's protocol state.
    fn node_mut(&mut self, id: NodeId) -> Option<&mut P>;

    /// Inject a message from outside the simulation.
    fn inject(&mut self, from: NodeId, to: NodeId, msg: P::Msg);

    /// Execute one round with the given set of nodes blocked.
    fn step_blocked(&mut self, blocked: &BlockSet);

    /// Execute one round with no nodes blocked.
    fn step(&mut self) {
        self.step_blocked(&BlockSet::none());
    }

    /// Run `rounds` rounds with no blocking.
    fn run(&mut self, rounds: u64) {
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Install a fault model on the delivery path.
    fn set_fault_model(&mut self, faults: FaultModel);

    /// The installed fault model.
    fn fault_model(&self) -> &FaultModel;

    /// Install (or with `None`, remove) a send-path [`Conduct`] policy.
    /// Conduct is configuration, not state: resumed runs must re-install
    /// it.
    fn set_conduct(&mut self, conduct: Option<Arc<dyn Conduct<P::Msg>>>);

    /// Totals of messages `(dropped, forged)` by the installed conduct.
    fn conduct_counts(&self) -> (u64, u64);

    /// Attach a telemetry recorder: pure observability, never part of
    /// the digest.
    fn set_telemetry(&mut self, tel: Telemetry);

    /// The attached telemetry recorder.
    fn telemetry(&self) -> &Telemetry;

    /// Enable event tracing with the given buffer capacity.
    fn enable_trace(&mut self, cap: usize);

    /// Record a round digest into the trace after every subsequent round.
    fn enable_digests(&mut self);

    /// Attach a reproduction manifest to the trace.
    fn set_manifest(&mut self, config: String);

    /// The event trace (counters, events, digests, manifest).
    fn trace(&self) -> &Trace;

    /// Communication-work statistics recorded so far.
    fn stats(&self) -> &CommStats;

    /// Stable fingerprint of the full engine state, independent of
    /// layout and thread schedule.
    fn round_digest(&self) -> u64;
}
