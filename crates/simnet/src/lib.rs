//! # simnet — synchronous message-passing overlay simulator
//!
//! This crate implements the network model of Drees, Gmyr and Scheideler,
//! *Churn- and DoS-resistant Overlay Networks Based on Network
//! Reconfiguration* (SPAA 2016), Section 1.1:
//!
//! * Nodes operate in **synchronized rounds**. Each round has three steps:
//!   a node first receives all messages sent to it in the previous round,
//!   then performs arbitrary local computation, and finally sends a distinct
//!   message to each node whose identifier it knows.
//! * The **communication work** of a node in a round is the total number of
//!   bits it sends and receives; [`accounting`] tracks it per node per round.
//! * Under a **DoS attack** a blocked node can neither send nor receive.
//!   A message sent from `v` to `w` in round `i` is received and processed
//!   by `w` only if `v` is non-blocked in round `i` and `w` is non-blocked
//!   in rounds `i` *and* `i + 1` (in which case `w` is called *available*
//!   in round `i + 1`). [`fault`] implements exactly this rule.
//! * Beyond the paper's model, an optional [`fault::FaultModel`] composes
//!   the blocking rule with link faults (probabilistic drop, duplication,
//!   bounded delay) and node faults (crash-stop, crash-recovery with state
//!   loss, partitions) — seed-derived and replay-deterministic. The default
//!   null model changes nothing.
//! * Nodes are identified by opaque [`NodeId`]s of `O(log n)` bits; knowing
//!   an id is what permits sending to it (this is an *overlay* model — any
//!   node may message any other node whose id it holds).
//!
//! The engine is deterministic: all randomness flows from per-node
//! [`rand_chacha`] streams derived from a master seed (see [`rng`]), and
//! rounds step nodes in parallel with rayon without affecting the outcome.
//!
//! ## Quick example
//!
//! ```
//! use simnet::{Network, NodeId, Protocol, Ctx, Payload};
//!
//! #[derive(Clone)]
//! struct Ping(u32);
//! impl Payload for Ping {
//!     fn size_bits(&self) -> u64 { 32 }
//! }
//!
//! /// Every node forwards a counter to its successor in a ring.
//! struct Ring { next: NodeId, seen: u32 }
//! impl Protocol for Ring {
//!     type Msg = Ping;
//!     fn on_round(&mut self, ctx: &mut Ctx<'_, Ping>) {
//!         for env in ctx.take_inbox() {
//!             self.seen = self.seen.max(env.msg.0);
//!         }
//!         let next = self.next;
//!         ctx.send(next, Ping(self.seen + 1));
//!     }
//! }
//!
//! let n = 8u64;
//! let mut net = Network::new(42);
//! for i in 0..n {
//!     net.add_node(NodeId(i), Ring { next: NodeId((i + 1) % n), seen: 0 });
//! }
//! for _ in 0..10 {
//!     net.step();
//! }
//! assert!(net.node(NodeId(0)).unwrap().seen > 0);
//! ```

pub mod accounting;
pub mod backend;
pub mod checkpoint;
pub mod conduct;
pub mod digest;
pub mod engine;
pub mod fault;
pub mod id;
pub mod instrument;
pub mod message;
pub mod protocol;
pub mod rng;
pub mod trace;

pub use accounting::{CommStats, RoundWork};
pub use backend::SimEngine;
pub use checkpoint::{Checkpoint, Checkpointer, CkptError, CkptResult};
pub use conduct::{ByzantineConduct, Conduct, SendFate};
pub use digest::{Digest, RoundDigest, RunManifest};
pub use engine::{Network, ParMode, PAR_THRESHOLD};
pub use fault::{
    BlockSet, Burst, BurstSchedule, BurstTarget, FaultModel, LinkFate, LinkFaults, NodeFault,
    Partition, TimedPartition,
};
pub use id::NodeId;
pub use message::{Envelope, Payload};
pub use protocol::{node_state_digest, Ctx, Protocol};
pub use rng::{stream, NodeRng};
pub use trace::{Trace, TraceEvent};
