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
//! This crate is the *model*: [`Protocol`] and [`Ctx`], [`Envelope`] and
//! [`Payload`], the sorted id runs [`IdRun`] and [`IdSet`] (a [`BlockSet`]
//! is one), [`FaultModel`], [`Conduct`], [`Digest`], [`Trace`],
//! [`CommStats`], the checkpoint container, the per-node RNG streams of
//! [`rng`] and the [`SimEngine`] trait. The engine that executes
//! it — deterministically, from per-node [`rand_chacha`] streams derived
//! from a master seed — is `simnet_xl::XlNetwork`; its crate docs open
//! with a runnable example.

pub mod accounting;
pub mod backend;
pub mod checkpoint;
pub mod conduct;
pub mod digest;
pub mod fault;
pub mod id;
pub mod idrun;
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
pub use fault::{
    BlockSet, Burst, BurstSchedule, BurstTarget, FaultModel, LinkFate, LinkFaults, NodeFault,
    Partition, TimedPartition,
};
pub use id::NodeId;
pub use idrun::{IdRun, IdSet};
pub use message::{Envelope, Payload};
pub use protocol::{node_state_digest, Ctx, Inbox, Protocol};
pub use rng::{stream, NodeRng};
pub use trace::{Trace, TraceEvent};
