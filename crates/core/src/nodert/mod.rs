//! # nodert — the live-node runtime behind `reconfig-node`
//!
//! The simulator executes protocols under a synchronous round abstraction;
//! this module is the bridge that lets the *same* protocol code run on real
//! processes connected by real sockets while the simulator stays the oracle.
//! It is deliberately sans-io: nothing here opens a socket or spawns a
//! thread. The `reconfig-node` crate supplies transport (TCP framing, the
//! coordinator control channel); everything that has to agree bit-for-bit
//! with the simulator lives here, next to the protocol code it must match.
//!
//! * [`proto`] — [`proto::WireProto`], the gossip protocol the cluster
//!   runs: a delivery-order-insensitive FNV accumulator over received
//!   payloads plus seeded random fanout. Its state digest is the quantity
//!   the replay oracle compares.
//! * [`driver`] — [`driver::RoundDriver`], the per-node round state
//!   machine: buffers frames, applies the Section 1.1 delivery rule
//!   locally, runs `on_round` through the ordinary [`simnet::Ctx`], and
//!   reports per-round digests and delay observations.
//! * [`trace`] — [`trace::ClusterTrace`], the recorded event trace of a
//!   cluster run (block sets, kills, joins, observed delays, digests) with
//!   a stable JSON encoding.
//! * [`replay`](mod@replay) — [`replay()`], the oracle: rebuild the run inside
//!   a parity-mode engine (observed delays become scheduled per-message
//!   delay faults, kills become crash-stop faults) and check every
//!   recorded node digest against the simulator's.

pub mod driver;
pub mod proto;
pub mod replay;
pub mod trace;

pub use driver::{RoundDriver, TickDirective, TickOutcome};
pub use proto::{WireProto, FANOUT};
pub use replay::{replay, ReplayError, ReplaySummary};
pub use trace::{ClusterTrace, DelayObs, RoundRecord};
