//! # simnet-xl — the simulation engine of the simnet round model
//!
//! `simnet` defines the model of the paper's Section 1.1 — protocols,
//! envelopes, the blocking rule, fault models, digests, checkpoints; this
//! crate executes it. [`XlNetwork`] is the one engine: it
//!
//! * stores node state in **structure-of-arrays** form, indexed by a
//!   stable `u32` sequence number, so a round walks dense parallel arrays
//!   instead of pointer-chasing boxed slots — comfortable at the n = 10⁷
//!   the paper's asymptotic claims (Theorems 5–7) are about;
//! * routes messages through **send arenas**: one flat `Vec`, tagged with
//!   a delivery sort key and filled in key order, that the next round's
//!   delivery walks once (in fast mode, one per shard, filled in
//!   parallel), judging every message by one rule and routing the
//!   survivors through per-destination buckets into inboxes;
//! * keeps the round path **flat**: each node's inbox is a buffer the
//!   engine owns for the node's whole life and [`simnet::Ctx::take_inbox`]
//!   drains where it lies, so a warm round allocates nothing for mail; and
//!   the DoS rule probes two **seq-indexed bitsets**, rebuilt once per
//!   round from the id-keyed [`simnet::BlockSet`]s, instead of descending a
//!   B-tree per message and per stepped node;
//! * skips idle nodes via an **active-set worklist**: a node that reports
//!   [`simnet::Protocol::quiescent`] drops out of the per-round loop until
//!   mail, a crash-recovery or external mutation re-activates it, so
//!   quiescent rounds step O(active) nodes instead of O(n) (the worklist
//!   is a bit per sequence number, scanned a word at a time).
//!
//! ## Quick example
//!
//! ```
//! use simnet::{Ctx, NodeId, Payload, Protocol};
//! use simnet_xl::XlNetwork;
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
//! let mut net = XlNetwork::new(42);
//! for i in 0..n {
//!     net.add_node(NodeId(i), Ring { next: NodeId((i + 1) % n), seen: 0 });
//! }
//! for _ in 0..10 {
//!     net.step();
//! }
//! assert!(net.node(NodeId(0)).unwrap().seen > 0);
//! ```
//!
//! ## Parity mode: one shard, one digest stream
//!
//! [`XlNetwork::new`] builds the parity engine: the data plane at one
//! shard. Driven identically (same seed, same churn, same block sets, same
//! fault model), it produces the same [`simnet::RoundDigest`] stream in
//! every process, so the repository's golden digest files —
//! `tests/golden/engine.digests` pins the raw round model — are its
//! oracle. That rests on three ordering guarantees, spelled out in
//! DESIGN.md §10:
//!
//! 1. a joining node takes the most recently freed sequence number, else
//!    the next fresh one, and messages carry the sort key
//!    `(seq << 32) | outbox_position`, so the send arena defines one
//!    delivery order — which per-receiver inbox order, and therefore
//!    protocol RNG consumption, depends on;
//! 2. on one shard every message is judged in key order, so the shared
//!    link-fault RNG and the scheduled-delay cursors are consumed in that
//!    order — and a receiver that has left is looked up early (the
//!    bitsets are indexed by its seq) but classified last, so the draws
//!    are the ones an id-keyed engine would make;
//! 3. per-node RNG streams are keyed `stream(master_seed, id, purpose)`, so
//!    node randomness never depends on layout.
//!
//! The engine writes and reads the `simnet-network-checkpoint` v1 format
//! (a checkpoint restores at any shard count), and emits the `net.*`
//! telemetry metrics and phase profile `trace-report` renders.
//!
//! ## Relaxed-order fast mode: where the shards are
//!
//! [`XlNetwork::fast`] (`SIMNET_BACKEND=xl:fast:<shards>`) splits node
//! state round-robin over shards, steps them in parallel, and routes
//! messages in parallel per shard with per-shard fault-RNG streams. Runs
//! are deterministic for a fixed `(seed, shard count)`. At one shard fast
//! mode *is* parity — the same code path, fault model and trace events
//! included; only its checkpoints' `exec_mode` stamp differs. At more
//! shards runs are *statistically* equivalent to parity runs, which the
//! `overlay-stats` equivalence harness and `tests/fast_mode_equivalence.rs`
//! check, and `tests/golden/engine_fast.digests` pins in absolute values.
//! See the [`ExecMode`] docs and DESIGN.md §10.
//!
//! [`Backend`] names the choice (parity, or fast with a shard count) and
//! reads it from the `SIMNET_BACKEND` environment knob.

mod any;
mod engine;
mod mode;

pub use any::{default_shards, AnyNet, Backend, BackendEnvError, BACKEND_ENV};
pub use engine::{XlNetwork, PAR_THRESHOLD};
pub use mode::ExecMode;
