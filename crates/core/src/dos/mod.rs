//! The DoS-resistant overlay (Section 5, Theorem 6).
//!
//! Nodes are organized into *groups of representatives* `R(x)`, one per
//! supernode `x` of a `d`-dimensional hypercube with
//! `2^d <= n / (c log n)`. Nodes within a group form a clique; nodes of
//! neighboring groups form a complete bipartite graph. Every
//! `Theta(log log n)` rounds the groups are rebuilt from scratch with a
//! fresh uniformly random node-to-supernode assignment, obtained by the
//! groups jointly simulating the rapid node sampling primitive for their
//! supernodes (Lemma 14) and then reorganizing (Lemma 15).
//!
//! An `Omega(log log n)`-late adversary never knows the *current* group
//! composition, so blocking any `(1/2 - eps)`-fraction of the nodes leaves
//! every group with a majority of non-blocked members w.h.p. (Lemma 17) —
//! and therefore the non-blocked subgraph connected (Theorem 6). A 0-late
//! adversary, by contrast, can read the current groups and block all
//! neighbors of one group, isolating it — the control experiment E11
//! demonstrates exactly that.
//!
//! ## Fidelity
//!
//! The group-internal *simulation* of the sampling primitive is modeled at
//! group level: the overlay tracks, for every group and every round,
//! whether at least one member was available (non-blocked in two
//! consecutive rounds). That is precisely the precondition of Lemma 14; if
//! it holds for a whole epoch the reconfiguration is performed (with the
//! fresh random assignment Lemma 15 guarantees), and if it is violated the
//! epoch *fails*: groups stay stale and the failure is reported. The
//! message-level mechanics of request/response doubling are exercised by
//! [`crate::sampling::hypercube`]; this module reuses its schedule to set
//! the epoch length (each primitive round costs two overlay rounds:
//! simulation + synchronization).

pub mod epoch;
pub mod group_sim;
pub mod overlay;
pub mod supernode;

pub use epoch::EpochClock;
pub use group_sim::{build_group_sim, GroupSimNode, SuperProtocol, TokenWalkSampler};
pub use overlay::{DosOverlay, DosParams};
pub use supernode::GroupedNetwork;
