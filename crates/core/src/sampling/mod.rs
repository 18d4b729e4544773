//! Rapid node sampling (Section 3).
//!
//! The goal: every node samples at least `beta log n` nodes uniformly at
//! random from the network in `O(log log n)` communication rounds — an
//! exponential improvement over plain random walks, achieved by combining
//! random walks with pointer doubling.
//!
//! * [`hgraph`] — Algorithm 1 for H-graphs (almost-uniform samples), as a
//!   message-level [`simnet`] protocol.
//! * [`hypercube`] — Algorithm 2 for hypercubes (exactly uniform samples).
//! * [`baseline`] — the plain random-walk sampler (`Theta(log n)` rounds)
//!   that Section 3 improves upon; the E3 comparison baseline.
//! * [`direct`] — the array execution of Algorithm 1 that every
//!   reconfiguration epoch and the large-`n` sweeps run (same algorithm,
//!   same schedule, flat arenas instead of envelopes).
//! * [`lower_bound`] — the knowledge-spread bound of Lemma 4: no sampler
//!   can beat `Omega(log diameter)` rounds.

pub mod baseline;
pub mod direct;
pub mod hgraph;
pub mod hypercube;
pub mod lower_bound;

pub use baseline::{run_baseline_observed, BaselineNode, WalkMsg};
pub use direct::{run_alg1_direct_observed, DirectRun, SampleTable};
pub use hgraph::{run_alg1_digested_observed, run_alg1_observed, Alg1Node, SampleMsg};
pub use hypercube::{run_alg2_observed, Alg2Node, CubeMsg};
pub use lower_bound::knowledge_spread_rounds;
