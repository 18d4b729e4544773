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
//!
//! The five entry points (`run_alg1_observed`, `run_alg1_digested_observed`,
//! `run_alg2_observed`, `run_baseline_observed`, `run_alg1_direct_observed`)
//! record a run the same way, written once in the private `envelope`
//! module: a private collector inside the `Sampling` phase, the start and
//! finish events, [`crate::metrics::SamplingMetrics::from_snapshot`] as the
//! only derivation of the work columns, and one absorb into the caller's
//! recorder. The message-level samplers also share its engine layer; the
//! direct sampler records its analytic `net.*` accounting itself.

pub mod baseline;
pub mod direct;
mod envelope;
pub mod hgraph;
pub mod hypercube;
pub mod lower_bound;

pub use baseline::{run_baseline_observed, BaselineNode, WalkMsg};
pub use direct::{run_alg1_direct_observed, DirectRun, SampleTable};
pub use hgraph::{run_alg1_digested_observed, run_alg1_observed, Alg1Node, SampleMsg};
pub use hypercube::{run_alg2_observed, Alg2Node, CubeMsg};
pub use lower_bound::knowledge_spread_rounds;

use rand::RngExt;
use simnet::NodeId;

/// Pop a uniformly random element of the multiset `set`; on underflow count
/// a failure and fall back to the popping node's own id `me`. Algorithms 1
/// and 2 answer every request this way, so the protocol always proceeds.
fn pop(set: &mut Vec<NodeId>, failures: &mut u64, me: NodeId, rng: &mut simnet::NodeRng) -> NodeId {
    if set.is_empty() {
        *failures += 1;
        return me;
    }
    let k = rng.random_range(0..set.len());
    set.swap_remove(k)
}
