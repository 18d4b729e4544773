//! Network reconfiguration (Section 4, Algorithm 3).
//!
//! Every `O(log log n)` rounds the overlay replaces each of its `d/2`
//! Hamilton cycles by a *fresh, uniformly random* one:
//!
//! 1. **Placement** — every staying node samples a uniformly random node
//!    `u` (via rapid node sampling, Section 3) and sends its own id to `u`;
//!    ids of newly introduced nodes are delegated the same way, and leaving
//!    nodes simply withhold their own id. A node that receives at least one
//!    id is *active*.
//! 2. **Permutation** — each active node uniformly permutes the ids it
//!    received into a block `(u_1, ..., u_m)`.
//! 3. **Bridging** — active nodes locate their closest active successor on
//!    the *old* cycle by pointer doubling (empty segments are
//!    polylogarithmic w.h.p., Lemma 12, so this takes `O(log log n)`
//!    rounds) and exchange block endpoints.
//! 4. **Wiring** — each active node tells every id in its block its two
//!    neighbors in the new cycle.
//!
//! The new cycle is the concatenation of the blocks in old-cycle order of
//! the active nodes; because placements are uniform and blocks uniformly
//! permuted, the resulting oriented Hamilton cycle is uniform (Lemma 10).
//!
//! [`epoch`] implements one reconfiguration epoch as a message-level
//! [`simnet`] protocol (all `d/2` cycles in parallel, messages tagged by
//! cycle); [`overlay`] wraps it into [`overlay::ExpanderOverlay`], the
//! churn-resistant network of Theorem 5.

pub mod epoch;
pub mod overlay;

pub use epoch::{run_epoch, BridgeMode, EpochInput, EpochOutput};
pub use overlay::{ExpanderOverlay, JoinPair};
