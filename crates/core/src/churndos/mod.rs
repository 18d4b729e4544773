//! The combined churn- and DoS-resistant overlay (Section 6, Theorem 7).
//!
//! Extends the Section 5 network to a *dynamic* node set: supernodes carry
//! variable-length labels forming a prefix-free cover of the binary label
//! space ([`overlay_graphs::prefix`]), and they **split** and **merge** to
//! keep every group size inside the band of Equation 1,
//! `c * d(x) - c < |R(x)| < 2 c * d(x)`, where `d(x)` is the label length
//! (the supernode's *dimension*). Lemma 18 shows the dimensions then stay
//! within a window of width 2 and track `log n`.
//!
//! Joins are broadcast into the introducer's group and take effect at the
//! next reconfiguration; leavers inform their group and are dropped at the
//! next reconfiguration — both operations complete in `O(log log n)`
//! rounds, supporting a churn rate of `gamma^(1/Theta(log log n))` per
//! round (i.e. a constant factor `gamma` per epoch).

pub mod crash;
pub mod overlay;
pub mod splitmerge;

pub use crash::{CrashOutcome, CrashScenario, CrashVisibility};
pub use overlay::{ChurnDosOverlay, ChurnDosParams, EpochChurn};
pub use splitmerge::{target_dim, LabeledGroups, SizeBand};
