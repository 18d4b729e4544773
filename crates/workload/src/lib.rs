//! # overlay-workload — heavy-traffic workloads for the robust DHT + pubsub
//!
//! The paper's theorems say the overlay *survives* churn and DoS; ROADMAP
//! item 3 asks what users *feel* while it survives. This crate drives
//! seed-deterministic op streams — millions of gets/puts/publishes — at
//! the Section 7 applications and accounts for what comes back:
//!
//! * [`spec`] — validated workload descriptions: Zipf-skewed get/put
//!   mixes, hot-key storms on a rotating top-k set, and chat/feed
//!   fan-out with per-topic subscriber churn.
//! * [`zipf`] — the cumulative-table Zipf sampler behind the skew.
//! * [`engine`] — the batch-stepped driver: campaign observe/block,
//!   op generation, `serve_batch`/pubsub calls, goodput + tail-latency
//!   accounting, and the epoch control plane that executes the sampling
//!   algorithm at its array level (its sampled ids salt the hot-set
//!   rotations, so the trace covers what was sampled).
//! * [`trace`] — the replay digest covering inputs *and* outcomes.
//! * [`knobs`] — validated `WORKLOAD_*` environment knobs.
//!
//! Fault schedules come from `overlay_adversary::Campaign` (A5/A6-style
//! presets or any composed [`overlay_adversary::Attacker`]); the W1–W3
//! experiment binaries in `reconfig-bench` wrap all of this into result
//! tables.

pub mod engine;
pub mod knobs;
pub mod spec;
pub mod trace;
pub mod zipf;

pub use engine::{WorkloadEngine, WorkloadReport};
pub use knobs::{env_knobs, parse_knobs, WorkloadKnobs};
pub use spec::{SpecError, WorkloadKind, WorkloadSpec};
pub use trace::WorkloadTrace;
pub use zipf::Zipf;
