//! # overlay-stats — statistics for verifying the paper's probabilistic claims
//!
//! Provides the estimators the experiment harness uses to check w.h.p.
//! statements empirically:
//!
//! * [`chi_square`] — goodness-of-fit against the uniform (and arbitrary)
//!   distributions, for the uniformity claims of Theorems 2/3 and Lemma 10.
//! * [`tv`] — total-variation distance between empirical and target
//!   distributions (the "almost uniform" bound of Lemma 2).
//! * [`histogram`] / [`summary`] — descriptive statistics for group sizes,
//!   congestion, segment lengths.
//! * [`chernoff`] — the paper's Chernoff bounds (Lemma 1) as calculators,
//!   used to size constants like `c` in Lemma 7 and Lemma 16, and the
//!   Wilson interval on a success rate measured over seeds.
//! * [`shape`] — growth-shape fitting to distinguish `Θ(log log n)` from
//!   `Θ(log n)` round-count series (the exponential-improvement claim).
//! * [`goodput`] — goodput-per-communication-bit and tail-latency
//!   accounting for the W-series heavy-traffic workloads (ROADMAP item 3).
//! * [`equivalence`] — the statistical-equivalence harness that validates
//!   relaxed-order execution modes (simnet-xl `fast`) against the parity
//!   oracle: TV distance plus chi-square homogeneity with documented
//!   rejection thresholds.

pub mod chernoff;
pub mod chi_square;
pub mod equivalence;
pub mod goodput;
pub mod histogram;
pub mod shape;
pub mod summary;
pub mod tv;

pub use chernoff::{chernoff_lower, chernoff_upper, smallest_c_for_whp, wilson};
pub use chi_square::{chi_square_pvalue, chi_square_stat, homogeneity, uniform_fit};
pub use equivalence::{
    merge_low_buckets, pool_counts, tv_threshold, EquivalenceCheck, EquivalenceConfig,
    EquivalenceHarness, EquivalenceReport,
};
pub use goodput::{summary_from_buckets, GoodputAccount, LatencySummary};
pub use histogram::{BucketHistogram, Histogram};
pub use shape::{fit_log, fit_loglog, GrowthFit};
pub use summary::{percentile, Summary};
pub use tv::{tv_distance, tv_distance_uniform};
