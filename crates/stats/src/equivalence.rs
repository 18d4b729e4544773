//! Statistical-equivalence harness for relaxed-order execution modes.
//!
//! The simnet-xl fast mode (`SIMNET_BACKEND=xl:fast`) relaxes the global
//! message-delivery order, so its runs are *not* bit-identical to the
//! parity digest stream — the claim to validate is weaker and
//! distributional: for every observable the paper's theorems speak about
//! (walk-outcome distributions, node degrees, group sizes, per-round event
//! counts), fast runs are drawn from the same distribution as parity runs.
//!
//! This module is that validation layer, consumed by
//! `tests/fast_mode_equivalence.rs`. The protocol, per comparison:
//!
//! 1. **Seed replication.** The caller gathers counts from R independent
//!    seeds per mode and pools them (`pool_counts`), so a single unlucky
//!    seed cannot dominate and the sample sizes are honest inputs to the
//!    thresholds below.
//! 2. **TV distance** ([`crate::tv_distance`]) between the two pooled
//!    empirical distributions, rejected above [`tv_threshold`]. For two
//!    empirical distributions with `n1`/`n2` samples over `k` cells,
//!    `E[TV] ≤ (√(k/n1) + √(k/n2))/2` (per-cell binomial deviation plus
//!    Cauchy–Schwarz), so the threshold is **3×** that bound: far enough
//!    out that same-distribution pairs pass with huge margin, close enough
//!    that a constant-offset bias (the failure mode a reordering bug
//!    produces) still trips it.
//! 3. **Chi-square homogeneity** ([`crate::chi_square::homogeneity`]) on
//!    the same table after [`merge_low_buckets`] (pooled expectations ≥ 5,
//!    the classical validity rule), rejected below `alpha`. The default
//!    `alpha = 1e-4` is deliberately conservative: one suite runs dozens
//!    of comparisons, and at 1e-4 the familywise false-reject rate stays
//!    below ~1% while a genuine distribution shift at these sample sizes
//!    yields p-values many orders of magnitude smaller.
//!
//! Both tests run because they fail differently: TV catches bulk mass
//! shifts but dilutes tail differences; chi-square is sharp on per-cell
//! deviations but blind below its bucket-merge floor.

use crate::chi_square::homogeneity;
use crate::tv::tv_distance;

/// Rejection thresholds of the harness. See the module docs for the
/// rationale behind each default.
#[derive(Clone, Copy, Debug)]
pub struct EquivalenceConfig {
    /// Per-test chi-square rejection level (reject when `p < alpha`).
    pub alpha: f64,
    /// Safety factor on the expected-TV bound of two same-distribution
    /// empirical samples; 3.0 by default.
    pub tv_safety: f64,
    /// Minimum pooled expected count per chi-square bucket; adjacent
    /// buckets are merged below it. 5.0 is the classical validity rule.
    pub min_expected: f64,
}

impl Default for EquivalenceConfig {
    fn default() -> Self {
        Self { alpha: 1e-4, tv_safety: 3.0, min_expected: 5.0 }
    }
}

/// One named comparison in a report: what was tested, the statistic, the
/// threshold it was held against, and the verdict.
#[derive(Clone, Debug)]
pub struct EquivalenceCheck {
    /// Caller-supplied label, e.g. `"hgraph/outcomes/tv"`.
    pub name: String,
    /// The computed statistic (TV distance, or chi-square p-value).
    pub statistic: f64,
    /// The bound it must respect (upper for TV, lower for p-values).
    pub threshold: f64,
    /// Whether the comparison passed.
    pub passed: bool,
    /// Human-readable context for failure messages.
    pub detail: String,
}

/// Outcome of a batch of comparisons.
#[derive(Clone, Debug, Default)]
pub struct EquivalenceReport {
    /// Every check run, in submission order.
    pub checks: Vec<EquivalenceCheck>,
}

impl EquivalenceReport {
    /// True when every check passed.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }

    /// The failing checks.
    pub fn failures(&self) -> impl Iterator<Item = &EquivalenceCheck> {
        self.checks.iter().filter(|c| !c.passed)
    }

    /// Panic with a readable summary of every failing check; no-op when
    /// all passed. Intended for use in tests.
    pub fn assert_ok(&self) {
        if self.passed() {
            return;
        }
        let mut msg = String::from("statistical-equivalence failures:\n");
        for c in self.failures() {
            msg.push_str(&format!(
                "  {}: statistic {:.6} vs threshold {:.6} ({})\n",
                c.name, c.statistic, c.threshold, c.detail
            ));
        }
        msg.push_str(&format!(
            "({} of {} checks failed)",
            self.failures().count(),
            self.checks.len()
        ));
        panic!("{msg}");
    }
}

/// The TV-distance rejection threshold for two empirical distributions of
/// `n1` and `n2` samples over `support` cells: `safety` times the
/// expected-TV bound `(√(k/n1) + √(k/n2))/2`, clamped to `1.0` (TV cannot
/// exceed 1, so tiny samples are effectively unfalsifiable — by design).
pub fn tv_threshold(n1: u64, n2: u64, support: usize, safety: f64) -> f64 {
    if n1 == 0 || n2 == 0 || support == 0 {
        return 1.0;
    }
    let k = support as f64;
    let bound = 0.5 * ((k / n1 as f64).sqrt() + (k / n2 as f64).sqrt());
    (safety * bound).min(1.0)
}

/// Merge adjacent buckets of the paired histograms until every pooled
/// cell count reaches the chi-square validity floor: with row totals
/// `nA`/`nB`, a pooled count of `min_expected · (nA + nB) / min(nA, nB)`
/// guarantees both per-row expectations are ≥ `min_expected`. A trailing
/// underfull remainder is folded into the last kept bucket.
pub fn merge_low_buckets(a: &[u64], b: &[u64], min_expected: f64) -> (Vec<u64>, Vec<u64>) {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let na: u64 = a.iter().sum();
    let nb: u64 = b.iter().sum();
    if na == 0 || nb == 0 {
        return (a.to_vec(), b.to_vec());
    }
    let floor = min_expected * (na + nb) as f64 / na.min(nb) as f64;
    let (mut ma, mut mb) = (Vec::new(), Vec::new());
    let (mut ca, mut cb) = (0u64, 0u64);
    for (&x, &y) in a.iter().zip(b) {
        ca += x;
        cb += y;
        if (ca + cb) as f64 >= floor {
            ma.push(ca);
            mb.push(cb);
            (ca, cb) = (0, 0);
        }
    }
    if ca + cb > 0 {
        match (ma.last_mut(), mb.last_mut()) {
            (Some(la), Some(lb)) => {
                *la += ca;
                *lb += cb;
            }
            _ => {
                ma.push(ca);
                mb.push(cb);
            }
        }
    }
    (ma, mb)
}

/// Pool per-seed count histograms cell-wise (seed replication step). All
/// histograms must share a length; returns an empty vec for no runs.
pub fn pool_counts(runs: &[Vec<u64>]) -> Vec<u64> {
    let Some(first) = runs.first() else { return Vec::new() };
    let mut pooled = vec![0u64; first.len()];
    for run in runs {
        assert_eq!(run.len(), pooled.len(), "histogram length mismatch across seeds");
        for (cell, &x) in pooled.iter_mut().zip(run) {
            *cell += x;
        }
    }
    pooled
}

/// Batch builder: feed it paired count tables, collect a report.
#[derive(Debug, Default)]
pub struct EquivalenceHarness {
    cfg: EquivalenceConfig,
    report: EquivalenceReport,
}

impl EquivalenceHarness {
    /// A harness with the given thresholds.
    pub fn new(cfg: EquivalenceConfig) -> Self {
        Self { cfg, report: EquivalenceReport::default() }
    }

    /// Compare two count histograms over the same cells (outcome, degree
    /// or group-size distributions): records one TV check and one
    /// chi-square homogeneity check under `name`.
    pub fn compare_counts(&mut self, name: &str, parity: &[u64], fast: &[u64]) {
        assert_eq!(parity.len(), fast.len(), "{name}: histogram length mismatch");
        let n1: u64 = parity.iter().sum();
        let n2: u64 = fast.iter().sum();
        let support = parity.iter().zip(fast).filter(|(&a, &b)| a + b > 0).count();

        let (p_dist, q_dist): (Vec<f64>, Vec<f64>) = if n1 == 0 || n2 == 0 {
            (vec![], vec![])
        } else {
            (
                parity.iter().map(|&c| c as f64 / n1 as f64).collect(),
                fast.iter().map(|&c| c as f64 / n2 as f64).collect(),
            )
        };
        let tv = if p_dist.is_empty() {
            // One side empty: equal only if both are.
            if n1 == n2 {
                0.0
            } else {
                1.0
            }
        } else {
            tv_distance(&p_dist, &q_dist)
        };
        let tv_max = tv_threshold(n1, n2, support, self.cfg.tv_safety);
        self.report.checks.push(EquivalenceCheck {
            name: format!("{name}/tv"),
            statistic: tv,
            threshold: tv_max,
            passed: tv <= tv_max,
            detail: format!("TV over {support} cells, samples {n1} vs {n2}"),
        });

        let (ma, mb) = merge_low_buckets(parity, fast, self.cfg.min_expected);
        let (stat, p) = homogeneity(&ma, &mb);
        self.report.checks.push(EquivalenceCheck {
            name: format!("{name}/chi2"),
            statistic: p,
            threshold: self.cfg.alpha,
            passed: p >= self.cfg.alpha,
            detail: format!("chi² {stat:.3} over {} merged cells", ma.len()),
        });
    }

    /// Compare per-round event-count series (delivered/dropped/… per
    /// round). Rounds act as the cells of a homogeneity table; the
    /// question is whether the two modes spread the same event mass over
    /// time the same way.
    pub fn compare_round_counts(&mut self, name: &str, parity: &[u64], fast: &[u64]) {
        self.compare_counts(name, parity, fast);
    }

    /// Consume the harness, yielding the report.
    pub fn finish(self) -> EquivalenceReport {
        self.report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_histograms_pass() {
        let mut h = EquivalenceHarness::new(EquivalenceConfig::default());
        let counts = [1000u64, 2000, 3000, 2000, 1000];
        h.compare_counts("identical", &counts, &counts);
        let report = h.finish();
        assert!(report.passed(), "{report:?}");
        report.assert_ok();
    }

    #[test]
    fn noisy_same_distribution_passes() {
        // Two binomial-ish draws of ~8000 samples that differ only by
        // sampling noise (well within one standard deviation per cell).
        let a = [510u64, 1980, 3010, 1990, 510];
        let b = [490u64, 2020, 2985, 2015, 490];
        let mut h = EquivalenceHarness::new(EquivalenceConfig::default());
        h.compare_counts("noisy", &a, &b);
        h.finish().assert_ok();
    }

    #[test]
    fn shifted_binomial_fails_both_tests() {
        let a = [1000u64, 4000, 6000, 4000, 1000, 0];
        let b = [0u64, 1000, 4000, 6000, 4000, 1000];
        let mut h = EquivalenceHarness::new(EquivalenceConfig::default());
        h.compare_counts("shifted", &a, &b);
        let report = h.finish();
        assert_eq!(report.failures().count(), 2, "{report:?}");
    }

    #[test]
    fn degenerate_single_bucket_is_vacuously_equivalent() {
        // All mass in one cell on both sides: no degrees of freedom, and
        // the TV distance between the two point masses is zero.
        let mut h = EquivalenceHarness::new(EquivalenceConfig::default());
        h.compare_counts("degenerate", &[12345], &[54321]);
        h.finish().assert_ok();
    }

    #[test]
    fn tv_threshold_shrinks_with_samples_and_grows_with_support() {
        let loose = tv_threshold(100, 100, 10, 3.0);
        let tight = tv_threshold(100_000, 100_000, 10, 3.0);
        assert!(tight < loose);
        assert!(tv_threshold(100_000, 100_000, 100, 3.0) > tight);
        assert_eq!(tv_threshold(0, 50, 4, 3.0), 1.0, "empty sample is unfalsifiable");
        // 3·(√(k/n1)+√(k/n2))/2 at k=4, n=400: 3·(0.1+0.1)/2 = 0.3.
        assert!((tv_threshold(400, 400, 4, 3.0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn merge_low_buckets_reaches_the_floor() {
        let a = [1u64, 1, 1, 1, 1, 1, 100];
        let b = [1u64, 1, 1, 1, 1, 1, 100];
        let (ma, mb) = merge_low_buckets(&a, &b, 5.0);
        assert_eq!(ma, mb);
        // Floor is 5 * 212/106 = 10 pooled; the six 1-cells merge until
        // they hit it (pairs pool to 4, so all six fold forward).
        let na: u64 = ma.iter().sum();
        assert_eq!(na, 106);
        for (i, (&x, &y)) in ma.iter().zip(&mb).enumerate() {
            // Every merged cell except possibly the last satisfies the floor.
            if i + 1 < ma.len() {
                assert!(x + y >= 10, "cell {i}: {x}+{y}");
            }
        }
    }

    #[test]
    fn pool_counts_sums_cellwise() {
        let runs = vec![vec![1u64, 2, 3], vec![10, 20, 30], vec![100, 200, 300]];
        assert_eq!(pool_counts(&runs), vec![111, 222, 333]);
        assert!(pool_counts(&[]).is_empty());
    }
}
