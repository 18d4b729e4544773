//! The paper's Chernoff bounds (Lemma 1) as calculators.
//!
//! For independent binary `X_1..X_n` with `X = sum X_i`, `mu = E[X]`:
//!
//! * `Pr[X >= (1+delta) mu] <= exp(-min(delta^2, delta) mu / 3)` for
//!   `delta > 0`;
//! * `Pr[X <= (1-delta) mu] <= exp(-delta^2 mu / 2)` for `0 < delta < 1`.
//!
//! These are used to size constants: e.g. Lemma 7 chooses `c` so that with
//! `m_i = (2+eps)^(T-i) c log n` the sampling algorithm succeeds w.h.p.;
//! [`smallest_c_for_whp`] computes the smallest such `c`.
//!
//! [`wilson`] goes the other way: from `k` successes in `n` runs to an
//! interval on the success rate itself.

/// Upper-tail bound `Pr[X >= (1+delta) mu]`.
pub fn chernoff_upper(delta: f64, mu: f64) -> f64 {
    assert!(delta > 0.0 && mu >= 0.0);
    (-(delta * delta).min(delta) * mu / 3.0).exp()
}

/// Lower-tail bound `Pr[X <= (1-delta) mu]`.
pub fn chernoff_lower(delta: f64, mu: f64) -> f64 {
    assert!(delta > 0.0 && delta < 1.0 && mu >= 0.0);
    (-delta * delta * mu / 2.0).exp()
}

/// The smallest constant `c` such that with `mu >= c * log2(n)` the
/// upper-tail Chernoff bound at deviation `epsilon` is at most
/// `n^-k` — the "choose a constant c" step of Lemmas 7, 9 and 16.
///
/// Derivation: `exp(-eps^2 c log2(n) / 3) <= n^-k` iff
/// `c >= 3 k ln(2) / eps^2` (using `min(d^2, d) = d^2` for `eps <= 1`).
pub fn smallest_c_for_whp(epsilon: f64, k: f64) -> f64 {
    assert!(epsilon > 0.0 && epsilon <= 1.0 && k > 0.0);
    3.0 * k * std::f64::consts::LN_2 / (epsilon * epsilon)
}

/// The Wilson score interval `(lo, hi)` for a success rate after
/// `successes` out of `trials` independent runs, at `z` standard normal
/// quantiles (1.96 for 95 %). Unlike the normal interval it stays inside
/// `[0, 1]` and is not degenerate at 0 or `trials` successes.
pub fn wilson(successes: u64, trials: u64, z: f64) -> (f64, f64) {
    assert!(successes <= trials && trials > 0);
    let (n, p) = (trials as f64, successes as f64 / trials as f64);
    let z2 = z * z;
    let scale = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / scale;
    let half = z * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt() / scale;
    ((centre - half).max(0.0), (centre + half).min(1.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_decay_with_mu() {
        assert!(chernoff_upper(0.5, 100.0) < chernoff_upper(0.5, 10.0));
        assert!(chernoff_lower(0.5, 100.0) < chernoff_lower(0.5, 10.0));
    }

    #[test]
    fn upper_bound_uses_linear_regime_for_large_delta() {
        // delta = 4: min(16, 4) = 4.
        let b = chernoff_upper(4.0, 3.0);
        assert!((b - (-4.0f64).exp()).abs() < 1e-12);
    }

    #[test]
    fn bounds_are_probabilities() {
        for &(d, m) in &[(0.1, 1.0), (0.9, 50.0), (2.0, 7.0)] {
            let u = chernoff_upper(d, m);
            assert!((0.0..=1.0).contains(&u));
        }
        let l = chernoff_lower(0.3, 20.0);
        assert!((0.0..=1.0).contains(&l));
    }

    #[test]
    fn smallest_c_guarantees_the_target() {
        let eps = 0.5;
        let k = 2.0;
        let c = smallest_c_for_whp(eps, k);
        for n in [1u64 << 8, 1u64 << 16, 1u64 << 24] {
            let mu = c * (n as f64).log2();
            let bound = chernoff_upper(eps, mu);
            let target = (n as f64).powf(-k);
            assert!(bound <= target * 1.0001, "n={n}: {bound} > {target}");
        }
    }

    /// Closed forms at z = 1.96 and 16 runs.
    #[test]
    fn wilson_matches_its_closed_form() {
        for (hits, lo, hi) in
            [(0, 0.0, 0.1936), (16, 0.8064, 1.0), (8, 0.2800, 0.7200), (1, 0.0111, 0.2833)]
        {
            let (l, h) = wilson(hits, 16, 1.96);
            assert!((l - lo).abs() < 1e-4 && (h - hi).abs() < 1e-4, "{hits}/16: ({l}, {h})");
        }
    }

    #[test]
    #[should_panic]
    fn lower_bound_rejects_delta_one() {
        chernoff_lower(1.0, 10.0);
    }
}
