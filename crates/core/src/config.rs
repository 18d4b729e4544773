//! Parameters of the sampling and reconfiguration algorithms, and the
//! derived schedules (`T`, `m_0, ..., m_T`) of Section 3.

use serde::{Deserialize, Serialize};

/// `ceil(log2(n))` for `n >= 1`.
pub fn log2_ceil(n: usize) -> u32 {
    assert!(n >= 1);
    usize::BITS - (n - 1).leading_zeros()
}

/// `floor(log2(n))` for `n >= 1`.
pub fn log2_floor(n: usize) -> u32 {
    assert!(n >= 1);
    usize::BITS - 1 - n.leading_zeros()
}

/// Parameters of the rapid node sampling primitives (Section 3).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct SamplingParams {
    /// Walk-length constant `alpha` of Lemma 2: walks have length at least
    /// `2 alpha log_{d/4} n`, giving pointwise deviation `n^-alpha`.
    pub alpha: f64,
    /// Required samples per node: at least `beta log2 n`.
    pub beta: f64,
    /// Slack `epsilon` of the multiset schedule (Lemmas 7 and 9):
    /// `m_i = (2+eps)^(T-i) c log n` for H-graphs,
    /// `m_i = (1+eps)^(loglog n - i) c log n` for hypercubes.
    pub epsilon: f64,
    /// Base multiset constant `c >= beta`. The paper sizes it by Chernoff
    /// bounds; experiments sweep it to probe the failure boundary.
    pub c: f64,
}

impl Default for SamplingParams {
    fn default() -> Self {
        // Laptop-scale defaults. epsilon = 1 makes the Algorithm 1 schedule
        // geometric with base 3, leaving a 2*m_i response reserve over the
        // mean m_i incoming requests — far enough into the Chernoff tail
        // that underflows are not observed at experiment sizes. alpha = 1
        // is conservative in practice: Lemma 2's log_{d/4} n bound is far
        // above the real mixing time of random H-graphs. E5 sweeps both
        // parameters to probe the failure boundary.
        Self { alpha: 1.0, beta: 1.0, epsilon: 1.0, c: 2.0 }
    }
}

impl SamplingParams {
    /// Paper-faithful parameters: `c` sized by the Chernoff bound of
    /// Lemma 7 so the per-node per-iteration failure probability is at
    /// most `n^-k`.
    pub fn paper_whp(k: f64) -> Self {
        let epsilon = 0.5;
        Self {
            alpha: 3.0,
            beta: 2.0,
            epsilon,
            c: overlay_stats::smallest_c_for_whp(epsilon, k).max(2.0),
        }
    }

    /// Walk length target `t = ceil(2 alpha log_{d/4} n)` (Lemma 2).
    pub fn walk_length(&self, n: usize, d: usize) -> usize {
        overlay_graphs::walk::mixing_length(n, d, self.alpha)
    }

    /// Required sample count `ceil(beta log2 n)`.
    pub fn samples_needed(&self, n: usize) -> usize {
        (self.beta * (n.max(2) as f64).log2()).ceil() as usize
    }
}

/// The derived per-iteration multiset sizes for Algorithm 1 (H-graphs).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// Number of doubling iterations `T`.
    pub iterations: usize,
    /// `m_0, m_1, ..., m_T` (length `iterations + 1`).
    pub m: Vec<usize>,
}

impl Schedule {
    /// Algorithm 1 schedule: `T = ceil(log2(t))` for walk-length target
    /// `t`, and `m_i = ceil((2+eps)^(T-i) c log2 n)`.
    pub fn algorithm1(n: usize, d: usize, p: &SamplingParams) -> Self {
        let t = p.walk_length(n, d).max(2);
        Self::geometric(log2_ceil(t) as usize, 2.0 + p.epsilon, p.c, (n.max(2) as f64).log2())
    }

    /// Algorithm 2 schedule: `T = log2(dim)` iterations over a hypercube of
    /// dimension `dim` (power of two), `m_i = ceil((1+eps)^(T-i) c log2 n)`
    /// where `n = 2^dim`.
    pub fn algorithm2(dim: u32, p: &SamplingParams) -> Self {
        assert!(dim.is_power_of_two(), "Algorithm 2 assumes d = 2^k, got {dim}");
        // log2 of n = 2^dim is dim.
        Self::geometric(log2_floor(dim as usize) as usize, 1.0 + p.epsilon, p.c, dim as f64)
    }

    /// `T = iterations` and `m_i = ceil(base^(T-i) c logn)`, the sizing
    /// both algorithms share (Lemmas 7 and 9 differ only in `base`).
    fn geometric(iterations: usize, base: f64, c: f64, logn: f64) -> Self {
        let m = (0..=iterations)
            .map(|i| (base.powi((iterations - i) as i32) * c * logn).ceil() as usize)
            .collect();
        Self { iterations, m }
    }

    /// `m_i`.
    pub fn m_at(&self, i: usize) -> usize {
        self.m[i]
    }

    /// The final multiset size `m_T` (the number of samples delivered).
    pub fn final_size(&self) -> usize {
        *self.m.last().expect("non-empty schedule")
    }

    /// Total communication rounds of the primitive: one local round plus
    /// two rounds (request + response) per iteration.
    pub fn rounds(&self) -> usize {
        2 * self.iterations + 1
    }

    /// Whether this schedule yields at least `beta log n` samples.
    pub fn satisfies(&self, n: usize, p: &SamplingParams) -> bool {
        self.final_size() >= p.samples_needed(n)
    }
}

simnet::checkpoint_schema! {
    SamplingParams {
        fields { alpha, beta, epsilon, c }
    }
}

simnet::checkpoint_schema! {
    Schedule {
        fields {
            iterations,
            m where |s| s.m.len().checked_sub(1) == Some(s.iterations)
                => format!("{} sizes for {} iterations", s.m.len(), s.iterations),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Checkpoint, CkptError};

    #[test]
    fn schedule_without_a_size_per_iteration_is_corrupt() {
        let good = Schedule::algorithm1(4096, 8, &SamplingParams::default());
        assert_eq!(Schedule::load(&good.save()).unwrap(), good);
        for m in [&good.m[1..], &[][..]] {
            let short = Schedule { iterations: good.iterations, m: m.to_vec() };
            let err = Schedule::load(&short.save()).unwrap_err();
            assert!(matches!(err, CkptError::Corrupt(ref msg) if msg.contains("`m`")), "{err}");
        }
    }

    #[test]
    fn log_helpers() {
        assert_eq!(log2_ceil(1), 0);
        assert_eq!(log2_ceil(2), 1);
        assert_eq!(log2_ceil(3), 2);
        assert_eq!(log2_ceil(1024), 10);
        assert_eq!(log2_floor(1023), 9);
        assert_eq!(log2_floor(1024), 10);
    }

    #[test]
    fn schedule1_monotone_decreasing_with_slack() {
        let p = SamplingParams::default();
        let s = Schedule::algorithm1(4096, 8, &p);
        assert_eq!(s.m.len(), s.iterations + 1);
        for i in 1..=s.iterations {
            // Lemma 7's success condition needs m_{i-1} > m_i comfortably.
            assert!(
                s.m[i - 1] as f64 >= (2.0 + p.epsilon) * s.m[i] as f64 - 1.0,
                "schedule not geometric at {i}"
            );
        }
        assert!(s.satisfies(4096, &p));
    }

    #[test]
    fn schedule1_iterations_grow_like_loglog() {
        let p = SamplingParams::default();
        let t_small = Schedule::algorithm1(1 << 8, 8, &p).iterations;
        let t_big = Schedule::algorithm1(1 << 16, 8, &p).iterations;
        // Squaring n adds at most ~1 iteration.
        assert!(t_big >= t_small);
        assert!(t_big - t_small <= 2);
    }

    #[test]
    fn schedule2_requires_power_of_two_dim() {
        let p = SamplingParams::default();
        let s = Schedule::algorithm2(16, &p);
        assert_eq!(s.iterations, 4);
        assert_eq!(s.rounds(), 9);
    }

    #[test]
    #[should_panic(expected = "d = 2^k")]
    fn schedule2_rejects_odd_dim() {
        Schedule::algorithm2(12, &SamplingParams::default());
    }

    #[test]
    fn paper_whp_params_have_large_c() {
        let p = SamplingParams::paper_whp(2.0);
        assert!(p.c >= overlay_stats::smallest_c_for_whp(0.5, 2.0));
        assert!(p.c >= p.beta);
    }

    #[test]
    fn walk_length_is_logarithmic() {
        let p = SamplingParams::default();
        let t1 = p.walk_length(1 << 10, 8);
        let t2 = p.walk_length(1 << 20, 8);
        assert!((t2 as f64 / t1 as f64 - 2.0).abs() < 0.3);
    }
}
