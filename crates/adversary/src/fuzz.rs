//! Seed-driven fault-schedule fuzzing.
//!
//! A [`FaultPlan`] is a randomly drawn — but *paper-legal* — adversary
//! configuration: a DoS strategy with blocking bound `r <= 1/2 - eps`
//! (Theorem 6) and lateness at least `2t` (with `t` the epoch length), a
//! churn strategy with rate `r >= 1` within the prescribed-set constraint
//! of Section 1.1, and a run length in epochs. Because every plan stays
//! inside the paper's limits, the overlays' guarantees must hold for *all*
//! of them: the fuzz tests draw hundreds of plans from consecutive seeds,
//! drive each overlay family under the planned adversaries, and assert the
//! round-by-round invariants (connectivity, group-size bands, availability,
//! message-delivery accounting).
//!
//! Plans are pure functions of `(seed, limits)`, so a failing seed printed
//! by a test reproduces the exact failing schedule.

use crate::churn::{ChurnSchedule, ChurnStrategy};
use crate::dos::{DosAdversary, DosStrategy};
use crate::faults::FaultSchedule;
use rand::RngExt;

/// The paper-imposed bounds a fuzzed schedule must respect.
#[derive(Clone, Copy, Debug)]
pub struct FuzzLimits {
    /// DoS margin `eps`: blocking bounds are drawn from `(0, 1/2 - eps]`.
    pub epsilon: f64,
    /// Maximum churn rate `r` (rates are drawn from `[1, max_rate]`).
    pub max_rate: f64,
    /// Lateness factors (multiples of the epoch length `t`) are drawn from
    /// `[min_lateness_factor, max_lateness_factor]`. Theorem 6 needs `>= 2`.
    pub min_lateness_factor: u64,
    /// Upper end of the lateness-factor range.
    pub max_lateness_factor: u64,
    /// Run lengths in epochs are drawn from `[min_epochs, max_epochs]`.
    pub min_epochs: u64,
    /// Upper end of the epoch range.
    pub max_epochs: u64,
    /// Beyond-model composite faults: message-loss rates are drawn from
    /// `[0, max_link_loss)`.
    pub max_link_loss: f64,
    /// Per-node per-round crash hazards are drawn from
    /// `[0, max_crash_hazard)`.
    pub max_crash_hazard: f64,
    /// Cap on the crashed fraction of the population for any single plan.
    pub max_crash_frac: f64,
}

impl Default for FuzzLimits {
    fn default() -> Self {
        Self {
            epsilon: 0.2,
            max_rate: 1.5,
            min_lateness_factor: 2,
            max_lateness_factor: 4,
            min_epochs: 2,
            max_epochs: 4,
            max_link_loss: 0.3,
            max_crash_hazard: 0.002,
            max_crash_frac: 0.1,
        }
    }
}

const CHURN_STRATEGIES: [ChurnStrategy; 4] = [
    ChurnStrategy::Random,
    ChurnStrategy::OldestFirst,
    ChurnStrategy::YoungestFirst,
    ChurnStrategy::Concentrated,
];

/// One fuzzed fault schedule: adversary configuration drawn from a seed,
/// guaranteed within [`FuzzLimits`].
#[derive(Clone, Debug)]
pub struct FaultPlan {
    /// The seed the plan was generated from (reproduction handle).
    pub seed: u64,
    /// DoS blocking strategy.
    pub dos_strategy: DosStrategy,
    /// DoS blocking bound `r in (0, 1/2 - eps]`.
    pub dos_bound: f64,
    /// Lateness as a multiple of the overlay's epoch length.
    pub lateness_factor: u64,
    /// Churn victim/introducer strategy.
    pub churn_strategy: ChurnStrategy,
    /// Churn rate `r in [1, max_rate]`.
    pub churn_rate: f64,
    /// Per-epoch churn intensity in `(0, 1]`.
    pub churn_intensity: f64,
    /// Run length in epochs.
    pub epochs: u64,
    /// Beyond-model message-loss probability in `[0, max_link_loss)`.
    pub link_loss: f64,
    /// Beyond-model per-node per-round crash hazard in
    /// `[0, max_crash_hazard)`.
    pub crash_hazard: f64,
    /// Crash-recovery downtime in rounds (`None` = crash-stop).
    pub crash_recover_after: Option<u64>,
    /// Cap on the crashed population fraction (copied from the limits).
    pub max_crash_frac: f64,
}

impl FaultPlan {
    /// Draw a plan from `seed`. Deterministic: the same seed and limits
    /// always produce the same plan.
    pub fn generate(seed: u64, limits: &FuzzLimits) -> Self {
        assert!(limits.epsilon > 0.0 && limits.epsilon < 0.5);
        assert!(limits.max_rate >= 1.0);
        assert!(limits.min_lateness_factor >= 2, "Theorem 6 requires 2t-lateness");
        assert!(limits.min_lateness_factor <= limits.max_lateness_factor);
        assert!(limits.min_epochs >= 1 && limits.min_epochs <= limits.max_epochs);
        assert!((0.0..1.0).contains(&limits.max_link_loss));
        assert!((0.0..1.0).contains(&limits.max_crash_hazard));
        assert!((0.0..=0.5).contains(&limits.max_crash_frac));
        let mut rng = simnet::rng::stream(seed, u64::MAX - 1, 0xF022);
        let max_bound = 0.5 - limits.epsilon;
        // Field order below is draw order; the composite-fault fields come
        // last so plans extend the pre-fault generator without disturbing
        // the values older seeds produced.
        Self {
            seed,
            dos_strategy: DosStrategy::ALL[rng.random_range(0..DosStrategy::ALL.len())],
            // In (0, max_bound]; never exactly 0 so the adversary acts.
            dos_bound: max_bound * (1.0 - rng.random::<f64>() * 0.9),
            lateness_factor: rng
                .random_range(limits.min_lateness_factor..=limits.max_lateness_factor),
            churn_strategy: CHURN_STRATEGIES[rng.random_range(0..CHURN_STRATEGIES.len())],
            churn_rate: 1.0 + (limits.max_rate - 1.0) * rng.random::<f64>(),
            // In (0, 1]: full intensity is legal, zero is pointless.
            churn_intensity: 1.0 - rng.random::<f64>() * 0.9,
            epochs: rng.random_range(limits.min_epochs..=limits.max_epochs),
            link_loss: limits.max_link_loss * rng.random::<f64>(),
            crash_hazard: limits.max_crash_hazard * rng.random::<f64>(),
            crash_recover_after: {
                // Both values are always drawn so the draw count per plan
                // is fixed regardless of the coin.
                let recoverable = rng.random::<f64>() < 0.5;
                let down_for = rng.random_range(4..=40);
                recoverable.then_some(down_for)
            },
            max_crash_frac: limits.max_crash_frac,
        }
    }

    /// Does the plan respect the limits? (Always true for generated plans;
    /// exposed so tests can assert it independently.)
    pub fn within_limits(&self, limits: &FuzzLimits) -> bool {
        self.dos_bound > 0.0
            && self.dos_bound <= 0.5 - limits.epsilon + 1e-12
            && self.churn_rate >= 1.0
            && self.churn_rate <= limits.max_rate + 1e-12
            && self.churn_intensity > 0.0
            && self.churn_intensity <= 1.0
            && (limits.min_lateness_factor..=limits.max_lateness_factor)
                .contains(&self.lateness_factor)
            && (limits.min_epochs..=limits.max_epochs).contains(&self.epochs)
            && self.link_loss >= 0.0
            && self.link_loss <= limits.max_link_loss
            && self.crash_hazard >= 0.0
            && self.crash_hazard <= limits.max_crash_hazard
            && self.max_crash_frac <= limits.max_crash_frac + 1e-12
    }

    /// Build the planned DoS adversary for an overlay with epoch length
    /// `epoch_len` (the lateness is `lateness_factor * epoch_len`).
    pub fn dos_adversary(&self, epoch_len: u64) -> DosAdversary {
        DosAdversary::new(
            self.dos_strategy,
            self.dos_bound,
            self.lateness_factor * epoch_len,
            self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1),
        )
    }

    /// Build the planned churn schedule; fresh ids start at
    /// `first_free_id`.
    pub fn churn_schedule(&self, first_free_id: u64) -> ChurnSchedule {
        ChurnSchedule::new(
            self.churn_strategy,
            self.churn_rate,
            self.churn_intensity,
            first_free_id,
        )
    }

    /// Build the planned composite fault schedule (message loss + crashes).
    pub fn fault_schedule(&self) -> FaultSchedule {
        FaultSchedule::new(
            self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(2),
            self.link_loss,
            self.crash_hazard,
            self.crash_recover_after,
            self.max_crash_frac,
        )
    }

    /// One-line description for failure messages and run manifests.
    pub fn describe(&self) -> String {
        format!(
            "seed={} dos={:?} r={:.4} late={}t churn={:?} rate={:.4} intensity={:.4} epochs={} \
             loss={:.4} crash={:.6} recover={:?}",
            self.seed,
            self.dos_strategy,
            self.dos_bound,
            self.lateness_factor,
            self.churn_strategy,
            self.churn_rate,
            self.churn_intensity,
            self.epochs,
            self.link_loss,
            self.crash_hazard,
            self.crash_recover_after,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_stay_within_limits() {
        let limits = FuzzLimits::default();
        for seed in 0..500 {
            let plan = FaultPlan::generate(seed, &limits);
            assert!(plan.within_limits(&limits), "plan off-limits: {}", plan.describe());
        }
    }

    #[test]
    fn plans_are_deterministic_in_the_seed() {
        let limits = FuzzLimits::default();
        for seed in [0, 1, 42, u64::MAX] {
            let a = FaultPlan::generate(seed, &limits);
            let b = FaultPlan::generate(seed, &limits);
            assert_eq!(a.describe(), b.describe());
        }
    }

    #[test]
    fn seeds_explore_the_strategy_space() {
        let limits = FuzzLimits::default();
        let mut dos = std::collections::HashSet::new();
        let mut churn = std::collections::HashSet::new();
        for seed in 0..100 {
            let plan = FaultPlan::generate(seed, &limits);
            dos.insert(format!("{:?}", plan.dos_strategy));
            churn.insert(format!("{:?}", plan.churn_strategy));
        }
        assert_eq!(dos.len(), 4, "all DoS strategies drawn");
        assert_eq!(churn.len(), 4, "all churn strategies drawn");
    }

    #[test]
    fn adversaries_match_the_plan() {
        let plan = FaultPlan::generate(7, &FuzzLimits::default());
        let adv = plan.dos_adversary(10);
        assert_eq!(adv.bound(), plan.dos_bound);
        assert_eq!(adv.lateness(), plan.lateness_factor * 10);
        let sched = plan.churn_schedule(1_000_000);
        assert_eq!(sched.rate(), plan.churn_rate);
    }

    #[test]
    fn composite_fault_fields_stay_within_limits() {
        let limits = FuzzLimits::default();
        let mut some_loss = false;
        let mut some_stop = false;
        let mut some_recover = false;
        for seed in 0..200 {
            let plan = FaultPlan::generate(seed, &limits);
            assert!((0.0..=limits.max_link_loss).contains(&plan.link_loss));
            assert!((0.0..=limits.max_crash_hazard).contains(&plan.crash_hazard));
            some_loss |= plan.link_loss > 0.0;
            some_stop |= plan.crash_recover_after.is_none();
            some_recover |= plan.crash_recover_after.is_some();
        }
        assert!(some_loss && some_stop && some_recover, "fault space explored");
    }

    #[test]
    fn fault_schedule_matches_the_plan() {
        let plan = FaultPlan::generate(11, &FuzzLimits::default());
        let sched = plan.fault_schedule();
        assert_eq!(sched.link_loss(), plan.link_loss);
        assert_eq!(sched.crash_hazard(), plan.crash_hazard);
        assert_eq!(sched.recover_after(), plan.crash_recover_after);
    }

    #[test]
    #[should_panic(expected = "2t-lateness")]
    fn sub_2t_lateness_rejected() {
        let limits = FuzzLimits { min_lateness_factor: 1, ..FuzzLimits::default() };
        FaultPlan::generate(0, &limits);
    }
}
