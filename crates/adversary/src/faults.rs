//! Composite overlay-level fault schedules.
//!
//! A [`FaultSchedule`] is the group-level twin of the message-level
//! `simnet::fault::FaultModel`: where the simnet model judges individual
//! envelopes on the delivery path, this schedule drives the *overlay-level*
//! simulations (which model a group's protocol exchange as one step) by
//! drawing two kinds of beyond-model events:
//!
//! * **message loss** — a reconfiguration/sampling broadcast to one member
//!   fails with probability `link_loss` (each re-request retries the same
//!   draw), and
//! * **node crashes** — each live node crashes with per-round hazard
//!   `crash_hazard`, either crash-stop (`recover_after == None`) or
//!   crash-recovery with state loss after `recover_after` rounds, with the
//!   total crashed population capped at a `max_crash_frac` fraction.
//!
//! All draws come from one ChaCha stream keyed by the schedule seed and are
//! made in the caller's (sorted, deterministic) iteration order, so a run
//! under a fault schedule replays bit-for-bit from its seed.

use rand::RngExt;
use simnet::rng::NodeRng;
use simnet::NodeId;
use std::fmt;

/// Why a [`FaultSchedule`] configuration was rejected.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultConfigError {
    /// `link_loss` outside `[0, 1)` (1.0 would lose every message —
    /// specify fewer rounds instead) or not a finite number.
    LinkLoss(f64),
    /// `crash_hazard` outside `[0, 1)` or not a finite number.
    CrashHazard(f64),
    /// `max_crash_frac` outside `[0, 1]` or not a finite number.
    MaxCrashFrac(f64),
}

impl fmt::Display for FaultConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultConfigError::LinkLoss(x) => {
                write!(f, "link_loss must be a probability in [0, 1), got {x}")
            }
            FaultConfigError::CrashHazard(x) => {
                write!(f, "crash_hazard must be a probability in [0, 1), got {x}")
            }
            FaultConfigError::MaxCrashFrac(x) => {
                write!(f, "max_crash_frac must be a fraction in [0, 1], got {x}")
            }
        }
    }
}

impl std::error::Error for FaultConfigError {}

/// A seed-derived composite fault schedule (message loss + crashes).
#[derive(Clone, Debug)]
pub struct FaultSchedule {
    link_loss: f64,
    crash_hazard: f64,
    recover_after: Option<u64>,
    max_crash_frac: f64,
    rng: NodeRng,
    crashed: usize,
}

impl FaultSchedule {
    /// Build a schedule, validating every rate. `link_loss` and
    /// `crash_hazard` are probabilities in `[0, 1)`; `recover_after` is
    /// the crash-recovery downtime in rounds (`None` = crash-stop);
    /// `max_crash_frac` caps the total crashed fraction of the population.
    pub fn try_new(
        seed: u64,
        link_loss: f64,
        crash_hazard: f64,
        recover_after: Option<u64>,
        max_crash_frac: f64,
    ) -> Result<Self, FaultConfigError> {
        if !link_loss.is_finite() || !(0.0..1.0).contains(&link_loss) {
            return Err(FaultConfigError::LinkLoss(link_loss));
        }
        if !crash_hazard.is_finite() || !(0.0..1.0).contains(&crash_hazard) {
            return Err(FaultConfigError::CrashHazard(crash_hazard));
        }
        if !max_crash_frac.is_finite() || !(0.0..=1.0).contains(&max_crash_frac) {
            return Err(FaultConfigError::MaxCrashFrac(max_crash_frac));
        }
        Ok(Self {
            link_loss,
            crash_hazard,
            recover_after,
            max_crash_frac,
            rng: simnet::rng::stream(seed, u64::MAX - 3, 0xFA_5EED),
            crashed: 0,
        })
    }

    /// [`try_new`](Self::try_new) for statically known-good rates;
    /// panics with the validation message otherwise.
    pub fn new(
        seed: u64,
        link_loss: f64,
        crash_hazard: f64,
        recover_after: Option<u64>,
        max_crash_frac: f64,
    ) -> Self {
        match Self::try_new(seed, link_loss, crash_hazard, recover_after, max_crash_frac) {
            Ok(s) => s,
            Err(e) => panic!("invalid fault schedule: {e}"),
        }
    }

    /// The paper's model: no loss and no crashes. Zero rates draw nothing,
    /// so neither the stream nor the crash cap is ever read.
    pub fn none() -> Self {
        Self::new(0, 0.0, 0.0, None, 0.0)
    }

    /// The per-message loss probability.
    pub fn link_loss(&self) -> f64 {
        self.link_loss
    }

    /// The per-node per-round crash hazard.
    pub fn crash_hazard(&self) -> f64 {
        self.crash_hazard
    }

    /// Crash-recovery downtime in rounds (`None` = crash-stop).
    pub fn recover_after(&self) -> Option<u64> {
        self.recover_after
    }

    /// Nodes crashed so far (across the schedule's lifetime).
    pub fn crashed_so_far(&self) -> usize {
        self.crashed
    }

    /// Draw one message-loss event. Draws nothing when the loss rate is
    /// zero, so a lossless schedule never perturbs the stream.
    pub fn lose_message(&mut self) -> bool {
        self.link_loss > 0.0 && self.rng.random::<f64>() < self.link_loss
    }

    /// Draw this round's fresh crashes among `up` (the live, not-yet-down
    /// nodes, in sorted order), with the budget measured against
    /// `population` (the full current membership). Draws one uniform per
    /// candidate; when the hazard is zero it draws nothing.
    pub fn draw_crashes(&mut self, up: &[NodeId], population: usize) -> Vec<NodeId> {
        if self.crash_hazard <= 0.0 {
            return Vec::new();
        }
        let budget = (self.max_crash_frac * population as f64).floor() as usize;
        let mut out = Vec::new();
        for &v in up {
            let hit = self.rng.random::<f64>() < self.crash_hazard;
            if hit && self.crashed < budget {
                self.crashed += 1;
                out.push(v);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(n: u64) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn schedules_replay_from_the_seed() {
        let run = || {
            let mut s = FaultSchedule::new(7, 0.3, 0.01, Some(8), 0.2);
            let losses: Vec<bool> = (0..64).map(|_| s.lose_message()).collect();
            let crashes = s.draw_crashes(&ids(100), 100);
            (losses, crashes)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn different_seeds_differ() {
        let losses = |seed| {
            let mut s = FaultSchedule::new(seed, 0.5, 0.0, None, 0.1);
            (0..64).map(|_| s.lose_message()).collect::<Vec<bool>>()
        };
        assert_ne!(losses(1), losses(2));
    }

    #[test]
    fn zero_rates_draw_nothing() {
        let mut s = FaultSchedule::new(3, 0.0, 0.0, None, 0.1);
        for _ in 0..32 {
            assert!(!s.lose_message());
        }
        assert!(s.draw_crashes(&ids(50), 50).is_empty());
        // The stream is untouched: a fresh schedule with the same seed but
        // nonzero rates sees the pristine stream.
        let mut a = FaultSchedule::new(3, 0.9, 0.0, None, 0.1);
        let mut b = FaultSchedule::new(3, 0.9, 0.0, None, 0.1);
        for _ in 0..8 {
            b.lose_message();
        }
        let _ = (a.lose_message(), s.lose_message());
    }

    #[test]
    fn crash_budget_is_a_hard_cap() {
        // Hazard 1: every candidate crashes until the budget is spent.
        let mut s = FaultSchedule::new(4, 0.0, 0.99, None, 0.1);
        let crashed = s.draw_crashes(&ids(100), 100);
        assert!(crashed.len() <= 10, "budget floor(0.1 * 100) = 10, got {}", crashed.len());
        // Further rounds add nothing.
        let more = s.draw_crashes(&ids(100), 100);
        assert!(crashed.len() + more.len() <= 10);
        assert_eq!(s.crashed_so_far(), crashed.len() + more.len());
    }

    #[test]
    fn bad_rates_are_rejected_with_named_errors() {
        let loss = FaultSchedule::try_new(0, 1.0, 0.0, None, 0.1).unwrap_err();
        assert_eq!(loss, FaultConfigError::LinkLoss(1.0));
        assert!(loss.to_string().contains("link_loss"));
        let hazard = FaultSchedule::try_new(0, 0.0, f64::NAN, None, 0.1).unwrap_err();
        assert!(matches!(hazard, FaultConfigError::CrashHazard(_)));
        let frac = FaultSchedule::try_new(0, 0.0, 0.0, None, -0.5).unwrap_err();
        assert_eq!(frac, FaultConfigError::MaxCrashFrac(-0.5));
        assert!(FaultSchedule::try_new(0, 0.0, 0.0, None, 1.0).is_ok());
    }

    #[test]
    #[should_panic(expected = "link_loss must be a probability")]
    fn new_panics_with_the_validation_message() {
        FaultSchedule::new(0, 2.0, 0.0, None, 0.1);
    }

    #[test]
    fn loss_rate_is_roughly_respected() {
        let mut s = FaultSchedule::new(5, 0.3, 0.0, None, 0.1);
        let lost = (0..2000).filter(|_| s.lose_message()).count();
        assert!((400..=800).contains(&lost), "0.3 loss gave {lost}/2000");
    }
}
