//! Validated environment knobs for the workload harnesses.
//!
//! Follows the `overlay_adversary::knobs` contract: unset means default,
//! set means it must parse and sit inside the documented band — invalid
//! values are rejected with a typed error naming the variable and the
//! band, never silently clamped or defaulted.
//!
//! | variable | default | band | meaning |
//! |---|---|---|---|
//! | `WORKLOAD_CASES` | `20` | `[1, 100000]` | fuzz cases for the workload property tests |
//! | `WORKLOAD_BATCHES` | `32` | `[1, 100000]` | op batches per experiment arm |
//! | `WORKLOAD_BATCH_SIZE` | `256` | `[1, 1048576]` | ops per batch |

use overlay_adversary::knobs::{parse_knob, KnobError};

/// Fuzz cases for the workload property tests.
pub const WORKLOAD_CASES: &str = "WORKLOAD_CASES";
/// Op batches per experiment arm.
pub const WORKLOAD_BATCHES: &str = "WORKLOAD_BATCHES";
/// Ops per batch.
pub const WORKLOAD_BATCH_SIZE: &str = "WORKLOAD_BATCH_SIZE";

const DEFAULT_CASES: usize = 20;
const CASES_BAND: (usize, usize) = (1, 100_000);
const DEFAULT_BATCHES: u64 = 32;
const BATCHES_BAND: (u64, u64) = (1, 100_000);
const DEFAULT_BATCH_SIZE: usize = 256;
const BATCH_SIZE_BAND: (usize, usize) = (1, 1 << 20);

/// The workload harness's resolved knobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkloadKnobs {
    /// Fuzz cases the property tests run.
    pub cases: usize,
    /// Batches per experiment arm.
    pub batches: u64,
    /// Ops per batch.
    pub batch_size: usize,
}

impl Default for WorkloadKnobs {
    fn default() -> Self {
        Self { cases: DEFAULT_CASES, batches: DEFAULT_BATCHES, batch_size: DEFAULT_BATCH_SIZE }
    }
}

/// Parse already-fetched raw values (`None` = unset).
pub fn parse_knobs(
    cases: Option<&str>,
    batches: Option<&str>,
    batch_size: Option<&str>,
) -> Result<WorkloadKnobs, KnobError> {
    let cases = parse_knob(WORKLOAD_CASES, cases, DEFAULT_CASES, CASES_BAND.0, CASES_BAND.1)?;
    let batches =
        parse_knob(WORKLOAD_BATCHES, batches, DEFAULT_BATCHES, BATCHES_BAND.0, BATCHES_BAND.1)?;
    let batch_size = parse_knob(
        WORKLOAD_BATCH_SIZE,
        batch_size,
        DEFAULT_BATCH_SIZE,
        BATCH_SIZE_BAND.0,
        BATCH_SIZE_BAND.1,
    )?;
    Ok(WorkloadKnobs { cases, batches, batch_size })
}

/// Read all three knobs from the environment.
pub fn env_knobs() -> Result<WorkloadKnobs, KnobError> {
    let cases = std::env::var(WORKLOAD_CASES).ok();
    let batches = std::env::var(WORKLOAD_BATCHES).ok();
    let batch_size = std::env::var(WORKLOAD_BATCH_SIZE).ok();
    parse_knobs(cases.as_deref(), batches.as_deref(), batch_size.as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay_adversary::knobs::KnobReason;

    #[test]
    fn unset_yields_defaults() {
        let knobs = parse_knobs(None, None, None).unwrap();
        assert_eq!(knobs, WorkloadKnobs::default());
        assert_eq!((knobs.cases, knobs.batches, knobs.batch_size), (20, 32, 256));
    }

    #[test]
    fn valid_overrides_pass_through() {
        let knobs = parse_knobs(Some("1"), Some("100000"), Some("1048576")).unwrap();
        assert_eq!((knobs.cases, knobs.batches, knobs.batch_size), (1, 100_000, 1 << 20));
        let knobs = parse_knobs(Some("200"), None, Some("64")).unwrap();
        assert_eq!((knobs.cases, knobs.batches, knobs.batch_size), (200, 32, 64));
    }

    #[test]
    fn boundary_violations_are_rejected_not_clamped() {
        for (cases, batches, size) in [
            (Some("0"), None, None),
            (Some("100001"), None, None),
            (None, Some("0"), None),
            (None, Some("100001"), None),
            (None, None, Some("0")),
            (None, None, Some("1048577")),
        ] {
            let err = parse_knobs(cases, batches, size).unwrap_err();
            assert!(matches!(err.reason, KnobReason::OutOfRange { .. }), "{err:?}");
        }
    }

    #[test]
    fn garbage_is_rejected_with_the_offending_value() {
        let err = parse_knobs(Some("many"), None, None).unwrap_err();
        assert!(matches!(err.reason, KnobReason::NotAnInteger));
        assert_eq!(err.value, "many");
        assert_eq!(err.name, WORKLOAD_CASES);
        // Empty string is a rejection, not a default.
        assert!(parse_knobs(None, Some(""), None).is_err());
        assert!(parse_knobs(None, None, Some("")).is_err());
    }
}
