//! Validated environment-driven tuning knobs.
//!
//! The fuzz and fault harnesses take their workload sizes from environment
//! variables (`FUZZ_CASES`, `SOAK_ROUNDS`, `BYZ_CASES`, ...). Raw
//! `parse().unwrap()` turns a typo into an opaque panic; these helpers name
//! the variable, the offending value and the permitted band in the error.
//! Out-of-range values are **rejected**, not silently clamped: a
//! fat-fingered exponent should fail loudly rather than quietly run a
//! different workload than the one asked for.

use std::fmt;
use std::str::FromStr;

/// Why an environment knob could not be used.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct KnobError {
    /// The environment variable.
    pub name: String,
    /// The raw value found there.
    pub value: String,
    /// What was wrong with it.
    pub reason: KnobReason,
}

/// The specific defect in a rejected knob value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KnobReason {
    /// Empty or not parseable as a non-negative integer.
    NotAnInteger,
    /// Parsed fine but fell outside the documented band.
    OutOfRange {
        /// Inclusive lower bound.
        lo: usize,
        /// Inclusive upper bound.
        hi: usize,
    },
}

impl fmt::Display for KnobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.reason {
            KnobReason::NotAnInteger => write!(
                f,
                "environment variable {} must be a non-negative integer, got `{}`",
                self.name, self.value
            ),
            KnobReason::OutOfRange { lo, hi } => write!(
                f,
                "environment variable {} must be in [{lo}, {hi}], got `{}`",
                self.name, self.value
            ),
        }
    }
}

impl std::error::Error for KnobError {}

/// Parse an already-fetched knob value of an unsigned integer type: `None`
/// (unset) yields `default`, an integer inside `[lo, hi]` passes through,
/// and anything else — empty, non-numeric, or out of range — is a
/// [`KnobError`] naming the variable, the value, and the permitted band.
pub fn parse_knob<T>(
    name: &str,
    raw: Option<&str>,
    default: T,
    lo: T,
    hi: T,
) -> Result<T, KnobError>
where
    T: FromStr + PartialOrd + Copy,
    usize: TryFrom<T>,
{
    let Some(text) = raw else { return Ok(default) };
    let reason = match text.trim().parse::<T>() {
        Ok(v) if lo <= v && v <= hi => return Ok(v),
        // Bands are reported as `usize`; every documented band fits.
        Ok(_) => {
            let band = |x: T| usize::try_from(x).unwrap_or(usize::MAX);
            KnobReason::OutOfRange { lo: band(lo), hi: band(hi) }
        }
        Err(_) => KnobReason::NotAnInteger,
    };
    Err(KnobError { name: name.to_string(), value: text.to_string(), reason })
}

/// Read `name` from the environment via [`parse_knob`].
pub fn env_knob<T>(name: &str, default: T, lo: T, hi: T) -> Result<T, KnobError>
where
    T: FromStr + PartialOrd + Copy,
    usize: TryFrom<T>,
{
    let raw = std::env::var(name).ok();
    parse_knob(name, raw.as_deref(), default, lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unset_uses_the_default() {
        assert_eq!(parse_knob::<usize>("X", None, 100, 1, 1000), Ok(100));
    }

    #[test]
    fn in_range_values_pass_through() {
        assert_eq!(parse_knob::<usize>("X", Some("250"), 100, 1, 1000), Ok(250));
        assert_eq!(parse_knob::<usize>("X", Some(" 7 "), 100, 1, 1000), Ok(7));
        // Boundary values are in range, not rejected.
        assert_eq!(parse_knob::<usize>("X", Some("1"), 100, 1, 1000), Ok(1));
        assert_eq!(parse_knob::<usize>("X", Some("1000"), 100, 1, 1000), Ok(1000));
    }

    #[test]
    fn out_of_range_values_are_rejected_not_clamped() {
        let err = parse_knob::<usize>("X", Some("999999999"), 100, 1, 1000).unwrap_err();
        assert_eq!(err.reason, KnobReason::OutOfRange { lo: 1, hi: 1000 });
        let msg = err.to_string();
        assert!(msg.contains("[1, 1000]") && msg.contains("`999999999`"), "got: {msg}");
        let err = parse_knob::<usize>("X", Some("0"), 100, 1, 1000).unwrap_err();
        assert_eq!(err.reason, KnobReason::OutOfRange { lo: 1, hi: 1000 });
    }

    #[test]
    fn empty_values_are_rejected_not_defaulted() {
        // An empty string is a set-but-broken variable, not an unset one.
        let err = parse_knob::<usize>("X", Some(""), 100, 1, 1000).unwrap_err();
        assert_eq!(err.reason, KnobReason::NotAnInteger);
        let err = parse_knob::<usize>("X", Some("   "), 100, 1, 1000).unwrap_err();
        assert_eq!(err.reason, KnobReason::NotAnInteger);
    }

    #[test]
    fn garbage_names_the_variable_and_value() {
        let err = parse_knob::<usize>("FUZZ_CASES", Some("lots"), 100, 1, 1000).unwrap_err();
        assert_eq!(err.reason, KnobReason::NotAnInteger);
        let msg = err.to_string();
        assert!(msg.contains("FUZZ_CASES") && msg.contains("`lots`"), "got: {msg}");
        let err = parse_knob::<usize>("FUZZ_CASES", Some("-3"), 100, 1, 1000).unwrap_err();
        assert_eq!(err.reason, KnobReason::NotAnInteger);
    }

    #[test]
    fn u64_knob_mirrors_usize_semantics() {
        assert_eq!(parse_knob::<u64>("R", None, 8, 1, 100_000), Ok(8));
        assert_eq!(parse_knob::<u64>("R", Some("42"), 8, 1, 100_000), Ok(42));
        // Boundaries included, rejections named.
        assert_eq!(parse_knob::<u64>("R", Some("1"), 8, 1, 100_000), Ok(1));
        assert_eq!(parse_knob::<u64>("R", Some("100000"), 8, 1, 100_000), Ok(100_000));
        let err = parse_knob::<u64>("R", Some("0"), 8, 1, 100_000).unwrap_err();
        assert_eq!(err.reason, KnobReason::OutOfRange { lo: 1, hi: 100_000 });
        let err = parse_knob::<u64>("R", Some(""), 8, 1, 100_000).unwrap_err();
        assert_eq!(err.reason, KnobReason::NotAnInteger);
        let err = parse_knob::<u64>("RECOVERY_HYSTERESIS", Some("ten"), 8, 1, 100_000).unwrap_err();
        assert!(err.to_string().contains("RECOVERY_HYSTERESIS"));
    }
}
