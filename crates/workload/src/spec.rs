//! Workload specifications: what traffic to generate, at what scale.
//!
//! A [`WorkloadSpec`] is the replay key of a run: together with the fault
//! campaign it fully determines the op stream, so two runs with equal
//! `(spec, campaign)` produce bit-identical traces.
//! Specs are validated up front — out-of-band parameters are rejected
//! with a typed error naming the field, never clamped.

use serde::{Deserialize, Serialize};
use simnet::Digest;

/// The three W-series traffic shapes.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkloadKind {
    /// Zipf-skewed get/put key mix (experiment W1).
    ZipfKv {
        /// Distinct keys the mix draws from.
        keyspace: u64,
        /// Zipf exponent; 0 = uniform, ~1 = web-like skew.
        skew: f64,
        /// Fraction of ops that are reads (the rest write).
        read_fraction: f64,
    },
    /// Hot-key storm on a rotating top-k set (experiment W2).
    HotKey {
        /// Distinct keys overall.
        keyspace: u64,
        /// Size of the hot set.
        top_k: usize,
        /// Batches between hot-set rotations.
        rotate_every: u64,
        /// Fraction of ops aimed at the hot set (rest uniform).
        hot_fraction: f64,
    },
    /// Chat/feed: fan-out publish with per-topic subscriber churn
    /// (experiment W3).
    Chat {
        /// Topic (feed) count; publishes are Zipf-distributed over them.
        topics: u64,
        /// Zipf exponent of topic popularity.
        skew: f64,
        /// Initial subscriber population.
        subscribers: usize,
        /// Churn rate `r >= 1` of the subscriber population.
        churn_rate: f64,
        /// Subscribers fetching per touched topic per batch (fan-out cap).
        fanout_cap: usize,
    },
}

impl WorkloadKind {
    /// Stable name used in reports, telemetry details and result rows.
    pub fn name(&self) -> &'static str {
        match self {
            WorkloadKind::ZipfKv { .. } => "zipf-kv",
            WorkloadKind::HotKey { .. } => "hot-key",
            WorkloadKind::Chat { .. } => "chat",
        }
    }
}

/// A full workload run description.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Servers in the DHT (the overlay's fixed population).
    pub n: usize,
    /// Master seed; every generator stream derives from it.
    pub seed: u64,
    /// Op batches to run.
    pub batches: u64,
    /// Ops per batch.
    pub batch_size: usize,
    /// Traffic shape.
    pub kind: WorkloadKind,
}

/// Why a spec was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// The offending field.
    pub field: &'static str,
    /// What was wrong with it.
    pub reason: String,
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "workload spec field `{}`: {}", self.field, self.reason)
    }
}

impl std::error::Error for SpecError {}

fn err(field: &'static str, reason: impl Into<String>) -> SpecError {
    SpecError { field, reason: reason.into() }
}

fn check_fraction(field: &'static str, x: f64) -> Result<(), SpecError> {
    if !(0.0..=1.0).contains(&x) {
        return Err(err(field, format!("must be in [0, 1], got {x}")));
    }
    Ok(())
}

impl WorkloadSpec {
    /// Validate all parameters against their documented bands.
    pub fn validate(&self) -> Result<(), SpecError> {
        if !(16..=1 << 20).contains(&self.n) {
            return Err(err("n", format!("must be in [16, 2^20], got {}", self.n)));
        }
        if self.batches == 0 {
            return Err(err("batches", "must be >= 1"));
        }
        if !(1..=1 << 20).contains(&self.batch_size) {
            return Err(err(
                "batch_size",
                format!("must be in [1, 2^20], got {}", self.batch_size),
            ));
        }
        match &self.kind {
            WorkloadKind::ZipfKv { keyspace, skew, read_fraction } => {
                if !(1..=1 << 22).contains(keyspace) {
                    return Err(err("keyspace", format!("must be in [1, 2^22], got {keyspace}")));
                }
                if !(0.0..=8.0).contains(skew) {
                    return Err(err("skew", format!("must be in [0, 8], got {skew}")));
                }
                check_fraction("read_fraction", *read_fraction)?;
            }
            WorkloadKind::HotKey { keyspace, top_k, rotate_every, hot_fraction } => {
                if !(1..=1 << 22).contains(keyspace) {
                    return Err(err("keyspace", format!("must be in [1, 2^22], got {keyspace}")));
                }
                if *top_k == 0 || *top_k as u64 > *keyspace {
                    return Err(err("top_k", format!("must be in [1, keyspace], got {top_k}")));
                }
                if *rotate_every == 0 {
                    return Err(err("rotate_every", "must be >= 1"));
                }
                check_fraction("hot_fraction", *hot_fraction)?;
            }
            WorkloadKind::Chat { topics, skew, subscribers, churn_rate, fanout_cap } => {
                if !(1..=1 << 20).contains(topics) {
                    return Err(err("topics", format!("must be in [1, 2^20], got {topics}")));
                }
                if !(0.0..=8.0).contains(skew) {
                    return Err(err("skew", format!("must be in [0, 8], got {skew}")));
                }
                // The churn schedule needs >= 4 survivors.
                if !(4..=1 << 20).contains(subscribers) {
                    return Err(err(
                        "subscribers",
                        format!("must be in [4, 2^20], got {subscribers}"),
                    ));
                }
                if !(1.0..=4.0).contains(churn_rate) {
                    return Err(err("churn_rate", format!("must be in [1, 4], got {churn_rate}")));
                }
                if *fanout_cap == 0 {
                    return Err(err("fanout_cap", "must be >= 1"));
                }
            }
        }
        Ok(())
    }

    /// Fold every parameter into a digest (the trace header).
    pub fn fold_into(&self, d: &mut Digest) {
        d.write_str(self.kind.name())
            .write_usize(self.n)
            .write_u64(self.seed)
            .write_u64(self.batches)
            .write_usize(self.batch_size);
        match &self.kind {
            WorkloadKind::ZipfKv { keyspace, skew, read_fraction } => {
                d.write_u64(*keyspace).write_f64(*skew).write_f64(*read_fraction);
            }
            WorkloadKind::HotKey { keyspace, top_k, rotate_every, hot_fraction } => {
                d.write_u64(*keyspace)
                    .write_usize(*top_k)
                    .write_u64(*rotate_every)
                    .write_f64(*hot_fraction);
            }
            WorkloadKind::Chat { topics, skew, subscribers, churn_rate, fanout_cap } => {
                d.write_u64(*topics)
                    .write_f64(*skew)
                    .write_usize(*subscribers)
                    .write_f64(*churn_rate)
                    .write_usize(*fanout_cap);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> WorkloadSpec {
        WorkloadSpec {
            n: 256,
            seed: 1,
            batches: 4,
            batch_size: 64,
            kind: WorkloadKind::ZipfKv { keyspace: 1000, skew: 1.0, read_fraction: 0.5 },
        }
    }

    #[test]
    fn valid_specs_pass() {
        base().validate().unwrap();
        let mut s = base();
        s.kind =
            WorkloadKind::HotKey { keyspace: 500, top_k: 8, rotate_every: 3, hot_fraction: 0.9 };
        s.validate().unwrap();
        s.kind = WorkloadKind::Chat {
            topics: 32,
            skew: 0.8,
            subscribers: 100,
            churn_rate: 1.2,
            fanout_cap: 4,
        };
        s.validate().unwrap();
    }

    #[test]
    fn out_of_band_fields_are_rejected_with_their_name() {
        let mut s = base();
        s.n = 15;
        assert_eq!(s.validate().unwrap_err().field, "n");
        s = base();
        s.batch_size = 0;
        assert_eq!(s.validate().unwrap_err().field, "batch_size");
        s = base();
        s.kind = WorkloadKind::ZipfKv { keyspace: 0, skew: 1.0, read_fraction: 0.5 };
        assert_eq!(s.validate().unwrap_err().field, "keyspace");
        s.kind = WorkloadKind::ZipfKv { keyspace: 10, skew: 9.0, read_fraction: 0.5 };
        assert_eq!(s.validate().unwrap_err().field, "skew");
        s.kind = WorkloadKind::ZipfKv { keyspace: 10, skew: 1.0, read_fraction: 1.5 };
        assert_eq!(s.validate().unwrap_err().field, "read_fraction");
        s.kind =
            WorkloadKind::HotKey { keyspace: 10, top_k: 11, rotate_every: 1, hot_fraction: 0.5 };
        assert_eq!(s.validate().unwrap_err().field, "top_k");
        s.kind = WorkloadKind::Chat {
            topics: 1,
            skew: 0.0,
            subscribers: 3,
            churn_rate: 1.0,
            fanout_cap: 1,
        };
        assert_eq!(s.validate().unwrap_err().field, "subscribers");
        s.kind = WorkloadKind::Chat {
            topics: 1,
            skew: 0.0,
            subscribers: 8,
            churn_rate: 5.0,
            fanout_cap: 1,
        };
        assert_eq!(s.validate().unwrap_err().field, "churn_rate");
    }

    #[test]
    fn digest_header_distinguishes_specs() {
        let fold = |s: &WorkloadSpec| {
            let mut d = Digest::new();
            s.fold_into(&mut d);
            d.finish()
        };
        let a = base();
        let mut b = base();
        assert_eq!(fold(&a), fold(&b));
        b.seed = 2;
        assert_ne!(fold(&a), fold(&b));
        b = base();
        b.kind = WorkloadKind::ZipfKv { keyspace: 1000, skew: 1.1, read_fraction: 0.5 };
        assert_ne!(fold(&a), fold(&b));
    }
}
