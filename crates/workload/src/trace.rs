//! The workload replay trace: a running digest of everything the engine
//! did and observed.
//!
//! Every op generated, every block set applied, every batch outcome,
//! every control-plane epoch sample folds into one [`simnet::Digest`].
//! Two runs with the same `(spec, campaign)` must produce the same final
//! digest on every backend that delivers in parity's order (`xl`, and
//! `xl:fast:1` with no fault model) — the cross-backend determinism test
//! compares exactly this value, so the
//! trace deliberately covers *outcomes* (completions, latency buckets,
//! delivered payloads), not just inputs.

use overlay_apps::dht::BatchMetrics;
use simnet::{BlockSet, Digest};

use crate::spec::WorkloadSpec;

/// Running replay digest of one workload run.
#[derive(Clone, Debug)]
pub struct WorkloadTrace {
    d: Digest,
    /// Batches folded so far.
    pub batches: u64,
    /// Control-plane epochs folded so far.
    pub epochs: u64,
}

impl WorkloadTrace {
    /// Start a trace with the spec as header.
    pub fn new(spec: &WorkloadSpec) -> Self {
        let mut d = Digest::new();
        spec.fold_into(&mut d);
        Self { d, batches: 0, epochs: 0 }
    }

    /// Fold the block set the campaign emitted for a batch.
    pub fn blocked(&mut self, round: u64, blocked: &BlockSet) {
        self.d.write_u64(round).write_usize(blocked.len());
        for v in blocked.iter() {
            self.d.write_u64(v.raw());
        }
    }

    /// Fold one generated op (`tag` distinguishes read/write/publish/
    /// fetch variants within a workload).
    pub fn op(&mut self, tag: u8, a: u64, b: u64) {
        self.d.write_u8(tag).write_u64(a).write_u64(b);
    }

    /// Fold a served DHT batch outcome.
    pub fn batch(&mut self, m: &BatchMetrics) {
        self.batches += 1;
        self.d
            .write_usize(m.requests)
            .write_usize(m.completed)
            .write_u64(m.rounds)
            .write_u64(m.congestion)
            .write_u64(m.messages);
        for &b in m.latency.buckets() {
            self.d.write_u64(b);
        }
    }

    /// Fold a free value (chat publish/fetch outcomes, churn ids, ...).
    pub fn value(&mut self, x: u64) {
        self.d.write_u64(x);
    }

    /// Fold a control-plane epoch: its index and the digest (salt) of the
    /// backend-executed sampling run.
    pub fn epoch(&mut self, index: u64, salt: u64) {
        self.epochs += 1;
        self.d.write_u64(index).write_u64(salt);
    }

    /// Fold a hot-set rotation.
    pub fn rotation(&mut self, index: u64, keys: &[u64]) {
        self.d.write_u64(index);
        for &k in keys {
            self.d.write_u64(k);
        }
    }

    /// The final replay digest.
    pub fn finish(&self) -> u64 {
        self.d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WorkloadKind;
    use simnet::NodeId;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            n: 64,
            seed: 9,
            batches: 2,
            batch_size: 8,
            kind: WorkloadKind::ZipfKv { keyspace: 100, skew: 1.0, read_fraction: 0.5 },
        }
    }

    #[test]
    fn identical_histories_digest_identically() {
        let run = || {
            let mut t = WorkloadTrace::new(&spec());
            t.blocked(1, &[NodeId(3), NodeId(5)].into_iter().collect());
            t.op(0, 42, 0);
            t.op(1, 42, 7);
            t.epoch(1, 0xABCD);
            t.rotation(0, &[1, 2, 3]);
            t.finish()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn any_divergence_changes_the_digest() {
        let base = {
            let mut t = WorkloadTrace::new(&spec());
            t.op(0, 42, 0);
            t.finish()
        };
        let other_op = {
            let mut t = WorkloadTrace::new(&spec());
            t.op(0, 43, 0);
            t.finish()
        };
        let other_spec = {
            let mut s = spec();
            s.seed = 10;
            WorkloadTrace::new(&s).finish()
        };
        assert_ne!(base, other_op);
        assert_ne!(base, WorkloadTrace::new(&spec()).finish());
        assert_ne!(WorkloadTrace::new(&spec()).finish(), other_spec);
    }

    #[test]
    fn batch_outcomes_are_covered() {
        let mut a = WorkloadTrace::new(&spec());
        let mut b = WorkloadTrace::new(&spec());
        let mut m = BatchMetrics { requests: 4, completed: 4, ..Default::default() };
        a.batch(&m);
        m.completed = 3;
        b.batch(&m);
        assert_ne!(a.finish(), b.finish(), "completion count must be digest-visible");
        assert_eq!(a.batches, 1);
    }
}
