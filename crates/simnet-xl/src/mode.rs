//! Execution modes of the engine.
//!
//! [`crate::XlNetwork`] can run its cross-shard message exchange in two
//! ways. Under [`ExecMode::Parity`] (the default) one serial k-way merge
//! consumes the per-shard send arenas in global key order, so inbox order,
//! fault-RNG draw order and therefore the digest stream are identical at
//! every shard count — the property the repository's golden files and
//! differential tests pin.
//!
//! [`ExecMode::Fast`] relaxes the *global* delivery order, which the
//! paper's guarantees never depended on (they are distributional — w.h.p.
//! statements over the protocol's own randomness, not statements about one
//! canonical interleaving). Messages are judged and routed in parallel per
//! source shard with per-shard fault-RNG streams, then delivered in
//! parallel per destination shard in (source shard, send order) — see
//! DESIGN.md §10 for exactly what is and is not guaranteed. Fast runs are
//! still fully deterministic for a fixed `(seed, shard count)`; they are
//! validated against parity runs by the statistical-equivalence harness in
//! `overlay-stats::equivalence` rather than by byte equality.

use std::fmt;

/// How [`crate::XlNetwork`] orders cross-shard message delivery.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// One global delivery order: serial k-way merge in key order. Digest
    /// streams are identical at every shard count and match the golden
    /// files.
    #[default]
    Parity,
    /// Relaxed global order: parallel per-shard routing and delivery with
    /// per-shard fault-RNG streams. Deterministic per `(seed, shards)`,
    /// statistically equivalent to parity, **not** bit-equal to it.
    Fast,
}

impl ExecMode {
    /// Canonical lowercase name (`parity` / `fast`), used in backend
    /// specs, checkpoints and experiment records.
    pub fn name(self) -> &'static str {
        match self {
            ExecMode::Parity => "parity",
            ExecMode::Fast => "fast",
        }
    }

    /// Parse a canonical name back into a mode.
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "parity" => Some(ExecMode::Parity),
            "fast" => Some(ExecMode::Fast),
            _ => None,
        }
    }
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for mode in [ExecMode::Parity, ExecMode::Fast] {
            assert_eq!(ExecMode::parse(mode.name()), Some(mode));
        }
        assert_eq!(ExecMode::parse(" fast "), Some(ExecMode::Fast));
        assert_eq!(ExecMode::parse("turbo"), None);
        assert_eq!(ExecMode::default(), ExecMode::Parity);
    }
}
