//! Execution modes of the engine.
//!
//! [`crate::XlNetwork`] can run a round in two ways. Under
//! [`ExecMode::Parity`] (the default) node state lives in one shard and
//! delivery walks its send arena serially in key order, so inbox order and
//! fault-RNG draw order follow one global order — the property the
//! repository's golden files pin.
//!
//! [`ExecMode::Fast`] splits node state over shards, the only setting in
//! which two cores pay (DESIGN.md §10), and relaxes the *global* delivery
//! order, which the paper's guarantees never depended on (they are
//! distributional — w.h.p. statements over the protocol's own randomness,
//! not statements about one canonical interleaving). Messages are judged
//! and routed in parallel per source shard with per-shard fault-RNG
//! streams, then delivered in parallel per destination shard in (source
//! shard, send order) — see DESIGN.md §10 for exactly what is and is not
//! guaranteed. Fast runs are fully deterministic for a fixed `(seed,
//! shard count)`. At one shard with no fault model they reproduce the
//! parity digest stream exactly; at more shards they are validated against
//! parity by the statistical-equivalence harness in
//! `overlay-stats::equivalence`.

use std::fmt;

/// How [`crate::XlNetwork`] orders message delivery.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ExecMode {
    /// One shard, one global delivery order: serial walk in key order.
    /// Digest streams match the golden files.
    #[default]
    Parity,
    /// Sharded, relaxed global order: parallel per-shard routing and
    /// delivery with per-shard fault-RNG streams. Deterministic per
    /// `(seed, shards)`, statistically equivalent to parity, bit-equal to
    /// it only at one shard with no fault model.
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
