//! Communication-work accounting.
//!
//! The paper bounds, for every protocol, the *communication work* of a node
//! in a round: the total number of bits it sends plus the bits it receives.
//! The engine charges each delivered or sent message to both endpoints and
//! aggregates per round; experiments read the maxima off [`CommStats`] to
//! verify the paper's polylogarithmic work bounds (e.g. Theorem 2's
//! `O(log^(2+log(2+eps)) n)`).

use serde::{Deserialize, Serialize};

/// Work done by the busiest node in one round, plus aggregates.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct RoundWork {
    /// Round index.
    pub round: u64,
    /// Maximum bits sent+received by any single node this round.
    pub max_node_bits: u64,
    /// Sum over nodes of bits handled this round. A message sent in round
    /// `i` and delivered in round `i + 1` contributes its size to round `i`
    /// (sender side) and to round `i + 1` (receiver side).
    pub total_bits: u64,
    /// Maximum number of message events (sends + receives) at any single
    /// node this round.
    pub max_node_msgs: u64,
    /// Total message events this round (see `total_bits` for the charging
    /// convention).
    pub total_msgs: u64,
}

/// Running communication statistics for a simulation.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CommStats {
    per_round: Vec<RoundWork>,
}

impl CommStats {
    /// Create empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one finished round.
    pub fn push(&mut self, work: RoundWork) {
        self.per_round.push(work);
    }

    /// All recorded rounds, oldest first.
    pub fn rounds(&self) -> &[RoundWork] {
        &self.per_round
    }

    /// Number of recorded rounds.
    pub fn len(&self) -> usize {
        self.per_round.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.per_round.is_empty()
    }

    /// The largest per-node communication work observed in any round.
    ///
    /// This is the quantity the paper's work bounds constrain.
    pub fn max_node_bits(&self) -> u64 {
        self.per_round.iter().map(|r| r.max_node_bits).max().unwrap_or(0)
    }

    /// The largest per-node message count observed in any round.
    pub fn max_node_msgs(&self) -> u64 {
        self.per_round.iter().map(|r| r.max_node_msgs).max().unwrap_or(0)
    }

    /// Total bits moved over the whole simulation.
    pub fn total_bits(&self) -> u64 {
        self.per_round.iter().map(|r| r.total_bits).sum()
    }

    /// Total messages moved over the whole simulation.
    pub fn total_msgs(&self) -> u64 {
        self.per_round.iter().map(|r| r.total_msgs).sum()
    }

    /// Drop all recorded rounds (e.g. between experiment phases) while
    /// keeping the allocation.
    pub fn clear(&mut self) {
        self.per_round.clear();
    }

    /// Statistics for the suffix of rounds starting at `from_round`.
    pub fn since(&self, from_round: u64) -> CommStats {
        CommStats {
            per_round: self.per_round.iter().filter(|r| r.round >= from_round).copied().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_track_maximum_across_rounds() {
        let mut s = CommStats::new();
        s.push(RoundWork {
            round: 0,
            max_node_bits: 10,
            total_bits: 30,
            max_node_msgs: 1,
            total_msgs: 3,
        });
        s.push(RoundWork {
            round: 1,
            max_node_bits: 50,
            total_bits: 60,
            max_node_msgs: 4,
            total_msgs: 5,
        });
        assert_eq!(s.max_node_bits(), 50);
        assert_eq!(s.max_node_msgs(), 4);
        assert_eq!(s.total_bits(), 90);
        assert_eq!(s.total_msgs(), 8);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn since_filters_rounds() {
        let mut s = CommStats::new();
        for r in 0..10 {
            s.push(RoundWork { round: r, max_node_bits: r, ..Default::default() });
        }
        let tail = s.since(7);
        assert_eq!(tail.len(), 3);
        assert_eq!(tail.max_node_bits(), 9);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = CommStats::new();
        assert!(s.is_empty());
        assert_eq!(s.max_node_bits(), 0);
        assert_eq!(s.total_msgs(), 0);
    }
}
