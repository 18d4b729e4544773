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

/// Running communication statistics for a simulation: totals and maxima
/// over every recorded round, and the last round's [`RoundWork`]. Its
/// size does not grow with the number of rounds.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct CommStats {
    /// Summed totals and the largest per-node maxima (`round` unused).
    all: RoundWork,
    last: Option<RoundWork>,
}

impl CommStats {
    /// Record one finished round.
    pub fn push(&mut self, w: RoundWork) {
        let a = &mut self.all;
        (a.total_bits, a.total_msgs) = (a.total_bits + w.total_bits, a.total_msgs + w.total_msgs);
        a.max_node_bits = a.max_node_bits.max(w.max_node_bits);
        a.max_node_msgs = a.max_node_msgs.max(w.max_node_msgs);
        self.last = Some(w);
    }

    /// The most recently recorded round.
    pub fn last(&self) -> Option<&RoundWork> {
        self.last.as_ref()
    }

    /// The largest per-node communication work observed in any round.
    ///
    /// This is the quantity the paper's work bounds constrain.
    pub fn max_node_bits(&self) -> u64 {
        self.all.max_node_bits
    }

    /// The largest per-node message count observed in any round.
    pub fn max_node_msgs(&self) -> u64 {
        self.all.max_node_msgs
    }

    /// Total bits moved over the whole simulation.
    pub fn total_bits(&self) -> u64 {
        self.all.total_bits
    }

    /// Total messages moved over the whole simulation.
    pub fn total_msgs(&self) -> u64 {
        self.all.total_msgs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_track_maximum_across_rounds() {
        let mut s = CommStats::default();
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
        assert_eq!(s.last().map(|w| w.round), Some(1));
    }

    #[test]
    fn last_is_the_latest_round() {
        let mut s = CommStats::default();
        for r in 0..10 {
            s.push(RoundWork { round: r, max_node_bits: 10 - r, ..Default::default() });
        }
        assert_eq!(s.last().map(|w| (w.round, w.max_node_bits)), Some((9, 1)));
        assert_eq!(s.max_node_bits(), 10);
    }

    #[test]
    fn empty_stats_are_zero() {
        let s = CommStats::default();
        assert!(s.last().is_none());
        assert_eq!(s.max_node_bits(), 0);
        assert_eq!(s.total_msgs(), 0);
    }
}
