//! Per-server storage and replica placement.

use serde::{Deserialize, Serialize};
use simnet::NodeId;
use std::collections::HashMap;

/// A server's local versioned key-value store.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct ServerStore {
    map: HashMap<u64, (u64, u64)>, // key -> (version, value)
    next_version: u64,
}

impl ServerStore {
    /// Store `value` under `key` with a fresh local version.
    pub fn write(&mut self, key: u64, value: u64) {
        self.next_version += 1;
        let v = self.next_version;
        self.map.insert(key, (v, value));
    }

    /// `(version, value)` currently stored for `key`.
    pub fn read(&self, key: u64) -> Option<(u64, u64)> {
        self.map.get(&key).copied()
    }

    /// Number of keys stored.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// Most replicas a key can have: `ceil(log2 n)` for any addressable `n`.
/// Sizes the stack buffer single-op reads fill with [`fill_replicas`].
pub const MAX_REDUNDANCY: usize = 64;

/// Fill `out` with the `out.len()` distinct replica servers of a key,
/// chosen by iterated hashing (RoBuSt's "logarithmic redundancy").
pub fn fill_replicas(key: u64, n_servers: u64, out: &mut [NodeId]) {
    let redundancy = out.len();
    assert!(n_servers as usize >= redundancy, "more replicas than servers");
    let mut filled = 0;
    let mut i = 0u64;
    while filled < redundancy {
        let mut x = key ^ i.wrapping_mul(0xA24B_AED4_963E_E407);
        x = (x ^ (x >> 31)).wrapping_mul(0x9FB2_1C65_1E98_DF25);
        x = (x ^ (x >> 28)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
        let srv = NodeId((x ^ (x >> 32)) % n_servers);
        if !out[..filled].contains(&srv) {
            out[filled] = srv;
            filled += 1;
        }
        i += 1;
        assert!(i < 64 * redundancy as u64, "hash family exhausted");
    }
}

/// The `redundancy` distinct replica servers of a key, as
/// [`fill_replicas`] orders them.
pub fn replica_servers(key: u64, n_servers: u64, redundancy: usize) -> Vec<NodeId> {
    let mut out = vec![NodeId(0); redundancy];
    fill_replicas(key, n_servers, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versions_increase_per_write() {
        let mut s = ServerStore::default();
        s.write(1, 10);
        let (v1, _) = s.read(1).unwrap();
        s.write(1, 20);
        let (v2, val) = s.read(1).unwrap();
        assert!(v2 > v1);
        assert_eq!(val, 20);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn replicas_are_distinct_and_deterministic() {
        let r1 = replica_servers(42, 1000, 10);
        let r2 = replica_servers(42, 1000, 10);
        assert_eq!(r1, r2);
        let mut dedup = r1.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 10);
    }

    #[test]
    fn different_keys_get_different_replica_sets() {
        let a = replica_servers(1, 1 << 20, 8);
        let b = replica_servers(2, 1 << 20, 8);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "more replicas")]
    fn too_much_redundancy_rejected() {
        replica_servers(0, 4, 5);
    }
}
