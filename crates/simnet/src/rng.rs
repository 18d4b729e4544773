//! Deterministic randomness.
//!
//! Every stochastic decision in the simulator draws from a ChaCha8 stream
//! keyed by `(master_seed, node_id, purpose)`. This makes runs reproducible
//! bit-for-bit regardless of how many rayon threads step the nodes, because
//! no RNG state is shared between nodes.

use rand_chacha::rand_core::SeedableRng;
use rand_chacha::{ChaCha8Rng, ChaCha8Wide};

/// The per-node RNG type used throughout the workspace.
pub type NodeRng = ChaCha8Rng;

/// SplitMix64 finalizer; decorrelates nearby seeds. Also the engine's
/// node-id hash, so it stays `#[inline]` across crates: it sits on the
/// per-message lookup path.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The ChaCha key of stream `(master_seed, node, purpose)`.
fn stream_key(master_seed: u64, node: u64, purpose: u64) -> [u8; 32] {
    let mut key = [0u8; 32];
    let a = splitmix64(master_seed ^ 0xA076_1D64_78BD_642F);
    let b = splitmix64(a ^ node);
    let c = splitmix64(b ^ purpose);
    let d = splitmix64(c ^ 0xE703_7ED1_A0B4_28DB);
    key[0..8].copy_from_slice(&a.to_le_bytes());
    key[8..16].copy_from_slice(&b.to_le_bytes());
    key[16..24].copy_from_slice(&c.to_le_bytes());
    key[24..32].copy_from_slice(&d.to_le_bytes());
    key
}

/// Derive an independent RNG stream for `(master_seed, node, purpose)`.
///
/// `purpose` separates different uses of randomness at the same node (e.g.
/// one stream per Hamilton cycle instance of Algorithm 3) so that adding a
/// consumer never perturbs an existing one.
pub fn stream(master_seed: u64, node: u64, purpose: u64) -> NodeRng {
    ChaCha8Rng::from_seed(stream_key(master_seed, node, purpose))
}

/// The same stream as [`stream`] — equal values, draw for draw — through
/// the eight-block reader: for a draw-heavy stream that lives on the stack
/// and is never stored or checkpointed. Building one generates nothing.
pub fn stream_wide(master_seed: u64, node: u64, purpose: u64) -> ChaCha8Wide {
    ChaCha8Wide::from_seed(stream_key(master_seed, node, purpose))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn same_key_same_stream() {
        let mut a = stream(1, 2, 3);
        let mut b = stream(1, 2, 3);
        for _ in 0..16 {
            assert_eq!(a.random::<u64>(), b.random::<u64>());
        }
    }

    #[test]
    fn known_answer_vector_holds_for_both_readers() {
        // First 32 words of `stream(1, 2, 3)`, recorded before the wide
        // reader and the shared key derivation existed.
        const KAT: [u32; 32] = [
            0xad603761, 0x144e1fea, 0x3c77d423, 0x828bd270, 0x5fe51f52, 0x538ccd51, 0xcf87d87b,
            0xddf8ab7d, 0x3f13fb67, 0x89294b7d, 0xf4a88d44, 0xeafc2b95, 0x677e0c63, 0x0d100b6b,
            0x81e3819f, 0xb6b4f4c7, 0x0ada7946, 0xa009b24c, 0x615a3f11, 0x24090c81, 0xbf82fbf2,
            0xbc2b649e, 0x7d8227ea, 0x1000290e, 0x5165ac67, 0xd29bd398, 0xfbc242d8, 0xe7d537fa,
            0x1a8ac55e, 0x94e1e0e6, 0x6e5a1a56, 0x96b9ae7b,
        ];
        let mut narrow = stream(1, 2, 3);
        let mut wide = stream_wide(1, 2, 3);
        for (i, &w) in KAT.iter().enumerate() {
            assert_eq!(narrow.random::<u32>(), w, "narrow word {i}");
            assert_eq!(wide.random::<u32>(), w, "wide word {i}");
        }
    }

    #[test]
    fn different_purpose_different_stream() {
        let mut a = stream(1, 2, 3);
        let mut b = stream(1, 2, 4);
        let xs: Vec<u64> = (0..8).map(|_| a.random()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.random()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn different_node_different_stream() {
        let mut a = stream(1, 2, 3);
        let mut b = stream(1, 5, 3);
        assert_ne!(a.random::<u64>(), b.random::<u64>());
    }

    #[test]
    fn adjacent_seeds_decorrelated() {
        // Nearby master seeds should not produce obviously correlated output.
        let mut a = stream(100, 0, 0);
        let mut b = stream(101, 0, 0);
        let same = (0..64).filter(|_| a.random::<bool>() == b.random::<bool>()).count();
        assert!((8..=56).contains(&same), "suspicious correlation: {same}/64");
    }
}
