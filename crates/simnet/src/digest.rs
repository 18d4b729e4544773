//! Stable hashing for deterministic-replay verification.
//!
//! [`Digest`] is a 64-bit FNV-1a hasher with a fixed byte encoding for
//! every input type, so digest values are stable across platforms, Rust
//! versions and `HashMap` iteration orders — unlike `std::hash`, whose
//! output is explicitly unspecified. The engine uses it to fingerprint
//! whole network states once per round ([`crate::SimEngine::round_digest`]);
//! golden tests pin those fingerprints, and differential tests compare
//! them across execution modes and pool sizes.
//!
//! [`RunManifest`] records everything needed to reproduce a digest stream:
//! the master seed, a human-readable config string, and the simnet crate
//! version (digests are an implementation fingerprint, not a protocol —
//! they may legitimately change between crate versions, and the manifest
//! makes that visible).

/// 64-bit FNV-1a hasher with a stable input encoding.
///
/// All multi-byte integers are hashed in little-endian order. Each `write_*`
/// method is length-prefixed where ambiguity is possible (`write_bytes`,
/// `write_str`), so adjacent fields cannot alias each other.
#[derive(Clone, Debug)]
pub struct Digest {
    state: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

impl Digest {
    /// A fresh digest.
    pub fn new() -> Self {
        Self { state: FNV_OFFSET }
    }

    /// Hash one byte.
    #[inline]
    pub fn write_u8(&mut self, x: u8) -> &mut Self {
        self.state = (self.state ^ x as u64).wrapping_mul(FNV_PRIME);
        self
    }

    /// Hash a `u32` (little-endian).
    #[inline]
    pub fn write_u32(&mut self, x: u32) -> &mut Self {
        for b in x.to_le_bytes() {
            self.write_u8(b);
        }
        self
    }

    /// Hash a `u64` (little-endian).
    #[inline]
    pub fn write_u64(&mut self, x: u64) -> &mut Self {
        for b in x.to_le_bytes() {
            self.write_u8(b);
        }
        self
    }

    /// Hash a `u128` (little-endian).
    #[inline]
    pub fn write_u128(&mut self, x: u128) -> &mut Self {
        for b in x.to_le_bytes() {
            self.write_u8(b);
        }
        self
    }

    /// Hash a `usize` (as `u64`, so 32/64-bit platforms agree).
    #[inline]
    pub fn write_usize(&mut self, x: usize) -> &mut Self {
        self.write_u64(x as u64)
    }

    /// Hash a `bool`.
    #[inline]
    pub fn write_bool(&mut self, x: bool) -> &mut Self {
        self.write_u8(x as u8)
    }

    /// Hash an `f64` by its IEEE-754 bit pattern.
    #[inline]
    pub fn write_f64(&mut self, x: f64) -> &mut Self {
        self.write_u64(x.to_bits())
    }

    /// Hash a byte slice (length-prefixed).
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        self.write_usize(bytes.len());
        for &b in bytes {
            self.write_u8(b);
        }
        self
    }

    /// Hash a string (length-prefixed UTF-8 bytes).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_bytes(s.as_bytes())
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

/// The digest of one completed simulation round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundDigest {
    /// The round that was executed (digest taken after it completed).
    pub round: u64,
    /// Stable fingerprint of the full network state at that point.
    pub value: u64,
}

/// Reproduction record for a digest stream: replaying a run with the same
/// seed, config and crate version must yield byte-identical digests.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunManifest {
    /// Master seed the network was created with.
    pub master_seed: u64,
    /// Human-readable description of the run configuration (population,
    /// protocol parameters, schedule — whatever the caller deems defining).
    pub config: String,
    /// `simnet` crate version that produced the digests.
    pub crate_version: String,
}

impl RunManifest {
    /// Build a manifest for `master_seed` with a caller-supplied config
    /// string; the crate version is filled in automatically.
    pub fn new(master_seed: u64, config: impl Into<String>) -> Self {
        Self {
            master_seed,
            config: config.into(),
            crate_version: env!("CARGO_PKG_VERSION").to_string(),
        }
    }

    /// Stable fingerprint of the manifest itself.
    pub fn digest(&self) -> u64 {
        let mut d = Digest::new();
        d.write_u64(self.master_seed).write_str(&self.config).write_str(&self.crate_version);
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_fnv_vectors() {
        // FNV-1a("") = offset basis; FNV-1a("a") per the reference spec.
        assert_eq!(Digest::new().finish(), 0xcbf29ce484222325);
        let mut d = Digest::new();
        d.write_u8(b'a');
        assert_eq!(d.finish(), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn field_order_matters() {
        let mut a = Digest::new();
        a.write_u64(1).write_u64(2);
        let mut b = Digest::new();
        b.write_u64(2).write_u64(1);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn length_prefix_prevents_aliasing() {
        // ("ab", "c") and ("a", "bc") must hash differently.
        let mut a = Digest::new();
        a.write_str("ab").write_str("c");
        let mut b = Digest::new();
        b.write_str("a").write_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn usize_hashes_like_u64() {
        let mut a = Digest::new();
        a.write_usize(77);
        let mut b = Digest::new();
        b.write_u64(77);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn manifest_digest_covers_all_fields() {
        let m = RunManifest::new(1, "n=8");
        let mut seed = m.clone();
        seed.master_seed = 2;
        let mut cfg = m.clone();
        cfg.config = "n=9".into();
        let mut ver = m.clone();
        ver.crate_version = "999.0.0".into();
        assert_ne!(m.digest(), seed.digest());
        assert_ne!(m.digest(), cfg.digest());
        assert_ne!(m.digest(), ver.digest());
    }

    #[test]
    fn manifest_new_records_crate_version() {
        let m = RunManifest::new(0, "");
        assert_eq!(m.crate_version, env!("CARGO_PKG_VERSION"));
    }
}
