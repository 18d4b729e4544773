//! Hermetic shim for `rand_chacha`: a real ChaCha8 stream cipher used as
//! a deterministic RNG.
//!
//! The keystream follows the ChaCha construction (Bernstein 2008): a
//! 512-bit state of 4 constant words, 8 key words, a 64-bit block counter
//! and 64-bit nonce, mixed by 8 rounds (4 column/diagonal double-rounds).
//! Output words are emitted in state order, little-endian. Two readers
//! share that keystream: [`ChaCha8Rng`] generates exactly one 16-word block
//! at a time and is what is stored and checkpointed; [`ChaCha8Wide`]
//! generates eight blocks per refill for draw-heavy streams that live on
//! the stack.
//!
//! The *values* of this stream are not guaranteed to match crates.io
//! `rand_chacha` (which this shim replaces in an offline build); every
//! seeded expectation in the workspace — including the golden digests of
//! the replay harness — is pinned to this implementation. Changing the
//! keystream is a semantics-breaking change that invalidates all golden
//! files; see DESIGN.md.

pub use rand as rand_core_crate;

/// Re-export point mirroring `rand_chacha::rand_core`.
pub mod rand_core {
    pub use rand::{RngCore, SeedableRng};
}

use rand::{RngCore, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

mod wide;
pub use wide::ChaCha8Wide;

const ROUNDS: usize = 8;
const BLOCK_WORDS: usize = 16;
/// "expand 32-byte k" — the standard ChaCha constants.
const SIGMA: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

static BLOCKS: AtomicU64 = AtomicU64::new(0);

/// ChaCha8 blocks this process has generated so far, by both readers: a
/// [`ChaCha8Rng`] refill is one block (a restore recomputes one too), a
/// [`ChaCha8Wide`] refill eight. One relaxed atomic counter, so the total is
/// exact whatever threads did the drawing: a run that draws the same
/// streams reads the same count at any pool size.
pub fn blocks_generated() -> u64 {
    BLOCKS.load(Relaxed)
}

fn count_blocks(blocks: u64) {
    BLOCKS.fetch_add(blocks, Relaxed);
}

/// The eight little-endian key words of a 32-byte seed.
fn key_words(seed: &[u8; 32]) -> [u32; 8] {
    let mut key = [0u32; 8];
    for (i, chunk) in seed.chunks_exact(4).enumerate() {
        key[i] = u32::from_le_bytes(chunk.try_into().expect("4-byte chunk"));
    }
    key
}

/// A ChaCha8-based deterministic RNG.
#[derive(Clone, Debug)]
pub struct ChaCha8Rng {
    /// Key words (state words 4..12).
    key: [u32; 8],
    /// 64-bit block counter (state words 12..14).
    counter: u64,
    /// Nonce words (state words 14..16); always zero for seeded use.
    nonce: [u32; 2],
    /// Current output block.
    buf: [u32; BLOCK_WORDS],
    /// Next unread word index in `buf` (`BLOCK_WORDS` = exhausted).
    pos: usize,
    /// Spare half-word for `next_u32` extraction from a 64-bit draw.
    spare: Option<u32>,
}

#[inline(always)]
fn quarter_round(state: &mut [u32; BLOCK_WORDS], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

impl ChaCha8Rng {
    fn refill(&mut self) {
        count_blocks(1);
        let mut state: [u32; BLOCK_WORDS] = [
            SIGMA[0],
            SIGMA[1],
            SIGMA[2],
            SIGMA[3],
            self.key[0],
            self.key[1],
            self.key[2],
            self.key[3],
            self.key[4],
            self.key[5],
            self.key[6],
            self.key[7],
            self.counter as u32,
            (self.counter >> 32) as u32,
            self.nonce[0],
            self.nonce[1],
        ];
        let initial = state;
        for _ in 0..ROUNDS / 2 {
            // Column round.
            quarter_round(&mut state, 0, 4, 8, 12);
            quarter_round(&mut state, 1, 5, 9, 13);
            quarter_round(&mut state, 2, 6, 10, 14);
            quarter_round(&mut state, 3, 7, 11, 15);
            // Diagonal round.
            quarter_round(&mut state, 0, 5, 10, 15);
            quarter_round(&mut state, 1, 6, 11, 12);
            quarter_round(&mut state, 2, 7, 8, 13);
            quarter_round(&mut state, 3, 4, 9, 14);
        }
        for (word, init) in state.iter_mut().zip(initial.iter()) {
            *word = word.wrapping_add(*init);
        }
        self.buf = state;
        self.pos = 0;
        self.counter = self.counter.wrapping_add(1);
    }

    #[inline]
    fn next_word(&mut self) -> u32 {
        if self.pos >= BLOCK_WORDS {
            self.refill();
        }
        let w = self.buf[self.pos];
        self.pos += 1;
        w
    }

    /// The 64-bit block counter (diagnostics / tests).
    pub fn get_word_pos(&self) -> u128 {
        (self.counter as u128) * BLOCK_WORDS as u128 + self.pos as u128
    }

    /// Snapshot the full generator state for checkpointing. The returned
    /// value round-trips through [`Self::from_state`]: the restored
    /// generator emits the exact same stream continuation.
    pub fn state(&self) -> ChaChaState {
        ChaChaState {
            key: self.key,
            counter: self.counter,
            nonce: self.nonce,
            pos: self.pos,
            spare: self.spare,
        }
    }

    /// Rebuild a generator from a [`ChaChaState`] snapshot. The current
    /// output block is recomputed from the cipher (it is a pure function of
    /// key, nonce and block counter), so the snapshot stays compact.
    pub fn from_state(s: ChaChaState) -> Self {
        let mut rng = Self {
            key: s.key,
            // `refill` re-increments; `from_seed` refills eagerly so any
            // observable counter is >= 1 and the subtraction cannot wrap
            // below the initial block.
            counter: s.counter.wrapping_sub(1),
            nonce: s.nonce,
            buf: [0; BLOCK_WORDS],
            pos: BLOCK_WORDS,
            spare: None,
        };
        rng.refill();
        rng.pos = s.pos;
        rng.spare = s.spare;
        rng
    }
}

/// Serializable snapshot of a [`ChaCha8Rng`]: everything except the output
/// buffer, which is recomputed on restore.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChaChaState {
    /// Key words (state words 4..12).
    pub key: [u32; 8],
    /// Block counter *after* the current block was generated.
    pub counter: u64,
    /// Nonce words.
    pub nonce: [u32; 2],
    /// Next unread word index in the current block.
    pub pos: usize,
    /// Spare half-word pending from a split 64-bit draw.
    pub spare: Option<u32>,
}

impl SeedableRng for ChaCha8Rng {
    type Seed = [u8; 32];

    fn from_seed(seed: Self::Seed) -> Self {
        let mut rng = Self {
            key: key_words(&seed),
            counter: 0,
            nonce: [0, 0],
            buf: [0; BLOCK_WORDS],
            pos: BLOCK_WORDS,
            spare: None,
        };
        rng.refill();
        rng
    }
}

impl RngCore for ChaCha8Rng {
    #[inline]
    fn next_u32(&mut self) -> u32 {
        if let Some(w) = self.spare.take() {
            return w;
        }
        let x = self.next_u64();
        self.spare = Some((x >> 32) as u32);
        x as u32
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        let lo = self.next_word() as u64;
        let hi = self.next_word() as u64;
        (hi << 32) | lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngExt;

    #[test]
    fn same_seed_same_stream() {
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = ChaCha8Rng::seed_from_u64(1);
        let mut b = ChaCha8Rng::seed_from_u64(2);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn blocks_chain_without_repeating() {
        // Draw past several block boundaries; a counter bug would repeat
        // the first block.
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let first: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        let later: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
        assert_ne!(first, later);
    }

    #[test]
    fn output_looks_balanced() {
        let mut rng = ChaCha8Rng::seed_from_u64(1234);
        let ones: u32 = (0..256).map(|_| rng.next_u64().count_ones()).sum();
        // 256 * 64 = 16384 bits, expect ~8192 ones.
        assert!((7500..8900).contains(&ones), "bit bias: {ones}/16384");
    }

    #[test]
    fn clone_preserves_position() {
        let mut a = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..21 {
            a.next_u32();
        }
        let mut b = a.clone();
        for _ in 0..50 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn works_with_rng_ext() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let x: f64 = rng.random();
        assert!((0.0..1.0).contains(&x));
        let y = rng.random_range(0..10usize);
        assert!(y < 10);
    }

    #[test]
    fn state_round_trips_mid_block() {
        let mut a = ChaCha8Rng::seed_from_u64(77);
        for _ in 0..13 {
            a.next_u32(); // odd count leaves a spare half-word pending
        }
        let snap = a.state();
        let mut b = ChaCha8Rng::from_state(snap);
        assert_eq!(a.get_word_pos(), b.get_word_pos());
        for _ in 0..200 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn state_round_trips_at_block_boundary() {
        let mut a = ChaCha8Rng::seed_from_u64(3);
        for _ in 0..BLOCK_WORDS / 2 {
            a.next_u64(); // exactly exhausts the first block (pos == 16)
        }
        let mut b = ChaCha8Rng::from_state(a.state());
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn fresh_generator_state_round_trips() {
        let a = ChaCha8Rng::seed_from_u64(123);
        let mut b = ChaCha8Rng::from_state(a.state());
        let mut a = a;
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn from_seed_uses_all_key_bytes() {
        let mut s1 = [0u8; 32];
        let mut s2 = [0u8; 32];
        s2[31] = 1; // differ only in the last key byte
        let mut a = ChaCha8Rng::from_seed(s1);
        let mut b = ChaCha8Rng::from_seed(s2);
        assert_ne!(a.next_u64(), b.next_u64());
        s1[0] = 1;
        let mut c = ChaCha8Rng::from_seed(s1);
        let mut d = ChaCha8Rng::seed_from_u64(0);
        let _ = (c.next_u64(), d.next_u64());
    }

    /// First 32 words of `seed_from_u64(0)`, recorded from the one-block
    /// reader at the commit before the wide reader existed, so the two
    /// readers cannot drift together.
    const KAT_SEED0: [u32; 32] = [
        0xe2d58524, 0xf908d135, 0x02849c01, 0xf319dbfa, 0x62175145, 0x9ce9b05b, 0x264fa7bc,
        0x4c628c26, 0x6304470e, 0x81a8112e, 0x2054a5eb, 0x263f4e8c, 0xa12954a1, 0x4e023e6a,
        0xc30246fb, 0x1781f1b6, 0x71073e73, 0x152c0d24, 0xcffd1b6f, 0xff681ca1, 0x1724de3d,
        0x2c4f02e5, 0x5b71e704, 0x73ea1df4, 0x9c25e0f5, 0x2b6d722a, 0x152e3973, 0xb28a2656,
        0xafe1d083, 0x563b8513, 0xe1866c84, 0x53b71e61,
    ];

    #[test]
    fn known_answer_vector_holds_for_both_readers() {
        let mut narrow = ChaCha8Rng::seed_from_u64(0);
        let mut wide = ChaCha8Wide::seed_from_u64(0);
        for (i, &w) in KAT_SEED0.iter().enumerate() {
            assert_eq!(narrow.next_u32(), w, "narrow word {i}");
            assert_eq!(wide.next_u32(), w, "wide word {i}");
        }
    }

    #[test]
    fn narrow_generator_stays_one_block() {
        // `XlNetwork` stores one per node; growing it moves engine RSS.
        assert_eq!(std::mem::size_of::<ChaCha8Rng>(), 128);
    }

    #[test]
    fn wide_reader_matches_narrow_word_for_word() {
        // Stream lengths that end 1, 7, 8, 9, 63, 64 and 65 blocks in (a
        // wide refill is 8 blocks), and spans that never reject (1, powers
        // of two), sometimes reject (3, 4860) and reject about half the
        // time (2^63 + 1).
        const SPANS: [u64; 7] = [1, 2, 3, 1 << 20, 4860, 1 << 63, (1 << 63) + 1];
        let lengths = [1usize, 7, 8, 9, 63, 64, 65].map(|blocks| blocks * BLOCK_WORDS - 5);
        for seed in 0..64u64 {
            let mut narrow = ChaCha8Rng::seed_from_u64(seed);
            let mut wide = ChaCha8Wide::seed_from_u64(seed);
            let words = lengths[seed as usize % lengths.len()];
            let start = narrow.get_word_pos();
            let mut step = seed;
            while narrow.get_word_pos() - start < words as u128 {
                step += 1;
                match step % 3 {
                    0 => assert_eq!(narrow.next_u32(), wide.next_u32(), "seed {seed}"),
                    1 => assert_eq!(narrow.next_u64(), wide.next_u64(), "seed {seed}"),
                    _ => {
                        let span = SPANS[(step / 3) as usize % SPANS.len()];
                        assert_eq!(
                            narrow.random_range(0..span),
                            wide.random_range(0..span),
                            "seed {seed} span {span}"
                        );
                    }
                }
            }
            let mut tail_n = [0u8; 13];
            let mut tail_w = [0u8; 13];
            narrow.fill_bytes(&mut tail_n);
            wide.fill_bytes(&mut tail_w);
            assert_eq!(tail_n, tail_w, "seed {seed}");
        }
    }

    #[test]
    fn wide_reader_carries_the_counter_into_the_high_word() {
        // Blocks 2^32 - 3 .. 2^32 + 5 straddle the low counter word inside
        // one wide refill.
        let seed = [7u8; 32];
        let at = (1u64 << 32) - 3;
        let mut narrow = ChaCha8Rng::from_state(ChaChaState {
            key: key_words(&seed),
            counter: at + 1,
            nonce: [0, 0],
            pos: 0,
            spare: None,
        });
        let mut wide = ChaCha8Wide::from_seed(seed);
        wide.skip_to_block(at);
        for i in 0..3 * 64 {
            assert_eq!(narrow.next_u64(), wide.next_u64(), "draw {i}");
        }
    }

    /// The 64 draws of the next refill of `wide` (which must be exhausted),
    /// once through the dispatched refill and once through the portable body.
    fn dispatched_and_portable(wide: &ChaCha8Wide) -> ([u64; 64], [u64; 64]) {
        let mut dispatched = wide.clone();
        let mut portable = wide.clone();
        portable.refill_portable();
        (
            std::array::from_fn(|_| dispatched.next_u64()),
            std::array::from_fn(|_| portable.next_u64()),
        )
    }

    #[test]
    fn dispatched_refill_matches_the_portable_body() {
        // On an AVX2 host `refill` runs the AVX2 code generation, so this
        // holds the two against each other; elsewhere dispatch must have
        // picked the portable body.
        #[cfg(target_arch = "x86_64")]
        let avx2 = std::is_x86_feature_detected!("avx2");
        #[cfg(not(target_arch = "x86_64"))]
        let avx2 = false;
        assert_eq!(ChaCha8Wide::refill_isa(), if avx2 { "avx2" } else { "portable" });

        let mut cases: Vec<(String, ChaCha8Wide)> = Vec::new();
        for seed in 0..64u64 {
            // The first refill, and one at a later counter.
            let mut later = ChaCha8Wide::seed_from_u64(seed);
            later.skip_to_block(8 * (seed + 1));
            cases.push((format!("seed {seed}"), ChaCha8Wide::seed_from_u64(seed)));
            cases.push((format!("seed {seed} block {}", 8 * (seed + 1)), later));
        }
        let mut carry = ChaCha8Wide::from_seed([7u8; 32]);
        carry.skip_to_block((1u64 << 32) - 3);
        cases.push(("counter carry".into(), carry));
        for (name, wide) in &cases {
            let (dispatched, portable) = dispatched_and_portable(wide);
            assert_eq!(dispatched, portable, "{name}");
        }

        let (dispatched, portable) = dispatched_and_portable(&ChaCha8Wide::seed_from_u64(0));
        for (i, &w) in KAT_SEED0.iter().enumerate() {
            let shift = 32 * (i % 2);
            assert_eq!((dispatched[i / 2] >> shift) as u32, w, "dispatched word {i}");
            assert_eq!((portable[i / 2] >> shift) as u32, w, "portable word {i}");
        }
    }
}
