//! A wide reader of the ChaCha8 keystream: eight blocks per refill.
//!
//! [`ChaCha8Wide`] emits, for the same key, exactly the words
//! [`ChaCha8Rng`](crate::ChaCha8Rng) emits — the keystream is a pure
//! function of key and block counter — but produces them eight blocks at a
//! time in a layout the compiler vectorises. It is for short-lived,
//! draw-heavy streams built on the stack (Algorithm 1's per-node pops make
//! millions of draws per call); it carries a 512-byte buffer, so anything
//! stored per node or checkpointed stays a `ChaCha8Rng`.
//!
//! The loop shape is the point, and it is fragile: each state row of all
//! eight blocks is one `[u32; 32]` (`row[w * LANES + lane]`), a
//! quarter-round is one plain loop over those 32 positions with all eight
//! steps in its body, and the diagonal round is the column round between
//! whole-row rotations. That is
//! the form rustc turns into SSE2 vector code at the default x86-64 target,
//! and into AVX2 code when the same body is compiled inside the
//! `#[target_feature(enable = "avx2")]` wrapper that `refill` dispatches to
//! on a CPU that has it; see DESIGN.md, "Hermetic dependency shims", for
//! what was measured and for the shapes that do *not* vectorise. `exp P1`
//! prints ns per `u64` for both readers and which refill ran, so a
//! toolchain that stops vectorising this shows up in `BENCH_ALG1.json`.

use crate::{BLOCK_WORDS, ROUNDS, SIGMA};
use rand::{RngCore, SeedableRng};

/// Blocks generated per refill.
const LANES: usize = 8;
/// One state row (four words) of every lane: `row[w * LANES + lane]`.
const ROW: usize = 4 * LANES;
/// 64-bit draws per refill.
const DRAWS: usize = LANES * BLOCK_WORDS / 2;

type Row = [u32; ROW];

/// An eight-block reader of the ChaCha8 keystream (see the module docs).
#[derive(Clone, Debug)]
pub struct ChaCha8Wide {
    /// Key words (state words 4..12).
    key: [u32; 8],
    /// Counter of the first block of the next refill.
    counter: u64,
    /// The current eight blocks in stream order, two words per entry.
    buf: [u64; DRAWS],
    /// Next unread 64-bit draw of `buf` in stream order (`DRAWS` =
    /// exhausted, which is also the state before the lazy first refill).
    pos: usize,
    /// Spare half-word for `next_u32` extraction from a 64-bit draw.
    spare: Option<u32>,
}

/// A quarter-round at every position of the four rows at once: one call
/// is a whole column round of all eight blocks. It must stay one loop —
/// split into a loop per step, the rotates come out scalar.
#[inline(always)]
fn quarter_rows(a: &mut Row, b: &mut Row, c: &mut Row, d: &mut Row) {
    for i in 0..ROW {
        a[i] = a[i].wrapping_add(b[i]);
        d[i] = (d[i] ^ a[i]).rotate_left(16);
        c[i] = c[i].wrapping_add(d[i]);
        b[i] = (b[i] ^ c[i]).rotate_left(12);
        a[i] = a[i].wrapping_add(b[i]);
        d[i] = (d[i] ^ a[i]).rotate_left(8);
        c[i] = c[i].wrapping_add(d[i]);
        b[i] = (b[i] ^ c[i]).rotate_left(7);
    }
}

impl ChaCha8Wide {
    /// The next eight blocks into `buf`. One body, two code generations:
    /// where the CPU has AVX2 the body runs inside a wrapper compiled for
    /// it (rows in `ymm` registers, the 16- and 8-bit rotates one
    /// `vpshufb` each), everywhere else at the build's baseline. The CPU
    /// is asked at run time, so the build has no flag, and every machine
    /// gets the same words.
    fn refill(&mut self) {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            // SAFETY: `refill_avx2` only enables AVX2, and
            // `is_x86_feature_detected!("avx2")` just found it on this CPU.
            return unsafe { self.refill_avx2() };
        }
        self.refill_body();
    }

    /// Which code generation [`Self::refill`] runs on this CPU: `"avx2"`
    /// or `"portable"`.
    pub fn refill_isa() -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if std::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
        "portable"
    }

    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn refill_avx2(&mut self) {
        self.refill_body();
    }

    /// The refill itself. It is inlined into `refill` and `refill_avx2`,
    /// so each compiles it for its own instruction set.
    #[inline(always)]
    fn refill_body(&mut self) {
        let mut a: Row = [0; ROW];
        let mut b: Row = [0; ROW];
        let mut c: Row = [0; ROW];
        let mut d: Row = [0; ROW];
        for w in 0..4 {
            for lane in 0..LANES {
                a[w * LANES + lane] = SIGMA[w];
                b[w * LANES + lane] = self.key[w];
                c[w * LANES + lane] = self.key[4 + w];
            }
        }
        // Words 12, 13: the lane's block counter. Words 14, 15: the nonce,
        // zero for every seeded stream.
        for lane in 0..LANES {
            let counter = self.counter.wrapping_add(lane as u64);
            d[lane] = counter as u32;
            d[LANES + lane] = (counter >> 32) as u32;
        }
        let (a0, b0, c0, d0) = (a, b, c, d);
        for _ in 0..ROUNDS / 2 {
            quarter_rows(&mut a, &mut b, &mut c, &mut d);
            // Diagonals: column w of row a meets w+1 of b, w+2 of c, w+3 of d.
            b.rotate_left(LANES);
            c.rotate_left(2 * LANES);
            d.rotate_left(3 * LANES);
            quarter_rows(&mut a, &mut b, &mut c, &mut d);
            b.rotate_right(LANES);
            c.rotate_right(2 * LANES);
            d.rotate_right(3 * LANES);
        }
        for i in 0..ROW {
            a[i] = a[i].wrapping_add(a0[i]);
            b[i] = b[i].wrapping_add(b0[i]);
            c[i] = c[i].wrapping_add(c0[i]);
            d[i] = d[i].wrapping_add(d0[i]);
        }
        // To stream order: block `lane` is words 0..4 of a, b, c, d in turn,
        // read two words (one little-endian u64) at a time.
        let rows = [a, b, c, d];
        for lane in 0..LANES {
            for (r, row) in rows.iter().enumerate() {
                for half in 0..2 {
                    let lo = row[2 * half * LANES + lane] as u64;
                    let hi = row[(2 * half + 1) * LANES + lane] as u64;
                    self.buf[lane * BLOCK_WORDS / 2 + 2 * r + half] = hi << 32 | lo;
                }
            }
        }
        self.pos = 0;
        self.counter = self.counter.wrapping_add(LANES as u64);
    }

    /// Continue from the start of block `block` (tests reach the counter's
    /// carry this way; 2^32 blocks cannot be drawn).
    #[cfg(test)]
    pub(crate) fn skip_to_block(&mut self, block: u64) {
        self.counter = block;
        self.pos = DRAWS;
    }

    /// Refill through the portable body whatever the CPU has, so tests can
    /// hold the dispatched body against it.
    #[cfg(test)]
    pub(crate) fn refill_portable(&mut self) {
        self.refill_body();
    }
}

impl SeedableRng for ChaCha8Wide {
    type Seed = [u8; 32];

    /// Unlike `ChaCha8Rng::from_seed` this generates nothing: the first
    /// draw pays for the first refill, so an unused stream is free.
    fn from_seed(seed: Self::Seed) -> Self {
        Self { key: crate::key_words(&seed), counter: 0, buf: [0; DRAWS], pos: DRAWS, spare: None }
    }
}

impl RngCore for ChaCha8Wide {
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
        if self.pos >= DRAWS {
            self.refill();
        }
        let x = self.buf[self.pos];
        self.pos += 1;
        x
    }
}
