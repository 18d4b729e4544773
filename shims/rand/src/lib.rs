//! Hermetic shim for the subset of `rand` used by this workspace.
//!
//! The build environment has no network access, so the real crates.io
//! `rand` cannot be fetched. This crate implements the handful of traits
//! and adaptors the workspace relies on — [`RngCore`], [`SeedableRng`],
//! the [`RngExt`] sampling extension, and the [`seq`] slice helpers —
//! with deterministic, unbiased algorithms. It is **not** a drop-in
//! replacement for all of `rand`; extend it deliberately when new call
//! sites appear (see DESIGN.md, "Hermetic dependency shims").
//!
//! Determinism matters more than stream compatibility here: the golden
//! digests and every seeded test in the workspace are pinned to *this*
//! implementation, not to upstream `rand`'s value streams.

pub mod seq;

/// The core of a random number generator: a source of uniform bits.
pub trait RngCore {
    /// Next 32 uniform bits.
    fn next_u32(&mut self) -> u32;
    /// Next 64 uniform bits.
    fn next_u64(&mut self) -> u64;
    /// Fill `dest` with uniform bytes.
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        let mut chunks = dest.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rem = chunks.into_remainder();
        if !rem.is_empty() {
            let bytes = self.next_u64().to_le_bytes();
            rem.copy_from_slice(&bytes[..rem.len()]);
        }
    }
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator that can be instantiated from a fixed seed.
pub trait SeedableRng: Sized {
    /// The raw seed type (a byte array).
    type Seed: Sized + Default + AsMut<[u8]>;

    /// Build the generator from a full seed.
    fn from_seed(seed: Self::Seed) -> Self;

    /// Build the generator from a `u64`, expanded to a full seed with
    /// SplitMix64 so that nearby integers give unrelated streams.
    fn seed_from_u64(state: u64) -> Self {
        let mut seed = Self::Seed::default();
        let mut x = state;
        for chunk in seed.as_mut().chunks_mut(8) {
            x = splitmix64(x);
            let bytes = x.to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// SplitMix64 finalizer (public domain constants).
#[inline]
pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Marker trait mirroring `rand::Rng`; all sampling methods live on
/// [`RngExt`] so that importing both never causes method ambiguity.
pub trait Rng: RngCore {}
impl<T: RngCore + ?Sized> Rng for T {}

/// Types samplable uniformly from an RNG's bit stream (the shim analogue
/// of sampling from `rand`'s `StandardUniform` distribution).
pub trait Random: Sized {
    /// Draw one uniform value.
    fn random_from<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! impl_random_int {
    ($($t:ty => $via:ident),* $(,)?) => {$(
        impl Random for $t {
            #[inline]
            fn random_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.$via() as $t
            }
        }
    )*};
}
impl_random_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32,
                 u64 => next_u64, usize => next_u64,
                 i8 => next_u32, i16 => next_u32, i32 => next_u32,
                 i64 => next_u64, isize => next_u64);

impl Random for u128 {
    /// Two 64-bit draws, the low half first.
    #[inline]
    fn random_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        let lo = rng.next_u64() as u128;
        lo | (rng.next_u64() as u128) << 64
    }
}

impl Random for bool {
    #[inline]
    fn random_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u32() & 1 == 1
    }
}

impl Random for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn random_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Random for f32 {
    /// Uniform in `[0, 1)` with 24 bits of precision.
    #[inline]
    fn random_from<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

/// Integer types supporting unbiased uniform range sampling.
pub trait SampleUniform: Sized {
    /// Uniform draw from `[low, high)`. Panics if the range is empty.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
    /// Uniform draw from `[low, high]`.
    fn sample_range_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self;
}

/// Unbiased uniform draw from `[0, span)` via power-of-two masking and
/// rejection (expected < 2 draws).
#[inline]
fn uniform_below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    if span.is_power_of_two() {
        return rng.next_u64() & (span - 1);
    }
    // All ones up to the top bit of `span` (`next_power_of_two() - 1`, but
    // defined above 2^63, where that overflows).
    let mask = u64::MAX >> span.leading_zeros();
    loop {
        let x = rng.next_u64() & mask;
        if x < span {
            return x;
        }
    }
}

macro_rules! impl_sample_uniform_uint {
    ($($t:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "cannot sample from empty range");
                low + uniform_below(rng, (high - low) as u64) as $t
            }
            #[inline]
            fn sample_range_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low <= high, "cannot sample from empty range");
                let span = (high - low) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                low + uniform_below(rng, span + 1) as $t
            }
        }
    )*};
}
impl_sample_uniform_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_sample_uniform_int {
    ($($t:ty),* $(,)?) => {$(
        impl SampleUniform for $t {
            #[inline]
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low < high, "cannot sample from empty range");
                let span = (high as i64).wrapping_sub(low as i64) as u64;
                (low as i64).wrapping_add(uniform_below(rng, span) as i64) as $t
            }
            #[inline]
            fn sample_range_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
                assert!(low <= high, "cannot sample from empty range");
                let span = (high as i64).wrapping_sub(low as i64) as u64;
                if span == u64::MAX {
                    return rng.next_u64() as $t;
                }
                (low as i64).wrapping_add(uniform_below(rng, span + 1) as i64) as $t
            }
        }
    )*};
}
impl_sample_uniform_int!(i8, i16, i32, i64, isize);

impl SampleUniform for f64 {
    #[inline]
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        assert!(low < high, "cannot sample from empty range");
        let scale = high - low;
        assert!(scale.is_finite(), "range {low}..{high} is wider than f64::MAX");
        // The largest unit draw can round up to exactly `high` (for
        // 1.0..2.0, say); redraw then, which happens with probability
        // 2^-53 per draw.
        loop {
            let x = low + f64::random_from(rng) * scale;
            if x < high {
                return x;
            }
        }
    }
    #[inline]
    fn sample_range_inclusive<R: RngCore + ?Sized>(rng: &mut R, low: Self, high: Self) -> Self {
        Self::sample_range(rng, low, high)
    }
}

/// Range arguments accepted by [`RngExt::random_range`].
pub trait SampleRange<T> {
    /// Draw one value from the range.
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

impl<T: SampleUniform> SampleRange<T> for std::ops::Range<T> {
    #[inline]
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range(rng, self.start, self.end)
    }
}

impl<T: SampleUniform + Copy> SampleRange<T> for std::ops::RangeInclusive<T> {
    #[inline]
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
        T::sample_range_inclusive(rng, *self.start(), *self.end())
    }
}

/// Sampling conveniences on any [`RngCore`] (mirrors `rand`'s extension
/// trait: `random`, `random_range`, `random_bool`, `random_ratio`).
pub trait RngExt: RngCore {
    /// A uniform value of type `T`.
    #[inline]
    fn random<T: Random>(&mut self) -> T {
        T::random_from(self)
    }

    /// A uniform value from `range`.
    #[inline]
    fn random_range<T, Rg: SampleRange<T>>(&mut self, range: Rg) -> T {
        range.sample(self)
    }

    /// `true` with probability `p` (must be in `[0, 1]`).
    #[inline]
    fn random_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability out of [0, 1]: {p}");
        f64::random_from(self) < p
    }

    /// `true` with probability `numerator / denominator`.
    #[inline]
    fn random_ratio(&mut self, numerator: u32, denominator: u32) -> bool {
        assert!(denominator > 0 && numerator <= denominator);
        uniform_below(self, denominator as u64) < numerator as u64
    }
}
impl<T: RngCore + ?Sized> RngExt for T {}

#[cfg(test)]
mod tests {
    use super::*;

    struct Counter(u64);
    impl RngCore for Counter {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = splitmix64(self.0);
            self.0
        }
    }

    #[test]
    fn range_sampling_stays_in_bounds() {
        let mut rng = Counter(7);
        for _ in 0..2000 {
            let x: usize = rng.random_range(3..17);
            assert!((3..17).contains(&x));
            let y: u64 = rng.random_range(0..1);
            assert_eq!(y, 0);
            let z: i64 = rng.random_range(-5..5);
            assert!((-5..5).contains(&z));
            let f: f64 = rng.random_range(2.0..3.0);
            assert!((2.0..3.0).contains(&f));
        }
    }

    #[test]
    fn spans_above_two_to_the_63_are_sampled_not_overflowed() {
        let mut rng = Counter(11);
        let span = (1u64 << 63) + 1;
        let mut top_half = 0;
        for _ in 0..200 {
            let x: u64 = rng.random_range(0..span);
            assert!(x < span);
            top_half += u32::from(x >= 1 << 62);
        }
        assert!((60..140).contains(&top_half), "{top_half}/200 draws in the upper half");
        let _: u64 = rng.random_range(0..=u64::MAX - 1);
    }

    #[test]
    fn range_sampling_is_roughly_uniform() {
        let mut rng = Counter(1);
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            counts[rng.random_range(0..10usize)] += 1;
        }
        for &c in &counts {
            assert!((700..1300).contains(&c), "bucket count {c} far from 1000");
        }
    }

    #[test]
    fn unit_float_in_half_open_interval() {
        let mut rng = Counter(3);
        for _ in 0..1000 {
            let f: f64 = rng.random();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn bool_probability_extremes() {
        let mut rng = Counter(5);
        assert!(!(0..100).any(|_| rng.random_bool(0.0)));
        assert!((0..100).all(|_| rng.random_bool(1.0)));
    }

    #[test]
    fn u128_draws_fill_the_high_half() {
        let mut rng = Counter(13);
        assert!((0..64).any(|_| rng.random::<u128>() > u64::MAX as u128));
    }

    /// Returns `u64::MAX` (the largest unit float, 1 - 2^-53) once, then
    /// defers to a `Counter`.
    struct MaxFirst(Option<Counter>);
    impl RngCore for MaxFirst {
        fn next_u32(&mut self) -> u32 {
            self.next_u64() as u32
        }
        fn next_u64(&mut self) -> u64 {
            match &mut self.0 {
                None => {
                    self.0 = Some(Counter(17));
                    u64::MAX
                }
                Some(rng) => rng.next_u64(),
            }
        }
    }

    #[test]
    fn float_ranges_never_return_their_upper_bound() {
        let largest = f64::random_from(&mut MaxFirst(None));
        for (low, high) in [(1.0, 2.0), (0.5, 0.75), (10.0, 11.0), (3.0, 7.0)] {
            // The unguarded formula rounds the largest draw up to `high`.
            assert_eq!(low + largest * (high - low), high, "{low}..{high}");
            let x: f64 = MaxFirst(None).random_range(low..high);
            assert!((low..high).contains(&x), "{low}..{high} gave {x}");
        }
    }

    #[test]
    fn fill_bytes_covers_partial_chunks() {
        let mut rng = Counter(9);
        let mut buf = [0u8; 13];
        rng.fill_bytes(&mut buf);
        assert!(buf.iter().any(|&b| b != 0));
    }
}
