//! Offline stand-in for `rand` 0.8: the API surface this repository calls,
//! following the published crate's sampling algorithms (PCG32 seed
//! expansion, widening-multiply integer ranges, 24-bit float mantissas,
//! descending Fisher-Yates). It is a functional replacement, not a
//! certified bit-exact one: the benchmark never compares against numbers
//! produced with the registry crate.

#![forbid(unsafe_code)]

/// Source of raw random words.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }

    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest);
    }
}

/// Generators constructible from a fixed-size seed.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expands a `u64` into a full seed with PCG32, as rand_core 0.6 does.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6_364_136_223_846_793_005;
        const INC: u64 = 11_634_580_027_462_260_723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let word = xorshifted.rotate_right(rot).to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// User-facing sampling methods, blanket-implemented for every [`RngCore`].
pub trait Rng: RngCore {
    fn gen<T>(&mut self) -> T
    where
        distributions::Standard: distributions::Distribution<T>,
    {
        distributions::Distribution::sample(&distributions::Standard, self)
    }

    fn gen_range<T, R>(&mut self, range: R) -> T
    where
        T: distributions::uniform::SampleUniform,
        R: distributions::uniform::SampleRange<T>,
    {
        range.sample_single(self)
    }

    /// Bernoulli draw: compares 64 random bits against `p · 2⁶⁴`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p} is outside [0, 1]");
        if p >= 1.0 {
            return true;
        }
        let threshold = (p * 2.0f64.powi(64)) as u64;
        self.next_u64() < threshold
    }

    fn sample<T, D: distributions::Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod distributions {
    use super::Rng;

    /// A sampling rule producing values of `T`.
    pub trait Distribution<T> {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The "natural" distribution of a type: all bit patterns for integers,
    /// a fair coin for `bool`, `[0, 1)` for floats.
    #[derive(Debug, Clone, Copy)]
    pub struct Standard;

    impl Distribution<u8> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u8 {
            rng.next_u32() as u8
        }
    }

    impl Distribution<u32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u32 {
            rng.next_u32()
        }
    }

    impl Distribution<u64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
            rng.next_u64()
        }
    }

    impl Distribution<usize> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
            rng.next_u64() as usize
        }
    }

    impl Distribution<bool> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            (rng.next_u32() as i32) < 0
        }
    }

    impl Distribution<f32> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    impl Distribution<f64> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    pub mod uniform {
        use super::super::Rng;
        use std::ops::{Range, RangeInclusive};

        /// Types `gen_range` can produce.
        pub trait SampleUniform: Sized {
            fn sample_half_open<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
            fn sample_inclusive<R: Rng + ?Sized>(low: Self, high: Self, rng: &mut R) -> Self;
        }

        /// Range forms `gen_range` accepts.
        pub trait SampleRange<T> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T;
        }

        impl<T: SampleUniform + PartialOrd> SampleRange<T> for Range<T> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
                assert!(self.start < self.end, "gen_range: empty range");
                T::sample_half_open(self.start, self.end, rng)
            }
        }

        impl<T: SampleUniform + PartialOrd> SampleRange<T> for RangeInclusive<T> {
            fn sample_single<R: Rng + ?Sized>(self, rng: &mut R) -> T {
                let (low, high) = self.into_inner();
                assert!(low <= high, "gen_range: empty range");
                T::sample_inclusive(low, high, rng)
            }
        }

        // Integer ranges: draw a word of the "large" type, take the high half
        // of word × span, reject when the low half falls in the biased zone.
        macro_rules! uniform_int {
            ($ty:ty, $unsigned:ty, $large:ty, $wide:ty, $next:ident) => {
                impl SampleUniform for $ty {
                    fn sample_half_open<R: Rng + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                        <$ty>::sample_inclusive(low, high - 1, rng)
                    }

                    fn sample_inclusive<R: Rng + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                        let span = (high.wrapping_sub(low) as $unsigned).wrapping_add(1) as $large;
                        if span == 0 {
                            // The full range of the type.
                            return rng.$next() as $ty;
                        }
                        let zone = (span << span.leading_zeros()).wrapping_sub(1);
                        loop {
                            let word = rng.$next() as $large;
                            let product = (word as $wide) * (span as $wide);
                            let hi = (product >> <$large>::BITS) as $large;
                            let lo = product as $large;
                            if lo <= zone {
                                return low.wrapping_add(hi as $ty);
                            }
                        }
                    }
                }
            };
        }

        uniform_int!(u8, u8, u32, u64, next_u32);
        uniform_int!(u16, u16, u32, u64, next_u32);
        uniform_int!(u32, u32, u32, u64, next_u32);
        uniform_int!(i32, u32, u32, u64, next_u32);
        uniform_int!(u64, u64, u64, u128, next_u64);
        uniform_int!(i64, u64, u64, u128, next_u64);
        uniform_int!(usize, usize, u64, u128, next_u64);

        // Float ranges: a mantissa's worth of bits mapped to [1, 2), then
        // scaled; the half-open form resamples the rare rounding onto `high`.
        macro_rules! uniform_float {
            ($ty:ty, $bits:ty, $next:ident, $discard:expr, $one_bits:expr) => {
                impl SampleUniform for $ty {
                    fn sample_half_open<R: Rng + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                        let scale = high - low;
                        assert!(scale.is_finite(), "gen_range: non-finite range");
                        loop {
                            let value1_2 =
                                <$ty>::from_bits((rng.$next() >> $discard) as $bits | $one_bits);
                            let res = (value1_2 - 1.0) * scale + low;
                            if res < high {
                                return res;
                            }
                        }
                    }

                    fn sample_inclusive<R: Rng + ?Sized>(low: $ty, high: $ty, rng: &mut R) -> $ty {
                        let max_rand = 1.0 - <$ty>::EPSILON;
                        let scale = (high - low) / max_rand;
                        assert!(scale.is_finite(), "gen_range: non-finite range");
                        let value1_2 =
                            <$ty>::from_bits((rng.$next() >> $discard) as $bits | $one_bits);
                        ((value1_2 - 1.0) * scale + low).min(high)
                    }
                }
            };
        }

        uniform_float!(f32, u32, next_u32, 9, 0x3F80_0000);
        uniform_float!(f64, u64, next_u64, 12, 0x3FF0_0000_0000_0000);
    }
}

pub mod seq {
    use super::Rng;

    /// Random operations on slices.
    pub trait SliceRandom {
        type Item;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;
    }

    /// Index below `ubound`, drawn from 32 bits when the bound allows.
    fn gen_index<R: Rng + ?Sized>(rng: &mut R, ubound: usize) -> usize {
        if ubound <= u32::MAX as usize {
            rng.gen_range(0..ubound as u32) as usize
        } else {
            rng.gen_range(0..ubound)
        }
    }

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                self.swap(i, gen_index(rng, i + 1));
            }
        }

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                self.get(gen_index(rng, self.len()))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::distributions::Distribution;
    use super::seq::SliceRandom;
    use super::*;

    /// SplitMix64: a tiny generator good enough to exercise the samplers.
    struct SplitMix(u64);

    impl RngCore for SplitMix {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }

        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for b in dest {
                *b = self.next_u32() as u8;
            }
        }
    }

    #[test]
    fn integer_ranges_stay_in_bounds_and_cover_them() {
        let mut rng = SplitMix(1);
        let mut seen = [false; 6];
        for _ in 0..1000 {
            seen[rng.gen_range(0..6usize)] = true;
            let v: u8 = rng.gen_range(1..255);
            assert!((1..255).contains(&v));
            let w: i32 = rng.gen_range(-3..=3);
            assert!((-3..=3).contains(&w));
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn float_ranges_respect_their_ends() {
        let mut rng = SplitMix(2);
        for _ in 0..1000 {
            let x: f32 = rng.gen_range(f32::EPSILON..1.0);
            assert!((f32::EPSILON..1.0).contains(&x));
            let y: f32 = rng.gen_range(-0.1..=0.1);
            assert!((-0.1..=0.1).contains(&y));
            let z: f32 = distributions::Standard.sample(&mut rng);
            assert!((0.0..1.0).contains(&z));
        }
    }

    #[test]
    fn shuffle_is_a_permutation_and_gen_bool_tracks_p() {
        let mut rng = SplitMix(3);
        let mut v: Vec<usize> = (0..100).collect();
        v.shuffle(&mut rng);
        assert_ne!(v, (0..100).collect::<Vec<_>>());
        v.sort_unstable();
        assert_eq!(v, (0..100).collect::<Vec<_>>());
        let heads = (0..10_000).filter(|_| rng.gen_bool(0.3)).count();
        assert!((2700..3300).contains(&heads), "{heads}");
        assert!(v.choose(&mut rng).is_some());
    }
}
