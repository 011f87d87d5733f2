//! Offline stand-in for the `rand` crate (0.8 API).
//!
//! The container has no registry, so the benchmark package patches `rand`
//! to this std-only implementation of the subset the Helios workspace
//! uses: [`rngs::StdRng`] (xoshiro256++ seeded through splitmix64, not the
//! published ChaCha12 — streams differ from the published crate but are
//! deterministic per seed), the [`Rng`]/[`RngCore`]/[`SeedableRng`]
//! traits, unbiased `gen_range`, and [`seq::SliceRandom`].

/// The raw generator interface.
pub trait RngCore {
    fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    fn next_u64(&mut self) -> u64;

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(8) {
            let raw = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&raw[..chunk.len()]);
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

impl<R: RngCore + ?Sized> RngCore for Box<R> {
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

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generators that can be built from a seed.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expand a `u64` into a full seed with splitmix64.
    fn seed_from_u64(mut state: u64) -> Self {
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(8) {
            let raw = splitmix64(&mut state).to_le_bytes();
            chunk.copy_from_slice(&raw[..chunk.len()]);
        }
        Self::from_seed(seed)
    }

    fn from_rng<R: RngCore>(mut rng: R) -> Result<Self, Error> {
        let mut seed = Self::Seed::default();
        rng.fill_bytes(seed.as_mut());
        Ok(Self::from_seed(seed))
    }

    /// Seed from the clock and a per-process counter (no OS entropy
    /// source is wired up in this stand-in).
    fn from_entropy() -> Self {
        Self::seed_from_u64(entropy_u64())
    }
}

/// Error type of fallible generator operations; never produced here.
#[derive(Debug)]
pub struct Error;

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("random number generator failure")
    }
}

impl std::error::Error for Error {}

fn entropy_u64() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let mut state = nanos
        ^ COUNTER
            .fetch_add(0x9E37_79B9, Ordering::Relaxed)
            .rotate_left(32)
        ^ (std::process::id() as u64) << 17;
    splitmix64(&mut state)
}

pub mod rngs {
    use super::{RngCore, SeedableRng};

    /// The standard seedable generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        type Seed = [u8; 32];

        fn from_seed(seed: [u8; 32]) -> StdRng {
            let mut s = [0u64; 4];
            for (word, chunk) in s.iter_mut().zip(seed.chunks_exact(8)) {
                *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
            }
            if s == [0; 4] {
                // The all-zero state is a fixed point of xoshiro.
                s = [0x9E37_79B9_7F4A_7C15, 1, 2, 3];
            }
            StdRng { s }
        }
    }

    impl RngCore for StdRng {
        #[inline]
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }

    /// A small fast generator; the same algorithm as [`StdRng`] here.
    pub type SmallRng = StdRng;

    /// A per-call generator handle returned by [`crate::thread_rng`].
    #[derive(Debug, Clone)]
    pub struct ThreadRng(pub(crate) StdRng);

    impl RngCore for ThreadRng {
        fn next_u64(&mut self) -> u64 {
            self.0.next_u64()
        }
    }
}

/// A freshly seeded generator. The published crate hands out a handle to
/// one thread-local generator; here every call seeds its own.
pub fn thread_rng() -> rngs::ThreadRng {
    rngs::ThreadRng(SeedableRng::from_entropy())
}

/// One random value from a fresh [`thread_rng`].
pub fn random<T>() -> T
where
    distributions::Standard: distributions::Distribution<T>,
{
    thread_rng().gen()
}

pub mod distributions {
    use super::{Rng, RngCore};

    /// Something that can produce values of `T` from a generator.
    pub trait Distribution<T> {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T;
    }

    /// The default distribution: full range for integers, `[0, 1)` for
    /// floats, a fair coin for `bool`.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Standard;

    macro_rules! standard_int {
        ($($ty:ty),*) => {$(
            impl Distribution<$ty> for Standard {
                #[inline]
                fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> $ty {
                    rng.next_u64() as $ty
                }
            }
        )*};
    }
    standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

    impl Distribution<u128> for Standard {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u128 {
            ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
        }
    }

    impl Distribution<bool> for Standard {
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
            rng.next_u64() >> 63 == 1
        }
    }

    impl Distribution<f64> for Standard {
        /// 53 random bits scaled into `[0, 1)`.
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
            (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
        }
    }

    impl Distribution<f32> for Standard {
        /// 24 random bits scaled into `[0, 1)`.
        #[inline]
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f32 {
            (rng.next_u64() >> 40) as f32 * (1.0 / (1u32 << 24) as f32)
        }
    }

    /// A uniform distribution over a fixed range.
    #[derive(Debug, Clone, Copy)]
    pub struct Uniform<T> {
        low: T,
        high: T,
        inclusive: bool,
    }

    impl<T: uniform::SampleUniform> Uniform<T> {
        /// Uniform over `[low, high)`.
        pub fn new(low: T, high: T) -> Uniform<T> {
            Uniform {
                low,
                high,
                inclusive: false,
            }
        }

        /// Uniform over `[low, high]`.
        pub fn new_inclusive(low: T, high: T) -> Uniform<T> {
            Uniform {
                low,
                high,
                inclusive: true,
            }
        }
    }

    impl<T: uniform::SampleUniform> Distribution<T> for Uniform<T> {
        fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> T {
            T::sample_between(self.low, self.high, self.inclusive, rng)
        }
    }

    pub mod uniform {
        use super::RngCore;
        use std::ops::{Range, RangeInclusive};

        /// Types `gen_range` can sample.
        pub trait SampleUniform: Copy + PartialOrd {
            fn sample_between<R: RngCore + ?Sized>(
                low: Self,
                high: Self,
                inclusive: bool,
                rng: &mut R,
            ) -> Self;
        }

        /// Range syntaxes `gen_range` accepts.
        pub trait SampleRange<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
            fn is_empty(&self) -> bool;
        }

        impl<T: SampleUniform> SampleRange<T> for Range<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
                T::sample_between(self.start, self.end, false, rng)
            }
            fn is_empty(&self) -> bool {
                !(self.start < self.end)
            }
        }

        impl<T: SampleUniform> SampleRange<T> for RangeInclusive<T> {
            fn sample_single<R: RngCore + ?Sized>(self, rng: &mut R) -> T {
                T::sample_between(*self.start(), *self.end(), true, rng)
            }
            fn is_empty(&self) -> bool {
                !(self.start() <= self.end())
            }
        }

        /// Unbiased integer in `[0, n)` by Lemire's multiply-and-reject;
        /// `n == 0` means the full 64-bit range.
        #[inline]
        pub(crate) fn below<R: RngCore + ?Sized>(n: u64, rng: &mut R) -> u64 {
            if n == 0 {
                return rng.next_u64();
            }
            let threshold = n.wrapping_neg() % n;
            loop {
                let wide = (rng.next_u64() as u128) * (n as u128);
                if (wide as u64) >= threshold {
                    return (wide >> 64) as u64;
                }
            }
        }

        macro_rules! uniform_int {
            ($($ty:ty => $unsigned:ty),*) => {$(
                impl SampleUniform for $ty {
                    #[inline]
                    fn sample_between<R: RngCore + ?Sized>(
                        low: $ty,
                        high: $ty,
                        inclusive: bool,
                        rng: &mut R,
                    ) -> $ty {
                        // Span as an unsigned count; an inclusive full
                        // range wraps to 0, which `below` reads as "all".
                        let span = (high.wrapping_sub(low) as $unsigned as u64)
                            .wrapping_add(inclusive as u64);
                        low.wrapping_add(below(span, rng) as $ty)
                    }
                }
            )*};
        }
        uniform_int!(
            u8 => u8, u16 => u16, u32 => u32, u64 => u64, usize => usize,
            i8 => u8, i16 => u16, i32 => u32, i64 => u64, isize => usize
        );

        macro_rules! uniform_float {
            ($($ty:ty, $bits:expr, $shift:expr);*) => {$(
                impl SampleUniform for $ty {
                    #[inline]
                    fn sample_between<R: RngCore + ?Sized>(
                        low: $ty,
                        high: $ty,
                        _inclusive: bool,
                        rng: &mut R,
                    ) -> $ty {
                        let unit = (rng.next_u64() >> $shift) as $ty
                            * (1.0 / (1u64 << $bits) as $ty);
                        let value = low + (high - low) * unit;
                        // Rounding can land exactly on `high`.
                        if value < high { value } else { low }
                    }
                }
            )*};
        }
        uniform_float!(f64, 53, 11; f32, 24, 40);
    }
}

use distributions::uniform::{SampleRange, SampleUniform};
use distributions::{Distribution, Standard};

/// Convenience methods on every generator.
pub trait Rng: RngCore {
    #[inline]
    fn gen<T>(&mut self) -> T
    where
        Standard: Distribution<T>,
    {
        Standard.sample(self)
    }

    /// A value uniform over `range` (`a..b` or `a..=b`); panics when empty.
    #[inline]
    fn gen_range<T: SampleUniform, S: SampleRange<T>>(&mut self, range: S) -> T {
        assert!(!range.is_empty(), "cannot sample empty range");
        range.sample_single(self)
    }

    /// `true` with probability `p`.
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "p={p} is outside range [0.0, 1.0]");
        self.gen::<f64>() < p
    }

    /// `true` with probability `numerator / denominator`.
    fn gen_ratio(&mut self, numerator: u32, denominator: u32) -> bool {
        assert!(denominator > 0 && numerator <= denominator);
        self.gen_range(0..denominator) < numerator
    }

    fn sample<T, D: Distribution<T>>(&mut self, distr: D) -> T {
        distr.sample(self)
    }

    fn fill(&mut self, dest: &mut [u8]) {
        self.fill_bytes(dest)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

pub mod seq {
    use super::distributions::uniform::below;
    use super::Rng;

    /// Random selection and shuffling on slices.
    pub trait SliceRandom {
        type Item;

        /// One element chosen uniformly, `None` when empty.
        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&Self::Item>;

        fn choose_mut<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<&mut Self::Item>;

        /// `amount` distinct elements (all of them when fewer exist), in
        /// random order.
        fn choose_multiple<R: Rng + ?Sized>(
            &self,
            rng: &mut R,
            amount: usize,
        ) -> SliceChooseIter<'_, Self::Item>;

        /// Fisher–Yates shuffle in place.
        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R);
    }

    /// Iterator returned by [`SliceRandom::choose_multiple`].
    pub struct SliceChooseIter<'a, T> {
        slice: &'a [T],
        picks: std::vec::IntoIter<usize>,
    }

    impl<'a, T> Iterator for SliceChooseIter<'a, T> {
        type Item = &'a T;
        fn next(&mut self) -> Option<&'a T> {
            self.picks.next().map(|i| &self.slice[i])
        }
        fn size_hint(&self) -> (usize, Option<usize>) {
            self.picks.size_hint()
        }
    }

    impl<T> ExactSizeIterator for SliceChooseIter<'_, T> {}

    impl<T> SliceRandom for [T] {
        type Item = T;

        fn choose<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<&T> {
            if self.is_empty() {
                None
            } else {
                Some(&self[below(self.len() as u64, rng) as usize])
            }
        }

        fn choose_mut<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Option<&mut T> {
            if self.is_empty() {
                None
            } else {
                let i = below(self.len() as u64, rng) as usize;
                Some(&mut self[i])
            }
        }

        fn choose_multiple<R: Rng + ?Sized>(
            &self,
            rng: &mut R,
            amount: usize,
        ) -> SliceChooseIter<'_, T> {
            let amount = amount.min(self.len());
            // Partial Fisher–Yates over the index set.
            let mut indices: Vec<usize> = (0..self.len()).collect();
            for i in 0..amount {
                let j = i + below((self.len() - i) as u64, rng) as usize;
                indices.swap(i, j);
            }
            indices.truncate(amount);
            SliceChooseIter {
                slice: self,
                picks: indices.into_iter(),
            }
        }

        fn shuffle<R: Rng + ?Sized>(&mut self, rng: &mut R) {
            for i in (1..self.len()).rev() {
                let j = below(i as u64 + 1, rng) as usize;
                self.swap(i, j);
            }
        }
    }
}

pub mod prelude {
    pub use super::distributions::Distribution;
    pub use super::rngs::{SmallRng, StdRng, ThreadRng};
    pub use super::seq::SliceRandom;
    pub use super::{random, thread_rng, Rng, RngCore, SeedableRng};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn the_same_seed_repeats_and_another_seed_differs() {
        let draw = |seed: u64| -> Vec<u64> {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..8).map(|_| rng.gen::<u64>()).collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn gen_range_stays_inside_and_reaches_both_ends() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            seen[rng.gen_range(0usize..5)] = true;
            let x = rng.gen_range(-3i64..=3);
            assert!((-3..=3).contains(&x));
            let f = rng.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
            let u: f32 = rng.gen();
            assert!((0.0..1.0).contains(&u));
        }
        assert_eq!(seen, [true; 5]);
        assert_eq!(rng.gen_range(u64::MAX..=u64::MAX), u64::MAX);
    }

    #[test]
    fn choose_multiple_picks_distinct_elements_and_shuffle_permutes() {
        let mut rng = StdRng::seed_from_u64(3);
        let items: Vec<u32> = (0..20).collect();
        let mut picked: Vec<u32> = items.choose_multiple(&mut rng, 6).copied().collect();
        picked.sort_unstable();
        picked.dedup();
        assert_eq!(picked.len(), 6);
        assert_eq!(items.choose_multiple(&mut rng, 99).count(), 20);
        let mut shuffled = items.clone();
        shuffled.shuffle(&mut rng);
        assert_ne!(shuffled, items);
        shuffled.sort_unstable();
        assert_eq!(shuffled, items);
    }
}
