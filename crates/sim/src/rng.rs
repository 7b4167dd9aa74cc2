//! Small deterministic PRNG for noise models and randomized tests.
//!
//! The workspace builds without network access, so it cannot pull in the
//! `rand` crate; this module provides the two things the models and the
//! property tests actually need — a fast, well-distributed 64-bit
//! generator and a gaussian sampler — with fully reproducible streams.
//!
//! The generator is SplitMix64 (Steele, Lea & Flood, *Fast Splittable
//! Pseudorandom Number Generators*, OOPSLA 2014): a single 64-bit state
//! advanced by a Weyl sequence and finalized with an avalanching mix. It
//! passes BigCrush when used as here and is the standard seeder for the
//! xoshiro family; its statistical quality is far beyond what a noise
//! model or a randomized test needs.

/// A deterministic 64-bit PRNG (SplitMix64).
///
/// ```
/// use pels_sim::rng::Rng;
/// let mut a = Rng::seed_from_u64(7);
/// let mut b = Rng::seed_from_u64(7);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a 64-bit seed. Equal seeds produce equal
    /// streams.
    pub fn seed_from_u64(seed: u64) -> Self {
        Rng { state: seed }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Next 32-bit value.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be non-zero");
        // Lemire's multiply-shift rejection method: unbiased and cheap.
        let mut m = u128::from(self.next_u64()) * u128::from(bound);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound; // 2^64 mod bound
            while lo < threshold {
                m = u128::from(self.next_u64()) * u128::from(bound);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(span + 1)
    }

    /// Uniform `usize` in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        self.next_below(bound as u64) as usize
    }

    /// Uniform boolean.
    pub fn bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Boolean that is `true` with probability `num / denom`.
    ///
    /// # Panics
    ///
    /// Panics if `denom` is zero.
    pub fn ratio(&mut self, num: u64, denom: u64) -> bool {
        self.next_below(denom) < num
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard-normal sample via the Box-Muller transform.
    pub fn gaussian(&mut self) -> f64 {
        // Avoid ln(0): map [0,1) to (0,1].
        let u1 = 1.0 - self.f64();
        let u2 = self.f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_reproducible() {
        let mut a = Rng::seed_from_u64(42);
        let mut b = Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seed_from_u64(1);
        let mut b = Rng::seed_from_u64(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn next_below_respects_bound() {
        let mut r = Rng::seed_from_u64(3);
        for _ in 0..1000 {
            assert!(r.next_below(7) < 7);
        }
        assert_eq!(r.next_below(1), 0);
    }

    #[test]
    fn range_is_inclusive() {
        let mut r = Rng::seed_from_u64(4);
        let mut seen_lo = false;
        let mut seen_hi = false;
        for _ in 0..2000 {
            let v = r.range_u64(5, 8);
            assert!((5..=8).contains(&v));
            seen_lo |= v == 5;
            seen_hi |= v == 8;
        }
        assert!(seen_lo && seen_hi, "range endpoints should both occur");
    }

    #[test]
    fn f64_is_unit_interval() {
        let mut r = Rng::seed_from_u64(5);
        for _ in 0..1000 {
            let v = r.f64();
            assert!((0.0..1.0).contains(&v));
        }
    }

    #[test]
    fn gaussian_is_roughly_standard() {
        let mut r = Rng::seed_from_u64(6);
        let n = 10_000;
        let samples: Vec<f64> = (0..n).map(|_| r.gaussian()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn bool_and_ratio_hit_both_sides() {
        let mut r = Rng::seed_from_u64(7);
        let trues = (0..1000).filter(|_| r.bool()).count();
        assert!((400..600).contains(&trues));
        let hits = (0..1000).filter(|_| r.ratio(1, 10)).count();
        assert!((50..200).contains(&hits));
    }
}
