//! Deterministic PRNG for the simulation.
//!
//! A self-contained PCG-XSH-RR 32 generator keeps every experiment
//! bit-reproducible across platforms and independent of external crates'
//! stream changes (see DESIGN.md §1 "Dependencies").

/// PCG-XSH-RR 32-bit generator with 64-bit state.
#[derive(Debug, Clone)]
pub struct Pcg32 {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

impl Pcg32 {
    /// Seed the generator. Different `seed`s give independent streams;
    /// `stream` selects a sub-stream for the same seed.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Pcg32 {
            state: 0,
            inc: (stream << 1) | 1,
        };
        rng.next_u32();
        rng.state = rng.state.wrapping_add(seed);
        rng.next_u32();
        rng
    }

    /// Seed with the default stream.
    pub fn seed_from(seed: u64) -> Self {
        Pcg32::new(seed, 0xda3e39cb94b95bdb)
    }

    /// Next 32 random bits.
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Debiased modulo: reject draws below `2^64 mod span`. That
        // threshold is below `span`, so a draw of at least `span` is
        // accepted without computing it.
        loop {
            let r = self.next_u64();
            if r >= span || r >= span.wrapping_neg() % span {
                return lo + (r % span);
            }
        }
    }

    /// Uniform integer in `[lo, hi)` as i64. Panics if `lo >= hi`.
    pub fn range_i64(&mut self, lo: i64, hi: i64) -> i64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.range_u64(0, (hi - lo) as u64) as i64
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Approximate standard normal via the Irwin–Hall sum of 12 uniforms
    /// (adequate for the jitter this simulation needs).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let sum: f64 = (0..12).map(|_| self.next_f64()).sum();
        mean + (sum - 6.0) * std_dev
    }

    /// Pick a uniformly random element of a non-empty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose from empty slice");
        &items[self.range_u64(0, items.len() as u64) as usize]
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range_u64(0, (i + 1) as u64) as usize;
            items.swap(i, j);
        }
    }

    /// Fork an independent child stream (for per-component RNGs that must
    /// not perturb each other's sequences).
    pub fn fork(&mut self, salt: u64) -> Pcg32 {
        Pcg32::new(self.next_u64() ^ salt, salt.wrapping_mul(PCG_MULT) | 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = Pcg32::seed_from(42);
        let mut b = Pcg32::seed_from(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Pcg32::seed_from(1);
        let mut b = Pcg32::seed_from(2);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }

    #[test]
    fn unit_interval_bounds() {
        let mut r = Pcg32::seed_from(7);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_respects_bounds_and_covers() {
        let mut r = Pcg32::seed_from(9);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            let v = r.range_i64(5, 15);
            assert!((5..15).contains(&v));
            seen[(v - 5) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in range should appear");
    }

    /// Taking `2^64 mod span` only for a draw below `span` accepts exactly
    /// the draws the loop that takes it on every draw accepts: the same
    /// values from the same stream, small spans and spans past 2^63 alike.
    #[test]
    fn range_u64_equals_threshold_on_every_draw() {
        fn reference(rng: &mut Pcg32, lo: u64, hi: u64) -> u64 {
            let span = hi - lo;
            let threshold = span.wrapping_neg() % span;
            loop {
                let r = rng.next_u64();
                if r >= threshold {
                    return lo + (r % span);
                }
            }
        }
        for span in [1, 3, 10_000, (1 << 63) + 1, u64::MAX] {
            for lo in [0, u64::MAX - span] {
                let mut fast = Pcg32::seed_from(11);
                let mut slow = fast.clone();
                for draw in 0..2_000 {
                    let expected = reference(&mut slow, lo, lo + span);
                    assert_eq!(fast.range_u64(lo, lo + span), expected, "{span} #{draw}");
                }
                assert_eq!(fast.next_u64(), slow.next_u64(), "{span}: streams apart");
            }
        }
    }

    #[test]
    fn normal_has_plausible_moments() {
        let mut r = Pcg32::seed_from(11);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Pcg32::seed_from(3);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn forked_streams_are_independent() {
        let mut parent = Pcg32::seed_from(5);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..64).filter(|_| c1.next_u32() == c2.next_u32()).count();
        assert!(same < 4);
    }
}
