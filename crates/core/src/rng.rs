//! The workspace's one seedable PRNG.
//!
//! SplitMix64 drives everything that must be a pure function of a
//! seed: fault-plan offsets ([`FaultInjector`](crate::FaultInjector)),
//! differential-test program generation, and attestation line
//! sampling. Hand-rolled so `ccrp-core` needs no RNG dependency; the
//! statistical quality is ample for all three.

/// SplitMix64 generator (Steele, Lea & Flood; public-domain constants).
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from `seed`. All values are valid seeds.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `0..bound` (`0` when `bound == 0`).
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            return 0;
        }
        // Multiply-shift reduction; the tiny modulo bias is irrelevant
        // to every caller.
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// Uniform value in `lo..=hi` (returns `lo` when the range is empty).
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            return lo;
        }
        lo + self.below(hi - lo + 1)
    }

    /// True with probability `num / den` (`false` when `den == 0`).
    #[inline]
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        den != 0 && self.below(den) < num
    }

    /// Picks a uniformly random element of `items`, or `None` when empty.
    #[inline]
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            return None;
        }
        items.get(self.below(items.len() as u64) as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_answers_from_seed_zero() {
        let mut rng = SplitMix64::new(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        let mut c = SplitMix64::new(43);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn below_and_range_stay_in_bounds() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..1000 {
            assert!(rng.below(10) < 10);
            let v = rng.range(3, 9);
            assert!((3..=9).contains(&v));
        }
        assert_eq!(rng.below(0), 0);
        assert_eq!(rng.range(5, 2), 5);
    }

    #[test]
    fn pick_covers_all_elements() {
        let mut rng = SplitMix64::new(1);
        let items = [1, 2, 3, 4];
        let mut seen = [false; 4];
        for _ in 0..200 {
            if let Some(&v) = rng.pick(&items) {
                seen[v - 1] = true;
            }
        }
        assert!(seen.iter().all(|&s| s));
        assert!(rng.pick::<u32>(&[]).is_none());
    }
}
