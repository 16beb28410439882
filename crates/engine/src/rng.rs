//! Deterministic random numbers.
//!
//! Everything stochastic in the simulator (workload address streams, DRAM
//! page-hit draws, proxy-application phase jitter) flows through [`DetRng`],
//! a seeded `SmallRng` wrapper, so that any experiment is reproducible from
//! its config alone. Host entropy is never consulted.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A deterministic, seedable RNG for simulation use.
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: SmallRng,
    seed: u64,
}

impl DetRng {
    /// Create from an explicit seed.
    pub fn new(seed: u64) -> Self {
        DetRng {
            inner: SmallRng::seed_from_u64(seed),
            seed,
        }
    }

    /// Derive an independent child stream; `salt` distinguishes siblings.
    ///
    /// Uses SplitMix64 finalization so nearby salts give uncorrelated seeds.
    pub fn fork(&self, salt: u64) -> DetRng {
        let mut z = self
            .seed
            .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(salt.wrapping_add(1)));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        DetRng::new(z ^ (z >> 31))
    }

    /// Uniform in `[0, n)`. Panics if `n == 0`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.inner.random_range(0..n)
    }

    /// Uniform f64 in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.random_range(0.0..1.0)
    }

    /// Bernoulli draw with probability `p` (clamped to the unit interval).
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() < p.clamp(0.0, 1.0)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }

    /// A random derangement-ish permutation cycle over `0..n`, as used for
    /// pointer-chase buffers: returns `next[i]`, a single cycle visiting all
    /// elements so dependent loads cannot be prefetched by a streamer.
    pub fn chase_cycle(&mut self, n: usize) -> Vec<usize> {
        assert!(n > 0);
        let mut order: Vec<usize> = (0..n).collect();
        self.shuffle(&mut order);
        let mut next = vec![0usize; n];
        for w in 0..n {
            next[order[w]] = order[(w + 1) % n];
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::new(42);
        let mut b = DetRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.below(1_000_000), b.below(1_000_000));
        }
    }

    #[test]
    fn forks_are_independent_of_draws() {
        let parent = DetRng::new(7);
        let mut c1 = parent.fork(0);
        let mut c2 = parent.fork(1);
        // Different salts give different streams.
        let xs: Vec<u64> = (0..16).map(|_| c1.below(u64::MAX)).collect();
        let ys: Vec<u64> = (0..16).map(|_| c2.below(u64::MAX)).collect();
        assert_ne!(xs, ys);
        // Fork result does not depend on parent draw position.
        let mut c1_again = parent.fork(0);
        let xs2: Vec<u64> = (0..16).map(|_| c1_again.below(u64::MAX)).collect();
        assert_eq!(xs, xs2);
    }

    #[test]
    fn chase_cycle_is_single_cycle() {
        let mut rng = DetRng::new(3);
        for n in [1usize, 2, 3, 17, 256] {
            let next = rng.chase_cycle(n);
            let mut seen = vec![false; n];
            let mut at = 0usize;
            for _ in 0..n {
                assert!(!seen[at], "revisited {at} before covering all");
                seen[at] = true;
                at = next[at];
            }
            assert_eq!(at, 0, "cycle must close");
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = DetRng::new(1);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = DetRng::new(9);
        let mut xs: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }
}
