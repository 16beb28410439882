//! Measurement statistics.
//!
//! The microbenchmark framework reports means (latency per load, bytes per
//! second) and needs cheap online accumulation plus latency histograms for
//! diagnosing multi-modal behaviour (e.g. the HitME-hit vs HitME-miss split
//! in the paper's Figure 7).

use serde::{Deserialize, Serialize};
use std::fmt;

/// Welford online mean / variance / extrema accumulator.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance.
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample seen (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample seen (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        let m2 =
            self.m2 + other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for OnlineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} max={:.3}",
            self.n,
            self.mean(),
            self.stddev(),
            self.min().unwrap_or(f64::NAN),
            self.max().unwrap_or(f64::NAN)
        )
    }
}

/// A fixed-range linear-binned histogram with saturating under/overflow bins.
///
/// Used for nanosecond latency distributions: `Histogram::latency_ns()`
/// covers 0–400 ns in 1 ns bins, which spans every access class the paper
/// reports (1.6 ns L1 hit up to the 236 ns three-node COD worst case).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
    stats: OnlineStats,
}

impl Histogram {
    /// A histogram over `[lo, hi)` with `bins` equal-width bins.
    ///
    /// Panics if `hi <= lo` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(hi > lo && bins > 0, "degenerate histogram range");
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
            stats: OnlineStats::new(),
        }
    }

    /// Preset suitable for nanosecond-scale memory latencies.
    pub fn latency_ns() -> Self {
        Histogram::new(0.0, 400.0, 400)
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.stats.record(x);
        if x < self.lo {
            self.underflow += 1;
        } else if x >= self.hi {
            self.overflow += 1;
        } else {
            let n = self.bins.len();
            let w = (self.hi - self.lo) / n as f64;
            let idx = (((x - self.lo) / w) as usize).min(n - 1);
            self.bins[idx] += 1;
        }
    }

    /// Samples recorded, including under/overflow.
    pub fn count(&self) -> u64 {
        self.stats.count()
    }

    /// Summary statistics across all recorded samples.
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }

    /// Approximate quantile from the binned data (`q` in the unit interval).
    /// Returns `None` when empty. Under/overflow samples clamp to the range.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil() as u64;
        let mut cum = self.underflow;
        if cum >= target {
            return Some(self.lo);
        }
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        for (i, &c) in self.bins.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(self.lo + (i as f64 + 0.5) * w);
            }
        }
        Some(self.hi)
    }

    /// Count of samples in the largest bin, and that bin's center — the mode.
    pub fn mode(&self) -> Option<(f64, u64)> {
        let (i, &c) = self
            .bins
            .iter()
            .enumerate()
            .max_by_key(|&(_, &c)| c)?;
        if c == 0 {
            return None;
        }
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        Some((self.lo + (i as f64 + 0.5) * w, c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_mean_and_variance() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 4.0).abs() < 1e-9);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..37] {
            a.record(x);
        }
        for &x in &xs[37..] {
            b.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn histogram_bins_and_quantiles() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        for i in 0..10 {
            h.record(i as f64 + 0.5);
        }
        assert_eq!(h.count(), 10);
        let med = h.quantile(0.5).unwrap();
        assert!((3.0..=6.0).contains(&med), "median {med}");
    }

    #[test]
    fn histogram_overflow_underflow() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.record(-5.0);
        h.record(15.0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.0), Some(0.0));
    }

    #[test]
    fn histogram_mode_finds_peak() {
        let mut h = Histogram::new(0.0, 100.0, 100);
        for _ in 0..10 {
            h.record(21.2);
        }
        h.record(96.4);
        let (center, count) = h.mode().unwrap();
        assert_eq!(count, 10);
        assert!((center - 21.5).abs() < 1.0);
    }

    #[test]
    fn empty_histogram_has_no_mode_or_quantile() {
        let h = Histogram::latency_ns();
        assert!(h.mode().is_none());
        assert!(h.quantile(0.5).is_none());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Merged accumulators agree with a single sequential pass.
        #[test]
        fn merge_equivalence(
            xs in proptest::collection::vec(-1e6f64..1e6, 1..200),
            split in 0usize..200,
        ) {
            let split = split.min(xs.len());
            let mut whole = OnlineStats::new();
            for &x in &xs { whole.record(x); }
            let mut a = OnlineStats::new();
            let mut b = OnlineStats::new();
            for &x in &xs[..split] { a.record(x); }
            for &x in &xs[split..] { b.record(x); }
            a.merge(&b);
            prop_assert_eq!(a.count(), whole.count());
            prop_assert!((a.mean() - whole.mean()).abs() < 1e-6 * (1.0 + whole.mean().abs()));
        }

        /// Histogram never loses samples and quantiles are monotone.
        #[test]
        fn histogram_conservation(xs in proptest::collection::vec(-10f64..500.0, 1..300)) {
            let mut h = Histogram::latency_ns();
            for &x in &xs { h.record(x); }
            prop_assert_eq!(h.count(), xs.len() as u64);
            let q25 = h.quantile(0.25).unwrap();
            let q75 = h.quantile(0.75).unwrap();
            prop_assert!(q25 <= q75);
        }
    }
}
