//! Bounded-memory simulated-time telemetry: component counters bucketed
//! into fixed intervals of *simulated* time, with deterministic
//! downsampling when a run outgrows the bucket budget.
//!
//! A [`TelemetrySampler`] holds one series per named channel (e.g.
//! `qpi.bytes`, `dram.busy_ps`). Every sample is stamped with the
//! simulated time it occurred at and lands in bucket
//! `at / bucket_ps`. When a sample would land past `max_buckets`, the
//! bucket width doubles and adjacent pairs merge — repeatedly, until the
//! sample fits. Because buckets stay aligned to simulated time zero and
//! merging is plain addition, the final series is a pure function of the
//! *multiset* of samples: insertion order and thread interleaving cancel
//! out. That property is what lets parallel sweeps demand byte-identical
//! exports. Forking a simulator clones its sampler with the partial
//! series, so the fork continues the series where the original stood.
//!
//! A [`TelemetryHub`] aggregates samplers from many short-lived systems
//! (a campaign sweep constructs thousands): it propagates *ambiently*
//! per thread like [`crate::MetricsRegistry`] — install with
//! [`TelemetryHub::set_ambient`], and every simulator built on that
//! thread records into its own private sampler, folding it into the hub
//! when it drops. [`TelemetrySampler::merge`] is commutative and
//! associative, so parallel sweeps produce the same merged series
//! regardless of completion order.
//!
//! Exports: [`TelemetrySampler::to_csv`] (wide CSV, one column per
//! channel) and [`TelemetrySampler::to_openmetrics`] (OpenMetrics text
//! with simulated-seconds timestamps), both schema-checked in CI by
//! `scripts/validate_telemetry.py`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

use crate::time::SimTime;

/// Version tag for the telemetry export formats (CSV header and
/// OpenMetrics comment).
pub const TELEMETRY_SCHEMA: u32 = 1;

/// Bucketing parameters for a [`TelemetrySampler`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Initial bucket width in simulated picoseconds. Must be nonzero.
    pub bucket_ps: u64,
    /// Memory bound: once a series needs more buckets than this, the
    /// width doubles and pairs merge. Must be at least 2.
    pub max_buckets: usize,
}

impl Default for TelemetryConfig {
    /// 1 µs buckets, 512 of them: a full `fig4` sweep fits without
    /// downsampling, and the worst case is ~100 KiB of counters.
    fn default() -> Self {
        TelemetryConfig { bucket_ps: 1_000_000, max_buckets: 512 }
    }
}

impl TelemetryConfig {
    fn validated(self) -> TelemetryConfig {
        TelemetryConfig {
            bucket_ps: self.bucket_ps.max(1),
            max_buckets: self.max_buckets.max(2),
        }
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct Channel {
    name: String,
    buckets: Vec<u64>,
}

/// One simulated-time series per channel; see the module docs for the
/// determinism argument.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TelemetrySampler {
    base_bucket_ps: u64,
    bucket_ps: u64,
    max_buckets: usize,
    channels: Vec<Channel>,
}

impl TelemetrySampler {
    /// An empty sampler with `cfg` bucketing (silently clamped to sane
    /// minimums).
    pub fn new(cfg: TelemetryConfig) -> Self {
        let cfg = cfg.validated();
        TelemetrySampler {
            base_bucket_ps: cfg.bucket_ps,
            bucket_ps: cfg.bucket_ps,
            max_buckets: cfg.max_buckets,
            channels: Vec::new(),
        }
    }

    /// Current bucket width (≥ the configured width; doubles under
    /// downsampling).
    pub fn bucket_ps(&self) -> u64 {
        self.bucket_ps
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.channels.is_empty()
    }

    /// Channel names in registration order.
    pub fn channel_names(&self) -> Vec<&str> {
        self.channels.iter().map(|c| c.name.as_str()).collect()
    }

    /// Total of every bucket in `channel`, or 0 if it never fired.
    pub fn channel_total(&self, channel: &str) -> u64 {
        self.channels
            .iter()
            .find(|c| c.name == channel)
            .map_or(0, |c| c.buckets.iter().sum())
    }

    /// Number of buckets in the longest series.
    pub fn len(&self) -> usize {
        self.channels.iter().map(|c| c.buckets.len()).max().unwrap_or(0)
    }

    /// Add `value` to `channel`'s bucket at simulated time `at`.
    pub fn record(&mut self, channel: &str, at: SimTime, value: u64) {
        if value == 0 {
            return;
        }
        let idx = self.fit(at.0 / self.bucket_ps);
        let ch = self.channel_mut(channel);
        if ch.buckets.len() <= idx {
            ch.buckets.resize(idx + 1, 0);
        }
        ch.buckets[idx] = ch.buckets[idx].saturating_add(value);
    }

    /// Distribute the busy interval `[start, end)` across `channel`'s
    /// buckets pro-rata in picoseconds; the bucket sums add up to exactly
    /// `end - start`.
    pub fn record_span(&mut self, channel: &str, start: SimTime, end: SimTime) {
        if end.0 <= start.0 {
            return;
        }
        let last = self.fit((end.0 - 1) / self.bucket_ps);
        let width = self.bucket_ps;
        let first = (start.0 / width) as usize;
        let ch = self.channel_mut(channel);
        if ch.buckets.len() <= last {
            ch.buckets.resize(last + 1, 0);
        }
        for idx in first..=last {
            let lo = (idx as u64 * width).max(start.0);
            let hi = ((idx as u64 + 1) * width).min(end.0);
            ch.buckets[idx] = ch.buckets[idx].saturating_add(hi - lo);
        }
    }

    /// Fold `other` into `self` (channel union, bucket-wise sums),
    /// downsampling whichever side is finer first. Commutative and
    /// associative up to channel registration order — which the sorted
    /// exports erase.
    pub fn merge(&mut self, mut other: TelemetrySampler) {
        while self.bucket_ps < other.bucket_ps {
            self.downsample_once();
        }
        while other.bucket_ps < self.bucket_ps {
            other.downsample_once();
        }
        for oc in other.channels {
            let ch = self.channel_mut(&oc.name);
            if ch.buckets.len() < oc.buckets.len() {
                ch.buckets.resize(oc.buckets.len(), 0);
            }
            for (i, v) in oc.buckets.into_iter().enumerate() {
                ch.buckets[i] = ch.buckets[i].saturating_add(v);
            }
        }
        while self.len() > self.max_buckets {
            self.downsample_once();
        }
    }

    fn channel_mut(&mut self, name: &str) -> &mut Channel {
        // Linear scan: only the telemetry-enabled path pays, and a system
        // records into at most a couple dozen channels.
        if let Some(i) = self.channels.iter().position(|c| c.name == name) {
            return &mut self.channels[i];
        }
        self.channels.push(Channel { name: name.to_string(), buckets: Vec::new() });
        self.channels.last_mut().unwrap()
    }

    /// Downsample until bucket index `idx` (at the *current* width on
    /// entry) fits under `max_buckets`; returns the index at the final
    /// width.
    fn fit(&mut self, mut idx: u64) -> usize {
        while idx >= self.max_buckets as u64 {
            idx /= 2;
            self.downsample_once();
        }
        idx as usize
    }

    fn downsample_once(&mut self) {
        self.bucket_ps *= 2;
        for ch in &mut self.channels {
            let n = ch.buckets.len().div_ceil(2);
            for i in 0..n {
                ch.buckets[i] = ch.buckets[2 * i]
                    .saturating_add(ch.buckets.get(2 * i + 1).copied().unwrap_or(0));
            }
            ch.buckets.truncate(n);
        }
    }

    // ------------------------------------------------------------------
    // exports
    // ------------------------------------------------------------------

    /// Wide CSV: a schema comment, then `bucket_start_ps` plus one column
    /// per channel (sorted by name), one row per bucket. Deterministic:
    /// depends only on the recorded sample multiset.
    pub fn to_csv(&self) -> String {
        let mut names: Vec<&Channel> = self.channels.iter().collect();
        names.sort_by(|a, b| a.name.cmp(&b.name));
        let rows = self.len();
        let mut out = format!(
            "# hswx-telemetry v{TELEMETRY_SCHEMA} bucket_ps={}\n",
            self.bucket_ps
        );
        out.push_str("bucket_start_ps");
        for ch in &names {
            let _ = write!(out, ",{}", ch.name);
        }
        out.push('\n');
        for row in 0..rows {
            let _ = write!(out, "{}", row as u64 * self.bucket_ps);
            for ch in &names {
                let _ = write!(out, ",{}", ch.buckets.get(row).copied().unwrap_or(0));
            }
            out.push('\n');
        }
        out
    }

    /// OpenMetrics text: every bucket of every channel as a sample of the
    /// `hswx_telemetry` gauge, timestamped in simulated seconds, plus a
    /// `hswx_telemetry_bucket_ps` gauge and the mandatory `# EOF`.
    pub fn to_openmetrics(&self) -> String {
        let mut names: Vec<&Channel> = self.channels.iter().collect();
        names.sort_by(|a, b| a.name.cmp(&b.name));
        let rows = self.len();
        let mut out = String::new();
        let _ = writeln!(out, "# hswx-telemetry v{TELEMETRY_SCHEMA}");
        out.push_str("# TYPE hswx_telemetry_bucket_ps gauge\n");
        out.push_str("# HELP hswx_telemetry_bucket_ps Simulated-time bucket width in picoseconds.\n");
        let _ = writeln!(out, "hswx_telemetry_bucket_ps {}", self.bucket_ps);
        out.push_str("# TYPE hswx_telemetry gauge\n");
        out.push_str(
            "# HELP hswx_telemetry Per-component counter total inside one simulated-time bucket.\n",
        );
        for ch in &names {
            for row in 0..rows {
                let v = ch.buckets.get(row).copied().unwrap_or(0);
                let _ = writeln!(
                    out,
                    "hswx_telemetry{{channel=\"{}\"}} {v} {}",
                    ch.name,
                    sim_seconds(row as u64 * self.bucket_ps)
                );
            }
        }
        out.push_str("# EOF\n");
        out
    }
}

/// Render simulated picoseconds as an OpenMetrics timestamp in seconds,
/// with trailing zeros trimmed (`2500000` → `0.0000025`).
fn sim_seconds(ps: u64) -> String {
    let secs = ps / 1_000_000_000_000;
    let frac = ps % 1_000_000_000_000;
    if frac == 0 {
        return format!("{secs}");
    }
    let mut s = format!("{secs}.{frac:012}");
    while s.ends_with('0') {
        s.pop();
    }
    s
}

/// Thread-shared aggregation point for per-system samplers (see module
/// docs). Cheap to clone behind an `Arc`; `absorb` takes a short lock.
#[derive(Debug)]
pub struct TelemetryHub {
    cfg: TelemetryConfig,
    merged: Mutex<TelemetrySampler>,
}

impl TelemetryHub {
    /// An empty hub whose samplers use `cfg`.
    pub fn new(cfg: TelemetryConfig) -> Self {
        let cfg = cfg.validated();
        TelemetryHub { cfg, merged: Mutex::new(TelemetrySampler::new(cfg)) }
    }

    /// A fresh private sampler for one system.
    pub fn sampler(&self) -> TelemetrySampler {
        TelemetrySampler::new(self.cfg)
    }

    /// Fold a finished sampler into the merged series.
    pub fn absorb(&self, sampler: TelemetrySampler) {
        if sampler.is_empty() {
            return;
        }
        self.merged.lock().unwrap().merge(sampler);
    }

    /// A copy of everything absorbed so far.
    pub fn collect(&self) -> TelemetrySampler {
        self.merged.lock().unwrap().clone()
    }

    /// Install `hub` as the ambient telemetry hub for the current thread,
    /// returning a guard that restores the previous one when dropped.
    /// Simulators constructed while it is installed sample into it.
    pub fn set_ambient(hub: Arc<TelemetryHub>) -> TelemetryScope {
        let prev = AMBIENT.with(|slot| slot.replace(Some(hub)));
        TelemetryScope { prev }
    }

    /// The ambient hub installed for the current thread, if any.
    pub fn ambient() -> Option<Arc<TelemetryHub>> {
        AMBIENT.with(|slot| slot.borrow().clone())
    }
}

impl Default for TelemetryHub {
    fn default() -> Self {
        Self::new(TelemetryConfig::default())
    }
}

thread_local! {
    static AMBIENT: RefCell<Option<Arc<TelemetryHub>>> = const { RefCell::new(None) };
}

/// Restores the previously ambient hub on drop (RAII for
/// [`TelemetryHub::set_ambient`]).
pub struct TelemetryScope {
    prev: Option<Arc<TelemetryHub>>,
}

impl Drop for TelemetryScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        AMBIENT.with(|slot| *slot.borrow_mut() = prev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: u64) -> SimTime {
        SimTime(v)
    }

    #[test]
    fn record_places_samples_in_aligned_buckets() {
        let mut s = TelemetrySampler::new(TelemetryConfig { bucket_ps: 100, max_buckets: 8 });
        s.record("a", ps(0), 1);
        s.record("a", ps(99), 2);
        s.record("a", ps(100), 5);
        assert_eq!(s.bucket_ps(), 100);
        assert_eq!(s.channel_total("a"), 8);
        let csv = s.to_csv();
        assert!(csv.contains("0,3\n100,5\n"), "csv:\n{csv}");
    }

    #[test]
    fn span_distribution_sums_exactly() {
        let mut s = TelemetrySampler::new(TelemetryConfig { bucket_ps: 100, max_buckets: 16 });
        // 250 ps spanning three buckets: 70 + 100 + 80.
        s.record_span("busy", ps(30), ps(280));
        assert_eq!(s.channel_total("busy"), 250);
        let csv = s.to_csv();
        assert!(csv.contains("0,70\n100,100\n200,80\n"), "csv:\n{csv}");
    }

    #[test]
    fn downsampling_doubles_width_and_merges_pairs() {
        let mut s = TelemetrySampler::new(TelemetryConfig { bucket_ps: 10, max_buckets: 4 });
        for t in 0..8 {
            s.record("x", ps(t * 10), 1);
        }
        // 8 touched buckets under a cap of 4 → width doubled to 20.
        assert_eq!(s.bucket_ps(), 20);
        assert_eq!(s.len(), 4);
        assert_eq!(s.channel_total("x"), 8);
    }

    #[test]
    fn series_is_a_function_of_the_sample_multiset() {
        let cfg = TelemetryConfig { bucket_ps: 10, max_buckets: 4 };
        let samples: Vec<(u64, u64)> = (0..40).map(|i| (i * 7 % 200, i + 1)).collect();
        let mut fwd = TelemetrySampler::new(cfg);
        for &(t, v) in &samples {
            fwd.record("c", ps(t), v);
        }
        let mut rev = TelemetrySampler::new(cfg);
        for &(t, v) in samples.iter().rev() {
            rev.record("c", ps(t), v);
        }
        // Split across two samplers merged in either order.
        let (a, b) = samples.split_at(13);
        let mut left = TelemetrySampler::new(cfg);
        let mut right = TelemetrySampler::new(cfg);
        for &(t, v) in a {
            left.record("c", ps(t), v);
        }
        for &(t, v) in b {
            right.record("c", ps(t), v);
        }
        let mut merged = TelemetrySampler::new(cfg);
        merged.merge(right);
        merged.merge(left);
        assert_eq!(fwd.to_csv(), rev.to_csv());
        assert_eq!(fwd.to_csv(), merged.to_csv());
        assert_eq!(fwd.to_openmetrics(), merged.to_openmetrics());
    }

    #[test]
    fn memory_stays_bounded() {
        let mut s = TelemetrySampler::new(TelemetryConfig { bucket_ps: 1, max_buckets: 16 });
        for t in 0..100_000u64 {
            s.record_span("b", ps(t), ps(t + 1));
        }
        assert!(s.len() <= 16, "len={}", s.len());
        assert_eq!(s.channel_total("b"), 100_000);
    }

    #[test]
    fn openmetrics_shape() {
        let mut s = TelemetrySampler::new(TelemetryConfig::default());
        s.record("qpi.bytes", ps(2_500_000), 64);
        let om = s.to_openmetrics();
        assert!(om.starts_with("# hswx-telemetry v1\n"), "om:\n{om}");
        // The 2.5 µs sample lands in the bucket starting at 2 µs.
        assert!(om.contains("hswx_telemetry{channel=\"qpi.bytes\"} 64 0.000002\n"), "om:\n{om}");
        assert!(om.ends_with("# EOF\n"));
    }

    #[test]
    fn hub_ambient_scoping_and_absorb() {
        assert!(TelemetryHub::ambient().is_none());
        let hub = Arc::new(TelemetryHub::default());
        {
            let _g = TelemetryHub::set_ambient(Arc::clone(&hub));
            let inner = TelemetryHub::ambient().unwrap();
            let mut s = inner.sampler();
            s.record("w", ps(5), 2);
            inner.absorb(s);
        }
        assert!(TelemetryHub::ambient().is_none());
        assert_eq!(hub.collect().channel_total("w"), 2);
    }

    #[test]
    fn sim_seconds_trims() {
        assert_eq!(sim_seconds(0), "0");
        assert_eq!(sim_seconds(1_000_000_000_000), "1");
        assert_eq!(sim_seconds(1_500_000_000_000), "1.5");
        assert_eq!(sim_seconds(1), "0.000000000001");
    }
}
