//! Lock-free metrics registry with ambient per-thread installation.
//!
//! A [`MetricsRegistry`] holds named monotonic counters and log₂-binned
//! histograms backed by [`AtomicU64`]s: registration takes a short lock,
//! but every increment afterwards is a relaxed atomic add, so hot paths
//! can hold on to the returned `Arc` and count without synchronization.
//!
//! Like [`crate::CancelToken`], a registry propagates *ambiently*: a
//! supervisor installs one for the current worker thread with
//! [`MetricsRegistry::set_ambient`] and any simulator constructed on that
//! thread picks it up via [`MetricsRegistry::ambient`]. With no registry
//! installed (the default, and the perf-bench configuration) the
//! simulator pays a single `Option` check per walk.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Number of log₂ bins in an [`AtomicHistogram`].
pub const HISTOGRAM_BINS: usize = 32;

/// A lock-free histogram of `u64` samples, binned by `⌈log₂(v+1)⌉`
/// (bin 0 holds zeros, bin 1 holds {1}, bin 2 holds {2,3}, …).
#[derive(Debug)]
pub struct AtomicHistogram {
    bins: [AtomicU64; HISTOGRAM_BINS],
}

impl AtomicHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        AtomicHistogram { bins: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    /// Which bin `value` lands in.
    pub fn bin_of(value: u64) -> usize {
        ((u64::BITS - value.leading_zeros()) as usize).min(HISTOGRAM_BINS - 1)
    }

    /// Record one sample (relaxed atomic add).
    pub fn record(&self, value: u64) {
        self.bins[Self::bin_of(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Per-bin counts.
    pub fn counts(&self) -> [u64; HISTOGRAM_BINS] {
        std::array::from_fn(|i| self.bins[i].load(Ordering::Relaxed))
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.counts().iter().sum()
    }
}

/// The value a log₂ bin reports for its samples: the inclusive upper
/// edge of the bin's range (bin 0 → 0, bin b → 2ᵇ−1).
pub fn bin_upper_edge(bin: usize) -> u64 {
    if bin == 0 {
        0
    } else {
        (1u64 << bin.min(63)) - 1
    }
}

/// The `q_num/q_den` quantile of a binned distribution, reported as the
/// upper edge of the bin the quantile rank falls in (an upper bound on
/// the true sample, exact to within the log₂ bin width). Returns 0 for
/// an empty histogram.
pub fn bin_percentile(bins: &[u64; HISTOGRAM_BINS], q_num: u64, q_den: u64) -> u64 {
    let count: u64 = bins.iter().sum();
    if count == 0 {
        return 0;
    }
    // Nearest-rank definition: the smallest value with at least
    // ⌈count·q⌉ samples at or below it.
    let rank = count.saturating_mul(q_num).div_ceil(q_den).max(1);
    let mut cum = 0;
    for (i, &b) in bins.iter().enumerate() {
        cum += b;
        if cum >= rank {
            return bin_upper_edge(i);
        }
    }
    bin_upper_edge(HISTOGRAM_BINS - 1)
}

impl Default for AtomicHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Named counters and histograms shared across threads (see module docs).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<Vec<(String, Arc<AtomicU64>)>>,
    histograms: Mutex<Vec<(String, Arc<AtomicHistogram>)>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, registering it (at zero) on first use.
    /// Hold the returned handle for lock-free increments on hot paths.
    pub fn counter(&self, name: &str) -> Arc<AtomicU64> {
        let mut counters = self.counters.lock().unwrap();
        if let Some((_, c)) = counters.iter().find(|(n, _)| n == name) {
            return Arc::clone(c);
        }
        let c = Arc::new(AtomicU64::new(0));
        counters.push((name.to_string(), Arc::clone(&c)));
        c
    }

    /// Add `delta` to counter `name` (registration lock + relaxed add;
    /// fine off the hot path, e.g. in flush-on-drop aggregation).
    pub fn add(&self, name: &str, delta: u64) {
        if delta > 0 {
            self.counter(name).fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> Arc<AtomicHistogram> {
        let mut histograms = self.histograms.lock().unwrap();
        if let Some((_, h)) = histograms.iter().find(|(n, _)| n == name) {
            return Arc::clone(h);
        }
        let h = Arc::new(AtomicHistogram::new());
        histograms.push((name.to_string(), Arc::clone(&h)));
        h
    }

    /// Record one sample into histogram `name`.
    pub fn record(&self, name: &str, value: u64) {
        self.histogram(name).record(value);
    }

    /// All counters, sorted by name. Zero-valued counters are included:
    /// a registered metric that never fired is itself a signal.
    pub fn counters_snapshot(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(n, c)| (n.clone(), c.load(Ordering::Relaxed)))
            .collect();
        out.sort();
        out
    }

    /// All histograms (per-bin counts), sorted by name.
    pub fn histograms_snapshot(&self) -> Vec<(String, [u64; HISTOGRAM_BINS])> {
        let mut out: Vec<(String, [u64; HISTOGRAM_BINS])> = self
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(n, h)| (n.clone(), h.counts()))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Deterministic JSON export: schema 2 — counters, trimmed histogram
    /// bins, and nearest-rank p50/p95/p99 summaries per histogram.
    /// Schema-1 files (bare bin arrays) remain readable via
    /// [`parse_export`].
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\": 2, \"counters\": {");
        for (i, (name, v)) in self.counters_snapshot().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {v}");
        }
        out.push_str("}, \"histograms\": {");
        for (i, (name, bins)) in self.histograms_snapshot().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let hi = bins.iter().rposition(|&b| b > 0).map_or(0, |p| p + 1);
            let _ = write!(out, "\"{name}\": {{\"bins\": [");
            for (j, b) in bins[..hi].iter().enumerate() {
                if j > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{b}");
            }
            let count: u64 = bins.iter().sum();
            let _ = write!(
                out,
                "], \"count\": {count}, \"p50\": {}, \"p95\": {}, \"p99\": {}}}",
                bin_percentile(bins, 50, 100),
                bin_percentile(bins, 95, 100),
                bin_percentile(bins, 99, 100),
            );
        }
        out.push_str("}}\n");
        out
    }

    /// Install `registry` as the ambient registry for the current thread,
    /// returning a guard that restores the previous one when dropped.
    pub fn set_ambient(registry: Arc<MetricsRegistry>) -> MetricsScope {
        let prev = AMBIENT.with(|slot| slot.replace(Some(registry)));
        MetricsScope { prev }
    }

    /// The ambient registry installed for the current thread, if any.
    pub fn ambient() -> Option<Arc<MetricsRegistry>> {
        AMBIENT.with(|slot| slot.borrow().clone())
    }
}

thread_local! {
    static AMBIENT: RefCell<Option<Arc<MetricsRegistry>>> = const { RefCell::new(None) };
}

/// Restores the previously ambient registry on drop (RAII for
/// [`MetricsRegistry::set_ambient`]).
pub struct MetricsScope {
    prev: Option<Arc<MetricsRegistry>>,
}

impl Drop for MetricsScope {
    fn drop(&mut self) {
        let prev = self.prev.take();
        AMBIENT.with(|slot| *slot.borrow_mut() = prev);
    }
}

/// A parsed metrics export file: what [`MetricsRegistry::to_json`]
/// writes, read back. Understands both the current schema 2 (histogram
/// objects with percentile summaries) and the original schema 1 (bare
/// bin arrays; summaries are recomputed from the bins).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsExport {
    pub schema: u64,
    /// Counter name → value, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Histogram name → summary, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
}

/// Percentile summary of one exported histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    pub bins: Vec<u64>,
    pub count: u64,
    pub p50: u64,
    pub p95: u64,
    pub p99: u64,
}

impl HistogramSummary {
    fn from_bins(bins: Vec<u64>) -> HistogramSummary {
        let mut full = [0u64; HISTOGRAM_BINS];
        for (i, &b) in bins.iter().take(HISTOGRAM_BINS).enumerate() {
            full[i] = b;
        }
        HistogramSummary {
            count: full.iter().sum(),
            p50: bin_percentile(&full, 50, 100),
            p95: bin_percentile(&full, 95, 100),
            p99: bin_percentile(&full, 99, 100),
            bins,
        }
    }
}

impl MetricsExport {
    /// Parse a metrics JSON export (schema 1 or 2). The grammar accepted
    /// is the subset `to_json` emits — flat string keys, unsigned
    /// integers, bin arrays, and (schema 2) histogram summary objects —
    /// with arbitrary whitespace.
    pub fn parse(text: &str) -> Result<MetricsExport, String> {
        let mut c = Cursor { b: text.as_bytes(), i: 0 };
        c.expect(b'{')?;
        let mut schema = 0u64;
        let mut counters = Vec::new();
        let mut histograms: Vec<(String, HistogramSummary)> = Vec::new();
        loop {
            let key = c.string()?;
            c.expect(b':')?;
            match key.as_str() {
                "schema" => schema = c.integer()?,
                "counters" => {
                    c.expect(b'{')?;
                    while !c.try_expect(b'}') {
                        let name = c.string()?;
                        c.expect(b':')?;
                        counters.push((name, c.integer()?));
                        c.try_expect(b',');
                    }
                }
                "histograms" => {
                    c.expect(b'{')?;
                    while !c.try_expect(b'}') {
                        let name = c.string()?;
                        c.expect(b':')?;
                        histograms.push((name, c.histogram()?));
                        c.try_expect(b',');
                    }
                }
                other => return Err(format!("unexpected key `{other}` in metrics export")),
            }
            if !c.try_expect(b',') {
                break;
            }
        }
        c.expect(b'}')?;
        if schema == 0 || schema > 2 {
            return Err(format!("unsupported metrics schema {schema} (expected 1 or 2)"));
        }
        counters.sort();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        Ok(MetricsExport { schema, counters, histograms })
    }

    /// The value of counter `name`, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |&(_, v)| v)
    }
}

/// Byte cursor for the metrics-export subset of JSON.
struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl Cursor<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.b.len() && self.b[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn expect(&mut self, ch: u8) -> Result<(), String> {
        if self.try_expect(ch) {
            Ok(())
        } else {
            Err(format!(
                "metrics export: expected `{}` at byte {}",
                ch as char, self.i
            ))
        }
    }

    fn try_expect(&mut self, ch: u8) -> bool {
        self.skip_ws();
        if self.i < self.b.len() && self.b[self.i] == ch {
            self.i += 1;
            true
        } else {
            false
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i] != b'"' {
            self.i += 1;
        }
        if self.i >= self.b.len() {
            return Err("metrics export: unterminated string".into());
        }
        let s = String::from_utf8_lossy(&self.b[start..self.i]).into_owned();
        self.i += 1;
        Ok(s)
    }

    fn integer(&mut self) -> Result<u64, String> {
        self.skip_ws();
        let start = self.i;
        while self.i < self.b.len() && self.b[self.i].is_ascii_digit() {
            self.i += 1;
        }
        if self.i == start {
            return Err(format!("metrics export: expected integer at byte {start}"));
        }
        std::str::from_utf8(&self.b[start..self.i])
            .ok()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| "metrics export: integer out of range".into())
    }

    fn bin_array(&mut self) -> Result<Vec<u64>, String> {
        self.expect(b'[')?;
        let mut bins = Vec::new();
        while !self.try_expect(b']') {
            bins.push(self.integer()?);
            self.try_expect(b',');
        }
        Ok(bins)
    }

    /// Either a schema-1 bare bin array or a schema-2 summary object.
    fn histogram(&mut self) -> Result<HistogramSummary, String> {
        self.skip_ws();
        if self.i < self.b.len() && self.b[self.i] == b'[' {
            return Ok(HistogramSummary::from_bins(self.bin_array()?));
        }
        self.expect(b'{')?;
        let mut h = HistogramSummary::from_bins(Vec::new());
        while !self.try_expect(b'}') {
            let key = self.string()?;
            self.expect(b':')?;
            match key.as_str() {
                "bins" => h.bins = self.bin_array()?,
                "count" => h.count = self.integer()?,
                "p50" => h.p50 = self.integer()?,
                "p95" => h.p95 = self.integer()?,
                "p99" => h.p99 = self.integer()?,
                other => return Err(format!("unexpected histogram key `{other}`")),
            }
            self.try_expect(b',');
        }
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_across_threads() {
        let reg = Arc::new(MetricsRegistry::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let reg = Arc::clone(&reg);
                s.spawn(move || {
                    let c = reg.counter("walks");
                    for _ in 0..1000 {
                        c.fetch_add(1, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(reg.counters_snapshot(), vec![("walks".to_string(), 4000)]);
    }

    #[test]
    fn histogram_bins_are_log2() {
        assert_eq!(AtomicHistogram::bin_of(0), 0);
        assert_eq!(AtomicHistogram::bin_of(1), 1);
        assert_eq!(AtomicHistogram::bin_of(2), 2);
        assert_eq!(AtomicHistogram::bin_of(3), 2);
        assert_eq!(AtomicHistogram::bin_of(4), 3);
        assert_eq!(AtomicHistogram::bin_of(u64::MAX), HISTOGRAM_BINS - 1);
        let h = AtomicHistogram::new();
        h.record(0);
        h.record(5);
        h.record(6);
        assert_eq!(h.count(), 3);
        assert_eq!(h.counts()[3], 2);
    }

    #[test]
    fn ambient_scoping_restores_previous() {
        assert!(MetricsRegistry::ambient().is_none());
        let outer = Arc::new(MetricsRegistry::new());
        {
            let _g = MetricsRegistry::set_ambient(Arc::clone(&outer));
            MetricsRegistry::ambient().unwrap().add("seen", 1);
            {
                let inner = Arc::new(MetricsRegistry::new());
                let _g2 = MetricsRegistry::set_ambient(Arc::clone(&inner));
                MetricsRegistry::ambient().unwrap().add("seen", 10);
                assert_eq!(inner.counters_snapshot()[0].1, 10);
            }
            MetricsRegistry::ambient().unwrap().add("seen", 1);
        }
        assert!(MetricsRegistry::ambient().is_none());
        assert_eq!(outer.counters_snapshot(), vec![("seen".to_string(), 2)]);
    }

    #[test]
    fn json_is_deterministic_and_sorted() {
        let reg = MetricsRegistry::new();
        reg.add("b.second", 2);
        reg.add("a.first", 1);
        reg.record("fanout", 3);
        let json = reg.to_json();
        assert_eq!(
            json,
            "{\"schema\": 2, \"counters\": {\"a.first\": 1, \"b.second\": 2}, \
             \"histograms\": {\"fanout\": {\"bins\": [0, 0, 1], \"count\": 1, \
             \"p50\": 3, \"p95\": 3, \"p99\": 3}}}\n"
        );
    }

    #[test]
    fn percentiles_use_nearest_rank_upper_edges() {
        let mut bins = [0u64; HISTOGRAM_BINS];
        assert_eq!(bin_percentile(&bins, 50, 100), 0);
        // 90 samples of value 1 (bin 1), 10 samples of ~100 (bin 7).
        bins[1] = 90;
        bins[7] = 10;
        assert_eq!(bin_percentile(&bins, 50, 100), 1);
        assert_eq!(bin_percentile(&bins, 95, 100), bin_upper_edge(7));
        assert_eq!(bin_percentile(&bins, 99, 100), 127);
        assert_eq!(bin_upper_edge(0), 0);
        assert_eq!(bin_upper_edge(5), 31);
    }

    #[test]
    fn export_roundtrips_through_parse() {
        let reg = MetricsRegistry::new();
        reg.add("qpi.bytes", 640);
        reg.add("sys.walks", 3);
        reg.record("walk_ns", 100);
        reg.record("walk_ns", 100);
        reg.record("walk_ns", 7);
        let parsed = MetricsExport::parse(&reg.to_json()).unwrap();
        assert_eq!(parsed.schema, 2);
        assert_eq!(parsed.counter("qpi.bytes"), 640);
        assert_eq!(parsed.counter("missing"), 0);
        let (name, h) = &parsed.histograms[0];
        assert_eq!(name, "walk_ns");
        assert_eq!(h.count, 3);
        assert_eq!(h.p50, bin_upper_edge(AtomicHistogram::bin_of(100)));
    }

    #[test]
    fn parse_accepts_schema_1_exports() {
        let legacy = "{\"schema\": 1, \"counters\": {\"a\": 4}, \
                      \"histograms\": {\"fanout\": [0, 0, 1]}}\n";
        let parsed = MetricsExport::parse(legacy).unwrap();
        assert_eq!(parsed.schema, 1);
        assert_eq!(parsed.counter("a"), 4);
        let h = &parsed.histograms[0].1;
        // Summaries recomputed from the bare bins.
        assert_eq!((h.count, h.p50, h.p95), (1, 3, 3));
        assert!(MetricsExport::parse("{\"schema\": 9, \"counters\": {}}").is_err());
        assert!(MetricsExport::parse("not json").is_err());
    }

    #[test]
    fn zero_counters_stay_visible_once_registered() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("never_fired");
        assert_eq!(reg.counters_snapshot(), vec![("never_fired".to_string(), 0)]);
    }
}
