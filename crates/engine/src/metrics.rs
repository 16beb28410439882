//! Lock-free metrics registry with ambient per-thread installation.
//!
//! A [`MetricsRegistry`] holds named monotonic counters backed by
//! [`AtomicU64`]s: registration takes a short lock, but every increment
//! afterwards is a relaxed atomic add, so hot paths can hold on to the
//! returned `Arc` and count without synchronization.
//!
//! A registry propagates *ambiently*: a supervisor installs one for the
//! current worker thread with [`MetricsRegistry::set_ambient`] and any
//! simulator constructed on that thread picks it up via
//! [`MetricsRegistry::ambient`]. With no registry
//! installed (the default, and the perf-bench configuration) the
//! simulator pays a single `Option` check per walk.

use std::cell::RefCell;
use std::fmt::{self, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Named counters shared across threads (see module docs).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<Vec<(String, Arc<AtomicU64>)>>,
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

    /// Deterministic JSON export, schema 2: `{"schema": 2, "counters":
    /// {…}}` with the counters sorted by name. [`MetricsExport::parse`]
    /// reads it back.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"schema\": 2, \"counters\": {");
        for (i, (name, v)) in self.counters_snapshot().iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "\"{name}\": {v}");
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
/// writes, read back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsExport {
    /// Counter name → value, sorted by name.
    pub counters: Vec<(String, u64)>,
}

/// Why [`MetricsExport::parse`] refused a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Not the JSON subset `to_json` writes.
    Syntax(String),
    /// A `schema` other than 1 or 2.
    Schema(u64),
    /// A non-empty `histograms` object. The registry records no
    /// histograms; the exports `hswx campaign` wrote while it did carry
    /// an empty one, which parses.
    Histograms,
}

impl From<String> for ParseError {
    fn from(msg: String) -> Self {
        ParseError::Syntax(msg)
    }
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax(msg) => f.write_str(msg),
            ParseError::Schema(n) => write!(f, "unsupported metrics schema {n} (expected 1 or 2)"),
            ParseError::Histograms => {
                f.write_str("metrics export: only an empty `histograms` object is accepted")
            }
        }
    }
}

impl MetricsExport {
    /// Parse a metrics JSON export, schema 1 or 2. The grammar accepted
    /// is the subset `to_json` emits (flat string keys and unsigned
    /// integers) with arbitrary whitespace, plus the empty `histograms`
    /// object that older exports carry.
    pub fn parse(text: &str) -> Result<MetricsExport, ParseError> {
        let mut c = Cursor { b: text.as_bytes(), i: 0 };
        c.expect(b'{')?;
        let mut schema = 0u64;
        let mut counters = Vec::new();
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
                    if !c.try_expect(b'}') {
                        return Err(ParseError::Histograms);
                    }
                }
                other => return Err(format!("unexpected key `{other}` in metrics export").into()),
            }
            if !c.try_expect(b',') {
                break;
            }
        }
        c.expect(b'}')?;
        if schema == 0 || schema > 2 {
            return Err(ParseError::Schema(schema));
        }
        counters.sort();
        Ok(MetricsExport { counters })
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
        assert_eq!(
            reg.to_json(),
            "{\"schema\": 2, \"counters\": {\"a.first\": 1, \"b.second\": 2}}\n"
        );
    }

    #[test]
    fn export_roundtrips_through_parse() {
        let reg = MetricsRegistry::new();
        reg.add("qpi.bytes", 640);
        reg.add("sys.walks", 3);
        let parsed = MetricsExport::parse(&reg.to_json()).unwrap();
        assert_eq!(parsed.counter("qpi.bytes"), 640);
        assert_eq!(parsed.counter("missing"), 0);
        // Exports written while the registry had histograms carry an
        // empty object, in schema 1 or 2.
        for schema in [1, 2] {
            let older = format!(
                "{{\"schema\": {schema}, \"counters\": {{\"sys.walks\": 3, \
                 \"qpi.bytes\": 640}}, \"histograms\": {{}}}}\n"
            );
            assert_eq!(MetricsExport::parse(&older).unwrap(), parsed);
        }
        let filled = "{\"schema\": 2, \"counters\": {}, \"histograms\": {\"x\": [1]}}";
        assert_eq!(MetricsExport::parse(filled), Err(ParseError::Histograms));
        let err = MetricsExport::parse("{\"schema\": 9, \"counters\": {}}").unwrap_err();
        assert_eq!(err.to_string(), "unsupported metrics schema 9 (expected 1 or 2)");
        assert!(matches!(MetricsExport::parse("not json"), Err(ParseError::Syntax(_))));
    }

    #[test]
    fn zero_counters_stay_visible_once_registered() {
        let reg = MetricsRegistry::new();
        let _ = reg.counter("never_fired");
        assert_eq!(reg.counters_snapshot(), vec![("never_fired".to_string(), 0)]);
    }
}
