//! Host-time spans around each layer call, recorded from the benchmark's
//! side of the call.
//!
//! A unit's spans are its root span (the benchmark's own glue, reported
//! as `driver`) and one child per layer call. A layer's self time is its
//! span's duration minus the durations of its direct children, so the
//! self times of a unit's spans add up to the unit's duration exactly, in
//! integer nanoseconds.

use hswx_haswell::System;
use std::fmt::Write as _;
use std::time::Instant;

/// A layer of the repository, as seen from the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The unit itself; its self time is the benchmark's glue (buffer
    /// allocation, level lookup, dropping the System).
    Driver,
    /// `System::new`.
    SystemNew,
    /// `Placement::place`.
    Placement,
    /// `microbench::pointer_chase`.
    Chase,
    /// `microbench::stream_*`.
    Stream,
    /// `workloads::run_proxy`.
    Proxy,
    /// `bench::latency_anchors` / `bench::bandwidth_anchors`.
    Anchors,
    /// `System::check_invariants` (traced runs only).
    Check,
    /// Formatting outputs and comparing them with `results/`.
    Report,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 9] = [
        Layer::Driver,
        Layer::SystemNew,
        Layer::Placement,
        Layer::Chase,
        Layer::Stream,
        Layer::Proxy,
        Layer::Anchors,
        Layer::Check,
        Layer::Report,
    ];

    /// Metric prefix of the layer.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Driver => "driver",
            Layer::SystemNew => "system.new",
            Layer::Placement => "placement",
            Layer::Chase => "chase",
            Layer::Stream => "stream",
            Layer::Proxy => "proxy",
            Layer::Anchors => "anchors",
            Layer::Check => "check",
            Layer::Report => "report",
        }
    }
}

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer called.
    pub layer: Layer,
    /// Index of the enclosing span in the same list; `None` for a root.
    pub parent: Option<usize>,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
    /// Simulated walks the call completed.
    pub walks: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Self time of every span: its duration minus its direct children's.
/// Panics if a child is longer than its parent, which nesting rules out.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut out: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            out[p] = out[p]
                .checked_sub(s.dur_ns())
                .expect("child spans lie inside their parent");
        }
    }
    out
}

/// Records one unit: its start and end always, its layer calls when
/// tracing.
pub struct Tracer {
    epoch: Instant,
    start_ns: u64,
    spans: Option<Vec<Span>>,
    /// Invariant violations `check` found.
    pub violations: u64,
}

impl Tracer {
    /// Start a unit now.
    pub fn start(epoch: Instant, traced: bool) -> Tracer {
        let start_ns = ns_since(epoch);
        let spans = traced.then(|| {
            vec![Span {
                layer: Layer::Driver,
                parent: None,
                start_ns,
                end_ns: start_ns,
                walks: 0,
            }]
        });
        Tracer {
            epoch,
            start_ns,
            spans,
            violations: 0,
        }
    }

    /// Call `f`, which returns its result and the walks it completed, as
    /// a span of `layer`.
    pub fn span<R>(&mut self, layer: Layer, f: impl FnOnce() -> (R, u64)) -> R {
        if self.spans.is_none() {
            return f().0;
        }
        let start_ns = ns_since(self.epoch);
        let (r, walks) = f();
        let end_ns = ns_since(self.epoch);
        if let Some(spans) = &mut self.spans {
            spans.push(Span {
                layer,
                parent: Some(0),
                start_ns,
                end_ns,
                walks,
            });
        }
        r
    }

    /// [`Tracer::span`] for a call on `sys`, counting its walks from
    /// `System::txns`.
    pub fn walks<R>(
        &mut self,
        layer: Layer,
        sys: &mut System,
        f: impl FnOnce(&mut System) -> R,
    ) -> R {
        self.span(layer, || {
            let before = sys.txns();
            let r = f(sys);
            (r, sys.txns() - before)
        })
    }

    /// Scan `sys` for protocol invariant violations; traced runs only,
    /// because the scan costs a sizeable share of unit time.
    pub fn check(&mut self, sys: &System) {
        if self.spans.is_some() {
            let bad = self.span(Layer::Check, || (sys.check_invariants().is_some(), 0));
            self.violations += bad as u64;
        }
    }

    /// End the unit now: its start, end and spans (empty when untraced).
    pub fn finish(self) -> (u64, u64, Vec<Span>) {
        let end_ns = ns_since(self.epoch);
        let mut spans = self.spans.unwrap_or_default();
        if let Some(root) = spans.first_mut() {
            root.end_ns = end_ns;
        }
        (self.start_ns, end_ns, spans)
    }
}

/// Nanoseconds from `epoch` to now.
pub fn ns_since(epoch: Instant) -> u64 {
    epoch.elapsed().as_nanos() as u64
}

/// A span placed on a timeline lane, for export.
#[derive(Debug)]
pub struct LaneSpan {
    /// Worker lane (Chrome `tid`).
    pub lane: usize,
    /// Unit id within the run.
    pub unit: usize,
    /// Layer of the enclosing span, if any.
    pub parent: Option<Layer>,
    /// The span.
    pub span: Span,
}

/// Chrome trace JSON (times in host µs), loadable in `chrome://tracing`
/// or Perfetto.
pub fn chrome_json(spans: &[LaneSpan]) -> String {
    let mut out = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
    for (i, s) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \"dur\": {:.3}, \
             \"args\": {{\"unit\": {}, \"parent\": \"{}\", \"walks\": {}}}}}",
            if i == 0 { "" } else { ",\n" },
            s.span.layer.name(),
            s.lane,
            s.span.start_ns as f64 / 1e3,
            s.span.dur_ns() as f64 / 1e3,
            s.unit,
            s.parent.map_or("", Layer::name),
            s.span.walks,
        );
    }
    out.push_str("\n]}\n");
    out
}
