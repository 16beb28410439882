//! The benchmark's metrics: every name, value and unit a run reports.
//!
//! End-to-end metrics come from untraced rounds. Per-layer metrics come
//! from the traced rounds of a `--trace 1` run; additive ones (`.s`,
//! `.walks`, `system.new_calls`) are scaled to one pass, i.e. to one
//! regeneration of the workload's artifacts, and the `sim.*` counters are
//! exact totals over the run's first round, whose units the seed fixes.

use crate::run::{Calibration, Summary};
use crate::stats::{median, nearest_rank};
use crate::trace::Layer;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// `a / b`, or 0 when `b` is 0.
fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Counters Systems publish to the ambient registry, reported as
/// `sim.<name>` (without the `sys.` prefix).
pub const SIM_COUNTERS: [&str; 22] = [
    "sys.walks",
    "sys.rfos",
    "read.self_l1",
    "read.self_l2",
    "read.local_l3",
    "read.local_core",
    "read.peer_l3",
    "read.peer_core",
    "read.memory",
    "snoop.sent",
    "snoop.dir_broadcasts",
    "hitme.hits",
    "hitme.misses",
    "directory.reads",
    "directory.writes",
    "dram.reads",
    "dram.writes",
    "dram.row_hits",
    "dram.row_conflicts",
    "dram.bytes",
    "dram.writebacks",
    "qpi.bytes",
];

/// What a user of the regenerators sees, from untraced rounds.
pub fn end_to_end(s: &Summary) -> Vec<Metric> {
    let rounds = s.rounds_per_pass as f64;
    // Each round's host times are scaled to the calibration loop's
    // nominal speed, then the median over rounds is taken: other tenants
    // of a shared host slow a run as a whole (which the loop cancels) and
    // in bursts (which the median ignores).
    let speed: Vec<f64> = s
        .round_calib_ms
        .iter()
        .map(|c| Calibration::NOMINAL_MS / c)
        .collect();
    let corrected = |xs: &[f64], f: fn(f64, f64) -> f64| -> f64 {
        let v: Vec<f64> = xs.iter().zip(&speed).map(|(&x, &k)| f(x, k)).collect();
        median(&v).unwrap_or(0.0)
    };
    let time = |x, k| x * k;
    let rate = |x, k| x / k;
    vec![
        // Median round x rounds per pass: the projected time to
        // regenerate the workload's artifacts once.
        m("wall_s", corrected(&s.round_wall_s, time) * rounds, "s"),
        m("cpu_s", corrected(&s.round_cpu_s, time) * rounds, "s"),
        m(
            "walks_per_s",
            corrected(&s.round_walks_per_s, rate),
            "walks/s",
        ),
        m("setup_s", median(&s.setup_s).unwrap_or(0.0), "s"),
        m("peak_rss_mb", s.peak_rss_mb, "MiB"),
    ]
}

/// Host time and work per layer, and the modelled components' counters.
pub fn per_layer(s: &Summary) -> Vec<Metric> {
    let per_pass = ratio(s.units_per_pass as f64, s.traced_units as f64);
    let at = |l: Layer| {
        Layer::ALL
            .iter()
            .position(|&x| x == l)
            .expect("known layer")
    };
    let secs = |l: Layer| s.layer_ns[at(l)] as f64 * per_pass / 1e9;
    let walks = |l: Layer| s.layer_walks[at(l)] as f64 * per_pass;
    let ns_per_walk = |l: Layer| ratio(s.layer_ns[at(l)] as f64, s.layer_walks[at(l)] as f64);
    let mut v = vec![
        m("bench.threads", s.threads as f64, "count"),
        m(
            "bench.calib_ms",
            median(&s.round_calib_ms).unwrap_or(0.0),
            "ms",
        ),
        m(
            "bench.wall_raw_s",
            median(&s.round_wall_s).unwrap_or(0.0) * s.rounds_per_pass as f64,
            "s",
        ),
        m(
            "bench.cpu_raw_s",
            median(&s.round_cpu_s).unwrap_or(0.0) * s.rounds_per_pass as f64,
            "s",
        ),
        m("bench.units", s.unit_ms.len() as f64, "count"),
        m(
            "bench.pool_idle_frac",
            1.0 - ratio(s.busy_ns as f64, s.capacity_ns as f64),
            "fraction",
        ),
        m(
            "bench.unit_ms_p50",
            nearest_rank(&s.unit_ms, 50.0).unwrap_or(0.0),
            "ms",
        ),
        m(
            "bench.unit_ms_p90",
            nearest_rank(&s.unit_ms, 90.0).unwrap_or(0.0),
            "ms",
        ),
        m(
            "system.new_calls",
            s.system_new_calls as f64 * per_pass,
            "count",
        ),
        m("system.new_s", secs(Layer::SystemNew), "s"),
    ];
    for l in [Layer::Placement, Layer::Chase, Layer::Stream, Layer::Proxy] {
        v.push(m(format!("{}.s", l.name()), secs(l), "s"));
        v.push(m(format!("{}.walks", l.name()), walks(l), "count"));
        v.push(m(format!("{}.ns_per_walk", l.name()), ns_per_walk(l), "ns"));
    }
    v.push(m("anchors.s", secs(Layer::Anchors), "s"));
    v.push(m("anchors.walks", walks(Layer::Anchors), "count"));
    v.push(m("anchors.paper_err_pct", s.paper_err_pct, "%"));
    v.push(m("driver.s", secs(Layer::Driver), "s"));
    v.push(m("report.s", secs(Layer::Report), "s"));
    v.push(m("check.s", secs(Layer::Check), "s"));
    v.push(m("check.violations", s.violations as f64, "count"));
    let sim = |name: &str| s.sim.iter().find(|(n, _)| n == name).map_or(0, |c| c.1) as f64;
    for name in SIM_COUNTERS {
        let unit = if name.ends_with("bytes") {
            "bytes"
        } else {
            "count"
        };
        v.push(m(
            format!("sim.{}", name.trim_start_matches("sys.")),
            sim(name),
            unit,
        ));
    }
    let hits = sim("hitme.hits");
    v.push(m(
        "sim.hitme.hit_ratio",
        ratio(hits, hits + sim("hitme.misses")),
        "fraction",
    ));
    let row_hits = sim("dram.row_hits");
    let row_all = row_hits + sim("dram.row_closed") + sim("dram.row_conflicts");
    v.push(m(
        "sim.dram.row_hit_ratio",
        ratio(row_hits, row_all),
        "fraction",
    ));
    v.push(m(
        "trace.overhead_pct",
        median(&s.traced_over_untraced).map_or(0.0, |r| 100.0 * (r - 1.0)),
        "%",
    ));
    v
}
