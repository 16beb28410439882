//! Cross-run regression diffing — the engine behind `hswx explain diff`.
//!
//! Takes two runs' exports (metrics-registry JSON, optionally telemetry
//! CSV) and localizes what changed to *named hardware components*: every
//! counter and telemetry channel is prefixed with the component that owns
//! it (`qpi.busy_ps`, `dram.busy_ps`, ...), so grouping by prefix and
//! ranking by relative delta turns "run B is slower" into "the QPI link
//! was busy 40× longer".
//!
//! The ranking metric is the largest relative delta among a component's
//! counters, `|b - a| / max(1, a)` — a ratio, not an absolute, so a
//! component whose small counter exploded outranks a big counter that
//! wobbled. Ties break on absolute delta, then name, keeping the table
//! deterministic.

use hswx_engine::metrics::MetricsExport;
use std::collections::BTreeMap;

/// One counter (or telemetry channel) compared across the two runs.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaRow {
    /// Counter name (`qpi.busy_ps`).
    pub name: String,
    /// Value in run A.
    pub a: u64,
    /// Value in run B.
    pub b: u64,
    /// Relative change `|b - a| / max(1, a)`.
    pub rel: f64,
}

/// All of one component's deltas, scored for ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct ComponentDelta {
    /// Human-readable component name (`QPI link`).
    pub component: &'static str,
    /// Largest relative delta among the component's rows.
    pub score: f64,
    /// Per-counter rows, largest relative delta first.
    pub rows: Vec<DeltaRow>,
}

/// Map a counter/channel prefix to the hardware component that owns it.
/// Unknown prefixes land in "other" rather than being dropped: a diff
/// must never silently ignore a changed number.
pub fn component_of(counter: &str) -> &'static str {
    match counter.split('.').next().unwrap_or("") {
        "qpi" => "QPI link",
        "hitme" => "HitME directory cache",
        "directory" => "in-memory directory",
        "dram" => "DRAM",
        "snoop" => "snoop fabric",
        "ring" => "ring interconnect",
        "cbo" => "CBo caching agent",
        "ha" => "home agent",
        "core" => "core buffers",
        "read" => "read path",
        "sys" => "walk engine",
        _ => "other",
    }
}

fn rel_delta(a: u64, b: u64) -> f64 {
    (b.abs_diff(a)) as f64 / (a.max(1)) as f64
}

/// Compare two sorted `(name, value)` sets (the union of names; a counter
/// absent from one run counts as 0 there) and return components ranked by
/// score, largest first. Unchanged rows are kept inside each component —
/// context matters when reading a diff — but all-zero components are
/// dropped.
pub fn rank_deltas(a: &[(String, u64)], b: &[(String, u64)]) -> Vec<ComponentDelta> {
    let mut union: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (n, v) in a {
        union.entry(n).or_insert((0, 0)).0 = *v;
    }
    for (n, v) in b {
        union.entry(n).or_insert((0, 0)).1 = *v;
    }
    let mut by_component: BTreeMap<&'static str, Vec<DeltaRow>> = BTreeMap::new();
    for (name, (va, vb)) in union {
        by_component.entry(component_of(name)).or_default().push(DeltaRow {
            name: name.to_string(),
            a: va,
            b: vb,
            rel: rel_delta(va, vb),
        });
    }
    let mut out: Vec<ComponentDelta> = by_component
        .into_iter()
        .filter(|(_, rows)| rows.iter().any(|r| r.a != 0 || r.b != 0))
        .map(|(component, mut rows)| {
            rows.sort_by(|x, y| {
                y.rel
                    .total_cmp(&x.rel)
                    .then(y.b.abs_diff(y.a).cmp(&x.b.abs_diff(x.a)))
                    .then(x.name.cmp(&y.name))
            });
            let score = rows.first().map(|r| r.rel).unwrap_or(0.0);
            ComponentDelta { component, score, rows }
        })
        .collect();
    out.sort_by(|x, y| {
        y.score.total_cmp(&x.score).then(x.component.cmp(y.component))
    });
    out
}

/// Convenience: rank the counter deltas of two parsed metrics exports.
pub fn rank_metrics(a: &MetricsExport, b: &MetricsExport) -> Vec<ComponentDelta> {
    rank_deltas(&a.counters, &b.counters)
}

/// Render ranked deltas as a fixed-width terminal table. `label` names
/// the section (e.g. "protocol counters"); only rows that changed print,
/// but every changed component does — a regression diff with a silent cap
/// would hide exactly the long tail it exists to find.
pub fn render_table(label: &str, deltas: &[ComponentDelta]) -> String {
    let mut s = format!("{label} (ranked by largest relative change):\n");
    if deltas.iter().all(|d| d.score == 0.0) {
        s.push_str("  no differences\n");
        return s;
    }
    s.push_str(&format!(
        "  {:<24} {:<28} {:>14} {:>14} {:>9}\n",
        "component", "counter", "run A", "run B", "change"
    ));
    for d in deltas {
        if d.score == 0.0 {
            continue;
        }
        let mut first = true;
        for r in &d.rows {
            if r.a == r.b {
                continue;
            }
            let signed = if r.b >= r.a { r.rel } else { -r.rel };
            s.push_str(&format!(
                "  {:<24} {:<28} {:>14} {:>14} {:>+8.1}%\n",
                if first { d.component } else { "" },
                r.name,
                r.a,
                r.b,
                signed * 100.0,
            ));
            first = false;
        }
    }
    s
}

/// Parse a telemetry CSV (written by `TelemetrySampler::to_csv`) down to
/// per-channel totals, for diffing two runs' series against each other.
pub fn parse_telemetry_totals(text: &str) -> Result<Vec<(String, u64)>, String> {
    let mut lines = text.lines();
    let magic = lines.next().unwrap_or_default();
    if !magic.starts_with("# hswx-telemetry v1") {
        return Err(format!("not a telemetry CSV (header {magic:?})"));
    }
    let header = lines.next().ok_or("telemetry CSV has no column header")?;
    let mut cols = header.split(',');
    if cols.next() != Some("bucket_start_ps") {
        return Err(format!("unexpected telemetry CSV header: {header}"));
    }
    let channels: Vec<&str> = cols.collect();
    let mut totals = vec![0u64; channels.len()];
    for (lineno, row) in lines.enumerate() {
        let cells: Vec<&str> = row.split(',').collect();
        if cells.len() != channels.len() + 1 {
            return Err(format!("telemetry CSV row {} is ragged: {row}", lineno + 3));
        }
        for (i, cell) in cells[1..].iter().enumerate() {
            totals[i] += cell
                .parse::<u64>()
                .map_err(|_| format!("bad value {cell:?} in telemetry CSV row {}", lineno + 3))?;
        }
    }
    Ok(channels.into_iter().map(str::to_string).zip(totals).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline() -> Vec<(String, u64)> {
        vec![
            ("directory.reads".into(), 900),
            ("dram.reads".into(), 1000),
            ("hitme.hits".into(), 400),
            ("qpi.busy_ps".into(), 2_000),
            ("qpi.bytes".into(), 64_000),
            ("snoop.sent".into(), 500),
            ("sys.walks".into(), 10_000),
        ]
    }

    #[test]
    fn qpi_slowdown_ranks_qpi_first() {
        // Run B: the QPI link degraded — its busy time exploded and the
        // byte count grew. Everything else wobbles a bit.
        let a = baseline();
        let mut b = baseline();
        for (n, v) in &mut b {
            match n.as_str() {
                "qpi.busy_ps" => *v = 160_000,
                "qpi.bytes" => *v = 96_000,
                "sys.walks" => *v = 10_050,
                "snoop.sent" => *v = 505,
                _ => {}
            }
        }
        let ranked = rank_deltas(&a, &b);
        assert_eq!(ranked[0].component, "QPI link");
        assert_eq!(ranked[0].rows[0].name, "qpi.busy_ps");
        assert_eq!(ranked[0].rows[1].name, "qpi.bytes");
        // The degraded link dominates everything else.
        assert!(ranked[0].score > ranked[1].score * 5.0, "{ranked:?}");
        let table = render_table("protocol counters", &ranked);
        assert!(table.contains("qpi.busy_ps"), "{table}");
        assert!(table.contains("QPI link"), "{table}");
        assert!(!table.contains("hitme.hits"), "unchanged row printed: {table}");
    }

    #[test]
    fn counters_absent_from_one_run_count_as_zero() {
        let a = vec![("qpi.bytes".to_string(), 100u64)];
        let b = vec![("dram.reads".to_string(), 50u64)];
        let ranked = rank_deltas(&a, &b);
        let qpi = ranked.iter().find(|d| d.component == "QPI link").unwrap();
        assert_eq!((qpi.rows[0].a, qpi.rows[0].b), (100, 0));
        let dram = ranked.iter().find(|d| d.component == "DRAM").unwrap();
        assert_eq!((dram.rows[0].a, dram.rows[0].b), (0, 50));
        // A counter appearing from zero is ranked by its absolute size
        // against the max(1, a) floor — huge, as it should be.
        assert!(dram.score >= 50.0);
    }

    #[test]
    fn identical_runs_render_as_no_differences() {
        let a = baseline();
        let ranked = rank_deltas(&a, &a);
        assert!(ranked.iter().all(|d| d.score == 0.0), "{ranked:?}");
        let table = render_table("protocol counters", &ranked);
        assert!(table.contains("no differences"), "{table}");
    }

    #[test]
    fn telemetry_csv_totals_parse_and_reject_garbage() {
        let csv = "# hswx-telemetry v1 bucket_ps=1000\n\
                   bucket_start_ps,qpi.bytes,ring.busy_ps\n\
                   0,64,500\n\
                   1000,128,250\n";
        let totals = parse_telemetry_totals(csv).unwrap();
        assert_eq!(
            totals,
            vec![("qpi.bytes".to_string(), 192), ("ring.busy_ps".to_string(), 750)]
        );
        assert!(parse_telemetry_totals("nope\n").is_err());
        assert!(parse_telemetry_totals(
            "# hswx-telemetry v1 bucket_ps=1\nbucket_start_ps,a\n0,1,2\n"
        )
        .is_err());
    }

    #[test]
    fn component_mapping_covers_every_live_prefix() {
        for (prefix, expect) in [
            ("qpi.bytes", "QPI link"),
            ("hitme.misses", "HitME directory cache"),
            ("directory.writes", "in-memory directory"),
            ("dram.busy_ps", "DRAM"),
            ("snoop.dir_broadcasts", "snoop fabric"),
            ("ring.busy_ps", "ring interconnect"),
            ("cbo.tag_busy_ps", "CBo caching agent"),
            ("ha.tracker_wait_ps", "home agent"),
            ("core.wc_drain_ps", "core buffers"),
            ("sys.walks", "walk engine"),
            ("mystery.thing", "other"),
        ] {
            assert_eq!(component_of(prefix), expect, "{prefix}");
        }
    }
}
