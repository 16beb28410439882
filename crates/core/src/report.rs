//! Result plumbing: series, tables, CSV.
//!
//! Shared by the campaign jobs that regenerate each paper table and
//! figure (`hswx_bench::jobs`). A figure is a set of [`Series`] (size →
//! value curves); a table is rows of labelled cells. Everything renders
//! as aligned text and as the machine-readable CSV committed under
//! `results/`.

use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One curve of a figure: label plus (x, y) points.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// (x, y) points; x is usually bytes, y ns or GB/s.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// An empty named series.
    pub fn new(label: impl Into<String>) -> Self {
        Series { label: label.into(), points: Vec::new() }
    }

    /// Append a point.
    pub fn push(&mut self, x: f64, y: f64) {
        self.points.push((x, y));
    }
}

/// A figure: several series over a common x axis.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Figure {
    /// Figure identifier ("fig4", …).
    pub id: String,
    /// Axis/units description.
    pub y_unit: String,
    /// The curves.
    pub series: Vec<Series>,
}

impl Figure {
    /// An empty figure.
    pub fn new(id: impl Into<String>, y_unit: impl Into<String>) -> Self {
        Figure { id: id.into(), y_unit: y_unit.into(), series: Vec::new() }
    }

    /// Add a series.
    pub fn add(&mut self, s: Series) {
        self.series.push(s);
    }

    /// Render as an aligned text table (x rows, one column per series).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {} [{}]", self.id, self.y_unit);
        let mut xs: Vec<f64> = self
            .series
            .iter()
            .flat_map(|s| s.points.iter().map(|&(x, _)| x))
            .collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();
        let _ = write!(out, "{:>12}", "x");
        for s in &self.series {
            let _ = write!(out, " {:>22}", truncate(&s.label, 22));
        }
        let _ = writeln!(out);
        for &x in &xs {
            let _ = write!(out, "{:>12}", human_size(x));
            for s in &self.series {
                match s.points.iter().find(|&&(px, _)| px == x) {
                    Some(&(_, y)) => {
                        let _ = write!(out, " {y:>22.1}");
                    }
                    None => {
                        let _ = write!(out, " {:>22}", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
        out
    }

    /// CSV rendering (long format: series,x,y) — the exact bytes of the
    /// artifact a campaign writes and digests.
    pub fn csv_body(&self) -> String {
        let mut body = String::from("series,x,y\n");
        for s in &self.series {
            for &(x, y) in &s.points {
                let _ = writeln!(body, "{},{x},{y}", s.label);
            }
        }
        body
    }
}

/// A labelled table (paper Tables III–VIII).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    /// Table identifier ("table3", …).
    pub id: String,
    /// Column headers (first column is the row label).
    pub columns: Vec<String>,
    /// Rows: label + one cell per column.
    pub rows: Vec<(String, Vec<String>)>,
}

impl Table {
    /// An empty table with headers.
    pub fn new(id: impl Into<String>, columns: &[&str]) -> Self {
        Table {
            id: id.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of formatted cells.
    pub fn row(&mut self, label: impl Into<String>, cells: Vec<String>) {
        self.rows.push((label.into(), cells));
    }

    /// Append a row of f64 cells with one decimal.
    pub fn row_f(&mut self, label: impl Into<String>, cells: &[f64]) {
        self.row(label, cells.iter().map(|v| format!("{v:.1}")).collect());
    }

    /// Render as aligned text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# {}", self.id);
        let mut widths = vec![self.columns.first().map(|c| c.len()).unwrap_or(0)];
        for c in &self.columns[1..] {
            widths.push(c.len());
        }
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([widths[0]])
            .max()
            .unwrap_or(8);
        let _ = write!(out, "{:<label_w$}", self.columns[0]);
        for c in &self.columns[1..] {
            let _ = write!(out, " {c:>14}");
        }
        let _ = writeln!(out);
        for (label, cells) in &self.rows {
            let _ = write!(out, "{label:<label_w$}");
            for cell in cells {
                let _ = write!(out, " {cell:>14}");
            }
            let _ = writeln!(out);
        }
        out
    }

    /// CSV rendering — the exact bytes of the artifact a campaign writes
    /// and digests (see [`Figure::csv_body`]).
    pub fn csv_body(&self) -> String {
        let mut body = self.columns.join(",");
        body.push('\n');
        for (label, cells) in &self.rows {
            body.push_str(label);
            for c in cells {
                body.push(',');
                body.push_str(c);
            }
            body.push('\n');
        }
        body
    }
}

fn truncate(s: &str, n: usize) -> &str {
    if s.len() <= n {
        s
    } else {
        &s[..n]
    }
}

/// Human-readable byte size for axis labels.
pub fn human_size(bytes: f64) -> String {
    let b = bytes;
    if b >= (1 << 30) as f64 {
        format!("{:.0}GiB", b / (1u64 << 30) as f64)
    } else if b >= (1 << 20) as f64 {
        format!("{:.1}MiB", b / (1 << 20) as f64)
    } else if b >= 1024.0 {
        format!("{:.0}KiB", b / 1024.0)
    } else {
        format!("{b:.0}B")
    }
}

/// Standard log-spaced data-set sizes for sweeps (4 KiB … 256 MiB).
pub fn sweep_sizes() -> Vec<u64> {
    let mut v = Vec::new();
    let mut s: u64 = 4 * 1024;
    while s <= 256 * 1024 * 1024 {
        v.push(s);
        // one intermediate point per octave keeps curves smooth
        let mid = s + s / 2;
        if mid <= 256 * 1024 * 1024 {
            v.push(mid);
        }
        s *= 2;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_and_figure_roundtrip() {
        let mut f = Figure::new("figX", "ns");
        let mut s = Series::new("local");
        s.push(4096.0, 1.6);
        s.push(8192.0, 1.6);
        f.add(s);
        let txt = f.to_text();
        assert!(txt.contains("figX"));
        assert!(txt.contains("4KiB"));
        assert!(txt.contains("1.6"));
    }

    #[test]
    fn table_renders_cells() {
        let mut t = Table::new("tableX", &["case", "a", "b"]);
        t.row_f("local", &[21.2, 18.0]);
        let txt = t.to_text();
        assert!(txt.contains("21.2"));
        assert!(txt.contains("local"));
    }

    #[test]
    fn human_sizes() {
        assert_eq!(human_size(4096.0), "4KiB");
        assert_eq!(human_size(1.5 * 1024.0 * 1024.0), "1.5MiB");
        assert_eq!(human_size((1u64 << 30) as f64), "1GiB");
    }

    #[test]
    fn sweep_sizes_are_sorted_and_bounded() {
        let v = sweep_sizes();
        assert!(v.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(*v.first().unwrap(), 4 * 1024);
        assert!(*v.last().unwrap() <= 256 * 1024 * 1024);
        assert!(v.len() > 20);
    }
}
