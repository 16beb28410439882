//! The committed artifacts under `results/`, as cells to compare outputs
//! against.
//!
//! A figure CSV (`series,x,y`) gives one cell per line, keyed by series
//! and `x`; a table CSV gives one cell per row and column; the calibration
//! log gives one formatted line per anchor, keyed by section and name.
//! Outputs are formatted exactly as the regenerators format them, so a
//! cell comparison is a byte comparison of the artifact.

use crate::units::Cell;
use hswx_bench::Anchor;
use std::collections::BTreeMap;
use std::path::Path;

/// Reference cells of some artifacts.
#[derive(Debug, Default)]
pub struct Reference {
    cells: BTreeMap<(String, String, String), String>,
}

impl Reference {
    /// Read `artifacts` from `<root>/results/`.
    pub fn load(root: &Path, artifacts: &[&str]) -> Result<Reference, String> {
        let mut r = Reference::default();
        for &a in artifacts {
            let file = if a == "calibrate" {
                "calibrate.log".to_string()
            } else {
                format!("{a}.csv")
            };
            let path = root.join("results").join(file);
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read reference {}: {e}", path.display()))?;
            r.add(a, &text)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        Ok(r)
    }

    /// Parse one artifact's text into cells.
    pub fn add(&mut self, artifact: &str, text: &str) -> Result<(), String> {
        let mut insert = |row: &str, col: &str, v: String| {
            let key = (artifact.to_string(), row.to_string(), col.to_string());
            match self.cells.insert(key, v) {
                None => Ok(()),
                Some(_) => Err(format!("duplicate cell {row:?} {col:?}")),
            }
        };
        if artifact == "calibrate" {
            let mut section = "";
            for line in text.lines() {
                if line.starts_with("== latency") {
                    section = "latency";
                } else if line.starts_with("== bandwidth") {
                    section = "bandwidth";
                } else if line.ends_with('%')
                    && !line.starts_with("scenario")
                    && !line.starts_with("worst")
                {
                    let name = line.get(..38).ok_or("short anchor line")?.trim_end();
                    insert(section, name, line.to_string())?;
                }
            }
            return Ok(());
        }
        let mut lines = text.lines();
        let header: Vec<&str> = lines.next().ok_or("empty file")?.split(',').collect();
        let figure = header == ["series", "x", "y"];
        for line in lines {
            // Labels may hold commas ("shared, F local"); cells never do.
            let mut fields: Vec<&str> = line.rsplitn(header.len(), ',').collect();
            if fields.len() != header.len() {
                return Err(format!("short row {line:?}"));
            }
            fields.reverse();
            if figure {
                insert(fields[0], fields[1], fields[2].to_string())?;
            } else {
                for (col, v) in header[1..].iter().zip(&fields[1..]) {
                    insert(fields[0], col, v.to_string())?;
                }
            }
        }
        Ok(())
    }

    /// The committed text of `cell`.
    pub fn get(&self, cell: &Cell) -> Option<&str> {
        self.cells
            .get(&(
                cell.artifact.to_string(),
                cell.row.clone(),
                cell.col.clone(),
            ))
            .map(String::as_str)
    }

    /// Compare `got` with the committed text of `cell`.
    pub fn check(&self, cell: &Cell, got: &str) -> Result<(), String> {
        match self.get(cell) {
            Some(want) if want == got => Ok(()),
            want => Err(format!(
                "results/{}: {:?} {:?}: got {got}, committed {}",
                cell.artifact,
                cell.row,
                cell.col,
                want.unwrap_or("nothing")
            )),
        }
    }

    /// Compare an anchor suite with its section of the calibration log:
    /// the same anchors, each printed exactly as committed.
    pub fn check_anchors(&self, section: &str, anchors: &[Anchor]) -> Result<(), String> {
        let want: Vec<(&str, &str)> = self.section(section).collect();
        if want.len() != anchors.len() {
            return Err(format!(
                "results/calibrate.log: {} {section} anchors, {} simulated",
                want.len(),
                anchors.len()
            ));
        }
        for a in anchors {
            let got = anchor_line(a);
            let committed = want.iter().find(|(name, _)| *name == a.name).map(|w| w.1);
            if !(a.sim.is_finite() && a.sim > 0.0) || committed != Some(got.as_str()) {
                return Err(format!(
                    "results/calibrate.log: got {got:?}, committed {:?}",
                    committed.unwrap_or("nothing")
                ));
            }
        }
        Ok(())
    }

    /// Lines of one calibration-log section, keyed by anchor name.
    pub fn section<'a>(&'a self, section: &'a str) -> impl Iterator<Item = (&'a str, &'a str)> {
        self.cells
            .iter()
            .filter(move |((a, row, _), _)| a == "calibrate" && row == section)
            .map(|((_, _, name), line)| (name.as_str(), line.as_str()))
    }

    /// Check that the table and figure cells of `units` are exactly the
    /// reference's cells of those artifacts: a missing or extra cell
    /// means the benchmark and the regenerators no longer describe the
    /// same artifact.
    pub fn covers(&self, units: &[Cell]) -> Result<(), String> {
        let mut want: Vec<(&str, &str, &str)> = units
            .iter()
            .filter(|c| c.artifact != "calibrate")
            .map(|c| (c.artifact, c.row.as_str(), c.col.as_str()))
            .collect();
        want.sort();
        let mut have: Vec<(&str, &str, &str)> = self
            .cells
            .keys()
            .filter(|(a, _, _)| a != "calibrate")
            .map(|(a, r, c)| (a.as_str(), r.as_str(), c.as_str()))
            .collect();
        have.sort();
        if let Some(c) = want.iter().find(|c| have.binary_search(c).is_err()) {
            return Err(format!(
                "results/{}.csv has no cell {:?} {:?}",
                c.0, c.1, c.2
            ));
        }
        if let Some(c) = have.iter().find(|c| want.binary_search(c).is_err()) {
            return Err(format!(
                "results/{}.csv cell {:?} {:?} is not benchmarked",
                c.0, c.1, c.2
            ));
        }
        for section in ["latency", "bandwidth"] {
            if units.iter().any(|c| c.artifact == "calibrate")
                && self.section(section).next().is_none()
            {
                return Err(format!("results/calibrate.log has no {section} anchors"));
            }
        }
        Ok(())
    }
}

/// A figure or table value formatted as its regenerator writes it.
pub fn cell_text(artifact: &str, v: f64) -> String {
    match artifact {
        "table7" => format!("{v:.1}"),
        "fig10" => format!("{v:.3}"),
        _ => format!("{v}"),
    }
}

/// An anchor formatted as `bin/calibrate` prints it.
pub fn anchor_line(a: &Anchor) -> String {
    format!(
        "{:<38} {:>9.1} {:>9.1} {:>7.1}%",
        a.name,
        a.paper,
        a.sim,
        a.rel_err() * 100.0
    )
}
