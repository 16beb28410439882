//! Golden-artifact check: campaign jobs regenerate the committed
//! `results/` CSVs byte for byte.
//!
//! Runs the fast registry jobs directly (no supervisor, no checkpoint)
//! and compares every CSV each one emits with `results/<name>`. The full
//! set, all 26 CSVs plus `calibrate.log`, is checked by running
//! `hswx campaign --out DIR` and comparing `DIR` with `results/`.
//!
//! Two checks read every committed CSV without simulating: no figure
//! repeats a series, and no cell prints a negative zero.

use hswx_bench::jobs::registry;
use std::path::Path;

fn assert_matches_committed(id: &str) {
    let job = registry()
        .into_iter()
        .find(|j| j.id == id)
        .unwrap_or_else(|| panic!("no registered job `{id}`"));
    let out = job.run(None);
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut csvs = 0;
    for (name, body) in out.files.iter().filter(|(name, _)| name.ends_with(".csv")) {
        let path = results.join(name);
        let committed =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(*body, committed, "job `{id}` regenerated {name} with different bytes");
        csvs += 1;
    }
    assert!(csvs > 0, "job `{id}` emitted no CSV");
}

#[test]
fn table1_matches_committed_csv() {
    assert_matches_committed("table1");
}

#[test]
fn table2_matches_committed_csv() {
    assert_matches_committed("table2");
}

#[test]
fn ablate_directory_matches_committed_csv() {
    assert_matches_committed("ablate_directory");
}

#[test]
fn ablate_prefetch_matches_committed_csv() {
    assert_matches_committed("ablate_prefetch");
}

/// Series pairs of one committed figure that hold the same points, each
/// with the reason they are equal: (artifact, series, series, reason).
const EQUAL_SERIES: &[(&str, &str, &str, &str)] = &[
    (
        "ablate_hitme",
        "no HitME",
        "infinite",
        "in both, memory answers every read without a broadcast",
    ),
    (
        "fig7_dram_fraction",
        "F:1 H:1",
        "F:2 H:2",
        "both all zero: the home node's L3 answers every read",
    ),
    (
        "fig7_dram_fraction",
        "F:1 H:2",
        "F:2 H:1",
        "memory answers the lines the home's HitME cache covers, the same share for either home",
    ),
];

/// Every committed CSV as (artifact, header, rows). Each row is split
/// from the right into as many fields as the header has: labels may hold
/// commas ("shared, F local"); cells never do.
fn committed_csvs() -> Vec<(String, String, Vec<Vec<String>>)> {
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("results");
    let mut paths: Vec<_> = std::fs::read_dir(&results)
        .unwrap_or_else(|e| panic!("{}: {e}", results.display()))
        .map(|entry| entry.expect("results/ entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "csv"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|path| {
            let text =
                std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            let mut lines = text.lines();
            let header = lines.next().unwrap_or_default().to_string();
            let columns = header.split(',').count();
            let rows = lines
                .map(|line| {
                    let mut fields: Vec<String> =
                        line.rsplitn(columns, ',').map(str::to_string).collect();
                    fields.reverse();
                    fields
                })
                .collect();
            let artifact = path
                .file_stem()
                .expect("file name")
                .to_string_lossy()
                .into_owned();
            (artifact, header, rows)
        })
        .collect()
}

#[test]
fn no_committed_figure_repeats_a_series() {
    let mut repeats = Vec::new();
    for (artifact, header, rows) in committed_csvs() {
        if header != "series,x,y" {
            continue;
        }
        let mut series: Vec<(&str, Vec<(&str, &str)>)> = Vec::new();
        for row in &rows {
            let point = (row[1].as_str(), row[2].as_str());
            match series.iter_mut().find(|(label, _)| *label == row[0]) {
                Some((_, points)) => points.push(point),
                None => series.push((&row[0], vec![point])),
            }
        }
        for (i, (a, points_a)) in series.iter().enumerate() {
            for (b, points_b) in &series[i + 1..] {
                let listed = EQUAL_SERIES.iter().any(|&(file, first, second, _)| {
                    file == artifact && first == *a && second == *b
                });
                if points_a == points_b && !listed {
                    repeats.push(format!("{artifact}: `{a}` repeats `{b}`"));
                }
                if points_a != points_b && listed {
                    repeats.push(format!("{artifact}: listed pair `{a}`, `{b}` now differs"));
                }
            }
        }
    }
    assert!(repeats.is_empty(), "{}", repeats.join("\n"));
}

#[test]
fn no_committed_csv_prints_negative_zero() {
    // A minus sign and no digit but zeros: `-0`, `-0.0`, `-0.00x`.
    let negative_zero = |cell: &str| {
        cell.starts_with('-')
            && cell.bytes().any(|b| b.is_ascii_digit())
            && cell.bytes().all(|b| !b.is_ascii_digit() || b == b'0')
    };
    let mut rows_with_zero = Vec::new();
    for (artifact, _, rows) in committed_csvs() {
        for row in &rows {
            if row[1..].iter().any(|cell| negative_zero(cell)) {
                rows_with_zero.push(format!("{artifact}: {}", row.join(",")));
            }
        }
    }
    assert!(
        rows_with_zero.is_empty(),
        "{} rows print -0:\n{}",
        rows_with_zero.len(),
        rows_with_zero.join("\n")
    );
}
