use hswx_benchmark::reference::{cell_text, Reference};
use hswx_benchmark::trace::Tracer;
use hswx_benchmark::units::{execute, pass_units, Cell, Output, Workload};
use hswx_engine::MetricsRegistry;
use std::path::{Path, PathBuf};
use std::time::Instant;

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("repository root")
        .to_path_buf()
}

fn cells(w: Workload) -> Vec<Cell> {
    pass_units(w).into_iter().map(|u| u.cell).collect()
}

#[test]
fn the_committed_artifacts_hold_exactly_the_benchmarked_cells() {
    for w in Workload::ALL {
        let r = Reference::load(&root(), w.artifacts()).expect("reference loads");
        r.covers(&cells(w))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name()));
    }
    let r = Reference::load(&root(), &["calibrate"]).expect("calibration log");
    assert_eq!(
        r.section("latency").count() + r.section("bandwidth").count(),
        59
    );
}

#[test]
fn a_perturbed_cell_is_caught() {
    let text = std::fs::read_to_string(root().join("results/fig4.csv")).expect("fig4.csv");
    let unit = pass_units(Workload::LatencySweep)
        .into_iter()
        .find(|u| u.cell.artifact == "fig4" && u.cell.row == "local M" && u.cell.col == "4096")
        .expect("fig4 local M at 4 KiB");
    let Output::Value(v) = execute(
        &unit.job,
        &[],
        &mut Tracer::start(Instant::now(), false),
        &MetricsRegistry::new(),
    ) else {
        panic!("a chase yields a value")
    };
    let got = cell_text("fig4", v);

    let mut committed = Reference::default();
    committed.add("fig4", &text).expect("parses");
    committed
        .check(&unit.cell, &got)
        .expect("regenerated cell matches the committed one");

    let line = format!("local M,4096,{got}\n");
    assert!(text.contains(&line), "{line:?}");
    let mut perturbed = Reference::default();
    perturbed
        .add(
            "fig4",
            &text.replacen(&line, "local M,4096,1.6000000000000003\n", 1),
        )
        .expect("parses");
    let err = perturbed
        .check(&unit.cell, &got)
        .expect_err("a changed digit is a mismatch");
    assert!(err.contains("local M") && err.contains("4096"), "{err}");
}

#[test]
fn a_missing_or_extra_row_is_caught() {
    let text = std::fs::read_to_string(root().join("results/fig9.csv")).expect("fig9.csv");
    let units: Vec<Cell> = cells(Workload::BandwidthStream)
        .into_iter()
        .filter(|c| c.artifact == "fig9")
        .collect();
    let covers = |body: &str| {
        let mut r = Reference::default();
        r.add("fig9", body).expect("parses");
        r.covers(&units)
    };
    covers(&text).expect("committed fig9 matches");
    let last = text.lines().last().expect("rows");
    assert!(covers(&text.replacen(&format!("{last}\n"), "", 1)).is_err());
    assert!(covers(&format!("{text}extra series,4096,1\n")).is_err());
}

#[test]
fn labels_holding_commas_parse() {
    let mut r = Reference::default();
    r.add("table7", "case,1,2\nlocal read, source snoop,12.1,24.1\n")
        .expect("parses");
    let cell = |col: &str| Cell {
        artifact: "table7",
        row: "local read, source snoop".into(),
        col: col.into(),
    };
    assert_eq!(r.get(&cell("2")), Some("24.1"));
    r.add("fig9", "series,x,y\nshared, F local,4096,1.5\n")
        .expect("parses");
    let cell = Cell {
        artifact: "fig9",
        row: "shared, F local".into(),
        col: "4096".into(),
    };
    assert_eq!(r.get(&cell), Some("1.5"));
}
