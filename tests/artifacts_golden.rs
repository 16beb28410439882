//! Golden-artifact check: campaign jobs regenerate the committed
//! `results/` CSVs byte for byte.
//!
//! Runs the fast registry jobs directly (no supervisor, no checkpoint)
//! and compares every CSV each one emits with `results/<name>`. The full
//! set, all 26 CSVs plus `calibrate.log`, is checked by running
//! `hswx campaign --out DIR` and comparing `DIR` with `results/`.

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
