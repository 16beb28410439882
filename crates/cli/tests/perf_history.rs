//! The perf-history trend gate through the binary: `hswx perfbench
//! --check-history` has to work from the CLI surface, not just the
//! library layer.

use std::path::PathBuf;
use std::process::Command;

fn hswx() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hswx"))
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("hswx-perfhist-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn check_history_gates_a_regressed_kernel_and_passes_a_healthy_one() {
    let dir = fresh_dir("hist");
    let line = |v: f64| {
        format!(
            "{{\"date\": \"2026-08-08\", \"git_sha\": \"abc\", \"mode\": \"full\", \
             \"kernels\": {{\"mem_walk\": {v:.1}}}}}\n"
        )
    };
    let healthy = dir.join("healthy.jsonl");
    std::fs::write(&healthy, [100.0, 110.0, 90.0, 105.0, 98.0].map(line).concat())
        .unwrap();
    let ok = hswx()
        .args(["perfbench", "--check-history", "--history", healthy.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(ok.status.success(), "{}", String::from_utf8_lossy(&ok.stderr));
    assert!(String::from_utf8_lossy(&ok.stdout).contains("ok"), "no ok lines");

    let regressed = dir.join("regressed.jsonl");
    std::fs::write(&regressed, [100.0, 110.0, 90.0, 105.0, 40.0].map(line).concat())
        .unwrap();
    let bad = hswx()
        .args(["perfbench", "--check-history", "--history", regressed.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!bad.status.success(), "a 60% drop must gate");
    let stderr = String::from_utf8_lossy(&bad.stderr);
    assert!(stderr.contains("below their trailing median"), "{stderr}");

    // Missing history file: typed error naming the path, not a panic.
    let gone = dir.join("absent.jsonl");
    let missing = hswx()
        .args(["perfbench", "--check-history", "--history", gone.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!missing.status.success());
    assert!(
        String::from_utf8_lossy(&missing.stderr).contains("absent.jsonl"),
        "error must name the path"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
