//! Error-path coverage for `hswx explain diff` and the `explain` form
//! dispatch: every malformed input must surface as a typed error on
//! stderr with a nonzero exit — never a panic, never a silent success —
//! and the degenerate-but-valid cases (schema 1 vs 2, empty counter sets)
//! must diff cleanly.

use std::path::PathBuf;
use std::process::Command;

fn hswx() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hswx"))
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("hswx-exdiff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write(dir: &std::path::Path, name: &str, body: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, body).unwrap();
    path.to_str().unwrap().to_string()
}

fn diff(a: &str, b: &str) -> std::process::Output {
    hswx().args(["explain", "diff", a, b]).output().expect("run hswx explain diff")
}

#[test]
fn missing_file_is_a_typed_error_naming_the_path() {
    let dir = fresh_dir("missing");
    let a = write(&dir, "a.json", "{\"schema\": 2, \"counters\": {\"qpi.bytes\": 1}}");
    let gone = dir.join("no-such-run.json");
    let out = diff(&a, gone.to_str().unwrap());
    assert!(!out.status.success(), "missing file must fail");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("no-such-run.json"),
        "error must name the missing path: {stderr}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unsupported_schema_is_a_typed_error_not_a_panic() {
    let dir = fresh_dir("schema");
    let a = write(&dir, "a.json", "{\"schema\": 2, \"counters\": {\"qpi.bytes\": 1}}");
    let b = write(&dir, "b.json", "{\"schema\": 9, \"counters\": {\"qpi.bytes\": 2}}");
    let out = diff(&a, &b);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unsupported metrics schema 9 (expected 1 or 2)"),
        "schema mismatch must be typed: {stderr}"
    );
    assert!(stderr.contains("b.json"), "error must name the offending file: {stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn schema_1_and_schema_2_exports_diff_against_each_other() {
    // The parser normalizes both generations to the same counter set, so
    // a legacy run stays comparable against a current one.
    let dir = fresh_dir("cross");
    let a = write(
        &dir,
        "legacy.json",
        "{\"schema\": 1, \"counters\": {\"qpi.bytes\": 100, \"sys.walks\": 10}}",
    );
    let b = write(
        &dir,
        "current.json",
        "{\"schema\": 2, \"counters\": {\"qpi.bytes\": 300, \"sys.walks\": 10}}",
    );
    let out = diff(&a, &b);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("QPI link"), "{stdout}");
    assert!(stdout.contains("qpi.bytes"), "{stdout}");
    assert!(stdout.contains("+200.0%"), "{stdout}");
    assert!(!stdout.contains("sys.walks"), "unchanged row must not print: {stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_counter_sets_diff_cleanly_as_no_differences() {
    let dir = fresh_dir("emptyctr");
    let a = write(&dir, "a.json", "{\"schema\": 2, \"counters\": {}}");
    let b = write(&dir, "b.json", "{\"schema\": 2, \"counters\": {}}");
    let out = diff(&a, &b);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("no differences"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn empty_file_is_a_typed_parse_error() {
    let dir = fresh_dir("emptyfile");
    let a = write(&dir, "a.json", "");
    let b = write(&dir, "b.json", "{\"schema\": 2, \"counters\": {}}");
    let out = diff(&a, &b);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("metrics export: expected `{`"),
        "empty file must be a parse error: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wrong_arity_reports_usage_error() {
    let out = hswx().args(["explain", "diff", "only-one.json"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("exactly two run paths"), "{stderr}");
}

#[test]
fn unknown_explain_form_is_an_error() {
    let out = hswx().args(["explain", "bogus"]).output().unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown explain form bogus"), "{stderr}");
}
