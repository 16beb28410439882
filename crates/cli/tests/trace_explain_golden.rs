//! Golden outputs of the span-tracer and transcript commands.
//!
//! `hswx explain` (transcript form), `hswx explain fig7` and `hswx trace`
//! are the user-facing views of one walk's instrumentation. Each output
//! below is deterministic, so its FNV-1a digest pins every byte: the
//! transcript lines, the fig7 waterfall and attribution, and the Chrome
//! trace-event JSON that `hswx trace --out` writes. (`hswx trace`'s
//! stdout echoes the output path, so only the file is pinned.)
//!
//! After an intentional change to what a walk records, rerun the three
//! commands and update the digests with `hswx_engine::fnv1a64` of their
//! new bytes.

use hswx_engine::fnv1a64;
use std::process::Command;

/// Run `hswx` with the space-separated `args` and return its stdout.
fn hswx_stdout(args: &str) -> Vec<u8> {
    let out = Command::new(env!("CARGO_BIN_EXE_hswx"))
        .args(args.split(' '))
        .output()
        .expect("run hswx");
    assert!(out.status.success(), "hswx {args} failed: {}", String::from_utf8_lossy(&out.stderr));
    out.stdout
}

fn assert_digest(what: &str, bytes: &[u8], want: u64) {
    let got = fnv1a64(bytes);
    assert_eq!(
        got,
        want,
        "{what}: digest {got:#018X} (want {want:#018X}) over {} bytes:\n{}",
        bytes.len(),
        String::from_utf8_lossy(bytes)
    );
}

#[test]
fn explain_transcript_is_pinned() {
    let args = "explain --state M --level l1 --placer 12 --measurer 0 --mode cod";
    assert_digest(args, &hswx_stdout(args), 0xA55B476F400FF5F5);
}

#[test]
fn explain_fig7_is_pinned() {
    assert_digest("explain fig7", &hswx_stdout("explain fig7"), 0x389959E1B01AA64F);
}

#[test]
fn trace_export_is_pinned() {
    let path = std::env::temp_dir().join(format!("hswx-trace-golden-{}.json", std::process::id()));
    let args = "trace --mode cod --state S --level l3 --home 1";
    let _ = hswx_stdout(&format!("{args} --out {}", path.display()));
    let json = std::fs::read(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    assert_digest(args, &json, 0x302A7D63442BA84C);
}
