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
    let args = "trace --mode cod --state S --level l3 --placer 6,12 --home 1";
    let _ = hswx_stdout(&format!("{args} --out {}", path.display()));
    let json = std::fs::read(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    assert_digest(args, &json, 0x4C0EE1B189E9BE7E);
}

#[test]
fn out_of_range_scenario_flags_are_errors() {
    // A core, node or size the simulated system cannot hold is an
    // `error:` line and exit 1, never a panic or a measurement of a node
    // that does not exist. Cluster-on-die has four nodes, the other
    // modes two; the system has 24 cores and a buffer holds 64 B to 1 GiB.
    // A stream stores one way, so `--write` with `--write-nt` is refused
    // rather than measured as either. The placer list must fit the
    // state: a Shared line needs two distinct cores, Modified and
    // Exclusive take exactly one. A trace records at least one access. A
    // positional argument the command does not read is refused too,
    // before any system is built or file written.
    let out = std::env::temp_dir().join(format!("hswx-range-{}.json", std::process::id()));
    let trace = format!("--out {}", out.display());
    let campaign = std::env::temp_dir().join(format!("hswx-range-campaign-{}", std::process::id()));
    let refused = |args: &str, error: &str| {
        let run = Command::new(env!("CARGO_BIN_EXE_hswx"))
            .args(args.split(' '))
            .output()
            .expect("run hswx");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(1), "hswx {args}: {stderr}");
        assert_eq!(stderr, format!("error: {error}\n"), "hswx {args}");
    };
    for (args, error) in [
        ("bandwidth --home 9", "--home 9 out of range (0..2)"),
        ("explain --home 9", "--home 9 out of range (0..2)"),
        (&format!("trace --home 9 {trace}"), "--home 9 out of range (0..2)"),
        ("latency --mode cod --home 4", "--home 4 out of range (0..4)"),
        ("latency --measurer 99", "--measurer 99 out of range (0..24)"),
        ("bandwidth --measurer 99", "--measurer 99 out of range (0..24)"),
        ("explain --measurer 99", "--measurer 99 out of range (0..24)"),
        ("latency --placer 99", "--placer 99 out of range (0..24)"),
        ("explain fig7 --home 9", "--home 9 out of range (0..4)"),
        ("explain fig7 --fwd 4", "--fwd 4 out of range (0..4)"),
        ("latency --size 0", "--size 0 out of range (64..=1073741824)"),
        ("bandwidth --size 0", "--size 0 out of range (64..=1073741824)"),
        (&format!("trace --size 0 {trace}"), "--size 0 out of range (64..=1073741824)"),
        ("explain fig7 0", "SIZE_KIB 0 out of range (1..=1048576)"),
        ("bandwidth --write --write-nt", "--write and --write-nt are exclusive: pick one store kind"),
        ("latency --state S", "--state S needs at least two distinct --placer cores (got 1)"),
        ("explain --state S --placer 1,1", "--state S needs at least two distinct --placer cores (got 1)"),
        ("bandwidth --state M --placer 1,13", "--state M takes exactly one --placer core (got 2)"),
        (&format!("trace --state E --placer 0,1 {trace}"), "--state E takes exactly one --placer core (got 2)"),
        (&format!("trace --accesses 0 {trace}"), "--accesses must be at least 1"),
        ("info cod", "unexpected argument cod"),
        ("latency --level l1 oops", "unexpected argument oops"),
        (&format!("trace out.json {trace}"), "unexpected argument out.json"),
        ("explain fig7 128 64", "unexpected argument 64"),
        ("faultcheck 5", "unexpected argument 5"),
        (
            &format!("campaign --jobs table1 --out {} results", campaign.display()),
            "unexpected argument results",
        ),
    ] {
        refused(args, error);
    }
    // `faultcheck` reads `--seed`, `--trials` and `--json` only.
    for (flag, value) in [("quick", ""), ("plan", " f"), ("classes", " drop-snoop")] {
        refused(&format!("faultcheck --{flag}{value}"), &format!("unknown flag --{flag}"));
    }
    assert!(!out.exists(), "a refused trace wrote {}", out.display());
    assert!(!campaign.exists(), "a refused campaign wrote {}", campaign.display());
    // The last node of cluster-on-die is in range.
    let _ = hswx_stdout("explain --mode cod --home 3");
}
