//! Kill-and-resume integration test for `hswx campaign`.
//!
//! Scenario: a campaign is SIGKILLed inside a multi-cell job, then
//! re-invoked with `--resume`. The resumed run must skip every job the
//! journal had committed (verified by digest), replay the cells the killed
//! job had checkpointed, and finish with artifacts byte-identical to an
//! uninterrupted campaign. Also checks the crash-consistency contract: the
//! output directory never contains a partially written artifact, only
//! fully committed files and (at worst) hidden temp and checkpoint files.

use hswx_bench::checkpoint::CheckpointStore;
use hswx_engine::metrics::MetricsExport;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const JOBS: &str = "table1,table2";
/// The kill test's jobs: the spec tables, then the 48-cell ablate_rings.
const RINGS: &str = "table1,table2,ablate_rings";

fn hswx() -> Command {
    Command::new(env!("CARGO_BIN_EXE_hswx"))
}

fn campaign_args(dir: &Path, extra: &[&str]) -> Vec<String> {
    let mut v = vec![
        "campaign".to_string(),
        "--out".to_string(),
        dir.display().to_string(),
        "--jobs".to_string(),
        JOBS.to_string(),
    ];
    v.extend(extra.iter().map(|s| s.to_string()));
    v
}

fn fresh_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("hswx-kill-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn read(dir: &Path, name: &str) -> String {
    std::fs::read_to_string(dir.join(name))
        .unwrap_or_else(|e| panic!("{}/{name}: {e}", dir.display()))
}

#[test]
fn killed_campaign_resumes_to_identical_artifacts() {
    // Reference: one uninterrupted campaign.
    let ref_dir = fresh_dir("ref");
    let json = |dir: &Path| dir.join("metrics.json").display().to_string();
    let status = hswx()
        .args(campaign_args(&ref_dir, &["--jobs", RINGS, "--metrics-json", &json(&ref_dir)]))
        .stdout(Stdio::null())
        .status()
        .expect("spawn reference campaign");
    assert!(status.success(), "reference campaign failed");

    // Interrupted: SIGKILL the campaign once ablate_rings has checkpointed
    // some of its 48 cells. The spec tables have committed by then, so the
    // journal is genuinely partial.
    let dir = fresh_dir("victim");
    let mut child = hswx()
        .args(campaign_args(&dir, &["--jobs", RINGS]))
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim campaign");
    let ckpt = dir.join(".ckpt-ablate_rings");
    let cells = || CheckpointStore::open(ckpt.clone(), false).len();
    let begin = Instant::now();
    while cells() == 0 {
        assert!(begin.elapsed() < Duration::from_secs(120), "no cell was checkpointed");
        std::thread::sleep(Duration::from_millis(5));
    }
    child.kill().expect("SIGKILL victim"); // SIGKILL on unix: no cleanup runs
    child.wait().expect("reap victim");
    let kept = cells();
    assert!(kept > 0 && kept < 48, "{kept} of 48 cells checkpointed at the kill");

    // Crash consistency: the journal survived and does not name
    // ablate_rings; no visible artifact is partial (every non-hidden file
    // is either absent or byte-identical to the reference).
    let journal = read(&dir, "campaign.journal");
    assert!(journal.contains("done table1") && journal.contains("done table2"), "{journal}");
    assert!(!journal.contains("done ablate_rings"), "victim should have died mid-job:\n{journal}");
    let tables = ["table1.txt", "table1.csv", "table2.txt", "table2.csv"];
    for name in tables {
        assert_eq!(read(&dir, name), read(&ref_dir, name), "{name} corrupted by the kill");
    }
    assert!(
        !dir.join("ablate_rings.csv").exists(),
        "ablate_rings.csv appeared although its job never committed"
    );

    // Resume: must skip the spec tables (journal digests verify), replay
    // the checkpointed cells (so it walks less than an uninterrupted run)
    // and converge on the reference bytes, which are the committed ones.
    let out = hswx()
        .args(campaign_args(&dir, &["--resume", "--jobs", RINGS]))
        .args(["--metrics-json", &json(&dir)])
        .output()
        .expect("spawn resumed campaign");
    assert!(out.status.success(), "resume failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    let skipped = |id| stdout.lines().any(|l| l.starts_with(id) && l.contains("skipped (journal)"));
    assert!(skipped("table1") && skipped("table2"), "not resumed from the journal:\n{stdout}");
    let walks =
        |dir: &Path| MetricsExport::parse(&read(dir, "metrics.json")).unwrap().counter("sys.walks");
    let (full, resumed) = (walks(&ref_dir), walks(&dir));
    assert!(0 < resumed && resumed < full, "resumed run walked {resumed}, a full run {full}");
    for name in tables.into_iter().chain(["ablate_rings.txt", "ablate_rings.csv"]) {
        assert_eq!(
            read(&dir, name),
            read(&ref_dir, name),
            "{name} differs between resumed and uninterrupted campaigns"
        );
    }
    // Same artifacts in the manifest; its counter totals (comments) differ.
    let listed = |d: &Path| -> Vec<String> {
        read(d, "manifest.txt").lines().filter(|l| !l.starts_with('#')).map(String::from).collect()
    };
    assert_eq!(listed(&dir), listed(&ref_dir), "manifest.txt lists other artifacts");
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    assert_eq!(read(&dir, "ablate_rings.csv"), read(&results, "ablate_rings.csv"));
    assert!(!ckpt.exists(), "commit discards the checkpoint");

    let _ = std::fs::remove_dir_all(&ref_dir);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resume_refuses_telemetry_before_touching_the_run() {
    // The journal keeps per-job telemetry totals, not series, so a
    // resumed run cannot export the complete series.
    let dir = fresh_dir("telemetry");
    let base = dir.join("telemetry").display().to_string();
    let first = hswx()
        .args(campaign_args(&dir, &["--telemetry", &base]))
        .output()
        .expect("spawn campaign");
    assert!(first.status.success(), "{}", String::from_utf8_lossy(&first.stderr));
    let names = ["telemetry.csv", "telemetry.om", "campaign.journal", "manifest.txt"];
    let before: Vec<String> = names.iter().map(|n| read(&dir, n)).collect();
    let out = hswx()
        .args(campaign_args(&dir, &["--telemetry", &base, "--resume"]))
        .output()
        .expect("spawn resumed campaign");
    assert!(!out.status.success(), "--resume with --telemetry was accepted");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--resume") && stderr.contains("--telemetry"), "{stderr}");
    for (name, bytes) in names.iter().zip(&before) {
        assert_eq!(&read(&dir, name), bytes, "{name} changed");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_exits_nonzero_when_a_job_fails() {
    // An unknown job id is an environmental error, reported before any
    // job runs.
    let dir = fresh_dir("badjob");
    let out = hswx()
        .args(campaign_args(&dir, &[]))
        .args(["--jobs", "no-such-job"])
        .output()
        .expect("spawn campaign");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown job"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn campaign_rejects_unknown_flags_before_running() {
    // None of these is a campaign flag (each job runs once, with no
    // retry count or deadline): each must fail loudly rather than run
    // the campaign with the flag silently ignored.
    let dir = fresh_dir("badflag");
    for (flag, value) in [("--threads", "2"), ("--attempts", "2"), ("--deadline-ms", "1")] {
        let out =
            hswx().args(campaign_args(&dir, &[flag, value])).output().expect("spawn campaign");
        assert!(!out.status.success(), "{flag} was accepted");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&format!("unknown flag {flag}")), "{stderr}");
        assert!(!dir.exists(), "nothing may run before flags are checked");
    }
}
