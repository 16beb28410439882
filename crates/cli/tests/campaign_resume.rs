//! Kill-and-resume integration test for `hswx campaign`.
//!
//! Scenario: a campaign is SIGKILLed mid-job, then re-invoked with
//! `--resume`. The resumed run must skip every job the journal had
//! committed (verified by digest) and finish with artifacts byte-identical
//! to an uninterrupted campaign. Also checks the crash-consistency
//! contract: the output directory never contains a partially written
//! artifact, only fully committed files and (at worst) hidden temp files.

use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

const JOBS: &str = "table1,table2";

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
    let status = hswx()
        .args(campaign_args(&ref_dir, &[]))
        .stdout(Stdio::null())
        .status()
        .expect("spawn reference campaign");
    assert!(status.success(), "reference campaign failed");

    // Interrupted: commit table1 first, so the journal is genuinely
    // partial, then start the remaining jobs with a long artificial
    // delay and SIGKILL the process mid-job.
    let dir = fresh_dir("victim");
    let status = hswx()
        .args({
            let mut a = campaign_args(&dir, &[]);
            let jobs_pos = a.iter().position(|s| s == JOBS).unwrap();
            a[jobs_pos] = "table1".to_string();
            a
        })
        .stdout(Stdio::null())
        .status()
        .expect("spawn first-half campaign");
    assert!(status.success(), "first-half campaign failed");

    let mut child = hswx()
        .args(campaign_args(&dir, &["--resume"]))
        .env("HSWX_CAMPAIGN_DELAY_MS", "10000")
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn victim campaign");
    std::thread::sleep(Duration::from_millis(300));
    child.kill().expect("SIGKILL victim"); // SIGKILL on unix: no cleanup runs
    child.wait().expect("reap victim");

    // Crash consistency: the journal survived and still only names
    // table1; no visible artifact is partial (every non-hidden file is
    // either absent or byte-identical to the reference).
    let journal = read(&dir, "campaign.journal");
    assert!(journal.contains("done table1"), "journal lost the committed job:\n{journal}");
    assert!(!journal.contains("done table2"), "victim should have died mid-table2:\n{journal}");
    for name in ["table1.txt", "table1.csv"] {
        assert_eq!(read(&dir, name), read(&ref_dir, name), "{name} corrupted by the kill");
    }
    assert!(
        !dir.join("table2.csv").exists(),
        "table2.csv appeared although its job never committed"
    );

    // Resume: must skip table1 (journal digest verifies) and complete
    // table2, converging on the reference bytes.
    let out = hswx()
        .args(campaign_args(&dir, &["--resume"]))
        .output()
        .expect("spawn resumed campaign");
    assert!(out.status.success(), "resume failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(|l| l.starts_with("table1") && l.contains("skipped (journal)")),
        "table1 was not resumed from the journal:\n{stdout}"
    );
    for name in ["table1.txt", "table1.csv", "table2.txt", "table2.csv", "manifest.txt"] {
        assert_eq!(
            read(&dir, name),
            read(&ref_dir, name),
            "{name} differs between resumed and uninterrupted campaigns"
        );
    }

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
    // `--threads` is not a campaign flag: it must fail loudly rather
    // than run the campaign with the flag silently ignored.
    let dir = fresh_dir("badflag");
    let out = hswx()
        .args(campaign_args(&dir, &["--threads", "2"]))
        .output()
        .expect("spawn campaign");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown flag --threads"), "{stderr}");
    assert!(!dir.exists(), "nothing may run before flags are checked");
}

#[test]
fn time_budget_degrades_deterministically() {
    // --degraded (force) and an already-exhausted budget must agree on
    // the shed outputs, so degraded reruns are reproducible.
    let forced = fresh_dir("forced");
    let budget = fresh_dir("budget");
    for (dir, extra) in
        [(&forced, ["--degraded", "", ""]), (&budget, ["--time-budget-ms", "0", ""])]
    {
        let extras: Vec<&str> = extra.iter().copied().filter(|s| !s.is_empty()).collect();
        let out = hswx()
            .args(campaign_args(dir, &extras))
            .output()
            .expect("spawn campaign");
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        assert!(String::from_utf8_lossy(&out.stdout).contains("DEGRADED"));
    }
    for name in ["table1.csv", "table2.csv", "manifest.txt"] {
        assert_eq!(read(&forced, name), read(&budget, name), "{name} differs");
    }
    let _ = std::fs::remove_dir_all(&forced);
    let _ = std::fs::remove_dir_all(&budget);
}

#[test]
fn watchdog_deadline_fails_cleanly_not_hangs() {
    // A 1 ms deadline cannot finish the fig4 sweep (the spec tables do
    // no simulation, so only fig4's walks poll the watchdog token); the
    // campaign must exit promptly with a failure, not wedge.
    let dir = fresh_dir("deadline");
    let begin = Instant::now();
    let out = hswx()
        .args(campaign_args(&dir, &["--deadline-ms", "1", "--attempts", "1"]))
        .args(["--jobs", "fig4"])
        .output()
        .expect("spawn campaign");
    assert!(begin.elapsed() < Duration::from_secs(60), "watchdog did not fire");
    assert!(!out.status.success(), "deadline-starved campaign reported success");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.lines().any(|l| l.starts_with("fig4") && l.contains("FAILED")),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
