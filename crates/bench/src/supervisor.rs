//! Supervised campaign runtime: panic isolation and crash-safe journaling
//! around each job.
//!
//! The [`Supervisor`] runs [`JobSpec`]s in full, one at a time in the order
//! given, through the cell runner ([`JobSpec::run`]), whose pool is the
//! campaign's one level of parallelism. Each job runs once, under
//! `catch_unwind`: a panicking job is reported in the summary and the next
//! job runs. Every job is deterministic (the simulator seeds are
//! constants), so running a failed job again would fail the same way; the
//! cells it finished stay in its checkpoint, and `--resume` measures only
//! the rest once the cause is fixed.
//!
//! Completed jobs are committed to a crash-safe journal: every artifact
//! file is written via tmp+`rename`, the journal records a per-job
//! digest over the artifact bytes, and the journal file itself is
//! rewritten atomically after every job (optionally fsynced). A campaign
//! killed at any instant therefore leaves only (a) fully written
//! artifacts it had journaled and (b) invisible temp files; `--resume`
//! replays the journal, re-verifies each digest against the bytes on
//! disk, skips exactly the jobs that fully committed, and keeps the
//! entries of jobs outside the run.

use crate::checkpoint::CheckpointStore;
use crate::jobs::{reference_digest, JobOutput, JobSpec};
use crate::parallel::panic_message;
use hswx_engine::{
    atomic_write, fnv1a64, fnv1a64_extend, MetricsRegistry, TelemetryHub, TelemetrySampler,
};
use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::Arc;

/// First line of every journal, bumped on format changes.
const JOURNAL_MAGIC: &str = "hswx-campaign v3";

/// Supervisor policy knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Directory artifacts are written into (created if missing).
    pub out_dir: PathBuf,
    /// Journal path (conventionally `<out_dir>/campaign.journal`).
    pub journal: PathBuf,
    /// Replay the journal and skip jobs whose digests still verify.
    pub resume: bool,
    /// fsync the journal (and its directory) on every commit.
    pub fsync: bool,
    /// Sample simulated-time telemetry during every job (an ambient
    /// [`TelemetryHub`] per job). Per-channel totals land in the
    /// journal and manifest; the merged series is available from
    /// [`CampaignSummary::telemetry_merged`]. Off by default: sampling is
    /// proven transparent, but the armed walk path is not free.
    pub telemetry: bool,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            out_dir: PathBuf::from("results"),
            journal: PathBuf::from("results/campaign.journal"),
            resume: false,
            fsync: false,
            telemetry: false,
        }
    }
}

/// Journal record for one committed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalEntry {
    /// FNV-1a 64 digest over the job's artifact names and bytes.
    pub digest: u64,
    /// Artifact file names, in write order.
    pub files: Vec<String>,
    /// Counter snapshot from the job's run (sorted by name): every
    /// simulator the job built drained its walk, snoop, HitME, directory,
    /// DRAM, and QPI counters here. Not part of the artifact digest —
    /// metrics describe the run, not the result.
    pub metrics: Vec<(String, u64)>,
    /// Per-channel telemetry totals (sorted by name), present when the
    /// campaign sampled telemetry. Like `metrics`, not digested.
    pub telemetry: Vec<(String, u64)>,
}

/// Per-job outcome in the final summary.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Job id.
    pub id: String,
    /// Journal record the job committed (or resumed).
    pub entry: JournalEntry,
    /// True when the job was skipped because the journal already had a
    /// verified entry for it.
    pub resumed: bool,
    /// Full simulated-time series the job sampled (jobs run this
    /// invocation with telemetry on; journal-resumed jobs keep only
    /// the totals in their entry).
    pub sampler: Option<TelemetrySampler>,
}

/// Full campaign outcome.
#[derive(Debug, Clone, Default)]
pub struct CampaignSummary {
    /// Jobs that committed this run or verified on resume.
    pub completed: Vec<JobReport>,
    /// `(job id, error)` for jobs that failed.
    pub failed: Vec<(String, String)>,
}

impl CampaignSummary {
    /// Campaign-wide counter totals, summed over every completed job
    /// (including journal-resumed ones, whose metrics were persisted).
    pub fn metrics_totals(&self) -> Vec<(String, u64)> {
        let totals = sum_by_name(self.completed.iter().map(|r| &r.entry.metrics));
        totals.into_iter().map(|(n, v)| (n.to_string(), v)).collect()
    }

    /// The merged simulated-time series over every job that actually ran
    /// (and sampled) this invocation, or `None` when nothing sampled.
    /// Job sims all start at simulated time zero, so the merge is an
    /// aggregate activity profile; the merge order does not matter.
    pub fn telemetry_merged(&self) -> Option<TelemetrySampler> {
        let mut merged: Option<TelemetrySampler> = None;
        for r in &self.completed {
            if let Some(s) = &r.sampler {
                match &mut merged {
                    Some(m) => m.merge(s.clone()),
                    None => merged = Some(s.clone()),
                }
            }
        }
        merged
    }
}

impl CampaignSummary {
    /// Whether every job committed.
    pub fn ok(&self) -> bool {
        self.failed.is_empty()
    }
}

impl fmt::Display for CampaignSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in &self.completed {
            writeln!(
                f,
                "{:<18} {} digest={:016x}",
                r.id,
                if r.resumed { "skipped (journal)" } else { "done             " },
                r.entry.digest,
            )?;
        }
        for (id, err) in &self.failed {
            writeln!(f, "{id:<18} FAILED: {err}")?;
        }
        let status = if self.ok() { "completed" } else { "completed with failures" };
        writeln!(
            f,
            "campaign {status}: {} done, {} failed",
            self.completed.len(),
            self.failed.len()
        )
    }
}

/// Supervised job runner (see module docs).
pub struct Supervisor {
    cfg: SupervisorConfig,
}

impl Supervisor {
    /// Build a supervisor with the given policy.
    pub fn new(cfg: SupervisorConfig) -> Self {
        Supervisor { cfg }
    }

    /// Run each of `jobs` once and return the summary. Errors only on
    /// environmental problems (unwritable output directory, corrupt
    /// journal header); job failures are reported in the summary instead.
    pub fn run(&self, jobs: &[JobSpec]) -> Result<CampaignSummary, String> {
        let cfg = &self.cfg;
        std::fs::create_dir_all(&cfg.out_dir)
            .map_err(|e| format!("{}: {e}", cfg.out_dir.display()))?;

        let mut summary = CampaignSummary::default();
        let mut done: BTreeMap<String, JournalEntry> = BTreeMap::new();
        if cfg.resume {
            for (id, entry) in self.load_journal()? {
                // A missing or mismatched artifact silently falls through
                // to a rerun: the journal promises at-least-once, the
                // digest check upgrades it to exactly-the-same-bytes.
                // Entries of jobs outside this run are kept as they are.
                if self.verify_entry(&entry) {
                    done.insert(id.clone(), entry.clone());
                    summary.completed.push(JobReport { id, entry, resumed: true, sampler: None });
                }
            }
        }

        for job in jobs {
            if done.contains_key(job.id) {
                continue;
            }
            match self.run_job(job, &mut done) {
                Ok(report) => summary.completed.push(report),
                Err(e) => summary.failed.push((job.id.to_string(), e)),
            }
        }
        self.write_manifest(&done)?;
        Ok(summary)
    }

    /// Run one job once, then atomically persist its artifacts and
    /// journal entry. A panic fails the job.
    fn run_job(
        &self,
        job: &JobSpec,
        done: &mut BTreeMap<String, JournalEntry>,
    ) -> Result<JobReport, String> {
        // Per-job checkpoint store: cells measured before a crash or kill
        // survive under `<out_dir>/.ckpt-<job>` and are replayed
        // bit-exactly on the rerun; the commit below discards the file
        // once the journal holds the finished artifact.
        let checkpoint = CheckpointStore::open(
            self.cfg.out_dir.join(format!(".ckpt-{}", job.id)),
            self.cfg.fsync,
        );
        // The ambient registry reaches every `System` the job constructs,
        // including on the cell runner's pool threads: each simulator
        // drains its counters into it on drop.
        let registry = Arc::new(MetricsRegistry::new());
        let _metrics = MetricsRegistry::set_ambient(Arc::clone(&registry));
        // Telemetry rides the same ambient pattern: every simulator the
        // job builds samples into a fresh per-job hub.
        let hub = self
            .cfg
            .telemetry
            .then(|| Arc::new(TelemetryHub::default()));
        let _telemetry = hub.as_ref().map(|h| TelemetryHub::set_ambient(Arc::clone(h)));
        let run = || job.run(Some(&checkpoint));
        let output = catch_unwind(AssertUnwindSafe(run)).map_err(panic_message)?;
        for (name, body) in &output.files {
            let path = self.cfg.out_dir.join(name);
            atomic_write(&path, body.as_bytes(), self.cfg.fsync)
                .map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let sampler = hub.map(|h| h.collect()).filter(|s| !s.is_empty());
        let telemetry = sampler.as_ref().map_or_else(Vec::new, |s| {
            let mut totals: Vec<(String, u64)> = s
                .channel_names()
                .iter()
                .map(|n| (n.to_string(), s.channel_total(n)))
                .collect();
            totals.sort();
            totals
        });
        let entry = JournalEntry {
            digest: digest_output(&output),
            files: output.files.iter().map(|(n, _)| n.clone()).collect(),
            metrics: registry.counters_snapshot(),
            telemetry,
        };
        done.insert(job.id.to_string(), entry.clone());
        self.persist_journal(done)?;
        // The journal is now the durable record; the mid-job checkpoint
        // has served its purpose.
        checkpoint.discard();
        Ok(JobReport { id: job.id.to_string(), entry, resumed: false, sampler })
    }

    fn persist_journal(&self, entries: &BTreeMap<String, JournalEntry>) -> Result<(), String> {
        let mut text = format!("{JOURNAL_MAGIC}\n");
        for (id, e) in entries {
            text.push_str(&format!(
                "done {id} digest={:016x} files={}{}{}\n",
                e.digest,
                e.files.join(","),
                render_totals("metrics", &e.metrics),
                render_totals("telemetry", &e.telemetry),
            ));
        }
        atomic_write(&self.cfg.journal, text.as_bytes(), self.cfg.fsync)
            .map_err(|e| format!("{}: {e}", self.cfg.journal.display()))
    }

    /// Parse the journal. A missing file is an empty journal; a file
    /// whose header is not [`JOURNAL_MAGIC`] (another format version, or
    /// not a journal at all) is an error. Malformed body lines are
    /// skipped — the worst outcome of a lost line is rerunning one
    /// deterministic job.
    fn load_journal(&self) -> Result<Vec<(String, JournalEntry)>, String> {
        let text = match std::fs::read_to_string(&self.cfg.journal) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(format!("{}: {e}", self.cfg.journal.display())),
        };
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        if header != JOURNAL_MAGIC {
            return Err(format!(
                "{}: not a {JOURNAL_MAGIC} journal (header {header:?}); start a fresh journal",
                self.cfg.journal.display()
            ));
        }
        let mut out = Vec::new();
        for line in lines {
            if let Some(entry) = parse_done_line(line) {
                out.push(entry);
            }
        }
        Ok(out)
    }

    /// Re-verify a journal entry against the bytes on disk.
    fn verify_entry(&self, entry: &JournalEntry) -> bool {
        let mut output = JobOutput::default();
        for name in &entry.files {
            match std::fs::read_to_string(self.cfg.out_dir.join(name)) {
                Ok(body) => output.files.push((name.clone(), body)),
                Err(_) => return false,
            }
        }
        digest_output(&output) == entry.digest
    }

    /// Write `manifest.txt`: one line per committed artifact set, so a
    /// consumer can check campaign completeness without parsing the
    /// journal.
    fn write_manifest(&self, entries: &BTreeMap<String, JournalEntry>) -> Result<(), String> {
        let mut text = String::new();
        for (id, e) in entries {
            text.push_str(&format!("{id} {:016x} {}\n", e.digest, e.files.join(" ")));
        }
        // Campaign-wide counter and telemetry totals, as comments so
        // completeness checkers that read one line per artifact set are
        // unaffected.
        for (title, totals) in [
            ("metrics (summed over jobs)", sum_by_name(entries.values().map(|e| &e.metrics))),
            (
                "telemetry (per-channel totals, summed over jobs)",
                sum_by_name(entries.values().map(|e| &e.telemetry)),
            ),
        ] {
            if !totals.is_empty() {
                text.push_str(&format!("# {title}\n"));
                for (name, v) in &totals {
                    text.push_str(&format!("# {name} {v}\n"));
                }
            }
        }
        // Exact reproduction recipe: the command, naming the jobs listed
        // above (`select_jobs` runs them in registry order), and the
        // reference-config digest this campaign ran under.
        // Comment-prefixed so one-line-per-artifact consumers are
        // unaffected.
        let ids: Vec<&str> = entries.keys().map(String::as_str).collect();
        text.push_str(&format!(
            "# reproduce: hswx campaign --out <dir> --jobs {}  (config digest {:016x})\n",
            ids.join(","),
            reference_digest(),
        ));
        let path = self.cfg.out_dir.join("manifest.txt");
        atomic_write(&path, text.as_bytes(), self.cfg.fsync)
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Order-sensitive FNV-1a digest over artifact names and bytes.
fn digest_output(output: &JobOutput) -> u64 {
    let mut h = fnv1a64(b"hswx-job-artifacts-v1");
    for (name, body) in &output.files {
        h = fnv1a64_extend(h, name.as_bytes());
        h = fnv1a64_extend(h, &[0]);
        h = fnv1a64_extend(h, body.as_bytes());
        h = fnv1a64_extend(h, &[0]);
    }
    h
}

/// Per-name sums over `snapshots`, in name order.
fn sum_by_name<'a>(
    snapshots: impl Iterator<Item = &'a Vec<(String, u64)>>,
) -> BTreeMap<&'a str, u64> {
    let mut totals = BTreeMap::new();
    for (name, v) in snapshots.flatten() {
        *totals.entry(name.as_str()).or_insert(0) += v;
    }
    totals
}

/// Render a named-total snapshot as a ` <key>=name:value,...` journal
/// suffix (empty string when there are no pairs). Names never contain
/// whitespace, commas, or colons, so the encoding is unambiguous.
fn render_totals(key: &str, pairs: &[(String, u64)]) -> String {
    if pairs.is_empty() {
        return String::new();
    }
    let body: Vec<String> = pairs.iter().map(|(n, v)| format!("{n}:{v}")).collect();
    format!(" {key}={}", body.join(","))
}

/// Parse the value side of a ` <key>=name:value,...` suffix. Malformed
/// pairs are dropped rather than failing the whole line.
fn parse_totals(v: &str) -> Vec<(String, u64)> {
    v.split(',')
        .filter_map(|pair| {
            let (n, val) = pair.split_once(':')?;
            Some((n.to_string(), val.parse().ok()?))
        })
        .collect()
}

fn parse_done_line(line: &str) -> Option<(String, JournalEntry)> {
    let mut parts = line.split_whitespace();
    if parts.next()? != "done" {
        return None;
    }
    let id = parts.next()?.to_string();
    let mut digest = None;
    let mut files = None;
    let mut metrics = Vec::new();
    let mut telemetry = Vec::new();
    for kv in parts {
        let (k, v) = kv.split_once('=')?;
        match k {
            "digest" => digest = u64::from_str_radix(v, 16).ok(),
            "files" => files = Some(v.split(',').map(str::to_string).collect()),
            // Both absent in older journals; malformed pairs are dropped
            // rather than failing the whole line.
            "metrics" => metrics = parse_totals(v),
            "telemetry" => telemetry = parse_totals(v),
            // Forward compatibility: ignore unknown keys (and `attempts`,
            // which older journals carry).
            _ => {}
        }
    }
    Some((id, JournalEntry { digest: digest?, files: files?, metrics, telemetry }))
}

/// Select `ids` from `all`, keeping the registry's order. Unknown ids are
/// an error.
pub fn select_jobs(all: &[JobSpec], ids: &[&str]) -> Result<Vec<JobSpec>, String> {
    if let Some(id) = ids.iter().find(|id| !all.iter().any(|j| j.id == **id)) {
        let available: Vec<&str> = all.iter().map(|j| j.id).collect();
        return Err(format!("unknown job `{id}` (available: {})", available.join(", ")));
    }
    Ok(all.iter().filter(|j| ids.contains(&j.id)).copied().collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::Cells;
    use hswx_engine::SimTime;
    use hswx_haswell::{CoherenceMode, System, SystemConfig};
    use hswx_mem::{CoreId, LineAddr};
    use std::path::Path;
    use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("hswx-supervisor-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn cfg_for(dir: &Path) -> SupervisorConfig {
        SupervisorConfig {
            out_dir: dir.to_path_buf(),
            journal: dir.join("campaign.journal"),
            ..SupervisorConfig::default()
        }
    }

    fn ok_job(_: &mut Cells) -> JobOutput {
        JobOutput { files: vec![("ok.txt".into(), "payload\n".into())] }
    }

    fn dep_job(_: &mut Cells) -> JobOutput {
        JobOutput { files: vec![("dep.txt".into(), "dep\n".into())] }
    }

    /// Calls of `always_panics`.
    static PANICKING_CALLS: AtomicU32 = AtomicU32::new(0);

    fn always_panics(_: &mut Cells) -> JobOutput {
        PANICKING_CALLS.fetch_add(1, Ordering::Relaxed);
        panic!("deliberate job failure");
    }

    #[test]
    fn runs_jobs_in_the_given_order_and_journals() {
        let dir = tmp_dir("basic");
        let sup = Supervisor::new(cfg_for(&dir));
        let jobs =
            [JobSpec { id: "second", build: ok_job }, JobSpec { id: "first", build: dep_job }];
        let summary = sup.run(&jobs).unwrap();
        assert!(summary.ok(), "{summary}");
        let ran: Vec<&str> = summary.completed.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ran, ["second", "first"]);
        let journal = std::fs::read_to_string(dir.join("campaign.journal")).unwrap();
        assert!(journal.starts_with(JOURNAL_MAGIC), "{journal}");
        assert!(journal.contains("done first") && journal.contains("done second"));
        assert!(dir.join("manifest.txt").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_skips_verified_jobs_and_reruns_tampered_ones() {
        let dir = tmp_dir("resume");
        let jobs = [JobSpec { id: "a", build: dep_job }, JobSpec { id: "b", build: ok_job }];
        let sup = Supervisor::new(cfg_for(&dir));
        assert!(sup.run(&jobs).unwrap().ok());

        let mut cfg = cfg_for(&dir);
        cfg.resume = true;
        let summary = Supervisor::new(cfg.clone()).run(&jobs).unwrap();
        assert!(summary.completed.iter().all(|r| r.resumed), "{summary}");

        // Tamper with one artifact: its digest no longer verifies, so
        // only that job reruns.
        std::fs::write(dir.join("dep.txt"), "corrupted").unwrap();
        let summary = Supervisor::new(cfg).run(&jobs).unwrap();
        let a = summary.completed.iter().find(|r| r.id == "a").unwrap();
        let b = summary.completed.iter().find(|r| r.id == "b").unwrap();
        assert!(!a.resumed && b.resumed, "{summary}");
        assert_eq!(std::fs::read_to_string(dir.join("dep.txt")).unwrap(), "dep\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_refuses_a_v2_journal() {
        // A v2 journal may mark an entry degraded (shed sweep points), so
        // its entries cannot be trusted as complete.
        let dir = tmp_dir("v2");
        std::fs::create_dir_all(&dir).unwrap();
        let v2 = "hswx-campaign v2\n\
                  done a digest=00000000000000ff attempts=1 degraded=1 files=dep.txt\n";
        std::fs::write(dir.join("campaign.journal"), v2).unwrap();
        let mut cfg = cfg_for(&dir);
        cfg.resume = true;
        let jobs = [JobSpec { id: "a", build: dep_job }];
        let err = Supervisor::new(cfg).run(&jobs).unwrap_err();
        assert!(err.contains("not a hswx-campaign v3 journal"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_job_does_not_stop_the_next() {
        let dir = tmp_dir("failed");
        let jobs = [
            JobSpec { id: "bad", build: always_panics },
            JobSpec { id: "next", build: ok_job },
            JobSpec { id: "last", build: dep_job },
        ];
        let summary = Supervisor::new(cfg_for(&dir)).run(&jobs).unwrap();
        assert!(!summary.ok(), "{summary}");
        assert_eq!(summary.failed.len(), 1);
        assert!(summary.failed[0].1.contains("deliberate job failure"));
        // The failed job runs once: being deterministic, it would only
        // fail the same way again.
        assert_eq!(PANICKING_CALLS.load(Ordering::Relaxed), 1);
        let ran: Vec<&str> = summary.completed.iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ran, ["next", "last"], "{summary}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_lines_round_trip() {
        let entry = JournalEntry {
            digest: 0xdead_beef_0102_0304,
            files: vec!["x.txt".into(), "x.csv".into()],
            metrics: vec![("snoop.sent".into(), 42), ("sys.walks".into(), 7)],
            telemetry: vec![("qpi.bytes".into(), 640), ("ring.busy_ps".into(), 9000)],
        };
        let totals = format!(
            "{}{}",
            render_totals("metrics", &entry.metrics),
            render_totals("telemetry", &entry.telemetry)
        );
        let line = format!("done myjob digest={:016x} files=x.txt,x.csv{totals}", entry.digest);
        let (id, parsed) = parse_done_line(&line).unwrap();
        assert_eq!(id, "myjob");
        assert_eq!(parsed, entry);
        // Older journals carry an `attempts` count on every line; it is
        // ignored, so such a line parses into the same entry.
        let old =
            format!("done myjob digest={:016x} attempts=2 files=x.txt,x.csv{totals}", entry.digest);
        assert_eq!(parse_done_line(&old), Some(("myjob".to_string(), entry)));
        // Pre-metrics journals parse with empty metrics.
        let legacy = "done old digest=00000000000000ff attempts=1 files=a.csv";
        let (_, old) = parse_done_line(legacy).unwrap();
        assert!(old.metrics.is_empty());
        assert!(parse_done_line("garbage line").is_none());
        assert!(parse_done_line("done only_id").is_none());
    }

    /// While set, every cell of `sweep_job` after the third panics: a
    /// stand-in for a campaign killed mid-job.
    static SWEEP_DIES: AtomicBool = AtomicBool::new(false);
    /// Cells `sweep_job` measured (rather than replayed).
    static SWEEP_MEASURED: AtomicU32 = AtomicU32::new(0);

    /// Eight-cell job; the runner records each cell in the checkpoint.
    fn sweep_job(m: &mut Cells) -> JobOutput {
        let mut body = String::new();
        for size in 0u64..8 {
            let v = m.cell("sweep", "sqrt", size, move || {
                assert!(size < 3 || !SWEEP_DIES.load(Ordering::Relaxed), "killed mid-sweep");
                SWEEP_MEASURED.fetch_add(1, Ordering::Relaxed);
                (size as f64).sqrt() + 0.125
            });
            body.push_str(&format!("{size} {v:.17}\n"));
        }
        JobOutput { files: vec![("sweep.txt".into(), body)] }
    }

    #[test]
    fn killed_sweep_resumes_from_checkpoint_byte_identically() {
        // Reference: uninterrupted run.
        let ref_dir = tmp_dir("ckpt-ref");
        let jobs = [JobSpec { id: "sweep", build: sweep_job }];
        assert!(Supervisor::new(cfg_for(&ref_dir)).run(&jobs).unwrap().ok());
        let reference = std::fs::read(ref_dir.join("sweep.txt")).unwrap();

        // Interrupted run: the job dies after 3 cells, so the campaign
        // fails — but the checkpoint survives.
        let dir = tmp_dir("ckpt-kill");
        let cfg = cfg_for(&dir);
        SWEEP_DIES.store(true, Ordering::Relaxed);
        let summary = Supervisor::new(cfg.clone()).run(&jobs).unwrap();
        SWEEP_DIES.store(false, Ordering::Relaxed);
        assert_eq!(summary.failed.len(), 1, "{summary}");
        // The job's error names every failed cell, and only those.
        let named = |s: u64| summary.failed[0].1.contains(&format!(r#"["sweep", "sqrt", "{s}"]"#));
        assert!((3..8).all(named) && !(0..3).any(named), "{summary}");
        let ckpt_path = dir.join(".ckpt-sweep");
        assert!(ckpt_path.exists(), "checkpoint must survive the kill");
        assert_eq!(
            crate::checkpoint::CheckpointStore::open(ckpt_path.clone(), false).len(),
            3
        );

        // Resume: only the five missing cells are measured, artifact bytes
        // match the uninterrupted run, checkpoint is discarded after commit.
        SWEEP_MEASURED.store(0, Ordering::Relaxed);
        let summary = Supervisor::new(cfg).run(&jobs).unwrap();
        assert!(summary.ok(), "{summary}");
        assert_eq!(SWEEP_MEASURED.load(Ordering::Relaxed), 5);
        assert_eq!(std::fs::read(dir.join("sweep.txt")).unwrap(), reference);
        assert!(!ckpt_path.exists(), "commit discards the checkpoint");
        let _ = std::fs::remove_dir_all(&ref_dir);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_keeps_the_entries_of_jobs_outside_the_run() {
        let dir = tmp_dir("resume-subset");
        let jobs = [JobSpec { id: "ok", build: ok_job }, JobSpec { id: "other", build: dep_job }];
        let mut cfg = cfg_for(&dir);
        assert!(Supervisor::new(cfg.clone()).run(&jobs).unwrap().ok());
        // Resuming only `ok` after its artifact was tampered with reruns
        // it and keeps the entry of `other`, which this run does not
        // execute.
        std::fs::write(dir.join("ok.txt"), "corrupted").unwrap();
        cfg.resume = true;
        let one = Supervisor::new(cfg).run(&jobs[..1]).unwrap();
        let resumed: Vec<_> = one.completed.iter().map(|r| (r.id.as_str(), r.resumed)).collect();
        assert_eq!(resumed, [("other", true), ("ok", false)], "{one}");
        for name in ["campaign.journal", "manifest.txt"] {
            let text = std::fs::read_to_string(dir.join(name)).unwrap();
            assert!(text.contains("dep.txt"), "{name} dropped `other`:\n{text}");
        }
        assert_eq!(std::fs::read_to_string(dir.join("ok.txt")).unwrap(), "payload\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_carries_a_reproduce_line() {
        let dir = tmp_dir("manifest");
        let all = ["a", "b", "c"].map(|id| JobSpec { id, build: dep_job });
        let jobs = select_jobs(&all, &["c", "a"]).unwrap();
        assert!(Supervisor::new(cfg_for(&dir)).run(&jobs).unwrap().ok());
        let manifest = std::fs::read_to_string(dir.join("manifest.txt")).unwrap();
        let line = manifest
            .lines()
            .find(|l| l.starts_with("# reproduce:"))
            .unwrap_or_else(|| panic!("no reproduce line in {manifest}"));
        // Followed as written, the line reruns exactly the two jobs.
        assert!(line.contains("hswx campaign --out <dir> --jobs a,c  "), "{line}");
        assert!(line.contains("config digest"), "{line}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Drives a small simulator so ambient telemetry has something to see.
    fn sim_job(_: &mut Cells) -> JobOutput {
        let mut sys = System::new(SystemConfig::e5_2680_v3(CoherenceMode::SourceSnoop));
        let mut t = SimTime::ZERO;
        for i in 0..64u64 {
            let out = sys.read(CoreId(0), LineAddr(i % 32), t);
            t = out.done;
        }
        JobOutput { files: vec![("sim.txt".into(), format!("{}\n", sys.stats.snoops_sent))] }
    }

    #[test]
    fn telemetry_flows_into_journal_manifest_and_summary() {
        let dir = tmp_dir("telemetry");
        let mut cfg = cfg_for(&dir);
        cfg.telemetry = true;
        let jobs = [JobSpec { id: "sim", build: sim_job }];
        let summary = Supervisor::new(cfg.clone()).run(&jobs).unwrap();
        assert!(summary.ok(), "{summary}");
        let report = summary.completed[0].clone();
        assert!(report.sampler.is_some(), "job ran with telemetry but sampled nothing");
        let entry_ring =
            report.entry.telemetry.iter().find(|(n, _)| n == "ring.busy_ps").unwrap().1;
        assert!(entry_ring > 0, "{:?}", report.entry.telemetry);
        let merged = summary.telemetry_merged().unwrap();
        assert_eq!(merged.channel_total("ring.busy_ps"), entry_ring);

        // The journal persists the totals, so resume keeps them (but not
        // the full series — only jobs that ran this invocation carry one).
        let journal = std::fs::read_to_string(&cfg.journal).unwrap();
        assert!(journal.contains(" telemetry="), "{journal}");
        cfg.resume = true;
        let resumed = Supervisor::new(cfg).run(&jobs).unwrap();
        assert!(resumed.completed[0].resumed);
        assert_eq!(resumed.completed[0].entry.telemetry, report.entry.telemetry);
        assert!(resumed.telemetry_merged().is_none());
        let manifest = std::fs::read_to_string(dir.join("manifest.txt")).unwrap();
        assert!(manifest.contains("# telemetry"), "{manifest}");
        assert!(manifest.contains(&format!("\n# ring.busy_ps {entry_ring}\n")), "{manifest}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn telemetry_off_leaves_journal_and_reports_clean() {
        let dir = tmp_dir("telemetry-off");
        let jobs = [JobSpec { id: "sim", build: sim_job }];
        let summary = Supervisor::new(cfg_for(&dir)).run(&jobs).unwrap();
        assert!(summary.ok(), "{summary}");
        assert!(summary.completed[0].sampler.is_none());
        assert!(summary.completed[0].entry.telemetry.is_empty());
        assert!(summary.telemetry_merged().is_none());
        // Counters flow with telemetry off: sim_job's simulator drained
        // them ambiently into the job's entry.
        let totals = summary.metrics_totals();
        assert!(totals.iter().any(|(n, v)| n == "sys.walks" && *v > 0), "{totals:?}");
        let journal = std::fs::read_to_string(dir.join("campaign.journal")).unwrap();
        assert!(!journal.contains("telemetry="), "{journal}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn select_jobs_keeps_registry_order() {
        let all = crate::jobs::registry();
        let picked = select_jobs(&all, &["fig4", "table1"]).unwrap();
        let ids: Vec<&str> = picked.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec!["table1", "fig4"]);
        assert!(select_jobs(&all, &["fig4", "nope"]).is_err());
    }

    #[test]
    fn each_job_is_built_once() {
        // Two independent jobs without cells; each is built exactly once.
        static CALLS: AtomicU32 = AtomicU32::new(0);
        fn counting(_: &mut Cells) -> JobOutput {
            CALLS.fetch_add(1, Ordering::Relaxed);
            JobOutput { files: vec![("c.txt".into(), "c\n".into())] }
        }
        let dir = tmp_dir("counter");
        let jobs = [JobSpec { id: "c1", build: counting }, JobSpec { id: "c2", build: counting }];
        let summary = Supervisor::new(cfg_for(&dir)).run(&jobs).unwrap();
        assert!(summary.ok());
        assert_eq!(CALLS.load(Ordering::Relaxed), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
