//! Supervisor heartbeats: a tiny crash-safe status file that
//! long-running drivers (campaign, soak) rewrite on every state change
//! and `hswx top` tails to render a live dashboard.
//!
//! The format is a plain `key=value` text block — atomic-rename
//! durable via [`crate::atomic_write`], so a reader never sees a torn
//! frame, and grep-friendly for humans:
//!
//! ```text
//! hswx-heartbeat v1
//! kind=campaign
//! status=running
//! elapsed_ms=1234
//! jobs_total=3
//! jobs_done=1
//! jobs_failed=0
//! jobs_inflight=2
//! retries=0
//! eta_ms=2468
//! metric=qpi.bytes 81920
//! metric=sys.walks 40000
//! ```
//!
//! `metric=` lines carry cumulative counter totals (repeatable, sorted
//! by name); `eta_ms` is present once at least one unit of work has
//! finished. Unknown keys are ignored on parse, so fields can be added
//! without breaking older readers.

use std::path::Path;

use crate::fsio::atomic_write;

/// Format version written in the first line.
pub const HEARTBEAT_MAGIC: &str = "hswx-heartbeat v1";

/// One progress frame of a long-running driver.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Heartbeat {
    /// What is running: `campaign`, `soak`, ...
    pub kind: String,
    /// `running`, `done`, or `failed`.
    pub status: String,
    /// Wall-clock milliseconds since the driver started.
    pub elapsed_ms: u64,
    /// Total work units (jobs, rounds).
    pub total: u64,
    /// Units finished successfully.
    pub done: u64,
    /// Units that failed permanently.
    pub failed: u64,
    /// Units currently running.
    pub inflight: u64,
    /// Extra attempts beyond the first, summed over units.
    pub retries: u64,
    /// Naive linear completion estimate, once `done > 0`.
    pub eta_ms: Option<u64>,
    /// Cumulative counter totals, sorted by name.
    pub metrics: Vec<(String, u64)>,
}

impl Heartbeat {
    /// A fresh `running` heartbeat for `kind` with `total` work units.
    pub fn start(kind: &str, total: u64) -> Heartbeat {
        Heartbeat {
            kind: kind.to_string(),
            status: "running".to_string(),
            total,
            ..Heartbeat::default()
        }
    }

    /// Recompute `eta_ms` from the current progress and `elapsed_ms`.
    pub fn update_eta(&mut self) {
        self.eta_ms = if self.done > 0 && self.total >= self.done {
            Some(self.elapsed_ms * (self.total - self.done) / self.done)
        } else {
            None
        };
    }

    /// Serialize to the heartbeat text format.
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "{HEARTBEAT_MAGIC}\nkind={}\nstatus={}\nelapsed_ms={}\n\
             jobs_total={}\njobs_done={}\njobs_failed={}\njobs_inflight={}\nretries={}\n",
            self.kind,
            self.status,
            self.elapsed_ms,
            self.total,
            self.done,
            self.failed,
            self.inflight,
            self.retries,
        );
        if let Some(eta) = self.eta_ms {
            out.push_str(&format!("eta_ms={eta}\n"));
        }
        for (name, v) in &self.metrics {
            out.push_str(&format!("metric={name} {v}\n"));
        }
        out
    }

    /// Parse a heartbeat file body. Unknown keys are skipped.
    pub fn parse(text: &str) -> Result<Heartbeat, String> {
        let mut lines = text.lines();
        let header = lines.next().unwrap_or_default();
        if header != HEARTBEAT_MAGIC {
            return Err(format!("not a heartbeat file (header {header:?})"));
        }
        let mut hb = Heartbeat::default();
        for line in lines {
            let Some((k, v)) = line.split_once('=') else { continue };
            match k {
                "kind" => hb.kind = v.to_string(),
                "status" => hb.status = v.to_string(),
                "elapsed_ms" => hb.elapsed_ms = v.parse().unwrap_or(0),
                "jobs_total" => hb.total = v.parse().unwrap_or(0),
                "jobs_done" => hb.done = v.parse().unwrap_or(0),
                "jobs_failed" => hb.failed = v.parse().unwrap_or(0),
                "jobs_inflight" => hb.inflight = v.parse().unwrap_or(0),
                "retries" => hb.retries = v.parse().unwrap_or(0),
                "eta_ms" => hb.eta_ms = v.parse().ok(),
                "metric" => {
                    if let Some((name, val)) = v.split_once(' ') {
                        if let Ok(val) = val.parse() {
                            hb.metrics.push((name.to_string(), val));
                        }
                    }
                }
                _ => {} // forward compatibility
            }
        }
        Ok(hb)
    }

    /// Atomically write this heartbeat to `path` (never fsynced — a lost
    /// heartbeat costs one stale dashboard frame, not correctness).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        atomic_write(path, self.to_text().as_bytes(), false)
    }

    /// Read and parse the heartbeat at `path`. `Ok(None)` when the file
    /// does not exist yet (driver still starting up).
    pub fn read(path: &Path) -> Result<Option<Heartbeat>, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => Heartbeat::parse(&text).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_roundtrip_preserves_every_field() {
        let mut hb = Heartbeat::start("campaign", 3);
        hb.elapsed_ms = 1000;
        hb.done = 1;
        hb.inflight = 2;
        hb.retries = 1;
        hb.metrics = vec![("qpi.bytes".into(), 640), ("sys.walks".into(), 8)];
        hb.update_eta();
        assert_eq!(hb.eta_ms, Some(2000));
        let back = Heartbeat::parse(&hb.to_text()).unwrap();
        assert_eq!(back, hb);
    }

    #[test]
    fn parse_rejects_garbage_and_skips_unknown_keys() {
        assert!(Heartbeat::parse("lol\n").is_err());
        let hb = Heartbeat::parse(&format!(
            "{HEARTBEAT_MAGIC}\nkind=soak\nfuture_key=1\nmetric=bad\njobs_done=2\n"
        ))
        .unwrap();
        assert_eq!(hb.kind, "soak");
        assert_eq!(hb.done, 2);
        assert!(hb.metrics.is_empty());
    }

    #[test]
    fn legacy_shard_lines_parse_and_are_skipped() {
        // Heartbeats from older writers carried `shards=` totals and
        // repeatable `shard=` lane lines; they must still parse.
        let legacy = format!(
            "{HEARTBEAT_MAGIC}\nkind=soak\nshards=2\nshard_restarts=3\n\
             shard=0 restarts=1 stalls=4 queue_hwm=96 msgs=1024\nshard=x\njobs_done=2\n"
        );
        let hb = Heartbeat::parse(&legacy).unwrap();
        assert_eq!(hb, Heartbeat { kind: "soak".into(), done: 2, ..Heartbeat::default() });
    }

    #[test]
    fn eta_absent_until_progress() {
        let mut hb = Heartbeat::start("soak", 10);
        hb.elapsed_ms = 500;
        hb.update_eta();
        assert_eq!(hb.eta_ms, None);
        assert!(!hb.to_text().contains("eta_ms"));
    }

    #[test]
    fn write_read_roundtrip() {
        let dir = std::env::temp_dir().join(format!("hswx-hb-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("heartbeat.txt");
        assert_eq!(Heartbeat::read(&path).unwrap(), None);
        let hb = Heartbeat::start("campaign", 5);
        hb.write(&path).unwrap();
        assert_eq!(Heartbeat::read(&path).unwrap(), Some(hb));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
