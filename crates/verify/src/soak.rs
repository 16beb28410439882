//! Randomized chaos soak: mixed campaigns under a wall-clock budget.
//!
//! Each soak *round* derives everything from the run seed and the round
//! index, builds a fresh system under the strict invariant monitor, and
//! stresses the robustness surface end to end:
//!
//! 1. **Mixed walks** — a seeded sequence of reads and writes from random
//!    cores to random lines on every NUMA node, with recoverable
//!    transients (QPI CRC bursts, directory and HitME SRAM glitches)
//!    armed mid-stream. Transients must heal transparently: any typed
//!    error from a walk is a soak violation. Detect-only faults
//!    (dropped snoops) are deliberately *not* injected — they corrupt
//!    state by design, and the monitor correctly flagging them would
//!    drown real signal.
//! 2. **Poison containment** — some rounds poison a line, require the
//!    typed [`SimError::Poisoned`] rejection on read *and* write, verify
//!    the blocked walks changed nothing, then retire the page and
//!    continue.
//! 3. **Mid-stream snapshot/restore** — the round snapshots the live
//!    system at a seeded cut point, restores a twin, replays the identical
//!    walk suffix on both, and requires byte-identical outcomes, state
//!    digests, and re-encoded frames. The original simulator is then
//!    *killed* (dropped) and the restored twin carries the round — so
//!    every round proves restore-then-continue, not just restore.
//! 4. **File round-trips** — the frame also travels through
//!    [`System::save_snapshot`] / [`System::load_snapshot`] on disk
//!    (whole-or-absent via `atomic_write`), and the loaded system must
//!    match digests.
//! 5. **Cancellation storms** — a cancelled (or zero-deadline) ambient
//!    [`CancelToken`] is installed, a fresh system is restored under it,
//!    and every walk must surface [`SimError::Cancelled`] *without
//!    touching state* (digest unchanged afterwards).
//!
//! Any violation or mismatch is recorded in the [`SoakReport`] (and the
//! failing snapshot pair is dumped to the output directory for offline
//! diffing); [`SoakReport::ok`] gates the `hswx soak` exit code.

use hswx_engine::{CancelToken, DetRng, Heartbeat, MetricsRegistry, SimTime};
use hswx_haswell::{
    CoherenceMode, MonitorConfig, SimError, System, SystemConfig, SYSTEM_SNAPSHOT_SCHEMA,
};
use hswx_mem::{CoreId, LineAddr};
use hswx_mem::NodeId;
use std::fmt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Parameters of one soak run.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Wall-clock budget; at least one round always runs.
    pub budget: Duration,
    /// Seed every round derives its choices from.
    pub seed: u64,
    /// Where failing snapshot pairs (and file round-trip scratch) land.
    /// `None` uses the system temp directory for scratch and skips pair
    /// dumps.
    pub out_dir: Option<PathBuf>,
}

/// One recorded soak failure: what broke and in which round, with enough
/// context to reproduce (`hswx soak --seed N` reruns the same rounds).
#[derive(Debug, Clone)]
pub struct SoakFailure {
    /// Round index the failure occurred in.
    pub round: u64,
    /// Human-readable description.
    pub what: String,
}

/// Aggregated result of a soak run.
#[derive(Debug, Clone)]
pub struct SoakReport {
    /// Seed of the run.
    pub seed: u64,
    /// Requested budget, in milliseconds.
    pub budget_ms: u64,
    /// Actual wall-clock spent, in milliseconds.
    pub elapsed_ms: u64,
    /// Rounds completed.
    pub rounds: u64,
    /// Total walks executed (original + twin replays + storms).
    pub walks: u64,
    /// In-memory snapshot/restore round-trips verified.
    pub snapshots: u64,
    /// On-disk save/load round-trips verified.
    pub file_round_trips: u64,
    /// Recoverable transients armed across all rounds.
    pub faults_injected: u64,
    /// Recovery events the transients caused (proof they fired).
    pub recovery_events: u64,
    /// Cancellation storms run.
    pub cancellation_storms: u64,
    /// Walks that correctly surfaced [`SimError::Cancelled`].
    pub cancelled_walks: u64,
    /// Monitor/typed-error violations (must be empty).
    pub violations: Vec<SoakFailure>,
    /// Snapshot/restore divergences (must be empty).
    pub mismatches: Vec<SoakFailure>,
    /// Protocol counter totals drained (ambiently) from every simulator
    /// the soak built, sorted by name — the same registry schema campaign
    /// metrics use, so `hswx explain diff` can compare soak runs too.
    pub metrics: Vec<(String, u64)>,
}

impl SoakReport {
    /// Whether the soak passed: zero violations, zero mismatches.
    pub fn ok(&self) -> bool {
        self.violations.is_empty() && self.mismatches.is_empty()
    }

    /// Machine-readable JSON rendering (for CI artifacts, validated
    /// against `schemas/soak-report.schema.json`). Hand-rolled like the
    /// campaign report writer — no external dependency, stable key order.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn failures(out: &mut String, key: &str, items: &[SoakFailure], trailing_comma: bool) {
            out.push_str(&format!("  \"{key}\": [\n"));
            for (i, f) in items.iter().enumerate() {
                out.push_str(&format!(
                    "    {{\"round\": {}, \"what\": \"{}\"}}{}\n",
                    f.round,
                    esc(&f.what),
                    if i + 1 == items.len() { "" } else { "," }
                ));
            }
            out.push_str(if trailing_comma { "  ],\n" } else { "  ]\n" });
        }
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"schema_version\": {},\n", SYSTEM_SNAPSHOT_SCHEMA));
        out.push_str(&format!("  \"budget_ms\": {},\n", self.budget_ms));
        out.push_str(&format!("  \"elapsed_ms\": {},\n", self.elapsed_ms));
        out.push_str(&format!("  \"rounds\": {},\n", self.rounds));
        out.push_str(&format!("  \"walks\": {},\n", self.walks));
        out.push_str(&format!("  \"snapshots\": {},\n", self.snapshots));
        out.push_str(&format!("  \"file_round_trips\": {},\n", self.file_round_trips));
        out.push_str(&format!("  \"faults_injected\": {},\n", self.faults_injected));
        out.push_str(&format!("  \"recovery_events\": {},\n", self.recovery_events));
        out.push_str(&format!("  \"cancellation_storms\": {},\n", self.cancellation_storms));
        out.push_str(&format!("  \"cancelled_walks\": {},\n", self.cancelled_walks));
        out.push_str(&format!("  \"ok\": {},\n", self.ok()));
        out.push_str("  \"metrics\": {");
        for (i, (name, v)) in self.metrics.iter().enumerate() {
            out.push_str(&format!(
                "\"{}\": {v}{}",
                esc(name),
                if i + 1 < self.metrics.len() { ", " } else { "" }
            ));
        }
        out.push_str("},\n");
        failures(&mut out, "violations", &self.violations, true);
        failures(&mut out, "mismatches", &self.mismatches, false);
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for SoakReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos soak: {} round{} in {:.1}s (seed {:#x}, budget {:.1}s)",
            self.rounds,
            if self.rounds == 1 { "" } else { "s" },
            self.elapsed_ms as f64 / 1000.0,
            self.seed,
            self.budget_ms as f64 / 1000.0,
        )?;
        writeln!(
            f,
            "  {} walks, {} snapshot round-trips ({} through files), \
             {} transients armed ({} recovery events)",
            self.walks,
            self.snapshots,
            self.file_round_trips,
            self.faults_injected,
            self.recovery_events,
        )?;
        writeln!(
            f,
            "  {} cancellation storms ({} walks correctly refused)",
            self.cancellation_storms, self.cancelled_walks,
        )?;
        for v in &self.violations {
            writeln!(f, "  VIOLATION (round {}): {}", v.round, v.what)?;
        }
        for m in &self.mismatches {
            writeln!(f, "  MISMATCH (round {}): {}", m.round, m.what)?;
        }
        if self.ok() {
            writeln!(f, "  no violations, no mismatches")?;
        }
        Ok(())
    }
}

/// One pre-generated walk op: `(write?, core, line)`.
type Op = (bool, CoreId, LineAddr);

/// Per-round working state, threaded through the phases.
struct Round<'a> {
    idx: u64,
    rng: DetRng,
    report: &'a mut SoakReport,
    out_dir: Option<&'a Path>,
}

impl Round<'_> {
    fn violation(&mut self, what: String) {
        self.report.violations.push(SoakFailure { round: self.idx, what });
    }

    fn mismatch(&mut self, what: String) {
        self.report.mismatches.push(SoakFailure { round: self.idx, what });
    }

    /// Dump a failing snapshot pair for offline diffing.
    fn dump_pair(&mut self, tag: &str, original: &[u8], twin: &[u8]) {
        let Some(dir) = self.out_dir else { return };
        let base = format!("soak-{}-{tag}", self.idx);
        for (suffix, bytes) in [("orig", original), ("twin", twin)] {
            let path = dir.join(format!("{base}-{suffix}.snap"));
            let _ = hswx_engine::atomic_write(&path, bytes, false);
        }
    }

    /// A validated system config for this round: always a shipped preset
    /// base, with the soak-relevant knobs (mode, HitME sizing, prefetch)
    /// varied by the round RNG.
    fn pick_config(&mut self) -> SystemConfig {
        let mode = match self.rng.below(3) {
            0 => CoherenceMode::SourceSnoop,
            1 => CoherenceMode::HomeSnoop,
            _ => CoherenceMode::ClusterOnDie,
        };
        let mut cfg = SystemConfig::e5_8core(mode);
        cfg.hitme_entries = [8, 64, 224][self.rng.below(3) as usize];
        cfg.hitme_enabled = self.rng.chance(0.75);
        cfg.prefetch = self.rng.chance(0.5);
        cfg
    }

    /// Pre-generate the round's op sequence against `sys`'s topology.
    fn gen_ops(&mut self, sys: &System, n: u64) -> Vec<Op> {
        (0..n)
            .map(|_| {
                let node = NodeId(self.rng.below(sys.topo.n_nodes() as u64) as u8);
                let cores = sys.topo.cores_of_node(node);
                let core = cores[self.rng.below(cores.len() as u64) as usize];
                // Read mostly from the op's own node, sometimes across.
                let target = if self.rng.chance(0.7) {
                    node
                } else {
                    NodeId(self.rng.below(sys.topo.n_nodes() as u64) as u8)
                };
                let line = LineAddr(sys.topo.numa_base(target).line().0 + self.rng.below(2048));
                (self.rng.chance(0.25), core, line)
            })
            .collect()
    }

    /// Run `ops` on `sys`. Every op must succeed (transients heal
    /// transparently); a typed error is a soak violation and ends the
    /// round early.
    fn run_ops(&mut self, sys: &mut System, t: &mut SimTime, ops: &[Op]) -> bool {
        for &(write, core, line) in ops {
            let res =
                if write { sys.try_write(core, line, *t) } else { sys.try_read(core, line, *t) };
            match res {
                Ok(out) => {
                    *t = out.done;
                    self.report.walks += 1;
                }
                Err(e) => {
                    self.violation(format!(
                        "walk {} of line {:#x} by core {} failed: {e}",
                        if write { "write" } else { "read" },
                        line.0,
                        core.0,
                    ));
                    return false;
                }
            }
        }
        true
    }

    /// Arm one recoverable transient, chosen by the round RNG.
    fn arm_transient(&mut self, sys: &mut System) {
        let n = 1 + self.rng.below(3) as u32;
        match self.rng.below(3) {
            0 => sys.inject_qpi_crc(n),
            1 => sys.inject_dir_glitch(n),
            _ => sys.inject_hitme_glitch(n),
        }
        self.report.faults_injected += n as u64;
    }

    /// Poison containment: the poisoned line must refuse reads and writes
    /// with the typed error and without touching state; page retirement
    /// restores access.
    fn poison_exercise(&mut self, sys: &mut System, t: SimTime) {
        let node = NodeId(self.rng.below(sys.topo.n_nodes() as u64) as u8);
        let line = LineAddr(sys.topo.numa_base(node).line().0 + 4096 + self.rng.below(64));
        let core = sys.topo.cores_of_node(NodeId(0))[0];
        let digest_before = sys.state_digest();
        sys.inject_poison(line);
        self.report.faults_injected += 1;
        if !matches!(sys.try_read(core, line, t), Err(SimError::Poisoned { .. })) {
            self.violation(format!("poisoned line {:#x} did not refuse a read", line.0));
            return;
        }
        if !matches!(sys.try_write(core, line, t), Err(SimError::Poisoned { .. })) {
            self.violation(format!("poisoned line {:#x} did not refuse a write", line.0));
            return;
        }
        if !sys.clear_poison(line) {
            self.violation(format!("clear_poison({:#x}) found no poison", line.0));
            return;
        }
        if sys.state_digest() != digest_before {
            self.violation(format!(
                "blocked walks on poisoned line {:#x} mutated protocol state",
                line.0
            ));
            return;
        }
        if let Err(e) = sys.try_read(core, line, t) {
            self.violation(format!("retired page {:#x} still refuses reads: {e}", line.0));
        } else {
            self.report.walks += 1;
        }
    }

    /// Snapshot `sys`, restore a twin, and require bit-transparency.
    /// Returns the twin (the round continues on it — the original is the
    /// "killed" simulator).
    fn snapshot_twin(&mut self, sys: &System) -> Option<System> {
        let frame = sys.snapshot();
        let twin = match System::restore(&frame) {
            Ok(twin) => twin,
            Err(e) => {
                self.mismatch(format!("restore of a live snapshot failed: {e}"));
                return None;
            }
        };
        if twin.state_digest() != sys.state_digest() {
            let twin_frame = twin.snapshot();
            self.mismatch(format!(
                "restored digest {:#018x} != live digest {:#018x}",
                twin.state_digest(),
                sys.state_digest()
            ));
            self.dump_pair("digest", &frame, &twin_frame);
            return None;
        }
        let reframed = twin.snapshot();
        if reframed != frame {
            self.mismatch("re-encoded snapshot differs from the original frame".into());
            self.dump_pair("reencode", &frame, &reframed);
            return None;
        }
        self.report.snapshots += 1;
        Some(twin)
    }

    /// Push the frame through the filesystem and require the loaded
    /// system to match digests. Scratch file is removed on success.
    fn file_round_trip(&mut self, sys: &System, scratch_dir: &Path) {
        let path = scratch_dir.join(format!("soak-rt-{}-{}.snap", std::process::id(), self.idx));
        if let Err(e) = sys.save_snapshot(&path, false) {
            self.mismatch(format!("save_snapshot({}) failed: {e}", path.display()));
            return;
        }
        match System::load_snapshot(&path) {
            Ok(loaded) if loaded.state_digest() == sys.state_digest() => {
                self.report.file_round_trips += 1;
                let _ = std::fs::remove_file(&path);
            }
            Ok(loaded) => {
                self.mismatch(format!(
                    "loaded digest {:#018x} != live digest {:#018x} ({} kept for diffing)",
                    loaded.state_digest(),
                    sys.state_digest(),
                    path.display()
                ));
            }
            Err(e) => {
                self.mismatch(format!("load_snapshot({}) failed: {e}", path.display()));
            }
        }
    }

    /// Cancellation storm: restore a system under a cancelled ambient
    /// token; every walk must refuse with [`SimError::Cancelled`] and
    /// leave state untouched.
    fn cancellation_storm(&mut self, frame: &[u8], expected_digest: u64, ops: &[Op]) {
        let token = if self.rng.chance(0.5) {
            let t = CancelToken::new();
            t.cancel();
            t
        } else {
            // Zero budget: the deadline is already in the past. The hot
            // path only reads the clock every DEADLINE_STRIDE polls, so
            // latch the expiry eagerly — the storm models a supervisor
            // that *observed* the deadline pass, after which every walk
            // must refuse from the first poll.
            let t = CancelToken::with_deadline(Duration::ZERO);
            while !t.is_cancelled() {
                std::hint::spin_loop();
            }
            t
        };
        let storm = {
            let _guard = CancelToken::set_ambient(token);
            match System::restore(frame) {
                Ok(sys) => sys,
                Err(e) => {
                    self.mismatch(format!("restore under cancellation failed: {e}"));
                    return;
                }
            }
        };
        let mut storm = storm;
        self.report.cancellation_storms += 1;
        for &(write, core, line) in ops.iter().take(8) {
            let res = if write {
                storm.try_write(core, line, SimTime::ZERO)
            } else {
                storm.try_read(core, line, SimTime::ZERO)
            };
            match res {
                Err(SimError::Cancelled { .. }) => self.report.cancelled_walks += 1,
                Err(e) => {
                    self.violation(format!("cancelled walk raised the wrong error: {e}"));
                    return;
                }
                Ok(_) => {
                    self.violation("walk succeeded under a cancelled token".into());
                    return;
                }
            }
        }
        if storm.state_digest() != expected_digest {
            self.violation("cancelled walks mutated protocol state".into());
        }
    }
}

/// Run one soak round. Returns early (with the failure recorded) on the
/// first violation/mismatch so a broken invariant can't cascade into a
/// wall of secondary noise.
fn run_round(round: &mut Round<'_>, scratch_dir: &Path) {
    let cfg = round.pick_config();
    let mut sys = match System::try_new(cfg) {
        Ok(sys) => sys,
        Err(e) => {
            round.violation(format!("soak preset config rejected: {e}"));
            return;
        }
    };
    sys.enable_monitor(MonitorConfig::strict());

    let total = 160 + round.rng.below(160);
    let ops = round.gen_ops(&sys, total);
    let cut = (round.rng.below(total - 8) + 4) as usize;
    let (prefix, suffix) = ops.split_at(cut);

    // Phase 1: warm walks with transients armed mid-stream.
    let mut t = SimTime::ZERO;
    let transient_at = round.rng.below(cut as u64) as usize;
    let (before, after) = prefix.split_at(transient_at);
    if !round.run_ops(&mut sys, &mut t, before) {
        return;
    }
    round.arm_transient(&mut sys);
    if round.rng.chance(0.3) {
        round.arm_transient(&mut sys);
    }
    if !round.run_ops(&mut sys, &mut t, after) {
        return;
    }

    // Phase 2: poison containment (some rounds).
    if round.rng.chance(0.4) {
        round.poison_exercise(&mut sys, t);
        if !round.report.violations.is_empty() {
            return;
        }
    }

    // Phase 3: mid-stream snapshot; kill the original, continue on the
    // twin, replaying the suffix on both and demanding identical worlds.
    // A transient may still be pending here — pending fault state is part
    // of the frame, so both replicas heal it identically.
    if round.rng.chance(0.3) {
        round.arm_transient(&mut sys);
    }
    let Some(mut twin) = round.snapshot_twin(&sys) else { return };
    let mut t_twin = t;
    let ok_orig = round.run_ops(&mut sys, &mut t, suffix);
    let ok_twin = round.run_ops(&mut twin, &mut t_twin, suffix);
    if !(ok_orig && ok_twin) {
        return;
    }
    if t != t_twin || sys.state_digest() != twin.state_digest() {
        let (a, b) = (sys.snapshot(), twin.snapshot());
        round.mismatch(format!(
            "replayed suffix diverged: t {} vs {}, digest {:#018x} vs {:#018x}",
            t.0,
            t_twin.0,
            sys.state_digest(),
            twin.state_digest()
        ));
        round.dump_pair("replay", &a, &b);
        return;
    }
    round.report.recovery_events += sys.recovery.total_events();
    drop(sys); // the "kill": only the restored twin survives

    // Phase 4: push the surviving twin through a file round-trip.
    if round.rng.chance(0.5) {
        round.file_round_trip(&twin, scratch_dir);
        if !round.report.mismatches.is_empty() {
            return;
        }
    }

    // Phase 5: cancellation storm against the twin's final frame.
    if round.rng.chance(0.6) {
        let frame = twin.snapshot();
        let digest = twin.state_digest();
        round.cancellation_storm(&frame, digest, suffix);
    }
}

/// Run a chaos soak under `cfg`'s wall-clock budget.
pub fn run_soak(cfg: &SoakConfig) -> SoakReport {
    let mut report = SoakReport {
        seed: cfg.seed,
        budget_ms: cfg.budget.as_millis() as u64,
        elapsed_ms: 0,
        rounds: 0,
        walks: 0,
        snapshots: 0,
        file_round_trips: 0,
        faults_injected: 0,
        recovery_events: 0,
        cancellation_storms: 0,
        cancelled_walks: 0,
        violations: Vec::new(),
        mismatches: Vec::new(),
        metrics: Vec::new(),
    };
    if let Some(dir) = &cfg.out_dir {
        let _ = std::fs::create_dir_all(dir);
    }
    let scratch = cfg.out_dir.clone().unwrap_or_else(std::env::temp_dir);
    // Every simulator the soak builds drains its protocol counters here
    // on drop; the totals land in the report (and heartbeat) so soak runs
    // are diffable like campaigns.
    let registry = std::sync::Arc::new(MetricsRegistry::new());
    let _metrics = MetricsRegistry::set_ambient(std::sync::Arc::clone(&registry));
    let hb_path = cfg.out_dir.as_deref().map(|d| d.join("heartbeat.txt"));
    let start = Instant::now();
    let beat = |report: &SoakReport, status: &str| {
        let Some(path) = &hb_path else { return };
        let mut hb = Heartbeat::start("soak", 0);
        hb.status = status.to_string();
        hb.elapsed_ms = start.elapsed().as_millis() as u64;
        hb.done = report.rounds;
        hb.failed = (report.violations.len() + report.mismatches.len()) as u64;
        hb.metrics = registry.counters_snapshot();
        let _ = hb.write(path);
    };
    beat(&report, "running");
    let mut idx = 0u64;
    // At least one round; stop once the budget is spent or something broke
    // (a soak that keeps going after a failure buries the evidence).
    loop {
        let mut round = Round {
            idx,
            rng: DetRng::new(cfg.seed).fork(idx),
            report: &mut report,
            out_dir: cfg.out_dir.as_deref(),
        };
        run_round(&mut round, &scratch);
        report.rounds += 1;
        idx += 1;
        let stop = !report.ok() || start.elapsed() >= cfg.budget;
        if stop {
            break;
        }
        beat(&report, "running");
    }
    report.elapsed_ms = start.elapsed().as_millis() as u64;
    report.metrics = registry.counters_snapshot();
    beat(&report, if report.ok() { "done" } else { "failed" });
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_soak_is_clean_and_deterministic_in_shape() {
        let cfg = SoakConfig {
            budget: Duration::from_millis(200),
            seed: 0xDECAF,
            out_dir: None,
        };
        let report = run_soak(&cfg);
        assert!(report.ok(), "{report}");
        assert!(report.rounds >= 1);
        assert!(report.walks > 0);
        assert!(report.snapshots >= 1, "every clean round verifies a snapshot");
        assert!(
            report.metrics.iter().any(|(n, v)| n == "sys.walks" && *v > 0),
            "soak simulators should drain counters into the report: {:?}",
            report.metrics
        );
    }

    #[test]
    fn report_json_is_schema_shaped() {
        let report = SoakReport {
            seed: 7,
            budget_ms: 1000,
            elapsed_ms: 1042,
            rounds: 3,
            walks: 900,
            snapshots: 3,
            file_round_trips: 1,
            faults_injected: 5,
            recovery_events: 4,
            cancellation_storms: 2,
            cancelled_walks: 16,
            violations: vec![],
            mismatches: vec![SoakFailure { round: 2, what: "digest \"diff\"".into() }],
            metrics: vec![("snoop.sent".into(), 42), ("sys.walks".into(), 900)],
        };
        let json = report.to_json();
        assert!(json.contains("\"seed\": 7"));
        assert!(json.contains("\"ok\": false"));
        assert!(json.contains("\\\"diff\\\""), "failure text is escaped: {json}");
        assert!(json.contains("\"schema_version\""));
        assert!(
            json.contains("\"metrics\": {\"snoop.sent\": 42, \"sys.walks\": 900}"),
            "{json}"
        );
    }

    #[test]
    fn zero_budget_still_runs_one_round() {
        let cfg = SoakConfig { budget: Duration::ZERO, seed: 1, out_dir: None };
        let report = run_soak(&cfg);
        assert_eq!(report.rounds, 1);
        assert!(report.ok(), "{report}");
    }
}
