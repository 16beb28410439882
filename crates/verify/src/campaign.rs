//! Seeded fault-injection campaigns with detection coverage reporting.
//!
//! For every (coherence mode × fault class) cell the campaign builds a
//! fresh dual-socket system, runs a deterministic warmup that creates the
//! protocol state the fault needs (cross-node sharing, migratory dirty
//! lines, live HitME entries), injects the fault through the
//! [`hswx_haswell::inject`] hooks, then replays follow-up accesses under a
//! strict [`MonitorConfig`]: the runtime monitor must convert the
//! corruption into a typed [`hswx_haswell::SimError`].
//!
//! Every choice derives from the plan seed, so a failing cell reproduces
//! with the same seed and trial count.

use crate::plan::{FaultClass, FaultPlan};
use hswx_coherence::{DirState, MesifState, NodeSet};
use hswx_engine::{DetRng, SimTime};
use hswx_haswell::{CoherenceMode, MonitorConfig, System, SystemConfig};
use hswx_mem::{CoreId, LineAddr, NodeId};
use std::fmt;

/// Result of one campaign matrix cell.
#[derive(Debug, Clone, PartialEq)]
pub enum CellOutcome {
    /// The fault class does not exist in this mode (no directory / HitME).
    NotApplicable,
    /// Trials ran; `detected + missed` equals the plan's trial count.
    Tested {
        /// Trials where the monitor raised an error.
        detected: u32,
        /// Trials that completed silently — a detection gap.
        missed: u32,
        /// Example detection message from the first detected trial.
        example: Option<String>,
    },
}

/// One (mode, class) cell of the coverage matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixCell {
    /// Coherence mode the trials ran under.
    pub mode: CoherenceMode,
    /// Injected fault class.
    pub class: FaultClass,
    /// Aggregated trial outcome.
    pub outcome: CellOutcome,
}

/// Full campaign result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Seed the campaign derived every choice from.
    pub seed: u64,
    /// Trials per cell.
    pub trials: u32,
    /// All matrix cells, class-major in [`FaultClass::ALL`] order.
    pub cells: Vec<MatrixCell>,
}

impl CampaignReport {
    /// Whether every applicable cell detected every trial.
    pub fn all_detected(&self) -> bool {
        self.cells.iter().all(|c| match c.outcome {
            CellOutcome::NotApplicable => true,
            CellOutcome::Tested { missed, .. } => missed == 0,
        })
    }

    /// Cells with at least one missed trial.
    pub fn missed_cells(&self) -> Vec<&MatrixCell> {
        self.cells
            .iter()
            .filter(|c| matches!(c.outcome, CellOutcome::Tested { missed, .. } if missed > 0))
            .collect()
    }
}

impl CampaignReport {
    /// The class × mode matrix, classes in first-seen order.
    fn write_matrix(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut classes = Vec::new();
        for cell in &self.cells {
            if !classes.contains(&cell.class) {
                classes.push(cell.class);
            }
        }
        let modes = CoherenceMode::all();
        write!(f, "{:<22}", "fault class")?;
        for mode in modes {
            write!(f, "{:>14}", mode.label())?;
        }
        writeln!(f)?;
        for class in classes {
            write!(f, "{:<22}", class.name())?;
            for mode in modes {
                let cell = self.cells.iter().find(|c| c.class == class && c.mode == mode);
                let text = match cell.map(|c| &c.outcome) {
                    Some(CellOutcome::NotApplicable) => "n/a".to_string(),
                    Some(CellOutcome::Tested { detected, missed, .. }) => {
                        format!("{detected}/{}", detected + missed)
                    }
                    None => "-".to_string(),
                };
                write!(f, "{text:>14}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }

    /// Machine-readable JSON rendering (for `hswx faultcheck --json` and
    /// CI artifacts). Hand-rolled — no external dependency, stable key
    /// order.
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
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"seed\": {},\n", self.seed));
        out.push_str(&format!("  \"trials\": {},\n", self.trials));
        out.push_str(&format!("  \"all_passed\": {},\n", self.all_detected()));
        out.push_str("  \"cells\": [\n");
        for (i, cell) in self.cells.iter().enumerate() {
            let outcome = match &cell.outcome {
                CellOutcome::NotApplicable => "\"status\": \"n/a\"".to_string(),
                CellOutcome::Tested { detected, missed, example } => {
                    let ex = example
                        .as_ref()
                        .map(|e| format!(", \"example\": \"{}\"", esc(e)))
                        .unwrap_or_default();
                    format!("\"status\": \"tested\", \"passed\": {detected}, \"failed\": {missed}{ex}")
                }
            };
            out.push_str(&format!(
                "    {{\"mode\": \"{}\", \"class\": \"{}\", {}}}{}\n",
                cell.mode.label(),
                cell.class.name(),
                outcome,
                if i + 1 == self.cells.len() { "" } else { "," }
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fault-injection campaign ({} trial{} per cell, seed {:#x})",
            self.trials,
            if self.trials == 1 { "" } else { "s" },
            self.seed
        )?;
        if !self.cells.is_empty() {
            writeln!(f)?;
            writeln!(f, "detection matrix (monitor must raise a typed error):")?;
            self.write_matrix(f)?;
        }
        writeln!(f)?;
        if self.all_detected() {
            writeln!(f, "all injected faults detected")?;
        } else {
            for cell in self.missed_cells() {
                writeln!(f, "DETECTION GAP: {} in {} mode", cell.class.name(), cell.mode.label())?;
            }
        }
        Ok(())
    }
}

/// Run `plan` across all three coherence modes and collect the matrix.
pub fn run_campaign(plan: &FaultPlan) -> CampaignReport {
    let mut cells = Vec::new();
    for &class in &plan.classes {
        for mode in CoherenceMode::all() {
            let proto = mode.protocol();
            let applicable = (!class.requires_directory() || proto.directory)
                && (!class.requires_hitme() || proto.hitme);
            if !applicable {
                cells.push(MatrixCell { mode, class, outcome: CellOutcome::NotApplicable });
                continue;
            }
            let mut detected = 0;
            let mut missed = 0;
            let mut example = None;
            for trial in 0..plan.trials {
                match detect_trial(mode, class, plan.seed, trial) {
                    Some(msg) => {
                        detected += 1;
                        example.get_or_insert(msg);
                    }
                    None => missed += 1,
                }
            }
            cells.push(MatrixCell {
                mode,
                class,
                outcome: CellOutcome::Tested { detected, missed, example },
            });
        }
    }
    CampaignReport { seed: plan.seed, trials: plan.trials, cells }
}

fn trial_salt(mode: CoherenceMode, class: FaultClass, trial: u32) -> u64 {
    ((class as u64) << 40) ^ ((mode as u64) << 32) ^ trial as u64
}

/// One trial: corrupt protocol state or messages, then replay accesses
/// under the strict monitor, which must raise a typed error. Returns the
/// detection message, or `None` when the monitor stayed silent (or the
/// fault could not even be armed — an unarmable fault counts as a miss so
/// campaign setups cannot silently rot).
fn detect_trial(mode: CoherenceMode, class: FaultClass, seed: u64, trial: u32) -> Option<String> {
    let mut sys = System::new(SystemConfig::e5_2680_v3(mode));
    let salt = trial_salt(mode, class, trial);
    let mut rng = DetRng::new(seed).fork(salt);

    let home = NodeId(0);
    let base = sys.topo.numa_base(home).line();
    let line = LineAddr(base.0 + rng.below(1 << 14));
    // Neighbor used by follow-up accesses: close enough to stay homed in
    // node 0, far enough to never collide with the target line's sets.
    let follow = LineAddr(line.0 + 1 + rng.below(32));

    let core_home = sys.topo.cores_of_node(home)[0];
    let far_node = NodeId(sys.topo.n_nodes() - 1);
    let core_far = sys.topo.cores_of_node(far_node)[0];

    let mut t = SimTime::ZERO;

    // --- warmup + injection (monitor off: the warmup is fault-free) ---
    let armed = match class {
        FaultClass::MintForwarder | FaultClass::BreakMExclusivity => {
            // Home node reads (E), far node reads (forwarded: far=F,
            // home demotes to S). Corrupt the home's Shared copy.
            t = sys.read(core_home, line, t).done;
            t = sys.read(core_far, line, t).done;
            let state = if class == FaultClass::MintForwarder {
                MesifState::Forward
            } else {
                MesifState::Modified
            };
            sys.inject_l3_state(home, line, state)
        }
        FaultClass::DropL3Line => {
            t = sys.read(core_home, line, t).done;
            sys.inject_drop_l3(home, line)
        }
        FaultClass::ClearCoreValid => {
            t = sys.read(core_home, line, t).done;
            sys.inject_cv(home, line, 0)
        }
        FaultClass::DirUnderstate => {
            // Far node takes the line (E grant marks the directory).
            t = sys.read(core_far, line, t).done;
            sys.inject_dir_state(line, DirState::RemoteInvalid);
            sys.l3_meta(far_node, line).is_some()
        }
        FaultClass::HitMeDropNode | FaultClass::HitMeFalseClean => {
            // Build a migratory dirty line with a live HitME entry:
            // remote node 1 takes it E (directory -> SnoopAll), the far
            // node's read then snoops and gets a cross-node forward
            // (AllocateShared fires), and its RFO turns the entry into
            // {far}, clean=false with node-level M.
            let mid_node = NodeId(1);
            let core_mid = sys.topo.cores_of_node(mid_node)[0];
            t = sys.read(core_mid, line, t).done;
            t = sys.read(core_far, line, t).done;
            t = sys.write(core_far, line, t).done;
            let entry_ok = sys
                .hitme_entry(line)
                .is_some_and(|e| !e.clean && e.nodes.contains(far_node));
            let dirty = sys.l3_meta(far_node, line).map(|m| m.state) == Some(MesifState::Modified);
            entry_ok
                && dirty
                && if class == FaultClass::HitMeDropNode {
                    sys.inject_hitme(line, |e| e.nodes = NodeSet::only(home))
                } else {
                    sys.inject_hitme(line, |e| e.clean = true)
                }
        }
        FaultClass::CalibNegative => {
            t = sys.read(core_home, line, t).done;
            sys.inject_calib(|c| c.t_qpi = -3.0);
            true
        }
        FaultClass::CalibNan => {
            t = sys.read(core_home, line, t).done;
            sys.inject_calib(|c| c.t_l3_array = f64::NAN);
            true
        }
        FaultClass::DropSnoop | FaultClass::DelaySnoop => {
            // Far node owns the line dirty; the next read must snoop it.
            t = sys.write(core_far, line, t).done;
            let dirty = sys.l3_meta(far_node, line).map(|m| m.state) == Some(MesifState::Modified);
            if class == FaultClass::DropSnoop {
                sys.inject_snoop_drop(16);
            } else {
                sys.inject_snoop_delay(1_000_000.0, 16);
            }
            dirty
        }
    };
    if !armed {
        return None;
    }

    // --- detection: replay accesses under the strict monitor ---
    sys.enable_monitor(MonitorConfig::strict());
    let ops: Vec<(CoreId, LineAddr)> = match class {
        // Message faults only manifest on an access that needs the snoop.
        FaultClass::DropSnoop | FaultClass::DelaySnoop => vec![(core_home, line)],
        // State corruptions are visible to the global scan from any access.
        _ => vec![(core_home, follow), (core_far, follow)],
    };
    for (core, l) in ops {
        match sys.try_read(core, l, t) {
            Err(e) => return Some(e.to_string()),
            Ok(out) => t = out.done,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_campaign_detects_everything() {
        let report = run_campaign(&FaultPlan { trials: 1, ..FaultPlan::default() });
        assert!(report.all_detected(), "{report}");
    }

    #[test]
    fn report_renders_na_for_directory_classes_outside_cod() {
        let plan = FaultPlan { trials: 1, classes: vec![FaultClass::DirUnderstate], ..FaultPlan::default() };
        let report = run_campaign(&plan);
        let na = report
            .cells
            .iter()
            .filter(|c| c.outcome == CellOutcome::NotApplicable)
            .count();
        assert_eq!(na, 2, "source-snoop and home-snoop have no directory");
        assert!(report.all_detected(), "{report}");
    }
}
