//! Fault-injection hooks for robustness campaigns.
//!
//! These methods deliberately corrupt protocol state *behind the
//! protocol's back* — exactly what a simulator bug (or an SEU in real
//! directory SRAM) would do — so that fault-injection campaigns can verify
//! the runtime invariant monitor detects every class of corruption. They
//! are ordinary safe methods rather than `cfg(test)`-gated ones because
//! the `hswx-verify` campaign driver runs them from release binaries.
//!
//! All hooks are precise and silent: they touch only the targeted
//! structure, never update statistics, timings, or the trace, and report
//! whether the target existed so campaigns can distinguish "fault armed"
//! from "nothing to corrupt". Every fault here is *detect-only*: stale
//! directory bits, dropped or delayed snoops, orphaned core copies and
//! corrupt calibration constants that the invariant monitor must catch.

use crate::calib::{Calib, TransitTable};
use crate::system::System;
use hswx_coherence::{DirState, HitMeEntry, MesifState};
use hswx_mem::{LineAddr, NodeId};

/// Pending message-level faults consumed by the snoop path.
#[derive(Debug, Clone, Default)]
pub(crate) struct FaultState {
    /// Peer snoops left to silently drop (each fabricates a "no copy"
    /// response so the walk completes with stale data).
    pub(crate) drop_snoops: u32,
    /// Peer snoops left to delay.
    pub(crate) delay_snoops: u32,
    /// Delay applied to each delayed snoop, ns.
    pub(crate) delay_ns: f64,
}

impl FaultState {
    /// Consume one pending snoop drop.
    pub(crate) fn take_drop(&mut self) -> bool {
        if self.drop_snoops > 0 {
            self.drop_snoops -= 1;
            true
        } else {
            false
        }
    }

    /// Consume one pending snoop delay.
    pub(crate) fn take_delay(&mut self) -> Option<f64> {
        if self.delay_snoops > 0 {
            self.delay_snoops -= 1;
            Some(self.delay_ns)
        } else {
            None
        }
    }
}

impl System {
    /// Overwrite the node-level MESIF state of `line` in `node`'s L3.
    /// Returns false when the line is not resident there.
    pub fn inject_l3_state(&mut self, node: NodeId, line: LineAddr, state: MesifState) -> bool {
        let slice = self.topo.slice_for_line(line, node);
        match self.l3[slice.0 as usize].peek_mut(line) {
            Some(meta) => {
                meta.state = state;
                true
            }
            None => false,
        }
    }

    /// Overwrite the core-valid bit vector of `line` in `node`'s L3.
    pub fn inject_cv(&mut self, node: NodeId, line: LineAddr, cv: u32) -> bool {
        let slice = self.topo.slice_for_line(line, node);
        match self.l3[slice.0 as usize].peek_mut(line) {
            Some(meta) => {
                meta.cv = cv;
                true
            }
            None => false,
        }
    }

    /// Silently drop `line` from `node`'s L3 slice, leaving any private
    /// core copies orphaned (an inclusion-breaking corruption: no
    /// back-invalidation, no writeback, no directory update).
    pub fn inject_drop_l3(&mut self, node: NodeId, line: LineAddr) -> bool {
        let slice = self.topo.slice_for_line(line, node);
        self.l3[slice.0 as usize].remove(line).is_some()
    }

    /// Overwrite the in-memory directory state of `line` at its home agent.
    pub fn inject_dir_state(&mut self, line: LineAddr, state: DirState) {
        let ha = self.topo.ha_for_line(line);
        self.dir[ha.0 as usize].set(line, state);
    }

    /// Mutate the live HitME entry for `line`, if one exists.
    pub fn inject_hitme(&mut self, line: LineAddr, f: impl FnOnce(&mut HitMeEntry)) -> bool {
        let ha = self.topo.ha_for_line(line);
        self.hitme[ha.0 as usize].update(line, f)
    }

    /// Read the live HitME entry for `line` without touching statistics.
    pub fn hitme_entry(&self, line: LineAddr) -> Option<HitMeEntry> {
        let ha = self.topo.ha_for_line(line);
        self.hitme[ha.0 as usize].peek(line).copied()
    }

    /// Mutate the calibration constants in place (e.g. make one NaN). The
    /// step costs and transit table are rebuilt from the result, so later
    /// walks run exactly as in a system built with the corrupt constants.
    pub fn inject_calib(&mut self, f: impl FnOnce(&mut Calib)) {
        f(&mut self.cal);
        self.costs = self.cal.step_costs();
        self.transit = TransitTable::new(&self.cal, &self.topo);
    }

    /// Arm `count` snoop drops: the next `count` peer snoops are swallowed
    /// and fabricate an immediate "no copy" response, leaving the
    /// requester to complete with stale data.
    pub fn inject_snoop_drop(&mut self, count: u32) {
        self.faults.drop_snoops += count;
    }

    /// Arm `count` snoop delays of `delay_ns` each: the next `count` peer
    /// snoops are stalled before delivery, inflating the walk latency past
    /// the watchdog budget.
    pub fn inject_snoop_delay(&mut self, delay_ns: f64, count: u32) {
        self.faults.delay_snoops += count;
        self.faults.delay_ns = delay_ns;
    }
}
