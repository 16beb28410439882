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
//! from "nothing to corrupt".
//!
//! Two families of faults live here:
//!
//! * **Detect-only** corruptions (stale directory bits, dropped snoops,
//!   orphaned core copies) that the invariant monitor must *catch* — the
//!   PR-1 campaign classes.
//! * **Recoverable** transients the simulated hardware heals on its own:
//!   QPI CRC flit corruption replayed by the link layer, transient
//!   directory/HitME read glitches healed by re-lookup, and poisoned
//!   lines whose consumption is contained to one typed error. Recovery
//!   is *timing-transparent*: it charges latency but leaves protocol
//!   state, data sources, and [`crate::Stats`] bit-identical to a clean
//!   run, which the campaign verifies via [`crate::System::state_digest`].
//!   Bookkeeping for these lives in [`RecoveryStats`], deliberately
//!   outside [`crate::Stats`] so recovered and clean runs still compare
//!   equal.

use crate::calib::Calib;
use crate::system::System;
use hswx_coherence::{DirState, HitMeEntry, LinkRetryPolicy, MesifState};
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
    /// Pending QPI flit corruptions: each consumes one link transmission
    /// attempt (original send or retransmission) on the next messages
    /// that cross a socket boundary.
    pub(crate) qpi_crc: u32,
    /// Link-layer retransmit bound applied to CRC corruptions.
    pub(crate) link_retry: LinkRetryPolicy,
    /// Set when a message exhausted the link retry buffer during the walk
    /// in flight; converted to [`crate::SimError::QpiLinkFailure`] when
    /// the walk closes.
    pub(crate) link_failed: Option<u32>,
    /// Pending transient in-memory-directory read glitches (healed by an
    /// ECC re-read, costing one extra memory-controller traversal).
    pub(crate) dir_glitch: u32,
    /// Pending transient HitME SRAM read glitches (healed by re-lookup,
    /// costing one extra directory-cache access).
    pub(crate) hitme_glitch: u32,
    /// Lines marked poisoned: consuming one aborts that walk with a
    /// typed, contained error before any state is touched.
    pub(crate) poisoned: Vec<LineAddr>,
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

    /// Consume one pending transient directory glitch.
    pub(crate) fn take_dir_glitch(&mut self) -> bool {
        if self.dir_glitch > 0 {
            self.dir_glitch -= 1;
            true
        } else {
            false
        }
    }

    /// Consume one pending transient HitME glitch.
    pub(crate) fn take_hitme_glitch(&mut self) -> bool {
        if self.hitme_glitch > 0 {
            self.hitme_glitch -= 1;
            true
        } else {
            false
        }
    }
}

/// Counters for transparently recovered faults.
///
/// Kept separate from [`crate::Stats`] on purpose: recovery must be
/// invisible to the simulated protocol, so a recovered run's `Stats` and
/// [`crate::System::state_digest`] stay bit-identical to a clean run's.
/// These counters are the only observable trace (besides latency) that
/// recovery happened.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Messages that needed at least one link-layer retransmission.
    pub crc_messages: u64,
    /// Total QPI retransmissions paid (each cost one serialization).
    pub crc_retries: u64,
    /// Messages that exhausted the retry buffer (escalated to a
    /// [`crate::SimError::QpiLinkFailure`]).
    pub link_failures: u64,
    /// In-memory directory reads healed by an ECC re-read.
    pub dir_retries: u64,
    /// HitME lookups healed by an SRAM re-read.
    pub hitme_retries: u64,
    /// Walks aborted because they touched a poisoned line.
    pub poison_blocked: u64,
}

impl RecoveryStats {
    /// Total recovery events of any class.
    pub fn total_events(&self) -> u64 {
        self.crc_messages
            + self.link_failures
            + self.dir_retries
            + self.hitme_retries
            + self.poison_blocked
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

    /// Mutate the calibration constants in place (e.g. make one NaN).
    pub fn inject_calib(&mut self, f: impl FnOnce(&mut Calib)) {
        f(&mut self.cal);
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

    // ------------------------------------------------------------------
    // recoverable transients
    // ------------------------------------------------------------------

    /// Arm `count` QPI flit corruptions: each consumes one transmission
    /// attempt of subsequent socket-crossing messages, and the link layer
    /// replays from its retry buffer, paying one calibrated QPI
    /// serialization delay per retransmission. A burst longer than the
    /// retry bound fails the link (see
    /// [`set_link_retry_policy`](Self::set_link_retry_policy)).
    pub fn inject_qpi_crc(&mut self, count: u32) {
        self.faults.qpi_crc += count;
    }

    /// Override the link-layer retransmit bound (default: 8 retries).
    pub fn set_link_retry_policy(&mut self, policy: LinkRetryPolicy) {
        self.faults.link_retry = policy;
    }

    /// The link-layer retransmit bound in effect.
    pub fn link_retry_policy(&self) -> LinkRetryPolicy {
        self.faults.link_retry
    }

    /// Arm `count` transient in-memory-directory read glitches: the next
    /// `count` directory consultations return garbage once, and the home
    /// agent heals by re-reading the ECC bits, costing one extra
    /// memory-controller traversal.
    pub fn inject_dir_glitch(&mut self, count: u32) {
        self.faults.dir_glitch += count;
    }

    /// Arm `count` transient HitME SRAM read glitches: the next `count`
    /// HitME lookups are retried once, costing one extra directory-cache
    /// access latency.
    pub fn inject_hitme_glitch(&mut self, count: u32) {
        self.faults.hitme_glitch += count;
    }

    /// Mark `line` poisoned: any read or write walk touching it aborts
    /// with [`crate::SimError::Poisoned`] *before* mutating any protocol
    /// state — the containment guarantee real hardware provides via data
    /// poisoning (MCA recovery). Idempotent.
    pub fn inject_poison(&mut self, line: LineAddr) {
        if !self.faults.poisoned.contains(&line) {
            self.faults.poisoned.push(line);
        }
    }

    /// Clear the poison marker on `line` (e.g. after the OS "retired the
    /// page"). Returns whether it was poisoned.
    pub fn clear_poison(&mut self, line: LineAddr) -> bool {
        let before = self.faults.poisoned.len();
        self.faults.poisoned.retain(|&l| l != line);
        self.faults.poisoned.len() != before
    }

    /// Whether `line` is currently poisoned.
    pub fn is_poisoned(&self, line: LineAddr) -> bool {
        self.faults.poisoned.contains(&line)
    }
}
