//! Typed simulation errors with protocol transcripts.
//!
//! Every failure a transaction walk can hit — an impossible protocol
//! decision, a runtime invariant breach, or a watchdog trip — is reported
//! as a [`SimError`] carrying the protocol transcript of the offending
//! access (the same `(time, step)` stream [`crate::System::trace_next`]
//! records), so a failing run explains *what the protocol did* instead of
//! aborting with a bare panic.

use crate::monitor::Violation;
use crate::system::ProtoStep;
use hswx_coherence::{CaAction, ReqType};
use hswx_engine::SimTime;
use hswx_mem::{CoreId, LineAddr};
use std::fmt;

/// A fatal simulation error.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The coherence rule tables produced an action the executing walk
    /// cannot handle for this request type — a protocol-logic bug (or an
    /// injected corruption of the state the decision was derived from).
    UnexpectedAction {
        /// The request being walked.
        req: ReqType,
        /// The impossible action the decision table returned.
        action: CaAction,
        /// Requesting core.
        core: CoreId,
        /// Requested line.
        line: LineAddr,
        /// Protocol steps recorded for the failing access.
        transcript: Vec<(SimTime, ProtoStep)>,
    },
    /// The periodic invariant scan found corrupted protocol state.
    InvariantViolation {
        /// What is broken.
        violation: Violation,
        /// Completed transactions at detection time.
        txn: u64,
        /// Protocol steps recorded for the access that surfaced it.
        transcript: Vec<(SimTime, ProtoStep)>,
    },
    /// A single transaction walk exceeded its latency or message budget —
    /// the symptom of a lost or maliciously delayed snoop response.
    WalkWatchdog {
        /// Requesting core.
        core: CoreId,
        /// Requested line.
        line: LineAddr,
        /// Observed walk latency, ns.
        latency_ns: f64,
        /// Configured latency budget, ns.
        limit_ns: f64,
        /// Protocol messages the walk sent.
        steps: u32,
        /// Configured message budget.
        step_limit: u32,
        /// Protocol steps recorded for the failing access.
        transcript: Vec<(SimTime, ProtoStep)>,
    },
}

impl SimError {
    /// The transcript attached to this error.
    pub fn transcript(&self) -> &[(SimTime, ProtoStep)] {
        match self {
            SimError::UnexpectedAction { transcript, .. }
            | SimError::InvariantViolation { transcript, .. }
            | SimError::WalkWatchdog { transcript, .. } => transcript,
        }
    }

    /// The invariant violation, when this error is one.
    pub fn violation(&self) -> Option<&Violation> {
        match self {
            SimError::InvariantViolation { violation, .. } => Some(violation),
            _ => None,
        }
    }

    /// Multi-line human-readable diagnostic including the transcript.
    pub fn diagnostic(&self) -> String {
        let mut out = format!("{self}\n");
        let transcript = self.transcript();
        if transcript.is_empty() {
            out.push_str(
                "  (no protocol transcript: enable the monitor or call trace_next() before the access)\n",
            );
        } else {
            out.push_str("  protocol transcript:\n");
            for (t, step) in transcript {
                out.push_str(&format!("    {:>10.2} ns  {:?}\n", t.as_ns(), step));
            }
        }
        out
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnexpectedAction { req, action, core, line, .. } => write!(
                f,
                "unexpected protocol action {action:?} for {req:?} by core {core:?} on line {line:?}"
            ),
            SimError::InvariantViolation { violation, txn, .. } => {
                write!(f, "protocol invariant violated after {txn} transactions: {violation}")
            }
            SimError::WalkWatchdog { core, line, latency_ns, limit_ns, steps, step_limit, .. } => {
                write!(
                    f,
                    "walk watchdog: access by core {core:?} to line {line:?} took {latency_ns:.1} ns \
                     (limit {limit_ns:.1}) in {steps} protocol messages (limit {step_limit})"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}
