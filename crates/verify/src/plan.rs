//! Reproducible fault-campaign plans.
//!
//! A [`FaultPlan`] pins everything a campaign needs to be replayed
//! bit-for-bit: the RNG seed, the number of trials per matrix cell, and
//! the fault classes to exercise. `hswx faultcheck` sets the seed and the
//! trial count from `--seed` and `--trials` and runs every class.

use std::fmt;

/// One class of injected protocol-state corruption or message fault.
///
/// Classes marked *conservative-overstatement* in the paper's terminology
/// (a directory claiming more sharers than exist) are legal states by
/// design and therefore not represented here: the campaign only injects
/// corruptions the protocol is supposed to make impossible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultClass {
    /// Flip a Shared node-level copy to Forward, minting a second
    /// forwardable copy of the line.
    MintForwarder,
    /// Flip a Shared node-level copy to Modified while other copies exist.
    BreakMExclusivity,
    /// Silently drop a line from an inclusive L3 slice, orphaning the
    /// private core copies above it.
    DropL3Line,
    /// Clear the L3 core-valid bits for a line a core still caches.
    ClearCoreValid,
    /// Reset the in-memory directory to remote-invalid while a remote
    /// node holds the line (COD only).
    DirUnderstate,
    /// Remove the dirty owner from a live HitME presence vector (COD
    /// only).
    HitMeDropNode,
    /// Set the clean bit on a HitME entry whose line is held Modified
    /// (COD only).
    HitMeFalseClean,
    /// Make a calibration latency constant negative.
    CalibNegative,
    /// Make a calibration constant NaN.
    CalibNan,
    /// Swallow snoop messages, fabricating "no copy" responses so a
    /// requester completes against stale memory data.
    DropSnoop,
    /// Stall snoop messages long enough that the transaction walk blows
    /// its latency budget.
    DelaySnoop,
}

impl FaultClass {
    /// Every class, in reporting order.
    pub const ALL: [FaultClass; 11] = [
        FaultClass::MintForwarder,
        FaultClass::BreakMExclusivity,
        FaultClass::DropL3Line,
        FaultClass::ClearCoreValid,
        FaultClass::DirUnderstate,
        FaultClass::HitMeDropNode,
        FaultClass::HitMeFalseClean,
        FaultClass::CalibNegative,
        FaultClass::CalibNan,
        FaultClass::DropSnoop,
        FaultClass::DelaySnoop,
    ];

    /// Stable identifier used in reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultClass::MintForwarder => "mint-forwarder",
            FaultClass::BreakMExclusivity => "break-m-exclusivity",
            FaultClass::DropL3Line => "drop-l3-line",
            FaultClass::ClearCoreValid => "clear-core-valid",
            FaultClass::DirUnderstate => "dir-understate",
            FaultClass::HitMeDropNode => "hitme-drop-node",
            FaultClass::HitMeFalseClean => "hitme-false-clean",
            FaultClass::CalibNegative => "calib-negative",
            FaultClass::CalibNan => "calib-nan",
            FaultClass::DropSnoop => "drop-snoop",
            FaultClass::DelaySnoop => "delay-snoop",
        }
    }

    /// Whether the class touches in-memory-directory state and therefore
    /// only applies to directory-enabled (COD) modes.
    pub fn requires_directory(self) -> bool {
        matches!(self, FaultClass::DirUnderstate)
    }

    /// Whether the class touches HitME state (COD with HitME enabled).
    pub fn requires_hitme(self) -> bool {
        matches!(self, FaultClass::HitMeDropNode | FaultClass::HitMeFalseClean)
    }
}

impl fmt::Display for FaultClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A reproducible fault-injection campaign description.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed deriving every per-trial choice (target line, actors).
    pub seed: u64,
    /// Trials per (mode, class) matrix cell.
    pub trials: u32,
    /// Fault classes to exercise.
    pub classes: Vec<FaultClass>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0xC0FFEE,
            trials: 4,
            classes: FaultClass::ALL.to_vec(),
        }
    }
}
