//! Fault-injection campaigns for the hswx simulator.
//!
//! Drives the [`hswx_haswell::inject`] hooks against all three coherence
//! modes under the strict runtime invariant monitor and reports a
//! detection-coverage matrix (fault class × mode → detected/missed). See
//! `hswx faultcheck` for the CLI entry point and [`plan::FaultPlan`] for
//! what pins a campaign (seed, trials per cell, fault classes).

pub mod campaign;
pub mod plan;

pub use campaign::{run_campaign, CampaignReport, CellOutcome, MatrixCell};
pub use plan::{FaultClass, FaultPlan};
