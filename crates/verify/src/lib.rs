//! Fault-injection campaigns for the hswx simulator.
//!
//! Drives the [`hswx_haswell::inject`] hooks against all three coherence
//! modes under the strict runtime invariant monitor and reports a
//! detection-coverage matrix (fault class × mode → detected/missed). See
//! `hswx faultcheck` for the CLI entry point and [`plan::FaultPlan`] for
//! the reproducible campaign format.

pub mod campaign;
pub mod plan;

pub use campaign::{run_campaign, CampaignReport, CellOutcome, MatrixCell};
pub use plan::{FaultClass, FaultPlan};
