//! # hswx-bench — experiment harness
//!
//! The campaign job registry that regenerates every table, figure and
//! log of the paper's evaluation under `results/` (run by
//! `hswx campaign`), the supervised runtime it runs on, the scenario code
//! behind every number, and the calibration anchor suite that checks the
//! simulator's emergent latencies/bandwidths against the paper's
//! measurements.

pub mod anchors;
pub mod checkpoint;
pub mod diffcmp;
pub mod jobs;
pub mod parallel;
pub mod scenarios;
pub mod supervisor;

pub use anchors::{bandwidth_anchors, latency_anchors, Anchor};
pub use jobs::{JobOutput, JobSpec};
pub use supervisor::{select_jobs, CampaignSummary, Supervisor, SupervisorConfig};
