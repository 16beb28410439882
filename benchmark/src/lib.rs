//! # hswx-benchmark
//!
//! End-to-end and per-layer benchmark of the artifact regenerators: four
//! workloads built from the paper's figures, tables and calibration
//! anchors, timed in closed-batch rounds on `parallel_try_map`, every
//! output compared byte for byte with the committed `results/`. See
//! `README.md` for the command, workloads and metrics.

pub mod json;
pub mod metrics;
pub mod reference;
pub mod run;
pub mod stats;
pub mod trace;
pub mod units;
