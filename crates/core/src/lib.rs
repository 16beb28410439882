//! # hswx-haswell — full-system Haswell-EP simulator and microbenchmarks
//!
//! The top of the `hswx` stack: assembles the substrates (DES engine, cache
//! and DRAM structures, MESIF/directory protocol rules, uncore topology)
//! into a complete dual-socket Haswell-EP machine model, and implements the
//! paper's methodology contribution — microbenchmarks with **full memory
//! location and coherence state control** — on top of it.
//!
//! ```
//! use hswx_haswell::{CoherenceMode, SystemConfig, System};
//! use hswx_mem::{CoreId, LineAddr};
//! use hswx_engine::SimTime;
//!
//! let mut sys = System::new(SystemConfig::e5_2680_v3(CoherenceMode::SourceSnoop));
//! let out = sys.read(CoreId(0), LineAddr(0), SimTime::ZERO);
//! assert!(out.latency_ns(SimTime::ZERO) > 50.0); // cold miss goes to DRAM
//! ```
//!
//! Modules:
//! * [`config`] / [`calib`] — system description (with a validated,
//!   panic-free construction boundary and a stable digest) and component
//!   timing.
//! * [`analytic`] — closed-form latency formulas used as differential
//!   checks against the simulator.
//! * [`system`] — the simulated machine and its transaction walks;
//!   [`System::fork`] copies a warmed machine.
//! * [`batch`] — the pipelined batch-walk engine (SoA staging + lookahead
//!   prefetch), bit-identical to sequential dispatch.
//! * [`error`] / [`monitor`] / [`inject`] — typed simulation errors, the
//!   runtime invariant monitor, and the fault-injection hooks that make
//!   every simulation self-checking.
//! * [`placement`] — coherence-state placement (the paper's §V-B recipes).
//! * [`microbench`] — latency and bandwidth measurement framework.
//! * [`spec`] — the static architecture comparison data (paper Tables I/II).
//! * [`report`] — result series/table plumbing shared by the bench harness.

pub mod analytic;
pub mod batch;
pub mod calib;
pub mod config;
pub mod error;
pub mod inject;
pub mod microbench;
pub mod monitor;
pub mod placement;
pub mod report;
pub mod spec;
pub mod system;

pub use calib::Calib;
pub use config::{CoherenceMode, ConfigError, SystemConfig};
pub use error::SimError;
pub use monitor::{MonitorConfig, Violation};
pub use placement::{PlacedState, Placement};
pub use batch::{Access, AccessOp, BatchOutcome, BatchReply, Issue, BATCH_CHUNK};
pub use system::{AccessOutcome, ProtoStep, Stats, System};
