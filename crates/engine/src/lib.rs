//! # hswx-engine — discrete-event simulation core
//!
//! This crate provides the substrate every other `hswx` crate builds on:
//!
//! * [`time`] — picosecond-resolution simulated time ([`SimTime`]) and
//!   durations ([`SimDuration`]), with exact conversions to core clock cycles.
//! * [`resource`] — shared-resource models: a byte-rate serializing
//!   [`ThroughputResource`] (QPI links, DRAM buses, L3 slice ports) and a
//!   bounded [`TimedPool`] (line-fill buffers, home-agent trackers).
//! * [`rng`] — a deterministic small RNG wrapper so every experiment is
//!   reproducible from a seed.
//! * [`fxhash`] — a deterministic multiply-xor hasher ([`FxHashMap`]) for
//!   hot-path maps keyed by trusted simulation state.
//! * [`fsio`] — crash-consistent `atomic_write` (tmp + `rename`, optional
//!   fsync) and the stable [`fnv1a64`] content digest used by campaign
//!   journals, mid-job checkpoints, the system config digest and
//!   golden-outcome checks.
//! * [`trace`] — structured span tracing: ring-buffered [`SpanRecorder`],
//!   exact per-component latency attribution, Chrome trace-event export.
//! * [`metrics`] — lock-free named counters with ambient per-thread
//!   installation, aggregated per-job by campaign supervisors.
//! * [`telemetry`] — bounded-memory simulated-time series: component
//!   counters bucketed into fixed intervals with deterministic
//!   downsampling, merged across systems by an ambient [`TelemetryHub`].
//!
//! The engine knows nothing about caches or coherence; it is a generic DES
//! toolkit kept separate so its invariants can be tested in isolation.

pub mod fsio;
pub mod fxhash;
pub mod metrics;
pub mod resource;
pub mod rng;
pub mod telemetry;
pub mod time;
pub mod trace;

pub use fsio::{atomic_write, fnv1a64, fnv1a64_extend};
pub use fxhash::{FxBuildHasher, FxHashMap, FxHashSet};
pub use metrics::MetricsRegistry;
pub use resource::{Booking, ThroughputResource, TimedPool};
pub use rng::DetRng;
pub use telemetry::{TelemetryConfig, TelemetryHub, TelemetrySampler};
pub use time::{SimDuration, SimTime, PS_PER_NS};
pub use trace::{Span, SpanId, SpanRecorder, WalkRecord};
