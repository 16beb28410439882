//! Campaign job registry: figure/table artifacts as supervised jobs.
//!
//! Each [`JobSpec`] names its artifact, the jobs it depends on, and a
//! pure builder that the [`crate::supervisor::Supervisor`] can retry,
//! watchdog, and journal. The builders are shared with the standalone
//! `src/bin` regenerators, so `hswx campaign` and `cargo run --bin fig4`
//! emit byte-identical artifacts.

use crate::checkpoint::CheckpointStore;
use crate::scenarios::latency_curve;
use hswx_haswell::placement::PlacedState::{self, Exclusive, Modified, Shared};
use hswx_haswell::report::{sweep_sizes, Figure, Series, Table};
use hswx_haswell::spec::{table1_uarch_comparison, table2_test_system};
use hswx_haswell::CoherenceMode::SourceSnoop;
use hswx_haswell::{CoherenceMode, SystemConfig};
use hswx_mem::{CoreId, NodeId};
use std::sync::Arc;

/// Per-attempt context the supervisor hands each job.
#[derive(Debug, Clone)]
pub struct JobCtx {
    /// Campaign seed, perturbed deterministically per retry attempt.
    pub seed: u64,
    /// The campaign's time budget is exhausted: shed work (fewer sweep
    /// points) and mark the artifact as degraded instead of dying.
    pub degraded: bool,
    /// Mid-job checkpoint store (see [`crate::checkpoint`]): jobs record
    /// each independently computed sweep point here so a killed campaign
    /// resumes from the last point instead of the last whole job. `None`
    /// when running outside the supervisor (standalone regenerators).
    pub checkpoint: Option<Arc<CheckpointStore>>,
}

impl JobCtx {
    /// Context with no checkpointing (standalone runs, tests).
    pub fn bare(seed: u64, degraded: bool) -> Self {
        JobCtx { seed, degraded, checkpoint: None }
    }
}

/// Files a job produced: `(file name, contents)` pairs. The supervisor
/// writes each atomically under the output directory and digests them
/// into the journal.
#[derive(Debug, Clone, Default)]
pub struct JobOutput {
    /// `(file name, contents)` pairs, in write order.
    pub files: Vec<(String, String)>,
}

/// One artifact-producing campaign job.
#[derive(Clone, Copy)]
pub struct JobSpec {
    /// Stable identifier: the journal key and artifact file stem.
    pub id: &'static str,
    /// Jobs that must complete before this one may start.
    pub deps: &'static [&'static str],
    /// Pure artifact builder. Safe to retry: every call constructs fresh
    /// simulators and touches no shared state.
    pub run: fn(&JobCtx) -> JobOutput,
}

impl std::fmt::Debug for JobSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobSpec").field("id", &self.id).field("deps", &self.deps).finish()
    }
}

/// The registered campaign jobs. The spec tables cross-check the
/// simulated configuration against the paper's test system, so the
/// figure sweep only starts once that cross-check artifact exists.
pub fn registry() -> Vec<JobSpec> {
    vec![
        JobSpec { id: "table1", deps: &[], run: run_table1 },
        JobSpec { id: "table2", deps: &[], run: run_table2 },
        JobSpec { id: "fig4", deps: &["table2"], run: run_fig4 },
    ]
}

fn run_table1(_ctx: &JobCtx) -> JobOutput {
    let t = table1();
    JobOutput { files: vec![("table1.txt".into(), t.to_text()), ("table1.csv".into(), t.csv_body())] }
}

fn run_table2(_ctx: &JobCtx) -> JobOutput {
    let t = table2();
    JobOutput { files: vec![("table2.txt".into(), t.to_text()), ("table2.csv".into(), t.csv_body())] }
}

fn run_fig4(ctx: &JobCtx) -> JobOutput {
    let all = sweep_sizes();
    let sizes: Vec<u64> =
        if ctx.degraded { all.iter().copied().step_by(4).collect() } else { all };
    let fig = fig4_with_checkpoint(&sizes, ctx.checkpoint.as_deref());
    let mut text = fig.to_text();
    if ctx.degraded {
        text.push_str("# degraded: sweep reduced to every 4th size (time budget exhausted)\n");
    }
    JobOutput { files: vec![("fig4.txt".into(), text), ("fig4.csv".into(), fig.csv_body())] }
}

/// One fig4 latency series, memoized per sweep point when a checkpoint
/// store is present. Cached values are bit-exact, so a resumed sweep
/// emits a byte-identical artifact; keys cover the series label, size,
/// and the full config digest, so a changed calibration or mode can
/// never replay stale points.
#[allow(clippy::too_many_arguments)]
fn curve_memo(
    ckpt: Option<&CheckpointStore>,
    label: &str,
    mode: CoherenceMode,
    placers: &[CoreId],
    state: PlacedState,
    home: NodeId,
    measurer: CoreId,
    sizes: &[u64],
) -> Vec<(f64, f64)> {
    let Some(ckpt) = ckpt else {
        return latency_curve(mode, placers, state, home, measurer, sizes);
    };
    let cfg_digest = SystemConfig::e5_2680_v3(mode).digest().to_le_bytes();
    let key_of = |size: u64| {
        CheckpointStore::key(&[b"fig4", label.as_bytes(), &size.to_le_bytes(), &cfg_digest])
    };
    // Each size builds its own fresh simulator, so points are independent:
    // compute only the missing ones (in one parallel batch, preserving the
    // uncheckpointed run's parallelism) and stitch the curve together.
    let missing: Vec<u64> =
        sizes.iter().copied().filter(|&s| ckpt.lookup(key_of(s)).is_none()).collect();
    let computed = latency_curve(mode, placers, state, home, measurer, &missing);
    for (&size, &(_, ns)) in missing.iter().zip(&computed) {
        ckpt.record(key_of(size), ns);
    }
    sizes
        .iter()
        .map(|&s| {
            let ns = ckpt.lookup(key_of(s)).expect("point recorded above");
            (s as f64, ns)
        })
        .collect()
}

/// Paper Table I: Sandy Bridge vs Haswell micro-architecture.
pub fn table1() -> Table {
    let mut t = Table::new("table1", &["feature", "Sandy Bridge", "Haswell"]);
    for row in table1_uarch_comparison() {
        t.row(row.feature, vec![row.sandy_bridge.to_string(), row.haswell.to_string()]);
    }
    t
}

/// Paper Table II: the test-system configuration, cross-checked against
/// the simulator's actual configuration.
pub fn table2() -> Table {
    let spec = table2_test_system();
    let cfg = SystemConfig::e5_2680_v3(CoherenceMode::SourceSnoop);
    let mut t = Table::new("table2", &["property", "value", "simulator"]);
    t.row("processor", vec![spec.processor.into(), "modelled".into()]);
    t.row(
        "cores",
        vec![
            format!("{} x {}", spec.sockets, spec.cores_per_socket),
            format!("{}", cfg.n_cores()),
        ],
    );
    t.row(
        "core / AVX clock",
        vec![
            format!("{:.1} / {:.1} GHz", spec.core_ghz, spec.avx_ghz),
            format!("{:.1} / {:.1} GHz", cfg.calib.core_ghz, cfg.calib.avx_ghz),
        ],
    );
    t.row(
        "L1D / L2 per core",
        vec![
            format!("{} KiB / {} KiB", spec.l1d_kib, spec.l2_kib),
            format!("{} KiB / {} KiB", cfg.l1.size_bytes / 1024, cfg.l2.size_bytes / 1024),
        ],
    );
    t.row(
        "L3 per socket",
        vec![
            format!("{} MiB", spec.l3_mib),
            format!("{} MiB", cfg.l3_slice.size_bytes * 12 / (1 << 20)),
        ],
    );
    t.row(
        "memory",
        vec![
            format!("{}x DDR4-{} ({:.1} GB/s/socket)", spec.channels, spec.mem_mt_s, spec.mem_gb_s),
            format!("{}x {:.2} GB/s channels", spec.channels, cfg.dram.bus_gb_s),
        ],
    );
    t.row(
        "QPI",
        vec![
            format!("2 links @ {:.1} GT/s ({:.1} GB/s each/dir)", spec.qpi_gt_s, spec.qpi_gb_s),
            format!("{:.1} GB/s aggregated per direction", cfg.calib.qpi_gb_s),
        ],
    );
    t
}

/// Paper Figure 4: memory read latency vs data-set size in the default
/// (source snoop) configuration — local hierarchy, another core in the
/// same NUMA node, and the other socket, for M/E/S cache lines.
pub fn fig4(sizes: &[u64]) -> Figure {
    fig4_with_checkpoint(sizes, None)
}

/// [`fig4`] with optional per-point memoization through a
/// [`CheckpointStore`] — the supervised-campaign path.
pub fn fig4_with_checkpoint(sizes: &[u64], ckpt: Option<&CheckpointStore>) -> Figure {
    let c0 = CoreId(0);
    let c1 = CoreId(1);
    let c2 = CoreId(2);
    let c12 = CoreId(12);
    let c13 = CoreId(13);
    let mut fig = Figure::new("fig4", "ns per load");
    let mut add = |label: &str, placers: &[CoreId], state: PlacedState, home: NodeId| {
        let pts = curve_memo(ckpt, label, SourceSnoop, placers, state, home, c0, sizes);
        let mut s = Series::new(label);
        for (x, y) in pts {
            s.push(x, y);
        }
        fig.add(s);
    };

    // Local hierarchy (placer = measurer).
    add("local M", &[c0], Modified, NodeId(0));
    add("local E", &[c0], Exclusive, NodeId(0));
    // Within NUMA node (placer core 1, measurer core 0).
    add("node M", &[c1], Modified, NodeId(0));
    add("node E", &[c1], Exclusive, NodeId(0));
    add("node S", &[c1, c2], Shared, NodeId(0));
    // Other NUMA node, 1 QPI hop (placer socket 1, data homed there).
    add("remote M", &[c12], Modified, NodeId(1));
    add("remote E", &[c12], Exclusive, NodeId(1));
    add("remote S", &[c12, c13], Shared, NodeId(1));
    fig
}
