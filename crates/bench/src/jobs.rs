//! Campaign job registry: every figure, table and log under `results/`
//! as a supervised job.
//!
//! Each [`JobSpec`] names its artifact, the jobs it depends on, and a
//! pure builder that the [`crate::supervisor::Supervisor`] can retry,
//! watchdog, and journal. `hswx campaign` is the one way to regenerate
//! the paper's evaluation: each job writes its CSV files (the bytes
//! committed under `results/`) and an aligned-text `<id>.txt`.
//!
//! Artifacts that measure the same thing share one function: the
//! size-sweep figures (Figs. 4–6 latency, 8–9 bandwidth) go through
//! `sweep_figure`, Tables III and VI through `mode_matrix`, Tables IV and
//! V (and Fig. 7's placements) through `cod_shared`, and the aggregate-L3
//! results (§VII-B scaling, the uncore ablation) through `l3_aggregate`.

use crate::anchors::{bandwidth_anchors, latency_anchors};
use crate::checkpoint::CheckpointStore;
use crate::scenarios::{
    aggregate_read, aggregate_write, bandwidth_curve, first_core_of, latency_curve, nth_core_of,
    size_for_level, BandwidthScenario, LatencyScenario,
};
use hswx_engine::SimTime;
use hswx_haswell::microbench::{
    pointer_chase, stream_read, stream_read_multi, stream_write_multi, stream_write_nt_multi,
    Buffer, LoadWidth,
};
use hswx_haswell::placement::PlacedState::{self, Exclusive, Modified, Shared};
use hswx_haswell::placement::{Level, Placement};
use hswx_haswell::report::{sweep_sizes, Figure, Series, Table};
use hswx_haswell::spec::{table1_uarch_comparison, table2_test_system};
use hswx_haswell::CoherenceMode::{self, ClusterOnDie, HomeSnoop, SourceSnoop};
use hswx_haswell::{System, SystemConfig};
use hswx_mem::{CoreId, LineAddr, NodeId, Replacement};
use hswx_workloads::{mpi2007_proxies, omp2012_proxies, proxy::relative_runtimes};
use std::fmt::Write as _;
use std::sync::Arc;

/// Per-attempt context the supervisor hands each job.
#[derive(Debug, Clone, Default)]
pub struct JobCtx {
    /// The campaign's time budget is exhausted: shed work (fewer sweep
    /// points) and mark the artifact as degraded instead of dying.
    pub degraded: bool,
    /// Mid-job checkpoint store (see [`crate::checkpoint`]): jobs record
    /// each independently computed sweep point here so a killed campaign
    /// resumes from the last point instead of the last whole job. `None`
    /// when a job runs outside the supervisor.
    pub checkpoint: Option<Arc<CheckpointStore>>,
}

/// Files a job produced: `(file name, contents)` pairs. The supervisor
/// writes each atomically under the output directory and digests them
/// into the journal.
#[derive(Debug, Clone, Default)]
pub struct JobOutput {
    /// `(file name, contents)` pairs, in write order.
    pub files: Vec<(String, String)>,
}

impl JobOutput {
    /// `<id>.txt` (the aligned text rendering) plus `<id>.csv`.
    fn artifact(id: &str, text: String, csv: String) -> Self {
        JobOutput { files: vec![(format!("{id}.txt"), text), (format!("{id}.csv"), csv)] }
    }
}

impl From<Table> for JobOutput {
    fn from(t: Table) -> Self {
        JobOutput::artifact(&t.id, t.to_text(), t.csv_body())
    }
}

impl From<Figure> for JobOutput {
    fn from(f: Figure) -> Self {
        JobOutput::artifact(&f.id, f.to_text(), f.csv_body())
    }
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

/// The registered campaign jobs, one per artifact under `results/`. The
/// spec tables cross-check the simulated configuration against the
/// paper's test system, so every simulation starts only once table2, that
/// cross-check artifact, exists.
pub fn registry() -> Vec<JobSpec> {
    fn sim(id: &'static str, run: fn(&JobCtx) -> JobOutput) -> JobSpec {
        JobSpec { id, deps: &["table2"], run }
    }
    vec![
        JobSpec { id: "table1", deps: &[], run: |_| table1().into() },
        JobSpec { id: "table2", deps: &[], run: |_| table2().into() },
        sim("fig4", fig4),
        sim("fig5", fig5),
        sim("fig6", fig6),
        sim("fig7", |_| fig7()),
        sim("table3", |_| table3().into()),
        sim("table4", |_| cod_shared_grid("table4", Level::L3, 4 << 20).into()),
        sim("table5", |_| cod_shared_grid("table5", Level::Memory, 32 << 20).into()),
        sim("fig8", fig8),
        sim("fig9", fig9),
        sim("table6", |_| table6().into()),
        sim("table7", |_| table7().into()),
        sim("table8", |_| table8().into()),
        sim("l3scaling", |_| l3scaling().into()),
        sim("fig10", |_| fig10().into()),
        sim("calibrate", |_| calibrate()),
        sim("ablate_hitme", |_| ablate_hitme().into()),
        sim("ablate_directory", |_| ablate_directory().into()),
        sim("ablate_prefetch", |_| ablate_prefetch().into()),
        sim("ablate_rings", |_| ablate_rings().into()),
        sim("ablate_nt", |_| ablate_nt().into()),
        sim("ablate_replacement", |_| ablate_replacement().into()),
        sim("ablate_uncore", |_| ablate_uncore().into()),
        sim("skus", |_| skus().into()),
        sim("sockets", |_| sockets().into()),
    ]
}

/// Paper Table I: Sandy Bridge vs Haswell micro-architecture.
fn table1() -> Table {
    let mut t = Table::new("table1", &["feature", "Sandy Bridge", "Haswell"]);
    for row in table1_uarch_comparison() {
        t.row(row.feature, vec![row.sandy_bridge.to_string(), row.haswell.to_string()]);
    }
    t
}

/// Paper Table II: the test-system configuration, cross-checked against
/// the simulator's actual configuration.
fn table2() -> Table {
    let spec = table2_test_system();
    let cfg = SystemConfig::e5_2680_v3(CoherenceMode::SourceSnoop);
    let mut t = Table::new("table2", &["property", "value", "simulator"]);
    t.row("processor", vec![spec.processor.into(), "modelled".into()]);
    t.row(
        "cores",
        vec![format!("{} x {}", spec.sockets, spec.cores_per_socket), format!("{}", cfg.n_cores())],
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

/// One curve of a size-sweep figure: which cores place the data in which
/// state, where it is homed, and which core measures it.
struct Curve {
    label: &'static str,
    mode: CoherenceMode,
    placers: Vec<CoreId>,
    state: PlacedState,
    home: u8,
    measurer: CoreId,
    /// Load width of the bandwidth kernel (latency chases ignore it).
    width: LoadWidth,
}

impl Curve {
    fn new(
        label: &'static str,
        mode: CoherenceMode,
        placers: &[CoreId],
        state: PlacedState,
        home: u8,
        measurer: CoreId,
    ) -> Self {
        let placers = placers.to_vec();
        Curve { label, mode, placers, state, home, measurer, width: LoadWidth::Avx256 }
    }
}

/// `(size, value)` points of one curve.
type Points = Vec<(f64, f64)>;

/// Pointer-chase latency of `c` at every size (Figs. 4–6).
fn chase(c: &Curve, sizes: &[u64]) -> Points {
    latency_curve(c.mode, &c.placers, c.state, NodeId(c.home), c.measurer, sizes)
}

/// Single-core streaming bandwidth of `c` at every size (Figs. 8–9).
fn stream(c: &Curve, sizes: &[u64]) -> Points {
    bandwidth_curve(c.mode, &c.placers, c.state, NodeId(c.home), c.measurer, c.width, sizes)
}

/// A size-sweep figure: every curve measured over [`sweep_sizes`] (every
/// 4th size when degraded), each point memoized in the job's checkpoint
/// store when one is present. Cached values are bit-exact, so a resumed
/// sweep emits a byte-identical artifact; keys cover the figure id,
/// series label, size, and the full config digest, so a changed
/// calibration or mode can never replay stale points.
fn sweep_figure(
    ctx: &JobCtx,
    id: &str,
    y_unit: &str,
    measure: fn(&Curve, &[u64]) -> Points,
    curves: Vec<Curve>,
) -> JobOutput {
    let all = sweep_sizes();
    let sizes: Vec<u64> = if ctx.degraded { all.iter().copied().step_by(4).collect() } else { all };
    let mut fig = Figure::new(id, y_unit);
    for c in &curves {
        let pts = match ctx.checkpoint.as_deref() {
            None => measure(c, &sizes),
            Some(ckpt) => {
                let cfg_digest = SystemConfig::e5_2680_v3(c.mode).digest().to_le_bytes();
                let key_of = |size: u64| {
                    let parts: [&[u8]; 4] =
                        [id.as_bytes(), c.label.as_bytes(), &size.to_le_bytes(), &cfg_digest];
                    CheckpointStore::key(&parts)
                };
                // Each size builds its own fresh simulator, so points are
                // independent: compute only the missing ones (in one
                // parallel batch) and stitch the curve together.
                let missing: Vec<u64> =
                    sizes.iter().copied().filter(|&s| ckpt.lookup(key_of(s)).is_none()).collect();
                for (&size, &(_, y)) in missing.iter().zip(&measure(c, &missing)) {
                    ckpt.record(key_of(size), y);
                }
                let lookup = |s: u64| ckpt.lookup(key_of(s)).expect("point recorded above");
                sizes.iter().map(|&s| (s as f64, lookup(s))).collect()
            }
        };
        fig.add(Series { label: c.label.into(), points: pts });
    }
    let mut text = fig.to_text();
    if ctx.degraded {
        text.push_str("# degraded: sweep reduced to every 4th size (time budget exhausted)\n");
    }
    JobOutput::artifact(id, text, fig.csv_body())
}

/// Paper Figure 4: memory read latency vs data-set size in the default
/// (source snoop) configuration — local hierarchy, another core in the
/// same NUMA node, and the other socket, for M/E/S cache lines.
fn fig4(ctx: &JobCtx) -> JobOutput {
    let c = CoreId;
    let src = |label, placers: &[CoreId], state, home| {
        Curve::new(label, SourceSnoop, placers, state, home, c(0))
    };
    let curves = vec![
        // Local hierarchy (placer = measurer).
        src("local M", &[c(0)], Modified, 0),
        src("local E", &[c(0)], Exclusive, 0),
        // Within NUMA node (placer core 1, measurer core 0).
        src("node M", &[c(1)], Modified, 0),
        src("node E", &[c(1)], Exclusive, 0),
        src("node S", &[c(1), c(2)], Shared, 0),
        // Other NUMA node, 1 QPI hop (placer socket 1, data homed there).
        src("remote M", &[c(12)], Modified, 1),
        src("remote E", &[c(12)], Exclusive, 1),
        src("remote S", &[c(12), c(13)], Shared, 1),
    ];
    sweep_figure(ctx, "fig4", "ns per load", chase, curves)
}

/// Paper Figure 5: source snoop vs home snoop read latency for
/// exclusive-state data (local hierarchy, remote cache, and memory).
fn fig5(ctx: &JobCtx) -> JobOutput {
    let c = CoreId;
    let e = |label, mode, placer, home| Curve::new(label, mode, &[placer], Exclusive, home, c(0));
    let curves = vec![
        e("source local", SourceSnoop, c(0), 0),
        e("home   local", HomeSnoop, c(0), 0),
        e("source remote", SourceSnoop, c(12), 1),
        e("home   remote", HomeSnoop, c(12), 1),
    ];
    sweep_figure(ctx, "fig5", "ns per load", chase, curves)
}

/// Paper Figure 6: read latency in Cluster-on-Die mode — local, within
/// the NUMA node, the other on-chip node (1 hop), and the remote socket's
/// nodes at 1/2/3 hops, for Modified and Exclusive lines.
fn fig6(ctx: &JobCtx) -> JobOutput {
    let n0 = first_core_of(ClusterOnDie, 0);
    let n0b = nth_core_of(ClusterOnDie, 0, 1);
    let [n1, n2, n3] = [1, 2, 3].map(|n| first_core_of(ClusterOnDie, n));
    let cod = |label, placer, state, home, measurer| {
        Curve::new(label, ClusterOnDie, &[placer], state, home, measurer)
    };
    let curves = vec![
        cod("local M", n0, Modified, 0, n0),
        cod("node M", n0b, Modified, 0, n0),
        cod("node E", n0b, Exclusive, 0, n0),
        cod("1hop-chip M", n1, Modified, 1, n0),
        cod("1hop-chip E", n1, Exclusive, 1, n0),
        cod("1hop-QPI M", n2, Modified, 2, n0),
        cod("1hop-QPI E", n2, Exclusive, 2, n0),
        cod("2hops M", n3, Modified, 3, n0),
        cod("2hops E", n3, Exclusive, 3, n0),
        cod("3hops M", n3, Modified, 3, n1),
        cod("3hops E", n3, Exclusive, 3, n1),
    ];
    sweep_figure(ctx, "fig6", "ns per load", chase, curves)
}

/// Paper Figure 8: single-threaded memory read bandwidth vs data-set size
/// in the default configuration — AVX vs SSE loads on the local
/// hierarchy, plus core-to-core and cross-socket transfers for Modified
/// and Exclusive lines.
fn fig8(ctx: &JobCtx) -> JobOutput {
    let c = CoreId;
    let src =
        |label, placer, state, home| Curve::new(label, SourceSnoop, &[placer], state, home, c(0));
    let curves = vec![
        src("local AVX", c(0), Modified, 0),
        Curve { width: LoadWidth::Sse128, ..src("local SSE", c(0), Modified, 0) },
        src("node M", c(1), Modified, 0),
        src("node E", c(1), Exclusive, 0),
        src("remote M", c(12), Modified, 1),
        src("remote E", c(12), Exclusive, 1),
    ];
    sweep_figure(ctx, "fig8", "GB/s", stream, curves)
}

/// Paper Figure 9: single-threaded read bandwidth for *shared* cache
/// lines. When the Forward copy lives in the reading core's node,
/// private-cache hits run at full speed; when it lives in the other
/// socket, every L1/L2 hit is throttled to L3 bandwidth by the
/// forward-state reclaim notification the paper deduces in §VI-C/§VII-A.
fn fig9(ctx: &JobCtx) -> JobOutput {
    let c = CoreId;
    let shared = |label, placers: &[CoreId], home| {
        Curve::new(label, SourceSnoop, placers, Shared, home, c(0))
    };
    let curves = vec![
        // Measurer participates in the sharing; access order decides who
        // ends up with the Forward copy (the last reader).
        shared("shared, F local", &[c(12), c(0)], 0),
        shared("shared, F remote", &[c(0), c(12)], 0),
        // Shared data homed and forwarded entirely in the remote socket.
        shared("shared, remote L3", &[c(12), c(13)], 1),
    ];
    sweep_figure(ctx, "fig9", "GB/s", stream, curves)
}

/// A COD-mode read from node 0's first core of `size` bytes homed in
/// node `h`, shared by the home node's first core and a forward-copy
/// holder in node `f` (the home node's second core when `f == h`), left
/// in `level`.
fn cod_shared(f: u8, h: u8, level: Level, size: u64) -> LatencyScenario {
    let fwd = if f == h { nth_core_of(ClusterOnDie, h, 1) } else { first_core_of(ClusterOnDie, f) };
    LatencyScenario {
        mode: ClusterOnDie,
        placers: vec![first_core_of(ClusterOnDie, h), fwd],
        state: Shared,
        level,
        home: NodeId(h),
        measurer: first_core_of(ClusterOnDie, 0),
        size: Some(size),
    }
}

/// Paper Figure 7: COD-mode reads from node 0 to data shared by two
/// cores, with the forward copy (F) and home node (H) varied. Small data
/// sets are served from the home node's *memory* thanks to HitME
/// directory-cache hits (AllocateShared); as the footprint outgrows the
/// 14 KiB directory cache, an increasing share is forwarded by the remote
/// L3 after a snoop broadcast. `fig7_dram_fraction` is the fraction of
/// loads answered by DRAM — the analogue of the paper's
/// `MEM_LOAD_UOPS_L3_MISS_RETIRED:REMOTE_DRAM` diagnostic (footnote 6).
fn fig7() -> JobOutput {
    let kib = [32u64, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 2560, 4096, 8192];
    let mut fig = Figure::new("fig7", "ns per load");
    let mut dram = Figure::new("fig7_dram_fraction", "fraction of loads from DRAM");
    for (f, h) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
        let mut lat = Series::new(format!("F:{f} H:{h}"));
        let mut frac = Series::new(format!("F:{f} H:{h}"));
        for size in kib.map(|k| k * 1024) {
            let (ns, mem_frac) = cod_shared(f, h, Level::L3, size).run_detailed();
            lat.push(size as f64, ns);
            frac.push(size as f64, mem_frac);
        }
        fig.add(lat);
        dram.add(frac);
    }
    JobOutput {
        files: vec![
            ("fig7.txt".into(), fig.to_text() + &dram.to_text()),
            ("fig7.csv".into(), fig.csv_body()),
            ("fig7_dram_fraction.csv".into(), dram.csv_body()),
        ],
    }
}

/// Paper Tables IV and V: COD-mode latency from a core in node 0 to
/// lines shared by two cores — forward-copy node (rows) vs home node
/// (columns). Table IV reads L3-resident sets above the HitME coverage
/// (>2.5 MiB); Table V reads sets evicted to memory, where off-diagonal
/// cells pay the stale `SnoopAll` in-memory-directory broadcast and the
/// diagonal (shared only within the home node) needs none.
fn cod_shared_grid(id: &str, level: Level, size: u64) -> Table {
    let mut t = Table::new(id, &["F \\ H", "node0", "node1", "node2", "node3"]);
    for f in 0..4u8 {
        let row: Vec<f64> = (0..4u8).map(|h| cod_shared(f, h, level, size).run()).collect();
        t.row_f(format!("node{f}"), &row);
    }
    t
}

/// Chase latency from `measurer` to exclusive-state data that `placer`
/// left in `level`, homed at `home` (Table III, the ring ablation).
fn exclusive_latency(
    mode: CoherenceMode,
    level: Level,
    measurer: CoreId,
    home: NodeId,
    placer: CoreId,
) -> f64 {
    let placers = vec![placer];
    LatencyScenario { mode, placers, state: Exclusive, level, home, measurer, size: None }.run()
}

/// AVX streaming bandwidth of the same placement (Table VI).
fn exclusive_bandwidth(
    mode: CoherenceMode,
    level: Level,
    measurer: CoreId,
    home: NodeId,
    placer: CoreId,
) -> f64 {
    let (placers, width) = (vec![placer], LoadWidth::Avx256);
    BandwidthScenario { mode, placers, state: Exclusive, level, home, measurer, width, size: None }
        .run()
}

/// Where a Table III/VI row's data is homed, seen from the measuring core.
#[derive(Clone, Copy)]
enum Location {
    /// The measurer's own node, placed by the measurer.
    Local,
    /// The other socket's first node, placed by core 12.
    Remote1st,
    /// The other socket's second COD node, placed by core 18.
    Remote2nd,
}

/// Paper Tables III and VI: one exclusive-state measurement per row
/// (level, location) and column — default, early-snoop-off, and COD seen
/// from the first node (core 0) and from the second node's cores on the
/// first ring (core 6) and the second ring (core 8). `cell(mode, level,
/// measurer, home, placer)` measures one placement; a location that
/// does not exist outside COD prints as `-`.
fn mode_matrix(
    id: &str,
    rows: &[(&str, Level, Location)],
    cell: fn(CoherenceMode, Level, CoreId, NodeId, CoreId) -> f64,
) -> Table {
    const COLUMNS: [(CoherenceMode, u16); 5] =
        [(SourceSnoop, 0), (HomeSnoop, 0), (ClusterOnDie, 0), (ClusterOnDie, 6), (ClusterOnDie, 8)];
    let mut t = Table::new(
        id,
        &[
            "case",
            "default",
            "early-snoop-off",
            "cod node0",
            "cod n1 ring0 (c6)",
            "cod n1 ring1 (c8)",
        ],
    );
    for &(label, level, loc) in rows {
        let cells = COLUMNS
            .iter()
            .map(|&(mode, c)| {
                let measurer = CoreId(c);
                let (home, placer) = match loc {
                    Location::Local => (c as u8 / 6, measurer),
                    Location::Remote1st => (if mode.cod() { 2 } else { 1 }, CoreId(12)),
                    Location::Remote2nd if mode.cod() => (3, CoreId(18)),
                    Location::Remote2nd => return "-".to_string(),
                };
                format!("{:.1}", cell(mode, level, measurer, NodeId(home), placer))
            })
            .collect();
        t.row(label, cells);
    }
    t
}

/// Paper Table III: L3 and memory read latency across the three
/// coherence configurations, including the COD per-core variation.
/// Local rows are the no-snoop latency (placer = measurer); remote rows
/// read state-E data with a stale core-valid bit.
fn table3() -> Table {
    use Location::{Local, Remote1st, Remote2nd};
    let rows = [
        ("L3 local", Level::L3, Local),
        ("L3 remote 1st node", Level::L3, Remote1st),
        ("L3 remote 2nd node", Level::L3, Remote2nd),
        ("memory local", Level::Memory, Local),
        ("memory remote 1st node", Level::Memory, Remote1st),
        ("memory remote 2nd node", Level::Memory, Remote2nd),
    ];
    mode_matrix("table3", &rows, exclusive_latency)
}

/// Paper Table VI: single-threaded read bandwidth (GB/s) for L3 and
/// memory across the three coherence configurations (exclusive-state
/// data, as in the paper).
fn table6() -> Table {
    use Location::{Local, Remote1st, Remote2nd};
    let rows = [
        ("L3 local", Level::L3, Local),
        ("L3 remote 1st node", Level::L3, Remote1st),
        ("memory local", Level::Memory, Local),
        ("memory remote 1st node", Level::Memory, Remote1st),
        ("memory remote 2nd node", Level::Memory, Remote2nd),
    ];
    mode_matrix("table6", &rows, exclusive_bandwidth)
}

/// Cores `0..n`: the first `n` cores of socket 0 outside COD.
fn first_cores(n: u16) -> Vec<CoreId> {
    (0..n).map(CoreId).collect()
}

/// Paper Table VII: memory bandwidth scaling with concurrently
/// reading/writing cores, source snoop vs home snoop. Local reads
/// saturate ~63 GB/s in both modes; writes peak around five cores;
/// remote reads are tracker-starved under source snooping but
/// QPI-limited under home snooping.
fn table7() -> Table {
    let mut t = Table::new("table7", &["case", "1", "2", "4", "5", "8", "12"]);
    for (label, mode, home, write) in [
        ("local read, source snoop", SourceSnoop, 0, false),
        ("local read, home snoop", HomeSnoop, 0, false),
        ("local write, source snoop", SourceSnoop, 0, true),
        ("remote read, source snoop", SourceSnoop, 1, false),
        ("remote read, home snoop", HomeSnoop, 1, false),
    ] {
        let cells = [1, 2, 4, 5, 8, 12].map(|n| {
            let cores = first_cores(n);
            if write {
                aggregate_write(mode, &cores, |_| NodeId(home), 4 << 20)
            } else {
                aggregate_read(mode, &cores, |_| NodeId(home), Level::Memory, 8 << 20)
            }
        });
        t.row_f(label, &cells);
    }
    t
}

/// Paper Table VIII: memory read bandwidth scaling in COD mode —
/// node-local plus node0 <- node1/2/3 transfers at 1–6 cores of node 0.
fn table8() -> Table {
    let mut t = Table::new("table8", &["source", "1", "2", "3", "4", "6"]);
    for (label, home) in [
        ("local memory (node0)", 0),
        ("node0 <- node1", 1),
        ("node0 <- node2", 2),
        ("node0 <- node3", 3),
    ] {
        let cells = [1, 2, 3, 4, 6].map(|n| {
            let cores: Vec<CoreId> = (0..n).map(|i| nth_core_of(ClusterOnDie, 0, i)).collect();
            aggregate_read(ClusterOnDie, &cores, |_| NodeId(home), Level::Memory, 8 << 20)
        });
        t.row_f(label, &cells);
    }
    t
}

/// Aggregate L3 bandwidth on a system built from `cfg`: each of `cores`
/// streams its own 1 MiB buffer, homed in its node and placed Modified
/// in the L3 beforehand.
fn l3_aggregate(cfg: SystemConfig, cores: &[CoreId], write: bool) -> f64 {
    let mut sys = System::new(cfg);
    let bufs: Vec<Buffer> = cores
        .iter()
        .enumerate()
        .map(|(i, &c)| Buffer::on_node(&sys, sys.topo.node_of_core(c), 1 << 20, i as u64))
        .collect();
    let mut t = SimTime::ZERO;
    for (&c, b) in cores.iter().zip(&bufs) {
        t = Placement::modified(&mut sys, c, &b.lines, Level::L3, t);
    }
    let streams: Vec<(CoreId, &[LineAddr])> =
        cores.iter().zip(&bufs).map(|(&c, b)| (c, b.lines.as_slice())).collect();
    if write {
        stream_write_multi(&mut sys, &streams, LoadWidth::Avx256, t).gb_s
    } else {
        stream_read_multi(&mut sys, &streams, LoadWidth::Avx256, t).gb_s
    }
}

/// The §VII-B aggregate L3 scaling result: read bandwidth grows almost
/// linearly from 26.2 GB/s (1 core) to ~278 GB/s (12 cores); write
/// bandwidth from ~15 to ~161 GB/s. The last row is one COD node's six
/// cores (paper: 154 GB/s read / 94 GB/s write).
fn l3scaling() -> Table {
    let mut t = Table::new("l3scaling", &["case", "1", "2", "4", "6", "8", "10", "12"]);
    let src = SystemConfig::e5_2680_v3(SourceSnoop);
    for (label, write) in [("L3 read, source snoop", false), ("L3 write, source snoop", true)] {
        let cells =
            [1, 2, 4, 6, 8, 10, 12].map(|n| l3_aggregate(src.clone(), &first_cores(n), write));
        t.row_f(label, &cells);
    }
    let node0: Vec<CoreId> = (0..6).map(|i| nth_core_of(ClusterOnDie, 0, i)).collect();
    let cod = SystemConfig::e5_2680_v3(ClusterOnDie);
    let read = l3_aggregate(cod.clone(), &node0, false);
    let write = l3_aggregate(cod, &node0, true);
    let mut cells = vec![format!("read {read:.0}"), format!("write {write:.0}")];
    cells.resize(7, "-".into());
    t.row("COD per-node (6 cores)", cells);
    t
}

/// Paper Figure 10: coherence protocol configuration vs application
/// performance — SPEC OMP2012 and SPEC MPI2007 proxies, runtime
/// normalized to the default (source snoop) configuration.
fn fig10() -> Table {
    let mut t = Table::new("fig10", &["application", "source snoop", "home snoop", "COD"]);
    for (suite, apps) in [("OMP2012", omp2012_proxies()), ("MPI2007", mpi2007_proxies())] {
        for app in apps {
            let r = relative_runtimes(&app, 4000, 0xF16);
            t.row(format!("{suite} {}", app.name), r.iter().map(|v| format!("{v:.3}")).collect());
        }
    }
    t
}

/// Calibration report: every paper anchor vs the simulator, with the
/// worst relative error per suite.
fn calibrate() -> JobOutput {
    let mut log = String::new();
    for (section, anchors) in [
        ("latency anchors (ns)", latency_anchors()),
        ("bandwidth anchors (GB/s)", bandwidth_anchors()),
    ] {
        let _ = writeln!(log, "== {section} ==");
        let _ = writeln!(log, "{:<38} {:>9} {:>9} {:>8}", "scenario", "paper", "sim", "err%");
        for a in &anchors {
            let err = a.rel_err() * 100.0;
            let _ = writeln!(log, "{:<38} {:>9.1} {:>9.1} {err:>7.1}%", a.name, a.paper, a.sim);
        }
        let worst = anchors.iter().map(|a| a.rel_err().abs()).fold(0.0, f64::max);
        let _ = writeln!(log, "worst |err| = {:.1}%\n", worst * 100.0);
    }
    JobOutput { files: vec![("calibrate.log".into(), log)] }
}

/// Ablation: HitME directory-cache capacity vs the Figure 7 effect, on
/// the Fig. 7 workload (node 0 reads lines shared with F in node 1,
/// homed in node 2). Without the directory cache every access
/// broadcasts; with an infinite one every access takes the memory-forward
/// fast path regardless of footprint — the size-dependent crossover is
/// *caused by* the directory cache.
fn ablate_hitme() -> Figure {
    let mut fig = Figure::new("ablate_hitme", "ns per load (F:1 H:2 shared lines)");
    for (label, entries) in [
        ("no HitME", None),
        ("14 KiB (1792)", Some(1792)),
        ("112 KiB (14336)", Some(14336)),
        ("infinite", Some(1 << 20)),
    ] {
        let mut s = Series::new(label);
        for size in [64u64, 128, 256, 512, 1024, 2048, 4096].map(|k| k * 1024) {
            let mut cfg = SystemConfig::e5_2680_v3(ClusterOnDie);
            match entries {
                None => cfg.hitme_enabled = false,
                Some(n) => cfg.hitme_entries = n,
            }
            let mut sys = System::new(cfg);
            let home = NodeId(2);
            let buf = Buffer::on_node(&sys, home, size, 0);
            let placers = [sys.topo.cores_of_node(home)[0], sys.topo.cores_of_node(NodeId(1))[0]];
            let t = Placement::shared(&mut sys, &placers, &buf.lines, Level::L3, SimTime::ZERO);
            let measurer = sys.topo.cores_of_node(NodeId(0))[0];
            s.push(size as f64, pointer_chase(&mut sys, measurer, &buf.lines, t, 99).ns_per_access);
        }
        fig.add(s);
    }
    fig
}

/// Ablation: the stale in-memory-directory broadcast penalty (Table V
/// mechanism), with the HitME cache enabled and disabled. With the
/// AllocateShared policy active, cross-node sharing flips the in-memory
/// directory to `snoop-all`, so every post-eviction memory access pays a
/// broadcast; without the directory cache the state stays `shared` and
/// memory answers directly — "instead of shared which would be used
/// without the directory cache" (paper, §VI-C).
fn ablate_directory() -> Table {
    let mut t = Table::new("ablate_directory", &["variant", "ns per load", "dir broadcasts"]);
    for (label, hitme, cross_node) in [
        ("shared in-home only, HitME on", true, false),
        ("shared cross-node,  HitME on", true, true),
        ("shared in-home only, HitME off", false, false),
        ("shared cross-node,  HitME off", false, true),
    ] {
        let mut cfg = SystemConfig::e5_2680_v3(ClusterOnDie);
        cfg.hitme_enabled = hitme;
        let mut sys = System::new(cfg);
        let home = NodeId(1);
        let buf = Buffer::on_node(&sys, home, 32 << 20, 0);
        let a = sys.topo.cores_of_node(home)[0];
        let b = if cross_node {
            sys.topo.cores_of_node(NodeId(0))[0]
        } else {
            sys.topo.cores_of_node(home)[1]
        };
        let t0 = Placement::shared(&mut sys, &[a, b], &buf.lines, Level::Memory, SimTime::ZERO);
        sys.reset_stats();
        let measurer = sys.topo.cores_of_node(NodeId(0))[0];
        let m = pointer_chase(&mut sys, measurer, &buf.lines, t0, 5);
        let broadcasts = sys.stats.dir_broadcasts;
        t.row(label, vec![format!("{:.1}", m.ns_per_access), format!("{broadcasts}")]);
    }
    t
}

/// Ablation: L2 streamer prefetching vs single-core streaming bandwidth.
/// With the streamer off, memory-level parallelism falls back to the ten
/// line-fill buffers, costing ~40% of single-core DRAM bandwidth.
fn ablate_prefetch() -> Table {
    let mut t = Table::new("ablate_prefetch", &["case", "streamer on", "streamer off"]);
    for (label, level, size, home) in [
        ("local L3 read (GB/s)", Level::L3, 1 << 20, 0),
        ("local memory read (GB/s)", Level::Memory, 64 << 20, 0),
        ("remote memory read (GB/s)", Level::Memory, 64 << 20, 1),
    ] {
        let cells = [true, false].map(|prefetch| {
            let mut cfg = SystemConfig::e5_2680_v3(SourceSnoop);
            cfg.prefetch = prefetch;
            let mut sys = System::new(cfg);
            let buf = Buffer::on_node(&sys, NodeId(home), size, 0);
            let placer = if home == 0 { CoreId(0) } else { CoreId(12) };
            let t = Placement::exclusive(&mut sys, placer, &buf.lines, level, SimTime::ZERO);
            stream_read(&mut sys, CoreId(0), &buf.lines, LoadWidth::Avx256, t).gb_s
        });
        t.row_f(label, &cells);
    }
    t
}

/// Ablation: the asymmetric 8+4 ring split vs per-core COD performance
/// (§VI-C). Every core's local L3 and memory latency in COD and default
/// mode: node 0 (all on ring 0), node 1's cores 6-7 (ring 0, far from
/// their node's resources), and node 1's cores 8-11 (ring 1) form three
/// performance classes.
fn ablate_rings() -> Table {
    let mut t = Table::new(
        "ablate_rings",
        &["core", "node", "cod L3 ns", "cod mem ns", "default L3 ns", "default mem ns"],
    );
    for c in 0..12u16 {
        let core = CoreId(c);
        let node = if c < 6 { 0u8 } else { 1 };
        let lat = |mode, level, node| exclusive_latency(mode, level, core, NodeId(node), core);
        let cells = [
            lat(ClusterOnDie, Level::L3, node),
            lat(ClusterOnDie, Level::Memory, node),
            lat(SourceSnoop, Level::L3, 0),
            lat(SourceSnoop, Level::Memory, 0),
        ];
        let mut row = vec![format!("node{node}")];
        row.extend(cells.iter().map(|v| format!("{v:.1}")));
        t.row(format!("core{c}"), row);
    }
    t
}

/// Beyond-paper: non-temporal (streaming) stores. Regular stores pay a
/// read-for-ownership plus an eventual writeback but are absorbed by the
/// L3 while the dirty footprint fits; `movnt` stores always drain to
/// memory, so NT pulls ahead (~1.7x at 12 cores) once the aggregate
/// dirty data overflows the L3.
fn ablate_nt() -> Table {
    let mut t = Table::new("ablate_nt", &["cores", "RFO stores", "NT stores", "speedup"]);
    for n in [1, 2, 4, 8, 12] {
        let cores = first_cores(n);
        let rfo = aggregate_write(SourceSnoop, &cores, |_| NodeId(0), 4 << 20);
        let mut sys = System::new(SystemConfig::e5_2680_v3(SourceSnoop));
        let bufs: Vec<Buffer> =
            (0..n).map(|i| Buffer::on_node_dense(&sys, NodeId(0), 4 << 20, i as u64)).collect();
        let streams: Vec<(CoreId, &[LineAddr])> =
            cores.iter().zip(&bufs).map(|(&c, b)| (c, b.lines.as_slice())).collect();
        let nt = stream_write_nt_multi(&mut sys, &streams, LoadWidth::Avx256, SimTime::ZERO).gb_s;
        t.row(
            format!("{n}"),
            vec![format!("{rfo:.1}"), format!("{nt:.1}"), format!("{:.2}x", nt / rfo)],
        );
    }
    t
}

/// Ablation: L3 victim-selection policy around the L3 capacity. Random
/// replacement keeps a proportional fraction of an oversized cyclic
/// working set resident, while (P)LRU evicts exactly what is about to be
/// reused. The 20-way L3 is not a power of two, so tree-PLRU uses its
/// oldest-untouched fallback and coincides with true LRU here.
fn ablate_replacement() -> Figure {
    let mut fig = Figure::new("ablate_replacement", "ns per load around L3 capacity");
    for (label, policy) in [
        ("true LRU", Replacement::Lru),
        ("tree PLRU", Replacement::TreePlru),
        ("random", Replacement::Random),
    ] {
        let mut s = Series::new(label);
        for size in [16u64, 24, 28, 30, 32, 36, 48].map(|m| m << 20) {
            let mut cfg = SystemConfig::e5_2680_v3(SourceSnoop);
            cfg.l3_replacement = policy;
            let mut sys = System::new(cfg);
            let buf = Buffer::on_node_dense(&sys, NodeId(0), size, 0);
            // Two sequential passes warm the L3 to steady state under the
            // policy; the chase then measures the surviving-resident
            // fraction.
            let mut t =
                Placement::modified(&mut sys, CoreId(0), &buf.lines, Level::L3, SimTime::ZERO);
            for &l in &buf.lines {
                t = sys.read(CoreId(0), l, t).done;
                sys.demote_to_l3(CoreId(0), l, t);
            }
            s.push(size as f64, pointer_chase(&mut sys, CoreId(0), &buf.lines, t, 3).ns_per_access);
        }
        fig.add(s);
    }
    fig
}

/// Ablation: uncore frequency scaling vs aggregate L3 bandwidth. The
/// paper's §VII-B attributes unreproducible 7-12-core L3 boosts (up to
/// 343 GB/s) to uncore frequency scaling; +15…+25% uncore clock lifts the
/// typical 278 GB/s into that band.
fn ablate_uncore() -> Table {
    let mut t = Table::new("ablate_uncore", &["uncore clock", "aggregate L3 read GB/s"]);
    for scale in [1.0f64, 1.05, 1.10, 1.15, 1.20, 1.25] {
        let mut cfg = SystemConfig::e5_2680_v3(SourceSnoop);
        cfg.calib = cfg.calib.with_uncore_scale(scale);
        let gb_s = l3_aggregate(cfg, &first_cores(12), false);
        t.row(format!("{:.0}%", scale * 100.0), vec![format!("{gb_s:.0}")]);
    }
    t
}

/// Beyond-paper: the three Haswell-EP die variants (§III-B). The key
/// local/remote latency probes on the 8-, 12- and 18-core dies: the
/// single-ring 8-core die avoids queue-crossing penalties entirely, and
/// the 18-core die's longer rings stretch every on-chip distance.
fn skus() -> Table {
    let probe = |cfg: &SystemConfig, level: Level, remote: bool| {
        let mut sys = System::new(cfg.clone());
        let local = sys.topo.cores_of_node(NodeId(0))[0];
        let (home, placer) = if remote {
            let home = NodeId(sys.topo.n_nodes() / 2); // first node of socket 1
            (home, sys.topo.cores_of_node(home)[0])
        } else {
            (NodeId(0), local)
        };
        let buf = Buffer::on_node(&sys, home, size_for_level(level), 0);
        let t = Placement::exclusive(&mut sys, placer, &buf.lines, level, SimTime::ZERO);
        pointer_chase(&mut sys, local, &buf.lines, t, 17).ns_per_access
    };
    let mut t =
        Table::new("skus", &["die / mode", "local L3", "local mem", "remote L3", "remote mem"]);
    for (label, cfg) in [
        ("8-core, source snoop", SystemConfig::e5_8core(SourceSnoop)),
        ("8-core, COD", SystemConfig::e5_8core(ClusterOnDie)),
        ("12-core, source snoop", SystemConfig::e5_2680_v3(SourceSnoop)),
        ("12-core, COD", SystemConfig::e5_2680_v3(ClusterOnDie)),
        ("18-core, source snoop", SystemConfig::e5_18core(SourceSnoop)),
        ("18-core, COD", SystemConfig::e5_18core(ClusterOnDie)),
    ] {
        let cells = [false, true]
            .map(|remote| [Level::L3, Level::Memory].map(|level| probe(&cfg, level, remote)))
            .concat();
        t.row_f(label, &cells);
    }
    t
}

/// Beyond-paper: snoop-mode scaling with socket count (§IV-A). The same
/// local- and remote-memory probes on 2- and 4-socket systems, counting
/// coherence traffic: under source snooping every L3 miss broadcasts to
/// all peer caching agents, so snoops per read and the latency floor grow
/// with the socket count, while the COD directory keeps both flat.
fn sockets() -> Table {
    let mut t = Table::new("sockets", &["system", "local mem ns", "remote mem ns", "snoops/read"]);
    for sockets in [2u8, 4] {
        for mode in CoherenceMode::all() {
            let mut cfg = SystemConfig::e5_2680_v3(mode);
            cfg.sockets = sockets;
            let mut sys = System::new(cfg);
            let c0 = sys.topo.cores_of_node(NodeId(0))[0];
            let buf = Buffer::on_node(&sys, NodeId(0), 32 << 20, 0);
            let t0 = Placement::exclusive(&mut sys, c0, &buf.lines, Level::Memory, SimTime::ZERO);
            sys.reset_stats();
            let local = pointer_chase(&mut sys, c0, &buf.lines, t0, 9);
            let snoops = sys.stats.snoops_sent as f64 / local.samples as f64;
            // Remote memory: the last socket's first node.
            let far = NodeId(sys.topo.n_nodes() - if mode.cod() { 2 } else { 1 });
            let far_core = sys.topo.cores_of_node(far)[0];
            let far_buf = Buffer::on_node(&sys, far, 32 << 20, 1);
            let start = local.finished;
            let t1 = Placement::exclusive(&mut sys, far_core, &far_buf.lines, Level::Memory, start);
            let remote = pointer_chase(&mut sys, c0, &far_buf.lines, t1, 9);
            t.row(
                format!("{sockets}S {}", mode.label()),
                vec![
                    format!("{:.1}", local.ns_per_access),
                    format!("{:.1}", remote.ns_per_access),
                    format!("{snoops:.2}"),
                ],
            );
        }
    }
    t
}
