//! Campaign job registry: every figure, table and log under `results/`
//! as a supervised job built from addressable cells.
//!
//! Each [`JobSpec`] names its artifact and a builder that lists the job's
//! [`Cells`] — measured values with stable (artifact, row label, column)
//! ids — and formats its files from their values. [`JobSpec::run`] is the
//! one cell runner. `hswx campaign` is the one way to regenerate the
//! paper's evaluation: each job writes its CSV files (the bytes committed
//! under `results/`) and an aligned-text `<id>.txt`.
//!
//! Artifacts that measure the same thing share one function: the
//! size-sweep figures (Figs. 4–6 latency, 8–9 bandwidth) go through
//! `sweep_figure`, Tables III and VI through `mode_matrix`, Tables IV and
//! V (and Fig. 7's placements) through [`cod_shared`], and the aggregate-L3
//! results (§VII-B scaling, the uncore ablation) through `l3_aggregate`.

use crate::anchors::{bandwidth_cases, latency_cases, measure};
use crate::checkpoint::CheckpointStore;
use crate::scenarios::{
    aggregate_read, aggregate_write, cod_shared, first_core_of, level_of, nth_core_of,
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
use hswx_workloads::{mpi2007_proxies, omp2012_proxies, run_proxy};
use std::fmt::Write as _;

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

/// Address of one measured value: (artifact, row label, column).
type CellId = [String; 3];

/// Cells one measurement yields together, and that measurement.
struct Group {
    ids: Vec<CellId>,
    measure: Box<dyn Fn() -> Vec<f64> + Send + Sync>,
    values: Vec<f64>,
}

/// A job's cells. The runner calls the job's builder twice: the first call
/// lists the cells (each answers a placeholder zero), the second formats
/// the files from the measured values.
#[derive(Default)]
pub struct Cells {
    groups: Vec<Group>,
    /// Next group to answer, once every group is measured.
    answered: Option<usize>,
}

impl Cells {
    /// The value `measure` yields for cell (artifact, row, column).
    pub fn cell<F>(&mut self, artifact: &str, row: &str, column: impl ToString, measure: F) -> f64
    where
        F: Fn() -> f64 + Send + Sync + 'static,
    {
        self.group(&[[artifact, row, &column.to_string()]], move || vec![measure()])[0]
    }

    /// The values one measurement yields together, one per id.
    pub fn group<F>(&mut self, ids: &[[&str; 3]], measure: F) -> Vec<f64>
    where
        F: Fn() -> Vec<f64> + Send + Sync + 'static,
    {
        let ids: Vec<CellId> = ids.iter().map(|id| id.map(String::from)).collect();
        if let Some(next) = self.answered.as_mut() {
            *next += 1;
            let g = &self.groups[*next - 1];
            assert_eq!(g.ids, ids, "builder listed other cells");
            return g.values.clone();
        }
        let values = vec![0.0; ids.len()];
        self.groups.push(Group { ids, measure: Box::new(measure), values: values.clone() });
        values
    }
}

/// One artifact-producing campaign job.
#[derive(Debug, Clone, Copy)]
pub struct JobSpec {
    /// Stable identifier: the journal key and artifact file stem.
    pub id: &'static str,
    /// Lists the job's cells and formats its files from their values.
    /// Deterministic, and measures nothing outside its cells: every cell
    /// builds fresh simulators and touches no shared state.
    pub build: fn(&mut Cells) -> JobOutput,
}

impl JobSpec {
    /// The cell runner: list the job's cells, measure the groups `store`
    /// lacks in parallel (recording each cell under its id and the
    /// reference config digest as its group finishes), and format the files.
    /// Replayed values are bit-exact, so a resumed job writes the bytes of
    /// an uninterrupted one. A job without cells is built by the first
    /// call. Panics, after every other group has finished, when a group
    /// panics.
    pub fn run(&self, store: Option<&CheckpointStore>) -> JobOutput {
        let mut cells = Cells::default();
        let listed = (self.build)(&mut cells);
        if cells.groups.is_empty() {
            return listed;
        }
        let digest = reference_digest().to_le_bytes();
        let key = |[a, r, c]: &CellId| {
            CheckpointStore::key(&[a.as_bytes(), r.as_bytes(), c.as_bytes(), &digest])
        };
        let measure = |g: &&Group| {
            let replayed = store.and_then(|s| g.ids.iter().map(|id| s.lookup(key(id))).collect());
            replayed.unwrap_or_else(|| {
                let values = (g.measure)();
                if let Some(s) = store {
                    g.ids.iter().zip(&values).for_each(|(id, &v)| s.record(key(id), v));
                }
                values
            })
        };
        let (values, failed) =
            crate::parallel::parallel_try_map(cells.groups.iter().collect(), measure);
        let failed: Vec<_> =
            failed.iter().map(|f| (&cells.groups[f.index].ids, &f.panic)).collect();
        assert!(failed.is_empty(), "cell groups failed: {failed:?}");
        for (g, v) in cells.groups.iter_mut().zip(values) {
            g.values = v.expect("every group without a failure has values");
        }
        cells.answered = Some(0);
        (self.build)(&mut cells)
    }
}

/// Digest of the reference configuration (E5-2680 v3, source snoop): part
/// of every cell's checkpoint key, and of the manifest's reproduce line.
pub(crate) fn reference_digest() -> u64 {
    SystemConfig::e5_2680_v3(SourceSnoop).digest()
}

/// The registered campaign jobs, one per artifact under `results/`, in
/// the order the campaign runs them.
pub fn registry() -> Vec<JobSpec> {
    fn job(id: &'static str, build: fn(&mut Cells) -> JobOutput) -> JobSpec {
        JobSpec { id, build }
    }
    vec![
        job("table1", |_| table1().into()),
        job("table2", |_| table2().into()),
        job("fig4", fig4),
        job("fig5", fig5),
        job("fig6", fig6),
        job("fig7", fig7),
        job("table3", |m| table3(m).into()),
        job("table4", |m| cod_shared_grid(m, "table4", Level::L3, 4 << 20).into()),
        job("table5", |m| cod_shared_grid(m, "table5", Level::Memory, 32 << 20).into()),
        job("fig8", fig8),
        job("fig9", fig9),
        job("table6", |m| table6(m).into()),
        job("table7", |m| table7(m).into()),
        job("table8", |m| table8(m).into()),
        job("l3scaling", |m| l3scaling(m).into()),
        job("fig10", |m| fig10(m).into()),
        job("calibrate", calibrate),
        job("ablate_hitme", |m| ablate_hitme(m).into()),
        job("ablate_directory", |m| ablate_directory(m).into()),
        job("ablate_prefetch", |m| ablate_prefetch(m).into()),
        job("ablate_rings", |m| ablate_rings(m).into()),
        job("ablate_nt", |m| ablate_nt(m).into()),
        job("ablate_replacement", |m| ablate_replacement(m).into()),
        job("ablate_uncore", |m| ablate_uncore(m).into()),
        job("skus", |m| skus(m).into()),
        job("sockets", |m| sockets(m).into()),
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
#[derive(Clone)]
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

/// Pointer-chase latency of `c` at `size` (Figs. 4–6). The placement
/// level follows capacity: the paper's size-sweep methodology.
fn chase(c: &Curve, size: u64) -> f64 {
    let (mode, placers, state, home, measurer) =
        (c.mode, c.placers.clone(), c.state, NodeId(c.home), c.measurer);
    let level = level_of(mode, size);
    LatencyScenario { mode, placers, state, level, home, measurer, size: Some(size) }.run()
}

/// Single-core streaming bandwidth of `c` at `size` (Figs. 8–9).
fn stream(c: &Curve, size: u64) -> f64 {
    let (mode, placers, state, home, measurer) =
        (c.mode, c.placers.clone(), c.state, NodeId(c.home), c.measurer);
    let (level, width) = (level_of(mode, size), c.width);
    BandwidthScenario { mode, placers, state, level, home, measurer, width, size: Some(size) }.run()
}

/// A size-sweep figure: one cell per curve and size of [`sweep_sizes`].
fn sweep_figure(
    m: &mut Cells,
    id: &str,
    y_unit: &str,
    measure: fn(&Curve, u64) -> f64,
    curves: Vec<Curve>,
) -> JobOutput {
    let mut fig = Figure::new(id, y_unit);
    for c in curves {
        let mut s = Series::new(c.label);
        for size in sweep_sizes() {
            let c = c.clone();
            s.push(size as f64, m.cell(id, c.label, size, move || measure(&c, size)));
        }
        fig.add(s);
    }
    fig.into()
}

/// Paper Figure 4: memory read latency vs data-set size in the default
/// (source snoop) configuration — local hierarchy, another core in the
/// same NUMA node, and the other socket, for M/E/S cache lines.
fn fig4(m: &mut Cells) -> JobOutput {
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
    sweep_figure(m, "fig4", "ns per load", chase, curves)
}

/// Paper Figure 5: source snoop vs home snoop read latency for
/// exclusive-state data (local hierarchy, remote cache, and memory).
fn fig5(m: &mut Cells) -> JobOutput {
    let c = CoreId;
    let e = |label, mode, placer, home| Curve::new(label, mode, &[placer], Exclusive, home, c(0));
    let curves = vec![
        e("source local", SourceSnoop, c(0), 0),
        e("home   local", HomeSnoop, c(0), 0),
        e("source remote", SourceSnoop, c(12), 1),
        e("home   remote", HomeSnoop, c(12), 1),
    ];
    sweep_figure(m, "fig5", "ns per load", chase, curves)
}

/// Paper Figure 6: read latency in Cluster-on-Die mode — local, within
/// the NUMA node, the other on-chip node (1 hop), and the remote socket's
/// nodes at 1/2/3 hops, for Modified and Exclusive lines.
fn fig6(m: &mut Cells) -> JobOutput {
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
    sweep_figure(m, "fig6", "ns per load", chase, curves)
}

/// Paper Figure 8: single-threaded memory read bandwidth vs data-set size
/// in the default configuration — AVX vs SSE loads on the local
/// hierarchy, plus core-to-core and cross-socket transfers for Modified
/// and Exclusive lines.
fn fig8(m: &mut Cells) -> JobOutput {
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
    sweep_figure(m, "fig8", "GB/s", stream, curves)
}

/// Paper Figure 9: single-threaded read bandwidth for *shared* cache
/// lines. When the Forward copy lives in the reading core's node,
/// private-cache hits run at full speed; when it lives in the other
/// socket, every L1/L2 hit is throttled to L3 bandwidth by the
/// forward-state reclaim notification the paper deduces in §VI-C/§VII-A.
fn fig9(m: &mut Cells) -> JobOutput {
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
    sweep_figure(m, "fig9", "GB/s", stream, curves)
}

/// Paper Figure 7: COD-mode reads from node 0 to data shared by two
/// cores, with the forward copy (F) and home node (H) varied. Small data
/// sets are served from the home node's *memory* thanks to HitME
/// directory-cache hits (AllocateShared); as the footprint outgrows the
/// 14 KiB directory cache, an increasing share is forwarded by the remote
/// L3 after a snoop broadcast. `fig7_dram_fraction` is the fraction of
/// loads answered by DRAM — the analogue of the paper's
/// `MEM_LOAD_UOPS_L3_MISS_RETIRED:REMOTE_DRAM` diagnostic (footnote 6).
fn fig7(m: &mut Cells) -> JobOutput {
    let kib = [32u64, 64, 96, 128, 192, 256, 384, 512, 768, 1024, 1536, 2048, 2560, 4096, 8192];
    let mut fig = Figure::new("fig7", "ns per load");
    let mut dram = Figure::new("fig7_dram_fraction", "fraction of loads from DRAM");
    for (f, h) in [(1, 1), (1, 2), (2, 1), (2, 2)] {
        let label = format!("F:{f} H:{h}");
        let (mut lat, mut frac) = (Series::new(&label), Series::new(&label));
        for size in kib.map(|k| k * 1024) {
            let x = size.to_string();
            let ids = [["fig7", &label, &x], ["fig7_dram_fraction", &label, &x]];
            let v = m.group(&ids, move || {
                let (ns, mem_frac) = cod_shared(f, h, Level::L3, size).run_detailed();
                vec![ns, mem_frac]
            });
            lat.push(size as f64, v[0]);
            frac.push(size as f64, v[1]);
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
fn cod_shared_grid(m: &mut Cells, id: &str, level: Level, size: u64) -> Table {
    let mut t = Table::new(id, &["F \\ H", "node0", "node1", "node2", "node3"]);
    for f in 0..4u8 {
        let row = format!("node{f}");
        let cells = [0, 1, 2, 3].map(|h| {
            m.cell(id, &row, format!("node{h}"), move || cod_shared(f, h, level, size).run())
        });
        t.row_f(row, &cells);
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
    m: &mut Cells,
    id: &str,
    rows: &[(&str, Level, Location)],
    cell: fn(CoherenceMode, Level, CoreId, NodeId, CoreId) -> f64,
) -> Table {
    const COLUMNS: [(CoherenceMode, u16, &str); 5] = [
        (SourceSnoop, 0, "default"),
        (HomeSnoop, 0, "early-snoop-off"),
        (ClusterOnDie, 0, "cod node0"),
        (ClusterOnDie, 6, "cod n1 ring0 (c6)"),
        (ClusterOnDie, 8, "cod n1 ring1 (c8)"),
    ];
    let mut t = Table::new(id, &[["case"].as_slice(), &COLUMNS.map(|c| c.2)].concat());
    for &(label, level, loc) in rows {
        let cells = COLUMNS
            .iter()
            .map(|&(mode, c, column)| {
                let measurer = CoreId(c);
                let (home, placer) = match loc {
                    Location::Local => (NodeId(c as u8 / 6), measurer),
                    Location::Remote1st => (NodeId(if mode.cod() { 2 } else { 1 }), CoreId(12)),
                    Location::Remote2nd if mode.cod() => (NodeId(3), CoreId(18)),
                    Location::Remote2nd => return "-".to_string(),
                };
                let v =
                    m.cell(id, label, column, move || cell(mode, level, measurer, home, placer));
                format!("{v:.1}")
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
fn table3(m: &mut Cells) -> Table {
    use Location::{Local, Remote1st, Remote2nd};
    let rows = [
        ("L3 local", Level::L3, Local),
        ("L3 remote 1st node", Level::L3, Remote1st),
        ("L3 remote 2nd node", Level::L3, Remote2nd),
        ("memory local", Level::Memory, Local),
        ("memory remote 1st node", Level::Memory, Remote1st),
        ("memory remote 2nd node", Level::Memory, Remote2nd),
    ];
    mode_matrix(m, "table3", &rows, exclusive_latency)
}

/// Paper Table VI: single-threaded read bandwidth (GB/s) for L3 and
/// memory across the three coherence configurations (exclusive-state
/// data, as in the paper).
fn table6(m: &mut Cells) -> Table {
    use Location::{Local, Remote1st, Remote2nd};
    let rows = [
        ("L3 local", Level::L3, Local),
        ("L3 remote 1st node", Level::L3, Remote1st),
        ("memory local", Level::Memory, Local),
        ("memory remote 1st node", Level::Memory, Remote1st),
        ("memory remote 2nd node", Level::Memory, Remote2nd),
    ];
    mode_matrix(m, "table6", &rows, exclusive_bandwidth)
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
fn table7(m: &mut Cells) -> Table {
    let mut t = Table::new("table7", &["case", "1", "2", "4", "5", "8", "12"]);
    for (label, mode, home, write) in [
        ("local read, source snoop", SourceSnoop, 0, false),
        ("local read, home snoop", HomeSnoop, 0, false),
        ("local write, source snoop", SourceSnoop, 0, true),
        ("remote read, source snoop", SourceSnoop, 1, false),
        ("remote read, home snoop", HomeSnoop, 1, false),
    ] {
        let cells = [1, 2, 4, 5, 8, 12].map(|n| {
            m.cell("table7", label, n, move || {
                let cores = first_cores(n);
                if write {
                    aggregate_write(mode, &cores, |_| NodeId(home), 4 << 20)
                } else {
                    aggregate_read(mode, &cores, |_| NodeId(home), Level::Memory, 8 << 20)
                }
            })
        });
        t.row_f(label, &cells);
    }
    t
}

/// Paper Table VIII: memory read bandwidth scaling in COD mode —
/// node-local plus node0 <- node1/2/3 transfers at 1–6 cores of node 0.
fn table8(m: &mut Cells) -> Table {
    let mut t = Table::new("table8", &["source", "1", "2", "3", "4", "6"]);
    for (label, home) in [
        ("local memory (node0)", 0),
        ("node0 <- node1", 1),
        ("node0 <- node2", 2),
        ("node0 <- node3", 3),
    ] {
        let cells = [1, 2, 3, 4, 6].map(|n| {
            m.cell("table8", label, n, move || {
                let cores: Vec<CoreId> = (0..n).map(|i| nth_core_of(ClusterOnDie, 0, i)).collect();
                aggregate_read(ClusterOnDie, &cores, |_| NodeId(home), Level::Memory, 8 << 20)
            })
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
fn l3scaling(m: &mut Cells) -> Table {
    let id = "l3scaling";
    let mut t = Table::new(id, &["case", "1", "2", "4", "6", "8", "10", "12"]);
    for (label, write) in [("L3 read, source snoop", false), ("L3 write, source snoop", true)] {
        let cells = [1, 2, 4, 6, 8, 10, 12].map(|n| {
            m.cell(id, label, n, move || {
                l3_aggregate(SystemConfig::e5_2680_v3(SourceSnoop), &first_cores(n), write)
            })
        });
        t.row_f(label, &cells);
    }
    let row = "COD per-node (6 cores)";
    let [read, write] = [("read", false), ("write", true)].map(|(column, write)| {
        m.cell(id, row, column, move || {
            let node0: Vec<CoreId> = (0..6).map(|i| nth_core_of(ClusterOnDie, 0, i)).collect();
            l3_aggregate(SystemConfig::e5_2680_v3(ClusterOnDie), &node0, write)
        })
    });
    let mut cells = vec![format!("read {read:.0}"), format!("write {write:.0}")];
    cells.resize(7, "-".into());
    t.row(row, cells);
    t
}

/// Paper Figure 10: coherence protocol configuration vs application
/// performance — SPEC OMP2012 and SPEC MPI2007 proxies, runtime
/// normalized to the default (source snoop) configuration. Each cell is
/// one (application, mode) proxy runtime.
fn fig10(m: &mut Cells) -> Table {
    let modes = [(SourceSnoop, "source snoop"), (HomeSnoop, "home snoop"), (ClusterOnDie, "COD")];
    let mut t = Table::new("fig10", &["application", modes[0].1, modes[1].1, modes[2].1]);
    for (suite, apps) in [("OMP2012", omp2012_proxies()), ("MPI2007", mpi2007_proxies())] {
        for app in apps {
            let row = format!("{suite} {}", app.name);
            let [src, hs, cod] = modes.map(|(mode, column)| {
                let app = app.clone();
                m.cell("fig10", &row, column, move || run_proxy(&app, mode, 4000, 0xF16))
            });
            t.row(row, [1.0, hs / src, cod / src].iter().map(|v| format!("{v:.3}")).collect());
        }
    }
    t
}

/// Calibration report: every paper anchor vs the simulator, with the
/// worst relative error per suite. Each anchor is one cell.
fn calibrate(m: &mut Cells) -> JobOutput {
    let mut log = String::new();
    for (section, cases) in
        [("latency anchors (ns)", latency_cases()), ("bandwidth anchors (GB/s)", bandwidth_cases())]
    {
        let anchors = measure(cases, |name, s| m.cell("calibrate", name, "sim", s));
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
fn ablate_hitme(m: &mut Cells) -> Figure {
    let mut fig = Figure::new("ablate_hitme", "ns per load (F:1 H:2 shared lines)");
    for (label, entries) in [
        ("no HitME", None),
        ("14 KiB (1792)", Some(1792)),
        ("112 KiB (14336)", Some(14336)),
        ("infinite", Some(1 << 20)),
    ] {
        let mut s = Series::new(label);
        for size in [64u64, 128, 256, 512, 1024, 2048, 4096].map(|k| k * 1024) {
            let ns = m.cell("ablate_hitme", label, size, move || {
                let mut cfg = SystemConfig::e5_2680_v3(ClusterOnDie);
                match entries {
                    None => cfg.hitme_enabled = false,
                    Some(n) => cfg.hitme_entries = n,
                }
                let mut sys = System::new(cfg);
                let home = NodeId(2);
                let buf = Buffer::on_node(&sys, home, size, 0);
                let placers =
                    [sys.topo.cores_of_node(home)[0], sys.topo.cores_of_node(NodeId(1))[0]];
                let t = Placement::shared(&mut sys, &placers, &buf.lines, Level::L3, SimTime::ZERO);
                let measurer = sys.topo.cores_of_node(NodeId(0))[0];
                pointer_chase(&mut sys, measurer, &buf.lines, t, 99).ns_per_access
            });
            s.push(size as f64, ns);
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
fn ablate_directory(m: &mut Cells) -> Table {
    let (id, columns) = ("ablate_directory", ["ns per load", "dir broadcasts"]);
    let mut t = Table::new(id, &["variant", columns[0], columns[1]]);
    for (label, hitme, cross_node) in [
        ("shared in-home only, HitME on", true, false),
        ("shared cross-node,  HitME on", true, true),
        ("shared in-home only, HitME off", false, false),
        ("shared cross-node,  HitME off", false, true),
    ] {
        let v = m.group(&columns.map(|c| [id, label, c]), move || {
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
            let chase = pointer_chase(&mut sys, measurer, &buf.lines, t0, 5);
            vec![chase.ns_per_access, sys.stats.dir_broadcasts as f64]
        });
        t.row(label, vec![format!("{:.1}", v[0]), format!("{}", v[1] as u64)]);
    }
    t
}

/// Ablation: L2 streamer prefetching vs single-core streaming bandwidth.
/// With the streamer off, memory-level parallelism falls back to the ten
/// line-fill buffers, costing ~40% of single-core DRAM bandwidth.
fn ablate_prefetch(m: &mut Cells) -> Table {
    let mut t = Table::new("ablate_prefetch", &["case", "streamer on", "streamer off"]);
    for (label, level, size, home) in [
        ("local L3 read (GB/s)", Level::L3, 1 << 20, 0),
        ("local memory read (GB/s)", Level::Memory, 64 << 20, 0),
        ("remote memory read (GB/s)", Level::Memory, 64 << 20, 1),
    ] {
        let cells = [(true, "streamer on"), (false, "streamer off")].map(|(prefetch, column)| {
            m.cell("ablate_prefetch", label, column, move || {
                let mut cfg = SystemConfig::e5_2680_v3(SourceSnoop);
                cfg.prefetch = prefetch;
                let mut sys = System::new(cfg);
                let buf = Buffer::on_node(&sys, NodeId(home), size, 0);
                let placer = if home == 0 { CoreId(0) } else { CoreId(12) };
                let t = Placement::exclusive(&mut sys, placer, &buf.lines, level, SimTime::ZERO);
                stream_read(&mut sys, CoreId(0), &buf.lines, LoadWidth::Avx256, t).gb_s
            })
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
fn ablate_rings(m: &mut Cells) -> Table {
    let columns = ["cod L3 ns", "cod mem ns", "default L3 ns", "default mem ns"];
    let mut t = Table::new("ablate_rings", &[["core", "node"].as_slice(), &columns].concat());
    for c in 0..12u16 {
        let (core, node, row) = (CoreId(c), if c < 6 { 0u8 } else { 1 }, format!("core{c}"));
        let cases = [
            (ClusterOnDie, Level::L3, node),
            (ClusterOnDie, Level::Memory, node),
            (SourceSnoop, Level::L3, 0),
            (SourceSnoop, Level::Memory, 0),
        ];
        let mut cells = vec![format!("node{node}")];
        for ((mode, level, home), column) in cases.into_iter().zip(columns) {
            let v = m.cell("ablate_rings", &row, column, move || {
                exclusive_latency(mode, level, core, NodeId(home), core)
            });
            cells.push(format!("{v:.1}"));
        }
        t.row(row, cells);
    }
    t
}

/// Beyond-paper: non-temporal (streaming) stores. Regular stores pay a
/// read-for-ownership plus an eventual writeback but are absorbed by the
/// L3 while the dirty footprint fits; `movnt` stores always drain to
/// memory, so NT pulls ahead (~1.7x at 12 cores) once the aggregate
/// dirty data overflows the L3.
fn ablate_nt(m: &mut Cells) -> Table {
    let mut t = Table::new("ablate_nt", &["cores", "RFO stores", "NT stores", "speedup"]);
    for n in [1, 2, 4, 8, 12] {
        let row = format!("{n}");
        let rfo = m.cell("ablate_nt", &row, "RFO stores", move || {
            aggregate_write(SourceSnoop, &first_cores(n), |_| NodeId(0), 4 << 20)
        });
        let nt = m.cell("ablate_nt", &row, "NT stores", move || {
            let cores = first_cores(n);
            let mut sys = System::new(SystemConfig::e5_2680_v3(SourceSnoop));
            let bufs: Vec<Buffer> =
                (0..n).map(|i| Buffer::on_node_dense(&sys, NodeId(0), 4 << 20, i as u64)).collect();
            let streams: Vec<(CoreId, &[LineAddr])> =
                cores.iter().zip(&bufs).map(|(&c, b)| (c, b.lines.as_slice())).collect();
            stream_write_nt_multi(&mut sys, &streams, LoadWidth::Avx256, SimTime::ZERO).gb_s
        });
        t.row(row, vec![format!("{rfo:.1}"), format!("{nt:.1}"), format!("{:.2}x", nt / rfo)]);
    }
    t
}

/// Ablation: L3 victim-selection policy around the L3 capacity. Random
/// replacement keeps a proportional fraction of an oversized cyclic
/// working set resident, while (P)LRU evicts exactly what is about to be
/// reused. The 20-way L3 is not a power of two, so tree-PLRU uses its
/// oldest-untouched fallback and coincides with true LRU here.
fn ablate_replacement(m: &mut Cells) -> Figure {
    let mut fig = Figure::new("ablate_replacement", "ns per load around L3 capacity");
    for (label, policy) in [
        ("true LRU", Replacement::Lru),
        ("tree PLRU", Replacement::TreePlru),
        ("random", Replacement::Random),
    ] {
        let mut s = Series::new(label);
        for size in [16u64, 24, 28, 30, 32, 36, 48].map(|mib| mib << 20) {
            let ns = m.cell("ablate_replacement", label, size, move || {
                let mut cfg = SystemConfig::e5_2680_v3(SourceSnoop);
                cfg.l3_replacement = policy;
                let mut sys = System::new(cfg);
                let buf = Buffer::on_node_dense(&sys, NodeId(0), size, 0);
                // Two sequential passes warm the L3 to steady state under
                // the policy; the chase then measures the surviving-resident
                // fraction.
                let mut t =
                    Placement::modified(&mut sys, CoreId(0), &buf.lines, Level::L3, SimTime::ZERO);
                for &l in &buf.lines {
                    t = sys.read(CoreId(0), l, t).done;
                    sys.demote_to_l3(CoreId(0), l, t);
                }
                pointer_chase(&mut sys, CoreId(0), &buf.lines, t, 3).ns_per_access
            });
            s.push(size as f64, ns);
        }
        fig.add(s);
    }
    fig
}

/// Ablation: uncore frequency scaling vs aggregate L3 bandwidth. The
/// paper's §VII-B attributes unreproducible 7-12-core L3 boosts (up to
/// 343 GB/s) to uncore frequency scaling; +15…+25% uncore clock lifts the
/// typical 278 GB/s into that band.
fn ablate_uncore(m: &mut Cells) -> Table {
    let (id, column) = ("ablate_uncore", "aggregate L3 read GB/s");
    let mut t = Table::new(id, &["uncore clock", column]);
    for scale in [1.0f64, 1.05, 1.10, 1.15, 1.20, 1.25] {
        let row = format!("{:.0}%", scale * 100.0);
        let gb_s = m.cell(id, &row, column, move || {
            let mut cfg = SystemConfig::e5_2680_v3(SourceSnoop);
            cfg.calib = cfg.calib.with_uncore_scale(scale);
            l3_aggregate(cfg, &first_cores(12), false)
        });
        t.row(row, vec![format!("{gb_s:.0}")]);
    }
    t
}

/// Beyond-paper: the three Haswell-EP die variants (§III-B). The key
/// local/remote latency probes on the 8-, 12- and 18-core dies: the
/// single-ring 8-core die avoids queue-crossing penalties entirely, and
/// the 18-core die's longer rings stretch every on-chip distance.
fn skus(m: &mut Cells) -> Table {
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
    let columns = ["local L3", "local mem", "remote L3", "remote mem"];
    let mut t = Table::new("skus", &[["die / mode"].as_slice(), &columns].concat());
    for (label, cfg) in [
        ("8-core, source snoop", SystemConfig::e5_8core(SourceSnoop)),
        ("8-core, COD", SystemConfig::e5_8core(ClusterOnDie)),
        ("12-core, source snoop", SystemConfig::e5_2680_v3(SourceSnoop)),
        ("12-core, COD", SystemConfig::e5_2680_v3(ClusterOnDie)),
        ("18-core, source snoop", SystemConfig::e5_18core(SourceSnoop)),
        ("18-core, COD", SystemConfig::e5_18core(ClusterOnDie)),
    ] {
        let cells = columns.iter().enumerate().map(|(i, column)| {
            let (cfg, level) = (cfg.clone(), [Level::L3, Level::Memory][i % 2]);
            m.cell("skus", label, column, move || probe(&cfg, level, i >= 2))
        });
        t.row_f(label, &cells.collect::<Vec<f64>>());
    }
    t
}

/// Beyond-paper: snoop-mode scaling with socket count (§IV-A). The same
/// local- and remote-memory probes on 2- and 4-socket systems, counting
/// coherence traffic: under source snooping every L3 miss broadcasts to
/// all peer caching agents, so snoops per read and the latency floor grow
/// with the socket count, while the COD directory keeps both flat.
fn sockets(m: &mut Cells) -> Table {
    let columns = ["local mem ns", "remote mem ns", "snoops/read"];
    let mut t = Table::new("sockets", &[["system"].as_slice(), &columns].concat());
    for sockets in [2u8, 4] {
        for mode in CoherenceMode::all() {
            let row = format!("{sockets}S {}", mode.label());
            let v = m.group(&columns.map(|c| ["sockets", &row, c]), move || {
                let mut cfg = SystemConfig::e5_2680_v3(mode);
                cfg.sockets = sockets;
                let mut sys = System::new(cfg);
                let c0 = sys.topo.cores_of_node(NodeId(0))[0];
                let buf = Buffer::on_node(&sys, NodeId(0), 32 << 20, 0);
                let t0 =
                    Placement::exclusive(&mut sys, c0, &buf.lines, Level::Memory, SimTime::ZERO);
                sys.reset_stats();
                let local = pointer_chase(&mut sys, c0, &buf.lines, t0, 9);
                let snoops = sys.stats.snoops_sent as f64 / local.samples as f64;
                // Remote memory: the last socket's first node.
                let far = NodeId(sys.topo.n_nodes() - if mode.cod() { 2 } else { 1 });
                let far_core = sys.topo.cores_of_node(far)[0];
                let far_buf = Buffer::on_node(&sys, far, 32 << 20, 1);
                let start = local.finished;
                let t1 =
                    Placement::exclusive(&mut sys, far_core, &far_buf.lines, Level::Memory, start);
                let remote = pointer_chase(&mut sys, c0, &far_buf.lines, t1, 9);
                vec![local.ns_per_access, remote.ns_per_access, snoops]
            });
            t.row(
                row,
                vec![format!("{:.1}", v[0]), format!("{:.1}", v[1]), format!("{:.2}", v[2])],
            );
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn registry_ids_are_unique() {
        let jobs = registry();
        let ids: BTreeSet<&str> = jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids.len(), jobs.len(), "duplicate job id in {ids:?}");
        // Within a job, cell ids key the checkpoint, so they are unique too
        // (calibrate's are its anchors' names). Listing measures nothing.
        for job in &jobs {
            let mut cells = Cells::default();
            (job.build)(&mut cells);
            let ids: BTreeSet<&CellId> = cells.groups.iter().flat_map(|g| &g.ids).collect();
            let listed: usize = cells.groups.iter().map(|g| g.ids.len()).sum();
            assert_eq!(ids.len(), listed, "duplicate cell id in job `{}`", job.id);
        }
    }
}
