//! Workloads, their units, and how one unit runs.
//!
//! A unit is one independent simulation: a sweep point, a Table VII cell,
//! an (application, mode) cell of Figure 10, or one calibration anchor
//! suite. Each unit builds its own `System` (or calls a public function
//! that does), so modelled caches start empty and are filled by the
//! unit's own placement phase, as in the paper's method. Units are
//! decomposed into the same public calls the `crates/bench/src/bin`
//! regenerators make, so every output can be compared with the committed
//! `results/` artifacts byte for byte.
//!
//! A *pass* is every unit of a workload's artifacts. [`deal`] splits a
//! pass into rounds; a round is one closed batch on
//! `hswx_bench::parallel::parallel_try_map`.

use crate::trace::{Layer, Tracer};
use hswx_bench::scenarios::{first_core_of, level_of, nth_core_of};
use hswx_bench::Anchor;
use hswx_engine::{DetRng, MetricsRegistry, SimTime};
use hswx_haswell::microbench::{
    pointer_chase, stream_read, stream_read_multi, stream_write_multi, Buffer, LoadWidth,
};
use hswx_haswell::placement::{PlacedState, Placement};
use hswx_haswell::report::sweep_sizes;
use hswx_haswell::{CoherenceMode, System, SystemConfig};
use hswx_mem::{CoreId, LineAddr, NodeId};
use hswx_workloads::{mpi2007_proxies, omp2012_proxies, AppProxy};

/// Pointer-chase seed of every latency figure (`LatencyScenario::run_detailed`).
pub const CHASE_SEED: u64 = 0xC0FFEE;
/// RNG seed `bin/fig10` hands `run_proxy`.
pub const PROXY_SEED: u64 = 0xF16;
/// Memory operations per thread in `bin/fig10`.
pub const PROXY_ACCESSES: usize = 4000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figures 4 and 6: pointer-chase latency sweeps.
    LatencySweep,
    /// Figures 8 and 9 single-core streams plus Table VII aggregates.
    BandwidthStream,
    /// Figure 10: application proxies under the three coherence modes.
    AppProxy,
    /// The latency and bandwidth calibration anchor suites.
    PaperAnchors,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::LatencySweep,
        Workload::BandwidthStream,
        Workload::AppProxy,
        Workload::PaperAnchors,
    ];

    /// Name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::LatencySweep => "latency_sweep",
            Workload::BandwidthStream => "bandwidth_stream",
            Workload::AppProxy => "app_proxy",
            Workload::PaperAnchors => "paper_anchors",
        }
    }

    /// Inverse of [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Rounds one pass is dealt into: a round takes one to two seconds
    /// on two cores, so a run of 25 s has a dozen rounds or more for its
    /// median, and every round holds the same mix of units.
    pub fn rounds_per_pass(self) -> usize {
        match self {
            // Each round: one point of every size, from a mix of curves.
            Workload::LatencySweep => 19,
            // Each round: one Table VII cell of every core count.
            Workload::BandwidthStream => 5,
            // Each round: one application's three modes. Three of the 27
            // applications cost a quarter of the others; pairing them
            // into rounds would make round times bimodal.
            Workload::AppProxy => 27,
            // Both suites together; their public calls cannot be split.
            Workload::PaperAnchors => 1,
        }
    }

    /// Artifacts whose committed copies check this workload's outputs.
    pub fn artifacts(self) -> &'static [&'static str] {
        match self {
            Workload::LatencySweep => &["fig4", "fig6"],
            Workload::BandwidthStream => &["fig8", "fig9", "table7"],
            Workload::AppProxy => &["fig10"],
            Workload::PaperAnchors => &["calibrate"],
        }
    }
}

/// A placed-buffer scenario: one point of a latency or bandwidth curve.
#[derive(Debug, Clone)]
pub struct Point {
    /// Coherence mode under test.
    pub mode: CoherenceMode,
    /// Cores that touch the data during placement, in order.
    pub placers: Vec<CoreId>,
    /// Placed coherence state.
    pub state: PlacedState,
    /// Home node of the buffer.
    pub home: NodeId,
    /// Core that measures.
    pub measurer: CoreId,
    /// Load width of a streaming measurement (unused by chases).
    pub width: LoadWidth,
    /// Nominal buffer size, bytes.
    pub size: u64,
}

/// What a unit simulates.
#[derive(Debug, Clone)]
pub enum Job {
    /// A Figure 4/6 point: place, then pointer-chase.
    Chase(Point),
    /// A Figure 8/9 point: place, then stream-read.
    Stream(Point),
    /// A Table VII cell: `cores` cores each stream their own buffer homed
    /// at `home` from memory (no placement phase, as in
    /// `scenarios::aggregate_read` at `Level::Memory`).
    Aggregate {
        /// Coherence mode under test.
        mode: CoherenceMode,
        /// Streaming cores (cores `0..cores`).
        cores: u16,
        /// Home node of every buffer.
        home: NodeId,
        /// Stream stores (dense buffers) instead of loads.
        write: bool,
    },
    /// A Figure 10 cell: one proxy under one mode.
    Proxy {
        /// Index into [`proxies`].
        app: usize,
        /// Coherence mode under test.
        mode: CoherenceMode,
    },
    /// One calibration anchor suite.
    Anchors {
        /// `bandwidth_anchors` instead of `latency_anchors`.
        bandwidth: bool,
    },
}

impl Job {
    /// Coherence modes the job builds Systems for.
    pub fn modes(&self) -> Vec<CoherenceMode> {
        match self {
            Job::Chase(p) | Job::Stream(p) => vec![p.mode],
            Job::Aggregate { mode, .. } | Job::Proxy { mode, .. } => vec![*mode],
            Job::Anchors { .. } => FIG10_MODES.iter().map(|m| m.0).collect(),
        }
    }
}

/// Where a unit's output lands in the committed artifacts.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Cell {
    /// Artifact stem under `results/`.
    pub artifact: &'static str,
    /// Series label or row label.
    pub row: String,
    /// `x` value (figures) or column header (tables); empty for anchors.
    pub col: String,
}

/// Where a unit sits in its workload's grid, over which [`deal`]
/// balances rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slot {
    /// Figure curves and Table VII cells are separate families.
    pub family: usize,
    /// A curve, a table row or an application.
    pub line: usize,
    /// A size or a core count: units of one step cost about the same.
    pub step: usize,
}

/// One independent simulation of a workload.
#[derive(Debug, Clone)]
pub struct Unit {
    /// What to simulate.
    pub job: Job,
    /// Where its output goes.
    pub cell: Cell,
    /// Where it sits in the workload's grid.
    pub slot: Slot,
}

/// What a unit produced.
pub enum Output {
    /// A figure or table value (ns, GB/s, or simulated proxy runtime).
    Value(f64),
    /// An anchor suite.
    Anchors(Vec<Anchor>),
}

/// The Figure 10 proxies in row order: OMP2012, then MPI2007.
pub fn proxies() -> Vec<(&'static str, AppProxy)> {
    let omp = omp2012_proxies().into_iter().map(|a| ("OMP2012", a));
    omp.chain(mpi2007_proxies().into_iter().map(|a| ("MPI2007", a)))
        .collect()
}

/// Figure 10 column header of each mode, in column order.
pub const FIG10_MODES: [(CoherenceMode, &str); 3] = [
    (CoherenceMode::SourceSnoop, "source snoop"),
    (CoherenceMode::HomeSnoop, "home snoop"),
    (CoherenceMode::ClusterOnDie, "COD"),
];

/// Core counts of the Table VII columns.
const TABLE7_CORES: [u16; 6] = [1, 2, 4, 5, 8, 12];

struct Curve {
    fig: &'static str,
    label: &'static str,
    mode: CoherenceMode,
    placers: Vec<CoreId>,
    state: PlacedState,
    home: u8,
    measurer: CoreId,
    width: LoadWidth,
}

/// The curves of Figures 4 and 6 (`jobs::fig4`, `bin/fig6`).
fn latency_curves() -> Vec<Curve> {
    use CoherenceMode::{ClusterOnDie as Cod, SourceSnoop as Src};
    use PlacedState::{Exclusive as E, Modified as M, Shared as S};
    let c = CoreId;
    let n0 = first_core_of(Cod, 0);
    let n0b = nth_core_of(Cod, 0, 1);
    let n1 = first_core_of(Cod, 1);
    let n2 = first_core_of(Cod, 2);
    let n3 = first_core_of(Cod, 3);
    let curve = |fig, label, mode, placers: &[CoreId], state, home, measurer| Curve {
        fig,
        label,
        mode,
        placers: placers.to_vec(),
        state,
        home,
        measurer,
        width: LoadWidth::Avx256,
    };
    vec![
        curve("fig4", "local M", Src, &[c(0)], M, 0, c(0)),
        curve("fig4", "local E", Src, &[c(0)], E, 0, c(0)),
        curve("fig4", "node M", Src, &[c(1)], M, 0, c(0)),
        curve("fig4", "node E", Src, &[c(1)], E, 0, c(0)),
        curve("fig4", "node S", Src, &[c(1), c(2)], S, 0, c(0)),
        curve("fig4", "remote M", Src, &[c(12)], M, 1, c(0)),
        curve("fig4", "remote E", Src, &[c(12)], E, 1, c(0)),
        curve("fig4", "remote S", Src, &[c(12), c(13)], S, 1, c(0)),
        curve("fig6", "local M", Cod, &[n0], M, 0, n0),
        curve("fig6", "node M", Cod, &[n0b], M, 0, n0),
        curve("fig6", "node E", Cod, &[n0b], E, 0, n0),
        curve("fig6", "1hop-chip M", Cod, &[n1], M, 1, n0),
        curve("fig6", "1hop-chip E", Cod, &[n1], E, 1, n0),
        curve("fig6", "1hop-QPI M", Cod, &[n2], M, 2, n0),
        curve("fig6", "1hop-QPI E", Cod, &[n2], E, 2, n0),
        curve("fig6", "2hops M", Cod, &[n3], M, 3, n0),
        curve("fig6", "2hops E", Cod, &[n3], E, 3, n0),
        curve("fig6", "3hops M", Cod, &[n3], M, 3, n1),
        curve("fig6", "3hops E", Cod, &[n3], E, 3, n1),
    ]
}

/// The curves of Figures 8 and 9 (`bin/fig8`, `bin/fig9`).
fn bandwidth_curves() -> Vec<Curve> {
    use hswx_haswell::microbench::LoadWidth::{Avx256 as Avx, Sse128 as Sse};
    use PlacedState::{Exclusive as E, Modified as M, Shared as S};
    let c = CoreId;
    let curve = |fig, label, placers: &[CoreId], state, home, width| Curve {
        fig,
        label,
        mode: CoherenceMode::SourceSnoop,
        placers: placers.to_vec(),
        state,
        home,
        measurer: c(0),
        width,
    };
    vec![
        curve("fig8", "local AVX", &[c(0)], M, 0, Avx),
        curve("fig8", "local SSE", &[c(0)], M, 0, Sse),
        curve("fig8", "node M", &[c(1)], M, 0, Avx),
        curve("fig8", "node E", &[c(1)], E, 0, Avx),
        curve("fig8", "remote M", &[c(12)], M, 1, Avx),
        curve("fig8", "remote E", &[c(12)], E, 1, Avx),
        curve("fig9", "shared, F local", &[c(12), c(0)], S, 0, Avx),
        curve("fig9", "shared, F remote", &[c(0), c(12)], S, 0, Avx),
        curve("fig9", "shared, remote L3", &[c(12), c(13)], S, 1, Avx),
    ]
}

fn curve_units(curves: Vec<Curve>, stream: bool, units: &mut Vec<Unit>) {
    for (step, size) in sweep_sizes().into_iter().enumerate() {
        for (line, c) in curves.iter().enumerate() {
            let p = Point {
                mode: c.mode,
                placers: c.placers.clone(),
                state: c.state,
                home: NodeId(c.home),
                measurer: c.measurer,
                width: c.width,
                size,
            };
            units.push(Unit {
                job: if stream {
                    Job::Stream(p)
                } else {
                    Job::Chase(p)
                },
                cell: Cell {
                    artifact: c.fig,
                    row: c.label.into(),
                    col: format!("{}", size as f64),
                },
                slot: Slot {
                    family: 0,
                    line,
                    step,
                },
            });
        }
    }
}

/// Every unit of one pass of `workload`.
pub fn pass_units(workload: Workload) -> Vec<Unit> {
    let mut units = Vec::new();
    match workload {
        Workload::LatencySweep => curve_units(latency_curves(), false, &mut units),
        Workload::BandwidthStream => {
            curve_units(bandwidth_curves(), true, &mut units);
            use CoherenceMode::{HomeSnoop as Hs, SourceSnoop as Src};
            let rows = [
                ("local read, source snoop", Src, 0, false),
                ("local read, home snoop", Hs, 0, false),
                ("local write, source snoop", Src, 0, true),
                ("remote read, source snoop", Src, 1, false),
                ("remote read, home snoop", Hs, 1, false),
            ];
            // Aggregate cells cost far more than sweep points, and more
            // with every core: a family of their own.
            for (line, (label, mode, home, write)) in rows.into_iter().enumerate() {
                for (step, cores) in TABLE7_CORES.into_iter().enumerate() {
                    units.push(Unit {
                        job: Job::Aggregate {
                            mode,
                            cores,
                            home: NodeId(home),
                            write,
                        },
                        cell: Cell {
                            artifact: "table7",
                            row: label.into(),
                            col: cores.to_string(),
                        },
                        slot: Slot {
                            family: 1,
                            line,
                            step,
                        },
                    });
                }
            }
        }
        Workload::AppProxy => {
            for (app, (suite, proxy)) in proxies().into_iter().enumerate() {
                for (mode, col) in FIG10_MODES {
                    units.push(Unit {
                        job: Job::Proxy { app, mode },
                        cell: Cell {
                            artifact: "fig10",
                            row: format!("{suite} {}", proxy.name),
                            col: col.into(),
                        },
                        // One slot per row: its ratios need all three modes.
                        slot: Slot {
                            family: 0,
                            line: app,
                            step: 0,
                        },
                    });
                }
            }
        }
        Workload::PaperAnchors => {
            for bandwidth in [false, true] {
                units.push(Unit {
                    job: Job::Anchors { bandwidth },
                    cell: Cell {
                        artifact: "calibrate",
                        row: if bandwidth { "bandwidth" } else { "latency" }.into(),
                        col: String::new(),
                    },
                    slot: Slot {
                        family: 0,
                        line: 0,
                        step: 0,
                    },
                });
            }
        }
    }
    units
}

/// Deal one pass into `rounds` rounds, a Latin square per family: a unit
/// goes to round `(perm[line] + step + offset) % rounds`, where `perm`
/// permutes the family's lines and `offset` shifts them, both drawn from
/// `rng`. Every round then gets an even share of every step and of every
/// line, so rounds cost about the same, and the units of one slot share a
/// round. Rounds come back in random order, each in pass order.
pub fn deal(units: &[Unit], rounds: usize, rng: &mut DetRng) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); rounds.max(1)];
    let families = units.iter().map(|u| u.slot.family + 1).max().unwrap_or(0);
    for family in 0..families {
        let members = || {
            units
                .iter()
                .enumerate()
                .filter(move |(_, u)| u.slot.family == family)
        };
        let lines = members().map(|(_, u)| u.slot.line + 1).max().unwrap_or(0);
        let mut perm: Vec<usize> = (0..lines).collect();
        rng.shuffle(&mut perm);
        let offset = rng.below(out.len() as u64) as usize;
        for (i, u) in members() {
            let r = (perm[u.slot.line] + u.slot.step + offset) % out.len();
            out[r].push(i);
        }
    }
    rng.shuffle(&mut out);
    out.retain(|r| !r.is_empty());
    out
}

/// Walks completed by Systems the registry has seen drop.
fn registry_walks(reg: &MetricsRegistry) -> u64 {
    reg.counter("sys.walks")
        .load(std::sync::atomic::Ordering::Relaxed)
}

/// Run one unit, recording a span per layer call into `tr`. `reg` is the
/// unit's ambient metrics registry, which Systems built inside public
/// calls (`run_proxy`, the anchor suites) report their walks to.
pub fn execute(
    job: &Job,
    apps: &[(&str, AppProxy)],
    tr: &mut Tracer,
    reg: &MetricsRegistry,
) -> Output {
    match job {
        Job::Chase(p) | Job::Stream(p) => {
            let mut sys = new_system(tr, p.mode);
            let buf = Buffer::on_node(&sys, p.home, p.size, 0);
            let level = level_of(p.mode, p.size);
            let t = tr.walks(Layer::Placement, &mut sys, |sys| {
                Placement::place(sys, p.state, &p.placers, &buf.lines, level, SimTime::ZERO)
            });
            let v = if matches!(job, Job::Chase(_)) {
                tr.walks(Layer::Chase, &mut sys, |sys| {
                    pointer_chase(sys, p.measurer, &buf.lines, t, CHASE_SEED).ns_per_access
                })
            } else {
                tr.walks(Layer::Stream, &mut sys, |sys| {
                    stream_read(sys, p.measurer, &buf.lines, p.width, t).gb_s
                })
            };
            tr.check(&sys);
            Output::Value(v)
        }
        &Job::Aggregate {
            mode,
            cores,
            home,
            write,
        } => {
            let mut sys = new_system(tr, mode);
            let bufs: Vec<Buffer> = (0..cores as u64)
                .map(|i| {
                    if write {
                        Buffer::on_node_dense(&sys, home, 4 << 20, i)
                    } else {
                        Buffer::on_node(&sys, home, 8 << 20, i)
                    }
                })
                .collect();
            let streams: Vec<(CoreId, &[LineAddr])> = bufs
                .iter()
                .enumerate()
                .map(|(i, b)| (CoreId(i as u16), b.lines.as_slice()))
                .collect();
            let v = tr.walks(Layer::Stream, &mut sys, |sys| {
                if write {
                    stream_write_multi(sys, &streams, LoadWidth::Avx256, SimTime::ZERO).gb_s
                } else {
                    stream_read_multi(sys, &streams, LoadWidth::Avx256, SimTime::ZERO).gb_s
                }
            });
            tr.check(&sys);
            Output::Value(v)
        }
        &Job::Proxy { app, mode } => {
            let ns = tr.span(Layer::Proxy, || {
                let before = registry_walks(reg);
                let ns = hswx_workloads::run_proxy(&apps[app].1, mode, PROXY_ACCESSES, PROXY_SEED);
                (ns, registry_walks(reg) - before)
            });
            Output::Value(ns)
        }
        &Job::Anchors { bandwidth } => tr.span(Layer::Anchors, || {
            let before = registry_walks(reg);
            let anchors = if bandwidth {
                hswx_bench::bandwidth_anchors()
            } else {
                hswx_bench::latency_anchors()
            };
            (Output::Anchors(anchors), registry_walks(reg) - before)
        }),
    }
}

fn new_system(tr: &mut Tracer, mode: CoherenceMode) -> System {
    tr.span(Layer::SystemNew, || {
        (System::new(SystemConfig::e5_2680_v3(mode)), 0)
    })
}
