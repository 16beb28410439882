//! Reusable measurement scenarios.
//!
//! Each scenario builds a fresh system in the requested coherence mode,
//! places data with a fully specified (core, level, state, home node)
//! combination, and measures either chase latency or streaming bandwidth —
//! the exact procedure behind every number in the paper's evaluation.

use hswx_engine::SimTime;
use hswx_haswell::microbench::{
    pointer_chase, stream_read, stream_read_multi, stream_write_multi, Buffer, LoadWidth,
};
use hswx_haswell::placement::{Level, Placement, PlacedState};
use hswx_haswell::{CoherenceMode, System, SystemConfig};
use hswx_mem::{CoreId, LineAddr, NodeId};
use std::sync::OnceLock;

/// Capacity summary for one coherence mode, derived once from the static
/// config + topology. Sweep drivers classify buffer sizes thousands of
/// times; building (and dropping) a full 24-core `System` per call just to
/// read three capacity fields dominated sweep setup cost.
#[derive(Debug, Clone, Copy)]
struct GeomSummary {
    /// L1D capacity, bytes.
    l1: u64,
    /// L2 capacity, bytes.
    l2: u64,
    /// L3 capacity visible to one NUMA node, bytes (halved under COD).
    l3_node: u64,
}

fn geom_summary(mode: CoherenceMode) -> GeomSummary {
    static CACHE: OnceLock<[GeomSummary; 3]> = OnceLock::new();
    let all = CACHE.get_or_init(|| {
        [
            CoherenceMode::SourceSnoop,
            CoherenceMode::HomeSnoop,
            CoherenceMode::ClusterOnDie,
        ]
        .map(|m| {
            let cfg = SystemConfig::e5_2680_v3(m);
            let topo =
                hswx_topology::SystemTopology::new(cfg.sockets, cfg.die, cfg.mode.cod());
            let first = topo.nodes().next().expect("nodes");
            let slices = topo.slices_of_node(first).len() as u64;
            GeomSummary {
                l1: cfg.l1.size_bytes,
                l2: cfg.l2.size_bytes,
                l3_node: cfg.l3_slice.size_bytes * slices,
            }
        })
    });
    all[mode as usize]
}

/// Size presets per target level (sampled beyond [`Buffer::MAX_SIM_LINES`]).
pub fn size_for_level(level: Level) -> u64 {
    match level {
        Level::L1 => 16 * 1024,
        Level::L2 => 128 * 1024,
        Level::L3 => 1024 * 1024,
        Level::Memory => 64 * 1024 * 1024,
    }
}

/// A fully specified latency scenario.
#[derive(Debug, Clone)]
pub struct LatencyScenario {
    /// Coherence mode under test.
    pub mode: CoherenceMode,
    /// Cores that touch the data during placement, in order (last one ends
    /// up holding the Forward copy for shared placements).
    pub placers: Vec<CoreId>,
    /// Placed coherence state.
    pub state: PlacedState,
    /// Cache level the data is left in.
    pub level: Level,
    /// Home node of the buffer.
    pub home: NodeId,
    /// Core that performs the measurement chase.
    pub measurer: CoreId,
    /// Nominal buffer size (defaults per level if `None`).
    pub size: Option<u64>,
}

/// A [`LatencyScenario`] carried through its placement phase: the system
/// is built, the buffer homed, and the placement walks already executed,
/// so the next access from [`LatencyScenario::measurer`] is exactly the
/// scenario's measured access. Exists so the CLI can attach a tracer
/// *after* placement and record only measurement walks.
pub struct PreparedScenario {
    /// The placed system, ready for measurement.
    pub sys: System,
    /// Lines of the placed buffer, in chase order.
    pub lines: Vec<LineAddr>,
    /// Simulation time at which placement finished.
    pub t: SimTime,
    /// Core that performs the measurement.
    pub measurer: CoreId,
}

impl LatencyScenario {
    /// Run the scenario; returns mean ns per access.
    pub fn run(&self) -> f64 {
        self.run_detailed().0
    }

    /// Build the system and run the placement phase, stopping just short
    /// of the measurement chase.
    pub fn prepare(&self) -> PreparedScenario {
        let mut sys = System::new(SystemConfig::e5_2680_v3(self.mode));
        let size = self.size.unwrap_or_else(|| size_for_level(self.level));
        let buf = Buffer::on_node(&sys, self.home, size, 0);
        let t = Placement::place(
            &mut sys,
            self.state,
            &self.placers,
            &buf.lines,
            self.level,
            SimTime::ZERO,
        );
        PreparedScenario { sys, lines: buf.lines, t, measurer: self.measurer }
    }

    /// Run and also return the fraction of reads served from memory
    /// (the paper's REMOTE_DRAM-style diagnostic).
    pub fn run_detailed(&self) -> (f64, f64) {
        let mut p = self.prepare();
        let m = pointer_chase(&mut p.sys, p.measurer, &p.lines, p.t, 0xC0FFEE);
        let mem_frac: f64 = m
            .by_source
            .iter()
            .filter(|(s, _)| matches!(s, hswx_coherence::DataSource::Memory(_)))
            .map(|(_, &c)| c as f64)
            .sum::<f64>()
            / m.samples as f64;
        (m.ns_per_access, mem_frac)
    }
}

/// A fully specified bandwidth scenario (single core).
#[derive(Debug, Clone)]
pub struct BandwidthScenario {
    /// Coherence mode under test.
    pub mode: CoherenceMode,
    /// Placement cores (see [`LatencyScenario::placers`]).
    pub placers: Vec<CoreId>,
    /// Placed coherence state.
    pub state: PlacedState,
    /// Cache level the data is left in.
    pub level: Level,
    /// Home node of the buffer.
    pub home: NodeId,
    /// Core that performs the streaming measurement.
    pub measurer: CoreId,
    /// SIMD width of the measurement kernel.
    pub width: LoadWidth,
    /// Nominal buffer size (defaults per level if `None`).
    pub size: Option<u64>,
}

impl BandwidthScenario {
    /// Run the scenario; returns GB/s.
    pub fn run(&self) -> f64 {
        let mut sys = System::new(SystemConfig::e5_2680_v3(self.mode));
        let size = self.size.unwrap_or_else(|| size_for_level(self.level));
        let buf = Buffer::on_node(&sys, self.home, size, 0);
        let t = Placement::place(
            &mut sys,
            self.state,
            &self.placers,
            &buf.lines,
            self.level,
            SimTime::ZERO,
        );
        stream_read(&mut sys, self.measurer, &buf.lines, self.width, t).gb_s
    }
}

/// Aggregate read bandwidth: `n_cores` cores of `node` each stream their
/// own buffer homed at `home_of(i)`, placed at `level`.
pub fn aggregate_read(
    mode: CoherenceMode,
    cores: &[CoreId],
    home_of: impl Fn(usize) -> NodeId,
    level: Level,
    size_per_core: u64,
) -> f64 {
    let mut sys = System::new(SystemConfig::e5_2680_v3(mode));
    let bufs: Vec<Buffer> = cores
        .iter()
        .enumerate()
        .map(|(i, _)| Buffer::on_node(&sys, home_of(i), size_per_core, i as u64))
        .collect();
    let mut t = SimTime::ZERO;
    if level != Level::Memory {
        for (i, b) in bufs.iter().enumerate() {
            t = Placement::modified(&mut sys, cores[i], &b.lines, level, t);
        }
    }
    let streams: Vec<(CoreId, &[LineAddr])> = cores
        .iter()
        .zip(&bufs)
        .map(|(&c, b)| (c, b.lines.as_slice()))
        .collect();
    stream_read_multi(&mut sys, &streams, LoadWidth::Avx256, t).gb_s
}

/// Aggregate write bandwidth to memory (cold buffers: every store is an
/// RFO; dirty lines stream back to DRAM through capacity evictions).
pub fn aggregate_write(
    mode: CoherenceMode,
    cores: &[CoreId],
    home_of: impl Fn(usize) -> NodeId,
    size_per_core: u64,
) -> f64 {
    let mut sys = System::new(SystemConfig::e5_2680_v3(mode));
    // Dense buffers: steady-state write bandwidth requires the dirty
    // footprint to actually overflow the L3 into DRAM.
    let bufs: Vec<Buffer> = cores
        .iter()
        .enumerate()
        .map(|(i, _)| Buffer::on_node_dense(&sys, home_of(i), size_per_core, i as u64))
        .collect();
    let streams: Vec<(CoreId, &[LineAddr])> = cores
        .iter()
        .zip(&bufs)
        .map(|(&c, b)| (c, b.lines.as_slice()))
        .collect();
    stream_write_multi(&mut sys, &streams, LoadWidth::Avx256, SimTime::ZERO).gb_s
}

/// The cache level a data set of `size` bytes lands in, per mode.
///
/// Same thresholds as [`Placement::level_for_size`], answered from the
/// cached [`GeomSummary`] instead of a throwaway `System` (asserted
/// equivalent in this module's tests).
pub fn level_of(mode: CoherenceMode, size: u64) -> Level {
    let g = geom_summary(mode);
    if size <= g.l1 {
        Level::L1
    } else if size <= g.l2 {
        Level::L2
    } else if size <= g.l3_node {
        Level::L3
    } else {
        Level::Memory
    }
}

/// A COD-mode read from node 0's first core of `size` bytes homed in
/// node `h`, shared by the home node's first core and a forward-copy
/// holder in node `f` (the home node's second core when `f == h`), left
/// in `level`: the placement of Fig. 7 and Tables IV and V.
pub fn cod_shared(f: u8, h: u8, level: Level, size: u64) -> LatencyScenario {
    use CoherenceMode::ClusterOnDie;
    let fwd = if f == h { nth_core_of(ClusterOnDie, h, 1) } else { first_core_of(ClusterOnDie, f) };
    LatencyScenario {
        mode: ClusterOnDie,
        placers: vec![first_core_of(ClusterOnDie, h), fwd],
        state: PlacedState::Shared,
        level,
        home: NodeId(h),
        measurer: first_core_of(ClusterOnDie, 0),
        size: Some(size),
    }
}

/// Convenience: first core of a node in the given mode.
pub fn first_core_of(mode: CoherenceMode, node: u8) -> CoreId {
    let sys_cfg = SystemConfig::e5_2680_v3(mode);
    let topo =
        hswx_topology::SystemTopology::new(sys_cfg.sockets, sys_cfg.die, sys_cfg.mode.cod());
    topo.cores_of_node(NodeId(node))[0]
}

/// Convenience: n-th core of a node.
pub fn nth_core_of(mode: CoherenceMode, node: u8, n: usize) -> CoreId {
    let sys_cfg = SystemConfig::e5_2680_v3(mode);
    let topo =
        hswx_topology::SystemTopology::new(sys_cfg.sockets, sys_cfg.die, sys_cfg.mode.cod());
    topo.cores_of_node(NodeId(node))[n]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The cached-summary classifier must agree with the `System`-backed
    /// oracle at every sweep size, including the capacity boundaries.
    #[test]
    fn level_of_matches_system_backed_oracle() {
        for mode in [
            CoherenceMode::SourceSnoop,
            CoherenceMode::HomeSnoop,
            CoherenceMode::ClusterOnDie,
        ] {
            let sys = System::new(SystemConfig::e5_2680_v3(mode));
            let mut sizes = hswx_haswell::report::sweep_sizes();
            for b in [32 * 1024u64, 256 * 1024, 2560 * 1024, 10 << 20, 20 << 20] {
                sizes.extend_from_slice(&[b - 1, b, b + 1]);
            }
            for size in sizes {
                assert_eq!(
                    level_of(mode, size),
                    Placement::level_for_size(&sys, size),
                    "mode {mode:?}, size {size}"
                );
            }
        }
    }
}
