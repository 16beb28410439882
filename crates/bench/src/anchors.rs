//! Calibration anchors: paper measurement vs simulator.
//!
//! Every headline number from the paper's §VI (latency) and §VII
//! (bandwidth) expressed as a runnable scenario. The `calibrate` campaign
//! job measures the whole suite as cells and prints it; integration tests
//! assert the important ones within tolerances; `EXPERIMENTS.md` records
//! the final values.

use crate::scenarios::{
    aggregate_read, aggregate_write, first_core_of, nth_core_of, BandwidthScenario,
    LatencyScenario,
};
use hswx_haswell::microbench::LoadWidth;
use hswx_haswell::placement::{Level, PlacedState};
use hswx_haswell::CoherenceMode;
use hswx_mem::{CoreId, NodeId};

/// One calibration anchor.
pub struct Anchor {
    /// Human-readable scenario name.
    pub name: &'static str,
    /// The paper's measured value.
    pub paper: f64,
    /// The simulator's emergent value.
    pub sim: f64,
}

impl Anchor {
    /// Relative error of the simulation vs the paper.
    pub fn rel_err(&self) -> f64 {
        (self.sim - self.paper) / self.paper
    }
}

/// A scenario that yields one anchor's simulated value.
type Scenario = Box<dyn Fn() -> f64 + Send + Sync>;

/// An anchor before measurement: its name, the paper's value and its
/// scenario.
pub(crate) struct Case(&'static str, f64, Scenario);

/// The anchors of `cases`, in order, each measured by `sim(name, scenario)`.
pub(crate) fn measure(
    cases: Vec<Case>,
    mut sim: impl FnMut(&'static str, Scenario) -> f64,
) -> Vec<Anchor> {
    cases.into_iter().map(|Case(name, paper, s)| Anchor { name, paper, sim: sim(name, s) }).collect()
}

fn lat(
    mode: CoherenceMode,
    placers: &[CoreId],
    state: PlacedState,
    level: Level,
    home: u8,
    measurer: CoreId,
) -> f64 {
    LatencyScenario {
        mode,
        placers: placers.to_vec(),
        state,
        level,
        home: NodeId(home),
        measurer,
        size: None,
    }
    .run()
}

/// The latency anchor suite (paper §VI, Figures 4–6, Table III).
pub fn latency_anchors() -> Vec<Anchor> {
    measure(latency_cases(), |_, s| s())
}

/// The unmeasured cases of [`latency_anchors`], in its order.
pub(crate) fn latency_cases() -> Vec<Case> {
    use CoherenceMode::*;
    use Level::*;
    use PlacedState::*;
    let c0 = CoreId(0);
    let mut v = Vec::new();
    macro_rules! a {
        ($name:expr, $paper:expr, $sim:expr $(,)?) => {
            v.push(Case($name, $paper, Box::new(move || $sim)))
        };
    }

    // --- source snoop (default), Figure 4 ---
    a!("src local L1", 1.6, lat(SourceSnoop, &[c0], Modified, L1, 0, c0));
    a!("src local L2", 4.8, lat(SourceSnoop, &[c0], Modified, L2, 0, c0));
    a!("src local L3 (M)", 21.2, lat(SourceSnoop, &[c0], Modified, L3, 0, c0));
    a!("src local L3 (E self)", 21.2, lat(SourceSnoop, &[c0], Exclusive, L3, 0, c0));
    a!("src local mem", 96.4, lat(SourceSnoop, &[c0], Exclusive, Memory, 0, c0));
    // within NUMA node (placer core 1, measurer core 0)
    let c1 = CoreId(1);
    a!("src node M in L1", 53.0, lat(SourceSnoop, &[c1], Modified, L1, 0, c0));
    a!("src node M in L2", 49.0, lat(SourceSnoop, &[c1], Modified, L2, 0, c0));
    a!("src node M in L3", 21.2, lat(SourceSnoop, &[c1], Modified, L3, 0, c0));
    a!("src node E in L3 (stale CV)", 44.4, lat(SourceSnoop, &[c1], Exclusive, L3, 0, c0));
    a!(
        "src node shared L3",
        21.2,
        lat(SourceSnoop, &[c1, CoreId(2)], Shared, L3, 0, c0),
    );
    // other socket (placer core 12, data homed node 1)
    let c12 = CoreId(12);
    a!("src remote M in L1", 113.0, lat(SourceSnoop, &[c12], Modified, L1, 1, c0));
    a!("src remote M in L2", 109.0, lat(SourceSnoop, &[c12], Modified, L2, 1, c0));
    a!("src remote M in L3", 86.0, lat(SourceSnoop, &[c12], Modified, L3, 1, c0));
    a!("src remote E in L3", 104.0, lat(SourceSnoop, &[c12], Exclusive, L3, 1, c0));
    a!("src remote mem", 146.0, lat(SourceSnoop, &[c12], Exclusive, Memory, 1, c0));

    // --- home snoop (Figure 5, Table III) ---
    a!("hs local L3", 21.2, lat(HomeSnoop, &[c0], Exclusive, L3, 0, c0));
    a!("hs remote E in L3", 115.0, lat(HomeSnoop, &[c12], Exclusive, L3, 1, c0));
    a!("hs local mem", 108.0, lat(HomeSnoop, &[c0], Exclusive, Memory, 0, c0));
    a!("hs remote mem", 146.0, lat(HomeSnoop, &[c12], Exclusive, Memory, 1, c0));

    // --- COD (Figure 6, Table III) ---
    let n0 = first_core_of(ClusterOnDie, 0); // core 0
    let n0b = nth_core_of(ClusterOnDie, 0, 1); // core 1
    let n1 = first_core_of(ClusterOnDie, 1); // core 6
    let n1b = nth_core_of(ClusterOnDie, 1, 1);
    let n2 = first_core_of(ClusterOnDie, 2);
    let n2b = nth_core_of(ClusterOnDie, 2, 1);
    let n3 = first_core_of(ClusterOnDie, 3);
    let n3b = nth_core_of(ClusterOnDie, 3, 1);
    a!("cod local L3", 18.0, lat(ClusterOnDie, &[n0], Exclusive, L3, 0, n0));
    a!("cod local L3 + core snoop", 37.2, lat(ClusterOnDie, &[n0b], Exclusive, L3, 0, n0));
    a!("cod node1 L3 (M)", 57.2, lat(ClusterOnDie, &[n1], Modified, L3, 1, n0));
    a!("cod node1 L3 (E)", 73.6, lat(ClusterOnDie, &[n1b], Exclusive, L3, 1, n0));
    a!("cod node2 L3 (M)", 90.0, lat(ClusterOnDie, &[n2], Modified, L3, 2, n0));
    a!("cod node2 L3 (E)", 104.0, lat(ClusterOnDie, &[n2b], Exclusive, L3, 2, n0));
    a!("cod node3 L3 (M)", 96.0, lat(ClusterOnDie, &[n3], Modified, L3, 3, n0));
    a!("cod node3 L3 (E)", 111.0, lat(ClusterOnDie, &[n3b], Exclusive, L3, 3, n0));
    a!("cod local mem", 89.6, lat(ClusterOnDie, &[n0], Exclusive, Memory, 0, n0));
    a!("cod node2 mem (1 hop)", 141.0, lat(ClusterOnDie, &[n2], Exclusive, Memory, 2, n0));
    a!("cod node3 mem (2 hops)", 147.0, lat(ClusterOnDie, &[n3], Exclusive, Memory, 3, n0));
    a!(
        "cod node3 mem (3 hops, from node1)",
        153.0,
        lat(ClusterOnDie, &[n3], Exclusive, Memory, 3, n1),
    );
    // Table IV off-diagonal: F copy in node1, home node2, read from node0.
    a!(
        "cod tIV F:1 H:2",
        170.0,
        lat(ClusterOnDie, &[n2, n1], Shared, L3, 2, n0),
    );
    a!(
        "cod tIV F:2 H:1",
        166.0,
        lat(ClusterOnDie, &[n1, n2], Shared, L3, 1, n0),
    );
    // Table IV diagonal: shared within home node only.
    a!(
        "cod tIV diag H:1",
        57.2,
        lat(ClusterOnDie, &[n1, n1b], Shared, L3, 1, n0),
    );
    // Table V: memory with stale snoop-all directory (was shared cross-node).
    a!(
        "cod tV F:0 H:1 (stale dir)",
        182.0,
        lat(ClusterOnDie, &[n1, n0], Shared, Memory, 1, n0),
    );
    a!(
        "cod tV diag H:1",
        96.0,
        lat(ClusterOnDie, &[n1, n1b], Shared, Memory, 1, n0),
    );
    v
}

/// The bandwidth anchor suite (paper §VII, Figures 8/9, Tables VI–VIII).
pub fn bandwidth_anchors() -> Vec<Anchor> {
    measure(bandwidth_cases(), |_, s| s())
}

/// The unmeasured cases of [`bandwidth_anchors`], in its order.
pub(crate) fn bandwidth_cases() -> Vec<Case> {
    use CoherenceMode::*;
    use Level::*;
    use PlacedState::*;
    let c0 = CoreId(0);
    let c1 = CoreId(1);
    let c12 = CoreId(12);
    let mut v = Vec::new();
    macro_rules! a {
        ($name:expr, $paper:expr, $sim:expr $(,)?) => {
            v.push(Case($name, $paper, Box::new(move || $sim)))
        };
    }

    let bw = |mode, placers: &[CoreId], state, level, home, measurer, width| {
        BandwidthScenario {
            mode,
            placers: placers.to_vec(),
            state,
            level,
            home: NodeId(home),
            measurer,
            width,
            size: None,
        }
        .run()
    };

    // Figure 8: single-threaded, default configuration.
    a!("bw L1 AVX", 127.2, bw(SourceSnoop, &[c0], Modified, L1, 0, c0, LoadWidth::Avx256));
    a!("bw L1 SSE", 77.1, bw(SourceSnoop, &[c0], Modified, L1, 0, c0, LoadWidth::Sse128));
    a!("bw L2 AVX", 69.1, bw(SourceSnoop, &[c0], Modified, L2, 0, c0, LoadWidth::Avx256));
    a!("bw L2 SSE", 48.2, bw(SourceSnoop, &[c0], Modified, L2, 0, c0, LoadWidth::Sse128));
    a!("bw local L3", 26.2, bw(SourceSnoop, &[c0], Modified, L3, 0, c0, LoadWidth::Avx256));
    a!(
        "bw local L3 snoop (E other)",
        15.0,
        bw(SourceSnoop, &[c1], Exclusive, L3, 0, c0, LoadWidth::Avx256),
    );
    a!("bw node M in L1", 7.8, bw(SourceSnoop, &[c1], Modified, L1, 0, c0, LoadWidth::Avx256));
    a!("bw node M in L2", 10.6, bw(SourceSnoop, &[c1], Modified, L2, 0, c0, LoadWidth::Avx256));
    a!("bw remote L3 (M)", 9.1, bw(SourceSnoop, &[c12], Modified, L3, 1, c0, LoadWidth::Avx256));
    a!("bw remote L3 (E)", 8.7, bw(SourceSnoop, &[c12], Exclusive, L3, 1, c0, LoadWidth::Avx256));
    a!("bw remote M in L1", 6.7, bw(SourceSnoop, &[c12], Modified, L1, 1, c0, LoadWidth::Avx256));
    a!("bw remote M in L2", 8.1, bw(SourceSnoop, &[c12], Modified, L2, 1, c0, LoadWidth::Avx256));
    a!("bw local mem", 10.3, bw(SourceSnoop, &[c0], Exclusive, Memory, 0, c0, LoadWidth::Avx256));
    a!("bw remote mem", 8.0, bw(SourceSnoop, &[c12], Exclusive, Memory, 1, c0, LoadWidth::Avx256));
    // Table VI: other configurations.
    a!("bw hs local mem", 9.5, bw(HomeSnoop, &[c0], Exclusive, Memory, 0, c0, LoadWidth::Avx256));
    a!("bw cod local L3", 29.0, {
        let n0 = first_core_of(ClusterOnDie, 0);
        bw(ClusterOnDie, &[n0], Modified, L3, 0, n0, LoadWidth::Avx256)
    });
    a!("bw cod local mem", 12.6, {
        let n0 = first_core_of(ClusterOnDie, 0);
        bw(ClusterOnDie, &[n0], Exclusive, Memory, 0, n0, LoadWidth::Avx256)
    });

    // Aggregates (§VII-B, Tables VII/VIII).
    let cores12 = || (0..12).map(CoreId).collect::<Vec<CoreId>>();
    a!(
        "bw agg L3 12 cores",
        278.0,
        aggregate_read(SourceSnoop, &cores12(), |_| NodeId(0), Level::L3, 1 << 20),
    );
    a!(
        "bw agg local mem 12 cores",
        63.0,
        aggregate_read(SourceSnoop, &cores12(), |_| NodeId(0), Level::Memory, 32 << 20),
    );
    a!(
        "bw agg remote mem src 12 cores",
        16.8,
        aggregate_read(SourceSnoop, &cores12(), |_| NodeId(1), Level::Memory, 32 << 20),
    );
    a!(
        "bw agg remote mem hs 12 cores",
        30.6,
        aggregate_read(HomeSnoop, &cores12(), |_| NodeId(1), Level::Memory, 32 << 20),
    );
    a!(
        "bw agg write mem 12 cores",
        25.8,
        aggregate_write(SourceSnoop, &cores12(), |_| NodeId(0), 4 << 20),
    );
    a!("bw agg cod local mem 6 cores", 32.5, {
        let cores: Vec<CoreId> = (0..6)
            .map(|i| nth_core_of(ClusterOnDie, 0, i))
            .collect();
        aggregate_read(ClusterOnDie, &cores, |_| NodeId(0), Level::Memory, 32 << 20)
    });
    v
}
