//! Timing and bandwidth calibration.
//!
//! Every nanosecond constant of the simulator lives here, named after the
//! microarchitectural component it stands for. The *composite* latencies
//! the paper reports (21.2 ns local L3, 96.4 ns local memory, …) are never
//! written anywhere — they emerge from these component costs composed along
//! the simulated message paths. `EXPERIMENTS.md` records how well the
//! emergent values match the paper; the constants below were tuned against
//! the paper's anchor measurements once, then frozen.
//!
//! Sources for the starting values: the paper's Tables I/II (clocks, bus
//! widths, QPI rate), Intel's optimization manual (L1/L2 cycle counts), and
//! DDR4-2133 CL15 datasheet timing. The remaining constants (ring hop,
//! queue crossing, agent pipelines) are fitted.

use hswx_engine::{Booking, SimDuration};
use hswx_topology::{Distance, SystemTopology};
use serde::{Deserialize, Serialize};

/// Calibrated component costs.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Calib {
    /// Nominal core clock, GHz (Turbo disabled, paper §V-B).
    pub core_ghz: f64,
    /// AVX base clock, GHz (footnote 3: 2.1 GHz for 256-bit workloads).
    pub avx_ghz: f64,

    // ---- core-side latencies ----
    /// L1D load-to-use, ns (4 cycles).
    pub t_l1: f64,
    /// L2 hit total load-to-use, ns (12 cycles).
    pub t_l2: f64,
    /// L1+L2 miss handling before the request enters the uncore, ns.
    pub t_miss_path: f64,
    /// Fill/restart cost once data reaches the core, ns.
    pub t_fill: f64,

    // ---- interconnect ----
    /// Getting on/off a ring (inject + eject), ns per traversal.
    pub t_inject: f64,
    /// One ring hop, ns.
    pub t_hop: f64,
    /// One ring-to-ring buffered-queue crossing, ns.
    pub t_queue: f64,
    /// One QPI link crossing (propagation + SerDes), ns.
    pub t_qpi: f64,

    // ---- agents ----
    /// CA tag pipeline (miss determination / snoop filtering), ns.
    pub t_l3_tag: f64,
    /// CA pipeline + L3 data array read, ns.
    pub t_l3_array: f64,
    /// Probe of a core's L1/L2 by the CA, target misses, ns.
    pub t_probe: f64,
    /// Extra when the probed core forwards from its L2, ns.
    pub t_probe_l2_fwd: f64,
    /// Extra when the probed core forwards from its L1, ns.
    pub t_probe_l1_fwd: f64,
    /// Home-agent request pipeline, ns.
    pub t_ha: f64,
    /// Extra pipeline at a caching agent that forwards data to another
    /// node (response assembly, QPI egress), ns.
    pub t_ca_fwd: f64,
    /// Extra delay before a home agent issues snoops in home-snoop mode
    /// (request ordering/arbitration at the HA), ns.
    pub t_home_snoop_issue: f64,
    /// Memory-controller overhead on top of DRAM device time, ns.
    pub t_mem_ctl: f64,
    /// HitME cache lookup, ns (SRAM, runs under `t_ha`).
    pub t_hitme: f64,

    // ---- bandwidth / concurrency ----
    /// Line-fill buffers per core (demand-miss concurrency).
    pub lfb_per_core: u32,
    /// Extra in-flight lines contributed by the L2 streamer on sequential
    /// streams (superqueue occupancy beyond the LFBs).
    pub streamer_depth: u32,
    /// Minimum spacing between consecutive uncore (L2-miss) requests from
    /// one core, ns — the L2 miss-handling dispatch rate. Caps a single
    /// core's L3-resident streaming at 64 B / gap (the paper's 26.2 GB/s).
    pub t_uncore_gap: f64,
    /// Occupancy of a probed core's snoop responder per probe that misses
    /// (silently evicted / clean line), ns.
    pub t_fwd_occ_miss: f64,
    /// Responder occupancy per forward out of the probed core's L2, ns.
    pub t_fwd_occ_l2: f64,
    /// Responder occupancy per forward out of the probed core's L1, ns.
    pub t_fwd_occ_l1: f64,
    /// Aggregate QPI bandwidth per direction (two links), GB/s.
    pub qpi_gb_s: f64,
    /// L3 slice data-port bandwidth, GB/s.
    pub l3_port_gb_s: f64,
    /// Sustained L2→L1 bandwidth for 256-bit loads, GB/s.
    pub l2_port_avx_gb_s: f64,
    /// Sustained L2→L1 bandwidth for 128-bit loads, GB/s.
    pub l2_port_sse_gb_s: f64,
    /// Home-agent tracker entries available to *remote* requesters in
    /// source-snoop mode (RTID preallocation; limits Table VII's 16.8 GB/s).
    pub trackers_source_remote: u32,
    /// Tracker entries otherwise (effectively credit-based).
    pub trackers_other: u32,
    /// COD-mode home-agent tracker entries for *out-of-cluster* requesters
    /// (limits Table VIII's node-to-node bandwidths to ~15-19 GB/s).
    pub trackers_cod_remote: u32,

    // ---- QPI message sizes (bytes incl. flit headers) ----
    /// Data response carrying one line (8 data flits + header/credit flits).
    pub msg_data: u64,
    /// Request / snoop / snoop-response messages.
    pub msg_ctl: u64,
}

impl Calib {
    /// The tuned Haswell-EP parameter set.
    pub fn haswell_ep() -> Self {
        Calib {
            core_ghz: 2.5,
            avx_ghz: 2.1,

            t_l1: 1.6,
            t_l2: 4.8,
            t_miss_path: 5.2,
            t_fill: 1.0,

            t_inject: 1.0,
            t_hop: 0.45,
            t_queue: 3.8,
            t_qpi: 22.0,

            t_l3_tag: 3.2,
            t_l3_array: 4.5,
            t_probe: 19.0,
            t_probe_l2_fwd: 9.5,
            t_probe_l1_fwd: 13.5,
            t_ha: 4.0,
            t_ca_fwd: 6.0,
            t_home_snoop_issue: 15.0,
            t_mem_ctl: 23.5,
            t_hitme: 2.0,

            lfb_per_core: 10,
            streamer_depth: 6,
            t_uncore_gap: 2.44,
            t_fwd_occ_miss: 4.3,
            t_fwd_occ_l2: 6.0,
            t_fwd_occ_l1: 8.2,
            qpi_gb_s: 38.4,
            l3_port_gb_s: 25.0,
            l2_port_avx_gb_s: 69.1,
            l2_port_sse_gb_s: 48.2,
            trackers_source_remote: 14,
            trackers_other: 512,
            trackers_cod_remote: 23,

            msg_data: 80,
            msg_ctl: 16,
        }
    }

    /// A copy with the uncore domain (ring, CA/L3 pipelines, slice ports)
    /// scaled to `factor` times its base frequency — the paper's §VII-B
    /// attributes its unreproducible bandwidth boosts (up to 343 GB/s
    /// aggregate L3 read vs the typical 278) to exactly this mechanism.
    pub fn with_uncore_scale(mut self, factor: f64) -> Self {
        assert!(factor > 0.0);
        self.t_inject /= factor;
        self.t_hop /= factor;
        self.t_queue /= factor;
        self.t_l3_tag /= factor;
        self.t_l3_array /= factor;
        self.l3_port_gb_s *= factor;
        // The L2-miss dispatch rate follows the uncore request interface.
        self.t_uncore_gap /= factor;
        self
    }

    /// Sanity-check every constant: all timings must be finite and
    /// non-negative, clocks/bandwidths strictly positive, pool sizes and
    /// message sizes non-zero. Returns the first offending `(field, value)`.
    ///
    /// The runtime invariant monitor calls this periodically so a corrupted
    /// (NaN / negative) calibration is caught at the source instead of
    /// surfacing as silently wrong latencies.
    pub fn validate(&self) -> Result<(), (&'static str, f64)> {
        let nonneg = [
            ("t_l1", self.t_l1),
            ("t_l2", self.t_l2),
            ("t_miss_path", self.t_miss_path),
            ("t_fill", self.t_fill),
            ("t_inject", self.t_inject),
            ("t_hop", self.t_hop),
            ("t_queue", self.t_queue),
            ("t_qpi", self.t_qpi),
            ("t_l3_tag", self.t_l3_tag),
            ("t_l3_array", self.t_l3_array),
            ("t_probe", self.t_probe),
            ("t_probe_l2_fwd", self.t_probe_l2_fwd),
            ("t_probe_l1_fwd", self.t_probe_l1_fwd),
            ("t_ha", self.t_ha),
            ("t_ca_fwd", self.t_ca_fwd),
            ("t_home_snoop_issue", self.t_home_snoop_issue),
            ("t_mem_ctl", self.t_mem_ctl),
            ("t_hitme", self.t_hitme),
            ("t_uncore_gap", self.t_uncore_gap),
            ("t_fwd_occ_miss", self.t_fwd_occ_miss),
            ("t_fwd_occ_l2", self.t_fwd_occ_l2),
            ("t_fwd_occ_l1", self.t_fwd_occ_l1),
        ];
        for (name, v) in nonneg {
            if !v.is_finite() || v < 0.0 {
                return Err((name, v));
            }
        }
        let positive = [
            ("core_ghz", self.core_ghz),
            ("avx_ghz", self.avx_ghz),
            ("qpi_gb_s", self.qpi_gb_s),
            ("l3_port_gb_s", self.l3_port_gb_s),
            ("l2_port_avx_gb_s", self.l2_port_avx_gb_s),
            ("l2_port_sse_gb_s", self.l2_port_sse_gb_s),
            ("lfb_per_core", self.lfb_per_core as f64),
            ("trackers_source_remote", self.trackers_source_remote as f64),
            ("trackers_other", self.trackers_other as f64),
            ("trackers_cod_remote", self.trackers_cod_remote as f64),
            ("msg_data", self.msg_data as f64),
            ("msg_ctl", self.msg_ctl as f64),
        ];
        for (name, v) in positive {
            if !v.is_finite() || v <= 0.0 {
                return Err((name, v));
            }
        }
        Ok(())
    }

    /// Nanoseconds for a structural distance (QPI crossings add
    /// propagation only; serialization is charged on the link resource).
    pub fn transit_ns(&self, d: Distance) -> f64 {
        self.t_inject
            + d.ring_hops as f64 * self.t_hop
            + d.queues as f64 * self.t_queue
            + d.qpi as f64 * self.t_qpi
    }

    /// Same as [`transit_ns`](Self::transit_ns), as a duration.
    pub fn transit(&self, d: Distance) -> SimDuration {
        SimDuration::from_ns(self.transit_ns(d))
    }

    /// Every fixed per-step duration of a walk, converted once.
    pub(crate) fn step_costs(&self) -> StepCosts {
        let ns = SimDuration::from_ns;
        StepCosts {
            l1: ns(self.t_l1),
            l2: ns(self.t_l2),
            miss_path: ns(self.t_miss_path),
            fill: ns(self.t_fill),
            l3_tag: ns(self.t_l3_tag),
            l3_array: ns(self.t_l3_array),
            probe: ns(self.t_probe),
            probe_l2_fwd: ns(self.t_probe + self.t_probe_l2_fwd),
            probe_l1_fwd: ns(self.t_probe + self.t_probe_l1_fwd),
            ha: ns(self.t_ha),
            ca_fwd: ns(self.t_ca_fwd),
            home_snoop_issue: ns(self.t_home_snoop_issue),
            mem_ctl: ns(self.t_mem_ctl),
            fwd_occ_miss: ns(self.t_fwd_occ_miss),
            fwd_occ_l2: ns(self.t_fwd_occ_l2),
            fwd_occ_l1: ns(self.t_fwd_occ_l1),
            msg_ctl: Booking::at_rate(self.msg_ctl, self.qpi_gb_s),
            msg_data: Booking::at_rate(self.msg_data, self.qpi_gb_s),
            l3_line: Booking::at_rate(64, self.l3_port_gb_s),
        }
    }

    /// Per-64-byte-line issue gap for a streaming load kernel.
    ///
    /// AVX: two 32-byte loads per cycle at the AVX base clock → one line
    /// per cycle. SSE: four 16-byte loads at two per cycle → two cycles
    /// per line at nominal clock.
    pub fn line_issue_gap_ns(&self, avx: bool) -> f64 {
        if avx {
            1.0 / self.avx_ghz
        } else {
            2.0 / self.core_ghz
        }
    }
}

/// The fixed component costs of a walk in integer picoseconds, each
/// [`SimDuration::from_ns`] of the `Calib` expression it stands for (see
/// [`Calib::step_costs`]). An uncontended walk is a sum of these plus
/// [`TransitTable`] entries, so converting them once per system leaves the
/// walk no float arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct StepCosts {
    /// `t_l1`.
    pub(crate) l1: SimDuration,
    /// `t_l2`.
    pub(crate) l2: SimDuration,
    /// `t_miss_path`.
    pub(crate) miss_path: SimDuration,
    /// `t_fill`.
    pub(crate) fill: SimDuration,
    /// `t_l3_tag`.
    pub(crate) l3_tag: SimDuration,
    /// `t_l3_array`.
    pub(crate) l3_array: SimDuration,
    /// `t_probe`: a core probe that misses, or an invalidation.
    pub(crate) probe: SimDuration,
    /// `t_probe + t_probe_l2_fwd`, summed in ns.
    pub(crate) probe_l2_fwd: SimDuration,
    /// `t_probe + t_probe_l1_fwd`, summed in ns.
    pub(crate) probe_l1_fwd: SimDuration,
    /// `t_ha`.
    pub(crate) ha: SimDuration,
    /// `t_ca_fwd`.
    pub(crate) ca_fwd: SimDuration,
    /// `t_home_snoop_issue`.
    pub(crate) home_snoop_issue: SimDuration,
    /// `t_mem_ctl`.
    pub(crate) mem_ctl: SimDuration,
    /// `t_fwd_occ_miss`: responder occupancy of a probe that misses.
    pub(crate) fwd_occ_miss: SimDuration,
    /// `t_fwd_occ_l2`.
    pub(crate) fwd_occ_l2: SimDuration,
    /// `t_fwd_occ_l1`.
    pub(crate) fwd_occ_l1: SimDuration,
    /// A `msg_ctl` message on a QPI link.
    pub(crate) msg_ctl: Booking,
    /// A `msg_data` message on a QPI link.
    pub(crate) msg_data: Booking,
    /// A 64-byte line through an L3 slice port.
    pub(crate) l3_line: Booking,
}

/// [`Calib::transit`] of every ordered pair of ring stops, once on one die
/// and once across a QPI link. Each entry converts the whole distance, never
/// a sum of separately rounded legs. Dies are identical and sockets fully
/// connected, so the table does not grow with the socket count.
#[derive(Debug, Clone)]
pub(crate) struct TransitTable {
    n_stops: usize,
    /// Indexed `[cross_socket][a][b]`.
    ps: Vec<SimDuration>,
}

impl TransitTable {
    /// The table for `topo`'s dies at `cal`'s constants.
    pub(crate) fn new(cal: &Calib, topo: &SystemTopology) -> Self {
        let n = topo.n_stops();
        let ps = [false, true]
            .into_iter()
            .flat_map(|cross| {
                (0..n * n).map(move |i| cal.transit(topo.stop_distance(i / n, i % n, cross)))
            })
            .collect();
        TransitTable { n_stops: n, ps }
    }

    /// Transit from stop `a` to stop `b` (see [`SystemTopology::locate`]).
    #[inline]
    pub(crate) fn get(&self, a: usize, b: usize, cross_socket: bool) -> SimDuration {
        self.ps[(cross_socket as usize * self.n_stops + a) * self.n_stops + b]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoherenceMode, SystemConfig};
    use crate::system::System;
    use hswx_mem::{CoreId, HaId, SliceId, SocketId};
    use hswx_topology::Endpoint;

    #[test]
    fn cycle_counts_match_paper_table() {
        let c = Calib::haswell_ep();
        assert!((c.t_l1 - 4.0 / 2.5).abs() < 1e-9);
        assert!((c.t_l2 - 12.0 / 2.5).abs() < 1e-9);
    }

    #[test]
    fn transit_compounds_all_components() {
        let c = Calib::haswell_ep();
        let d = Distance { ring_hops: 4, queues: 1, qpi: 1 };
        let ns = c.transit_ns(d);
        assert!((ns - (1.0 + 4.0 * c.t_hop + c.t_queue + c.t_qpi)).abs() < 1e-9);
    }

    #[test]
    fn uncore_scale_speeds_the_uncore_only() {
        let base = Calib::haswell_ep();
        let fast = Calib::haswell_ep().with_uncore_scale(1.25);
        assert!(fast.t_l3_array < base.t_l3_array);
        assert!(fast.l3_port_gb_s > base.l3_port_gb_s);
        assert_eq!(fast.t_qpi, base.t_qpi, "QPI is its own clock domain");
        assert_eq!(fast.t_l1, base.t_l1, "core domain untouched");
    }

    #[test]
    fn validate_accepts_haswell_and_rejects_corruption() {
        assert_eq!(Calib::haswell_ep().validate(), Ok(()));
        let mut bad = Calib::haswell_ep();
        bad.t_qpi = -1.0;
        assert_eq!(bad.validate(), Err(("t_qpi", -1.0)));
        let mut nan = Calib::haswell_ep();
        nan.qpi_gb_s = f64::NAN;
        assert!(matches!(nan.validate(), Err(("qpi_gb_s", _))));
    }

    #[test]
    fn issue_gaps_give_expected_peak_bandwidth() {
        let c = Calib::haswell_ep();
        // AVX: 64 B per 0.476 ns = 134 GB/s peak (paper measures 127.2).
        let avx = 64.0 / c.line_issue_gap_ns(true);
        assert!((avx - 134.4).abs() < 1.0, "{avx}");
        // SSE: 64 B per 0.8 ns = 80 GB/s peak (paper measures 77.1).
        let sse = 64.0 / c.line_issue_gap_ns(false);
        assert!((sse - 80.0).abs() < 1.0, "{sse}");
    }

    /// Every configuration the artifact registry builds: the paper system
    /// in all three modes on 2 and 4 sockets, the 8- and 18-core dies, and
    /// the uncore-scaled calibrations, whose constants are not whole
    /// picoseconds.
    fn registry_configs() -> Vec<SystemConfig> {
        let mut cfgs = Vec::new();
        for mode in CoherenceMode::all() {
            cfgs.push(SystemConfig::e5_2680_v3(mode));
            cfgs.push(SystemConfig::quad_socket(mode));
            cfgs.push(SystemConfig::e5_8core(mode));
            cfgs.push(SystemConfig::e5_18core(mode));
        }
        for scale in [1.05, 1.10, 1.15, 1.20, 1.25] {
            let mut cfg = SystemConfig::e5_2680_v3(CoherenceMode::SourceSnoop);
            cfg.calib = cfg.calib.with_uncore_scale(scale);
            cfgs.push(cfg);
        }
        cfgs
    }

    #[test]
    fn step_tables_equal_the_expressions_they_replace() {
        let ns = SimDuration::from_ns;
        let booking = |bytes, gb_s| Booking { bytes, dur: SimDuration::for_bytes(bytes, gb_s) };
        let mut leg_rounding_differs = false;
        for cfg in registry_configs() {
            let sys = System::new(cfg.clone());
            let (cal, c) = (&cfg.calib, sys.costs);
            let want = StepCosts {
                l1: ns(cal.t_l1),
                l2: ns(cal.t_l2),
                miss_path: ns(cal.t_miss_path),
                fill: ns(cal.t_fill),
                l3_tag: ns(cal.t_l3_tag),
                l3_array: ns(cal.t_l3_array),
                probe: ns(cal.t_probe),
                probe_l2_fwd: ns(cal.t_probe + cal.t_probe_l2_fwd),
                probe_l1_fwd: ns(cal.t_probe + cal.t_probe_l1_fwd),
                ha: ns(cal.t_ha),
                ca_fwd: ns(cal.t_ca_fwd),
                home_snoop_issue: ns(cal.t_home_snoop_issue),
                mem_ctl: ns(cal.t_mem_ctl),
                fwd_occ_miss: ns(cal.t_fwd_occ_miss),
                fwd_occ_l2: ns(cal.t_fwd_occ_l2),
                fwd_occ_l1: ns(cal.t_fwd_occ_l1),
                msg_ctl: booking(cal.msg_ctl, cal.qpi_gb_s),
                msg_data: booking(cal.msg_data, cal.qpi_gb_s),
                l3_line: booking(64, cal.l3_port_gb_s),
            };
            assert_eq!(c, want, "{}-socket {:?} {:?}", cfg.sockets, cfg.die, cfg.mode);

            let topo = &sys.topo;
            let mut ends: Vec<Endpoint> = (0..topo.n_cores())
                .flat_map(|i| [Endpoint::Core(CoreId(i)), Endpoint::Slice(SliceId(i))])
                .collect();
            ends.extend((0..cfg.n_has()).map(|h| Endpoint::Ha(HaId(h))));
            ends.extend((0..topo.n_sockets()).map(|s| Endpoint::Qpi(SocketId(s))));
            for &a in &ends {
                for &b in &ends {
                    let d = topo.distance(a, b);
                    let ((sa, ia), (sb, ib)) = (topo.locate(a), topo.locate(b));
                    assert_eq!(d.qpi > 0, sa != sb, "{a:?} -> {b:?}: QPI iff sockets differ");
                    let got = sys.transit.get(ia, ib, sa != sb);
                    assert_eq!(got, ns(cal.transit_ns(d)), "{a:?} -> {b:?} in {cfg:?}");
                    let per_leg = ns(cal.t_inject)
                        + ns(cal.t_hop) * d.ring_hops as u64
                        + ns(cal.t_queue) * d.queues as u64
                        + ns(cal.t_qpi) * d.qpi as u64;
                    leg_rounding_differs |= got != per_leg;
                }
            }
        }
        assert!(leg_rounding_differs, "no configuration tells whole-distance rounding apart");
    }
}
