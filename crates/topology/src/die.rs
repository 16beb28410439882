//! Die layouts and on-die ring routing.
//!
//! Haswell-EP ships three physical dies ([16, §1.1] in the paper):
//!
//! * **8-core die** — a single bidirectional ring connecting all cores/L3
//!   slices, both memory controllers, QPI, and PCIe.
//! * **12-core die** — two rings: ring 0 carries eight core/slice stops,
//!   one IMC, QPI, and PCIe; ring 1 carries the remaining four core/slice
//!   stops and the second IMC. Two bidirectional buffered queues join the
//!   rings.
//! * **18-core die** — same partitioned design with eight + ten cores.
//!
//! Each core shares a ring stop with its co-located L3 slice (CBo). The
//! exact stop ordering is not published; the orderings here follow the
//! paper's Figure 1 block diagram and public die shots, and the asymmetry
//! that matters for the paper's COD observations (cores 6–7 of node 1
//! living on ring 0) is preserved exactly.

use serde::{Deserialize, Serialize};

/// The three Haswell-EP physical die variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DieVariant {
    /// Single-ring 8-core die (4/6/8-core SKUs).
    EightCore,
    /// Dual-ring 12-core die (10/12-core SKUs) — the paper's test system.
    TwelveCore,
    /// Dual-ring 18-core die (14/16/18-core SKUs).
    EighteenCore,
}

impl DieVariant {
    /// Number of cores (= L3 slices) on the die.
    pub fn cores(self) -> u16 {
        match self {
            DieVariant::EightCore => 8,
            DieVariant::TwelveCore => 12,
            DieVariant::EighteenCore => 18,
        }
    }
}

/// A ring stop on a die. Core and slice indices are die-local.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stop {
    /// A core together with its co-located L3 slice / caching agent.
    CoreSlice(u16),
    /// A memory controller / home agent.
    Imc(u8),
    /// The QPI link interface.
    Qpi,
    /// The PCIe root complex.
    Pcie,
    /// One side of a ring-to-ring buffered queue (queue index).
    Queue(u8),
}

/// Structural distance between two endpoints.
///
/// `hswx-haswell` converts this to nanoseconds via calibrated per-hop,
/// per-queue, and per-QPI-crossing costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Distance {
    /// On-die ring hops traversed (summed over both dies for QPI paths).
    pub ring_hops: u32,
    /// Ring-to-ring buffered-queue crossings.
    pub queues: u32,
    /// QPI link crossings (0 or 1 in a two-socket system).
    pub qpi: u32,
}

impl Distance {
    /// Component-wise sum.
    pub fn plus(self, other: Distance) -> Distance {
        Distance {
            ring_hops: self.ring_hops + other.ring_hops,
            queues: self.queues + other.queues,
            qpi: self.qpi + other.qpi,
        }
    }
}

/// One physical die: rings of stops.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Die {
    variant: DieVariant,
    /// `rings[r]` is the ordered cycle of stops on ring `r`.
    rings: Vec<Vec<Stop>>,
}

impl Die {
    /// Build the canonical layout for `variant`.
    pub fn new(variant: DieVariant) -> Self {
        let rings = match variant {
            DieVariant::EightCore => vec![vec![
                Stop::Qpi,
                Stop::Pcie,
                Stop::CoreSlice(0),
                Stop::CoreSlice(1),
                Stop::CoreSlice(2),
                Stop::CoreSlice(3),
                Stop::Imc(0),
                Stop::CoreSlice(4),
                Stop::CoreSlice(5),
                Stop::CoreSlice(6),
                Stop::CoreSlice(7),
                Stop::Imc(1),
            ]],
            DieVariant::TwelveCore => vec![
                vec![
                    Stop::Qpi,
                    Stop::Pcie,
                    Stop::CoreSlice(0),
                    Stop::CoreSlice(1),
                    Stop::CoreSlice(2),
                    Stop::CoreSlice(3),
                    Stop::Queue(0),
                    Stop::Imc(0),
                    Stop::CoreSlice(4),
                    Stop::CoreSlice(5),
                    Stop::CoreSlice(6),
                    Stop::CoreSlice(7),
                    Stop::Queue(1),
                ],
                vec![
                    Stop::Queue(0),
                    Stop::CoreSlice(8),
                    Stop::CoreSlice(9),
                    Stop::Imc(1),
                    Stop::CoreSlice(10),
                    Stop::CoreSlice(11),
                    Stop::Queue(1),
                ],
            ],
            DieVariant::EighteenCore => vec![
                vec![
                    Stop::Qpi,
                    Stop::Pcie,
                    Stop::CoreSlice(0),
                    Stop::CoreSlice(1),
                    Stop::CoreSlice(2),
                    Stop::CoreSlice(3),
                    Stop::Queue(0),
                    Stop::Imc(0),
                    Stop::CoreSlice(4),
                    Stop::CoreSlice(5),
                    Stop::CoreSlice(6),
                    Stop::CoreSlice(7),
                    Stop::Queue(1),
                ],
                vec![
                    Stop::Queue(0),
                    Stop::CoreSlice(8),
                    Stop::CoreSlice(9),
                    Stop::CoreSlice(10),
                    Stop::CoreSlice(11),
                    Stop::CoreSlice(12),
                    Stop::Imc(1),
                    Stop::CoreSlice(13),
                    Stop::CoreSlice(14),
                    Stop::CoreSlice(15),
                    Stop::CoreSlice(16),
                    Stop::CoreSlice(17),
                    Stop::Queue(1),
                ],
            ],
        };
        Die { variant, rings }
    }

    /// (ring, position) of `stop`. Queues exist on both rings; this returns
    /// the first occurrence — use `locate_on_ring` for a specific ring.
    fn locate(&self, stop: Stop) -> (usize, usize) {
        for (r, ring) in self.rings.iter().enumerate() {
            if let Some(i) = ring.iter().position(|&s| s == stop) {
                return (r, i);
            }
        }
        panic!("stop {stop:?} not on die {:?}", self.variant);
    }

    fn locate_on_ring(&self, ring: usize, stop: Stop) -> usize {
        self.rings[ring]
            .iter()
            .position(|&s| s == stop)
            .unwrap_or_else(|| panic!("stop {stop:?} not on ring {ring}"))
    }

    /// COD cluster (0 or 1) of a die-local core: equal halves by index,
    /// matching the paper's cores 0–5 / 6–11 split on the 12-core die.
    pub fn cluster_of_core(&self, core: u16) -> u8 {
        (core >= self.variant.cores() / 2) as u8
    }

    /// The IMC serving a COD cluster (cluster 0 → IMC 0, cluster 1 → IMC 1).
    pub fn imc_of_cluster(&self, cluster: u8) -> u8 {
        cluster
    }

    /// Minimum bidirectional hop count between two positions on one ring.
    fn ring_hops(&self, ring: usize, a: usize, b: usize) -> u32 {
        let n = self.rings[ring].len();
        let fwd = (b + n - a) % n;
        (fwd.min(n - fwd)) as u32
    }

    /// Structural distance between two stops on this die.
    ///
    /// Same ring: shortest bidirectional arc. Different rings: the best
    /// path through either buffered queue (hops to the queue stop on the
    /// source ring + one queue crossing + hops from the queue stop on the
    /// destination ring).
    pub fn distance(&self, a: Stop, b: Stop) -> Distance {
        if a == b {
            return Distance::default();
        }
        let (ra, ia) = self.locate(a);
        let (rb, ib) = self.locate(b);
        if ra == rb {
            return Distance { ring_hops: self.ring_hops(ra, ia, ib), queues: 0, qpi: 0 };
        }
        // Cross-ring: try both queues.
        let mut best: Option<Distance> = None;
        for q in 0..2u8 {
            let qa = self.locate_on_ring(ra, Stop::Queue(q));
            let qb = self.locate_on_ring(rb, Stop::Queue(q));
            let d = Distance {
                ring_hops: self.ring_hops(ra, ia, qa) + self.ring_hops(rb, qb, ib),
                queues: 1,
                qpi: 0,
            };
            best = Some(match best {
                Some(prev) if prev.ring_hops <= d.ring_hops => prev,
                _ => d,
            });
        }
        best.expect("dual-ring dies have two queues")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_core_ring_membership_matches_paper() {
        let d = Die::new(DieVariant::TwelveCore);
        // Cores 0..7 on ring 0, 8..11 on ring 1 (paper Fig. 1a).
        for c in 0..8 {
            assert_eq!(d.locate(Stop::CoreSlice(c)).0, 0, "core {c}");
        }
        for c in 8..12 {
            assert_eq!(d.locate(Stop::CoreSlice(c)).0, 1, "core {c}");
        }
        assert_eq!(d.locate(Stop::Imc(0)).0, 0);
        assert_eq!(d.locate(Stop::Imc(1)).0, 1);
    }

    #[test]
    fn cod_clusters_split_in_half() {
        let d = Die::new(DieVariant::TwelveCore);
        for c in 0..6 {
            assert_eq!(d.cluster_of_core(c), 0);
        }
        for c in 6..12 {
            assert_eq!(d.cluster_of_core(c), 1);
        }
        // The asymmetry the paper analyzes: node 1 cores 6 and 7 sit on
        // ring 0, its other four cores on ring 1.
        assert_eq!(d.locate(Stop::CoreSlice(6)).0, 0);
        assert_eq!(d.locate(Stop::CoreSlice(7)).0, 0);
        assert_eq!(d.locate(Stop::CoreSlice(8)).0, 1);
    }

    #[test]
    fn same_ring_distance_is_shortest_arc() {
        let d = Die::new(DieVariant::TwelveCore);
        // Ring 0 has 13 stops; Qpi at 0, Queue(1) at 12 -> 1 hop backwards.
        let dist = d.distance(Stop::Qpi, Stop::Queue(1));
        assert_eq!(dist, Distance { ring_hops: 1, queues: 0, qpi: 0 });
        let dist = d.distance(Stop::CoreSlice(0), Stop::CoreSlice(3));
        assert_eq!(dist.ring_hops, 3);
        assert_eq!(dist.queues, 0);
    }

    #[test]
    fn cross_ring_distance_uses_best_queue() {
        let d = Die::new(DieVariant::TwelveCore);
        let dist = d.distance(Stop::CoreSlice(0), Stop::CoreSlice(8));
        assert_eq!(dist.queues, 1);
        // core0 at ring0 idx2: to Queue(0) idx6 = 4 hops or Queue(1) idx12
        // = 3 hops (via 0). Queue(0) on ring1 idx0 -> core8 idx1 = 1 hop;
        // Queue(1) idx6 -> core8 idx1 = 2 hops (7-stop ring: min(5,2)=2).
        // Best: min(4+1, 3+2) = 5.
        assert_eq!(dist.ring_hops, 5);
    }

    #[test]
    fn distance_is_symmetric() {
        let d = Die::new(DieVariant::TwelveCore);
        let stops = [
            Stop::Qpi,
            Stop::CoreSlice(0),
            Stop::CoreSlice(7),
            Stop::CoreSlice(11),
            Stop::Imc(0),
            Stop::Imc(1),
        ];
        for &a in &stops {
            for &b in &stops {
                assert_eq!(d.distance(a, b), d.distance(b, a), "{a:?} {b:?}");
            }
        }
    }

    #[test]
    fn self_distance_is_zero() {
        let d = Die::new(DieVariant::EightCore);
        assert_eq!(d.distance(Stop::Imc(0), Stop::Imc(0)), Distance::default());
    }

    #[test]
    fn eight_core_die_is_single_ring() {
        let d = Die::new(DieVariant::EightCore);
        assert_eq!(d.rings.len(), 1);
        let dist = d.distance(Stop::CoreSlice(0), Stop::CoreSlice(7));
        assert_eq!(dist.queues, 0);
    }

    #[test]
    fn eighteen_core_die_shape() {
        let d = Die::new(DieVariant::EighteenCore);
        assert_eq!(d.rings.len(), 2);
        assert_eq!(d.locate(Stop::CoreSlice(7)).0, 0);
        assert_eq!(d.locate(Stop::CoreSlice(8)).0, 1);
        assert_eq!(d.locate(Stop::CoreSlice(17)).0, 1);
        assert_eq!(DieVariant::EighteenCore.cores(), 18);
    }

    #[test]
    fn ring_distances_are_bounded_by_half_the_ring() {
        for variant in [DieVariant::EightCore, DieVariant::TwelveCore, DieVariant::EighteenCore] {
            let d = Die::new(variant);
            let n = variant.cores();
            for a in 0..n {
                for b in 0..n {
                    let dist = d.distance(Stop::CoreSlice(a), Stop::CoreSlice(b));
                    // The longest ring has 13 stops; a bidirectional ring
                    // never needs more than floor(stops/2) hops per ring,
                    // plus the hops on the second ring for crossings.
                    assert!(dist.ring_hops <= 13, "{variant:?} {a}->{b}: {dist:?}");
                    assert!(dist.queues <= 1);
                    assert_eq!(dist.qpi, 0);
                }
            }
        }
    }

    #[test]
    fn node0_cores_have_similar_avg_slice_distance() {
        // Paper: "The average distance to the individual L3 slices is
        // almost identical for all cores" (first node, cores 0-5).
        let d = Die::new(DieVariant::TwelveCore);
        let avg = |c: u16| -> f64 {
            (0..6)
                .map(|s| d.distance(Stop::CoreSlice(c), Stop::CoreSlice(s)).ring_hops as f64)
                .sum::<f64>()
                / 6.0
        };
        let avgs: Vec<f64> = (0..6).map(avg).collect();
        let lo = avgs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = avgs.iter().cloned().fold(0.0, f64::max);
        assert!(hi - lo <= 1.5, "avgs {avgs:?}");
    }
}
