//! Latency measurement: dependent-load pointer chases.
//!
//! The load-to-use latency of each access class is measured exactly like
//! the paper does it: a pointer chase over the placed lines in a random
//! single-cycle order (so neither the hardware prefetcher nor our streamer
//! model can help), each line visited exactly once so the *placed*
//! coherence state — not the state mutated by the measurement itself — is
//! what gets measured.

use crate::batch::{Access, Issue};
use crate::system::System;
use hswx_coherence::DataSource;
use hswx_engine::{DetRng, FxHashMap, SimTime};
use hswx_mem::{CoreId, LineAddr};

/// Result of one pointer-chase measurement.
#[derive(Debug, Clone)]
pub struct LatencyMeasurement {
    /// Mean load-to-use latency per access, ns.
    pub ns_per_access: f64,
    /// Number of loads performed.
    pub samples: usize,
    /// Where the data came from, per access class.
    pub by_source: FxHashMap<DataSource, u64>,
    /// Simulation time when the chase finished.
    pub finished: SimTime,
}

impl LatencyMeasurement {
    /// Fraction of accesses served by `src`.
    pub fn fraction_from(&self, src: DataSource) -> f64 {
        if self.samples == 0 {
            return 0.0;
        }
        *self.by_source.get(&src).unwrap_or(&0) as f64 / self.samples as f64
    }
}

/// Chase `lines` from `core` starting at `t0`, visiting each line once in
/// a deterministic random cycle order.
pub fn pointer_chase(
    sys: &mut System,
    core: CoreId,
    lines: &[LineAddr],
    t0: SimTime,
    seed: u64,
) -> LatencyMeasurement {
    assert!(!lines.is_empty());
    let mut rng = DetRng::new(seed);
    let cycle = rng.chase_cycle(lines.len());
    let mut order = Vec::with_capacity(lines.len());
    let mut at = 0usize;
    for _ in 0..lines.len() {
        order.push(lines[at]);
        at = cycle[at];
    }

    // The whole chase order is known up front, so the dependent-load
    // chain goes through the batch engine (bit-identical to the previous
    // sequential `read` loop; the walks still issue one-per-arrival).
    // Chunked so the access/reply buffers stay LLC-resident even for the
    // multi-million-line chases at the top of the size sweep; each chunk
    // re-anchors at the previous chunk's arrival time.
    let mut t = t0;
    let mut total_ns = 0.0;
    let mut by_source: FxHashMap<DataSource, u64> = FxHashMap::default();
    let mut accs: Vec<Access> = Vec::with_capacity(order.len().min(crate::batch::BATCH_CHUNK));
    for chunk in order.chunks(crate::batch::BATCH_CHUNK) {
        accs.clear();
        accs.extend(chunk.iter().map(|&l| Access::read(core, l)));
        accs[0].issue = Issue::At(t);
        let out = sys.run_batch(&accs);
        for r in &out.replies {
            let out = match r {
                Ok(rep) => rep.outcome().expect("chase is all reads"),
                Err(e) => panic!("simulation error: {}", e.diagnostic()),
            };
            let lat = out.latency_ns(t);
            total_ns += lat;
            *by_source.entry(out.source).or_insert(0) += 1;
            t = out.done; // dependent loads: next issues when data arrives
        }
    }
    LatencyMeasurement {
        ns_per_access: total_ns / order.len() as f64,
        samples: order.len(),
        by_source,
        finished: t,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoherenceMode, SystemConfig};
    use crate::microbench::alloc::Buffer;
    use crate::placement::{Level, Placement};
    use hswx_mem::NodeId;

    fn sys() -> System {
        System::new(SystemConfig::e5_2680_v3(CoherenceMode::SourceSnoop))
    }

    #[test]
    fn l1_resident_chase_measures_l1_latency() {
        let mut s = sys();
        let b = Buffer::on_node(&s, NodeId(0), 16 * 1024, 0);
        let t = Placement::modified(&mut s, CoreId(0), &b.lines, Level::L1, SimTime::ZERO);
        let m = pointer_chase(&mut s, CoreId(0), &b.lines, t, 1);
        assert!((m.ns_per_access - 1.6).abs() < 0.05, "{}", m.ns_per_access);
        assert_eq!(m.fraction_from(DataSource::SelfL1), 1.0);
    }

    #[test]
    fn l2_resident_chase_measures_l2_latency() {
        let mut s = sys();
        let b = Buffer::on_node(&s, NodeId(0), 128 * 1024, 0);
        let t = Placement::modified(&mut s, CoreId(0), &b.lines, Level::L2, SimTime::ZERO);
        let m = pointer_chase(&mut s, CoreId(0), &b.lines, t, 1);
        assert!((m.ns_per_access - 4.8).abs() < 0.05, "{}", m.ns_per_access);
        assert_eq!(m.fraction_from(DataSource::SelfL2), 1.0);
    }

    #[test]
    fn measurement_is_deterministic() {
        let run = || {
            let mut s = sys();
            let b = Buffer::on_node(&s, NodeId(0), 64 * 1024, 0);
            let t = Placement::exclusive(&mut s, CoreId(0), &b.lines, Level::L2, SimTime::ZERO);
            pointer_chase(&mut s, CoreId(0), &b.lines, t, 42).ns_per_access
        };
        assert_eq!(run(), run());
    }
}
