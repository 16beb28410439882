//! NUMA-affine buffer allocation.
//!
//! The paper's benchmarks use `libnuma` to control which node's memory
//! backs each buffer. Our simulated physical address space encodes the home
//! node in high address bits, so "allocating on node N" is choosing a base
//! address inside node N's region. A [`Buffer`] hands out line addresses
//! for placement and measurement, either densely or sampled across a larger
//! nominal footprint (so capacity effects and DRAM row locality scale with
//! the *nominal* size even when only a subset of lines is simulated).

use crate::system::System;
use hswx_mem::{LineAddr, NodeId, CACHE_LINE_BYTES};

/// A simulated NUMA-affine allocation.
#[derive(Debug, Clone)]
pub struct Buffer {
    /// Home node of every line.
    pub node: NodeId,
    /// Nominal footprint in bytes.
    pub bytes: u64,
    /// The simulated lines (all of them, or a sample of a large footprint).
    pub lines: Vec<LineAddr>,
}

impl Buffer {
    /// Maximum lines actually simulated per buffer; larger nominal
    /// footprints are sampled. 32 Ki lines = 2 MiB of dense lines.
    pub const MAX_SIM_LINES: u64 = 32 * 1024;

    /// Allocate `bytes` on `node`. `slot` distinguishes multiple buffers on
    /// the same node (they never overlap as long as each is < 1 GiB).
    pub fn on_node(sys: &System, node: NodeId, bytes: u64, slot: u64) -> Buffer {
        assert!(bytes >= CACHE_LINE_BYTES, "buffer must hold a line");
        assert!(bytes <= 1 << 30, "slots are 1 GiB apart");
        let base = sys.topo.numa_base(node).line().0 + slot * (1 << 24); // 1 GiB of lines
        let total = bytes / CACHE_LINE_BYTES;
        let lines = if total <= Self::MAX_SIM_LINES {
            (0..total).map(|i| LineAddr(base + i)).collect()
        } else {
            // Evenly strided sample across the nominal footprint: preserves
            // DRAM row spread and per-slice hashing statistics. The stride
            // is forced odd so samples alternate over the (line-interleaved)
            // DRAM channels instead of aliasing onto one.
            let stride = (total / Self::MAX_SIM_LINES) | 1;
            (0..Self::MAX_SIM_LINES)
                .map(|i| LineAddr(base + i * stride))
                .collect()
        };
        Buffer { node, bytes, lines }
    }

    /// Allocate `bytes` on `node` with every line simulated (no sampling).
    ///
    /// Needed when the measurement depends on the *simulated* footprint
    /// exceeding a cache capacity — e.g. steady-state write bandwidth,
    /// where dirty lines must spill out of the L3 into DRAM.
    pub fn on_node_dense(sys: &System, node: NodeId, bytes: u64, slot: u64) -> Buffer {
        assert!((CACHE_LINE_BYTES..=1 << 30).contains(&bytes));
        let base = sys.topo.numa_base(node).line().0 + slot * (1 << 24);
        let total = bytes / CACHE_LINE_BYTES;
        Buffer {
            node,
            bytes,
            lines: (0..total).map(|i| LineAddr(base + i)).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CoherenceMode, SystemConfig};

    fn sys() -> System {
        System::new(SystemConfig::e5_2680_v3(CoherenceMode::SourceSnoop))
    }

    #[test]
    fn dense_small_buffer() {
        let s = sys();
        let b = Buffer::on_node(&s, NodeId(0), 32 * 1024, 0);
        assert_eq!(b.lines.len(), 512);
        assert_eq!(s.topo.home_node_of_line(b.lines[0]), NodeId(0));
        assert_eq!(b.lines[1].0, b.lines[0].0 + 1);
    }

    #[test]
    fn large_buffer_is_sampled_and_strided() {
        let s = sys();
        let b = Buffer::on_node(&s, NodeId(1), 256 * 1024 * 1024, 0);
        assert_eq!(b.lines.len() as u64, Buffer::MAX_SIM_LINES);
        let stride = b.lines[1].0 - b.lines[0].0;
        assert!(stride > 1);
        for l in &b.lines {
            assert_eq!(s.topo.home_node_of_line(*l), NodeId(1));
        }
    }

    #[test]
    fn slots_do_not_overlap() {
        let s = sys();
        let a = Buffer::on_node(&s, NodeId(0), 1 << 20, 0);
        let b = Buffer::on_node(&s, NodeId(0), 1 << 20, 1);
        assert!(a.lines.last().unwrap().0 < b.lines[0].0);
    }
}
