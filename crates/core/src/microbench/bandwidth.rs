//! Bandwidth measurement: pipelined streaming loads/stores.
//!
//! A streaming kernel issues loads as fast as the core front end allows
//! (two 256-bit or two 128-bit loads per cycle), with memory-level
//! parallelism bounded by the line-fill buffers plus — for sequential
//! streams — the L2 streamer's superqueue occupancy. Achieved bandwidth is
//! therefore Little's law (window / latency) clipped by whichever shared
//! resource saturates first (L3 slice port, QPI direction, DDR4 channels,
//! home-agent trackers): exactly the mechanics behind the paper's Figures
//! 8/9 and Tables VI–VIII.

use crate::system::System;
use hswx_coherence::DataSource;
use hswx_engine::{SimDuration, SimTime, TimedPool};
use hswx_mem::{CoreId, LineAddr};
use serde::{Deserialize, Serialize};

/// SIMD width of the streaming kernel (paper Fig. 8 compares both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LoadWidth {
    /// 256-bit AVX loads (runs at the AVX base frequency).
    Avx256,
    /// 128-bit SSE loads (runs at nominal frequency).
    Sse128,
}

/// Result of a streaming measurement.
#[derive(Debug, Clone)]
pub struct BandwidthMeasurement {
    /// Achieved bandwidth, GB/s (SI).
    pub gb_s: f64,
    /// Lines transferred.
    pub lines: u64,
}

struct CoreStream<'a> {
    core: CoreId,
    lines: &'a [LineAddr],
    next: usize,
    issue_t: SimTime,
    window: TimedPool,
}

/// Spacing between a stream's consecutive line issues, by where the
/// previous line came from; converted once per kernel call.
struct IssueGaps {
    /// The load front end alone.
    l1: SimDuration,
    /// Also bounded by the L2→L1 port.
    l2: SimDuration,
    /// Beyond L2: also bounded by the miss-dispatch rate.
    uncore: SimDuration,
}

impl IssueGaps {
    fn new(sys: &System, width: LoadWidth) -> Self {
        let cal = sys.calib();
        let avx = width == LoadWidth::Avx256;
        let front = cal.line_issue_gap_ns(avx);
        let port = if avx { cal.l2_port_avx_gb_s } else { cal.l2_port_sse_gb_s };
        IssueGaps {
            l1: SimDuration::from_ns(front),
            l2: SimDuration::from_ns(front.max(64.0 / port)),
            uncore: SimDuration::from_ns(front.max(cal.t_uncore_gap)),
        }
    }

    fn after(&self, source: DataSource) -> SimDuration {
        match source {
            DataSource::SelfL1 => self.l1,
            DataSource::SelfL2 => self.l2,
            _ => self.uncore,
        }
    }
}

fn window_size(sys: &System) -> usize {
    let cal = sys.calib();
    let mut w = cal.lfb_per_core;
    if sys.cfg.prefetch {
        w += cal.streamer_depth;
    }
    w as usize
}

/// Stream-read `lines` once from `core`; returns achieved bandwidth.
pub fn stream_read(
    sys: &mut System,
    core: CoreId,
    lines: &[LineAddr],
    width: LoadWidth,
    t0: SimTime,
) -> BandwidthMeasurement {
    stream_read_multi(sys, &[(core, lines)], width, t0)
}

/// Concurrent stream reads: each `(core, lines)` pair streams its own
/// buffer; returns the aggregate bandwidth (paper's §VII-B methodology).
pub fn stream_read_multi(
    sys: &mut System,
    streams: &[(CoreId, &[LineAddr])],
    width: LoadWidth,
    t0: SimTime,
) -> BandwidthMeasurement {
    run_streams(sys, streams, width, t0, StreamOp::Read)
}

/// Stream-write `lines` once from `core` (RFO + eventual writebacks).
pub fn stream_write(
    sys: &mut System,
    core: CoreId,
    lines: &[LineAddr],
    width: LoadWidth,
    t0: SimTime,
) -> BandwidthMeasurement {
    stream_write_multi(sys, &[(core, lines)], width, t0)
}


/// Concurrent stream writes.
pub fn stream_write_multi(
    sys: &mut System,
    streams: &[(CoreId, &[LineAddr])],
    width: LoadWidth,
    t0: SimTime,
) -> BandwidthMeasurement {
    run_streams(sys, streams, width, t0, StreamOp::Write)
}

/// Stream of non-temporal stores from one core (cache-bypassing, no RFO).
pub fn stream_write_nt(
    sys: &mut System,
    core: CoreId,
    lines: &[LineAddr],
    width: LoadWidth,
    t0: SimTime,
) -> BandwidthMeasurement {
    stream_write_nt_multi(sys, &[(core, lines)], width, t0)
}

/// Concurrent non-temporal store streams.
pub fn stream_write_nt_multi(
    sys: &mut System,
    streams: &[(CoreId, &[LineAddr])],
    width: LoadWidth,
    t0: SimTime,
) -> BandwidthMeasurement {
    run_streams(sys, streams, width, t0, StreamOp::WriteNt)
}

/// Kind of streaming kernel.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StreamOp {
    Read,
    Write,
    WriteNt,
}

fn run_streams(
    sys: &mut System,
    streams: &[(CoreId, &[LineAddr])],
    width: LoadWidth,
    t0: SimTime,
    op: StreamOp,
) -> BandwidthMeasurement {
    assert!(!streams.is_empty());
    let wsize = window_size(sys);
    let gaps = IssueGaps::new(sys, width);
    let mut cs: Vec<CoreStream> = streams
        .iter()
        .map(|&(core, lines)| CoreStream {
            core,
            lines,
            next: 0,
            issue_t: t0,
            window: TimedPool::new(wsize),
        })
        .collect();
    let mut total_lines = 0u64;
    let mut finished = t0;

    // Issue in global time order: always advance the stream whose next
    // issue would happen earliest, so cross-core resource contention is
    // interleaved realistically.
    loop {
        let mut best: Option<(usize, SimTime)> = None;
        for (i, s) in cs.iter().enumerate() {
            if s.next < s.lines.len() {
                match best {
                    Some((_, t)) if t <= s.issue_t => {}
                    _ => best = Some((i, s.issue_t)),
                }
            }
        }
        let Some((i, _)) = best else { break };
        let s = &mut cs[i];
        let line = s.lines[s.next];
        s.next += 1;
        let slot = s.window.wait_for_slot(s.issue_t);
        let out = match op {
            StreamOp::Read => sys.read(s.core, line, slot),
            StreamOp::Write => sys.write(s.core, line, slot),
            StreamOp::WriteNt => sys.write_nt(s.core, line, slot),
        };
        s.window.occupy_until(out.done);
        s.issue_t = slot + gaps.after(out.source);
        total_lines += 1;
        finished = finished.max(out.done);
    }

    let elapsed = finished.since(t0);
    let gb_s = if elapsed.0 == 0 {
        0.0
    } else {
        total_lines as f64 * 64.0 / elapsed.as_secs() / 1e9
    };
    BandwidthMeasurement { gb_s, lines: total_lines }
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
    fn l1_stream_is_issue_limited() {
        let mut s = sys();
        let b = Buffer::on_node(&s, NodeId(0), 16 * 1024, 0);
        let t = Placement::modified(&mut s, CoreId(0), &b.lines, Level::L1, SimTime::ZERO);
        let avx = stream_read(&mut s, CoreId(0), &b.lines, LoadWidth::Avx256, t);
        assert!(avx.gb_s > 110.0 && avx.gb_s < 140.0, "AVX L1 {}", avx.gb_s);
        let mut s = sys();
        let b = Buffer::on_node(&s, NodeId(0), 16 * 1024, 0);
        let t = Placement::modified(&mut s, CoreId(0), &b.lines, Level::L1, SimTime::ZERO);
        let sse = stream_read(&mut s, CoreId(0), &b.lines, LoadWidth::Sse128, t);
        assert!(sse.gb_s > 70.0 && sse.gb_s < 82.0, "SSE L1 {}", sse.gb_s);
        assert!(avx.gb_s > sse.gb_s);
    }

    #[test]
    fn l2_stream_is_port_limited() {
        let mut s = sys();
        let b = Buffer::on_node(&s, NodeId(0), 192 * 1024, 0);
        let t = Placement::modified(&mut s, CoreId(0), &b.lines, Level::L2, SimTime::ZERO);
        let m = stream_read(&mut s, CoreId(0), &b.lines, LoadWidth::Avx256, t);
        assert!(m.gb_s > 60.0 && m.gb_s < 72.0, "AVX L2 {}", m.gb_s);
    }

    #[test]
    fn nt_stores_beat_rfo_writes_to_memory() {
        // STREAM-style kernel: NT stores avoid the read-for-ownership,
        // roughly doubling achievable write bandwidth to DRAM.
        let run = |nt: bool| {
            let mut s = sys();
            let cores: Vec<CoreId> = (0..12).map(CoreId).collect();
            let bufs: Vec<Buffer> = cores
                .iter()
                .enumerate()
                .map(|(i, _)| Buffer::on_node_dense(&s, NodeId(0), 4 << 20, i as u64))
                .collect();
            let streams: Vec<(CoreId, &[LineAddr])> = cores
                .iter()
                .zip(&bufs)
                .map(|(&c, b)| (c, b.lines.as_slice()))
                .collect();
            if nt {
                stream_write_nt_multi(&mut s, &streams, LoadWidth::Avx256, SimTime::ZERO).gb_s
            } else {
                stream_write_multi(&mut s, &streams, LoadWidth::Avx256, SimTime::ZERO).gb_s
            }
        };
        let rfo = run(false);
        let nt = run(true);
        assert!(nt > 1.5 * rfo, "NT {nt:.1} vs RFO {rfo:.1} GB/s");
        assert!(nt < 68.3, "NT stores stay under channel peak: {nt:.1}");
    }

    #[test]
    fn nt_store_invalidates_cached_copies() {
        let mut s = sys();
        let b = Buffer::on_node(&s, NodeId(0), 4096, 0);
        let l = b.lines[0];
        let t = s.read(CoreId(3), l, SimTime::ZERO).done;
        let t = s.read(CoreId(12), l, t).done;
        s.write_nt(CoreId(0), l, t);
        assert!(!s.l1_state(CoreId(3), l).is_valid());
        assert!(!s.l1_state(CoreId(12), l).is_valid());
        assert!(s.l3_meta(NodeId(0), l).is_none());
        assert!(s.l3_meta(NodeId(1), l).is_none());
    }

    #[test]
    fn aggregate_read_exceeds_single_core() {
        let mut s = sys();
        let bufs: Vec<Buffer> = (0..4)
            .map(|i| Buffer::on_node(&s, NodeId(0), 1 << 20, i))
            .collect();
        let mut t = SimTime::ZERO;
        for (i, b) in bufs.iter().enumerate() {
            t = Placement::modified(&mut s, CoreId(i as u16), &b.lines, Level::L3, t);
        }
        let single = {
            let mut s2 = sys();
            let b = Buffer::on_node(&s2, NodeId(0), 1 << 20, 0);
            let t2 = Placement::modified(&mut s2, CoreId(0), &b.lines, Level::L3, SimTime::ZERO);
            stream_read(&mut s2, CoreId(0), &b.lines, LoadWidth::Avx256, t2).gb_s
        };
        let streams: Vec<(CoreId, &[LineAddr])> = bufs
            .iter()
            .enumerate()
            .map(|(i, b)| (CoreId(i as u16), b.lines.as_slice()))
            .collect();
        let multi = stream_read_multi(&mut s, &streams, LoadWidth::Avx256, t);
        assert!(
            multi.gb_s > 2.5 * single,
            "multi {} vs single {}",
            multi.gb_s,
            single
        );
    }
}
