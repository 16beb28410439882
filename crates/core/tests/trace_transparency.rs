//! The span tracer must be an observer, not a participant: attaching it
//! changes no simulated value (latencies, data sources, statistics, or
//! the coherence-state digest), and read-only scans — `state_digest()`
//! and the invariant monitor — may run *while a trace is being recorded*
//! without perturbing the span stream.

use hswx_engine::{SimTime, SpanRecorder};
use hswx_haswell::microbench::Buffer;
use hswx_haswell::placement::{Level, PlacedState, Placement};
use hswx_haswell::{CoherenceMode, MonitorConfig, System, SystemConfig};
use hswx_mem::{CoreId, NodeId};

/// Run one cross-socket shared-read cell, optionally traced. Returns the
/// per-line latencies (ns, in chase order) and the final state digest.
fn run_cell(mode: CoherenceMode, traced: bool) -> (Vec<f64>, u64, u64) {
    let mut sys = System::new(SystemConfig::e5_2680_v3(mode));
    let owner = sys.topo.cores_of_node(NodeId(1))[0];
    let buf = Buffer::on_node(&sys, NodeId(1), 32 * 1024, 0);
    let mut t = Placement::place(
        &mut sys,
        PlacedState::Shared,
        &[owner],
        &buf.lines,
        Level::L3,
        SimTime::ZERO,
    );
    if traced {
        sys.attach_tracer(SpanRecorder::with_capacity(1 << 15));
    }
    let mut lat = Vec::with_capacity(buf.lines.len());
    for &line in &buf.lines {
        let out = sys.read(CoreId(0), line, t);
        lat.push(out.latency_ns(t));
        t = out.done;
    }
    (lat, sys.state_digest(), sys.stats.snoops_sent)
}

#[test]
fn latencies_digest_and_stats_identical_with_tracer_attached() {
    for mode in CoherenceMode::all() {
        let (plain, plain_digest, plain_snoops) = run_cell(mode, false);
        let (traced, traced_digest, traced_snoops) = run_cell(mode, true);
        assert_eq!(plain.len(), traced.len());
        for (i, (p, w)) in plain.iter().zip(&traced).enumerate() {
            assert_eq!(
                p.to_bits(),
                w.to_bits(),
                "{mode:?}: tracing changed access {i} ({p} vs {w})"
            );
        }
        assert_eq!(plain_digest, traced_digest, "{mode:?}: tracing changed the state digest");
        assert_eq!(plain_snoops, traced_snoops, "{mode:?}: tracing changed the snoop count");
    }
}

/// Drive a traced chase, optionally interleaving a read-only scan
/// (`state_digest` + the monitor's invariant check) after every access.
/// Returns the digest and the full recorded span stream.
fn traced_chase(
    mode: CoherenceMode,
    scan_between: bool,
) -> (u64, Vec<(u64, &'static str, u64, u64)>) {
    let mut sys = System::new(SystemConfig::e5_2680_v3(mode));
    sys.enable_monitor(MonitorConfig::default());
    let owner = sys.topo.cores_of_node(NodeId(1))[0];
    let buf = Buffer::on_node(&sys, NodeId(1), 16 * 1024, 0);
    let mut t = Placement::place(
        &mut sys,
        PlacedState::Modified,
        &[owner],
        &buf.lines,
        Level::L3,
        SimTime::ZERO,
    );
    sys.attach_tracer(SpanRecorder::with_capacity(1 << 15));
    for &line in &buf.lines {
        let out = sys.read(CoreId(0), line, t);
        t = out.done;
        if scan_between {
            let _ = sys.state_digest();
            assert_eq!(sys.check_invariants(), None, "{mode:?}: fault-free run must be clean");
        }
    }
    let rec = sys.take_tracer().expect("tracer was attached");
    let walks: Vec<_> = rec.walks().copied().collect();
    assert!(!walks.is_empty());
    let mut stream = Vec::new();
    for w in &walks {
        rec.validate_walk(w).expect("well-formed walk");
        for s in rec.tree(w) {
            stream.push((s.id.0, s.name, s.start.0, s.end.0));
        }
    }
    (sys.state_digest(), stream)
}

#[test]
fn read_only_scans_mid_trace_do_not_perturb_span_ordering() {
    for mode in CoherenceMode::all() {
        let (digest_plain, stream_plain) = traced_chase(mode, false);
        let (digest_scanned, stream_scanned) = traced_chase(mode, true);
        assert_eq!(
            digest_plain, digest_scanned,
            "{mode:?}: mid-trace scans changed the state digest"
        );
        assert_eq!(
            stream_plain, stream_scanned,
            "{mode:?}: mid-trace scans perturbed the recorded span stream"
        );
    }
}
