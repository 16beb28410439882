//! The telemetry sampler must be an observer, not a participant:
//! attaching one changes no simulated value — latencies, data sources,
//! statistics, or the coherence-state digest — and the series it buckets
//! actually covers the components the walk exercised.

use std::sync::Arc;

use hswx_engine::{SimTime, SpanRecorder, TelemetryConfig, TelemetryHub, TelemetrySampler};
use hswx_haswell::microbench::Buffer;
use hswx_haswell::placement::{Level, PlacedState, Placement};
use hswx_haswell::{CoherenceMode, System, SystemConfig};
use hswx_mem::{CoreId, NodeId};

/// Run one cross-socket shared-read cell, optionally sampled. Returns
/// per-line latencies, the final state digest, snoop count, and the
/// sampler (when one was attached).
fn run_cell(mode: CoherenceMode, sampled: bool) -> (Vec<f64>, u64, u64, Option<TelemetrySampler>) {
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
    if sampled {
        sys.attach_sampler(TelemetrySampler::new(TelemetryConfig::default()));
    }
    let mut lat = Vec::with_capacity(buf.lines.len());
    for &line in &buf.lines {
        let out = sys.read(CoreId(0), line, t);
        lat.push(out.latency_ns(t));
        t = out.done;
    }
    let sampler = sys.take_sampler();
    (lat, sys.state_digest(), sys.stats.snoops_sent, sampler)
}

#[test]
fn sampling_changes_nothing_simulated() {
    for mode in [
        CoherenceMode::SourceSnoop,
        CoherenceMode::HomeSnoop,
        CoherenceMode::ClusterOnDie,
    ] {
        let (lat_off, digest_off, snoops_off, none) = run_cell(mode, false);
        let (lat_on, digest_on, snoops_on, sampler) = run_cell(mode, true);
        assert!(none.is_none());
        assert_eq!(lat_off, lat_on, "{mode:?}: latencies diverged under sampling");
        assert_eq!(digest_off, digest_on, "{mode:?}: state digest diverged");
        assert_eq!(snoops_off, snoops_on, "{mode:?}: snoop counts diverged");
        let s = sampler.expect("sampler should come back");
        assert!(!s.is_empty(), "{mode:?}: sampler recorded nothing");
        assert!(s.channel_total("ring.busy_ps") > 0, "{mode:?}: no ring time");
        assert!(s.channel_total("cbo.tag_busy_ps") > 0, "{mode:?}: no CBo time");
        if mode != CoherenceMode::ClusterOnDie {
            // Node 1 is the remote socket in the two-node modes, so the
            // reads must cross QPI. (Under COD node 1 is the second
            // cluster of socket 0 — on-package.)
            assert!(s.channel_total("qpi.bytes") > 0, "{mode:?}: no QPI bytes");
        }
    }
}

#[test]
fn ambient_hub_capture_is_transparent_and_merges_on_drop() {
    let reference = run_cell(CoherenceMode::ClusterOnDie, false);
    let hub = Arc::new(TelemetryHub::default());
    let observed = {
        let _g = TelemetryHub::set_ambient(Arc::clone(&hub));
        // The system picks the hub up ambiently and folds its sampler in
        // when it drops at the end of the scope.
        let mut sys = System::new(SystemConfig::e5_2680_v3(CoherenceMode::ClusterOnDie));
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
        let mut lat = Vec::new();
        for &line in &buf.lines {
            let out = sys.read(CoreId(0), line, t);
            lat.push(out.latency_ns(t));
            t = out.done;
        }
        (lat, sys.state_digest())
    };
    assert_eq!(reference.0, observed.0);
    assert_eq!(reference.1, observed.1);
    let merged = hub.collect();
    assert!(!merged.is_empty(), "hub absorbed nothing");
    assert!(merged.channel_total("ring.busy_ps") > 0);
    // HitME participates in the COD home-agent path.
    assert!(
        merged.channel_total("hitme.hits") + merged.channel_total("hitme.misses") > 0,
        "no HitME lookups sampled"
    );
}

#[test]
fn sampled_run_exports_validate_structurally() {
    let (_, _, _, sampler) = run_cell(CoherenceMode::SourceSnoop, true);
    let s = sampler.unwrap();
    let csv = s.to_csv();
    let header = csv.lines().nth(1).unwrap();
    assert!(header.starts_with("bucket_start_ps,"), "csv header: {header}");
    let cols = header.split(',').count();
    for line in csv.lines().skip(2) {
        assert_eq!(line.split(',').count(), cols, "ragged csv row: {line}");
    }
    let om = s.to_openmetrics();
    assert!(om.ends_with("# EOF\n"));
    assert!(om.contains("# TYPE hswx_telemetry gauge"));
}

/// A flush of a dirty line writes it back to DRAM like every other
/// writeback site: the tracer records one `dram_wb` span, and
/// `dram.busy_ps` grows by exactly that span's interval.
#[test]
fn dirty_flush_writeback_is_traced_and_sampled() {
    let mut sys = System::new(SystemConfig::e5_2680_v3(CoherenceMode::SourceSnoop));
    let line = sys.topo.numa_base(NodeId(0)).line();
    let t = sys.write(CoreId(0), line, SimTime::ZERO).done;
    sys.attach_tracer(SpanRecorder::with_capacity(1 << 10));
    sys.attach_sampler(TelemetrySampler::new(TelemetryConfig::default()));
    let writebacks = sys.stats.dram_writebacks;
    sys.flush(CoreId(0), line, t);
    assert_eq!(sys.stats.dram_writebacks, writebacks + 1, "the flush wrote nothing back");
    let rec = sys.take_tracer().unwrap();
    let wb: Vec<_> = rec.spans().filter(|s| s.name == "dram_wb").collect();
    assert_eq!(wb.len(), 1, "expected one dram_wb span");
    let busy = sys.take_sampler().unwrap().channel_total("dram.busy_ps");
    assert!(busy > 0);
    assert_eq!(busy, wb[0].end.0 - wb[0].start.0);
}
