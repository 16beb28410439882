//! Behavioural tests of the measurement framework itself: source
//! attribution, hierarchy ordering, prefetch and footprint effects, and
//! the coherence-state mechanisms the paper's methodology relies on.

use hswx::coherence::MesifState;
use hswx::engine::MetricsRegistry;
use hswx::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn sys(mode: CoherenceMode) -> System {
    System::new(SystemConfig::e5_2680_v3(mode))
}

#[test]
fn latency_orders_by_hierarchy_level() {
    let mut prev = 0.0;
    for (level, size) in [
        (Level::L1, 16 << 10),
        (Level::L2, 128 << 10),
        (Level::L3, 1 << 20),
        (Level::Memory, 32 << 20),
    ] {
        let mut s = sys(CoherenceMode::SourceSnoop);
        let buf = Buffer::on_node(&s, NodeId(0), size, 0);
        let t = Placement::exclusive(&mut s, CoreId(0), &buf.lines, level, SimTime::ZERO);
        let ns = pointer_chase(&mut s, CoreId(0), &buf.lines, t, 1).ns_per_access;
        assert!(ns > prev, "{level:?}: {ns} must exceed previous level {prev}");
        prev = ns;
    }
}

#[test]
fn bandwidth_orders_inversely_to_latency() {
    let mut prev = f64::MAX;
    for (level, size) in [
        (Level::L1, 16 << 10),
        (Level::L2, 128 << 10),
        (Level::L3, 1 << 20),
        (Level::Memory, 32 << 20),
    ] {
        let mut s = sys(CoherenceMode::SourceSnoop);
        let buf = Buffer::on_node(&s, NodeId(0), size, 0);
        let t = Placement::modified(&mut s, CoreId(0), &buf.lines, level, SimTime::ZERO);
        let bw = stream_read(&mut s, CoreId(0), &buf.lines, LoadWidth::Avx256, t).gb_s;
        assert!(bw < prev, "{level:?}: {bw} must be below previous level {prev}");
        prev = bw;
    }
}

#[test]
fn source_attribution_matches_placement() {
    // Remote modified lines must be attributed to the peer's core caches.
    let mut s = sys(CoherenceMode::SourceSnoop);
    let buf = Buffer::on_node(&s, NodeId(1), 16 << 10, 0);
    let t = Placement::modified(&mut s, CoreId(12), &buf.lines, Level::L1, SimTime::ZERO);
    let m = pointer_chase(&mut s, CoreId(0), &buf.lines, t, 2);
    assert_eq!(m.fraction_from(DataSource::PeerCore(NodeId(1))), 1.0);

    // Remote modified demoted to L3: forwarded by the peer's L3.
    let mut s = sys(CoherenceMode::SourceSnoop);
    let buf = Buffer::on_node(&s, NodeId(1), 1 << 20, 0);
    let t = Placement::modified(&mut s, CoreId(12), &buf.lines, Level::L3, SimTime::ZERO);
    let m = pointer_chase(&mut s, CoreId(0), &buf.lines, t, 2);
    assert_eq!(m.fraction_from(DataSource::PeerL3(NodeId(1))), 1.0);

    // Memory-resident lines come from memory.
    let mut s = sys(CoherenceMode::SourceSnoop);
    let buf = Buffer::on_node(&s, NodeId(0), 32 << 20, 0);
    let t = Placement::exclusive(&mut s, CoreId(0), &buf.lines, Level::Memory, SimTime::ZERO);
    let m = pointer_chase(&mut s, CoreId(0), &buf.lines, t, 2);
    assert_eq!(m.fraction_from(DataSource::Memory(NodeId(0))), 1.0);
}

#[test]
fn forward_state_reclaim_throttles_private_hits() {
    // Paper Fig. 9: shared lines in the measuring core's own L1 stream at
    // L3 speed when the Forward copy is in the other socket …
    let mut s = sys(CoherenceMode::SourceSnoop);
    let buf = Buffer::on_node(&s, NodeId(0), 16 << 10, 0);
    let t = Placement::shared(&mut s, &[CoreId(0), CoreId(12)], &buf.lines, Level::L1, SimTime::ZERO);
    let f_remote = stream_read(&mut s, CoreId(0), &buf.lines, LoadWidth::Avx256, t).gb_s;

    // … but at full L1 speed when it is local.
    let mut s = sys(CoherenceMode::SourceSnoop);
    let buf = Buffer::on_node(&s, NodeId(0), 16 << 10, 0);
    let t = Placement::shared(&mut s, &[CoreId(12), CoreId(0)], &buf.lines, Level::L1, SimTime::ZERO);
    let f_local = stream_read(&mut s, CoreId(0), &buf.lines, LoadWidth::Avx256, t).gb_s;

    assert!(
        f_local > 3.0 * f_remote,
        "F-local {f_local:.1} GB/s must dwarf F-remote {f_remote:.1} GB/s"
    );
    assert!(f_remote < 30.0, "F-remote is L3-bound: {f_remote:.1}");
}

#[test]
fn reclaim_transfers_the_forward_designation() {
    let mut s = sys(CoherenceMode::SourceSnoop);
    let buf = Buffer::on_node(&s, NodeId(0), 4 << 10, 0);
    // Forward ends in socket 1 (last reader).
    let t = Placement::shared(&mut s, &[CoreId(0), CoreId(12)], &buf.lines, Level::L1, SimTime::ZERO);
    let line = buf.lines[0];
    assert_eq!(s.l3_meta(NodeId(1), line).unwrap().state, MesifState::Forward);
    assert_eq!(s.l3_meta(NodeId(0), line).unwrap().state, MesifState::Shared);
    // A local hit on the Shared line reclaims F — and demotes the old one.
    s.read(CoreId(0), line, t);
    assert_eq!(s.l3_meta(NodeId(0), line).unwrap().state, MesifState::Forward);
    assert_eq!(s.l3_meta(NodeId(1), line).unwrap().state, MesifState::Shared);
}

#[test]
fn dram_row_locality_follows_footprint() {
    // Paper footnote 7: small footprints read mostly from open pages.
    let mut small = sys(CoherenceMode::SourceSnoop);
    let buf = Buffer::on_node(&small, NodeId(0), 64 << 10, 0);
    let t = Placement::exclusive(&mut small, CoreId(0), &buf.lines, Level::Memory, SimTime::ZERO);
    pointer_chase(&mut small, CoreId(0), &buf.lines, t, 3);
    let small_rate = small.dram_row_hit_rate();

    let mut large = sys(CoherenceMode::SourceSnoop);
    let buf = Buffer::on_node(&large, NodeId(0), 64 << 20, 0);
    let t = Placement::exclusive(&mut large, CoreId(0), &buf.lines, Level::Memory, SimTime::ZERO);
    pointer_chase(&mut large, CoreId(0), &buf.lines, t, 3);
    let large_rate = large.dram_row_hit_rate();

    assert!(
        small_rate > large_rate + 0.2,
        "row-hit rate small {small_rate:.2} vs large {large_rate:.2}"
    );
}

#[test]
fn dram_row_hit_rate_pools_every_channel() {
    // A node-0 stream leaves socket 1's controllers idle; the rate must
    // be the pooled one the metrics export carries, not a per-controller
    // mean that counts the idle ones as 0%. `s` publishes its counters
    // to `reg` when it drops at the end of the block.
    let reg = Arc::new(MetricsRegistry::new());
    let rate = {
        let _scope = MetricsRegistry::set_ambient(Arc::clone(&reg));
        let mut s = sys(CoherenceMode::SourceSnoop);
        let buf = Buffer::on_node(&s, NodeId(0), 8 << 20, 0);
        stream_read(
            &mut s,
            CoreId(0),
            &buf.lines,
            LoadWidth::Avx256,
            SimTime::ZERO,
        );
        s.dram_row_hit_rate()
    };
    let counter = |name: &str| reg.counter(name).load(Ordering::Relaxed);
    let hits = counter("dram.row_hits");
    let accesses = counter("dram.reads") + counter("dram.writes");
    assert!(hits > 0, "the stream reached DRAM ({accesses} accesses)");
    assert_eq!(rate, hits as f64 / accesses as f64);
}

#[test]
fn prefetch_ablation_only_affects_streams_beyond_l2() {
    let run = |prefetch: bool, level: Level, size: u64| {
        let mut cfg = SystemConfig::e5_2680_v3(CoherenceMode::SourceSnoop);
        cfg.prefetch = prefetch;
        let mut s = System::new(cfg);
        let buf = Buffer::on_node(&s, NodeId(0), size, 0);
        let t = Placement::modified(&mut s, CoreId(0), &buf.lines, level, SimTime::ZERO);
        stream_read(&mut s, CoreId(0), &buf.lines, LoadWidth::Avx256, t).gb_s
    };
    // L1-resident: identical.
    let (on, off) = (run(true, Level::L1, 16 << 10), run(false, Level::L1, 16 << 10));
    assert!((on - off).abs() < 0.5, "L1 {on} vs {off}");
    // DRAM-resident: streamer matters.
    let (on, off) = (run(true, Level::Memory, 32 << 20), run(false, Level::Memory, 32 << 20));
    assert!(on > 1.3 * off, "memory {on} vs {off}");
}

#[test]
fn hitme_hits_surface_in_stats() {
    let mut s = sys(CoherenceMode::ClusterOnDie);
    let home = NodeId(1);
    let buf = Buffer::on_node(&s, home, 32 << 10, 0); // well under HitME coverage
    let a = s.topo.cores_of_node(home)[0];
    let b = s.topo.cores_of_node(NodeId(2))[0];
    let t = Placement::shared(&mut s, &[a, b], &buf.lines, Level::L3, SimTime::ZERO);
    let measurer = s.topo.cores_of_node(NodeId(0))[0];
    let m = pointer_chase(&mut s, measurer, &buf.lines, t, 4);
    // All answered from home memory via the HitME fast path.
    assert!(m.fraction_from(DataSource::Memory(home)) > 0.95);
    let ha = s.topo.ha_for_line(buf.lines[0]);
    let (hits, _) = s.hitme_stats(ha);
    assert!(hits as usize >= buf.lines.len(), "HitME hits {hits}");
}

#[test]
fn cod_exposes_four_numa_nodes_and_partitions_resources() {
    let s = sys(CoherenceMode::ClusterOnDie);
    assert_eq!(s.topo.n_nodes(), 4);
    let mut all_cores: Vec<u16> = s
        .topo
        .nodes()
        .flat_map(|n| s.topo.cores_of_node(n))
        .map(|c| c.0)
        .collect();
    all_cores.sort_unstable();
    assert_eq!(all_cores, (0..24).collect::<Vec<_>>());
}

#[test]
fn aggregate_bandwidth_saturates_not_explodes() {
    // 12 cores reading local memory must exceed one core's bandwidth but
    // stay below the 68.3 GB/s channel peak.
    let mut s = sys(CoherenceMode::SourceSnoop);
    let cores: Vec<CoreId> = (0..12).map(CoreId).collect();
    let bufs: Vec<Buffer> = cores
        .iter()
        .enumerate()
        .map(|(i, _)| Buffer::on_node(&s, NodeId(0), 8 << 20, i as u64))
        .collect();
    let streams: Vec<(CoreId, &[LineAddr])> = cores
        .iter()
        .zip(&bufs)
        .map(|(&c, b)| (c, b.lines.as_slice()))
        .collect();
    let agg = stream_read_multi(&mut s, &streams, LoadWidth::Avx256, SimTime::ZERO).gb_s;
    assert!(agg > 40.0 && agg < 68.3, "aggregate {agg:.1} GB/s");
}

#[test]
fn writes_generate_dram_writeback_traffic() {
    let mut s = sys(CoherenceMode::SourceSnoop);
    let buf = Buffer::on_node_dense(&s, NodeId(0), 48 << 20, 0);
    stream_write(&mut s, CoreId(0), &buf.lines, LoadWidth::Avx256, SimTime::ZERO);
    assert!(
        s.stats.dram_writebacks > buf.lines.len() as u64 / 4,
        "writebacks {}",
        s.stats.dram_writebacks
    );
}
