//! Protocol-transcript tests: the simulator must be able to *explain* each
//! canonical access class with the exact step sequence the paper's §IV/§VI
//! describes. These double as regression locks on the walk structure.

use hswx_coherence::{DirState, MesifState};
use hswx_engine::SimTime;
use hswx_haswell::{CoherenceMode, ProtoStep, System, SystemConfig};
use hswx_mem::{CoreId, LineAddr, NodeId};

fn sys(mode: CoherenceMode) -> System {
    System::new(SystemConfig::e5_2680_v3(mode))
}

fn line_on(s: &System, node: u8) -> LineAddr {
    s.topo.numa_base(NodeId(node)).line()
}

#[test]
fn l1_hit_is_one_step() {
    let mut s = sys(CoherenceMode::SourceSnoop);
    let l = line_on(&s, 0);
    let t = s.read(CoreId(0), l, SimTime::ZERO).done;
    s.trace_next();
    s.read(CoreId(0), l, t);
    let steps: Vec<ProtoStep> = s.take_trace().into_iter().map(|(_, st)| st).collect();
    assert_eq!(steps, vec![ProtoStep::PrivateHit { level: 1 }]);
}

#[test]
fn store_hit_in_a_private_cache_is_one_step() {
    // A store to a line the core holds Modified completes in its own L1,
    // or in its L2 once the line has left L1, just as a load hit does.
    let mut s = sys(CoherenceMode::SourceSnoop);
    let l = line_on(&s, 0);
    let mut t = s.write(CoreId(0), l, SimTime::ZERO).done;
    for level in [1, 2] {
        if level == 2 {
            s.demote_to_l2(CoreId(0), l);
        }
        s.trace_next();
        t = s.write(CoreId(0), l, t).done;
        let steps: Vec<ProtoStep> = s.take_trace().into_iter().map(|(_, st)| st).collect();
        assert_eq!(steps, vec![ProtoStep::PrivateHit { level }]);
    }
}

#[test]
fn cold_local_miss_walks_ca_then_home_then_memory() {
    let mut s = sys(CoherenceMode::SourceSnoop);
    let l = line_on(&s, 0);
    s.trace_next();
    s.read(CoreId(0), l, SimTime::ZERO);
    let trace = s.take_trace();
    // Timestamps are monotone after sorting and span the access.
    assert!(trace.windows(2).all(|w| w[0].0 <= w[1].0));
    let steps: Vec<ProtoStep> = trace.into_iter().map(|(_, st)| st).collect();
    // CA miss, source-snoop broadcast to the peer socket, home request,
    // then data from memory.
    assert!(matches!(steps[0], ProtoStep::CaLookup { hit: false, .. }), "{steps:?}");
    assert!(steps.contains(&ProtoStep::SnoopPeer { node: NodeId(1) }), "{steps:?}");
    assert!(
        steps.iter().any(|st| matches!(st, ProtoStep::HomeRequest { .. })),
        "{steps:?}"
    );
    assert_eq!(steps.last(), Some(&ProtoStep::MemoryReply), "{steps:?}");
}

#[test]
fn stale_cv_exclusive_read_probes_the_old_owner() {
    // The 44.4 ns case: E placed by core 1, silently evicted, read by 0.
    let mut s = sys(CoherenceMode::SourceSnoop);
    let l = line_on(&s, 0);
    let t = s.read(CoreId(1), l, SimTime::ZERO).done;
    s.demote_to_l3(CoreId(1), l, t);
    s.trace_next();
    s.read(CoreId(0), l, t);
    let steps: Vec<ProtoStep> = s.take_trace().into_iter().map(|(_, st)| st).collect();
    assert_eq!(
        steps,
        vec![
            ProtoStep::CaLookup {
                slice: s.topo.slice_for_line(l, NodeId(0)),
                hit: true
            },
            ProtoStep::LocalCoreProbe { target: CoreId(1), forwarded: false },
        ]
    );
}

#[test]
fn remote_modified_read_forwards_from_the_peer_core() {
    let mut s = sys(CoherenceMode::SourceSnoop);
    let l = line_on(&s, 1);
    let t = s.write(CoreId(12), l, SimTime::ZERO).done;
    s.trace_next();
    s.read(CoreId(0), l, t);
    let steps: Vec<ProtoStep> = s.take_trace().into_iter().map(|(_, st)| st).collect();
    assert!(steps.contains(&ProtoStep::SnoopPeer { node: NodeId(1) }));
    assert!(steps.contains(&ProtoStep::PeerCoreProbe {
        node: NodeId(1),
        target: CoreId(12),
        forwarded: true
    }));
    assert!(steps.contains(&ProtoStep::PeerForward { node: NodeId(1), from_core: true }));
    assert!(!steps.contains(&ProtoStep::MemoryReply), "data came from the cache");
}

#[test]
fn rfo_starts_with_the_ca_lookup() {
    // A write miss looks the line up in the local L3 first, as a read
    // miss does.
    let mut s = sys(CoherenceMode::SourceSnoop);
    let l = line_on(&s, 0);
    s.trace_next();
    let t = s.write(CoreId(0), l, SimTime::ZERO).done;
    let steps: Vec<ProtoStep> = s.take_trace().into_iter().map(|(_, st)| st).collect();
    let slice = s.topo.slice_for_line(l, NodeId(0));
    assert_eq!(steps.first(), Some(&ProtoStep::CaLookup { slice, hit: false }), "{steps:?}");

    // A write to a line the local L3 holds Shared hits there, then
    // upgrades.
    let shared = l.offset_lines(1);
    let t = s.read(CoreId(12), shared, t).done;
    let t = s.read(CoreId(0), shared, t).done;
    assert_eq!(s.l3_meta(NodeId(1), shared).map(|m| m.state), Some(MesifState::Shared));
    s.trace_next();
    s.write(CoreId(12), shared, t);
    let steps: Vec<ProtoStep> = s.take_trace().into_iter().map(|(_, st)| st).collect();
    let slice = s.topo.slice_for_line(shared, NodeId(1));
    assert_eq!(steps.first(), Some(&ProtoStep::CaLookup { slice, hit: true }), "{steps:?}");
}

#[test]
fn cod_hitme_fast_path_reads_memory_without_snoops() {
    // Fig. 7 fast path: shared line, F outside home, footprint under the
    // HitME coverage — the home answers from memory after a HitME hit.
    let mut s = sys(CoherenceMode::ClusterOnDie);
    let l = line_on(&s, 1);
    let home_core = s.topo.cores_of_node(NodeId(1))[0];
    let fwd_core = s.topo.cores_of_node(NodeId(2))[0];
    let t = s.read(home_core, l, SimTime::ZERO).done;
    let t = s.read(fwd_core, l, t).done;
    let t = {
        // Evict the home L3 copy so the home must consult the directory…
        // actually keep it simple: read from node0, the HitME entry exists.
        t
    };
    s.trace_next();
    let measurer = s.topo.cores_of_node(NodeId(0))[0];
    s.read(measurer, l, t);
    let steps: Vec<ProtoStep> = s.take_trace().into_iter().map(|(_, st)| st).collect();
    assert!(steps.contains(&ProtoStep::HitMeLookup { hit: true, clean: Some(true) }), "{steps:?}");
    assert!(
        !steps.iter().any(|st| matches!(st, ProtoStep::DirectoryRead { .. })),
        "HitME hit must bypass the in-memory directory: {steps:?}"
    );
}

#[test]
fn cod_stale_directory_read_broadcasts_after_dram() {
    // Table V mechanism: shared cross-node, evicted everywhere, stale
    // snoop-all directory forces a broadcast.
    let mut s = sys(CoherenceMode::ClusterOnDie);
    let l = line_on(&s, 1);
    let home_core = s.topo.cores_of_node(NodeId(1))[0];
    let fwd_core = s.topo.cores_of_node(NodeId(0))[1];
    let mut t = s.read(home_core, l, SimTime::ZERO).done;
    t = s.read(fwd_core, l, t).done;
    for n in [NodeId(0), NodeId(1)] {
        s.demote_to_memory(n, l, t);
    }
    // Thrash the HitME entry away by touching enough other lines.
    let filler = line_on(&s, 1).offset_lines(1);
    let mut tt = t;
    for i in 0..4000 {
        let fl = filler.offset_lines(i);
        tt = s.read(home_core, fl, tt).done;
        tt = s.read(fwd_core, fl, tt).done;
    }
    assert_eq!(s.dir_state(l), DirState::SnoopAll, "stale snoop-all");
    s.trace_next();
    let measurer = s.topo.cores_of_node(NodeId(0))[0];
    s.read(measurer, l, tt);
    let steps: Vec<ProtoStep> = s.take_trace().into_iter().map(|(_, st)| st).collect();
    assert!(steps.contains(&ProtoStep::HitMeLookup { hit: false, clean: None }), "{steps:?}");
    assert!(
        steps.contains(&ProtoStep::DirectoryRead { state: DirState::SnoopAll }),
        "{steps:?}"
    );
    let snoops = steps
        .iter()
        .filter(|st| matches!(st, ProtoStep::SnoopPeer { .. }))
        .count();
    assert!(snoops >= 2, "snoop-all broadcast fans out: {steps:?}");
    assert_eq!(steps.last(), Some(&ProtoStep::MemoryReply), "no cache had it");
}

#[test]
fn trace_is_disarmed_after_take() {
    let mut s = sys(CoherenceMode::SourceSnoop);
    let l = line_on(&s, 0);
    s.trace_next();
    s.read(CoreId(0), l, SimTime::ZERO);
    assert!(!s.take_trace().is_empty());
    s.read(CoreId(0), l, SimTime(1_000_000));
    assert!(s.take_trace().is_empty(), "tracing must stop after take_trace");
}
