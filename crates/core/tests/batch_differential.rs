//! Property: the pipelined batch engine is bit-identical to sequential
//! dispatch — random access batches × all three snoop modes.
//!
//! `System::run_batch` (SoA staging + lookahead prefetch) and
//! `System::run_batch_seq` (plain dispatch loop, the differential
//! reference) must produce identical replies, `Stats`, protocol
//! transcripts, and `state_digest` — including batches containing
//! faulted walks, with the monitor on, and across a mid-batch fork (the
//! batch scratch is host-side only and must never change what a walk
//! does).

use hswx_coherence::MesifState;
use hswx_engine::{SimDuration, SimTime};
use hswx_haswell::{
    Access, AccessOp, BatchOutcome, CoherenceMode, Issue, MonitorConfig, System, SystemConfig,
};
use hswx_mem::{CoreId, LineAddr, NodeId};
use proptest::prelude::*;

fn config_strategy() -> impl Strategy<Value = SystemConfig> {
    (
        prop_oneof![
            Just(CoherenceMode::SourceSnoop),
            Just(CoherenceMode::HomeSnoop),
            Just(CoherenceMode::ClusterOnDie),
        ],
        2u8..=3,
        prop_oneof![Just(8u32), Just(64), Just(1792)],
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(|(mode, sockets, hitme_entries, hitme_enabled, prefetch)| {
            SystemConfig {
                sockets,
                hitme_entries,
                hitme_enabled,
                prefetch,
                ..SystemConfig::e5_8core(mode)
            }
        })
}

/// One raw batched op: (core selector, line selector, op kind, issue kind,
/// issue delay selector).
type RawOp = (u16, u64, u8, u8, u16);

fn raw_ops(max: usize) -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec(
        (any::<u16>(), any::<u64>(), 0u8..4, 0u8..3, any::<u16>()),
        1..max,
    )
}

/// Decode raw ops into a batch for a system with `cores` cores.
fn build_batch(ops: &[RawOp], cores: u16) -> Vec<Access> {
    ops.iter()
        .map(|&(c, l, op, iss, d)| Access {
            core: CoreId(c % cores),
            line: LineAddr(l % 2048),
            op: match op {
                0 => AccessOp::Read,
                1 => AccessOp::Write,
                2 => AccessOp::WriteNt,
                _ => AccessOp::Flush,
            },
            issue: match iss {
                0 => Issue::AfterPrev,
                1 => Issue::AfterPrevPlus(SimDuration::from_ns((d % 512) as f64)),
                // Absolute issue times stay monotone-ish but include
                // deliberate replays of earlier times.
                _ => Issue::At(SimTime::ZERO + SimDuration::from_ns((d as f64) * 3.0)),
            },
        })
        .collect()
}

/// Assert that `a` and `b` hold the same simulated state, without
/// disturbing either: fork both and run one fixed probe batch on each fork
/// — a read and a write from every core, of a line `lines` holds and of a
/// line nobody touched on the core's own node — then compare replies,
/// `Stats` and `state_digest`. The replies' timings also expose any
/// difference in bookings, pools and DRAM state. The forks run the probe
/// without the monitor, so no watchdog cuts a probe walk short.
fn assert_same_state(a: &System, b: &System, lines: &[LineAddr], at: SimTime) {
    let topo = &a.topo;
    let mut probe = Vec::new();
    for c in 0..a.cfg.n_cores() {
        let core = CoreId(c);
        let untouched = LineAddr(topo.numa_base(topo.node_of_core(core)).line().0 + 4096 + c as u64);
        for line in [lines[c as usize % lines.len()], untouched] {
            probe.push(Access::read(core, line));
            probe.push(Access::write(core, line));
        }
    }
    probe[0] = probe[0].at(at);
    let (mut fa, mut fb) = (a.fork(), b.fork());
    fa.disable_monitor();
    fb.disable_monitor();
    assert_eq!(fa.run_batch_seq(&probe), fb.run_batch_seq(&probe));
    // `Stats` holds deterministic-hash maps filled in identical order, so
    // the Debug rendering is a faithful deep comparison.
    assert_eq!(format!("{:?}", fa.stats), format!("{:?}", fb.stats));
    assert_eq!(fa.state_digest(), fb.state_digest());
}

/// Assert full observable equality between the batch-engine system and the
/// sequential reference system after both ran `batch`.
fn assert_twin_equal(
    sys: &System,
    twin: &System,
    batch: &[Access],
    out_batch: &BatchOutcome,
    out_seq: &BatchOutcome,
) {
    assert_eq!(out_batch, out_seq);
    assert_eq!(sys.state_digest(), twin.state_digest());
    assert_eq!(format!("{:?}", sys.stats), format!("{:?}", twin.stats));
    let lines: Vec<LineAddr> = batch.iter().map(|a| a.line).collect();
    assert_same_state(sys, twin, &lines, out_batch.done);
}

/// A batch whose snooping reads must fail: a far-node core holds two
/// lines Modified, snoop delays far past the strict watchdog budget are
/// armed, and a home-node core reads both lines, each after a private-cache
/// hit. An error reply must not move the `AfterPrev` chain, so `done` is
/// the completion time of the last successful reply, not of the failed
/// read that ends the batch.
#[test]
fn delayed_snoop_batch_reports_errors_and_keeps_the_chain() {
    let cfg = SystemConfig::e5_2680_v3(CoherenceMode::SourceSnoop);
    let mut sys = System::new(cfg.clone());
    let mut twin = System::new(cfg);
    let home = NodeId(0);
    let base = sys.topo.numa_base(home).line();
    let (dirty, dirty2, warm, warm2) =
        (base, LineAddr(base.0 + 1), LineAddr(base.0 + 2), LineAddr(base.0 + 3));
    let core_home = sys.topo.cores_of_node(home)[0];
    let far_node = NodeId(sys.topo.n_nodes() - 1);
    let core_far = sys.topo.cores_of_node(far_node)[0];
    let mut t = SimTime::ZERO;
    for s in [&mut sys, &mut twin] {
        t = s.write(core_far, dirty, SimTime::ZERO).done;
        t = s.write(core_far, dirty2, t).done;
        t = s.read(core_home, warm, t).done;
        t = s.read(core_home, warm2, t).done;
        for l in [dirty, dirty2] {
            assert_eq!(s.l3_meta(far_node, l).map(|m| m.state), Some(MesifState::Modified));
        }
        s.enable_monitor(MonitorConfig::strict());
        s.inject_snoop_delay(1_000_000.0, 16);
    }
    let batch = [
        Access::read(core_home, warm).at(t),
        Access::read(core_home, dirty),
        Access::read(core_home, warm2),
        Access::read(core_home, dirty2),
    ];
    let out_batch = sys.run_batch(&batch);
    let out_seq = twin.run_batch_seq(&batch);
    let oks: Vec<bool> = out_batch.replies.iter().map(Result::is_ok).collect();
    assert_eq!(oks, [true, false, true, false], "{out_batch:?}");
    assert_eq!(out_batch.done, out_batch.replies[2].as_ref().unwrap().done());
    assert_twin_equal(&sys, &twin, &batch, &out_batch, &out_seq);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline differential: any batch, any config, traced and
    /// untraced, with and without the invariant monitor.
    #[test]
    fn run_batch_matches_sequential_dispatch(
        cfg in config_strategy(),
        ops in raw_ops(120),
        traced in any::<bool>(),
        monitored in any::<bool>(),
    ) {
        let mut sys = System::new(cfg.clone());
        let mut twin = System::new(cfg);
        if monitored {
            sys.enable_monitor(MonitorConfig::default());
            twin.enable_monitor(MonitorConfig::default());
        }
        if traced {
            sys.trace_next();
            twin.trace_next();
        }
        let batch = build_batch(&ops, sys.cfg.n_cores());
        let out_batch = sys.run_batch(&batch);
        let out_seq = twin.run_batch_seq(&batch);
        if traced {
            prop_assert_eq!(sys.take_trace(), twin.take_trace());
        }
        assert_twin_equal(&sys, &twin, &batch, &out_batch, &out_seq);
    }

    /// Batches containing faulted walks: dropped and delayed snoops under
    /// the strict monitor must surface the same `SimError`s in the same
    /// reply slots and leave both machines in the same state.
    #[test]
    fn faulted_batches_match_sequential_dispatch(
        cfg in config_strategy(),
        ops in raw_ops(80),
        drops in 0u32..4,
        delays in 0u32..4,
    ) {
        let mut sys = System::new(cfg.clone());
        let mut twin = System::new(cfg);
        for s in [&mut sys, &mut twin] {
            s.enable_monitor(MonitorConfig::strict());
            s.inject_snoop_drop(drops);
            s.inject_snoop_delay(1_000_000.0, delays);
        }

        let batch = build_batch(&ops, sys.cfg.n_cores());
        let out_batch = sys.run_batch(&batch);
        let out_seq = twin.run_batch_seq(&batch);
        assert_twin_equal(&sys, &twin, &batch, &out_batch, &out_seq);
    }

    /// Regression for the batch engine's host-side scratch (`BatchScratch`,
    /// `probe_scratch`, `walk_snoop_base`): none of it is simulated state,
    /// so a fork taken *mid-batch*, which starts that scratch empty, must
    /// continue the batch bit-identically — and the state mid-batch must
    /// equal that of a machine that never batched at all.
    #[test]
    fn mid_batch_fork_is_bit_transparent(
        cfg in config_strategy(),
        ops in raw_ops(100),
        split_sel in any::<u16>(),
    ) {
        let mut sys = System::new(cfg.clone());
        let mut seq = System::new(cfg);
        let batch = build_batch(&ops, sys.cfg.n_cores());
        let split = 1 + (split_sel as usize) % batch.len();
        let (head, tail) = batch.split_at(split);

        // Run the head through the batch engine and fork "mid-batch"
        // (scratch arrays still warm) into a twin whose scratch is cold.
        let head_out = sys.run_batch(head);
        let mut twin = sys.fork();
        prop_assert_eq!(twin.state_digest(), sys.state_digest());

        // The sequential reference never saw the batch engine at all; its
        // state after the same head must be identical.
        let head_seq = seq.run_batch_seq(head);
        prop_assert_eq!(&head_out, &head_seq);
        let lines: Vec<LineAddr> = batch.iter().map(|a| a.line).collect();
        assert_same_state(&seq, &sys, &lines, head_out.done);

        // Continue the tail on all three machines. The `AfterPrev` chain
        // re-anchors at the head's completion time on each.
        if !tail.is_empty() {
            let mut tail = tail.to_vec();
            tail[0].issue = match tail[0].issue {
                Issue::AfterPrev => Issue::At(head_out.done),
                Issue::AfterPrevPlus(d) => Issue::At(head_out.done + d),
                at => at,
            };
            let a = sys.run_batch(&tail);
            let b = twin.run_batch(&tail);
            let c = seq.run_batch_seq(&tail);
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(&a, &c);
            prop_assert_eq!(twin.state_digest(), sys.state_digest());
            prop_assert_eq!(seq.state_digest(), sys.state_digest());
            assert_same_state(&twin, &sys, &lines, a.done);
        }
    }
}
