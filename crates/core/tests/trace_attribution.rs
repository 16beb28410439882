//! Property tests over the span-tracing layer: for arbitrary placed
//! states, levels, cores, and read/write mixes in all three snoop
//! configurations, every recorded walk must yield (a) a well-formed span
//! tree — no orphans, every child nested inside its parent — and (b) an
//! attribution whose component rows sum *exactly* (in integer
//! picoseconds) to the walk's reported end-to-end latency.

use hswx_engine::{SimTime, SpanRecorder};
use hswx_haswell::microbench::Buffer;
use hswx_haswell::placement::{Level, PlacedState, Placement};
use hswx_haswell::{CoherenceMode, System, SystemConfig};
use hswx_mem::{CoreId, NodeId};
use proptest::prelude::*;

const MODES: [CoherenceMode; 3] = [
    CoherenceMode::SourceSnoop,
    CoherenceMode::HomeSnoop,
    CoherenceMode::ClusterOnDie,
];
const STATES: [PlacedState; 3] =
    [PlacedState::Modified, PlacedState::Exclusive, PlacedState::Shared];
const LEVELS: [Level; 3] = [Level::L2, Level::L3, Level::Memory];

/// Check every recorded walk of `rec`: tree well-formedness and exact
/// attribution. Returns the number of walks checked.
fn check_recorder(rec: &SpanRecorder, ctx: &str) -> usize {
    let mut n = 0;
    for walk in rec.walks() {
        rec.validate_walk(walk)
            .unwrap_or_else(|e| panic!("{ctx}: malformed span tree: {e}"));
        let attr = rec.attribution(walk);
        assert_eq!(
            attr.total.0,
            walk.latency().0,
            "{ctx}: attribution total != reported latency"
        );
        let sum: u64 = attr.rows.iter().map(|r| r.time.0).sum();
        assert_eq!(sum, attr.total.0, "{ctx}: attribution rows do not sum to the total");
        // Every span of the tree is reachable from the root (validate_walk
        // checks nesting); the root must carry the walk's own interval.
        let root = rec.span(walk.root).expect("root span retained");
        assert_eq!(root.start, walk.issued, "{ctx}: root start != issue time");
        assert!(root.end >= walk.done, "{ctx}: root ends before the reported completion");
        n += 1;
    }
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_walk_is_well_formed_and_attributes_exactly(
        mode_ix in 0usize..3,
        state_ix in 0usize..3,
        level_ix in 0usize..3,
        home in 0u8..2,
        placer in 0u16..24,
        measurer in 0u16..24,
        writes in any::<bool>(),
        n_accesses in 1usize..24,
    ) {
        let mode = MODES[mode_ix];
        let state = STATES[state_ix];
        let level = LEVELS[level_ix];
        let mut sys = System::new(SystemConfig::e5_2680_v3(mode));
        let buf = Buffer::on_node(&sys, NodeId(home), 16 * 1024, 0);
        let mut t = Placement::place(
            &mut sys,
            state,
            &[CoreId(placer)],
            &buf.lines,
            level,
            SimTime::ZERO,
        );
        sys.attach_tracer(SpanRecorder::with_capacity(1 << 15));
        for (i, &line) in buf.lines.iter().cycle().take(n_accesses).enumerate() {
            // Mix reads and (optionally) RFO writes over the same lines.
            let out = if writes && i % 2 == 1 {
                sys.write(CoreId(measurer), line, t)
            } else {
                sys.read(CoreId(measurer), line, t)
            };
            t = out.done;
        }
        let rec = sys.take_tracer().expect("tracer was attached");
        let ctx = format!(
            "{mode:?}/{state:?}/{level:?} home={home} placer={placer} \
             measurer={measurer} writes={writes}"
        );
        let walks = check_recorder(&rec, &ctx);
        prop_assert_eq!(walks, n_accesses, "one recorded walk per access");
    }
}

/// Non-random anchor: the paper's three headline scenarios (local L1 hit,
/// cross-socket Modified forward, remote-memory read) all attribute
/// exactly in every mode — cheap to run and independent of proptest's
/// sampling.
#[test]
fn headline_scenarios_attribute_exactly_in_all_modes() {
    for mode in MODES {
        for (state, level, home) in [
            (PlacedState::Modified, Level::L2, 0u8),
            (PlacedState::Modified, Level::L3, 1),
            (PlacedState::Exclusive, Level::Memory, 1),
            (PlacedState::Shared, Level::L3, 1),
        ] {
            let mut sys = System::new(SystemConfig::e5_2680_v3(mode));
            let owner = sys.topo.cores_of_node(NodeId(home))[0];
            let buf = Buffer::on_node(&sys, NodeId(home), 16 * 1024, 0);
            let mut t =
                Placement::place(&mut sys, state, &[owner], &buf.lines, level, SimTime::ZERO);
            sys.attach_tracer(SpanRecorder::with_capacity(1 << 15));
            for &line in &buf.lines {
                t = sys.read(CoreId(0), line, t).done;
            }
            let rec = sys.take_tracer().expect("tracer was attached");
            let checked =
                check_recorder(&rec, &format!("{mode:?}/{state:?}/{level:?} home={home}"));
            assert_eq!(checked, buf.lines.len());
        }
    }
}

/// A store that hits the writer's own L1 or L2 is one `l1_hit` or
/// `l2_hit` span covering its whole latency, with no gap row.
#[test]
fn private_store_hits_attribute_to_the_hit_span() {
    for mode in MODES {
        let mut sys = System::new(SystemConfig::e5_2680_v3(mode));
        let line = sys.topo.numa_base(NodeId(0)).line();
        let mut t = sys.write(CoreId(0), line, SimTime::ZERO).done;
        for name in ["l1_hit", "l2_hit"] {
            if name == "l2_hit" {
                sys.demote_to_l2(CoreId(0), line);
            }
            sys.attach_tracer(SpanRecorder::with_capacity(64));
            t = sys.write(CoreId(0), line, t).done;
            let rec = sys.take_tracer().expect("tracer was attached");
            let walk = rec.walks().next().expect("the store was recorded");
            let rows = rec.attribution(walk).rows;
            assert_eq!(rows.len(), 1, "{mode:?} {name}: {rows:?}");
            assert_eq!((rows[0].name, rows[0].time), (name, walk.latency()), "{mode:?}");
        }
    }
}
