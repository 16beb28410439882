//! Property: snapshot/restore is bit-transparent for *any* reachable
//! machine state — random configurations × random walk prefixes.
//!
//! After restoring a mid-run snapshot, the twin must report the same
//! `state_digest()`, re-encode to the byte-identical frame, and produce
//! outcome-for-outcome identical continuations of any access sequence,
//! including with snoop faults armed but not yet consumed.

use hswx_engine::{fnv1a64, SimTime};
use hswx_haswell::{Access, CoherenceMode, System, SystemConfig, SYSTEM_SNAPSHOT_SCHEMA};
use hswx_mem::{CoreId, LineAddr};
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

/// Replay `ops` on `sys` starting at `t`, returning the finish time.
/// Each op is (core selector, line selector, write?).
fn run(sys: &mut System, t: SimTime, ops: &[(u16, u64, bool)]) -> SimTime {
    let cores = sys.cfg.n_cores();
    let mut t = t;
    for &(c, l, w) in ops {
        let core = CoreId(c % cores);
        let line = LineAddr(l % 2048);
        let out = if w {
            sys.write(core, line, t)
        } else {
            sys.read(core, line, t)
        };
        t = out.done;
    }
    t
}

fn cod_system() -> System {
    System::new(SystemConfig::e5_2680_v3(CoherenceMode::ClusterOnDie))
}

fn run_reads(sys: &mut System, line: LineAddr, n: u64) -> (SimTime, Vec<String>) {
    let mut t = SimTime::ZERO;
    let mut sources = Vec::new();
    for i in 0..n {
        let out = sys.read(CoreId(0), LineAddr(line.0 + i), t);
        sources.push(format!("{:?}", out.source));
        sys.flush(CoreId(0), LineAddr(line.0 + i), out.done);
        t = out.done + hswx_engine::SimDuration::from_ns(400.0);
    }
    (t, sources)
}

#[test]
fn state_digest_is_stable_and_sensitive() {
    let mut a = cod_system();
    let mut b = cod_system();
    assert_eq!(a.state_digest(), b.state_digest(), "empty systems agree");
    let (_, _) = run_reads(&mut a, LineAddr(42), 3);
    let (_, _) = run_reads(&mut b, LineAddr(42), 3);
    assert_eq!(a.state_digest(), b.state_digest(), "identical runs agree");
    b.read(CoreId(0), LineAddr(999), SimTime::from_ns(1e6));
    assert_ne!(a.state_digest(), b.state_digest(), "extra state changes digest");
}

/// The frame of a freshly built system is pinned to the bytes it had when
/// every cache allocated its slot arrays at construction: a never-filled
/// cache must encode like an empty one.
#[test]
fn fresh_system_frame_is_pinned() {
    assert_eq!(SYSTEM_SNAPSHOT_SCHEMA, 5);
    for (mode, want) in [
        (CoherenceMode::SourceSnoop, 0x34bd_add4_4057_57d6),
        (CoherenceMode::HomeSnoop, 0x8938_2c40_2c76_f0bc),
        (CoherenceMode::ClusterOnDie, 0xe2ff_781b_ec13_aad6),
    ] {
        let frame = System::new(SystemConfig::e5_2680_v3(mode)).snapshot();
        assert_eq!(fnv1a64(&frame), want, "{mode:?}: {} bytes", frame.len());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn restore_continues_any_walk_sequence_bit_identically(
        cfg in config_strategy(),
        prefix in proptest::collection::vec(
            (any::<u16>(), any::<u64>(), any::<bool>()), 0..120),
        suffix in proptest::collection::vec(
            (any::<u16>(), any::<u64>(), any::<bool>()), 1..120),
    ) {
        let mut sys = System::new(cfg);
        let t = run(&mut sys, SimTime::ZERO, &prefix);

        let frame = sys.snapshot();
        let mut twin = System::restore(&frame).expect("restore");
        prop_assert_eq!(twin.state_digest(), sys.state_digest());
        prop_assert_eq!(twin.snapshot(), frame.clone());

        let cores = sys.cfg.n_cores();
        let mut ta = t;
        let mut tb = t;
        for &(c, l, w) in &suffix {
            let core = CoreId(c % cores);
            let line = LineAddr(l % 2048);
            let (a, b) = if w {
                (sys.write(core, line, ta), twin.write(core, line, tb))
            } else {
                (sys.read(core, line, ta), twin.read(core, line, tb))
            };
            prop_assert_eq!(a, b);
            ta = a.done;
            tb = b.done;
        }
        prop_assert_eq!(twin.state_digest(), sys.state_digest());
        prop_assert_eq!(twin.snapshot(), sys.snapshot());
    }

    /// Pending snoop faults are part of the state: a snapshot taken with
    /// injected-but-unconsumed drops and delays replays them identically.
    #[test]
    fn pending_faults_replay_identically(
        prefix in proptest::collection::vec(
            (any::<u16>(), any::<u64>(), any::<bool>()), 0..60),
        suffix in proptest::collection::vec(
            (any::<u16>(), any::<u64>(), any::<bool>()), 1..60),
        drops in 0u32..4,
        delays in 0u32..3,
    ) {
        let cfg = SystemConfig::e5_8core(CoherenceMode::ClusterOnDie);
        let mut sys = System::new(cfg);
        let t = run(&mut sys, SimTime::ZERO, &prefix);
        sys.inject_snoop_drop(drops);
        sys.inject_snoop_delay(300.0, delays);

        let frame = sys.snapshot();
        let mut twin = System::restore(&frame).expect("restore");
        // A dropped snoop can leave state a later walk rejects, so replay
        // through the batch path, which reports errors per access.
        let cores = sys.cfg.n_cores();
        let batch: Vec<Access> = suffix
            .iter()
            .enumerate()
            .map(|(i, &(c, l, w))| {
                let (core, line) = (CoreId(c % cores), LineAddr(l % 2048));
                let a = if w { Access::write(core, line) } else { Access::read(core, line) };
                if i == 0 { a.at(t) } else { a }
            })
            .collect();
        prop_assert_eq!(sys.run_batch_seq(&batch), twin.run_batch_seq(&batch));
        prop_assert_eq!(twin.state_digest(), sys.state_digest());
        prop_assert_eq!(twin.snapshot(), sys.snapshot());
    }
}
