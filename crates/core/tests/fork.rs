//! Property: a fork continues exactly as its original would, from any
//! reachable machine state — random configurations × random walk
//! prefixes.
//!
//! After a random prefix, with snoop drops and delays injected but not
//! yet consumed and the invariant monitor on in some cases, the system is
//! forked. The fork runs a random suffix first, then the original runs
//! the same suffix: replies, `Stats`, `state_digest`, the telemetry
//! exports and the counters each publishes on drop must all be equal.
//! Because the fork runs first, the original's run also shows that the
//! fork shares no state with it.

use hswx_engine::{
    MetricsRegistry, SimDuration, SimTime, TelemetryConfig, TelemetryHub, TelemetrySampler,
};
use std::sync::Arc;
use hswx_haswell::{Access, AccessOp, CoherenceMode, Issue, MonitorConfig, System, SystemConfig};
use hswx_mem::{CacheGeometry, CoreId, LineAddr, Replacement};
use proptest::prelude::*;

/// 10 ns buckets, at most 32 of them: the series downsamples during the
/// prefix, and again after the fork.
const SAMPLER: TelemetryConfig = TelemetryConfig { bucket_ps: 10_000, max_buckets: 32 };

fn config_strategy() -> impl Strategy<Value = SystemConfig> {
    (
        (
            prop_oneof![
                Just(CoherenceMode::SourceSnoop),
                Just(CoherenceMode::HomeSnoop),
                Just(CoherenceMode::ClusterOnDie),
            ],
            any::<bool>(),
        ),
        2u8..=3,
        (prop_oneof![Just(8u32), Just(64), Just(1792)], any::<bool>()),
        any::<bool>(),
        (
            prop_oneof![Just(Replacement::Lru), Just(Replacement::Random)],
            any::<bool>(),
        ),
    )
        .prop_map(
            |(
                (mode, twelve_core),
                sockets,
                (hitme_entries, hitme_enabled),
                prefetch,
                (l3_replacement, small_l3),
            )| {
                let base = if twelve_core {
                    SystemConfig::e5_2680_v3(mode)
                } else {
                    SystemConfig::e5_8core(mode)
                };
                // 4 sets x 2 ways per slice: the walks evict from L3, so
                // the replacement state, the Random policy's victim RNG
                // stream included, decides outcomes.
                let l3_slice = if small_l3 { CacheGeometry::new(8 * 64, 2) } else { base.l3_slice };
                SystemConfig {
                    sockets,
                    hitme_entries,
                    hitme_enabled,
                    prefetch,
                    l3_slice,
                    l3_replacement,
                    ..base
                }
            },
        )
}

/// One raw op: (core selector, line selector, op kind, issue kind, issue
/// delay selector).
type RawOp = (u16, u64, u8, u8, u16);

fn raw_ops(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RawOp>> {
    proptest::collection::vec((any::<u16>(), any::<u64>(), 0u8..4, 0u8..3, any::<u16>()), len)
}

/// Decode raw ops into a batch whose first access issues at `at`. Later
/// ones chain on their predecessor, after a delay, or at an absolute time
/// in the first 4 µs, where the prefix's and the suffix's walks crowd
/// together and the bookings, pools and responder times earlier walks
/// left decide when a walk runs.
fn batch(ops: &[RawOp], cores: u16, at: SimTime) -> Vec<Access> {
    ops.iter()
        .enumerate()
        .map(|(i, &(c, l, op, iss, d))| Access {
            core: CoreId(c % cores),
            line: LineAddr(l % 2048),
            op: [AccessOp::Read, AccessOp::Write, AccessOp::WriteNt, AccessOp::Flush][op as usize],
            issue: match (i, iss) {
                (0, _) => Issue::At(at),
                (_, 0) => Issue::AfterPrev,
                (_, 1) => Issue::AfterPrevPlus(SimDuration::from_ns((d % 512) as f64)),
                _ => Issue::At(SimTime::ZERO + SimDuration::from_ns((d % 4096) as f64)),
            },
        })
        .collect()
}

/// The width of `sys`'s telemetry buckets right now.
fn bucket_width(sys: &mut System) -> u64 {
    let series = sys.take_sampler().expect("sampler attached");
    let width = series.bucket_ps();
    sys.attach_sampler(series);
    width
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

/// A fork keeps its original's sampler; without one it takes the ambient
/// hub's, as a new system would, and with neither it samples nothing.
#[test]
fn fork_copies_the_sampler_or_takes_the_ambient_one() {
    let mut sampled = System::new(SystemConfig::e5_8core(CoherenceMode::SourceSnoop));
    sampled.attach_sampler(TelemetrySampler::new(SAMPLER));
    let plain = System::new(SystemConfig::e5_8core(CoherenceMode::SourceSnoop));
    assert!(!plain.fork().sampling());

    let hub = Arc::new(TelemetryHub::new(TelemetryConfig { bucket_ps: 1_000, max_buckets: 8 }));
    let _scope = TelemetryHub::set_ambient(Arc::clone(&hub));
    let from_hub = plain.fork().take_sampler().expect("the ambient hub's sampler");
    assert_eq!(from_hub.bucket_ps(), 1_000);
    let copied = sampled.fork().take_sampler().expect("the original's sampler");
    assert_eq!(copied.bucket_ps(), SAMPLER.bucket_ps);
}

/// Walks still in flight at the fork hold bookings: write-combining
/// buffers, snoop responders, L3 ports, home-agent trackers, QPI links
/// and DRAM. A burst issued at the same instant after the fork queues
/// behind them on the fork exactly as it does on the original.
#[test]
fn fork_carries_in_flight_bookings() {
    // Burst `k`: core 2 streams 12 NT stores, cores 3..=6 read 8 lines
    // core 0 holds Modified, cores 0 and 3 read 16 lines that cores 1 and
    // 2 share, so their node's L3 serves them, and the other socket's
    // cores read 16 lines from node 0's memory, all at `t`. The two
    // bursts touch different lines.
    let burst = |k: u64, t: SimTime| -> Vec<Access> {
        let nt = (0..12).map(|i| Access {
            op: AccessOp::WriteNt,
            ..Access::write(CoreId(2), LineAddr(1000 + 12 * k + i))
        });
        let fwd = (0..8).map(|i| Access::read(CoreId(3 + i as u16 % 4), LineAddr(8 * k + i)));
        let l3 = (0..16).map(|i| Access::read(CoreId(3 * (i as u16 % 2)), LineAddr(100 + 16 * k + i)));
        let remote = (0..16).map(|i| Access::read(CoreId(8 + i as u16 % 8), LineAddr(200 + 16 * k + i)));
        nt.chain(fwd).chain(l3).chain(remote).map(|a| a.at(t)).collect()
    };
    for mode in CoherenceMode::all() {
        let mut sys = System::new(SystemConfig::e5_8core(mode));
        let mut t = SimTime::ZERO;
        for i in 0..16 {
            t = sys.write(CoreId(0), LineAddr(i), t).done;
        }
        for i in 100..132 {
            t = sys.read(CoreId(1), LineAddr(i), t).done;
            t = sys.read(CoreId(2), LineAddr(i), t).done;
        }
        sys.run_batch_seq(&burst(0, t));
        let mut fork = sys.fork();
        let forked = fork.run_batch_seq(&burst(1, t));
        assert_eq!(forked, sys.run_batch_seq(&burst(1, t)), "{mode:?}");
        assert_eq!(format!("{:?}", fork.stats), format!("{:?}", sys.stats), "{mode:?}");
        assert_eq!(fork.state_digest(), sys.state_digest(), "{mode:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn fork_continues_like_the_original(
        cfg in config_strategy(),
        prefix in raw_ops(0..120),
        suffix in raw_ops(1..120),
        drops in 0u32..4,
        delays in 0u32..3,
        monitored in any::<bool>(),
    ) {
        // Each system publishes its counters into its own registry.
        let (published, published_by_fork) =
            (Arc::new(MetricsRegistry::new()), Arc::new(MetricsRegistry::new()));
        let mut sys = {
            let _scope = MetricsRegistry::set_ambient(Arc::clone(&published));
            System::new(cfg)
        };
        let cores = sys.cfg.n_cores();
        sys.attach_sampler(TelemetrySampler::new(SAMPLER));
        if monitored {
            sys.enable_monitor(MonitorConfig::strict());
        }
        let t = sys.run_batch_seq(&batch(&prefix, cores, SimTime::ZERO)).done;
        sys.inject_snoop_drop(drops);
        sys.inject_snoop_delay(300.0, delays);

        let mut fork = {
            let _scope = MetricsRegistry::set_ambient(Arc::clone(&published_by_fork));
            sys.fork()
        };
        prop_assert_eq!(fork.state_digest(), sys.state_digest());
        let width_at_fork = bucket_width(&mut sys);

        // A dropped snoop can leave state a later walk rejects; the batch
        // path reports such errors per access. The suffix is followed by
        // a cold read issued past the series' last bucket, so the width
        // doubles after the fork.
        let suffix = batch(&suffix, cores, t);
        let forked = fork.run_batch_seq(&suffix);
        let late = [Access::read(CoreId(0), LineAddr(4096)).at(SimTime(32 * bucket_width(&mut fork)))];
        let forked_late = fork.run_batch_seq(&late);
        let original = sys.run_batch_seq(&suffix);
        prop_assert_eq!(&forked, &original);
        prop_assert_eq!(forked_late, sys.run_batch_seq(&late));
        // `Stats` holds deterministic-hash maps filled in identical order,
        // so the Debug rendering is a faithful deep comparison.
        prop_assert_eq!(format!("{:?}", fork.stats), format!("{:?}", sys.stats));
        prop_assert_eq!(fork.state_digest(), sys.state_digest());
        let (a, b) = (fork.take_sampler().unwrap(), sys.take_sampler().unwrap());
        prop_assert!(a.bucket_ps() > width_at_fork, "the width doubled after the fork");
        prop_assert_eq!(a.to_csv(), b.to_csv());
        prop_assert_eq!(a.to_openmetrics(), b.to_openmetrics());
        drop((fork, sys));
        prop_assert_eq!(published_by_fork.counters_snapshot(), published.counters_snapshot());
    }
}
