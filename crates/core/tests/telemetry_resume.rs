//! Kill-9/resume integrity for the telemetry time-series: a run that is
//! snapshotted at an arbitrary walk boundary, destroyed, restored, and
//! driven to completion must export byte-identical series to the
//! uninterrupted run — no double-counted buckets (the snapshot carries
//! the partial series, so replaying from it must not re-add the prefix)
//! and no missing buckets (the suffix lands on top of the carried
//! prefix).

use hswx_engine::{SimTime, TelemetryConfig, TelemetrySampler};
use hswx_haswell::{CoherenceMode, System, SystemConfig};
use hswx_mem::{CoreId, LineAddr};

const OPS: usize = 240;

fn op(i: usize) -> (CoreId, LineAddr, bool) {
    // Deterministic mix: both sockets of the 16-core config, 512 lines,
    // ~1/3 writes.
    (
        CoreId((i * 7 % 16) as u16),
        LineAddr((i as u64 * 37) % 512),
        i.is_multiple_of(3),
    )
}

fn drive(sys: &mut System, mut t: SimTime, range: std::ops::Range<usize>) -> SimTime {
    for i in range {
        let (core, line, write) = op(i);
        let out = if write {
            sys.write(core, line, t)
        } else {
            sys.read(core, line, t)
        };
        t = out.done;
    }
    t
}

fn sampler_cfg() -> TelemetryConfig {
    // Small bucket budget so the run downsamples a few times: resume must
    // survive width doubling, not just plain bucket appends.
    TelemetryConfig { bucket_ps: 10_000, max_buckets: 32 }
}

#[test]
fn resumed_series_matches_uninterrupted_run_at_every_cut() {
    let cfg = SystemConfig::e5_8core(CoherenceMode::HomeSnoop);

    // Reference: one uninterrupted run.
    let mut reference = System::new(cfg.clone());
    reference.attach_sampler(TelemetrySampler::new(sampler_cfg()));
    drive(&mut reference, SimTime::ZERO, 0..OPS);
    let ref_sampler = reference.take_sampler().unwrap();
    let ref_csv = ref_sampler.to_csv();
    let ref_digest = reference.state_digest();
    assert!(!ref_sampler.is_empty());

    for cut in [1, 7, OPS / 2, OPS - 1] {
        let mut sys = System::new(cfg.clone());
        sys.attach_sampler(TelemetrySampler::new(sampler_cfg()));
        let t = drive(&mut sys, SimTime::ZERO, 0..cut);
        let frame = sys.snapshot();
        // Kill: the original system is gone, series and all.
        drop(sys);

        let mut twin = System::restore(&frame).expect("snapshot restores");
        assert!(twin.sampling(), "restored system lost its sampler");
        drive(&mut twin, t, cut..OPS);
        let resumed = twin.take_sampler().unwrap();
        assert_eq!(
            resumed.to_csv(),
            ref_csv,
            "series diverged when resuming at walk {cut}"
        );
        assert_eq!(
            resumed.to_openmetrics(),
            ref_sampler.to_openmetrics(),
            "openmetrics diverged when resuming at walk {cut}"
        );
        assert_eq!(twin.state_digest(), ref_digest);
    }
}

#[test]
fn snapshot_with_sampler_reencodes_byte_identically() {
    let cfg = SystemConfig::e5_8core(CoherenceMode::SourceSnoop);
    let mut sys = System::new(cfg);
    sys.attach_sampler(TelemetrySampler::new(sampler_cfg()));
    drive(&mut sys, SimTime::ZERO, 0..40);
    let frame = sys.snapshot();
    let twin = System::restore(&frame).unwrap();
    assert_eq!(twin.snapshot(), frame, "restored twin re-encodes differently");
}

#[test]
fn samplerless_snapshot_stays_sampler_free() {
    let cfg = SystemConfig::e5_8core(CoherenceMode::SourceSnoop);
    let mut sys = System::new(cfg);
    drive(&mut sys, SimTime::ZERO, 0..10);
    let frame = sys.snapshot();
    let mut twin = System::restore(&frame).unwrap();
    assert!(!twin.sampling());
    assert!(twin.take_sampler().is_none());
}
