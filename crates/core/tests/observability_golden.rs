//! Golden digests of every observability output of a walk.
//!
//! The span tracer, the telemetry sampler and the protocol transcript
//! watch the same walks. This test drives one deterministic mixed
//! workload (reads, writes, non-temporal stores and flushes from several
//! cores over private, L3, peer-node and memory lines, as in
//! `golden_outcomes.rs`) in each coherence mode and pins the FNV-1a
//! digest of each export:
//!
//! - (a) a [`SpanRecorder`] and a [`TelemetrySampler`] attached: the
//!   Chrome trace-event JSON (span names, ids, parents, intervals and
//!   details), the walk records, and the telemetry CSV and OpenMetrics;
//! - (b) only the transcript armed with `trace_next`: the `Debug` form of
//!   the collected `(time, step)` list;
//! - (c) the strict invariant monitor with injected snoop delays: the
//!   diagnostic of the first error, which embeds the monitor's per-walk
//!   transcript.
//!
//! A change to how a walk is instrumented must leave every digest alone;
//! a change to what is recorded must say which digest moved and why.
//! Run with `GOLDEN_PRINT=1 cargo test -p hswx-haswell --test
//! observability_golden -- --nocapture` to reprint the digests.

use hswx_engine::{fnv1a64, SimTime, SpanRecorder, TelemetryConfig, TelemetrySampler};
use hswx_haswell::monitor::MonitorConfig;
use hswx_haswell::{CoherenceMode, SimError, System, SystemConfig};
use hswx_mem::{CoreId, LineAddr, NodeId};
use std::ops::Range;

const OPS: usize = 1_500;

/// Per mode: run (a)'s four digests, then run (b)'s and run (c)'s.
const GOLDEN: &[(CoherenceMode, [u64; 6])] = &[
    (
        CoherenceMode::SourceSnoop,
        [0x5729047A04EB8D77, 0xAD8EE638FF69DEC1, 0xC3EE39AFBD9D51EB, 0xE3A314AB82A49D82,
         0x1E6E3AB6BD53EB24, 0x0118F09E2F465825],
    ),
    (
        CoherenceMode::HomeSnoop,
        [0xB650B295ACF1AF1A, 0xA9176647DEA8367F, 0xDE026AC341D1E467, 0x97D5D859527544FE,
         0x4D221E0D3E4E59B7, 0x1908FF5BEAA8B91F],
    ),
    (
        CoherenceMode::ClusterOnDie,
        [0x6B86931A907D9731, 0x071CB8E940F21BE9, 0xE466082FD2DEF0F9, 0x9E7FAE0CE04BEA8B,
         0x9F6AAC742EEDB836, 0x1EBDF15F204864CE],
    ),
];

const NAMES: [&str; 6] = [
    "span chrome_json", "walk records", "telemetry csv", "telemetry openmetrics",
    "transcript", "monitor diagnostic",
];

/// Drive the mixed workload on `sys` and return the first walk error.
/// `inject_at` arms snoop delays (1 ms each, past the strict watchdog)
/// before that operation.
fn drive(sys: &mut System, mode: CoherenceMode, inject_at: Option<usize>) -> Option<SimError> {
    let n_cores = sys.topo.n_cores() as u64;
    let base0 = sys.topo.numa_base(NodeId(0)).line().0;
    let base1 = sys.topo.numa_base(NodeId(1)).line().0;
    let mut t = SimTime::ZERO;
    let mut s: u64 = 0x9E3779B97F4A7C15 ^ mode as u64;
    for i in 0..OPS {
        if inject_at == Some(i) {
            sys.inject_snoop_delay(1_000_000.0, 4);
        }
        // xorshift64
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        let core = CoreId((s % n_cores) as u16);
        let base = if s & (1 << 20) == 0 { base0 } else { base1 };
        // 512-line hot set with occasional cold lines for capacity traffic.
        let off = if i % 13 == 0 { (s >> 24) % 65_536 } else { (s >> 24) % 512 };
        let line = LineAddr(base + off);
        let res = match (s >> 40) % 8 {
            0..=3 => sys.try_read(core, line, t),
            4..=5 => sys.try_write(core, line, t),
            6 => Ok(sys.write_nt(core, line, t)),
            _ => {
                t = sys.flush(core, line, t);
                continue;
            }
        };
        match res {
            Ok(out) => t = out.done,
            Err(e) => return Some(e),
        }
    }
    None
}

/// Run (a): digests of the span JSON, the walk records, the telemetry
/// CSV and the telemetry OpenMetrics text.
fn traced_and_sampled(mode: CoherenceMode) -> Vec<u64> {
    let mut sys = System::new(SystemConfig::e5_2680_v3(mode));
    sys.attach_tracer(SpanRecorder::with_capacity(1 << 20));
    sys.attach_sampler(TelemetrySampler::new(TelemetryConfig::default()));
    assert!(drive(&mut sys, mode, None).is_none(), "{mode:?}: workload failed");
    let rec = sys.take_tracer().expect("tracer attached");
    let sampler = sys.take_sampler().expect("sampler attached");
    let walks: Vec<_> = rec.walks().collect();
    [rec.chrome_json(), format!("{walks:?}"), sampler.to_csv(), sampler.to_openmetrics()]
        .map(|text| fnv1a64(text.as_bytes()))
        .to_vec()
}

/// Run (b): digest of the armed transcript.
fn transcript(mode: CoherenceMode) -> Vec<u64> {
    let mut sys = System::new(SystemConfig::e5_2680_v3(mode));
    sys.trace_next();
    assert!(drive(&mut sys, mode, None).is_none(), "{mode:?}: workload failed");
    vec![fnv1a64(format!("{:?}", sys.take_trace()).as_bytes())]
}

/// Run (c): digest of the first monitor error's diagnostic.
fn monitor_diagnostic(mode: CoherenceMode) -> Vec<u64> {
    let mut sys = System::new(SystemConfig::e5_2680_v3(mode));
    sys.enable_monitor(MonitorConfig::strict());
    let err = drive(&mut sys, mode, Some(OPS / 3))
        .unwrap_or_else(|| panic!("{mode:?}: injected snoop delay went undetected"));
    let diag = err.diagnostic();
    assert!(diag.contains("protocol transcript:"), "{diag}");
    vec![fnv1a64(diag.as_bytes())]
}

/// Compare `run`'s digests in every mode with `GOLDEN[..][slots]`, after
/// printing all of them under `GOLDEN_PRINT`.
fn check(slots: Range<usize>, run: fn(CoherenceMode) -> Vec<u64>) {
    let got: Vec<Vec<u64>> = GOLDEN.iter().map(|&(mode, _)| run(mode)).collect();
    if std::env::var_os("GOLDEN_PRINT").is_some() {
        for ((mode, _), d) in GOLDEN.iter().zip(&got) {
            eprintln!("{mode:?} {slots:?}: {d:#018X?}");
        }
    }
    for ((mode, want), d) in GOLDEN.iter().zip(&got) {
        for (i, &digest) in slots.clone().zip(d) {
            assert_eq!(digest, want[i], "{mode:?}: {} digest drifted", NAMES[i]);
        }
    }
}

#[test]
fn span_and_telemetry_exports_match() {
    check(0..4, traced_and_sampled);
}

#[test]
fn transcript_matches() {
    check(4..5, transcript);
}

#[test]
fn monitor_diagnostic_matches() {
    check(5..6, monitor_diagnostic);
}
