//! The hardened config boundary: no `SystemConfig` value — however
//! hostile — may panic `System::try_new`. It must either build a working
//! system or return a field-level `ConfigError`.
//!
//! The regression tests below each encode a config that *panicked* (or
//! silently clamped / over-allocated) before validation existed: division
//! by zero in set indexing, zero-capacity pools, NaN timings poisoning
//! every latency, multi-gigabyte tag arrays, out-of-range socket counts.

use hswx_haswell::{Calib, CoherenceMode, ConfigError, System, SystemConfig};
use hswx_mem::CacheGeometry;
use proptest::prelude::*;

fn base() -> SystemConfig {
    SystemConfig::e5_2680_v3(CoherenceMode::SourceSnoop)
}

/// Overwrite one field of `cfg` with attacker-controlled raw bits.
/// Index space deliberately covers every field validation looks at.
fn mutate(cfg: &mut SystemConfig, field: u8, bits: u64) {
    let f = f64::from_bits(bits);
    match field % 24 {
        0 => cfg.sockets = bits as u8,
        1 => cfg.l1.ways = bits as u32,
        2 => cfg.l1.size_bytes = bits,
        3 => cfg.l2.ways = bits as u32,
        4 => cfg.l2.size_bytes = bits,
        5 => cfg.l3_slice.ways = bits as u32,
        6 => cfg.l3_slice.size_bytes = bits,
        7 => cfg.dram.t_cas = f,
        8 => cfg.dram.t_rcd = f,
        9 => cfg.dram.t_wr = f,
        10 => cfg.dram.banks = bits as u32,
        11 => cfg.dram.row_bytes = bits,
        12 => cfg.dram.bus_gb_s = f,
        13 => cfg.calib.core_ghz = f,
        14 => cfg.calib.t_qpi = f,
        15 => cfg.calib.t_probe = f,
        16 => cfg.calib.qpi_gb_s = f,
        17 => cfg.calib.l3_port_gb_s = f,
        18 => cfg.calib.lfb_per_core = bits as u32,
        19 => cfg.calib.trackers_other = bits as u32,
        20 => cfg.calib.trackers_source_remote = bits as u32,
        21 => cfg.calib.trackers_cod_remote = bits as u32,
        22 => cfg.calib.msg_data = bits,
        _ => cfg.hitme_entries = bits as u32,
    }
}

proptest! {
    /// Any pile of single-field corruptions either builds or errors —
    /// never panics, never divides by zero, never allocates past the
    /// model caps.
    #[test]
    fn no_mutated_config_panics_the_constructor(
        muts in proptest::collection::vec((any::<u8>(), any::<u64>()), 0..8)
    ) {
        let mut cfg = base();
        for &(field, bits) in &muts {
            mutate(&mut cfg, field, bits);
        }
        let validated = cfg.validate();
        match System::try_new(cfg) {
            Ok(_) => prop_assert!(validated.is_ok()),
            // Compare diagnostics textually: `ConfigError` can carry NaN
            // payloads, and NaN != NaN under PartialEq.
            Err(e) => prop_assert_eq!(
                e.to_string(),
                validated.expect_err("try_new rejected").to_string()
            ),
        }
    }

    /// validate() and try_new agree exactly: a config that validates
    /// builds, and builds a usable machine.
    #[test]
    fn validated_configs_always_build(
        sockets in 2u8..=4,
        hitme in prop_oneof![Just(8u32), Just(64), Just(1792)],
    ) {
        let mut cfg = base();
        cfg.sockets = sockets;
        cfg.hitme_entries = hitme;
        prop_assert!(cfg.validate().is_ok());
        let sys = System::try_new(cfg).expect("validated config must build");
        prop_assert!(sys.cfg.n_cores() > 0);
    }
}

// --- Regression corpus: each case panicked or misbehaved pre-hardening ---

#[track_caller]
fn rejected(cfg: SystemConfig) -> ConfigError {
    let err = cfg.validate().expect_err("config must be rejected");
    assert!(
        System::try_new(cfg).is_err(),
        "try_new must agree with validate"
    );
    err
}

#[test]
fn regression_zero_sockets() {
    // Panicked on `assert!((2..=4).contains(&cfg.sockets))`.
    let cfg = SystemConfig { sockets: 0, ..base() };
    assert_eq!(rejected(cfg), ConfigError::Sockets { got: 0 });
}

#[test]
fn regression_one_socket() {
    let cfg = SystemConfig { sockets: 1, ..base() };
    assert_eq!(rejected(cfg), ConfigError::Sockets { got: 1 });
}

#[test]
fn regression_five_sockets() {
    let cfg = SystemConfig { sockets: 5, ..base() };
    assert_eq!(rejected(cfg), ConfigError::Sockets { got: 5 });
}

#[test]
fn regression_zero_way_l1_divided_by_zero() {
    // `CacheGeometry::sets()` computes size / (64 * ways): panicked with
    // `attempt to divide by zero` inside SetAssocCache::new.
    let mut cfg = base();
    cfg.l1 = CacheGeometry { size_bytes: 32 * 1024, ways: 0 };
    assert!(matches!(
        rejected(cfg),
        ConfigError::CacheGeometry { cache: "l1", ways: 0, .. }
    ));
}

#[test]
fn regression_zero_size_l2() {
    // Zero sets tripped the `sets > 0` assert (or built an unusable cache
    // when constructed directly).
    let mut cfg = base();
    cfg.l2 = CacheGeometry { size_bytes: 0, ways: 8 };
    assert!(matches!(
        rejected(cfg),
        ConfigError::CacheGeometry { cache: "l2", .. }
    ));
}

#[test]
fn regression_oversized_l3_slice_allocates_gigabytes() {
    // Nothing bounded the tag/state arrays: u64::MAX capacity asked the
    // host for more memory than exists before any access ran.
    let mut cfg = base();
    cfg.l3_slice = CacheGeometry { size_bytes: u64::MAX, ways: 16 };
    assert!(matches!(rejected(cfg), ConfigError::ModelCapacity { .. }));
}

#[test]
fn regression_zero_dram_banks() {
    // Bank index `addr % banks` divided by zero on the first DRAM access.
    let mut cfg = base();
    cfg.dram.banks = 0;
    assert!(matches!(
        rejected(cfg),
        ConfigError::Dram { field: "banks", .. }
    ));
}

#[test]
fn regression_sub_line_dram_row() {
    // row_bytes < 64 made lines_per_row zero → row-hit logic divided by
    // zero.
    let mut cfg = base();
    cfg.dram.row_bytes = 32;
    assert!(matches!(
        rejected(cfg),
        ConfigError::Dram { field: "row_bytes", .. }
    ));
}

#[test]
fn regression_nan_dram_bus_rate() {
    // NaN propagated into every bus reservation, producing NaN latencies
    // with no diagnostic.
    let mut cfg = base();
    cfg.dram.bus_gb_s = f64::NAN;
    assert!(matches!(
        rejected(cfg),
        ConfigError::Dram { field: "bus_gb_s", .. }
    ));
}

#[test]
fn regression_negative_dram_timing() {
    let mut cfg = base();
    cfg.dram.t_cas = -14.06;
    assert!(matches!(
        rejected(cfg),
        ConfigError::Dram { field: "t_cas", .. }
    ));
}

#[test]
fn regression_nan_calib_clock() {
    // Only the (optional, periodic) monitor ever called Calib::validate;
    // an unmonitored run simulated NaN latencies forever.
    let mut cfg = base();
    cfg.calib.core_ghz = f64::NAN;
    let err = rejected(cfg);
    assert!(
        matches!(err, ConfigError::Calib { field: "core_ghz", value } if value.is_nan()),
        "{err}"
    );
}

#[test]
fn regression_zero_tracker_pool() {
    // TimedPool::new(0) built a pool nothing could ever enter: the first
    // home-agent admission spun forever (or panicked on a debug assert).
    let mut cfg = base();
    cfg.calib.trackers_other = 0;
    assert!(matches!(
        rejected(cfg),
        ConfigError::Calib { field: "trackers_other", .. }
    ));
}

#[test]
fn regression_zero_lfb() {
    let mut cfg = base();
    cfg.calib.lfb_per_core = 0;
    assert!(matches!(
        rejected(cfg),
        ConfigError::Calib { field: "lfb_per_core", .. }
    ));
}

#[test]
fn regression_tiny_hitme_was_silently_clamped() {
    // hitme_entries < 8 used to be clamped up to 8 behind the caller's
    // back: an ablation sweeping {0,1,2,4} entries silently measured the
    // 8-entry machine four times. Now it is a typed rejection.
    let mut cfg = base();
    cfg.hitme_entries = 4;
    assert!(matches!(rejected(cfg), ConfigError::HitMe { entries: 4, .. }));
}

#[test]
fn regression_huge_hitme() {
    let mut cfg = base();
    cfg.hitme_entries = u32::MAX;
    assert!(matches!(rejected(cfg), ConfigError::HitMe { .. }));
}

#[test]
fn error_messages_name_the_offending_field() {
    let mut cfg = base();
    cfg.calib.t_qpi = -1.0;
    let msg = cfg.validate().unwrap_err().to_string();
    assert!(msg.contains("t_qpi"), "{msg}");
    let msg = ConfigError::Sockets { got: 9 }.to_string();
    assert!(msg.contains('9') && msg.contains("sockets"), "{msg}");
}

#[test]
fn all_shipped_presets_validate() {
    for mode in CoherenceMode::all() {
        for cfg in [
            SystemConfig::e5_2680_v3(mode),
            SystemConfig::e5_8core(mode),
            SystemConfig::quad_socket(mode),
            SystemConfig::e5_18core(mode),
        ] {
            assert_eq!(cfg.validate(), Ok(()), "{mode:?}");
        }
        let scaled = SystemConfig {
            calib: Calib::haswell_ep().with_uncore_scale(1.25),
            ..SystemConfig::e5_2680_v3(mode)
        };
        assert_eq!(scaled.validate(), Ok(()));
    }
}
