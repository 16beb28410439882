//! System configuration.
//!
//! A [`SystemConfig`] fully describes one simulated machine: die variant,
//! socket count, coherence mode (the three BIOS configurations the paper
//! compares), cache geometries, DRAM timings, and calibration constants.

use crate::calib::Calib;
use hswx_coherence::ProtocolConfig;
use hswx_engine::{fnv1a64, fnv1a64_extend};
use hswx_mem::{CacheGeometry, DdrTimings, Replacement};
use hswx_topology::DieVariant;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Upper bound on total modelled cache lines (all levels × all cores).
///
/// 2^23 lines ≈ 512 MiB of modelled capacity — more than 2.5× the largest
/// real configuration (quad-socket 18-core), but small enough that a
/// hostile or corrupted config cannot ask the host for gigabytes of
/// tag/state arrays before the first access runs.
pub const MAX_MODEL_LINES: u64 = 1 << 23;

/// Upper bound on HitME directory-cache entries per home agent (the real
/// organization has 1792; ablations sweep it, but 2^20 entries = 64 MiB of
/// modelled SRAM is far past any plausible study).
pub const MAX_HITME_ENTRIES: u32 = 1 << 20;

/// Upper bound on DRAM banks per channel.
pub const MAX_DRAM_BANKS: u32 = 1 << 16;

/// A [`SystemConfig`] field (or combination) that the simulator cannot
/// model. Returned by [`SystemConfig::validate`] and
/// [`crate::System::try_new`] instead of panicking mid-construction, so
/// callers that build configs from untrusted input (campaign manifests,
/// fuzzers) get a diagnosable error naming the offending field.
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// Socket count outside the modelled fully-connected 2–4 range.
    Sockets {
        /// The rejected socket count.
        got: u8,
    },
    /// A cache geometry is degenerate (zero ways, capacity below one set).
    CacheGeometry {
        /// Which cache: `"l1"`, `"l2"`, or `"l3_slice"`.
        cache: &'static str,
        /// The rejected capacity.
        size_bytes: u64,
        /// The rejected associativity.
        ways: u32,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// Total modelled lines across all caches and cores exceed
    /// [`MAX_MODEL_LINES`].
    ModelCapacity {
        /// Lines the config asks for.
        total_lines: u64,
    },
    /// A DRAM timing/shape field is out of range.
    Dram {
        /// The offending [`DdrTimings`] field.
        field: &'static str,
        /// Its value (integer fields are widened).
        value: f64,
        /// Why it was rejected.
        reason: &'static str,
    },
    /// A calibration constant failed [`Calib::validate`].
    Calib {
        /// The offending [`Calib`] field.
        field: &'static str,
        /// Its value.
        value: f64,
    },
    /// HitME directory-cache entry count out of range.
    HitMe {
        /// The rejected entry count.
        entries: u32,
        /// Why it was rejected.
        reason: &'static str,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Sockets { got } => write!(
                f,
                "sockets: {got} is outside the modelled 2..=4 \
                 fully-connected QPI range"
            ),
            ConfigError::CacheGeometry { cache, size_bytes, ways, reason } => write!(
                f,
                "{cache}: geometry {{ size_bytes: {size_bytes}, ways: {ways} }} \
                 rejected: {reason}"
            ),
            ConfigError::ModelCapacity { total_lines } => write!(
                f,
                "cache geometries: {total_lines} total modelled lines exceed \
                 the {MAX_MODEL_LINES}-line model cap"
            ),
            ConfigError::Dram { field, value, reason } => {
                write!(f, "dram.{field}: {value} rejected: {reason}")
            }
            ConfigError::Calib { field, value } => write!(
                f,
                "calib.{field}: {value} is not a finite value in the \
                 field's legal range"
            ),
            ConfigError::HitMe { entries, reason } => {
                write!(f, "hitme_entries: {entries} rejected: {reason}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The three coherence configurations of the paper's test system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoherenceMode {
    /// BIOS default: Early Snoop enabled → source snooping.
    SourceSnoop,
    /// Early Snoop disabled → home snooping (no directory in 2-socket).
    HomeSnoop,
    /// Cluster-on-Die: 4 NUMA nodes, home snooping + in-memory directory
    /// + HitME directory cache.
    ClusterOnDie,
}

impl CoherenceMode {
    /// The protocol rule set for this mode.
    pub fn protocol(self) -> ProtocolConfig {
        match self {
            CoherenceMode::SourceSnoop => ProtocolConfig::source_snoop(),
            CoherenceMode::HomeSnoop => ProtocolConfig::home_snoop(),
            CoherenceMode::ClusterOnDie => ProtocolConfig::cod(),
        }
    }

    /// Whether the topology splits each socket into two NUMA nodes.
    pub fn cod(self) -> bool {
        matches!(self, CoherenceMode::ClusterOnDie)
    }

    /// Short label used in tables/CSV.
    pub fn label(self) -> &'static str {
        match self {
            CoherenceMode::SourceSnoop => "source-snoop",
            CoherenceMode::HomeSnoop => "home-snoop",
            CoherenceMode::ClusterOnDie => "cod",
        }
    }

    /// All three modes, in the paper's comparison order.
    pub fn all() -> [CoherenceMode; 3] {
        [
            CoherenceMode::SourceSnoop,
            CoherenceMode::HomeSnoop,
            CoherenceMode::ClusterOnDie,
        ]
    }
}

/// Full description of one simulated system.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SystemConfig {
    /// Number of sockets (the paper's system has 2).
    pub sockets: u8,
    /// Physical die variant per socket.
    pub die: DieVariant,
    /// Coherence mode under test.
    pub mode: CoherenceMode,
    /// L1D geometry per core.
    pub l1: CacheGeometry,
    /// L2 geometry per core.
    pub l2: CacheGeometry,
    /// L3 slice geometry (one slice per core).
    pub l3_slice: CacheGeometry,
    /// DDR4 timings (per channel; 2 channels per home agent).
    pub dram: DdrTimings,
    /// Timing/bandwidth calibration constants.
    pub calib: Calib,
    /// Whether the L2 streamer prefetcher is active (ablation switch).
    pub prefetch: bool,
    /// Whether the HitME directory cache is active in COD mode
    /// (ablation switch; ignored outside COD).
    pub hitme_enabled: bool,
    /// HitME directory cache entries per home agent (1792 ≈ the real
    /// 14 KiB organization; ablation studies sweep this).
    pub hitme_entries: u32,
    /// L3 victim-selection policy (ablation switch; real silicon uses a
    /// PLRU-family approximation).
    pub l3_replacement: Replacement,
}

impl SystemConfig {
    /// The paper's test system: dual-socket Xeon E5-2680 v3 (12-core
    /// Haswell-EP, 2.5 GHz, DDR4-2133) in the given coherence mode.
    pub fn e5_2680_v3(mode: CoherenceMode) -> Self {
        SystemConfig {
            sockets: 2,
            die: DieVariant::TwelveCore,
            mode,
            l1: CacheGeometry::l1d_haswell(),
            l2: CacheGeometry::l2_haswell(),
            l3_slice: CacheGeometry::l3_slice_haswell(),
            dram: DdrTimings::ddr4_2133(),
            calib: Calib::haswell_ep(),
            prefetch: true,
            hitme_enabled: true,
            hitme_entries: 1792,
            l3_replacement: Replacement::Lru,
        }
    }

    /// An 8-core-die SKU (e.g. Xeon E5-2667 v3 class): single ring,
    /// no on-chip queue crossings — COD splits it into 4+4.
    pub fn e5_8core(mode: CoherenceMode) -> Self {
        SystemConfig { die: DieVariant::EightCore, ..Self::e5_2680_v3(mode) }
    }

    /// A glueless four-socket system of 12-core dies (E5-4600 v3 class),
    /// sockets fully connected by QPI. Enables the paper's motivating
    /// scaling question: how fast do snoop broadcasts become expensive?
    pub fn quad_socket(mode: CoherenceMode) -> Self {
        SystemConfig { sockets: 4, ..Self::e5_2680_v3(mode) }
    }

    /// An 18-core-die SKU (e.g. Xeon E5-2699 v3 class): the largest
    /// partitioned die, 8 + 10 cores on the two rings.
    pub fn e5_18core(mode: CoherenceMode) -> Self {
        SystemConfig { die: DieVariant::EighteenCore, ..Self::e5_2680_v3(mode) }
    }

    /// Total cores.
    pub fn n_cores(&self) -> u16 {
        self.die.cores() * self.sockets as u16
    }

    /// Home agents in the system (2 per socket).
    pub fn n_has(&self) -> u8 {
        2 * self.sockets
    }

    /// DDR channels per home agent (4 per socket / 2 HAs).
    pub fn channels_per_ha(&self) -> u32 {
        2
    }

    /// Check every field against the simulator's modelled ranges.
    ///
    /// [`crate::System::try_new`] calls this before allocating anything, so
    /// a config from an untrusted source (manifest, fuzzer)
    /// either produces a working system or a [`ConfigError`] naming the
    /// offending field — never a panic, a divide-by-zero, or a
    /// multi-gigabyte allocation.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !(2..=4).contains(&self.sockets) {
            return Err(ConfigError::Sockets { got: self.sockets });
        }
        let mut lines_per_core = 0u64;
        for (cache, g) in [("l1", self.l1), ("l2", self.l2), ("l3_slice", self.l3_slice)] {
            let reject = |reason| ConfigError::CacheGeometry {
                cache,
                size_bytes: g.size_bytes,
                ways: g.ways,
                reason,
            };
            if g.ways == 0 {
                return Err(reject("zero ways divides by zero in set indexing"));
            }
            // Recompute sets without CacheGeometry::sets() so a degenerate
            // geometry cannot panic before we report it.
            let sets = g.size_bytes / (64 * g.ways as u64);
            if sets == 0 {
                return Err(reject("capacity below one full set"));
            }
            lines_per_core = lines_per_core.saturating_add(sets.saturating_mul(g.ways as u64));
        }
        let total_lines = lines_per_core.saturating_mul(self.n_cores() as u64);
        if total_lines > MAX_MODEL_LINES {
            return Err(ConfigError::ModelCapacity { total_lines });
        }
        let d = &self.dram;
        for (field, value) in [
            ("t_cas", d.t_cas),
            ("t_rcd", d.t_rcd),
            ("t_rp", d.t_rp),
            ("t_burst", d.t_burst),
            ("t_wr", d.t_wr),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(ConfigError::Dram {
                    field,
                    value,
                    reason: "timings must be finite and non-negative",
                });
            }
        }
        if !d.bus_gb_s.is_finite() || d.bus_gb_s <= 0.0 {
            return Err(ConfigError::Dram {
                field: "bus_gb_s",
                value: d.bus_gb_s,
                reason: "bus rate must be finite and strictly positive",
            });
        }
        if d.banks == 0 || d.banks > MAX_DRAM_BANKS {
            return Err(ConfigError::Dram {
                field: "banks",
                value: d.banks as f64,
                reason: "banks per channel must be in 1..=65536",
            });
        }
        if d.row_bytes < 64 {
            return Err(ConfigError::Dram {
                field: "row_bytes",
                value: d.row_bytes as f64,
                reason: "a row must hold at least one 64-byte line",
            });
        }
        self.calib
            .validate()
            .map_err(|(field, value)| ConfigError::Calib { field, value })?;
        if self.hitme_entries < 8 {
            return Err(ConfigError::HitMe {
                entries: self.hitme_entries,
                reason: "fewer entries than one 8-way set",
            });
        }
        if self.hitme_entries > MAX_HITME_ENTRIES {
            return Err(ConfigError::HitMe {
                entries: self.hitme_entries,
                reason: "above the 2^20-entry model cap",
            });
        }
        Ok(())
    }
}

/// Schema word that [`SystemConfig::digest`] hashes. Frozen: sweep
/// checkpoint keys and campaign manifests carry the digest, so a new word
/// would orphan every checkpoint and manifest written before it.
const DIGEST_SCHEMA: u32 = 5;

impl SystemConfig {
    /// Stable FNV-1a digest of a canonical binary encoding of this config.
    /// Identical configs — however constructed — share a digest; any field
    /// change (including NaN-bit differences in calibration floats)
    /// changes it. Sweep checkpoint keys and campaign manifests use it to
    /// prove a resumed run is replaying the same machine.
    pub fn digest(&self) -> u64 {
        let mut payload = Vec::with_capacity(512);
        encode_config(&mut payload, self);
        // The hashed bytes are those of the binary frame the checkpoint
        // files once used: magic, schema word, payload length, payload,
        // then the frame's own digest. The magic word and the framing stay
        // so that the digest, and every key and manifest carrying it,
        // keeps its value.
        let mut h = fnv1a64(b"HSWXSNAP");
        h = fnv1a64_extend(h, &DIGEST_SCHEMA.to_le_bytes());
        h = fnv1a64_extend(h, &(payload.len() as u64).to_le_bytes());
        h = fnv1a64_extend(h, &payload);
        fnv1a64_extend(h, &h.to_le_bytes())
    }
}

fn die_tag(d: DieVariant) -> u8 {
    match d {
        DieVariant::EightCore => 0,
        DieVariant::TwelveCore => 1,
        DieVariant::EighteenCore => 2,
    }
}

fn mode_tag(m: CoherenceMode) -> u8 {
    match m {
        CoherenceMode::SourceSnoop => 0,
        CoherenceMode::HomeSnoop => 1,
        CoherenceMode::ClusterOnDie => 2,
    }
}

fn repl_tag(r: Replacement) -> u8 {
    match r {
        Replacement::Lru => 0,
        Replacement::TreePlru => 1,
        Replacement::Random => 2,
    }
}

fn encode_calib(w: &mut Vec<u8>, c: &Calib) {
    w.extend_from_slice(&c.core_ghz.to_le_bytes());
    w.extend_from_slice(&c.avx_ghz.to_le_bytes());
    w.extend_from_slice(&c.t_l1.to_le_bytes());
    w.extend_from_slice(&c.t_l2.to_le_bytes());
    w.extend_from_slice(&c.t_miss_path.to_le_bytes());
    w.extend_from_slice(&c.t_fill.to_le_bytes());
    w.extend_from_slice(&c.t_inject.to_le_bytes());
    w.extend_from_slice(&c.t_hop.to_le_bytes());
    w.extend_from_slice(&c.t_queue.to_le_bytes());
    w.extend_from_slice(&c.t_qpi.to_le_bytes());
    w.extend_from_slice(&c.t_l3_tag.to_le_bytes());
    w.extend_from_slice(&c.t_l3_array.to_le_bytes());
    w.extend_from_slice(&c.t_probe.to_le_bytes());
    w.extend_from_slice(&c.t_probe_l2_fwd.to_le_bytes());
    w.extend_from_slice(&c.t_probe_l1_fwd.to_le_bytes());
    w.extend_from_slice(&c.t_ha.to_le_bytes());
    w.extend_from_slice(&c.t_ca_fwd.to_le_bytes());
    w.extend_from_slice(&c.t_home_snoop_issue.to_le_bytes());
    w.extend_from_slice(&c.t_mem_ctl.to_le_bytes());
    w.extend_from_slice(&c.t_hitme.to_le_bytes());
    w.extend_from_slice(&c.lfb_per_core.to_le_bytes());
    w.extend_from_slice(&c.streamer_depth.to_le_bytes());
    w.extend_from_slice(&c.t_uncore_gap.to_le_bytes());
    w.extend_from_slice(&c.t_fwd_occ_miss.to_le_bytes());
    w.extend_from_slice(&c.t_fwd_occ_l2.to_le_bytes());
    w.extend_from_slice(&c.t_fwd_occ_l1.to_le_bytes());
    w.extend_from_slice(&c.qpi_gb_s.to_le_bytes());
    w.extend_from_slice(&c.l3_port_gb_s.to_le_bytes());
    w.extend_from_slice(&c.l2_port_avx_gb_s.to_le_bytes());
    w.extend_from_slice(&c.l2_port_sse_gb_s.to_le_bytes());
    w.extend_from_slice(&c.trackers_source_remote.to_le_bytes());
    w.extend_from_slice(&c.trackers_other.to_le_bytes());
    w.extend_from_slice(&c.trackers_cod_remote.to_le_bytes());
    w.extend_from_slice(&c.msg_data.to_le_bytes());
    w.extend_from_slice(&c.msg_ctl.to_le_bytes());
}

fn encode_config(w: &mut Vec<u8>, cfg: &SystemConfig) {
    w.push(cfg.sockets);
    w.push(die_tag(cfg.die));
    w.push(mode_tag(cfg.mode));
    for g in [cfg.l1, cfg.l2, cfg.l3_slice] {
        w.extend_from_slice(&g.size_bytes.to_le_bytes());
        w.extend_from_slice(&g.ways.to_le_bytes());
    }
    let d = &cfg.dram;
    w.extend_from_slice(&d.t_cas.to_le_bytes());
    w.extend_from_slice(&d.t_rcd.to_le_bytes());
    w.extend_from_slice(&d.t_rp.to_le_bytes());
    w.extend_from_slice(&d.t_burst.to_le_bytes());
    w.extend_from_slice(&d.t_wr.to_le_bytes());
    // DRAM refresh is not modelled. The two words its timings held (tREFI
    // 0 ns, i.e. off, and tRFC 350 ns) stay in the frame, so every config
    // digest and checkpoint key keeps its value.
    w.extend_from_slice(&0.0f64.to_le_bytes());
    w.extend_from_slice(&350.0f64.to_le_bytes());
    w.extend_from_slice(&d.banks.to_le_bytes());
    w.extend_from_slice(&d.row_bytes.to_le_bytes());
    w.extend_from_slice(&d.bus_gb_s.to_le_bytes());
    encode_calib(w, &cfg.calib);
    w.push(cfg.prefetch as u8);
    w.push(cfg.hitme_enabled as u8);
    w.extend_from_slice(&cfg.hitme_entries.to_le_bytes());
    w.push(repl_tag(cfg.l3_replacement));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_system_shape() {
        let cfg = SystemConfig::e5_2680_v3(CoherenceMode::SourceSnoop);
        assert_eq!(cfg.n_cores(), 24);
        assert_eq!(cfg.n_has(), 4);
        assert_eq!(cfg.channels_per_ha(), 2);
        assert_eq!(cfg.l3_slice.lines() * 12, 30 * 1024 * 1024 / 64);
    }

    #[test]
    fn modes_map_to_protocols() {
        assert!(!CoherenceMode::SourceSnoop.protocol().directory);
        assert!(!CoherenceMode::HomeSnoop.protocol().directory);
        let cod = CoherenceMode::ClusterOnDie.protocol();
        assert!(cod.directory && cod.hitme);
        assert!(CoherenceMode::ClusterOnDie.cod());
        assert!(!CoherenceMode::HomeSnoop.cod());
    }

    #[test]
    fn labels_are_distinct() {
        let labels: Vec<_> = CoherenceMode::all().iter().map(|m| m.label()).collect();
        assert_eq!(labels.len(), 3);
        assert_ne!(labels[0], labels[1]);
        assert_ne!(labels[1], labels[2]);
    }

    #[test]
    fn config_digest_is_field_sensitive() {
        let a = SystemConfig::e5_2680_v3(CoherenceMode::SourceSnoop);
        let mut b = a.clone();
        assert_eq!(a.digest(), b.digest());
        b.calib.t_qpi += 1e-12;
        assert_ne!(a.digest(), b.digest());
        let c = SystemConfig::e5_2680_v3(CoherenceMode::HomeSnoop);
        assert_ne!(a.digest(), c.digest());
    }

    /// Sweep checkpoint keys and `manifest.txt` carry these digests, so a
    /// change to the encoding would orphan every checkpoint and manifest.
    #[test]
    fn reference_config_digests_are_pinned() {
        use CoherenceMode::*;
        for (mode, e5_2680_v3, e5_8core) in [
            (SourceSnoop, 0xe33f_9c2a_21b2_bbb7, 0xabfc_fd7e_415c_a634),
            (HomeSnoop, 0x1e76_a1e7_ac13_6a9e, 0xd395_b266_bfac_cba3),
            (ClusterOnDie, 0x2199_61d7_b7d4_ed63, 0xeddf_e8e7_8c9f_c743),
        ] {
            assert_eq!(SystemConfig::e5_2680_v3(mode).digest(), e5_2680_v3, "{mode:?} e5_2680_v3");
            assert_eq!(SystemConfig::e5_8core(mode).digest(), e5_8core, "{mode:?} e5_8core");
        }
    }
}
