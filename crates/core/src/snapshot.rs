//! Deterministic full-system snapshot / restore.
//!
//! A snapshot is one self-describing binary frame (see
//! `hswx_engine::snapshot` for the magic / schema / digest framing) that
//! captures **every piece of mutable simulator state**: the embedded
//! [`SystemConfig`], all cache arrays (including LRU/PLRU metadata, tick
//! counters and the per-cache victim RNG stream), the in-memory
//! directories, HitME caches, DRAM controllers (open rows, bank timers,
//! bus reservations, counters), QPI / L3-port bandwidth reservations,
//! tracker and write-combining pools, snoop-responder timestamps, pending
//! injected faults, the monitor toggle, and all statistics.
//!
//! Restore is **bit-transparent**: a restored system reports the same
//! [`System::state_digest`], and any sequence of walks produces outcomes
//! (latencies, data sources, statistics) byte-identical to the original
//! continuing uninterrupted. Re-snapshotting a freshly restored system
//! reproduces the original frame byte for byte — unordered containers
//! (hash maps, timer heaps) are canonicalized by sorting at encode time.
//!
//! Transient per-walk scratch (trace buffers, cancellation token, metrics
//! registry handle) is deliberately *not* captured: snapshots are taken
//! between walks, where that state is empty, and the restored system
//! re-captures ambient handles from its own thread.

use crate::calib::Calib;
use crate::config::{CoherenceMode, SystemConfig};
use crate::monitor::MonitorConfig;
use crate::system::{Stats, System};
use hswx_coherence::{CoreState, DataSource, DirState, L3Meta, MesifState};
use hswx_engine::snapshot::{
    read_snapshot_file, write_snapshot_file, SnapReader, SnapWriter, SnapshotError,
};
use hswx_engine::{fnv1a64, SimTime, ThroughputResource, TimedPool};
use hswx_mem::{DdrTimings, LineAddr, NodeId, Replacement};
use hswx_topology::DieVariant;
use std::path::Path;

/// Schema version of the system snapshot payload. Bump on any layout
/// change; [`System::restore`] rejects frames with a different version
/// with a typed [`SnapshotError::UnsupportedSchema`].
///
/// v2 appended the optional telemetry-sampler section so a restored run
/// continues its simulated-time series without double-counted or missing
/// buckets.
///
/// v3 appended two sharded-runtime counters (shard restarts and shard
/// watchdog kills).
///
/// v4 dropped those two counters again, together with the sharded
/// runtime that produced them.
///
/// v5 dropped the six recovery fault fields (pending QPI CRC errors, link
/// retry bound, link-failure latch, directory and HitME glitches, poisoned
/// lines) and the six recovery counters, with the fault-recovery model.
pub const SYSTEM_SNAPSHOT_SCHEMA: u32 = 5;

fn corrupt(what: &'static str, detail: String) -> SnapshotError {
    SnapshotError::Corrupt { what, detail }
}

// ---------------------------------------------------------------------
// Enum tag codecs. Every decode is an explicit match so a corrupt tag is
// a typed error, never a transmute or a silent default.
// ---------------------------------------------------------------------

fn die_tag(d: DieVariant) -> u8 {
    match d {
        DieVariant::EightCore => 0,
        DieVariant::TwelveCore => 1,
        DieVariant::EighteenCore => 2,
    }
}

fn die_from(tag: u8) -> Result<DieVariant, SnapshotError> {
    match tag {
        0 => Ok(DieVariant::EightCore),
        1 => Ok(DieVariant::TwelveCore),
        2 => Ok(DieVariant::EighteenCore),
        t => Err(corrupt("die variant", format!("unknown tag {t}"))),
    }
}

fn mode_tag(m: CoherenceMode) -> u8 {
    match m {
        CoherenceMode::SourceSnoop => 0,
        CoherenceMode::HomeSnoop => 1,
        CoherenceMode::ClusterOnDie => 2,
    }
}

fn mode_from(tag: u8) -> Result<CoherenceMode, SnapshotError> {
    match tag {
        0 => Ok(CoherenceMode::SourceSnoop),
        1 => Ok(CoherenceMode::HomeSnoop),
        2 => Ok(CoherenceMode::ClusterOnDie),
        t => Err(corrupt("coherence mode", format!("unknown tag {t}"))),
    }
}

fn repl_tag(r: Replacement) -> u8 {
    match r {
        Replacement::Lru => 0,
        Replacement::TreePlru => 1,
        Replacement::Random => 2,
    }
}

fn repl_from(tag: u8) -> Result<Replacement, SnapshotError> {
    match tag {
        0 => Ok(Replacement::Lru),
        1 => Ok(Replacement::TreePlru),
        2 => Ok(Replacement::Random),
        t => Err(corrupt("replacement policy", format!("unknown tag {t}"))),
    }
}

fn core_state_from(word: u64) -> Option<CoreState> {
    match word {
        0 => Some(CoreState::Modified),
        1 => Some(CoreState::Exclusive),
        2 => Some(CoreState::Shared),
        3 => Some(CoreState::Invalid),
        _ => None,
    }
}

fn mesif_from(tag: u64) -> Option<MesifState> {
    match tag {
        0 => Some(MesifState::Modified),
        1 => Some(MesifState::Exclusive),
        2 => Some(MesifState::Shared),
        3 => Some(MesifState::Forward),
        4 => Some(MesifState::Invalid),
        _ => None,
    }
}

fn dir_state_from(tag: u64) -> Result<DirState, SnapshotError> {
    match tag {
        0 => Ok(DirState::RemoteInvalid),
        1 => Ok(DirState::SnoopAll),
        2 => Ok(DirState::Shared),
        t => Err(corrupt("directory state", format!("unknown tag {t}"))),
    }
}

/// Pack a [`DataSource`] into one word: variant tag in the low byte, node
/// id (where the variant carries one) in the next.
fn source_key(s: DataSource) -> u64 {
    match s {
        DataSource::SelfL1 => 0,
        DataSource::SelfL2 => 1,
        DataSource::LocalL3 => 2,
        DataSource::LocalCore => 3,
        DataSource::PeerL3(n) => 4 | ((n.0 as u64) << 8),
        DataSource::PeerCore(n) => 5 | ((n.0 as u64) << 8),
        DataSource::Memory(n) => 6 | ((n.0 as u64) << 8),
    }
}

fn source_from(key: u64) -> Result<DataSource, SnapshotError> {
    let node = NodeId((key >> 8) as u8);
    if key >> 16 != 0 {
        return Err(corrupt("data source", format!("unknown key {key:#x}")));
    }
    match key & 0xFF {
        0 => Ok(DataSource::SelfL1),
        1 => Ok(DataSource::SelfL2),
        2 => Ok(DataSource::LocalL3),
        3 => Ok(DataSource::LocalCore),
        4 => Ok(DataSource::PeerL3(node)),
        5 => Ok(DataSource::PeerCore(node)),
        6 => Ok(DataSource::Memory(node)),
        t => Err(corrupt("data source", format!("unknown tag {t}"))),
    }
}

// ---------------------------------------------------------------------
// Config codec. Field order in the decode struct literals matches the
// encode order exactly; constructing the structs literally means the
// compiler rejects the codec if a field is ever added without a schema
// bump.
// ---------------------------------------------------------------------

fn encode_calib(w: &mut SnapWriter, c: &Calib) {
    w.f64(c.core_ghz);
    w.f64(c.avx_ghz);
    w.f64(c.t_l1);
    w.f64(c.t_l2);
    w.f64(c.t_miss_path);
    w.f64(c.t_fill);
    w.f64(c.t_inject);
    w.f64(c.t_hop);
    w.f64(c.t_queue);
    w.f64(c.t_qpi);
    w.f64(c.t_l3_tag);
    w.f64(c.t_l3_array);
    w.f64(c.t_probe);
    w.f64(c.t_probe_l2_fwd);
    w.f64(c.t_probe_l1_fwd);
    w.f64(c.t_ha);
    w.f64(c.t_ca_fwd);
    w.f64(c.t_home_snoop_issue);
    w.f64(c.t_mem_ctl);
    w.f64(c.t_hitme);
    w.u32(c.lfb_per_core);
    w.u32(c.streamer_depth);
    w.f64(c.t_uncore_gap);
    w.f64(c.t_fwd_occ_miss);
    w.f64(c.t_fwd_occ_l2);
    w.f64(c.t_fwd_occ_l1);
    w.f64(c.qpi_gb_s);
    w.f64(c.l3_port_gb_s);
    w.f64(c.l2_port_avx_gb_s);
    w.f64(c.l2_port_sse_gb_s);
    w.u32(c.trackers_source_remote);
    w.u32(c.trackers_other);
    w.u32(c.trackers_cod_remote);
    w.u64(c.msg_data);
    w.u64(c.msg_ctl);
}

fn decode_calib(r: &mut SnapReader<'_>) -> Result<Calib, SnapshotError> {
    Ok(Calib {
        core_ghz: r.f64()?,
        avx_ghz: r.f64()?,
        t_l1: r.f64()?,
        t_l2: r.f64()?,
        t_miss_path: r.f64()?,
        t_fill: r.f64()?,
        t_inject: r.f64()?,
        t_hop: r.f64()?,
        t_queue: r.f64()?,
        t_qpi: r.f64()?,
        t_l3_tag: r.f64()?,
        t_l3_array: r.f64()?,
        t_probe: r.f64()?,
        t_probe_l2_fwd: r.f64()?,
        t_probe_l1_fwd: r.f64()?,
        t_ha: r.f64()?,
        t_ca_fwd: r.f64()?,
        t_home_snoop_issue: r.f64()?,
        t_mem_ctl: r.f64()?,
        t_hitme: r.f64()?,
        lfb_per_core: r.u32()?,
        streamer_depth: r.u32()?,
        t_uncore_gap: r.f64()?,
        t_fwd_occ_miss: r.f64()?,
        t_fwd_occ_l2: r.f64()?,
        t_fwd_occ_l1: r.f64()?,
        qpi_gb_s: r.f64()?,
        l3_port_gb_s: r.f64()?,
        l2_port_avx_gb_s: r.f64()?,
        l2_port_sse_gb_s: r.f64()?,
        trackers_source_remote: r.u32()?,
        trackers_other: r.u32()?,
        trackers_cod_remote: r.u32()?,
        msg_data: r.u64()?,
        msg_ctl: r.u64()?,
    })
}

pub(crate) fn encode_config(w: &mut SnapWriter, cfg: &SystemConfig) {
    w.u8(cfg.sockets);
    w.u8(die_tag(cfg.die));
    w.u8(mode_tag(cfg.mode));
    for g in [cfg.l1, cfg.l2, cfg.l3_slice] {
        w.u64(g.size_bytes);
        w.u32(g.ways);
    }
    let d = &cfg.dram;
    w.f64(d.t_cas);
    w.f64(d.t_rcd);
    w.f64(d.t_rp);
    w.f64(d.t_burst);
    w.f64(d.t_wr);
    w.f64(d.t_refi);
    w.f64(d.t_rfc);
    w.u32(d.banks);
    w.u64(d.row_bytes);
    w.f64(d.bus_gb_s);
    encode_calib(w, &cfg.calib);
    w.bool(cfg.prefetch);
    w.bool(cfg.hitme_enabled);
    w.u32(cfg.hitme_entries);
    w.u8(repl_tag(cfg.l3_replacement));
}

pub(crate) fn decode_config(r: &mut SnapReader<'_>) -> Result<SystemConfig, SnapshotError> {
    let sockets = r.u8()?;
    let die = die_from(r.u8()?)?;
    let mode = mode_from(r.u8()?)?;
    let mut geoms = [hswx_mem::CacheGeometry { size_bytes: 0, ways: 0 }; 3];
    for g in geoms.iter_mut() {
        g.size_bytes = r.u64()?;
        g.ways = r.u32()?;
    }
    let dram = DdrTimings {
        t_cas: r.f64()?,
        t_rcd: r.f64()?,
        t_rp: r.f64()?,
        t_burst: r.f64()?,
        t_wr: r.f64()?,
        t_refi: r.f64()?,
        t_rfc: r.f64()?,
        banks: r.u32()?,
        row_bytes: r.u64()?,
        bus_gb_s: r.f64()?,
    };
    let calib = decode_calib(r)?;
    Ok(SystemConfig {
        sockets,
        die,
        mode,
        l1: geoms[0],
        l2: geoms[1],
        l3_slice: geoms[2],
        dram,
        calib,
        prefetch: r.bool()?,
        hitme_enabled: r.bool()?,
        hitme_entries: r.u32()?,
        l3_replacement: repl_from(r.u8()?)?,
    })
}

impl SystemConfig {
    /// Stable FNV-1a digest of the canonical snapshot encoding of this
    /// config. Identical configs — however constructed — share a digest;
    /// any field change (including NaN-bit differences in calibration
    /// floats) changes it. Campaign manifests and snapshots use it to
    /// prove a resumed run is replaying the same machine.
    pub fn digest(&self) -> u64 {
        let mut w = SnapWriter::new(SYSTEM_SNAPSHOT_SCHEMA);
        encode_config(&mut w, self);
        fnv1a64(&w.finish())
    }
}

// ---------------------------------------------------------------------
// Shared-resource codecs.
// ---------------------------------------------------------------------

fn encode_resource(w: &mut SnapWriter, tr: &ThroughputResource) {
    let intervals: Vec<(u64, u64)> = tr.intervals().collect();
    w.seq(intervals.len());
    for (s, e) in intervals {
        w.u64(s);
        w.u64(e);
    }
    w.u64(tr.busy_ps());
    w.u64(tr.total_bytes());
}

fn decode_resource(
    r: &mut SnapReader<'_>,
    tr: &mut ThroughputResource,
    what: &'static str,
) -> Result<(), SnapshotError> {
    let n = r.seq(16, "bandwidth reservation intervals")?;
    let mut intervals = Vec::with_capacity(n);
    for _ in 0..n {
        let s = r.u64()?;
        let e = r.u64()?;
        intervals.push((s, e));
    }
    let busy = r.u64()?;
    let bytes = r.u64()?;
    tr.restore_state(intervals, busy, bytes)
        .map_err(|detail| corrupt(what, detail))
}

fn encode_pool(w: &mut SnapWriter, p: &TimedPool) {
    let busy = p.busy_sorted();
    w.seq(busy.len());
    for t in busy {
        w.u64(t);
    }
    w.u64(p.admissions);
    w.u64(p.waited);
}

fn decode_pool(
    r: &mut SnapReader<'_>,
    p: &mut TimedPool,
    what: &'static str,
) -> Result<(), SnapshotError> {
    let n = r.seq(8, "pool busy timers")?;
    let mut busy = Vec::with_capacity(n);
    for _ in 0..n {
        busy.push(r.u64()?);
    }
    p.restore_busy(busy).map_err(|detail| corrupt(what, detail))?;
    p.admissions = r.u64()?;
    p.waited = r.u64()?;
    Ok(())
}

fn check_count(got: usize, expected: usize, what: &'static str) -> Result<(), SnapshotError> {
    if got == expected {
        Ok(())
    } else {
        Err(corrupt(
            what,
            format!("frame holds {got} entries, config implies {expected}"),
        ))
    }
}

// ---------------------------------------------------------------------
// System snapshot / restore.
// ---------------------------------------------------------------------

impl System {
    /// Serialize the complete mutable state into one framed snapshot.
    ///
    /// The encoding is canonical: two systems with equal state produce
    /// byte-identical frames regardless of hash-map iteration order or
    /// timer-heap layout, and `System::restore(&sys.snapshot())?.snapshot()`
    /// reproduces the input byte for byte.
    pub fn snapshot(&self) -> Vec<u8> {
        let mut w = SnapWriter::new(SYSTEM_SNAPSHOT_SCHEMA);
        encode_config(&mut w, &self.cfg);
        w.u64(self.txn_count);

        w.seq(self.l1.len());
        for c in &self.l1 {
            c.encode_snapshot(&mut w, |s| *s as u64);
        }
        w.seq(self.l2.len());
        for c in &self.l2 {
            c.encode_snapshot(&mut w, |s| *s as u64);
        }
        w.seq(self.l3.len());
        for c in &self.l3 {
            c.encode_snapshot(&mut w, |m| ((m.state as u64) << 32) | m.cv as u64);
        }

        w.seq(self.dir.len());
        for d in &self.dir {
            let mut entries: Vec<(u64, u64)> = d.iter().map(|(l, s)| (l.0, s as u64)).collect();
            entries.sort_unstable();
            w.seq(entries.len());
            for (line, state) in entries {
                w.u64(line);
                w.u8(state as u8);
            }
            w.u64(d.reads);
            w.u64(d.writes);
        }

        w.seq(self.hitme.len());
        for h in &self.hitme {
            h.encode_snapshot(&mut w);
        }

        w.seq(self.mem.len());
        for m in &self.mem {
            m.encode_snapshot(&mut w);
        }

        for group in [&self.qpi, &self.l3_port] {
            w.seq(group.len());
            for tr in group {
                encode_resource(&mut w, tr);
            }
        }

        w.seq(self.trackers.len());
        for pair in &self.trackers {
            for p in pair {
                encode_pool(&mut w, p);
            }
        }
        w.seq(self.wc_buf.len());
        for p in &self.wc_buf {
            encode_pool(&mut w, p);
        }

        w.seq(self.fwd_busy.len());
        for t in &self.fwd_busy {
            w.u64(t.0);
        }

        let f = &self.faults;
        w.u32(f.drop_snoops);
        w.u32(f.delay_snoops);
        w.f64(f.delay_ns);

        match &self.monitor {
            Some(m) => {
                w.bool(true);
                w.u64(m.check_every);
                w.f64(m.max_walk_ns);
                w.u32(m.max_walk_steps);
            }
            None => w.bool(false),
        }

        let mut reads: Vec<(u64, u64)> = self
            .stats
            .reads_by_source
            .iter()
            .map(|(&s, &n)| (source_key(s), n))
            .collect();
        reads.sort_unstable();
        w.seq(reads.len());
        for (key, n) in reads {
            w.u64(key);
            w.u64(n);
        }
        w.u64(self.stats.rfos);
        w.u64(self.stats.snoops_sent);
        w.u64(self.stats.dir_broadcasts);
        w.u64(self.stats.remote_dram_fwd);
        w.u64(self.stats.remote_cache_fwd);
        w.u64(self.stats.dram_writebacks);

        // `walk_snoop_base` is deliberately absent: it is per-walk scratch
        // (every walk's prologue overwrites it) and snapshots are only
        // taken between walks — encoding it would make even a *refused*
        // (cancelled) walk perturb the frame bytes.
        for b in self.fanout_bins {
            w.u64(b);
        }

        // Telemetry sampler (when attached): the in-progress simulated-time
        // series rides along so a resumed run's buckets continue exactly
        // where the snapshot left them. The tracer, cancel token, and
        // metrics registry stay transient scratch as documented above —
        // the sampler is different because its *contents* are simulation
        // results, not handles.
        match &self.sampler {
            Some(s) => {
                w.bool(true);
                s.encode(&mut w);
            }
            None => w.bool(false),
        }

        w.finish()
    }

    /// Rebuild a system from a frame produced by [`System::snapshot`].
    ///
    /// Every byte is verified (magic, schema, whole-frame digest, per-field
    /// range checks, config validation) before any state is installed; a
    /// corrupt frame yields a typed [`SnapshotError`], never a panic or a
    /// partially-restored machine.
    pub fn restore(bytes: &[u8]) -> Result<System, SnapshotError> {
        let mut r = SnapReader::open_expecting(bytes, SYSTEM_SNAPSHOT_SCHEMA)?;
        let cfg = decode_config(&mut r)?;
        let mut sys = System::try_new(cfg)
            .map_err(|e| corrupt("embedded system config", e.to_string()))?;
        sys.txn_count = r.u64()?;

        check_count(r.seq(8, "l1 caches")?, sys.l1.len(), "l1 caches")?;
        for c in sys.l1.iter_mut() {
            c.decode_snapshot(&mut r, core_state_from)?;
        }
        check_count(r.seq(8, "l2 caches")?, sys.l2.len(), "l2 caches")?;
        for c in sys.l2.iter_mut() {
            c.decode_snapshot(&mut r, core_state_from)?;
        }
        check_count(r.seq(8, "l3 slices")?, sys.l3.len(), "l3 slices")?;
        for c in sys.l3.iter_mut() {
            c.decode_snapshot(&mut r, |word| {
                let state = mesif_from(word >> 32)?;
                Some(L3Meta { state, cv: word as u32 })
            })?;
        }

        check_count(r.seq(8, "directories")?, sys.dir.len(), "directories")?;
        for d in sys.dir.iter_mut() {
            let n = r.seq(9, "directory entries")?;
            let mut entries = Vec::with_capacity(n);
            for _ in 0..n {
                let line = LineAddr(r.u64()?);
                let state = dir_state_from(r.u8()? as u64)?;
                entries.push((line, state));
            }
            let reads = r.u64()?;
            let writes = r.u64()?;
            d.restore(entries, reads, writes);
        }

        check_count(r.seq(8, "hitme caches")?, sys.hitme.len(), "hitme caches")?;
        for h in sys.hitme.iter_mut() {
            h.decode_snapshot(&mut r)?;
        }

        check_count(r.seq(8, "memory controllers")?, sys.mem.len(), "memory controllers")?;
        for m in sys.mem.iter_mut() {
            m.decode_snapshot(&mut r)?;
        }

        check_count(r.seq(8, "qpi links")?, sys.qpi.len(), "qpi links")?;
        for tr in sys.qpi.iter_mut() {
            decode_resource(&mut r, tr, "qpi link")?;
        }
        check_count(r.seq(8, "l3 ports")?, sys.l3_port.len(), "l3 ports")?;
        for tr in sys.l3_port.iter_mut() {
            decode_resource(&mut r, tr, "l3 port")?;
        }

        check_count(r.seq(8, "tracker pools")?, sys.trackers.len(), "tracker pools")?;
        for pair in sys.trackers.iter_mut() {
            for p in pair {
                decode_pool(&mut r, p, "tracker pool")?;
            }
        }
        check_count(r.seq(8, "wc buffers")?, sys.wc_buf.len(), "wc buffers")?;
        for p in sys.wc_buf.iter_mut() {
            decode_pool(&mut r, p, "wc buffer")?;
        }

        check_count(r.seq(8, "fwd timestamps")?, sys.fwd_busy.len(), "fwd timestamps")?;
        for t in sys.fwd_busy.iter_mut() {
            *t = SimTime(r.u64()?);
        }

        sys.faults.drop_snoops = r.u32()?;
        sys.faults.delay_snoops = r.u32()?;
        sys.faults.delay_ns = r.f64()?;

        sys.monitor = if r.bool()? {
            Some(MonitorConfig {
                check_every: r.u64()?,
                max_walk_ns: r.f64()?,
                max_walk_steps: r.u32()?,
            })
        } else {
            None
        };

        let n = r.seq(16, "read counters")?;
        let mut stats = Stats::default();
        for _ in 0..n {
            let src = source_from(r.u64()?)?;
            let count = r.u64()?;
            if stats.reads_by_source.insert(src, count).is_some() {
                return Err(corrupt("read counters", format!("duplicate source {src:?}")));
            }
        }
        stats.rfos = r.u64()?;
        stats.snoops_sent = r.u64()?;
        stats.dir_broadcasts = r.u64()?;
        stats.remote_dram_fwd = r.u64()?;
        stats.remote_cache_fwd = r.u64()?;
        stats.dram_writebacks = r.u64()?;
        sys.stats = stats;

        for b in sys.fanout_bins.iter_mut() {
            *b = r.u64()?;
        }

        if r.bool()? {
            let sampler = hswx_engine::TelemetrySampler::decode(&mut r)?;
            sys.sampler = Some(Box::new(sampler));
        }
        r.expect_end()?;
        Ok(sys)
    }

    /// Write [`System::snapshot`] to `path` atomically (tmp + rename):
    /// readers — including a restore racing a kill — see the whole
    /// snapshot or the previous one, never a torn prefix.
    pub fn save_snapshot(&self, path: &Path, fsync: bool) -> Result<(), SnapshotError> {
        write_snapshot_file(path, &self.snapshot(), fsync)
    }

    /// Read and restore a snapshot written by [`System::save_snapshot`].
    pub fn load_snapshot(path: &Path) -> Result<System, SnapshotError> {
        System::restore(&read_snapshot_file(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::monitor::MonitorConfig;
    use hswx_mem::{CoreId, LineAddr};

    fn warmed(mode: CoherenceMode) -> (System, SimTime) {
        let mut sys = System::new(SystemConfig::e5_8core(mode));
        let mut t = SimTime::ZERO;
        let cores = sys.cfg.n_cores();
        for i in 0..400u64 {
            let core = CoreId((i * 7 % cores as u64) as u16);
            let line = LineAddr(i * 3 % 512);
            let out = if i % 5 == 0 {
                sys.write(core, line, t)
            } else {
                sys.read(core, line, t)
            };
            t = out.done;
        }
        (sys, t)
    }

    #[test]
    fn restore_is_bit_transparent_for_every_mode() {
        for mode in CoherenceMode::all() {
            let (mut sys, t0) = warmed(mode);
            let frame = sys.snapshot();
            let mut twin = System::restore(&frame).expect("restore");
            assert_eq!(twin.state_digest(), sys.state_digest(), "{mode:?}");
            assert_eq!(twin.snapshot(), frame, "{mode:?}: re-snapshot must be byte-identical");

            // Byte-identical continuation: same walks, same outcomes.
            let mut t_a = t0;
            let mut t_b = t0;
            for i in 0..300u64 {
                let core = CoreId((i * 5 % sys.cfg.n_cores() as u64) as u16);
                let line = LineAddr(i * 11 % 700);
                let a = if i % 4 == 0 {
                    sys.write(core, line, t_a)
                } else {
                    sys.read(core, line, t_a)
                };
                let b = if i % 4 == 0 {
                    twin.write(core, line, t_b)
                } else {
                    twin.read(core, line, t_b)
                };
                assert_eq!(a, b, "{mode:?}: walk {i} diverged");
                t_a = a.done;
                t_b = b.done;
            }
            assert_eq!(twin.state_digest(), sys.state_digest());
            assert_eq!(twin.snapshot(), sys.snapshot());
        }
    }

    #[test]
    fn faults_and_monitor_survive_round_trip() {
        let (mut sys, _) = warmed(CoherenceMode::ClusterOnDie);
        sys.enable_monitor(MonitorConfig::strict());
        sys.inject_snoop_drop(3);
        sys.inject_snoop_delay(250.0, 2);
        let frame = sys.snapshot();
        let twin = System::restore(&frame).expect("restore");
        assert_eq!(twin.faults.drop_snoops, 3);
        assert_eq!((twin.faults.delay_snoops, twin.faults.delay_ns), (2, 250.0));
        assert_eq!(twin.monitor, Some(MonitorConfig::strict()));
        assert_eq!(twin.snapshot(), frame);
    }

    #[test]
    fn stats_survive_round_trip() {
        let (sys, _) = warmed(CoherenceMode::SourceSnoop);
        let twin = System::restore(&sys.snapshot()).expect("restore");
        assert_eq!(twin.stats.reads_by_source, sys.stats.reads_by_source);
        assert_eq!(twin.stats.rfos, sys.stats.rfos);
        assert_eq!(twin.stats.snoops_sent, sys.stats.snoops_sent);
    }

    #[test]
    fn corrupt_frames_are_rejected_without_panicking() {
        let (sys, _) = warmed(CoherenceMode::HomeSnoop);
        let frame = sys.snapshot();
        // Flip one payload byte: the frame digest catches it.
        let mut bad = frame.clone();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x40;
        assert!(System::restore(&bad).is_err());
        // Truncations at every eighth length are typed errors.
        for cut in (0..frame.len()).step_by(8) {
            assert!(System::restore(&frame[..cut]).is_err());
        }
    }

    #[test]
    fn schema_4_frames_are_rejected_by_version() {
        // v4 frames carry recovery fault fields and counters this layout
        // no longer reads: restore must refuse them up front, not
        // misparse them.
        let mut w = SnapWriter::new(4);
        w.u64(0);
        let err = System::restore(&w.finish()).err();
        assert!(
            matches!(err, Some(SnapshotError::UnsupportedSchema { found: 4, expected: 5 })),
            "{err:?}"
        );
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

    #[test]
    fn snapshot_file_round_trip() {
        let dir = std::env::temp_dir().join("hswx-snap-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sys.snap");
        let (sys, _) = warmed(CoherenceMode::ClusterOnDie);
        sys.save_snapshot(&path, false).expect("save");
        let twin = System::load_snapshot(&path).expect("load");
        assert_eq!(twin.snapshot(), sys.snapshot());
        std::fs::remove_file(&path).ok();
    }
}
