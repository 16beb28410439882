//! Mid-job checkpoint store: crash-safe memoization of measured cells.
//!
//! The supervisor's journal is whole-job; a [`CheckpointStore`] lets a
//! killed job resume mid-job. The cell runner ([`crate::jobs::JobSpec::run`])
//! records each cell as soon as it is measured, keyed by (artifact, row,
//! column, reference config digest); the store persists the full map as
//! one `hswx-engine` frame (`SnapWriter`) via `atomic_write`, so a kill -9
//! at any instant leaves either the previous checkpoint or the new one —
//! never a torn file. Checkpoints hold results, never simulator state: a
//! resumed job rebuilds its systems.
//!
//! Checkpointed values are **bit-exact** (`f64` payloads travel as raw
//! bits), so a resumed job emits artifacts byte-identical to an
//! uninterrupted run — the supervisor's artifact digests then verify as if
//! nothing had happened. A corrupt or truncated checkpoint file fails
//! closed: it is ignored and the job simply recomputes.

use hswx_engine::snapshot::{SnapReader, SnapWriter, SnapshotError};
use hswx_engine::{atomic_write, fnv1a64, fnv1a64_extend, FxHashMap};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Frame schema for checkpoint files (distinct from the config digest's
/// schema word so the two frames can never be confused for one another).
/// Version 2: each key is a cell id plus the reference config digest.
pub const CHECKPOINT_SCHEMA: u32 = 0x6350_0002;

/// Crash-safe `key -> f64` memo backed by one framed file.
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
    fsync: bool,
    entries: Mutex<FxHashMap<u64, u64>>,
}

impl CheckpointStore {
    /// Open (or create) the store at `path`. An unreadable, corrupt, or
    /// wrong-schema file is treated as empty — resuming then recomputes
    /// instead of failing.
    pub fn open(path: PathBuf, fsync: bool) -> Self {
        let entries = std::fs::read(&path)
            .ok()
            .and_then(|bytes| Self::decode(&bytes).ok())
            .unwrap_or_default();
        CheckpointStore { path, fsync, entries: Mutex::new(entries) }
    }

    /// Derive a checkpoint key from identity `parts` (artifact, row,
    /// column, config digest, ...). Parts are length-delimited, so
    /// `["ab","c"]` and `["a","bc"]` never collide.
    pub fn key(parts: &[&[u8]]) -> u64 {
        let mut h = fnv1a64(b"hswx-checkpoint-key-v1");
        for p in parts {
            h = fnv1a64_extend(h, &(p.len() as u64).to_le_bytes());
            h = fnv1a64_extend(h, p);
        }
        h
    }

    /// Previously recorded value for `key`, bit-exact.
    pub fn lookup(&self, key: u64) -> Option<f64> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.get(&key).map(|&bits| f64::from_bits(bits))
    }

    /// Record `value` under `key` and persist the whole store atomically.
    /// The write happens under the lock: `atomic_write`'s temp name is per
    /// process, so two unlocked writers could rename an older frame over a
    /// newer one. Persistence failures are swallowed: a checkpoint is an
    /// optimization, never worth failing the job over.
    pub fn record(&self, key: u64, value: f64) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.insert(key, value.to_bits());
        let _ = atomic_write(&self.path, &Self::encode(&entries), self.fsync);
    }

    /// Number of recorded cells.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Path this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Delete the backing file — called after the job's artifacts commit,
    /// when the journal takes over as the durable record.
    pub fn discard(&self) {
        let _ = std::fs::remove_file(&self.path);
    }

    fn encode(entries: &FxHashMap<u64, u64>) -> Vec<u8> {
        let mut sorted: Vec<(u64, u64)> = entries.iter().map(|(&k, &v)| (k, v)).collect();
        sorted.sort_unstable();
        let mut w = SnapWriter::new(CHECKPOINT_SCHEMA);
        w.seq(sorted.len());
        for (k, v) in sorted {
            w.u64(k);
            w.u64(v);
        }
        w.finish()
    }

    fn decode(bytes: &[u8]) -> Result<FxHashMap<u64, u64>, SnapshotError> {
        let mut r = SnapReader::open_expecting(bytes, CHECKPOINT_SCHEMA)?;
        let n = r.seq(16, "checkpoint entries")?;
        let mut entries = FxHashMap::default();
        for _ in 0..n {
            let k = r.u64()?;
            let v = r.u64()?;
            entries.insert(k, v);
        }
        r.expect_end()?;
        Ok(entries)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    fn tmp(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("hswx-ckpt-{tag}-{}", std::process::id()))
    }

    #[test]
    fn round_trips_bit_exact_values() {
        let path = tmp("roundtrip");
        let store = CheckpointStore::open(path.clone(), false);
        let k1 = CheckpointStore::key(&[b"series a", &64u64.to_le_bytes()]);
        let k2 = CheckpointStore::key(&[b"series b", &64u64.to_le_bytes()]);
        assert_ne!(k1, k2);
        store.record(k1, 21.200000000000003);
        store.record(k2, -0.0);
        drop(store);

        let reopened = CheckpointStore::open(path.clone(), false);
        assert_eq!(reopened.len(), 2);
        assert_eq!(
            reopened.lookup(k1).map(f64::to_bits),
            Some(21.200000000000003f64.to_bits())
        );
        assert_eq!(reopened.lookup(k2).map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(reopened.lookup(CheckpointStore::key(&[b"other"])), None);
        reopened.discard();
        assert!(!path.exists());
    }

    #[test]
    fn key_parts_are_length_delimited() {
        assert_ne!(
            CheckpointStore::key(&[b"ab", b"c"]),
            CheckpointStore::key(&[b"a", b"bc"])
        );
    }

    #[test]
    fn corrupt_files_fail_closed_to_empty() {
        let path = tmp("corrupt");
        std::fs::write(&path, b"not a checkpoint frame").unwrap();
        let store = CheckpointStore::open(path.clone(), false);
        assert!(store.is_empty());
        // Truncated valid frame: also empty.
        let good = CheckpointStore::open(tmp("donor"), false);
        good.record(1, 2.0);
        let bytes = std::fs::read(good.path()).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(CheckpointStore::open(path.clone(), false).is_empty());
        good.discard();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_records_all_survive_a_reopen() {
        let path = tmp("concurrent");
        for round in 0..100 {
            let (store, barrier) = (CheckpointStore::open(path.clone(), false), Barrier::new(2));
            std::thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| store.record(barrier.wait().is_leader() as u64, 1.0));
                }
            });
            assert_eq!(CheckpointStore::open(path.clone(), false).len(), 2, "round {round}");
            store.discard();
        }
    }

    #[test]
    fn persisted_bytes_are_canonical() {
        // Same entries recorded in different orders → identical files.
        let (pa, pb) = (tmp("canon-a"), tmp("canon-b"));
        let a = CheckpointStore::open(pa.clone(), false);
        let b = CheckpointStore::open(pb.clone(), false);
        a.record(1, 1.5);
        a.record(2, 2.5);
        b.record(2, 2.5);
        b.record(1, 1.5);
        assert_eq!(std::fs::read(&pa).unwrap(), std::fs::read(&pb).unwrap());
        a.discard();
        b.discard();
    }
}
