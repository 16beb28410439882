//! Mid-job checkpoint store: crash-safe memoization of measured cells.
//!
//! The supervisor's journal is whole-job; a [`CheckpointStore`] lets a
//! killed job resume mid-job. The cell runner ([`crate::jobs::JobSpec::run`])
//! records each cell as soon as it is measured, keyed by (artifact, row,
//! column, reference config digest); the store persists the full map as
//! one text file via `atomic_write`, so a kill -9 at any instant leaves
//! either the previous checkpoint or the new one — never a torn file.
//! Checkpoints hold results, never simulator state: a resumed job rebuilds
//! its systems.
//!
//! The file is written in the journal's style: a header line, one
//! `<key> <f64 bits>` line per cell sorted by key (each field exactly 16
//! lowercase hex digits), and a last line holding the [`fnv1a64`] of every
//! byte before it:
//!
//! ```text
//! hswx-checkpoint v3
//! 0d2b980fe49875dc 4056a9131851f3d7
//! 329b5f37ce6f5572 403184e4f5c290b7
//! digest 65ba1a5feceb648e
//! ```
//!
//! Checkpointed values are **bit-exact** (`f64` payloads travel as raw
//! bits), so a resumed job emits artifacts byte-identical to an
//! uninterrupted run — the supervisor's artifact digests then verify as if
//! nothing had happened. A file that is not exactly what [`CheckpointStore`]
//! would write (another header, such as an older binary checkpoint, a
//! malformed field, a wrong digest, bytes after the digest line) fails
//! closed: it is ignored and the job simply recomputes.

use hswx_engine::{atomic_write, fnv1a64, fnv1a64_extend, FxHashMap};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// First line of a checkpoint file, naming the format's version; a file
/// with any other first line is ignored.
const HEADER: &str = "hswx-checkpoint v3";

/// Crash-safe `key -> f64` memo backed by one text file.
#[derive(Debug)]
pub struct CheckpointStore {
    path: PathBuf,
    fsync: bool,
    entries: Mutex<FxHashMap<u64, u64>>,
}

impl CheckpointStore {
    /// Open (or create) the store at `path`. An unreadable, corrupt, or
    /// other-version file is treated as empty — resuming then recomputes
    /// instead of failing.
    pub fn open(path: PathBuf, fsync: bool) -> Self {
        let entries =
            std::fs::read(&path).ok().and_then(|bytes| Self::decode(&bytes)).unwrap_or_default();
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
    /// process, so two unlocked writers could rename an older file over a
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
        let mut text = format!("{HEADER}\n");
        for (k, v) in sorted {
            text.push_str(&format!("{k:016x} {v:016x}\n"));
        }
        text.push_str(&format!("digest {:016x}\n", fnv1a64(text.as_bytes())));
        text.into_bytes()
    }

    /// The entries of a file [`encode`](Self::encode) wrote, or `None`.
    /// Parsing is lenient; re-encoding the entries and requiring the very
    /// same bytes is what rejects a wrong header, a field that is not 16
    /// lowercase hex digits, unsorted or repeated keys, a wrong digest and
    /// anything after the digest line.
    fn decode(bytes: &[u8]) -> Option<FxHashMap<u64, u64>> {
        let text = std::str::from_utf8(bytes).ok()?;
        let mut entries = FxHashMap::default();
        for line in text.lines().skip(1).take_while(|l| !l.starts_with("digest ")) {
            let (k, v) = line.split_once(' ')?;
            entries.insert(u64::from_str_radix(k, 16).ok()?, u64::from_str_radix(v, 16).ok()?);
        }
        (Self::encode(&entries) == bytes).then_some(entries)
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
        let opens_empty = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            CheckpointStore::open(path.clone(), false).is_empty()
        };
        assert!(opens_empty(b"not a checkpoint file"));
        let cells = [(1u64, 2.0f64), (0x0d2b_980f_e498_75dc, -0.0), (u64::MAX, 17.6)];
        let good = CheckpointStore::open(tmp("donor"), false);
        for (k, v) in cells {
            good.record(k, v);
        }
        let bytes = std::fs::read(good.path()).unwrap();
        assert!(!opens_empty(&bytes));
        for cut in 0..bytes.len() {
            assert!(opens_empty(&bytes[..cut]), "truncated to {cut} bytes");
        }
        for bit in 0..bytes.len() * 8 {
            let mut bad = bytes.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(opens_empty(&bad), "bit {bit} flipped");
        }
        for tail in [&b"x"[..], b"\n", b"0000000000000002 4000000000000000\n"] {
            assert!(opens_empty(&[&bytes[..], tail].concat()), "trailing {tail:?}");
        }
        // The same cells in the previous, binary format: `"HSWXSNAP"`, u32
        // schema 0x6350_0002, u64 payload length, the payload (a u64 cell
        // count, then key and f64 bits per cell), u64 FNV-1a of all before.
        let mut frame = b"HSWXSNAP".to_vec();
        frame.extend_from_slice(&0x6350_0002u32.to_le_bytes());
        frame.extend_from_slice(&(8 + 16 * cells.len() as u64).to_le_bytes());
        frame.extend_from_slice(&(cells.len() as u64).to_le_bytes());
        for (k, v) in cells {
            frame.extend_from_slice(&k.to_le_bytes());
            frame.extend_from_slice(&v.to_le_bytes());
        }
        frame.extend_from_slice(&fnv1a64(&frame).to_le_bytes());
        assert!(opens_empty(&frame));
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
