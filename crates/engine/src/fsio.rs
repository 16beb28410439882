//! Crash-consistent file output and stable content digests.
//!
//! Every result artifact the workspace persists (figure/table CSVs, the
//! campaign journal and manifest, the metrics, telemetry and trace
//! exports) goes through [`atomic_write`]: the bytes land in a
//! same-directory temporary file which is then `rename`d over the
//! destination, so a reader — or a resumed campaign — can never observe a
//! truncated file, only the old contents or the new.
//!
//! [`fnv1a64`] is the workspace's stable content digest (FNV-1a, 64-bit):
//! deterministic across runs, platforms, and processes, unlike the seeded
//! `FxHash` used for in-memory maps. Campaign journals store these digests
//! to decide whether a completed job's outputs can be trusted on resume,
//! and a mid-job checkpoint file ends in the digest of its cell lines.

use std::io::{self, Write as _};
use std::path::Path;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Stable 64-bit FNV-1a digest of `bytes`.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV_OFFSET, bytes)
}

/// Fold more bytes into an existing FNV-1a digest (for multi-part
/// digests: seed with [`fnv1a64`] of the first part, extend with the
/// rest).
pub fn fnv1a64_extend(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Write `contents` to `path` atomically: create the parent directory,
/// write a same-directory `.tmp` sibling, optionally fsync it, then
/// `rename` it over `path`. On any error the destination is untouched.
///
/// `fsync` additionally flushes the file (and, on Unix, its directory)
/// to stable storage before the rename — the durability knob campaign
/// journal commits expose.
pub fn atomic_write(path: impl AsRef<Path>, contents: &[u8], fsync: bool) -> io::Result<()> {
    let path = path.as_ref();
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        std::fs::create_dir_all(dir)?;
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "atomic_write: no file name"))?;
    let mut tmp = path.to_path_buf();
    tmp.set_file_name(format!(
        ".{}.tmp.{}",
        file_name.to_string_lossy(),
        std::process::id()
    ));

    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(contents)?;
        if fsync {
            f.sync_all()?;
        }
        drop(f);
        std::fs::rename(&tmp, path)?;
        if fsync {
            // Persist the rename itself: fsync the containing directory.
            #[cfg(unix)]
            if let Some(dir) = dir {
                std::fs::File::open(dir)?.sync_all()?;
            }
        }
        Ok(())
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_order_sensitive() {
        // Reference vectors for FNV-1a 64.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv1a64(b"ab"), fnv1a64(b"ba"));
        let two_part = fnv1a64_extend(fnv1a64(b"ab"), b"cd");
        assert_eq!(two_part, fnv1a64(b"abcd"));
    }

    #[test]
    fn atomic_write_creates_and_replaces() {
        let dir = std::env::temp_dir().join(format!("hswx_fsio_{}", std::process::id()));
        let path = dir.join("nested").join("out.csv");
        atomic_write(&path, b"first", false).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second", true).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // No stray temporaries survive.
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_rejects_bare_root() {
        assert!(atomic_write("/", b"x", false).is_err());
    }

    /// A reader racing `atomic_write`'s renames sees one whole file or
    /// the other, never a torn or half-replaced one.
    #[test]
    fn reads_racing_atomic_writes_see_whole_files() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let dir = std::env::temp_dir().join(format!("hswx-fsio-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("file");
        let files: Vec<Vec<u8>> =
            (0..2u8).map(|k| (0..512usize << k).map(|i| i as u8 ^ k).collect()).collect();
        let first_write_done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for i in 0..50 {
                    atomic_write(&path, &files[i % 2], false).expect("atomic write");
                    first_write_done.store(true, Ordering::Release);
                }
            });
            while !first_write_done.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            for _ in 0..25 {
                let bytes = std::fs::read(&path).expect("the file exists after the first write");
                assert!(files.contains(&bytes), "read {} bytes nobody wrote", bytes.len());
            }
            writer.join().expect("writer thread");
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}
