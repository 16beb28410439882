//! Versioned, digest-framed binary frame codec.
//!
//! Two things are framed: the campaign's mid-job checkpoint files
//! (`CheckpointStore` in `hswx-bench`) and the canonical encoding that
//! `SystemConfig::digest` hashes. The vendored `serde` is an API stub, so
//! the codec is hand-rolled: a [`SnapWriter`] appends little-endian
//! primitives to a framed buffer and a [`SnapReader`] consumes them in the
//! same order. The frame is self-describing enough to be rejected loudly
//! rather than misread:
//!
//! ```text
//! +----------+-----------+----------+------------------+-------------+
//! | magic 8B | schema u32| len u64  | payload (len B)  | digest u64  |
//! +----------+-----------+----------+------------------+-------------+
//! ```
//!
//! * `magic` — `b"HSWXSNAP"`, so arbitrary files fail fast.
//! * `schema` — a caller-owned version; readers refuse schemas they do
//!   not understand instead of decoding garbage.
//! * `len` — payload byte count; catches truncation before the digest
//!   pass touches out-of-bounds memory.
//! * `digest` — [`fnv1a64`](crate::fsio::fnv1a64) over everything before
//!   it (magic, schema, len, payload), so a flipped bit anywhere in the
//!   frame is detected.
//!
//! Files are written through [`atomic_write`](crate::fsio::atomic_write)
//! (tmp + rename), so an on-disk frame is whole-or-absent even when the
//! writer is killed mid-write — a test below races reads against the
//! renames to prove exactly that.
//!
//! Determinism contract: encoders must serialize unordered containers
//! (hash maps) in a sorted order, the same discipline the protocol
//! `state_digest` uses, so identical states produce identical bytes.

use crate::fsio::fnv1a64;
use std::fmt;

/// Leading bytes of every frame.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"HSWXSNAP";

/// Bytes of framing overhead around the payload (magic + schema + len +
/// digest).
pub const FRAME_OVERHEAD: usize = 8 + 4 + 8 + 8;

/// Why a frame could not be decoded.
///
/// Every variant names what was being read and what was found, so a
/// caller (or a user at a terminal) sees a cause, not a panic.
#[derive(Debug)]
pub enum SnapshotError {
    /// The buffer does not start with [`SNAPSHOT_MAGIC`].
    BadMagic {
        /// The leading bytes actually found (up to 8).
        found: Vec<u8>,
    },
    /// The frame declares a schema this reader does not understand.
    UnsupportedSchema {
        /// Schema version in the frame.
        found: u32,
        /// Schema version the caller expected.
        expected: u32,
    },
    /// The buffer is shorter than its frame declares.
    Truncated {
        /// What was being decoded when the bytes ran out.
        what: &'static str,
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The trailing FNV digest does not match the frame contents.
    DigestMismatch {
        /// Digest stored in the frame.
        stored: u64,
        /// Digest recomputed over the frame.
        computed: u64,
    },
    /// The payload decoded to a structurally impossible value.
    Corrupt {
        /// What was being decoded.
        what: &'static str,
        /// Human-readable detail (offending value, expected range).
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic { found } => {
                write!(f, "not a snapshot: leading bytes {found:02x?} != {SNAPSHOT_MAGIC:02x?}")
            }
            SnapshotError::UnsupportedSchema { found, expected } => {
                write!(f, "snapshot schema v{found} not supported (this build reads v{expected})")
            }
            SnapshotError::Truncated { what, needed, available } => {
                write!(f, "snapshot truncated decoding {what}: need {needed} bytes, have {available}")
            }
            SnapshotError::DigestMismatch { stored, computed } => {
                write!(f, "snapshot digest mismatch: frame says {stored:016x}, contents hash to {computed:016x}")
            }
            SnapshotError::Corrupt { what, detail } => {
                write!(f, "snapshot corrupt decoding {what}: {detail}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Append-only encoder for one frame.
///
/// All integers are little-endian; floats are their IEEE-754 bit
/// patterns (so NaN payloads survive a round trip bit-exactly).
#[derive(Debug)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Start a frame for `schema`, writing the magic and version header.
    pub fn new(schema: u32) -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&schema.to_le_bytes());
        // Payload length back-patched by `finish`.
        buf.extend_from_slice(&0u64.to_le_bytes());
        SnapWriter { buf }
    }

    /// Append a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its raw bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    /// Append a sequence length marker (before encoding that many items).
    pub fn seq(&mut self, len: usize) {
        self.u64(len as u64);
    }

    /// Close the frame: back-patch the payload length and append the
    /// digest over everything before it.
    pub fn finish(mut self) -> Vec<u8> {
        let payload_len = (self.buf.len() - (8 + 4 + 8)) as u64;
        self.buf[12..20].copy_from_slice(&payload_len.to_le_bytes());
        let digest = fnv1a64(&self.buf);
        self.buf.extend_from_slice(&digest.to_le_bytes());
        self.buf
    }
}

/// Sequential decoder over one verified frame.
#[derive(Debug)]
pub struct SnapReader<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Verify `bytes` as a frame (magic, length, digest) and open a
    /// reader over its payload. Returns the frame's schema version; the
    /// caller decides whether it can decode that schema (use
    /// [`open_expecting`](Self::open_expecting) for the common case of a
    /// single supported version).
    pub fn open(bytes: &'a [u8]) -> Result<(u32, SnapReader<'a>), SnapshotError> {
        if bytes.len() < 8 || bytes[..8] != SNAPSHOT_MAGIC {
            return Err(SnapshotError::BadMagic {
                found: bytes[..bytes.len().min(8)].to_vec(),
            });
        }
        if bytes.len() < FRAME_OVERHEAD {
            return Err(SnapshotError::Truncated {
                what: "frame header",
                needed: FRAME_OVERHEAD,
                available: bytes.len(),
            });
        }
        let schema = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
        let framed = FRAME_OVERHEAD.checked_add(len).ok_or(SnapshotError::Truncated {
            what: "payload length",
            needed: usize::MAX,
            available: bytes.len(),
        })?;
        if bytes.len() != framed {
            return Err(SnapshotError::Truncated {
                what: "payload",
                needed: framed,
                available: bytes.len(),
            });
        }
        let body_end = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[body_end..].try_into().expect("8 bytes"));
        let computed = fnv1a64(&bytes[..body_end]);
        if stored != computed {
            return Err(SnapshotError::DigestMismatch { stored, computed });
        }
        Ok((schema, SnapReader { payload: &bytes[20..body_end], pos: 0 }))
    }

    /// [`open`](Self::open), then require the schema to equal `expected`.
    pub fn open_expecting(
        bytes: &'a [u8],
        expected: u32,
    ) -> Result<SnapReader<'a>, SnapshotError> {
        let (schema, r) = Self::open(bytes)?;
        if schema != expected {
            return Err(SnapshotError::UnsupportedSchema { found: schema, expected });
        }
        Ok(r)
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], SnapshotError> {
        let available = self.payload.len() - self.pos;
        if n > available {
            return Err(SnapshotError::Truncated { what, needed: n, available });
        }
        let s = &self.payload[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().expect("8 bytes")))
    }

    /// Read a sequence length marker, bounds-checked against the bytes
    /// actually remaining (`min_item_bytes` per item) so a corrupt length
    /// cannot provoke a huge allocation.
    pub fn seq(&mut self, min_item_bytes: usize, what: &'static str) -> Result<usize, SnapshotError> {
        let len = self.u64()? as usize;
        let available = self.payload.len() - self.pos;
        let needed = len.checked_mul(min_item_bytes.max(1));
        match needed {
            Some(n) if n <= available => Ok(len),
            _ => Err(SnapshotError::Truncated { what, needed: needed.unwrap_or(usize::MAX), available }),
        }
    }

    /// Require the whole payload to have been consumed — catches
    /// encoder/decoder drift where the two sides disagree on a field.
    pub fn expect_end(&self) -> Result<(), SnapshotError> {
        if self.pos == self.payload.len() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt {
                what: "frame end",
                detail: format!(
                    "{} trailing payload bytes left undecoded",
                    self.payload.len() - self.pos
                ),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Scalars in the layout the writer must produce: little-endian
    /// integers, a bool as one byte, an `f64` as its raw bit pattern.
    fn scalar_bytes() -> Vec<u8> {
        let mut b = vec![0xAB, 1];
        b.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        b.extend_from_slice(&0x0123_4567_89AB_CDEFu64.to_le_bytes());
        b.extend_from_slice(&(-0.0f64).to_bits().to_le_bytes());
        b.extend_from_slice(&f64::NAN.to_bits().to_le_bytes());
        b
    }

    fn sample_frame() -> Vec<u8> {
        let mut w = SnapWriter::new(7);
        w.u8(0xAB);
        w.bool(true);
        w.u32(0xDEAD_BEEF);
        w.u64(0x0123_4567_89AB_CDEF);
        w.f64(-0.0);
        w.f64(f64::NAN);
        w.seq(3);
        for i in 0..3u64 {
            w.u64(i);
        }
        w.finish()
    }

    #[test]
    fn round_trip_all_primitives() {
        let frame = sample_frame();
        let (schema, mut r) = SnapReader::open(&frame).expect("open");
        assert_eq!(schema, 7);
        let scalars = scalar_bytes();
        assert_eq!(r.take(scalars.len(), "scalars").unwrap(), &scalars[..]);
        let n = r.seq(8, "items").unwrap();
        assert_eq!(n, 3);
        for i in 0..3u64 {
            assert_eq!(r.u64().unwrap(), i);
        }
        r.expect_end().unwrap();
    }

    #[test]
    fn bad_magic_rejected() {
        let err = SnapReader::open(b"NOTASNAP....").unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic { .. }), "{err}");
        let err = SnapReader::open(b"HS").unwrap_err();
        assert!(matches!(err, SnapshotError::BadMagic { .. }), "{err}");
    }

    #[test]
    fn truncation_rejected_at_every_length() {
        let frame = sample_frame();
        for cut in 0..frame.len() {
            let err = SnapReader::open(&frame[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    SnapshotError::BadMagic { .. } | SnapshotError::Truncated { .. }
                ),
                "cut at {cut}: unexpected {err}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_detected() {
        let frame = sample_frame();
        // Flip one bit at a time across the whole frame; open() must
        // refuse every mutant (magic, schema, length, payload, digest).
        for byte in 0..frame.len() {
            let mut bad = frame.clone();
            bad[byte] ^= 0x10;
            assert!(
                SnapReader::open(&bad).is_err(),
                "bit flip at byte {byte} went undetected"
            );
        }
    }

    #[test]
    fn schema_mismatch_is_typed() {
        let frame = SnapWriter::new(3).finish();
        let err = SnapReader::open_expecting(&frame, 4).unwrap_err();
        match err {
            SnapshotError::UnsupportedSchema { found, expected } => {
                assert_eq!((found, expected), (3, 4));
            }
            other => panic!("unexpected {other}"),
        }
    }

    #[test]
    fn hostile_seq_length_cannot_allocate() {
        let mut w = SnapWriter::new(1);
        w.u64(u64::MAX); // claims 2^64-1 upcoming items
        let frame = w.finish();
        let (_, mut r) = SnapReader::open(&frame).expect("frame itself is valid");
        let err = r.seq(8, "hostile").unwrap_err();
        assert!(matches!(err, SnapshotError::Truncated { .. }), "{err}");
    }

    #[test]
    fn trailing_bytes_flagged() {
        let mut w = SnapWriter::new(1);
        w.u64(42);
        let frame = w.finish();
        let (_, mut r) = SnapReader::open(&frame).unwrap();
        assert!(r.expect_end().is_err());
        r.u64().unwrap();
        assert!(r.expect_end().is_ok());
    }

    /// A reader racing `atomic_write`'s renames sees one whole frame or
    /// the other, never a torn or half-replaced file.
    #[test]
    fn reads_racing_atomic_writes_see_whole_frames() {
        use crate::fsio::atomic_write;
        use std::sync::atomic::{AtomicBool, Ordering};

        let dir = std::env::temp_dir().join(format!("hswx-snap-race-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("frame");
        let frames: Vec<Vec<u8>> = (0..2u64)
            .map(|k| {
                let mut w = SnapWriter::new(1);
                w.seq(64 << k);
                for i in 0..64u64 << k {
                    w.u64(i ^ k);
                }
                w.finish()
            })
            .collect();
        let first_write_done = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let writer = scope.spawn(|| {
                for i in 0..50 {
                    atomic_write(&path, &frames[i % 2], false).expect("atomic write");
                    first_write_done.store(true, Ordering::Release);
                }
            });
            while !first_write_done.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            for _ in 0..25 {
                let bytes = std::fs::read(&path).expect("the file exists after the first write");
                SnapReader::open(&bytes).expect("no torn reads through rename");
                assert!(frames.contains(&bytes), "read a frame nobody wrote");
            }
            writer.join().expect("writer thread");
        });
        std::fs::remove_dir_all(&dir).ok();
    }
}
