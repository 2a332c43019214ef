//! Schema-versioned binary snapshots of protocol state (DESIGN.md §14).
//!
//! The memory plane persists engine state in two forms: a **snapshot** (a
//! full serialization of a `TopicEngine`, written atomically) and a
//! **journal** (an append-only log of deliveries since the last snapshot,
//! kept by `urb-runtime`). Both use the primitives here: a length-checked
//! little-endian writer/reader pair and a framed envelope carrying a magic,
//! a schema version and an FNV-1a checksum, so a torn, truncated or
//! bit-flipped file is rejected with a typed [`SnapshotError`] instead of
//! being deserialized into garbage state.
//!
//! The encoding is hand-rolled for the same reason the wire codec is
//! (`wire` module docs): byte-determinism. Two engines with equal state
//! serialize to identical bytes on every platform, which is what lets the
//! round-trip tests assert `fingerprint()` equality after
//! serialize → truncate → restore.

use std::fmt;

/// Magic prefix of every snapshot envelope (`b"URBS"`).
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"URBS";

/// Current snapshot schema version. Bump on any layout change; readers
/// reject other versions rather than guessing. Version 3 writes protocol
/// state as one record per tag and ends the engine body with the retired
/// tombstones (DESIGN.md §14); version 2 (which also carried a
/// subscription set) and version 1 (five parallel per-tag maps) are
/// refused, not migrated.
pub const SNAPSHOT_VERSION: u32 = 3;

/// Why a snapshot (or journal record) could not be decoded.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`SNAPSHOT_MAGIC`] — not a snapshot.
    BadMagic,
    /// The schema version is not [`SNAPSHOT_VERSION`].
    UnsupportedVersion {
        /// Version found in the envelope.
        found: u32,
    },
    /// The input ended before the declared content did.
    Truncated {
        /// Byte offset at which the reader ran out of input.
        offset: usize,
    },
    /// The FNV-1a checksum over the body does not match the trailer.
    Checksum {
        /// Checksum recorded in the envelope trailer.
        expected: u64,
        /// Checksum recomputed over the body actually read.
        found: u64,
    },
    /// The body decoded, but its contents are inconsistent (wrong
    /// algorithm, wrong topic count, an impossible length, …).
    Malformed(String),
    /// Bytes remained after the declared content — the file was appended
    /// to or spliced, neither of which a snapshot permits.
    TrailingBytes {
        /// Number of unconsumed trailing bytes.
        extra: usize,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "snapshot schema: bad magic (not a snapshot)"),
            SnapshotError::UnsupportedVersion { found } => write!(
                f,
                "snapshot schema: unsupported version {found} (expected {SNAPSHOT_VERSION})"
            ),
            SnapshotError::Truncated { offset } => {
                write!(f, "snapshot truncated at byte {offset}")
            }
            SnapshotError::Checksum { expected, found } => write!(
                f,
                "snapshot checksum mismatch (expected {expected:#018x}, found {found:#018x})"
            ),
            SnapshotError::Malformed(why) => write!(f, "snapshot malformed: {why}"),
            SnapshotError::TrailingBytes { extra } => {
                write!(
                    f,
                    "snapshot has {extra} trailing bytes after declared content"
                )
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a over a byte slice — the same fold the engine fingerprint uses,
/// cheap and endianness-free.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_continue(FNV1A_OFFSET, bytes)
}

/// The FNV-1a state before any byte.
pub const FNV1A_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Folds `bytes` into the FNV-1a state `h`: `fnv1a(a ++ b)` is
/// `fnv1a_continue(fnv1a(a), b)`, so a value can be hashed piece by piece
/// without being encoded into a buffer first.
pub fn fnv1a_continue(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01B3);
    }
    h
}

/// Little-endian append-only writer for snapshot bodies.
#[derive(Debug, Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        SnapshotWriter::default()
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u128`.
    pub fn put_u128(&mut self, v: u128) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed (`u64`) byte string.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// The body written so far.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }

    /// Consumes the writer, returning the raw body (no envelope).
    pub fn into_body(self) -> Vec<u8> {
        self.buf
    }

    /// Consumes the writer and wraps the body in the snapshot envelope:
    /// magic, version, body length, body, FNV-1a trailer.
    pub fn into_envelope(self) -> Vec<u8> {
        seal(&self.buf)
    }
}

/// Wraps a body in the snapshot envelope (see [`SnapshotWriter::into_envelope`]).
pub fn seal(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(body.len() + 24);
    out.extend_from_slice(&SNAPSHOT_MAGIC);
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(body);
    out.extend_from_slice(&fnv1a(body).to_le_bytes());
    out
}

/// Validates a snapshot envelope and returns the checked body.
pub fn unseal(bytes: &[u8]) -> Result<&[u8], SnapshotError> {
    if bytes.len() < 4 || bytes[..4] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    if bytes.len() < 16 {
        return Err(SnapshotError::Truncated {
            offset: bytes.len(),
        });
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion { found: version });
    }
    let len = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes")) as usize;
    let body_end = 16usize.checked_add(len).ok_or(SnapshotError::Malformed(
        "declared body length overflows".to_string(),
    ))?;
    let total = body_end.checked_add(8).ok_or(SnapshotError::Malformed(
        "declared body length overflows".to_string(),
    ))?;
    if bytes.len() < total {
        return Err(SnapshotError::Truncated {
            offset: bytes.len(),
        });
    }
    if bytes.len() > total {
        return Err(SnapshotError::TrailingBytes {
            extra: bytes.len() - total,
        });
    }
    let body = &bytes[16..body_end];
    let expected = u64::from_le_bytes(bytes[body_end..total].try_into().expect("8 bytes"));
    let found = fnv1a(body);
    if expected != found {
        return Err(SnapshotError::Checksum { expected, found });
    }
    Ok(body)
}

/// Little-endian reader over a snapshot body, tracking its offset so
/// truncation errors name where the input ran out.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    body: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// A reader over a raw body (already unsealed).
    pub fn new(body: &'a [u8]) -> Self {
        SnapshotReader { body, pos: 0 }
    }

    /// Current byte offset into the body.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// True when every body byte has been consumed.
    pub fn is_exhausted(&self) -> bool {
        self.pos == self.body.len()
    }

    /// Errors unless the body has been fully consumed.
    pub fn finish(self) -> Result<(), SnapshotError> {
        if self.is_exhausted() {
            Ok(())
        } else {
            Err(SnapshotError::TrailingBytes {
                extra: self.body.len() - self.pos,
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(SnapshotError::Truncated { offset: self.pos })?;
        if end > self.body.len() {
            return Err(SnapshotError::Truncated {
                offset: self.body.len(),
            });
        }
        let out = &self.body[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads `count` little-endian `u64`s at once, failing before it reads
    /// any when the body is too short to hold them all. The iterator knows
    /// its length, so collecting it allocates once, at the right size.
    pub fn get_u64s(
        &mut self,
        count: u64,
    ) -> Result<impl ExactSizeIterator<Item = u64> + Clone + 'a, SnapshotError> {
        let len = usize::try_from(count)
            .ok()
            .and_then(|count| count.checked_mul(8))
            .ok_or(SnapshotError::Truncated {
                offset: self.body.len(),
            })?;
        Ok(self
            .take(len)?
            .chunks_exact(8)
            .map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes"))))
    }

    /// Reads a little-endian `u128`.
    pub fn get_u128(&mut self) -> Result<u128, SnapshotError> {
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("16 bytes"),
        ))
    }

    /// Reads a length-prefixed byte string.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.get_u64()? as usize;
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, SnapshotError> {
        let raw = self.get_bytes()?;
        std::str::from_utf8(raw)
            .map_err(|_| SnapshotError::Malformed("string field is not UTF-8".to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_body() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_u8(7);
        w.put_u32(0xDEAD_BEEF);
        w.put_u64(u64::MAX - 1);
        w.put_u128(0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF);
        w.put_str("alg2-quiescent");
        w.put_bytes(&[1, 2, 3]);
        w.into_body()
    }

    #[test]
    fn writer_reader_round_trip() {
        let body = sample_body();
        let mut r = SnapshotReader::new(&body);
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(
            r.get_u128().unwrap(),
            0x0123_4567_89AB_CDEF_0123_4567_89AB_CDEF
        );
        assert_eq!(r.get_str().unwrap(), "alg2-quiescent");
        assert_eq!(r.get_bytes().unwrap(), &[1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn envelope_round_trip_and_determinism() {
        let sealed_a = seal(&sample_body());
        let sealed_b = seal(&sample_body());
        assert_eq!(sealed_a, sealed_b, "byte-deterministic envelope");
        assert_eq!(unseal(&sealed_a).unwrap(), sample_body().as_slice());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut sealed = seal(&sample_body());
        sealed[0] = b'X';
        assert_eq!(unseal(&sealed), Err(SnapshotError::BadMagic));
        assert_eq!(unseal(b"UR"), Err(SnapshotError::BadMagic));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut sealed = seal(&sample_body());
        // A newer writer's file, and the retired version 1 and 2 layouts.
        for found in [99, 1, 2] {
            sealed[4] = found as u8;
            assert_eq!(
                unseal(&sealed),
                Err(SnapshotError::UnsupportedVersion { found })
            );
        }
    }

    #[test]
    fn truncation_rejected_at_every_cut() {
        let sealed = seal(&sample_body());
        for cut in 4..sealed.len() {
            let err = unseal(&sealed[..cut]).unwrap_err();
            assert!(
                matches!(err, SnapshotError::Truncated { .. }),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn bit_flip_in_body_rejected_by_checksum() {
        let mut sealed = seal(&sample_body());
        let mid = 16 + sample_body().len() / 2;
        sealed[mid] ^= 0x40;
        assert!(matches!(
            unseal(&sealed).unwrap_err(),
            SnapshotError::Checksum { .. }
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut sealed = seal(&sample_body());
        sealed.push(0);
        assert_eq!(
            unseal(&sealed),
            Err(SnapshotError::TrailingBytes { extra: 1 })
        );
    }

    #[test]
    fn reader_truncation_reports_offset() {
        let body = sample_body();
        let mut r = SnapshotReader::new(&body[..2]);
        r.get_u8().unwrap();
        let err = r.get_u32().unwrap_err();
        assert_eq!(err, SnapshotError::Truncated { offset: 2 });
    }

    /// A run of `u64`s reads like one `get_u64` per value, and a count
    /// the body cannot hold — however large — fails without reading.
    #[test]
    fn reader_reads_a_run_of_u64s_or_nothing() {
        let mut w = SnapshotWriter::new();
        for v in [3u64, u64::MAX, 0, 1 << 40] {
            w.put_u64(v);
        }
        let body = w.into_body();
        let mut r = SnapshotReader::new(&body);
        r.get_u64().unwrap();
        for count in [4, 1 << 61, u64::MAX] {
            let err = r.get_u64s(count).err();
            assert_eq!(err, Some(SnapshotError::Truncated { offset: 32 }));
        }
        assert_eq!(r.offset(), 8, "a failed read consumes nothing");
        let run = r.get_u64s(3).unwrap();
        assert_eq!(run.len(), 3);
        assert_eq!(run.collect::<Vec<_>>(), [u64::MAX, 0, 1 << 40]);
        r.finish().unwrap();
    }

    #[test]
    fn reader_rejects_leftover_bytes() {
        let body = sample_body();
        let mut r = SnapshotReader::new(&body);
        r.get_u8().unwrap();
        assert!(matches!(
            r.finish().unwrap_err(),
            SnapshotError::TrailingBytes { .. }
        ));
    }
}
