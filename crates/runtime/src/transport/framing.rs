//! Stream framing for the TCP transport: length-prefixed frames and
//! read-side reassembly across arbitrary byte boundaries.
//!
//! The in-process wire plane moves encoded [`urb_types::MuxBatch`] frames
//! as discrete channel messages; a TCP stream has no message boundaries,
//! so every frame crosses the socket as a 4-byte big-endian length prefix
//! followed by the frame's own bytes (whose *internal* layout is exactly
//! the codec of DESIGN.md §10/§12 — the transport never re-encodes).
//!
//! [`FrameReassembler`] is the read side: feed it whatever chunk sizes
//! `read(2)` happens to return — including chunks that end mid-prefix or
//! mid-frame — and it yields the exact frame sequence the peer wrote.
//! Corrupt prefixes (zero length, or a length above the configured cap)
//! surface as a typed [`FrameStreamError`]; the connection owner drops
//! the stream rather than guessing at resynchronization.

use bytes::Bytes;
use std::fmt;
use std::io::{self, ErrorKind, IoSlice, Write};

/// Hard ceiling on a single frame's length, bytes (16 MiB). A prefix
/// above this is treated as stream corruption, not as a giant frame: no
/// healthy step emits frames anywhere near it, and accepting one would
/// let a corrupt or malicious prefix pin a connection's memory.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Typed errors of the stream framing layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameStreamError {
    /// A length prefix announced zero bytes. Every valid frame carries at
    /// least its codec tag byte, so a zero length is corruption.
    EmptyFrame,
    /// A length prefix exceeded the reassembler's cap.
    FrameTooLarge {
        /// The announced length.
        len: usize,
        /// The configured ceiling.
        max: usize,
    },
}

impl fmt::Display for FrameStreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameStreamError::EmptyFrame => write!(f, "zero-length frame prefix"),
            FrameStreamError::FrameTooLarge { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
        }
    }
}

impl std::error::Error for FrameStreamError {}

/// Writes `frame` to `out` in stream framing (length prefix + bytes) —
/// the write side, shared by the writer threads, `send_control` and the
/// tests. The prefix and the frame go out together as one vectored write,
/// repeated until `out` has taken both, so the frame is never copied to
/// put the prefix in front of it. A writer that takes nothing is a
/// [`ErrorKind::WriteZero`] error.
pub fn write_stream_frame(frame: &[u8], mut out: impl Write) -> io::Result<()> {
    let prefix = (frame.len() as u32).to_be_bytes();
    let mut both = [IoSlice::new(&prefix), IoSlice::new(frame)];
    let mut left = &mut both[..];
    while !left.is_empty() {
        match out.write_vectored(left) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(taken) => IoSlice::advance_slices(&mut left, taken),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Incremental frame reassembly over a byte stream.
///
/// Bytes go in via [`push`](FrameReassembler::push) in whatever chunks
/// the socket produced; complete frames come out of
/// [`next_frame`](FrameReassembler::next_frame). Consumed bytes are
/// compacted away lazily, so steady-state reassembly reuses one buffer.
#[derive(Debug)]
pub struct FrameReassembler {
    buf: Vec<u8>,
    /// Bytes of `buf` already consumed by yielded frames.
    pos: usize,
    max_frame: usize,
}

impl Default for FrameReassembler {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameReassembler {
    /// A reassembler with the default [`MAX_FRAME_LEN`] cap.
    pub fn new() -> Self {
        Self::with_max_frame(MAX_FRAME_LEN)
    }

    /// A reassembler with an explicit frame-length cap (tests use small
    /// caps to exercise the corruption path cheaply).
    pub fn with_max_frame(max_frame: usize) -> Self {
        FrameReassembler {
            buf: Vec::new(),
            pos: 0,
            max_frame,
        }
    }

    /// Feeds one received chunk. Chunk boundaries are arbitrary: a chunk
    /// may end mid-length-prefix, mid-frame, or span several frames.
    pub fn push(&mut self, chunk: &[u8]) {
        // Compact before growing: everything before `pos` is dead.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > 4096) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Yields the next complete frame, `Ok(None)` when more bytes are
    /// needed, or a typed error on a corrupt prefix (after which the
    /// stream is unusable — there is no resynchronization).
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, FrameStreamError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&avail[..4]);
        let len = u32::from_be_bytes(raw) as usize;
        if len == 0 {
            return Err(FrameStreamError::EmptyFrame);
        }
        if len > self.max_frame {
            return Err(FrameStreamError::FrameTooLarge {
                len,
                max: self.max_frame,
            });
        }
        if avail.len() < 4 + len {
            return Ok(None);
        }
        let frame = Bytes::copy_from_slice(&avail[4..4 + len]);
        self.pos += 4 + len;
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frames_of(reasm: &mut FrameReassembler) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(f) = reasm.next_frame().expect("clean stream") {
            out.push(f.to_vec());
        }
        out
    }

    /// Takes at most three bytes per call, across the slices of a
    /// vectored write.
    struct Trickle(Vec<u8>);

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            let mut taken = 0;
            for buf in bufs {
                let take = buf.len().min(3 - taken);
                self.0.extend_from_slice(&buf[..take]);
                taken += take;
            }
            Ok(taken)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_writer_taking_three_bytes_a_call_receives_prefix_and_frame() {
        for len in [1usize, 5, 70_000] {
            let frame: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let mut out = Trickle(Vec::new());
            write_stream_frame(&frame, &mut out).unwrap();
            let mut want = (len as u32).to_be_bytes().to_vec();
            want.extend_from_slice(&frame);
            assert!(out.0 == want, "{len}-byte frame");
        }
    }

    #[test]
    fn a_writer_that_takes_nothing_is_an_error() {
        struct Full;
        impl Write for Full {
            fn write(&mut self, _: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let err = write_stream_frame(b"abc", Full).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::WriteZero);
    }

    #[test]
    fn whole_stream_in_one_chunk() {
        let mut stream = Vec::new();
        write_stream_frame(b"abc", &mut stream).unwrap();
        write_stream_frame(b"defgh", &mut stream).unwrap();
        let mut r = FrameReassembler::new();
        r.push(&stream);
        assert_eq!(frames_of(&mut r), vec![b"abc".to_vec(), b"defgh".to_vec()]);
        assert_eq!(r.buf.len(), r.pos, "no stray bytes left");
    }

    #[test]
    fn byte_at_a_time_reassembles_exactly() {
        let mut stream = Vec::new();
        write_stream_frame(b"x", &mut stream).unwrap();
        write_stream_frame(&[0xAB; 300], &mut stream).unwrap();
        let mut r = FrameReassembler::new();
        let mut got = Vec::new();
        for &b in &stream {
            r.push(&[b]);
            got.extend(frames_of(&mut r));
        }
        assert_eq!(got, vec![b"x".to_vec(), vec![0xAB; 300]]);
    }

    #[test]
    fn zero_length_prefix_is_typed_corruption() {
        let mut r = FrameReassembler::new();
        r.push(&[0, 0, 0, 0]);
        assert_eq!(r.next_frame(), Err(FrameStreamError::EmptyFrame));
    }

    #[test]
    fn oversized_prefix_is_typed_corruption() {
        let mut r = FrameReassembler::with_max_frame(8);
        r.push(&9u32.to_be_bytes());
        assert_eq!(
            r.next_frame(),
            Err(FrameStreamError::FrameTooLarge { len: 9, max: 8 })
        );
    }

    #[test]
    fn incomplete_prefix_and_body_wait_for_more() {
        let mut r = FrameReassembler::new();
        r.push(&[0, 0]);
        assert_eq!(r.next_frame(), Ok(None), "mid-prefix");
        r.push(&[0, 3, b'a']);
        assert_eq!(r.next_frame(), Ok(None), "mid-body");
        r.push(b"bc");
        assert_eq!(r.next_frame().unwrap().unwrap().to_vec(), b"abc".to_vec());
    }
}
