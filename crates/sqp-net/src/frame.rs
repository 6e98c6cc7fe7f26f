//! Frame transport: `u32` little-endian length prefix + body, over any
//! `Read`/`Write` pair.
//!
//! The read path distinguishes the three ways a stream can stop making
//! sense — a clean EOF **between** frames (normal disconnect), an EOF
//! **inside** a frame (torn write / dropped peer), and a length prefix the
//! receiver refuses (zero or over-limit) — because a server reacts
//! differently to each: close silently, close silently, or send a typed
//! `R_ERROR` and then close.
//!
//! [`FrameReader`] owns one buffer per connection and fills it with one
//! `read` per call, so a request/response exchange costs a single `read`
//! on each side and a pipelined burst arrives in as few reads as the
//! kernel allows. Frame bodies are handed out as borrows of that buffer,
//! which only grows to fit a frame larger than it (never past the prefix
//! plus the body limit), so steady-state reads allocate nothing.

use crate::wire::{WireError, LEN_PREFIX};
use std::io::{self, Read, Write};
use std::ops::Range;

/// Buffer a fresh [`FrameReader`] starts with: room for hundreds of small
/// request frames per `read`; only a larger frame grows it.
const INITIAL_BUFFER: usize = 16 * 1024;

/// Outcome of one [`FrameReader::read_frame`] call.
#[derive(Debug)]
pub enum FrameRead<'a> {
    /// A complete frame body, borrowed from the reader's buffer.
    Frame(&'a [u8]),
    /// The peer closed the stream cleanly at a frame boundary.
    CleanEof,
    /// The length prefix was unacceptable; the stream is desynchronized
    /// and must be closed (after optionally sending the typed error).
    Reject(WireError),
}

/// A buffered frame reader for one stream.
///
/// Bytes `buf[start..end]` have been read but not yet handed out; they
/// are the complete frames a pipelining peer sent ahead, then at most one
/// partial frame.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max_body: usize,
}

impl FrameReader {
    /// A reader accepting frame bodies up to `max_body` bytes.
    pub fn new(max_body: usize) -> Self {
        FrameReader {
            buf: vec![0; INITIAL_BUFFER.min(max_body.saturating_add(LEN_PREFIX))],
            start: 0,
            end: 0,
            max_body,
        }
    }

    /// Read one frame, calling `read` on `r` only when the buffer holds
    /// no complete frame.
    ///
    /// Returns [`FrameRead::CleanEof`] only when the stream ends exactly at
    /// a frame boundary; an EOF mid-prefix or mid-body surfaces as an
    /// [`io::ErrorKind::UnexpectedEof`] error.
    pub fn read_frame(&mut self, r: &mut impl Read) -> io::Result<FrameRead<'_>> {
        loop {
            match self.parse() {
                Some(Ok(body)) => return Ok(FrameRead::Frame(&self.buf[body])),
                Some(Err(err)) => return Ok(FrameRead::Reject(err)),
                None => {}
            }
            if self.fill(r)? == 0 {
                if self.start == self.end {
                    return Ok(FrameRead::CleanEof);
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside a frame",
                ));
            }
        }
    }

    /// The next frame already in the buffer, without any I/O: a body, a
    /// rejected length prefix, or `None` when the buffered bytes hold no
    /// complete frame.
    pub fn next_buffered(&mut self) -> Option<Result<&[u8], WireError>> {
        self.parse()
            .map(|parsed| parsed.map(|body| &self.buf[body]))
    }

    /// One `read` into the buffer's free space, for when
    /// [`next_buffered`](Self::next_buffered) returned `None`. Returns the
    /// bytes read; `0` is end of stream.
    pub fn fill(&mut self, r: &mut impl Read) -> io::Result<usize> {
        // Only a partial frame is left: move it to the front.
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
        if self.end == self.buf.len() {
            // The partial frame fills the buffer, so its prefix is here and
            // already checked against `max_body` by `parse`.
            let len = prefix_len(&self.buf);
            debug_assert!(
                LEN_PREFIX + len > self.end,
                "fill with a whole frame buffered"
            );
            self.buf.resize(LEN_PREFIX + len, 0);
        }
        loop {
            match r.read(&mut self.buf[self.end..]) {
                Ok(n) => {
                    self.end += n;
                    return Ok(n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Consume the next buffered frame: its body's range, a rejected
    /// prefix (only the prefix is consumed), or `None` if incomplete.
    fn parse(&mut self) -> Option<Result<Range<usize>, WireError>> {
        let buffered = &self.buf[self.start..self.end];
        if buffered.len() < LEN_PREFIX {
            return None;
        }
        let len = prefix_len(buffered);
        if len == 0 || len > self.max_body {
            self.start += LEN_PREFIX;
            return Some(Err(if len == 0 {
                WireError::EmptyFrame
            } else {
                WireError::FrameTooLarge {
                    len: len as u64,
                    max: self.max_body as u64,
                }
            }));
        }
        if buffered.len() < LEN_PREFIX + len {
            return None;
        }
        let body = self.start + LEN_PREFIX..self.start + LEN_PREFIX + len;
        self.start = body.end;
        Some(Ok(body))
    }
}

fn prefix_len(bytes: &[u8]) -> usize {
    let mut prefix = [0u8; LEN_PREFIX];
    prefix.copy_from_slice(&bytes[..LEN_PREFIX]);
    u32::from_le_bytes(prefix) as usize
}

/// Write one frame (`prefix + body`) and flush.
///
/// The body must already be a complete wire message; its length is
/// checked against `max_body` so a server never emits a frame its own
/// reader would refuse.
pub fn write_frame(w: &mut impl Write, body: &[u8], max_body: usize) -> io::Result<()> {
    debug_assert!(!body.is_empty(), "a frame body always carries an opcode");
    if body.len() > max_body {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            WireError::FrameTooLarge {
                len: body.len() as u64,
                max: max_body as u64,
            },
        ));
    }
    let prefix = (body.len() as u32).to_le_bytes();
    // One vectored write puts prefix+body into the kernel buffer in a
    // single syscall — under TCP_NODELAY that is also a single segment on
    // the wire, so a reader never observes a torn prefix from a flushed
    // writer. Partial writes (rare on blocking sockets) finish plainly.
    let slices = [io::IoSlice::new(&prefix), io::IoSlice::new(body)];
    let total = LEN_PREFIX + body.len();
    let mut written = w.write_vectored(&slices)?;
    while written < total {
        let n = if written < LEN_PREFIX {
            w.write(&prefix[written..])?
        } else {
            w.write(&body[written - LEN_PREFIX..])?
        };
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::WriteZero,
                "stream refused frame bytes",
            ));
        }
        written += n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    /// Hands out at most `step` bytes per `read`, like a slow socket.
    struct Trickle<'a> {
        bytes: &'a [u8],
        step: usize,
    }

    impl Read for Trickle<'_> {
        fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
            let n = self.step.min(out.len()).min(self.bytes.len());
            out[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    fn expect_frame(reader: &mut FrameReader, r: &mut impl Read) -> Vec<u8> {
        match reader.read_frame(r).unwrap() {
            FrameRead::Frame(body) => body.to_vec(),
            other => panic!("expected a frame, got {other:?}"),
        }
    }

    #[test]
    fn frame_roundtrip_and_boundary_eof() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"\x05hello", 64).unwrap();
        write_frame(&mut stream, b"\x06", 64).unwrap();

        let mut r = Cursor::new(stream);
        let mut reader = FrameReader::new(64);
        assert_eq!(expect_frame(&mut reader, &mut r), b"\x05hello");
        assert_eq!(expect_frame(&mut reader, &mut r), b"\x06");
        assert!(matches!(
            reader.read_frame(&mut r).unwrap(),
            FrameRead::CleanEof
        ));
    }

    #[test]
    fn one_read_brings_a_pipelined_burst() {
        let mut stream = Vec::new();
        for i in 0..10u8 {
            write_frame(&mut stream, &[i; 3], 64).unwrap();
        }
        let mut r = Cursor::new(stream);
        let mut reader = FrameReader::new(1024);
        assert!(reader.next_buffered().is_none());
        assert_eq!(reader.fill(&mut r).unwrap(), 70);
        for i in 0..10u8 {
            assert_eq!(reader.next_buffered().unwrap().unwrap(), &[i; 3]);
        }
        assert!(reader.next_buffered().is_none());
        assert_eq!(reader.start, reader.end, "every byte handed out");
    }

    #[test]
    fn frames_split_across_reads_reassemble_and_grow_only_to_the_frame() {
        let big = vec![7u8; 40_000];
        let mut stream = Vec::new();
        write_frame(&mut stream, b"\x01ab", 64 * 1024).unwrap();
        write_frame(&mut stream, &big, 64 * 1024).unwrap();
        write_frame(&mut stream, b"\x02", 64 * 1024).unwrap();

        for step in [1, 3, 4096, usize::MAX] {
            let mut r = Trickle {
                bytes: &stream,
                step,
            };
            let mut reader = FrameReader::new(64 * 1024);
            assert_eq!(expect_frame(&mut reader, &mut r), b"\x01ab");
            assert_eq!(expect_frame(&mut reader, &mut r), big);
            assert_eq!(reader.buf.len(), LEN_PREFIX + big.len(), "step {step}");
            assert_eq!(expect_frame(&mut reader, &mut r), b"\x02");
            assert!(matches!(
                reader.read_frame(&mut r).unwrap(),
                FrameRead::CleanEof
            ));
        }
    }

    #[test]
    fn an_unbounded_body_limit_still_reads_frames() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"\x06", usize::MAX).unwrap();
        let mut reader = FrameReader::new(usize::MAX);
        assert_eq!(expect_frame(&mut reader, &mut Cursor::new(stream)), b"\x06");
    }

    #[test]
    fn torn_frames_are_unexpected_eof() {
        let mut stream = Vec::new();
        write_frame(&mut stream, b"\x05hello", 64).unwrap();
        // Every strict prefix that is not a frame boundary must error.
        for cut in 1..stream.len() {
            let mut r = Cursor::new(&stream[..cut]);
            let err = FrameReader::new(64).read_frame(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut at {cut}");
        }
    }

    #[test]
    fn zero_and_oversized_prefixes_are_rejected_without_growing() {
        let mut r = Cursor::new(0u32.to_le_bytes().to_vec());
        assert!(matches!(
            FrameReader::new(64).read_frame(&mut r).unwrap(),
            FrameRead::Reject(WireError::EmptyFrame)
        ));

        let mut huge = (1_000_000u32).to_le_bytes().to_vec();
        huge.extend_from_slice(&[0u8; 8]);
        let mut r = Cursor::new(huge);
        let mut reader = FrameReader::new(64);
        assert!(matches!(
            reader.read_frame(&mut r).unwrap(),
            FrameRead::Reject(WireError::FrameTooLarge {
                len: 1_000_000,
                max: 64
            })
        ));
        // The buffer never exceeds the prefix plus the body limit.
        assert_eq!(reader.buf.len(), LEN_PREFIX + 64);

        // And the writer refuses to emit what a reader would refuse.
        let mut sink = Vec::new();
        assert!(write_frame(&mut sink, &[0u8; 65], 64).is_err());
    }
}
