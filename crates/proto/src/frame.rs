//! Length-prefixed binary framing with CRC-32 integrity.
//!
//! Layout on the wire (all integers big-endian):
//!
//! ```text
//! +--------+--------+----------------+=============+----------+
//! | magic  |  type  | payload length |   payload   |  CRC-32  |
//! | u16    |  u8    | u32            |   bytes     |  u32     |
//! +--------+--------+----------------+=============+----------+
//! ```
//!
//! The CRC covers `type || length || payload`.
//!
//! A frame is **written once and read in place**. [`begin_frame`] appends
//! a header to a caller's buffer, the caller appends the payload,
//! [`finish_frame`] patches the length and appends the CRC. [`parse_frame`]
//! is the crate's one frame parser: it checks magic, the
//! [`MAX_FRAME_PAYLOAD`] bound and the CRC on a byte slice and returns a
//! [`FrameRef`] borrowing the payload from it. [`FrameCodec`] is that
//! parser behind a receive buffer, for transports that hand over
//! arbitrary chunks: [`FrameCodec::feed_frames`] lends every complete
//! frame to a handler and keeps only an unfinished tail,
//! [`FrameCodec::next_frame`] copies one out as an owned [`Frame`].
//! Writers draw their buffers from a `FramePool`, which keeps at most
//! [`POOLED_FRAMES`] spent ones.

use crate::crc::crc32;

/// Frame magic: "NX" (Nexit).
pub const MAGIC: u16 = 0x4E58;

/// Upper bound on payload size. Preference lists for the largest
/// experiment pairs are well under this; anything bigger is corruption.
pub const MAX_FRAME_PAYLOAD: usize = 4 * 1024 * 1024;

/// Bytes before the payload: magic, type, payload length.
const HEADER: usize = 2 + 1 + 4;
/// Bytes after the payload: the CRC.
const TRAILER: usize = 4;
/// Bytes a frame adds around its payload.
pub const FRAME_OVERHEAD: usize = HEADER + TRAILER;

/// Framing-layer failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Stream did not start with the frame magic — desynchronized or
    /// corrupted transport.
    BadMagic { found: u16 },
    /// Declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    TooLarge { declared: usize },
    /// CRC mismatch: the frame was corrupted in flight.
    BadCrc { expected: u32, found: u32 },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { found } => write!(f, "bad frame magic 0x{found:04X}"),
            FrameError::TooLarge { declared } => {
                write!(f, "declared payload length {declared} exceeds maximum")
            }
            FrameError::BadCrc { expected, found } => {
                write!(
                    f,
                    "CRC mismatch: expected 0x{expected:08X}, found 0x{found:08X}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// A decoded frame: message type byte plus payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Message type discriminant (interpreted by [`crate::messages`]).
    pub msg_type: u8,
    /// Raw payload bytes.
    pub payload: Vec<u8>,
}

/// A frame read in place: the payload borrows the bytes it was parsed
/// from ([`parse_frame`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameRef<'a> {
    /// Message type discriminant (interpreted by [`crate::messages`]).
    pub msg_type: u8,
    /// Raw payload bytes.
    pub payload: &'a [u8],
}

impl FrameRef<'_> {
    /// Bytes the whole frame occupies on the wire.
    pub fn wire_len(&self) -> usize {
        HEADER + self.payload.len() + TRAILER
    }
}

/// Start a frame of type `msg_type` at the end of `out`. Append the
/// payload to `out`, then call [`finish_frame`] with the returned start
/// offset.
pub fn begin_frame(out: &mut Vec<u8>, msg_type: u8) -> usize {
    let start = out.len();
    out.extend_from_slice(&MAGIC.to_be_bytes());
    out.push(msg_type);
    out.extend_from_slice(&0u32.to_be_bytes()); // payload length, patched by `finish_frame`
    start
}

/// Finish the frame begun at `start`: everything appended since is its
/// payload. Patches the length field and appends the CRC.
pub fn finish_frame(out: &mut Vec<u8>, start: usize) {
    let len = out.len() - start - HEADER;
    assert!(len <= MAX_FRAME_PAYLOAD, "payload too large");
    out[start + 3..start + HEADER].copy_from_slice(&(len as u32).to_be_bytes());
    // CRC over type || length || payload (everything after the magic).
    let crc = crc32(&out[start + 2..]);
    out.extend_from_slice(&crc.to_be_bytes());
}

/// Encode one frame to wire bytes.
pub fn encode_frame(msg_type: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER + payload.len() + TRAILER);
    let start = begin_frame(&mut out, msg_type);
    out.extend_from_slice(payload);
    finish_frame(&mut out, start);
    out
}

/// Parse the frame at the front of `data` in place. `Ok(None)` means
/// `data` ends before the frame does; magic and the payload bound are
/// checked as soon as the header is there, so a caller never buffers
/// towards a frame it would have to refuse. The CRC is verified before a
/// frame is handed out. The next frame starts [`FrameRef::wire_len`]
/// bytes further on.
pub fn parse_frame(data: &[u8]) -> Result<Option<FrameRef<'_>>, FrameError> {
    let Some(header) = data.first_chunk::<HEADER>() else {
        return Ok(None);
    };
    let magic = u16::from_be_bytes([header[0], header[1]]);
    if magic != MAGIC {
        return Err(FrameError::BadMagic { found: magic });
    }
    let len = u32::from_be_bytes([header[3], header[4], header[5], header[6]]) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(FrameError::TooLarge { declared: len });
    }
    let end = HEADER + len;
    let Some(trailer) = data.get(end..end + TRAILER) else {
        return Ok(None);
    };
    let expected = crc32(&data[2..end]);
    let found = u32::from_be_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    if expected != found {
        return Err(FrameError::BadCrc { expected, found });
    }
    Ok(Some(FrameRef {
        msg_type: header[2],
        payload: &data[HEADER..end],
    }))
}

/// Spent frame buffers a `FramePool` keeps; one handed in beyond this
/// is dropped.
pub const POOLED_FRAMES: usize = 4;

/// Capacity of a buffer the pool has to allocate: room for every frame
/// of fixed size and a short-named `Hello`, so that only frames sized by
/// the flow set ever grow one.
const FRESH_FRAME_CAPACITY: usize = 64;

/// A bounded stack of spent frame buffers. Agents and ARQ endpoints
/// write every frame into a buffer from their pool and get spent ones
/// back from whoever moved the frame, so a session in lock step keeps
/// cycling the same few allocations.
#[derive(Debug, Default)]
pub(crate) struct FramePool {
    spare: Vec<Vec<u8>>,
}

impl FramePool {
    /// An empty buffer, recycled when one is spare.
    pub(crate) fn take(&mut self) -> Vec<u8> {
        let mut buf = self
            .spare
            .pop()
            .unwrap_or_else(|| Vec::with_capacity(FRESH_FRAME_CAPACITY));
        buf.clear();
        buf
    }

    /// A buffer holding a copy of `bytes`.
    pub(crate) fn copy_of(&mut self, bytes: &[u8]) -> Vec<u8> {
        let mut buf = self.take();
        buf.extend_from_slice(bytes);
        buf
    }

    /// Keep `buf` for a later [`FramePool::take`], room permitting.
    pub(crate) fn put(&mut self, buf: Vec<u8>) {
        if self.spare.len() < POOLED_FRAMES {
            self.spare.push(buf);
        }
    }
}

/// Incremental frame decoder: [`parse_frame`] behind a receive buffer.
#[derive(Debug, Default)]
pub struct FrameCodec {
    /// Received bytes; those before `start` are consumed.
    buffer: Vec<u8>,
    start: usize,
}

impl FrameCodec {
    /// Empty codec.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append received bytes.
    pub fn feed(&mut self, data: &[u8]) {
        self.buffer.extend_from_slice(data);
    }

    /// Consume `n` bytes from the front. The consumed prefix is dropped
    /// once it dominates: appends stay amortized O(1), memory bounded.
    fn consume(&mut self, n: usize) {
        self.start += n;
        if self.start > 4096 && self.start * 2 >= self.buffer.len() {
            self.buffer.drain(..self.start);
            self.start = 0;
        }
    }

    /// Try to decode the next complete frame. `Ok(None)` means more bytes
    /// are needed. On error the buffer is poisoned — the caller must tear
    /// the session down (the transport is assumed reliable, so any error
    /// is fatal corruption, not something to resynchronize from).
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        let Some(frame) = parse_frame(&self.buffer[self.start..])? else {
            return Ok(None);
        };
        let owned = Frame {
            msg_type: frame.msg_type,
            payload: frame.payload.to_vec(),
        };
        let consumed = frame.wire_len();
        self.consume(consumed);
        Ok(Some(owned))
    }

    /// [`FrameCodec::feed`] `data` and hand every complete frame to
    /// `handle` without copying it out: straight from `data` when nothing
    /// was buffered, from the buffer otherwise. Afterwards the buffer
    /// holds only the tail of a frame that has not fully arrived —
    /// nothing after an error, the first of which ends the call.
    pub fn feed_frames<E: From<FrameError>>(
        &mut self,
        data: &[u8],
        mut handle: impl FnMut(FrameRef<'_>) -> Result<(), E>,
    ) -> Result<(), E> {
        let in_place = self.buffered() == 0;
        if !in_place {
            self.buffer.extend_from_slice(data);
        }
        let mut rest = if in_place {
            data
        } else {
            &self.buffer[self.start..]
        };
        let result = (|| {
            while let Some(frame) = parse_frame(rest)? {
                rest = &rest[frame.wire_len()..];
                handle(frame)?;
            }
            Ok(())
        })();
        let tail = if result.is_ok() { rest.len() } else { 0 };
        if in_place {
            self.buffer.extend_from_slice(&data[data.len() - tail..]);
        } else {
            self.consume(self.buffered() - tail);
        }
        result
    }

    /// Bytes currently buffered (for diagnostics).
    pub fn buffered(&self) -> usize {
        self.buffer.len() - self.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_frame() {
        let wire = encode_frame(3, b"hello");
        let mut codec = FrameCodec::new();
        codec.feed(&wire);
        let frame = codec.next_frame().unwrap().unwrap();
        assert_eq!(frame.msg_type, 3);
        assert_eq!(frame.payload, b"hello");
        assert!(codec.next_frame().unwrap().is_none());
        assert_eq!(codec.buffered(), 0);
    }

    #[test]
    fn empty_payload() {
        let wire = encode_frame(7, b"");
        let mut codec = FrameCodec::new();
        codec.feed(&wire);
        let frame = codec.next_frame().unwrap().unwrap();
        assert_eq!(frame.msg_type, 7);
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn incremental_delivery() {
        let wire = encode_frame(1, b"fragmented payload");
        let mut codec = FrameCodec::new();
        for chunk in wire.chunks(3) {
            assert!(codec.next_frame().unwrap().is_none());
            codec.feed(chunk);
        }
        let frame = codec.next_frame().unwrap().unwrap();
        assert_eq!(frame.payload, b"fragmented payload");
    }

    #[test]
    fn multiple_frames_in_one_feed() {
        let mut wire = encode_frame(1, b"first");
        wire.extend(encode_frame(2, b"second"));
        let mut codec = FrameCodec::new();
        codec.feed(&wire);
        assert_eq!(codec.next_frame().unwrap().unwrap().payload, b"first");
        assert_eq!(codec.next_frame().unwrap().unwrap().payload, b"second");
        assert!(codec.next_frame().unwrap().is_none());
    }

    #[test]
    fn oversize_rejected() {
        // Hand-craft a header declaring a huge payload.
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC.to_be_bytes());
        wire.push(1);
        wire.extend_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_be_bytes());
        let mut codec = FrameCodec::new();
        codec.feed(&wire);
        assert!(matches!(
            codec.next_frame(),
            Err(FrameError::TooLarge { .. })
        ));
    }

    #[test]
    fn a_frame_written_in_place_is_the_encoded_frame() {
        let mut out = encode_frame(1, b"first");
        let start = begin_frame(&mut out, 2);
        out.extend_from_slice(b"second");
        finish_frame(&mut out, start);
        assert_eq!(out[..start], encode_frame(1, b"first"));
        assert_eq!(out[start..], encode_frame(2, b"second"));
    }

    #[test]
    fn parse_frame_borrows_the_payload_where_it_lies() {
        let mut wire = encode_frame(1, b"first");
        wire.extend(encode_frame(2, b""));
        wire.extend(&encode_frame(3, b"cut short")[..12]);
        let first = parse_frame(&wire).unwrap().unwrap();
        assert_eq!((first.msg_type, first.payload), (1, &b"first"[..]));
        assert!(std::ptr::eq(first.payload, &wire[HEADER..HEADER + 5]));
        let rest = &wire[first.wire_len()..];
        let second = parse_frame(rest).unwrap().unwrap();
        assert_eq!((second.msg_type, second.payload), (2, &b""[..]));
        assert_eq!(second.wire_len(), FRAME_OVERHEAD);
        assert_eq!(parse_frame(&rest[second.wire_len()..]), Ok(None));
    }

    #[test]
    fn a_frame_is_refused_from_its_header_alone() {
        // Nothing of the 4 MiB + 1 payload has to arrive (or be
        // buffered) before the length is turned down, and the magic is
        // looked at first.
        let mut header = Vec::new();
        header.extend_from_slice(&MAGIC.to_be_bytes());
        header.push(1);
        header.extend_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_be_bytes());
        assert_eq!(
            parse_frame(&header),
            Err(FrameError::TooLarge {
                declared: MAX_FRAME_PAYLOAD + 1
            })
        );
        assert_eq!(parse_frame(&header[..HEADER - 1]), Ok(None));
        header[1] ^= 0xFF;
        assert!(matches!(
            parse_frame(&header),
            Err(FrameError::BadMagic { .. })
        ));
    }

    #[test]
    fn the_pool_is_bounded_in_count() {
        let mut pool = FramePool::default();
        for _ in 0..POOLED_FRAMES + 3 {
            pool.put(Vec::with_capacity(1000));
        }
        let recycled = std::iter::repeat_with(|| pool.take())
            .take_while(|buf| buf.capacity() == 1000)
            .count();
        assert_eq!(recycled, POOLED_FRAMES);
        // A recycled buffer comes back empty.
        pool.put(b"spent".to_vec());
        assert!(pool.take().is_empty());
    }

    mod proptests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn roundtrip_any_payload(
                msg_type in any::<u8>(),
                payload in proptest::collection::vec(any::<u8>(), 0..2048),
                chunk in 1usize..64,
            ) {
                let wire = encode_frame(msg_type, &payload);
                let mut codec = FrameCodec::new();
                let mut decoded = None;
                for part in wire.chunks(chunk) {
                    codec.feed(part);
                    if let Some(f) = codec.next_frame().unwrap() {
                        decoded = Some(f);
                    }
                }
                if decoded.is_none() {
                    decoded = codec.next_frame().unwrap();
                }
                let frame = decoded.expect("frame must decode");
                prop_assert_eq!(frame.msg_type, msg_type);
                prop_assert_eq!(frame.payload, payload);
            }

            #[test]
            fn any_single_byte_corruption_is_detected_or_resized(
                payload in proptest::collection::vec(any::<u8>(), 1..256),
                flip_at in 0usize..300,
                flip_bit in 0u8..8,
            ) {
                let wire = encode_frame(9, &payload);
                let flip_at = flip_at % wire.len();
                let mut bad = wire.clone();
                bad[flip_at] ^= 1 << flip_bit;
                let mut codec = FrameCodec::new();
                codec.feed(&bad);
                match codec.next_frame() {
                    // Either an explicit error...
                    Err(_) => {}
                    // ...or the length field grew and the frame is simply
                    // incomplete (never a silently wrong payload).
                    Ok(None) => {}
                    Ok(Some(f)) => {
                        // A flip inside the length field can shrink the
                        // frame; the CRC (positioned by the new length)
                        // would then mismatch with overwhelming
                        // probability. If decode "succeeded", it must be
                        // because nothing material changed — reject any
                        // payload mismatch.
                        prop_assert_eq!(f.payload, payload,
                            "corruption produced a different accepted payload");
                    }
                }
            }
        }
    }
}
