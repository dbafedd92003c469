//! Length-prefixed framing over a byte stream.
//!
//! Every message on the wire is one **frame**: a 4-byte big-endian payload
//! length followed by that many bytes of compact JSON. Framing is the only
//! layer that touches raw sockets; everything above it works on whole
//! payloads. The codec is deliberately dependency-free (no async runtime,
//! no protobuf) — the serving protocol is small enough that hand-rolled
//! framing plus the vendored `serde_json` covers it.
//!
//! Robustness contract, pinned by the unit tests:
//!
//! * reads tolerate arbitrary splits (a 1-byte-at-a-time reader decodes the
//!   same frames);
//! * a clean EOF *between* frames decodes as `None` (the peer hung up);
//! * an EOF *inside* a frame (header or payload) is an
//!   [`io::ErrorKind::UnexpectedEof`] error — never a silent truncation;
//! * a frame longer than the limit is rejected with
//!   [`io::ErrorKind::InvalidData`] before any payload byte is read, so a
//!   corrupt or malicious length prefix cannot balloon memory.
//!
//! [`read_frame`] blocks until its frame is whole; the daemon, which serves
//! every connection from one thread, reads with a `FrameReader` instead:
//! one `read` at a time, whatever it returns, and a frame handed out once its
//! last byte is in. It keeps the same contract — a proptest holds it to
//! [`read_frame`] on every split of the stream.

use std::io::{self, Read, Write};

/// Bytes of the 4-byte big-endian length prefix.
const HEADER: usize = 4;

/// The least room a `FrameReader` reads into: a dozen submits.
const READ_CHUNK: usize = 64 * 1024;

/// Writes one frame (4-byte big-endian length + payload).
///
/// Refuses payloads longer than `max_frame_bytes` with
/// [`io::ErrorKind::InvalidData`] — the sender hits the same limit the
/// receiver would, with a better error.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8], max_frame_bytes: usize) -> io::Result<()> {
    if payload.len() > max_frame_bytes {
        return Err(oversized(payload.len(), max_frame_bytes));
    }
    let len = u32::try_from(payload.len()).map_err(|_| {
        io::Error::new(io::ErrorKind::InvalidData, "frame length does not fit in 32 bits")
    })?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(payload)?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF at a frame boundary
/// (the peer closed the connection between messages).
pub fn read_frame<R: Read>(r: &mut R, max_frame_bytes: usize) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; HEADER];
    let mut filled = 0;
    while filled < header.len() {
        match r.read(&mut header[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_be_bytes(header) as usize;
    if len > max_frame_bytes {
        return Err(oversized(len, max_frame_bytes));
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed mid-frame")
        } else {
            e
        }
    })?;
    Ok(Some(payload))
}

/// Reassembles frames from a stream that is read in whatever pieces it
/// arrives in — the non-blocking counterpart of [`read_frame`].
///
/// It buffers at most one frame of the limit plus its header: the frames a
/// [`fill`](Self::fill) completes are taken with
/// [`next_frame`](Self::next_frame) before the next `fill`, so what stays
/// behind is the start of one frame, and a peer that sends faster than its
/// frames are taken meets TCP's backpressure. A length prefix over the limit
/// is refused as soon as its four bytes are in: nothing is read after it and
/// nothing is allocated for its payload.
#[derive(Debug)]
pub(crate) struct FrameReader {
    /// Read bytes; `start..end` of it is not handed out yet.
    buf: Vec<u8>,
    start: usize,
    end: usize,
    max_frame_bytes: usize,
}

impl FrameReader {
    /// An empty reader for frames of at most `max_frame_bytes`.
    pub(crate) fn new(max_frame_bytes: usize) -> Self {
        FrameReader { buf: Vec::new(), start: 0, end: 0, max_frame_bytes }
    }

    /// Calls `r.read` once and keeps what it returns. Returns that count;
    /// `Ok(0)` is the end of the stream.
    ///
    /// Refuses with [`io::ErrorKind::InvalidData`], without reading, while
    /// the frame in progress announces more than the limit, and with
    /// [`io::ErrorKind::InvalidInput`] while a whole frame waits to be taken.
    pub(crate) fn fill<R: Read>(&mut self, r: &mut R) -> io::Result<usize> {
        let frame = HEADER + self.announced()?.unwrap_or(0);
        if self.end - self.start >= frame {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "take the buffered frames before reading more",
            ));
        }
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        // Room for this frame whole, or for a chunk of the stream when that
        // is more, within the limit.
        let room = frame.max(READ_CHUNK).min(self.max_frame_bytes.saturating_add(HEADER));
        if self.buf.len() < room {
            self.buf.resize(room, 0);
        }
        let n = r.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// Takes the next whole frame's payload, or `Ok(None)` until one is in.
    /// Fails with [`io::ErrorKind::InvalidData`] on a frame over the limit.
    pub(crate) fn next_frame(&mut self) -> io::Result<Option<&[u8]>> {
        let Some(len) = self.announced()? else { return Ok(None) };
        let (payload, end) = (self.start + HEADER, self.start + HEADER + len);
        if end > self.end {
            return Ok(None);
        }
        self.start = end;
        Ok(Some(&self.buf[payload..end]))
    }

    /// Whether part of a frame is buffered: the end of the stream now would
    /// cut it (what [`read_frame`] reports as [`io::ErrorKind::UnexpectedEof`]).
    #[cfg(test)]
    fn mid_frame(&self) -> bool {
        self.end > self.start
    }

    /// The payload length the frame in progress announces, once its header
    /// is in; refused over the limit.
    fn announced(&self) -> io::Result<Option<usize>> {
        let Some(header) = self.buf[self.start..self.end].first_chunk::<HEADER>() else {
            return Ok(None);
        };
        let len = u32::from_be_bytes(*header) as usize;
        if len > self.max_frame_bytes {
            return Err(oversized(len, self.max_frame_bytes));
        }
        Ok(Some(len))
    }
}

fn oversized(len: usize, max_frame_bytes: usize) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("frame of {len} bytes exceeds the {max_frame_bytes}-byte limit"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A reader that hands out at most one byte per `read` call — the
    /// worst-case TCP segmentation.
    struct OneByte<R>(R);

    impl<R: Read> Read for OneByte<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if buf.is_empty() {
                return Ok(0);
            }
            self.0.read(&mut buf[..1])
        }
    }

    #[test]
    fn frames_round_trip_even_one_byte_at_a_time() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello", 64).unwrap();
        write_frame(&mut wire, b"", 64).unwrap();
        write_frame(&mut wire, b"{\"id\":1}", 64).unwrap();
        let mut r = OneByte(&wire[..]);
        assert_eq!(read_frame(&mut r, 64).unwrap().as_deref(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r, 64).unwrap().as_deref(), Some(&b""[..]));
        assert_eq!(read_frame(&mut r, 64).unwrap().as_deref(), Some(&b"{\"id\":1}"[..]));
        assert!(read_frame(&mut r, 64).unwrap().is_none(), "clean EOF between frames");
    }

    #[test]
    fn a_partial_frame_is_an_unexpected_eof_not_a_truncation() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"truncated payload", 64).unwrap();
        // Cut inside the payload.
        let cut = &wire[..wire.len() - 3];
        let err = read_frame(&mut &cut[..], 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        // Cut inside the header.
        let err = read_frame(&mut &wire[..2], 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn oversized_frames_are_rejected_on_both_sides() {
        let mut wire = Vec::new();
        let err = write_frame(&mut wire, &[0u8; 100], 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(wire.is_empty(), "nothing is written past the limit");
        // A hostile length prefix is rejected before allocating the payload.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut &hostile[..], 64).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A reader that returns `wire` in pieces ending at `cuts` (and at the
    /// end of the caller's buffer).
    struct Pieces<'a> {
        wire: &'a [u8],
        cuts: Vec<usize>,
        pos: usize,
    }

    impl Read for Pieces<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let end = self.wire.len();
            let cut = self.cuts.iter().copied().find(|&c| c > self.pos).unwrap_or(end).min(end);
            let n = (cut - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.wire[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    /// The frames `read_frame` reads off `wire` and how the stream ends:
    /// `Ok` at a frame boundary, else the error's kind.
    type Outcome = (Vec<Vec<u8>>, Result<(), io::ErrorKind>);

    fn read_frames(wire: &[u8], max: usize) -> Outcome {
        let (mut r, mut frames) = (wire, Vec::new());
        loop {
            match read_frame(&mut r, max) {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => return (frames, Ok(())),
                Err(e) => return (frames, Err(e.kind())),
            }
        }
    }

    /// The same, through a `FrameReader` fed `wire` in pieces ending at `cuts`.
    fn reassemble(wire: &[u8], cuts: Vec<usize>, max: usize) -> Outcome {
        let (mut r, mut frames) = (Pieces { wire, cuts, pos: 0 }, Vec::new());
        let mut reader = FrameReader::new(max);
        loop {
            match reader.next_frame() {
                Ok(Some(frame)) => {
                    frames.push(frame.to_vec());
                    continue;
                }
                Ok(None) => {}
                Err(e) => return (frames, Err(e.kind())),
            }
            match reader.fill(&mut r) {
                Ok(0) if reader.mid_frame() => return (frames, Err(io::ErrorKind::UnexpectedEof)),
                Ok(0) => return (frames, Ok(())),
                Ok(_) => {}
                Err(e) => return (frames, Err(e.kind())),
            }
        }
    }

    proptest! {
        #[test]
        fn a_frame_reader_fed_any_split_reads_what_read_frame_reads(seed in 0u64..u64::MAX) {
            // Up to six frames of up to 80 bytes against a 64-byte limit, one
            // in eight cut short: whole streams, streams that end mid-header
            // or mid-payload, and streams with an oversized frame in them.
            let mut rng = StdRng::seed_from_u64(seed);
            let mut wire = Vec::new();
            for _ in 0..rng.gen_range(0..7) {
                let payload: Vec<u8> = (0..rng.gen_range(0..81)).map(|_| rng.gen()).collect();
                wire.extend_from_slice(&(payload.len() as u32).to_be_bytes());
                wire.extend_from_slice(&payload);
            }
            if rng.gen_range(0..8) == 0 {
                wire.truncate(rng.gen_range(0..wire.len() + 1));
            }
            let oracle = read_frames(&wire, 64);

            // Two reads, split at every byte boundary.
            for cut in 0..=wire.len() {
                prop_assert_eq!(reassemble(&wire, vec![cut], 64), oracle.clone());
            }
            // One byte a read, and pieces of random sizes.
            prop_assert_eq!(reassemble(&wire, (0..wire.len()).collect(), 64), oracle.clone());
            let mut cuts = vec![0];
            while *cuts.last().unwrap() < wire.len() {
                cuts.push(cuts.last().unwrap() + rng.gen_range(1..24));
            }
            prop_assert_eq!(reassemble(&wire, cuts, 64), oracle);
        }
    }

    #[test]
    fn an_oversized_header_is_refused_before_its_payload_is_read() {
        for len in [65, u32::MAX] {
            let mut wire = len.to_be_bytes().to_vec();
            wire.extend_from_slice(&[7; 4096]);
            let mut r = Pieces { wire: &wire, cuts: vec![HEADER], pos: 0 };
            let mut reader = FrameReader::new(64);
            assert_eq!(reader.fill(&mut r).unwrap(), HEADER);
            assert_eq!(reader.next_frame().unwrap_err().kind(), io::ErrorKind::InvalidData);
            assert_eq!(reader.fill(&mut r).unwrap_err().kind(), io::ErrorKind::InvalidData);
            assert_eq!(r.pos, HEADER, "no payload byte was read");
            assert!(reader.buf.len() <= HEADER + 64, "nothing was allocated for the payload");
        }
    }

    #[test]
    fn a_frame_reader_takes_its_frames_before_it_reads_on() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first", 64).unwrap();
        write_frame(&mut wire, b"second", 64).unwrap();
        let mut r = &wire[..];
        let mut reader = FrameReader::new(64);
        assert_eq!(reader.fill(&mut r).unwrap(), wire.len(), "one read takes both");
        let err = reader.fill(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "a whole frame waits");
        assert_eq!(reader.next_frame().unwrap(), Some(&b"first"[..]));
        assert_eq!(reader.next_frame().unwrap(), Some(&b"second"[..]));
        assert_eq!(reader.next_frame().unwrap(), None);
        assert_eq!((reader.fill(&mut r).unwrap(), reader.mid_frame()), (0, false), "clean EOF");
    }
}
