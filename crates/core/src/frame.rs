//! The workspace's one length-framed codec: `[u32 LE body length][body]`.
//!
//! The serve protocol and the MPC exchange (wire and superstep
//! journal) share this layout, so it lives here, below both. Bodies
//! over [`MAX_FRAME`] are rejected on both sides: the encode side
//! refuses to produce an unreadable frame, the decode side refuses a
//! length prefix before allocating for it. A clean EOF at a frame
//! boundary is "no more frames"; an EOF inside a header or body is an
//! `UnexpectedEof` error — a torn frame never panics or silently
//! truncates.
//!
//! [`write_frame`] hands the transport the whole frame in one
//! `write_all`. A header and body written separately reach a TCP socket
//! as two segments, and with Nagle's algorithm on the second waits for
//! the peer's delayed ACK (≈ 40 ms on Linux) — on every reply.

use std::io::{self, Read, Write};

/// Largest accepted frame body (16 MiB) — a malformed length prefix
/// must not drive an allocation.
pub const MAX_FRAME: u32 = 16 * 1024 * 1024;

/// `len` as a frame length, or `InvalidInput` when a body (or a blob
/// bound for one) that long could not be read back under [`MAX_FRAME`].
pub fn checked_len(len: usize) -> io::Result<u32> {
    u32::try_from(len)
        .ok()
        .filter(|&l| l <= MAX_FRAME)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame body over MAX_FRAME"))
}

/// Append one frame to `out`. On error `out` is left unchanged.
pub fn put_frame(out: &mut Vec<u8>, body: &[u8]) -> io::Result<()> {
    let len = checked_len(body.len())?;
    out.reserve(4 + body.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(body);
    Ok(())
}

/// Write one frame with a single `write_all` of `4 + body.len()` bytes.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(4 + body.len());
    put_frame(&mut frame, body)?;
    w.write_all(&frame)
}

/// Read a length prefix. `Ok(None)` on a clean EOF before its first byte.
fn read_header<R: Read>(r: &mut R) -> io::Result<Option<u32>> {
    let mut len_bytes = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        let got = r.read(&mut len_bytes[filled..])?;
        if got == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside frame header",
            ));
        }
        filled += got;
    }
    Ok(Some(u32::from_le_bytes(len_bytes)))
}

fn read_body<R: Read>(r: &mut R, len: u32) -> io::Result<Vec<u8>> {
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Read one frame. `Ok(None)` on a clean EOF at a frame boundary; a
/// length prefix over [`MAX_FRAME`] is `InvalidData`.
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let Some(len) = read_header(r)? else {
        return Ok(None);
    };
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame over MAX_FRAME",
        ));
    }
    read_body(r, len).map(Some)
}

/// What [`read_frame_lenient`] saw on the wire.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameRead {
    /// Clean EOF at a frame boundary.
    Eof,
    /// A complete frame body within the cap.
    Frame(Vec<u8>),
    /// A header declaring `len` bytes over [`MAX_FRAME`]; the body was
    /// drained and discarded so the stream stays framed.
    Oversize(u32),
}

/// Like [`read_frame`], but an oversize length prefix drains the
/// declared body instead of poisoning the transport — a server can
/// answer with a typed error and keep the connection. Torn frames (EOF
/// mid-header or mid-body) are still hard errors: once bytes go missing
/// there is no frame boundary left to recover to.
pub fn read_frame_lenient<R: Read>(r: &mut R) -> io::Result<FrameRead> {
    let Some(len) = read_header(r)? else {
        return Ok(FrameRead::Eof);
    };
    if len > MAX_FRAME {
        // Drain and discard the declared body; the next frame header
        // follows it.
        let drained = io::copy(&mut r.take(u64::from(len)), &mut io::sink())?;
        if drained < u64::from(len) {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "EOF inside oversize frame body",
            ));
        }
        return Ok(FrameRead::Oversize(len));
    }
    read_body(r, len).map(FrameRead::Frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::io::Cursor;

    fn framed(bodies: &[&[u8]]) -> Vec<u8> {
        let mut wire = Vec::new();
        for b in bodies {
            put_frame(&mut wire, b).unwrap();
        }
        wire
    }

    #[test]
    fn frames_round_trip_including_empty_bodies() {
        let bodies: [&[u8]; 4] = [b"alpha", b"", "\u{3000}word".as_bytes(), b""];
        let mut wire = Vec::new();
        for b in bodies {
            write_frame(&mut wire, b).unwrap();
        }
        assert_eq!(wire, framed(&bodies), "write_frame and put_frame agree");
        let mut strict = Cursor::new(wire.clone());
        let mut lenient = Cursor::new(wire);
        for b in bodies {
            assert_eq!(read_frame(&mut strict).unwrap().unwrap(), b);
            assert_eq!(
                read_frame_lenient(&mut lenient).unwrap(),
                FrameRead::Frame(b.to_vec())
            );
        }
        assert!(read_frame(&mut strict).unwrap().is_none(), "clean EOF");
        assert_eq!(read_frame_lenient(&mut lenient).unwrap(), FrameRead::Eof);
    }

    #[test]
    fn torn_frames_error_at_every_cut_point() {
        let wire = framed(&[b"hello", b""]);
        let first = 4 + 5;
        for cut in 1..first {
            let torn = &wire[..cut];
            let strict = read_frame(&mut &torn[..]).unwrap_err();
            assert_eq!(strict.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
            let lenient = read_frame_lenient(&mut &torn[..]).unwrap_err();
            assert_eq!(lenient.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
        }
        // A cut inside the second (empty-body) frame's header.
        for cut in first + 1..wire.len() {
            let mut rest = &wire[..cut];
            assert!(read_frame(&mut rest).unwrap().is_some());
            let err = read_frame(&mut rest).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "cut {cut}");
        }
    }

    /// A reader that fails the test if the decoder asks for body bytes:
    /// the cap must be checked on the header alone.
    struct HeaderOnly(Cursor<Vec<u8>>, usize);

    impl Read for HeaderOnly {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.1 += buf.len();
            assert!(self.1 <= 4, "read past the header of an oversize frame");
            self.0.read(buf)
        }
    }

    #[test]
    fn oversize_prefix_is_invalid_data_before_any_allocation() {
        for len in [MAX_FRAME + 1, u32::MAX] {
            let mut r = HeaderOnly(Cursor::new(len.to_le_bytes().to_vec()), 0);
            let err = read_frame(&mut r).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
    }

    #[test]
    fn lenient_drain_leaves_the_stream_framed() {
        let huge = MAX_FRAME + 3;
        let mut wire = huge.to_le_bytes().to_vec();
        wire.extend(std::iter::repeat_n(0xAAu8, huge as usize));
        put_frame(&mut wire, b"still-here").unwrap();
        let mut cursor = Cursor::new(wire);
        assert_eq!(
            read_frame_lenient(&mut cursor).unwrap(),
            FrameRead::Oversize(huge)
        );
        assert_eq!(
            read_frame_lenient(&mut cursor).unwrap(),
            FrameRead::Frame(b"still-here".to_vec())
        );
        assert_eq!(read_frame_lenient(&mut cursor).unwrap(), FrameRead::Eof);
        // A torn oversize body is still fatal — no boundary to resync.
        let mut torn = huge.to_le_bytes().to_vec();
        torn.extend_from_slice(&[0u8; 16]);
        let err = read_frame_lenient(&mut Cursor::new(torn)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn encode_cap_is_symmetric_with_the_decode_cap() {
        let max = MAX_FRAME as usize;
        let mut body = vec![b'#'; max];
        let mut wire = Vec::new();
        write_frame(&mut wire, &body).unwrap();
        assert_eq!(read_frame(&mut Cursor::new(&wire)).unwrap().unwrap(), body);

        body.push(b'#');
        let mut out = b"kept".to_vec();
        let err = put_frame(&mut out, &body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(out, b"kept", "a refused frame appends nothing");
        let err = write_frame(&mut Vec::new(), &body).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(checked_len(max).unwrap(), MAX_FRAME);
        assert!(checked_len(max + 1).is_err());
    }

    /// Records the size of every `write` call it receives.
    #[derive(Default)]
    struct Recorder {
        bytes: Vec<u8>,
        writes: Vec<usize>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes.push(buf.len());
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_frame_issues_exactly_one_write() {
        for len in [0usize, 1, 3, 4, 5, 1000, 4096, 65_535, 65_536] {
            let body = vec![0x5Au8; len];
            let mut rec = Recorder::default();
            write_frame(&mut rec, &body).unwrap();
            assert_eq!(rec.writes, vec![4 + len], "body of {len} bytes");
            assert_eq!(rec.bytes, framed(&[&body]));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn back_to_back_frames_preserve_order(
            bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..=64), 0..=6)
        ) {
            let refs: Vec<&[u8]> = bodies.iter().map(Vec::as_slice).collect();
            let wire = framed(&refs);
            let mut cursor = wire.as_slice();
            let mut seen = Vec::new();
            while let Some(b) = read_frame(&mut cursor).unwrap() {
                seen.push(b);
            }
            prop_assert_eq!(seen, bodies);
        }
    }
}
