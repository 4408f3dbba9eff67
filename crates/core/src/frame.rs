//! The workspace's framing: one length-framed codec, one checksummed
//! seal, and one cursor over a frame body.
//!
//! **Length frames** are `[u32 LE body length][body]`. The serve
//! protocol and the MPC exchange (wire and superstep journal) share
//! this layout, so it lives here, below both. Bodies over
//! [`MAX_FRAME`] are rejected on both sides: the encode side refuses to
//! produce an unreadable frame, the decode side refuses a length prefix
//! before allocating for it. A clean EOF at a frame boundary is "no
//! more frames"; an EOF inside a header or body is an `UnexpectedEof`
//! error — a torn frame never panics or silently truncates.
//!
//! [`write_frame`] hands the transport the whole frame in one
//! `write_all`. A header and body written separately reach a TCP socket
//! as two segments, and with Nagle's algorithm on the second waits for
//! the peer's delayed ACK (≈ 40 ms on Linux) — on every reply.
//!
//! **Sealed frames** are `[head][crc32(head ‖ body) u32 LE][body]`
//! ([`put_sealed`], [`open_sealed`]). The durable WAL seals with the
//! head `[tag u8][len u32 LE]`, the MPC net layer with `[seq u32 LE]`.
//! The crc covers the head too, so a flip anywhere in a frame fails it.
//! [`crc32`] is the IEEE crc, run as three interleaved slicing-by-8
//! lanes whose registers are joined with compile-time shift tables, so
//! sealing and opening keep up with the exchange and the WAL.
//!
//! **Bodies** are read through [`BodyReader`] and written with
//! [`put_u32`], [`put_u64`] and [`put_bytes`]: little-endian integers
//! and `u32`-length-prefixed byte strings.

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
    put_u32(out, len);
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

/// The reflected IEEE 802.3 polynomial.
const CRC_POLY: u32 = 0xedb8_8320;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the byte-at-a-time table and
/// `CRC_TABLES[k][b]` advances `CRC_TABLES[k − 1][b]` over one more
/// zero byte, so eight table reads fold eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// Bytes per lane of the interleaved loop: a round folds three lanes
/// of `LANE` bytes each.
const LANE: usize = 256;

/// Lane-join tables: `SHIFT[k][b]` is the register `b << 8k` advanced
/// over `LANE` zero bytes, so four table reads move a whole register
/// past one lane (see [`shift_lane`]).
const SHIFT: [[u32; 256]; 4] = shift_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut i = 0;
        while i < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC_POLY
            } else {
                crc >> 1
            };
            i += 1;
        }
        t[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[k - 1][b];
            t[k][b] = (prev >> 8) ^ t[0][(prev & 0xff) as usize];
            b += 1;
        }
        k += 1;
    }
    t
}

const fn shift_tables() -> [[u32; 256]; 4] {
    let t0 = CRC_TABLES[0];
    let mut s = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        // Advancing a register over zero bytes is linear, so the eight
        // single-bit registers of byte `k` determine the whole table.
        let mut bit = 0;
        while bit < 8 {
            let mut crc = 1u32 << (8 * k + bit);
            let mut i = 0;
            while i < LANE {
                crc = (crc >> 8) ^ t0[(crc & 0xff) as usize];
                i += 1;
            }
            s[k][1 << bit] = crc;
            bit += 1;
        }
        let mut b = 1usize;
        while b < 256 {
            // `b` is the xor of its lowest set bit and the rest.
            let low = b & b.wrapping_neg();
            s[k][b] = s[k][low] ^ s[k][b ^ low];
            b += 1;
        }
        k += 1;
    }
    s
}

#[inline(always)]
fn byte(x: u32, shift: u32) -> usize {
    ((x >> shift) & 0xff) as usize
}

/// Fold eight bytes into the register: one slicing-by-8 step.
#[inline(always)]
fn fold8(crc: u32, c: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let lo = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
    let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
    t[7][byte(lo, 0)]
        ^ t[6][byte(lo, 8)]
        ^ t[5][byte(lo, 16)]
        ^ t[4][byte(lo, 24)]
        ^ t[3][byte(hi, 0)]
        ^ t[2][byte(hi, 8)]
        ^ t[1][byte(hi, 16)]
        ^ t[0][byte(hi, 24)]
}

/// The register `crc` advanced over [`LANE`] zero bytes.
#[inline(always)]
fn shift_lane(crc: u32) -> u32 {
    SHIFT[0][byte(crc, 0)]
        ^ SHIFT[1][byte(crc, 8)]
        ^ SHIFT[2][byte(crc, 16)]
        ^ SHIFT[3][byte(crc, 24)]
}

/// Fold `bytes` into the running (pre-inverted) crc register.
///
/// The register update is linear: folding `x ‖ y` from `r` gives
/// `shift(fold(r, x)) ^ fold(0, y)`, where `shift` advances a register
/// over `|y|` zero bytes. So each round of `3 · LANE` bytes runs three
/// independent slicing-by-8 chains, the first from `crc` and the other
/// two from zero, and joins them as `shift(shift(a) ^ b) ^ c`. The
/// three chains keep the table loads busy where one chain would wait
/// on its own previous step. Bytes after the last whole round go
/// through the one-chain loop.
#[inline]
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    let mut rounds = bytes.chunks_exact(3 * LANE);
    for round in &mut rounds {
        let (x, rest) = round.split_at(LANE);
        let (y, z) = rest.split_at(LANE);
        let (mut a, mut b, mut c) = (crc, 0, 0);
        for ((x8, y8), z8) in x
            .chunks_exact(8)
            .zip(y.chunks_exact(8))
            .zip(z.chunks_exact(8))
        {
            a = fold8(a, x8);
            b = fold8(b, y8);
            c = fold8(c, z8);
        }
        crc = shift_lane(shift_lane(a) ^ b) ^ c;
    }
    let mut chunks = rounds.remainder().chunks_exact(8);
    for c in &mut chunks {
        crc = fold8(crc, c);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ CRC_TABLES[0][byte(crc ^ u32::from(b), 0)];
    }
    crc
}

/// CRC-32 (IEEE, the `cksum`/zlib one) over `bytes`: slicing-by-8 in
/// three interleaved lanes, joined by lane-shift tables, with every
/// table built at compile time — no dependency, no startup cost. It
/// guards every journal frame and every MPC net frame, so it runs over
/// each byte the exchange and the WAL move.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

/// The crc a sealed frame stores: over `head` then `body`, as one
/// message, with no copy of either.
fn seal_crc(head: &[u8], body: &[u8]) -> u32 {
    !crc32_update(crc32_update(!0, head), body)
}

/// Append the sealed frame `[head][crc32(head ‖ body) u32 LE][body]`.
pub fn put_sealed(out: &mut Vec<u8>, head: &[u8], body: &[u8]) {
    out.reserve(head.len() + 4 + body.len());
    out.extend_from_slice(head);
    put_u32(out, seal_crc(head, body));
    out.extend_from_slice(body);
}

/// Open exactly one sealed frame whose head is `H` bytes: its head and
/// body, or `None` when `frame` is shorter than `H + 4` bytes or its crc
/// does not match.
#[must_use]
pub fn open_sealed<const H: usize>(frame: &[u8]) -> Option<([u8; H], &[u8])> {
    let head: [u8; H] = frame.get(..H)?.try_into().ok()?;
    let stored: [u8; 4] = frame.get(H..H + 4)?.try_into().ok()?;
    let body = &frame[H + 4..];
    (seal_crc(&head, body) == u32::from_le_bytes(stored)).then_some((head, body))
}

/// Append `v` little-endian.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` little-endian.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append `[u32 LE length][bytes]`. A blob that could not travel in a
/// frame is `InvalidInput` (see [`checked_len`]) and appends nothing.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) -> io::Result<()> {
    put_u32(out, checked_len(bytes.len())?);
    out.extend_from_slice(bytes);
    Ok(())
}

/// A cursor over a frame body. Every read fails with `"truncated
/// frame"` on a short buffer instead of panicking, and [`Self::done`]
/// fails with `"trailing bytes in frame"` unless the body was consumed
/// exactly.
#[derive(Debug)]
pub struct BodyReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BodyReader<'a> {
    /// A cursor at the start of `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        BodyReader { buf, pos: 0 }
    }

    /// The next `N` bytes.
    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let bytes = self.take(N)?;
        Ok(bytes.try_into().expect("take returns N bytes"))
    }

    /// The next `len` bytes.
    #[inline]
    fn take(&mut self, len: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(len).ok_or("truncated frame")?;
        let bytes = self.buf.get(self.pos..end).ok_or("truncated frame")?;
        self.pos = end;
        Ok(bytes)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, String> {
        self.array::<1>().map(|[b]| b)
    }

    /// A little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, String> {
        self.array().map(u32::from_le_bytes)
    }

    /// A little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, String> {
        self.array().map(u64::from_le_bytes)
    }

    /// A `[u32 LE length][bytes]` blob, borrowed from the body.
    #[inline]
    pub fn bytes(&mut self) -> Result<&'a [u8], String> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// Succeed iff every byte of the body was read.
    pub fn done(self) -> Result<(), String> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err("trailing bytes in frame".into())
        }
    }
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

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The reference model: CRC-32 bit by bit, eight shifts per byte.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                let low = crc & 1;
                crc >>= 1;
                if low != 0 {
                    crc ^= CRC_POLY;
                }
            }
        }
        !crc
    }

    /// `len` deterministic pseudo-random bytes.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut rng = crate::rng::SplitMix64::new(seed);
        let mut bytes = Vec::with_capacity(len + 8);
        while bytes.len() < len {
            bytes.extend_from_slice(&rng.next_u64().to_le_bytes());
        }
        bytes.truncate(len);
        bytes
    }

    #[test]
    fn crc_matches_the_bitwise_model_around_the_first_round_boundaries() {
        let lengths = (3 * LANE - 9..=3 * LANE + 9).chain([6 * LANE - 1, 6 * LANE, 6 * LANE + 1]);
        for len in lengths {
            let bytes = noise(len, len as u64);
            assert_eq!(crc32(&bytes), crc32_bitwise(&bytes), "len {len}");
        }
    }

    #[test]
    fn crc_matches_the_bitwise_model_on_a_mebibyte() {
        let bytes = noise(1 << 20, 1);
        assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        // A register carried in from a head, as a seal folds it.
        let (head, body) = bytes.split_at(5);
        assert_eq!(seal_crc(head, body), crc32_bitwise(&bytes));
    }

    #[test]
    fn sealed_large_bodies_carry_the_bitwise_crc() {
        let body = noise(64 * 1024 + 13, 7);
        let head = [3u8, 1, 4, 1, 5];
        let mut frame = Vec::new();
        put_sealed(&mut frame, &head, &body);
        let whole: Vec<u8> = head.iter().chain(&body).copied().collect();
        assert_eq!(frame[5..9], crc32_bitwise(&whole).to_le_bytes());
        assert_eq!(open_sealed::<5>(&frame), Some((head, &body[..])));
        let mut bad = frame.clone();
        bad[9 + 40_000] ^= 0x01;
        assert_eq!(open_sealed::<5>(&bad), None);
    }

    #[test]
    fn sealed_frames_reject_short_and_flipped_frames() {
        let mut frame = Vec::new();
        put_sealed(&mut frame, &[9, 8], b"body");
        assert_eq!(frame.len(), 2 + 4 + 4);
        assert_eq!(open_sealed::<2>(&frame), Some(([9, 8], &b"body"[..])));
        for cut in 0..6 {
            assert_eq!(open_sealed::<2>(&frame[..cut]), None, "cut {cut}");
        }
        for i in 0..frame.len() {
            let mut bad = frame.clone();
            bad[i] ^= 0x10;
            assert_eq!(open_sealed::<2>(&bad), None, "flip at {i}");
        }
    }

    #[test]
    fn body_reader_reads_exactly_and_names_the_failure() {
        let mut body = vec![7u8];
        put_u32(&mut body, 0xdead_beef);
        put_u64(&mut body, u64::MAX - 1);
        put_bytes(&mut body, b"xyz").unwrap();
        let mut rd = BodyReader::new(&body);
        assert_eq!(rd.u8().unwrap(), 7);
        assert_eq!(rd.u32().unwrap(), 0xdead_beef);
        assert_eq!(rd.u64().unwrap(), u64::MAX - 1);
        assert_eq!(rd.bytes().unwrap(), b"xyz");
        rd.done().unwrap();
        for cut in 0..body.len() {
            let mut rd = BodyReader::new(&body[..cut]);
            let err = (|| {
                rd.u8()?;
                rd.u32()?;
                rd.u64()?;
                rd.bytes().map(|_| ())
            })()
            .unwrap_err();
            assert_eq!(err, "truncated frame", "cut {cut}");
        }
        let mut rd = BodyReader::new(&body);
        rd.u8().unwrap();
        assert_eq!(rd.done().unwrap_err(), "trailing bytes in frame");
        // A length prefix past the end of the body.
        let mut lying = Vec::new();
        put_u32(&mut lying, u32::MAX);
        assert_eq!(
            BodyReader::new(&lying).bytes().unwrap_err(),
            "truncated frame"
        );
        let mut kept = b"kept".to_vec();
        let huge = vec![0u8; MAX_FRAME as usize + 1];
        assert!(put_bytes(&mut kept, &huge).is_err());
        assert_eq!(kept, b"kept", "a refused blob appends nothing");
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

        /// The table-driven crc equals the bitwise model on every input,
        /// across all eight remainders of the slicing-by-8 loop and up to
        /// five whole interleaved rounds.
        #[test]
        fn table_crc_matches_the_bitwise_model(
            bytes in proptest::collection::vec(any::<u8>(), 0..4096),
        ) {
            prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }

        /// A seal's crc, folded over head then body, is the crc of the
        /// two concatenated, and every sealed frame opens to its parts.
        #[test]
        fn seals_checksum_head_and_body_as_one_message(
            head in proptest::collection::vec(any::<u8>(), 5..=5),
            body in proptest::collection::vec(any::<u8>(), 0..100),
        ) {
            let mut frame = Vec::new();
            put_sealed(&mut frame, &head, &body);
            let whole: Vec<u8> = head.iter().chain(&body).copied().collect();
            prop_assert_eq!(&frame[5..9], &crc32(&whole).to_le_bytes()[..]);
            let (h, b) = open_sealed::<5>(&frame).unwrap();
            prop_assert_eq!(&h[..], &head[..]);
            prop_assert_eq!(b, &body[..]);
        }
    }
}
