//! Hand-rolled wire codec shared by every socket protocol in the repo.
//!
//! The repo's convention is std-only serialization (no serde); this
//! crate provides the pieces any framed byte protocol needs — it began
//! life inside `pace-mpisim`'s Unix-socket transport and was extracted
//! so the serving daemon (`pace-serve`) reuses it instead of
//! duplicating it:
//!
//! - [`Wire`]: encode/decode for a message type, little-endian, length
//!   prefixes on variable-size fields;
//! - [`WireReader`]: a bounds-checked cursor that decoding reads from —
//!   truncated or trailing bytes are errors, never panics;
//! - framing: every socket payload travels as
//!   `[len: u32 LE][crc32: u32 LE][payload bytes]`, where the checksum
//!   covers the payload. A frame that fails its length sanity bound or
//!   its checksum is a hard transport error (a Unix socket does not
//!   corrupt bytes in practice; a bad checksum means a codec bug or a
//!   desynced stream, both of which must fail loudly).
//!
//! Protocol-specific message enums (the transport's `Ctl` handshake,
//! the daemon's request/response lines) live with their protocols; only
//! the neutral codec machinery lives here. Within a protocol version,
//! fields are append-only: new fields go at the *end* of a message's
//! encoding and decoding must tolerate their absence only across a
//! version bump, never silently.

use std::io::{self, Read, Write};

/// Upper bound on a frame payload. A `Work`/`Report` batch is a few
/// hundred pairs (tens of KiB) and an ingest batch a few MiB of FASTA;
/// anything near this bound is a desynced stream, not a real message.
pub const MAX_FRAME_LEN: u32 = 64 << 20;

/// Error produced by decoding: truncated input, trailing bytes, or a
/// value that fails validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire decode error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for io::Error {
    fn from(e: WireError) -> Self {
        io::Error::new(io::ErrorKind::InvalidData, e.to_string())
    }
}

/// Bounds-checked read cursor over one decoded payload.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError(format!(
                "truncated: need {n} bytes at offset {}, have {}",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// A raw byte run of known length.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        self.take(n)
    }

    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A `u32`-prefixed length, validated against the bytes actually left
    /// so a corrupt length cannot trigger a huge allocation.
    pub fn len_prefix(&mut self, elem_size: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(elem_size.max(1)) > self.remaining() {
            return Err(WireError(format!(
                "length prefix {n} exceeds remaining payload ({} bytes)",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Decoding must end exactly at the payload boundary; trailing bytes
    /// mean sender and receiver disagree about the message layout.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError(format!(
                "{} trailing bytes after message",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// A type that can cross the socket. Encodings are little-endian and
/// self-delimiting (variable-size fields carry `u32` length prefixes).
pub trait Wire: Sized {
    fn encode(&self, out: &mut Vec<u8>);
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decode a complete payload; trailing bytes are an error.
    fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u8()
    }
}

impl Wire for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u32()
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        usize::try_from(r.u64()?).map_err(|_| WireError("usize out of range".into()))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError(format!("bad bool byte {b:#04x}"))),
        }
    }
}

/// Floats travel as their IEEE-754 bit pattern, so a value round-trips
/// bit-exactly (including NaN payloads and signed zeros).
impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        self.to_bits().encode(out);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(f64::from_bits(r.u64()?))
    }
}

/// Strings travel as a length-prefixed UTF-8 byte run; decoding rejects
/// invalid UTF-8 rather than lossily replacing it.
impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        let n = u32::try_from(self.len()).expect("string too long for wire format");
        n.encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.len_prefix(1)?;
        let bytes = r.bytes(n)?.to_vec();
        String::from_utf8(bytes).map_err(|_| WireError("invalid UTF-8 in wire string".into()))
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        let n = u32::try_from(self.len()).expect("vector too long for wire format");
        n.encode(out);
        for item in self {
            item.encode(out);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        // Elements are at least one byte each, which bounds allocation.
        let n = r.len_prefix(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

/// The decoder drill every [`Wire`] type's tests run on sample values
/// (at least one per enum variant). It asserts that
///
/// * the full encoding decodes, and re-encodes to the same bytes;
/// * every strict prefix of the encoding fails [`Wire::from_bytes`];
/// * every single-byte flip (each bit, and all eight) returns an error
///   or a value without panicking.
///
/// Returns the decoded value. A type with `PartialEq` must also check it
/// against the sample (`assert_eq!(drill(&v), v)`): equal re-encodings
/// cannot catch a field that the encoder and decoder both leave out.
///
/// Panics, naming the failing case, when one of them does not hold.
pub fn drill<T: Wire>(sample: &T) -> T {
    let bytes = sample.to_bytes();
    let back = T::from_bytes(&bytes).unwrap_or_else(|e| panic!("full encoding: {e}"));
    assert_eq!(
        back.to_bytes(),
        bytes,
        "the round trip changed the encoding"
    );
    for cut in 0..bytes.len() {
        assert!(
            T::from_bytes(&bytes[..cut]).is_err(),
            "a {cut}-byte prefix of a {}-byte encoding decoded",
            bytes.len()
        );
    }
    let mut flipped = bytes.clone();
    for i in 0..bytes.len() {
        for mask in (0..8).map(|bit| 1u8 << bit).chain([0xff]) {
            flipped[i] = bytes[i] ^ mask;
            let _ = T::from_bytes(&flipped);
        }
        flipped[i] = bytes[i];
    }
    back
}

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected) — inlined so framing needs no deps.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// CRC-32 checksum of `data` (the classic IEEE polynomial, as used by
/// gzip/PNG).
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------

/// Write one frame: `[len][crc32][payload]`.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&n| n <= MAX_FRAME_LEN)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "frame payload of {} bytes exceeds MAX_FRAME_LEN",
                    payload.len()
                ),
            )
        })?;
    let mut header = [0u8; 8];
    header[..4].copy_from_slice(&len.to_le_bytes());
    header[4..].copy_from_slice(&crc32(payload).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(payload)?;
    w.flush()
}

/// Read one frame. Returns `Ok(None)` on a clean EOF at a frame
/// boundary (the peer closed its socket); EOF mid-frame, an oversized
/// length, or a checksum mismatch are `Err`.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; 8];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    let crc = u32::from_le_bytes(header[4..].try_into().unwrap());
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds MAX_FRAME_LEN (desynced stream?)"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let actual = crc32(&payload);
    if actual != crc {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame checksum mismatch: header says {crc:#010x}, payload is {actual:#010x}"),
        ));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_pass_the_drill() {
        assert_eq!(drill(&0u8), 0u8);
        assert_eq!(drill(&255u8), 255u8);
        assert_eq!(drill(&0xDEAD_BEEFu32), 0xDEAD_BEEFu32);
        assert_eq!(drill(&u64::MAX), u64::MAX);
        assert_eq!(drill(&12345usize), 12345usize);
        assert!(drill(&true));
        assert!(!drill(&false));
        assert_eq!(drill(&-0.0f64).to_bits(), (-0.0f64).to_bits());
        let nan = f64::NAN.to_bits().to_le_bytes().to_vec();
        assert_eq!(drill(&nan), nan);
        assert_eq!(drill(&vec![1u32, 2, 3]), vec![1u32, 2, 3]);
        assert_eq!(drill(&Vec::<u64>::new()), Vec::<u64>::new());
        assert_eq!(drill(&"est_über".to_string()), "est_über");
    }

    #[test]
    fn nan_bit_pattern_survives() {
        let v = f64::from_bits(0x7FF8_0000_0000_0001);
        let back = f64::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 7u32.to_bytes();
        bytes.push(0);
        assert!(u32::from_bytes(&bytes).is_err());
    }

    #[test]
    fn truncation_rejected() {
        let bytes = 7u64.to_bytes();
        assert!(u64::from_bytes(&bytes[..7]).is_err());
    }

    #[test]
    fn bad_bool_rejected() {
        assert!(bool::from_bytes(&[2]).is_err());
    }

    #[test]
    fn hostile_length_prefix_cannot_allocate() {
        // A Vec<u64> claiming u32::MAX elements in a 4-byte payload.
        let bytes = u32::MAX.to_bytes();
        assert!(Vec::<u64>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for the IEEE polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        let mut cursor = std::io::Cursor::new(buf);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn corrupt_frame_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload-bytes").unwrap();
        // Flip one payload bit.
        let n = buf.len();
        buf[n - 3] ^= 0x10;
        let mut cursor = std::io::Cursor::new(buf);
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_frame_is_an_error_not_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"0123456789").unwrap();
        buf.truncate(buf.len() - 4);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }

    #[test]
    fn oversized_frame_length_is_rejected_before_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
        buf.extend_from_slice(&[0u8; 4]);
        let mut cursor = std::io::Cursor::new(buf);
        assert!(read_frame(&mut cursor).is_err());
    }
}
