//! The wire format: length-prefixed frames with version/CRC headers.
//!
//! The TCP plane ([`crate::TcpPlane`]) ships every message inside a
//! *frame*, mirroring the WAL's self-describing record discipline
//! (`crates/storage/src/wal.rs`): a fixed header that can be validated
//! without interpreting the payload, a length that bounds the read, and
//! a CRC32 that catches corruption before decoding is attempted.
//!
//! ```text
//! [magic u32][version u8][kind u8][reserved u16][len u32][crc u32] payload…
//! ```
//!
//! * `magic` — [`WIRE_MAGIC`]; a stream positioned anywhere but a frame
//!   boundary fails this immediately (no resync is attempted: a framing
//!   error degrades the connection, and the supervisor reconnects).
//! * `version` — [`WIRE_VERSION`]; a mismatched peer is rejected with
//!   [`WireError::BadVersion`] instead of being mis-decoded.
//! * `kind` — a [`FrameKind`]: the connection-control vocabulary
//!   (hello/bind/ping/pong/bye) plus [`FrameKind::Msg`] carrying one
//!   [`WireMsg`]-encoded application message.
//! * `len` — payload bytes following the header, bounded by
//!   [`MAX_FRAME_PAYLOAD`] so a corrupt length cannot make the reader
//!   allocate gigabytes.
//! * `crc` — [`ceh_types::crc32`], the WAL's checksum, over the payload.
//!
//! Payloads are written by the [`Wire`] trait: scalars, strings,
//! counted sequences, options and pairs here, and each struct or enum
//! from one field list in wire order ([`wire!`](crate::wire!)), which
//! derives both the encoder and the decoder. The shared types every
//! message carries (keys, links, buckets, trace contexts, ports) are
//! listed at the bottom of this module; the Hello and Bind payloads are
//! pairs; [`WireMsg`] (one value per frame, no trailing bytes) comes
//! with every `Wire` type.
//!
//! Decoding never panics on hostile input: every failure is a
//! [`WireError`], and the transport treats it as a *protocol error* —
//! the connection is severed and re-established, the peer is not wedged.
//! The tests pin the bytes (`hello_and_bind_bytes_are_pinned` in
//! `tcp.rs`, `encodings_match_the_golden_bytes` in
//! `crates/dist/src/wire.rs`) and sweep truncations, byte flips and
//! random tails over every message (`truncated_payloads_are_rejected_not_panicked`
//! there, `crates/net/tests/wire_robustness.rs` over real sockets).

use std::fmt;

use ceh_obs::{SpanId, TraceCtx};
use ceh_types::bucket::Bucket;
use ceh_types::{crc32, BucketLink, Key, ManagerId, PageId, Pseudokey, Record, Value};

use crate::PortId;

/// First four bytes of every frame.
pub const WIRE_MAGIC: u32 = 0xCE11_F7A3;

/// Current wire-format version. Bump on any incompatible layout change;
/// receivers reject other versions rather than guessing.
pub const WIRE_VERSION: u8 = 2;

/// Frame header bytes on the wire.
pub const FRAME_HEADER_BYTES: usize = 16;

/// Upper bound on a frame payload. Generous for the Figure 10–14
/// message set (the largest message ships one bucket of records); a
/// header claiming more than this is rejected as corrupt before any
/// allocation happens.
pub const MAX_FRAME_PAYLOAD: usize = 1 << 20;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Connection handshake: the sender's node id plus its current name
    /// bindings. First frame on every connection, both directions.
    Hello,
    /// One name binding (`name → port`), broadcast on registration so
    /// every connected peer can resolve it locally.
    Bind,
    /// One application message: `[to: u64][WireMsg payload]`.
    Msg,
    /// Heartbeat probe (liveness, sent on idle links).
    Ping,
    /// Heartbeat answer.
    Pong,
    /// Orderly goodbye: the peer is closing this connection on purpose
    /// (process shutdown), so the supervisor should not treat the close
    /// as a failure.
    Bye,
}

impl FrameKind {
    fn to_u8(self) -> u8 {
        match self {
            FrameKind::Hello => 1,
            FrameKind::Bind => 2,
            FrameKind::Msg => 3,
            FrameKind::Ping => 4,
            FrameKind::Pong => 5,
            FrameKind::Bye => 6,
        }
    }

    fn from_u8(b: u8) -> Option<FrameKind> {
        Some(match b {
            1 => FrameKind::Hello,
            2 => FrameKind::Bind,
            3 => FrameKind::Msg,
            4 => FrameKind::Ping,
            5 => FrameKind::Pong,
            6 => FrameKind::Bye,
            _ => return None,
        })
    }
}

/// Why a frame (or a message inside one) was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first header bytes are not [`WIRE_MAGIC`]: the stream is not
    /// at a frame boundary (or the peer speaks something else entirely).
    BadMagic(u32),
    /// The peer speaks a different wire-format version.
    BadVersion(u8),
    /// Unknown [`FrameKind`] discriminant.
    BadKind(u8),
    /// The header's payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversize(usize),
    /// The payload failed its CRC — bits rotted in flight.
    BadCrc {
        /// CRC the header promised.
        expected: u32,
        /// CRC of the payload as received.
        got: u32,
    },
    /// The payload ended before the message did (a truncated or
    /// internally inconsistent encoding).
    Truncated,
    /// Structurally well-formed bytes that decode to nonsense (unknown
    /// message tag, out-of-range enum discriminant, trailing garbage).
    Malformed(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#010x}"),
            WireError::BadVersion(v) => {
                write!(f, "wire version {v} (speaking {WIRE_VERSION})")
            }
            WireError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            WireError::Oversize(n) => {
                write!(f, "frame payload of {n} bytes exceeds {MAX_FRAME_PAYLOAD}")
            }
            WireError::BadCrc { expected, got } => {
                write!(
                    f,
                    "payload crc {got:#010x}, header promised {expected:#010x}"
                )
            }
            WireError::Truncated => write!(f, "payload truncated mid-message"),
            WireError::Malformed(what) => write!(f, "malformed payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A decoded frame header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameHeader {
    /// What the payload is.
    pub kind: FrameKind,
    /// Payload length in bytes (already bounds-checked).
    pub len: usize,
    /// CRC32 the payload must match.
    pub crc: u32,
}

/// Encode one frame (header + payload) into a fresh buffer.
pub fn encode_frame(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    debug_assert!(payload.len() <= MAX_FRAME_PAYLOAD);
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&WIRE_MAGIC.to_le_bytes());
    out.push(WIRE_VERSION);
    out.push(kind.to_u8());
    out.extend_from_slice(&0u16.to_le_bytes()); // reserved
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Validate and decode a frame header. The payload is *not* yet
/// validated — read `len` more bytes, then call [`check_payload`].
pub fn decode_header(bytes: &[u8; FRAME_HEADER_BYTES]) -> Result<FrameHeader, WireError> {
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    if magic != WIRE_MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if bytes[4] != WIRE_VERSION {
        return Err(WireError::BadVersion(bytes[4]));
    }
    let kind = FrameKind::from_u8(bytes[5]).ok_or(WireError::BadKind(bytes[5]))?;
    let len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    if len > MAX_FRAME_PAYLOAD {
        return Err(WireError::Oversize(len));
    }
    let crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4 bytes"));
    Ok(FrameHeader { kind, len, crc })
}

/// Verify a received payload against its header's CRC.
pub fn check_payload(header: &FrameHeader, payload: &[u8]) -> Result<(), WireError> {
    let got = crc32(payload);
    if got != header.crc {
        return Err(WireError::BadCrc {
            expected: header.crc,
            got,
        });
    }
    Ok(())
}

/// Append-only byte cursor that [`Wire::put`] writes to.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// A fresh writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Take the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Append one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a little-endian u32.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }

    /// Append a bool as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(v as u8);
    }
}

/// Bounds-checked read cursor that [`Wire::get`] reads from. Every
/// read returns [`WireError::Truncated`] instead of slicing out of
/// bounds, so decoders are panic-free on hostile input by construction.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> WireReader<'a> {
    /// Read from `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        WireReader { buf: bytes, at: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.at.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian u32.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Read a little-endian u64.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str, WireError> {
        let n = self.u32()? as usize;
        std::str::from_utf8(self.take(n)?).map_err(|_| WireError::Malformed("non-utf8 string"))
    }

    /// Read a bool (strictly 0 or 1; anything else is malformed).
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool out of range")),
        }
    }

    /// A length prefix for a sequence whose elements take at least
    /// `min_elem_bytes` each; rejects prefixes that could not possibly
    /// fit in the remaining payload, so a corrupt length cannot drive a
    /// huge allocation.
    pub fn seq_len(&mut self, min_elem_bytes: usize) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        let remaining = self.buf.len() - self.at;
        if n.saturating_mul(min_elem_bytes.max(1)) > remaining {
            return Err(WireError::Truncated);
        }
        Ok(n)
    }

    /// All input consumed? (Frames carry exactly one message.)
    pub fn finish(self) -> Result<(), WireError> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(WireError::Malformed("trailing bytes after message"))
        }
    }
}

/// A value with one wire layout. `put` and `get` are exact inverses;
/// the layout of a struct or enum is its [`wire!`](crate::wire!) list.
///
/// Decoding is strict: a bool or presence byte other than 0 or 1, an
/// unknown tag, a non-UTF-8 string or an impossible count is an error,
/// so every value has exactly one encoding. The golden-bytes and
/// mutation-sweep tests in `crates/dist/src/wire.rs` hold the real
/// `ceh_dist::Msg` set to that, and the fuzz tests in
/// `crates/net/tests/wire_robustness.rs` hold decoding to never
/// panicking on arbitrary bytes.
pub trait Wire: Sized {
    /// The fewest bytes any encoding takes: [`WireReader::seq_len`]
    /// rejects a count that could not fit before anything is allocated.
    const MIN_BYTES: usize;

    /// Append this value's encoding.
    fn put(&self, w: &mut WireWriter);

    /// Read one value.
    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// A message that travels as one frame payload: every [`Wire`] type.
/// The framing above is payload-agnostic.
pub trait WireMsg: Sized {
    /// Append this message's encoding to `w`.
    fn wire_encode(&self, w: &mut WireWriter);

    /// Decode one message from exactly `bytes` (trailing bytes are an
    /// error — frames carry one message each).
    fn wire_decode(bytes: &[u8]) -> Result<Self, WireError>;

    /// This message's encoding, in a fresh buffer.
    fn wire_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.wire_encode(&mut w);
        w.into_bytes()
    }
}

impl<T: Wire> WireMsg for T {
    fn wire_encode(&self, w: &mut WireWriter) {
        self.put(w);
    }

    fn wire_decode(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = T::get(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Derive [`Wire`] from one field list, in wire order:
///
/// * `wire!(T(Inner))` — a newtype, encoded as its inner value;
/// * `wire!(T { a, b })` — a struct, its fields one after another;
/// * `wire!(T { 1 => A { a, b }, 2 => B(x), 3 => C })` — an enum: one
///   tag byte, then the variant's fields. An unknown tag is
///   [`WireError::Malformed`].
///
/// Every field's type must be [`Wire`]. A struct's list must name all
/// its fields (the constructor does not compile otherwise); their order
/// is the layout.
///
/// ```
/// use ceh_net::wire::{WireMsg, WireWriter};
///
/// #[derive(Debug, PartialEq)]
/// struct Note {
///     seq: u64,
///     text: Option<String>,
/// }
/// ceh_net::wire!(Note { seq, text });
///
/// let note = Note { seq: 7, text: Some("hi".into()) };
/// let mut w = WireWriter::new();
/// note.wire_encode(&mut w);
/// let bytes = w.into_bytes();
/// assert_eq!(bytes.len(), 8 + 1 + 4 + 2);
/// assert_eq!(Note::wire_decode(&bytes), Ok(note));
/// ```
#[macro_export]
macro_rules! wire {
    ($t:ident($inner:ty)) => {
        impl $crate::wire::Wire for $t {
            const MIN_BYTES: usize = <$inner as $crate::wire::Wire>::MIN_BYTES;

            fn put(&self, w: &mut $crate::wire::WireWriter) {
                $crate::wire::Wire::put(&self.0, w);
            }

            fn get(r: &mut $crate::wire::WireReader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok(Self($crate::wire::Wire::get(r)?))
            }
        }
    };
    ($t:ident { $($tag:literal => $v:ident $({ $($f:ident),* })? $(($($x:ident),*))?),+ $(,)? }) => {
        impl $crate::wire::Wire for $t {
            const MIN_BYTES: usize = 1;

            fn put(&self, w: &mut $crate::wire::WireWriter) {
                match self {
                    $(Self::$v $({ $($f),* })? $(($($x),*))? => {
                        w.u8($tag);
                        $($($crate::wire::Wire::put($f, w);)*)?
                        $($($crate::wire::Wire::put($x, w);)*)?
                    })+
                }
            }

            fn get(r: &mut $crate::wire::WireReader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok(match r.u8()? {
                    $($tag => {
                        $($(let $f = $crate::wire::Wire::get(r)?;)*)?
                        $($(let $x = $crate::wire::Wire::get(r)?;)*)?
                        Self::$v $({ $($f),* })? $(($($x),*))?
                    })+
                    _ => {
                        return Err($crate::wire::WireError::Malformed(concat!(
                            "unknown ",
                            stringify!($t),
                            " tag"
                        )))
                    }
                })
            }
        }
    };
    ($t:ident { $($f:ident),+ $(,)? }) => {
        impl $crate::wire::Wire for $t {
            const MIN_BYTES: usize = 0 $(+ $crate::wire::min_bytes_of(|s: &Self| &s.$f))+;

            fn put(&self, w: &mut $crate::wire::WireWriter) {
                $($crate::wire::Wire::put(&self.$f, w);)+
            }

            fn get(r: &mut $crate::wire::WireReader<'_>) -> Result<Self, $crate::wire::WireError> {
                Ok(Self { $($f: $crate::wire::Wire::get(r)?),+ })
            }
        }
    };
}

/// [`Wire::MIN_BYTES`] of the field `field` projects out of `S`: lets a
/// [`wire!`](crate::wire!) struct list name its fields without their types.
#[doc(hidden)]
pub const fn min_bytes_of<S, F: Wire>(_field: fn(&S) -> &F) -> usize {
    F::MIN_BYTES
}

macro_rules! scalars {
    ($($t:ident, $bytes:expr;)+) => {$(
        impl Wire for $t {
            const MIN_BYTES: usize = $bytes;

            fn put(&self, w: &mut WireWriter) {
                w.$t(*self);
            }

            fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                r.$t()
            }
        }
    )+};
}

scalars! {
    u32, 4;
    u64, 8;
    bool, 1;
}

/// A `usize` travels as a `u64`.
impl Wire for usize {
    const MIN_BYTES: usize = 8;

    fn put(&self, w: &mut WireWriter) {
        w.u64(*self as u64);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        usize::try_from(r.u64()?).map_err(|_| WireError::Malformed("usize out of range"))
    }
}

impl Wire for String {
    const MIN_BYTES: usize = 4;

    fn put(&self, w: &mut WireWriter) {
        w.str(self);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.str().map(str::to_owned)
    }
}

/// A `u32` count, then the elements.
impl<T: Wire> Wire for Vec<T> {
    const MIN_BYTES: usize = 4;

    fn put(&self, w: &mut WireWriter) {
        w.u32(self.len() as u32);
        for v in self {
            v.put(w);
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let n = r.seq_len(T::MIN_BYTES)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

/// A presence byte (strictly 0 or 1), then the value if present.
impl<T: Wire> Wire for Option<T> {
    const MIN_BYTES: usize = 1;

    fn put(&self, w: &mut WireWriter) {
        w.bool(self.is_some());
        if let Some(v) = self {
            v.put(w);
        }
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(if r.bool()? { Some(T::get(r)?) } else { None })
    }
}

impl<T: Wire> Wire for Box<T> {
    const MIN_BYTES: usize = T::MIN_BYTES;

    fn put(&self, w: &mut WireWriter) {
        (**self).put(w);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        T::get(r).map(Box::new)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;

    fn put(&self, w: &mut WireWriter) {
        self.0.put(w);
        self.1.put(w);
    }

    fn get(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

// The shared vocabulary of every message.
wire!(Key(u64));
wire!(Value(u64));
wire!(PageId(u64));
wire!(ManagerId(u32));
wire!(Pseudokey(u64));
wire!(PortId(u64));
wire!(SpanId(u64));
wire!(TraceCtx {
    trace_id,
    parent_span
});
wire!(Record { key, value });
wire!(BucketLink { manager, page });
wire!(Bucket {
    localdepth,
    commonbits,
    next,
    next_mgr,
    prev,
    prev_mgr,
    version,
    records
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Same vectors the storage WAL pins — one checksum, one answer.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frame_roundtrip() {
        let payload = b"hello, figure 11";
        let frame = encode_frame(FrameKind::Msg, payload);
        assert_eq!(frame.len(), FRAME_HEADER_BYTES + payload.len());
        let header = decode_header(frame[..FRAME_HEADER_BYTES].try_into().unwrap()).unwrap();
        assert_eq!(header.kind, FrameKind::Msg);
        assert_eq!(header.len, payload.len());
        check_payload(&header, &frame[FRAME_HEADER_BYTES..]).unwrap();
    }

    #[test]
    fn header_rejections() {
        let frame = encode_frame(FrameKind::Ping, b"");
        let mut h: [u8; FRAME_HEADER_BYTES] = frame[..FRAME_HEADER_BYTES].try_into().unwrap();

        let mut bad = h;
        bad[0] ^= 0xFF;
        assert!(matches!(decode_header(&bad), Err(WireError::BadMagic(_))));

        let mut bad = h;
        bad[4] = WIRE_VERSION + 1;
        assert_eq!(
            decode_header(&bad),
            Err(WireError::BadVersion(WIRE_VERSION + 1))
        );

        let mut bad = h;
        bad[5] = 99;
        assert_eq!(decode_header(&bad), Err(WireError::BadKind(99)));

        h[8..12].copy_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        assert!(matches!(decode_header(&h), Err(WireError::Oversize(_))));
    }

    #[test]
    fn garbled_payload_fails_crc() {
        let frame = encode_frame(FrameKind::Msg, b"payload bytes");
        let header = decode_header(frame[..FRAME_HEADER_BYTES].try_into().unwrap()).unwrap();
        let mut payload = frame[FRAME_HEADER_BYTES..].to_vec();
        payload[3] ^= 0x40;
        assert!(matches!(
            check_payload(&header, &payload),
            Err(WireError::BadCrc { .. })
        ));
    }

    #[test]
    fn reader_is_bounds_checked() {
        let mut w = WireWriter::new();
        w.u64(7);
        w.str("abc");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.u64().unwrap(), 7);
        assert_eq!(r.str().unwrap(), "abc");
        assert_eq!(r.u8(), Err(WireError::Truncated), "past the end");

        // A sequence length that cannot fit is rejected up front.
        let mut w = WireWriter::new();
        w.u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.seq_len(8), Err(WireError::Truncated));

        // Trailing bytes are an error.
        let mut w = WireWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        r.u8().unwrap();
        assert!(matches!(r.finish(), Err(WireError::Malformed(_))));
    }

    #[test]
    fn derived_layouts_are_their_field_lists() {
        // Minimum sizes sum the fields', so `seq_len` bounds counts tightly.
        assert_eq!(Record::MIN_BYTES, 16);
        assert_eq!(BucketLink::MIN_BYTES, 12);
        assert_eq!(TraceCtx::MIN_BYTES, 16);
        assert_eq!(Bucket::MIN_BYTES, 48);
        assert_eq!(<(String, PortId)>::MIN_BYTES, 12);

        let mut b = Bucket::new(2, 0b01);
        b.next = PageId(5);
        b.records.push(Record {
            key: Key(9),
            value: Value(10),
        });
        let bytes = Some(Box::new(b.clone())).wire_bytes();
        assert_eq!(bytes.len(), 1 + 48 + 16);
        assert_eq!(
            Option::<Box<Bucket>>::wire_decode(&bytes),
            Ok(Some(Box::new(b)))
        );

        // Presence bytes are bools: strictly 0 or 1.
        assert_eq!(
            Option::<u64>::wire_decode(&[2]),
            Err(WireError::Malformed("bool out of range"))
        );
        assert_eq!(
            String::wire_decode(&[1, 0, 0, 0, 0xFF]),
            Err(WireError::Malformed("non-utf8 string"))
        );
    }
}
