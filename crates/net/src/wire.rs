//! The compact varint binary value encoding — the one format every
//! message of the stack travels in ([`crate::node::Node`] encodes with
//! it).
//!
//! A type travels by implementing [`Wire`]: `encode` appends the value's
//! bytes to a `Vec<u8>` and `decode` reads them back off the front of a
//! byte cursor. Every sink is a `Vec<u8>` (a pooled scratch buffer, a
//! sealed-frame buffer, [`to_bytes`]), so encoding cannot fail. The impls
//! are written by hand, field by field, so the layout of each message is
//! exactly what its impl says; `docs/WIRE.md` §5 tables it per type.
//!
//! # Wire format specification (value encoding v2, wire v4)
//!
//! This module specifies the *value encoding* (how a value becomes
//! bytes). The *envelope* those bytes travel in — chunked frames sealed
//! per direction, **wire format v4**: `session ‖ nonce ‖ ciphertext ‖
//! tag`, with the authenticated [`crate::transport::SessionId`] stamp
//! that multiplexes many sessions over one mesh — is specified in
//! [`crate::frame`]'s module docs.
//!
//! The format is non-self-describing: nothing is aligned, padded or
//! tagged with a type; values are concatenated in field/element order.
//! Unsigned integers use **LEB128 varints** (7 value bits per byte, low
//! groups first, high bit = continuation, max 10 bytes for `u64`).
//!
//! | shape | encoding |
//! |---|---|
//! | `bool` | 1 byte: `0x00` false, `0x01` true (other values reject) |
//! | `u32`/`u64`/`usize` | LEB128 varint (values out of the type's range reject) |
//! | `f64` | IEEE-754 bits, 8 bytes little-endian |
//! | `String` | varint byte length ‖ UTF-8 bytes |
//! | `Option<T>` | 1 byte tag (`0x00` none / `0x01` some) ‖ value if some |
//! | `Vec<T>` | varint element count ‖ elements |
//! | `(A, B)` / struct | fields in declaration order, no count |
//! | newtype ([`PartyId`], [`SessionId`]) | the inner value |
//! | enum | varint variant index ‖ the variant's fields |
//!
//! Every encoding is at least one byte long, so a decoded element count
//! can never legitimately exceed the input remaining: pre-allocation is
//! bounded by the input, not by the count a peer claims.
//!
//! Decoding requires the input to be **fully consumed**; trailing bytes
//! are an error ([`WireError::TrailingBytes`]), truncated input is
//! [`WireError::UnexpectedEof`], a malformed encoding (bad tag, bad
//! UTF-8, varint overflow) is [`WireError::InvalidEncoding`], and a
//! well-formed value that breaks its type's invariants (a matrix whose
//! data does not fill its shape, …) is [`WireError::InvalidValue`]. This
//! makes the format suitable for the framing layer's length-delimited
//! chunks: any split or corruption is caught at the first decode.
//!
//! # Example
//!
//! ```
//! use sap_net::wire::{self, Wire, WireError};
//!
//! #[derive(PartialEq, Debug)]
//! struct Ping { seq: u64, note: String }
//!
//! impl Wire for Ping {
//!     fn encode(&self, out: &mut Vec<u8>) {
//!         self.seq.encode(out);
//!         self.note.encode(out);
//!     }
//!     fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
//!         Ok(Ping { seq: u64::decode(input)?, note: String::decode(input)? })
//!     }
//! }
//!
//! let msg = Ping { seq: 7, note: "hello".into() };
//! let bytes = wire::to_bytes(&msg);
//! assert_eq!(bytes.len(), 1 + 1 + 5); // varint seq ‖ varint len ‖ "hello"
//! let back: Ping = wire::from_bytes(&bytes).unwrap();
//! assert_eq!(back, msg);
//! ```

use crate::transport::{PartyId, SessionId};
use std::fmt;

/// Errors produced by the wire codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// Trailing bytes after a complete value.
    TrailingBytes,
    /// An invalid encoding was encountered (bad bool/option/variant tag,
    /// bad UTF-8, varint overflow or out of the target type's range).
    InvalidEncoding(&'static str),
    /// The bytes are well formed but describe a value that breaks its
    /// type's invariants (e.g. a non-square rotation).
    InvalidValue(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::TrailingBytes => write!(f, "trailing bytes after value"),
            WireError::InvalidEncoding(what) => write!(f, "invalid encoding: {what}"),
            WireError::InvalidValue(what) => write!(f, "invalid value: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// A value with a wire encoding.
///
/// Implementations write fields in declaration order and read them back
/// in the same order; `decode` of what `encode` wrote returns an equal
/// value and consumes exactly those bytes.
pub trait Wire: Sized {
    /// Appends this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Reads one value off the front of `input`, advancing it past the
    /// consumed bytes.
    ///
    /// # Errors
    ///
    /// [`WireError`] on truncated, malformed or invalid input.
    fn decode(input: &mut &[u8]) -> Result<Self, WireError>;
}

/// Maximum encoded size of a `u64` LEB128 varint.
pub const MAX_UVARINT_LEN: usize = 10;

/// Appends the LEB128 varint encoding of `v` to a byte vector — the
/// integer encoding of both the value codec and the framing layer's
/// packed headers.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads a LEB128 varint from the front of `input`, advancing it past the
/// consumed bytes.
///
/// # Errors
///
/// [`WireError::UnexpectedEof`] when the input ends mid-varint;
/// [`WireError::InvalidEncoding`] when the value overflows 64 bits.
pub fn read_uvarint(input: &mut &[u8]) -> Result<u64, WireError> {
    let mut v = 0u64;
    for i in 0..MAX_UVARINT_LEN {
        let Some(&byte) = input.get(i) else {
            return Err(WireError::UnexpectedEof);
        };
        if i == MAX_UVARINT_LEN - 1 && byte > 1 {
            // Tenth byte may only carry bit 63 and no continuation.
            return Err(WireError::InvalidEncoding("varint overflow"));
        }
        v |= u64::from(byte & 0x7F) << (7 * i);
        if byte & 0x80 == 0 {
            *input = &input[i + 1..];
            return Ok(v);
        }
    }
    Err(WireError::InvalidEncoding("varint too long"))
}

/// Encodes a value into a fresh byte vector.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::new();
    value.encode(&mut out);
    out
}

/// Decodes a value from bytes, requiring the input to be fully consumed.
///
/// # Errors
///
/// Returns [`WireError`] on malformed, invalid or trailing input.
pub fn from_bytes<T: Wire>(mut bytes: &[u8]) -> Result<T, WireError> {
    let value = T::decode(&mut bytes)?;
    if !bytes.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok(value)
}

/// Encodes a sequence as `Vec<T>` does, with `each` encoding one element
/// — for elements that travel but cannot implement [`Wire`] here.
pub fn encode_seq<T>(items: &[T], out: &mut Vec<u8>, mut each: impl FnMut(&T, &mut Vec<u8>)) {
    put_uvarint(out, items.len() as u64);
    for item in items {
        each(item, out);
    }
}

/// Decodes a sequence written by [`encode_seq`], with `each` decoding
/// one element. Capacity is reserved for at most as many elements as
/// bytes remain, whatever count the input claims.
///
/// # Errors
///
/// As [`Wire::decode`], plus any error `each` returns.
pub fn decode_seq<T>(
    input: &mut &[u8],
    mut each: impl FnMut(&mut &[u8]) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let count = usize::decode(input)?;
    let mut items = Vec::with_capacity(count.min(input.len()));
    for _ in 0..count {
        items.push(each(input)?);
    }
    Ok(items)
}

fn take_byte(input: &mut &[u8]) -> Result<u8, WireError> {
    let (&byte, rest) = input.split_first().ok_or(WireError::UnexpectedEof)?;
    *input = rest;
    Ok(byte)
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match take_byte(input)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::InvalidEncoding("bool tag")),
        }
    }
}

impl Wire for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        put_uvarint(out, *self);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        read_uvarint(input)
    }
}

macro_rules! narrow_varint {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn encode(&self, out: &mut Vec<u8>) {
                put_uvarint(out, *self as u64);
            }

            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                <$ty>::try_from(read_uvarint(input)?)
                    .map_err(|_| WireError::InvalidEncoding("varint range"))
            }
        }
    )*};
}

narrow_varint!(u32, usize);

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let (bytes, rest) = input
            .split_first_chunk::<8>()
            .ok_or(WireError::UnexpectedEof)?;
        *input = rest;
        Ok(f64::from_le_bytes(*bytes))
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        put_uvarint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = usize::decode(input)?;
        if input.len() < len {
            return Err(WireError::UnexpectedEof);
        }
        let (raw, rest) = input.split_at(len);
        *input = rest;
        let text = std::str::from_utf8(raw).map_err(|_| WireError::InvalidEncoding("utf-8"))?;
        Ok(text.to_owned())
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(value) => {
                out.push(1);
                value.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match take_byte(input)? {
            0 => Ok(None),
            1 => T::decode(input).map(Some),
            _ => Err(WireError::InvalidEncoding("option tag")),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self, out, T::encode);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        decode_seq(input, T::decode)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

impl Wire for PartyId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        u64::decode(input).map(PartyId)
    }
}

impl Wire for SessionId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        u64::decode(input).map(SessionId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + fmt::Debug>(v: T) {
        let bytes = to_bytes(&v);
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(true);
        roundtrip(false);
        roundtrip(4_000_000_000u32);
        roundtrip(u64::MAX);
        roundtrip(usize::MAX);
        roundtrip(-0.123456789f64);
        roundtrip(f64::NEG_INFINITY);
        roundtrip(PartyId(3));
        roundtrip(SessionId(u64::MAX));
        roundtrip(String::from("hello, wire λ"));
        roundtrip(String::new());
    }

    #[test]
    fn collections_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<f64>::new());
        roundtrip(vec![vec![1.0f64, 2.0], vec![]]);
        roundtrip((1u64, (String::from("x"), 2.5f64)));
        roundtrip(vec![(PartyId(1), true), (PartyId(2), false)]);
    }

    #[test]
    fn options_roundtrip() {
        roundtrip(Option::<u32>::None);
        roundtrip(Some(99u32));
        roundtrip(Some(String::from("inner")));
        roundtrip(vec![Some(1u64), None, Some(3)]);
    }

    #[derive(PartialEq, Debug)]
    struct Nested {
        id: u64,
        name: String,
        values: Vec<f64>,
        flag: Option<bool>,
    }

    impl Wire for Nested {
        fn encode(&self, out: &mut Vec<u8>) {
            self.id.encode(out);
            self.name.encode(out);
            self.values.encode(out);
            self.flag.encode(out);
        }

        fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
            Ok(Nested {
                id: u64::decode(input)?,
                name: String::decode(input)?,
                values: Vec::decode(input)?,
                flag: Option::decode(input)?,
            })
        }
    }

    #[derive(PartialEq, Debug)]
    enum Msg {
        Ping,
        Data { payload: Vec<u32>, crc: u32 },
        Wrapped(Nested),
    }

    impl Wire for Msg {
        fn encode(&self, out: &mut Vec<u8>) {
            match self {
                Msg::Ping => put_uvarint(out, 0),
                Msg::Data { payload, crc } => {
                    put_uvarint(out, 1);
                    payload.encode(out);
                    crc.encode(out);
                }
                Msg::Wrapped(inner) => {
                    put_uvarint(out, 2);
                    inner.encode(out);
                }
            }
        }

        fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
            Ok(match read_uvarint(input)? {
                0 => Msg::Ping,
                1 => Msg::Data {
                    payload: Vec::decode(input)?,
                    crc: u32::decode(input)?,
                },
                2 => Msg::Wrapped(Nested::decode(input)?),
                _ => return Err(WireError::InvalidEncoding("variant tag")),
            })
        }
    }

    #[test]
    fn structs_roundtrip() {
        roundtrip(Nested {
            id: 7,
            name: "party-3".into(),
            values: vec![0.1, 0.2],
            flag: Some(true),
        });
    }

    #[test]
    fn enums_roundtrip() {
        roundtrip(Msg::Ping);
        roundtrip(Msg::Data {
            payload: vec![1, 2, 3],
            crc: 0xDEAD,
        });
        roundtrip(Msg::Wrapped(Nested {
            id: 1,
            name: String::new(),
            values: vec![],
            flag: None,
        }));
        assert!(matches!(
            from_bytes::<Msg>(&[3]).unwrap_err(),
            WireError::InvalidEncoding(_)
        ));
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = to_bytes(&u64::MAX);
        assert_eq!(bytes.len(), 10);
        let short = &bytes[..4];
        assert_eq!(
            from_bytes::<u64>(short).unwrap_err(),
            WireError::UnexpectedEof
        );
        assert_eq!(
            from_bytes::<f64>(&[0; 7]).unwrap_err(),
            WireError::UnexpectedEof
        );
        // A string claiming more bytes than remain.
        assert_eq!(
            from_bytes::<String>(&[5, b'a']).unwrap_err(),
            WireError::UnexpectedEof
        );
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = to_bytes(&1u32);
        bytes.push(0);
        assert_eq!(
            from_bytes::<u32>(&bytes).unwrap_err(),
            WireError::TrailingBytes
        );
    }

    #[test]
    fn bad_bool_tag_errors() {
        assert!(matches!(
            from_bytes::<bool>(&[7]).unwrap_err(),
            WireError::InvalidEncoding(_)
        ));
        assert!(matches!(
            from_bytes::<Option<u32>>(&[2, 0]).unwrap_err(),
            WireError::InvalidEncoding(_)
        ));
    }

    #[test]
    fn bad_utf8_errors() {
        let bytes = vec![2u8, 0xFF, 0xFE];
        assert!(matches!(
            from_bytes::<String>(&bytes).unwrap_err(),
            WireError::InvalidEncoding(_)
        ));
    }

    #[test]
    fn encoding_is_compact() {
        // Small unsigned ints are a single byte; a 3-element vec of u32 is
        // 1 (varint len) + 3; floats stay fixed width.
        assert_eq!(to_bytes(&0u64).len(), 1);
        assert_eq!(to_bytes(&127u64).len(), 1);
        assert_eq!(to_bytes(&128u64).len(), 2);
        assert_eq!(to_bytes(&vec![1u32, 2, 3]).len(), 4);
        assert_eq!(to_bytes(&1.0f64).len(), 8);
        assert_eq!(to_bytes(&(true, false)), vec![1, 0]);
    }

    #[test]
    fn narrow_integers_reject_out_of_range_varints() {
        let wide = to_bytes(&(u64::from(u32::MAX) + 1));
        assert!(matches!(
            from_bytes::<u32>(&wide).unwrap_err(),
            WireError::InvalidEncoding(_)
        ));
    }

    #[test]
    fn hostile_counts_do_not_preallocate() {
        // A vector claiming u64::MAX elements over two bytes of input must
        // fail on the missing elements, not on a giant reservation.
        let mut bytes = Vec::new();
        put_uvarint(&mut bytes, u64::MAX);
        bytes.extend_from_slice(&[1, 0]);
        assert_eq!(
            from_bytes::<Vec<bool>>(&bytes).unwrap_err(),
            WireError::UnexpectedEof
        );
    }

    #[test]
    fn varint_boundaries() {
        for (v, len) in [
            (0u64, 1),
            (127, 1),
            (128, 2),
            ((1 << 14) - 1, 2),
            (1 << 14, 3),
            (u64::MAX, 10),
        ] {
            let mut out = Vec::new();
            put_uvarint(&mut out, v);
            assert_eq!(out.len(), len, "encoded length of {v}");
            let mut input = out.as_slice();
            assert_eq!(read_uvarint(&mut input).unwrap(), v);
            assert!(input.is_empty());
        }
    }

    #[test]
    fn varint_overflow_rejects() {
        // 11 continuation bytes: too long.
        let long = [0x80u8; 11];
        assert!(matches!(
            read_uvarint(&mut &long[..]).unwrap_err(),
            WireError::InvalidEncoding(_)
        ));
        // Tenth byte carrying more than bit 63: overflow.
        let mut over = [0x80u8; 10];
        over[9] = 0x02;
        assert!(matches!(
            read_uvarint(&mut &over[..]).unwrap_err(),
            WireError::InvalidEncoding(_)
        ));
        // Truncated mid-varint: EOF.
        let cut = [0x80u8; 3];
        assert_eq!(
            read_uvarint(&mut &cut[..]).unwrap_err(),
            WireError::UnexpectedEof
        );
    }

    #[test]
    fn encode_appends_like_to_bytes() {
        let value = Nested {
            id: 300,
            name: "sink".into(),
            values: vec![1.0, 2.0, 3.0],
            flag: None,
        };
        let mut sink = vec![0xAA];
        value.encode(&mut sink);
        assert_eq!(sink[0], 0xAA, "encode appends, never clears");
        assert_eq!(sink[1..], to_bytes(&value)[..]);
    }
}
