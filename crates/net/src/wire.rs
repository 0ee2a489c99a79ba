//! A compact varint binary serde codec — the one format every message
//! of the stack travels in ([`crate::node::Node`] encodes with it).
//!
//! The offline dependency set includes `serde` but no serde *format*
//! crate, so the wire format is implemented here: a non-self-describing
//! little-endian encoding in the spirit of `bincode`. Because the format
//! is non-self-describing, `deserialize_any` is unsupported — which is
//! fine for the derive-generated message types the protocol exchanges.
//!
//! # Wire format specification (value encoding v2, wire v4)
//!
//! This module specifies the *value encoding* (how a serde value becomes
//! bytes). The *envelope* those bytes travel in — chunked frames sealed
//! per direction, **wire format v4**: `session ‖ nonce ‖ ciphertext ‖
//! tag`, with the authenticated [`crate::transport::SessionId`] stamp
//! that multiplexes many sessions over one mesh — is specified in
//! [`crate::frame`]'s module docs.
//!
//! Encoding is generic over any [`std::io::Write`] sink, so values can be
//! serialized straight into a pooled socket buffer with no intermediate
//! `Vec` ([`to_writer`]); decoding reads from an in-memory cursor the
//! same way a `BufRead` front-end would hand out bytes. Nothing is
//! aligned or padded; values are concatenated in field/element order.
//!
//! Unsigned integers use **LEB128 varints** (7 value bits per byte,
//! little groups first, high bit = continuation, max 10 bytes for
//! `u64`); signed integers are **zigzag-mapped** (`(n << 1) ^ (n >> 63)`)
//! then varint-encoded so small negative values stay small on the wire.
//!
//! | data-model shape | encoding |
//! |---|---|
//! | `bool` | 1 byte: `0x00` false, `0x01` true (other values reject) |
//! | `u8`/`i8` | 1 raw byte |
//! | `u16`/`u32`/`u64`/`usize` | LEB128 varint |
//! | `i16`/`i32`/`i64`/`isize` | zigzag ‖ LEB128 varint |
//! | `f32`/`f64` | IEEE-754 bits, fixed-width LE |
//! | `char` | Unicode scalar as varint (invalid code points reject) |
//! | `str`/`String` | varint byte length ‖ UTF-8 bytes |
//! | bytes | varint length ‖ raw bytes |
//! | `Option<T>` | 1 byte tag (`0x00` none / `0x01` some) ‖ value if some |
//! | `()` / unit struct | zero bytes |
//! | sequence (`Vec`, slice) | varint element count ‖ elements |
//! | map | varint entry count ‖ (key ‖ value)\* |
//! | tuple / tuple struct / struct | fields in declaration order, no count |
//! | newtype struct | the inner value |
//! | enum variant | varint variant index ‖ payload (if any) |
//!
//! Decoding requires the input to be **fully consumed**; trailing bytes
//! are an error ([`WireError::TrailingBytes`]), truncated input is
//! [`WireError::UnexpectedEof`], and a varint that overflows its target
//! width rejects. This makes the format suitable for the framing layer's
//! length-delimited chunks: any split or corruption is caught at the
//! first decode.
//!
//! # Example
//!
//! ```
//! use serde::{Serialize, Deserialize};
//!
//! #[derive(Serialize, Deserialize, PartialEq, Debug)]
//! struct Ping { seq: u64, note: String }
//!
//! let msg = Ping { seq: 7, note: "hello".into() };
//! let bytes = sap_net::wire::to_bytes(&msg).unwrap();
//! assert_eq!(bytes.len(), 1 + 1 + 5); // varint seq ‖ varint len ‖ "hello"
//! let back: Ping = sap_net::wire::from_bytes(&bytes).unwrap();
//! assert_eq!(back, msg);
//! ```

use serde::de::{self, DeserializeOwned, Visitor};
use serde::ser::{self, Serialize};
use std::fmt;
use std::io::Write;

/// Errors produced by the wire codec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Custom message from serde.
    Message(String),
    /// Input ended before the value was complete.
    UnexpectedEof,
    /// Trailing bytes after a complete value.
    TrailingBytes,
    /// An invalid encoding was encountered (bad bool/option tag, bad UTF-8,
    /// bad char, varint overflow).
    InvalidEncoding(&'static str),
    /// The format is non-self-describing; `deserialize_any` is unsupported.
    NotSelfDescribing,
    /// Sequences must know their length up front.
    UnknownLength,
    /// The output sink reported an I/O error (impossible for in-memory
    /// buffers; surfaces when encoding straight into a writer).
    Io(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Message(m) => write!(f, "{m}"),
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::TrailingBytes => write!(f, "trailing bytes after value"),
            WireError::InvalidEncoding(what) => write!(f, "invalid encoding: {what}"),
            WireError::NotSelfDescribing => {
                write!(f, "wire format is not self-describing (deserialize_any)")
            }
            WireError::UnknownLength => write!(f, "sequence length must be known"),
            WireError::Io(m) => write!(f, "sink error: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.to_string())
    }
}

impl ser::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError::Message(msg.to_string())
    }
}

impl de::Error for WireError {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        WireError::Message(msg.to_string())
    }
}

// ---------------------------------------------------------------------------
// Varint primitives (shared with the framing layer and exercised directly
// by the property tests).
// ---------------------------------------------------------------------------

/// Maximum encoded size of a `u64` LEB128 varint.
pub const MAX_UVARINT_LEN: usize = 10;

/// Appends the LEB128 varint encoding of `v` to any `Write` sink.
///
/// # Errors
///
/// Propagates the sink's I/O error (infallible for `Vec<u8>`).
pub fn write_uvarint<W: Write>(out: &mut W, mut v: u64) -> std::io::Result<()> {
    let mut buf = [0u8; MAX_UVARINT_LEN];
    let mut n = 0;
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf[n] = byte;
            n += 1;
            break;
        }
        buf[n] = byte | 0x80;
        n += 1;
    }
    out.write_all(&buf[..n])
}

/// Appends the LEB128 varint encoding of `v` to a byte vector — the
/// infallible convenience form of [`write_uvarint`] the framing layer
/// uses when packing headers into pooled buffers.
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

/// Number of bytes [`write_uvarint`] emits for `v`.
pub fn uvarint_len(v: u64) -> usize {
    if v == 0 {
        1
    } else {
        (64 - v.leading_zeros() as usize).div_ceil(7)
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

/// Zigzag-maps a signed integer so small magnitudes (either sign) become
/// small unsigned varints: 0 → 0, -1 → 1, 1 → 2, -2 → 3, …
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Serializes a value to a fresh byte vector.
///
/// # Errors
///
/// Returns [`WireError`] for unserializable values (e.g. sequences of
/// unknown length).
pub fn to_bytes<T: Serialize>(value: &T) -> Result<Vec<u8>, WireError> {
    let mut out = Vec::new();
    to_writer(value, &mut out)?;
    Ok(out)
}

/// Serializes a value straight into any `Write` sink — a pooled frame
/// buffer, a socket buffer, a hasher — with no intermediate allocation.
///
/// # Errors
///
/// Returns [`WireError`] for unserializable values or sink I/O failures.
pub fn to_writer<T: Serialize, W: Write>(value: &T, out: &mut W) -> Result<(), WireError> {
    let mut ser = WireSerializer { out };
    value.serialize(&mut ser)
}

/// Deserializes a value from bytes, requiring the input to be fully
/// consumed.
///
/// # Errors
///
/// Returns [`WireError`] on malformed or trailing input.
pub fn from_bytes<T: DeserializeOwned>(bytes: &[u8]) -> Result<T, WireError> {
    let mut de = WireDeserializer { input: bytes };
    let value = T::deserialize(&mut de)?;
    if !de.input.is_empty() {
        return Err(WireError::TrailingBytes);
    }
    Ok(value)
}

struct WireSerializer<'w, W: Write> {
    out: &'w mut W,
}

impl<W: Write> WireSerializer<'_, W> {
    fn put(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.out.write_all(bytes)?;
        Ok(())
    }

    fn put_uvarint(&mut self, v: u64) -> Result<(), WireError> {
        write_uvarint(self.out, v)?;
        Ok(())
    }
}

impl<'a, 'w, W: Write> ser::Serializer for &'a mut WireSerializer<'w, W> {
    type Ok = ();
    type Error = WireError;
    type SerializeSeq = Compound<'a, 'w, W>;
    type SerializeTuple = Compound<'a, 'w, W>;
    type SerializeTupleStruct = Compound<'a, 'w, W>;
    type SerializeTupleVariant = Compound<'a, 'w, W>;
    type SerializeMap = Compound<'a, 'w, W>;
    type SerializeStruct = Compound<'a, 'w, W>;
    type SerializeStructVariant = Compound<'a, 'w, W>;

    fn serialize_bool(self, v: bool) -> Result<(), WireError> {
        self.put(&[u8::from(v)])
    }
    fn serialize_i8(self, v: i8) -> Result<(), WireError> {
        self.put(&v.to_le_bytes())
    }
    fn serialize_i16(self, v: i16) -> Result<(), WireError> {
        self.put_uvarint(zigzag(i64::from(v)))
    }
    fn serialize_i32(self, v: i32) -> Result<(), WireError> {
        self.put_uvarint(zigzag(i64::from(v)))
    }
    fn serialize_i64(self, v: i64) -> Result<(), WireError> {
        self.put_uvarint(zigzag(v))
    }
    fn serialize_u8(self, v: u8) -> Result<(), WireError> {
        self.put(&[v])
    }
    fn serialize_u16(self, v: u16) -> Result<(), WireError> {
        self.put_uvarint(u64::from(v))
    }
    fn serialize_u32(self, v: u32) -> Result<(), WireError> {
        self.put_uvarint(u64::from(v))
    }
    fn serialize_u64(self, v: u64) -> Result<(), WireError> {
        self.put_uvarint(v)
    }
    fn serialize_f32(self, v: f32) -> Result<(), WireError> {
        self.put(&v.to_le_bytes())
    }
    fn serialize_f64(self, v: f64) -> Result<(), WireError> {
        self.put(&v.to_le_bytes())
    }
    fn serialize_char(self, v: char) -> Result<(), WireError> {
        self.put_uvarint(u64::from(u32::from(v)))
    }
    fn serialize_str(self, v: &str) -> Result<(), WireError> {
        self.put_uvarint(v.len() as u64)?;
        self.put(v.as_bytes())
    }
    fn serialize_bytes(self, v: &[u8]) -> Result<(), WireError> {
        self.put_uvarint(v.len() as u64)?;
        self.put(v)
    }
    fn serialize_none(self) -> Result<(), WireError> {
        self.put(&[0])
    }
    fn serialize_some<T: ?Sized + Serialize>(self, value: &T) -> Result<(), WireError> {
        self.put(&[1])?;
        value.serialize(self)
    }
    fn serialize_unit(self) -> Result<(), WireError> {
        Ok(())
    }
    fn serialize_unit_struct(self, _name: &'static str) -> Result<(), WireError> {
        Ok(())
    }
    fn serialize_unit_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
    ) -> Result<(), WireError> {
        self.put_uvarint(u64::from(variant_index))
    }
    fn serialize_newtype_struct<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(self)
    }
    fn serialize_newtype_variant<T: ?Sized + Serialize>(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        self.put_uvarint(u64::from(variant_index))?;
        value.serialize(self)
    }
    fn serialize_seq(self, len: Option<usize>) -> Result<Compound<'a, 'w, W>, WireError> {
        let len = len.ok_or(WireError::UnknownLength)?;
        self.put_uvarint(len as u64)?;
        Ok(Compound { ser: self })
    }
    fn serialize_tuple(self, _len: usize) -> Result<Compound<'a, 'w, W>, WireError> {
        Ok(Compound { ser: self })
    }
    fn serialize_tuple_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Compound<'a, 'w, W>, WireError> {
        Ok(Compound { ser: self })
    }
    fn serialize_tuple_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a, 'w, W>, WireError> {
        self.put_uvarint(u64::from(variant_index))?;
        Ok(Compound { ser: self })
    }
    fn serialize_map(self, len: Option<usize>) -> Result<Compound<'a, 'w, W>, WireError> {
        let len = len.ok_or(WireError::UnknownLength)?;
        self.put_uvarint(len as u64)?;
        Ok(Compound { ser: self })
    }
    fn serialize_struct(
        self,
        _name: &'static str,
        _len: usize,
    ) -> Result<Compound<'a, 'w, W>, WireError> {
        Ok(Compound { ser: self })
    }
    fn serialize_struct_variant(
        self,
        _name: &'static str,
        variant_index: u32,
        _variant: &'static str,
        _len: usize,
    ) -> Result<Compound<'a, 'w, W>, WireError> {
        self.put_uvarint(u64::from(variant_index))?;
        Ok(Compound { ser: self })
    }
    fn is_human_readable(&self) -> bool {
        false
    }
}

/// Compound serializer shared by all length-known aggregates.
pub struct Compound<'a, 'w, W: Write> {
    ser: &'a mut WireSerializer<'w, W>,
}

macro_rules! impl_compound {
    ($trait:ident, $method:ident) => {
        impl<W: Write> ser::$trait for Compound<'_, '_, W> {
            type Ok = ();
            type Error = WireError;
            fn $method<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), WireError> {
                value.serialize(&mut *self.ser)
            }
            fn end(self) -> Result<(), WireError> {
                Ok(())
            }
        }
    };
}

impl_compound!(SerializeSeq, serialize_element);
impl_compound!(SerializeTuple, serialize_element);
impl_compound!(SerializeTupleStruct, serialize_field);
impl_compound!(SerializeTupleVariant, serialize_field);

impl<W: Write> ser::SerializeMap for Compound<'_, '_, W> {
    type Ok = ();
    type Error = WireError;
    fn serialize_key<T: ?Sized + Serialize>(&mut self, key: &T) -> Result<(), WireError> {
        key.serialize(&mut *self.ser)
    }
    fn serialize_value<T: ?Sized + Serialize>(&mut self, value: &T) -> Result<(), WireError> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl<W: Write> ser::SerializeStruct for Compound<'_, '_, W> {
    type Ok = ();
    type Error = WireError;
    fn serialize_field<T: ?Sized + Serialize>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

impl<W: Write> ser::SerializeStructVariant for Compound<'_, '_, W> {
    type Ok = ();
    type Error = WireError;
    fn serialize_field<T: ?Sized + Serialize>(
        &mut self,
        _key: &'static str,
        value: &T,
    ) -> Result<(), WireError> {
        value.serialize(&mut *self.ser)
    }
    fn end(self) -> Result<(), WireError> {
        Ok(())
    }
}

/// In-memory byte cursor the deserializer reads from — the `BufRead`-style
/// counterpart of the `Write` sink: `take` hands out a filled view and
/// consumes it in one step.
struct WireDeserializer<'de> {
    input: &'de [u8],
}

impl<'de> WireDeserializer<'de> {
    fn take(&mut self, n: usize) -> Result<&'de [u8], WireError> {
        if self.input.len() < n {
            return Err(WireError::UnexpectedEof);
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    fn get_uvarint(&mut self) -> Result<u64, WireError> {
        read_uvarint(&mut self.input)
    }

    fn get_len(&mut self) -> Result<usize, WireError> {
        let len = self.get_uvarint()?;
        usize::try_from(len).map_err(|_| WireError::InvalidEncoding("length overflow"))
    }
}

macro_rules! de_fixed {
    ($method:ident, $visit:ident, $ty:ty, $n:expr) => {
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
            let raw = self.take($n)?;
            visitor.$visit(<$ty>::from_le_bytes(raw.try_into().expect("fixed width")))
        }
    };
}

macro_rules! de_uvarint {
    ($method:ident, $visit:ident, $ty:ty) => {
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
            let v = self.get_uvarint()?;
            let v = <$ty>::try_from(v).map_err(|_| WireError::InvalidEncoding("varint range"))?;
            visitor.$visit(v)
        }
    };
}

macro_rules! de_ivarint {
    ($method:ident, $visit:ident, $ty:ty) => {
        fn $method<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
            let v = unzigzag(self.get_uvarint()?);
            let v = <$ty>::try_from(v).map_err(|_| WireError::InvalidEncoding("varint range"))?;
            visitor.$visit(v)
        }
    };
}

impl<'de> de::Deserializer<'de> for &mut WireDeserializer<'de> {
    type Error = WireError;

    fn deserialize_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError::NotSelfDescribing)
    }

    fn deserialize_bool<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take(1)?[0] {
            0 => visitor.visit_bool(false),
            1 => visitor.visit_bool(true),
            _ => Err(WireError::InvalidEncoding("bool tag")),
        }
    }

    de_fixed!(deserialize_i8, visit_i8, i8, 1);
    de_ivarint!(deserialize_i16, visit_i16, i16);
    de_ivarint!(deserialize_i32, visit_i32, i32);
    de_uvarint!(deserialize_u16, visit_u16, u16);
    de_uvarint!(deserialize_u32, visit_u32, u32);
    de_fixed!(deserialize_f32, visit_f32, f32, 4);
    de_fixed!(deserialize_f64, visit_f64, f64, 8);

    fn deserialize_i64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_i64(unzigzag(self.get_uvarint()?))
    }

    fn deserialize_u64<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let v = self.get_uvarint()?;
        visitor.visit_u64(v)
    }

    fn deserialize_u8<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_u8(self.take(1)?[0])
    }

    fn deserialize_char<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let code = self.get_uvarint()?;
        let code = u32::try_from(code).map_err(|_| WireError::InvalidEncoding("char"))?;
        let c = char::from_u32(code).ok_or(WireError::InvalidEncoding("char"))?;
        visitor.visit_char(c)
    }

    fn deserialize_str<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.get_len()?;
        let raw = self.take(len)?;
        let s = std::str::from_utf8(raw).map_err(|_| WireError::InvalidEncoding("utf-8"))?;
        visitor.visit_borrowed_str(s)
    }

    fn deserialize_string<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.deserialize_str(visitor)
    }

    fn deserialize_bytes<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.get_len()?;
        visitor.visit_borrowed_bytes(self.take(len)?)
    }

    fn deserialize_byte_buf<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        self.deserialize_bytes(visitor)
    }

    fn deserialize_option<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        match self.take(1)?[0] {
            0 => visitor.visit_none(),
            1 => visitor.visit_some(self),
            _ => Err(WireError::InvalidEncoding("option tag")),
        }
    }

    fn deserialize_unit<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        visitor.visit_unit()
    }

    fn deserialize_unit_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_unit()
    }

    fn deserialize_newtype_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_newtype_struct(self)
    }

    fn deserialize_seq<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.get_len()?;
        visitor.visit_seq(Counted {
            de: self,
            remaining: len,
        })
    }

    fn deserialize_tuple<V: Visitor<'de>>(
        self,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_seq(Counted {
            de: self,
            remaining: len,
        })
    }

    fn deserialize_tuple_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        len: usize,
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_tuple(len, visitor)
    }

    fn deserialize_map<V: Visitor<'de>>(self, visitor: V) -> Result<V::Value, WireError> {
        let len = self.get_len()?;
        visitor.visit_map(Counted {
            de: self,
            remaining: len,
        })
    }

    fn deserialize_struct<V: Visitor<'de>>(
        self,
        _name: &'static str,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        self.deserialize_tuple(fields.len(), visitor)
    }

    fn deserialize_enum<V: Visitor<'de>>(
        self,
        _name: &'static str,
        _variants: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        visitor.visit_enum(EnumReader { de: self })
    }

    fn deserialize_identifier<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError::NotSelfDescribing)
    }

    fn deserialize_ignored_any<V: Visitor<'de>>(self, _visitor: V) -> Result<V::Value, WireError> {
        Err(WireError::NotSelfDescribing)
    }

    fn is_human_readable(&self) -> bool {
        false
    }
}

struct Counted<'a, 'de> {
    de: &'a mut WireDeserializer<'de>,
    remaining: usize,
}

impl<'de> de::SeqAccess<'de> for Counted<'_, 'de> {
    type Error = WireError;

    fn next_element_seed<T: de::DeserializeSeed<'de>>(
        &mut self,
        seed: T,
    ) -> Result<Option<T::Value>, WireError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

impl<'de> de::MapAccess<'de> for Counted<'_, 'de> {
    type Error = WireError;

    fn next_key_seed<K: de::DeserializeSeed<'de>>(
        &mut self,
        seed: K,
    ) -> Result<Option<K::Value>, WireError> {
        if self.remaining == 0 {
            return Ok(None);
        }
        self.remaining -= 1;
        seed.deserialize(&mut *self.de).map(Some)
    }

    fn next_value_seed<V: de::DeserializeSeed<'de>>(
        &mut self,
        seed: V,
    ) -> Result<V::Value, WireError> {
        seed.deserialize(&mut *self.de)
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

struct EnumReader<'a, 'de> {
    de: &'a mut WireDeserializer<'de>,
}

impl<'de> de::EnumAccess<'de> for EnumReader<'_, 'de> {
    type Error = WireError;
    type Variant = Self;

    fn variant_seed<V: de::DeserializeSeed<'de>>(
        self,
        seed: V,
    ) -> Result<(V::Value, Self), WireError> {
        let raw = self.de.get_uvarint()?;
        let index = u32::try_from(raw).map_err(|_| WireError::InvalidEncoding("variant index"))?;
        let value = seed.deserialize(de::value::U32Deserializer::<WireError>::new(index))?;
        Ok((value, self))
    }
}

impl<'de> de::VariantAccess<'de> for EnumReader<'_, 'de> {
    type Error = WireError;

    fn unit_variant(self) -> Result<(), WireError> {
        Ok(())
    }

    fn newtype_variant_seed<T: de::DeserializeSeed<'de>>(
        self,
        seed: T,
    ) -> Result<T::Value, WireError> {
        seed.deserialize(self.de)
    }

    fn tuple_variant<V: Visitor<'de>>(self, len: usize, visitor: V) -> Result<V::Value, WireError> {
        de::Deserializer::deserialize_tuple(self.de, len, visitor)
    }

    fn struct_variant<V: Visitor<'de>>(
        self,
        fields: &'static [&'static str],
        visitor: V,
    ) -> Result<V::Value, WireError> {
        de::Deserializer::deserialize_tuple(self.de, fields.len(), visitor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::{Deserialize, Serialize};
    use std::collections::BTreeMap;

    fn roundtrip<T: Serialize + DeserializeOwned + PartialEq + fmt::Debug>(v: T) {
        let bytes = to_bytes(&v).unwrap();
        let back: T = from_bytes(&bytes).unwrap();
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(true);
        roundtrip(false);
        roundtrip(-42i8);
        roundtrip(12345i16);
        roundtrip(-7_000_000i32);
        roundtrip(9_007_199_254_740_993i64);
        roundtrip(255u8);
        roundtrip(65535u16);
        roundtrip(4_000_000_000u32);
        roundtrip(u64::MAX);
        roundtrip(i64::MIN);
        roundtrip(1.5f32);
        roundtrip(-0.123456789f64);
        roundtrip('λ');
        roundtrip(String::from("hello, wire"));
        roundtrip(String::new());
    }

    #[test]
    fn collections_roundtrip() {
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<f64>::new());
        roundtrip(vec![vec![1.0f64, 2.0], vec![]]);
        roundtrip((1u8, String::from("x"), 2.5f64));
        let mut m = BTreeMap::new();
        m.insert(String::from("a"), 1u64);
        m.insert(String::from("b"), 2u64);
        roundtrip(m);
    }

    #[test]
    fn options_roundtrip() {
        roundtrip(Option::<u32>::None);
        roundtrip(Some(99u32));
        roundtrip(Some(String::from("inner")));
        roundtrip(vec![Some(1u8), None, Some(3)]);
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    struct Nested {
        id: u64,
        name: String,
        values: Vec<f64>,
        flag: Option<bool>,
    }

    #[derive(Serialize, Deserialize, PartialEq, Debug)]
    enum Msg {
        Ping,
        Data { payload: Vec<u8>, crc: u32 },
        Pair(u8, u8),
        Wrapped(Nested),
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
        roundtrip(Msg::Pair(4, 5));
        roundtrip(Msg::Wrapped(Nested {
            id: 1,
            name: String::new(),
            values: vec![],
            flag: None,
        }));
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = to_bytes(&u64::MAX).unwrap();
        assert_eq!(bytes.len(), 10);
        let short = &bytes[..4];
        assert_eq!(
            from_bytes::<u64>(short).unwrap_err(),
            WireError::UnexpectedEof
        );
    }

    #[test]
    fn trailing_bytes_error() {
        let mut bytes = to_bytes(&1u8).unwrap();
        bytes.push(0);
        assert_eq!(
            from_bytes::<u8>(&bytes).unwrap_err(),
            WireError::TrailingBytes
        );
    }

    #[test]
    fn bad_bool_tag_errors() {
        assert!(matches!(
            from_bytes::<bool>(&[7]).unwrap_err(),
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
        // Small unsigned ints are a single byte; a 3-element vec of u8 is
        // 1 (varint len) + 3; floats stay fixed width.
        assert_eq!(to_bytes(&0u64).unwrap().len(), 1);
        assert_eq!(to_bytes(&127u64).unwrap().len(), 1);
        assert_eq!(to_bytes(&128u64).unwrap().len(), 2);
        assert_eq!(to_bytes(&vec![1u8, 2, 3]).unwrap().len(), 4);
        assert_eq!(to_bytes(&1.0f64).unwrap().len(), 8);
        assert_eq!(to_bytes(&-1i64).unwrap().len(), 1);
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
            write_uvarint(&mut out, v).unwrap();
            assert_eq!(out.len(), len, "encoded length of {v}");
            assert_eq!(uvarint_len(v), len, "uvarint_len of {v}");
            let mut input = out.as_slice();
            assert_eq!(read_uvarint(&mut input).unwrap(), v);
            assert!(input.is_empty());
            let mut put = Vec::new();
            put_uvarint(&mut put, v);
            assert_eq!(put, out, "put_uvarint parity for {v}");
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
    fn zigzag_maps_small_magnitudes_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(i64::MIN), u64::MAX);
        for v in [0i64, -1, 1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn to_writer_matches_to_bytes() {
        let value = Nested {
            id: 300,
            name: "sink".into(),
            values: vec![1.0, 2.0, 3.0],
            flag: None,
        };
        let mut sink = Vec::with_capacity(64);
        to_writer(&value, &mut sink).unwrap();
        assert_eq!(sink, to_bytes(&value).unwrap());
    }
}
