//! Chunked streaming frames — the unit every transport actually carries.
//!
//! A logical message no longer travels as one monolithic payload. The
//! sender splits it into frames of bounded size; large dataset transfers
//! are shipped as a *stream*: one header frame followed by row-block
//! frames that the receiver can process (or relay) without ever holding
//! one giant allocation. Chunks of a single encoded message are zero-copy
//! [`Bytes`] slices of one buffer on the send side, and stream blocks stay
//! separate `Bytes` end to end on the receive side.
//!
//! # Frame layout (plaintext, before sealing) — wire v4
//!
//! The v4 frame header is varint-packed: 3 bytes for typical frames
//! instead of v3's fixed 14.
//!
//! ```text
//! offset  size   field
//! 0       1      bits 0–1: kind (0 = CONTROL, 1 = STREAM_HEADER,
//!                2 = STREAM_BLOCK); bits 2–6: reserved, must be zero;
//!                bit 7: LAST frame of the message
//! 1       1–10   msg_id (LEB128 varint) — unique per sender
//! …       1–5    seq (LEB128 varint) — 0-based frame index
//! …       …      payload
//! ```
//!
//! # Sealed envelope (v4)
//!
//! Each frame is sealed independently under the per-direction channel
//! key. The outer byte positions are **unchanged from v3** — only the
//! ciphertext's inner header packing differs — so key-less session
//! peeking and heartbeats work identically across both:
//!
//! ```text
//! offset  size  field
//! 0       8     session id (u64 LE) — plaintext, authenticated
//! 8       8     nonce (u64 LE)
//! 16      …     ciphertext (packed frame header ‖ payload)
//! len−8   8     tag (u64 LE)
//! ```
//!
//! The session id travels **in the clear** so a [`crate::mux::SessionMux`]
//! can demultiplex a shared physical mesh into per-session virtual
//! endpoints without holding any session's key ([`peek_session`] reads it
//! zero-copy). It is nonetheless **authenticated**: the id is mixed into
//! both the keystream and the tag derivation, so a frame re-stamped with a
//! different session id fails to open — one session's frames can never be
//! replayed into another, even when two sessions share a session secret.
//!
//! v4 supersedes v3 (fixed 14-byte frame header) which superseded the v2
//! envelope (`nonce ‖ ciphertext ‖ tag`, no session field); the formats
//! are not interchangeable. The v4 keystream runs splitmix64 in
//! **counter mode** — every 8-byte word is derived independently from
//! the (key, nonce, index) triple, so the XOR pipeline has no serial
//! dependency chain and vectorizes — and the keyed tag absorbs
//! 32-byte blocks into four independent accumulator lanes folded once
//! at the end. Word-at-a-time processing keeps sealing off the critical
//! path on dataset-sized payloads. Same disclaimer as [`crate::crypto`]:
//! **this models link encryption, it is not real cryptography.**

use crate::crypto::{ChannelKey, CryptoError};
use crate::pool;
use crate::transport::{PartyId, SessionId};
use crate::wire::{put_uvarint, read_uvarint, MAX_UVARINT_LEN};
use bytes::Bytes;
use std::collections::HashMap;
use std::fmt;

/// Smallest possible packed v4 frame header (flags/kind byte + 1-byte
/// msg_id varint + 1-byte seq varint).
pub const MIN_FRAME_HEADER_LEN: usize = 3;

/// Largest possible packed v4 frame header (flags/kind byte + 10-byte
/// msg_id varint + 5-byte seq varint) — the capacity the seal path
/// reserves before knowing the actual widths.
pub const MAX_FRAME_HEADER_LEN: usize = 1 + MAX_UVARINT_LEN + 5;

/// Sealing overhead per frame (session id + nonce + tag).
pub const SEAL_OVERHEAD: usize = 24;

/// Smallest valid sealed v4 frame: envelope overhead plus the minimum
/// packed header.
pub const MIN_SEALED_LEN: usize = 16 + MIN_FRAME_HEADER_LEN + 8;

/// Default maximum payload bytes per frame.
pub const DEFAULT_CHUNK_SIZE: usize = 60 * 1024;

/// Bit 7 of the packed header's first byte: last frame of the message.
const FLAG_LAST: u8 = 0x80;

/// Bits 2–6 of the packed header's first byte: reserved, must be zero.
const RESERVED_BITS: u8 = 0x7C;

/// Frame classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A chunk of an ordinary wire-encoded message.
    Control,
    /// The wire-encoded header that opens a stream.
    StreamHeader,
    /// One raw block of stream payload.
    StreamBlock,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Control => 0,
            FrameKind::StreamHeader => 1,
            FrameKind::StreamBlock => 2,
        }
    }

    fn from_byte(b: u8) -> Result<Self, FrameError> {
        match b {
            0 => Ok(FrameKind::Control),
            1 => Ok(FrameKind::StreamHeader),
            2 => Ok(FrameKind::StreamBlock),
            _ => Err(FrameError::Malformed("unknown frame kind")),
        }
    }
}

/// One frame of a message.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Frame classification.
    pub kind: FrameKind,
    /// Sender-unique message id shared by all frames of one message.
    pub msg_id: u64,
    /// 0-based index of this frame within its message.
    pub seq: u32,
    /// Whether this is the last frame of the message.
    pub last: bool,
    /// Payload bytes.
    pub payload: Bytes,
}

/// Framing-layer failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The sealed envelope failed to open.
    Crypto(CryptoError),
    /// A frame violated the layout.
    Malformed(&'static str),
    /// Frames of one message arrived out of order or duplicated — SAP has
    /// no retransmission, so this aborts the session.
    Sequence {
        /// What was expected.
        expected: u32,
        /// What arrived.
        got: u32,
    },
    /// A stream block arrived with no preceding stream header.
    OrphanBlock,
    /// A caller that only handles plain messages received a stream.
    UnexpectedStream,
    /// A frame stamped for another session reached this endpoint — a
    /// routing bug or a cross-session injection attempt. Aborts only the
    /// receiving session, never the process or its siblings.
    SessionMismatch {
        /// The session this endpoint belongs to.
        expected: SessionId,
        /// The session the frame claimed.
        got: SessionId,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Crypto(e) => write!(f, "frame seal: {e}"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
            FrameError::Sequence { expected, got } => {
                write!(
                    f,
                    "frame sequence violation: expected {expected}, got {got}"
                )
            }
            FrameError::OrphanBlock => write!(f, "stream block without stream header"),
            FrameError::UnexpectedStream => write!(f, "unexpected stream message"),
            FrameError::SessionMismatch { expected, got } => {
                write!(f, "frame for {got} delivered to {expected}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<CryptoError> for FrameError {
    fn from(e: CryptoError) -> Self {
        FrameError::Crypto(e)
    }
}

// ---------------------------------------------------------------------------
// Sealed envelope v2: word-wise keystream + word-wise keyed tag.
// ---------------------------------------------------------------------------

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// Keystream word `i` of the stream seeded by `base` — splitmix64 in
/// counter mode. Unlike a chained xorshift state, every word is computed
/// independently of its neighbours, so the CPU overlaps several words at
/// once (and the compiler is free to vectorize the seal loop); the serial
/// state update was the single hottest dependency chain on the data path.
#[inline]
fn ks_word(base: u64, i: u64) -> u64 {
    splitmix(base.wrapping_add(i.wrapping_mul(GOLDEN)))
}

/// XORs the keystream over `buf` in 8-byte words (tail handled bytewise).
fn keystream_xor(key: u64, nonce: u64, buf: &mut [u8]) {
    let base = splitmix(key ^ nonce);
    let mut i = 0u64;
    let mut chunks = buf.chunks_exact_mut(8);
    for chunk in &mut chunks {
        let word = u64::from_le_bytes(chunk.try_into().expect("8 bytes"));
        chunk.copy_from_slice(&(word ^ ks_word(base, i)).to_le_bytes());
        i += 1;
    }
    let tail = chunks.into_remainder();
    if !tail.is_empty() {
        let ks = ks_word(base, i).to_le_bytes();
        for (b, k) in tail.iter_mut().zip(ks.iter()) {
            *b ^= k;
        }
    }
}

/// Keyed word-wise checksum over `data` (toy MAC, eight bytes per
/// step). Absorbs into four independent lanes —
/// `splitmix` is a long serial chain per absorption, so a single-lane
/// fold caps throughput at one word per chain; four lanes keep four
/// chains in flight and quadruple MAC bandwidth on the wide cores the
/// data path runs on. The lanes are folded together (with the length)
/// into one 64-bit tag at the end.
fn word_mac(key: u64, nonce: u64, data: &[u8]) -> u64 {
    let seed = splitmix(key ^ nonce.rotate_left(32)) | 1;
    let mut h = [
        seed,
        splitmix(seed),
        splitmix(seed ^ GOLDEN),
        splitmix(seed.rotate_left(31)),
    ];
    let mut blocks = data.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in h.iter_mut().zip(block.chunks_exact(8)) {
            *lane = splitmix(*lane ^ u64::from_le_bytes(word.try_into().expect("8 bytes")));
        }
    }
    let mut lane = 0;
    let mut words = blocks.remainder().chunks_exact(8);
    for word in &mut words {
        h[lane] = splitmix(h[lane] ^ u64::from_le_bytes(word.try_into().expect("8 bytes")));
        lane += 1;
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        h[lane] = splitmix(h[lane] ^ u64::from_le_bytes(word));
    }
    let folded = splitmix(splitmix(splitmix(h[0] ^ h[1]) ^ h[2]) ^ h[3]);
    splitmix(folded ^ data.len() as u64)
}

/// Mixes the (plaintext) session id into the nonce fed to the keystream
/// and tag, binding every sealed frame to its session: re-stamping a frame
/// with another session id invalidates the tag.
fn envelope_tweak(session: SessionId, nonce: u64) -> u64 {
    nonce ^ splitmix(session.0 ^ 0x5E55_1014_0000_00D3)
}

/// Reads the session id off a sealed v4 frame without opening it — the
/// zero-decode demultiplexing hook used by [`crate::mux::SessionMux`].
/// Returns `None` when the buffer is too short to be a sealed frame.
pub fn peek_session(sealed: &[u8]) -> Option<SessionId> {
    if sealed.len() < MIN_SEALED_LEN {
        return None;
    }
    let raw: [u8; 8] = sealed[..8].try_into().ok()?;
    Some(SessionId(u64::from_le_bytes(raw)))
}

// ---------------------------------------------------------------------------
// Liveness (heartbeat) frames
// ---------------------------------------------------------------------------

/// Magic constant identifying a heartbeat frame behind the
/// [`SessionId::LIVENESS`] stamp.
const HEARTBEAT_MAGIC: u64 = 0x4C49_5645_4245_3454; // "LIVEBE4T"

/// Size of a heartbeat frame. Fixed at 38 bytes — the v3 minimum sealed
/// size, kept verbatim across the v4 header repack so the liveness plane
/// is byte-compatible — and comfortably above [`MIN_SEALED_LEN`], so
/// [`peek_session`] reads its stamp like any other frame's.
pub const HEARTBEAT_LEN: usize = 38;

/// Encodes a liveness heartbeat from `from` with a monotone `seq`.
///
/// Heartbeats are **plaintext** control traffic stamped with the reserved
/// [`SessionId::LIVENESS`] id: a mux pump consumes them to refresh its
/// peer-liveness clock without holding any session key, and never routes
/// them to a session. They are deliberately unauthenticated — forging one
/// can only *delay* failure detection for a peer that is in fact dead,
/// never abort or corrupt a session, which matches the trusted-network
/// assumption the rest of the link layer already makes.
///
/// Layout (all little-endian): `LIVENESS session id (8) ‖ magic (8) ‖
/// sender party id (8) ‖ seq (8) ‖ zero padding to 38 bytes`.
pub fn encode_heartbeat(from: PartyId, seq: u64) -> Bytes {
    let mut out = vec![0u8; HEARTBEAT_LEN];
    out[..8].copy_from_slice(&SessionId::LIVENESS.0.to_le_bytes());
    out[8..16].copy_from_slice(&HEARTBEAT_MAGIC.to_le_bytes());
    out[16..24].copy_from_slice(&from.0.to_le_bytes());
    out[24..32].copy_from_slice(&seq.to_le_bytes());
    Bytes::from(out)
}

/// Decodes a heartbeat frame, returning the claimed sender and sequence
/// number, or `None` when the buffer is not a heartbeat.
pub fn decode_heartbeat(buf: &[u8]) -> Option<(PartyId, u64)> {
    if buf.len() != HEARTBEAT_LEN || peek_session(buf) != Some(SessionId::LIVENESS) {
        return None;
    }
    let magic = u64::from_le_bytes(buf[8..16].try_into().ok()?);
    if magic != HEARTBEAT_MAGIC {
        return None;
    }
    let from = PartyId(u64::from_le_bytes(buf[16..24].try_into().ok()?));
    let seq = u64::from_le_bytes(buf[24..32].try_into().ok()?);
    Some((from, seq))
}

/// Header fields of a frame about to be sealed, without its payload —
/// the input to [`seal_frame_with`], whose payload is generated in place.
#[derive(Debug, Clone, Copy)]
pub struct FrameMeta {
    /// Frame classification.
    pub kind: FrameKind,
    /// Sender-unique message id shared by all frames of one message.
    pub msg_id: u64,
    /// 0-based index of this frame within its message.
    pub seq: u32,
    /// Whether this is the last frame of the message.
    pub last: bool,
}

impl FrameMeta {
    /// The header of an existing frame.
    pub fn of(frame: &Frame) -> FrameMeta {
        FrameMeta {
            kind: frame.kind,
            msg_id: frame.msg_id,
            seq: frame.seq,
            last: frame.last,
        }
    }
}

/// Appends the packed v4 frame header: flags/kind byte, varint msg_id,
/// varint seq.
fn put_header(out: &mut Vec<u8>, meta: FrameMeta) {
    let first = meta.kind.to_byte() | if meta.last { FLAG_LAST } else { 0 };
    out.push(first);
    put_uvarint(out, meta.msg_id);
    put_uvarint(out, u64::from(meta.seq));
}

/// Parses the packed v4 frame header off the front of a decrypted body,
/// returning the header fields and the header's byte length.
fn parse_header(plain: &[u8]) -> Result<(FrameMeta, usize), FrameError> {
    let Some(&first) = plain.first() else {
        return Err(FrameError::Malformed("empty frame body"));
    };
    if first & RESERVED_BITS != 0 {
        return Err(FrameError::Malformed("reserved header bits set"));
    }
    let kind = FrameKind::from_byte(first & 0x03)?;
    let last = first & FLAG_LAST != 0;
    let mut rest = &plain[1..];
    let unread = rest.len();
    let msg_id = read_uvarint(&mut rest).map_err(|_| FrameError::Malformed("msg id varint"))?;
    let seq = read_uvarint(&mut rest)
        .ok()
        .and_then(|v| u32::try_from(v).ok())
        .ok_or(FrameError::Malformed("seq varint"))?;
    let header_len = 1 + (unread - rest.len());
    Ok((
        FrameMeta {
            kind,
            msg_id,
            seq,
            last,
        },
        header_len,
    ))
}

/// Seals one frame under the channel key for `session`: header and payload
/// are encrypted together; layout `session ‖ nonce ‖ ciphertext ‖ tag`.
/// The output buffer comes from (and eventually returns to) the global
/// [`pool`].
pub fn seal_frame(key: ChannelKey, nonce: u64, session: SessionId, frame: &Frame) -> Bytes {
    let meta = FrameMeta::of(frame);
    let payload = &frame.payload;
    let result = seal_frame_with::<std::convert::Infallible, _>(
        key,
        nonce,
        session,
        meta,
        payload.len(),
        |out| {
            out.extend_from_slice(payload);
            Ok(())
        },
    );
    match result {
        Ok(sealed) => sealed,
        Err(infallible) => match infallible {},
    }
}

/// Seals a frame whose payload is produced **directly into the sealed
/// buffer**: acquires a pooled buffer, writes the envelope prefix and
/// packed header, calls `write_payload` to append the payload bytes (a
/// wire encoder, a row-block encoder, …), then encrypts in place and tags.
/// This is the zero-intermediate-copy path: payload bytes are only ever
/// written once, into the buffer the transport will hand to the socket.
///
/// # Errors
///
/// Propagates `write_payload`'s error unchanged (the pooled buffer is
/// recycled, not leaked); sealing itself cannot fail.
pub fn seal_frame_with<E, F>(
    key: ChannelKey,
    nonce: u64,
    session: SessionId,
    meta: FrameMeta,
    size_hint: usize,
    write_payload: F,
) -> Result<Bytes, E>
where
    F: FnOnce(&mut Vec<u8>) -> Result<(), E>,
{
    let pool = pool::global();
    let mut out = pool.acquire(16 + MAX_FRAME_HEADER_LEN + size_hint + 8);
    out.extend_from_slice(&session.0.to_le_bytes());
    out.extend_from_slice(&nonce.to_le_bytes());
    put_header(&mut out, meta);
    if let Err(e) = write_payload(&mut out) {
        pool.recycle_vec(out);
        return Err(e);
    }
    let tweak = envelope_tweak(session, nonce);
    keystream_xor(key.0, tweak, &mut out[16..]);
    let tag = word_mac(key.0, tweak, &out[16..]);
    out.extend_from_slice(&tag.to_le_bytes());
    Ok(Bytes::from(out))
}

/// Opens a sealed frame, returning the session it was stamped for along
/// with the frame. The payload is a zero-copy slice of the single
/// decrypted buffer. The caller decides whether the session matches its
/// own (see [`FrameError::SessionMismatch`]); it also still owns `sealed`
/// and should recycle it into the [`pool`] when it came off
/// a transport (see [`open_frame_recycling`]).
///
/// # Errors
///
/// * [`FrameError::Crypto`] on truncation or tag mismatch.
/// * [`FrameError::Malformed`] on a bad kind byte, reserved header bits,
///   or an overflowing varint.
pub fn open_frame(key: ChannelKey, sealed: &[u8]) -> Result<(SessionId, Frame), FrameError> {
    if sealed.len() < MIN_SEALED_LEN {
        return Err(CryptoError::Truncated.into());
    }
    let session = SessionId(u64::from_le_bytes(sealed[..8].try_into().expect("8 bytes")));
    let nonce = u64::from_le_bytes(sealed[8..16].try_into().expect("8 bytes"));
    let tweak = envelope_tweak(session, nonce);
    let body_end = sealed.len() - 8;
    let expected_tag = u64::from_le_bytes(sealed[body_end..].try_into().expect("8 bytes"));
    if word_mac(key.0, tweak, &sealed[16..body_end]) != expected_tag {
        return Err(CryptoError::BadTag.into());
    }
    let mut plain = sealed[16..body_end].to_vec();
    keystream_xor(key.0, tweak, &mut plain);

    let (meta, header_len) = parse_header(&plain)?;
    let payload = Bytes::from(plain).slice(header_len..);
    Ok((
        session,
        Frame {
            kind: meta.kind,
            msg_id: meta.msg_id,
            seq: meta.seq,
            last: meta.last,
            payload,
        },
    ))
}

/// [`open_frame`], but consuming the sealed transport buffer — the
/// receive-path counterpart of [`seal_frame_with`]'s acquire. When this
/// was the buffer's last reference it is decrypted **in place**: no
/// second allocation, no plaintext copy, and the same buffer is handed
/// onward as the frame payload. On error, or when other references pin
/// the buffer, it is recycled into the global pool (shared buffers after
/// [`open_frame`]'s copying path).
///
/// # Errors
///
/// As [`open_frame`].
pub fn open_frame_recycling(
    key: ChannelKey,
    sealed: Bytes,
) -> Result<(SessionId, Frame), FrameError> {
    match sealed.try_into_vec() {
        Ok(vec) => open_frame_owned(key, vec),
        Err(sealed) => {
            let result = open_frame(key, &sealed);
            pool::global().recycle(sealed);
            result
        }
    }
}

/// The sole-owner fast path behind [`open_frame_recycling`]: verify the
/// tag, decrypt in place, slice the payload out of the very buffer the
/// socket filled.
fn open_frame_owned(
    key: ChannelKey,
    mut sealed: Vec<u8>,
) -> Result<(SessionId, Frame), FrameError> {
    if sealed.len() < MIN_SEALED_LEN {
        pool::global().recycle_vec(sealed);
        return Err(CryptoError::Truncated.into());
    }
    let session = SessionId(u64::from_le_bytes(sealed[..8].try_into().expect("8 bytes")));
    let nonce = u64::from_le_bytes(sealed[8..16].try_into().expect("8 bytes"));
    let tweak = envelope_tweak(session, nonce);
    let body_end = sealed.len() - 8;
    let expected_tag = u64::from_le_bytes(sealed[body_end..].try_into().expect("8 bytes"));
    if word_mac(key.0, tweak, &sealed[16..body_end]) != expected_tag {
        pool::global().recycle_vec(sealed);
        return Err(CryptoError::BadTag.into());
    }
    keystream_xor(key.0, tweak, &mut sealed[16..body_end]);
    let (meta, header_len) = match parse_header(&sealed[16..body_end]) {
        Ok(parsed) => parsed,
        Err(e) => {
            pool::global().recycle_vec(sealed);
            return Err(e);
        }
    };
    let payload = Bytes::from(sealed).slice(16 + header_len..body_end);
    Ok((
        session,
        Frame {
            kind: meta.kind,
            msg_id: meta.msg_id,
            seq: meta.seq,
            last: meta.last,
            payload,
        },
    ))
}

/// Splits an encoded message into control frames whose payloads are
/// zero-copy slices of `encoded`.
pub fn split_message(msg_id: u64, encoded: Bytes, chunk_size: usize) -> Vec<Frame> {
    assert!(chunk_size > 0, "chunk size must be positive");
    let len = encoded.len();
    let chunks = len.div_ceil(chunk_size).max(1);
    (0..chunks)
        .map(|i| {
            let start = i * chunk_size;
            let end = (start + chunk_size).min(len);
            Frame {
                kind: FrameKind::Control,
                msg_id,
                seq: u32::try_from(i).expect("chunk count fits u32"),
                last: i + 1 == chunks,
                payload: encoded.slice(start..end),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Reassembly
// ---------------------------------------------------------------------------

/// A fully reassembled inbound message.
#[derive(Debug)]
pub enum Assembled {
    /// An ordinary wire-encoded message (chunks already joined; a
    /// single-frame message passes through without copying).
    Message(Bytes),
    /// A stream: the wire-encoded header plus its raw blocks, never
    /// concatenated.
    Stream {
        /// Encoded stream header.
        header: Bytes,
        /// Raw payload blocks, in order.
        blocks: Vec<Bytes>,
    },
}

enum Partial {
    Message {
        msg_id: u64,
        next_seq: u32,
        chunks: Vec<Bytes>,
    },
    Stream {
        msg_id: u64,
        next_seq: u32,
        header: Bytes,
        blocks: Vec<Bytes>,
    },
}

/// Per-sender reassembly of frames into messages.
///
/// Transports deliver per-sender FIFO and a sender completes one message
/// before starting the next, so reassembly state is keyed by sender alone;
/// any interleaving or reordering within a sender is a hard error (SAP
/// aborts rather than guessing).
#[derive(Default)]
pub struct Reassembler {
    pending: HashMap<PartyId, Partial>,
}

impl Reassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one frame; returns a message when `frame` completes one.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on sequence violations, kind mixing, or
    /// orphan blocks.
    pub fn feed(&mut self, from: PartyId, frame: Frame) -> Result<Option<Assembled>, FrameError> {
        let partial = self.pending.remove(&from);
        match (frame.kind, partial) {
            (FrameKind::Control, None) => {
                if frame.seq != 0 {
                    return Err(FrameError::Sequence {
                        expected: 0,
                        got: frame.seq,
                    });
                }
                if frame.last {
                    return Ok(Some(Assembled::Message(frame.payload)));
                }
                self.pending.insert(
                    from,
                    Partial::Message {
                        msg_id: frame.msg_id,
                        next_seq: 1,
                        chunks: vec![frame.payload],
                    },
                );
                Ok(None)
            }
            (
                FrameKind::Control,
                Some(Partial::Message {
                    msg_id,
                    next_seq,
                    mut chunks,
                }),
            ) => {
                check_continuity(msg_id, next_seq, &frame)?;
                chunks.push(frame.payload);
                if frame.last {
                    return Ok(Some(Assembled::Message(join_chunks(&chunks))));
                }
                self.pending.insert(
                    from,
                    Partial::Message {
                        msg_id,
                        next_seq: next_seq + 1,
                        chunks,
                    },
                );
                Ok(None)
            }
            (FrameKind::StreamHeader, None) => {
                if frame.seq != 0 {
                    return Err(FrameError::Sequence {
                        expected: 0,
                        got: frame.seq,
                    });
                }
                if frame.last {
                    // Empty stream: header only.
                    return Ok(Some(Assembled::Stream {
                        header: frame.payload,
                        blocks: Vec::new(),
                    }));
                }
                self.pending.insert(
                    from,
                    Partial::Stream {
                        msg_id: frame.msg_id,
                        next_seq: 1,
                        header: frame.payload,
                        blocks: Vec::new(),
                    },
                );
                Ok(None)
            }
            (
                FrameKind::StreamBlock,
                Some(Partial::Stream {
                    msg_id,
                    next_seq,
                    header,
                    mut blocks,
                }),
            ) => {
                check_continuity(msg_id, next_seq, &frame)?;
                blocks.push(frame.payload);
                if frame.last {
                    return Ok(Some(Assembled::Stream { header, blocks }));
                }
                self.pending.insert(
                    from,
                    Partial::Stream {
                        msg_id,
                        next_seq: next_seq + 1,
                        header,
                        blocks,
                    },
                );
                Ok(None)
            }
            (FrameKind::StreamBlock, None) => Err(FrameError::OrphanBlock),
            (_, Some(_)) => Err(FrameError::Malformed("frame kind changed mid-message")),
        }
    }

    /// Number of senders with an unfinished message (for diagnostics).
    pub fn pending_senders(&self) -> usize {
        self.pending.len()
    }

    /// Feeds one frame in **streaming mode**: control messages still
    /// assemble whole (they are small), but stream frames surface as
    /// per-frame [`FlowItem`]s the moment they arrive — the hook the
    /// streaming data plane uses to overlap compute with I/O instead of
    /// buffering a dataset's every block before delivery.
    ///
    /// Continuity (sequence, message id, kind mixing) is enforced exactly
    /// as in [`Reassembler::feed`]; the only difference is that stream
    /// blocks are never retained here. A receiver must drive one mode or
    /// the other consistently for a given sender's stream — mixing
    /// buffered and streaming receives mid-stream loses blocks.
    ///
    /// # Errors
    ///
    /// As [`Reassembler::feed`].
    pub fn feed_streaming(
        &mut self,
        from: PartyId,
        frame: Frame,
    ) -> Result<Option<FlowItem>, FrameError> {
        match frame.kind {
            FrameKind::Control => Ok(self.feed(from, frame)?.map(|assembled| match assembled {
                Assembled::Message(bytes) => FlowItem::Message(bytes),
                Assembled::Stream { .. } => unreachable!("control frames never finish a stream"),
            })),
            FrameKind::StreamHeader => {
                if self.pending.contains_key(&from) {
                    return Err(FrameError::Malformed("frame kind changed mid-message"));
                }
                if frame.seq != 0 {
                    return Err(FrameError::Sequence {
                        expected: 0,
                        got: frame.seq,
                    });
                }
                let last = frame.last;
                if !last {
                    // Continuity state only; blocks are never buffered in
                    // streaming mode.
                    self.pending.insert(
                        from,
                        Partial::Stream {
                            msg_id: frame.msg_id,
                            next_seq: 1,
                            header: Bytes::new(),
                            blocks: Vec::new(),
                        },
                    );
                }
                Ok(Some(FlowItem::StreamHeader {
                    header: frame.payload,
                    last,
                }))
            }
            FrameKind::StreamBlock => match self.pending.remove(&from) {
                Some(Partial::Stream {
                    msg_id, next_seq, ..
                }) => {
                    check_continuity(msg_id, next_seq, &frame)?;
                    if !frame.last {
                        self.pending.insert(
                            from,
                            Partial::Stream {
                                msg_id,
                                next_seq: next_seq + 1,
                                header: Bytes::new(),
                                blocks: Vec::new(),
                            },
                        );
                    }
                    Ok(Some(FlowItem::StreamBlock {
                        block: frame.payload,
                        last: frame.last,
                    }))
                }
                Some(partial) => {
                    self.pending.insert(from, partial);
                    Err(FrameError::Malformed("frame kind changed mid-message"))
                }
                None => Err(FrameError::OrphanBlock),
            },
        }
    }
}

/// One streaming-mode delivery from [`Reassembler::feed_streaming`]: the
/// per-frame granularity the data plane consumes.
#[derive(Debug)]
pub enum FlowItem {
    /// A fully assembled control message (control frames are small and
    /// still coalesce).
    Message(Bytes),
    /// A stream opened: the wire-encoded header. `last` marks an empty
    /// stream (no blocks follow).
    StreamHeader {
        /// Encoded stream header.
        header: Bytes,
        /// `true` when the stream carries no blocks.
        last: bool,
    },
    /// One raw stream block, delivered the moment it arrived.
    StreamBlock {
        /// The raw block payload, exactly as sent.
        block: Bytes,
        /// `true` when this is the stream's final block.
        last: bool,
    },
}

fn check_continuity(msg_id: u64, next_seq: u32, frame: &Frame) -> Result<(), FrameError> {
    if frame.msg_id != msg_id {
        return Err(FrameError::Malformed("message id changed mid-message"));
    }
    if frame.seq != next_seq {
        return Err(FrameError::Sequence {
            expected: next_seq,
            got: frame.seq,
        });
    }
    Ok(())
}

fn join_chunks(chunks: &[Bytes]) -> Bytes {
    let total: usize = chunks.iter().map(Bytes::len).sum();
    let mut out = Vec::with_capacity(total);
    for chunk in chunks {
        out.extend_from_slice(chunk);
    }
    Bytes::from(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> ChannelKey {
        ChannelKey::derive(77, 1, 2)
    }

    fn frame(kind: FrameKind, msg_id: u64, seq: u32, last: bool, payload: &[u8]) -> Frame {
        Frame {
            kind,
            msg_id,
            seq,
            last,
            payload: Bytes::copy_from_slice(payload),
        }
    }

    #[test]
    fn seal_open_roundtrip() {
        for len in [0usize, 1, 7, 8, 9, 63, 64, 65, 4096] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
            let f = frame(FrameKind::StreamBlock, 42, 3, true, &payload);
            let sealed = seal_frame(key(), 9, SessionId(6), &f);
            let (session, back) = open_frame(key(), &sealed).unwrap();
            assert_eq!(session, SessionId(6));
            assert_eq!(back.kind, FrameKind::StreamBlock);
            assert_eq!(back.msg_id, 42);
            assert_eq!(back.seq, 3);
            assert!(back.last);
            assert_eq!(&back.payload[..], &payload[..]);
        }
    }

    #[test]
    fn packed_header_sizes() {
        // Small ids: 3-byte header, so an empty frame is MIN_SEALED_LEN.
        let f = frame(FrameKind::Control, 1, 0, true, b"");
        let sealed = seal_frame(key(), 1, SessionId(1), &f);
        assert_eq!(sealed.len(), MIN_SEALED_LEN);
        // Maximal ids widen the varints to the documented maximum.
        let f = frame(FrameKind::StreamBlock, u64::MAX, u32::MAX, false, b"");
        let sealed = seal_frame(key(), 2, SessionId(1), &f);
        assert_eq!(sealed.len(), SEAL_OVERHEAD + MAX_FRAME_HEADER_LEN);
        let (_, back) = open_frame(key(), &sealed).unwrap();
        assert_eq!(
            (back.msg_id, back.seq, back.last),
            (u64::MAX, u32::MAX, false)
        );
    }

    #[test]
    fn parse_header_rejects_reserved_bits_and_bad_kind() {
        assert!(matches!(
            parse_header(&[0x04, 0, 0]),
            Err(FrameError::Malformed("reserved header bits set"))
        ));
        assert!(matches!(
            parse_header(&[0x03, 0, 0]),
            Err(FrameError::Malformed("unknown frame kind"))
        ));
        assert!(matches!(parse_header(&[]), Err(FrameError::Malformed(_))));
        // Truncated msg_id varint.
        assert!(matches!(
            parse_header(&[0x00, 0x80]),
            Err(FrameError::Malformed("msg id varint"))
        ));
    }

    #[test]
    fn seal_frame_with_matches_copy_path_and_recycles() {
        let payload = b"generated directly into the sealed buffer";
        let meta = FrameMeta {
            kind: FrameKind::StreamBlock,
            msg_id: 9,
            seq: 1,
            last: false,
        };
        let sealed = seal_frame_with::<std::convert::Infallible, _>(
            key(),
            4,
            SessionId(2),
            meta,
            payload.len(),
            |out| {
                out.extend_from_slice(payload);
                Ok(())
            },
        )
        .unwrap();
        let reference = seal_frame(
            key(),
            4,
            SessionId(2),
            &frame(FrameKind::StreamBlock, 9, 1, false, payload),
        );
        assert_eq!(&sealed[..], &reference[..]);

        let (session, back) = open_frame_recycling(key(), sealed).unwrap();
        assert_eq!(session, SessionId(2));
        assert_eq!(&back.payload[..], payload);
    }

    #[test]
    fn seal_frame_with_propagates_writer_errors() {
        let meta = FrameMeta {
            kind: FrameKind::Control,
            msg_id: 1,
            seq: 0,
            last: true,
        };
        let err = seal_frame_with::<&'static str, _>(key(), 1, SessionId(1), meta, 16, |_| {
            Err("codec exploded")
        })
        .unwrap_err();
        assert_eq!(err, "codec exploded");
    }

    #[test]
    fn sealed_frames_hide_plaintext() {
        let f = frame(
            FrameKind::Control,
            1,
            0,
            true,
            b"sensitive dataset rows here",
        );
        let sealed = seal_frame(key(), 5, SessionId::SOLO, &f);
        assert!(!sealed
            .windows(b"sensitive".len())
            .any(|w| w == b"sensitive"));
    }

    #[test]
    fn peek_session_reads_envelope_without_key() {
        let f = frame(FrameKind::Control, 1, 0, true, b"payload");
        let sealed = seal_frame(key(), 5, SessionId(0xBEEF), &f);
        assert_eq!(peek_session(&sealed), Some(SessionId(0xBEEF)));
        assert_eq!(peek_session(&sealed[..12]), None);
    }

    #[test]
    fn session_id_is_authenticated() {
        // Re-stamping a sealed frame with a different session id must
        // invalidate the tag — frames cannot be replayed across sessions.
        let f = frame(FrameKind::Control, 1, 0, true, b"payload");
        let sealed = seal_frame(key(), 5, SessionId(1), &f);
        let mut restamped = sealed.to_vec();
        restamped[..8].copy_from_slice(&2u64.to_le_bytes());
        assert!(matches!(
            open_frame(key(), &restamped).unwrap_err(),
            FrameError::Crypto(CryptoError::BadTag)
        ));
    }

    #[test]
    fn tamper_and_truncation_detected() {
        let f = frame(FrameKind::Control, 1, 0, true, b"payload");
        let sealed = seal_frame(key(), 5, SessionId::SOLO, &f);
        let mut bad = sealed.to_vec();
        bad[20] ^= 1;
        assert!(matches!(
            open_frame(key(), &bad).unwrap_err(),
            FrameError::Crypto(CryptoError::BadTag)
        ));
        assert!(matches!(
            open_frame(key(), &sealed[..10]).unwrap_err(),
            FrameError::Crypto(CryptoError::Truncated)
        ));
    }

    #[test]
    fn wrong_key_detected() {
        let f = frame(FrameKind::Control, 1, 0, true, b"payload");
        let sealed = seal_frame(key(), 5, SessionId::SOLO, &f);
        let other = ChannelKey::derive(77, 1, 3);
        assert!(matches!(
            open_frame(other, &sealed).unwrap_err(),
            FrameError::Crypto(CryptoError::BadTag)
        ));
    }

    #[test]
    fn split_message_slices_share_buffer() {
        let encoded = Bytes::from((0..100u8).collect::<Vec<_>>());
        let frames = split_message(7, encoded, 30);
        assert_eq!(frames.len(), 4);
        assert_eq!(frames[0].payload.len(), 30);
        assert_eq!(frames[3].payload.len(), 10);
        assert!(frames[3].last);
        assert!(frames[..3].iter().all(|f| !f.last));
        let rejoined: Vec<u8> = frames.iter().flat_map(|f| f.payload.to_vec()).collect();
        assert_eq!(rejoined, (0..100u8).collect::<Vec<_>>());
    }

    #[test]
    fn empty_message_still_produces_one_frame() {
        let frames = split_message(1, Bytes::new(), 64);
        assert_eq!(frames.len(), 1);
        assert!(frames[0].last);
        assert!(frames[0].payload.is_empty());
    }

    #[test]
    fn reassembles_multi_chunk_message() {
        let mut r = Reassembler::new();
        let from = PartyId(3);
        assert!(r
            .feed(from, frame(FrameKind::Control, 9, 0, false, b"ab"))
            .unwrap()
            .is_none());
        let out = r
            .feed(from, frame(FrameKind::Control, 9, 1, true, b"cd"))
            .unwrap()
            .unwrap();
        let Assembled::Message(bytes) = out else {
            panic!("expected message");
        };
        assert_eq!(&bytes[..], b"abcd");
        assert_eq!(r.pending_senders(), 0);
    }

    #[test]
    fn reassembles_stream() {
        let mut r = Reassembler::new();
        let from = PartyId(3);
        assert!(r
            .feed(from, frame(FrameKind::StreamHeader, 5, 0, false, b"hdr"))
            .unwrap()
            .is_none());
        assert!(r
            .feed(from, frame(FrameKind::StreamBlock, 5, 1, false, b"b0"))
            .unwrap()
            .is_none());
        let out = r
            .feed(from, frame(FrameKind::StreamBlock, 5, 2, true, b"b1"))
            .unwrap()
            .unwrap();
        let Assembled::Stream { header, blocks } = out else {
            panic!("expected stream");
        };
        assert_eq!(&header[..], b"hdr");
        assert_eq!(blocks.len(), 2);
        assert_eq!(&blocks[0][..], b"b0");
        assert_eq!(&blocks[1][..], b"b1");
    }

    #[test]
    fn senders_interleave_independently() {
        let mut r = Reassembler::new();
        assert!(r
            .feed(PartyId(1), frame(FrameKind::Control, 1, 0, false, b"a"))
            .unwrap()
            .is_none());
        assert!(r
            .feed(PartyId(2), frame(FrameKind::Control, 8, 0, false, b"x"))
            .unwrap()
            .is_none());
        assert!(r
            .feed(PartyId(1), frame(FrameKind::Control, 1, 1, true, b"b"))
            .unwrap()
            .is_some());
        assert!(r
            .feed(PartyId(2), frame(FrameKind::Control, 8, 1, true, b"y"))
            .unwrap()
            .is_some());
    }

    #[test]
    fn sequence_violations_error() {
        let mut r = Reassembler::new();
        let from = PartyId(1);
        // Duplicate of seq 0 after seq 0.
        r.feed(from, frame(FrameKind::Control, 1, 0, false, b"a"))
            .unwrap();
        assert!(matches!(
            r.feed(from, frame(FrameKind::Control, 1, 0, false, b"a"))
                .unwrap_err(),
            FrameError::Sequence {
                expected: 1,
                got: 0
            }
        ));

        // Orphan block.
        let mut r = Reassembler::new();
        assert!(matches!(
            r.feed(from, frame(FrameKind::StreamBlock, 2, 1, false, b"z"))
                .unwrap_err(),
            FrameError::OrphanBlock
        ));

        // Kind mixing.
        let mut r = Reassembler::new();
        r.feed(from, frame(FrameKind::StreamHeader, 3, 0, false, b"h"))
            .unwrap();
        assert!(matches!(
            r.feed(from, frame(FrameKind::Control, 3, 1, false, b"c"))
                .unwrap_err(),
            FrameError::Malformed(_)
        ));

        // Message id drift.
        let mut r = Reassembler::new();
        r.feed(from, frame(FrameKind::Control, 4, 0, false, b"a"))
            .unwrap();
        assert!(matches!(
            r.feed(from, frame(FrameKind::Control, 5, 1, true, b"b"))
                .unwrap_err(),
            FrameError::Malformed(_)
        ));
    }

    #[test]
    fn feed_streaming_surfaces_blocks_immediately() {
        let mut r = Reassembler::new();
        let from = PartyId(3);
        let Some(FlowItem::StreamHeader { header, last }) = r
            .feed_streaming(from, frame(FrameKind::StreamHeader, 5, 0, false, b"hdr"))
            .unwrap()
        else {
            panic!("expected immediate header");
        };
        assert_eq!(&header[..], b"hdr");
        assert!(!last);
        let Some(FlowItem::StreamBlock { block, last }) = r
            .feed_streaming(from, frame(FrameKind::StreamBlock, 5, 1, false, b"b0"))
            .unwrap()
        else {
            panic!("expected immediate block");
        };
        assert_eq!(&block[..], b"b0");
        assert!(!last);
        // Continuity state is kept, but no blocks are buffered.
        assert_eq!(r.pending_senders(), 1);
        let Some(FlowItem::StreamBlock { last, .. }) = r
            .feed_streaming(from, frame(FrameKind::StreamBlock, 5, 2, true, b"b1"))
            .unwrap()
        else {
            panic!("expected final block");
        };
        assert!(last);
        assert_eq!(r.pending_senders(), 0);
    }

    #[test]
    fn feed_streaming_enforces_continuity() {
        let mut r = Reassembler::new();
        let from = PartyId(1);
        assert!(matches!(
            r.feed_streaming(from, frame(FrameKind::StreamBlock, 2, 1, false, b"z"))
                .unwrap_err(),
            FrameError::OrphanBlock
        ));
        r.feed_streaming(from, frame(FrameKind::StreamHeader, 3, 0, false, b"h"))
            .unwrap();
        assert!(matches!(
            r.feed_streaming(from, frame(FrameKind::StreamBlock, 3, 5, false, b"b"))
                .unwrap_err(),
            FrameError::Sequence {
                expected: 1,
                got: 5
            }
        ));
    }

    #[test]
    fn feed_streaming_handles_control_and_empty_streams() {
        let mut r = Reassembler::new();
        let from = PartyId(7);
        // Control chunks still coalesce.
        assert!(r
            .feed_streaming(from, frame(FrameKind::Control, 9, 0, false, b"ab"))
            .unwrap()
            .is_none());
        let Some(FlowItem::Message(bytes)) = r
            .feed_streaming(from, frame(FrameKind::Control, 9, 1, true, b"cd"))
            .unwrap()
        else {
            panic!("expected message");
        };
        assert_eq!(&bytes[..], b"abcd");
        // An empty stream is just its header, marked last.
        let Some(FlowItem::StreamHeader { last, .. }) = r
            .feed_streaming(from, frame(FrameKind::StreamHeader, 10, 0, true, b"h"))
            .unwrap()
        else {
            panic!("expected header");
        };
        assert!(last);
        assert_eq!(r.pending_senders(), 0);
    }

    #[test]
    fn heartbeat_roundtrip_and_rejection() {
        let hb = encode_heartbeat(PartyId(7), 42);
        assert_eq!(hb.len(), HEARTBEAT_LEN);
        assert_eq!(peek_session(&hb), Some(SessionId::LIVENESS));
        assert_eq!(decode_heartbeat(&hb), Some((PartyId(7), 42)));
        // Wrong magic, wrong length, and ordinary sealed frames all reject.
        let mut bad = hb.to_vec();
        bad[8] ^= 1;
        assert_eq!(decode_heartbeat(&bad), None);
        assert_eq!(decode_heartbeat(&hb[..20]), None);
        let f = frame(FrameKind::Control, 1, 0, true, b"payload");
        let sealed = seal_frame(key(), 5, SessionId(3), &f);
        assert_eq!(decode_heartbeat(&sealed), None);
    }
}
