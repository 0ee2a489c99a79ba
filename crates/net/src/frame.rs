//! Chunked streaming frames — the unit every transport actually carries.
//!
//! A message travels as frames of bounded size; a dataset as a *stream*:
//! one header frame followed by row-block frames that the receiver can
//! process (or relay) without ever holding one giant allocation. The byte
//! layouts are specified, with tables, in `docs/WIRE.md`.
//!
//! # Sealed frame — wire v5
//!
//! Every frame, whatever its kind, is sealed in one layout: a fixed-width
//! hop header, sealed per hop under the pair's channel key, and a payload
//! sealed once, end to end, under a [`BlockSeal`]:
//!
//! ```text
//! offset  size  field
//! 0       8     session id (u64 LE) — plaintext, authenticated
//! 8       8     hop nonce (u64 LE), bit 63 set
//! 16      16    hop header under the hop key: flags (bits 0–1 kind:
//!               0 = CONTROL, 1 = STREAM_HEADER, 2 = STREAM_BLOCK;
//!               bits 2–6 zero; bit 7 LAST), 3 zero bytes, seq (u32 LE),
//!               msg_id (u64 LE)
//! 32      8     hop tag over the hop header and the data tag
//! 40      …     payload under the seal's key, nonce (session, tag, seq)
//! len−8   8     data tag over the payload
//! ```
//!
//! A control chunk or a stream header is sealed under the pair's channel
//! key with its `msg_id` as the tag ([`seal_frame`]), as a direct
//! stream's blocks are. A dataset's blocks are sealed under the miner's
//! data key and their slot, so a relay rewrites bytes 0..40 in place
//! ([`SealedBlock::forward`]) without reading the payload.
//!
//! The session id travels **in the clear** so a [`crate::mux::SessionMux`]
//! can demultiplex a shared physical mesh into per-session virtual
//! endpoints without holding any session's key ([`peek_session`] reads it
//! zero-copy). It is nonetheless **authenticated**: the id is mixed into
//! both the keystream and the tag derivation, so a frame re-stamped with a
//! different session id fails to open — one session's frames can never be
//! replayed into another, even when two sessions share a session secret.
//!
//! The keystream runs splitmix64 in **counter mode** — every 8-byte word
//! is derived independently from the (key, nonce, index) triple, so the
//! XOR pipeline has no serial dependency chain and vectorizes — and the
//! keyed tag absorbs 32-byte blocks into four independent accumulator
//! lanes folded once at the end. Same disclaimer as [`crate::crypto`]:
//! **this models link encryption, it is not real cryptography.**

use crate::crypto::{ChannelKey, CryptoError};
use crate::pool;
use crate::transport::{PartyId, SessionId};
use bytes::Bytes;
use std::collections::HashMap;
use std::fmt;

/// Offset of a sealed frame's payload, after its hop header and hop tag.
pub const BLOCK_PAYLOAD_AT: usize = 40;

/// Smallest valid sealed frame: an empty payload and its data tag.
pub const MIN_SEALED_LEN: usize = BLOCK_PAYLOAD_AT + 8;

/// Default maximum payload bytes per frame.
pub const DEFAULT_CHUNK_SIZE: usize = 60 * 1024;

/// Bit 7 of the hop header's flags byte: last frame of the message.
const FLAG_LAST: u8 = 0x80;

/// Bits 2–6 of the hop header's flags byte: reserved, must be zero.
const RESERVED_BITS: u8 = 0x7C;

/// Bit 63 of a sealed frame's nonce, set on every frame. It marked a
/// block frame while wire v4 sealed control frames apart; kept, so a row
/// block's bytes are those of v4.
const NONCE_BIT: u64 = 1 << 63;

/// Frame classification; the discriminant is the header's kind bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// A chunk of an ordinary wire-encoded message.
    Control = 0,
    /// The wire-encoded header that opens a stream.
    StreamHeader = 1,
    /// One block of stream payload, sealed end to end.
    StreamBlock = 2,
}

impl FrameKind {
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
// Sealed envelope: word-wise keystream + word-wise keyed tag.
// ---------------------------------------------------------------------------

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The little-endian word at `at`; callers keep `at + 8` in bounds.
fn word_at(bytes: &[u8], at: usize) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[at..at + 8]);
    u64::from_le_bytes(word)
}

/// Keystream word `i` of the stream seeded by `base` — splitmix64 in
/// counter mode: every word is independent of its neighbours, so the CPU
/// overlaps several at once and the seal loop vectorizes.
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

/// Reads the session id off a sealed frame without opening it — the
/// zero-decode demultiplexing hook used by [`crate::mux::SessionMux`].
/// Returns `None` when the buffer is shorter than [`MIN_SEALED_LEN`], so
/// it cannot be a sealed frame (a heartbeat is shorter: see
/// [`decode_heartbeat`]).
pub fn peek_session(sealed: &[u8]) -> Option<SessionId> {
    (sealed.len() >= MIN_SEALED_LEN).then(|| SessionId(word_at(sealed, 0)))
}

// ---------------------------------------------------------------------------
// Liveness (heartbeat) frames
// ---------------------------------------------------------------------------

/// Magic constant identifying a heartbeat frame behind the
/// [`SessionId::LIVENESS`] stamp.
const HEARTBEAT_MAGIC: u64 = 0x4C49_5645_4245_3454; // "LIVEBE4T"

/// Size of a heartbeat frame. Fixed at 38 bytes — the v3 minimum sealed
/// size, kept verbatim since so the liveness plane is byte-compatible —
/// and below [`MIN_SEALED_LEN`], so no heartbeat is ever taken for a
/// sealed frame: a mux checks for one before it peeks a session.
pub const HEARTBEAT_LEN: usize = 38;

/// Encodes a liveness heartbeat from `from` with a monotone `seq`.
///
/// Heartbeats are **plaintext** control traffic stamped with the reserved
/// [`SessionId::LIVENESS`] id: a mux's router consumes them to refresh its
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
    (buf.len() == HEARTBEAT_LEN
        && word_at(buf, 0) == SessionId::LIVENESS.0
        && word_at(buf, 8) == HEARTBEAT_MAGIC)
        .then(|| (PartyId(word_at(buf, 16)), word_at(buf, 24)))
}

/// Header fields of a frame, without its payload: the input to
/// [`seal_block_with`], whose payload is generated in place.
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
    fn carrying(self, payload: Bytes) -> Frame {
        Frame {
            kind: self.kind,
            msg_id: self.msg_id,
            seq: self.seq,
            last: self.last,
            payload,
        }
    }
}

/// Seals one frame under the channel key for `session`: the payload under
/// `key` with the frame's `msg_id` as the tag, as a direct stream's
/// blocks are sealed, then the hop header. The output buffer comes from
/// (and eventually returns to) the global [`pool`].
pub fn seal_frame(key: ChannelKey, nonce: u64, session: SessionId, frame: &Frame) -> Bytes {
    let meta = FrameMeta {
        kind: frame.kind,
        msg_id: frame.msg_id,
        seq: frame.seq,
        last: frame.last,
    };
    let seal = BlockSeal {
        key,
        tag: frame.msg_id,
    };
    let payload = &frame.payload;
    seal_block_with(key, nonce, session, meta, seal, payload.len(), |out| {
        out.extend_from_slice(payload)
    })
}

/// Opens a frame sealed by [`seal_frame`], of any kind, from a borrowed
/// buffer, returning the session it was stamped for along with the frame.
/// The hop header is checked on `sealed` itself; only a frame that
/// verifies is copied, into one pooled buffer, and its payload opened
/// there, so the payload is a zero-copy slice of that buffer. The caller
/// decides whether the session matches its own (see
/// [`FrameError::SessionMismatch`]).
///
/// # Errors
///
/// As [`open_block_frame`].
pub fn open_frame(key: ChannelKey, sealed: &[u8]) -> Result<(SessionId, Frame), FrameError> {
    let (session, meta) = open_hop(key, sealed)?;
    let mut frame = pool::global().acquire(sealed.len());
    frame.extend_from_slice(sealed);
    let payload = open_direct(key, session, meta, Bytes::from(frame))?;
    Ok((session, meta.carrying(payload)))
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

/// The key and tag a frame's payload is sealed under, end to end. A
/// payload's nonce is `(session, tag, seq)`: streams and messages sealed
/// under one key need distinct tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockSeal {
    /// The data key (for a dataset, the miner's: [`ChannelKey::toward`];
    /// for anything else, the pair's channel key).
    pub key: ChannelKey,
    /// Tells apart what is sealed under `key` (for a dataset, its slot;
    /// for anything else, its `msg_id`).
    pub tag: u64,
}

fn block_tweak(session: SessionId, tag: u64, seq: u32) -> u64 {
    envelope_tweak(
        session,
        splitmix(tag ^ 0xB10C_7A60_0000_0000) ^ u64::from(seq),
    )
}

/// The hop tag, over the hop header and the data tag of a frame at least
/// [`MIN_SEALED_LEN`] long.
fn hop_mac(hop: ChannelKey, tweak: u64, frame: &[u8]) -> u64 {
    let mut covered = [0u8; 24];
    covered[..16].copy_from_slice(&frame[16..32]);
    covered[16..].copy_from_slice(&frame[frame.len() - 8..]);
    word_mac(hop.0, tweak, &covered)
}

/// Writes bytes 0..40 of a sealed frame, the only bytes a hop writes.
fn seal_hop(hop: ChannelKey, nonce: u64, session: SessionId, meta: FrameMeta, frame: &mut [u8]) {
    let nonce = nonce | NONCE_BIT;
    let tweak = envelope_tweak(session, nonce);
    frame[..8].copy_from_slice(&session.0.to_le_bytes());
    frame[8..16].copy_from_slice(&nonce.to_le_bytes());
    frame[16] = meta.kind as u8 | if meta.last { FLAG_LAST } else { 0 };
    frame[17..20].fill(0);
    frame[20..24].copy_from_slice(&meta.seq.to_le_bytes());
    frame[24..32].copy_from_slice(&meta.msg_id.to_le_bytes());
    keystream_xor(hop.0, tweak, &mut frame[16..32]);
    let tag = hop_mac(hop, tweak, frame);
    frame[32..40].copy_from_slice(&tag.to_le_bytes());
}

/// Checks the hop tag of a sealed frame under `hop` and parses its hop
/// header; the payload is not read.
fn open_hop(hop: ChannelKey, sealed: &[u8]) -> Result<(SessionId, FrameMeta), FrameError> {
    if sealed.len() < MIN_SEALED_LEN {
        return Err(CryptoError::Truncated.into());
    }
    let session = SessionId(word_at(sealed, 0));
    let tweak = envelope_tweak(session, word_at(sealed, 8));
    if hop_mac(hop, tweak, sealed) != word_at(sealed, 32) {
        return Err(CryptoError::BadTag.into());
    }
    let mut header = [0u8; 16];
    header.copy_from_slice(&sealed[16..32]);
    keystream_xor(hop.0, tweak, &mut header);
    if header[0] & RESERVED_BITS != 0 || header[1..4] != [0; 3] {
        return Err(FrameError::Malformed("reserved header bits set"));
    }
    let meta = FrameMeta {
        kind: FrameKind::from_byte(header[0] & 0x03)?,
        msg_id: word_at(&header, 8),
        seq: u32::from_le_bytes([header[4], header[5], header[6], header[7]]),
        last: header[0] & FLAG_LAST != 0,
    };
    Ok((session, meta))
}

/// Seals a frame: the payload, written in place by `write_payload`, once
/// under `seal`, then the hop header under `hop`.
pub fn seal_block_with(
    hop: ChannelKey,
    nonce: u64,
    session: SessionId,
    meta: FrameMeta,
    seal: BlockSeal,
    size_hint: usize,
    write_payload: impl FnOnce(&mut Vec<u8>),
) -> Bytes {
    let mut out = pool::global().acquire(MIN_SEALED_LEN + size_hint);
    out.resize(BLOCK_PAYLOAD_AT, 0);
    write_payload(&mut out);
    let tweak = block_tweak(session, seal.tag, meta.seq);
    keystream_xor(seal.key.0, tweak, &mut out[BLOCK_PAYLOAD_AT..]);
    let tag = word_mac(seal.key.0, tweak, &out[BLOCK_PAYLOAD_AT..]);
    out.extend_from_slice(&tag.to_le_bytes());
    seal_hop(hop, nonce, session, meta, &mut out);
    Bytes::from(out)
}

/// Opens a frame as a node receives it: its hop header under `hop`, then,
/// for a control chunk or a stream header, its payload in place under
/// `hop` and the frame's `msg_id`. A stream block's payload stays sealed
/// end to end: its frame's payload is the whole, untouched frame, for a
/// [`SealedBlock`].
///
/// # Errors
///
/// [`FrameError::Crypto`] on truncation or a bad tag, and
/// [`FrameError::Malformed`] on kind 3 or reserved header bits.
pub fn open_block_frame(hop: ChannelKey, sealed: Bytes) -> Result<(SessionId, Frame), FrameError> {
    let (session, meta) = open_hop(hop, &sealed)?;
    let payload = match meta.kind {
        FrameKind::StreamBlock => sealed,
        FrameKind::Control | FrameKind::StreamHeader => open_direct(hop, session, meta, sealed)?,
    };
    Ok((session, meta.carrying(payload)))
}

/// Opens, in place, the payload of a frame whose hop header opened as
/// `meta`: under the hop key with the frame's `msg_id` as the tag.
fn open_direct(
    hop: ChannelKey,
    session: SessionId,
    meta: FrameMeta,
    frame: Bytes,
) -> Result<Bytes, FrameError> {
    let seal = BlockSeal {
        key: hop,
        tag: meta.msg_id,
    };
    SealedBlock {
        frame,
        seq: meta.seq,
    }
    .open(session, seal)
}

/// A stream block as it arrived: its hop header checked, its payload
/// still sealed end to end. A relay [`forward`](Self::forward)s it, its
/// destination [`open`](Self::open)s it.
#[derive(Debug, Clone)]
pub struct SealedBlock {
    frame: Bytes,
    seq: u32,
}

impl SealedBlock {
    /// The buffer, to change in place: copied only if shared.
    fn into_owned(self) -> Result<Vec<u8>, FrameError> {
        if self.frame.len() < MIN_SEALED_LEN {
            return Err(CryptoError::Truncated.into());
        }
        Ok(self
            .frame
            .try_into_vec()
            .unwrap_or_else(|shared| shared.to_vec()))
    }

    /// Opens the payload under `seal` in `session`, in place.
    ///
    /// # Errors
    ///
    /// [`FrameError::Crypto`] unless the block was sealed under `seal` in
    /// `session` at its seq and no byte of it changed.
    pub fn open(self, session: SessionId, seal: BlockSeal) -> Result<Bytes, FrameError> {
        let tweak = block_tweak(session, seal.tag, self.seq);
        let mut frame = self.into_owned()?;
        let end = frame.len() - 8;
        if word_mac(seal.key.0, tweak, &frame[BLOCK_PAYLOAD_AT..end]) != word_at(&frame, end) {
            return Err(CryptoError::BadTag.into());
        }
        keystream_xor(seal.key.0, tweak, &mut frame[BLOCK_PAYLOAD_AT..end]);
        Ok(Bytes::from(frame).slice(BLOCK_PAYLOAD_AT..end))
    }

    /// Rewrites the hop header, in place, for the next hop; the payload is
    /// neither read nor written. Fails only on a frame too short to be a
    /// sealed frame ([`FrameError::Crypto`]).
    pub fn forward(
        self,
        hop: ChannelKey,
        nonce: u64,
        session: SessionId,
        meta: FrameMeta,
    ) -> Result<Bytes, FrameError> {
        let mut frame = self.into_owned()?;
        seal_hop(hop, nonce, session, meta, &mut frame);
        Ok(Bytes::from(frame))
    }
}

// ---------------------------------------------------------------------------
// Reassembly
// ---------------------------------------------------------------------------

/// Reassembly state of one open message or stream.
enum Partial {
    /// A control message split over several frames: its chunks so far.
    Message { next_seq: u32, chunks: Vec<Bytes> },
    /// An open stream: continuity state only, never its blocks.
    Stream { next_seq: u32 },
}

/// Reassembly of frames into deliveries, per `(sender, msg_id)`.
///
/// Control messages are small and assemble whole. Stream headers and
/// blocks come out per frame, the moment they arrive, so a receiver can
/// relay, decode or adapt a block while the rest of its stream is still
/// on the wire; for a stream only its continuity state is kept, never a
/// payload byte.
///
/// A sender may keep several messages and streams open at once and
/// interleave their frames: a frame with a new `msg_id` at `seq` 0 opens
/// another one. Transports deliver per-sender FIFO, so within one
/// message a gap, a duplicate or a kind change is a hard error (SAP
/// aborts rather than guessing) and drops that message's state.
#[derive(Default)]
pub struct Reassembler {
    pending: HashMap<(PartyId, u64), Partial>,
}

impl Reassembler {
    /// Creates an empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one frame; returns a delivery when `frame` completes a
    /// control message or carries a stream header or block.
    ///
    /// # Errors
    ///
    /// Returns [`FrameError`] on sequence violations, kind mixing, or
    /// orphan blocks.
    pub fn feed(&mut self, from: PartyId, frame: Frame) -> Result<Option<FlowItem>, FrameError> {
        let key = (from, frame.msg_id);
        // A message or a stream opens at seq 0.
        let (next_seq, mut chunks) = match (frame.kind, self.pending.remove(&key)) {
            (FrameKind::Control | FrameKind::StreamHeader, None) => (0, Vec::new()),
            (FrameKind::Control, Some(Partial::Message { next_seq, chunks })) => (next_seq, chunks),
            (FrameKind::StreamBlock, Some(Partial::Stream { next_seq })) => (next_seq, Vec::new()),
            (FrameKind::StreamBlock, None) => return Err(FrameError::OrphanBlock),
            (_, Some(_)) => return Err(FrameError::Malformed("frame kind changed mid-message")),
        };
        if frame.seq != next_seq {
            return Err(FrameError::Sequence {
                expected: next_seq,
                got: frame.seq,
            });
        }
        let (last, stream, next_seq) = (frame.last, frame.msg_id, next_seq + 1);
        match frame.kind {
            FrameKind::Control if last && chunks.is_empty() => Ok(Some(Flow::Msg(frame.payload))),
            FrameKind::Control => {
                chunks.push(frame.payload);
                if last {
                    return Ok(Some(Flow::Msg(join_chunks(&chunks))));
                }
                self.pending
                    .insert(key, Partial::Message { next_seq, chunks });
                Ok(None)
            }
            kind => {
                if !last {
                    self.pending.insert(key, Partial::Stream { next_seq });
                }
                Ok(Some(if kind == FrameKind::StreamHeader {
                    Flow::StreamStart {
                        stream,
                        header: frame.payload,
                        last,
                    }
                } else {
                    Flow::StreamBlock {
                        stream,
                        block: SealedBlock {
                            frame: frame.payload,
                            seq: frame.seq,
                        },
                        last,
                    }
                }))
            }
        }
    }
}

/// One delivery: a whole control message, or one frame of a stream, the
/// moment it lands — the granularity the streaming data plane overlaps
/// compute and I/O at. [`Reassembler::feed`] yields it undecoded
/// ([`FlowItem`]); a [`crate::Node`] decodes the message and the header.
#[derive(Debug)]
pub enum Flow<M, H> {
    /// A fully assembled message (control frames are small and coalesce).
    Msg(M),
    /// A stream opened. `last` is `true` for an empty stream — no blocks
    /// will follow.
    StreamStart {
        /// The stream's id, unique per sender: the blocks that follow
        /// carry it, so a sender may keep several streams open at once.
        stream: u64,
        /// The stream header.
        header: H,
        /// `true` when the stream carries no blocks.
        last: bool,
    },
    /// One stream block, in order, its payload still sealed end to end.
    StreamBlock {
        /// The id of the stream this block belongs to.
        stream: u64,
        /// The block: forward it or open it.
        block: SealedBlock,
        /// `true` when this is the stream's final block.
        last: bool,
    },
}

/// A [`Flow`] as the reassembler yields it: message and header encoded.
pub type FlowItem = Flow<Bytes, Bytes>;

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
    fn block_frame_carries_max_msg_id_and_seq() {
        // The hop header is fixed-width: an empty frame is MIN_SEALED_LEN
        // whatever its ids, and the widest ids round-trip.
        let f = frame(FrameKind::Control, 1, 0, true, b"");
        assert_eq!(seal_frame(key(), 1, SessionId(1), &f).len(), MIN_SEALED_LEN);
        for kind in [FrameKind::Control, FrameKind::StreamHeader] {
            let f = frame(kind, u64::MAX, u32::MAX, false, b"");
            let sealed = seal_frame(key(), 2, SessionId(1), &f);
            assert_eq!(sealed.len(), MIN_SEALED_LEN);
            let (_, back) = open_frame(key(), &sealed).unwrap();
            let (_, opened) = open_block_frame(key(), sealed).unwrap();
            for back in [back, opened] {
                assert_eq!(
                    (back.kind, back.msg_id, back.seq, back.last),
                    (kind, u64::MAX, u32::MAX, false)
                );
            }
        }
    }

    /// Rewrites the hop header of a frame sealed under `key()` with
    /// `change`, under a valid hop tag.
    fn reheader(sealed: &[u8], change: impl FnOnce(&mut [u8; 16])) -> Bytes {
        let mut frame = sealed.to_vec();
        let tweak = envelope_tweak(SessionId(word_at(&frame, 0)), word_at(&frame, 8));
        let mut header = [0u8; 16];
        header.copy_from_slice(&frame[16..32]);
        keystream_xor(key().0, tweak, &mut header);
        change(&mut header);
        keystream_xor(key().0, tweak, &mut header);
        frame[16..32].copy_from_slice(&header);
        let tag = hop_mac(key(), tweak, &frame);
        frame[32..40].copy_from_slice(&tag.to_le_bytes());
        Bytes::from(frame)
    }

    #[test]
    fn open_block_frame_rejects_kind_3_and_reserved_bits() {
        let sealed = seal_frame(
            key(),
            3,
            SessionId(5),
            &frame(FrameKind::Control, 2, 0, true, b"x"),
        );
        // The rewrite itself keeps a frame valid.
        assert!(open_block_frame(key(), reheader(&sealed, |_| {})).is_ok());
        // Kind 3, each reserved bit of the flags byte, each reserved byte.
        let kind_3 = [(0, 0x03)];
        let bits = (2..7).map(|bit| (0, 1u8 << bit));
        let bytes = (1..4).map(|byte| (byte, 1));
        for (at, set) in kind_3.into_iter().chain(bits).chain(bytes) {
            let bad = reheader(&sealed, |header| header[at] |= set);
            assert!(matches!(
                open_frame(key(), &bad),
                Err(FrameError::Malformed(_))
            ));
            assert!(matches!(
                open_block_frame(key(), bad),
                Err(FrameError::Malformed(_))
            ));
        }
    }

    #[test]
    fn seal_frame_is_the_direct_stream_block_frame() {
        let payload = b"sealed as a direct stream's blocks are";
        for kind in [
            FrameKind::Control,
            FrameKind::StreamHeader,
            FrameKind::StreamBlock,
        ] {
            let meta = FrameMeta {
                kind,
                msg_id: 9,
                seq: 1,
                last: false,
            };
            let seal = BlockSeal { key: key(), tag: 9 };
            let direct =
                seal_block_with(key(), 4, SessionId(2), meta, seal, payload.len(), |out| {
                    out.extend_from_slice(payload)
                });
            let sealed = seal_frame(key(), 4, SessionId(2), &frame(kind, 9, 1, false, payload));
            assert_eq!(&sealed[..], &direct[..]);
            let (session, back) = open_frame(key(), &sealed).unwrap();
            assert_eq!(session, SessionId(2));
            assert_eq!(&back.payload[..], payload);
        }
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
        let Flow::Msg(bytes) = out else {
            panic!("expected message");
        };
        assert_eq!(&bytes[..], b"abcd");
        assert_eq!(r.pending.len(), 0);
    }

    #[test]
    fn reassembles_stream() {
        let mut r = Reassembler::new();
        let from = PartyId(3);
        let mut got = Vec::new();
        for (kind, seq, last, payload) in [
            (FrameKind::StreamHeader, 0, false, b"hdr"),
            (FrameKind::StreamBlock, 1, false, b"bk0"),
            (FrameKind::StreamBlock, 2, true, b"bk1"),
        ] {
            match r.feed(from, frame(kind, 5, seq, last, payload)).unwrap() {
                Some(Flow::StreamStart { header, last, .. }) => got.push((header, last)),
                Some(Flow::StreamBlock { block, last, .. }) => got.push((block.frame, last)),
                other => panic!("expected a stream frame, got {other:?}"),
            }
        }
        let got: Vec<(&[u8], bool)> = got.iter().map(|(b, l)| (&b[..], *l)).collect();
        assert_eq!(got, [(&b"hdr"[..], false), (b"bk0", false), (b"bk1", true)]);
        assert_eq!(r.pending.len(), 0);
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

        // Message id drift: a frame of an id that never opened at seq 0
        // is a gap in that message, not a continuation of message 4.
        let mut r = Reassembler::new();
        r.feed(from, frame(FrameKind::Control, 4, 0, false, b"a"))
            .unwrap();
        assert!(matches!(
            r.feed(from, frame(FrameKind::Control, 5, 1, true, b"b"))
                .unwrap_err(),
            FrameError::Sequence {
                expected: 0,
                got: 1
            }
        ));
    }

    #[test]
    fn feed_streaming_surfaces_blocks_immediately() {
        let mut r = Reassembler::new();
        let from = PartyId(3);
        let Some(Flow::StreamStart { header, last, .. }) = r
            .feed(from, frame(FrameKind::StreamHeader, 5, 0, false, b"hdr"))
            .unwrap()
        else {
            panic!("expected immediate header");
        };
        assert_eq!(&header[..], b"hdr");
        assert!(!last);
        let Some(Flow::StreamBlock { block, last, .. }) = r
            .feed(from, frame(FrameKind::StreamBlock, 5, 1, false, b"b0"))
            .unwrap()
        else {
            panic!("expected immediate block");
        };
        assert_eq!(&block.frame[..], b"b0");
        assert!(!last);
        // Continuity state is kept, but no blocks are buffered.
        assert_eq!(r.pending.len(), 1);
        let Some(Flow::StreamBlock { last, .. }) = r
            .feed(from, frame(FrameKind::StreamBlock, 5, 2, true, b"b1"))
            .unwrap()
        else {
            panic!("expected final block");
        };
        assert!(last);
        assert_eq!(r.pending.len(), 0);
    }

    #[test]
    fn feed_streaming_enforces_continuity() {
        let mut r = Reassembler::new();
        let from = PartyId(1);
        assert!(matches!(
            r.feed(from, frame(FrameKind::StreamBlock, 2, 1, false, b"z"))
                .unwrap_err(),
            FrameError::OrphanBlock
        ));
        r.feed(from, frame(FrameKind::StreamHeader, 3, 0, false, b"h"))
            .unwrap();
        assert!(matches!(
            r.feed(from, frame(FrameKind::StreamBlock, 3, 5, false, b"b"))
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
            .feed(from, frame(FrameKind::Control, 9, 0, false, b"ab"))
            .unwrap()
            .is_none());
        let Some(Flow::Msg(bytes)) = r
            .feed(from, frame(FrameKind::Control, 9, 1, true, b"cd"))
            .unwrap()
        else {
            panic!("expected message");
        };
        assert_eq!(&bytes[..], b"abcd");
        // An empty stream is just its header, marked last.
        let Some(Flow::StreamStart { last, .. }) = r
            .feed(from, frame(FrameKind::StreamHeader, 10, 0, true, b"h"))
            .unwrap()
        else {
            panic!("expected header");
        };
        assert!(last);
        assert_eq!(r.pending.len(), 0);
    }

    impl Reassembler {
        /// Payload bytes held across calls: the chunks of unfinished
        /// control messages. A stream keeps continuity state only.
        fn retained_bytes(&self) -> usize {
            self.pending
                .values()
                .map(|partial| match partial {
                    Partial::Message { chunks, .. } => chunks.iter().map(Bytes::len).sum(),
                    Partial::Stream { .. } => 0,
                })
                .sum()
        }
    }

    /// A small deterministic generator for the frame scripts below.
    struct Xorshift(u64);

    impl Xorshift {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// What one delivery carries, in a comparable form: `(kind, bytes,
    /// last)` with kind 0 = message, 1 = stream header, 2 = stream block.
    fn delivery(item: FlowItem) -> (u8, Vec<u8>, bool) {
        match item {
            Flow::Msg(bytes) => (0, bytes.to_vec(), true),
            Flow::StreamStart { header, last, .. } => (1, header.to_vec(), last),
            Flow::StreamBlock { block, last, .. } => (2, block.frame.to_vec(), last),
        }
    }

    fn block_seal() -> BlockSeal {
        BlockSeal {
            key: ChannelKey::toward(77, 100),
            tag: 0x51_07,
        }
    }

    /// A block frame of `payload` at `seq`, sealed for the test seal.
    fn block_frame(payload: &[u8], seq: u32) -> Bytes {
        let meta = FrameMeta {
            kind: FrameKind::StreamBlock,
            msg_id: 4,
            seq,
            last: false,
        };
        seal_block_with(
            key(),
            9,
            SessionId(3),
            meta,
            block_seal(),
            payload.len(),
            |out| out.extend_from_slice(payload),
        )
    }

    #[test]
    fn block_frame_roundtrip_and_forward_keep_the_payload_bytes() {
        for len in [0usize, 1, 7, 8, 9, 64, 4096] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 13) as u8).collect();
            let sealed = block_frame(&payload, 2);
            assert_eq!(sealed.len(), MIN_SEALED_LEN + len);
            let (session, frame) = open_block_frame(key(), sealed.clone()).unwrap();
            assert_eq!((session, frame.msg_id, frame.seq), (SessionId(3), 4, 2));
            let block = SealedBlock {
                frame: frame.payload,
                seq: frame.seq,
            };
            let next = ChannelKey::derive(77, 2, 100);
            let meta = FrameMeta {
                kind: FrameKind::StreamBlock,
                msg_id: 8,
                seq: 2,
                last: true,
            };
            let forwarded = block.forward(next, 5, session, meta).unwrap();
            assert_eq!(forwarded[BLOCK_PAYLOAD_AT..], sealed[BLOCK_PAYLOAD_AT..]);
            assert!(open_block_frame(key(), forwarded.clone()).is_err());
            let (_, frame) = open_block_frame(next, forwarded).unwrap();
            assert_eq!((frame.msg_id, frame.seq, frame.last), (8, 2, true));
            let block = SealedBlock {
                frame: frame.payload,
                seq: frame.seq,
            };
            assert_eq!(
                &block.open(session, block_seal()).unwrap()[..],
                &payload[..]
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// The one parse and every open are total on any bytes —
        /// arbitrary, or a valid frame of any kind with a bit flipped, cut
        /// short or extended: a typed error and no panic, output no longer
        /// than the input, and no changed frame ever opens. A stream block
        /// is sealed under the miner's seal, a control chunk or stream
        /// header under the hop key and its `msg_id`.
        #[test]
        fn block_frame_parse_and_open_are_total(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..160,
            kind in 0u8..3,
            mutate in proptest::prelude::any::<bool>(),
        ) {
            let mut rng = Xorshift(seed | 1);
            let kind = FrameKind::from_byte(kind).unwrap();
            let payload = vec![0x3C; len / 2];
            let original = match kind {
                FrameKind::StreamBlock => block_frame(&payload, 1),
                _ => seal_frame(key(), 9, SessionId(3), &frame(kind, 4, 1, false, &payload)),
            }
            .to_vec();
            let bytes: Vec<u8> = if mutate {
                let mut frame = original.clone();
                match rng.below(3) {
                    0 => {
                        let i = rng.below(frame.len() as u64) as usize;
                        frame[i] ^= 1 << rng.below(8);
                    }
                    1 => frame.truncate(rng.below(frame.len() as u64) as usize),
                    _ => frame.extend((0..len % 9).map(|i| i as u8)),
                }
                frame
            } else {
                (0..len).map(|_| rng.below(256) as u8).collect()
            };
            let (n, changed) = (bytes.len(), bytes != original);
            match open_frame(key(), &bytes) {
                Ok((_, frame)) => {
                    proptest::prop_assert!(!changed, "a changed frame opened");
                    proptest::prop_assert!(frame.payload.len() <= n);
                }
                Err(FrameError::Crypto(_) | FrameError::Malformed(_)) => {}
                Err(other) => proptest::prop_assert!(false, "unexpected error: {other}"),
            }
            match open_block_frame(key(), Bytes::from(bytes)) {
                Err(FrameError::Crypto(_) | FrameError::Malformed(_)) => {}
                Err(other) => proptest::prop_assert!(false, "unexpected error: {other}"),
                Ok((_, frame)) if frame.kind != FrameKind::StreamBlock => {
                    proptest::prop_assert!(!changed, "a changed frame opened");
                    proptest::prop_assert!(frame.payload.len() <= n);
                }
                Ok((session, frame)) => {
                    proptest::prop_assert_eq!(frame.payload.len(), n);
                    let block = SealedBlock { frame: frame.payload, seq: frame.seq };
                    match block.clone().open(session, block_seal()) {
                        Ok(plain) => {
                            proptest::prop_assert!(!changed, "a changed frame opened");
                            proptest::prop_assert!(plain.len() <= n);
                        }
                        Err(FrameError::Crypto(_)) => {}
                        Err(other) => proptest::prop_assert!(false, "unexpected error: {other}"),
                    }
                    let meta = FrameMeta {
                        kind: FrameKind::StreamBlock,
                        msg_id: 1,
                        seq: 1,
                        last: true,
                    };
                    let forwarded = block.forward(key(), 2, session, meta).unwrap();
                    proptest::prop_assert_eq!(forwarded.len(), n);
                }
            }
        }

        /// Arbitrary frame sequences (any sender, kind, msg id, seq, last
        /// flag and payload) never panic the reassembler, every violation
        /// is a typed framing error, the only payload bytes it ever holds
        /// are chunks of control messages — never a stream's — and it
        /// keeps at most one entry per `(sender, msg_id)` pair fed.
        #[test]
        fn arbitrary_frames_fail_typed_and_retain_no_stream_bytes(
            seed in proptest::prelude::any::<u64>(),
            len in 0usize..64,
            streams_only in proptest::prelude::any::<bool>(),
        ) {
            let mut rng = Xorshift(seed | 1);
            let mut r = Reassembler::new();
            let mut control_bytes = 0;
            let mut fed = std::collections::HashSet::new();
            for _ in 0..len {
                let kind = match rng.below(3) {
                    0 if !streams_only => FrameKind::Control,
                    0 | 1 => FrameKind::StreamHeader,
                    _ => FrameKind::StreamBlock,
                };
                let payload = vec![0xA5; rng.below(9) as usize];
                if kind == FrameKind::Control {
                    control_bytes += payload.len();
                }
                let from = PartyId(rng.below(3));
                let (msg_id, seq, last) = (rng.below(3), rng.below(4) as u32, rng.below(2) == 0);
                fed.insert((from, msg_id));
                match r.feed(from, frame(kind, msg_id, seq, last, &payload)) {
                    Ok(_)
                    | Err(FrameError::Sequence { .. })
                    | Err(FrameError::OrphanBlock)
                    | Err(FrameError::Malformed(_)) => {}
                    Err(other) => proptest::prop_assert!(false, "unexpected error: {other}"),
                }
                proptest::prop_assert!(r.retained_bytes() <= control_bytes);
                proptest::prop_assert!(r.pending.len() <= fed.len());
            }
        }

        /// Any interleaving of well-formed senders, each keeping several
        /// messages and streams open at once, delivers exactly what was
        /// sent, in each message's order: each control message whole,
        /// each stream as its header then its blocks one by one, tagged
        /// with its own `msg_id`. The reassembler holds only the chunks of
        /// control messages still in flight, and nothing once every
        /// sender is done.
        #[test]
        fn valid_interleavings_deliver_each_senders_frames_in_order(
            seed in proptest::prelude::any::<u64>(),
        ) {
            const SENDERS: usize = 3;
            type Deliveries = Vec<(u8, Vec<u8>, bool)>;
            let mut rng = Xorshift(seed | 1);
            // scripts[sender][msg_id]: that message's frames, last first.
            let mut scripts: Vec<Vec<Vec<Frame>>> = vec![Vec::new(); SENDERS];
            let mut expected: Vec<Vec<Deliveries>> = vec![Vec::new(); SENDERS];
            for (sender, (script, want)) in scripts.iter_mut().zip(&mut expected).enumerate() {
                for msg_id in 0..rng.below(5) {
                    let stream = rng.below(2) == 0;
                    // A message has 1–3 chunks; a stream a header and 0–3 blocks.
                    let frames = 1 + rng.below(if stream { 4 } else { 3 }) as u32;
                    let (mut joined, mut message, mut deliveries) = (Vec::new(), Vec::new(), Vec::new());
                    for seq in 0..frames {
                        let len = rng.below(6) as usize;
                        let payload: Vec<u8> = (0..len)
                            .map(|i| (sender * 64) as u8 ^ ((msg_id as u8) << 3) ^ seq as u8 ^ i as u8)
                            .collect();
                        let last = seq + 1 == frames;
                        let kind = match (stream, seq) {
                            (false, _) => FrameKind::Control,
                            (true, 0) => FrameKind::StreamHeader,
                            (true, _) => FrameKind::StreamBlock,
                        };
                        if stream {
                            deliveries.push((if seq == 0 { 1 } else { 2 }, payload.clone(), last));
                        } else {
                            joined.extend_from_slice(&payload);
                        }
                        message.push(frame(kind, msg_id, seq, last, &payload));
                    }
                    if !stream {
                        deliveries.push((0, joined, true));
                    }
                    message.reverse(); // pop() takes frames in send order
                    script.push(message);
                    want.push(deliveries);
                }
            }

            let mut r = Reassembler::new();
            let mut got: Vec<Vec<Deliveries>> =
                expected.iter().map(|msgs| vec![Vec::new(); msgs.len()]).collect();
            let mut in_flight: Vec<Vec<usize>> =
                expected.iter().map(|msgs| vec![0; msgs.len()]).collect();
            let open = |scripts: &[Vec<Vec<Frame>>]| -> Vec<(usize, usize)> {
                scripts
                    .iter()
                    .enumerate()
                    .flat_map(|(s, msgs)| {
                        msgs.iter()
                            .enumerate()
                            .filter(|(_, frames)| !frames.is_empty())
                            .map(move |(m, _)| (s, m))
                    })
                    .collect()
            };
            loop {
                let live = open(&scripts);
                if live.is_empty() {
                    break;
                }
                // Any sender sends the next frame of any of its messages.
                let (sender, msg) = live[rng.below(live.len() as u64) as usize];
                let next = scripts[sender][msg].pop().expect("live message has frames");
                if next.kind == FrameKind::Control {
                    let held = &mut in_flight[sender][msg];
                    *held = if next.last { 0 } else { *held + next.payload.len() };
                }
                let item = r.feed(PartyId(sender as u64), next);
                proptest::prop_assert!(item.is_ok(), "valid frame refused: {:?}", item);
                if let Some(item) = item.unwrap() {
                    if let Flow::StreamStart { stream, .. } | Flow::StreamBlock { stream, .. } = &item {
                        proptest::prop_assert_eq!(*stream, msg as u64);
                    }
                    got[sender][msg].push(delivery(item));
                }
                let held: usize = in_flight.iter().flatten().sum();
                proptest::prop_assert_eq!(r.retained_bytes(), held);
            }
            proptest::prop_assert_eq!(got, expected);
            proptest::prop_assert_eq!(r.pending.len(), 0);
        }
    }

    #[test]
    fn heartbeat_roundtrip_and_rejection() {
        let hb = encode_heartbeat(PartyId(7), 42);
        assert_eq!(hb.len(), HEARTBEAT_LEN);
        // Below the sealed floor: a mux checks for a heartbeat first.
        assert_eq!(peek_session(&hb), None);
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
