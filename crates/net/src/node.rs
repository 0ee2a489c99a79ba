//! Typed, sealed, frame-based messaging on top of a [`Transport`].
//!
//! A [`Node`] owns a transport endpoint and the session secret. Every
//! outgoing message is [`crate::wire`]-encoded once into a pooled scratch
//! buffer (see [`crate::pool`]), split into bounded
//! [`crate::frame`] chunks, and each chunk sealed **directly into a
//! pooled envelope buffer** under the per-direction channel key. Large
//! payloads can instead travel as *streams* — a typed header plus raw
//! blocks — via [`Node::send_stream`]; receivers get the header and each
//! block back exactly as sent, one frame at a time
//! ([`Node::recv_flow_timeout`]), so a relay can forward a block without
//! decoding it while the rest of its stream is still on the wire (the
//! SAP anonymizing hop does exactly that). Sink-capable producers can skip
//! the intermediate block allocation entirely with
//! [`Node::stream_block_with`].
//!
//! This is the layer the protocol actors in `sap-core` talk to; they are
//! generic over the transport.

use crate::crypto::ChannelKey;
use crate::frame::{
    self, FlowItem, Frame, FrameError, FrameKind, FrameMeta, Reassembler, DEFAULT_CHUNK_SIZE,
};
use crate::pool;
use crate::transport::{PartyId, SessionId, Transport, TransportError};
use crate::wire::{self, Wire, WireError};
use bytes::Bytes;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Errors from typed messaging.
#[derive(Debug)]
pub enum NodeError {
    /// The underlying transport failed.
    Transport(TransportError),
    /// A frame failed to open or violated framing invariants.
    Frame(FrameError),
    /// The payload failed to decode in the wire format.
    Codec(WireError),
}

impl std::fmt::Display for NodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NodeError::Transport(e) => write!(f, "transport: {e}"),
            NodeError::Frame(e) => write!(f, "frame: {e}"),
            NodeError::Codec(e) => write!(f, "codec: {e}"),
        }
    }
}

impl std::error::Error for NodeError {}

impl From<TransportError> for NodeError {
    fn from(e: TransportError) -> Self {
        NodeError::Transport(e)
    }
}

impl From<FrameError> for NodeError {
    fn from(e: FrameError) -> Self {
        NodeError::Frame(e)
    }
}

impl From<WireError> for NodeError {
    fn from(e: WireError) -> Self {
        NodeError::Codec(e)
    }
}

/// One inbound delivery (see [`Node::recv_flow_timeout`]): a whole
/// message, or one frame of a stream. The header and each block surface
/// the moment they land — the granularity the streaming data plane
/// overlaps compute and I/O at.
#[derive(Debug)]
pub enum NodeFlow<M, H> {
    /// An ordinary (fully assembled) message.
    Msg(M),
    /// A stream opened. `last` is `true` for an empty stream — no blocks
    /// will follow.
    StreamStart {
        /// The stream's id, unique per sender: the blocks that follow
        /// carry it, so a sender may keep several streams open at once.
        stream: u64,
        /// The decoded stream header.
        header: H,
        /// `true` when the stream carries no blocks.
        last: bool,
    },
    /// One raw stream block, in order, exactly as the sender produced it.
    StreamBlock {
        /// The id of the stream this block belongs to.
        stream: u64,
        /// The raw block payload.
        block: Bytes,
        /// `true` when this is the stream's final block.
        last: bool,
    },
}

/// An in-progress outbound stream opened with [`Node::begin_stream`].
///
/// The handle tracks the frame sequence; feed it blocks with
/// [`Node::stream_block`] and mark the final one with `last = true`.
/// Every stream has its own message id and receivers reassemble per
/// `(sender, msg_id)`, so a node may keep several streams to one peer
/// open at once and interleave their blocks.
#[derive(Debug)]
pub struct StreamHandle {
    to: PartyId,
    msg_id: u64,
    next_seq: u32,
    finished: bool,
}

impl StreamHandle {
    /// The peer this stream is addressed to.
    pub fn to(&self) -> PartyId {
        self.to
    }
}

/// A party's typed messaging endpoint, generic over the transport.
///
/// # Threading contract
///
/// A node belongs to **one logical owner** — each session role runs on
/// its own thread with its own node — and the `&self` API lets a role
/// interleave sends and receives. Sends, to one peer or many, may run
/// concurrently: each message and stream has its own message id, and the
/// receiver reassembles per `(sender, msg_id)`, so interleaved frames of
/// several messages are legal. Receives may not: concurrent `recv_*`
/// calls could feed one message's frames into reassembly out of order,
/// which aborts the session by design (framing violations are protocol
/// violations).
pub struct Node<T: Transport> {
    transport: T,
    session_secret: u64,
    session: SessionId,
    counter: AtomicU64,
    reassembler: Mutex<Reassembler>,
}

impl<T: Transport> Node<T> {
    /// Wraps a transport with the session secret (all parties of a
    /// session derive pairwise channel keys from it), in the standalone
    /// session ([`SessionId::SOLO`]).
    pub fn new(transport: T, session_secret: u64) -> Self {
        Node::for_session(transport, session_secret, SessionId::SOLO)
    }

    /// Wraps a transport for one session of a multiplexed mesh: every
    /// outgoing frame is stamped (and sealed) for `session`, and inbound
    /// frames stamped for any other session are rejected with
    /// [`FrameError::SessionMismatch`].
    pub fn for_session(transport: T, session_secret: u64, session: SessionId) -> Self {
        Node {
            transport,
            session_secret,
            session,
            counter: AtomicU64::new(1),
            reassembler: Mutex::new(Reassembler::new()),
        }
    }

    /// The session this node's frames are stamped for.
    pub fn session(&self) -> SessionId {
        self.session
    }

    /// This node's party id.
    pub fn id(&self) -> PartyId {
        self.transport.local_id()
    }

    /// Borrow the underlying transport (e.g. to flush a fault injector).
    pub fn transport(&self) -> &T {
        &self.transport
    }

    fn send_key(&self, to: PartyId) -> ChannelKey {
        ChannelKey::derive(self.session_secret, self.id().0, to.0)
    }

    fn next_id(&self) -> u64 {
        self.counter.fetch_add(1, Ordering::Relaxed)
    }

    /// Seals one frame, generating its payload straight into the pooled
    /// sealed buffer, and hands it to the transport.
    fn seal_and_send(
        &self,
        to: PartyId,
        meta: FrameMeta,
        size_hint: usize,
        write_payload: impl FnOnce(&mut Vec<u8>),
    ) -> Result<(), NodeError> {
        let sealed = frame::seal_frame_with(
            self.send_key(to),
            self.next_id(),
            self.session,
            meta,
            size_hint,
            write_payload,
        );
        self.transport.send(to, sealed)?;
        Ok(())
    }

    /// Encodes, chunks, seals, and sends a message.
    ///
    /// The message is wire-encoded once into a pooled scratch buffer and
    /// each chunk is sealed directly into a pooled envelope buffer — no
    /// per-frame allocation on the steady-state path.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::Transport`] on delivery failure.
    pub fn send_msg<M: Wire>(&self, to: PartyId, msg: &M) -> Result<(), NodeError> {
        let pool = pool::global();
        let mut scratch = pool.acquire(DEFAULT_CHUNK_SIZE);
        msg.encode(&mut scratch);
        let msg_id = self.next_id();
        let total = scratch.len();
        let mut seq: u32 = 0;
        let mut start = 0;
        loop {
            let end = (start + DEFAULT_CHUNK_SIZE).min(total);
            let last = end == total;
            let meta = FrameMeta {
                kind: FrameKind::Control,
                msg_id,
                seq,
                last,
            };
            let chunk = &scratch[start..end];
            let sent = self.seal_and_send(to, meta, chunk.len(), |out| {
                out.extend_from_slice(chunk);
            });
            if last || sent.is_err() {
                pool.recycle_vec(scratch);
                return sent;
            }
            start = end;
            seq += 1;
        }
    }

    /// Sends a stream: a typed header frame followed by raw blocks, each
    /// block one sealed frame. Blocks are sent as the iterator yields
    /// them — the whole payload never exists as one allocation here, and
    /// a lazy iterator overlaps producing each block with transmitting
    /// the previous one.
    ///
    /// # Errors
    ///
    /// As [`Node::send_msg`].
    pub fn send_stream<H, I>(&self, to: PartyId, header: &H, blocks: I) -> Result<(), NodeError>
    where
        H: Wire,
        I: IntoIterator<Item = Bytes>,
    {
        let mut blocks = blocks.into_iter().peekable();
        let mut stream = self.begin_stream(to, header, blocks.peek().is_none())?;
        while let Some(block) = blocks.next() {
            let last = blocks.peek().is_none();
            self.stream_block(&mut stream, block, last)?;
        }
        Ok(())
    }

    /// Opens an outbound stream by sending its header frame; blocks
    /// follow via [`Node::stream_block`]. `empty` marks a stream with no
    /// blocks (the header frame is then also the last frame).
    ///
    /// This is the incremental counterpart of [`Node::send_stream`], used
    /// by the relay pump to forward blocks of a stream *while it is still
    /// arriving*. Several streams to one peer may be open at once (see
    /// [`StreamHandle`]).
    ///
    /// # Errors
    ///
    /// As [`Node::send_msg`].
    pub fn begin_stream<H: Wire>(
        &self,
        to: PartyId,
        header: &H,
        empty: bool,
    ) -> Result<StreamHandle, NodeError> {
        let msg_id = self.next_id();
        let meta = FrameMeta {
            kind: FrameKind::StreamHeader,
            msg_id,
            seq: 0,
            last: empty,
        };
        self.seal_and_send(to, meta, 256, |out| header.encode(out))?;
        Ok(StreamHandle {
            to,
            msg_id,
            next_seq: 1,
            finished: empty,
        })
    }

    /// Sends one block on an open stream; `last` closes it.
    ///
    /// # Errors
    ///
    /// As [`Node::send_msg`].
    ///
    /// # Panics
    ///
    /// Panics when the stream is already finished.
    pub fn stream_block(
        &self,
        stream: &mut StreamHandle,
        block: Bytes,
        last: bool,
    ) -> Result<(), NodeError> {
        self.stream_block_with(stream, block.len(), last, |out| {
            out.extend_from_slice(&block);
        })
    }

    /// Sends one block on an open stream, generating its payload
    /// **directly into the pooled sealed buffer**: `write_payload` (a
    /// wire encoder, a row-block encoder, …) appends the block's bytes to
    /// the buffer the transport will hand to the socket, so the block
    /// never exists as a separate allocation. `size_hint` pre-sizes the
    /// buffer (a loose estimate is fine); `last` closes the stream.
    ///
    /// # Errors
    ///
    /// As [`Node::send_msg`].
    ///
    /// # Panics
    ///
    /// Panics when the stream is already finished.
    pub fn stream_block_with<F>(
        &self,
        stream: &mut StreamHandle,
        size_hint: usize,
        last: bool,
        write_payload: F,
    ) -> Result<(), NodeError>
    where
        F: FnOnce(&mut Vec<u8>),
    {
        assert!(!stream.finished, "stream already finished");
        let meta = FrameMeta {
            kind: FrameKind::StreamBlock,
            msg_id: stream.msg_id,
            seq: stream.next_seq,
            last,
        };
        self.seal_and_send(stream.to, meta, size_hint, write_payload)?;
        stream.next_seq += 1;
        stream.finished = last;
        Ok(())
    }

    fn recv_open_frame(&self, deadline: Option<Instant>) -> Result<(PartyId, Frame), NodeError> {
        let (from, sealed) = match deadline {
            None => self.transport.recv()?,
            Some(deadline) => {
                let remaining = deadline
                    .checked_duration_since(Instant::now())
                    .unwrap_or(Duration::ZERO);
                self.transport.recv_timeout(remaining)?
            }
        };
        let key = ChannelKey::derive(self.session_secret, from.0, self.id().0);
        let (frame_session, frame) = frame::open_frame_recycling(key, sealed)?;
        if frame_session != self.session {
            return Err(FrameError::SessionMismatch {
                expected: self.session,
                got: frame_session,
            }
            .into());
        }
        Ok((from, frame))
    }

    fn next_flow(&self, deadline: Option<Instant>) -> Result<(PartyId, FlowItem), NodeError> {
        loop {
            let (from, frame) = self.recv_open_frame(deadline)?;
            if let Some(item) = self.reassembler.lock().feed(from, frame)? {
                return Ok((from, item));
            }
        }
    }

    /// Receives the next delivery within `timeout`: a whole message, or
    /// one frame of a stream — its header or one block, **as it
    /// arrives**, never the whole stream at once. This is the one
    /// receive path; [`Node::recv_msg`] is its message-only form.
    ///
    /// # Errors
    ///
    /// Transport, frame, or wire-format errors, including
    /// [`TransportError::Timeout`]; a frame error implies a protocol
    /// violation and should abort the session.
    pub fn recv_flow_timeout<M: Wire, H: Wire>(
        &self,
        timeout: Duration,
    ) -> Result<(PartyId, NodeFlow<M, H>), NodeError> {
        let (from, item) = self.next_flow(Instant::now().checked_add(timeout))?;
        let flow = match item {
            FlowItem::Message(bytes) => NodeFlow::Msg(wire::from_bytes(&bytes)?),
            FlowItem::StreamHeader {
                stream,
                header,
                last,
            } => NodeFlow::StreamStart {
                stream,
                header: wire::from_bytes(&header)?,
                last,
            },
            FlowItem::StreamBlock {
                stream,
                block,
                last,
            } => NodeFlow::StreamBlock {
                stream,
                block,
                last,
            },
        };
        Ok((from, flow))
    }

    fn next_msg<M: Wire>(&self, deadline: Option<Instant>) -> Result<(PartyId, M), NodeError> {
        match self.next_flow(deadline)? {
            (from, FlowItem::Message(bytes)) => Ok((from, wire::from_bytes(&bytes)?)),
            _ => Err(FrameError::UnexpectedStream.into()),
        }
    }

    /// Receives the next plain message; a stream here is a protocol error,
    /// reported the moment its header arrives.
    ///
    /// # Errors
    ///
    /// As [`Node::recv_flow_timeout`], without the timeout;
    /// [`FrameError::UnexpectedStream`] if a stream arrives.
    pub fn recv_msg<M: Wire>(&self) -> Result<(PartyId, M), NodeError> {
        self.next_msg(None)
    }

    /// Like [`Node::recv_msg`] with a timeout.
    ///
    /// # Errors
    ///
    /// As [`Node::recv_msg`], plus [`TransportError::Timeout`].
    pub fn recv_msg_timeout<M: Wire>(&self, timeout: Duration) -> Result<(PartyId, M), NodeError> {
        self.next_msg(Instant::now().checked_add(timeout))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InMemoryHub;

    #[derive(PartialEq, Debug)]
    struct Hello {
        round: u32,
        body: Vec<f64>,
    }

    impl Wire for Hello {
        fn encode(&self, out: &mut Vec<u8>) {
            self.round.encode(out);
            self.body.encode(out);
        }

        fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
            Ok(Hello {
                round: u32::decode(input)?,
                body: Vec::decode(input)?,
            })
        }
    }

    /// Receives one whole stream through the per-frame receive: its
    /// header and every block, in order.
    fn recv_stream<T: Transport, H: Wire>(
        node: &Node<T>,
    ) -> Result<(PartyId, H, Vec<Bytes>), NodeError> {
        let timeout = Duration::from_secs(2);
        let (from, first) = node.recv_flow_timeout::<u32, H>(timeout)?;
        let NodeFlow::StreamStart {
            header, mut last, ..
        } = first
        else {
            panic!("expected a stream header");
        };
        let mut blocks = Vec::new();
        while !last {
            let (_, flow) = node.recv_flow_timeout::<u32, H>(timeout)?;
            let NodeFlow::StreamBlock {
                block, last: end, ..
            } = flow
            else {
                panic!("expected a stream block");
            };
            blocks.push(block);
            last = end;
        }
        Ok((from, header, blocks))
    }

    #[test]
    fn typed_roundtrip() {
        let hub = InMemoryHub::new();
        let a = Node::new(hub.endpoint(PartyId(1)), 99);
        let b = Node::new(hub.endpoint(PartyId(2)), 99);
        let msg = Hello {
            round: 3,
            body: vec![1.0, 2.5],
        };
        a.send_msg(PartyId(2), &msg).unwrap();
        let (from, got): (PartyId, Hello) = b.recv_msg().unwrap();
        assert_eq!(from, PartyId(1));
        assert_eq!(got, msg);
    }

    #[test]
    fn large_message_chunks_and_reassembles() {
        let hub = InMemoryHub::new();
        let a = Node::new(hub.endpoint(PartyId(1)), 7);
        let b = Node::new(hub.endpoint(PartyId(2)), 7);
        // 20 000 f64s = 160 000 bytes: three frames of DEFAULT_CHUNK_SIZE.
        let msg = Hello {
            round: 1,
            body: (0..20_000).map(f64::from).collect(),
        };
        a.send_msg(PartyId(2), &msg).unwrap();
        let (_, got): (PartyId, Hello) = b.recv_msg().unwrap();
        assert_eq!(got, msg);
    }

    #[test]
    fn stream_roundtrip_preserves_blocks() {
        let hub = InMemoryHub::new();
        let a = Node::new(hub.endpoint(PartyId(1)), 7);
        let b = Node::new(hub.endpoint(PartyId(2)), 7);
        let blocks: Vec<Bytes> = (0..4u8)
            .map(|i| Bytes::from(vec![i; 16 + usize::from(i)]))
            .collect();
        a.send_stream(
            PartyId(2),
            &Hello {
                round: 2,
                body: vec![],
            },
            blocks.clone(),
        )
        .unwrap();
        let (from, header, got) = recv_stream::<_, Hello>(&b).unwrap();
        assert_eq!(from, PartyId(1));
        assert_eq!(header.round, 2);
        assert_eq!(got, blocks);
    }

    #[test]
    fn flow_receive_interleaves_with_sending() {
        // The core of the streaming data plane: a relay can receive block
        // i, forward it, and only then receive block i+1 — no buffering of
        // the whole stream anywhere.
        let hub = InMemoryHub::new();
        let a = Node::new(hub.endpoint(PartyId(1)), 7);
        let relay = Node::new(hub.endpoint(PartyId(2)), 7);
        let c = Node::new(hub.endpoint(PartyId(3)), 7);
        let blocks: Vec<Bytes> = (0..3u8).map(|i| Bytes::from(vec![i; 8])).collect();
        a.send_stream(
            PartyId(2),
            &Hello {
                round: 1,
                body: vec![],
            },
            blocks.clone(),
        )
        .unwrap();

        let mut out_stream = None;
        let mut forwarded = 0;
        loop {
            let (_, flow) = relay
                .recv_flow_timeout::<Hello, Hello>(Duration::from_secs(2))
                .unwrap();
            match flow {
                NodeFlow::StreamStart { header, last, .. } => {
                    assert!(!last);
                    out_stream = Some(relay.begin_stream(PartyId(3), &header, false).unwrap());
                }
                NodeFlow::StreamBlock { block, last, .. } => {
                    relay
                        .stream_block(out_stream.as_mut().unwrap(), block, last)
                        .unwrap();
                    forwarded += 1;
                    if last {
                        break;
                    }
                }
                NodeFlow::Msg(_) => panic!("unexpected message"),
            }
        }
        assert_eq!(forwarded, 3);
        assert!(out_stream.unwrap().finished);

        let (_, _, got) = recv_stream::<_, Hello>(&c).unwrap();
        assert_eq!(got, blocks);
    }

    #[test]
    fn flow_receive_decodes_messages_too() {
        let hub = InMemoryHub::new();
        let a = Node::new(hub.endpoint(PartyId(1)), 7);
        let b = Node::new(hub.endpoint(PartyId(2)), 7);
        let msg = Hello {
            round: 4,
            body: vec![2.0],
        };
        a.send_msg(PartyId(2), &msg).unwrap();
        let (from, flow) = b
            .recv_flow_timeout::<Hello, Hello>(Duration::from_secs(2))
            .unwrap();
        assert_eq!(from, PartyId(1));
        let NodeFlow::Msg(got) = flow else {
            panic!("expected message");
        };
        assert_eq!(got, msg);
    }

    #[test]
    fn empty_stream_delivers_header_only() {
        let hub = InMemoryHub::new();
        let a = Node::new(hub.endpoint(PartyId(1)), 7);
        let b = Node::new(hub.endpoint(PartyId(2)), 7);
        a.send_stream(PartyId(2), &0u32, Vec::new()).unwrap();
        let (_, flow) = b
            .recv_flow_timeout::<u32, u32>(Duration::from_secs(2))
            .unwrap();
        let NodeFlow::StreamStart { header, last, .. } = flow else {
            panic!("expected stream");
        };
        assert_eq!(header, 0);
        assert!(last, "an empty stream is its header alone");
    }

    #[test]
    fn stream_where_message_expected_errors() {
        let hub = InMemoryHub::new();
        let a = Node::new(hub.endpoint(PartyId(1)), 7);
        let b = Node::new(hub.endpoint(PartyId(2)), 7);
        // Only the header goes out: the error must not wait for blocks.
        a.begin_stream(PartyId(2), &1u32, false).unwrap();
        let err = b
            .recv_msg_timeout::<u32>(Duration::from_secs(2))
            .unwrap_err();
        assert!(matches!(
            err,
            NodeError::Frame(FrameError::UnexpectedStream)
        ));
    }

    #[test]
    fn cross_session_frame_rejected() {
        // Same secret, different session ids: the frame opens (the stamp
        // is part of the envelope) but the node rejects the foreign
        // session before any payload reaches the caller.
        let hub = InMemoryHub::new();
        let a = Node::for_session(hub.endpoint(PartyId(1)), 9, SessionId(1));
        let b = Node::for_session(hub.endpoint(PartyId(2)), 9, SessionId(2));
        a.send_msg(PartyId(2), &7u32).unwrap();
        let err = b.recv_msg::<u32>().unwrap_err();
        assert!(
            matches!(
                err,
                NodeError::Frame(FrameError::SessionMismatch {
                    expected: SessionId(2),
                    got: SessionId(1),
                })
            ),
            "{err}"
        );
    }

    #[test]
    fn wrong_session_secret_fails_crypto() {
        let hub = InMemoryHub::new();
        let a = Node::new(hub.endpoint(PartyId(1)), 1);
        let b = Node::new(hub.endpoint(PartyId(2)), 2);
        a.send_msg(PartyId(2), &7u32).unwrap();
        let err = b.recv_msg::<u32>().unwrap_err();
        assert!(
            matches!(err, NodeError::Frame(FrameError::Crypto(_))),
            "{err}"
        );
    }

    #[test]
    fn type_confusion_fails_codec() {
        let hub = InMemoryHub::new();
        let a = Node::new(hub.endpoint(PartyId(1)), 5);
        let b = Node::new(hub.endpoint(PartyId(2)), 5);
        a.send_msg(PartyId(2), &vec![1u32, 2, 3]).unwrap();
        // Decode as a type with a longer footprint to force an error.
        let err = b.recv_msg::<(f64, f64)>().unwrap_err();
        assert!(matches!(err, NodeError::Codec(_)), "{err}");
    }

    #[test]
    fn nonces_advance() {
        let hub = InMemoryHub::new();
        let a = Node::new(hub.endpoint(PartyId(1)), 5);
        let b = Node::new(hub.endpoint(PartyId(2)), 5);
        a.send_msg(PartyId(2), &1u32).unwrap();
        a.send_msg(PartyId(2), &1u32).unwrap();
        let (_, s1) = b.transport.recv().unwrap();
        let (_, s2) = b.transport.recv().unwrap();
        assert_ne!(s1, s2, "same plaintext must seal differently");
    }

    #[test]
    fn timeout_propagates() {
        let hub = InMemoryHub::new();
        let a = Node::new(hub.endpoint(PartyId(1)), 5);
        let err = a
            .recv_msg_timeout::<u32>(Duration::from_millis(5))
            .unwrap_err();
        assert!(matches!(err, NodeError::Transport(TransportError::Timeout)));
    }

    #[test]
    fn duplicated_mid_stream_frame_is_a_frame_error() {
        let hub = InMemoryHub::new();
        let a = Node::new(hub.endpoint(PartyId(1)), 5);
        let b = Node::new(hub.endpoint(PartyId(2)), 5);
        // Send a two-frame stream, replaying the header frame on the wire:
        // the receiver must reject the broken sequence rather than guess.
        a.send_stream(PartyId(2), &1u32, vec![Bytes::from_static(b"block")])
            .unwrap();
        let (_, header_frame) = b.transport.recv().unwrap();
        let (_, block_frame) = b.transport.recv().unwrap();
        a.transport()
            .send(PartyId(2), header_frame.clone())
            .unwrap();
        a.transport().send(PartyId(2), header_frame).unwrap();
        a.transport().send(PartyId(2), block_frame).unwrap();
        let err = recv_stream::<_, u32>(&b).unwrap_err();
        assert!(matches!(err, NodeError::Frame(_)), "{err}");
    }
}
