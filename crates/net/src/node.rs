//! Typed, sealed, frame-based messaging on top of a [`Transport`].
//!
//! A [`Node`] owns a transport endpoint and the session secret. Every
//! outgoing message is [`crate::wire`]-encoded, split into bounded
//! [`crate::frame`] chunks, and each chunk sealed under the per-direction
//! channel key. Large payloads travel as *streams*: a typed header plus
//! blocks, each sealed once, end to end ([`Node::stream_block_with`]).
//! Receivers get each frame as it lands ([`Node::recv_flow_timeout`]); a
//! relay passes a block on unopened ([`Node::forward_block`]) while the
//! rest of its stream is still on the wire, and its destination opens it
//! ([`Node::open_block`]).
//!
//! This is the layer the protocol actors in `sap-core` talk to; they are
//! generic over the transport.

use crate::crypto::ChannelKey;
pub use crate::frame::Flow as NodeFlow;
use crate::frame::{
    self, BlockSeal, Flow, FlowItem, Frame, FrameError, FrameKind, FrameMeta, Reassembler,
    SealedBlock, DEFAULT_CHUNK_SIZE,
};
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

/// An in-progress outbound stream opened with [`Node::begin_stream`].
///
/// The handle tracks the frame sequence; feed it blocks and mark the
/// final one with `last = true`.
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
    fn next_block(&self, last: bool) -> FrameMeta {
        assert!(!self.finished, "stream already finished");
        FrameMeta {
            kind: FrameKind::StreamBlock,
            msg_id: self.msg_id,
            seq: self.next_seq,
            last,
        }
    }

    fn sent(&mut self, last: bool) {
        self.next_seq += 1;
        self.finished = last;
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

    /// Encodes, chunks ([`frame::split_message`]), seals, and sends a
    /// message.
    ///
    /// # Errors
    ///
    /// Returns [`NodeError::Transport`] on delivery failure.
    pub fn send_msg<M: Wire>(&self, to: PartyId, msg: &M) -> Result<(), NodeError> {
        let encoded = Bytes::from(wire::to_bytes(msg));
        for chunk in frame::split_message(self.next_id(), encoded, DEFAULT_CHUNK_SIZE) {
            let sealed = frame::seal_frame(self.send_key(to), self.next_id(), self.session, &chunk);
            self.transport.send(to, sealed)?;
        }
        Ok(())
    }

    /// Sends a stream: a typed header frame followed by blocks, sent as
    /// the iterator yields them. The blocks are sealed for `to` alone: the
    /// pair's channel key, tagged with the stream id, opens them.
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
        let seal = BlockSeal {
            key: self.send_key(to),
            tag: stream.msg_id,
        };
        while let Some(block) = blocks.next() {
            let last = blocks.peek().is_none();
            self.stream_block_with(&mut stream, seal, block.len(), last, |out| {
                out.extend_from_slice(&block);
            })?;
        }
        Ok(())
    }

    /// Opens an outbound stream by sending its header frame. `empty` marks
    /// a stream with no blocks (the header frame is then also the last).
    /// Several streams to one peer may be open at once.
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
        let key = self.send_key(to);
        let seal = BlockSeal { key, tag: msg_id };
        let sealed =
            frame::seal_block_with(key, self.next_id(), self.session, meta, seal, 256, |out| {
                header.encode(out)
            });
        self.transport.send(to, sealed)?;
        Ok(StreamHandle {
            to,
            msg_id,
            next_seq: 1,
            finished: empty,
        })
    }

    /// The seal of blocks bound for `dest`, whoever sends them: its
    /// session data key and `tag`.
    pub fn seal_toward(&self, dest: PartyId, tag: u64) -> BlockSeal {
        BlockSeal {
            key: ChannelKey::toward(self.session_secret, dest.0),
            tag,
        }
    }

    /// Sends one block on an open stream, sealed once under `seal`:
    /// `write_payload` appends its bytes straight to the pooled buffer the
    /// transport sends. `size_hint` pre-sizes it; `last` closes the stream.
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
        seal: BlockSeal,
        size_hint: usize,
        last: bool,
        write_payload: F,
    ) -> Result<(), NodeError>
    where
        F: FnOnce(&mut Vec<u8>),
    {
        let meta = stream.next_block(last);
        let sealed = frame::seal_block_with(
            self.send_key(stream.to),
            self.next_id(),
            self.session,
            meta,
            seal,
            size_hint,
            write_payload,
        );
        self.transport.send(stream.to, sealed)?;
        stream.sent(last);
        Ok(())
    }

    /// Forwards a block that arrived here on an open stream: its hop
    /// header is rewritten in place and the payload left sealed.
    ///
    /// # Errors and panics
    ///
    /// As [`Node::stream_block_with`].
    pub fn forward_block(
        &self,
        stream: &mut StreamHandle,
        block: SealedBlock,
        last: bool,
    ) -> Result<(), NodeError> {
        let meta = stream.next_block(last);
        let frame = block.forward(self.send_key(stream.to), self.next_id(), self.session, meta)?;
        self.transport.send(stream.to, frame)?;
        stream.sent(last);
        Ok(())
    }

    /// Opens a block that reached its destination, in place.
    ///
    /// # Errors
    ///
    /// As [`SealedBlock::open`].
    pub fn open_block(&self, block: SealedBlock, seal: BlockSeal) -> Result<Bytes, NodeError> {
        Ok(block.open(self.session, seal)?)
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
        let (frame_session, frame) = frame::open_block_frame(key, sealed)?;
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
            Flow::Msg(bytes) => Flow::Msg(wire::from_bytes(&bytes)?),
            Flow::StreamStart {
                stream,
                header,
                last,
            } => Flow::StreamStart {
                stream,
                header: wire::from_bytes(&header)?,
                last,
            },
            Flow::StreamBlock {
                stream,
                block,
                last,
            } => Flow::StreamBlock {
                stream,
                block,
                last,
            },
        };
        Ok((from, flow))
    }

    fn next_msg<M: Wire>(&self, deadline: Option<Instant>) -> Result<(PartyId, M), NodeError> {
        match self.next_flow(deadline)? {
            (from, Flow::Msg(bytes)) => Ok((from, wire::from_bytes(&bytes)?)),
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
    /// header and every block, in order, each opened under `seal`, or
    /// under the seal of a direct stream from its sender when `None`.
    fn recv_stream<T: Transport, H: Wire>(
        node: &Node<T>,
        seal: Option<BlockSeal>,
    ) -> Result<(PartyId, H, Vec<Bytes>), NodeError> {
        let timeout = Duration::from_secs(2);
        let (from, first) = node.recv_flow_timeout::<u32, H>(timeout)?;
        let NodeFlow::StreamStart {
            stream,
            header,
            mut last,
        } = first
        else {
            panic!("expected a stream header");
        };
        let seal = seal.unwrap_or(BlockSeal {
            key: ChannelKey::derive(node.session_secret, from.0, node.id().0),
            tag: stream,
        });
        let mut blocks = Vec::new();
        while !last {
            let (_, flow) = node.recv_flow_timeout::<u32, H>(timeout)?;
            let NodeFlow::StreamBlock {
                block, last: end, ..
            } = flow
            else {
                panic!("expected a stream block");
            };
            blocks.push(node.open_block(block, seal)?);
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
        let (from, header, got) = recv_stream::<_, Hello>(&b, None).unwrap();
        assert_eq!(from, PartyId(1));
        assert_eq!(header.round, 2);
        assert_eq!(got, blocks);
    }

    #[test]
    fn flow_receive_interleaves_with_sending() {
        // The core of the streaming data plane: a relay can receive block
        // i, forward it unopened, and only then receive block i+1 — no
        // buffering of the whole stream anywhere.
        let hub = InMemoryHub::new();
        let a = Node::new(hub.endpoint(PartyId(1)), 7);
        let relay = Node::new(hub.endpoint(PartyId(2)), 7);
        let c = Node::new(hub.endpoint(PartyId(3)), 7);
        let blocks: Vec<Bytes> = (0..3u8).map(|i| Bytes::from(vec![i; 8])).collect();
        let header = Hello {
            round: 1,
            body: vec![],
        };
        let mut stream = a.begin_stream(PartyId(2), &header, false).unwrap();
        for (i, block) in blocks.iter().enumerate() {
            let seal = a.seal_toward(PartyId(3), 5);
            a.stream_block_with(&mut stream, seal, 8, i == 2, |out| {
                out.extend_from_slice(block)
            })
            .unwrap();
        }

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
                        .forward_block(out_stream.as_mut().unwrap(), block, last)
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

        let (_, _, got) = recv_stream::<_, Hello>(&c, Some(c.seal_toward(c.id(), 5))).unwrap();
        assert_eq!(got, blocks);
    }

    #[test]
    fn block_opens_only_under_its_own_seal() {
        let hub = InMemoryHub::new();
        let a = Node::new(hub.endpoint(PartyId(1)), 7);
        let b = Node::new(hub.endpoint(PartyId(2)), 7);
        let mut stream = a.begin_stream(PartyId(2), &0u32, false).unwrap();
        a.stream_block_with(&mut stream, a.seal_toward(PartyId(2), 9), 4, true, |out| {
            out.extend_from_slice(b"rows")
        })
        .unwrap();
        b.recv_flow_timeout::<u32, u32>(Duration::from_secs(2))
            .unwrap();
        let (_, NodeFlow::StreamBlock { block, .. }) = b
            .recv_flow_timeout::<u32, u32>(Duration::from_secs(2))
            .unwrap()
        else {
            panic!("expected a block");
        };
        for wrong in [b.seal_toward(PartyId(2), 8), b.seal_toward(PartyId(3), 9)] {
            let err = b.open_block(block.clone(), wrong).unwrap_err();
            assert!(
                matches!(err, NodeError::Frame(FrameError::Crypto(_))),
                "{err}"
            );
        }
        let rows = b.open_block(block, b.seal_toward(PartyId(2), 9)).unwrap();
        assert_eq!(&rows[..], b"rows");
    }

    #[test]
    fn hop_sealed_stream_block_fails_the_end_to_end_seal() {
        // A stream block sealed under the hop key, as a control chunk is,
        // arrives still sealed and does not open under the seal toward
        // its destination.
        let hub = InMemoryHub::new();
        let a = Node::new(hub.endpoint(PartyId(1)), 7);
        let b = Node::new(hub.endpoint(PartyId(2)), 7);
        let stream = a.begin_stream(PartyId(2), &0u32, false).unwrap();
        let block = Frame {
            kind: FrameKind::StreamBlock,
            msg_id: stream.msg_id,
            seq: 1,
            last: true,
            payload: Bytes::from_static(b"rows"),
        };
        let sealed = frame::seal_frame(a.send_key(PartyId(2)), 9, a.session, &block);
        a.transport.send(PartyId(2), sealed).unwrap();
        b.recv_flow_timeout::<u32, u32>(Duration::from_secs(2))
            .unwrap();
        let (_, NodeFlow::StreamBlock { block, .. }) = b
            .recv_flow_timeout::<u32, u32>(Duration::from_secs(2))
            .unwrap()
        else {
            panic!("expected a block");
        };
        let err = b
            .open_block(block, b.seal_toward(PartyId(2), stream.msg_id))
            .unwrap_err();
        assert!(
            matches!(err, NodeError::Frame(FrameError::Crypto(_))),
            "{err}"
        );
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
        let err = recv_stream::<_, u32>(&b, None).unwrap_err();
        assert!(matches!(err, NodeError::Frame(_)), "{err}");
    }
}
