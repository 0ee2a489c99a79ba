//! The SAP message link: typed protocol messages over the streaming node.
//!
//! Control messages ([`SapMessage`] minus the data variants) travel as
//! ordinary wire frames. Dataset payloads travel as *streams*: a
//! [`DataHeader`] followed by length-prefixed row blocks, so neither
//! sender nor receiver ever materializes one monolithic serialized
//! dataset — and the anonymizing relay hop forwards the sealed row blocks
//! **without decoding them**, which is both faster and
//! closer to the paper's "unchanged payload" relay semantics.
//!
//! # Row-block layout
//!
//! ```text
//! [rows: u32 LE] [labels: rows × u32 LE] [values: rows × dim × f64 LE]
//! ```
//!
//! Rows never straddle blocks, so a receiver can fold each block into its
//! growing dataset as it arrives.

use crate::error::SapError;
use crate::liveness::CANCEL_POLL;
use crate::messages::{SapMessage, SlotTag};
use crate::session::RoleCtx;
use crate::stream::{DatasetSink, StreamPipeline};
use bytes::Bytes;
use sap_datasets::Dataset;
use sap_net::node::{Node, NodeError, NodeEvent, NodeFlow};
use sap_net::wire::{Wire, WireError};
use sap_net::{PartyId, SessionId, Transport, TransportError};
use sap_perturb::GeometricPerturbation;
use std::time::{Duration, Instant};

/// Default number of dataset rows per stream block.
pub const DEFAULT_BLOCK_ROWS: usize = 256;

/// Hard ceiling on one stream block's encoded size. `block_rows` is
/// clamped so a block never exceeds this, keeping behavior identical
/// across transports (TCP rejects payloads over its own, much larger,
/// limit; the in-memory hub would accept anything).
pub const MAX_BLOCK_BYTES: usize = 8 * 1024 * 1024;

/// Stream header for a dataset transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataHeader {
    /// The session the stream belongs to. Redundant with the (already
    /// authenticated) envelope stamp, but threading it through the header
    /// lets the relay hop preserve full session provenance **without
    /// decoding a single row block**: the relay copies the header, blocks
    /// stay opaque `Bytes`.
    pub session: SessionId,
    /// `false` for a provider→provider exchange (`PerturbedData`), `true`
    /// for the relay hop to the miner (`RelayedData`).
    pub relay: bool,
    /// Slot tag assigned by the coordinator.
    pub slot: SlotTag,
    /// Total record count across all blocks.
    pub rows: u64,
    /// Feature dimensionality.
    pub dim: u32,
    /// Class count of the dataset.
    pub num_classes: u32,
}

impl Wire for DataHeader {
    fn encode(&self, out: &mut Vec<u8>) {
        self.session.encode(out);
        self.relay.encode(out);
        self.slot.encode(out);
        self.rows.encode(out);
        self.dim.encode(out);
        self.num_classes.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(DataHeader {
            session: SessionId::decode(input)?,
            relay: bool::decode(input)?,
            slot: SlotTag::decode(input)?,
            rows: u64::decode(input)?,
            dim: u32::decode(input)?,
            num_classes: u32::decode(input)?,
        })
    }
}

/// A received dataset stream, still in raw blocks.
#[derive(Debug)]
pub struct DataStream {
    /// The stream header.
    pub header: DataHeader,
    /// Raw row blocks, in order.
    pub blocks: Vec<Bytes>,
}

/// One inbound protocol delivery.
#[derive(Debug)]
pub enum Inbound {
    /// A control message.
    Msg(SapMessage),
    /// A dataset stream.
    Data(DataStream),
}

/// One inbound delivery on the **streaming** data plane: stream headers
/// and blocks surface per frame, the moment they arrive (see
/// [`recv_flow`]), instead of per fully buffered stream.
#[derive(Debug)]
pub enum FlowInbound {
    /// A control message.
    Msg(SapMessage),
    /// A dataset stream opened. `last` marks an empty stream.
    StreamStart {
        /// The validated stream header.
        header: DataHeader,
        /// `true` when no blocks follow.
        last: bool,
    },
    /// One raw row block of the sender's current stream.
    StreamBlock {
        /// The raw block, exactly as sent.
        bytes: Bytes,
        /// `true` when this closes the stream.
        last: bool,
    },
}

impl DataStream {
    /// Audit-ledger kind label (matches [`SapMessage::kind`]).
    pub fn kind(&self) -> &'static str {
        if self.header.relay {
            "relayed-data"
        } else {
            "perturbed-data"
        }
    }

    /// Decodes the blocks into a [`Dataset`] through the streaming
    /// decoder ([`StreamPipeline`]), validating the header.
    ///
    /// # Errors
    ///
    /// Returns [`SapError::Protocol`] on malformed blocks, row-count or
    /// dimension mismatches, or out-of-range labels.
    pub fn into_dataset(self) -> Result<Dataset, SapError> {
        let mut pipeline = StreamPipeline::open(self.header, Vec::new(), DatasetSink::new())?;
        for block in &self.blocks {
            pipeline.push(block)?;
        }
        Ok(pipeline.finish()?.into_dataset())
    }
}

/// Sends a control message. Data-bearing messages are routed through the
/// streaming path automatically.
///
/// # Errors
///
/// Returns [`SapError::Messaging`] on transport failure.
pub fn send_message<T: Transport>(
    node: &Node<T>,
    to: PartyId,
    msg: &SapMessage,
    block_rows: usize,
) -> Result<(), SapError> {
    match msg {
        SapMessage::PerturbedData { slot, data } => {
            send_dataset(node, to, false, *slot, data, block_rows)
        }
        SapMessage::RelayedData { slot, data } => {
            send_dataset(node, to, true, *slot, data, block_rows)
        }
        other => node.send_msg(to, other).map_err(SapError::from),
    }
}

/// Streams a dataset to `to` as row blocks.
///
/// # Errors
///
/// Returns [`SapError::Messaging`] on transport failure.
pub fn send_dataset<T: Transport>(
    node: &Node<T>,
    to: PartyId,
    relay: bool,
    slot: SlotTag,
    data: &Dataset,
    block_rows: usize,
) -> Result<(), SapError> {
    assert!(block_rows > 0, "block_rows must be positive");
    let row_size = 4 + data.dim() * 8;
    let block_rows = block_rows.min((MAX_BLOCK_BYTES / row_size).max(1));
    let header = DataHeader {
        session: node.session(),
        relay,
        slot,
        rows: data.len() as u64,
        dim: u32::try_from(data.dim())
            .map_err(|_| SapError::Protocol("dimension overflows u32".into()))?,
        num_classes: u32::try_from(data.num_classes())
            .map_err(|_| SapError::Protocol("class count overflows u32".into()))?,
    };
    let n = data.len();
    let mut stream = node
        .begin_stream(to, &header, n == 0)
        .map_err(SapError::from)?;
    let mut start = 0;
    while start < n {
        let end = (start + block_rows).min(n);
        node.stream_block_with(&mut stream, 4 + (end - start) * row_size, end == n, |out| {
            encode_block_into(data, start, end, out);
        })
        .map_err(SapError::from)?;
        start = end;
    }
    Ok(())
}

/// Receives the next **streaming-mode** delivery within `timeout`:
/// stream headers and row blocks are delivered per frame, so a role can
/// relay, decode, or adapt a block while the rest of its stream is still
/// on the wire.
///
/// Stream headers get the same sender-bug session check as
/// [`recv_message`]. A role must use either this or the buffered
/// [`recv_message`] consistently — not both mid-stream.
///
/// # Errors
///
/// As [`recv_message`].
pub fn recv_flow<T: Transport>(
    node: &Node<T>,
    timeout: Duration,
) -> Result<(PartyId, FlowInbound), SapError> {
    let (from, flow) = node
        .recv_flow_timeout::<SapMessage, DataHeader>(timeout)
        .map_err(SapError::from)?;
    let inbound = match flow {
        NodeFlow::Msg(msg) => FlowInbound::Msg(msg),
        NodeFlow::StreamStart { header, last } => {
            if header.session != node.session() {
                return Err(SapError::Protocol(format!(
                    "stream header for {} arrived in {}",
                    header.session,
                    node.session()
                )));
            }
            FlowInbound::StreamStart { header, last }
        }
        NodeFlow::StreamBlock { block, last } => FlowInbound::StreamBlock { bytes: block, last },
    };
    Ok((from, inbound))
}

/// Runs one governed blocking receive under a role's liveness regime:
/// the wait is sliced into [`CANCEL_POLL`] quanta so the role observes
/// session-wide cancellation and budget expiry within one slice, the
/// per-receive `ctx.config.timeout` is enforced across slices, and a
/// transport-reported peer death is either converted into the typed
/// [`SapError::PeerFailure`] (the dead party is on this session's
/// roster) or ignored (a stranger's death broadcast on a shared
/// transport — keep receiving).
fn recv_governed<R>(
    ctx: &RoleCtx<'_>,
    who: PartyId,
    phase: &'static str,
    mut attempt: impl FnMut(Duration) -> Result<R, SapError>,
) -> Result<R, SapError> {
    let per_recv = Instant::now() + ctx.config.timeout;
    loop {
        if ctx.deadline.is_cancelled() {
            return Err(SapError::Cancelled { phase });
        }
        let now = Instant::now();
        if now >= per_recv {
            return Err(SapError::Timeout {
                waiting: who,
                phase,
            });
        }
        let mut slice = (per_recv - now).min(CANCEL_POLL);
        if let Some(budget) = ctx.deadline.remaining() {
            if budget.is_zero() {
                return Err(SapError::DeadlineExceeded { phase });
            }
            slice = slice.min(budget);
        }
        match attempt(slice) {
            Err(SapError::Messaging(NodeError::Transport(TransportError::Timeout))) => {}
            Err(SapError::Messaging(NodeError::Transport(TransportError::PeerDown(p)))) => {
                if ctx.roster.contains(p) {
                    return Err(SapError::PeerFailure { party: p, phase });
                }
            }
            Err(other) => return Err(other),
            Ok(r) => return Ok(r),
        }
    }
}

/// Receives the next protocol delivery under the session's liveness
/// regime (cancellation token, session budget, roster-filtered peer
/// failures) — the role-facing form of [`recv_message`].
///
/// # Errors
///
/// As [`recv_message`], plus [`SapError::Timeout`] naming `phase` on
/// per-receive expiry, [`SapError::PeerFailure`] when a roster peer dies,
/// [`SapError::Cancelled`] on cooperative cancellation, and
/// [`SapError::DeadlineExceeded`] when the session budget runs out.
pub fn recv_message_ctx<T: Transport>(
    node: &Node<T>,
    ctx: &RoleCtx<'_>,
    phase: &'static str,
) -> Result<(PartyId, Inbound), SapError> {
    recv_governed(ctx, node.id(), phase, |slice| recv_message(node, slice))
}

/// Streaming-mode counterpart of [`recv_message_ctx`]: per-frame
/// deliveries under the same liveness regime.
///
/// # Errors
///
/// As [`recv_message_ctx`].
pub fn recv_flow_ctx<T: Transport>(
    node: &Node<T>,
    ctx: &RoleCtx<'_>,
    phase: &'static str,
) -> Result<(PartyId, FlowInbound), SapError> {
    recv_governed(ctx, node.id(), phase, |slice| recv_flow(node, slice))
}

/// Receives the next protocol delivery within `timeout`.
///
/// # Errors
///
/// Returns [`SapError::Messaging`] on transport/decoding failure; framing
/// violations surface as [`SapError::Protocol`].
pub fn recv_message<T: Transport>(
    node: &Node<T>,
    timeout: Duration,
) -> Result<(PartyId, Inbound), SapError> {
    let (from, event) = node
        .recv_event_timeout::<SapMessage, DataHeader>(timeout)
        .map_err(SapError::from)?;
    let inbound = match event {
        NodeEvent::Msg(msg) => Inbound::Msg(msg),
        NodeEvent::Stream { header, blocks } => {
            // The envelope already pinned the frames to this session; the
            // header-level check catches a *sender bug* (a relay stamping
            // someone else's stream into its own session) before a single
            // row is decoded.
            if header.session != node.session() {
                return Err(SapError::Protocol(format!(
                    "stream header for {} arrived in {}",
                    header.session,
                    node.session()
                )));
            }
            Inbound::Data(DataStream { header, blocks })
        }
    };
    Ok((from, inbound))
}

/// Streams a dataset to `to`, perturbing it **one block at a time**: each
/// row-block of `x` (a `d × N` column matrix) is pushed through
/// `G(X) = R·X + Ψ + Δ` into a reused scratch buffer, encoded, and handed
/// to the transport before the next block's math starts — the send-side
/// compute/I-O overlap of the streaming data plane.
///
/// The realized noise `delta` must be sampled up front for the whole
/// matrix, so the bytes on the wire are **bit-identical** to perturbing
/// the whole matrix and calling [`send_dataset`].
///
/// # Errors
///
/// Returns [`SapError::Messaging`] on transport failure, or
/// [`SapError::Protocol`] on dimension overflow.
///
/// # Panics
///
/// Panics when shapes disagree or `block_rows` is zero.
#[allow(clippy::too_many_arguments)]
pub fn send_perturbed_dataset<T: Transport>(
    node: &Node<T>,
    to: PartyId,
    slot: SlotTag,
    g: &GeometricPerturbation,
    x: &sap_linalg::Matrix,
    delta: &sap_linalg::Matrix,
    labels: &[usize],
    num_classes: usize,
    block_rows: usize,
) -> Result<(), SapError> {
    assert!(block_rows > 0, "block_rows must be positive");
    assert_eq!(x.cols(), labels.len(), "column count != label count");
    let (dim, n) = (x.rows(), x.cols());
    let row_size = 4 + dim * 8;
    let block_rows = block_rows.min((MAX_BLOCK_BYTES / row_size).max(1));
    let header = DataHeader {
        session: node.session(),
        relay: false,
        slot,
        rows: n as u64,
        dim: u32::try_from(dim)
            .map_err(|_| SapError::Protocol("dimension overflows u32".into()))?,
        num_classes: u32::try_from(num_classes)
            .map_err(|_| SapError::Protocol("class count overflows u32".into()))?,
    };
    let mut stream = node
        .begin_stream(to, &header, n == 0)
        .map_err(SapError::from)?;
    let mut scratch: Vec<f64> = Vec::new();
    let mut start = 0;
    while start < n {
        let end = (start + block_rows).min(n);
        g.perturb_records_into(x, delta, start..end, &mut scratch);
        node.stream_block_with(&mut stream, 4 + (end - start) * row_size, end == n, |out| {
            encode_records_block_into(&labels[start..end], &scratch, out);
        })
        .map_err(SapError::from)?;
        start = end;
    }
    Ok(())
}

/// Appends one wire block from a record-major value buffer (`labels.len()
/// × dim` values) to `out`. Byte-for-byte the layout of
/// [`encode_block_into`].
fn encode_records_block_into(labels: &[usize], values: &[f64], out: &mut Vec<u8>) {
    out.reserve(4 + labels.len() * 4 + values.len() * 8);
    out.extend_from_slice(
        &u32::try_from(labels.len())
            .expect("block rows fit u32")
            .to_le_bytes(),
    );
    for &label in labels {
        out.extend_from_slice(&u32::try_from(label).expect("label fits u32").to_le_bytes());
    }
    for &v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Appends rows `start..end` of a dataset as one wire row block
/// (`[rows: u32] [labels] [values]`, see `docs/WIRE.md` §4.1) to `out` —
/// the sink [`send_dataset`] encodes each block through, straight into
/// the pooled sealed frame buffer.
///
/// # Panics
///
/// Panics when the range is out of bounds or a label exceeds `u32`.
pub fn encode_block_into(data: &Dataset, start: usize, end: usize, out: &mut Vec<u8>) {
    let rows = end - start;
    let dim = data.dim();
    out.reserve(4 + rows * 4 + rows * dim * 8);
    out.extend_from_slice(
        &u32::try_from(rows)
            .expect("block rows fit u32")
            .to_le_bytes(),
    );
    for i in start..end {
        out.extend_from_slice(
            &u32::try_from(data.label(i))
                .expect("label fits u32")
                .to_le_bytes(),
        );
    }
    for i in start..end {
        for &v in data.record(i) {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Encodes rows `start..end` of a dataset as one standalone wire row
/// block. Public for harnesses that drive partial streams by hand (e.g.
/// the mid-stream peer-death fault tests); the send paths use
/// [`encode_block_into`] instead.
///
/// # Panics
///
/// As [`encode_block_into`].
pub fn encode_block(data: &Dataset, start: usize, end: usize) -> Bytes {
    let mut out = Vec::new();
    encode_block_into(data, start, end, &mut out);
    Bytes::from(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_net::transport::InMemoryHub;

    fn dataset(rows: usize, dim: usize) -> Dataset {
        let records: Vec<Vec<f64>> = (0..rows)
            .map(|i| (0..dim).map(|j| (i * dim + j) as f64 / 7.0).collect())
            .collect();
        let labels: Vec<usize> = (0..rows).map(|i| i % 3).collect();
        Dataset::new(records, labels)
    }

    fn pair() -> (
        Node<sap_net::transport::Endpoint>,
        Node<sap_net::transport::Endpoint>,
    ) {
        let hub = InMemoryHub::new();
        (
            Node::new(hub.endpoint(PartyId(1)), 9),
            Node::new(hub.endpoint(PartyId(2)), 9),
        )
    }

    #[test]
    fn dataset_streams_roundtrip() {
        let (a, b) = pair();
        let data = dataset(100, 5);
        send_dataset(&a, PartyId(2), false, SlotTag(4), &data, 16).unwrap();
        let (from, inbound) = recv_message(&b, Duration::from_secs(2)).unwrap();
        assert_eq!(from, PartyId(1));
        let Inbound::Data(stream) = inbound else {
            panic!("expected data stream");
        };
        assert_eq!(stream.kind(), "perturbed-data");
        assert_eq!(stream.header.slot, SlotTag(4));
        assert_eq!(stream.blocks.len(), 100usize.div_ceil(16));
        let back = stream.into_dataset().unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn relay_preserves_payload_without_decode() {
        let (a, b) = pair();
        let hub2 = InMemoryHub::new();
        let b2 = Node::new(hub2.endpoint(PartyId(2)), 11);
        let miner = Node::new(hub2.endpoint(PartyId(100)), 11);

        let data = dataset(40, 3);
        send_dataset(&a, PartyId(2), false, SlotTag(8), &data, 8).unwrap();
        let (_, inbound) = recv_message(&b, Duration::from_secs(2)).unwrap();
        let Inbound::Data(stream) = inbound else {
            panic!("expected stream");
        };
        let header = DataHeader {
            relay: true,
            ..stream.header
        };
        b2.send_stream(PartyId(100), &header, stream.blocks.iter().cloned())
            .unwrap();
        let (_, relayed) = recv_message(&miner, Duration::from_secs(2)).unwrap();
        let Inbound::Data(relayed) = relayed else {
            panic!("expected relayed stream");
        };
        assert_eq!(relayed.kind(), "relayed-data");
        assert_eq!(relayed.header.slot, SlotTag(8));
        assert_eq!(relayed.into_dataset().unwrap(), data);
    }

    #[test]
    fn perturbed_stream_bytes_identical_to_buffered_path() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let data = dataset(75, 4);
        let x = data.to_column_matrix();
        let mut rng = StdRng::seed_from_u64(21);
        let g = GeometricPerturbation::random(4, 0.05, &mut rng);
        let (y, delta) = g.perturb(&x, &mut rng);
        let perturbed = Dataset::from_column_matrix(&y, data.labels().to_vec(), data.num_classes());

        // Whole matrix: perturb it all, then stream the dataset.
        let (a, b) = pair();
        send_dataset(&a, PartyId(2), false, SlotTag(3), &perturbed, 16).unwrap();
        let (_, inbound) = recv_message(&b, Duration::from_secs(2)).unwrap();
        let Inbound::Data(buffered) = inbound else {
            panic!("expected stream");
        };

        // Streaming: perturb block by block while sending.
        let (a2, b2) = pair();
        send_perturbed_dataset(
            &a2,
            PartyId(2),
            SlotTag(3),
            &g,
            &x,
            &delta,
            data.labels(),
            data.num_classes(),
            16,
        )
        .unwrap();
        let (_, inbound) = recv_message(&b2, Duration::from_secs(2)).unwrap();
        let Inbound::Data(streamed) = inbound else {
            panic!("expected stream");
        };

        assert_eq!(streamed.header, buffered.header);
        assert_eq!(streamed.blocks, buffered.blocks, "wire bytes must match");
    }

    #[test]
    fn recv_flow_delivers_blocks_incrementally() {
        let (a, b) = pair();
        let data = dataset(30, 3);
        send_dataset(&a, PartyId(2), false, SlotTag(9), &data, 10).unwrap();
        let (_, first) = recv_flow(&b, Duration::from_secs(2)).unwrap();
        let FlowInbound::StreamStart { header, last } = first else {
            panic!("expected stream start");
        };
        assert!(!last);
        assert_eq!(header.rows, 30);
        let mut got = 0;
        loop {
            let (_, ev) = recv_flow(&b, Duration::from_secs(2)).unwrap();
            let FlowInbound::StreamBlock { last, .. } = ev else {
                panic!("expected block");
            };
            got += 1;
            if last {
                break;
            }
        }
        assert_eq!(got, 3);
    }

    #[test]
    fn control_messages_pass_through() {
        let (a, b) = pair();
        send_message(
            &a,
            PartyId(2),
            &SapMessage::MiningComplete { unified_records: 9 },
            DEFAULT_BLOCK_ROWS,
        )
        .unwrap();
        let (_, inbound) = recv_message(&b, Duration::from_secs(2)).unwrap();
        assert!(matches!(
            inbound,
            Inbound::Msg(SapMessage::MiningComplete { unified_records: 9 })
        ));
    }

    #[test]
    fn corrupted_block_is_protocol_error() {
        let header = DataHeader {
            session: SessionId::SOLO,
            relay: false,
            slot: SlotTag(1),
            rows: 2,
            dim: 2,
            num_classes: 2,
        };
        // Truncated block.
        let bad = DataStream {
            header,
            blocks: vec![Bytes::from_static(b"\x02\x00\x00\x00")],
        };
        assert!(matches!(bad.into_dataset(), Err(SapError::Protocol(_))));
        // Row shortfall.
        let empty = DataStream {
            header,
            blocks: vec![],
        };
        assert!(matches!(empty.into_dataset(), Err(SapError::Protocol(_))));
    }

    #[test]
    fn out_of_range_label_rejected() {
        let data = dataset(4, 2); // labels 0..3
        let mut header = DataHeader {
            session: SessionId::SOLO,
            relay: false,
            slot: SlotTag(1),
            rows: 4,
            dim: 2,
            num_classes: 3,
        };
        let block = super::encode_block(&data, 0, 4);
        header.num_classes = 2; // now label 2 is out of range
        let stream = DataStream {
            header,
            blocks: vec![block],
        };
        assert!(matches!(stream.into_dataset(), Err(SapError::Protocol(_))));
    }
}
