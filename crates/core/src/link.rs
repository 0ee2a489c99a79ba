//! The SAP message link: typed protocol messages over the streaming node.
//!
//! Control messages ([`SapMessage`]) travel as ordinary wire frames.
//! Datasets travel only as *streams*: a [`DataHeader`] followed by
//! length-prefixed row blocks, so neither sender nor receiver ever
//! materializes one monolithic serialized dataset — and the anonymizing
//! relay hop forwards each row block, sealed once by its owner toward the
//! miner, **without opening it**: faster, and the paper's "unchanged
//! payload" relay semantics. There is one receive, [`recv_flow`]: it
//! hands over each control message whole and each stream header and row
//! block the moment it arrives.
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
use bytes::Bytes;
use sap_datasets::Dataset;
use sap_net::node::{Node, NodeError, NodeFlow};
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
    /// `false` for a provider→provider exchange (`perturbed-data`),
    /// `true` for the relay hop to the miner (`relayed-data`).
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

impl DataHeader {
    /// Audit-ledger kind label of the stream this header opens.
    pub fn kind(&self) -> &'static str {
        if self.relay {
            "relayed-data"
        } else {
            "perturbed-data"
        }
    }
}

/// One inbound protocol delivery (see [`recv_flow`]): a control message,
/// or one frame of a dataset stream, the moment it arrives.
pub type FlowInbound = NodeFlow<SapMessage, DataHeader>;

/// Receives the next delivery within `timeout`: stream headers and row
/// blocks are delivered per frame, so a role can relay, decode, or adapt
/// a block while the rest of its stream is still on the wire.
///
/// # Errors
///
/// Returns [`SapError::Messaging`] on transport/decoding failure and
/// framing violations, and [`SapError::Protocol`] for a stream header
/// stamped for another session.
pub fn recv_flow<T: Transport>(
    node: &Node<T>,
    timeout: Duration,
) -> Result<(PartyId, FlowInbound), SapError> {
    let (from, flow): (PartyId, FlowInbound) =
        node.recv_flow_timeout(timeout).map_err(SapError::from)?;
    // The envelope already pinned the frames to this session; the
    // header-level check catches a *sender bug* (a relay stamping
    // someone else's stream into its own session) before a single row
    // is decoded.
    if let NodeFlow::StreamStart { header, .. } = &flow {
        if header.session != node.session() {
            return Err(SapError::Protocol(format!(
                "stream header for {} arrived in {}",
                header.session,
                node.session()
            )));
        }
    }
    Ok((from, flow))
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
    // `None` (a timeout too long to represent) means no per-receive limit.
    let per_recv = Instant::now().checked_add(ctx.config.timeout);
    loop {
        if ctx.deadline.is_cancelled() {
            return Err(SapError::Cancelled { phase });
        }
        let left = per_recv.map_or(CANCEL_POLL, |d| d.saturating_duration_since(Instant::now()));
        if left.is_zero() {
            return Err(SapError::Timeout {
                waiting: who,
                phase,
            });
        }
        let mut slice = left.min(CANCEL_POLL);
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
/// failures) — the role-facing form of [`recv_flow`].
///
/// # Errors
///
/// As [`recv_flow`], plus [`SapError::Timeout`] naming `phase` on
/// per-receive expiry, [`SapError::PeerFailure`] when a roster peer dies,
/// [`SapError::Cancelled`] on cooperative cancellation, and
/// [`SapError::DeadlineExceeded`] when the session budget runs out.
pub fn recv_flow_ctx<T: Transport>(
    node: &Node<T>,
    ctx: &RoleCtx<'_>,
    phase: &'static str,
) -> Result<(PartyId, FlowInbound), SapError> {
    recv_governed(ctx, node.id(), phase, |slice| recv_flow(node, slice))
}

/// Streams a dataset to `to`, perturbing it **one block at a time**: each
/// row-block of `x` (a `d × N` column matrix) is pushed through
/// `G(X) = R·X + Ψ + Δ` into a reused scratch buffer, encoded, sealed
/// once toward `miner` (tagged `slot`) and sent before the next block's
/// math starts — the send-side compute/I-O overlap of the data plane.
///
/// The realized noise `delta` must be sampled up front for the whole
/// matrix, so the bytes on the wire are **bit-identical** to perturbing
/// the whole matrix and streaming it as one dataset (the test-only
/// `send_dataset` helper).
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
    miner: PartyId,
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
    let seal = node.seal_toward(miner, slot.0);
    let mut scratch: Vec<f64> = Vec::new();
    let mut start = 0;
    while start < n {
        let end = (start + block_rows).min(n);
        g.perturb_records_into(x, delta, start..end, &mut scratch);
        let size = 4 + (end - start) * row_size;
        node.stream_block_with(&mut stream, seal, size, end == n, |out| {
            encode_records_block_into(&labels[start..end], &scratch, out);
        })
        .map_err(SapError::from)?;
        start = end;
    }
    Ok(())
}

/// Appends one wire block (`[rows: u32] [labels] [values]`, see
/// `docs/WIRE.md` §4.1) from a record-major value buffer (`labels.len()
/// × dim` values) to `out` — the one row-block encoder.
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
/// the sink a dataset stream encodes each block through, straight into
/// the pooled sealed frame buffer.
///
/// # Panics
///
/// Panics when the range is out of bounds or a label exceeds `u32`.
pub fn encode_block_into(data: &Dataset, start: usize, end: usize, out: &mut Vec<u8>) {
    let dim = data.dim();
    encode_records_block_into(
        &data.labels()[start..end],
        &data.values()[start * dim..end * dim],
        out,
    );
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
pub(crate) mod tests {
    use super::*;
    use crate::stream::{DatasetSink, StreamPipeline};
    use sap_net::transport::InMemoryHub;

    fn dataset(rows: usize, dim: usize) -> Dataset {
        let records: Vec<Vec<f64>> = (0..rows)
            .map(|i| (0..dim).map(|j| (i * dim + j) as f64 / 7.0).collect())
            .collect();
        let labels: Vec<usize> = (0..rows).map(|i| i % 3).collect();
        Dataset::new(records, labels)
    }

    /// The miner every unit-test stream is sealed toward.
    pub(crate) const TEST_MINER: PartyId = PartyId(100);

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

    /// Streams an already perturbed dataset to `to` as row blocks sealed
    /// toward [`TEST_MINER`], so a role unit test can play a provider or a
    /// relay. The roles send through [`send_perturbed_dataset`] and the
    /// relay's block-by-block forwarding.
    pub(crate) fn send_dataset<T: Transport>(
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
        let seal = node.seal_toward(TEST_MINER, slot.0);
        let mut start = 0;
        while start < n {
            let end = (start + block_rows).min(n);
            let size = 4 + (end - start) * row_size;
            node.stream_block_with(&mut stream, seal, size, end == n, |out| {
                encode_block_into(data, start, end, out);
            })
            .map_err(SapError::from)?;
            start = end;
        }
        Ok(())
    }

    /// Receives one whole dataset stream through [`recv_flow`]: its
    /// sender, header and row blocks, in order, each opened as the
    /// [`TEST_MINER`] opens it.
    ///
    /// # Panics
    ///
    /// Panics on a receive error or when anything but one stream arrives.
    pub(crate) fn recv_stream<T: Transport>(
        node: &Node<T>,
        timeout: Duration,
    ) -> (PartyId, DataHeader, Vec<Bytes>) {
        let (from, first) = recv_flow(node, timeout).unwrap();
        let FlowInbound::StreamStart {
            header, mut last, ..
        } = first
        else {
            panic!("expected a stream header, got {first:?}");
        };
        let mut blocks = Vec::new();
        while !last {
            let (_, next) = recv_flow(node, timeout).unwrap();
            let FlowInbound::StreamBlock {
                block, last: end, ..
            } = next
            else {
                panic!("expected a row block, got {next:?}");
            };
            let seal = node.seal_toward(TEST_MINER, header.slot.0);
            blocks.push(node.open_block(block, seal).unwrap());
            last = end;
        }
        (from, header, blocks)
    }

    /// Decodes raw row blocks into a [`Dataset`] through the streaming
    /// decoder ([`StreamPipeline`]), validating them against `header`.
    pub(crate) fn decode(header: DataHeader, blocks: &[Bytes]) -> Result<Dataset, SapError> {
        let mut pipeline = StreamPipeline::open(header, Vec::new(), DatasetSink::new())?;
        for block in blocks {
            pipeline.push(block)?;
        }
        pipeline.finish()?.into_dataset()
    }

    #[test]
    fn dataset_streams_roundtrip() {
        let (a, b) = pair();
        let data = dataset(100, 5);
        send_dataset(&a, PartyId(2), false, SlotTag(4), &data, 16).unwrap();
        let (from, header, blocks) = recv_stream(&b, Duration::from_secs(2));
        assert_eq!(from, PartyId(1));
        assert_eq!(header.kind(), "perturbed-data");
        assert_eq!(header.slot, SlotTag(4));
        assert_eq!(blocks.len(), 100usize.div_ceil(16));
        assert_eq!(decode(header, &blocks).unwrap(), data);
    }

    #[test]
    fn relay_preserves_payload_without_decode() {
        let (a, b) = pair();
        let hub2 = InMemoryHub::new();
        let b2 = Node::new(hub2.endpoint(PartyId(2)), 9);
        let miner = Node::new(hub2.endpoint(PartyId(100)), 9);

        let data = dataset(40, 3);
        send_dataset(&a, PartyId(2), false, SlotTag(8), &data, 8).unwrap();
        let (_, first) = recv_flow(&b, Duration::from_secs(2)).unwrap();
        let FlowInbound::StreamStart { header, .. } = first else {
            panic!("expected a stream header");
        };
        let header = DataHeader {
            relay: true,
            ..header
        };
        let mut out = b2.begin_stream(TEST_MINER, &header, false).unwrap();
        loop {
            let (_, FlowInbound::StreamBlock { block, last, .. }) =
                recv_flow(&b, Duration::from_secs(2)).unwrap()
            else {
                panic!("expected a row block");
            };
            b2.forward_block(&mut out, block, last).unwrap();
            if last {
                break;
            }
        }
        let (_, relayed, relayed_blocks) = recv_stream(&miner, Duration::from_secs(2));
        assert_eq!(relayed.kind(), "relayed-data");
        assert_eq!(relayed.slot, SlotTag(8));
        assert_eq!(decode(relayed, &relayed_blocks).unwrap(), data);
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
        let buffered = recv_stream(&b, Duration::from_secs(2));

        // Streaming: perturb block by block while sending.
        let (a2, b2) = pair();
        send_perturbed_dataset(
            &a2,
            PartyId(2),
            TEST_MINER,
            SlotTag(3),
            &g,
            &x,
            &delta,
            data.labels(),
            data.num_classes(),
            16,
        )
        .unwrap();
        let streamed = recv_stream(&b2, Duration::from_secs(2));

        assert_eq!(streamed.1, buffered.1);
        assert_eq!(streamed.2, buffered.2, "wire bytes must match");
    }

    #[test]
    fn recv_flow_delivers_blocks_incrementally() {
        let (a, b) = pair();
        let data = dataset(30, 3);
        send_dataset(&a, PartyId(2), false, SlotTag(9), &data, 10).unwrap();
        let (_, first) = recv_flow(&b, Duration::from_secs(2)).unwrap();
        let FlowInbound::StreamStart { header, last, .. } = first else {
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
        a.send_msg(
            PartyId(2),
            &SapMessage::MiningComplete { unified_records: 9 },
        )
        .unwrap();
        let (_, inbound) = recv_flow(&b, Duration::from_secs(2)).unwrap();
        assert!(matches!(
            inbound,
            FlowInbound::Msg(SapMessage::MiningComplete { unified_records: 9 })
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
        let truncated = [Bytes::from_static(b"\x02\x00\x00\x00")];
        assert!(matches!(
            decode(header, &truncated),
            Err(SapError::Protocol(_))
        ));
        // Row shortfall.
        assert!(matches!(decode(header, &[]), Err(SapError::Protocol(_))));
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
        assert!(matches!(
            decode(header, &[block]),
            Err(SapError::Protocol(_))
        ));
    }
}
