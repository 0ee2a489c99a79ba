//! The streaming data plane: block sinks, block stages, and the stream
//! monitor.
//!
//! PR 1 made datasets travel as row-block *frames*; PR 2 multiplexed many
//! sessions onto one mesh. Until this module, every role still buffered a
//! complete stream before touching a single row — the transport was
//! pipelined, the compute was not. The data plane closes that gap: row
//! blocks coming off [`crate::link`] flow through a chain of
//! [`BlockStage`]s into a [`BlockSink`] **as they arrive**, overlapping
//! seal/unseal and TCP I/O with perturbation, space adaptation, and
//! classification inside each session (and across sessions on the shared
//! [`crate::runtime::ActorPool`]).
//!
//! ```text
//!   wire block (Bytes) ──decode──► BlockBuf (reused scratch)
//!        │                            │
//!        │                   BlockStage × N  (e.g. AdaptStage)
//!        │                            │
//!        ▼                            ▼
//!   relay pump (zero-decode)     BlockSink  (DatasetSink, ClassifierSink)
//! ```
//!
//! Every kernel the stages call accumulates in the same element order as
//! the monolithic path, so a pipeline fed block by block produces results
//! **bit-identical** to buffering the whole stream first — so the session
//! outcome does not depend on `block_rows`, the invariant
//! `tests/stream_equivalence.rs` pins down.

use crate::error::SapError;
use crate::link::DataHeader;
use bytes::Bytes;
use sap_classify::Model;
use sap_datasets::Dataset;
use sap_linalg::MatrixView;
use sap_perturb::SpaceAdaptor;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// A decoded row-block in reusable scratch buffers.
///
/// `values` holds the block **record-major** (`rows × dim`, one record
/// per row — the wire layout's order), `labels` one class label per
/// record. A pipeline owns one `BlockBuf` and refills it for every
/// block, so steady-state streaming performs no per-block allocation;
/// stages read the values through a zero-copy [`MatrixView`].
#[derive(Debug, Default)]
pub struct BlockBuf {
    rows: usize,
    dim: usize,
    /// Class labels, one per record.
    pub labels: Vec<usize>,
    /// Record-major values, `rows × dim`.
    pub values: Vec<f64>,
}

impl BlockBuf {
    /// Records in the block.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The values as a zero-copy `rows × dim` view.
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView::new(self.rows, self.dim, &self.values)
    }

    /// Decodes one wire block (`[rows:u32] [labels] [values]`, see
    /// [`crate::link`]) into this buffer, reusing its allocations.
    ///
    /// # Errors
    ///
    /// Returns [`SapError::Protocol`] on truncation, size mismatch, or an
    /// out-of-range label.
    pub fn decode(
        &mut self,
        bytes: &Bytes,
        dim: usize,
        num_classes: usize,
    ) -> Result<(), SapError> {
        if bytes.len() < 4 {
            return Err(SapError::Protocol(
                "row block shorter than its count".into(),
            ));
        }
        let (count, rest) = bytes.split_at(4);
        let rows = u32::from_le_bytes(count.try_into().expect("4 bytes")) as usize;
        let row_size = 4 + dim * 8;
        let expect = rows
            .checked_mul(row_size)
            .ok_or_else(|| SapError::Protocol("row block size overflows".into()))?;
        if rest.len() != expect {
            return Err(SapError::Protocol(format!(
                "row block size {} != expected {expect} for {rows} rows × {dim} dims",
                rest.len()
            )));
        }
        let (label_bytes, value_bytes) = rest.split_at(rows * 4);
        self.rows = rows;
        self.dim = dim;
        self.labels.clear();
        for chunk in label_bytes.chunks_exact(4) {
            let label = u32::from_le_bytes(chunk.try_into().expect("4 bytes")) as usize;
            if label >= num_classes {
                return Err(SapError::Protocol(format!(
                    "label {label} out of range for {num_classes} classes"
                )));
            }
            self.labels.push(label);
        }
        self.values.clear();
        self.values.reserve(rows * dim);
        for v in value_bytes.chunks_exact(8) {
            self.values
                .push(f64::from_le_bytes(v.try_into().expect("8 bytes")));
        }
        Ok(())
    }
}

/// A transformation applied to each row-block in flight (values in,
/// values out — labels pass through untouched).
pub trait BlockStage: Send {
    /// Transforms one decoded block in place.
    ///
    /// # Errors
    ///
    /// Returns [`SapError`] when the block violates the stage's
    /// invariants (dimension mismatch, …).
    fn process(&mut self, block: &mut BlockBuf) -> Result<(), SapError>;
}

/// A terminal consumer of a dataset's row-blocks.
pub trait BlockSink: Send {
    /// Called once, with the stream header, before any block.
    ///
    /// # Errors
    ///
    /// Returns [`SapError`] when the header is unacceptable.
    fn start(&mut self, header: &DataHeader) -> Result<(), SapError> {
        let _ = header;
        Ok(())
    }

    /// Consumes one (decoded, staged) block.
    ///
    /// # Errors
    ///
    /// Returns [`SapError`] when the block violates the sink's invariants.
    fn block(&mut self, block: &BlockBuf) -> Result<(), SapError>;

    /// Called once after the final block.
    ///
    /// # Errors
    ///
    /// Returns [`SapError`] when the completed stream is invalid.
    fn finish(&mut self) -> Result<(), SapError> {
        Ok(())
    }
}

/// Drives wire blocks through decode → stages → sink, enforcing the
/// stream header's declared row count.
pub struct StreamPipeline<S: BlockSink> {
    header: DataHeader,
    stages: Vec<Box<dyn BlockStage>>,
    sink: S,
    buf: BlockBuf,
    seen_rows: usize,
}

impl<S: BlockSink> StreamPipeline<S> {
    /// Opens a pipeline for one stream.
    ///
    /// # Errors
    ///
    /// Returns [`SapError::Protocol`] on a degenerate header (zero rows
    /// or dimensions) or when the sink
    /// rejects the header.
    pub fn open(
        header: DataHeader,
        stages: Vec<Box<dyn BlockStage>>,
        mut sink: S,
    ) -> Result<Self, SapError> {
        if header.rows == 0 || header.dim == 0 {
            return Err(SapError::Protocol(
                "dataset stream with zero rows or dimensions".into(),
            ));
        }
        sink.start(&header)?;
        Ok(StreamPipeline {
            header,
            stages,
            sink,
            buf: BlockBuf::default(),
            seen_rows: 0,
        })
    }

    /// The stream's header.
    pub fn header(&self) -> &DataHeader {
        &self.header
    }

    /// Rows consumed so far.
    pub fn seen_rows(&self) -> usize {
        self.seen_rows
    }

    /// Decodes and processes one wire block.
    ///
    /// # Errors
    ///
    /// Returns [`SapError::Protocol`] on malformed blocks or when the
    /// stream exceeds its declared row count, plus anything the stages or
    /// sink reject.
    pub fn push(&mut self, bytes: &Bytes) -> Result<(), SapError> {
        let total = usize::try_from(self.header.rows)
            .map_err(|_| SapError::Protocol("row count overflows usize".into()))?;
        self.buf.decode(
            bytes,
            self.header.dim as usize,
            self.header.num_classes as usize,
        )?;
        self.seen_rows += self.buf.rows();
        if self.seen_rows > total {
            return Err(SapError::Protocol(format!(
                "stream delivered more than the declared {total} rows"
            )));
        }
        for stage in &mut self.stages {
            stage.process(&mut self.buf)?;
        }
        self.sink.block(&self.buf)
    }

    /// Closes the stream and returns the sink.
    ///
    /// # Errors
    ///
    /// Returns [`SapError::Protocol`] when fewer rows arrived than the
    /// header declared, plus anything the sink's finish rejects.
    pub fn finish(mut self) -> Result<S, SapError> {
        let total = usize::try_from(self.header.rows)
            .map_err(|_| SapError::Protocol("row count overflows usize".into()))?;
        if self.seen_rows != total {
            return Err(SapError::Protocol(format!(
                "stream delivered {} of {total} declared rows",
                self.seen_rows
            )));
        }
        self.sink.finish()?;
        Ok(self.sink)
    }
}

/// A [`BlockStage`] applying a [`SpaceAdaptor`] to every block — space
/// adaptation consuming row-blocks incrementally. Bit-identical to
/// adapting the assembled dataset afterwards (see
/// [`SpaceAdaptor::adapt_records`]).
pub struct AdaptStage {
    adaptor: SpaceAdaptor,
    scratch: Vec<f64>,
}

impl AdaptStage {
    /// Wraps an adaptor as a stage.
    pub fn new(adaptor: SpaceAdaptor) -> Self {
        AdaptStage {
            adaptor,
            scratch: Vec::new(),
        }
    }
}

impl BlockStage for AdaptStage {
    fn process(&mut self, block: &mut BlockBuf) -> Result<(), SapError> {
        if block.dim() != self.adaptor.dim() {
            return Err(SapError::Protocol(format!(
                "adaptor dim {} != block dim {}",
                self.adaptor.dim(),
                block.dim()
            )));
        }
        self.scratch.clear();
        self.scratch.resize(block.values.len(), 0.0);
        self.adaptor.adapt_records(&block.values, &mut self.scratch);
        std::mem::swap(&mut block.values, &mut self.scratch);
        Ok(())
    }
}

/// A [`BlockSink`] accumulating blocks into one flat record-major buffer
/// — the streaming replacement for collecting a monolithic [`Dataset`]
/// (which it can still produce at the end).
#[derive(Debug, Default)]
pub struct DatasetSink {
    dim: usize,
    num_classes: usize,
    /// Record-major values of every record so far.
    pub values: Vec<f64>,
    /// Labels of every record so far.
    pub labels: Vec<usize>,
}

impl DatasetSink {
    /// Creates an empty sink.
    pub fn new() -> Self {
        DatasetSink::default()
    }

    /// Records accumulated so far.
    pub fn rows(&self) -> usize {
        self.labels.len()
    }

    /// Builds the accumulated records into a [`Dataset`].
    ///
    /// # Panics
    ///
    /// Panics when no blocks were consumed (datasets are non-empty).
    pub fn into_dataset(self) -> Dataset {
        let records: Vec<Vec<f64>> = self
            .values
            .chunks_exact(self.dim.max(1))
            .map(<[f64]>::to_vec)
            .collect();
        Dataset::with_num_classes(records, self.labels, self.num_classes)
    }
}

impl BlockSink for DatasetSink {
    fn start(&mut self, header: &DataHeader) -> Result<(), SapError> {
        self.dim = header.dim as usize;
        self.num_classes = header.num_classes as usize;
        Ok(())
    }

    fn block(&mut self, block: &BlockBuf) -> Result<(), SapError> {
        self.values.extend_from_slice(&block.values);
        self.labels.extend_from_slice(&block.labels);
        Ok(())
    }
}

/// A [`BlockSink`] scoring each block against a trained classifier as it
/// arrives — classification consuming row-blocks incrementally, without
/// ever assembling a [`Dataset`].
pub struct ClassifierSink<M: Model + Send> {
    model: M,
    predictions: Vec<usize>,
    correct: u64,
    total: u64,
}

impl<M: Model + Send> ClassifierSink<M> {
    /// Wraps a trained model.
    pub fn new(model: M) -> Self {
        ClassifierSink {
            model,
            predictions: Vec::new(),
            correct: 0,
            total: 0,
        }
    }

    /// Records scored so far.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Records whose predicted label matched the block's label.
    pub fn correct(&self) -> u64 {
        self.correct
    }

    /// Running accuracy over every block so far (0 when empty).
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.correct as f64 / self.total as f64
        }
    }
}

impl<M: Model + Send> BlockSink for ClassifierSink<M> {
    fn block(&mut self, block: &BlockBuf) -> Result<(), SapError> {
        self.model
            .predict_block(block.view(), &mut self.predictions);
        self.total += block.rows() as u64;
        self.correct += self
            .predictions
            .iter()
            .zip(&block.labels)
            .filter(|(p, l)| p == l)
            .count() as u64;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Stream monitor
// ---------------------------------------------------------------------------

/// Shared per-session observability for the streaming data plane. Every
/// role of a session holds a clone; the harvested
/// [`crate::session::SapOutcome`] carries the final [`StreamStats`]
/// snapshot, and `sap-server` aggregates them across sessions.
#[derive(Clone, Debug, Default)]
pub struct StreamMonitor {
    inner: Arc<MonitorInner>,
}

#[derive(Debug, Default)]
struct MonitorInner {
    blocks_streamed: AtomicU64,
    pipelined_blocks: AtomicU64,
    streams_open: AtomicU32,
    max_streams_open: AtomicU32,
    compute_nanos: AtomicU64,
    overlapped_nanos: AtomicU64,
}

impl StreamMonitor {
    /// Creates a fresh monitor.
    pub fn new() -> Self {
        StreamMonitor::default()
    }

    /// An inbound stream opened somewhere in the session.
    pub fn stream_opened(&self) {
        let now = self.inner.streams_open.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner
            .max_streams_open
            .fetch_max(now, Ordering::Relaxed);
    }

    /// An inbound stream finished.
    pub fn stream_closed(&self) {
        self.inner.streams_open.fetch_sub(1, Ordering::Relaxed);
    }

    /// Inbound streams currently open ("blocks in flight" gauge).
    pub fn streams_open(&self) -> u32 {
        self.inner.streams_open.load(Ordering::Relaxed)
    }

    /// A stream block was received by some role.
    pub fn block_received(&self) {
        self.inner.blocks_streamed.fetch_add(1, Ordering::Relaxed);
    }

    /// A block was forwarded onward *while its stream was still
    /// arriving* — the pipelining the data plane exists for.
    pub fn block_pipelined(&self) {
        self.inner.pipelined_blocks.fetch_add(1, Ordering::Relaxed);
    }

    /// Accounts `spent` of data-plane compute; `overlapped` marks work
    /// done while stream data was still in flight (compute/I-O overlap).
    pub fn compute(&self, spent: Duration, overlapped: bool) {
        let nanos = u64::try_from(spent.as_nanos()).unwrap_or(u64::MAX);
        self.inner.compute_nanos.fetch_add(nanos, Ordering::Relaxed);
        if overlapped {
            self.inner
                .overlapped_nanos
                .fetch_add(nanos, Ordering::Relaxed);
        }
    }

    /// The current counters as a stats snapshot.
    pub fn snapshot(&self) -> StreamStats {
        StreamStats {
            blocks_streamed: self.inner.blocks_streamed.load(Ordering::Relaxed),
            pipelined_blocks: self.inner.pipelined_blocks.load(Ordering::Relaxed),
            max_streams_in_flight: self.inner.max_streams_open.load(Ordering::Relaxed),
            compute_s: self.inner.compute_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
            overlapped_compute_s: self.inner.overlapped_nanos.load(Ordering::Relaxed) as f64 * 1e-9,
        }
    }
}

/// Streaming data-plane statistics of one session.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamStats {
    /// Stream blocks received across the session's roles.
    pub blocks_streamed: u64,
    /// Blocks forwarded by the relay hop before their inbound stream had
    /// finished.
    pub pipelined_blocks: u64,
    /// Maximum inbound streams simultaneously in flight.
    pub max_streams_in_flight: u32,
    /// Total data-plane compute (decode + adapt) in seconds.
    pub compute_s: f64,
    /// The share of [`StreamStats::compute_s`] spent while stream data
    /// was still arriving — compute the session hid under I/O.
    pub overlapped_compute_s: f64,
}

impl StreamStats {
    /// Fraction of data-plane compute overlapped with I/O (0 when no
    /// compute was recorded).
    pub fn overlap_ratio(&self) -> f64 {
        if self.compute_s <= 0.0 {
            0.0
        } else {
            self.overlapped_compute_s / self.compute_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link;
    use crate::messages::SlotTag;
    use sap_classify::KnnClassifier;
    use sap_net::SessionId;

    fn dataset(rows: usize, dim: usize) -> Dataset {
        let records: Vec<Vec<f64>> = (0..rows)
            .map(|i| {
                (0..dim)
                    .map(|j| ((i * dim + j) % 17) as f64 / 17.0)
                    .collect()
            })
            .collect();
        Dataset::new(records, (0..rows).map(|i| i % 2).collect())
    }

    fn wire_blocks(data: &Dataset, block_rows: usize) -> (DataHeader, Vec<Bytes>) {
        let header = DataHeader {
            session: SessionId::SOLO,
            relay: false,
            slot: SlotTag(1),
            rows: data.len() as u64,
            dim: data.dim() as u32,
            num_classes: data.num_classes() as u32,
        };
        let blocks = (0..data.len())
            .step_by(block_rows)
            .map(|start| link::encode_block(data, start, (start + block_rows).min(data.len())))
            .collect();
        (header, blocks)
    }

    #[test]
    fn dataset_sink_reassembles_exactly() {
        let data = dataset(53, 3);
        for block_rows in [1usize, 8, 53, 100] {
            let (header, blocks) = wire_blocks(&data, block_rows);
            let mut pipe = StreamPipeline::open(header, Vec::new(), DatasetSink::new()).unwrap();
            for b in &blocks {
                pipe.push(b).unwrap();
            }
            let back = pipe.finish().unwrap().into_dataset();
            assert_eq!(back, data, "block_rows={block_rows}");
        }
    }

    #[test]
    fn adapt_stage_equals_post_hoc_adaptation() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use sap_perturb::Perturbation;

        let mut rng = StdRng::seed_from_u64(5);
        let data = dataset(40, 4);
        let gi = Perturbation::random(4, &mut rng);
        let gt = Perturbation::random(4, &mut rng);
        let adaptor = SpaceAdaptor::between(&gi, &gt).unwrap();

        // Streaming: adapt block by block as the stream arrives.
        let (header, blocks) = wire_blocks(&data, 7);
        let mut pipe = StreamPipeline::open(
            header,
            vec![Box::new(AdaptStage::new(adaptor.clone()))],
            DatasetSink::new(),
        )
        .unwrap();
        for b in &blocks {
            pipe.push(b).unwrap();
        }
        let streamed = pipe.finish().unwrap().into_dataset();

        // Buffered: assemble, then one monolithic apply.
        let y = data.to_column_matrix();
        let adapted = adaptor.apply(&y);
        let buffered =
            Dataset::from_column_matrix(&adapted, data.labels().to_vec(), data.num_classes());
        assert_eq!(streamed, buffered, "must be bit-identical");
    }

    #[test]
    fn classifier_sink_scores_blocks_incrementally() {
        let train = dataset(60, 3);
        let model = KnnClassifier::fit(&train, 3);
        let test = dataset(31, 3);
        let expected = model.accuracy(&test);

        let (header, blocks) = wire_blocks(&test, 5);
        let mut pipe =
            StreamPipeline::open(header, Vec::new(), ClassifierSink::new(model)).unwrap();
        for b in &blocks {
            pipe.push(b).unwrap();
        }
        let sink = pipe.finish().unwrap();
        assert_eq!(sink.total(), 31);
        assert!((sink.accuracy() - expected).abs() < 1e-12);
    }

    #[test]
    fn pipeline_enforces_declared_rows() {
        let data = dataset(20, 2);
        let (mut header, blocks) = wire_blocks(&data, 8);
        header.rows = 25; // declare more than will arrive
        let mut pipe = StreamPipeline::open(header, Vec::new(), DatasetSink::new()).unwrap();
        for b in &blocks {
            pipe.push(b).unwrap();
        }
        assert!(matches!(pipe.finish(), Err(SapError::Protocol(_))));

        let (mut header, blocks) = wire_blocks(&data, 8);
        header.rows = 10; // declare fewer
        let mut pipe = StreamPipeline::open(header, Vec::new(), DatasetSink::new()).unwrap();
        let mut failed = false;
        for b in &blocks {
            if pipe.push(b).is_err() {
                failed = true;
                break;
            }
        }
        assert!(failed, "over-delivery must be rejected mid-stream");
    }

    #[test]
    fn block_buf_rejects_malformed_blocks() {
        let mut buf = BlockBuf::default();
        // Truncated.
        assert!(buf
            .decode(&Bytes::from_static(b"\x02\x00\x00\x00"), 2, 2)
            .is_err());
        // Label out of range.
        let data = dataset(4, 2);
        let block = link::encode_block(&data, 0, 4);
        assert!(buf.decode(&block, 2, 1).is_err());
        // Valid.
        assert!(buf.decode(&block, 2, 2).is_ok());
        assert_eq!(buf.rows(), 4);
        assert_eq!(buf.view().cols(), 2);
    }

    #[test]
    fn monitor_tracks_overlap_and_flight() {
        let m = StreamMonitor::new();
        m.stream_opened();
        m.stream_opened();
        m.block_received();
        m.block_pipelined();
        m.stream_closed();
        m.compute(Duration::from_millis(30), true);
        m.compute(Duration::from_millis(10), false);
        m.stream_closed();
        let s = m.snapshot();
        assert_eq!(s.blocks_streamed, 1);
        assert_eq!(s.pipelined_blocks, 1);
        assert_eq!(s.max_streams_in_flight, 2);
        assert!((s.overlap_ratio() - 0.75).abs() < 1e-9);
        assert_eq!(m.streams_open(), 0);
    }
}
