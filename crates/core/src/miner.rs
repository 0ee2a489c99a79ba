//! The mining service provider (SP) actor.
//!
//! The miner collects `k` relayed dataset streams (tagged by opaque slots)
//! and the coordinator's slot-indexed adaptor table, decodes each stream's
//! row blocks, applies each adaptor to its slot's dataset, and pools
//! everything into one dataset in the unified target space. It never
//! learns which provider owns which dataset — only which provider
//! *forwarded* it, and the forwarding assignment is a secret random
//! exchange, so each dataset's source identifiability is `1/(k−1)`.
//!
//! Each block is decoded into one flat record buffer per slot the moment
//! it arrives, so the miner never holds a stream's raw blocks and its
//! decoded records side by side.

use crate::error::SapError;
use crate::link::{self, DataHeader, FlowInbound};
use crate::messages::{SapMessage, SlotTag};
use crate::session::RoleCtx;
use crate::stream::{AdaptStage, BlockStage, DatasetSink, StreamPipeline};
use sap_datasets::Dataset;
use sap_net::node::Node;
use sap_net::{PartyId, Transport};
use sap_perturb::SpaceAdaptor;
use std::collections::HashMap;
use std::time::Instant;

/// What the miner ends the session with.
#[derive(Debug, Clone)]
pub struct MinerOutput {
    /// The pooled dataset, every partition re-based into the target space.
    pub unified: Dataset,
    /// Which provider *forwarded* each slot (the miner's entire knowledge of
    /// data provenance — used by tests to verify identifiability).
    pub forwarder_of_slot: Vec<(SlotTag, PartyId)>,
    /// Total relayed row blocks received across all streams (feeds the
    /// server's `blocks_relayed` metric).
    pub relayed_blocks: u64,
}

/// An inbound stream being decoded as it arrives: its slot, whether an
/// [`AdaptStage`] is already adapting its blocks in flight, and the
/// pipeline accumulating the records.
struct OpenSlot {
    slot: SlotTag,
    adapted: bool,
    pipeline: StreamPipeline<DatasetSink>,
}

/// A fully received stream's records, awaiting (or already in) the
/// unified space.
struct CollectedSlot {
    forwarder: PartyId,
    header: DataHeader,
    sink: DatasetSink,
    adapted: bool,
}

/// Runs the miner role to completion, collecting `expected_datasets`
/// relayed streams (one per provider in a full session). The coordinator
/// comes from `ctx.roster`, and every blocking receive observes the
/// session's liveness regime.
///
/// Each relayed row block is decoded the moment it arrives (overlapping
/// unseal + decode with the exchange still in flight), and — when the
/// adaptor table got there first — re-based into the target space *in
/// flight* through an [`AdaptStage`]. Streams whose adaptor arrives later
/// are adapted at unification with the identical record-major kernel, so
/// both orderings produce the same bytes.
///
/// # Errors
///
/// Returns [`SapError`] on timeout, peer failure, cancellation,
/// messaging failure, duplicate slots, missing adaptors, or dimension
/// mismatches.
pub fn run_miner<T: Transport>(
    node: &Node<T>,
    expected_datasets: usize,
    ctx: &RoleCtx<'_>,
) -> Result<MinerOutput, SapError> {
    let me = node.id();
    let config = ctx.config;
    let audit = ctx.audit;
    let monitor = ctx.monitor;
    let coordinator = ctx.roster.coordinator();
    let mut open: HashMap<PartyId, OpenSlot> = HashMap::new();
    let mut collected: HashMap<SlotTag, CollectedSlot> = HashMap::new();
    let mut adaptors: Option<Vec<(SlotTag, SpaceAdaptor)>> = None;
    let mut relayed_blocks: u64 = 0;

    while collected.len() < expected_datasets || adaptors.is_none() {
        let (from, event) = link::recv_flow_ctx(node, ctx, "data & adaptor collection")?;
        match event {
            FlowInbound::Msg(msg) => {
                audit.record(from, me, &msg);
                match msg {
                    SapMessage::AdaptorTable { entries } => {
                        if from != coordinator {
                            return Err(SapError::Protocol(format!(
                                "adaptor table from non-coordinator {from}"
                            )));
                        }
                        if adaptors.replace(entries).is_some() {
                            return Err(SapError::Protocol("duplicate adaptor table".into()));
                        }
                    }
                    other => {
                        return Err(SapError::Protocol(format!(
                            "miner received unexpected {}",
                            other.kind()
                        )))
                    }
                }
            }
            FlowInbound::StreamStart { header, last } => {
                audit.record_kind(
                    from,
                    me,
                    if header.relay {
                        "relayed-data"
                    } else {
                        "perturbed-data"
                    },
                    true,
                    false,
                );
                if !header.relay {
                    return Err(SapError::Protocol(
                        "miner received un-relayed perturbed-data".into(),
                    ));
                }
                let slot = header.slot;
                if collected.contains_key(&slot) || open.values().any(|o| o.slot == slot) {
                    return Err(SapError::Protocol(format!("duplicate slot {slot:?}")));
                }
                // If the adaptor table already arrived, adapt this
                // stream's blocks in flight.
                let adaptor = adaptors
                    .as_ref()
                    .and_then(|entries| entries.iter().find(|(s, _)| *s == slot))
                    .map(|(_, a)| a.clone());
                let mut stages: Vec<Box<dyn BlockStage>> = Vec::new();
                let mut adapted = false;
                if let Some(adaptor) = adaptor {
                    if adaptor.dim() != header.dim as usize {
                        return Err(SapError::Protocol(format!(
                            "adaptor dim {} != data dim {} for slot {slot:?}",
                            adaptor.dim(),
                            header.dim
                        )));
                    }
                    stages.push(Box::new(AdaptStage::new(adaptor)));
                    adapted = true;
                }
                monitor.stream_opened();
                let pipeline = StreamPipeline::open(header, stages, DatasetSink::new())?;
                if last {
                    // The header declared ≥ 1 row (open() rejects zero)
                    // but the stream closed with no blocks.
                    monitor.stream_closed();
                    return Err(SapError::Protocol(format!(
                        "empty dataset stream for slot {slot:?} declaring {} rows",
                        pipeline.header().rows
                    )));
                }
                open.insert(
                    from,
                    OpenSlot {
                        slot,
                        adapted,
                        pipeline,
                    },
                );
            }
            FlowInbound::StreamBlock { bytes, last } => {
                // Decode (and possibly adapt) now, while the rest of the
                // exchange is still on the wire — overlapped unless this
                // is the session's final in-flight data.
                let overlapped = !last || open.len() > 1;
                let mut entry = open.remove(&from).ok_or_else(|| {
                    SapError::Protocol("stream block without an open stream".into())
                })?;
                monitor.block_received();
                relayed_blocks += 1;
                let t0 = Instant::now();
                entry.pipeline.push(&bytes)?;
                monitor.compute(t0.elapsed(), overlapped);
                if last {
                    monitor.stream_closed();
                    let header = *entry.pipeline.header();
                    let sink = entry.pipeline.finish()?;
                    collected.insert(
                        entry.slot,
                        CollectedSlot {
                            forwarder: from,
                            header,
                            sink,
                            adapted: entry.adapted,
                        },
                    );
                } else {
                    open.insert(from, entry);
                }
            }
        }
    }
    let adaptors = adaptors.expect("loop exits only when set");

    // Unify: adapt any slot whose stream outran the adaptor table, then
    // assemble in deterministic slot order.
    let adaptor_of: HashMap<SlotTag, &SpaceAdaptor> =
        adaptors.iter().map(|(s, a)| (*s, a)).collect();
    let mut parts: Vec<Dataset> = Vec::with_capacity(expected_datasets);
    let mut forwarder_of_slot: Vec<(SlotTag, PartyId)> = Vec::new();
    let mut slots: Vec<SlotTag> = collected.keys().copied().collect();
    slots.sort();
    for slot in slots {
        let entry = collected.remove(&slot).expect("slot key from map");
        let adaptor = adaptor_of
            .get(&slot)
            .ok_or_else(|| SapError::Protocol(format!("no adaptor for slot {slot:?}")))?;
        if adaptor.dim() != entry.header.dim as usize {
            return Err(SapError::Protocol(format!(
                "adaptor dim {} != data dim {} for slot {slot:?}",
                adaptor.dim(),
                entry.header.dim
            )));
        }
        let t0 = Instant::now();
        let mut sink = entry.sink;
        if !entry.adapted {
            let mut out = vec![0.0; sink.values.len()];
            adaptor.adapt_records(&sink.values, &mut out);
            sink.values = out;
        }
        parts.push(sink.into_dataset());
        monitor.compute(t0.elapsed(), false);
        forwarder_of_slot.push((slot, entry.forwarder));
    }
    let unified = Dataset::concat(&parts);

    link::send_message(
        node,
        coordinator,
        &SapMessage::MiningComplete {
            unified_records: unified.len() as u64,
        },
        config.block_rows,
    )?;

    Ok(MinerOutput {
        unified,
        forwarder_of_slot,
        relayed_blocks,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditLog;
    use crate::liveness::Roster;
    use crate::session::{SapConfig, StandaloneCtx};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sap_net::transport::InMemoryHub;
    use sap_perturb::Perturbation;
    use std::time::Duration;

    fn quick_config() -> SapConfig {
        SapConfig {
            timeout: Duration::from_millis(500),
            ..SapConfig::quick_test()
        }
    }

    /// A miner harness: relay parties 1 and 5, coordinator 2
    /// (roster-last), miner 100, recording into `audit`.
    fn harness(config: SapConfig, audit: &AuditLog) -> StandaloneCtx {
        let mut sc = StandaloneCtx::new(
            Roster::new(vec![PartyId(1), PartyId(5), PartyId(2)], PartyId(100)),
            config,
        );
        sc.audit = audit.clone();
        sc
    }

    fn tiny_dataset(offset: f64) -> Dataset {
        let records: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![offset + i as f64 / 10.0, offset - i as f64 / 10.0])
            .collect();
        Dataset::new(records, (0..10).map(|i| i % 2).collect())
    }

    #[test]
    fn miner_unifies_two_slots() {
        let hub = InMemoryHub::new();
        let miner_node = Node::new(hub.endpoint(PartyId(100)), 7);
        let relay = Node::new(hub.endpoint(PartyId(1)), 7);
        let coord = Node::new(hub.endpoint(PartyId(2)), 7);
        let audit = AuditLog::new();

        let mut rng = StdRng::seed_from_u64(1);
        let target = Perturbation::random(2, &mut rng);
        let g1 = Perturbation::random(2, &mut rng);
        let g2 = Perturbation::random(2, &mut rng);

        // Perturbed datasets in spaces g1, g2, relayed as streams.
        let d1 = tiny_dataset(0.0);
        let d2 = tiny_dataset(5.0);
        let y1 = g1.apply_clean(&d1.to_column_matrix());
        let y2 = g2.apply_clean(&d2.to_column_matrix());
        link::send_dataset(
            &relay,
            PartyId(100),
            true,
            SlotTag(1),
            &Dataset::from_column_matrix(&y1, d1.labels().to_vec(), 2),
            4,
        )
        .unwrap();
        link::send_dataset(
            &relay,
            PartyId(100),
            true,
            SlotTag(2),
            &Dataset::from_column_matrix(&y2, d2.labels().to_vec(), 2),
            4,
        )
        .unwrap();
        coord
            .send_msg(
                PartyId(100),
                &SapMessage::AdaptorTable {
                    entries: vec![
                        (SlotTag(1), SpaceAdaptor::between(&g1, &target).unwrap()),
                        (SlotTag(2), SpaceAdaptor::between(&g2, &target).unwrap()),
                    ],
                },
            )
            .unwrap();

        let out = run_miner(&miner_node, 2, &harness(quick_config(), &audit).ctx()).unwrap();
        assert_eq!(out.unified.len(), 20);
        assert_eq!(out.forwarder_of_slot.len(), 2);

        // Unified records equal the target-space images of the originals
        // (noiseless case).
        let expected_1 = target.apply_clean(&d1.to_column_matrix());
        let got_first = out.unified.record(0);
        let exp_first = expected_1.column(0);
        for (a, b) in got_first.iter().zip(&exp_first) {
            assert!((a - b).abs() < 1e-8);
        }

        // Coordinator got the completion ack.
        let (_, msg): (PartyId, SapMessage) = coord.recv_msg().unwrap();
        assert!(matches!(
            msg,
            SapMessage::MiningComplete {
                unified_records: 20
            }
        ));
    }

    #[test]
    fn duplicate_slot_is_protocol_error() {
        let hub = InMemoryHub::new();
        let miner_node = Node::new(hub.endpoint(PartyId(100)), 7);
        let relay = Node::new(hub.endpoint(PartyId(1)), 7);
        let _coord = hub.endpoint(PartyId(2));
        let audit = AuditLog::new();

        for _ in 0..2 {
            link::send_dataset(
                &relay,
                PartyId(100),
                true,
                SlotTag(7),
                &tiny_dataset(0.0),
                4,
            )
            .unwrap();
        }
        let err = run_miner(&miner_node, 2, &harness(quick_config(), &audit).ctx()).unwrap_err();
        assert!(err.to_string().contains("duplicate slot"), "{err}");
    }

    #[test]
    fn missing_adaptor_is_protocol_error() {
        let hub = InMemoryHub::new();
        let miner_node = Node::new(hub.endpoint(PartyId(100)), 7);
        let relay = Node::new(hub.endpoint(PartyId(1)), 7);
        let coord = Node::new(hub.endpoint(PartyId(2)), 7);
        let audit = AuditLog::new();

        link::send_dataset(
            &relay,
            PartyId(100),
            true,
            SlotTag(7),
            &tiny_dataset(0.0),
            4,
        )
        .unwrap();
        coord
            .send_msg(PartyId(100), &SapMessage::AdaptorTable { entries: vec![] })
            .unwrap();
        let err = run_miner(&miner_node, 1, &harness(quick_config(), &audit).ctx()).unwrap_err();
        assert!(err.to_string().contains("no adaptor"), "{err}");
    }

    #[test]
    fn adaptor_table_from_impostor_rejected() {
        let hub = InMemoryHub::new();
        let miner_node = Node::new(hub.endpoint(PartyId(100)), 7);
        let impostor = Node::new(hub.endpoint(PartyId(5)), 7);
        let audit = AuditLog::new();
        impostor
            .send_msg(PartyId(100), &SapMessage::AdaptorTable { entries: vec![] })
            .unwrap();
        let err = run_miner(&miner_node, 1, &harness(quick_config(), &audit).ctx()).unwrap_err();
        assert!(err.to_string().contains("non-coordinator"), "{err}");
    }

    #[test]
    fn un_relayed_stream_rejected() {
        let hub = InMemoryHub::new();
        let miner_node = Node::new(hub.endpoint(PartyId(100)), 7);
        let sender = Node::new(hub.endpoint(PartyId(1)), 7);
        let audit = AuditLog::new();
        link::send_dataset(
            &sender,
            PartyId(100),
            false,
            SlotTag(7),
            &tiny_dataset(0.0),
            4,
        )
        .unwrap();
        let err = run_miner(&miner_node, 1, &harness(quick_config(), &audit).ctx()).unwrap_err();
        assert!(err.to_string().contains("un-relayed"), "{err}");
    }

    #[test]
    fn miner_times_out_on_silence() {
        let hub = InMemoryHub::new();
        let miner_node = Node::new(hub.endpoint(PartyId(100)), 7);
        let audit = AuditLog::new();
        let config = SapConfig {
            timeout: Duration::from_millis(30),
            ..SapConfig::quick_test()
        };
        let err = run_miner(&miner_node, 1, &harness(config, &audit).ctx()).unwrap_err();
        assert!(matches!(err, SapError::Timeout { .. }));
    }
}
