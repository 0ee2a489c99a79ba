//! The mining service provider (SP) actor.
//!
//! The miner collects `k` relayed dataset streams (tagged by opaque slots)
//! and the coordinator's slot-indexed adaptor table, decodes each stream's
//! row blocks, applies each adaptor to its slot's dataset, and pools
//! everything into one dataset in the unified target space. It never
//! learns which provider owns which dataset — only which provider
//! *forwarded* it, and the forwarding assignment is a secret random
//! exchange, so each dataset's source identifiability is `1/(k−1)`. The
//! adaptor table must arrive sorted by slot: in any other order its
//! positions could name the owners.
//!
//! Each block, sealed once by its owner under the miner's data key (one
//! key for every owner), is opened and decoded into one flat record
//! buffer per slot the moment it arrives, so the miner never holds a
//! stream's raw blocks and its decoded records side by side. At
//! unification every slot is written, in slot order, into **one** unified
//! buffer sized once, and each slot's buffer is freed as soon as it is
//! consumed; that buffer becomes the session outcome's dataset without
//! another copy.

use crate::error::SapError;
use crate::link::{self, FlowInbound};
use crate::messages::{SapMessage, SlotTag};
use crate::session::RoleCtx;
use crate::stream::{DatasetSink, StreamPipeline};
use sap_datasets::Dataset;
use sap_net::node::Node;
use sap_net::{PartyId, Transport};
use sap_perturb::SpaceAdaptor;
use std::collections::{BTreeMap, HashMap};
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

/// An inbound stream being decoded as it arrives: its slot and the
/// pipeline accumulating the records.
struct OpenSlot {
    slot: SlotTag,
    pipeline: StreamPipeline,
}

/// A fully received stream's records, awaiting the unified space.
struct CollectedSlot {
    forwarder: PartyId,
    sink: DatasetSink,
}

/// Runs the miner role to completion, collecting `expected_datasets`
/// relayed streams (one per provider in a full session). The coordinator
/// comes from `ctx.roster`, and every blocking receive observes the
/// session's liveness regime.
///
/// Each relayed row block is decoded the moment it arrives (overlapping
/// unseal + decode with the exchange still in flight). Every slot is
/// re-based into the target space once, at unification, through its
/// adaptor straight into the unified buffer — whether the adaptor table
/// arrived before the streams or after them.
///
/// # Errors
///
/// Returns [`SapError`] on timeout, peer failure, cancellation,
/// messaging failure, duplicate slots, missing adaptors, or dimension
/// mismatches (between a slot and its adaptor, or between slots).
pub fn run_miner<T: Transport>(
    node: &Node<T>,
    expected_datasets: usize,
    ctx: &RoleCtx<'_>,
) -> Result<MinerOutput, SapError> {
    let me = node.id();
    let audit = ctx.audit;
    let monitor = ctx.monitor;
    let coordinator = ctx.roster.coordinator();
    // Open streams by `(forwarder, stream id)`: one relay may forward
    // several streams at once.
    let mut open: HashMap<(PartyId, u64), OpenSlot> = HashMap::new();
    let mut collected: BTreeMap<SlotTag, CollectedSlot> = BTreeMap::new();
    let mut adaptors: Option<Vec<(SlotTag, SpaceAdaptor)>> = None;
    // Every slot must share the first stream's dimensionality: the
    // unified dataset is one `rows × dim` buffer.
    let mut dim: Option<u32> = None;
    let mut num_classes: u32 = 0;
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
                        // Sorted by slot, the table says nothing about
                        // which provider owns which slot.
                        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
                            return Err(SapError::Protocol(
                                "adaptor table not sorted by slot".into(),
                            ));
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
            FlowInbound::StreamStart {
                stream,
                header,
                last,
            } => {
                audit.record_kind(from, me, header.kind(), true, false);
                if !header.relay {
                    return Err(SapError::Protocol(
                        "miner received un-relayed perturbed-data".into(),
                    ));
                }
                let slot = header.slot;
                if collected.contains_key(&slot) || open.values().any(|o| o.slot == slot) {
                    return Err(SapError::Protocol(format!("duplicate slot {slot:?}")));
                }
                let first_dim = *dim.get_or_insert(header.dim);
                if header.dim != first_dim {
                    return Err(SapError::Protocol(format!(
                        "slot {slot:?} has dim {} but an earlier slot has dim {first_dim}",
                        header.dim
                    )));
                }
                num_classes = num_classes.max(header.num_classes);
                monitor.stream_opened();
                let pipeline = StreamPipeline::open(header, Vec::new(), DatasetSink::new())?;
                if last {
                    // The header declared ≥ 1 row (open() rejects zero)
                    // but the stream closed with no blocks.
                    monitor.stream_closed();
                    return Err(SapError::Protocol(format!(
                        "empty dataset stream for slot {slot:?} declaring {} rows",
                        pipeline.header().rows
                    )));
                }
                open.insert((from, stream), OpenSlot { slot, pipeline });
            }
            FlowInbound::StreamBlock {
                stream,
                block,
                last,
            } => {
                // Decode now, while the rest of the exchange is still on
                // the wire — overlapped unless this is the session's final
                // in-flight data.
                let overlapped = !last || open.len() > 1;
                let mut entry = open.remove(&(from, stream)).ok_or_else(|| {
                    SapError::Protocol("stream block without an open stream".into())
                })?;
                monitor.block_received();
                relayed_blocks += 1;
                let rows = node.open_block(block, node.seal_toward(me, entry.slot.0))?;
                let t0 = Instant::now();
                entry.pipeline.push(&rows)?;
                monitor.compute(t0.elapsed(), overlapped);
                if last {
                    monitor.stream_closed();
                    let sink = entry.pipeline.finish()?;
                    collected.insert(
                        entry.slot,
                        CollectedSlot {
                            forwarder: from,
                            sink,
                        },
                    );
                } else {
                    open.insert((from, stream), entry);
                }
            }
        }
    }
    let adaptors = adaptors.expect("loop exits only when set");

    // Unify in deterministic slot order into one buffer sized once: each
    // slot is adapted straight into its place, and its buffer is dropped
    // the moment it has been consumed.
    let dim = dim.unwrap_or(0) as usize;
    let adaptor_of: HashMap<SlotTag, &SpaceAdaptor> =
        adaptors.iter().map(|(s, a)| (*s, a)).collect();
    let rows: usize = collected.values().map(|c| c.sink.rows()).sum();
    let mut values: Vec<f64> = Vec::with_capacity(rows * dim);
    let mut labels: Vec<usize> = Vec::with_capacity(rows);
    let mut forwarder_of_slot: Vec<(SlotTag, PartyId)> = Vec::new();
    for (slot, entry) in collected {
        let adaptor = adaptor_of
            .get(&slot)
            .ok_or_else(|| SapError::Protocol(format!("no adaptor for slot {slot:?}")))?;
        if adaptor.dim() != dim {
            return Err(SapError::Protocol(format!(
                "adaptor dim {} != data dim {dim} for slot {slot:?}",
                adaptor.dim()
            )));
        }
        let t0 = Instant::now();
        let start = values.len();
        values.resize(start + entry.sink.values.len(), 0.0);
        adaptor.adapt_records(&entry.sink.values, &mut values[start..]);
        labels.extend_from_slice(&entry.sink.labels);
        monitor.compute(t0.elapsed(), false);
        forwarder_of_slot.push((slot, entry.forwarder));
    }
    let unified = Dataset::try_from_flat(values, labels, dim, num_classes as usize)
        .map_err(|e| SapError::Protocol(format!("unified dataset: {e}")))?;

    node.send_msg(
        coordinator,
        &SapMessage::MiningComplete {
            unified_records: unified.len() as u64,
        },
    )
    .map_err(SapError::from)?;

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
        link::tests::send_dataset(
            &relay,
            PartyId(100),
            true,
            SlotTag(1),
            &Dataset::from_column_matrix(&y1, d1.labels().to_vec(), 2),
            4,
        )
        .unwrap();
        link::tests::send_dataset(
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

    /// Runs the miner on `slots` streams relayed by parties 1 and 5, with
    /// the adaptor table sent before every stream or after all of them.
    fn unify_in_order(slots: usize, block_rows: usize, table_first: bool) -> MinerOutput {
        let hub = InMemoryHub::new();
        let miner_node = Node::new(hub.endpoint(PartyId(100)), 7);
        let relays = [
            Node::new(hub.endpoint(PartyId(1)), 7),
            Node::new(hub.endpoint(PartyId(5)), 7),
        ];
        let coord = Node::new(hub.endpoint(PartyId(2)), 7);
        let audit = AuditLog::new();
        let mut rng = StdRng::seed_from_u64(11);
        let target = Perturbation::random(2, &mut rng);
        let mut entries = Vec::new();
        let mut streams = Vec::new();
        for s in 0..slots {
            let g = Perturbation::random(2, &mut rng);
            let d = tiny_dataset(3.0 * s as f64);
            let y = g.apply_clean(&d.to_column_matrix());
            let slot = SlotTag(s as u64 + 1);
            entries.push((slot, SpaceAdaptor::between(&g, &target).unwrap()));
            streams.push((
                slot,
                Dataset::from_column_matrix(&y, d.labels().to_vec(), 2),
            ));
        }
        let table = SapMessage::AdaptorTable { entries };
        if table_first {
            coord.send_msg(PartyId(100), &table).unwrap();
        }
        for (i, (slot, data)) in streams.iter().enumerate() {
            let relay = &relays[i % relays.len()];
            link::tests::send_dataset(relay, PartyId(100), true, *slot, data, block_rows).unwrap();
        }
        if !table_first {
            coord.send_msg(PartyId(100), &table).unwrap();
        }
        run_miner(&miner_node, slots, &harness(quick_config(), &audit).ctx()).unwrap()
    }

    /// An adaptor table that beats every stream and one that trails them
    /// all unify to the same bytes.
    #[test]
    fn table_order_does_not_change_unified_bytes() {
        for slots in [2, 3] {
            for block_rows in [1, 4] {
                let first = unify_in_order(slots, block_rows, true);
                let last = unify_in_order(slots, block_rows, false);
                let bits = |d: &Dataset| d.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(first.unified.len(), 10 * slots);
                assert_eq!(bits(&first.unified), bits(&last.unified), "{slots} slots");
                assert_eq!(first.unified.labels(), last.unified.labels());
                assert_eq!(first.unified.num_classes(), last.unified.num_classes());
                assert_eq!(first.forwarder_of_slot, last.forwarder_of_slot);
                assert_eq!(first.relayed_blocks, last.relayed_blocks);
            }
        }
    }

    /// Relayed slots that disagree on `dim` fail the miner with a typed
    /// protocol error, even when each slot's adaptor matches its data.
    #[test]
    fn slots_of_different_dims_are_protocol_error() {
        let hub = InMemoryHub::new();
        let miner_node = Node::new(hub.endpoint(PartyId(100)), 7);
        let relay = Node::new(hub.endpoint(PartyId(1)), 7);
        let coord = Node::new(hub.endpoint(PartyId(2)), 7);
        let audit = AuditLog::new();

        let mut rng = StdRng::seed_from_u64(4);
        let wide = Dataset::new(
            (0..10).map(|i| vec![i as f64, 1.0, -1.0]).collect(),
            (0..10).map(|i| i % 2).collect(),
        );
        link::tests::send_dataset(
            &relay,
            PartyId(100),
            true,
            SlotTag(1),
            &tiny_dataset(0.0),
            4,
        )
        .unwrap();
        link::tests::send_dataset(&relay, PartyId(100), true, SlotTag(2), &wide, 4).unwrap();
        let adaptor = |d: usize, rng: &mut StdRng| {
            SpaceAdaptor::between(&Perturbation::random(d, rng), &Perturbation::random(d, rng))
                .unwrap()
        };
        let entries = vec![
            (SlotTag(1), adaptor(2, &mut rng)),
            (SlotTag(2), adaptor(3, &mut rng)),
        ];
        coord
            .send_msg(PartyId(100), &SapMessage::AdaptorTable { entries })
            .unwrap();

        let err = run_miner(&miner_node, 2, &harness(quick_config(), &audit).ctx()).unwrap_err();
        assert!(
            matches!(&err, SapError::Protocol(what) if what.contains("dim 3")),
            "{err}"
        );
    }

    #[test]
    fn duplicate_slot_is_protocol_error() {
        let hub = InMemoryHub::new();
        let miner_node = Node::new(hub.endpoint(PartyId(100)), 7);
        let relay = Node::new(hub.endpoint(PartyId(1)), 7);
        let _coord = hub.endpoint(PartyId(2));
        let audit = AuditLog::new();

        for _ in 0..2 {
            link::tests::send_dataset(
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

        link::tests::send_dataset(
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

    /// A table that is not sorted by slot would tell the miner which
    /// provider owns each slot: refused.
    #[test]
    fn unsorted_adaptor_table_rejected() {
        let hub = InMemoryHub::new();
        let miner_node = Node::new(hub.endpoint(PartyId(100)), 7);
        let coord = Node::new(hub.endpoint(PartyId(2)), 7);
        let audit = AuditLog::new();
        let mut rng = StdRng::seed_from_u64(6);
        let mut adaptor = || {
            SpaceAdaptor::between(
                &Perturbation::random(2, &mut rng),
                &Perturbation::random(2, &mut rng),
            )
            .unwrap()
        };
        let entries = vec![(SlotTag(9), adaptor()), (SlotTag(3), adaptor())];
        coord
            .send_msg(PartyId(100), &SapMessage::AdaptorTable { entries })
            .unwrap();
        let err = run_miner(&miner_node, 2, &harness(quick_config(), &audit).ctx()).unwrap_err();
        assert!(
            matches!(&err, SapError::Protocol(what) if what.contains("not sorted")),
            "{err}"
        );
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
        link::tests::send_dataset(
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
