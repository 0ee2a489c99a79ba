//! Failure-injection tests: SAP roles over faulty transports must abort
//! cleanly (error out), never produce wrong results. With the chunked
//! frame pipeline, faults act at *frame* granularity: a dropped frame
//! starves reassembly (timeout), a duplicated or reordered frame breaks
//! the sequence check (protocol abort) — never a wrong dataset. With the
//! liveness layer, a peer that *dies* (rather than merely losing frames)
//! fails its sessions with a typed `PeerFailure` within the detection
//! budget instead of starving until a timeout or the session budget.

use sap_repro::core::link;
use sap_repro::core::liveness::Roster;
use sap_repro::core::messages::{SapMessage, SlotTag};
use sap_repro::core::miner::run_miner;
use sap_repro::core::session::{SapConfig, StandaloneCtx};
use sap_repro::core::SapError;
use sap_repro::datasets::Dataset;
use sap_repro::net::node::{Node, NodeError};
use sap_repro::net::sim::{FaultConfig, FaultyTransport};
use sap_repro::net::transport::InMemoryHub;
use sap_repro::net::{PartyId, Transport};
use std::time::{Duration, Instant};

fn quick(timeout_ms: u64) -> SapConfig {
    SapConfig {
        timeout: Duration::from_millis(timeout_ms),
        ..SapConfig::quick_test()
    }
}

/// A miner harness: relay parties 1 and 5, coordinator 2 (roster-last),
/// miner 100.
fn miner_harness(config: SapConfig) -> StandaloneCtx {
    StandaloneCtx::new(
        Roster::new(vec![PartyId(1), PartyId(5), PartyId(2)], PartyId(100)),
        config,
    )
}

/// Streams a dataset to `to` in `block_rows`-row blocks sealed toward the
/// miner (party 100), playing a provider (`relay == false`) or a relay on
/// the public stream API.
fn send_dataset<T: Transport>(
    node: &Node<T>,
    to: PartyId,
    relay: bool,
    slot: SlotTag,
    data: &Dataset,
    block_rows: usize,
) -> Result<(), NodeError> {
    let header = link::DataHeader {
        session: node.session(),
        relay,
        slot,
        rows: data.len() as u64,
        dim: data.dim() as u32,
        num_classes: data.num_classes() as u32,
    };
    let n = data.len();
    let mut stream = node.begin_stream(to, &header, n == 0)?;
    for start in (0..n).step_by(block_rows) {
        let end = (start + block_rows).min(n);
        node.stream_block_with(
            &mut stream,
            node.seal_toward(PartyId(100), slot.0),
            4 + (end - start) * (4 + data.dim() * 8),
            end == n,
            |out| link::encode_block_into(data, start, end, out),
        )?;
    }
    Ok(())
}

fn tiny_dataset() -> Dataset {
    Dataset::new(
        (0..12)
            .map(|i| vec![i as f64 / 12.0, (i % 3) as f64 / 3.0])
            .collect(),
        (0..12).map(|i| i % 2).collect(),
    )
}

/// A sender whose frames are all dropped: the miner times out cleanly.
#[test]
fn dropped_frames_time_out_cleanly() {
    let hub = InMemoryHub::new();
    let miner_node = Node::new(hub.endpoint(PartyId(100)), 42);
    // The relay's outgoing link drops everything.
    let relay = Node::new(
        FaultyTransport::new(
            hub.endpoint(PartyId(1)),
            FaultConfig {
                drop_prob: 1.0,
                ..FaultConfig::default()
            },
        ),
        42,
    );
    send_dataset(&relay, PartyId(100), true, SlotTag(1), &tiny_dataset(), 8).unwrap();
    assert!(
        relay.transport().fault_counts().0 >= 2,
        "header and block frames were dropped"
    );

    let sc = miner_harness(quick(100));
    let err = run_miner(&miner_node, 1, &sc.ctx()).unwrap_err();
    assert!(matches!(err, SapError::Timeout { .. }), "{err}");
    // Nothing was recorded as delivered.
    assert!(sc.audit.is_empty());
}

/// A whole stream delivered twice becomes a duplicate slot — a protocol
/// error, not silent double-counting of records.
#[test]
fn duplicated_stream_detected_as_duplicate_slot() {
    let hub = InMemoryHub::new();
    let miner_node = Node::new(hub.endpoint(PartyId(100)), 42);
    let relay = Node::new(hub.endpoint(PartyId(1)), 42);
    for _ in 0..2 {
        send_dataset(&relay, PartyId(100), true, SlotTag(9), &tiny_dataset(), 64).unwrap();
    }

    let sc = miner_harness(quick(300));
    let err = run_miner(&miner_node, 2, &sc.ctx()).unwrap_err();
    assert!(err.to_string().contains("duplicate slot"), "{err}");
}

/// Frame-level duplication inside one stream breaks the sequence check:
/// the miner aborts with a protocol error instead of guessing.
#[test]
fn duplicated_frames_detected_as_framing_violation() {
    let hub = InMemoryHub::new();
    let miner_node = Node::new(hub.endpoint(PartyId(100)), 42);
    let relay = Node::new(
        FaultyTransport::new(
            hub.endpoint(PartyId(1)),
            FaultConfig {
                duplicate_prob: 1.0,
                ..FaultConfig::default()
            },
        ),
        42,
    );
    send_dataset(&relay, PartyId(100), true, SlotTag(9), &tiny_dataset(), 8).unwrap();

    let sc = miner_harness(quick(300));
    let err = run_miner(&miner_node, 1, &sc.ctx()).unwrap_err();
    assert!(
        matches!(err, SapError::Protocol(_)),
        "duplicated frames must abort as a protocol violation, got {err}"
    );
}

/// Corrupted ciphertext (tampering / bit-rot) surfaces as a sealed-frame
/// failure, not as garbage data.
#[test]
fn corrupted_frame_fails_crypto_not_parsing() {
    use sap_repro::net::frame::FrameError;
    use sap_repro::net::node::NodeError;

    let hub = InMemoryHub::new();
    let a = Node::new(hub.endpoint(PartyId(1)), 42);
    let b_endpoint = hub.endpoint(PartyId(2));
    a.send_msg(PartyId(2), &7u64).unwrap();

    use sap_repro::net::Transport;
    let (from, sealed) = b_endpoint.recv().unwrap();
    assert_eq!(from, PartyId(1));
    let mut corrupted = sealed.to_vec();
    let mid = corrupted.len() / 2;
    corrupted[mid] ^= 0xFF;
    // Open through a fresh node holding the same secret.
    let hub2 = InMemoryHub::new();
    let c = Node::new(hub2.endpoint(PartyId(2)), 42);
    let d = hub2.endpoint(PartyId(1));
    d.send(PartyId(2), corrupted.into()).unwrap();
    let err = c.recv_msg::<u64>().unwrap_err();
    assert!(
        matches!(err, NodeError::Frame(FrameError::Crypto(_))),
        "{err}"
    );
}

/// A flipped ciphertext byte in a forwarded block passes the relay, which
/// checks only the block's hop header and never opens its payload, and
/// fails at the miner, which does, as a sealed-frame failure.
#[test]
fn flipped_byte_in_forwarded_block_fails_at_the_miner_not_the_relay() {
    use sap_repro::net::crypto::CryptoError;
    use sap_repro::net::frame::{FrameError, BLOCK_PAYLOAD_AT};

    // The owner's frames, with one payload byte of the first block flipped.
    let hub = InMemoryHub::new();
    let owner = Node::new(hub.endpoint(PartyId(5)), 42);
    let tap = hub.endpoint(PartyId(1));
    send_dataset(&owner, PartyId(1), false, SlotTag(4), &tiny_dataset(), 8).unwrap();
    let mut frames = Vec::new();
    while let Ok((_, frame)) = tap.recv_timeout(Duration::from_millis(50)) {
        frames.push(frame.to_vec());
    }
    assert_eq!(frames.len(), 3, "a header and two blocks");
    frames[1][BLOCK_PAYLOAD_AT + 3] ^= 0x10;

    // The relay takes every frame and forwards both blocks.
    let hub = InMemoryHub::new();
    let wire = hub.endpoint(PartyId(5));
    let relay = Node::new(hub.endpoint(PartyId(1)), 42);
    let miner_node = Node::new(hub.endpoint(PartyId(100)), 42);
    for frame in frames {
        wire.send(PartyId(1), frame.into()).unwrap();
    }
    let timeout = Duration::from_secs(2);
    let (_, link::FlowInbound::StreamStart { header, .. }) =
        link::recv_flow(&relay, timeout).unwrap()
    else {
        panic!("expected the stream header");
    };
    let relayed = link::DataHeader {
        relay: true,
        ..header
    };
    let mut out = relay.begin_stream(PartyId(100), &relayed, false).unwrap();
    for _ in 0..2 {
        let (_, link::FlowInbound::StreamBlock { block, last, .. }) =
            link::recv_flow(&relay, timeout).unwrap()
        else {
            panic!("expected a row block");
        };
        relay.forward_block(&mut out, block, last).unwrap();
    }

    let sc = miner_harness(quick(300));
    let err = run_miner(&miner_node, 1, &sc.ctx()).unwrap_err();
    assert!(
        matches!(
            err,
            SapError::Messaging(NodeError::Frame(FrameError::Crypto(CryptoError::BadTag)))
        ),
        "{err}"
    );
}

/// Pairwise delay shifts frames but preserves order once flushed: streams
/// reassemble and the miner keys everything by slot, so nothing breaks.
#[test]
fn delayed_relays_still_unify() {
    use sap_repro::perturb::{Perturbation, SpaceAdaptor};

    let hub = InMemoryHub::new();
    let miner_node = Node::new(hub.endpoint(PartyId(100)), 42);
    let relay = Node::new(
        FaultyTransport::new(
            hub.endpoint(PartyId(1)),
            FaultConfig {
                delay_prob: 1.0,
                ..FaultConfig::default()
            },
        ),
        42,
    );
    let coord = Node::new(hub.endpoint(PartyId(2)), 42);

    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
    let target = Perturbation::random(2, &mut rng);
    let g1 = Perturbation::random(2, &mut rng);
    let g2 = Perturbation::random(2, &mut rng);
    let d1 = tiny_dataset();
    let y1 = g1.apply_clean(&d1.to_column_matrix());
    let y2 = g2.apply_clean(&d1.to_column_matrix());

    for (slot, y) in [(SlotTag(1), &y1), (SlotTag(2), &y2)] {
        send_dataset(
            &relay,
            PartyId(100),
            true,
            slot,
            &Dataset::from_column_matrix(y, d1.labels().to_vec(), 2),
            8,
        )
        .unwrap();
    }
    relay.transport().flush().unwrap();
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

    let sc = miner_harness(quick(500));
    let out = run_miner(&miner_node, 2, &sc.ctx()).unwrap();
    assert_eq!(out.unified.len(), 24);
    assert!(relay.transport().fault_counts().2 >= 1, "delay happened");
}

/// A relay killed **while its row-block stream is in flight**: the miner
/// holds a partial stream and would previously starve until its receive
/// timeout. With the liveness layer it fails with the typed
/// [`SapError::PeerFailure`] the moment the death is reported — the 60 s
/// timeout never comes into play.
#[test]
fn peer_death_mid_stream_fails_typed_and_fast() {
    use sap_repro::core::link::DataHeader;
    use sap_repro::net::SessionId;

    let hub = InMemoryHub::new();
    let miner_node = Node::new(hub.endpoint(PartyId(100)), 42);
    let relay = Node::new(hub.endpoint(PartyId(1)), 42);

    // Open a relayed stream and send two of its blocks — never the last.
    let data = tiny_dataset();
    let header = DataHeader {
        session: SessionId::SOLO,
        relay: true,
        slot: SlotTag(3),
        rows: data.len() as u64,
        dim: 2,
        num_classes: 2,
    };
    let mut stream = relay.begin_stream(PartyId(100), &header, false).unwrap();
    for start in [0usize, 4] {
        let seal = relay.seal_toward(PartyId(100), 3);
        relay
            .stream_block_with(&mut stream, seal, 40, false, |out| {
                link::encode_block_into(&data, start, start + 4, out)
            })
            .unwrap();
    }

    // The relay's process dies mid-stream.
    let hub_clone = hub.clone();
    let killer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(50));
        hub_clone.kill(PartyId(1));
    });

    let sc = miner_harness(quick(60_000));
    let start = Instant::now();
    let err = run_miner(&miner_node, 1, &sc.ctx()).unwrap_err();
    killer.join().unwrap();
    assert!(
        matches!(
            err,
            SapError::PeerFailure {
                party: PartyId(1),
                ..
            }
        ),
        "mid-stream peer death must surface as PeerFailure, got {err}"
    );
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "detection took {:?}, the 60 s receive timeout must never gate it",
        start.elapsed()
    );
}

/// The death of a party that is **not** on the session's roster (another
/// session's peer, broadcast over the shared transport) must not disturb
/// the session: the miner keeps collecting and finishes.
#[test]
fn stranger_death_is_ignored_by_healthy_session() {
    use sap_repro::perturb::{Perturbation, SpaceAdaptor};

    let hub = InMemoryHub::new();
    let miner_node = Node::new(hub.endpoint(PartyId(100)), 42);
    let relay = Node::new(hub.endpoint(PartyId(1)), 42);
    let coord = Node::new(hub.endpoint(PartyId(2)), 42);
    let _stranger = hub.endpoint(PartyId(77));

    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
    let target = Perturbation::random(2, &mut rng);
    let g1 = Perturbation::random(2, &mut rng);
    let d1 = tiny_dataset();
    let y1 = g1.apply_clean(&d1.to_column_matrix());

    // The stranger dies first; its PeerDown marker reaches the miner's
    // inbox ahead of the session traffic.
    hub.kill(PartyId(77));
    send_dataset(
        &relay,
        PartyId(100),
        true,
        SlotTag(1),
        &Dataset::from_column_matrix(&y1, d1.labels().to_vec(), 2),
        8,
    )
    .unwrap();
    coord
        .send_msg(
            PartyId(100),
            &SapMessage::AdaptorTable {
                entries: vec![(SlotTag(1), SpaceAdaptor::between(&g1, &target).unwrap())],
            },
        )
        .unwrap();

    let sc = miner_harness(quick(2_000));
    let out = run_miner(&miner_node, 1, &sc.ctx()).unwrap();
    assert_eq!(out.unified.len(), 12);
}

/// Server-level recovery: a party process dying mid-session fails every
/// session it belonged to with a typed `PeerFailure` within the
/// detection budget (not the 300 s session budget), while sibling sessions that
/// never involved the dead party keep completing on the same server.
#[test]
fn server_peer_death_fails_fast_and_spares_siblings() {
    use sap_repro::datasets::partition::{partition, PartitionScheme};
    use sap_repro::datasets::registry::UciDataset;
    use sap_repro::server::{SapServer, ServerConfig, ServerError};

    let server_config = ServerConfig {
        max_parties: 4,
        ..ServerConfig::default()
    };
    let hub = InMemoryHub::new();
    let lanes: Vec<_> = (0..4u64).map(|i| hub.endpoint(PartyId(i))).collect();
    let miner = hub.endpoint(sap_repro::core::session::MINER_ID);
    let server = SapServer::over_lanes(server_config.clone(), lanes, miner);

    // Session A uses all four lanes and is stuck mid-exchange (every
    // frame dropped) on a timeout far longer than the detection budget.
    let stuck_cfg = SapConfig {
        fault_config: Some(FaultConfig {
            drop_prob: 1.0,
            ..FaultConfig::default()
        }),
        timeout: Duration::from_secs(120),
        ..SapConfig::quick_test()
    };
    let pooled = UciDataset::Iris.generate(3);
    let a = server
        .submit(
            partition(&pooled, 4, PartitionScheme::Uniform, 5),
            &stuck_cfg,
        )
        .unwrap();

    // Lane 3's party process dies.
    std::thread::sleep(Duration::from_millis(100));
    hub.kill(PartyId(3));

    let budget = server_config.heartbeat_interval * server_config.liveness_misses;
    let start = Instant::now();
    let err = server.wait(a, Some(Duration::from_secs(30))).unwrap_err();
    let detection = start.elapsed();
    let ServerError::Session(SapError::PeerFailure { party, .. }) = err else {
        panic!("expected PeerFailure, got {err}");
    };
    assert_eq!(party, PartyId(3));
    assert!(
        detection < 2 * budget,
        "detection took {detection:?}, budget is {budget:?}"
    );

    // A sibling session on lanes 0..2 (party 3 not on its roster) still
    // completes after the death — the PeerDown broadcast is filtered by
    // roster, not blasted into every session.
    let healthy_cfg = SapConfig::quick_test();
    let b = server
        .submit(
            partition(&pooled, 3, PartitionScheme::Uniform, 6),
            &healthy_cfg,
        )
        .unwrap();
    let outcome = server.wait(b, Some(Duration::from_secs(60))).unwrap();
    assert_eq!(outcome.unified.len(), pooled.len());

    let m = server.metrics();
    assert!(m.peer_failures_detected >= 1, "{m:?}");
    assert!(m.peer_detection_latency_avg_s < budget.as_secs_f64() * 2.0);
}
