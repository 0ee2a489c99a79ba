//! The block envelope end to end: an owner seals each row block once,
//! toward the miner, the relay forwards it without opening it, and the
//! miner opens it once.
//!
//! * the bytes the miner receives for a block equal, past the hop header,
//!   the bytes the owner sealed, and neither hop key opens them;
//! * under the shared data key, no two blocks of any provider, in any
//!   session, are sealed under the same nonce;
//! * a relay that splices a forwarded block into another slot or session,
//!   replays it, reorders it or ends its stream early fails only the
//!   session it attacks, at the miner, with a typed error, while a sibling
//!   session on the same parties completes byte-identically.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sap_repro::core::link::{self, DataHeader, FlowInbound};
use sap_repro::core::liveness::Roster;
use sap_repro::core::messages::{SapMessage, SlotTag};
use sap_repro::core::miner::run_miner;
use sap_repro::core::session::{SapConfig, StandaloneCtx};
use sap_repro::core::SapError;
use sap_repro::datasets::Dataset;
use sap_repro::net::crypto::{ChannelKey, CryptoError};
use sap_repro::net::frame::{BlockSeal, FrameError, SealedBlock, BLOCK_PAYLOAD_AT};
use sap_repro::net::node::{Node, NodeError};
use sap_repro::net::transport::InMemoryHub;
use sap_repro::net::{PartyId, SessionId, SessionMux, Transport};
use sap_repro::perturb::{Perturbation, SpaceAdaptor};
use std::collections::BTreeMap;
use std::time::Duration;

const SECRET: u64 = 0x005E_C2E7;
const MINER: PartyId = PartyId(100);
const TIMEOUT: Duration = Duration::from_secs(5);

fn dataset(offset: f64) -> Dataset {
    Dataset::new(
        (0..12)
            .map(|i| vec![offset + i as f64 / 12.0, offset - (i % 5) as f64 / 5.0])
            .collect(),
        (0..12).map(|i| i % 2).collect(),
    )
}

fn header(node: &Node<impl Transport>, slot: SlotTag, relay: bool, data: &Dataset) -> DataHeader {
    DataHeader {
        session: node.session(),
        relay,
        slot,
        rows: data.len() as u64,
        dim: data.dim() as u32,
        num_classes: data.num_classes() as u32,
    }
}

/// Streams `data` to `to` in 4-row blocks, each sealed toward the miner
/// under `slot`, as an owner does.
fn send_owned(node: &Node<impl Transport>, to: PartyId, slot: SlotTag, data: &Dataset) {
    let mut stream = node
        .begin_stream(to, &header(node, slot, false, data), false)
        .unwrap();
    for start in (0..data.len()).step_by(4) {
        let end = (start + 4).min(data.len());
        let seal = node.seal_toward(MINER, slot.0);
        node.stream_block_with(&mut stream, seal, 0, end == data.len(), |out| {
            link::encode_block_into(data, start, end, out)
        })
        .unwrap();
    }
}

/// Every frame waiting at a raw endpoint.
fn drain(endpoint: &impl Transport) -> Vec<Vec<u8>> {
    let mut frames = Vec::new();
    while let Ok((_, frame)) = endpoint.recv_timeout(Duration::from_millis(50)) {
        frames.push(frame.to_vec());
    }
    frames
}

/// Receives one inbound stream at `node`: its header and its blocks,
/// still sealed.
fn recv_sealed(node: &Node<impl Transport>) -> (DataHeader, Vec<SealedBlock>) {
    let (_, FlowInbound::StreamStart { header, .. }) = link::recv_flow(node, TIMEOUT).unwrap()
    else {
        panic!("expected a stream header");
    };
    let mut blocks = Vec::new();
    loop {
        let (_, FlowInbound::StreamBlock { block, last, .. }) =
            link::recv_flow(node, TIMEOUT).unwrap()
        else {
            panic!("expected a row block");
        };
        blocks.push(block);
        if last {
            return (header, blocks);
        }
    }
}

/// Forwards `blocks` toward the miner behind a relayed copy of `header`;
/// the final one closes the stream.
fn forward(relay: &Node<impl Transport>, header: DataHeader, blocks: Vec<SealedBlock>) {
    let relayed = DataHeader {
        relay: true,
        ..header
    };
    let mut out = relay.begin_stream(MINER, &relayed, false).unwrap();
    let n = blocks.len();
    for (i, block) in blocks.into_iter().enumerate() {
        relay.forward_block(&mut out, block, i + 1 == n).unwrap();
    }
}

#[test]
fn relay_forwards_the_owners_sealed_bytes_and_cannot_open_them() {
    let data = dataset(0.0);
    let slot = SlotTag(7);
    // The owner's frames, captured as they leave it.
    let hub = InMemoryHub::new();
    let owner = Node::new(hub.endpoint(PartyId(1)), SECRET);
    let tap = hub.endpoint(PartyId(2));
    send_owned(&owner, PartyId(2), slot, &data);
    let sealed_by_owner = drain(&tap);
    assert_eq!(sealed_by_owner.len(), 4, "a header and three blocks");

    // The relay receives them and forwards every block.
    let hub = InMemoryHub::new();
    let from_owner = hub.endpoint(PartyId(1));
    let relay = Node::new(hub.endpoint(PartyId(2)), SECRET);
    let at_miner = hub.endpoint(MINER);
    for frame in &sealed_by_owner {
        from_owner.send(PartyId(2), frame.clone().into()).unwrap();
    }
    let (header, blocks) = recv_sealed(&relay);
    forward(&relay, header, blocks);
    let received_by_miner = drain(&at_miner);
    assert_eq!(received_by_miner.len(), 4);
    for (owner_frame, miner_frame) in sealed_by_owner[1..].iter().zip(&received_by_miner[1..]) {
        assert_eq!(
            miner_frame[BLOCK_PAYLOAD_AT..],
            owner_frame[BLOCK_PAYLOAD_AT..],
            "past the hop header, the miner gets the owner's bytes"
        );
        assert_ne!(
            miner_frame[..BLOCK_PAYLOAD_AT],
            owner_frame[..BLOCK_PAYLOAD_AT],
            "the hop header was rewritten"
        );
    }

    // Neither hop key opens a forwarded block; the miner's data key does.
    let hub = InMemoryHub::new();
    let from_relay = hub.endpoint(PartyId(2));
    let miner = Node::new(hub.endpoint(MINER), SECRET);
    for frame in &received_by_miner {
        from_relay.send(MINER, frame.clone().into()).unwrap();
    }
    let (header, blocks) = recv_sealed(&miner);
    assert_eq!(header.slot, slot);
    let hop_keys = [
        ChannelKey::derive(SECRET, 1, 2),
        ChannelKey::derive(SECRET, 2, MINER.0),
    ];
    for (i, block) in blocks.into_iter().enumerate() {
        for key in hop_keys {
            let err = miner
                .open_block(block.clone(), BlockSeal { key, tag: slot.0 })
                .unwrap_err();
            assert!(
                matches!(
                    err,
                    NodeError::Frame(FrameError::Crypto(CryptoError::BadTag))
                ),
                "{err}"
            );
        }
        let rows = miner
            .open_block(block, miner.seal_toward(MINER, slot.0))
            .unwrap();
        assert_eq!(rows, link::encode_block(&data, i * 4, i * 4 + 4));
    }
}

/// With the same plaintext in every block, two equal ciphertexts would
/// mean two equal keystreams, i.e. a repeated nonce under the shared data
/// key. Four providers with the coordinator's random slot tags, in two
/// sessions of one secret, seal 8 blocks each: all 64 differ.
#[test]
fn nonces_never_repeat_across_providers_under_the_data_key() {
    let mut rng = StdRng::seed_from_u64(17);
    let slots: Vec<u64> = (0..4).map(|_| rng.random_range(0..u64::MAX)).collect();
    let zeros = [0u8; 64];
    let mut seen = std::collections::HashSet::new();
    for session in [SessionId(1), SessionId(2)] {
        let hub = InMemoryHub::new();
        let tap = hub.endpoint(PartyId(9));
        for (p, &slot) in slots.iter().enumerate() {
            let owner = Node::for_session(hub.endpoint(PartyId(p as u64)), SECRET, session);
            let mut stream = owner.begin_stream(PartyId(9), &0u32, false).unwrap();
            for b in 0..8 {
                let seal = owner.seal_toward(MINER, slot);
                owner
                    .stream_block_with(&mut stream, seal, 64, b == 7, |out| {
                        out.extend_from_slice(&zeros)
                    })
                    .unwrap();
            }
        }
        for frame in drain(&tap).iter().filter(|f| f.len() > 64) {
            let ciphertext = frame[BLOCK_PAYLOAD_AT..frame.len() - 8].to_vec();
            assert_eq!(ciphertext.len(), 64);
            assert!(seen.insert(ciphertext), "a payload nonce repeated");
        }
    }
    assert_eq!(seen.len(), 2 * 4 * 8);
}

/// What the relay of the attacked session does to the stream of slot 11.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Attack {
    None,
    /// Its first block is the first block of slot 13.
    SpliceSlot,
    /// Its first block is the sibling session's first block of slot 11:
    /// same owner, slot, seq and plaintext, another session.
    SpliceSession,
    /// Its first block is sent again in place of its second.
    Replay,
    /// Its first two blocks swap places.
    Reorder,
    /// Its first block is marked last.
    EarlyLast,
}

const SLOTS: [SlotTag; 2] = [SlotTag(11), SlotTag(13)];

/// Runs two sessions over one set of muxed parties — owners 1 and 3,
/// relay 2, coordinator 4, miner 100 — with identical inputs; the relay
/// applies `attack` in session 1 only. Returns each session's miner
/// result.
fn session_pair(attack: Attack) -> Vec<Result<Dataset, SapError>> {
    let hub = InMemoryHub::new();
    let muxes: BTreeMap<u64, SessionMux<_>> = [1u64, 2, 3, 4, MINER.0]
        .into_iter()
        .map(|id| (id, SessionMux::new(hub.endpoint(PartyId(id)))))
        .collect();
    let sessions = [SessionId(1), SessionId(2)];
    let node = |id: u64, session: SessionId| {
        let endpoint = muxes[&id].open_session(session).unwrap();
        Node::for_session(endpoint, SECRET, session)
    };
    let config = SapConfig {
        timeout: TIMEOUT,
        ..SapConfig::quick_test()
    };
    let mut rng = StdRng::seed_from_u64(5);
    let target = Perturbation::random(2, &mut rng);
    let entries: Vec<(SlotTag, SpaceAdaptor)> = SLOTS
        .iter()
        .map(|&slot| {
            let source = Perturbation::random(2, &mut rng);
            (slot, SpaceAdaptor::between(&source, &target).unwrap())
        })
        .collect();

    std::thread::scope(|scope| {
        let miners: Vec<_> = sessions
            .iter()
            .map(|&session| {
                let miner = node(MINER.0, session);
                let config = config.clone();
                scope.spawn(move || {
                    let roster = Roster::new(vec![PartyId(1), PartyId(3), PartyId(4)], MINER);
                    let sc = StandaloneCtx::new(roster, config);
                    run_miner(&miner, 2, &sc.ctx()).map(|out| out.unified)
                })
            })
            .collect();

        let mut inbound = Vec::new();
        for &session in &sessions {
            // The relay's session opens first: a mux drops frames of a
            // session it does not know.
            let relay = node(2, session);
            send_owned(&node(1, session), PartyId(2), SLOTS[0], &dataset(0.0));
            send_owned(&node(3, session), PartyId(2), SLOTS[1], &dataset(5.0));
            let coordinator = node(4, session);
            let table = SapMessage::AdaptorTable {
                entries: entries.clone(),
            };
            coordinator.send_msg(MINER, &table).unwrap();
            let mut streams = BTreeMap::new();
            for _ in 0..2 {
                let (header, blocks) = recv_sealed(&relay);
                streams.insert(header.slot, (header, blocks));
            }
            inbound.push((relay, streams));
        }
        let sibling_first = inbound[1].1[&SLOTS[0]].1[0].clone();
        for (s, (relay, mut streams)) in inbound.into_iter().enumerate() {
            if s == 0 {
                let other_first = streams[&SLOTS[1]].1[0].clone();
                let (_, blocks) = streams.get_mut(&SLOTS[0]).unwrap();
                match attack {
                    Attack::None => {}
                    Attack::SpliceSlot => blocks[0] = other_first,
                    Attack::SpliceSession => blocks[0] = sibling_first.clone(),
                    Attack::Replay => blocks[1] = blocks[0].clone(),
                    Attack::Reorder => blocks.swap(0, 1),
                    Attack::EarlyLast => blocks.truncate(1),
                }
            }
            for (_, (header, blocks)) in streams {
                forward(&relay, header, blocks);
            }
        }
        miners.into_iter().map(|m| m.join().unwrap()).collect()
    })
}

#[test]
fn spliced_replayed_reordered_or_cut_blocks_fail_only_their_session_at_the_miner() {
    let clean = session_pair(Attack::None);
    let reference = clean[0].as_ref().unwrap();
    assert_eq!(clean[1].as_ref().unwrap(), reference);
    assert_eq!(reference.len(), 24);
    for attack in [
        Attack::SpliceSlot,
        Attack::SpliceSession,
        Attack::Replay,
        Attack::Reorder,
        Attack::EarlyLast,
    ] {
        let results = session_pair(attack);
        let err = results[0].as_ref().unwrap_err();
        if attack == Attack::EarlyLast {
            assert!(
                matches!(err, SapError::Protocol(what) if what.contains("rows")),
                "{attack:?}: {err}"
            );
        } else {
            assert!(
                matches!(
                    err,
                    SapError::Messaging(NodeError::Frame(FrameError::Crypto(CryptoError::BadTag)))
                ),
                "{attack:?}: {err}"
            );
        }
        assert_eq!(
            results[1].as_ref().unwrap(),
            reference,
            "{attack:?}: the sibling session"
        );
    }
}
