//! Golden wire bytes: the `wire` encoding of every `SapMessage` variant,
//! every fleet control message and the dataset stream header, plus one
//! sealed frame and one block frame (a row block sealed end to end)
//! under fixed keys and nonces, pinned as hex literals.
//!
//! The outcome corpus (`golden_outcomes.rs`) shows that sessions compute
//! the same results; these literals show that parties of different
//! builds still understand each other's bytes. A codec rewrite must keep
//! every one of them. The literals have no update switch: a PR that
//! changes one must say why.

use sap_repro::core::link::encode_block;
use sap_repro::core::link::DataHeader;
use sap_repro::core::messages::{SapMessage, SlotTag};
use sap_repro::core::session::SapConfig;
use sap_repro::datasets::Dataset;
use sap_repro::fleet::wire::FleetMsg;
use sap_repro::linalg::Matrix;
use sap_repro::net::crypto::ChannelKey;
use sap_repro::net::frame::{
    open_block_frame, open_frame, seal_block_with, seal_frame, BlockSeal, FlowItem, Frame,
    FrameKind, FrameMeta, Reassembler,
};
use sap_repro::net::sim::FaultConfig;
use sap_repro::net::{wire, PartyId, SessionId};
use sap_repro::perturb::{Perturbation, SpaceAdaptor};
use std::time::Duration;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).expect("hex literal"))
        .collect()
}

/// Exact inputs: quarter-turn rotations and dyadic values, so every
/// product inside `SpaceAdaptor::between` is exact too.
fn spaces() -> (Perturbation, Perturbation) {
    let quarter = Matrix::from_rows(&[vec![0.0, -1.0], vec![1.0, 0.0]]);
    let source = Perturbation::new(quarter, vec![0.5, -0.25]).expect("orthogonal");
    let target = Perturbation::new(Matrix::identity(2), vec![1.0, 2.0]).expect("orthogonal");
    (source, target)
}

fn dataset() -> Dataset {
    Dataset::new(vec![vec![0.5, -1.0], vec![2.0, 0.25]], vec![0, 1])
}

fn sap_messages() -> Vec<(&'static str, SapMessage)> {
    let (source, target) = spaces();
    let adaptor = SpaceAdaptor::between(&source, &target).expect("same dimension");
    vec![
        (
            "SapMessage::Setup",
            SapMessage::Setup {
                target,
                slot: SlotTag(0xDEAD_BEEF),
                send_data_to: PartyId(2),
                expect_incoming: 1,
            },
        ),
        (
            "SapMessage::Adaptor",
            SapMessage::Adaptor {
                adaptor: adaptor.clone(),
            },
        ),
        (
            "SapMessage::AdaptorTable",
            SapMessage::AdaptorTable {
                entries: vec![(SlotTag(1), adaptor.clone()), (SlotTag(300), adaptor)],
            },
        ),
        (
            "SapMessage::MiningComplete",
            SapMessage::MiningComplete {
                unified_records: 150,
            },
        ),
    ]
}

fn fleet_messages() -> Vec<(&'static str, FleetMsg)> {
    let config = SapConfig {
        fault_config: Some(FaultConfig {
            drop_prob: 0.25,
            send_latency: Duration::from_micros(1500),
            seed: 99,
            ..FaultConfig::default()
        }),
        ..SapConfig::quick_test()
    };
    vec![(
        "FleetMsg::Register",
        FleetMsg {
            session: 41,
            config: Box::new(config),
            locals: vec![dataset()],
        },
    )]
}

fn data_header() -> DataHeader {
    DataHeader {
        session: SessionId(0x1234),
        relay: true,
        slot: SlotTag(9),
        rows: 40_000,
        dim: 16,
        num_classes: 3,
    }
}

/// Every encoding, in table order.
fn encodings() -> Vec<(&'static str, Vec<u8>)> {
    let mut out: Vec<(&'static str, Vec<u8>)> = sap_messages()
        .into_iter()
        .map(|(name, m)| (name, wire::to_bytes(&m)))
        .collect();
    out.extend(
        fleet_messages()
            .into_iter()
            .map(|(name, m)| (name, wire::to_bytes(&m))),
    );
    out.push(("DataHeader", wire::to_bytes(&data_header())));
    out
}

fn assert_table(got: &[(&str, String)], golden: &[(&str, &str)]) {
    let table: String = got
        .iter()
        .map(|(name, h)| format!("    (\"{name}\", \"{h}\"),\n"))
        .collect();
    let names: Vec<&str> = got.iter().map(|(n, _)| *n).collect();
    let want: Vec<&str> = golden.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want, "golden table changed; computed:\n{table}");
    for ((name, h), (_, g)) in got.iter().zip(golden) {
        assert_eq!(h, g, "wire bytes of {name} changed; computed:\n{table}");
    }
}

#[test]
fn encodings_match_golden_bytes() {
    let got: Vec<(&str, String)> = encodings()
        .into_iter()
        .map(|(name, bytes)| (name, hex(&bytes)))
        .collect();
    assert_table(&got, GOLDEN_WIRE);
}

/// The committed bytes decode, and re-encode to themselves: a decoder
/// change that still encodes the same cannot slip through either.
#[test]
fn golden_bytes_decode_and_reencode() {
    for &(name, text) in GOLDEN_WIRE {
        let bytes = unhex(text);
        let again = match name.split("::").next() {
            Some("SapMessage") => wire::to_bytes(&wire::from_bytes::<SapMessage>(&bytes).unwrap()),
            Some("FleetMsg") => wire::to_bytes(&wire::from_bytes::<FleetMsg>(&bytes).unwrap()),
            _ => wire::to_bytes(&wire::from_bytes::<DataHeader>(&bytes).unwrap()),
        };
        assert_eq!(hex(&again), text, "{name} does not round-trip");
    }
    let decoded: Vec<SapMessage> = GOLDEN_WIRE[..4]
        .iter()
        .map(|(_, text)| wire::from_bytes(&unhex(text)).unwrap())
        .collect();
    let expected: Vec<SapMessage> = sap_messages().into_iter().map(|(_, m)| m).collect();
    assert_eq!(decoded, expected);
    assert_eq!(
        wire::from_bytes::<DataHeader>(&unhex(GOLDEN_WIRE[5].1)).unwrap(),
        data_header()
    );
}

#[test]
fn sealed_frame_matches_golden_bytes() {
    let key = ChannelKey::derive(0x005E_C2E7, 1, 2);
    let payload = wire::to_bytes(&SapMessage::MiningComplete {
        unified_records: 150,
    });
    let frame = Frame {
        kind: FrameKind::Control,
        msg_id: 3,
        seq: 0,
        last: true,
        payload: payload.into(),
    };
    let sealed = seal_frame(key, 7, SessionId(42), &frame);
    assert_table(&[("sealed frame", hex(&sealed))], GOLDEN_SEALED);
    let (session, opened) = open_frame(key, &sealed).expect("opens under its key");
    assert_eq!(session, SessionId(42));
    assert_eq!(
        (opened.kind, opened.msg_id, opened.seq, opened.last),
        (frame.kind, frame.msg_id, frame.seq, frame.last)
    );
    assert_eq!(opened.payload, frame.payload);
}

/// A row block travels in a block frame: its payload sealed once under
/// the miner's data key with the nonce `(session, slot, seq)`, and a
/// 16-byte hop header sealed under the hop key. This literal pins both
/// layers; before block frames existed a row block travelled in the
/// sealed frame above, re-sealed at every hop.
#[test]
fn sealed_block_frame_matches_golden_bytes() {
    let (secret, session) = (0x005E_C2E7, SessionId(42));
    let hop = ChannelKey::derive(secret, 1, 2);
    let seal = BlockSeal {
        key: ChannelKey::toward(secret, 100),
        tag: 0xDEAD_BEEF,
    };
    let meta = FrameMeta {
        kind: FrameKind::StreamBlock,
        msg_id: 3,
        seq: 1,
        last: true,
    };
    let block = encode_block(&dataset(), 0, 2);
    let sealed = seal_block_with(hop, 7, session, meta, seal, block.len(), |out| {
        out.extend_from_slice(&block)
    });
    assert_table(&[("sealed block frame", hex(&sealed))], GOLDEN_SEALED_BLOCK);

    let (opened_session, frame) = open_block_frame(hop, sealed).expect("hop header opens");
    assert_eq!(opened_session, session);
    assert_eq!(
        (frame.kind, frame.msg_id, frame.seq, frame.last),
        (meta.kind, meta.msg_id, meta.seq, meta.last)
    );
    let mut reassembler = Reassembler::new();
    let header = Frame {
        kind: FrameKind::StreamHeader,
        msg_id: 3,
        seq: 0,
        last: false,
        payload: Default::default(),
    };
    reassembler.feed(PartyId(1), header).expect("stream opens");
    let Ok(Some(FlowItem::StreamBlock { block: sealed, .. })) = reassembler.feed(PartyId(1), frame)
    else {
        panic!("the block frame continues its stream");
    };
    assert_eq!(sealed.open(session, seal).expect("payload opens"), block);
}

/// One literal has changed since these were recorded: `FleetMsg::Register`,
/// four times. Its config lost the `streaming` byte (a `01` after
/// `block_rows`, `40`) when the buffered data plane was deleted, then the
/// optimizer's three staged-budget fields (`01` enabled, `000000000000d03f`
/// survivor fraction 0.25, `04` minimum survivors, after `use_ica`, `00`)
/// when the optimizer became exact, and then `optimizer.threads` (a `00`
/// for `None`, after `use_ica`) when the optimizer stopped spawning
/// threads. Then the message lost its `origin` (a `01` after the session
/// id, `29`) when the owner's `Ack` was deleted. The fleet runs in one process, so no
/// peer on another build ever reads the old layout.
///
/// Three literals were removed: `SapMessage::PerturbedData` (tag 1) and
/// `SapMessage::RelayedData` (tag 2), which carried a whole dataset in one
/// message. No party ever sent them — datasets travel only as row-block
/// streams behind a `DataHeader` — so the variants were deleted and their
/// tags are reserved: a decoder now refuses them as unknown. And
/// the fleet's `Ack` (tag 1), the owner's admission verdict sent back to the
/// gateway, which only repeated what the owner had already settled in the
/// fleet's shared registration record; its tag is reserved too. Then
/// `FleetMsg::Leave` (tag 2, `0203`), a leaver's announcement that no
/// receiver acted on (the membership view is shared on one host); its tag
/// is reserved as well. Every other literal is unchanged, `SapMessage`
/// tags 0, 3, 4 and 5 included.
const GOLDEN_WIRE: &[(&str, &str)] = &[
    ("SapMessage::Setup", "00020204000000000000f03f00000000000000000000000000000000000000000000f03f02000000000000f03f0000000000000040effdb6f50d0201"),
    ("SapMessage::Adaptor", "030202040000000000000000000000000000f03f000000000000f0bf000000000000000002000000000000f43f0000000000000440"),
    ("SapMessage::AdaptorTable", "0402010202040000000000000000000000000000f03f000000000000f0bf000000000000000002000000000000f43f0000000000000440ac020202040000000000000000000000000000f03f000000000000f0bf000000000000000002000000000000f43f0000000000000440"),
    ("SapMessage::MiningComplete", "059601"),
    ("FleetMsg::Register", "00299a9999999999a93f049a9999999999a93f0450002a0780ade204809c9c394001000000000000d03f00000000000000000000000000000000dc0b6301010202000000000000e03f000000000000f0bf020000000000000040000000000000d03f0200010202"),
    ("DataHeader", "b4240109c0b8021003"),
];

/// One re-recording: wire v5 seals a control frame in the block frame's
/// layout, so this literal went from the v4 frame
/// `2a000000000000000700000000000000cdd271b9ae968831d3c25f3fc42b` (30
/// bytes: stamp, nonce, a 3-byte varint header and the 3-byte
/// `MiningComplete` under one keystream, tag) to 51 bytes: stamp, nonce
/// with bit 63 set, the 16-byte hop header and its tag, the payload
/// sealed under the same channel key with `msg_id` 3 as the tag, and its
/// data tag. The payload (`059601`) and every input are unchanged. No
/// build of v4 reads the new bytes, nor v5 the old.
const GOLDEN_SEALED: &[(&str, &str)] = &[(
    "sealed frame",
    "2a0000000000000007000000000000809193361fe9a28b3a57a2651cd167d5d6e829e368481e99a0522621199681613206f28a",
)];

const GOLDEN_SEALED_BLOCK: &[(&str, &str)] = &[(
    "sealed block frame",
    "2a0000000000000007000000000000809393361fe8a28b3a57a2651cd167d5d61b96f8db0e54faa6bc6c0b7864a726629a4fbe22adb2e92a352ad2ed3c5231916040030997d8b0969508f6ed7c319de2856a9e2196dfb8cc628837a8",
)];
