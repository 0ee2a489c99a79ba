//! Golden wire bytes: the `wire` encoding of every `SapMessage` variant,
//! every fleet control message and the dataset stream header, plus one
//! sealed frame under a fixed key and nonce, pinned as hex literals.
//!
//! The outcome corpus (`golden_outcomes.rs`) shows that sessions compute
//! the same results; these literals show that parties of different
//! builds still understand each other's bytes. A codec rewrite must keep
//! every one of them. The literals have no update switch: a PR that
//! changes one must say why.

use sap_repro::core::link::DataHeader;
use sap_repro::core::messages::{SapMessage, SlotTag};
use sap_repro::core::session::SapConfig;
use sap_repro::datasets::Dataset;
use sap_repro::fleet::wire::{FleetMsg, WireConfig};
use sap_repro::linalg::Matrix;
use sap_repro::net::crypto::ChannelKey;
use sap_repro::net::frame::{open_frame, seal_frame, Frame, FrameKind};
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
            "SapMessage::PerturbedData",
            SapMessage::PerturbedData {
                slot: SlotTag(7),
                data: dataset(),
            },
        ),
        (
            "SapMessage::RelayedData",
            SapMessage::RelayedData {
                slot: SlotTag(u64::MAX),
                data: dataset(),
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
    vec![
        (
            "FleetMsg::Register",
            FleetMsg::Register {
                session: 41,
                origin: 1,
                config: WireConfig::from_config(&config),
                locals: vec![dataset()],
            },
        ),
        (
            "FleetMsg::Ack",
            FleetMsg::Ack {
                session: 41,
                accepted: false,
                reason: "overloaded".into(),
            },
        ),
        ("FleetMsg::Leave", FleetMsg::Leave { node: 3 }),
    ]
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
    let decoded: Vec<SapMessage> = GOLDEN_WIRE[..6]
        .iter()
        .map(|(_, text)| wire::from_bytes(&unhex(text)).unwrap())
        .collect();
    let expected: Vec<SapMessage> = sap_messages().into_iter().map(|(_, m)| m).collect();
    assert_eq!(decoded, expected);
    assert_eq!(
        wire::from_bytes::<DataHeader>(&unhex(GOLDEN_WIRE[9].1)).unwrap(),
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

/// One literal has changed since these were recorded: `FleetMsg::Register`
/// lost the `streaming` byte of its config (a `01` after `block_rows`,
/// `40`) when the buffered data plane was deleted. The fleet runs in one
/// process, so no peer on another build ever reads the old layout.
const GOLDEN_WIRE: &[(&str, &str)] = &[
    ("SapMessage::Setup", "00020204000000000000f03f00000000000000000000000000000000000000000000f03f02000000000000f03f0000000000000040effdb6f50d0201"),
    ("SapMessage::PerturbedData", "01070202000000000000e03f000000000000f0bf020000000000000040000000000000d03f0200010202"),
    ("SapMessage::RelayedData", "02ffffffffffffffffff010202000000000000e03f000000000000f0bf020000000000000040000000000000d03f0200010202"),
    ("SapMessage::Adaptor", "030202040000000000000000000000000000f03f000000000000f0bf000000000000000002000000000000f43f0000000000000440"),
    ("SapMessage::AdaptorTable", "0402010202040000000000000000000000000000f03f000000000000f0bf000000000000000002000000000000f43f0000000000000440ac020202040000000000000000000000000000f03f000000000000f0bf000000000000000002000000000000f43f0000000000000440"),
    ("SapMessage::MiningComplete", "059601"),
    ("FleetMsg::Register", "0029019a9999999999a93f049a9999999999a93f04500001000000000000d03f04002a0780ade204809c9c394001000000000000d03f00000000000000000000000000000000dc0b6301010202000000000000e03f000000000000f0bf020000000000000040000000000000d03f0200010202"),
    ("FleetMsg::Ack", "0129000a6f7665726c6f61646564"),
    ("FleetMsg::Leave", "0203"),
    ("DataHeader", "b4240109c0b8021003"),
];

const GOLDEN_SEALED: &[(&str, &str)] = &[(
    "sealed frame",
    "2a000000000000000700000000000000cdd271b9ae968831d3c25f3fc42b",
)];
