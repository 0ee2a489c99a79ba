//! Wire-format property tests: every [`SapMessage`] and [`FleetMsg`]
//! variant round-trips byte-exactly, adversarial inputs (truncation,
//! trailing bytes, bad tags) fail cleanly instead of yielding garbage,
//! and well-formed bytes describing a value that breaks its type's
//! invariants are refused with [`WireError::InvalidValue`].

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sap_repro::core::messages::{decode_dataset, SapMessage, SlotTag};
use sap_repro::core::runtime::QosClass;
use sap_repro::core::session::SapConfig;
use sap_repro::datasets::Dataset;
use sap_repro::fleet::wire::FleetMsg;
use sap_repro::net::sim::FaultConfig;
use sap_repro::net::wire::{from_bytes, put_uvarint, to_bytes, WireError};
use sap_repro::net::PartyId;
use sap_repro::perturb::{Perturbation, SpaceAdaptor};
use sap_repro::privacy::OptimizerConfig;
use std::time::Duration;

fn random_dataset(rng: &mut StdRng, rows: usize, dim: usize) -> Dataset {
    let records: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..dim).map(|_| rng.random_range(-10.0..10.0)).collect())
        .collect();
    let labels: Vec<usize> = (0..rows).map(|_| rng.random_range(0..3)).collect();
    Dataset::with_num_classes(records, labels, 3)
}

/// Builds one instance of every message variant from a seed.
fn all_variants(seed: u64, dim: usize) -> Vec<SapMessage> {
    let mut rng = StdRng::seed_from_u64(seed);
    let target = Perturbation::random(dim, &mut rng);
    let other = Perturbation::random(dim, &mut rng);
    let adaptor = SpaceAdaptor::between(&other, &target).expect("same dim");
    vec![
        SapMessage::Setup {
            target,
            slot: SlotTag(seed),
            send_data_to: PartyId(seed % 11),
            expect_incoming: (seed % 3) as u32,
        },
        SapMessage::Adaptor {
            adaptor: adaptor.clone(),
        },
        SapMessage::AdaptorTable {
            entries: vec![(SlotTag(seed ^ 3), adaptor)],
        },
        SapMessage::MiningComplete {
            unified_records: seed,
        },
    ]
}

/// One instance of every fleet control message from a seed: a random
/// config (its fault model present or absent, durations at microsecond
/// granularity, counts anywhere in `u64`) with one to three datasets of
/// one dimension.
fn fleet_variants(seed: u64) -> Vec<FleetMsg> {
    let mut rng = StdRng::seed_from_u64(seed);
    let micros = |rng: &mut StdRng| Duration::from_micros(rng.random_range(0..u64::MAX));
    let fault_config = rng.random_bool(0.5).then(|| FaultConfig {
        drop_prob: rng.random_range(0.0..1.0),
        duplicate_prob: rng.random_range(0.0..1.0),
        delay_prob: rng.random_range(0.0..1.0),
        send_latency: micros(&mut rng),
        seed: rng.random_range(0..u64::MAX),
    });
    let config = SapConfig {
        noise_sigma: rng.random_range(0.0..1.0),
        optimizer: OptimizerConfig {
            candidates: rng.random_range(0..usize::MAX),
            noise_sigma: rng.random_range(0.0..1.0),
            known_points: rng.random_range(0..usize::MAX),
            eval_sample: rng.random_range(0..usize::MAX),
            use_ica: rng.random_bool(0.5),
        },
        session_secret: rng.random_range(0..u64::MAX),
        seed: rng.random_range(0..u64::MAX),
        timeout: micros(&mut rng),
        session_budget: micros(&mut rng),
        block_rows: rng.random_range(0..usize::MAX),
        fault_config,
        qos: if rng.random_bool(0.5) {
            QosClass::Interactive
        } else {
            QosClass::Batch
        },
    };
    let dim = rng.random_range(1..5);
    let locals = (0..rng.random_range(1..4))
        .map(|_| {
            let rows = rng.random_range(1..6);
            random_dataset(&mut rng, rows, dim)
        })
        .collect();
    vec![FleetMsg {
        session: seed,
        config: Box::new(config),
        locals,
    }]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every variant survives the wire format byte-exactly.
    #[test]
    fn wire_roundtrips_every_variant(seed in any::<u64>(), dim in 1usize..6) {
        for msg in all_variants(seed, dim) {
            let bytes = to_bytes(&msg);
            let back: SapMessage = from_bytes(&bytes).unwrap();
            prop_assert_eq!(&back, &msg);
            // Decode must be stable under re-encode.
            prop_assert_eq!(to_bytes(&back), bytes);
        }
    }

    /// Truncating an encoded message anywhere must error, never panic or
    /// return a value.
    #[test]
    fn truncated_wire_input_errors(seed in any::<u64>(), cut_frac in 0.0f64..1.0) {
        for msg in all_variants(seed, 3) {
            let bytes = to_bytes(&msg);
            let cut = ((bytes.len() - 1) as f64 * cut_frac) as usize;
            prop_assert!(
                from_bytes::<SapMessage>(&bytes[..cut]).is_err(),
                "truncation to {cut}/{} bytes must fail", bytes.len()
            );
        }
    }

    /// Trailing bytes after a complete message are rejected.
    #[test]
    fn trailing_bytes_rejected(seed in any::<u64>(), junk in 1u8..255) {
        for msg in all_variants(seed, 2) {
            let mut wire_bytes = to_bytes(&msg);
            wire_bytes.push(junk);
            prop_assert!(from_bytes::<SapMessage>(&wire_bytes).is_err());
        }
    }

    /// An out-of-range enum tag at the head of a wire message errors.
    /// Since wire v4 the tag is a varint, so the rogue tag is stamped as
    /// a varint too, replacing the legitimate one.
    #[test]
    fn bad_wire_variant_tag_errors(tag in 6u64..u64::MAX) {
        use sap_repro::net::wire::read_uvarint;
        let encoded = to_bytes(&SapMessage::MiningComplete { unified_records: 1 });
        let mut rest = encoded.as_slice();
        read_uvarint(&mut rest).expect("variant tag varint at the head");
        let mut bytes = Vec::new();
        put_uvarint(&mut bytes, tag);
        bytes.extend_from_slice(rest);
        prop_assert!(from_bytes::<SapMessage>(&bytes).is_err());
    }

    /// Every fleet control message survives the wire byte-exactly (the
    /// decoded value re-encodes to the same bytes), every strict prefix
    /// of its encoding fails, and so does any trailing byte.
    #[test]
    fn fleet_messages_roundtrip_and_reject_damage(seed in any::<u64>(), junk in any::<u8>()) {
        for msg in fleet_variants(seed) {
            let bytes = to_bytes(&msg);
            let back: FleetMsg = from_bytes(&bytes).unwrap();
            prop_assert_eq!(to_bytes(&back), bytes.clone());
            for cut in 0..bytes.len() {
                prop_assert!(
                    from_bytes::<FleetMsg>(&bytes[..cut]).is_err(),
                    "truncation to {cut}/{} bytes must fail", bytes.len()
                );
            }
            let mut long = bytes;
            long.push(junk);
            prop_assert_eq!(from_bytes::<FleetMsg>(&long).unwrap_err(), WireError::TrailingBytes);
        }
    }

    /// The v4 varint primitive round-trips at every width boundary and at
    /// arbitrary values, in the fewest 7-bit groups.
    #[test]
    fn uvarint_roundtrips_everywhere(v in any::<u64>()) {
        use sap_repro::net::wire::read_uvarint;
        let boundaries = [
            0u64,
            (1 << 7) - 1,
            1 << 7,
            (1 << 7) + 1,
            (1 << 14) - 1,
            1 << 14,
            (1 << 14) + 1,
            u64::MAX,
        ];
        for v in boundaries.into_iter().chain(std::iter::once(v)) {
            let mut put = Vec::new();
            put_uvarint(&mut put, v);
            let bits = 64 - v.leading_zeros() as usize;
            prop_assert_eq!(put.len(), bits.div_ceil(7).max(1));
            let mut input = put.as_slice();
            prop_assert_eq!(read_uvarint(&mut input).unwrap(), v);
            prop_assert!(input.is_empty(), "decode consumes exactly the varint");
        }
    }

    /// Arbitrary byte soup never decodes into a message silently.
    #[test]
    fn random_bytes_do_not_decode(seed in any::<u64>(), len in 0usize..200) {
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let soup: Vec<u8> = (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect();
        // The wire format is dense enough that random soup of interesting
        // length essentially never forms a full valid message AND consumes
        // every byte; if it does decode, it must at least re-encode
        // consistently (no mangled state).
        if let Ok(msg) = from_bytes::<SapMessage>(&soup) {
            prop_assert_eq!(to_bytes(&msg), soup);
        }
    }
}

// Hand-assembled bytes for values no honest encoder produces: each case
// is well formed on the wire but breaks an invariant of the decoded type.

fn varints(out: &mut Vec<u8>, values: &[u64]) {
    for &v in values {
        put_uvarint(out, v);
    }
}

fn floats(out: &mut Vec<u8>, values: &[f64]) {
    for v in values {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// `tag ‖ rotation (rows, cols, values) ‖ translation` — the head of a
/// `Setup` (tag 0) or the whole of an `Adaptor` (tag 3).
fn affine_msg(tag: u64, rows: u64, cols: u64, values: &[f64], translation: &[f64]) -> Vec<u8> {
    let mut out = Vec::new();
    varints(&mut out, &[tag, rows, cols, values.len() as u64]);
    floats(&mut out, values);
    varints(&mut out, &[translation.len() as u64]);
    floats(&mut out, translation);
    if tag == 0 {
        varints(&mut out, &[1, 2, 1]); // slot, send_data_to, expect_incoming
    }
    out
}

/// A dataset encoding (`FleetMsg` carries its locals in this
/// layout) with the given fields.
fn dataset_bytes(records: &[&[f64]], labels: &[u64], dim: u64, num_classes: u64) -> Vec<u8> {
    let mut out = Vec::new();
    varints(&mut out, &[records.len() as u64]);
    for record in records {
        varints(&mut out, &[record.len() as u64]);
        floats(&mut out, record);
    }
    varints(&mut out, &[labels.len() as u64]);
    varints(&mut out, labels);
    varints(&mut out, &[dim, num_classes]);
    out
}

fn assert_invalid_value(bytes: &[u8], case: &str) {
    let got = from_bytes::<SapMessage>(bytes);
    assert!(
        matches!(got, Err(WireError::InvalidValue(_))),
        "{case}: {got:?}"
    );
}

#[test]
fn setup_target_must_be_a_rotation() {
    let identity = [1.0, 0.0, 0.0, 1.0];
    assert!(from_bytes::<SapMessage>(&affine_msg(0, 2, 2, &identity, &[0.0; 2])).is_ok());
    let wide = [1.0, 0.0, 0.0, 0.0, 1.0, 0.0];
    assert_invalid_value(&affine_msg(0, 2, 3, &wide, &[0.0; 2]), "2 × 3 target");
    let shear = [1.0, 1.0, 0.0, 1.0];
    assert_invalid_value(&affine_msg(0, 2, 2, &shear, &[0.0; 2]), "shear target");
    assert_invalid_value(
        &affine_msg(0, 2, 2, &identity, &[0.0; 3]),
        "long translation",
    );
}

#[test]
fn adaptor_matrix_must_fill_its_shape() {
    let quarter = [0.0, -1.0, 1.0, 0.0];
    assert!(from_bytes::<SapMessage>(&affine_msg(3, 2, 2, &quarter, &[0.0; 2])).is_ok());
    assert_invalid_value(
        &affine_msg(3, 2, 2, &quarter[..3], &[0.0; 2]),
        "3 values for 2 × 2",
    );
    assert_invalid_value(&affine_msg(3, 2, 3, &[0.0; 6], &[0.0; 2]), "2 × 3 rotation");
    assert_invalid_value(
        &affine_msg(3, 2, 2, &quarter, &[0.0; 1]),
        "short translation",
    );
    // rows × cols overflows to 0 and must not match an empty data vector.
    assert_invalid_value(&affine_msg(3, 1 << 63, 2, &[], &[]), "overflowing shape");
}

fn assert_invalid_dataset(bytes: &[u8], case: &str) {
    let got = decode_dataset(&mut &bytes[..]);
    assert!(
        matches!(got, Err(WireError::InvalidValue(_))),
        "{case}: {got:?}"
    );
}

#[test]
fn dataset_must_match_its_header_fields() {
    let (a, b): (&[f64], &[f64]) = (&[0.5, -1.0], &[2.0, 0.25]);
    let ok = dataset_bytes(&[a, b], &[0, 1], 2, 2);
    let mut input = ok.as_slice();
    assert!(decode_dataset(&mut input).is_ok());
    assert!(input.is_empty(), "decode consumes exactly the dataset");
    assert_invalid_dataset(
        &dataset_bytes(&[a, b], &[0, 2], 5, 2),
        "dim 5, label 2 of 2",
    );
    assert_invalid_dataset(
        &dataset_bytes(&[a, b], &[0, 1], 5, 2),
        "dim 5 over 2-value records",
    );
    assert_invalid_dataset(
        &dataset_bytes(&[a, b], &[0, 2], 2, 2),
        "label 2 of 2 classes",
    );
    assert_invalid_dataset(
        &dataset_bytes(&[a, &b[..1]], &[0, 1], 2, 2),
        "ragged records",
    );
    assert_invalid_dataset(
        &dataset_bytes(&[a, b], &[0], 2, 2),
        "one label for two records",
    );
    assert_invalid_dataset(&dataset_bytes(&[], &[], 0, 1), "empty dataset");
}

/// Tags 1 and 2 once carried a whole dataset in one message. Datasets
/// travel only as streams now, so both tags are reserved: a message
/// carrying either fails with the typed unknown-tag error, whatever
/// follows it, even a well-formed dataset.
#[test]
fn retired_dataset_tags_are_refused() {
    let data = dataset_bytes(&[&[0.5, -1.0]], &[0], 2, 1);
    for tag in [1u64, 2] {
        let mut bytes = Vec::new();
        varints(&mut bytes, &[tag, 7]); // tag, slot
        bytes.extend_from_slice(&data);
        assert_eq!(
            from_bytes::<SapMessage>(&bytes).unwrap_err(),
            WireError::InvalidEncoding("SapMessage variant tag"),
            "tag {tag}"
        );
    }
}

/// Fleet tag 1 was the `Ack`, the owner's admission verdict sent back to
/// the gateway. The owner settles the fleet's shared registration record
/// itself, so the Ack was deleted and its tag is reserved: a well-formed
/// old Ack fails with the typed unknown-tag error.
#[test]
fn retired_fleet_ack_tag_is_refused() {
    let mut bytes = Vec::new();
    varints(&mut bytes, &[1, 41, 0, 10]); // tag, session, accepted, reason length
    bytes.extend_from_slice(b"overloaded");
    assert_eq!(
        from_bytes::<FleetMsg>(&bytes).unwrap_err(),
        WireError::InvalidEncoding("FleetMsg variant tag")
    );
}

/// Fleet tag 2 was the `Leave`, a leaver's announcement to its peers. The
/// membership view is shared on one host and the leaver had left it
/// before announcing, so no receiver acted on it: the send and the
/// variant were deleted and its tag is reserved too.
#[test]
fn retired_fleet_leave_tag_is_refused() {
    let mut bytes = Vec::new();
    varints(&mut bytes, &[2, 3]); // tag, node
    assert_eq!(
        from_bytes::<FleetMsg>(&bytes).unwrap_err(),
        WireError::InvalidEncoding("FleetMsg variant tag")
    );
}
