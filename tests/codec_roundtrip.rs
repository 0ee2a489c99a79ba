//! Wire-format property tests: every [`SapMessage`] variant round-trips
//! byte-exactly, and adversarial inputs (truncation, trailing bytes, bad
//! tags) fail cleanly instead of yielding garbage.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sap_repro::core::messages::{SapMessage, SlotTag};
use sap_repro::datasets::Dataset;
use sap_repro::net::wire::{from_bytes, to_bytes};
use sap_repro::net::PartyId;
use sap_repro::perturb::{Perturbation, SpaceAdaptor};

fn random_dataset(rng: &mut StdRng, rows: usize, dim: usize) -> Dataset {
    use rand::RngExt;
    let records: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..dim).map(|_| rng.random_range(-10.0..10.0)).collect())
        .collect();
    let labels: Vec<usize> = (0..rows).map(|_| rng.random_range(0..3)).collect();
    Dataset::with_num_classes(records, labels, 3)
}

/// Builds one instance of every message variant from a seed.
fn all_variants(seed: u64, dim: usize, rows: usize) -> Vec<SapMessage> {
    let mut rng = StdRng::seed_from_u64(seed);
    let target = Perturbation::random(dim, &mut rng);
    let other = Perturbation::random(dim, &mut rng);
    let adaptor = SpaceAdaptor::between(&other, &target).expect("same dim");
    let data = random_dataset(&mut rng, rows, dim);
    vec![
        SapMessage::Setup {
            target,
            slot: SlotTag(seed),
            send_data_to: PartyId(seed % 11),
            expect_incoming: (seed % 3) as u32,
        },
        SapMessage::PerturbedData {
            slot: SlotTag(seed ^ 1),
            data: data.clone(),
        },
        SapMessage::RelayedData {
            slot: SlotTag(seed ^ 2),
            data,
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every variant survives the wire format byte-exactly.
    #[test]
    fn wire_roundtrips_every_variant(seed in any::<u64>(), dim in 1usize..6, rows in 1usize..12) {
        for msg in all_variants(seed, dim, rows) {
            let bytes = to_bytes(&msg).unwrap();
            let back: SapMessage = from_bytes(&bytes).unwrap();
            prop_assert_eq!(&back, &msg);
            // Decode must be stable under re-encode.
            prop_assert_eq!(to_bytes(&back).unwrap(), bytes);
        }
    }

    /// Truncating an encoded message anywhere must error, never panic or
    /// return a value.
    #[test]
    fn truncated_wire_input_errors(seed in any::<u64>(), cut_frac in 0.0f64..1.0) {
        for msg in all_variants(seed, 3, 4) {
            let bytes = to_bytes(&msg).unwrap();
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
        for msg in all_variants(seed, 2, 3) {
            let mut wire_bytes = to_bytes(&msg).unwrap();
            wire_bytes.push(junk);
            prop_assert!(from_bytes::<SapMessage>(&wire_bytes).is_err());
        }
    }

    /// An out-of-range enum tag at the head of a wire message errors.
    /// Since wire v4 the tag is a varint, so the rogue tag is stamped as
    /// a varint too, replacing the legitimate one.
    #[test]
    fn bad_wire_variant_tag_errors(tag in 6u64..u64::MAX) {
        use sap_repro::net::wire::{put_uvarint, read_uvarint};
        let encoded = to_bytes(&SapMessage::MiningComplete { unified_records: 1 }).unwrap();
        let mut rest = encoded.as_slice();
        read_uvarint(&mut rest).expect("variant tag varint at the head");
        let mut bytes = Vec::new();
        put_uvarint(&mut bytes, tag);
        bytes.extend_from_slice(rest);
        prop_assert!(from_bytes::<SapMessage>(&bytes).is_err());
    }

    /// The v4 varint primitive round-trips at every width boundary and at
    /// arbitrary values, via both the `Vec` and the `io::Write` paths.
    #[test]
    fn uvarint_roundtrips_everywhere(v in any::<u64>()) {
        use sap_repro::net::wire::{
            put_uvarint, read_uvarint, uvarint_len, write_uvarint,
        };
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
            let mut wrote = Vec::new();
            write_uvarint(&mut wrote, v).unwrap();
            prop_assert_eq!(&put, &wrote);
            prop_assert_eq!(put.len(), uvarint_len(v));
            let mut input = put.as_slice();
            prop_assert_eq!(read_uvarint(&mut input).unwrap(), v);
            prop_assert!(input.is_empty(), "decode consumes exactly the varint");
        }
    }

    /// Signed values survive the zigzag + varint pipeline, and small
    /// magnitudes of either sign stay single-byte on the wire.
    #[test]
    fn zigzag_varint_roundtrips(v in any::<i64>()) {
        use sap_repro::net::wire::{put_uvarint, read_uvarint, unzigzag, zigzag};
        for v in [v, 0, -1, 1, i64::MIN, i64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, zigzag(v));
            let mut input = buf.as_slice();
            prop_assert_eq!(unzigzag(read_uvarint(&mut input).unwrap()), v);
            if (-64..64).contains(&v) {
                prop_assert_eq!(buf.len(), 1);
            }
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
            prop_assert_eq!(to_bytes(&msg).unwrap(), soup);
        }
    }
}
