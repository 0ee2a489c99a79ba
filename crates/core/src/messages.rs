//! Wire messages of the SAP protocol.
//!
//! All variants are encoded with `sap-net`'s binary codec ([`Wire`]) and
//! sealed per channel. Slot tags are opaque random identifiers: they let
//! the miner join datasets with adaptors without learning which provider
//! owns what (only the coordinator holds the `slot → owner` table, and it
//! never sees data).
//!
//! This module also holds the encodings of the domain values that travel
//! inside messages — [`Matrix`], [`Perturbation`], [`SpaceAdaptor`] and
//! [`Dataset`] — as free functions, since neither their crates nor
//! `sap-net` may depend on the other. No `SapMessage` carries a dataset:
//! SAP datasets travel only as row-block streams ([`crate::link`]), and
//! [`encode_dataset`] serves the fleet's registration message. Decoding goes through each type's
//! checked constructor, so authenticated bytes never yield a value that
//! breaks its type's invariants.

use sap_datasets::Dataset;
use sap_linalg::Matrix;
use sap_net::wire::{decode_seq, encode_seq, put_uvarint, read_uvarint, Wire, WireError};
use sap_net::PartyId;
use sap_perturb::{Perturbation, SpaceAdaptor};

/// An opaque identifier for one exchanged dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SlotTag(pub u64);

/// Messages exchanged during a SAP session.
#[derive(Debug, Clone, PartialEq)]
pub enum SapMessage {
    /// Coordinator → provider: the target perturbation space `G_t` (no
    /// noise component) plus this provider's exchange assignment.
    Setup {
        /// The unified target space.
        target: Perturbation,
        /// Slot tag under which this provider's dataset will travel.
        slot: SlotTag,
        /// The provider that should receive this provider's perturbed data.
        send_data_to: PartyId,
        /// Number of datasets this provider will receive and must relay to
        /// the miner (0, 1, or 2 — the coordinator's redirect can double up).
        expect_incoming: u32,
    },
    /// Provider → coordinator: the provider's space adaptor into `G_t`.
    Adaptor {
        /// `A_it = ⟨R_it, Ψ_it⟩`.
        adaptor: SpaceAdaptor,
    },
    /// Coordinator → miner: the slot-indexed adaptor table.
    AdaptorTable {
        /// `(slot, adaptor)` pairs covering every exchanged dataset.
        entries: Vec<(SlotTag, SpaceAdaptor)>,
    },
    /// Miner → coordinator: acknowledgement that mining completed, with the
    /// number of records unified (lets the session close cleanly).
    MiningComplete {
        /// Records in the unified dataset.
        unified_records: u64,
    },
}

impl SapMessage {
    /// Message kind label used by the audit ledger.
    pub fn kind(&self) -> &'static str {
        match self {
            SapMessage::Setup { .. } => "setup",
            SapMessage::Adaptor { .. } => "adaptor",
            SapMessage::AdaptorTable { .. } => "adaptor-table",
            SapMessage::MiningComplete { .. } => "mining-complete",
        }
    }

    /// `true` when the message carries perturbation parameters or adaptors —
    /// the payload class that must never meet identified data at one party.
    pub fn carries_parameters(&self) -> bool {
        matches!(
            self,
            SapMessage::Setup { .. } | SapMessage::Adaptor { .. } | SapMessage::AdaptorTable { .. }
        )
    }
}

impl Wire for SlotTag {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        u64::decode(input).map(SlotTag)
    }
}

impl Wire for SapMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SapMessage::Setup {
                target,
                slot,
                send_data_to,
                expect_incoming,
            } => {
                put_uvarint(out, 0);
                encode_perturbation(target, out);
                slot.encode(out);
                send_data_to.encode(out);
                expect_incoming.encode(out);
            }
            // Tags 1 and 2 are retired (they carried a whole dataset) and
            // reserved: the decoder refuses them as unknown.
            SapMessage::Adaptor { adaptor } => {
                put_uvarint(out, 3);
                encode_adaptor(adaptor, out);
            }
            SapMessage::AdaptorTable { entries } => {
                put_uvarint(out, 4);
                encode_seq(entries, out, |(slot, adaptor), out| {
                    slot.encode(out);
                    encode_adaptor(adaptor, out);
                });
            }
            SapMessage::MiningComplete { unified_records } => {
                put_uvarint(out, 5);
                unified_records.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match read_uvarint(input)? {
            0 => SapMessage::Setup {
                target: decode_perturbation(input)?,
                slot: SlotTag::decode(input)?,
                send_data_to: PartyId::decode(input)?,
                expect_incoming: u32::decode(input)?,
            },
            3 => SapMessage::Adaptor {
                adaptor: decode_adaptor(input)?,
            },
            4 => SapMessage::AdaptorTable {
                entries: decode_seq(input, |input| {
                    Ok((SlotTag::decode(input)?, decode_adaptor(input)?))
                })?,
            },
            5 => SapMessage::MiningComplete {
                unified_records: u64::decode(input)?,
            },
            _ => return Err(WireError::InvalidEncoding("SapMessage variant tag")),
        })
    }
}

/// `rows ‖ cols ‖ data` (row-major `Vec<f64>`).
fn encode_matrix(m: &Matrix, out: &mut Vec<u8>) {
    m.rows().encode(out);
    m.cols().encode(out);
    encode_seq(m.as_slice(), out, f64::encode);
}

fn decode_matrix(input: &mut &[u8]) -> Result<Matrix, WireError> {
    let rows = usize::decode(input)?;
    let cols = usize::decode(input)?;
    let data = Vec::<f64>::decode(input)?;
    Matrix::from_vec(rows, cols, data)
        .map_err(|_| WireError::InvalidValue("matrix data does not fill rows × cols"))
}

/// `rotation ‖ translation` — the layout of both a [`Perturbation`] and
/// a [`SpaceAdaptor`].
fn encode_affine(rotation: &Matrix, translation: &[f64], out: &mut Vec<u8>) {
    encode_matrix(rotation, out);
    encode_seq(translation, out, f64::encode);
}

fn decode_affine(input: &mut &[u8]) -> Result<(Matrix, Vec<f64>), WireError> {
    Ok((decode_matrix(input)?, Vec::decode(input)?))
}

fn encode_perturbation(p: &Perturbation, out: &mut Vec<u8>) {
    encode_affine(p.rotation(), p.translation(), out);
}

fn decode_perturbation(input: &mut &[u8]) -> Result<Perturbation, WireError> {
    let (rotation, translation) = decode_affine(input)?;
    Perturbation::new(rotation, translation).map_err(|_| {
        WireError::InvalidValue("perturbation rotation not orthogonal or translation mis-sized")
    })
}

fn encode_adaptor(a: &SpaceAdaptor, out: &mut Vec<u8>) {
    encode_affine(a.rotation(), a.translation(), out);
}

fn decode_adaptor(input: &mut &[u8]) -> Result<SpaceAdaptor, WireError> {
    let (rotation, translation) = decode_affine(input)?;
    SpaceAdaptor::from_parts(rotation, translation).map_err(|_| {
        WireError::InvalidValue("adaptor rotation not square or translation mis-sized")
    })
}

/// Appends a dataset's encoding: `records ‖ labels ‖ dim ‖ num_classes`
/// (`Vec<Vec<f64>>`, `Vec<usize>`, two varints) — written record by record
/// from the flat buffer, byte-for-byte the nested-vector layout.
pub fn encode_dataset(data: &Dataset, out: &mut Vec<u8>) {
    put_uvarint(out, data.len() as u64);
    for record in data.records() {
        encode_seq(record, out, f64::encode);
    }
    encode_seq(data.labels(), out, usize::encode);
    data.dim().encode(out);
    data.num_classes().encode(out);
}

/// Reads a dataset written by [`encode_dataset`] through
/// [`Dataset::try_with_num_classes`]; the encoded `dim` must equal the
/// record length.
///
/// # Errors
///
/// [`WireError::InvalidValue`] for an empty, ragged or mislabeled
/// dataset or a wrong `dim`; otherwise as [`Wire::decode`].
pub fn decode_dataset(input: &mut &[u8]) -> Result<Dataset, WireError> {
    let records = Vec::<Vec<f64>>::decode(input)?;
    let labels = Vec::<usize>::decode(input)?;
    let dim = usize::decode(input)?;
    let num_classes = usize::decode(input)?;
    let data = Dataset::try_with_num_classes(records, labels, num_classes)
        .map_err(|_| WireError::InvalidValue("dataset records, labels or class count"))?;
    if data.dim() != dim {
        return Err(WireError::InvalidValue(
            "dataset dim differs from record length",
        ));
    }
    Ok(data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sap_net::wire;

    #[test]
    fn messages_roundtrip_on_the_wire() {
        let mut rng = StdRng::seed_from_u64(1);
        let target = Perturbation::random(3, &mut rng);
        let other = Perturbation::random(3, &mut rng);
        let adaptor = SpaceAdaptor::between(&other, &target).unwrap();

        let msgs = vec![
            SapMessage::Setup {
                target: target.clone(),
                slot: SlotTag(42),
                send_data_to: PartyId(2),
                expect_incoming: 1,
            },
            SapMessage::Adaptor {
                adaptor: adaptor.clone(),
            },
            SapMessage::AdaptorTable {
                entries: vec![(SlotTag(1), adaptor)],
            },
            SapMessage::MiningComplete {
                unified_records: 150,
            },
        ];
        for msg in msgs {
            let bytes = wire::to_bytes(&msg);
            let back: SapMessage = wire::from_bytes(&bytes).unwrap();
            assert_eq!(back, msg);
        }
    }

    #[test]
    fn payload_classification() {
        let m = SapMessage::MiningComplete { unified_records: 1 };
        assert!(!m.carries_parameters());
        let mut rng = StdRng::seed_from_u64(2);
        let target = Perturbation::random(2, &mut rng);
        let other = Perturbation::random(2, &mut rng);
        let m = SapMessage::Adaptor {
            adaptor: SpaceAdaptor::between(&other, &target).unwrap(),
        };
        assert!(m.carries_parameters());
    }
}
