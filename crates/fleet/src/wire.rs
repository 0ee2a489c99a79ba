//! The fleet control protocol. Every node owns one **inbox session** in
//! the reserved [`CONTROL_BASE`] range, opened on its inter-node lane
//! mux. A control message for node `D` is wire-encoded, chunked
//! ([`split_message`]), sealed per frame (wire format v4) under `D`'s
//! inbox key, and sent straight to `D`. There is one key per inbox
//! (`derive(secret, inbox, inbox)`), not v4's per-direction key, so the
//! inbox opens what any node sent; senders keep nonces apart by their
//! node index in the message id ([`send_via`]). `Register` carries the
//! session's [`SapConfig`] in its own wire encoding, so the owner runs
//! it under exactly the settings the gateway accepted.

use crate::FleetError;
use bytes::Bytes;
use sap_core::messages::{decode_dataset, encode_dataset};
use sap_core::placement::{CONTROL_BASE, CONTROL_RANGE};
use sap_core::session::SapConfig;
use sap_datasets::Dataset;
use sap_net::crypto::ChannelKey;
use sap_net::frame::{seal_frame, split_message, DEFAULT_CHUNK_SIZE};
use sap_net::wire::{self, decode_seq, encode_seq, put_uvarint, read_uvarint, Wire, WireError};
use sap_net::{PartyId, SessionId, Transport};

/// Most nodes a fleet can address: one inbox id per node inside the
/// control range, leaving [`SessionId::LIVENESS`] untouched.
pub const MAX_NODES: usize = (CONTROL_RANGE - 2) as usize;

/// The inbox session id of fleet node `node`.
pub fn inbox_session(node: usize) -> SessionId {
    SessionId(CONTROL_BASE + 1 + node as u64)
}

/// The sealing key of a node's inbox, shared by every sender.
pub fn inbox_key(fleet_secret: u64, node: usize) -> ChannelKey {
    let id = inbox_session(node).0;
    ChannelKey::derive(fleet_secret, id, id)
}

/// The fleet's one control message, carried sealed on node inbox
/// sessions: register (or re-place) a session on its owning node. It
/// travels behind variant tag 0; tags 1 (the owner's `Ack`: the owner
/// settles the shared registration record itself) and 2 (the leaver's
/// `Leave`: no receiver acted on it) are retired.
#[derive(Debug, Clone)]
pub struct FleetMsg {
    /// The client-facing session id, minted on the gateway.
    pub session: u64,
    /// Protocol settings (boxed: they dwarf the other fields).
    pub config: Box<SapConfig>,
    /// The providers' datasets.
    pub locals: Vec<Dataset>,
}

impl Wire for FleetMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        put_uvarint(out, 0);
        self.session.encode(out);
        self.config.encode(out);
        encode_seq(&self.locals, out, encode_dataset);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        if read_uvarint(input)? != 0 {
            return Err(WireError::InvalidEncoding("FleetMsg variant tag"));
        }
        Ok(FleetMsg {
            session: u64::decode(input)?,
            config: Box::new(SapConfig::decode(input)?),
            locals: decode_seq(input, decode_dataset)?,
        })
    }
}

/// Seals `msg` for `dest`'s inbox and sends every frame straight to
/// node `dest`. `msg_id` must be unique per sending node — it seeds the
/// per-frame nonces and keys reassembly on the receiver.
pub fn send_via<T: Transport>(
    lane: &T,
    fleet_secret: u64,
    dest: usize,
    msg_id: u64,
    msg: &FleetMsg,
) -> Result<(), FleetError> {
    let session = inbox_session(dest);
    let key = inbox_key(fleet_secret, dest);
    let encoded = wire::to_bytes(msg);
    for frame in split_message(msg_id, Bytes::from(encoded), DEFAULT_CHUNK_SIZE) {
        // Unique per (sender, message, frame); senders embed their node
        // index in msg_id so two nodes never reuse a nonce on the same
        // inbox key.
        let nonce = msg_id.wrapping_shl(12) | u64::from(frame.seq & 0x0FFF);
        lane.send(
            PartyId(dest as u64),
            seal_frame(key, nonce, session, &frame),
        )
        .map_err(FleetError::Transport)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_net::frame::{open_frame, FlowItem, Reassembler};
    use sap_net::InMemoryHub;

    #[test]
    fn inbox_ids_live_in_the_control_range() {
        for node in [0usize, 1, 17, MAX_NODES - 1] {
            let id = inbox_session(node);
            assert!(id.0 > CONTROL_BASE, "{id} below the control range");
            assert!(id.0 < SessionId::LIVENESS.0, "{id} collides with liveness");
        }
        assert_eq!(inbox_session(1).0 - inbox_session(0).0, 1);
    }

    #[test]
    fn send_via_seals_frames_the_dest_key_opens() {
        let hub = InMemoryHub::new();
        let sender = hub.try_endpoint(PartyId(0)).unwrap();
        let receiver = hub.try_endpoint(PartyId(1)).unwrap();
        let msg = FleetMsg {
            session: 41,
            config: Box::new(SapConfig::quick_test()),
            locals: Vec::new(),
        };
        send_via(&sender, 0xF1EE7, 1, 7, &msg).unwrap();
        let (from, sealed) = receiver.recv().unwrap();
        assert_eq!(from, PartyId(0));
        let (session, frame) = open_frame(inbox_key(0xF1EE7, 1), &sealed).unwrap();
        assert_eq!(session, inbox_session(1));
        let mut asm = Reassembler::new();
        let Ok(Some(FlowItem::Msg(bytes))) = asm.feed(from, frame) else {
            panic!("single-frame message must assemble");
        };
        let decoded: FleetMsg = wire::from_bytes(&bytes).unwrap();
        assert_eq!(decoded.session, 41);
        // The wrong inbox key must not open the frame.
        assert!(open_frame(inbox_key(0xF1EE7, 0), &sealed).is_err());
    }
}
