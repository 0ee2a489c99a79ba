//! The fleet control protocol. Every node opens the one shared
//! **control session** ([`CONTROL`], in the reserved [`CONTROL_BASE`]
//! range) on its inter-node lane mux and talks on it through a
//! [`sap_net::node::Node`] keyed by the fleet secret: a control message
//! for node `D` is wire-encoded, chunked, sealed per frame under the
//! sender → `D` channel key (wire format v5) and sent straight to `D`,
//! like any session's message. `Register` carries the session's
//! [`SapConfig`] in its own wire encoding, so the owner runs it under
//! exactly the settings the gateway accepted.

use sap_core::messages::{decode_dataset, encode_dataset};
use sap_core::placement::{CONTROL_BASE, CONTROL_RANGE};
use sap_core::session::SapConfig;
use sap_datasets::Dataset;
use sap_net::wire::{decode_seq, encode_seq, put_uvarint, read_uvarint, Wire, WireError};
use sap_net::SessionId;

/// Most nodes a fleet builds; node `j` is party `j` on the inter-node
/// mesh.
pub const MAX_NODES: usize = (CONTROL_RANGE - 2) as usize;

/// The fleet's control session, shared by every node.
pub const CONTROL: SessionId = SessionId(CONTROL_BASE);

/// The fleet's one control message, carried sealed on the control
/// session: register (or re-place) a session on its owning node. It
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
