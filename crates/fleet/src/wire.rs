//! The fleet control protocol: node inbox sessions, registration
//! messages, and the sealed-frame helpers that carry them.
//!
//! Every fleet node owns one **inbox session** in the reserved
//! [`CONTROL_BASE`] range of the session-id space, opened on its
//! inter-node lane mux. A registration for session `S` is wire-encoded,
//! chunked ([`split_message`]), sealed per frame (wire format v4,
//! unchanged), stamped with the *owner's* inbox session id, and sent to
//! the sender's ring successor. Intermediate nodes have no route for a
//! foreign inbox id, so their mux forwarding hook relays the sealed
//! bytes — zero decode, like the in-session anonymizing relay of
//! `sap-core`'s `link` module — until the owner's mux routes the frame
//! into its inbox.
//!
//! Keys are derived **path-independently** (`derive(secret, dest,
//! dest)`) because the v4 channel key is normally per-direction and a
//! relayed frame changes apparent sender at every hop; the inbox id
//! doubles as both ends of the pair.
//!
//! [`WireConfig`] mirrors [`SapConfig`] with wire primitives
//! (durations as microseconds). The mirror is exact for every
//! microsecond-granular config, so a session registered through a
//! forwarding node runs under byte-identical settings — the
//! equivalence the fleet tests pin.

use crate::FleetError;
use bytes::Bytes;
use sap_core::messages::{decode_dataset, encode_dataset};
use sap_core::placement::{CONTROL_BASE, CONTROL_RANGE};
use sap_core::runtime::QosClass;
use sap_core::session::SapConfig;
use sap_datasets::Dataset;
use sap_net::crypto::ChannelKey;
use sap_net::frame::{seal_frame, split_message, DEFAULT_CHUNK_SIZE};
use sap_net::sim::FaultConfig;
use sap_net::wire::{self, decode_seq, encode_seq, put_uvarint, read_uvarint, Wire, WireError};
use sap_net::{PartyId, SessionId, Transport};
use sap_privacy::{OptimizerConfig, StagedBudget};
use std::time::Duration;

/// Most nodes a fleet can address: one inbox id per node inside the
/// control range, leaving [`SessionId::LIVENESS`] untouched.
pub const MAX_NODES: usize = (CONTROL_RANGE - 2) as usize;

/// The inbox session id of fleet node `node`.
pub fn inbox_session(node: usize) -> SessionId {
    SessionId(CONTROL_BASE + 1 + node as u64)
}

/// The node whose inbox `session` is, if it is an inbox id at all.
pub fn inbox_node(session: SessionId) -> Option<usize> {
    (session.0 > CONTROL_BASE && session.0 < SessionId::LIVENESS.0)
        .then(|| (session.0 - CONTROL_BASE - 1) as usize)
}

/// The path-independent sealing key of a node's inbox.
pub fn inbox_key(fleet_secret: u64, node: usize) -> ChannelKey {
    let id = inbox_session(node).0;
    ChannelKey::derive(fleet_secret, id, id)
}

/// A fault model in wire form (durations as microseconds).
#[derive(Debug, Clone)]
pub struct WireFault {
    /// Per-send drop probability.
    pub drop_prob: f64,
    /// Per-send duplication probability.
    pub duplicate_prob: f64,
    /// Per-send delay probability.
    pub delay_prob: f64,
    /// Fixed link latency per send, in microseconds.
    pub send_latency_us: u64,
    /// Fault-stream seed.
    pub seed: u64,
}

/// [`SapConfig`] flattened to wire primitives. The round-trip
/// through [`WireConfig::from_config`] / [`WireConfig::to_config`] is
/// exact (durations at microsecond granularity), so the owning node
/// runs the session under precisely the settings the gateway accepted.
#[derive(Debug, Clone)]
pub struct WireConfig {
    /// Perturbation noise σ.
    pub noise_sigma: f64,
    /// Optimizer: candidate count.
    pub candidates: u64,
    /// Optimizer: candidate noise σ.
    pub opt_noise_sigma: f64,
    /// Optimizer: attacker known-point budget.
    pub known_points: u64,
    /// Optimizer: evaluation subsample size.
    pub eval_sample: u64,
    /// Optimizer: include the ICA attack.
    pub use_ica: bool,
    /// Optimizer: staged schedule enabled.
    pub staged_enabled: bool,
    /// Optimizer: staged survivor fraction.
    pub survivor_fraction: f64,
    /// Optimizer: staged survivor floor.
    pub min_survivors: u64,
    /// Optimizer: worker-thread override.
    pub threads: Option<u64>,
    /// Shared session secret.
    pub session_secret: u64,
    /// Master seed.
    pub seed: u64,
    /// Per-receive timeout, microseconds.
    pub timeout_us: u64,
    /// Session wall-clock budget, microseconds.
    pub session_budget_us: u64,
    /// Rows per stream block.
    pub block_rows: u64,
    /// Optional fault model.
    pub fault: Option<WireFault>,
    /// Interactive QoS class (`false` = batch).
    pub interactive: bool,
}

impl WireConfig {
    /// Flattens a [`SapConfig`] for the wire.
    pub fn from_config(c: &SapConfig) -> WireConfig {
        WireConfig {
            noise_sigma: c.noise_sigma,
            candidates: c.optimizer.candidates as u64,
            opt_noise_sigma: c.optimizer.noise_sigma,
            known_points: c.optimizer.known_points as u64,
            eval_sample: c.optimizer.eval_sample as u64,
            use_ica: c.optimizer.use_ica,
            staged_enabled: c.optimizer.staged.enabled,
            survivor_fraction: c.optimizer.staged.survivor_fraction,
            min_survivors: c.optimizer.staged.min_survivors as u64,
            threads: c.optimizer.threads.map(|t| t as u64),
            session_secret: c.session_secret,
            seed: c.seed,
            timeout_us: c.timeout.as_micros() as u64,
            session_budget_us: c.session_budget.as_micros() as u64,
            block_rows: c.block_rows as u64,
            fault: c.fault_config.map(|f| WireFault {
                drop_prob: f.drop_prob,
                duplicate_prob: f.duplicate_prob,
                delay_prob: f.delay_prob,
                send_latency_us: f.send_latency.as_micros() as u64,
                seed: f.seed,
            }),
            interactive: c.qos == QosClass::Interactive,
        }
    }

    /// Rebuilds the [`SapConfig`] on the owning node.
    pub fn to_config(&self) -> SapConfig {
        SapConfig {
            noise_sigma: self.noise_sigma,
            optimizer: OptimizerConfig {
                candidates: self.candidates as usize,
                noise_sigma: self.opt_noise_sigma,
                known_points: self.known_points as usize,
                eval_sample: self.eval_sample as usize,
                use_ica: self.use_ica,
                staged: StagedBudget {
                    enabled: self.staged_enabled,
                    survivor_fraction: self.survivor_fraction,
                    min_survivors: self.min_survivors as usize,
                },
                threads: self.threads.map(|t| t as usize),
            },
            session_secret: self.session_secret,
            seed: self.seed,
            timeout: Duration::from_micros(self.timeout_us),
            session_budget: Duration::from_micros(self.session_budget_us),
            block_rows: self.block_rows as usize,
            fault_config: self.fault.as_ref().map(|f| FaultConfig {
                drop_prob: f.drop_prob,
                duplicate_prob: f.duplicate_prob,
                delay_prob: f.delay_prob,
                send_latency: Duration::from_micros(f.send_latency_us),
                seed: f.seed,
            }),
            qos: if self.interactive {
                QosClass::Interactive
            } else {
                QosClass::Batch
            },
        }
    }
}

/// A fleet control message, carried sealed on node inbox sessions.
#[derive(Debug, Clone)]
pub enum FleetMsg {
    /// Register (or re-place) a session on its owning node.
    Register {
        /// The client-facing session id, minted on the gateway.
        session: u64,
        /// The gateway node that awaits the [`FleetMsg::Ack`].
        origin: u64,
        /// Protocol settings, flattened for the wire.
        config: WireConfig,
        /// The providers' datasets.
        locals: Vec<Dataset>,
    },
    /// The owner's admission verdict, routed back to the origin.
    Ack {
        /// The session the verdict is for.
        session: u64,
        /// Whether [`sap_server::SapServer::submit_placed`] accepted.
        accepted: bool,
        /// The admission error, rendered, when refused.
        reason: String,
    },
    /// A node announces graceful departure; receivers drop it from
    /// their membership view without marking it dead.
    Leave {
        /// The departing node.
        node: u64,
    },
}

impl Wire for WireFault {
    fn encode(&self, out: &mut Vec<u8>) {
        self.drop_prob.encode(out);
        self.duplicate_prob.encode(out);
        self.delay_prob.encode(out);
        self.send_latency_us.encode(out);
        self.seed.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(WireFault {
            drop_prob: f64::decode(input)?,
            duplicate_prob: f64::decode(input)?,
            delay_prob: f64::decode(input)?,
            send_latency_us: u64::decode(input)?,
            seed: u64::decode(input)?,
        })
    }
}

impl Wire for WireConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.noise_sigma.encode(out);
        self.candidates.encode(out);
        self.opt_noise_sigma.encode(out);
        self.known_points.encode(out);
        self.eval_sample.encode(out);
        self.use_ica.encode(out);
        self.staged_enabled.encode(out);
        self.survivor_fraction.encode(out);
        self.min_survivors.encode(out);
        self.threads.encode(out);
        self.session_secret.encode(out);
        self.seed.encode(out);
        self.timeout_us.encode(out);
        self.session_budget_us.encode(out);
        self.block_rows.encode(out);
        self.fault.encode(out);
        self.interactive.encode(out);
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(WireConfig {
            noise_sigma: f64::decode(input)?,
            candidates: u64::decode(input)?,
            opt_noise_sigma: f64::decode(input)?,
            known_points: u64::decode(input)?,
            eval_sample: u64::decode(input)?,
            use_ica: bool::decode(input)?,
            staged_enabled: bool::decode(input)?,
            survivor_fraction: f64::decode(input)?,
            min_survivors: u64::decode(input)?,
            threads: Option::decode(input)?,
            session_secret: u64::decode(input)?,
            seed: u64::decode(input)?,
            timeout_us: u64::decode(input)?,
            session_budget_us: u64::decode(input)?,
            block_rows: u64::decode(input)?,
            fault: Option::decode(input)?,
            interactive: bool::decode(input)?,
        })
    }
}

impl Wire for FleetMsg {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            FleetMsg::Register {
                session,
                origin,
                config,
                locals,
            } => {
                put_uvarint(out, 0);
                session.encode(out);
                origin.encode(out);
                config.encode(out);
                encode_seq(locals, out, encode_dataset);
            }
            FleetMsg::Ack {
                session,
                accepted,
                reason,
            } => {
                put_uvarint(out, 1);
                session.encode(out);
                accepted.encode(out);
                reason.encode(out);
            }
            FleetMsg::Leave { node } => {
                put_uvarint(out, 2);
                node.encode(out);
            }
        }
    }

    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(match read_uvarint(input)? {
            0 => FleetMsg::Register {
                session: u64::decode(input)?,
                origin: u64::decode(input)?,
                config: WireConfig::decode(input)?,
                locals: decode_seq(input, decode_dataset)?,
            },
            1 => FleetMsg::Ack {
                session: u64::decode(input)?,
                accepted: bool::decode(input)?,
                reason: String::decode(input)?,
            },
            2 => FleetMsg::Leave {
                node: u64::decode(input)?,
            },
            _ => return Err(WireError::InvalidEncoding("FleetMsg variant tag")),
        })
    }
}

/// Seals `msg` for `dest`'s inbox and sends every frame to `hop` (the
/// sender's ring successor, or `dest` itself on a direct edge).
/// `msg_id` must be unique per sending node — it seeds the per-frame
/// nonces and keys reassembly on the receiver.
pub fn send_via<T: Transport>(
    lane: &T,
    fleet_secret: u64,
    hop: PartyId,
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
        lane.send(hop, seal_frame(key, nonce, session, &frame))
            .map_err(FleetError::Transport)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_net::frame::{open_frame, Assembled, Reassembler};
    use sap_net::InMemoryHub;

    #[test]
    fn inbox_ids_live_in_the_control_range() {
        for node in [0usize, 1, 17, MAX_NODES - 1] {
            let id = inbox_session(node);
            assert!(id.0 >= CONTROL_BASE, "{id} below the control range");
            assert_ne!(id, SessionId::LIVENESS);
            assert_eq!(inbox_node(id), Some(node));
        }
        assert_eq!(inbox_node(SessionId::SOLO), None);
        assert_eq!(inbox_node(SessionId::LIVENESS), None);
        assert_eq!(inbox_node(SessionId(CONTROL_BASE)), None);
    }

    #[test]
    fn config_mirror_roundtrips_exactly() {
        let mut cfg = SapConfig::quick_test();
        cfg.qos = QosClass::Batch;
        cfg.fault_config = Some(FaultConfig {
            drop_prob: 0.25,
            send_latency: Duration::from_micros(1500),
            seed: 99,
            ..FaultConfig::default()
        });
        let back = WireConfig::from_config(&cfg).to_config();
        assert_eq!(back.noise_sigma, cfg.noise_sigma);
        assert_eq!(back.optimizer.candidates, cfg.optimizer.candidates);
        assert_eq!(back.optimizer.staged, cfg.optimizer.staged);
        assert_eq!(back.optimizer.threads, cfg.optimizer.threads);
        assert_eq!(back.session_secret, cfg.session_secret);
        assert_eq!(back.seed, cfg.seed);
        assert_eq!(back.timeout, cfg.timeout);
        assert_eq!(back.session_budget, cfg.session_budget);
        assert_eq!(back.block_rows, cfg.block_rows);
        assert_eq!(back.qos, cfg.qos);
        let (bf, cf) = (back.fault_config.unwrap(), cfg.fault_config.unwrap());
        assert_eq!(bf.drop_prob, cf.drop_prob);
        assert_eq!(bf.send_latency, cf.send_latency);
        assert_eq!(bf.seed, cf.seed);
    }

    #[test]
    fn send_via_seals_frames_the_dest_key_opens() {
        let hub = InMemoryHub::new();
        let sender = hub.try_endpoint(PartyId(0)).unwrap();
        let receiver = hub.try_endpoint(PartyId(1)).unwrap();
        let msg = FleetMsg::Ack {
            session: 41,
            accepted: true,
            reason: String::new(),
        };
        send_via(&sender, 0xF1EE7, PartyId(1), 3, 7, &msg).unwrap();
        let (from, sealed) = receiver.recv().unwrap();
        assert_eq!(from, PartyId(0));
        let (session, frame) = open_frame(inbox_key(0xF1EE7, 3), &sealed).unwrap();
        assert_eq!(session, inbox_session(3));
        let mut asm = Reassembler::new();
        let Ok(Some(Assembled::Message(bytes))) = asm.feed(from, frame) else {
            panic!("single-frame message must assemble");
        };
        let decoded: FleetMsg = wire::from_bytes(&bytes).unwrap();
        assert!(matches!(
            decoded,
            FleetMsg::Ack {
                session: 41,
                accepted: true,
                ..
            }
        ));
        // The wrong inbox key must not open the frame.
        assert!(open_frame(inbox_key(0xF1EE7, 4), &sealed).is_err());
    }
}
