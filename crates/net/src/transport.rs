//! The transport abstraction and its in-memory implementation.
//!
//! One [`Endpoint`] per party; endpoints exchange opaque byte payloads
//! through an [`InMemoryHub`] (crossbeam channels). The protocol layer never
//! depends on the concrete transport, so fault-injecting decorators
//! ([`crate::sim`]) slot in transparently.

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Duration;

/// Identifies a party in a protocol session.
///
/// By convention in this workspace: data providers are `0..k`, the
/// coordinator is one of them (usually `k−1`), and the mining service
/// provider gets a dedicated high id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PartyId(pub u64);

impl fmt::Display for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "party-{}", self.0)
    }
}

/// Identifies one protocol session when many share a physical mesh.
///
/// Wire-format v3 stamps the session id (in plaintext, but authenticated —
/// see [`crate::frame`]) on every sealed frame, so a
/// [`crate::mux::SessionMux`] can demultiplex one physical transport into
/// per-session virtual endpoints without opening any envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub u64);

impl SessionId {
    /// The session id of a standalone (non-multiplexed) run. Nodes created
    /// without an explicit session use this.
    pub const SOLO: SessionId = SessionId(0);

    /// Reserved session id stamped on liveness (heartbeat) frames — never
    /// a real session. A [`crate::mux::SessionMux`] pump consumes frames
    /// stamped with it instead of routing them (see [`crate::frame`]'s
    /// heartbeat functions), and refuses to open a session under it.
    pub const LIVENESS: SessionId = SessionId(u64::MAX);
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Transport failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The destination party is not registered with the hub.
    UnknownParty(PartyId),
    /// A party id was registered twice on the same hub or mux.
    DuplicateParty(PartyId),
    /// A session id was opened twice on the same mux.
    DuplicateSession(SessionId),
    /// The peer (or hub) hung up.
    Disconnected,
    /// A specific peer was detected dead — its process exited, its socket
    /// closed, or its heartbeats stopped. Unlike [`TransportError::Timeout`]
    /// (which says only "nothing arrived"), this names the failed party so
    /// the protocol layer can fail the session with a typed peer-failure
    /// instead of a generic starvation timeout. The error is *transient*:
    /// a receiver may keep receiving from other peers afterwards.
    PeerDown(PartyId),
    /// Connecting to a peer's listener failed for the whole backoff
    /// window — the peer never bound, or its process is gone.
    ConnectFailed {
        /// The address that refused every attempt.
        addr: SocketAddr,
        /// Connection attempts made before giving up.
        attempts: u32,
    },
    /// `recv_timeout` elapsed without a message.
    Timeout,
    /// The payload exceeds the transport's size limit (e.g. a stream
    /// block larger than [`crate::reactor::MAX_PAYLOAD`]).
    PayloadTooLarge {
        /// Offending payload size in bytes.
        size: usize,
    },
    /// A peer's length prefix claimed a frame over
    /// [`crate::reactor::MAX_PAYLOAD`]. The claimed buffer was **never
    /// allocated**; the offending connection was dropped. Like
    /// [`TransportError::PeerDown`] this is transient and names the
    /// party, so the protocol layer can fail that peer's session with a
    /// typed error while siblings keep running.
    OversizeFrame {
        /// The peer whose connection claimed the oversize frame.
        from: PartyId,
        /// The claimed length in bytes.
        claimed: usize,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TransportError::UnknownParty(p) => write!(f, "unknown party {p}"),
            TransportError::DuplicateParty(p) => write!(f, "party {p} registered twice"),
            TransportError::DuplicateSession(s) => write!(f, "{s} opened twice on one mux"),
            TransportError::Disconnected => write!(f, "transport disconnected"),
            TransportError::PeerDown(p) => write!(f, "peer {p} is down"),
            TransportError::ConnectFailed { addr, attempts } => {
                write!(f, "connect to {addr} failed after {attempts} attempts")
            }
            TransportError::Timeout => write!(f, "receive timed out"),
            TransportError::PayloadTooLarge { size } => {
                write!(f, "payload of {size} bytes exceeds the transport limit")
            }
            TransportError::OversizeFrame { from, claimed } => {
                write!(
                    f,
                    "{from} claimed an oversize frame of {claimed} bytes; connection dropped"
                )
            }
        }
    }
}

impl std::error::Error for TransportError {}

/// Point-to-point message transport for one party.
///
/// `Sync` is part of the contract so a [`crate::mux::SessionMux`] pump
/// thread can receive on a shared endpoint while session roles send
/// through it concurrently.
pub trait Transport: Send + Sync {
    /// This endpoint's identity.
    fn local_id(&self) -> PartyId;

    /// Sends a payload to another party.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::UnknownParty`] / `Disconnected`.
    fn send(&self, to: PartyId, payload: Bytes) -> Result<(), TransportError>;

    /// Best-effort, **bounded-latency** send for liveness traffic
    /// (heartbeats). Defaults to [`Transport::send`]; transports whose
    /// send can block for a long connect window (TCP retries a peer that
    /// has not bound yet for seconds) must override this with a
    /// short-window variant — a heartbeat emitter iterates its peers
    /// sequentially, and one dead peer stalling the loop would starve
    /// beats to healthy peers and falsely trip *their* watchdogs.
    ///
    /// # Errors
    ///
    /// As [`Transport::send`]; failures here mean "unreachable right
    /// now", which liveness layers should count, not instantly act on.
    fn send_liveness(&self, to: PartyId, payload: Bytes) -> Result<(), TransportError> {
        self.send(to, payload)
    }

    /// Blocks until a message arrives.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Disconnected`] when every sender is gone.
    fn recv(&self) -> Result<(PartyId, Bytes), TransportError>;

    /// Blocks up to `timeout` for a message.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::Timeout`] on expiry, `Disconnected` when
    /// every sender is gone.
    fn recv_timeout(&self, timeout: Duration) -> Result<(PartyId, Bytes), TransportError>;
}

/// One in-band inbox item: a payload, or a liveness event about a peer.
/// Markers travel through the same channel as frames so a receiver blocked
/// in `recv` wakes up the moment a peer is declared dead — no side channel
/// to poll.
#[derive(Debug, Clone)]
pub(crate) enum Delivery {
    /// An ordinary payload from a peer.
    Frame(PartyId, Bytes),
    /// The named peer was detected dead.
    PeerDown(PartyId),
    /// The named peer claimed a frame over the size limit; its connection
    /// was dropped without allocating the claim.
    Oversize(PartyId, usize),
}

pub(crate) fn pop_delivery(d: Delivery) -> Result<(PartyId, Bytes), TransportError> {
    match d {
        Delivery::Frame(from, payload) => Ok((from, payload)),
        Delivery::PeerDown(p) => Err(TransportError::PeerDown(p)),
        Delivery::Oversize(from, claimed) => Err(TransportError::OversizeFrame { from, claimed }),
    }
}

type Inbox = Delivery;

/// An in-memory message hub connecting any number of endpoints.
#[derive(Clone, Default)]
pub struct InMemoryHub {
    routes: Arc<RwLock<HashMap<PartyId, Sender<Inbox>>>>,
}

impl InMemoryHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a party and returns its endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered (duplicate identities are a
    /// harness bug, not a runtime condition). Long-lived runtimes that
    /// register parties dynamically should use
    /// [`InMemoryHub::try_endpoint`] instead.
    pub fn endpoint(&self, id: PartyId) -> Endpoint {
        match self.try_endpoint(id) {
            Ok(endpoint) => endpoint,
            Err(_) => panic!("party {id} registered twice"),
        }
    }

    /// Registers a party, returning a typed error on duplicate ids instead
    /// of panicking — the variant a multi-session server wants, where a
    /// duplicate registration must fail one session, not the process.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::DuplicateParty`] when `id` is taken.
    pub fn try_endpoint(&self, id: PartyId) -> Result<Endpoint, TransportError> {
        let (tx, rx) = unbounded();
        let mut routes = self.routes.write();
        if routes.contains_key(&id) {
            return Err(TransportError::DuplicateParty(id));
        }
        routes.insert(id, tx);
        Ok(Endpoint {
            id,
            routes: Arc::clone(&self.routes),
            inbox: parking_lot::Mutex::new(rx),
        })
    }

    /// Removes a party, closing its inbox (subsequent sends to it fail).
    pub fn disconnect(&self, id: PartyId) {
        self.routes.write().remove(&id);
    }

    /// Kills a party: removes it like [`InMemoryHub::disconnect`] **and**
    /// notifies every surviving endpoint with an in-band
    /// [`TransportError::PeerDown`] marker — the hub analogue of a process
    /// crash closing its TCP sockets. Receivers blocked in `recv` wake
    /// immediately with the typed failure instead of starving until their
    /// protocol timeout.
    pub fn kill(&self, id: PartyId) {
        let mut routes = self.routes.write();
        if !routes.contains_key(&id) {
            return;
        }
        // Notify survivors *before* dropping the dead party's route: its
        // own endpoint (and any mux pump on it) sees Disconnected only
        // after every survivor already has the typed marker queued,
        // narrowing the race between the typed failure and the secondary
        // disconnect cascade.
        for (&party, tx) in routes.iter() {
            if party != id {
                let _ = tx.send(Delivery::PeerDown(id));
            }
        }
        routes.remove(&id);
    }

    /// Currently registered parties.
    pub fn parties(&self) -> Vec<PartyId> {
        let mut v: Vec<PartyId> = self.routes.read().keys().copied().collect();
        v.sort();
        v
    }
}

/// One party's connection to an [`InMemoryHub`].
///
/// The inbox sits behind a mutex solely to make the endpoint `Sync` (the
/// mux pump receives while roles send); receive ordering is still owned by
/// one logical consumer.
pub struct Endpoint {
    id: PartyId,
    routes: Arc<RwLock<HashMap<PartyId, Sender<Inbox>>>>,
    inbox: parking_lot::Mutex<Receiver<Inbox>>,
}

impl Transport for Endpoint {
    fn local_id(&self) -> PartyId {
        self.id
    }

    fn send(&self, to: PartyId, payload: Bytes) -> Result<(), TransportError> {
        let routes = self.routes.read();
        let tx = routes.get(&to).ok_or(TransportError::UnknownParty(to))?;
        tx.send(Delivery::Frame(self.id, payload))
            .map_err(|_| TransportError::Disconnected)
    }

    fn recv(&self) -> Result<(PartyId, Bytes), TransportError> {
        self.inbox
            .lock()
            .recv()
            .map_err(|_| TransportError::Disconnected)
            .and_then(pop_delivery)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(PartyId, Bytes), TransportError> {
        self.inbox
            .lock()
            .recv_timeout(timeout)
            .map_err(|e| match e {
                RecvTimeoutError::Timeout => TransportError::Timeout,
                RecvTimeoutError::Disconnected => TransportError::Disconnected,
            })
            .and_then(pop_delivery)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_and_receive() {
        let hub = InMemoryHub::new();
        let a = hub.endpoint(PartyId(1));
        let b = hub.endpoint(PartyId(2));
        a.send(PartyId(2), Bytes::from_static(b"hi")).unwrap();
        let (from, payload) = b.recv().unwrap();
        assert_eq!(from, PartyId(1));
        assert_eq!(&payload[..], b"hi");
    }

    #[test]
    fn unknown_party_errors() {
        let hub = InMemoryHub::new();
        let a = hub.endpoint(PartyId(1));
        assert_eq!(
            a.send(PartyId(9), Bytes::new()).unwrap_err(),
            TransportError::UnknownParty(PartyId(9))
        );
    }

    #[test]
    fn timeout_when_silent() {
        let hub = InMemoryHub::new();
        let a = hub.endpoint(PartyId(1));
        assert_eq!(
            a.recv_timeout(Duration::from_millis(10)).unwrap_err(),
            TransportError::Timeout
        );
    }

    #[test]
    fn fifo_per_sender() {
        let hub = InMemoryHub::new();
        let a = hub.endpoint(PartyId(1));
        let b = hub.endpoint(PartyId(2));
        for i in 0..10u8 {
            a.send(PartyId(2), Bytes::copy_from_slice(&[i])).unwrap();
        }
        for i in 0..10u8 {
            let (_, p) = b.recv().unwrap();
            assert_eq!(p[0], i);
        }
    }

    #[test]
    fn disconnect_closes_route() {
        let hub = InMemoryHub::new();
        let a = hub.endpoint(PartyId(1));
        let _b = hub.endpoint(PartyId(2));
        hub.disconnect(PartyId(2));
        assert!(a.send(PartyId(2), Bytes::new()).is_err());
        assert_eq!(hub.parties(), vec![PartyId(1)]);
    }

    #[test]
    fn kill_notifies_survivors_in_band() {
        let hub = InMemoryHub::new();
        let a = hub.endpoint(PartyId(1));
        let b = hub.endpoint(PartyId(2));
        let _c = hub.endpoint(PartyId(3));
        // A frame sent before the kill is delivered first, then the
        // marker, then traffic from survivors keeps flowing.
        a.send(PartyId(2), Bytes::from_static(b"pre")).unwrap();
        hub.kill(PartyId(1));
        assert_eq!(&b.recv().unwrap().1[..], b"pre");
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)).unwrap_err(),
            TransportError::PeerDown(PartyId(1))
        );
        // The endpoint stays usable for surviving peers.
        _c.send(PartyId(2), Bytes::from_static(b"post")).unwrap();
        assert_eq!(&b.recv().unwrap().1[..], b"post");
        // Killing an unknown id is a no-op.
        hub.kill(PartyId(9));
    }

    #[test]
    fn cross_thread_exchange() {
        let hub = InMemoryHub::new();
        let a = hub.endpoint(PartyId(1));
        let b = hub.endpoint(PartyId(2));
        let handle = std::thread::spawn(move || {
            let (from, p) = b.recv().unwrap();
            assert_eq!(from, PartyId(1));
            b.send(from, p).unwrap();
        });
        a.send(PartyId(2), Bytes::from_static(b"ping")).unwrap();
        let (_, echo) = a.recv().unwrap();
        assert_eq!(&echo[..], b"ping");
        handle.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_registration_panics() {
        let hub = InMemoryHub::new();
        let _a = hub.endpoint(PartyId(1));
        let _b = hub.endpoint(PartyId(1));
    }

    #[test]
    fn try_endpoint_reports_duplicate_as_typed_error() {
        let hub = InMemoryHub::new();
        let _a = hub.try_endpoint(PartyId(1)).unwrap();
        let err = match hub.try_endpoint(PartyId(1)) {
            Ok(_) => panic!("duplicate id must be rejected"),
            Err(e) => e,
        };
        assert_eq!(err, TransportError::DuplicateParty(PartyId(1)));
    }
}
