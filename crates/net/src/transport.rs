//! The transport abstraction and its in-memory implementation.
//!
//! One [`Endpoint`] per party; endpoints exchange opaque byte payloads
//! through an [`InMemoryHub`]. The protocol layer never depends on the
//! concrete transport, so fault-injecting decorators ([`crate::sim`]) slot
//! in transparently.
//!
//! A [`Physical`] endpoint (hub or TCP) hands every arrival to one
//! [`Sink`] on the thread that holds it: the hub sender's, or the
//! reactor. The default sink is the inbox `recv` reads; a
//! [`crate::mux::SessionMux`] installs its router. A frame the sink hands
//! back ([`Offer::Full`]) is held, its source's later arrivals behind it,
//! and offered again later: no thread waits for room, since in SAP's
//! exchange a sender is often the very consumer it would wait for.

use bytes::Bytes;
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::Duration;

/// How often a thread waiting on held frames ([`Offer::Full`]) offers
/// them to the sink again.
pub(crate) const RETRY_TICK: Duration = Duration::from_millis(1);

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
    /// a real session. A [`crate::mux::SessionMux`] consumes frames
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
/// `Sync` is part of the contract because one endpoint is shared by many
/// threads: every session role of a [`crate::mux::SessionMux`] sends
/// through it concurrently, and its mux's liveness thread sends
/// heartbeats.
pub trait Transport: Send + Sync {
    /// This endpoint's identity.
    fn local_id(&self) -> PartyId;

    /// Sends a payload to another party.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::UnknownParty`] / `Disconnected`.
    fn send(&self, to: PartyId, payload: Bytes) -> Result<(), TransportError>;

    /// Best-effort, **never-blocking** send for liveness traffic
    /// (heartbeats). Defaults to [`Transport::send`]; transports whose
    /// send can block on backpressure (TCP's per-peer high-water mark)
    /// must override this to drop the beat instead — a heartbeat emitter
    /// iterates its peers sequentially, and one slow peer stalling the
    /// loop would starve beats to healthy peers and falsely trip *their*
    /// watchdogs.
    ///
    /// # Errors
    ///
    /// As [`Transport::send`]; liveness layers count failures here and
    /// act on a run of them.
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

/// A transport with a receive side of its own (the hub [`Endpoint`], or
/// TCP), which a [`crate::mux::SessionMux`] can wrap.
pub trait Physical: Transport {
    /// Hands the inbox's contents, then every later arrival, to `sink`.
    fn install_sink(&self, sink: Arc<dyn Sink>);

    /// Offers held frames to the sink again on the calling thread; `true`
    /// while some stay held. The reactor retries on its own thread, so
    /// its version only returns `false`.
    fn retry_held(&self) -> bool;
}

/// One arrival at a physical endpoint: a payload, or a liveness event
/// about a peer. Markers travel the same path as frames so a receiver
/// blocked in `recv` wakes up the moment a peer is declared dead.
#[derive(Debug, Clone)]
pub enum Delivery {
    /// An ordinary payload from a peer.
    Frame(PartyId, Bytes),
    /// The named peer was detected dead.
    PeerDown(PartyId),
    /// The named peer claimed a frame of the given length over the size
    /// limit; its connection was dropped without allocating the claim.
    Oversize(PartyId, usize),
}

impl Delivery {
    /// The peer the arrival came from, or is about.
    fn source(&self) -> PartyId {
        match self {
            Delivery::Frame(p, _) | Delivery::PeerDown(p) | Delivery::Oversize(p, _) => *p,
        }
    }
}

/// What a [`Sink`] did with one arrival.
#[derive(Debug)]
pub enum Offer {
    /// Taken: queued, consumed, forwarded, or counted and dropped.
    Taken,
    /// The frame's consumer is full: hold it, and its source's later
    /// arrivals, and offer it again.
    Full(Delivery),
    /// The receiver is gone.
    Gone,
}

/// Where a physical endpoint hands its arrivals (see the module docs).
pub trait Sink: Send + Sync {
    /// Takes one arrival, or hands it back; never blocks.
    fn deliver(&self, delivery: Delivery) -> Offer;

    /// The transport will deliver nothing more.
    fn closed(&self);
}

/// The default sink: the channel inbox `recv` reads.
impl Sink for Sender<Delivery> {
    fn deliver(&self, delivery: Delivery) -> Offer {
        match self.send(delivery) {
            Ok(()) => Offer::Taken,
            Err(_) => Offer::Gone,
        }
    }

    fn closed(&self) {}
}

/// A physical endpoint's receive side: the sink its arrivals go to (an
/// [`Inbox`] by default), and the arrivals it handed back: per source in
/// arrival order, the sources in retry turn order.
pub(crate) struct Inlet {
    sink: RwLock<Option<Arc<dyn Sink>>>,
    held: Mutex<VecDeque<(PartyId, VecDeque<Delivery>)>>,
    /// One retrier at a time: the front source's frame is out of `held`
    /// while it is offered again.
    retrying: Mutex<()>,
}

/// `from`'s held arrivals; a new turn at the back if it had none.
fn held_from(
    held: &mut VecDeque<(PartyId, VecDeque<Delivery>)>,
    from: PartyId,
) -> &mut VecDeque<Delivery> {
    let at = held
        .iter()
        .position(|(p, _)| *p == from)
        .unwrap_or_else(|| {
            held.push_back((from, VecDeque::new()));
            held.len() - 1
        });
    &mut held[at].1
}

/// The channel inbox a bare physical endpoint's `recv` reads.
pub(crate) struct Inbox(Mutex<Receiver<Delivery>>);

impl Inlet {
    pub(crate) fn new() -> (Inlet, Inbox) {
        let (tx, rx) = channel();
        let sink: Arc<dyn Sink> = Arc::new(tx);
        let inlet = Inlet {
            sink: RwLock::new(Some(sink)),
            held: Mutex::default(),
            retrying: Mutex::new(()),
        };
        (inlet, Inbox(Mutex::new(rx)))
    }

    /// Hands `delivery` to the sink, or holds it behind its source's held
    /// arrivals; `false` when the receiver is gone.
    pub(crate) fn offer(&self, delivery: Delivery) -> bool {
        let from = delivery.source();
        if let Some((_, frames)) = self.held.lock().iter_mut().find(|(p, _)| *p == from) {
            frames.push_back(delivery);
            return true;
        }
        match self.deliver(delivery) {
            Offer::Full(back) => held_from(&mut self.held.lock(), from).push_front(back),
            Offer::Gone => return false,
            Offer::Taken => {}
        }
        true
    }

    /// Offers held arrivals again, one per source in turn, until every
    /// source's front comes back full; `true` while any stay held.
    pub(crate) fn retry(&self) -> bool {
        let Some(_turn) = self.retrying.try_lock() else {
            return true;
        };
        let mut full_in_a_row = 0;
        loop {
            let mut held = self.held.lock();
            if full_in_a_row >= held.len() {
                return !held.is_empty();
            }
            let Some(delivery) = held.front_mut().and_then(|(_, q)| q.pop_front()) else {
                held.pop_front();
                continue;
            };
            drop(held);
            let outcome = self.deliver(delivery);
            let mut held = self.held.lock();
            let Some(mut turn) = held.pop_front() else {
                return false;
            };
            match outcome {
                Offer::Taken => full_in_a_row = 0,
                Offer::Full(back) => {
                    turn.1.push_front(back);
                    full_in_a_row += 1;
                }
                Offer::Gone => {
                    held.clear();
                    return false;
                }
            }
            held.push_back(turn);
        }
    }

    /// Runs the sink under the read lock, so an install never lets an
    /// arrival slip into the inbox it just emptied.
    fn deliver(&self, delivery: Delivery) -> Offer {
        match &*self.sink.read() {
            Some(sink) => sink.deliver(delivery),
            None => Offer::Gone,
        }
    }

    pub(crate) fn install(&self, sink: Arc<dyn Sink>, inbox: &Inbox) {
        let mut slot = self.sink.write();
        // Earlier arrivals go first: held, in order, for the retry.
        while let Ok(delivery) = inbox.0.lock().try_recv() {
            held_from(&mut self.held.lock(), delivery.source()).push_back(delivery);
        }
        match slot.as_mut() {
            Some(current) => *current = sink,
            None => sink.closed(),
        }
        drop(slot);
        self.retry();
    }

    /// Stops all delivery: the inbox reads `Disconnected` once drained,
    /// an installed sink is told [`Sink::closed`].
    pub(crate) fn close(&self) {
        let sink = self.sink.write().take();
        self.held.lock().clear();
        if let Some(sink) = sink {
            sink.closed();
        }
    }
}

impl Inbox {
    /// Receives, blocking up to `timeout`; `Duration::MAX` blocks until an
    /// arrival or disconnection.
    pub(crate) fn recv(&self, timeout: Duration) -> Result<(PartyId, Bytes), TransportError> {
        match self.0.lock().recv_timeout(timeout) {
            Ok(Delivery::Frame(from, payload)) => Ok((from, payload)),
            Ok(Delivery::PeerDown(p)) => Err(TransportError::PeerDown(p)),
            Ok(Delivery::Oversize(from, claimed)) => {
                Err(TransportError::OversizeFrame { from, claimed })
            }
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }
}

/// An in-memory message hub connecting any number of endpoints.
#[derive(Clone, Default)]
pub struct InMemoryHub {
    routes: Arc<RwLock<HashMap<PartyId, Arc<Inlet>>>>,
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
        let mut routes = self.routes.write();
        if routes.contains_key(&id) {
            return Err(TransportError::DuplicateParty(id));
        }
        let (inlet, inbox) = Inlet::new();
        let inlet = Arc::new(inlet);
        routes.insert(id, Arc::clone(&inlet));
        Ok(Endpoint {
            id,
            routes: Arc::clone(&self.routes),
            inlet,
            inbox,
        })
    }

    /// Removes a party, closing its inbox (subsequent sends to it fail).
    pub fn disconnect(&self, id: PartyId) {
        let removed = self.routes.write().remove(&id);
        if let Some(inlet) = removed {
            inlet.close();
        }
    }

    /// Kills a party: removes it like [`InMemoryHub::disconnect`] **and**
    /// notifies every surviving endpoint with an in-band
    /// [`TransportError::PeerDown`] marker — the hub analogue of a process
    /// crash closing its TCP sockets. Receivers blocked in `recv` wake
    /// immediately with the typed failure instead of starving until their
    /// protocol timeout.
    pub fn kill(&self, id: PartyId) {
        let (dead, survivors): (Arc<Inlet>, Vec<Arc<Inlet>>) = {
            let mut routes = self.routes.write();
            let Some(dead) = routes.remove(&id) else {
                return;
            };
            (dead, routes.values().cloned().collect())
        };
        // Notify survivors *before* closing the dead party's inlet: its
        // own endpoint (and any mux on it) sees Disconnected only after
        // every survivor already has the typed marker, narrowing the race
        // between the typed failure and the secondary disconnect cascade.
        for inlet in survivors {
            inlet.offer(Delivery::PeerDown(id));
        }
        dead.close();
    }

    /// Currently registered parties.
    pub fn parties(&self) -> Vec<PartyId> {
        let mut v: Vec<PartyId> = self.routes.read().keys().copied().collect();
        v.sort();
        v
    }
}

/// One party's connection to an [`InMemoryHub`]. A send runs the
/// receiver's [`Sink`] on the sending thread and never waits for room
/// (see the module docs).
pub struct Endpoint {
    id: PartyId,
    routes: Arc<RwLock<HashMap<PartyId, Arc<Inlet>>>>,
    inlet: Arc<Inlet>,
    inbox: Inbox,
}

impl Transport for Endpoint {
    fn local_id(&self) -> PartyId {
        self.id
    }

    fn send(&self, to: PartyId, payload: Bytes) -> Result<(), TransportError> {
        // Unlocked before the sink runs: it may wait, or send in turn.
        let inlet = self.routes.read().get(&to).cloned();
        let inlet = inlet.ok_or(TransportError::UnknownParty(to))?;
        if inlet.offer(Delivery::Frame(self.id, payload)) {
            Ok(())
        } else {
            Err(TransportError::Disconnected)
        }
    }

    fn recv(&self) -> Result<(PartyId, Bytes), TransportError> {
        self.inbox.recv(Duration::MAX)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(PartyId, Bytes), TransportError> {
        self.inbox.recv(timeout)
    }
}

impl Physical for Endpoint {
    fn install_sink(&self, sink: Arc<dyn Sink>) {
        self.inlet.install(sink, &self.inbox);
    }

    fn retry_held(&self) -> bool {
        self.inlet.retry()
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
