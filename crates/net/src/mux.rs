//! Session multiplexing: one physical mesh, many concurrent sessions.
//!
//! A [`SessionMux`] wraps a single physical [`Transport`] endpoint (hub or
//! TCP) and demultiplexes its inbound traffic into per-session virtual
//! endpoints ([`MuxEndpoint`]), routed by the plaintext — but
//! authenticated — session id every sealed frame carries
//! ([`crate::frame::peek_session`]). The mux installs its router as the
//! endpoint's [`Sink`], so a frame is routed on the thread that already
//! holds it (the reactor for TCP, the sender for the hub) and reaches its
//! session queue in one hand-off; the mux runs no thread on the data
//! path. Routing never opens an envelope: it costs one 8-byte read per
//! frame, and no session key ever leaves its session. Nor does it send:
//! a frame is queued for a local session or dropped, so the reactor
//! thread never waits on its own transport's send gate.
//!
//! # Queueing & backpressure
//!
//! Each open session owns a **bounded** inbound queue. When it is full
//! the router hands the frame back and the endpoint holds it, its
//! source's later frames behind it, while the sender goes on: a SAP
//! provider streams its whole dataset before it reads, and the exchange
//! plan always holds a cycle, so a waiting sender could wait for itself.
//! Held frames are offered again on the reactor's 1 ms tick, or, on the
//! hub, by the lane's consumers each millisecond they wait on an empty
//! queue and by the liveness tick. A queue that takes nothing for
//! [`STALL_BUDGET`] has its frames **shed** and counted, so one stuck
//! session cannot block its siblings from the same peer; the shed aborts
//! only that session (SAP has no retransmission). Shedding at once would
//! fail a consumer that is slow yet draining; holding paces it.
//! A session meets a full queue once it has more than
//! [`DEFAULT_SESSION_QUEUE`] frames queued on one lane: more than 65 k
//! rows in `quick_test`'s 64-row blocks.
//!
//! # The one-garbage-frame DoS, revisited
//!
//! The single-session TCP transport documents that any outsider who can
//! reach the port can abort *the* session with one garbage frame. Under
//! the mux the blast radius shrinks to exactly one session: a frame
//! stamped with an **unknown** session id is counted and dropped (the
//! connection and every live session keep running), and a garbage frame
//! stamped with a live session id fails to open *in that session only* —
//! its siblings share nothing with it but the router.
//!
//! # Peer liveness
//!
//! [`SessionMux::start_liveness`] adds the failure-detection plane, on one
//! thread off the data path: each `interval` it sends plaintext heartbeat
//! frames ([`crate::frame::encode_heartbeat`], wire format in
//! `docs/WIRE.md` §7) to every watched peer and looks for watched peers
//! silent past `interval × misses`; the router consumes heartbeats and
//! refreshes a sender's last-seen clock on **any** inbound frame. A silent
//! peer — detected within `interval × misses + interval` — or one whose
//! death the transport reports ([`TransportError::PeerDown`]) is declared
//! dead **once**: every open session receives an in-band `PeerDown` and
//! fails fast with a typed error instead of starving until its timeout.
//! Detection events and their latency surface in [`MuxMetrics`].

use crate::frame::{decode_heartbeat, encode_heartbeat, peek_session};
use crate::transport::{
    Delivery, Offer, PartyId, Physical, SessionId, Sink, Transport, TransportError, RETRY_TICK,
};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Default bound on one session's inbound queue, in frames.
pub const DEFAULT_SESSION_QUEUE: usize = 1024;

/// How long a full session queue may go without taking a frame before
/// the frames held for it are shed (see the module docs).
pub const STALL_BUDGET: Duration = Duration::from_millis(50);

/// Default heartbeat send interval for [`SessionMux::start_liveness`].
pub const DEFAULT_HEARTBEAT_INTERVAL: Duration = Duration::from_millis(500);

/// Default number of missed heartbeat intervals after which a silent peer
/// is declared down. The liveness budget is `interval × misses`.
pub const DEFAULT_LIVENESS_MISSES: u32 = 3;

counters! {
/// Counters a [`SessionMux`] keeps about its traffic.
pub struct MuxMetrics, cells MetricCells {
    /// Frames successfully routed to a session queue.
    pub frames_routed: u64,
    /// Frames sent out through this mux (every one a sealed frame).
    pub frames_sent: u64,
    /// Bytes sent out through this mux (sealed bytes on the wire).
    pub bytes_sent: u64,
    /// Inbound frames dropped because their session id was unknown
    /// (including frames too short to carry an envelope), and every
    /// arrival after [`SessionMux::shutdown`].
    pub unknown_session_dropped: u64,
    /// Inbound frames shed because the owning session's queue stayed full
    /// past the stall budget.
    pub shed_frames: u64,
    /// Sessions opened over the lifetime of the mux.
    pub sessions_opened: u64,
    /// Peers this mux declared dead (socket close, hub kill, or missed
    /// heartbeats).
    pub peers_down: u64,
    /// Summed detection latency over every [`MuxMetrics::peers_down`]
    /// event, in microseconds: how long the peer had been silent when it
    /// was declared dead (≈ 0 for transport-notified deaths, ≈ the
    /// liveness budget for heartbeat-detected ones).
    pub peer_down_latency_us: u64,
    /// Peers revived after a death verdict: a heartbeat suspicion that
    /// cleared because the peer resumed sending, so later sessions run
    /// against it again.
    pub peers_recovered: u64,
    /// Heartbeat frames this mux emitted.
    pub heartbeats_sent: u64,
    /// Heartbeat frames this mux consumed.
    pub heartbeats_seen: u64,
}
}

struct Route {
    // Distinguishes reincarnations of one session id, so a stale
    // endpoint's Drop can never tear down a reopened session's route.
    generation: u64,
    /// The session's inbound queue: frames and peer-death markers share
    /// it, so a role blocked in `recv` wakes the moment a peer is
    /// declared dead.
    tx: SyncSender<Delivery>,
    /// When a frame last found the queue full, unless one has fit since.
    full_since: Option<Instant>,
}

#[derive(Default)]
struct Liveness {
    /// Peers watched since [`SessionMux::start_liveness`], and when each
    /// was last heard from (any frame counts).
    last_seen: HashMap<PartyId, Instant>,
    /// Peers under a death verdict, watched or not: declared once per
    /// death, removed when the peer sends again.
    down: HashSet<PartyId>,
}

struct MuxShared<T: Transport> {
    inner: T,
    /// [`Physical::retry_held`] of `inner`, for the consumers.
    retry_held: fn(&T) -> bool,
    routes: Mutex<HashMap<SessionId, Route>>,
    liveness: Mutex<Liveness>,
    metrics: MetricCells,
    queue_depth: usize,
    next_generation: AtomicU64,
    shutdown: AtomicBool,
}

impl<T: Transport> MuxShared<T> {
    fn remove_route(&self, session: SessionId, generation: Option<u64>) {
        let mut routes = self.routes.lock();
        if let Some(route) = routes.get(&session) {
            if generation.is_none_or(|g| g == route.generation) {
                routes.remove(&session);
            }
        }
    }

    fn count(&self, counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// The router, run by the thread that holds each arrival. A frame for
    /// a queue that stayed full past [`STALL_BUDGET`] is shed.
    fn route(&self, delivery: Delivery) -> Offer {
        if self.shutdown.load(Ordering::Acquire) {
            self.count(&self.metrics.unknown_session_dropped);
            return Offer::Taken;
        }
        let (from, payload) = match &delivery {
            Delivery::Frame(from, payload) => (*from, payload),
            // The transport itself reported the death (socket close, hub
            // kill) or dropped the connection over an oversize claim:
            // sessions talking to the peer fail fast, siblings keep
            // running.
            Delivery::PeerDown(peer) | Delivery::Oversize(peer, _) => {
                self.declare_peer_down(*peer);
                return Offer::Taken;
            }
        };
        self.heard_from(from);
        if decode_heartbeat(payload).is_some() {
            // Pure liveness traffic: the clock was refreshed above.
            self.count(&self.metrics.heartbeats_seen);
            return Offer::Taken;
        }
        let Some(session) = peek_session(payload) else {
            self.count(&self.metrics.unknown_session_dropped);
            return Offer::Taken;
        };
        let mut routes = self.routes.lock();
        let Some(route) = routes.get_mut(&session) else {
            self.count(&self.metrics.unknown_session_dropped);
            return Offer::Taken;
        };
        match route.tx.try_send(delivery) {
            Ok(()) => {
                route.full_since = None;
                self.count(&self.metrics.frames_routed);
            }
            Err(TrySendError::Full(delivery)) => {
                let since = *route.full_since.get_or_insert_with(Instant::now);
                if since.elapsed() < STALL_BUDGET {
                    return Offer::Full(delivery);
                }
                self.count(&self.metrics.shed_frames);
            }
            Err(TrySendError::Disconnected(_)) => {
                // Endpoint dropped without close_session: reap the route.
                routes.remove(&session);
                self.count(&self.metrics.unknown_session_dropped);
            }
        }
        Offer::Taken
    }

    /// Declares a peer dead exactly once: counts it, records the silence
    /// duration as detection latency, and offers an in-band
    /// [`Delivery::PeerDown`] to every open session so blocked receivers
    /// fail fast with [`TransportError::PeerDown`] instead of waiting out
    /// their protocol timeouts. Sessions that never talk to the peer
    /// simply ignore the transient error at the protocol layer.
    ///
    /// The in-band marker is the *wakeup* path only — it is offered once
    /// and dropped on a full queue, and sessions opened after the
    /// declaration never see it. The durable record is the liveness
    /// `down` set, which every endpoint consults on idle receive slices
    /// ([`MuxShared::unreported_down`]), so no session can permanently
    /// miss a death.
    fn declare_peer_down(&self, peer: PartyId) {
        {
            let mut liveness = self.liveness.lock();
            if !liveness.down.insert(peer) {
                return; // already declared
            }
            // Zero for an unwatched peer, whose death the transport reported.
            let silence = liveness.last_seen.get(&peer).map(Instant::elapsed);
            self.count(&self.metrics.peers_down);
            self.metrics.peer_down_latency_us.fetch_add(
                silence.unwrap_or_default().as_micros() as u64,
                Ordering::Relaxed,
            );
        }
        self.routes.lock().retain(|_, route| {
            !matches!(
                route.tx.try_send(Delivery::PeerDown(peer)),
                Err(TrySendError::Disconnected(_))
            )
        });
    }

    /// The durable half of peer-death delivery: returns one declared-dead
    /// peer this endpoint has not reported yet (recording it in
    /// `reported`), or `None`. Endpoints call this on idle receive
    /// slices, which makes death reports survive a dropped in-band marker
    /// and reach sessions opened *after* the declaration — at the cost of
    /// one liveness-lock peek per idle slice.
    fn unreported_down(&self, reported: &mut HashSet<PartyId>) -> Option<PartyId> {
        let liveness = self.liveness.lock();
        let peer = liveness
            .down
            .iter()
            .find(|p| !reported.contains(p))
            .copied()?;
        reported.insert(peer);
        Some(peer)
    }

    /// Refreshes a watched peer's liveness clock (any inbound traffic
    /// counts — heartbeats only cover idle links). A frame from a peer in
    /// the `down` set **revives** it: a missed-heartbeat verdict is a
    /// suspicion, not a fact, and a peer that sends again was only slow.
    /// The verdict is removed, so sessions opened afterwards run against
    /// the recovered peer instead of failing on a stale suspicion.
    /// Sessions that already consumed the death keep their typed
    /// failure — revival is forward-looking only.
    fn heard_from(&self, peer: PartyId) {
        let mut liveness = self.liveness.lock();
        if liveness.down.remove(&peer) {
            self.count(&self.metrics.peers_recovered);
        }
        if let Some(seen) = liveness.last_seen.get_mut(&peer) {
            *seen = Instant::now();
        }
    }
}

/// The router a [`SessionMux`] installs as its endpoint's [`Sink`]. It
/// holds the mux weakly: the endpoint lives inside the mux.
impl<T: Transport> Sink for Weak<MuxShared<T>> {
    fn deliver(&self, delivery: Delivery) -> Offer {
        self.upgrade()
            .map_or(Offer::Gone, |shared| shared.route(delivery))
    }

    fn closed(&self) {
        // Blocked session endpoints see Disconnected at once instead of
        // waiting out their protocol timeouts.
        if let Some(shared) = self.upgrade() {
            shared.routes.lock().clear();
        }
    }
}

/// Demultiplexes one physical [`Transport`] endpoint into per-session
/// virtual endpoints. Cheap to clone (all clones share the endpoint).
pub struct SessionMux<T: Transport + 'static> {
    shared: Arc<MuxShared<T>>,
}

impl<T: Transport + 'static> Clone for SessionMux<T> {
    fn clone(&self) -> Self {
        SessionMux {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T: Physical + 'static> SessionMux<T> {
    /// Wraps a physical endpoint, installing the mux's router as its
    /// [`Sink`] ([`Physical::install_sink`]), with
    /// [`DEFAULT_SESSION_QUEUE`] frames per session queue.
    pub fn new(inner: T) -> Self {
        Self::with_queue_depth(inner, DEFAULT_SESSION_QUEUE)
    }

    pub(crate) fn with_queue_depth(inner: T, queue_depth: usize) -> Self {
        let shared = Arc::new(MuxShared {
            inner,
            retry_held: T::retry_held,
            routes: Mutex::new(HashMap::new()),
            liveness: Mutex::default(),
            metrics: MetricCells::default(),
            queue_depth,
            next_generation: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
        });
        shared.inner.install_sink(Arc::new(Arc::downgrade(&shared)));
        SessionMux { shared }
    }
}

impl<T: Transport + 'static> SessionMux<T> {
    /// The physical endpoint's party id (shared by every session lane).
    pub fn local_id(&self) -> PartyId {
        self.shared.inner.local_id()
    }

    /// Opens a virtual endpoint for `session`. Frames stamped with this id
    /// are routed to (only) the returned endpoint.
    ///
    /// # Errors
    ///
    /// Returns [`TransportError::DuplicateSession`] when the session is
    /// already open on this mux.
    pub fn open_session(&self, session: SessionId) -> Result<MuxEndpoint<T>, TransportError> {
        if session == SessionId::LIVENESS {
            // The liveness plane permanently owns this id; frames stamped
            // with it are heartbeats the router consumes, never session
            // traffic.
            return Err(TransportError::DuplicateSession(session));
        }
        let (tx, rx) = std::sync::mpsc::sync_channel(self.shared.queue_depth);
        let generation = self.shared.next_generation.fetch_add(1, Ordering::Relaxed);
        let mut routes = self.shared.routes.lock();
        if routes.contains_key(&session) {
            return Err(TransportError::DuplicateSession(session));
        }
        routes.insert(
            session,
            Route {
                generation,
                tx,
                full_since: None,
            },
        );
        self.shared.count(&self.shared.metrics.sessions_opened);
        Ok(MuxEndpoint {
            session,
            generation,
            shared: Arc::clone(&self.shared),
            inbox: Mutex::new(rx),
            reported_down: Mutex::new(HashSet::new()),
        })
    }

    /// Closes a session's route. Its endpoint (if still alive) sees
    /// [`TransportError::Disconnected`] on the next receive — the abort
    /// lever a server pulls to cancel one session without touching its
    /// siblings. Frames for the id are henceforth counted as unknown.
    pub fn close_session(&self, session: SessionId) {
        self.shared.remove_route(session, None);
    }

    /// A snapshot of the mux's traffic counters.
    pub fn metrics(&self) -> MuxMetrics {
        self.shared.metrics.snapshot()
    }

    /// Stops the mux: open sessions see `Disconnected`, later arrivals are
    /// counted in [`MuxMetrics::unknown_session_dropped`] and dropped, and
    /// the liveness thread exits within one interval. Sends still work.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.routes.lock().clear();
    }

    /// Starts peer-liveness tracking on one thread: each `interval` it
    /// sends a heartbeat to every peer in `watch` and declares any
    /// watched peer dead after `misses` intervals of total silence (any
    /// inbound frame refreshes the clock, so heartbeats only matter on
    /// idle links). Every clock starts now: watched peers are reachable
    /// before liveness starts (a TCP mesh is connected when it is built),
    /// so a peer silent for one budget from the start is declared dead
    /// like any other. A peer whose death the transport reports directly
    /// (socket close, hub kill) is declared immediately; a peer whose
    /// heartbeat *sends* keep failing is declared after `misses`
    /// consecutive failures.
    ///
    /// On a declared death every open session receives an in-band
    /// [`TransportError::PeerDown`]; see
    /// [`MuxMetrics::peers_down`] / [`MuxMetrics::peer_down_latency_us`]
    /// for the observability side.
    ///
    /// Call at most once per mux, before traffic flows.
    pub fn start_liveness(&self, watch: Vec<PartyId>, interval: Duration, misses: u32) {
        assert!(!interval.is_zero(), "heartbeat interval must be positive");
        let me = self.shared.inner.local_id();
        let now = Instant::now();
        {
            let mut liveness = self.shared.liveness.lock();
            // Never watch ourselves: nobody heartbeats us on our own
            // endpoint, so a self-entry would "detect" our own silence.
            for &peer in watch.iter().filter(|&&p| p != me) {
                liveness.last_seen.entry(peer).or_insert(now);
            }
        }
        let shared = Arc::clone(&self.shared);
        let _ = std::thread::Builder::new()
            .name(format!("mux-liveness-{}", self.shared.inner.local_id()))
            .spawn(move || liveness_loop(&shared, watch, interval, misses));
    }
}

fn liveness_loop<T: Transport>(
    shared: &MuxShared<T>,
    watch: Vec<PartyId>,
    interval: Duration,
    misses: u32,
) {
    let me = shared.inner.local_id();
    let mut seq = 1u64;
    let mut gone: HashSet<PartyId> = HashSet::new();
    let mut consecutive_failures: HashMap<PartyId, u32> = HashMap::new();
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Resume beating peers the router revived (their death verdict
        // was withdrawn after they sent again).
        gone.retain(|p| shared.liveness.lock().down.contains(p));
        // The hub's held frames get a turn even while no consumer
        // receives, so a stuck session's frames are shed in time.
        (shared.retry_held)(&shared.inner);
        for &peer in &watch {
            if peer == me || gone.contains(&peer) {
                continue;
            }
            // send_liveness, not send: it never blocks, so one saturated
            // peer cannot stall this loop long enough to starve beats to
            // the healthy peers.
            match shared.inner.send_liveness(peer, encode_heartbeat(me, seq)) {
                Ok(()) => {
                    consecutive_failures.remove(&peer);
                    shared.count(&shared.metrics.heartbeats_sent);
                }
                Err(_) => {
                    // Unreachable from the send side: the same `misses`
                    // budget the receive side uses decides when it
                    // becomes a death report.
                    let fails = consecutive_failures.entry(peer).or_insert(0);
                    *fails += 1;
                    if *fails >= misses.max(1) {
                        gone.insert(peer);
                        shared.declare_peer_down(peer);
                    }
                }
            }
        }
        // The receive side, once per interval: watched peers silent past
        // the budget. Detection takes at most one interval longer than it.
        let silent: Vec<PartyId> = {
            let liveness = shared.liveness.lock();
            let budget = interval * misses.max(1);
            let silent = |(peer, seen): (&PartyId, &Instant)| {
                (!liveness.down.contains(peer) && seen.elapsed() > budget).then_some(*peer)
            };
            liveness.last_seen.iter().filter_map(silent).collect()
        };
        for peer in silent {
            shared.declare_peer_down(peer);
        }
        seq += 1;
        std::thread::sleep(interval);
    }
}

/// One session's virtual endpoint over a shared physical transport.
///
/// Sends pass straight through to the physical endpoint (payloads are
/// sealed frames that already carry the session stamp); receives drain
/// the session's bounded queue. Dropping the endpoint closes the
/// session's route on the mux.
pub struct MuxEndpoint<T: Transport + 'static> {
    session: SessionId,
    generation: u64,
    shared: Arc<MuxShared<T>>,
    inbox: Mutex<Receiver<Delivery>>,
    /// Peers whose death this endpoint already surfaced (in-band marker
    /// or idle-slice pickup) — each death is reported at most twice per
    /// endpoint, never repeatedly.
    reported_down: Mutex<HashSet<PartyId>>,
}

impl<T: Transport + 'static> MuxEndpoint<T> {
    /// The session this endpoint belongs to.
    pub fn session(&self) -> SessionId {
        self.session
    }
}

impl<T: Transport + 'static> Transport for MuxEndpoint<T> {
    fn local_id(&self) -> PartyId {
        self.shared.inner.local_id()
    }

    fn send(&self, to: PartyId, payload: Bytes) -> Result<(), TransportError> {
        let len = payload.len() as u64;
        self.shared.inner.send(to, payload)?;
        // Counted only after the physical send succeeds, so bytes_sealed
        // never reports traffic that failed to reach the wire.
        let metrics = &self.shared.metrics;
        metrics.bytes_sent.fetch_add(len, Ordering::Relaxed);
        self.shared.count(&metrics.frames_sent);
        Ok(())
    }

    fn recv(&self) -> Result<(PartyId, Bytes), TransportError> {
        self.recv_timeout(Duration::MAX)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(PartyId, Bytes), TransportError> {
        // Waits in slices: an idle one consults the durable down set (a
        // death whose marker was dropped, or came before this session
        // opened) and, on a hub lane, offers held frames again.
        let start = Instant::now();
        let inbox = self.inbox.lock();
        let popped = loop {
            let tick = match inbox.try_recv() {
                Err(TryRecvError::Empty) if (self.shared.retry_held)(&self.shared.inner) => {
                    RETRY_TICK
                }
                Err(TryRecvError::Empty) => Duration::from_millis(200),
                popped => break popped.ok(),
            };
            let left = timeout.saturating_sub(start.elapsed());
            match inbox.recv_timeout(left.min(tick)) {
                Err(RecvTimeoutError::Timeout) => {
                    let reported = &mut self.reported_down.lock();
                    if let Some(peer) = self.shared.unreported_down(reported) {
                        return Err(TransportError::PeerDown(peer));
                    } else if left <= tick {
                        return Err(TransportError::Timeout);
                    }
                }
                popped => break popped.ok(),
            }
        };
        match popped {
            Some(Delivery::Frame(from, payload)) => Ok((from, payload)),
            Some(Delivery::PeerDown(peer) | Delivery::Oversize(peer, _)) => {
                self.reported_down.lock().insert(peer);
                Err(TransportError::PeerDown(peer))
            }
            None => Err(TransportError::Disconnected),
        }
    }
}

impl<T: Transport + 'static> Drop for MuxEndpoint<T> {
    fn drop(&mut self) {
        self.shared
            .remove_route(self.session, Some(self.generation));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{Node, NodeError};
    use crate::transport::InMemoryHub;

    /// Two muxed lanes over one hub, with an endpoint pair per session.
    fn mux_pair() -> (
        SessionMux<crate::transport::Endpoint>,
        SessionMux<crate::transport::Endpoint>,
    ) {
        let hub = InMemoryHub::new();
        (
            SessionMux::new(hub.endpoint(PartyId(1))),
            SessionMux::new(hub.endpoint(PartyId(2))),
        )
    }

    fn node_for(
        mux: &SessionMux<crate::transport::Endpoint>,
        session: SessionId,
        secret: u64,
    ) -> Node<MuxEndpoint<crate::transport::Endpoint>> {
        Node::for_session(mux.open_session(session).unwrap(), secret, session)
    }

    const WAIT: Duration = Duration::from_secs(5);

    #[test]
    fn sessions_interleave_over_one_mesh() {
        let (m1, m2) = mux_pair();
        let a1 = node_for(&m1, SessionId(1), 7);
        let a2 = node_for(&m1, SessionId(2), 7);
        let b1 = node_for(&m2, SessionId(1), 7);
        let b2 = node_for(&m2, SessionId(2), 7);

        a1.send_msg(PartyId(2), &10u32).unwrap();
        a2.send_msg(PartyId(2), &20u32).unwrap();
        a1.send_msg(PartyId(2), &11u32).unwrap();

        let (_, x1): (PartyId, u32) = b1.recv_msg_timeout(WAIT).unwrap();
        let (_, x2): (PartyId, u32) = b2.recv_msg_timeout(WAIT).unwrap();
        let (_, x3): (PartyId, u32) = b1.recv_msg_timeout(WAIT).unwrap();
        assert_eq!((x1, x2, x3), (10, 20, 11));
        assert!(m2.metrics().frames_routed >= 3);
    }

    #[test]
    fn unknown_session_frames_counted_and_dropped() {
        let (m1, m2) = mux_pair();
        let a9 = node_for(&m1, SessionId(9), 7); // not open on m2
        let b1 = node_for(&m2, SessionId(1), 7);

        a9.send_msg(PartyId(2), &1u32).unwrap();
        // The live session stays usable after the stray frame.
        let a1 = node_for(&m1, SessionId(1), 7);
        a1.send_msg(PartyId(2), &2u32).unwrap();
        let (_, got): (PartyId, u32) = b1.recv_msg_timeout(WAIT).unwrap();
        assert_eq!(got, 2);
        assert_eq!(m2.metrics().unknown_session_dropped, 1);
    }

    #[test]
    fn frame_below_the_sealed_floor_is_dropped_as_unknown() {
        use crate::frame::{encode_heartbeat, MIN_SEALED_LEN};
        let (m1, m2) = mux_pair();
        let a1 = node_for(&m1, SessionId(1), 7);
        let b1 = node_for(&m2, SessionId(1), 7);

        // Stamped for the live session, one byte short of a sealed frame.
        let mut short = vec![0u8; MIN_SEALED_LEN - 1];
        short[..8].copy_from_slice(&1u64.to_le_bytes());
        a1.transport().send(PartyId(2), Bytes::from(short)).unwrap();
        a1.transport()
            .send(PartyId(2), encode_heartbeat(PartyId(1), 1))
            .unwrap();
        a1.send_msg(PartyId(2), &3u32).unwrap();
        let (_, got): (PartyId, u32) = b1.recv_msg_timeout(WAIT).unwrap();
        assert_eq!(got, 3);
        let metrics = m2.metrics();
        assert_eq!(
            (metrics.unknown_session_dropped, metrics.heartbeats_seen),
            (1, 1)
        );
    }

    #[test]
    fn garbage_frame_aborts_only_the_session_it_claims() {
        let (m1, m2) = mux_pair();
        let a1 = node_for(&m1, SessionId(1), 7);
        let a2 = node_for(&m1, SessionId(2), 7);
        let b1 = node_for(&m2, SessionId(1), 7);
        let b2 = node_for(&m2, SessionId(2), 7);

        // Hand-craft a garbage frame claiming session 1: long enough to be
        // a sealed frame, sealed under no valid key.
        let mut garbage = vec![0u8; 48];
        garbage[..8].copy_from_slice(&1u64.to_le_bytes());
        a1.transport()
            .send(PartyId(2), Bytes::from(garbage))
            .unwrap();
        a2.send_msg(PartyId(2), &99u32).unwrap();

        // Session 1 aborts with a crypto error…
        let err = b1.recv_msg_timeout::<u32>(WAIT).unwrap_err();
        assert!(matches!(err, NodeError::Frame(_)), "{err}");
        // …while session 2 is untouched.
        let (_, got): (PartyId, u32) = b2.recv_msg_timeout(WAIT).unwrap();
        assert_eq!(got, 99);
    }

    #[test]
    fn full_session_queue_sheds_instead_of_blocking_siblings() {
        let hub = InMemoryHub::new();
        let m2 = SessionMux::with_queue_depth(hub.endpoint(PartyId(2)), 2);
        let m1 = SessionMux::new(hub.endpoint(PartyId(1)));
        let slow = node_for(&m1, SessionId(1), 7);
        let fast = node_for(&m1, SessionId(2), 7);
        let b_slow = m2.open_session(SessionId(1)).unwrap();
        let b_fast = node_for(&m2, SessionId(2), 7);

        // Overfill session 1's depth-2 queue; nobody drains it.
        for i in 0..8u32 {
            slow.send_msg(PartyId(2), &i).unwrap();
        }
        // Session 2 still flows.
        fast.send_msg(PartyId(2), &1234u32).unwrap();
        let (_, got): (PartyId, u32) = b_fast.recv_msg_timeout(WAIT).unwrap();
        assert_eq!(got, 1234);

        // Wait out the stall budget for the remaining sheds to resolve.
        let deadline = Instant::now() + Duration::from_secs(10);
        while m2.metrics().shed_frames == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(m2.metrics().shed_frames > 0, "overflow must shed");
        drop(b_slow);
    }

    #[test]
    fn close_session_disconnects_endpoint() {
        let (m1, _m2) = mux_pair();
        let a1 = m1.open_session(SessionId(1)).unwrap();
        m1.close_session(SessionId(1));
        assert_eq!(a1.recv().unwrap_err(), TransportError::Disconnected);
        assert_eq!(m1.shared.routes.lock().len(), 0);
        // The id can be reopened after close.
        assert!(m1.open_session(SessionId(1)).is_ok());
    }

    #[test]
    fn shutdown_disconnects_sessions_promptly() {
        let (m1, _m2) = mux_pair();
        let a1 = m1.open_session(SessionId(1)).unwrap();
        let start = Instant::now();
        m1.shutdown();
        assert_eq!(a1.recv().unwrap_err(), TransportError::Disconnected);
        assert!(
            start.elapsed() < Duration::from_millis(150),
            "shutdown took {:?}",
            start.elapsed()
        );
    }

    /// A control frame of `session` that the mux can route (it never
    /// opens it).
    fn sealed(session: SessionId, n: u64, len: usize) -> Bytes {
        use crate::crypto::ChannelKey;
        use crate::frame::{seal_frame, Frame, FrameKind};
        let frame = Frame {
            kind: FrameKind::Control,
            msg_id: n,
            seq: 0,
            last: true,
            payload: Bytes::from(vec![n as u8; len]),
        };
        seal_frame(ChannelKey::derive(9, 1, 2), n, session, &frame)
    }

    #[test]
    fn shut_down_mux_drops_and_counts_every_arrival() {
        let hub = InMemoryHub::new();
        let a = hub.endpoint(PartyId(1));
        let m2 = SessionMux::new(hub.endpoint(PartyId(2)));
        let _s1 = m2.open_session(SessionId(1)).unwrap();
        m2.shutdown();
        const N: u64 = 25;
        for n in 0..N {
            a.send(PartyId(2), sealed(SessionId(1), n, 4)).unwrap();
        }
        // Nothing buffers behind a stopped mux: every arrival is counted
        // and dropped as it lands.
        assert_eq!(m2.metrics().unknown_session_dropped, N);
        assert_eq!(m2.metrics().frames_routed, 0);
    }

    #[test]
    fn hub_send_routes_on_the_sending_thread() {
        let (m1, m2) = mux_pair();
        let a = node_for(&m1, SessionId(3), 7);
        let b = m2.open_session(SessionId(3)).unwrap();
        for i in 0..50u32 {
            a.send_msg(PartyId(2), &i).unwrap();
            // The frame sits in the session queue by the time send
            // returns: no thread stands between the two.
            let (from, _) = b.recv_timeout(Duration::ZERO).unwrap();
            assert_eq!(from, PartyId(1));
        }
        assert_eq!(m2.metrics().frames_routed, 50);
    }

    /// A localhost TCP mesh of `n` reactor endpoints, parties `1..=n`.
    fn tcp_mesh(n: u64) -> Vec<crate::reactor::ReactorTransport> {
        let ids: Vec<PartyId> = (1..=n).map(PartyId).collect();
        crate::tcp::local_mesh(&ids).unwrap()
    }

    #[test]
    fn hub_sender_that_is_its_own_consumer_is_paced_not_shed() {
        // SAP's exchange plan can map a provider to itself: the role
        // streams its whole dataset into its own lane before it reads.
        let hub = InMemoryHub::new();
        let lane = SessionMux::with_queue_depth(hub.endpoint(PartyId(1)), 2);
        let own = lane.open_session(SessionId(1)).unwrap();
        let frames: Vec<Bytes> = (0..20).map(|n| sealed(SessionId(1), n, 16)).collect();
        for frame in &frames {
            // Held past the queue's two slots; the send never waits.
            own.send(PartyId(1), frame.clone()).unwrap();
        }
        // Busy past the stall budget before the role turns to receiving.
        std::thread::sleep(STALL_BUDGET * 2);
        for frame in &frames {
            assert_eq!(own.recv_timeout(WAIT).unwrap(), (PartyId(1), frame.clone()));
        }
        assert_eq!(lane.metrics().shed_frames, 0);
        assert_eq!(lane.metrics().frames_routed, 20);
    }

    #[test]
    fn tcp_full_queue_holds_only_its_source() {
        let mut mesh = tcp_mesh(3);
        let r = SessionMux::with_queue_depth(mesh.pop().unwrap(), 2);
        let b = mesh.pop().unwrap();
        let a = mesh.pop().unwrap();
        let stuck = r.open_session(SessionId(1)).unwrap();
        let sibling = r.open_session(SessionId(2)).unwrap();

        // Nobody drains session 1: its depth-2 queue fills and the reactor
        // holds a's frames from the third on.
        for n in 0..5 {
            a.send(PartyId(3), sealed(SessionId(1), n, 16)).unwrap();
        }
        let deadline = Instant::now() + WAIT;
        while r.metrics().frames_routed < 2 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(r.metrics().frames_routed, 2);

        // A sibling fed over another connection still receives…
        let frame = sealed(SessionId(2), 9, 16);
        b.send(PartyId(3), frame.clone()).unwrap();
        assert_eq!(sibling.recv_timeout(WAIT).unwrap(), (PartyId(2), frame));
        // …and the stuck session still sends.
        let reply = sealed(SessionId(1), 10, 16);
        stuck.send(PartyId(1), reply.clone()).unwrap();
        assert_eq!(a.recv_timeout(WAIT).unwrap(), (PartyId(3), reply));

        // Once the queue has taken nothing for the stall budget, the held
        // frames are shed.
        let deadline = Instant::now() + WAIT;
        while r.metrics().shed_frames < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(r.metrics().shed_frames, 3);
        assert_eq!(r.metrics().frames_routed, 3);
    }

    #[test]
    fn tcp_slow_consumer_is_paced_not_shed() {
        let mut mesh = tcp_mesh(2);
        let r = SessionMux::with_queue_depth(mesh.pop().unwrap(), 2);
        let a = mesh.pop().unwrap();
        let slow = r.open_session(SessionId(1)).unwrap();
        const FRAMES: u64 = 20;
        let frames: Vec<Bytes> = (0..FRAMES).map(|n| sealed(SessionId(1), n, 16)).collect();
        for frame in &frames {
            a.send(PartyId(2), frame.clone()).unwrap();
        }
        // The consumer drains one frame every 2 ms, far inside the stall
        // budget: its frames are held again and again, and every frame
        // arrives, in order.
        for frame in &frames {
            std::thread::sleep(Duration::from_millis(2));
            assert_eq!(
                slow.recv_timeout(WAIT).unwrap(),
                (PartyId(1), frame.clone())
            );
        }
        assert_eq!(r.metrics().shed_frames, 0);
        assert_eq!(r.metrics().frames_routed, FRAMES);
    }

    #[test]
    fn silent_peer_detected_by_missed_heartbeats() {
        let (m1, m2) = mux_pair();
        let interval = Duration::from_millis(25);
        let misses = 3;
        // Both sides beat; any regular frame would also refresh the clock.
        m1.start_liveness(vec![PartyId(2)], interval, misses);
        m2.start_liveness(vec![PartyId(1)], interval, misses);
        let a1 = m1.open_session(SessionId(1)).unwrap();
        std::thread::sleep(interval * 6);
        assert_eq!(m1.metrics().peers_down, 0, "live peer never declared");
        assert!(m1.metrics().heartbeats_seen > 0, "beats flowed");

        // Party 2 goes silent (shutdown stops its emitter, but its hub
        // endpoint stays registered — only the heartbeat absence tells).
        m2.shutdown();
        let start = Instant::now();
        let err = a1.recv_timeout(Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, TransportError::PeerDown(PartyId(2)));
        assert!(
            start.elapsed() < 2 * interval * misses + Duration::from_millis(400),
            "detection took {:?}, budget is {:?}",
            start.elapsed(),
            interval * misses
        );
        let m = m1.metrics();
        assert_eq!(m.peers_down, 1);
        assert!(
            m.peer_down_latency_us >= (interval * misses).as_micros() as u64,
            "latency {} below the silence budget",
            m.peer_down_latency_us
        );
    }

    #[test]
    fn transport_reported_death_broadcasts_to_every_session() {
        let hub = InMemoryHub::new();
        let m2 = SessionMux::new(hub.endpoint(PartyId(2)));
        let _dead = hub.endpoint(PartyId(1));
        let a = m2.open_session(SessionId(1)).unwrap();
        let b = m2.open_session(SessionId(2)).unwrap();
        hub.kill(PartyId(1));
        assert_eq!(
            a.recv_timeout(WAIT).unwrap_err(),
            TransportError::PeerDown(PartyId(1))
        );
        assert_eq!(
            b.recv_timeout(WAIT).unwrap_err(),
            TransportError::PeerDown(PartyId(1))
        );
        // Declared exactly once, near-zero detection latency, and the
        // sessions stay open (the error is transient, not a disconnect).
        assert_eq!(m2.metrics().peers_down, 1);
        assert_eq!(m2.shared.routes.lock().len(), 2);
    }

    #[test]
    fn late_opened_session_learns_of_prior_death() {
        // The in-band marker only reaches sessions open at declaration
        // time (and can be shed under backpressure); the durable down
        // set must cover everyone else: a session opened *after* the
        // death still gets the typed failure on its first idle slice.
        let hub = InMemoryHub::new();
        let m2 = SessionMux::new(hub.endpoint(PartyId(2)));
        let _dead = hub.endpoint(PartyId(1));
        hub.kill(PartyId(1));
        let deadline = Instant::now() + WAIT;
        while m2.metrics().peers_down == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(m2.metrics().peers_down, 1);

        let late = m2.open_session(SessionId(9)).unwrap();
        assert_eq!(
            late.recv_timeout(Duration::from_millis(200)).unwrap_err(),
            TransportError::PeerDown(PartyId(1))
        );
        // Reported once per endpoint; afterwards idle receives time out
        // normally instead of replaying the death forever.
        assert_eq!(
            late.recv_timeout(Duration::from_millis(50)).unwrap_err(),
            TransportError::Timeout
        );
    }

    #[test]
    fn recovered_peer_is_not_reported_to_new_sessions() {
        use crate::frame::encode_heartbeat;

        let hub = InMemoryHub::new();
        let m2 = SessionMux::new(hub.endpoint(PartyId(2)));
        let dead = hub.endpoint(PartyId(1));
        hub.kill(PartyId(1));
        let deadline = Instant::now() + WAIT;
        while m2.metrics().peers_down == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(dead);

        // Party 1's process restarts and sends again: the verdict lifts.
        let revived = hub.endpoint(PartyId(1));
        revived
            .send(PartyId(2), encode_heartbeat(PartyId(1), 1))
            .unwrap();
        let deadline = Instant::now() + WAIT;
        while m2.metrics().peers_recovered == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(m2.metrics().peers_recovered, 1);

        // A session opened now runs against the recovered peer instead
        // of failing on the cleared suspicion.
        let late = m2.open_session(SessionId(5)).unwrap();
        assert_eq!(
            late.recv_timeout(Duration::from_millis(100)).unwrap_err(),
            TransportError::Timeout
        );
    }

    #[test]
    fn liveness_session_id_is_reserved() {
        let (m1, _m2) = mux_pair();
        assert!(matches!(
            m1.open_session(SessionId::LIVENESS),
            Err(TransportError::DuplicateSession(SessionId::LIVENESS))
        ));
    }

    #[test]
    fn duplicate_session_is_typed_error() {
        let (m1, _m2) = mux_pair();
        let _a = m1.open_session(SessionId(4)).unwrap();
        let err = match m1.open_session(SessionId(4)) {
            Ok(_) => panic!("duplicate session must be rejected"),
            Err(e) => e,
        };
        assert_eq!(err, TransportError::DuplicateSession(SessionId(4)));
    }
}
