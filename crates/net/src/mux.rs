//! Session multiplexing: one physical mesh, many concurrent sessions.
//!
//! A [`SessionMux`] wraps a single physical [`Transport`] endpoint (hub or
//! TCP) and demultiplexes its inbound traffic into per-session virtual
//! endpoints ([`MuxEndpoint`]), routed by the plaintext — but
//! authenticated — session id that every wire-format-v3 sealed frame
//! carries ([`crate::frame::peek_session`]). The pump thread never opens
//! an envelope, so demultiplexing costs one 8-byte read per frame and no
//! session key ever leaves its session.
//!
//! # Queueing & backpressure
//!
//! Each open session owns a **bounded** inbound queue. When a session's
//! queue is full the pump briefly applies backpressure (it stalls up to
//! [`STALL_BUDGET`] waiting for the slow session to drain),
//! then **sheds the frame** and counts it — one stuck session must not
//! head-of-line-block every other session sharing the physical link. SAP
//! has no retransmission, so a shed frame aborts the losing session via
//! its own timeout; its siblings never notice.
//!
//! # The one-garbage-frame DoS, revisited
//!
//! The single-session TCP transport documents that any outsider who can
//! reach the port can abort *the* session with one garbage frame. Under
//! the mux the blast radius shrinks to exactly one session: a frame
//! stamped with an **unknown** session id is counted and dropped (the
//! connection and every live session keep running), and a garbage frame
//! stamped with a live session id fails to open *in that session only* —
//! its siblings share nothing with it but the pump thread.
//!
//! # Peer liveness
//!
//! With [`SessionMux::start_liveness`] enabled, the mux also runs the
//! failure-detection plane: a background emitter sends plaintext
//! heartbeat frames ([`crate::frame::encode_heartbeat`], wire format in
//! `docs/WIRE.md` §7) to every watched peer, the pump refreshes each
//! sender's last-seen clock on **any** inbound frame, and a watched peer
//! silent past `interval × misses` — or one whose death the transport
//! reports directly ([`TransportError::PeerDown`]) — is declared dead
//! **once**: every open session receives an in-band `PeerDown` and fails
//! fast with a typed error at the protocol layer instead of starving
//! until its timeout. Detection events and their latency surface in
//! [`MuxMetrics`].

use crate::frame::{decode_heartbeat, encode_heartbeat, peek_session};
use crate::transport::{PartyId, SessionId, Transport, TransportError};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Default bound on one session's inbound queue, in frames.
pub const DEFAULT_SESSION_QUEUE: usize = 1024;

/// How long the pump waits on one full session queue before shedding the
/// frame for that session.
pub const STALL_BUDGET: Duration = Duration::from_millis(50);

/// Default heartbeat send interval for [`SessionMux::start_liveness`].
pub const DEFAULT_HEARTBEAT_INTERVAL: Duration = Duration::from_millis(500);

/// Default number of missed heartbeat intervals after which a silent peer
/// is declared down. The liveness budget is `interval × misses`.
pub const DEFAULT_LIVENESS_MISSES: u32 = 3;

/// Counters a [`SessionMux`] keeps about its traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MuxMetrics {
    /// Frames successfully routed to a session queue.
    pub frames_routed: u64,
    /// Frames sent out through this mux (every one a sealed frame).
    pub frames_sent: u64,
    /// Bytes sent out through this mux (sealed bytes on the wire).
    pub bytes_sent: u64,
    /// Inbound frames dropped because their session id was unknown
    /// (including frames too short to carry a v3 envelope).
    pub unknown_session_dropped: u64,
    /// Inbound frames with no local route that a forwarding hook
    /// ([`SessionMux::set_forwarder`]) relayed — still sealed, never
    /// decoded — to another physical peer (a fleet's inter-node
    /// forwarding path).
    pub frames_forwarded: u64,
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
    /// Peers revived after a death verdict — they resumed sending, so
    /// later sessions (and retries) run against them again.
    pub peers_recovered: u64,
    /// Heartbeat frames this mux emitted.
    pub heartbeats_sent: u64,
    /// Heartbeat frames this mux's pump consumed.
    pub heartbeats_seen: u64,
}

#[derive(Default)]
struct MetricCells {
    frames_routed: AtomicU64,
    frames_sent: AtomicU64,
    bytes_sent: AtomicU64,
    unknown_session_dropped: AtomicU64,
    frames_forwarded: AtomicU64,
    shed_frames: AtomicU64,
    sessions_opened: AtomicU64,
    peers_down: AtomicU64,
    peer_down_latency_us: AtomicU64,
    peers_recovered: AtomicU64,
    heartbeats_sent: AtomicU64,
    heartbeats_seen: AtomicU64,
}

impl MetricCells {
    fn snapshot(&self) -> MuxMetrics {
        MuxMetrics {
            frames_routed: self.frames_routed.load(Ordering::Relaxed),
            frames_sent: self.frames_sent.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            unknown_session_dropped: self.unknown_session_dropped.load(Ordering::Relaxed),
            frames_forwarded: self.frames_forwarded.load(Ordering::Relaxed),
            shed_frames: self.shed_frames.load(Ordering::Relaxed),
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            peers_down: self.peers_down.load(Ordering::Relaxed),
            peer_down_latency_us: self.peer_down_latency_us.load(Ordering::Relaxed),
            peers_recovered: self.peers_recovered.load(Ordering::Relaxed),
            heartbeats_sent: self.heartbeats_sent.load(Ordering::Relaxed),
            heartbeats_seen: self.heartbeats_seen.load(Ordering::Relaxed),
        }
    }
}

/// One item of a session's inbound queue: frames and peer-death events
/// share the queue so a role blocked in `recv` wakes the moment a peer is
/// declared dead.
enum MuxItem {
    Frame(PartyId, Bytes),
    PeerDown(PartyId),
}

struct Route {
    // Distinguishes reincarnations of one session id, so a stale
    // endpoint's Drop can never tear down a reopened session's route.
    generation: u64,
    tx: SyncSender<MuxItem>,
}

/// Peer-liveness bookkeeping, enabled by [`SessionMux::start_liveness`].
struct Liveness {
    /// Watched peers and when each was last heard from (any frame counts,
    /// heartbeats merely cover idle links).
    last_seen: HashMap<PartyId, Instant>,
    /// Peers currently under a death verdict. A verdict is declared once
    /// per death; a peer that resumes sending is revived (removed here),
    /// and a later death counts as a new event.
    down: HashSet<PartyId>,
    /// Heartbeat send interval.
    interval: Duration,
    /// Silence budget in intervals before a watched peer is declared dead.
    misses: u32,
}

impl Liveness {
    fn budget(&self) -> Duration {
        self.interval * self.misses.max(1)
    }
}

/// The routing decision a forwarding hook returns for a frame with no
/// local route: the physical peer to relay the (still sealed) bytes to,
/// or `None` to drop it as unknown.
pub type Forwarder = dyn Fn(PartyId, SessionId, &Bytes) -> Option<PartyId> + Send + Sync;

struct MuxShared<T: Transport> {
    inner: T,
    routes: Mutex<HashMap<SessionId, Route>>,
    liveness: Mutex<Option<Liveness>>,
    forwarder: Mutex<Option<Arc<Forwarder>>>,
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

    /// Delivers one item to a session queue with bounded backpressure:
    /// try-send, stall up to [`STALL_BUDGET`] on a full queue, then shed.
    fn deliver(
        &self,
        session: SessionId,
        generation: u64,
        tx: &SyncSender<MuxItem>,
        item: MuxItem,
    ) {
        let routed = matches!(item, MuxItem::Frame(..));
        match tx.try_send(item) {
            Ok(()) => {
                if routed {
                    self.metrics.frames_routed.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(TrySendError::Disconnected(_)) => {
                // Endpoint dropped without close_session: reap the route.
                self.remove_route(session, Some(generation));
                self.metrics
                    .unknown_session_dropped
                    .fetch_add(1, Ordering::Relaxed);
            }
            Err(TrySendError::Full(item)) => {
                // Bounded backpressure, then shed: stall briefly for the
                // slow session, but never let it block its siblings
                // indefinitely.
                let deadline = Instant::now() + STALL_BUDGET;
                let mut item = item;
                loop {
                    std::thread::sleep(Duration::from_millis(1));
                    match tx.try_send(item) {
                        Ok(()) => {
                            if routed {
                                self.metrics.frames_routed.fetch_add(1, Ordering::Relaxed);
                            }
                            break;
                        }
                        Err(TrySendError::Disconnected(_)) => {
                            self.remove_route(session, Some(generation));
                            break;
                        }
                        Err(TrySendError::Full(back)) if Instant::now() < deadline => {
                            item = back;
                        }
                        Err(TrySendError::Full(_)) => {
                            self.metrics.shed_frames.fetch_add(1, Ordering::Relaxed);
                            break;
                        }
                    }
                }
            }
        }
    }

    /// Declares a peer dead exactly once: counts it, records the silence
    /// duration as detection latency, and broadcasts an in-band
    /// [`MuxItem::PeerDown`] to every open session so blocked receivers
    /// fail fast with [`TransportError::PeerDown`] instead of waiting out
    /// their protocol timeouts. Sessions that never talk to the peer
    /// simply ignore the transient error at the protocol layer.
    ///
    /// The in-band marker is the *wakeup* path only — it can be shed when
    /// a session's queue stays full past the stall budget, and sessions
    /// opened after the declaration never see it. The durable record is
    /// the liveness `down` set, which every endpoint consults on idle
    /// receive slices ([`MuxShared::unreported_down`]), so no session can
    /// permanently miss a death.
    fn declare_peer_down(&self, peer: PartyId) {
        {
            let mut liveness = self.liveness.lock();
            let silence_us = match liveness.as_mut() {
                Some(state) => {
                    if !state.down.insert(peer) {
                        return; // already declared
                    }
                    state
                        .last_seen
                        .get(&peer)
                        .map_or(0, |seen| seen.elapsed().as_micros() as u64)
                }
                // Liveness tracking off: transport-notified deaths still
                // broadcast (latency ~0), but only once per peer requires
                // the tracker — initialize a bare one.
                None => {
                    *liveness = Some(Liveness {
                        last_seen: HashMap::new(),
                        down: HashSet::from([peer]),
                        interval: DEFAULT_HEARTBEAT_INTERVAL,
                        misses: DEFAULT_LIVENESS_MISSES,
                    });
                    0
                }
            };
            self.metrics.peers_down.fetch_add(1, Ordering::Relaxed);
            self.metrics
                .peer_down_latency_us
                .fetch_add(silence_us, Ordering::Relaxed);
        }
        let targets: Vec<(SessionId, u64, SyncSender<MuxItem>)> = {
            let routes = self.routes.lock();
            routes
                .iter()
                .map(|(&s, r)| (s, r.generation, r.tx.clone()))
                .collect()
        };
        for (session, generation, tx) in targets {
            self.deliver(session, generation, &tx, MuxItem::PeerDown(peer));
        }
    }

    /// The durable half of peer-death delivery: returns one declared-dead
    /// peer this endpoint has not reported yet (recording it in
    /// `reported`), or `None`. Endpoints call this on idle receive
    /// slices, which makes death reports survive a shed in-band marker
    /// and reach sessions opened *after* the declaration — at the cost of
    /// one liveness-lock peek per idle slice.
    fn unreported_down(&self, reported: &mut HashSet<PartyId>) -> Option<PartyId> {
        let liveness = self.liveness.lock();
        let state = liveness.as_ref()?;
        let peer = state.down.iter().find(|p| !reported.contains(p)).copied()?;
        reported.insert(peer);
        Some(peer)
    }

    /// Refreshes a watched peer's liveness clock (any inbound traffic
    /// counts — heartbeats only cover idle links) and reports watched
    /// peers whose silence exceeded the budget. A frame from a peer in
    /// the `down` set **revives** it: the death verdict is removed, so
    /// sessions opened afterwards (e.g. peer-failure retries) run against
    /// the recovered peer instead of failing on a stale verdict. Sessions
    /// that already consumed the death keep their typed failure — revival
    /// is forward-looking only.
    fn observe_liveness(&self, heard_from: Option<PartyId>) -> Vec<PartyId> {
        let mut liveness = self.liveness.lock();
        let Some(state) = liveness.as_mut() else {
            return Vec::new();
        };
        if let Some(peer) = heard_from {
            if state.down.remove(&peer) {
                self.metrics.peers_recovered.fetch_add(1, Ordering::Relaxed);
            }
            if let Some(seen) = state.last_seen.get_mut(&peer) {
                *seen = Instant::now();
            }
        }
        let budget = state.budget();
        state
            .last_seen
            .iter()
            .filter(|(peer, seen)| !state.down.contains(peer) && seen.elapsed() > budget)
            .map(|(&peer, _)| peer)
            .collect()
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

impl<T: Transport + 'static> SessionMux<T> {
    /// Wraps a physical endpoint with the default per-session queue depth
    /// and starts the pump thread.
    pub fn new(inner: T) -> Self {
        Self::with_queue_depth(inner, DEFAULT_SESSION_QUEUE)
    }

    /// Wraps a physical endpoint with an explicit per-session inbound
    /// queue bound and starts the pump thread.
    ///
    /// # Panics
    ///
    /// Panics when `queue_depth` is zero.
    pub fn with_queue_depth(inner: T, queue_depth: usize) -> Self {
        assert!(queue_depth > 0, "session queue depth must be positive");
        let shared = Arc::new(MuxShared {
            inner,
            routes: Mutex::new(HashMap::new()),
            liveness: Mutex::new(None),
            forwarder: Mutex::new(None),
            metrics: MetricCells::default(),
            queue_depth,
            next_generation: AtomicU64::new(1),
            shutdown: AtomicBool::new(false),
        });
        let pump = Arc::clone(&shared);
        // Pump failures must not take the process down; the thread exits
        // and every session sees Disconnected. If the spawn itself fails
        // the mux still works for sends; receives starve and sessions
        // abort via their timeouts.
        let _ = std::thread::Builder::new()
            .name(format!("mux-pump-{}", shared.inner.local_id()))
            .spawn(move || pump_loop(&pump));
        SessionMux { shared }
    }

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
            // with it are pump-consumed heartbeats, never session traffic.
            return Err(TransportError::DuplicateSession(session));
        }
        let (tx, rx) = std::sync::mpsc::sync_channel(self.shared.queue_depth);
        let generation = self.shared.next_generation.fetch_add(1, Ordering::Relaxed);
        let mut routes = self.shared.routes.lock();
        if routes.contains_key(&session) {
            return Err(TransportError::DuplicateSession(session));
        }
        routes.insert(session, Route { generation, tx });
        self.shared
            .metrics
            .sessions_opened
            .fetch_add(1, Ordering::Relaxed);
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

    /// Number of currently open sessions.
    pub fn open_sessions(&self) -> usize {
        self.shared.routes.lock().len()
    }

    /// A snapshot of the mux's traffic counters.
    pub fn metrics(&self) -> MuxMetrics {
        self.shared.metrics.snapshot()
    }

    /// Installs the forwarding hook consulted for inbound frames whose
    /// session has no local route (replacing any previous hook).
    ///
    /// The hook sees `(from, session, sealed bytes)` and returns the
    /// physical peer to relay the frame to — still sealed, never decoded
    /// — or `None` to drop it as unknown. Returning the mux's own party
    /// id also drops the frame (a self-hop would loop). The hook runs on
    /// the pump thread: keep it cheap (a ring lookup), never block in
    /// it, and never call back into this mux from it.
    ///
    /// This is the fleet's inter-node forwarding path: a node that is
    /// not a session's owner relays the session's frames one hop toward
    /// the owner, Chord-style, and only the owner ever opens them.
    pub fn set_forwarder(
        &self,
        hook: impl Fn(PartyId, SessionId, &Bytes) -> Option<PartyId> + Send + Sync + 'static,
    ) {
        *self.shared.forwarder.lock() = Some(Arc::new(hook));
    }

    /// Removes the forwarding hook; unrouted frames are dropped (and
    /// counted unknown) again.
    pub fn clear_forwarder(&self) {
        *self.shared.forwarder.lock() = None;
    }

    /// Asks the pump thread to exit. A loopback wake frame (a heartbeat to
    /// our own party id) kicks the pump out of its blocking receive so
    /// teardown completes promptly instead of lagging a full poll tick;
    /// when the physical transport has no self-route the wake is skipped
    /// and the poll interval bounds the latency as before. Open sessions
    /// stop receiving (their endpoints see `Disconnected`); in-flight
    /// sends still work.
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let me = self.shared.inner.local_id();
        let _ = self.shared.inner.send(me, encode_heartbeat(me, 0));
    }

    /// Starts peer-liveness tracking with the default startup grace of
    /// one liveness budget (`interval × misses`) — right when every
    /// watched peer is already up (an in-process server's lanes).
    /// Deployments where peers may bind late (a TCP mesh coming up in
    /// any order) should use [`SessionMux::start_liveness_with_grace`]
    /// and pass at least the transport's connect window.
    pub fn start_liveness(&self, watch: Vec<PartyId>, interval: Duration, misses: u32) {
        self.start_liveness_with_grace(watch, interval, misses, interval * misses.max(1));
    }

    /// Starts peer-liveness tracking: a background emitter sends a
    /// heartbeat to every peer in `watch` each `interval`, and the pump
    /// declares any watched peer dead after `misses` intervals of total
    /// silence (any inbound frame refreshes the clock, so heartbeats only
    /// matter on idle links). A peer whose death the transport reports
    /// directly (socket close, hub kill) is declared immediately; a peer
    /// whose heartbeat *sends* keep failing is declared after `misses`
    /// consecutive failures (one failure can be a startup race).
    ///
    /// No watched peer is declared within `grace` of this call — peers of
    /// a mesh starting up may bind later than this mux, and the grace
    /// must cover that window (for TCP, at least the connect window) or
    /// late binders get falsely declared dead.
    ///
    /// On a declared death every open session receives an in-band
    /// [`TransportError::PeerDown`]; see
    /// [`MuxMetrics::peers_down`] / [`MuxMetrics::peer_down_latency_us`]
    /// for the observability side.
    ///
    /// Call at most once per mux, before traffic flows. Detection can be
    /// delayed (never falsified) while the pump is stalling on a full
    /// session queue — data traffic keeps the healthy peers' clocks
    /// fresh either way.
    pub fn start_liveness_with_grace(
        &self,
        watch: Vec<PartyId>,
        interval: Duration,
        misses: u32,
        grace: Duration,
    ) {
        assert!(!interval.is_zero(), "heartbeat interval must be positive");
        let me = self.shared.inner.local_id();
        // Seeding the clocks `grace` into the future suppresses silence
        // accounting until the mesh had time to come up (Instant::elapsed
        // saturates to zero for future instants).
        let seed = Instant::now() + grace.saturating_sub(interval * misses.max(1));
        {
            let mut liveness = self.shared.liveness.lock();
            let state = liveness.get_or_insert_with(|| Liveness {
                last_seen: HashMap::new(),
                down: HashSet::new(),
                interval,
                misses,
            });
            state.interval = interval;
            state.misses = misses;
            // Never watch ourselves: nobody heartbeats us on our own
            // endpoint, so a self-entry would "detect" our own silence.
            for &peer in watch.iter().filter(|&&p| p != me) {
                state.last_seen.entry(peer).or_insert(seed);
            }
        }
        let shared = Arc::clone(&self.shared);
        let _ = std::thread::Builder::new()
            .name(format!("mux-heartbeat-{}", self.shared.inner.local_id()))
            .spawn(move || heartbeat_loop(&shared, watch, interval, misses, grace));
    }
}

fn heartbeat_loop<T: Transport>(
    shared: &MuxShared<T>,
    watch: Vec<PartyId>,
    interval: Duration,
    misses: u32,
    grace: Duration,
) {
    let me = shared.inner.local_id();
    let mut seq = 1u64;
    let mut gone: HashSet<PartyId> = HashSet::new();
    let mut consecutive_failures: HashMap<PartyId, u32> = HashMap::new();
    let grace_end = Instant::now() + grace;
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Resume beating peers the pump revived (their death verdict was
        // withdrawn after they sent again).
        if !gone.is_empty() {
            let liveness = shared.liveness.lock();
            if let Some(state) = liveness.as_ref() {
                gone.retain(|p| state.down.contains(p));
            }
        }
        for &peer in &watch {
            if peer == me || gone.contains(&peer) {
                continue;
            }
            // send_liveness, not send: the bounded-latency variant, so a
            // dead peer's connect window cannot stall this loop long
            // enough to starve beats to the healthy peers.
            match shared.inner.send_liveness(peer, encode_heartbeat(me, seq)) {
                Ok(()) => {
                    consecutive_failures.remove(&peer);
                    shared
                        .metrics
                        .heartbeats_sent
                        .fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    // Unreachable from the send side. Failures inside the
                    // startup grace are expected (the peer may not have
                    // bound yet) and never counted; afterwards the same
                    // `misses` budget the receive side uses decides when
                    // it becomes a death report.
                    if Instant::now() < grace_end {
                        continue;
                    }
                    let fails = consecutive_failures.entry(peer).or_insert(0);
                    *fails += 1;
                    if *fails >= misses.max(1) {
                        gone.insert(peer);
                        shared.declare_peer_down(peer);
                    }
                }
            }
        }
        seq += 1;
        std::thread::sleep(interval);
    }
}

fn pump_loop<T: Transport>(shared: &MuxShared<T>) {
    // recv_timeout rather than recv: the poll bounds how stale the
    // liveness clock check can get, and backstops shutdown when the
    // loopback wake frame cannot be delivered.
    const POLL: Duration = Duration::from_millis(200);
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            break;
        }
        let recv = shared.inner.recv_timeout(POLL);
        let heard_from = match &recv {
            Ok((from, _)) => Some(*from),
            _ => None,
        };
        // Any inbound frame refreshes its sender's liveness clock; silent
        // watched peers past the budget are declared dead here, so
        // detection latency is O(heartbeat budget + poll tick), not
        // O(session timeout).
        for silent in shared.observe_liveness(heard_from) {
            shared.declare_peer_down(silent);
        }
        let (from, payload) = match recv {
            Ok(delivery) => delivery,
            Err(TransportError::Timeout) => continue,
            Err(TransportError::PeerDown(peer)) => {
                // The transport itself reported the death (socket close,
                // hub kill): broadcast and keep pumping for the others.
                shared.declare_peer_down(peer);
                continue;
            }
            Err(TransportError::OversizeFrame { from, .. }) => {
                // The peer's connection was dropped over a protocol
                // violation — its frames stop arriving, so treat it as a
                // death: sessions talking to it fail fast, siblings keep
                // running.
                shared.declare_peer_down(from);
                continue;
            }
            Err(_) => break,
        };
        if decode_heartbeat(&payload).is_some() {
            // Pure liveness traffic (or the shutdown wake): the clock was
            // refreshed above; never routed to a session.
            shared
                .metrics
                .heartbeats_seen
                .fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let Some(session) = peek_session(&payload) else {
            shared
                .metrics
                .unknown_session_dropped
                .fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let route = {
            let routes = shared.routes.lock();
            routes.get(&session).map(|r| (r.generation, r.tx.clone()))
        };
        let Some((generation, tx)) = route else {
            // No local route: offer the frame to the forwarding hook
            // before counting it unknown. The hook only picks the next
            // physical hop — the sealed bytes are relayed as-is, never
            // decoded here (the fleet's zero-decode inter-node relay,
            // same idiom as `sap-core`'s anonymizing block relay).
            let forward = shared.forwarder.lock().clone();
            let next_hop = forward.and_then(|f| f(from, session, &payload));
            match next_hop {
                Some(hop) if hop != shared.inner.local_id() => {
                    match shared.inner.send(hop, payload) {
                        Ok(()) => {
                            shared
                                .metrics
                                .frames_forwarded
                                .fetch_add(1, Ordering::Relaxed);
                        }
                        Err(_) => {
                            // The hop is unreachable (dead or gone): the
                            // frame is lost exactly like an unknown one;
                            // the sender's liveness plane owns recovery.
                            shared
                                .metrics
                                .unknown_session_dropped
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                _ => {
                    shared
                        .metrics
                        .unknown_session_dropped
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            continue;
        };
        shared.deliver(session, generation, &tx, MuxItem::Frame(from, payload));
    }
    // Pump is done (shutdown or physical disconnect): drop every route's
    // sender so blocked session endpoints see Disconnected immediately
    // instead of waiting out their protocol timeouts.
    shared.routes.lock().clear();
}

/// One session's virtual endpoint over a shared physical transport.
///
/// Sends pass straight through to the physical endpoint (payloads are v3
/// sealed frames that already carry the session stamp); receives drain the
/// session's bounded queue. Dropping the endpoint closes the session's
/// route on the mux.
pub struct MuxEndpoint<T: Transport + 'static> {
    session: SessionId,
    generation: u64,
    shared: Arc<MuxShared<T>>,
    inbox: Mutex<Receiver<MuxItem>>,
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

    fn pop_item(&self, item: MuxItem) -> Result<(PartyId, Bytes), TransportError> {
        match item {
            MuxItem::Frame(from, payload) => Ok((from, payload)),
            MuxItem::PeerDown(peer) => {
                self.reported_down.lock().insert(peer);
                Err(TransportError::PeerDown(peer))
            }
        }
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
        self.shared
            .metrics
            .bytes_sent
            .fetch_add(len, Ordering::Relaxed);
        self.shared
            .metrics
            .frames_sent
            .fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn recv(&self) -> Result<(PartyId, Bytes), TransportError> {
        // Sliced rather than parked forever: each idle slice consults the
        // durable down set (see recv_timeout), so a blocking receiver
        // cannot miss a death whose in-band marker was shed.
        loop {
            match self.recv_timeout(Duration::from_millis(200)) {
                Err(TransportError::Timeout) => continue,
                other => return other,
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(PartyId, Bytes), TransportError> {
        let popped = self.inbox.lock().recv_timeout(timeout);
        match popped {
            Ok(item) => self.pop_item(item),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
            Err(RecvTimeoutError::Timeout) => {
                // Idle slice: consult the durable down set, so a death
                // whose in-band marker was shed — or one declared before
                // this session opened — still surfaces within one slice.
                // Checked only after the queue drained dry, preserving
                // frames-before-marker ordering.
                match self.shared.unreported_down(&mut self.reported_down.lock()) {
                    Some(peer) => Err(TransportError::PeerDown(peer)),
                    None => Err(TransportError::Timeout),
                }
            }
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
    fn forwarder_relays_unrouted_frames_without_decoding() {
        use crate::crypto::ChannelKey;
        use crate::frame::{open_frame, seal_frame, Frame, FrameKind};

        let hub = InMemoryHub::new();
        let a = hub.endpoint(PartyId(1));
        let relay = SessionMux::new(hub.endpoint(PartyId(2)));
        let owner = SessionMux::new(hub.endpoint(PartyId(3)));
        let session = SessionId(77);

        // The relay mux never opens session 77; its hook routes the
        // frame one hop onward. Frames of other sessions stay unknown.
        relay.set_forwarder(move |_, s, _| (s == session).then_some(PartyId(3)));
        let owner_ep = owner.open_session(session).unwrap();

        let key = ChannelKey::derive(9, 77, 77);
        let sealed = seal_frame(
            key,
            1,
            session,
            &Frame {
                kind: FrameKind::Control,
                msg_id: 1,
                seq: 0,
                last: true,
                payload: Bytes::from_static(b"fleet"),
            },
        );
        a.send(PartyId(2), sealed.clone()).unwrap();

        let (from, bytes) = owner_ep.recv_timeout(WAIT).unwrap();
        // The physical sender is the relaying hop; the sealed bytes are
        // untouched, so the owner opens them under the original key.
        assert_eq!(from, PartyId(2));
        assert_eq!(bytes, sealed);
        let (s, frame) = open_frame(key, &bytes).unwrap();
        assert_eq!(s, session);
        assert_eq!(&frame.payload[..], b"fleet");
        // The relay counts a forward only once its send returned, which
        // can be after the owner already holds the frame.
        let deadline = Instant::now() + WAIT;
        while relay.metrics().frames_forwarded == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(relay.metrics().frames_forwarded, 1);
        assert_eq!(relay.metrics().unknown_session_dropped, 0);

        // A frame of a session the hook disowns is dropped as unknown.
        let stray = seal_frame(
            key,
            2,
            SessionId(78),
            &Frame {
                kind: FrameKind::Control,
                msg_id: 2,
                seq: 0,
                last: true,
                payload: Bytes::from_static(b"stray"),
            },
        );
        a.send(PartyId(2), stray).unwrap();
        let deadline = Instant::now() + WAIT;
        while relay.metrics().unknown_session_dropped == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(relay.metrics().unknown_session_dropped, 1);
        assert_eq!(relay.metrics().frames_forwarded, 1);
    }

    #[test]
    fn garbage_frame_aborts_only_the_session_it_claims() {
        let (m1, m2) = mux_pair();
        let a1 = node_for(&m1, SessionId(1), 7);
        let a2 = node_for(&m1, SessionId(2), 7);
        let b1 = node_for(&m2, SessionId(1), 7);
        let b2 = node_for(&m2, SessionId(2), 7);

        // Hand-craft a garbage frame claiming session 1: long enough to be
        // a v3 envelope, sealed under no valid key.
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
        assert_eq!(m1.open_sessions(), 0);
        // The id can be reopened after close.
        assert!(m1.open_session(SessionId(1)).is_ok());
    }

    #[test]
    fn shutdown_wakes_pump_promptly() {
        // The pump's poll tick is 200 ms; the loopback wake frame must
        // beat it by a wide margin so teardown never lags a tick.
        let (m1, _m2) = mux_pair();
        let a1 = m1.open_session(SessionId(1)).unwrap();
        let start = Instant::now();
        m1.shutdown();
        assert_eq!(a1.recv().unwrap_err(), TransportError::Disconnected);
        assert!(
            start.elapsed() < Duration::from_millis(150),
            "shutdown took {:?}, pump was not woken",
            start.elapsed()
        );
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
        assert_eq!(m2.open_sessions(), 2);
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

        // A session opened now (e.g. a peer-failure retry) runs against
        // the recovered peer instead of failing on the stale verdict.
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
