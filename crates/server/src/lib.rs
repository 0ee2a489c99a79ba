//! A concurrent SAP service: many sessions, one shared runtime.
//!
//! The PODC'07 protocol was reproduced as "one process runs one session".
//! This crate turns the stack into a *service layer* (in the spirit of
//! the `pod` service-layer framing in PAPERS.md): a [`SapServer`] owns
//!
//! * a **physical mesh** of party-lane endpoints (in-memory hub or real
//!   TCP sockets), one per provider position plus one for the miner, each
//!   wrapped in a [`SessionMux`] so every lane carries *all* sessions'
//!   frames, demultiplexed by the authenticated session stamp of wire
//!   format v3;
//! * a **fixed [`ActorPool`]** on which every session's roles run as a
//!   gang — `N` concurrent sessions share the pool's workers instead of
//!   spawning `N × (k + 1)` dedicated threads;
//! * a **session registry** with create / lookup / reap: finished
//!   sessions are garbage-collected after [`ServerConfig::reap_after`],
//!   and sessions running past [`ServerConfig::max_session_age`] are
//!   aborted by the same sweep (timeout-based GC);
//! * **admission control**: beyond
//!   `max_concurrent + max_queued` live sessions, [`SapServer::submit`]
//!   sheds with [`ServerError::Overloaded`] instead of queueing unboundedly;
//! * **QoS scheduling**: sessions carry a
//!   [`sap_core::runtime::QosClass`] on their [`SapConfig`]; the pool
//!   admits interactive gangs with strict priority over batch ones
//!   (batch gangs age into the interactive queue instead of starving),
//!   sheds queued sessions whose `session_budget` provably cannot be met
//!   ([`SapError::AdmissionShed`]), and work-steals role tasks across
//!   its workers;
//! * a **metrics surface** ([`ServerMetrics`]): sessions
//!   started/completed/failed/aborted/rejected/shed, per-class
//!   queue-wait and service-time histograms with p50/p99/p999
//!   ([`SessionLatency`]), scheduler promotion/steal counters, relayed
//!   row blocks, and the lane muxes' frame/byte counters (bytes sent are
//!   sealed bytes — every payload on the wire is a sealed frame).
//!
//! Sessions submitted with the same [`SapConfig`] produce outcomes
//! byte-identical to a solo [`sap_core::run_session`] run: the runtime
//! multiplexes transport and threads, never the protocol's randomness.
//!
//! # Embedding the server
//!
//! An application embeds a [`SapServer`] directly — submit sessions
//! (non-blocking), wait for outcomes, read metrics:
//!
//! ```
//! use sap_core::session::SapConfig;
//! use sap_datasets::partition::{partition, PartitionScheme};
//! use sap_datasets::registry::UciDataset;
//! use sap_server::{SapServer, ServerConfig};
//!
//! // An in-process mesh (swap for `SapServer::local_tcp` to serve over
//! // real sockets — nothing else changes).
//! let server = SapServer::in_memory(ServerConfig::default()).unwrap();
//!
//! // Three providers hold horizontal slices of one dataset.
//! let pooled = UciDataset::Iris.generate(42);
//! let locals = partition(&pooled, 3, PartitionScheme::Uniform, 7);
//!
//! let id = server.submit(locals, &SapConfig::quick_test()).unwrap();
//! let outcome = server.wait(id, None).unwrap();
//! assert_eq!(outcome.unified.len(), pooled.len());
//!
//! let metrics = server.metrics();
//! assert_eq!(metrics.sessions_completed, 1);
//! assert!(metrics.blocks_relayed > 0);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod hist;

pub use hist::{ClassLatency, LatencyHistogram, SessionLatency};

use sap_core::placement::IdMinter;
use sap_core::runtime::{
    ActorPool, QosClass, SchedulerConfig, SessionHandle, SessionStatus, SessionTimings,
};
use sap_core::session::{spawn_session, SapConfig, SapOutcome, MINER_ID};
use sap_core::SapError;
use sap_datasets::Dataset;
use sap_net::mux::{MuxEndpoint, SessionMux};
use sap_net::sim::FaultyTransport;
use sap_net::tcp::local_mesh;
use sap_net::transport::Endpoint;
use sap_net::{InMemoryHub, PartyId, ReactorTransport, SessionId, Transport, TransportError};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Server-level failures.
#[derive(Debug)]
pub enum ServerError {
    /// Admission control shed the submission: too many live sessions.
    Overloaded {
        /// Live (running or queued) sessions at rejection time.
        live: usize,
        /// The configured ceiling (`max_concurrent + max_queued`).
        limit: usize,
    },
    /// The session wants more providers than the server has lanes.
    TooManyParties {
        /// Providers requested.
        requested: usize,
        /// Provider lanes available.
        max: usize,
    },
    /// No session with that id exists (never created, or reaped).
    UnknownSession(SessionId),
    /// The session itself failed (or its submission was invalid).
    Session(SapError),
    /// Building the physical mesh failed (socket errors).
    Mesh(std::io::Error),
    /// A lane refused the session (duplicate id — a server bug).
    Transport(TransportError),
    /// [`SapServer::submit_placed`] was given an id that is already
    /// registered (or reserved): the fleet's placement minted a
    /// duplicate, or two nodes disagree about ownership.
    DuplicateSession(SessionId),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Overloaded { live, limit } => {
                write!(f, "server overloaded: {live} live sessions (limit {limit})")
            }
            ServerError::TooManyParties { requested, max } => {
                write!(f, "{requested} providers requested, server has {max} lanes")
            }
            ServerError::UnknownSession(id) => write!(f, "unknown {id}"),
            ServerError::Session(e) => write!(f, "session failed: {e}"),
            ServerError::Mesh(e) => write!(f, "mesh setup failed: {e}"),
            ServerError::Transport(e) => write!(f, "lane error: {e}"),
            ServerError::DuplicateSession(id) => {
                write!(f, "{id} is already registered (or reserved)")
            }
        }
    }
}

impl std::error::Error for ServerError {}

impl From<SapError> for ServerError {
    fn from(e: SapError) -> Self {
        ServerError::Session(e)
    }
}

impl From<TransportError> for ServerError {
    fn from(e: TransportError) -> Self {
        ServerError::Transport(e)
    }
}

/// What a server does when a session dies of a **peer failure** (a party
/// process detected dead mid-session, [`SapError::PeerFailure`]): how
/// many times [`SapServer::wait`] transparently re-runs the session with
/// its stored inputs before surfacing the failure. Retries consume fresh
/// wire session ids; the client-facing id never changes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Automatic re-runs per session (0 — the default — disables retry
    /// and the per-session input retention it requires).
    pub max_retries: u32,
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Provider lanes — the largest `k` a session may use.
    pub max_parties: usize,
    /// Sessions serviced concurrently before new ones queue.
    pub max_concurrent: usize,
    /// Sessions allowed to queue beyond `max_concurrent`; past that,
    /// submissions shed with [`ServerError::Overloaded`].
    pub max_queued: usize,
    /// Worker threads of the shared [`ActorPool`]. `0` sizes the pool to
    /// service `max_concurrent` sessions of `max_parties` providers:
    /// `(max_parties + 1) × max_concurrent`.
    pub worker_threads: usize,
    /// Per-session inbound queue bound on every lane mux (frames).
    pub session_queue_depth: usize,
    /// How long a finished session's registry entry survives before
    /// [`SapServer::reap`] removes it.
    pub reap_after: Duration,
    /// Running sessions older than this are aborted (and then reaped) by
    /// the GC sweep. With the liveness layer this is a last-resort
    /// backstop: peer deaths surface as typed
    /// [`SapError::PeerFailure`]s within the heartbeat budget, and the
    /// per-session [`sap_core::session::SapConfig::session_budget`]
    /// unwinds overlong sessions cooperatively long before this sweeps.
    pub max_session_age: Duration,
    /// Heartbeat interval of the lane liveness plane
    /// ([`sap_net::mux::SessionMux::start_liveness`]); `Duration::ZERO`
    /// disables lane heartbeats (peer deaths are then detected only when
    /// the transport reports them, e.g. a socket close).
    pub heartbeat_interval: Duration,
    /// Missed-interval budget before a silent lane peer is declared dead;
    /// detection latency is at most `heartbeat_interval × liveness_misses`
    /// plus one pump poll tick.
    pub liveness_misses: u32,
    /// Recovery policy for sessions killed by a peer failure.
    pub retry_policy: RetryPolicy,
    /// The shared pool's admission scheduler: QoS class queues with batch
    /// aging and deadline-aware shedding.
    pub scheduler: SchedulerConfig,
    /// First session id this server mints
    /// ([`sap_core::placement::IdMinter`] base). Fleet node `j` uses
    /// `j + 1` so every node mints from a disjoint residue class.
    pub session_id_base: u64,
    /// Id increment between mints ([`sap_core::placement::IdMinter`]
    /// stride) — the fleet's node count; `1` for a standalone server
    /// (the pre-fleet sequence 1, 2, 3, …).
    pub session_id_stride: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_parties: 8,
            max_concurrent: 8,
            max_queued: 16,
            worker_threads: 0,
            session_queue_depth: sap_net::mux::DEFAULT_SESSION_QUEUE,
            reap_after: Duration::from_secs(60),
            max_session_age: Duration::from_secs(300),
            heartbeat_interval: sap_net::mux::DEFAULT_HEARTBEAT_INTERVAL,
            liveness_misses: sap_net::mux::DEFAULT_LIVENESS_MISSES,
            retry_policy: RetryPolicy::default(),
            scheduler: SchedulerConfig::default(),
            session_id_base: 1,
            session_id_stride: 1,
        }
    }
}

impl ServerConfig {
    fn pool_size(&self) -> usize {
        if self.worker_threads > 0 {
            self.worker_threads
        } else {
            (self.max_parties + 1) * self.max_concurrent.max(1)
        }
    }
}

/// Aggregated server counters. Sessions are accounted when their end is
/// first observed (by [`SapServer::wait`] or the reap sweep).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerMetrics {
    /// Sessions admitted.
    pub sessions_started: u64,
    /// Sessions that completed with an outcome.
    pub sessions_completed: u64,
    /// Sessions that ended in a protocol/transport error.
    pub sessions_failed: u64,
    /// Sessions aborted (explicitly or by the age-based GC).
    pub sessions_aborted: u64,
    /// Submissions shed by admission control.
    pub sessions_rejected: u64,
    /// Currently registered, unfinished sessions.
    pub live_sessions: usize,
    /// Row blocks relayed through the anonymizing hop, summed over
    /// completed sessions.
    pub blocks_relayed: u64,
    /// Row blocks the relay hops forwarded **while their inbound stream
    /// was still arriving** (the streaming data plane's pipelining),
    /// summed over completed sessions.
    pub blocks_pipelined: u64,
    /// Mean compute/I-O overlap ratio across completed sessions: the
    /// share of data-plane compute (unseal-side decode + adaptation)
    /// hidden under stream transfer time.
    pub overlap_ratio_avg: f64,
    /// Optimizer wall time summed over every provider of every completed
    /// session (seconds) — the staged engine's per-run total.
    pub optimizer_wall_s: f64,
    /// Optimizer candidates scored by the cheap stage, summed over
    /// completed sessions.
    pub optimizer_candidates_evaluated: u64,
    /// Optimizer candidates pruned before the expensive PCA/ICA stage,
    /// summed over completed sessions.
    pub optimizer_candidates_pruned: u64,
    /// Bytes sent through the lane muxes — all of them sealed envelope
    /// bytes (wire format v3).
    pub bytes_sealed: u64,
    /// Sealed frames routed to sessions by the lane muxes.
    pub frames_routed: u64,
    /// Frames dropped because they carried an unknown session id.
    pub unknown_session_dropped: u64,
    /// Frames shed because a session's bounded queue stayed full.
    pub shed_frames: u64,
    /// Lane peers declared dead by the liveness plane (socket close, hub
    /// kill, or missed heartbeats), summed over every lane mux.
    pub peer_failures_detected: u64,
    /// Mean detection latency over those events, in seconds: how long a
    /// peer had been silent when it was declared dead (≈ 0 for
    /// transport-notified deaths, ≈ the heartbeat budget for
    /// heartbeat-detected ones).
    pub peer_detection_latency_avg_s: f64,
    /// Sessions transparently re-run after a peer failure under
    /// [`ServerConfig::retry_policy`].
    pub sessions_retried: u64,
    /// Sessions shed by deadline-aware admission while queued — their
    /// budget provably could not be met, so no role ever ran
    /// ([`SapError::AdmissionShed`]).
    pub sessions_shed: u64,
    /// Batch gangs promoted to the interactive queue by aging (the
    /// pool's anti-starvation counter).
    pub gangs_promoted: u64,
    /// Role tasks a pool worker stole from a sibling's run queue.
    pub task_steals: u64,
    /// Role tasks of sessions still queued for gang admission.
    pub pool_queued_tasks: usize,
    /// Role tasks admitted to the pool and not yet finished.
    pub pool_running_tasks: usize,
    /// Per-class queue-wait and service-time histograms with
    /// p50/p99/p999 extraction ([`SessionLatency`]). Samples are recorded
    /// when a session's end is accounted.
    pub latency_histogram: SessionLatency,
}

struct RetryState {
    locals: Vec<Dataset>,
    config: SapConfig,
    remaining: u32,
}

/// One session's stored registration, exported by
/// [`SapServer::export_registrations`]: everything another node needs to
/// re-run the session under its original client-facing id.
#[derive(Debug)]
pub struct Registration {
    /// The client-facing session id (stable across the handoff).
    pub id: SessionId,
    /// The providers' datasets as submitted.
    pub locals: Vec<Dataset>,
    /// The session's protocol configuration.
    pub config: SapConfig,
}

struct SessionEntry {
    handle: SessionHandle,
    /// Scheduling class the session was submitted under — keyed here so
    /// accounting can route its timings to the right histograms even
    /// after retries swap the handle.
    class: QosClass,
    submitted: Instant,
    finished_at: Option<Instant>,
    accounted: bool,
    /// The owner called [`SapServer::abort`] (or the age GC did): the
    /// verdict outlives the current handle, so a peer-failure retry
    /// racing the abort cannot resurrect the session under a fresh
    /// handle the abort never saw.
    aborted: bool,
    /// Stored inputs for peer-failure retries (`None` when the policy is
    /// off — the server then never retains client datasets past spawn).
    retry: Option<RetryState>,
}

#[derive(Default)]
struct Counters {
    started: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    aborted: AtomicU64,
    rejected: AtomicU64,
    retried: AtomicU64,
    shed: AtomicU64,
    blocks_relayed: AtomicU64,
    blocks_pipelined: AtomicU64,
    /// Sum of per-session overlap ratios in micro-units (ratio × 1e6),
    /// over `overlap_sessions` — keeps the aggregate lock-free.
    overlap_micros_sum: AtomicU64,
    overlap_sessions: AtomicU64,
    /// Optimizer wall time in microseconds (lock-free f64 aggregation).
    optimizer_wall_micros: AtomicU64,
    optimizer_candidates: AtomicU64,
    optimizer_pruned: AtomicU64,
}

/// A multi-session SAP service over a shared physical mesh.
///
/// Generic over the physical transport: [`SapServer::in_memory`] builds a
/// hub-backed server (tests, embedding), [`SapServer::local_tcp`] a
/// localhost-TCP one (the deployment shape). All sessions of one server
/// share its lanes, its pool, and its metrics.
pub struct SapServer<T: Transport + 'static> {
    config: ServerConfig,
    pool: ActorPool,
    /// `lanes[i]` carries provider position `i` of every session.
    lanes: Vec<SessionMux<T>>,
    miner_lane: SessionMux<T>,
    registry: Mutex<HashMap<SessionId, SessionEntry>>,
    ids: IdMinter,
    counters: Counters,
    /// Per-class latency histograms (lock order: registry → latency).
    latency: Mutex<SessionLatency>,
}

impl SapServer<Endpoint> {
    /// Builds a server whose mesh is an in-process [`InMemoryHub`].
    pub fn in_memory(config: ServerConfig) -> Result<Self, ServerError> {
        let hub = InMemoryHub::new();
        let mut lanes = Vec::with_capacity(config.max_parties);
        for pos in 0..config.max_parties {
            lanes.push(hub.try_endpoint(PartyId(pos as u64))?);
        }
        let miner = hub.try_endpoint(MINER_ID)?;
        Ok(Self::over_lanes(config, lanes, miner))
    }
}

impl SapServer<ReactorTransport> {
    /// Builds a server whose mesh is real localhost TCP sockets — one
    /// listener per lane, fully meshed.
    ///
    /// # Errors
    ///
    /// Propagates socket errors as [`ServerError::Mesh`].
    pub fn local_tcp(config: ServerConfig) -> Result<Self, ServerError> {
        let mut ids: Vec<PartyId> = (0..config.max_parties as u64).map(PartyId).collect();
        ids.push(MINER_ID);
        let mut mesh = local_mesh(&ids).map_err(ServerError::Mesh)?;
        let miner = mesh.pop().expect("miner lane");
        Ok(Self::over_lanes(config, mesh, miner))
    }
}

impl<T: Transport + 'static> SapServer<T> {
    /// Builds a server over caller-supplied lane endpoints. `lanes[i]`
    /// must have [`Transport::local_id`] `PartyId(i)`; `miner` must be
    /// reachable from every lane (full mesh).
    pub fn over_lanes(config: ServerConfig, lanes: Vec<T>, miner: T) -> Self {
        let depth = config.session_queue_depth;
        let pool = ActorPool::with_config(config.pool_size(), config.scheduler);
        let lanes: Vec<SessionMux<T>> = lanes
            .into_iter()
            .map(|t| SessionMux::with_queue_depth(t, depth))
            .collect();
        let miner_lane = SessionMux::with_queue_depth(miner, depth);
        // The lane liveness plane: every lane heartbeats every other lane
        // and watches for silence, so a dead party process is detected in
        // O(heartbeat budget) and every session that involved it fails
        // with a typed PeerFailure instead of hanging until the age GC.
        if !config.heartbeat_interval.is_zero() {
            let roster: Vec<PartyId> = lanes
                .iter()
                .map(SessionMux::local_id)
                .chain(std::iter::once(miner_lane.local_id()))
                .collect();
            // Startup grace at least the TCP connect window: lanes of a
            // real mesh may bind in any order, and a late binder must
            // not be declared dead before it had a chance to come up.
            // Transport-reported deaths (socket close, hub kill) bypass
            // the grace and are declared immediately.
            let grace = (config.heartbeat_interval * config.liveness_misses.max(1))
                .max(sap_net::reactor::DEFAULT_CONNECT_WINDOW);
            for lane in lanes.iter().chain(std::iter::once(&miner_lane)) {
                lane.start_liveness_with_grace(
                    roster.clone(),
                    config.heartbeat_interval,
                    config.liveness_misses,
                    grace,
                );
            }
        }
        SapServer {
            pool,
            lanes,
            miner_lane,
            registry: Mutex::new(HashMap::new()),
            ids: IdMinter::new(config.session_id_base, config.session_id_stride),
            counters: Counters::default(),
            latency: Mutex::new(SessionLatency::default()),
            config,
        }
    }

    /// The shared pool's worker count.
    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity()
    }

    fn live_sessions(&self) -> usize {
        let registry = self.registry.lock().expect("registry lock");
        registry
            .values()
            .filter(|e| matches!(e.handle.poll(), SessionStatus::Running { .. }))
            .count()
    }

    /// Submits a session: `locals[i]` is provider `i`'s private dataset
    /// (the last provider doubles as coordinator), `session_config` the
    /// per-session protocol settings — including an optional
    /// [`sap_net::sim::FaultConfig`], applied to *this session's* virtual
    /// endpoints only.
    ///
    /// Returns the registered [`SessionId`]; the session runs (or queues
    /// for the pool) in the background. Look it up with
    /// [`SapServer::poll`] / [`SapServer::wait`].
    ///
    /// # Errors
    ///
    /// * [`ServerError::Overloaded`] when admission control sheds.
    /// * [`ServerError::TooManyParties`] when `locals` exceeds the lanes.
    /// * [`ServerError::Session`] on invalid inputs or an invalid
    ///   configuration ([`SapConfig::validate`]).
    pub fn submit(
        &self,
        locals: Vec<Dataset>,
        session_config: &SapConfig,
    ) -> Result<SessionId, ServerError> {
        self.admit(None, locals, session_config)
    }

    /// [`SapServer::submit`] under a **caller-chosen** session id — the
    /// fleet's placement path, where the id was minted (and hashed onto
    /// the placement ring) before the owning node was even known. The
    /// id must come from a fleet-unique minter
    /// ([`sap_core::placement::IdMinter`]); reserved ids and ids already
    /// registered here are refused.
    ///
    /// # Errors
    ///
    /// Everything [`SapServer::submit`] returns, plus
    /// [`ServerError::DuplicateSession`] when `id` is reserved
    /// ([`SessionId::SOLO`], [`SessionId::LIVENESS`], the control range)
    /// or already registered.
    pub fn submit_placed(
        &self,
        id: SessionId,
        locals: Vec<Dataset>,
        session_config: &SapConfig,
    ) -> Result<SessionId, ServerError> {
        if id == SessionId::SOLO
            || id == SessionId::LIVENESS
            || id.0 >= sap_core::placement::CONTROL_BASE
        {
            return Err(ServerError::DuplicateSession(id));
        }
        self.admit(Some(id), locals, session_config)
    }

    /// Mints the next session id from this server's minter **without**
    /// registering anything. The fleet's gateway path uses this: ids
    /// minted here and ids this server mints internally (submissions,
    /// retry wire ids) share one sequence, so a gateway-minted id can
    /// never collide with the node's own.
    pub fn mint_session_id(&self) -> SessionId {
        self.ids.mint()
    }

    /// Shared admission body of [`SapServer::submit`] (id minted here)
    /// and [`SapServer::submit_placed`] (id chosen by the fleet).
    fn admit(
        &self,
        placed: Option<SessionId>,
        locals: Vec<Dataset>,
        session_config: &SapConfig,
    ) -> Result<SessionId, ServerError> {
        // Before the registry lock and any route: a config that cannot
        // run must fail this submission, not panic while shared state is
        // held.
        session_config.validate()?;
        let k = locals.len();
        if k > self.lanes.len() {
            return Err(ServerError::TooManyParties {
                requested: k,
                max: self.lanes.len(),
            });
        }
        // The registry lock is held from the admission check through the
        // insert: concurrent submits must not both observe the same free
        // slot (check-then-act race).
        let mut registry = self.registry.lock().expect("registry lock");
        if let Some(id) = placed {
            if registry.contains_key(&id) {
                return Err(ServerError::DuplicateSession(id));
            }
        }
        let live = registry
            .values()
            .filter(|e| matches!(e.handle.poll(), SessionStatus::Running { .. }))
            .count();
        let limit = self.config.max_concurrent + self.config.max_queued;
        if live >= limit {
            self.counters.rejected.fetch_add(1, Ordering::Relaxed);
            return Err(ServerError::Overloaded { live, limit });
        }

        let id = placed.unwrap_or_else(|| self.ids.mint());
        let retry = (self.config.retry_policy.max_retries > 0).then(|| RetryState {
            locals: locals.clone(),
            config: session_config.clone(),
            remaining: self.config.retry_policy.max_retries,
        });
        let handle = self.wire_session(id, locals, session_config)?;

        self.counters.started.fetch_add(1, Ordering::Relaxed);
        registry.insert(
            id,
            SessionEntry {
                handle,
                class: session_config.qos,
                submitted: Instant::now(),
                finished_at: None,
                accounted: false,
                aborted: false,
                retry,
            },
        );
        Ok(id)
    }

    /// Opens mux routes for `id` on the first `locals.len()` lanes (plus
    /// the miner lane), spawns the session gang, and installs the abort
    /// hook that tears those routes down. Shared by [`SapServer::submit`]
    /// and peer-failure retries.
    fn wire_session(
        &self,
        id: SessionId,
        locals: Vec<Dataset>,
        session_config: &SapConfig,
    ) -> Result<SessionHandle, ServerError> {
        let k = locals.len();
        let open_all = || -> Result<(Vec<MuxEndpoint<T>>, MuxEndpoint<T>), TransportError> {
            let mut endpoints = Vec::with_capacity(k);
            for lane in &self.lanes[..k] {
                endpoints.push(lane.open_session(id)?);
            }
            Ok((endpoints, self.miner_lane.open_session(id)?))
        };
        let (endpoints, miner_endpoint) = match open_all() {
            Ok(pair) => pair,
            Err(e) => {
                self.close_routes(id, k);
                return Err(e.into());
            }
        };

        // A session with a fault model gets its endpoints wrapped in the
        // injector; its siblings' traffic never passes through it.
        let spawned = match session_config.fault_config {
            None => spawn_session(
                &self.pool,
                id,
                locals,
                session_config,
                endpoints,
                miner_endpoint,
            ),
            Some(faults) => {
                // Same per-position salting as run_session, via the shared
                // helper — a faulted session draws the identical
                // deterministic fault stream here and in a solo run.
                let wrapped: Vec<_> = endpoints
                    .into_iter()
                    .enumerate()
                    .map(|(pos, ep)| FaultyTransport::new(ep, faults.salted_for(pos as u64 + 1)))
                    .collect();
                let miner_wrapped = FaultyTransport::new(
                    miner_endpoint,
                    faults.salted_for(sap_net::sim::FaultConfig::MINER_SALT),
                );
                spawn_session(
                    &self.pool,
                    id,
                    locals,
                    session_config,
                    wrapped,
                    miner_wrapped,
                )
            }
        };
        let handle = match spawned {
            Ok(handle) => handle,
            Err(e) => {
                self.close_routes(id, k);
                return Err(e.into());
            }
        };

        // Aborting the session closes its mux routes so blocked roles
        // disconnect immediately instead of waiting out their timeouts.
        {
            let lanes: Vec<SessionMux<T>> = self.lanes[..k].to_vec();
            let miner_lane = self.miner_lane.clone();
            handle.set_abort_hook(move || {
                for lane in &lanes {
                    lane.close_session(id);
                }
                miner_lane.close_session(id);
            });
        }
        // Deadline-aware admission may have shed the gang during the
        // submit, before the abort hook above existed — the shed callback
        // then found no hook to run, so close the routes here.
        if matches!(handle.poll(), SessionStatus::Shed) {
            self.close_routes(id, k);
        }
        Ok(handle)
    }

    /// Consumes one retry of a peer-failed session: respawns it under a
    /// fresh wire session id with the stored inputs, swapping the new
    /// handle into the client-facing registry entry. Returns `false`
    /// when the entry has no retries left (or retry is off).
    fn try_retry(&self, public_id: SessionId) -> bool {
        let (locals, cfg) = {
            let mut registry = self.registry.lock().expect("registry lock");
            let Some(entry) = registry.get_mut(&public_id) else {
                return false;
            };
            if entry.aborted {
                // The owner gave up on this session; a retry racing the
                // abort must not resurrect it.
                return false;
            }
            let Some(retry) = entry.retry.as_mut() else {
                return false;
            };
            if retry.remaining == 0 {
                return false;
            }
            retry.remaining -= 1;
            (retry.locals.clone(), retry.config.clone())
        };
        let wire_id = self.ids.mint();
        match self.wire_session(wire_id, locals, &cfg) {
            Ok(handle) => {
                let installed = {
                    let mut registry = self.registry.lock().expect("registry lock");
                    match registry.get_mut(&public_id) {
                        Some(entry) if !entry.aborted => {
                            entry.handle = handle.clone();
                            entry.finished_at = None;
                            entry.accounted = false;
                            true
                        }
                        // Aborted or reaped while the replacement
                        // spawned: do not install a session the abort
                        // (or the reaper) never saw.
                        _ => false,
                    }
                };
                if installed {
                    self.counters.retried.fetch_add(1, Ordering::Relaxed);
                    true
                } else {
                    handle.abort();
                    false
                }
            }
            Err(_) => false,
        }
    }

    /// Drains every unfinished session whose inputs the retry policy
    /// retained, returning their registrations for re-placement on
    /// another node — the export half of an ownership handoff when this
    /// server's node leaves a fleet.
    ///
    /// Each exported session is aborted here (its roles unwind with
    /// typed errors and its mux routes close); the importing node
    /// re-runs it from the stored inputs under the **same** client-facing
    /// id via [`SapServer::submit_placed`] — the same replay contract as
    /// a peer-failure retry. Finished sessions keep their outcomes here;
    /// unfinished sessions without stored inputs
    /// ([`RetryPolicy::max_retries`] = 0) cannot be handed off and are
    /// left running.
    pub fn export_registrations(&self) -> Vec<Registration> {
        let mut registry = self.registry.lock().expect("registry lock");
        let ids: Vec<SessionId> = registry
            .iter()
            .filter(|(_, e)| {
                e.retry.is_some() && matches!(e.handle.poll(), SessionStatus::Running { .. })
            })
            .map(|(&id, _)| id)
            .collect();
        let mut exported = Vec::with_capacity(ids.len());
        for id in ids {
            let Some(entry) = registry.remove(&id) else {
                continue;
            };
            entry.handle.abort();
            let Some(retry) = entry.retry else {
                continue;
            };
            exported.push(Registration {
                id,
                locals: retry.locals,
                config: retry.config,
            });
        }
        exported
    }

    fn close_routes(&self, id: SessionId, k: usize) {
        for lane in &self.lanes[..k] {
            lane.close_session(id);
        }
        self.miner_lane.close_session(id);
    }

    /// Non-blocking status lookup.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownSession`] when the id is not registered.
    pub fn poll(&self, id: SessionId) -> Result<SessionStatus, ServerError> {
        let registry = self.registry.lock().expect("registry lock");
        registry
            .get(&id)
            .map(|e| e.handle.poll())
            .ok_or(ServerError::UnknownSession(id))
    }

    /// Waits for a session and returns its outcome (once). `timeout`
    /// `None` waits indefinitely.
    ///
    /// Under a non-zero [`ServerConfig::retry_policy`], a session that
    /// dies of a [`SapError::PeerFailure`] is transparently re-run with
    /// its stored inputs (up to the policy's budget) before the failure
    /// is surfaced; the caller's `timeout` spans the retries.
    ///
    /// # Errors
    ///
    /// * [`ServerError::UnknownSession`] for unregistered (or reaped) ids.
    /// * [`ServerError::Session`] carrying the session's own error, the
    ///   harvest timeout, or [`SapError::Aborted`].
    pub fn wait(
        &self,
        id: SessionId,
        timeout: Option<Duration>,
    ) -> Result<SapOutcome, ServerError> {
        let overall = timeout.map(|t| Instant::now() + t);
        loop {
            let handle = {
                let registry = self.registry.lock().expect("registry lock");
                registry
                    .get(&id)
                    .map(|e| e.handle.clone())
                    .ok_or(ServerError::UnknownSession(id))?
            };
            let remaining = overall.map(|d| d.saturating_duration_since(Instant::now()));
            let result = handle.harvest(remaining);
            match &result {
                // A harvest deadline is the caller's timeout, not the
                // session's end — leave the entry unaccounted.
                Err(SapError::Timeout {
                    phase: "session harvest",
                    ..
                }) => {}
                Err(SapError::PeerFailure { .. }) if self.try_retry(id) => continue,
                _ => self.finalize(id, &result),
            }
            return result.map_err(ServerError::Session);
        }
    }

    /// Aborts a session (idempotent). The verdict is recorded on the
    /// registry entry as well as the running handle, so a peer-failure
    /// retry racing this call cannot resurrect the session.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownSession`] when the id is not registered.
    pub fn abort(&self, id: SessionId) -> Result<(), ServerError> {
        let handle = {
            let mut registry = self.registry.lock().expect("registry lock");
            let entry = registry
                .get_mut(&id)
                .ok_or(ServerError::UnknownSession(id))?;
            entry.aborted = true;
            entry.handle.clone()
        };
        handle.abort();
        Ok(())
    }

    fn finalize(&self, id: SessionId, result: &Result<SapOutcome, SapError>) {
        let mut registry = self.registry.lock().expect("registry lock");
        let Some(entry) = registry.get_mut(&id) else {
            return;
        };
        entry.finished_at.get_or_insert_with(Instant::now);
        if entry.accounted {
            return;
        }
        entry.accounted = true;
        Self::record_latency(&self.latency, entry.class, entry.handle.timings());
        match result {
            Ok(outcome) => {
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                self.counters
                    .blocks_relayed
                    .fetch_add(outcome.relayed_blocks, Ordering::Relaxed);
                self.counters
                    .blocks_pipelined
                    .fetch_add(outcome.stream.pipelined_blocks, Ordering::Relaxed);
                let micros = (outcome.stream.overlap_ratio() * 1e6) as u64;
                self.counters
                    .overlap_micros_sum
                    .fetch_add(micros, Ordering::Relaxed);
                self.counters
                    .overlap_sessions
                    .fetch_add(1, Ordering::Relaxed);
                let opt = outcome.optimizer_summary();
                self.counters
                    .optimizer_wall_micros
                    .fetch_add((opt.wall_s * 1e6) as u64, Ordering::Relaxed);
                self.counters
                    .optimizer_candidates
                    .fetch_add(opt.candidates_evaluated, Ordering::Relaxed);
                self.counters
                    .optimizer_pruned
                    .fetch_add(opt.candidates_pruned, Ordering::Relaxed);
            }
            Err(SapError::Aborted) => {
                self.counters.aborted.fetch_add(1, Ordering::Relaxed);
            }
            Err(SapError::AdmissionShed { .. }) => {
                self.counters.shed.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Folds one accounted session's scheduler timings into the per-class
    /// histograms. Shed sessions contribute a queue-wait sample only —
    /// they never had a service phase.
    fn record_latency(latency: &Mutex<SessionLatency>, class: QosClass, timings: SessionTimings) {
        if timings.queue_wait.is_none() && timings.service.is_none() {
            return;
        }
        let mut latency = latency.lock().expect("latency lock");
        let class = latency.class_mut(class);
        if let Some(wait) = timings.queue_wait {
            class.queue_wait.record(wait);
        }
        if let Some(service) = timings.service {
            class.service.record(service);
        }
    }

    /// The GC sweep: aborts running sessions older than
    /// [`ServerConfig::max_session_age`], accounts finished-but-unwaited
    /// sessions, and removes entries finished longer than
    /// [`ServerConfig::reap_after`] ago. Returns the number of entries
    /// removed. Call periodically (or before capacity decisions).
    pub fn reap(&self) -> usize {
        let now = Instant::now();
        // Collect handles first: aborting under the registry lock would
        // deadlock with the abort hook closing mux routes while a pump
        // blocks on a full queue.
        let overdue: Vec<SessionHandle> = {
            let mut registry = self.registry.lock().expect("registry lock");
            registry
                .values_mut()
                .filter(|e| {
                    matches!(e.handle.poll(), SessionStatus::Running { .. })
                        && now.duration_since(e.submitted) > self.config.max_session_age
                })
                .map(|e| {
                    // Recorded on the entry too, so a racing peer-failure
                    // retry cannot resurrect the overdue session.
                    e.aborted = true;
                    e.handle.clone()
                })
                .collect()
        };
        for handle in &overdue {
            handle.abort();
        }

        let mut registry = self.registry.lock().expect("registry lock");
        let mut reaped = 0;
        registry.retain(|_, entry| {
            let status = entry.handle.poll();
            if matches!(status, SessionStatus::Running { .. }) {
                return true;
            }
            let finished_at = *entry.finished_at.get_or_insert(now);
            if !entry.accounted {
                entry.accounted = true;
                Self::record_latency(&self.latency, entry.class, entry.handle.timings());
                match status {
                    SessionStatus::Complete => {
                        // Completed but never harvested; count it (the
                        // blocks metric needs the outcome, so it is only
                        // summed for harvested sessions).
                        self.counters.completed.fetch_add(1, Ordering::Relaxed);
                    }
                    SessionStatus::Aborted => {
                        self.counters.aborted.fetch_add(1, Ordering::Relaxed);
                    }
                    SessionStatus::Shed => {
                        self.counters.shed.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        self.counters.failed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            if now.duration_since(finished_at) >= self.config.reap_after {
                reaped += 1;
                false
            } else {
                true
            }
        });
        reaped
    }

    /// A snapshot of the server's metrics (session counters plus the lane
    /// muxes' traffic counters).
    pub fn metrics(&self) -> ServerMetrics {
        let sched = self.pool.stats();
        let mut bytes_sealed = 0;
        let mut frames_routed = 0;
        let mut unknown = 0;
        let mut shed = 0;
        let mut peers_down = 0;
        let mut down_latency_us = 0;
        for lane in self.lanes.iter().chain(std::iter::once(&self.miner_lane)) {
            let m = lane.metrics();
            bytes_sealed += m.bytes_sent;
            frames_routed += m.frames_routed;
            unknown += m.unknown_session_dropped;
            shed += m.shed_frames;
            peers_down += m.peers_down;
            down_latency_us += m.peer_down_latency_us;
        }
        let overlap_sessions = self.counters.overlap_sessions.load(Ordering::Relaxed);
        let overlap_ratio_avg = if overlap_sessions == 0 {
            0.0
        } else {
            self.counters.overlap_micros_sum.load(Ordering::Relaxed) as f64
                / 1e6
                / overlap_sessions as f64
        };
        ServerMetrics {
            sessions_started: self.counters.started.load(Ordering::Relaxed),
            sessions_completed: self.counters.completed.load(Ordering::Relaxed),
            sessions_failed: self.counters.failed.load(Ordering::Relaxed),
            sessions_aborted: self.counters.aborted.load(Ordering::Relaxed),
            sessions_rejected: self.counters.rejected.load(Ordering::Relaxed),
            live_sessions: self.live_sessions(),
            blocks_relayed: self.counters.blocks_relayed.load(Ordering::Relaxed),
            blocks_pipelined: self.counters.blocks_pipelined.load(Ordering::Relaxed),
            overlap_ratio_avg,
            optimizer_wall_s: self.counters.optimizer_wall_micros.load(Ordering::Relaxed) as f64
                / 1e6,
            optimizer_candidates_evaluated: self
                .counters
                .optimizer_candidates
                .load(Ordering::Relaxed),
            optimizer_candidates_pruned: self.counters.optimizer_pruned.load(Ordering::Relaxed),
            bytes_sealed,
            frames_routed,
            unknown_session_dropped: unknown,
            shed_frames: shed,
            peer_failures_detected: peers_down,
            peer_detection_latency_avg_s: if peers_down == 0 {
                0.0
            } else {
                down_latency_us as f64 / 1e6 / peers_down as f64
            },
            sessions_retried: self.counters.retried.load(Ordering::Relaxed),
            sessions_shed: self.counters.shed.load(Ordering::Relaxed),
            gangs_promoted: sched.gangs_promoted,
            task_steals: sched.task_steals,
            pool_queued_tasks: sched.queued_tasks,
            pool_running_tasks: sched.running_tasks,
            latency_histogram: *self.latency.lock().expect("latency lock"),
        }
    }
}

impl<T: Transport + 'static> Drop for SapServer<T> {
    fn drop(&mut self) {
        // Abort everything still running so pool workers unblock, then let
        // the pool's own Drop join them.
        let handles: Vec<SessionHandle> = {
            let registry = self.registry.lock().expect("registry lock");
            registry.values().map(|e| e.handle.clone()).collect()
        };
        for handle in handles {
            handle.abort();
        }
        for lane in &self.lanes {
            lane.shutdown();
        }
        self.miner_lane.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_datasets::partition::{partition, PartitionScheme};
    use sap_datasets::registry::UciDataset;

    fn quick() -> SapConfig {
        SapConfig {
            timeout: Duration::from_secs(30),
            ..SapConfig::quick_test()
        }
    }

    fn locals(seed: u64) -> Vec<Dataset> {
        let pooled = UciDataset::Iris.generate(seed);
        partition(&pooled, 3, PartitionScheme::Uniform, seed ^ 0x55)
    }

    #[test]
    fn single_session_through_server_matches_solo() {
        let server = SapServer::in_memory(ServerConfig::default()).unwrap();
        let cfg = quick();
        let id = server.submit(locals(3), &cfg).unwrap();
        let outcome = server.wait(id, Some(Duration::from_secs(60))).unwrap();
        let solo = sap_core::run_session(locals(3), &cfg).unwrap();
        assert_eq!(outcome.unified, solo.unified);
        assert_eq!(outcome.forwarder_of_slot, solo.forwarder_of_slot);

        let m = server.metrics();
        assert_eq!(m.sessions_started, 1);
        assert_eq!(m.sessions_completed, 1);
        assert!(m.blocks_relayed > 0);
        assert!(m.bytes_sealed > 0);
        // The default data plane streams: relay hops pipeline blocks and
        // the miner's decode overlaps the exchange.
        assert!(m.blocks_pipelined > 0, "{m:?}");
        assert!(
            m.overlap_ratio_avg >= 0.0 && m.overlap_ratio_avg <= 1.0,
            "{m:?}"
        );
        // Optimizer telemetry: 3 providers × 4 quick-test candidates.
        assert_eq!(m.optimizer_candidates_evaluated, 12, "{m:?}");
        assert!(m.optimizer_wall_s > 0.0, "{m:?}");
        assert_eq!(
            m.optimizer_candidates_evaluated - m.optimizer_candidates_pruned,
            outcome
                .reports
                .iter()
                .map(|r| r.optimizer.survivors as u64)
                .sum::<u64>()
        );
    }

    /// A client submitting `candidates: 0` must fail *its* session with a
    /// typed optimizer error — never panic a pool worker or take the
    /// server down.
    #[test]
    fn malformed_optimizer_config_fails_only_its_session() {
        let server = SapServer::in_memory(ServerConfig::default()).unwrap();
        let bad_cfg = SapConfig {
            optimizer: sap_privacy::OptimizerConfig {
                candidates: 0,
                ..sap_privacy::OptimizerConfig::default()
            },
            ..quick()
        };
        let bad = server.submit(locals(20), &bad_cfg).unwrap();
        let err = server.wait(bad, Some(Duration::from_secs(60))).unwrap_err();
        assert!(
            matches!(
                err,
                ServerError::Session(SapError::Optimizer(
                    sap_privacy::OptimizeError::NoCandidates
                ))
            ),
            "{err}"
        );
        assert_eq!(server.metrics().sessions_failed, 1);

        // The server keeps serving: a healthy session still completes.
        let good = server.submit(locals(21), &quick()).unwrap();
        assert!(server.wait(good, Some(Duration::from_secs(60))).is_ok());
    }

    #[test]
    fn too_many_parties_rejected() {
        let server = SapServer::in_memory(ServerConfig {
            max_parties: 3,
            ..ServerConfig::default()
        })
        .unwrap();
        let pooled = UciDataset::Iris.generate(1);
        let locals = partition(&pooled, 4, PartitionScheme::Uniform, 2);
        assert!(matches!(
            server.submit(locals, &quick()),
            Err(ServerError::TooManyParties {
                requested: 4,
                max: 3
            })
        ));
    }

    #[test]
    fn admission_control_sheds_when_full() {
        let server = SapServer::in_memory(ServerConfig {
            max_concurrent: 1,
            max_queued: 0,
            ..ServerConfig::default()
        })
        .unwrap();
        // A session that will hang (all frames dropped) holds the slot.
        let stuck_cfg = SapConfig {
            fault_config: Some(sap_net::sim::FaultConfig {
                drop_prob: 1.0,
                ..Default::default()
            }),
            timeout: Duration::from_secs(5),
            ..SapConfig::quick_test()
        };
        let stuck = server.submit(locals(9), &stuck_cfg).unwrap();
        let err = server.submit(locals(10), &quick()).unwrap_err();
        assert!(matches!(err, ServerError::Overloaded { live: 1, limit: 1 }));
        assert_eq!(server.metrics().sessions_rejected, 1);

        // The stuck session times out; its slot frees up.
        let err = server.wait(stuck, None).unwrap_err();
        assert!(
            matches!(err, ServerError::Session(SapError::Timeout { .. })),
            "{err}"
        );
        assert!(server.submit(locals(11), &quick()).is_ok());
    }

    #[test]
    fn abort_cancels_promptly_and_counts() {
        let server = SapServer::in_memory(ServerConfig::default()).unwrap();
        let stuck_cfg = SapConfig {
            fault_config: Some(sap_net::sim::FaultConfig {
                drop_prob: 1.0,
                ..Default::default()
            }),
            timeout: Duration::from_secs(120),
            ..SapConfig::quick_test()
        };
        let id = server.submit(locals(4), &stuck_cfg).unwrap();
        server.abort(id).unwrap();
        let start = Instant::now();
        let err = server.wait(id, Some(Duration::from_secs(30))).unwrap_err();
        assert!(
            matches!(err, ServerError::Session(SapError::Aborted)),
            "{err}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "abort must not wait out the 120s protocol timeout"
        );
        assert_eq!(server.metrics().sessions_aborted, 1);
    }

    #[test]
    fn reap_gcs_finished_sessions() {
        let server = SapServer::in_memory(ServerConfig {
            reap_after: Duration::ZERO,
            ..ServerConfig::default()
        })
        .unwrap();
        let id = server.submit(locals(5), &quick()).unwrap();
        server.wait(id, None).unwrap();
        assert_eq!(server.reap(), 1);
        assert!(matches!(
            server.poll(id),
            Err(ServerError::UnknownSession(_))
        ));
        // Unknown-session wait after reap.
        assert!(matches!(
            server.wait(id, None),
            Err(ServerError::UnknownSession(_))
        ));
    }

    #[test]
    fn age_gc_aborts_overdue_sessions() {
        let server = SapServer::in_memory(ServerConfig {
            max_session_age: Duration::ZERO,
            ..ServerConfig::default()
        })
        .unwrap();
        let stuck_cfg = SapConfig {
            fault_config: Some(sap_net::sim::FaultConfig {
                drop_prob: 1.0,
                ..Default::default()
            }),
            timeout: Duration::from_secs(120),
            ..SapConfig::quick_test()
        };
        let id = server.submit(locals(6), &stuck_cfg).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        // First sweep aborts; roles unwind via Disconnected, then a later
        // sweep (or wait) observes the end.
        server.reap();
        let err = server.wait(id, Some(Duration::from_secs(30))).unwrap_err();
        assert!(
            matches!(err, ServerError::Session(SapError::Aborted)),
            "{err}"
        );
    }
}
