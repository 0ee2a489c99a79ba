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
//! * a **session registry**: a session is registered at submit and
//!   leaves it when [`SapServer::wait`] returns its verdict. The server
//!   keeps no copy of a session's inputs: it runs each session once,
//!   and a session whose peer dies fails with a typed
//!   [`SapError::PeerFailure`] (re-running it elsewhere is the fleet's
//!   job, `sap-fleet`);
//! * **admission control**: beyond
//!   `max_concurrent + max_queued` live sessions, [`SapServer::submit`]
//!   sheds with [`ServerError::Overloaded`] instead of queueing unboundedly;
//! * **QoS scheduling**: sessions carry a
//!   [`sap_core::runtime::QosClass`] on their [`SapConfig`]; the pool
//!   admits interactive gangs with strict priority over batch ones
//!   (batch gangs age into the interactive queue instead of starving),
//!   and sheds queued sessions whose `session_budget` provably cannot be
//!   met ([`SapError::AdmissionShed`]);
//! * a **metrics surface** ([`ServerMetrics`]): sessions
//!   started/completed/failed/aborted/rejected/shed, per-class
//!   queue-wait and service-time histograms with p50/p99/p999
//!   ([`SessionLatency`]), the scheduler's promotion counter, relayed
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

use parking_lot::Mutex;
use sap_core::placement::IdMinter;
use sap_core::runtime::{ActorPool, QosClass, SchedulerConfig, SessionHandle, SessionStatus};
use sap_core::session::{spawn_session, SapConfig, SapOutcome, MINER_ID};
use sap_core::SapError;
use sap_datasets::Dataset;
use sap_net::mux::SessionMux;
use sap_net::tcp::local_mesh;
use sap_net::transport::{Endpoint, Physical};
use sap_net::{InMemoryHub, PartyId, ReactorTransport, SessionId, Transport, TransportError};
use std::collections::HashMap;
use std::fmt;
use std::time::Duration;

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
    /// No session with that id exists (never created, or its verdict was
    /// already returned by [`SapServer::wait`]).
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
    /// Heartbeat interval of the lane liveness plane
    /// ([`sap_net::mux::SessionMux::start_liveness`]); `Duration::ZERO`
    /// disables lane heartbeats (peer deaths are then detected only when
    /// the transport reports them, e.g. a socket close). The lanes are
    /// connected when the server is built, and their liveness clocks
    /// start then.
    pub heartbeat_interval: Duration,
    /// Missed-interval budget before a silent lane peer is declared dead;
    /// detection latency is at most `heartbeat_interval × liveness_misses`
    /// plus one `heartbeat_interval` (the silence scan runs once per
    /// interval).
    pub liveness_misses: u32,
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
            heartbeat_interval: sap_net::mux::DEFAULT_HEARTBEAT_INTERVAL,
            liveness_misses: sap_net::mux::DEFAULT_LIVENESS_MISSES,
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

/// Aggregated server counters. A session is accounted once, when
/// [`SapServer::wait`] returns its verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServerMetrics {
    /// Sessions admitted.
    pub sessions_started: u64,
    /// Sessions that completed with an outcome.
    pub sessions_completed: u64,
    /// Sessions that ended in a protocol/transport error.
    pub sessions_failed: u64,
    /// Sessions aborted by their owner.
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
    /// session (seconds) — the engine's per-run total.
    pub optimizer_wall_s: f64,
    /// Optimizer candidates drawn, each scored by the cheap attacks,
    /// summed over completed sessions.
    pub optimizer_candidates_evaluated: u64,
    /// Optimizer candidates never fully scored, summed over completed
    /// sessions.
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
    /// Sessions shed by deadline-aware admission while queued — their
    /// budget provably could not be met, so no role ever ran
    /// ([`SapError::AdmissionShed`]).
    pub sessions_shed: u64,
    /// Batch gangs promoted to the interactive queue by aging (the
    /// pool's anti-starvation counter).
    pub gangs_promoted: u64,
    /// Always 0: the pool's workers share one ready queue, so there is no
    /// work stealing left to count. Kept for readers of the field.
    pub task_steals: u64,
    /// Role tasks of sessions still queued for gang admission.
    pub pool_queued_tasks: usize,
    /// Role tasks admitted to the pool and not yet finished.
    pub pool_running_tasks: usize,
    /// Per-class queue-wait and service-time histograms with
    /// p50/p99/p999 extraction ([`SessionLatency`]). Samples are recorded
    /// when a session is accounted.
    pub latency_histogram: SessionLatency,
}

struct SessionEntry {
    handle: SessionHandle,
    /// Scheduling class the session was submitted under, so accounting
    /// routes its timings to the right histograms.
    class: QosClass,
}

/// The registered sessions and the server's tally, under one lock: a
/// session leaves the map and is accounted in one critical section, and
/// a metrics read sees one consistent snapshot.
#[derive(Default)]
struct Registry {
    sessions: HashMap<SessionId, SessionEntry>,
    /// The session counters and latency histograms; `metrics()` fills in
    /// the lane, pool and averaged fields of a copy.
    tally: ServerMetrics,
    /// Sum of the completed sessions' overlap ratios.
    overlap_sum: f64,
}

impl Registry {
    /// Registered sessions still queued or running. Entries leave at
    /// their verdict, so the scan covers live sessions and the finished
    /// ones nobody has waited for yet.
    fn running(&self) -> usize {
        self.sessions
            .values()
            .filter(|e| matches!(e.handle.poll(), SessionStatus::Running { .. }))
            .count()
    }

    /// Accounts a session removed at its verdict. Shed sessions add a
    /// queue-wait sample only: they never had a service phase.
    fn account(&mut self, entry: &SessionEntry, result: &Result<SapOutcome, SapError>) {
        let timings = entry.handle.timings();
        let latency = self.tally.latency_histogram.class_mut(entry.class);
        if let Some(wait) = timings.queue_wait {
            latency.queue_wait.record(wait);
        }
        if let Some(service) = timings.service {
            latency.service.record(service);
        }
        let tally = &mut self.tally;
        match result {
            Ok(outcome) => {
                tally.sessions_completed += 1;
                tally.blocks_relayed += outcome.relayed_blocks;
                tally.blocks_pipelined += outcome.stream.pipelined_blocks;
                self.overlap_sum += outcome.stream.overlap_ratio();
                let opt = outcome.optimizer_summary();
                tally.optimizer_wall_s += opt.wall_s;
                tally.optimizer_candidates_evaluated += opt.candidates_evaluated;
                tally.optimizer_candidates_pruned += opt.candidates_pruned;
            }
            Err(SapError::Aborted) => tally.sessions_aborted += 1,
            Err(SapError::AdmissionShed { .. }) => tally.sessions_shed += 1,
            Err(_) => tally.sessions_failed += 1,
        }
    }
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
    registry: Mutex<Registry>,
    ids: IdMinter,
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
        let miner = mesh.pop().ok_or_else(|| {
            ServerError::Mesh(std::io::Error::other("local mesh has no miner lane"))
        })?;
        Ok(Self::over_lanes(config, mesh, miner))
    }
}

impl<T: Transport + 'static> SapServer<T> {
    /// Builds a server over caller-supplied physical lane endpoints.
    /// `lanes[i]` must have [`Transport::local_id`] `PartyId(i)`; `miner`
    /// must be reachable from every lane (full mesh).
    pub fn over_lanes(config: ServerConfig, lanes: Vec<T>, miner: T) -> Self
    where
        T: Physical,
    {
        let pool = ActorPool::with_config(config.pool_size(), config.scheduler);
        let lanes: Vec<SessionMux<T>> = lanes.into_iter().map(SessionMux::new).collect();
        let miner_lane = SessionMux::new(miner);
        // The lane liveness plane: every lane heartbeats every other lane
        // and watches for silence, so a dead party process is detected in
        // O(heartbeat budget) and every session that involved it fails
        // with a typed PeerFailure instead of waiting out its budget.
        if !config.heartbeat_interval.is_zero() {
            let roster: Vec<PartyId> = lanes
                .iter()
                .map(SessionMux::local_id)
                .chain(std::iter::once(miner_lane.local_id()))
                .collect();
            for lane in lanes.iter().chain(std::iter::once(&miner_lane)) {
                lane.start_liveness(
                    roster.clone(),
                    config.heartbeat_interval,
                    config.liveness_misses,
                );
            }
        }
        SapServer {
            pool,
            lanes,
            miner_lane,
            registry: Mutex::new(Registry::default()),
            ids: IdMinter::new(config.session_id_base, config.session_id_stride),
            config,
        }
    }

    /// The shared pool's worker count.
    pub fn pool_capacity(&self) -> usize {
        self.pool.capacity()
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
    /// fleet's placement path, where the id was minted (and placed by
    /// its hash) before the owning node was even known. The
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
    /// minted here and ids [`SapServer::submit`] mints share one
    /// sequence, so a gateway-minted id can never collide with the
    /// node's own.
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
        let mut registry = self.registry.lock();
        if let Some(id) = placed {
            if registry.sessions.contains_key(&id) {
                return Err(ServerError::DuplicateSession(id));
            }
        }
        let live = registry.running();
        let limit = self.config.max_concurrent + self.config.max_queued;
        if live >= limit {
            registry.tally.sessions_rejected += 1;
            return Err(ServerError::Overloaded { live, limit });
        }

        let id = placed.unwrap_or_else(|| self.ids.mint());
        let handle = self.wire_session(id, locals, session_config)?;

        registry.tally.sessions_started += 1;
        registry.sessions.insert(
            id,
            SessionEntry {
                handle,
                class: session_config.qos,
            },
        );
        Ok(id)
    }

    /// Opens mux routes for `id` on the first `locals.len()` lanes (plus
    /// the miner lane), spawns the session gang, and installs the abort
    /// hook that wakes its blocked roles.
    ///
    /// Each route lives exactly as long as its `MuxEndpoint`: a failed
    /// open or spawn drops the endpoints with its error, and a gang shed
    /// by the pool (even during this submit) drops them with its tasks.
    fn wire_session(
        &self,
        id: SessionId,
        locals: Vec<Dataset>,
        session_config: &SapConfig,
    ) -> Result<SessionHandle, ServerError> {
        let k = locals.len();
        let mut endpoints = Vec::with_capacity(k);
        for lane in &self.lanes[..k] {
            endpoints.push(lane.open_session(id)?);
        }
        let miner_endpoint = self.miner_lane.open_session(id)?;

        // A session's fault model wraps only its own endpoints (inside
        // spawn_session); its siblings' traffic never passes through it.
        let handle = spawn_session(
            &self.pool,
            id,
            locals,
            session_config,
            endpoints,
            miner_endpoint,
        )?;

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
        Ok(handle)
    }

    /// Non-blocking status lookup.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownSession`] when the id is not registered.
    pub fn poll(&self, id: SessionId) -> Result<SessionStatus, ServerError> {
        let registry = self.registry.lock();
        registry
            .sessions
            .get(&id)
            .map(|e| e.handle.poll())
            .ok_or(ServerError::UnknownSession(id))
    }

    /// Waits for a session and returns its verdict: the outcome or the
    /// session's error. `timeout` `None` waits indefinitely. The session
    /// leaves the registry with its verdict, so later calls on the id
    /// return [`ServerError::UnknownSession`]; a harvest timeout is not a
    /// verdict and leaves the session running. A session runs once: one
    /// that dies of a [`SapError::PeerFailure`] returns that failure.
    ///
    /// # Errors
    ///
    /// * [`ServerError::UnknownSession`] for unregistered ids, including
    ///   ids whose verdict an earlier call returned.
    /// * [`ServerError::Session`] carrying the session's own error, the
    ///   harvest timeout, or [`SapError::Aborted`].
    pub fn wait(
        &self,
        id: SessionId,
        timeout: Option<Duration>,
    ) -> Result<SapOutcome, ServerError> {
        let handle = {
            let registry = self.registry.lock();
            registry
                .sessions
                .get(&id)
                .map(|e| e.handle.clone())
                .ok_or(ServerError::UnknownSession(id))?
        };
        let result = handle.harvest(timeout);
        // A harvest deadline is the caller's timeout, not the session's
        // end — leave the entry registered.
        if !matches!(
            result,
            Err(SapError::Timeout {
                phase: "session harvest",
                ..
            })
        ) {
            self.finalize(id, &result);
        }
        result.map_err(ServerError::Session)
    }

    /// Aborts a session (idempotent): the handle records the verdict.
    ///
    /// # Errors
    ///
    /// [`ServerError::UnknownSession`] when the id is not registered.
    pub fn abort(&self, id: SessionId) -> Result<(), ServerError> {
        let handle = {
            let registry = self.registry.lock();
            registry
                .sessions
                .get(&id)
                .map(|e| e.handle.clone())
                .ok_or(ServerError::UnknownSession(id))?
        };
        handle.abort();
        Ok(())
    }

    /// Removes a session at its verdict and accounts it, in one critical
    /// section. Only the call that removes the entry accounts, so each
    /// session counts once.
    fn finalize(&self, id: SessionId, result: &Result<SapOutcome, SapError>) {
        let mut registry = self.registry.lock();
        if let Some(entry) = registry.sessions.remove(&id) {
            registry.account(&entry, result);
        }
    }

    /// A snapshot of the server's metrics (session counters plus the lane
    /// muxes' traffic counters).
    pub fn metrics(&self) -> ServerMetrics {
        let sched = self.pool.stats();
        let (mut m, overlap_sum) = {
            let registry = self.registry.lock();
            let mut tally = registry.tally;
            tally.live_sessions = registry.running();
            (tally, registry.overlap_sum)
        };
        // The tally leaves the lane fields at zero.
        let mut down_latency_us = 0;
        for lane in self.lanes.iter().chain(std::iter::once(&self.miner_lane)) {
            let lane = lane.metrics();
            m.bytes_sealed += lane.bytes_sent;
            m.frames_routed += lane.frames_routed;
            m.unknown_session_dropped += lane.unknown_session_dropped;
            m.shed_frames += lane.shed_frames;
            m.peer_failures_detected += lane.peers_down;
            down_latency_us += lane.peer_down_latency_us;
        }
        if m.sessions_completed > 0 {
            m.overlap_ratio_avg = overlap_sum / m.sessions_completed as f64;
        }
        if m.peer_failures_detected > 0 {
            m.peer_detection_latency_avg_s =
                down_latency_us as f64 / 1e6 / m.peer_failures_detected as f64;
        }
        m.gangs_promoted = sched.gangs_promoted;
        m.pool_queued_tasks = sched.queued_tasks;
        m.pool_running_tasks = sched.running_tasks;
        m
    }
}

impl<T: Transport + 'static> Drop for SapServer<T> {
    fn drop(&mut self) {
        // Abort everything still running so pool workers unblock, then let
        // the pool's own Drop join them.
        let handles: Vec<SessionHandle> = {
            let registry = self.registry.lock();
            registry
                .sessions
                .values()
                .map(|e| e.handle.clone())
                .collect()
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
    use std::time::Instant;

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
        // Candidates not pruned are the ones fully scored.
        assert_eq!(
            m.optimizer_candidates_evaluated - m.optimizer_candidates_pruned,
            outcome
                .reports
                .iter()
                .map(|r| r.optimizer.evaluations[sap_privacy::engine::LEVELS - 1] as u64)
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

    /// A candidate count the engine cannot allocate for, a noise σ that is
    /// negative or not finite, or an empty evaluation sample fails the
    /// submission with a typed config error before any role thread
    /// exists, and the server keeps serving.
    #[test]
    fn oversized_candidate_count_is_rejected_at_submit() {
        let server = SapServer::in_memory(ServerConfig::default()).unwrap();
        let max = sap_privacy::optimize::MAX_CANDIDATES;
        let base = sap_privacy::OptimizerConfig::default;
        let bad_optimizers = [
            sap_privacy::OptimizerConfig {
                candidates: max + 1,
                ..base()
            },
            sap_privacy::OptimizerConfig {
                candidates: 1 << 40,
                ..base()
            },
            sap_privacy::OptimizerConfig {
                noise_sigma: -1.0,
                ..base()
            },
            sap_privacy::OptimizerConfig {
                noise_sigma: f64::NAN,
                ..base()
            },
            sap_privacy::OptimizerConfig {
                noise_sigma: f64::INFINITY,
                ..base()
            },
            sap_privacy::OptimizerConfig {
                eval_sample: 0,
                ..base()
            },
        ];
        for optimizer in bad_optimizers {
            let bad_cfg = SapConfig {
                optimizer,
                ..quick()
            };
            let err = server.submit(locals(22), &bad_cfg).unwrap_err();
            assert!(
                matches!(err, ServerError::Session(SapError::InvalidConfig(_))),
                "{err}"
            );
        }
        assert_eq!(server.metrics().sessions_failed, 0);
        let at_max = SapConfig {
            optimizer: sap_privacy::OptimizerConfig {
                candidates: max,
                ..sap_privacy::OptimizerConfig::default()
            },
            ..quick()
        };
        assert!(at_max.validate().is_ok());

        let good = server.submit(locals(23), &quick()).unwrap();
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
    fn harvested_session_leaves_the_registry() {
        let server = SapServer::in_memory(ServerConfig::default()).unwrap();
        let id = server.submit(locals(5), &quick()).unwrap();
        server.wait(id, None).unwrap();
        assert!(matches!(
            server.poll(id),
            Err(ServerError::UnknownSession(_))
        ));
        // A second wait finds nothing to harvest.
        assert!(matches!(
            server.wait(id, None),
            Err(ServerError::UnknownSession(_))
        ));
    }

    /// A spawn that fails after the routes opened leaves no route behind:
    /// the id is free again at once.
    #[test]
    fn failed_spawn_leaves_the_id_free() {
        let server = SapServer::in_memory(ServerConfig::default()).unwrap();
        let id = SessionId(77);
        let mut two = locals(7);
        two.truncate(2);
        let err = server.submit_placed(id, two, &quick()).unwrap_err();
        assert!(
            matches!(
                err,
                ServerError::Session(SapError::TooFewProviders { got: 2 })
            ),
            "{err}"
        );
        server.submit_placed(id, locals(7), &quick()).unwrap();
        server.wait(id, Some(Duration::from_secs(60))).unwrap();
    }

    /// A gang the pool sheds during its own submit leaves no route behind
    /// once its verdict is returned.
    #[test]
    fn shed_at_submit_leaves_the_id_free() {
        let server = SapServer::in_memory(ServerConfig::default()).unwrap();
        let id = SessionId(78);
        let hopeless = SapConfig {
            session_budget: Duration::ZERO,
            ..quick()
        };
        server.submit_placed(id, locals(8), &hopeless).unwrap();
        let err = server.wait(id, Some(Duration::from_secs(60))).unwrap_err();
        assert!(
            matches!(err, ServerError::Session(SapError::AdmissionShed { .. })),
            "{err}"
        );
        server.submit_placed(id, locals(8), &quick()).unwrap();
        server.wait(id, Some(Duration::from_secs(60))).unwrap();
        assert_eq!(server.metrics().sessions_shed, 1);
    }

    /// The session budget alone ends a session whose every frame is lost,
    /// long before its protocol timeout.
    #[test]
    fn session_budget_ends_a_stuck_session() {
        let server = SapServer::in_memory(ServerConfig::default()).unwrap();
        let stuck_cfg = SapConfig {
            fault_config: Some(sap_net::sim::FaultConfig {
                drop_prob: 1.0,
                ..Default::default()
            }),
            timeout: Duration::from_secs(120),
            session_budget: Duration::from_millis(300),
            ..SapConfig::quick_test()
        };
        let start = Instant::now();
        let id = server.submit(locals(6), &stuck_cfg).unwrap();
        let err = server.wait(id, Some(Duration::from_secs(30))).unwrap_err();
        assert!(
            matches!(err, ServerError::Session(SapError::DeadlineExceeded { .. })),
            "{err}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "the 300 ms budget must end the session, took {:?}",
            start.elapsed()
        );
        assert_eq!(server.metrics().sessions_failed, 1);
    }
}
