//! A sharded multi-node SAP fleet on one host.
//!
//! One [`sap_server::SapServer`] tops out at a single process: one
//! mesh, one pool, one registry. This crate scales the service *out*:
//! a [`Fleet`] runs `N` server nodes connected by inter-node TCP lanes
//! (the reactor transport, v4 envelope unchanged).
//!
//! * **Placement** — session ids are minted fleet-unique (per-node
//!   residue classes, [`sap_core::placement::IdMinter`]) and placed by
//!   rendezvous (highest random weight) hashing (Thaler & Ravishankar,
//!   IEEE/ACM ToN 1998; [`sap_core::placement::owner`]): the alive node
//!   with the highest weight for the id owns the session. Every node
//!   computes the same owner from the same membership view, each node
//!   owns an even share of the ids in expectation, and a node's
//!   departure moves only the sessions it owned.
//! * **Forwarding** — a client may submit through *any* node. A
//!   gateway that does not own the session seals the registration for
//!   the owner's inbox ([`wire`]) and sends it straight to the owner:
//!   the inter-node lanes form a full mesh, so every control message
//!   (`Register`, `Leave`) travels one hop and nothing relays it. The
//!   owner admits the session and settles its registration record, which
//!   every node shares. Outcomes are then awaited cross-node via
//!   [`Fleet::wait`].
//! * **Registration records** — the fleet keeps one record per session,
//!   from submit to the verdict [`Fleet::wait`] returns: its owner, its
//!   origin, whether the owner admitted it, and its inputs. That record
//!   is the session's one stored copy of its inputs, and the only one a
//!   re-placement or a handoff replays.
//! * **Membership** — node heartbeats ride the PR 5 liveness plane
//!   under [`SessionId::LIVENESS`] on the inter-node lanes. A silent
//!   node is declared dead within the heartbeat budget; survivors drop
//!   it from the alive set (repair is recomputing the pure placement
//!   function over the new view) and the origin re-places registrations
//!   the dead owner never admitted. Graceful leavers broadcast
//!   [`wire::FleetMsg::Leave`] and hand their running sessions to the
//!   new owners, re-registering each from its record.
//!
//! `tests/fleet_ring.rs` property-tests the placement function;
//! `tests/fleet_sessions.rs` pins byte-identical [`SapOutcome`]s whether
//! a session enters at its owner or at another gateway, typed fail-fast
//! on `kill -9`, and that registrations keep arriving while a dead node
//! is still in the membership view.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod wire;

use parking_lot::{Condvar, Mutex};
use sap_core::placement::{self, node_point, session_point};
use sap_core::runtime::SessionStatus;
use sap_core::session::{SapConfig, SapOutcome};
use sap_core::SapError;
use sap_datasets::Dataset;
use sap_net::frame::{open_frame_recycling, FlowItem, Reassembler};
use sap_net::mux::{MuxEndpoint, SessionMux};
use sap_net::tcp::local_mesh;
use sap_net::transport::Endpoint;
use sap_net::{PartyId, ReactorTransport, SessionId, Transport, TransportError};
use sap_server::{SapServer, ServerConfig, ServerError};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wire::FleetMsg;

pub use wire::{inbox_session, MAX_NODES};

/// Fleet-level failures.
#[derive(Debug)]
pub enum FleetError {
    /// The fleet configuration is unusable (zero nodes, too many).
    Config(String),
    /// The addressed node is not alive (never was, left, or died).
    NodeDown(usize),
    /// No live node remains to own the session.
    NoNodes,
    /// The session is not known to the fleet.
    UnknownSession(SessionId),
    /// The owning node refused the registration.
    Rejected {
        /// The refused session.
        session: SessionId,
        /// The owner's admission error, rendered.
        reason: String,
    },
    /// The caller's deadline elapsed before the session finished.
    Timeout(SessionId),
    /// An underlying server error (including typed session failures).
    Server(ServerError),
    /// Building the inter-node mesh failed.
    Mesh(std::io::Error),
    /// A transport error on the control plane.
    Transport(TransportError),
}

impl fmt::Display for FleetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FleetError::Config(why) => write!(f, "bad fleet config: {why}"),
            FleetError::NodeDown(n) => write!(f, "fleet node {n} is down"),
            FleetError::NoNodes => write!(f, "no live fleet nodes"),
            FleetError::UnknownSession(id) => write!(f, "unknown {id}"),
            FleetError::Rejected { session, reason } => {
                write!(f, "{session} rejected by its owner: {reason}")
            }
            FleetError::Timeout(id) => write!(f, "timed out waiting for {id}"),
            FleetError::Server(e) => write!(f, "server error: {e}"),
            FleetError::Mesh(e) => write!(f, "inter-node mesh failed: {e}"),
            FleetError::Transport(e) => write!(f, "control-plane transport: {e}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// Fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Node count (1 ≤ nodes ≤ [`MAX_NODES`]).
    pub nodes: usize,
    /// Per-node server template. `session_id_base` / `session_id_stride`
    /// are overwritten per node (residue-class minting). The nodes'
    /// servers keep no session inputs: the fleet's registration records
    /// hold the copy a handoff replays.
    pub server: ServerConfig,
    /// Secret sealing the fleet control plane ([`wire::inbox_key`]).
    pub fleet_secret: u64,
    /// Node heartbeat interval on the inter-node liveness plane. The
    /// node lanes are connected when the fleet is built, and every clock
    /// starts then: a node silent for one budget
    /// (`heartbeat_interval × liveness_misses`) from then is declared
    /// dead.
    pub heartbeat_interval: Duration,
    /// Missed-interval budget before a silent node is declared dead.
    pub liveness_misses: u32,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            nodes: 2,
            server: ServerConfig::default(),
            fleet_secret: 0xF1EE_75EC,
            heartbeat_interval: sap_net::mux::DEFAULT_HEARTBEAT_INTERVAL,
            liveness_misses: sap_net::mux::DEFAULT_LIVENESS_MISSES,
        }
    }
}

impl FleetConfig {
    /// A test-shaped fleet: `nodes` nodes with a tight heartbeat so
    /// node deaths are detected in ~1 s instead of many seconds. The
    /// miss budget stays generous (20 × 50 ms): a loaded single-core
    /// test box can starve one emitter thread well past 150 ms, and a
    /// false node death is a much worse test outcome than detection
    /// taking a few hundred extra milliseconds.
    pub fn quick(nodes: usize) -> FleetConfig {
        FleetConfig {
            nodes,
            heartbeat_interval: Duration::from_millis(50),
            liveness_misses: 20,
            ..FleetConfig::default()
        }
    }
}

/// Fleet counters, taken from the registration records' transitions:
/// each session id counts once, wherever it ran and however often it
/// was handed off or re-placed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetMetrics {
    /// Nodes currently alive.
    pub nodes_alive: usize,
    /// Node deaths detected by the liveness plane.
    pub node_deaths_detected: u64,
    /// Sessions admitted, counted at their record's first admission.
    pub sessions_started: u64,
    /// Sessions whose verdict [`Fleet::wait`] returned as an outcome.
    pub sessions_completed: u64,
    /// Sessions whose verdict [`Fleet::wait`] returned as an error
    /// (rejected, node down, or the session's own typed error).
    pub sessions_failed: u64,
    /// Registration records held: sessions submitted whose verdict has
    /// not been returned yet.
    pub registrations_live: usize,
    /// Registrations sent to a remote owner over the control plane.
    pub registrations_forwarded: u64,
    /// Registrations re-placed after their owner died, plus handoffs
    /// from graceful leavers.
    pub registrations_replaced: u64,
    /// Control frames relayed by an intermediate node. Always 0: every
    /// control message goes straight to its destination node.
    pub frames_forwarded: u64,
}

/// Where a session's registration stands with its owner.
#[derive(Clone, PartialEq)]
enum Admission {
    /// Sent to the owner, no verdict yet: re-placeable if the owner dies.
    Unacked,
    /// The owner runs (or ran) the session.
    Admitted,
    /// The owner refused it, with the admission error rendered.
    Rejected(String),
}

/// One session's registration, kept from submit until [`Fleet::wait`]
/// returns its verdict: the session's one stored copy of its inputs.
struct Registration {
    /// The node the registration was last sent to (or admitted by).
    owner: usize,
    /// The node that re-places the registration if the owner dies
    /// before admitting it.
    origin: usize,
    admission: Admission,
    /// Whether some owner admitted it: counted in `sessions_started`.
    started: bool,
    locals: Vec<Dataset>,
    config: SapConfig,
}

impl Registration {
    fn message(&self, session: u64) -> FleetMsg {
        FleetMsg::Register {
            session,
            config: Box::new(self.config.clone()),
            locals: self.locals.clone(),
        }
    }
}

/// State shared by every node's service thread and the fleet handle.
#[derive(Default)]
struct Shared {
    secret: u64,
    alive: Mutex<BTreeSet<usize>>,
    /// Nodes that died silently (liveness-detected). Graceful leavers
    /// never enter this set.
    dead: Mutex<BTreeSet<usize>>,
    /// Nodes mid- (or post-) graceful departure; their deaths are
    /// expected and their husks still serve harvested outcomes.
    leaving: Mutex<BTreeSet<usize>>,
    /// session id → its registration, from submit to its verdict.
    sessions: Mutex<HashMap<u64, Registration>>,
    /// Signalled at every admission verdict; gateways wait on it
    /// (`submit_via`).
    settled: Condvar,
    verdict_wait: Duration,
    started: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    regs_forwarded: AtomicU64,
    regs_replaced: AtomicU64,
    deaths: AtomicU64,
}

impl Shared {
    /// The alive node that owns `point`: [`placement::owner`] over the
    /// current membership view.
    fn owner_of_point(&self, point: u64) -> Option<usize> {
        placement::owner(point, self.alive.lock().iter().copied())
    }

    /// Ids of the sessions whose registration matches `keep`.
    fn sessions_where(&self, keep: impl Fn(&Registration) -> bool) -> Vec<u64> {
        let sessions = self.sessions.lock();
        sessions
            .iter()
            .filter(|(_, r)| keep(r))
            .map(|(&s, _)| s)
            .collect()
    }
}

/// One fleet node: a full SAP server (in-memory party mesh) plus its
/// inter-node lane mux and inbox.
struct FleetNode {
    index: usize,
    server: Arc<SapServer<Endpoint>>,
    mux: SessionMux<ReactorTransport>,
    inbox: Arc<MuxEndpoint<ReactorTransport>>,
    msg_ids: AtomicU64,
}

impl FleetNode {
    /// A fleet-unique control message id: node index in the high bits,
    /// a local counter below (also seeds sealing nonces — two nodes
    /// never collide).
    fn next_msg_id(&self) -> u64 {
        ((self.index as u64 + 1) << 40) | self.msg_ids.fetch_add(1, Ordering::Relaxed)
    }

    /// Sends a control message straight to node `dest`'s inbox.
    /// [`FleetError::NodeDown`] when `dest` is not alive.
    fn route_send(&self, shared: &Shared, dest: usize, msg: &FleetMsg) -> Result<(), FleetError> {
        if !shared.alive.lock().contains(&dest) {
            return Err(FleetError::NodeDown(dest));
        }
        wire::send_via(&*self.inbox, shared.secret, dest, self.next_msg_id(), msg)
    }
}

/// A sharded multi-node SAP service: N server nodes, one placement
/// function, one membership plane. See the crate docs for the moving parts.
pub struct Fleet {
    shared: Arc<Shared>,
    /// `nodes[j]` is `None` once node `j` was killed or left; its husk
    /// (still holding harvested outcomes) moves to `husks`.
    nodes: Mutex<Vec<Option<Arc<FleetNode>>>>,
    husks: Mutex<HashMap<usize, Arc<FleetNode>>>,
    services: Mutex<Vec<JoinHandle<()>>>,
    round_robin: AtomicUsize,
}

impl Fleet {
    /// Builds and starts a fleet: inter-node TCP lanes (full mesh, one
    /// per node), per-node servers over in-memory party meshes, node
    /// liveness and inbox service threads.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] for a bad node count, [`FleetError::Mesh`]
    /// for socket errors, [`FleetError::Server`] for server setup
    /// failures.
    pub fn in_memory(config: FleetConfig) -> Result<Fleet, FleetError> {
        let n = config.nodes;
        if n == 0 || n > MAX_NODES {
            return Err(FleetError::Config(format!(
                "node count {n} outside 1..={MAX_NODES}"
            )));
        }
        let ids: Vec<PartyId> = (0..n).map(|j| PartyId(j as u64)).collect();
        let lanes = local_mesh(&ids).map_err(FleetError::Mesh)?;
        // Node liveness is node-grained: a silent node is declared dead
        // after one heartbeat budget.
        let budget = config.heartbeat_interval * config.liveness_misses.max(1);
        let shared = Arc::new(Shared {
            secret: config.fleet_secret,
            alive: Mutex::new((0..n).collect()),
            verdict_wait: budget,
            ..Shared::default()
        });
        let mut nodes = Vec::with_capacity(n);
        let mut services = Vec::with_capacity(n);
        for (j, lane) in lanes.into_iter().enumerate() {
            let mux = SessionMux::new(lane);
            mux.start_liveness(
                ids.clone(),
                config.heartbeat_interval,
                config.liveness_misses,
            );
            let inbox = Arc::new(
                mux.open_session(wire::inbox_session(j))
                    .map_err(FleetError::Transport)?,
            );
            let server_config = ServerConfig {
                session_id_base: j as u64 + 1,
                session_id_stride: n as u64,
                ..config.server.clone()
            };
            let server = Arc::new(SapServer::in_memory(server_config).map_err(FleetError::Server)?);
            let node = Arc::new(FleetNode {
                index: j,
                server,
                mux,
                inbox,
                msg_ids: AtomicU64::new(1),
            });
            let (node2, shared2) = (Arc::clone(&node), Arc::clone(&shared));
            let handle = std::thread::Builder::new()
                .name(format!("fleet-node-{j}"))
                .spawn(move || service_loop(&node2, &shared2))
                .map_err(FleetError::Mesh)?;
            nodes.push(Some(node));
            services.push(handle);
        }
        Ok(Fleet {
            shared,
            nodes: Mutex::new(nodes),
            husks: Mutex::new(HashMap::new()),
            services: Mutex::new(services),
            round_robin: AtomicUsize::new(0),
        })
    }

    /// Indices of the nodes currently alive.
    pub fn alive(&self) -> Vec<usize> {
        self.shared.alive.lock().iter().copied().collect()
    }

    /// The node owning `id` under the current membership view.
    pub fn owner_of(&self, id: SessionId) -> Option<usize> {
        self.shared.owner_of_point(session_point(id))
    }

    /// The node that admitted `id`, or `None` while its registration is
    /// still un-acked, after [`Fleet::wait`] returned its verdict, or for
    /// an unknown id. Unlike [`Fleet::owner_of`], this is where the
    /// session actually runs, not where placement would put it now.
    pub fn placement(&self, id: SessionId) -> Option<usize> {
        let sessions = self.shared.sessions.lock();
        let r = sessions.get(&id.0)?;
        (r.admission == Admission::Admitted).then_some(r.owner)
    }

    fn node(&self, j: usize) -> Option<Arc<FleetNode>> {
        self.nodes.lock().get(j)?.clone()
    }

    fn node_or_husk(&self, j: usize) -> Option<Arc<FleetNode>> {
        self.node(j).or_else(|| self.husks.lock().get(&j).cloned())
    }

    /// Submits a session through the next live gateway (round-robin).
    ///
    /// # Errors
    ///
    /// Everything [`Fleet::submit_via`] returns.
    pub fn submit(
        &self,
        locals: Vec<Dataset>,
        config: &SapConfig,
    ) -> Result<SessionId, FleetError> {
        let alive = self.alive();
        if alive.is_empty() {
            return Err(FleetError::NoNodes);
        }
        let gateway = alive[self.round_robin.fetch_add(1, Ordering::Relaxed) % alive.len()];
        self.submit_via(gateway, locals, config)
    }

    /// Submits a session through a **chosen** gateway node. The gateway
    /// mints the id (from its residue class), computes its owner,
    /// and either admits locally (it owns the session) or sends the
    /// sealed registration straight to the owner and returns at its
    /// verdict (one liveness budget at most), so no later session can
    /// overtake it in the owner's queue. Rejections surface in [`Fleet::wait`].
    ///
    /// # Errors
    ///
    /// [`FleetError::NodeDown`] for a dead gateway, [`FleetError::NoNodes`]
    /// when no node is alive, [`FleetError::Server`] for local admission
    /// failures, [`FleetError::Transport`] for control-plane send
    /// failures.
    pub fn submit_via(
        &self,
        gateway: usize,
        locals: Vec<Dataset>,
        config: &SapConfig,
    ) -> Result<SessionId, FleetError> {
        let node = self.node(gateway).ok_or(FleetError::NodeDown(gateway))?;
        if !self.shared.alive.lock().contains(&gateway) {
            return Err(FleetError::NodeDown(gateway));
        }
        let id = node.server.mint_session_id();
        let owner = self
            .shared
            .owner_of_point(session_point(id))
            .ok_or(FleetError::NoNodes)?;
        let local = owner == gateway;
        let record = Registration {
            owner,
            origin: gateway,
            admission: if local {
                Admission::Admitted
            } else {
                Admission::Unacked
            },
            started: local,
            locals,
            config: config.clone(),
        };
        if local {
            node.server
                .submit_placed(id, record.locals.clone(), config)
                .map_err(FleetError::Server)?;
            self.shared.sessions.lock().insert(id.0, record);
            self.shared.started.fetch_add(1, Ordering::Relaxed);
            return Ok(id);
        }
        // The record goes in before the send: the owner settles it.
        let msg = record.message(id.0);
        self.shared.sessions.lock().insert(id.0, record);
        node.route_send(&self.shared, owner, &msg)
            .inspect_err(|_| {
                self.shared.sessions.lock().remove(&id.0);
            })?;
        // The record is the session's one stored copy: free the sent one
        // before the verdict wait.
        drop(msg);
        self.shared.regs_forwarded.fetch_add(1, Ordering::Relaxed);
        let give_up = Instant::now() + self.shared.verdict_wait;
        let mut sessions = self.shared.sessions.lock();
        while sessions
            .get(&id.0)
            .is_some_and(|r| r.admission == Admission::Unacked)
            && Instant::now() < give_up
        {
            sessions = self.shared.settled.wait_until(sessions, give_up);
        }
        Ok(id)
    }

    /// Waits for a session's outcome, wherever it runs (or ran). A
    /// session whose owner died surfaces [`FleetError::NodeDown`] (or
    /// the owner's typed abort, [`SapError::Aborted`], if the wait was
    /// already inside the husk) promptly — never hanging until the
    /// protocol timeout. An un-acked registration whose owner dies is
    /// re-placed instead (see [`Fleet::kill`]); from then on this
    /// reports the re-run's own outcome, not `NodeDown`.
    ///
    /// The verdict (the outcome, the session's own error, a rejection or
    /// `NodeDown`) is returned once: the session then leaves the fleet,
    /// and a later call returns [`FleetError::UnknownSession`]. A
    /// [`FleetError::Timeout`] is not a verdict: the session stays.
    ///
    /// # Errors
    ///
    /// * [`FleetError::UnknownSession`] — `id` was never placed, or its
    ///   verdict was already returned.
    /// * [`FleetError::Rejected`] — the owner refused the registration.
    /// * [`FleetError::NodeDown`] — the owner (and, for un-acked
    ///   registrations, the origin) died.
    /// * [`FleetError::Timeout`] — `timeout` elapsed.
    /// * [`FleetError::Server`] — the session's own typed error.
    pub fn wait(&self, id: SessionId, timeout: Option<Duration>) -> Result<SapOutcome, FleetError> {
        // A timeout too long to represent waits without a limit.
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let expired = |d: &Option<Instant>| d.is_some_and(|d| Instant::now() >= d);
        loop {
            let (owner, origin, admission) = {
                let sessions = self.shared.sessions.lock();
                let r = sessions.get(&id.0).ok_or(FleetError::UnknownSession(id))?;
                (r.owner, r.origin, r.admission.clone())
            };
            // `None`: no verdict yet.
            let verdict = match &admission {
                Admission::Rejected(reason) => Some(Err(FleetError::Rejected {
                    session: id,
                    reason: reason.clone(),
                })),
                // Un-acked: re-placeable, unless its origin died too.
                Admission::Unacked => {
                    let lost = {
                        let dead = self.shared.dead.lock();
                        dead.contains(&owner) && dead.contains(&origin)
                    };
                    if !lost {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    lost.then_some(Err(FleetError::NodeDown(owner)))
                }
                // A killed owner (slot gone without a graceful leave) fails
                // the session fast with the typed fleet error.
                Admission::Admitted
                    if self.node(owner).is_none()
                        && !self.shared.leaving.lock().contains(&owner) =>
                {
                    Some(Err(FleetError::NodeDown(owner)))
                }
                Admission::Admitted => match self.node_or_husk(owner) {
                    // A leaver between giving up its slot and becoming a
                    // husk: its records move, or its husk appears, shortly.
                    None => {
                        std::thread::sleep(Duration::from_millis(5));
                        None
                    }
                    // Wait in slices so ownership handoffs mid-wait are
                    // picked up from the moved record instead of blocking
                    // forever on the old node.
                    Some(node) => {
                        let slice = deadline.map_or(Duration::from_millis(100), |d| {
                            d.saturating_duration_since(Instant::now())
                                .min(Duration::from_millis(100))
                        });
                        match node.server.wait(id, Some(slice)) {
                            Err(ServerError::Session(SapError::Timeout {
                                phase: "session harvest",
                                ..
                            })) => None,
                            verdict => Some(verdict.map_err(FleetError::Server)),
                        }
                    }
                },
            };
            // The verdict stands only while the record is unchanged. A
            // leaver moves the record before it aborts its copy, so an
            // abort (or an unknown id) harvested here after a handoff is
            // followed to the new owner; an un-acked record an adopter
            // re-placed meanwhile is followed to its re-run.
            if let Some(verdict) = verdict {
                let mut sessions = self.shared.sessions.lock();
                let unchanged = sessions.get(&id.0).is_some_and(|r| {
                    (r.owner, r.origin, &r.admission) == (owner, origin, &admission)
                });
                if unchanged {
                    sessions.remove(&id.0);
                    let counter = match verdict {
                        Ok(_) => &self.shared.completed,
                        Err(_) => &self.shared.failed,
                    };
                    counter.fetch_add(1, Ordering::Relaxed);
                    return verdict;
                }
            }
            if expired(&deadline) {
                return Err(FleetError::Timeout(id));
            }
        }
    }

    /// `kill -9` semantics: the node vanishes mid-flight. Its running
    /// sessions die (clients get typed errors), its heartbeats stop,
    /// and the *survivors* detect the death through the liveness plane
    /// — membership is repaired there, not here. Un-acked registrations
    /// the dead node owned are re-placed by their origins once the death
    /// is detected: they were never admitted, so this kill cannot abort
    /// them, and [`Fleet::wait`] on them reports the re-run's outcome
    /// (success or its own error), not `NodeDown`. Check
    /// [`Fleet::placement`] to know whether a session was admitted yet.
    ///
    /// # Errors
    ///
    /// [`FleetError::NodeDown`] when the node is already gone.
    pub fn kill(&self, j: usize) -> Result<(), FleetError> {
        let node = {
            let mut nodes = self.nodes.lock();
            nodes
                .get_mut(j)
                .and_then(Option::take)
                .ok_or(FleetError::NodeDown(j))?
        };
        // The process is gone: every session it ran dies with it.
        let owned = self
            .shared
            .sessions_where(|r| r.owner == j && r.admission == Admission::Admitted);
        for s in owned {
            let _ = node.server.abort(SessionId(s));
        }
        // Stopping the mux stops the heartbeat emitter: survivors
        // declare the node dead after one silence budget.
        node.mux.shutdown();
        self.husks.lock().insert(j, node);
        Ok(())
    }

    /// Graceful departure: announce, hand running sessions to their new
    /// owners (same client-facing ids, re-registered from the fleet's
    /// records over the control plane), then shut the node down. A
    /// session that already finished keeps its verdict on the departed
    /// node, where [`Fleet::wait`] still finds it. Returns the number of
    /// sessions handed off.
    ///
    /// # Errors
    ///
    /// [`FleetError::NodeDown`] when the node is already gone;
    /// [`FleetError::NoNodes`] when it is the last one (nowhere to hand
    /// sessions).
    pub fn leave(&self, j: usize) -> Result<usize, FleetError> {
        if self.alive().len() <= 1 {
            return Err(FleetError::NoNodes);
        }
        let node = {
            let mut nodes = self.nodes.lock();
            nodes
                .get_mut(j)
                .and_then(Option::take)
                .ok_or(FleetError::NodeDown(j))?
        };
        self.shared.leaving.lock().insert(j);
        self.shared.alive.lock().remove(&j);
        let peers: Vec<usize> = self.alive();
        for &p in &peers {
            let _ = node.route_send(&self.shared, p, &FleetMsg::Leave { node: j as u64 });
        }
        // Ownership handoff: every running session re-registers on its
        // new owner under the same id, from its record.
        let owned = self
            .shared
            .sessions_where(|r| r.owner == j && r.admission == Admission::Admitted);
        let mut handed = 0;
        for s in owned {
            let id = SessionId(s);
            if !matches!(node.server.poll(id), Ok(SessionStatus::Running { .. })) {
                continue;
            }
            let Some(owner) = self.shared.owner_of_point(session_point(id)) else {
                break;
            };
            // The record moves before the abort, so a concurrent
            // `Fleet::wait` that harvests the abort follows it.
            let msg = {
                let mut sessions = self.shared.sessions.lock();
                let Some(r) = sessions.get_mut(&s) else {
                    continue;
                };
                r.owner = owner;
                r.origin = owner;
                r.admission = Admission::Unacked;
                r.message(s)
            };
            // Abort, then harvest, so the leaver keeps nothing of it.
            let _ = node.server.abort(id);
            let _ = node.server.wait(id, Some(Duration::ZERO));
            if node.route_send(&self.shared, owner, &msg).is_ok() {
                handed += 1;
                self.shared.regs_replaced.fetch_add(1, Ordering::Relaxed);
            }
        }
        node.mux.shutdown();
        self.husks.lock().insert(j, node);
        Ok(handed)
    }

    /// Fleet counters.
    pub fn metrics(&self) -> FleetMetrics {
        let shared = &self.shared;
        FleetMetrics {
            nodes_alive: self.alive().len(),
            node_deaths_detected: shared.deaths.load(Ordering::Relaxed),
            sessions_started: shared.started.load(Ordering::Relaxed),
            sessions_completed: shared.completed.load(Ordering::Relaxed),
            sessions_failed: shared.failed.load(Ordering::Relaxed),
            registrations_live: shared.sessions.lock().len(),
            registrations_forwarded: shared.regs_forwarded.load(Ordering::Relaxed),
            registrations_replaced: shared.regs_replaced.load(Ordering::Relaxed),
            frames_forwarded: 0,
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let nodes: Vec<Arc<FleetNode>> = {
            let live = self.nodes.lock();
            let husks = self.husks.lock();
            live.iter()
                .flatten()
                .cloned()
                .chain(husks.values().cloned())
                .collect()
        };
        for node in &nodes {
            node.mux.shutdown();
        }
        for handle in self.services.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

/// One node's inbox service: receives sealed control frames, handles
/// registrations and leaves, and turns liveness verdicts into membership
/// repair.
///
/// Frames go through the same [`Reassembler`] as every session's, keyed
/// by `(sender, msg_id)`: two threads of one node (a client submitting
/// through it, its service thread re-placing a dead node's sessions) may
/// interleave their messages' frames on the same lane, and each message
/// has its own id ([`FleetNode::next_msg_id`]). Per-message frame order
/// is still guaranteed (one thread sends one message's frames
/// back-to-back over FIFO lanes), so a sequence gap means an
/// undeliverable message: the reassembler drops its state, and the
/// origin's un-acked registration record re-sends rather than this layer
/// guessing.
fn service_loop(node: &FleetNode, shared: &Shared) {
    let key = wire::inbox_key(shared.secret, node.index);
    let my_inbox = wire::inbox_session(node.index);
    let mut reassembler = Reassembler::new();
    loop {
        match node.inbox.recv_timeout(Duration::from_millis(50)) {
            Ok((from, sealed)) => {
                let Ok((session, frame)) = open_frame_recycling(key, sealed) else {
                    continue;
                };
                if session != my_inbox {
                    continue;
                }
                let Ok(Some(FlowItem::Message(bytes))) = reassembler.feed(from, frame) else {
                    continue;
                };
                let Ok(msg) = sap_net::wire::from_bytes::<FleetMsg>(&bytes) else {
                    continue;
                };
                handle_msg(node, shared, msg);
            }
            Err(TransportError::PeerDown(peer)) => on_peer_down(node, shared, peer),
            Err(TransportError::Timeout) => {}
            Err(_) => return, // mux shut down
        }
    }
}

fn handle_msg(node: &FleetNode, shared: &Shared, msg: FleetMsg) {
    match msg {
        FleetMsg::Register {
            session,
            config,
            locals,
        } => {
            let admission = match node
                .server
                .submit_placed(SessionId(session), locals, &config)
            {
                // A duplicate means this node already admitted the
                // session (a re-placement raced a slow registration):
                // that is success.
                Ok(_) | Err(ServerError::DuplicateSession(_)) => Admission::Admitted,
                Err(e) => Admission::Rejected(e.to_string()),
            };
            // The records are shared on one host, so the owner settles
            // the origin's record itself, at the verdict: an origin that
            // dies after sending can never strand an admitted session.
            if let Some(r) = shared.sessions.lock().get_mut(&session) {
                r.owner = node.index;
                if admission == Admission::Admitted && !r.started {
                    r.started = true;
                    shared.started.fetch_add(1, Ordering::Relaxed);
                }
                r.admission = admission;
            }
            shared.settled.notify_all();
        }
        FleetMsg::Leave { node: leaver } => {
            shared.leaving.lock().insert(leaver as usize);
            shared.alive.lock().remove(&(leaver as usize));
        }
    }
}

/// Liveness verdict on a peer node: repair membership and re-place the
/// un-acked registrations the dead node leaves behind.
fn on_peer_down(node: &FleetNode, shared: &Shared, peer: PartyId) {
    let d = peer.0 as usize;
    let newly = shared.alive.lock().remove(&d);
    let graceful = shared.leaving.lock().contains(&d);
    if newly && !graceful {
        shared.dead.lock().insert(d);
        shared.deaths.fetch_add(1, Ordering::Relaxed);
    }
    if graceful || !shared.dead.lock().contains(&d) {
        return;
    }
    // Two kinds of registration are re-placed, neither ever admitted
    // anywhere, so re-running them on the new owner cannot
    // double-execute:
    // * those this node sent to the dead owner and never got acked;
    // * those the dead node *originated* whose verdict never settled.
    //   The owner of the dead node's own point adopts them — every
    //   survivor computes the same adopter, so exactly one node takes
    //   them over.
    //   An admitted registration was settled at the verdict; a
    //   duplicate Register racing a slow original is absorbed by the
    //   owner as `DuplicateSession`.
    let adopter = shared.owner_of_point(node_point(d)) == Some(node.index);
    let orphans = shared.sessions_where(|r| {
        r.admission == Admission::Unacked
            && ((r.owner == d && r.origin == node.index) || (adopter && r.origin == d))
    });
    for session in orphans {
        let Some(owner) = shared.owner_of_point(session_point(SessionId(session))) else {
            continue;
        };
        let msg = {
            let mut sessions = shared.sessions.lock();
            let Some(r) = sessions.get_mut(&session) else {
                continue;
            };
            r.owner = owner;
            r.origin = node.index;
            r.message(session)
        };
        if owner == node.index {
            handle_msg(node, shared, msg);
        } else {
            let _ = node.route_send(shared, owner, &msg);
        }
        shared.regs_replaced.fetch_add(1, Ordering::Relaxed);
    }
}

/// Placement over the fleet's membership view: [`Shared::owner_of_point`]
/// as the alive set changes. The ids' points lie on the 64-bit ring of
/// [`placement::ring_point`].
#[cfg(test)]
mod ring {
    mod tests {
        use super::super::*;

        fn four_alive() -> Shared {
            Shared {
                alive: Mutex::new((0..4).collect()),
                ..Shared::default()
            }
        }

        fn owner(shared: &Shared, raw: u64) -> Option<usize> {
            shared.owner_of_point(session_point(SessionId(raw)))
        }

        #[test]
        fn ownership_is_total_and_stable() {
            let shared = four_alive();
            for raw in 1..200u64 {
                let owner_now = owner(&shared, raw).unwrap();
                assert!(owner_now < 4);
                // Same id, same owner, every time.
                assert_eq!(owner(&shared, raw), Some(owner_now));
            }
        }

        #[test]
        fn removal_only_moves_the_removed_nodes_keys() {
            let shared = four_alive();
            let before: Vec<usize> = (1..500u64)
                .map(|raw| owner(&shared, raw).unwrap())
                .collect();
            shared.alive.lock().remove(&2);
            for (raw, before) in (1..500u64).zip(before) {
                let after = owner(&shared, raw).unwrap();
                if before != 2 {
                    assert_eq!(before, after, "id {raw} moved without cause");
                } else {
                    assert_ne!(after, 2);
                }
            }
        }
    }
}
