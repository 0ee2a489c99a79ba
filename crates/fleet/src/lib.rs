//! A sharded multi-node SAP fleet on one host.
//!
//! One [`sap_server::SapServer`] tops out at a single process: one
//! mesh, one pool, one registry. This crate scales the service *out*:
//! a [`Fleet`] runs `N` server nodes, each owning an arc of a
//! consistent-hash ring ([`ring::HashRing`]), connected by inter-node
//! TCP lanes (the PR 6 reactor transport, v4 envelope unchanged).
//!
//! * **Placement** — session ids are minted fleet-unique (per-node
//!   residue classes, [`sap_core::placement::IdMinter`]) and hashed
//!   onto the ring; the successor node owns the session (Chord's
//!   `successor(k)` rule). Every node computes the same owner from the
//!   same membership view.
//! * **Forwarding** — a client may submit through *any* node. A
//!   gateway that does not own the session seals the registration for
//!   the owner's inbox ([`wire`]) and sends it to its ring successor;
//!   intermediate muxes relay the sealed frames **without decoding**
//!   (the mux forwarding hook), and the owner admits the session and
//!   acks back. Outcomes are then awaited cross-node via
//!   [`Fleet::wait`].
//! * **Membership** — node heartbeats ride the PR 5 liveness plane
//!   under [`SessionId::LIVENESS`] on the inter-node lanes. A silent
//!   node is declared dead within the heartbeat budget; survivors drop
//!   it from the ring (repair is recomputing the pure placement
//!   function over the new view) and the origin re-places registrations
//!   the dead owner never acknowledged. Graceful leavers broadcast
//!   [`wire::FleetMsg::Leave`] and hand their unfinished sessions to
//!   the new owners via
//!   [`sap_server::SapServer::export_registrations`].
//!
//! The correctness core is test-first: the decentralized repair
//! protocol the membership view abstracts is modeled in [`chord`] and
//! property-checked against Zave's *How to Make Chord Correct*
//! invariants by `tests/fleet_ring.rs`; `tests/fleet_sessions.rs` pins
//! byte-identical [`SapOutcome`]s whether a session enters at its
//! owner or at a forwarding node, and typed fail-fast on `kill -9`.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod chord;
pub mod ring;
pub mod wire;

use parking_lot::Mutex;
use ring::HashRing;
use sap_core::session::{SapConfig, SapOutcome};
use sap_core::SapError;
use sap_datasets::Dataset;
use sap_net::frame::open_frame;
use sap_net::mux::{MuxEndpoint, SessionMux};
use sap_net::reactor::DEFAULT_CONNECT_WINDOW;
use sap_net::tcp::local_mesh;
use sap_net::transport::Endpoint;
use sap_net::{PartyId, ReactorTransport, SessionId, Transport, TransportError};
use sap_server::{RetryPolicy, SapServer, ServerConfig, ServerError};
use std::collections::{BTreeSet, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wire::FleetMsg;

pub use wire::{inbox_node, inbox_session, MAX_NODES};

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
    /// are overwritten per node (residue-class minting), and
    /// `retry_policy.max_retries` is raised to at least 1 so every node
    /// retains session inputs for ownership handoffs.
    pub server: ServerConfig,
    /// Secret sealing the fleet control plane ([`wire::inbox_key`]).
    pub fleet_secret: u64,
    /// Node heartbeat interval on the inter-node liveness plane.
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

/// Aggregate fleet counters (summed over live nodes and husks of dead
/// or departed ones).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetMetrics {
    /// Nodes currently alive.
    pub nodes_alive: usize,
    /// Node deaths detected by the liveness plane.
    pub node_deaths_detected: u64,
    /// Sessions admitted, fleet-wide.
    pub sessions_started: u64,
    /// Sessions completed with an outcome, fleet-wide.
    pub sessions_completed: u64,
    /// Sessions that failed, fleet-wide.
    pub sessions_failed: u64,
    /// Registrations sent to a remote owner over the control plane.
    pub registrations_forwarded: u64,
    /// Registrations re-placed after their owner died, plus handoffs
    /// from graceful leavers.
    pub registrations_replaced: u64,
    /// Sealed control frames relayed by intermediate nodes without
    /// decoding (the mux forwarding hook).
    pub frames_forwarded: u64,
}

/// An un-acknowledged registration the origin retains for re-placement.
struct Pending {
    owner: usize,
    origin: usize,
    rejected: Option<String>,
    locals: Vec<Dataset>,
    config: SapConfig,
}

/// State shared by every node's service thread and the fleet handle.
struct Shared {
    secret: u64,
    alive: Mutex<BTreeSet<usize>>,
    /// Nodes that died silently (liveness-detected). Graceful leavers
    /// never enter this set.
    dead: Mutex<BTreeSet<usize>>,
    /// Nodes mid- (or post-) graceful departure; their deaths are
    /// expected and their husks still serve harvested outcomes.
    leaving: Mutex<BTreeSet<usize>>,
    /// session id → node that admitted it.
    placements: Mutex<HashMap<u64, usize>>,
    /// session id → registration awaiting the owner's ack.
    pending: Mutex<HashMap<u64, Pending>>,
    regs_forwarded: AtomicU64,
    regs_replaced: AtomicU64,
    deaths: AtomicU64,
}

impl Shared {
    fn ring(&self) -> HashRing {
        HashRing::from_members(self.alive.lock().iter().copied())
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

    /// Routes a control message toward `dest` via this node's ring
    /// successor (intermediate nodes relay zero-decode).
    fn route_send(&self, shared: &Shared, dest: usize, msg: &FleetMsg) -> Result<(), FleetError> {
        let hop = shared
            .ring()
            .next_hop(self.index, dest)
            .ok_or(FleetError::NodeDown(dest))?;
        wire::send_via(
            &*self.inbox,
            shared.secret,
            PartyId(hop as u64),
            dest,
            self.next_msg_id(),
            msg,
        )
    }
}

/// A sharded multi-node SAP service: N server nodes, one placement
/// ring, one membership plane. See the crate docs for the moving parts.
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
    /// liveness, inbox service threads, and the forwarding hooks.
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
        let shared = Arc::new(Shared {
            secret: config.fleet_secret,
            alive: Mutex::new((0..n).collect()),
            dead: Mutex::new(BTreeSet::new()),
            leaving: Mutex::new(BTreeSet::new()),
            placements: Mutex::new(HashMap::new()),
            pending: Mutex::new(HashMap::new()),
            regs_forwarded: AtomicU64::new(0),
            regs_replaced: AtomicU64::new(0),
            deaths: AtomicU64::new(0),
        });
        let mut nodes = Vec::with_capacity(n);
        let mut services = Vec::with_capacity(n);
        for (j, lane) in lanes.into_iter().enumerate() {
            let mux = SessionMux::new(lane);
            // Node liveness: the PR 5 plane, node-grained. Startup grace
            // covers the mesh's connect window; steady-state detection
            // is one heartbeat budget.
            let budget = config.heartbeat_interval * config.liveness_misses.max(1);
            mux.start_liveness_with_grace(
                ids.clone(),
                config.heartbeat_interval,
                config.liveness_misses,
                budget.max(DEFAULT_CONNECT_WINDOW),
            );
            // Forward frames for foreign inboxes one ring hop onward —
            // the pump relays the sealed bytes, never decoding them.
            {
                let shared = Arc::clone(&shared);
                mux.set_forwarder(move |_from, session, _payload| {
                    let dest = wire::inbox_node(session)?;
                    if dest == j {
                        return None;
                    }
                    shared
                        .ring()
                        .next_hop(j, dest)
                        .map(|hop| PartyId(hop as u64))
                });
            }
            let inbox = Arc::new(
                mux.open_session(wire::inbox_session(j))
                    .map_err(FleetError::Transport)?,
            );
            let server_config = ServerConfig {
                session_id_base: j as u64 + 1,
                session_id_stride: n as u64,
                retry_policy: RetryPolicy {
                    max_retries: config.server.retry_policy.max_retries.max(1),
                },
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
        self.shared.ring().owner_of(id)
    }

    /// The node that admitted `id`, or `None` while its registration is
    /// still un-acked (or the id is unknown). Unlike [`Fleet::owner_of`],
    /// this is where the session actually runs, not where the ring would
    /// put it.
    pub fn placement(&self, id: SessionId) -> Option<usize> {
        self.shared.placements.lock().get(&id.0).copied()
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
    /// mints the id (from its residue class), hashes it onto the ring,
    /// and either admits locally (it owns the session) or seals the
    /// registration toward the owner — relayed by intermediate nodes —
    /// and returns immediately; admission on a remote owner is
    /// asynchronous, surfaced by [`Fleet::wait`].
    ///
    /// # Errors
    ///
    /// [`FleetError::NodeDown`] for a dead gateway, [`FleetError::NoNodes`]
    /// on an empty ring, [`FleetError::Server`] for local admission
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
        let owner = self.shared.ring().owner_of(id).ok_or(FleetError::NoNodes)?;
        if owner == gateway {
            node.server
                .submit_placed(id, locals, config)
                .map_err(FleetError::Server)?;
            self.shared.placements.lock().insert(id.0, gateway);
            return Ok(id);
        }
        self.shared.pending.lock().insert(
            id.0,
            Pending {
                owner,
                origin: gateway,
                rejected: None,
                locals: locals.clone(),
                config: config.clone(),
            },
        );
        let msg = FleetMsg::Register {
            session: id.0,
            origin: gateway as u64,
            config: wire::WireConfig::from_config(config),
            locals,
        };
        node.route_send(&self.shared, owner, &msg)
            .inspect_err(|_| {
                self.shared.pending.lock().remove(&id.0);
            })?;
        self.shared.regs_forwarded.fetch_add(1, Ordering::Relaxed);
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
    /// # Errors
    ///
    /// * [`FleetError::Rejected`] — the owner refused the registration.
    /// * [`FleetError::NodeDown`] — the owner (and, for un-acked
    ///   registrations, the origin) died.
    /// * [`FleetError::Timeout`] — `timeout` elapsed.
    /// * [`FleetError::Server`] — the session's own typed error.
    pub fn wait(&self, id: SessionId, timeout: Option<Duration>) -> Result<SapOutcome, FleetError> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let expired = |d: &Option<Instant>| d.is_some_and(|d| Instant::now() >= d);
        loop {
            // Un-acked registration: rejected, re-placeable, or doomed?
            let pending_state = {
                let pending = self.shared.pending.lock();
                pending
                    .get(&id.0)
                    .map(|p| (p.owner, p.origin, p.rejected.clone()))
            };
            if let Some((owner, origin, rejected)) = pending_state {
                if let Some(reason) = rejected {
                    self.shared.pending.lock().remove(&id.0);
                    return Err(FleetError::Rejected {
                        session: id,
                        reason,
                    });
                }
                let dead = self.shared.dead.lock();
                if dead.contains(&owner) && dead.contains(&origin) {
                    return Err(FleetError::NodeDown(owner));
                }
                drop(dead);
                if expired(&deadline) {
                    return Err(FleetError::Timeout(id));
                }
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            let Some(owner) = self.shared.placements.lock().get(&id.0).copied() else {
                return Err(FleetError::UnknownSession(id));
            };
            // A killed owner (slot gone without a graceful leave) fails
            // the session fast with the typed fleet error.
            if self.node(owner).is_none() && !self.shared.leaving.lock().contains(&owner) {
                return Err(FleetError::NodeDown(owner));
            }
            let Some(node) = self.node_or_husk(owner) else {
                return Err(FleetError::NodeDown(owner));
            };
            // Wait in slices so ownership handoffs mid-wait are picked
            // up from the fresh placement instead of blocking forever
            // on the old node.
            let slice = match deadline {
                Some(d) => d
                    .saturating_duration_since(Instant::now())
                    .min(Duration::from_millis(100)),
                None => Duration::from_millis(100),
            };
            match node.server.wait(id, Some(slice)) {
                Ok(outcome) => return Ok(outcome),
                Err(ServerError::Session(SapError::Timeout {
                    phase: "session harvest",
                    ..
                })) => {
                    if expired(&deadline) {
                        return Err(FleetError::Timeout(id));
                    }
                }
                Err(ServerError::UnknownSession(_))
                | Err(ServerError::Session(SapError::Aborted))
                    if self.shared.leaving.lock().contains(&owner)
                        && self.shared.placements.lock().get(&id.0) == Some(&owner) =>
                {
                    // Handoff in flight: the leaver aborted and exported
                    // the session; the new owner will re-admit it under
                    // the same id. Re-check placements shortly.
                    if expired(&deadline) {
                        return Err(FleetError::Timeout(id));
                    }
                    std::thread::sleep(Duration::from_millis(5));
                }
                Err(e) => return Err(FleetError::Server(e)),
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
        let owned: Vec<u64> = {
            let placements = self.shared.placements.lock();
            placements
                .iter()
                .filter(|&(_, &o)| o == j)
                .map(|(&s, _)| s)
                .collect()
        };
        for s in owned {
            let _ = node.server.abort(SessionId(s));
        }
        // Stopping the mux stops the heartbeat emitter: survivors
        // declare the node dead after one silence budget.
        node.mux.shutdown();
        self.husks.lock().insert(j, node);
        Ok(())
    }

    /// Graceful departure: announce, hand unfinished sessions to their
    /// new owners (same client-facing ids, via the control plane), then
    /// shut the node down. Returns the number of sessions handed off.
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
        // Ownership handoff: every unfinished session with retained
        // inputs re-registers on its new owner under the same id.
        let regs = node.server.export_registrations();
        let mut handed = 0;
        for reg in regs {
            self.shared.placements.lock().remove(&reg.id.0);
            let Some(owner) = self.shared.ring().owner_of(reg.id) else {
                break;
            };
            self.shared.pending.lock().insert(
                reg.id.0,
                Pending {
                    owner,
                    origin: owner,
                    rejected: None,
                    locals: reg.locals.clone(),
                    config: reg.config.clone(),
                },
            );
            let msg = FleetMsg::Register {
                session: reg.id.0,
                origin: owner as u64,
                config: wire::WireConfig::from_config(&reg.config),
                locals: reg.locals,
            };
            if node.route_send(&self.shared, owner, &msg).is_ok() {
                handed += 1;
                self.shared.regs_replaced.fetch_add(1, Ordering::Relaxed);
            }
        }
        node.mux.shutdown();
        self.husks.lock().insert(j, node);
        Ok(handed)
    }

    /// Aggregated fleet counters.
    pub fn metrics(&self) -> FleetMetrics {
        let mut m = FleetMetrics {
            nodes_alive: self.alive().len(),
            node_deaths_detected: self.shared.deaths.load(Ordering::Relaxed),
            registrations_forwarded: self.shared.regs_forwarded.load(Ordering::Relaxed),
            registrations_replaced: self.shared.regs_replaced.load(Ordering::Relaxed),
            ..FleetMetrics::default()
        };
        let nodes: Vec<Arc<FleetNode>> = {
            let live = self.nodes.lock();
            let husks = self.husks.lock();
            live.iter()
                .flatten()
                .cloned()
                .chain(husks.values().cloned())
                .collect()
        };
        for node in nodes {
            let s = node.server.metrics();
            m.sessions_started += s.sessions_started;
            m.sessions_completed += s.sessions_completed;
            m.sessions_failed += s.sessions_failed;
            m.frames_forwarded += node.mux.metrics().frames_forwarded;
        }
        m
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
/// registrations/acks/leaves, and turns liveness verdicts into
/// membership repair.
///
/// Reassembly is keyed by **message id**, not sender: control messages
/// are fleet-unique by construction ([`FleetNode::next_msg_id`]), and
/// keying on the sender would be wrong here twice over — two threads of
/// one node (a gateway registering, the service thread acking) may
/// interleave their messages' frames on the same lane, and relayed
/// frames arrive tagged with the *relay* as sender, merging every
/// origin routed through one hop. Per-message frame order is still
/// guaranteed (one thread sends one message's frames back-to-back over
/// FIFO lanes), so a sequence gap means an undeliverable message: its
/// partial state is dropped, and the origin's pending-registration
/// machinery re-sends rather than this layer guessing.
fn service_loop(node: &FleetNode, shared: &Shared) {
    let key = wire::inbox_key(shared.secret, node.index);
    let my_inbox = wire::inbox_session(node.index);
    let mut partial: HashMap<u64, Vec<bytes::Bytes>> = HashMap::new();
    loop {
        match node.inbox.recv_timeout(Duration::from_millis(50)) {
            Ok((_from, sealed)) => {
                let Ok((session, frame)) = open_frame(key, &sealed) else {
                    continue;
                };
                if session != my_inbox {
                    continue;
                }
                let chunks = partial.entry(frame.msg_id).or_default();
                if frame.seq as usize != chunks.len() {
                    partial.remove(&frame.msg_id);
                    continue;
                }
                chunks.push(frame.payload);
                if !frame.last {
                    continue;
                }
                let Some(chunks) = partial.remove(&frame.msg_id) else {
                    continue;
                };
                let bytes = match chunks.as_slice() {
                    [single] => single.clone(),
                    many => {
                        let mut joined = Vec::with_capacity(many.iter().map(|c| c.len()).sum());
                        for c in many {
                            joined.extend_from_slice(c);
                        }
                        bytes::Bytes::from(joined)
                    }
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
            origin,
            config,
            locals,
        } => {
            let id = SessionId(session);
            let result = node.server.submit_placed(id, locals, &config.to_config());
            let (accepted, reason) = match &result {
                Ok(_) => (true, String::new()),
                // A duplicate means this node already admitted the
                // session (a re-placement raced a slow ack): report
                // success, not failure.
                Err(ServerError::DuplicateSession(_)) => (true, String::new()),
                Err(e) => (false, e.to_string()),
            };
            if accepted {
                shared.placements.lock().insert(session, node.index);
            }
            // The placement maps are shared on one host: settle the
            // origin's pending entry here, at the verdict, so an origin
            // that dies between Register and Ack can never strand an
            // admitted session in pending. The cross-node Ack still
            // travels — a remote origin's control plane learns the
            // verdict the way a multi-host deployment would.
            ack_locally(shared, session, accepted, reason.clone());
            let origin = origin as usize;
            if origin != node.index {
                let ack = FleetMsg::Ack {
                    session,
                    accepted,
                    reason,
                };
                let _ = node.route_send(shared, origin, &ack);
            }
        }
        FleetMsg::Ack {
            session,
            accepted,
            reason,
        } => ack_locally(shared, session, accepted, reason),
        FleetMsg::Leave { node: leaver } => {
            shared.leaving.lock().insert(leaver as usize);
            shared.alive.lock().remove(&(leaver as usize));
        }
    }
}

fn ack_locally(shared: &Shared, session: u64, accepted: bool, reason: String) {
    let mut pending = shared.pending.lock();
    if accepted {
        pending.remove(&session);
    } else if let Some(p) = pending.get_mut(&session) {
        p.rejected = Some(reason);
    }
}

/// Liveness verdict on a peer node: repair membership and re-place the
/// un-acked registrations this node originated toward the dead owner.
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
    // Re-place registrations we sent to the dead owner and never got
    // acked. They were never admitted anywhere, so re-running them on
    // the new owner cannot double-execute.
    let orphans: Vec<(u64, Vec<Dataset>, SapConfig)> = {
        let pending = shared.pending.lock();
        pending
            .iter()
            .filter(|(_, p)| p.owner == d && p.origin == node.index && p.rejected.is_none())
            .map(|(&s, p)| (s, p.locals.clone(), p.config.clone()))
            .collect()
    };
    for (session, locals, config) in orphans {
        let id = SessionId(session);
        let Some(owner) = shared.ring().owner_of(id) else {
            continue;
        };
        if let Some(p) = shared.pending.lock().get_mut(&session) {
            p.owner = owner;
        }
        if owner == node.index {
            match node.server.submit_placed(id, locals, &config) {
                Ok(_) | Err(ServerError::DuplicateSession(_)) => {
                    shared.placements.lock().insert(session, node.index);
                    shared.pending.lock().remove(&session);
                }
                Err(_) => {}
            }
        } else {
            let msg = FleetMsg::Register {
                session,
                origin: node.index as u64,
                config: wire::WireConfig::from_config(&config),
                locals,
            };
            let _ = node.route_send(shared, owner, &msg);
        }
        shared.regs_replaced.fetch_add(1, Ordering::Relaxed);
    }
    // Registrations whose *origin* died before the owner's verdict
    // settled are adopted by the dead node's ring successor — every
    // survivor computes the same adopter, so exactly one node takes
    // them over. An already-admitted registration was settled out of
    // pending at the verdict, so nothing admitted is ever re-run; a
    // duplicate Register racing a slow original is absorbed by the
    // owner as `DuplicateSession`.
    let ring = shared.ring();
    if ring.owner_of_point(ring::node_point(d)) != Some(node.index) {
        return;
    }
    let adopted: Vec<(u64, Vec<Dataset>, SapConfig)> = {
        let pending = shared.pending.lock();
        pending
            .iter()
            .filter(|(_, p)| p.origin == d && p.rejected.is_none())
            .map(|(&s, p)| (s, p.locals.clone(), p.config.clone()))
            .collect()
    };
    for (session, locals, config) in adopted {
        let id = SessionId(session);
        let Some(owner) = shared.ring().owner_of(id) else {
            continue;
        };
        if let Some(p) = shared.pending.lock().get_mut(&session) {
            p.owner = owner;
            p.origin = node.index;
        }
        if owner == node.index {
            match node.server.submit_placed(id, locals, &config) {
                Ok(_) | Err(ServerError::DuplicateSession(_)) => {
                    shared.placements.lock().insert(session, node.index);
                    shared.pending.lock().remove(&session);
                }
                Err(_) => {}
            }
        } else {
            let msg = FleetMsg::Register {
                session,
                origin: node.index as u64,
                config: wire::WireConfig::from_config(&config),
                locals,
            };
            let _ = node.route_send(shared, owner, &msg);
        }
        shared.regs_replaced.fetch_add(1, Ordering::Relaxed);
    }
}
