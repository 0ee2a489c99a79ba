//! A sharded multi-node SAP fleet on one host: a [`Fleet`] runs `N`
//! [`sap_server::SapServer`] nodes joined by a full mesh of TCP lanes.
//! Session ids are minted per node and placed by rendezvous hashing
//! ([`sap_core::placement::owner`]); a client may submit through any
//! node, which sends the sealed registration ([`wire`]) straight to the
//! owner. The fleet keeps one registration record per session, from
//! submit to the verdict [`Fleet::wait`] returns, holding the session's
//! one stored copy of its inputs. Every registration and membership
//! decision is a transition of one pure state machine (`records::apply`,
//! checked exhaustively at small scope), and the threads here only do
//! I/O. Membership rides the liveness plane under
//! [`SessionId::LIVENESS`]: survivors drop a silent node and re-place
//! what it never admitted, and a graceful leaver hands its running
//! sessions over. `docs/ARCHITECTURE.md` ("Fleet & placement") has more.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod records;
pub mod wire;

use parking_lot::{Condvar, Mutex};
use records::{Effects, Event, Records, Register, Reply};
use sap_core::runtime::SessionStatus;
use sap_core::session::{SapConfig, SapOutcome};
use sap_core::SapError;
use sap_datasets::Dataset;
use sap_net::mux::{MuxEndpoint, SessionMux};
use sap_net::node::{Node, NodeError};
use sap_net::tcp::local_mesh;
use sap_net::transport::Endpoint;
use sap_net::{PartyId, ReactorTransport, SessionId, TransportError};
use sap_server::{SapServer, ServerConfig, ServerError};
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wire::FleetMsg;

pub use wire::MAX_NODES;

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
    /// Per-node server template; `session_id_base` / `session_id_stride`
    /// are overwritten per node (residue-class minting).
    pub server: ServerConfig,
    /// Secret sealing the fleet control plane: nodes derive their
    /// per-direction channel keys on the [`wire::CONTROL`] session from it.
    pub fleet_secret: u64,
    /// Node heartbeat interval: a node silent for `heartbeat_interval ×
    /// liveness_misses` from the fleet's build on is declared dead.
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
    /// A test-shaped fleet: `nodes` nodes whose deaths are detected in
    /// ~1 s, with a miss budget (20 × 50 ms) a loaded box cannot starve.
    pub fn quick(nodes: usize) -> FleetConfig {
        FleetConfig {
            nodes,
            heartbeat_interval: Duration::from_millis(50),
            liveness_misses: 20,
            ..FleetConfig::default()
        }
    }
}

/// Fleet counters, kept by the registration records' transitions: each
/// session id counts once, however often it was handed off or re-placed.
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
    /// Sessions whose verdict [`Fleet::wait`] returned as an error.
    pub sessions_failed: u64,
    /// Registration records held: submitted, verdict not yet returned.
    pub registrations_live: usize,
    /// Registrations sent to a remote owner over the control plane.
    pub registrations_forwarded: u64,
    /// Re-placements after an owner died or left, and leavers' handoffs.
    pub registrations_replaced: u64,
    /// Control frames relayed by an intermediate node: always 0.
    pub frames_forwarded: u64,
}

/// A session's locals and config, held in its registration record.
#[derive(Clone, Default)]
struct Inputs(Vec<Dataset>, SapConfig);

/// State shared by every node's service thread and the fleet handle.
struct Shared {
    verdict_wait: Duration,
    /// Changed only by [`Records::apply`]: each transition is atomic.
    records: Mutex<Records<Inputs>>,
    /// Signalled at every transition: each waiter re-checks its record.
    settled: Condvar,
}

impl Shared {
    fn apply(&self, event: Event<Inputs>) -> Effects<Inputs> {
        let effects = self.records.lock().apply(event);
        self.settled.notify_all();
        effects
    }
}

/// One fleet node: a SAP server plus its inter-node lane mux and the
/// control session on it.
struct FleetNode {
    index: usize,
    server: SapServer<Endpoint>,
    mux: SessionMux<ReactorTransport>,
    control: Node<MuxEndpoint<ReactorTransport>>,
}

impl FleetNode {
    /// Hands a registration to this node's server or, if it is alive,
    /// sends it to its owner.
    fn deliver(&self, shared: &Shared, reg: Register, inputs: Inputs) -> Result<(), FleetError> {
        let sent = if reg.to == self.index {
            match self
                .server
                .submit_placed(SessionId(reg.id), inputs.0, &inputs.1)
            {
                Err(e) if !reg.replace => Err(FleetError::Server(e)),
                verdict => {
                    self.settle(shared, reg.id, verdict);
                    Ok(())
                }
            }
        } else if !shared.records.lock().alive().contains(&reg.to) {
            Err(FleetError::NodeDown(reg.to))
        } else {
            let (session, locals, config) = (reg.id, inputs.0, Box::new(inputs.1));
            let msg = FleetMsg {
                session,
                config,
                locals,
            };
            let to = PartyId(reg.to as u64);
            self.control.send_msg(to, &msg).map_err(|e| match e {
                NodeError::Transport(e) => FleetError::Transport(e),
                // A send fails only in the transport.
                _ => FleetError::Transport(TransportError::Disconnected),
            })
        };
        let ok = sent.is_ok();
        shared.apply(Event::Sent { reg, ok });
        sent
    }

    /// Reports this node's admission verdict on `id`; a duplicate (a
    /// re-placement raced a slow registration) counts as admitted.
    fn settle(&self, shared: &Shared, id: u64, verdict: Result<SessionId, ServerError>) {
        let verdict = match verdict {
            Ok(_) | Err(ServerError::DuplicateSession(_)) => Ok(()),
            Err(e) => Err(e.to_string()),
        };
        shared.apply(Event::Settled(id, self.index, verdict));
    }
}

/// A sharded multi-node SAP service; see the crate docs.
pub struct Fleet {
    shared: Arc<Shared>,
    /// Node `j`, or once killed or gone its husk, with what finished there.
    nodes: Vec<Arc<FleetNode>>,
    services: Vec<JoinHandle<()>>,
    round_robin: AtomicUsize,
}

impl Fleet {
    /// Builds and starts a fleet of servers over in-memory party meshes.
    ///
    /// # Errors
    ///
    /// [`FleetError::Config`] for a bad node count, [`FleetError::Mesh`]
    /// for socket errors, [`FleetError::Server`] for server setup.
    pub fn in_memory(config: FleetConfig) -> Result<Fleet, FleetError> {
        let n = config.nodes;
        if n == 0 || n > MAX_NODES {
            return Err(FleetError::Config(format!(
                "node count {n} outside 1..={MAX_NODES}"
            )));
        }
        let ids: Vec<PartyId> = (0..n).map(|j| PartyId(j as u64)).collect();
        let lanes = local_mesh(&ids).map_err(FleetError::Mesh)?;
        let (beat, misses) = (config.heartbeat_interval, config.liveness_misses);
        let shared = Arc::new(Shared {
            verdict_wait: beat * misses.max(1),
            records: Mutex::new(Records::new(n)),
            settled: Condvar::new(),
        });
        let mut nodes = Vec::with_capacity(n);
        let mut services = Vec::with_capacity(n);
        for (j, lane) in lanes.into_iter().enumerate() {
            let mux = SessionMux::new(lane);
            mux.start_liveness(ids.clone(), beat, misses);
            let endpoint = mux
                .open_session(wire::CONTROL)
                .map_err(FleetError::Transport)?;
            let control = Node::for_session(endpoint, config.fleet_secret, wire::CONTROL);
            let server_config = ServerConfig {
                session_id_base: j as u64 + 1,
                session_id_stride: n as u64,
                ..config.server.clone()
            };
            let server = SapServer::in_memory(server_config).map_err(FleetError::Server)?;
            let node = Arc::new(FleetNode {
                index: j,
                server,
                mux,
                control,
            });
            let (node2, shared2) = (Arc::clone(&node), Arc::clone(&shared));
            let handle = std::thread::Builder::new()
                .name(format!("fleet-node-{j}"))
                .spawn(move || service_loop(&node2, &shared2))
                .map_err(FleetError::Mesh)?;
            nodes.push(node);
            services.push(handle);
        }
        Ok(Fleet {
            shared,
            nodes,
            services,
            round_robin: AtomicUsize::new(0),
        })
    }

    /// Indices of the nodes currently alive.
    pub fn alive(&self) -> Vec<usize> {
        self.shared.records.lock().alive().iter().copied().collect()
    }

    /// The node owning `id` under the current membership view.
    pub fn owner_of(&self, id: SessionId) -> Option<usize> {
        self.shared.records.lock().owner_of(id.0)
    }

    /// The node that admitted `id` (where it runs, unlike [`Fleet::owner_of`]);
    /// `None` while un-acked, after its verdict, or for an unknown id.
    pub fn placement(&self, id: SessionId) -> Option<usize> {
        self.shared.records.lock().placement(id.0)
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

    /// Submits a session through a **chosen** gateway node, which mints
    /// the id and admits it, or sends it to its owner and returns at the
    /// owner's verdict (one liveness budget at most), so no later session
    /// overtakes it. Rejections surface in [`Fleet::wait`].
    ///
    /// # Errors
    ///
    /// [`FleetError::NodeDown`] for a dead gateway, [`FleetError::Server`]
    /// for local admission failures, [`FleetError::Transport`] for
    /// control-plane send failures.
    pub fn submit_via(
        &self,
        via: usize,
        locals: Vec<Dataset>,
        config: &SapConfig,
    ) -> Result<SessionId, FleetError> {
        let node = self.nodes.get(via).ok_or(FleetError::NodeDown(via))?;
        // A gateway that is down mints an id nobody ever sees.
        let session = node.server.mint_session_id();
        let (id, inputs) = (session.0, Inputs(locals, config.clone()));
        let fx = self.shared.apply(Event::Submit { id, via, inputs });
        if let Reply::Err(e) = fx.reply {
            return Err(e);
        }
        for (reg, inputs) in fx.registers {
            node.deliver(&self.shared, reg, inputs)?;
        }
        let give_up = Instant::now() + self.shared.verdict_wait;
        let mut records = self.shared.records.lock();
        while records.unacked(id) && Instant::now() < give_up {
            records = self.shared.settled.wait_until(records, give_up);
        }
        Ok(session)
    }

    /// Waits for a session's verdict, wherever it runs (or ran), and
    /// returns it once. A killed owner fails it promptly; an un-acked
    /// registration whose owner dies is re-placed and reports the re-run.
    ///
    /// # Errors
    ///
    /// [`FleetError::UnknownSession`] (never placed, or its verdict was
    /// returned), [`FleetError::Rejected`], [`FleetError::NodeDown`] (the
    /// owner, or an un-acked one's origin too, died), the session's own
    /// typed error or [`SapError::Aborted`] as [`FleetError::Server`], and
    /// [`FleetError::Timeout`], which is no verdict: the session stays.
    pub fn wait(&self, id: SessionId, timeout: Option<Duration>) -> Result<SapOutcome, FleetError> {
        const SLICE: Duration = Duration::from_millis(100);
        // A timeout too long to represent waits without a limit.
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        loop {
            let mut records = self.shared.records.lock();
            match records.apply(Event::Wait { id: id.0 }).reply {
                Reply::Err(e) => return Err(e),
                // Block under the lock that saw the record un-acked, so
                // no transition's wake-up is missed.
                Reply::Pending => {
                    drop(match deadline {
                        Some(d) => self.shared.settled.wait_until(records, d),
                        None => self.shared.settled.wait(records),
                    });
                }
                // Slices pick up a handoff mid-wait from the moved record.
                Reply::Harvest(seen) => {
                    drop(records);
                    let slice = deadline.map_or(SLICE, |d| {
                        d.saturating_duration_since(Instant::now()).min(SLICE)
                    });
                    match self.nodes[seen.0].server.wait(id, Some(slice)) {
                        Err(ServerError::Session(SapError::Timeout {
                            phase: "session harvest",
                            ..
                        })) => {}
                        verdict => {
                            let (id, ok) = (id.0, verdict.is_ok());
                            let fx = self.shared.apply(Event::Verdict { id, seen, ok });
                            if let Reply::Done = fx.reply {
                                return verdict.map_err(FleetError::Server);
                            }
                        }
                    }
                }
                _ => {}
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(FleetError::Timeout(id));
            }
        }
    }

    /// `kill -9`: the node's admitted sessions die and its heartbeats stop.
    /// Survivors drop it when they notice and re-place the un-acked
    /// registrations it owned, so [`Fleet::wait`] reports their re-runs.
    ///
    /// # Errors
    ///
    /// [`FleetError::NodeDown`] when the node is already gone.
    pub fn kill(&self, j: usize) -> Result<(), FleetError> {
        let fx = self.shared.apply(Event::Kill { node: j });
        if let Reply::Err(e) = fx.reply {
            return Err(e);
        }
        let node = &self.nodes[j];
        for id in fx.aborts {
            let _ = node.server.abort(SessionId(id));
        }
        node.mux.shutdown();
        Ok(())
    }

    /// Graceful departure: leave the shared membership view, hand running
    /// sessions to their new owners under the same ids, and shut down; finished ones stay where
    /// [`Fleet::wait`] finds them. Returns the number handed off.
    ///
    /// # Errors
    ///
    /// [`FleetError::NodeDown`] when the node is already gone;
    /// [`FleetError::NoNodes`] when it is the last one.
    pub fn leave(&self, j: usize) -> Result<usize, FleetError> {
        let admitted = self.shared.records.lock().admitted_by(j);
        let running = |s: &u64| {
            let status = self.nodes.get(j).map(|n| n.server.poll(SessionId(*s)));
            matches!(status, Some(Ok(SessionStatus::Running { .. })))
        };
        let running = admitted.into_iter().filter(running).collect();
        let fx = self.shared.apply(Event::Leave { node: j, running });
        if let Reply::Err(e) = fx.reply {
            return Err(e);
        }
        let node = &self.nodes[j];
        // Abort, then harvest, so the leaver keeps nothing of them.
        for id in fx.aborts.into_iter().map(SessionId) {
            let _ = node.server.abort(id);
            let _ = node.server.wait(id, Some(Duration::ZERO));
        }
        let mut handed = 0;
        for (reg, inputs) in fx.registers {
            handed += usize::from(node.deliver(&self.shared, reg, inputs).is_ok());
        }
        node.mux.shutdown();
        Ok(handed)
    }

    /// Fleet counters.
    pub fn metrics(&self) -> FleetMetrics {
        self.shared.records.lock().metrics()
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for node in &self.nodes {
            node.mux.shutdown();
        }
        for handle in self.services.drain(..) {
            let _ = handle.join();
        }
    }
}

/// One node's control service, the control session's one receiver:
/// admits registrations and turns liveness verdicts into events. A frame
/// or codec error drops only that message.
fn service_loop(node: &FleetNode, shared: &Shared) {
    loop {
        match node
            .control
            .recv_msg_timeout::<FleetMsg>(Duration::from_millis(50))
        {
            Ok((_, msg)) => {
                let id = SessionId(msg.session);
                let verdict = node.server.submit_placed(id, msg.locals, &msg.config);
                node.settle(shared, msg.session, verdict);
            }
            Err(NodeError::Transport(TransportError::PeerDown(peer))) => {
                let (observer, dead) = (node.index, peer.0 as usize);
                let fx = shared.apply(Event::PeerDown { observer, dead });
                for (reg, inputs) in fx.registers {
                    let _ = node.deliver(shared, reg, inputs);
                }
            }
            Err(NodeError::Transport(TransportError::Disconnected)) => return, // mux shut down
            Err(_) => {}
        }
    }
}

/// Placement over the fleet's membership view: [`Records::owner_of`]
/// as the alive set changes. The ids' points lie on the 64-bit ring of
/// [`sap_core::placement::ring_point`].
#[cfg(test)]
mod ring {
    mod tests {
        use crate::records::{Event, Records};

        fn four_alive() -> Records<()> {
            Records::new(4)
        }

        fn owner(records: &Records<()>, raw: u64) -> Option<usize> {
            records.owner_of(raw)
        }

        #[test]
        fn ownership_is_total_and_stable() {
            let records = four_alive();
            for raw in 1..200u64 {
                let owner_now = owner(&records, raw).unwrap();
                assert!(owner_now < 4);
                // Same id, same owner, every time.
                assert_eq!(owner(&records, raw), Some(owner_now));
            }
        }

        #[test]
        fn removal_only_moves_the_removed_nodes_keys() {
            let mut records = four_alive();
            let before: Vec<usize> = (1..500u64)
                .map(|raw| owner(&records, raw).unwrap())
                .collect();
            records.apply(Event::Kill { node: 2 });
            records.apply(Event::PeerDown {
                observer: 0,
                dead: 2,
            });
            for (raw, before) in (1..500u64).zip(before) {
                let after = owner(&records, raw).unwrap();
                if before != 2 {
                    assert_eq!(before, after, "id {raw} moved without cause");
                } else {
                    assert_ne!(after, 2);
                }
            }
        }
    }
}

/// The real fleet against its model: seeded operation sequences on 2–4
/// nodes, each step's observation (a reply, a verdict, `placement`,
/// [`FleetMetrics`]) checked against what [`Records::apply`] allows from
/// the fleet's own records. The records are read just before each
/// operation and just after it: the service threads may apply liveness
/// and admission events in between, and those only shrink the view, so
/// a refusal must stand in the later state and an acceptance in the
/// earlier one.
///
/// Seeds 0..12, 12 operations each (48 submits, 22 verdicts, 10 kills
/// and 8 leaves in all): 3.3 s in the debug build on a 2-vCPU host, most
/// of it liveness budgets running out after kills.
#[cfg(test)]
mod refinement {
    use super::*;
    use sap_datasets::normalize::min_max_normalize;
    use sap_datasets::partition::{partition, PartitionScheme};
    use sap_datasets::registry::UciDataset;

    const SEEDS: std::ops::Range<u64> = 0..12;
    const OPS: usize = 12;

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn locals(seed: u64) -> Vec<Dataset> {
        let (pooled, _) = min_max_normalize(&UciDataset::Iris.generate(seed));
        partition(&pooled, 3, PartitionScheme::Uniform, seed)
    }

    /// Whether `records` holds `id`.
    fn held(records: &Records<Inputs>, id: u64) -> bool {
        let reply = records.clone().apply(Event::Wait { id }).reply;
        !matches!(reply, Reply::Err(FleetError::UnknownSession(_)))
    }

    /// Runs one seed's operations; returns how many submits, verdicts,
    /// kills and leaves took effect.
    fn run(seed: u64) -> [usize; 4] {
        let n = 2 + (seed % 3) as usize;
        let fleet = Fleet::in_memory(FleetConfig {
            server: ServerConfig {
                max_parties: 3,
                max_concurrent: 8,
                ..ServerConfig::default()
            },
            liveness_misses: 8,
            ..FleetConfig::quick(n)
        })
        .expect("build fleet");
        let config = SapConfig {
            timeout: Duration::from_secs(120),
            seed,
            ..SapConfig::quick_test()
        };
        let snapshot = || fleet.shared.records.lock().clone();
        let (mut rng, mut stops) = (seed, 0);
        let (mut live, mut waited, mut kills) = (Vec::new(), Vec::new(), 0);
        for step in 0..OPS {
            let before = snapshot();
            let pick = splitmix(&mut rng);
            let j = (pick >> 8) as usize % n;
            let at = format!("seed {seed} step {step}");
            match pick % 8 {
                // Submit through any node, alive or not.
                0..=3 => {
                    let got = fleet.submit_via(j, locals(seed + step as u64), &config);
                    let fx = before.clone().apply(Event::Submit {
                        id: 0,
                        via: j,
                        inputs: Inputs::default(),
                    });
                    match got {
                        Ok(id) => {
                            assert!(matches!(fx.reply, Reply::Done), "{at}: submit via {j}");
                            live.push(id);
                        }
                        Err(FleetError::NodeDown(g)) => {
                            let fx = snapshot().apply(Event::Submit {
                                id: 0,
                                via: j,
                                inputs: Inputs::default(),
                            });
                            assert!(g == j && matches!(fx.reply, Reply::Err(_)), "{at}");
                        }
                        Err(e) => panic!("{at}: submit via {j}: {e}"),
                    }
                }
                // Wait for the oldest un-waited session, or a waited one.
                4 | 5 => {
                    let id = match live.first() {
                        Some(&id) => id,
                        None => continue,
                    };
                    assert!(held(&before, id.0), "{at}: {id} lost its record");
                    match fleet.wait(id, Some(Duration::from_secs(60))) {
                        Ok(_) => {}
                        // The owner was killed, or it and the origin died.
                        Err(FleetError::NodeDown(d)) => {
                            let after = snapshot();
                            let killed = after.clone().apply(Event::Kill { node: d }).reply;
                            let gone = !after.alive().contains(&d);
                            assert!(gone || matches!(killed, Reply::Err(_)), "{at}: {d}");
                        }
                        Err(e) => panic!("{at}: wait {id}: {e}"),
                    }
                    waited.push(live.remove(0));
                    if let Some(&again) = waited.first() {
                        let second = fleet.wait(again, Some(Duration::ZERO));
                        assert!(matches!(second, Err(FleetError::UnknownSession(_))), "{at}");
                    }
                }
                6 if stops + 1 < n => {
                    let stopped = before.clone().apply(Event::Kill { node: j }).reply;
                    match fleet.kill(j) {
                        Ok(()) => {
                            assert!(matches!(stopped, Reply::Done), "{at}: kill {j}");
                            (stops, kills) = (stops + 1, kills + 1);
                        }
                        Err(_) => assert!(matches!(stopped, Reply::Err(_)), "{at}: kill {j}"),
                    }
                }
                7 if stops + 1 < n => {
                    let leave = Event::Leave {
                        node: j,
                        running: Vec::new(),
                    };
                    let refused = matches!(before.clone().apply(leave).reply, Reply::Err(_));
                    match fleet.leave(j) {
                        Ok(handed) => {
                            assert!(!refused && handed <= live.len(), "{at}: leave {j}");
                            stops += 1;
                        }
                        Err(FleetError::NodeDown(d)) => assert!(d == j && refused, "{at}"),
                        Err(FleetError::NoNodes) => {
                            assert!(snapshot().alive().len() <= 1, "{at}: leave {j}");
                        }
                        Err(e) => panic!("{at}: leave {j}: {e}"),
                    }
                }
                _ => continue,
            }
            let after = snapshot();
            let m = after.metrics();
            for id in &waited {
                assert!(
                    !held(&after, id.0) && fleet.placement(*id).is_none(),
                    "{at}"
                );
            }
            for id in &live {
                assert!(held(&after, id.0), "{at}: {id} lost its record");
            }
            assert_eq!(m.registrations_live, live.len(), "{at}");
            assert_eq!(
                m.sessions_completed + m.sessions_failed,
                waited.len() as u64
            );
            assert_eq!(fleet.metrics(), m, "{at}");
        }
        let submits = live.len() + waited.len();
        [submits, waited.len(), kills, stops - kills]
    }

    #[test]
    fn seeded_operation_sequences_stay_inside_the_model() {
        let started = Instant::now();
        let mut tally = [0; 4];
        for seed in SEEDS {
            for (total, n) in tally.iter_mut().zip(run(seed)) {
                *total += n;
            }
        }
        let [submits, verdicts, kills, leaves] = tally;
        println!(
            "refinement: seeds {SEEDS:?}, {submits} submits, {verdicts} verdicts, \
             {kills} kills, {leaves} leaves, {:?}",
            started.elapsed()
        );
    }
}

/// The control session's one receiver drops what it cannot open or decode
/// and keeps serving.
#[cfg(test)]
mod control {
    use super::*;
    use bytes::Bytes;
    use sap_datasets::normalize::min_max_normalize;
    use sap_datasets::partition::{partition, PartitionScheme};
    use sap_datasets::registry::UciDataset;
    use sap_net::wire::{Wire, WireError};
    use sap_net::Transport;

    /// A message body sent byte for byte as given.
    struct Raw(Vec<u8>);

    impl Wire for Raw {
        fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0);
        }

        fn decode(_: &mut &[u8]) -> Result<Self, WireError> {
            Err(WireError::InvalidEncoding("send-only"))
        }
    }

    #[test]
    fn garbage_and_truncated_register_do_not_stop_later_registrations() {
        let fleet = Fleet::in_memory(FleetConfig {
            server: ServerConfig {
                max_parties: 3,
                max_concurrent: 8,
                ..ServerConfig::default()
            },
            ..FleetConfig::quick(2)
        })
        .expect("build fleet");
        let config = SapConfig {
            timeout: Duration::from_secs(120),
            ..SapConfig::quick_test()
        };
        let (pooled, _) = min_max_normalize(&UciDataset::Iris.generate(3));
        let locals = partition(&pooled, 3, PartitionScheme::Uniform, 3);
        let gateway = &fleet.nodes[0].control;

        // A frame stamped for the control session that no key opens.
        let mut garbage = wire::CONTROL.0.to_le_bytes().to_vec();
        garbage.extend_from_slice(&[0xA5; 48]);
        gateway
            .transport()
            .send(PartyId(1), Bytes::from(garbage))
            .unwrap();
        // A well-sealed `Register` whose body is cut in half.
        let register = FleetMsg {
            session: 1 << 40,
            config: Box::new(config.clone()),
            locals: locals.clone(),
        };
        let mut body = sap_net::wire::to_bytes(&register);
        body.truncate(body.len() / 2);
        gateway.send_msg(PartyId(1), &Raw(body)).unwrap();

        // Node 0 sends node 1 the registrations it owns after both.
        let mut forwarded = 0;
        for _ in 0..32 {
            let id = fleet.submit_via(0, locals.clone(), &config).unwrap();
            if fleet.owner_of(id) == Some(1) {
                assert_eq!(fleet.placement(id), Some(1), "{id} not admitted");
                forwarded += 1;
            }
            fleet.wait(id, Some(Duration::from_secs(120))).unwrap();
            if forwarded == 2 {
                break;
            }
        }
        assert_eq!(forwarded, 2);
        assert_eq!(fleet.metrics().registrations_forwarded, 2);
    }
}
