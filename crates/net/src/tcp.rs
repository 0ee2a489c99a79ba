//! A real TCP transport: the same [`Transport`] contract as the in-memory
//! hub, over sockets.
//!
//! Each party binds a listener and knows its peers' addresses. Outgoing
//! connections are opened lazily on first send (with bounded retry, so
//! peers may come up in any order) and kept alive for the session. On the
//! wire every payload travels as `[sender id: u64 LE]` once per
//! connection, then `[len: u32 LE][payload]` per message — the sealed
//! frames of [`crate::frame`] are the payloads, so TCP sees only
//! ciphertext.
//!
//! The implementation is deliberately thread-per-connection blocking I/O:
//! a SAP session has a handful of long-lived channels, not thousands, and
//! the protocol actors block on `recv` anyway.
//!
//! # Identity model
//!
//! The 8-byte sender id at connection start is a **routing hint**, not
//! authentication — anything that can reach the port can claim any id
//! (the in-memory hub, being in-process, stamps it authoritatively).
//! *Content* authenticity comes from the layer above: every frame is
//! sealed under the per-direction channel key derived from the session
//! secret, so a claimed id that does not match the sealing key fails to
//! open and aborts the session.
//!
//! # Garbage frames in the multi-session world
//!
//! In the original one-process-one-session deployment an unauthenticated
//! outsider could send one garbage frame and abort *the* session — and
//! with it the process's only work. When the endpoint is shared by many
//! sessions through a [`crate::mux::SessionMux`], the blast radius is
//! bounded per session: a frame stamped with an unknown `SessionId` is
//! counted and dropped without disturbing the connection, and a garbage
//! frame stamped with a live session aborts **only the session it
//! claims** — every sibling session on the same socket keeps running.
//! (A *malformed length prefix* still kills the carrying connection:
//! there is no way to resynchronize a byte stream after a corrupt
//! header.) Run the mesh on a trusted network, as the paper's
//! link-encryption assumption already requires.

use crate::transport::{pop_delivery, Delivery, PartyId, Transport, TransportError};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Upper bound on one sealed payload (64 MiB) — a hard stop against
/// corrupt or hostile length prefixes.
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// Default window over which `send` keeps retrying to reach a peer that
/// has not bound yet (peers may come up in any order).
pub const DEFAULT_CONNECT_WINDOW: Duration = Duration::from_secs(5);

/// First backoff sleep of the connect retry schedule; doubles per attempt.
/// Shared with the reactor backend so both retry identically.
pub(crate) const CONNECT_BACKOFF_FLOOR: Duration = Duration::from_millis(2);

/// Backoff ceiling — retries never sleep longer than this between
/// attempts, so a late-binding peer is noticed promptly even deep into
/// the window.
pub(crate) const CONNECT_BACKOFF_CAP: Duration = Duration::from_millis(250);

/// Connect window for [`Transport::send_liveness`] heartbeat sends — far
/// shorter than the regular window, so a dead (never-connected) peer
/// cannot stall a heartbeat emitter long enough to starve beats to
/// healthy peers.
pub(crate) const HEARTBEAT_CONNECT_WINDOW: Duration = Duration::from_millis(100);

/// Upper bound on the *up-front* payload buffer acquisition in the read
/// path. A frame claiming more grows incrementally with bytes actually
/// received — the claimed length caps the read, never the allocation.
const PAYLOAD_ACQUIRE_CAP: usize = 128 * 1024;

/// A TCP-backed [`Transport`] endpoint.
pub struct TcpTransport {
    id: PartyId,
    local_addr: SocketAddr,
    peers: Mutex<HashMap<PartyId, SocketAddr>>,
    // Per-peer write locks: the outer map lock is held only to look up or
    // install an entry, never across connect/write — a peer that is down
    // (connect retries up to `connect_window`) must not block sends to
    // healthy peers.
    conns: Mutex<HashMap<PartyId, Arc<Mutex<Option<TcpStream>>>>>,
    // Behind a mutex solely to make the endpoint `Sync` for the mux pump;
    // one logical consumer still owns receive ordering.
    inbox: Mutex<Receiver<Delivery>>,
    connect_window: Duration,
    shutdown: Arc<AtomicBool>,
}

impl TcpTransport {
    /// Binds a listener on `127.0.0.1:0` and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind(id: PartyId) -> std::io::Result<Self> {
        Self::bind_addr(id, SocketAddr::from(([127, 0, 0, 1], 0)))
    }

    /// Binds a listener on an explicit address and starts accepting.
    ///
    /// # Errors
    ///
    /// Propagates socket errors.
    pub fn bind_addr(id: PartyId, addr: SocketAddr) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let (tx, rx) = unbounded();
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_shutdown = Arc::clone(&shutdown);
        std::thread::Builder::new()
            .name(format!("tcp-accept-{id}"))
            .spawn(move || accept_loop(&listener, &tx, &accept_shutdown))?;
        Ok(TcpTransport {
            id,
            local_addr,
            peers: Mutex::new(HashMap::new()),
            conns: Mutex::new(HashMap::new()),
            inbox: Mutex::new(rx),
            connect_window: DEFAULT_CONNECT_WINDOW,
            shutdown,
        })
    }

    /// The bound listen address (port is concrete after `bind`).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Registers where a peer listens. Must happen before sending to it.
    pub fn register_peer(&self, peer: PartyId, addr: SocketAddr) {
        self.peers.lock().insert(peer, addr);
    }

    /// Overrides the connect retry window (how long a `send` waits for a
    /// peer that has not bound yet before failing with
    /// [`TransportError::ConnectFailed`]).
    pub fn set_connect_window(&mut self, window: Duration) {
        self.connect_window = window;
    }

    /// Connects with exponential backoff: session setup may race peer
    /// binds, so failures retry with doubling sleeps (2 ms → 250 ms cap)
    /// until `window` closes, then fail with the typed
    /// [`TransportError::ConnectFailed`] naming the address and attempt
    /// count — not a generic disconnect.
    fn connect(&self, to: PartyId, window: Duration) -> Result<TcpStream, TransportError> {
        let addr = *self
            .peers
            .lock()
            .get(&to)
            .ok_or(TransportError::UnknownParty(to))?;
        let deadline = Instant::now() + window;
        let mut backoff = CONNECT_BACKOFF_FLOOR;
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match TcpStream::connect(addr) {
                Ok(mut stream) => {
                    stream.set_nodelay(true).ok();
                    stream
                        .write_all(&self.id.0.to_le_bytes())
                        .map_err(|_| TransportError::Disconnected)?;
                    return Ok(stream);
                }
                Err(_) if Instant::now() < deadline => {
                    std::thread::sleep(
                        backoff.min(deadline.saturating_duration_since(Instant::now())),
                    );
                    backoff = (backoff * 2).min(CONNECT_BACKOFF_CAP);
                }
                Err(_) => return Err(TransportError::ConnectFailed { addr, attempts }),
            }
        }
    }
}

fn accept_loop(listener: &TcpListener, tx: &Sender<Delivery>, shutdown: &Arc<AtomicBool>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        if shutdown.load(Ordering::Acquire) {
            return;
        }
        let tx = tx.clone();
        // A failed reader spawn drops this one connection; the listener —
        // and every session multiplexed over other connections — lives on.
        let _ = std::thread::Builder::new()
            .name("tcp-reader".into())
            .spawn(move || reader_loop(stream, &tx));
    }
}

fn reader_loop(mut stream: TcpStream, tx: &Sender<Delivery>) {
    let mut id_buf = [0u8; 8];
    if stream.read_exact(&mut id_buf).is_err() {
        return;
    }
    let from = PartyId(u64::from_le_bytes(id_buf));
    let mut len_buf = [0u8; 4];
    loop {
        if stream.read_exact(&mut len_buf).is_err() {
            // EOF or read error on an identified connection: the peer's
            // process closed its socket (crash, exit, or teardown).
            // Surface a typed in-band PeerDown so a receiver blocked on
            // this endpoint fails fast instead of starving until its
            // protocol timeout.
            let _ = tx.send(Delivery::PeerDown(from));
            return;
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if len > MAX_PAYLOAD {
            // A corrupt/hostile length prefix kills the carrying
            // connection (no resynchronizing a byte stream) — surface the
            // typed oversize marker so the receiver fails that peer's
            // session with [`TransportError::OversizeFrame`] instead of a
            // generic peer-down.
            let _ = stream.shutdown(Shutdown::Both);
            let _ = tx.send(Delivery::Oversize(from, len));
            return;
        }
        // The claimed length bounds the *read*, never the allocation: a
        // pooled buffer of capped initial capacity grows only with bytes
        // actually received, so an attacker claiming (a legal) 64 MiB pays
        // for the bytes itself instead of reserving our memory up front.
        let mut payload = crate::pool::global().acquire(len.min(PAYLOAD_ACQUIRE_CAP));
        match (&mut stream).take(len as u64).read_to_end(&mut payload) {
            Ok(n) if n == len => {}
            _ => {
                crate::pool::global().recycle_vec(payload);
                let _ = tx.send(Delivery::PeerDown(from));
                return;
            }
        }
        if tx
            .send(Delivery::Frame(from, Bytes::from(payload)))
            .is_err()
        {
            return; // endpoint dropped
        }
    }
}

impl Transport for TcpTransport {
    fn local_id(&self) -> PartyId {
        self.id
    }

    fn send(&self, to: PartyId, payload: Bytes) -> Result<(), TransportError> {
        self.send_within(to, payload, self.connect_window)
    }

    fn send_liveness(&self, to: PartyId, payload: Bytes) -> Result<(), TransportError> {
        // Heartbeats must never stall the emitter: neither in a dead
        // peer's connect retry (the short window below) nor behind the
        // per-peer write lock while a *regular* send sits in its own
        // full connect window (try_lock). A contended lock means the
        // link is being actively worked this instant, so skipping the
        // beat is sound — data frames refresh the remote watchdog too.
        let slot = self.conn_slot(to);
        let Some(stream_slot) = slot.try_lock() else {
            return Ok(());
        };
        self.write_locked(
            to,
            payload,
            stream_slot,
            HEARTBEAT_CONNECT_WINDOW.min(self.connect_window),
        )
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

impl TcpTransport {
    fn conn_slot(&self, to: PartyId) -> Arc<Mutex<Option<TcpStream>>> {
        Arc::clone(
            self.conns
                .lock()
                .entry(to)
                .or_insert_with(|| Arc::new(Mutex::new(None))),
        )
    }

    fn send_within(
        &self,
        to: PartyId,
        payload: Bytes,
        window: Duration,
    ) -> Result<(), TransportError> {
        // Connect lazily and write under the per-peer lock only; frames to
        // one peer stay contiguous while other peers proceed in parallel.
        let slot = self.conn_slot(to);
        let stream_slot = slot.lock();
        self.write_locked(to, payload, stream_slot, window)
    }

    fn write_locked(
        &self,
        to: PartyId,
        payload: Bytes,
        mut stream_slot: std::sync::MutexGuard<'_, Option<TcpStream>>,
        window: Duration,
    ) -> Result<(), TransportError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(TransportError::PayloadTooLarge {
                size: payload.len(),
            });
        }
        if stream_slot.is_none() {
            *stream_slot = Some(self.connect(to, window)?);
        }
        let Some(stream) = stream_slot.as_mut() else {
            return Err(TransportError::Disconnected);
        };
        let len = u32::try_from(payload.len()).map_err(|_| TransportError::PayloadTooLarge {
            size: payload.len(),
        })?;
        let write = stream
            .write_all(&len.to_le_bytes())
            .and_then(|()| stream.write_all(&payload));
        if write.is_err() {
            *stream_slot = None;
            return Err(TransportError::Disconnected);
        }
        Ok(())
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Wake the accept loop so it observes the flag and exits.
        let _ = TcpStream::connect(self.local_addr);
        for (_, slot) in self.conns.lock().drain() {
            if let Some(conn) = slot.lock().take() {
                let _ = conn.shutdown(Shutdown::Both);
            }
        }
    }
}

/// Which TCP backend serves an endpoint: the readiness-driven reactor
/// (default) or the thread-per-connection blocking implementation kept as
/// the equivalence reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// One reactor thread multiplexing every lane
    /// ([`crate::reactor::ReactorTransport`]).
    Reactor,
    /// Thread-per-connection blocking I/O ([`TcpTransport`]).
    Threaded,
}

impl Backend {
    /// Reads `SAP_NET_BACKEND` (`threaded` selects the blocking backend;
    /// anything else — including unset — selects the reactor).
    pub fn from_env() -> Backend {
        match std::env::var("SAP_NET_BACKEND") {
            Ok(v) if v == "threaded" => Backend::Threaded,
            _ => Backend::Reactor,
        }
    }

    /// Stable lowercase name for logs and bench output.
    pub fn name(self) -> &'static str {
        match self {
            Backend::Reactor => "reactor",
            Backend::Threaded => "threaded",
        }
    }
}

/// One TCP endpoint served by either backend. The two speak an identical
/// wire protocol, so lanes of different backends interoperate freely
/// within one mesh; which one a [`local_mesh`] builds is chosen by
/// [`Backend::from_env`].
pub enum TcpLane {
    /// A thread-per-connection blocking endpoint.
    Threaded(TcpTransport),
    /// A readiness-driven reactor endpoint.
    Reactor(crate::reactor::ReactorTransport),
}

impl TcpLane {
    /// Binds one endpoint of the given backend on an ephemeral localhost
    /// port.
    ///
    /// # Errors
    ///
    /// Propagates socket/poller setup failures.
    pub fn bind(id: PartyId, backend: Backend) -> std::io::Result<TcpLane> {
        match backend {
            Backend::Threaded => TcpTransport::bind(id).map(TcpLane::Threaded),
            Backend::Reactor => crate::reactor::ReactorTransport::bind(id).map(TcpLane::Reactor),
        }
    }

    /// Which backend serves this lane.
    pub fn backend(&self) -> Backend {
        match self {
            TcpLane::Threaded(_) => Backend::Threaded,
            TcpLane::Reactor(_) => Backend::Reactor,
        }
    }

    /// The bound listen address.
    pub fn local_addr(&self) -> SocketAddr {
        match self {
            TcpLane::Threaded(t) => t.local_addr(),
            TcpLane::Reactor(r) => r.local_addr(),
        }
    }

    /// Registers where a peer listens. Must happen before sending to it.
    pub fn register_peer(&self, peer: PartyId, addr: SocketAddr) {
        match self {
            TcpLane::Threaded(t) => t.register_peer(peer, addr),
            TcpLane::Reactor(r) => r.register_peer(peer, addr),
        }
    }

    /// Overrides the connect retry window (how long a send waits for a
    /// peer that has not bound yet before failing with
    /// [`TransportError::ConnectFailed`]).
    pub fn set_connect_window(&mut self, window: Duration) {
        match self {
            TcpLane::Threaded(t) => t.set_connect_window(window),
            TcpLane::Reactor(r) => r.set_connect_window(window),
        }
    }
}

impl Transport for TcpLane {
    fn local_id(&self) -> PartyId {
        match self {
            TcpLane::Threaded(t) => t.local_id(),
            TcpLane::Reactor(r) => r.local_id(),
        }
    }

    fn send(&self, to: PartyId, payload: Bytes) -> Result<(), TransportError> {
        match self {
            TcpLane::Threaded(t) => t.send(to, payload),
            TcpLane::Reactor(r) => r.send(to, payload),
        }
    }

    fn send_liveness(&self, to: PartyId, payload: Bytes) -> Result<(), TransportError> {
        match self {
            TcpLane::Threaded(t) => t.send_liveness(to, payload),
            TcpLane::Reactor(r) => r.send_liveness(to, payload),
        }
    }

    fn recv(&self) -> Result<(PartyId, Bytes), TransportError> {
        match self {
            TcpLane::Threaded(t) => t.recv(),
            TcpLane::Reactor(r) => r.recv(),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(PartyId, Bytes), TransportError> {
        match self {
            TcpLane::Threaded(t) => t.recv_timeout(timeout),
            TcpLane::Reactor(r) => r.recv_timeout(timeout),
        }
    }
}

/// Builds a fully meshed set of TCP endpoints on localhost, one per party,
/// with every peer address pre-registered — the TCP analogue of
/// registering every party on an [`crate::transport::InMemoryHub`]. The
/// backend comes from [`Backend::from_env`]: the reactor unless
/// `SAP_NET_BACKEND=threaded`.
///
/// # Errors
///
/// Propagates socket errors.
pub fn local_mesh(ids: &[PartyId]) -> std::io::Result<Vec<TcpLane>> {
    local_mesh_with(ids, Backend::from_env())
}

/// [`local_mesh`] with an explicit backend — equivalence tests pin each
/// side instead of inheriting the environment.
///
/// # Errors
///
/// Propagates socket errors.
pub fn local_mesh_with(ids: &[PartyId], backend: Backend) -> std::io::Result<Vec<TcpLane>> {
    let lanes: Vec<TcpLane> = ids
        .iter()
        .map(|&id| TcpLane::bind(id, backend))
        .collect::<std::io::Result<_>>()?;
    let addrs: Vec<(PartyId, SocketAddr)> = lanes
        .iter()
        .map(|t| (t.local_id(), t.local_addr()))
        .collect();
    for lane in &lanes {
        for &(peer, addr) in &addrs {
            // Self is registered too: the in-memory hub allows a party to
            // send to itself (the SAP exchange plan may assign a provider
            // as its own receiver), so the TCP mesh must as well — it
            // simply loops through the local listener.
            lane.register_peer(peer, addr);
        }
    }
    Ok(lanes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tcp_send_and_receive() {
        let mesh = local_mesh(&[PartyId(1), PartyId(2)]).unwrap();
        let (a, b) = {
            let mut it = mesh.into_iter();
            (it.next().unwrap(), it.next().unwrap())
        };
        a.send(PartyId(2), Bytes::from_static(b"over tcp")).unwrap();
        let (from, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, PartyId(1));
        assert_eq!(&payload[..], b"over tcp");
    }

    #[test]
    fn tcp_fifo_per_sender() {
        let mesh = local_mesh(&[PartyId(1), PartyId(2)]).unwrap();
        let (a, b) = {
            let mut it = mesh.into_iter();
            (it.next().unwrap(), it.next().unwrap())
        };
        for i in 0..50u8 {
            a.send(PartyId(2), Bytes::copy_from_slice(&[i])).unwrap();
        }
        for i in 0..50u8 {
            let (_, p) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(p[0], i);
        }
    }

    #[test]
    fn tcp_bidirectional_and_large_payload() {
        let mesh = local_mesh(&[PartyId(1), PartyId(2)]).unwrap();
        let (a, b) = {
            let mut it = mesh.into_iter();
            (it.next().unwrap(), it.next().unwrap())
        };
        let big: Vec<u8> = (0..1_000_000usize).map(|i| (i % 251) as u8).collect();
        a.send(PartyId(2), Bytes::from(big.clone())).unwrap();
        b.send(PartyId(1), Bytes::from_static(b"ack")).unwrap();
        let (_, got) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(got.len(), big.len());
        assert_eq!(&got[..64], &big[..64]);
        let (_, ack) = a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&ack[..], b"ack");
    }

    #[test]
    fn unknown_peer_errors() {
        let t = TcpTransport::bind(PartyId(1)).unwrap();
        assert_eq!(
            t.send(PartyId(9), Bytes::new()).unwrap_err(),
            TransportError::UnknownParty(PartyId(9))
        );
    }

    #[test]
    fn timeout_when_silent() {
        let t = TcpTransport::bind(PartyId(1)).unwrap();
        assert_eq!(
            t.recv_timeout(Duration::from_millis(20)).unwrap_err(),
            TransportError::Timeout
        );
    }

    #[test]
    fn unreachable_peer_fails_with_typed_connect_error() {
        // Port 1 sits below the kernel's ephemeral range, so no parallel
        // test's `bind(":0")` can be handed it; nothing listens there.
        let dead_addr: std::net::SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut t = TcpTransport::bind(PartyId(1)).unwrap();
        t.set_connect_window(Duration::from_millis(120));
        t.register_peer(PartyId(2), dead_addr);
        let start = std::time::Instant::now();
        let err = t.send(PartyId(2), Bytes::from_static(b"x")).unwrap_err();
        let TransportError::ConnectFailed { addr, attempts } = err else {
            panic!("expected ConnectFailed, got {err}");
        };
        assert_eq!(addr, dead_addr);
        // Exponential backoff: a 120 ms window at 2/4/8/… ms sleeps makes
        // several attempts but far fewer than the old 10 ms busy-loop's 12.
        assert!(attempts >= 2, "backoff retried ({attempts} attempts)");
        assert!(
            start.elapsed() >= Duration::from_millis(100),
            "the whole window was used"
        );
    }

    #[test]
    fn oversize_length_claim_surfaces_typed_error_without_allocation() {
        let t = TcpTransport::bind(PartyId(2)).unwrap();
        let mut rogue = TcpStream::connect(t.local_addr()).unwrap();
        rogue.write_all(&7u64.to_le_bytes()).unwrap();
        // Claim ~4 GiB. The reader must reject on the prefix alone —
        // never allocating the claim — and name the offender.
        rogue.write_all(&u32::MAX.to_le_bytes()).unwrap();
        let err = t.recv_timeout(Duration::from_secs(5)).unwrap_err();
        assert_eq!(
            err,
            TransportError::OversizeFrame {
                from: PartyId(7),
                claimed: u32::MAX as usize
            }
        );
    }

    #[test]
    fn both_backends_roundtrip_via_explicit_mesh() {
        for backend in [Backend::Threaded, Backend::Reactor] {
            let mesh = local_mesh_with(&[PartyId(1), PartyId(2)], backend).unwrap();
            let (a, b) = {
                let mut it = mesh.into_iter();
                (it.next().unwrap(), it.next().unwrap())
            };
            assert_eq!(a.backend(), backend);
            a.send(PartyId(2), Bytes::from_static(b"either way"))
                .unwrap();
            let (from, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(from, PartyId(1));
            assert_eq!(&payload[..], b"either way");
        }
    }

    #[test]
    fn peer_socket_close_surfaces_peer_down() {
        let mesh = local_mesh(&[PartyId(1), PartyId(2)]).unwrap();
        let (a, b) = {
            let mut it = mesh.into_iter();
            (it.next().unwrap(), it.next().unwrap())
        };
        a.send(PartyId(2), Bytes::from_static(b"hello")).unwrap();
        let (_, payload) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(&payload[..], b"hello");
        // Party 1's process "dies": dropping the transport closes its
        // sockets, and party 2's blocked receive fails fast with the
        // typed peer-down instead of waiting out a timeout.
        drop(a);
        let err = b.recv_timeout(Duration::from_secs(5)).unwrap_err();
        assert_eq!(err, TransportError::PeerDown(PartyId(1)));
    }
}
