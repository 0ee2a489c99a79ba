//! The TCP transport: one reactor thread serves every lane of an
//! endpoint.
//!
//! A [`ReactorTransport`] multiplexes **all** connections of one endpoint
//! onto a single reactor thread driven by the vendored readiness shim
//! ([`epoll`]): edge-triggered `epoll(7)` on Linux, with a portable
//! level-triggered `poll(2)` fallback selectable at runtime
//! (`SAP_POLLER=poll`). A lane costs no thread of its own, so a thousand
//! idle lanes cost one parked thread.
//!
//! # Byte protocol
//!
//! Each party binds a listener and knows its peers' addresses
//! ([`ReactorTransport::register_peer`], or [`crate::tcp::local_mesh`]
//! for a localhost mesh). Outgoing connections are opened lazily on first
//! send and kept for the endpoint's lifetime; they are send-only, inbound
//! connections receive-only. A connection opens with the sender's id
//! (`u64` little-endian), then carries `[len: u32 LE][payload]` frames —
//! the sealed frames of [`crate::frame`], so TCP only ever sees
//! ciphertext. A length over [`MAX_PAYLOAD`] kills the connection.
//!
//! # Structure
//!
//! - [`ReadMachine`] / [`WriteMachine`] — per-connection state machines.
//!   Pure, synchronous, and separately unit-tested (including one-byte-at-
//!   a-time torture feeds): the reactor loop just moves bytes between
//!   sockets and machines.
//! - The reactor thread owns the poller, the listener, and every
//!   connection. Other threads talk to it through a command channel plus
//!   a pipe [`epoll::Waker`] — no socket is ever touched off-thread.
//! - Connects stay blocking, but in **transient** connector threads that
//!   retry with exponential backoff (2 ms doubling to a 250 ms cap) until
//!   the connect window closes, and then hand the socket to the reactor.
//!   A pending connect is shared state:
//!   regular sends extend its deadline, liveness probes ride it without
//!   ever opening a second socket ([`Transport::send_liveness`] is
//!   allocation- and connection-free while a connect or drain is already
//!   in flight).
//! - Outbound frames queue in the connection's [`WriteMachine`] and leave
//!   in coalesced `writev` batches (length prefix + payload + as many
//!   queued frames as fit one vectored call). Write interest is armed
//!   only while bytes are queued, so idle lanes cost zero wakeups.
//!
//! # Backpressure
//!
//! [`Transport::send`] is asynchronous up to [`HIGH_WATER`] queued bytes
//! per peer, then blocks on a condvar until the reactor drains the queue
//! — a slow peer stalls its sender as a blocking write would, without
//! stalling any other lane.
//! [`Transport::send_liveness`] never blocks: over the high-water mark it
//! drops the beat (the link is demonstrably active), and while a connect
//! is pending it enqueues and returns.
//!
//! # Failure surface
//!
//! Failures are typed and surface through the inbox: a connect that
//! exhausts its window marks the peer failed (the next send consumes a
//! [`TransportError::ConnectFailed`]) and posts an in-band `PeerDown`; an
//! inbound peer's socket closing posts `PeerDown`; a peer claiming a
//! frame over [`MAX_PAYLOAD`] gets its connection dropped and a typed
//! [`TransportError::OversizeFrame`] surfaces to the receiver — the
//! claimed length is **never allocated**.

use crate::pool;
use crate::transport::{pop_delivery, Delivery, PartyId, Transport, TransportError};
use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use epoll::{BackendKind, Event, Interest, Poller, Waker};
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Upper bound on one sealed payload (64 MiB) — a hard stop against
/// corrupt or hostile length prefixes.
pub const MAX_PAYLOAD: usize = 64 * 1024 * 1024;

/// Default window over which a first send keeps retrying to reach a peer
/// that has not bound yet (peers may come up in any order).
pub const DEFAULT_CONNECT_WINDOW: Duration = Duration::from_secs(5);

/// First backoff sleep of the connect retry schedule; doubles per attempt.
const CONNECT_BACKOFF_FLOOR: Duration = Duration::from_millis(2);

/// Backoff ceiling — retries never sleep longer than this between
/// attempts, so a late-binding peer is noticed promptly even deep into
/// the window.
const CONNECT_BACKOFF_CAP: Duration = Duration::from_millis(250);

/// Connect window for [`Transport::send_liveness`] heartbeat sends — far
/// shorter than the regular window, so a dead (never-connected) peer
/// cannot stall a heartbeat emitter long enough to starve beats to
/// healthy peers.
const HEARTBEAT_CONNECT_WINDOW: Duration = Duration::from_millis(100);

/// Per-peer outbound queue bound, in payload bytes. A sender crossing it
/// blocks until the reactor drains the peer's queue below the mark.
pub const HIGH_WATER: usize = 8 * 1024 * 1024;

/// Reactor-side socket read buffer (one per reactor, reused forever).
const READ_CHUNK: usize = 256 * 1024;

/// Kernel socket buffer size requested (`SO_SNDBUF`/`SO_RCVBUF`) for every
/// reactor connection. Large buffers let a whole queued burst enter the
/// kernel in one writev and drain in few reads — on a single-core host
/// that directly cuts the sender↔receiver ping-pong context switches that
/// dominate loopback streaming. Best-effort: the kernel may clamp it.
const SOCK_BUF_BYTES: usize = 1024 * 1024;

/// Upper bound on the *up-front* payload buffer acquisition. A frame
/// claiming more grows incrementally with bytes actually received, so a
/// hostile length claim costs its sender the bytes, not us the memory.
const PAYLOAD_ACQUIRE_CAP: usize = 128 * 1024;

/// Most iovecs handed to one `write_vectored` call.
const MAX_WRITE_SLICES: usize = 64;

const TOKEN_LISTENER: usize = 0;
const TOKEN_WAKER: usize = 1;
const FIRST_CONN_TOKEN: usize = 2;

/// Backstop poll tick: bounds how stale the shutdown-flag check can get
/// if a wake is ever lost. All normal wakeups come through the [`Waker`].
const IDLE_TICK: Duration = Duration::from_millis(500);

// ---------------------------------------------------------------------------
// Read state machine
// ---------------------------------------------------------------------------

/// What a [`ReadMachine`] produced from one run of fed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadEvent {
    /// The connection's 8-byte identity preamble completed.
    Identified(PartyId),
    /// One complete length-prefixed frame payload.
    Frame(Bytes),
}

/// Fatal protocol violation: the peer claimed a frame longer than
/// [`MAX_PAYLOAD`]. The machine is dead afterwards; the connection must
/// be dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OversizeClaim {
    /// The length the peer claimed, in bytes. Never allocated.
    pub claimed: usize,
}

enum ReadState {
    Ident { buf: [u8; 8], have: usize },
    Len { buf: [u8; 4], have: usize },
    Payload { need: usize, buf: Vec<u8> },
    Dead,
}

/// Incremental parser for the TCP wire protocol (ident preamble, then
/// length-prefixed frames). Feed it byte slices of any granularity — a
/// frame split one byte per read parses identically to one delivered
/// whole. Payload buffers come from the global [`pool`] and grow with
/// bytes actually received, capped acquisitions only.
pub struct ReadMachine {
    state: ReadState,
}

impl Default for ReadMachine {
    fn default() -> Self {
        Self::new()
    }
}

impl ReadMachine {
    /// A machine at the start of a fresh connection (expects the ident
    /// preamble first).
    pub fn new() -> ReadMachine {
        ReadMachine {
            state: ReadState::Ident {
                buf: [0; 8],
                have: 0,
            },
        }
    }

    /// Whether the machine hit a protocol violation and stopped parsing.
    pub fn is_dead(&self) -> bool {
        matches!(self.state, ReadState::Dead)
    }

    /// Consumes `input`, appending completed [`ReadEvent`]s to `events`.
    ///
    /// # Errors
    ///
    /// Returns [`OversizeClaim`] (and goes dead) when a length prefix
    /// exceeds [`MAX_PAYLOAD`]. Events completed *before* the violation
    /// are still in `events` and remain valid.
    pub fn feed(
        &mut self,
        mut input: &[u8],
        events: &mut Vec<ReadEvent>,
    ) -> Result<(), OversizeClaim> {
        while !input.is_empty() {
            match &mut self.state {
                ReadState::Ident { buf, have } => {
                    let take = input.len().min(8 - *have);
                    buf[*have..*have + take].copy_from_slice(&input[..take]);
                    *have += take;
                    input = &input[take..];
                    if *have == 8 {
                        events.push(ReadEvent::Identified(PartyId(u64::from_le_bytes(*buf))));
                        self.state = ReadState::Len {
                            buf: [0; 4],
                            have: 0,
                        };
                    }
                }
                ReadState::Len { buf, have } => {
                    let take = input.len().min(4 - *have);
                    buf[*have..*have + take].copy_from_slice(&input[..take]);
                    *have += take;
                    input = &input[take..];
                    if *have == 4 {
                        let len = u32::from_le_bytes(*buf) as usize;
                        if len > MAX_PAYLOAD {
                            self.state = ReadState::Dead;
                            return Err(OversizeClaim { claimed: len });
                        }
                        if len == 0 {
                            events.push(ReadEvent::Frame(Bytes::new()));
                            self.state = ReadState::Len {
                                buf: [0; 4],
                                have: 0,
                            };
                        } else {
                            let buf = pool::global().acquire(len.min(PAYLOAD_ACQUIRE_CAP));
                            self.state = ReadState::Payload { need: len, buf };
                        }
                    }
                }
                ReadState::Payload { need, buf } => {
                    let take = input.len().min(*need - buf.len());
                    buf.extend_from_slice(&input[..take]);
                    input = &input[take..];
                    if buf.len() == *need {
                        let full = std::mem::take(buf);
                        events.push(ReadEvent::Frame(Bytes::from(full)));
                        self.state = ReadState::Len {
                            buf: [0; 4],
                            have: 0,
                        };
                    }
                }
                ReadState::Dead => return Ok(()),
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Write state machine
// ---------------------------------------------------------------------------

struct Pending {
    /// Length prefix (4 bytes) or the ident preamble (8 bytes).
    head: [u8; 8],
    head_len: usize,
    payload: Bytes,
}

impl Pending {
    fn total(&self) -> usize {
        self.head_len + self.payload.len()
    }
}

/// What one [`WriteMachine::flush`] accomplished.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlushReport {
    /// Frame payload bytes fully written (backpressure accounting).
    pub completed_payload: usize,
    /// Frames fully written to the socket.
    pub frames: u64,
    /// `write_vectored` calls issued.
    pub writev_calls: u64,
    /// Whether the queue fully drained (false ⇒ keep write interest).
    pub drained: bool,
}

/// Outbound frame queue with coalesced vectored flushing. Each entry is a
/// length prefix plus its payload; one flush hands as many queued slices
/// to `write_vectored` as fit a batch, restarting mid-frame after partial
/// writes. Completed payloads are recycled into the global [`pool`].
#[derive(Default)]
pub struct WriteMachine {
    queue: VecDeque<Pending>,
    /// Bytes of the front entry already written.
    offset: usize,
    queued_bytes: usize,
}

impl WriteMachine {
    /// An empty queue.
    pub fn new() -> WriteMachine {
        WriteMachine::default()
    }

    /// Whether nothing is queued (write interest can be dropped).
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Total queued bytes (heads + payloads) not yet written.
    pub fn queued_bytes(&self) -> usize {
        self.queued_bytes - self.offset
    }

    /// Queues the connection's 8-byte identity preamble.
    pub fn enqueue_ident(&mut self, id: PartyId) {
        let mut head = [0u8; 8];
        head.copy_from_slice(&id.0.to_le_bytes());
        self.queued_bytes += 8;
        self.queue.push_back(Pending {
            head,
            head_len: 8,
            payload: Bytes::new(),
        });
    }

    /// Queues one frame (4-byte length prefix + payload).
    pub fn enqueue_frame(&mut self, payload: Bytes) {
        let mut head = [0u8; 8];
        head[..4].copy_from_slice(&(payload.len() as u32).to_le_bytes());
        self.queued_bytes += 4 + payload.len();
        self.queue.push_back(Pending {
            head,
            head_len: 4,
            payload,
        });
    }

    /// Writes as much of the queue as the socket accepts right now.
    ///
    /// # Errors
    ///
    /// Propagates fatal socket errors (the connection must be dropped);
    /// `WouldBlock` is not an error — it ends the flush with
    /// `drained == false`.
    pub fn flush<W: Write>(&mut self, w: &mut W) -> io::Result<FlushReport> {
        let mut report = FlushReport::default();
        loop {
            if self.queue.is_empty() {
                report.drained = true;
                return Ok(report);
            }
            let wrote = {
                let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(MAX_WRITE_SLICES);
                let mut skip = self.offset;
                'build: for p in &self.queue {
                    for part in [&p.head[..p.head_len], &p.payload[..]] {
                        if skip >= part.len() {
                            skip -= part.len();
                            continue;
                        }
                        if slices.len() == MAX_WRITE_SLICES {
                            break 'build;
                        }
                        slices.push(IoSlice::new(&part[skip..]));
                        skip = 0;
                    }
                }
                report.writev_calls += 1;
                match w.write_vectored(&slices) {
                    Ok(0) => {
                        return Err(io::Error::new(
                            io::ErrorKind::WriteZero,
                            "socket accepted zero bytes",
                        ))
                    }
                    Ok(n) => n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(report),
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            self.advance(wrote, &mut report);
        }
    }

    fn advance(&mut self, mut n: usize, report: &mut FlushReport) {
        while n > 0 {
            let Some(front) = self.queue.front() else {
                return;
            };
            let remaining = front.total() - self.offset;
            if n < remaining {
                self.offset += n;
                return;
            }
            n -= remaining;
            self.offset = 0;
            if let Some(done) = self.queue.pop_front() {
                self.queued_bytes -= done.total();
                if done.head_len == 4 {
                    report.completed_payload += done.payload.len();
                    report.frames += 1;
                }
                pool::global().recycle(done.payload);
            }
        }
    }

    /// Drops everything still queued (connection died), returning the
    /// total payload bytes abandoned so backpressure accounting can be
    /// released.
    pub fn abandon(&mut self) -> usize {
        let mut bytes = 0;
        while let Some(p) = self.queue.pop_front() {
            if p.head_len == 4 {
                bytes += p.payload.len();
            }
            pool::global().recycle(p.payload);
        }
        self.offset = 0;
        self.queued_bytes = 0;
        bytes
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// Counters the reactor keeps about its own activity; read them with
/// [`ReactorTransport::stats`]. `wakeups` shows that idle lanes cost
/// nothing (`idle_reactor_barely_wakes` pins it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReactorStats {
    /// Times the poller's wait returned (events or tick).
    pub wakeups: u64,
    /// `write_vectored` calls issued across all connections.
    pub writev_calls: u64,
    /// Frames fully written to sockets.
    pub frames_out: u64,
    /// Frames fully parsed from sockets.
    pub frames_in: u64,
    /// Outbound connects started (connector threads spawned).
    pub connects_started: u64,
    /// Inbound connections accepted.
    pub accepted: u64,
    /// Connections dropped over an oversize length claim.
    pub oversize_kills: u64,
}

#[derive(Default)]
struct StatCells {
    wakeups: AtomicU64,
    writev_calls: AtomicU64,
    frames_out: AtomicU64,
    frames_in: AtomicU64,
    connects_started: AtomicU64,
    accepted: AtomicU64,
    oversize_kills: AtomicU64,
}

impl StatCells {
    fn snapshot(&self) -> ReactorStats {
        ReactorStats {
            wakeups: self.wakeups.load(Ordering::Relaxed),
            writev_calls: self.writev_calls.load(Ordering::Relaxed),
            frames_out: self.frames_out.load(Ordering::Relaxed),
            frames_in: self.frames_in.load(Ordering::Relaxed),
            connects_started: self.connects_started.load(Ordering::Relaxed),
            accepted: self.accepted.load(Ordering::Relaxed),
            oversize_kills: self.oversize_kills.load(Ordering::Relaxed),
        }
    }
}

// ---------------------------------------------------------------------------
// Shared state & commands
// ---------------------------------------------------------------------------

enum Cmd {
    Send { to: PartyId, payload: Bytes },
    Liveness { to: PartyId, payload: Bytes },
    Connected { to: PartyId, stream: TcpStream },
    ConnectFailed { to: PartyId, error: TransportError },
    Shutdown,
}

#[derive(Default)]
struct Gate {
    /// Payload bytes queued per peer (write queues + pending-connect
    /// queues). Incremented by senders, decremented by the reactor.
    queued: HashMap<PartyId, usize>,
    /// One-shot failure latches: a failed connect parks its error here;
    /// the next send to the peer consumes it (and may retry fresh).
    failed: HashMap<PartyId, TransportError>,
}

struct Shared {
    id: PartyId,
    local_addr: SocketAddr,
    backend: BackendKind,
    peers: Mutex<HashMap<PartyId, SocketAddr>>,
    gate: Mutex<Gate>,
    gate_cv: Condvar,
    stats: StatCells,
    shutdown: AtomicBool,
    /// True while the reactor thread is parked in (or committing to) its
    /// poller wait — see [`Shared::post`].
    sleeping: AtomicBool,
    connect_window: Mutex<Duration>,
    cmd_tx: Sender<Cmd>,
    waker: Waker,
}

impl Shared {
    /// Enqueues a command for the reactor, waking it only when it is
    /// parked in its poller wait. When the reactor is mid-loop it drains
    /// the queue before sleeping anyway, so the waker pipe write (a
    /// syscall per send on the hot path) is elided. The store/load pair
    /// is `SeqCst` on both sides: the reactor sets `sleeping` *before*
    /// its final queue check, so either that check sees this command or
    /// this load sees `sleeping == true` and wakes it.
    fn post(&self, cmd: Cmd) {
        let _ = self.cmd_tx.send(cmd);
        if self.sleeping.load(Ordering::SeqCst) {
            self.waker.wake();
        }
    }
    fn release_queued(&self, peer: PartyId, bytes: usize) {
        if bytes == 0 {
            return;
        }
        let mut gate = self.gate.lock();
        if let Some(q) = gate.queued.get_mut(&peer) {
            *q = q.saturating_sub(bytes);
            if *q == 0 {
                gate.queued.remove(&peer);
            }
        }
        drop(gate);
        self.gate_cv.notify_all();
    }
}

/// A pending outbound connect, shared between the reactor (which queues
/// frames against it and extends its deadline) and the transient
/// connector thread (which reads the deadline each retry). This is what
/// lets liveness probes and later sends *ride* an in-flight connect
/// instead of opening competing sockets.
struct ConnectCtl {
    deadline: Mutex<Instant>,
}

struct ConnectJob {
    ctl: Arc<ConnectCtl>,
    queued: VecDeque<Bytes>,
}

enum PeerState {
    Connecting(ConnectJob),
    Up { token: usize },
}

#[derive(PartialEq, Eq, Clone, Copy)]
enum SendKind {
    Data,
    Liveness,
}

// ---------------------------------------------------------------------------
// The reactor thread
// ---------------------------------------------------------------------------

struct Conn {
    stream: TcpStream,
    peer: Option<PartyId>,
    outbound: bool,
    rm: ReadMachine,
    wm: WriteMachine,
    want_write: bool,
}

struct Reactor {
    shared: Arc<Shared>,
    poller: Poller,
    listener: TcpListener,
    cmd_rx: Receiver<Cmd>,
    inbox_tx: Sender<Delivery>,
    conns: HashMap<usize, Conn>,
    peer_state: HashMap<PartyId, PeerState>,
    next_token: usize,
    read_buf: Vec<u8>,
    events: Vec<Event>,
    /// Tokens that had frames queued during the current command drain.
    /// Flushing once per drain instead of once per command lets a burst
    /// of chunk sends leave in a handful of large writev calls.
    dirty: Vec<usize>,
}

impl Reactor {
    fn run(mut self) {
        loop {
            loop {
                match self.cmd_rx.try_recv() {
                    Some(Cmd::Shutdown) => return self.teardown(),
                    Some(cmd) => self.handle_cmd(cmd),
                    None => break,
                }
            }
            self.flush_dirty();
            if self.shared.shutdown.load(Ordering::Acquire) {
                return self.teardown();
            }
            // Announce the intent to sleep, then re-check the queue once:
            // any `post` that ran before the store already enqueued its
            // command (picked up here), and any that runs after it sees
            // `sleeping` and writes the waker pipe. Either way no command
            // waits out a full poll timeout.
            self.shared.sleeping.store(true, Ordering::SeqCst);
            match self.cmd_rx.try_recv() {
                Some(Cmd::Shutdown) => return self.teardown(),
                Some(cmd) => {
                    self.shared.sleeping.store(false, Ordering::SeqCst);
                    self.handle_cmd(cmd);
                    continue;
                }
                None => {}
            }
            let mut events = std::mem::take(&mut self.events);
            let waited = self.poller.wait(&mut events, Some(IDLE_TICK));
            self.shared.sleeping.store(false, Ordering::SeqCst);
            if waited.is_err() {
                // Transient poll failure: back off a tick rather than
                // spinning, then keep serving.
                std::thread::sleep(Duration::from_millis(1));
            }
            self.shared.stats.wakeups.fetch_add(1, Ordering::Relaxed);
            for &ev in &events {
                match ev.token {
                    TOKEN_WAKER => {
                        self.shared.waker.drain();
                    }
                    TOKEN_LISTENER => self.accept_ready(),
                    token => self.conn_ready(token, ev),
                }
            }
            self.events = events;
        }
    }

    fn teardown(mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let tokens: Vec<usize> = self.conns.keys().copied().collect();
        for token in tokens {
            self.kill_conn(token, None);
        }
        // Wake any sender still parked on the gate: it re-checks the
        // shutdown flag and returns Disconnected.
        self.shared.gate_cv.notify_all();
        // Dropping `inbox_tx` disconnects receivers blocked in recv().
    }

    fn alloc_token(&mut self) -> usize {
        let token = self.next_token;
        self.next_token += 1;
        token
    }

    /// Flushes every connection that queued frames during the last
    /// command drain. Tokens may repeat (one per queued frame); each
    /// connection is flushed once.
    fn flush_dirty(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let mut tokens = std::mem::take(&mut self.dirty);
        tokens.sort_unstable();
        tokens.dedup();
        for token in tokens {
            self.flush_conn(token);
        }
    }

    fn handle_cmd(&mut self, cmd: Cmd) {
        match cmd {
            Cmd::Send { to, payload } => self.dispatch(to, payload, SendKind::Data),
            Cmd::Liveness { to, payload } => self.dispatch(to, payload, SendKind::Liveness),
            Cmd::Connected { to, stream } => self.peer_connected(to, stream),
            Cmd::ConnectFailed { to, error } => self.peer_connect_failed(to, error),
            Cmd::Shutdown => {}
        }
    }

    fn dispatch(&mut self, to: PartyId, payload: Bytes, kind: SendKind) {
        match self.peer_state.get_mut(&to) {
            Some(PeerState::Up { token }) => {
                let token = *token;
                if let Some(conn) = self.conns.get_mut(&token) {
                    conn.wm.enqueue_frame(payload);
                } else {
                    // Connection died under us; release the accounting and
                    // let the next send reconnect.
                    self.peer_state.remove(&to);
                    self.shared.release_queued(to, payload.len());
                    return;
                }
                self.dirty.push(token);
            }
            Some(PeerState::Connecting(job)) => {
                job.queued.push_back(payload);
                if kind == SendKind::Data {
                    // A data send renews the connect effort; liveness
                    // probes ride the pending connect without extending it
                    // (and never open a second socket).
                    let window = *self.shared.connect_window.lock();
                    let mut deadline = job.ctl.deadline.lock();
                    let renewed = Instant::now() + window;
                    if renewed > *deadline {
                        *deadline = renewed;
                    }
                }
            }
            None => {
                let addr = {
                    let peers = self.shared.peers.lock();
                    peers.get(&to).copied()
                };
                let Some(addr) = addr else {
                    // send() verified registration; a concurrent removal is
                    // the only way here. Drop the frame, release the gate.
                    self.shared.release_queued(to, payload.len());
                    return;
                };
                let window = match kind {
                    SendKind::Data => *self.shared.connect_window.lock(),
                    SendKind::Liveness => HEARTBEAT_CONNECT_WINDOW,
                };
                let ctl = Arc::new(ConnectCtl {
                    deadline: Mutex::new(Instant::now() + window),
                });
                self.peer_state.insert(
                    to,
                    PeerState::Connecting(ConnectJob {
                        ctl: Arc::clone(&ctl),
                        queued: VecDeque::from([payload]),
                    }),
                );
                self.shared
                    .stats
                    .connects_started
                    .fetch_add(1, Ordering::Relaxed);
                spawn_connector(&self.shared, to, addr, ctl);
            }
        }
    }

    fn peer_connected(&mut self, to: PartyId, stream: TcpStream) {
        let token = self.alloc_token();
        if self
            .poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .is_err()
        {
            self.peer_connect_failed(to, TransportError::Disconnected);
            return;
        }
        let mut conn = Conn {
            stream,
            peer: Some(to),
            outbound: true,
            rm: ReadMachine::new(),
            wm: WriteMachine::new(),
            want_write: false,
        };
        conn.wm.enqueue_ident(self.shared.id);
        if let Some(PeerState::Connecting(mut job)) = self.peer_state.remove(&to) {
            while let Some(payload) = job.queued.pop_front() {
                conn.wm.enqueue_frame(payload);
            }
        }
        self.conns.insert(token, conn);
        self.peer_state.insert(to, PeerState::Up { token });
        self.flush_conn(token);
    }

    fn peer_connect_failed(&mut self, to: PartyId, error: TransportError) {
        let dropped = match self.peer_state.remove(&to) {
            Some(PeerState::Connecting(mut job)) => {
                let mut bytes = 0;
                while let Some(payload) = job.queued.pop_front() {
                    bytes += payload.len();
                    pool::global().recycle(payload);
                }
                bytes
            }
            _ => 0,
        };
        {
            let mut gate = self.shared.gate.lock();
            if let Some(q) = gate.queued.get_mut(&to) {
                *q = q.saturating_sub(dropped);
                if *q == 0 {
                    gate.queued.remove(&to);
                }
            }
            gate.failed.insert(to, error);
        }
        self.shared.gate_cv.notify_all();
        let _ = self.inbox_tx.send(Delivery::PeerDown(to));
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let _ = epoll::set_socket_buffers(
                        stream.as_raw_fd(),
                        SOCK_BUF_BYTES,
                        SOCK_BUF_BYTES,
                    );
                    let token = self.alloc_token();
                    if self
                        .poller
                        .register(stream.as_raw_fd(), token, Interest::READ)
                        .is_ok()
                    {
                        self.conns.insert(
                            token,
                            Conn {
                                stream,
                                peer: None,
                                outbound: false,
                                rm: ReadMachine::new(),
                                wm: WriteMachine::new(),
                                want_write: false,
                            },
                        );
                        self.shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn conn_ready(&mut self, token: usize, ev: Event) {
        if ev.readable || ev.hangup || ev.error {
            self.drain_read(token);
        }
        if ev.writable {
            self.flush_conn(token);
        }
    }

    /// Reads until `WouldBlock` (mandatory under edge triggering),
    /// feeding the connection's [`ReadMachine`] and forwarding completed
    /// frames to the inbox.
    fn drain_read(&mut self, token: usize) {
        let mut events: Vec<ReadEvent> = Vec::new();
        let death: Option<Option<Delivery>> = loop {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            match conn.stream.read(&mut self.read_buf) {
                Ok(0) => {
                    // EOF. An identified inbound peer's disappearance is a
                    // liveness event; outbound conns just reset so the
                    // next send reconnects.
                    let notify = match (conn.outbound, conn.peer) {
                        (false, Some(peer)) => Some(Delivery::PeerDown(peer)),
                        _ => None,
                    };
                    break Some(notify);
                }
                Ok(n) => {
                    if conn.outbound {
                        // Outbound lanes are send-only by protocol; inbound
                        // bytes on one are discarded (reading them is still
                        // required to notice EOF).
                        continue;
                    }
                    events.clear();
                    let fed = conn.rm.feed(&self.read_buf[..n], &mut events);
                    let from = conn.peer;
                    let mut identified = from;
                    for event in events.drain(..) {
                        match event {
                            ReadEvent::Identified(peer) => identified = Some(peer),
                            ReadEvent::Frame(payload) => {
                                self.shared.stats.frames_in.fetch_add(1, Ordering::Relaxed);
                                if let Some(peer) = identified {
                                    let _ = self.inbox_tx.send(Delivery::Frame(peer, payload));
                                }
                            }
                        }
                    }
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.peer = identified;
                    }
                    if let Err(OversizeClaim { claimed }) = fed {
                        self.shared
                            .stats
                            .oversize_kills
                            .fetch_add(1, Ordering::Relaxed);
                        let notify = identified.map(|peer| Delivery::Oversize(peer, claimed));
                        break Some(notify);
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break None,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    let notify = match (conn.outbound, conn.peer) {
                        (false, Some(peer)) => Some(Delivery::PeerDown(peer)),
                        _ => None,
                    };
                    break Some(notify);
                }
            }
        };
        if let Some(notify) = death {
            self.kill_conn(token, notify);
        }
    }

    /// Flushes a connection's write queue and keeps its poller interest in
    /// sync: write interest exactly while bytes remain queued.
    fn flush_conn(&mut self, token: usize) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        match conn.wm.flush(&mut conn.stream) {
            Ok(report) => {
                self.shared
                    .stats
                    .writev_calls
                    .fetch_add(report.writev_calls, Ordering::Relaxed);
                self.shared
                    .stats
                    .frames_out
                    .fetch_add(report.frames, Ordering::Relaxed);
                let peer = conn.peer;
                let want_write = !report.drained;
                if want_write != conn.want_write {
                    conn.want_write = want_write;
                    let interest = if want_write {
                        Interest::BOTH
                    } else {
                        Interest::READ
                    };
                    let _ = self.poller.modify(conn.stream.as_raw_fd(), token, interest);
                }
                if let Some(peer) = peer {
                    // release_queued is a no-op for zero bytes.
                    self.shared.release_queued(peer, report.completed_payload);
                }
            }
            Err(_) => self.kill_conn(token, None),
        }
    }

    fn kill_conn(&mut self, token: usize, notify: Option<Delivery>) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return;
        };
        let _ = self.poller.deregister(conn.stream.as_raw_fd());
        let abandoned = conn.wm.abandon();
        if let Some(peer) = conn.peer {
            if conn.outbound {
                if matches!(self.peer_state.get(&peer), Some(PeerState::Up { token: t }) if *t == token)
                {
                    self.peer_state.remove(&peer);
                }
                self.shared.release_queued(peer, abandoned);
            }
        }
        if let Some(delivery) = notify {
            let _ = self.inbox_tx.send(delivery);
        }
    }
}

fn spawn_connector(outer: &Arc<Shared>, to: PartyId, addr: SocketAddr, ctl: Arc<ConnectCtl>) {
    let shared = Arc::clone(outer);
    let spawned = std::thread::Builder::new()
        .name(format!("tcp-connect-{}-{}", shared.id.0, to.0))
        .spawn(move || {
            let mut backoff = CONNECT_BACKOFF_FLOOR;
            let mut attempts: u32 = 0;
            loop {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                attempts += 1;
                match TcpStream::connect(addr) {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        let _ = epoll::set_socket_buffers(
                            stream.as_raw_fd(),
                            SOCK_BUF_BYTES,
                            SOCK_BUF_BYTES,
                        );
                        if stream.set_nonblocking(true).is_err() {
                            shared.post(Cmd::ConnectFailed {
                                to,
                                error: TransportError::Disconnected,
                            });
                        } else {
                            shared.post(Cmd::Connected { to, stream });
                        }
                        return;
                    }
                    Err(_) => {
                        // The deadline is shared, extendable state: sends
                        // arriving while we retry push it out.
                        let deadline = *ctl.deadline.lock();
                        let now = Instant::now();
                        if now >= deadline {
                            shared.post(Cmd::ConnectFailed {
                                to,
                                error: TransportError::ConnectFailed { addr, attempts },
                            });
                            return;
                        }
                        std::thread::sleep(backoff.min(deadline - now));
                        backoff = (backoff * 2).min(CONNECT_BACKOFF_CAP);
                    }
                }
            }
        });
    if spawned.is_err() {
        outer.post(Cmd::ConnectFailed {
            to,
            error: TransportError::ConnectFailed { addr, attempts: 0 },
        });
    }
}

// ---------------------------------------------------------------------------
// The public transport
// ---------------------------------------------------------------------------

/// A TCP [`Transport`] endpoint served by one reactor thread. See the
/// module docs for the design.
pub struct ReactorTransport {
    shared: Arc<Shared>,
    inbox: Mutex<Receiver<Delivery>>,
    handle: Option<JoinHandle<()>>,
}

impl ReactorTransport {
    /// Binds a listener on an ephemeral localhost port and starts the
    /// reactor thread.
    ///
    /// # Errors
    ///
    /// Propagates socket/poller setup failures.
    pub fn bind(id: PartyId) -> io::Result<ReactorTransport> {
        Self::bind_addr(id, (std::net::Ipv4Addr::LOCALHOST, 0).into())
    }

    /// Binds on an ephemeral localhost port with an explicit readiness
    /// backend — both backends stay testable on Linux without touching
    /// the `SAP_POLLER` environment variable.
    ///
    /// # Errors
    ///
    /// Propagates socket/poller setup failures (including requesting the
    /// epoll backend off Linux).
    pub fn bind_with_backend(id: PartyId, kind: BackendKind) -> io::Result<ReactorTransport> {
        Self::bind_inner(id, (std::net::Ipv4Addr::LOCALHOST, 0).into(), Some(kind))
    }

    /// Binds a listener on an explicit address and starts the reactor
    /// thread.
    ///
    /// # Errors
    ///
    /// Propagates socket/poller setup failures (including an unsupported
    /// forced poll backend).
    pub fn bind_addr(id: PartyId, addr: SocketAddr) -> io::Result<ReactorTransport> {
        Self::bind_inner(id, addr, None)
    }

    fn bind_inner(
        id: PartyId,
        addr: SocketAddr,
        backend: Option<BackendKind>,
    ) -> io::Result<ReactorTransport> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let mut poller = match backend {
            Some(kind) => Poller::with_backend(kind)?,
            None => Poller::new()?,
        };
        let backend = poller.backend();
        poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        let waker = Waker::new(&mut poller, TOKEN_WAKER)?;
        let (cmd_tx, cmd_rx) = unbounded();
        let (inbox_tx, inbox_rx) = unbounded();
        let shared = Arc::new(Shared {
            id,
            local_addr,
            backend,
            peers: Mutex::new(HashMap::new()),
            gate: Mutex::new(Gate::default()),
            gate_cv: Condvar::new(),
            stats: StatCells::default(),
            shutdown: AtomicBool::new(false),
            sleeping: AtomicBool::new(false),
            connect_window: Mutex::new(DEFAULT_CONNECT_WINDOW),
            cmd_tx,
            waker,
        });
        let reactor_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name(format!("reactor-{}", id.0))
            .spawn(move || {
                Reactor {
                    shared: reactor_shared,
                    poller,
                    listener,
                    cmd_rx,
                    inbox_tx,
                    conns: HashMap::new(),
                    peer_state: HashMap::new(),
                    next_token: FIRST_CONN_TOKEN,
                    read_buf: vec![0; READ_CHUNK],
                    events: Vec::new(),
                    dirty: Vec::new(),
                }
                .run();
            })?;
        Ok(ReactorTransport {
            shared,
            inbox: Mutex::new(inbox_rx),
            handle: Some(handle),
        })
    }

    /// The address this endpoint's listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.local_addr
    }

    /// Which readiness backend the reactor runs on (epoll or poll).
    pub fn poll_backend(&self) -> BackendKind {
        self.shared.backend
    }

    /// Registers where a peer's listener lives. Connections are opened
    /// lazily on first send.
    pub fn register_peer(&self, id: PartyId, addr: SocketAddr) {
        self.shared.peers.lock().insert(id, addr);
    }

    /// Overrides how long a first send retries an unreachable peer before
    /// failing with [`TransportError::ConnectFailed`].
    pub fn set_connect_window(&mut self, window: Duration) {
        *self.shared.connect_window.lock() = window;
    }

    /// A snapshot of the reactor's activity counters.
    pub fn stats(&self) -> ReactorStats {
        self.shared.stats.snapshot()
    }

    fn submit(&self, cmd: Cmd) {
        self.shared.post(cmd);
    }
}

impl Transport for ReactorTransport {
    fn local_id(&self) -> PartyId {
        self.shared.id
    }

    fn send(&self, to: PartyId, payload: Bytes) -> Result<(), TransportError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(TransportError::PayloadTooLarge {
                size: payload.len(),
            });
        }
        if !self.shared.peers.lock().contains_key(&to) {
            return Err(TransportError::UnknownParty(to));
        }
        let mut gate = self.shared.gate.lock();
        loop {
            if self.shared.shutdown.load(Ordering::Acquire) {
                return Err(TransportError::Disconnected);
            }
            if let Some(error) = gate.failed.remove(&to) {
                // One-shot latch: this send reports the failure; the next
                // one starts a fresh connect window.
                return Err(error);
            }
            if gate.queued.get(&to).copied().unwrap_or(0) < HIGH_WATER {
                break;
            }
            gate = self.shared.gate_cv.wait(gate);
        }
        *gate.queued.entry(to).or_insert(0) += payload.len();
        drop(gate);
        self.submit(Cmd::Send { to, payload });
        Ok(())
    }

    fn send_liveness(&self, to: PartyId, payload: Bytes) -> Result<(), TransportError> {
        if payload.len() > MAX_PAYLOAD {
            return Err(TransportError::PayloadTooLarge {
                size: payload.len(),
            });
        }
        if !self.shared.peers.lock().contains_key(&to) {
            return Err(TransportError::UnknownParty(to));
        }
        if self.shared.shutdown.load(Ordering::Acquire) {
            return Err(TransportError::Disconnected);
        }
        let mut gate = self.shared.gate.lock();
        if let Some(error) = gate.failed.remove(&to) {
            // Report the failure (the liveness layer counts these) but
            // keep probing: this beat starts a fresh short-window connect
            // in the background, so a peer that comes up late is found.
            *gate.queued.entry(to).or_insert(0) += payload.len();
            drop(gate);
            self.submit(Cmd::Liveness { to, payload });
            return Err(error);
        }
        if gate.queued.get(&to).copied().unwrap_or(0) >= HIGH_WATER {
            // The link is saturated with real traffic — the beat is
            // redundant and must not block.
            return Ok(());
        }
        *gate.queued.entry(to).or_insert(0) += payload.len();
        drop(gate);
        self.submit(Cmd::Liveness { to, payload });
        Ok(())
    }

    fn recv(&self) -> Result<(PartyId, Bytes), TransportError> {
        let delivery = {
            let inbox = self.inbox.lock();
            inbox.recv()
        };
        match delivery {
            Ok(d) => pop_delivery(d),
            Err(_) => Err(TransportError::Disconnected),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(PartyId, Bytes), TransportError> {
        let delivery = {
            let inbox = self.inbox.lock();
            inbox.recv_timeout(timeout)
        };
        match delivery {
            Ok(d) => pop_delivery(d),
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected),
        }
    }
}

impl Drop for ReactorTransport {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        let _ = self.shared.cmd_tx.send(Cmd::Shutdown);
        self.shared.waker.wake();
        self.shared.gate_cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for ReactorTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReactorTransport")
            .field("id", &self.shared.id)
            .field("addr", &self.shared.local_addr)
            .field("backend", &self.shared.backend.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WAIT: Duration = Duration::from_secs(10);

    fn pair() -> (ReactorTransport, ReactorTransport) {
        let a = ReactorTransport::bind(PartyId(1)).expect("bind a");
        let b = ReactorTransport::bind(PartyId(2)).expect("bind b");
        a.register_peer(PartyId(2), b.local_addr());
        b.register_peer(PartyId(1), a.local_addr());
        (a, b)
    }

    // -- state-machine torture tests (satellite: partial reads/writes) --

    /// A wire stream: ident preamble + two frames.
    fn wire_bytes(id: u64, frames: &[&[u8]]) -> Vec<u8> {
        let mut out = id.to_le_bytes().to_vec();
        for f in frames {
            out.extend_from_slice(&(f.len() as u32).to_le_bytes());
            out.extend_from_slice(f);
        }
        out
    }

    #[test]
    fn read_machine_parses_frames_delivered_one_byte_at_a_time() {
        let payloads: [&[u8]; 3] = [b"hello", b"", b"a longer frame payload with some bytes"];
        let stream = wire_bytes(42, &payloads);
        let mut rm = ReadMachine::new();
        let mut events = Vec::new();
        for byte in &stream {
            rm.feed(std::slice::from_ref(byte), &mut events)
                .expect("no violation");
        }
        assert_eq!(events.len(), 1 + payloads.len());
        assert_eq!(events[0], ReadEvent::Identified(PartyId(42)));
        for (i, p) in payloads.iter().enumerate() {
            assert_eq!(events[1 + i], ReadEvent::Frame(Bytes::copy_from_slice(p)));
        }
        assert!(!rm.is_dead());
    }

    #[test]
    fn read_machine_parses_identically_at_every_granularity() {
        let payloads: [&[u8]; 2] = [&[7u8; 1000], &[9u8; 13]];
        let stream = wire_bytes(5, &payloads);
        let mut whole = Vec::new();
        let mut rm = ReadMachine::new();
        rm.feed(&stream, &mut whole).expect("whole feed");
        for chunk in [2usize, 3, 7, 64] {
            let mut events = Vec::new();
            let mut rm = ReadMachine::new();
            for piece in stream.chunks(chunk) {
                rm.feed(piece, &mut events).expect("chunked feed");
            }
            assert_eq!(events, whole, "chunk size {chunk} diverged");
        }
    }

    #[test]
    fn read_machine_rejects_oversize_claim_without_buffering_it() {
        let mut stream = 9u64.to_le_bytes().to_vec();
        // Claim just over the limit; the machine must die on the length
        // prefix alone, before any payload byte exists.
        stream.extend_from_slice(&((MAX_PAYLOAD as u32) + 1).to_le_bytes());
        let mut rm = ReadMachine::new();
        let mut events = Vec::new();
        let err = rm.feed(&stream, &mut events).expect_err("oversize");
        assert_eq!(err.claimed, MAX_PAYLOAD + 1);
        assert!(rm.is_dead());
        assert_eq!(events, vec![ReadEvent::Identified(PartyId(9))]);
        // Dead machines swallow further input without parsing.
        rm.feed(b"garbage", &mut events)
            .expect("dead feed is inert");
        assert_eq!(events.len(), 1);
    }

    /// A writer that accepts at most one byte per call and interleaves
    /// `WouldBlock` between accepts — the worst-case socket.
    struct TrickleWriter {
        out: Vec<u8>,
        block_next: bool,
    }

    impl Write for TrickleWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if self.block_next {
                self.block_next = false;
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "trickle"));
            }
            self.block_next = true;
            for buf in bufs {
                if let Some(&byte) = buf.first() {
                    self.out.push(byte);
                    return Ok(1);
                }
            }
            Ok(0)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_machine_survives_one_byte_writes_with_wouldblock() {
        let mut wm = WriteMachine::new();
        wm.enqueue_ident(PartyId(3));
        wm.enqueue_frame(Bytes::copy_from_slice(b"abc"));
        wm.enqueue_frame(Bytes::new());
        wm.enqueue_frame(Bytes::copy_from_slice(&[0xAB; 100]));
        let expected = {
            let mut v = wire_bytes(3, &[b"abc"]);
            v.extend_from_slice(&wire_bytes(0, &[b"", &[0xAB; 100]])[8..]);
            v
        };
        let mut w = TrickleWriter {
            out: Vec::new(),
            block_next: false,
        };
        let mut total = FlushReport::default();
        let mut spins = 0;
        while !wm.is_empty() {
            let report = wm.flush(&mut w).expect("flush");
            total.completed_payload += report.completed_payload;
            total.frames += report.frames;
            total.writev_calls += report.writev_calls;
            spins += 1;
            assert!(spins < 10_000, "flush failed to make progress");
        }
        assert_eq!(w.out, expected);
        assert_eq!(total.frames, 3);
        assert_eq!(total.completed_payload, 3 + 100);
        assert!(total.writev_calls >= expected.len() as u64);
        assert_eq!(wm.queued_bytes(), 0);
    }

    /// A writer that accepts everything; checks coalescing counts.
    struct SinkWriter {
        out: Vec<u8>,
        calls: u64,
    }

    impl Write for SinkWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            let mut n = 0;
            for buf in bufs {
                self.out.extend_from_slice(buf);
                n += buf.len();
            }
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_machine_coalesces_queued_frames_into_one_writev() {
        let mut wm = WriteMachine::new();
        wm.enqueue_ident(PartyId(8));
        for i in 0..10u8 {
            wm.enqueue_frame(Bytes::copy_from_slice(&[i; 32]));
        }
        let mut w = SinkWriter {
            out: Vec::new(),
            calls: 0,
        };
        let report = wm.flush(&mut w).expect("flush");
        assert!(report.drained);
        assert_eq!(report.frames, 10);
        // 21 slices (1 ident + 10 × (prefix, payload)) fit one batch.
        assert_eq!(report.writev_calls, 1);
        assert_eq!(w.calls, 1);
        let mut expected = 8u64.to_le_bytes().to_vec();
        for i in 0..10u8 {
            expected.extend_from_slice(&32u32.to_le_bytes());
            expected.extend_from_slice(&[i; 32]);
        }
        assert_eq!(w.out, expected);
    }

    // -- end-to-end reactor tests --

    #[test]
    fn frames_roundtrip_between_reactor_endpoints() {
        let (a, b) = pair();
        a.send(PartyId(2), Bytes::copy_from_slice(b"one"))
            .expect("send one");
        a.send(PartyId(2), Bytes::copy_from_slice(b"two"))
            .expect("send two");
        b.send(PartyId(1), Bytes::copy_from_slice(b"reply"))
            .expect("send reply");
        let (from, p1) = b.recv_timeout(WAIT).expect("recv one");
        assert_eq!((from, &p1[..]), (PartyId(1), &b"one"[..]));
        let (_, p2) = b.recv_timeout(WAIT).expect("recv two");
        assert_eq!(&p2[..], b"two");
        let (from, p3) = a.recv_timeout(WAIT).expect("recv reply");
        assert_eq!((from, &p3[..]), (PartyId(2), &b"reply"[..]));
        assert!(a.stats().connects_started >= 1);
        assert!(b.stats().accepted >= 1);
    }

    #[test]
    fn large_frames_survive_partial_writes() {
        let (a, b) = pair();
        // Big enough to overflow socket buffers and force WouldBlock on
        // the write path, exercising mid-frame restart.
        let big = vec![0x5Au8; 8 * 1024 * 1024];
        let payload = Bytes::copy_from_slice(&big);
        a.send(PartyId(2), payload).expect("send big");
        a.send(PartyId(2), Bytes::copy_from_slice(b"tail"))
            .expect("send tail");
        let (_, got) = b.recv_timeout(WAIT).expect("recv big");
        assert_eq!(got.len(), big.len());
        assert_eq!(&got[..64], &big[..64]);
        assert_eq!(&got[got.len() - 64..], &big[big.len() - 64..]);
        let (_, tail) = b.recv_timeout(WAIT).expect("recv tail");
        assert_eq!(&tail[..], b"tail");
    }

    #[test]
    fn oversize_frame_surfaces_typed_error_and_kills_connection() {
        let b = ReactorTransport::bind(PartyId(2)).expect("bind");
        let mut rogue = TcpStream::connect(b.local_addr()).expect("connect");
        rogue.write_all(&7u64.to_le_bytes()).expect("ident");
        rogue
            .write_all(&u32::MAX.to_le_bytes())
            .expect("hostile len");
        match b.recv_timeout(WAIT) {
            Err(TransportError::OversizeFrame { from, claimed }) => {
                assert_eq!(from, PartyId(7));
                assert_eq!(claimed, u32::MAX as usize);
            }
            other => panic!("expected OversizeFrame, got {other:?}"),
        }
        assert_eq!(b.stats().oversize_kills, 1);
    }

    #[test]
    fn payload_too_large_rejected_at_send() {
        let (a, _b) = pair();
        let oversized = Bytes::from(vec![0u8; MAX_PAYLOAD + 1]);
        assert_eq!(
            a.send(PartyId(2), oversized),
            Err(TransportError::PayloadTooLarge {
                size: MAX_PAYLOAD + 1
            })
        );
    }

    #[test]
    fn unknown_party_rejected_at_send() {
        let a = ReactorTransport::bind(PartyId(1)).expect("bind");
        assert_eq!(
            a.send(PartyId(99), Bytes::new()),
            Err(TransportError::UnknownParty(PartyId(99)))
        );
    }

    #[test]
    fn liveness_rides_pending_connect_instead_of_opening_new_sockets() {
        // Port 1 sits below the kernel's ephemeral range, so no parallel
        // test's `bind(":0")` can be handed it; nothing listens there.
        let dead_addr: SocketAddr = "127.0.0.1:1".parse().expect("addr");
        let mut a = ReactorTransport::bind(PartyId(1)).expect("bind");
        a.set_connect_window(Duration::from_millis(400));
        a.register_peer(PartyId(2), dead_addr);
        // First send starts the (only) connect.
        a.send(PartyId(2), Bytes::copy_from_slice(b"queued"))
            .expect("first send queues");
        // Liveness probes while the connect is pending must ride it.
        for _ in 0..10 {
            a.send_liveness(PartyId(2), Bytes::copy_from_slice(b"beat"))
                .expect("beat rides pending connect");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            a.stats().connects_started,
            1,
            "liveness must not open competing connections"
        );
        // The window expires: the failure surfaces in-band and then as a
        // typed error on the next send.
        match a.recv_timeout(WAIT) {
            Err(TransportError::PeerDown(p)) => assert_eq!(p, PartyId(2)),
            other => panic!("expected PeerDown, got {other:?}"),
        }
        let err = a
            .send(PartyId(2), Bytes::copy_from_slice(b"after"))
            .expect_err("failed connect surfaces");
        match err {
            TransportError::ConnectFailed { addr, attempts } => {
                assert_eq!(addr, dead_addr);
                assert!(attempts >= 1);
            }
            other => panic!("expected ConnectFailed, got {other:?}"),
        }
    }

    #[test]
    fn peer_socket_close_surfaces_peer_down() {
        let (a, b) = pair();
        a.send(PartyId(2), Bytes::copy_from_slice(b"hi"))
            .expect("send");
        let (_, _) = b.recv_timeout(WAIT).expect("recv");
        drop(a);
        match b.recv_timeout(WAIT) {
            Err(TransportError::PeerDown(p)) => assert_eq!(p, PartyId(1)),
            other => panic!("expected PeerDown, got {other:?}"),
        }
    }

    #[test]
    fn idle_reactor_barely_wakes() {
        let (a, b) = pair();
        a.send(PartyId(2), Bytes::copy_from_slice(b"warm"))
            .expect("send");
        let _ = b.recv_timeout(WAIT).expect("recv");
        let before = b.stats().wakeups;
        std::thread::sleep(Duration::from_millis(600));
        let after = b.stats().wakeups;
        // One idle tick plus slack — never a busy loop.
        assert!(
            after - before <= 4,
            "idle reactor woke {} times in 600ms",
            after - before
        );
    }

    #[test]
    fn forced_poll_backend_roundtrips() {
        // Constructed explicitly (not via env) so the test is race-free
        // under parallel execution.
        let a = ReactorTransport::bind_with_backend(PartyId(1), BackendKind::Poll).expect("bind a");
        let b = ReactorTransport::bind_with_backend(PartyId(2), BackendKind::Poll).expect("bind b");
        assert_eq!(a.poll_backend(), BackendKind::Poll);
        a.register_peer(PartyId(2), b.local_addr());
        b.register_peer(PartyId(1), a.local_addr());
        a.send(PartyId(2), Bytes::copy_from_slice(b"x"))
            .expect("send");
        let (_, p) = b.recv_timeout(WAIT).expect("recv");
        assert_eq!(&p[..], b"x");
    }
}
