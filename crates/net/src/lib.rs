//! Pluggable, streaming multiparty messaging for the SAP protocol.
//!
//! The PODC'07 brief runs between three roles — data providers, a
//! coordinator, and the mining service provider — and "assume\[s\] that
//! encryption is applied before data is transmitted on the network". This
//! crate supplies the communication substrate those roles run on, as a
//! layered pipeline in which every layer is swappable:
//!
//! ```text
//!   protocol actors (sap-core)          — generic over Transport + Codec
//!        │ typed messages / streams
//!   [`node`]   Node<T, C>               — typed send/recv, stream relay,
//!        │ codec-encoded bytes            session-stamped envelopes
//!   [`codec`]  Codec: wire | json       — pluggable serialization
//!        │ encoded message
//!   [`frame`]  chunked sealed frames    — bounded chunks, per-frame seal,
//!        │ sealed v4 frames (Bytes)       authenticated SessionId stamp
//!   [`mux`]    SessionMux               — many sessions, one physical mesh
//!        │ session-routed frames
//!   [`transport`] / [`tcp`] / [`sim`]   — in-memory hub, TCP, fault inject
//! ```
//!
//! * [`codec`] — the [`codec::Codec`] trait; [`codec::WireCodec`] (compact
//!   binary, default) and [`codec::JsonCodec`] (self-describing debug).
//! * [`wire`] — the binary format behind `WireCodec` (spec in the module
//!   docs).
//! * [`json`] — the JSON-ish format behind `JsonCodec`.
//! * [`frame`] — chunked streaming frames with a per-frame sealed
//!   envelope; datasets travel as row-block streams, never one giant
//!   allocation.
//! * [`crypto`] — per-direction channel keys and the envelope's error
//!   type. **Not real cryptography**, and neither is the frame envelope;
//!   they model the interface.
//! * [`transport`] — the [`transport::Transport`] trait and the in-memory
//!   hub implementation over channels, one endpoint per party.
//! * [`tcp`] — a real TCP backend with the same contract: blocking
//!   thread-per-connection ([`tcp::TcpTransport`]) kept as the
//!   equivalence reference, fronted by [`tcp::TcpLane`] which defaults to
//!   the reactor.
//! * [`reactor`] — the readiness-driven TCP backend: one reactor thread
//!   multiplexing every lane over the vendored epoll/poll shim, pooled
//!   frame buffers, and coalesced vectored writes.
//! * [`mux`] — [`mux::SessionMux`]: demultiplexes one physical endpoint
//!   into per-session virtual endpoints (bounded queues, unknown-session
//!   shedding), keyed by the v4 envelope's authenticated session stamp.
//! * [`sim`] — a fault-injecting transport decorator (drops, duplicates,
//!   reordering, link latency) for failure-injection tests and benches.
//! * [`node`] — typed convenience layer: send/receive codec values over
//!   sealed frames, plus zero-decode stream relays.

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod codec;
pub mod crypto;
pub mod frame;
pub mod json;
pub mod mux;
pub mod node;
pub mod pool;
pub mod reactor;
pub mod sim;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use codec::{AutoCodec, Codec, CodecError, JsonCodec, WireCodec};
pub use mux::{MuxEndpoint, MuxMetrics, SessionMux};
pub use node::{Node, NodeEvent, NodeFlow, StreamHandle};
pub use reactor::{ReactorStats, ReactorTransport};
pub use tcp::{Backend, TcpLane, TcpTransport};
pub use transport::{InMemoryHub, PartyId, SessionId, Transport, TransportError};
