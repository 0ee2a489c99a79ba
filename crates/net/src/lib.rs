//! Pluggable, streaming multiparty messaging for the SAP protocol.
//!
//! The PODC'07 brief runs between three roles — data providers, a
//! coordinator, and the mining service provider — and "assume\[s\] that
//! encryption is applied before data is transmitted on the network". This
//! crate supplies the communication substrate those roles run on, as a
//! layered pipeline with one implementation per layer (plus the
//! in-memory hub and the fault injector as alternative transports):
//!
//! ```text
//!   protocol actors (sap-core)          — generic over Transport
//!        │ typed messages / streams
//!   [`node`]   Node<T>                  — typed send/recv, stream relay,
//!        │ wire-encoded bytes             session-stamped envelopes
//!   [`wire`]   varint binary format     — the one serialization
//!        │ encoded message
//!   [`frame`]  chunked sealed frames    — bounded chunks, per-frame seal,
//!        │ sealed v4 frames (Bytes)       authenticated SessionId stamp
//!   [`mux`]    SessionMux               — many sessions, one physical mesh
//!        │ session-routed frames
//!   [`transport`] / [`reactor`] / [`sim`] — in-memory hub, TCP, fault inject
//! ```
//!
//! * [`wire`] — the compact varint binary format every message travels
//!   in (spec in the module docs).
//! * [`frame`] — chunked streaming frames with a per-frame sealed
//!   envelope; datasets travel as row-block streams, never one giant
//!   allocation.
//! * [`crypto`] — per-direction channel keys and the envelope's error
//!   type. **Not real cryptography**, and neither is the frame envelope;
//!   they model the interface.
//! * [`transport`] — the [`transport::Transport`] trait, the
//!   [`transport::Sink`] a [`transport::Physical`] endpoint hands every
//!   arrival to, and the in-memory hub.
//! * [`reactor`] — the TCP transport, with the same contract as the hub:
//!   one reactor thread multiplexing every lane over the vendored
//!   `epoll(7)` shim, pooled frame buffers, and coalesced vectored writes.
//! * [`tcp`] — [`tcp::local_mesh`] (a fully meshed set of localhost
//!   reactor endpoints) and the trust model of the TCP lanes.
//! * [`mux`] — [`mux::SessionMux`]: routes one physical endpoint's frames
//!   into per-session bounded queues on the receiving thread, keyed by
//!   the v4 envelope's authenticated session stamp; no thread of its own.
//! * [`sim`] — a fault-injecting transport decorator (drops, duplicates,
//!   reordering, link latency) for failure-injection tests and benches.
//! * [`node`] — typed convenience layer: send/receive wire values over
//!   sealed frames, plus zero-decode stream relays.

#![deny(missing_docs)]
#![deny(unsafe_code)]

/// Declares a public snapshot struct of `u64` counters and the private
/// struct of atomic cells it is read from (`$cells::snapshot`).
macro_rules! counters {
    ($(#[$meta:meta])* pub struct $name:ident, cells $cells:ident {
        $($(#[$doc:meta])* pub $field:ident: u64,)*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name { $($(#[$doc])* pub $field: u64,)* }

        #[derive(Default)]
        struct $cells { $($field: std::sync::atomic::AtomicU64,)* }

        impl $cells {
            fn snapshot(&self) -> $name {
                use std::sync::atomic::Ordering::Relaxed;
                $name { $($field: self.$field.load(Relaxed),)* }
            }
        }
    };
}

pub mod crypto;
pub mod frame;
pub mod mux;
pub mod node;
pub mod pool;
pub mod reactor;
pub mod sim;
pub mod tcp;
pub mod transport;
pub mod wire;

pub use mux::{MuxEndpoint, MuxMetrics, SessionMux};
pub use node::{Node, NodeFlow, StreamHandle};
pub use reactor::{ReactorStats, ReactorTransport};
pub use transport::{InMemoryHub, PartyId, SessionId, Transport, TransportError};
