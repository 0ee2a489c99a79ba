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
//!   [`node`]   Node<T>                  — typed send/recv; blocks sealed
//!        │ wire-encoded bytes             once, forwarded unopened
//!   [`wire`]   varint binary format     — the one serialization
//!        │ encoded message
//!   [`frame`]  chunked sealed frames    — bounded chunks, one layout:
//!        │ sealed v5 frames (Bytes)       hop header per hop, payload
//!        │                                sealed once, SessionId stamp
//!   [`mux`]    SessionMux               — many sessions, one physical mesh
//!        │ session-routed frames
//!   [`transport`] / [`reactor`] / [`sim`] — in-memory hub, TCP, fault inject
//! ```
//!
//! Beside the layers: [`crypto`] holds the hop and data keys (**not real
//! cryptography**, and neither is the frame envelope: they model the
//! interface), [`pool`] the reused frame buffers, and [`tcp`] the
//! localhost mesh builder and the trust model of its lanes. Each module's
//! docs say the rest.

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
