//! Localhost TCP meshes, and the trust model of the TCP lanes.
//!
//! [`local_mesh`] binds one [`ReactorTransport`] per party on an
//! ephemeral localhost port and registers every peer's address with
//! every endpoint — the TCP analogue of registering every party on an
//! [`crate::transport::InMemoryHub`]. The byte protocol on the sockets is
//! specified with the reactor ([`crate::reactor`]).
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

use crate::reactor::ReactorTransport;
use crate::transport::{PartyId, Transport};
use std::net::SocketAddr;

/// Builds a fully meshed set of TCP endpoints on localhost, one per party,
/// with every peer address pre-registered.
///
/// # Errors
///
/// Propagates socket errors.
pub fn local_mesh(ids: &[PartyId]) -> std::io::Result<Vec<ReactorTransport>> {
    let lanes: Vec<ReactorTransport> = ids
        .iter()
        .map(|&id| ReactorTransport::bind(id))
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
    use crate::transport::TransportError;
    use bytes::Bytes;
    use std::time::{Duration, Instant};

    fn pair() -> (ReactorTransport, ReactorTransport) {
        let mut it = local_mesh(&[PartyId(1), PartyId(2)]).unwrap().into_iter();
        (it.next().unwrap(), it.next().unwrap())
    }

    #[test]
    fn tcp_fifo_per_sender() {
        let (a, b) = pair();
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
        let (a, b) = pair();
        let big: Vec<u8> = (0..1_000_000usize).map(|i| (i % 251) as u8).collect();
        a.send(PartyId(2), Bytes::from(big.clone())).unwrap();
        b.send(PartyId(1), Bytes::from_static(b"ack")).unwrap();
        let (from, got) = b.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(from, PartyId(1));
        assert_eq!(&got[..], &big[..]);
        let (from, ack) = a.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((from, &ack[..]), (PartyId(2), &b"ack"[..]));
    }

    #[test]
    fn timeout_when_silent() {
        let t = ReactorTransport::bind(PartyId(1)).unwrap();
        assert_eq!(
            t.recv_timeout(Duration::from_millis(20)).unwrap_err(),
            TransportError::Timeout
        );
    }

    #[test]
    fn unreachable_peer_fails_with_typed_connect_error() {
        // Port 1 sits below the kernel's ephemeral range, so no parallel
        // test's `bind(":0")` can be handed it; nothing listens there.
        let dead_addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let mut t = ReactorTransport::bind(PartyId(1)).unwrap();
        t.set_connect_window(Duration::from_millis(120));
        t.register_peer(PartyId(2), dead_addr);
        let start = Instant::now();
        // Sends are asynchronous: the first one queues behind the connect.
        t.send(PartyId(2), Bytes::from_static(b"x")).unwrap();
        // When the window closes the failure arrives in-band, and the next
        // send reports it typed.
        assert_eq!(
            t.recv_timeout(Duration::from_secs(5)).unwrap_err(),
            TransportError::PeerDown(PartyId(2))
        );
        assert!(
            start.elapsed() >= Duration::from_millis(100),
            "the whole window was used"
        );
        let err = t.send(PartyId(2), Bytes::from_static(b"x")).unwrap_err();
        let TransportError::ConnectFailed { addr, attempts } = err else {
            panic!("expected ConnectFailed, got {err}");
        };
        assert_eq!(addr, dead_addr);
        // Exponential backoff: a 120 ms window at 2/4/8/… ms sleeps makes
        // several attempts.
        assert!(attempts >= 2, "backoff retried ({attempts} attempts)");
    }
}
