//! Localhost TCP meshes, and the trust model of the TCP lanes.
//!
//! [`local_mesh`] binds one [`ReactorTransport`] per party on an
//! ephemeral localhost port, then connects every endpoint to every
//! listener — the TCP analogue of registering every party on an
//! [`crate::transport::InMemoryHub`]. The connections are open when the
//! mesh is returned: a SAP exchange runs between parties all known before
//! it starts, so no peer binds late and no send waits for a connect. The
//! byte protocol on the sockets is specified with the reactor
//! ([`crate::reactor`]).
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
use std::io;

/// Builds a fully meshed set of TCP endpoints on localhost, one per party,
/// every outbound connection already open.
///
/// # Errors
///
/// Propagates socket errors.
pub fn local_mesh(ids: &[PartyId]) -> io::Result<Vec<ReactorTransport>> {
    // Every listener is bound before the first connect, so each blocking
    // connect completes against an already-bound backlog.
    let lanes: Vec<ReactorTransport> = ids
        .iter()
        .map(|&id| ReactorTransport::bind(id))
        .collect::<io::Result<_>>()?;
    for lane in &lanes {
        for peer in &lanes {
            // Self included: the in-memory hub allows a party to send to
            // itself (the SAP exchange plan may assign a provider as its
            // own receiver), so the TCP mesh must as well — it simply
            // loops through the local listener.
            lane.connect(peer.local_id(), peer.local_addr())?;
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
    fn dropped_peer_fails_sends_at_once() {
        let (a, b) = pair();
        drop(b);
        // The outbound connection sees the peer's close and marks it down:
        // sends fail typed instead of queueing for a peer that is gone.
        let start = Instant::now();
        let err = loop {
            match a.send(PartyId(2), Bytes::from_static(b"x")) {
                Ok(()) if start.elapsed() < Duration::from_secs(1) => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                other => break other.unwrap_err(),
            }
        };
        assert_eq!(err, TransportError::PeerDown(PartyId(2)));
        assert_eq!(
            a.send_liveness(PartyId(2), Bytes::from_static(b"beat")),
            Err(TransportError::PeerDown(PartyId(2)))
        );
        // The death also arrives in-band.
        assert_eq!(
            a.recv_timeout(Duration::from_secs(5)).unwrap_err(),
            TransportError::PeerDown(PartyId(2))
        );
    }
}
