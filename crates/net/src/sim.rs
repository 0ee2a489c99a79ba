//! Fault injection for failure testing.
//!
//! [`FaultyTransport`] decorates any [`Transport`] and deterministically
//! drops, duplicates, or delays (reorders) outgoing messages. The protocol's
//! integration tests use it to verify that SAP sessions fail *cleanly* —
//! abort with an error, never deliver a wrong result — under lossy
//! conditions.

use crate::transport::{PartyId, Transport, TransportError};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::time::Duration;

/// Fault model configuration. Probabilities are independent per message.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Probability an outgoing message is silently dropped.
    pub drop_prob: f64,
    /// Probability an outgoing message is delivered twice.
    pub duplicate_prob: f64,
    /// Probability an outgoing message is held back and sent *after* the
    /// next message (pairwise reordering).
    pub delay_prob: f64,
    /// Synchronous transit latency added to every send — models a WAN
    /// link, where a blocking send occupies the sender for the link's
    /// round-trip share. Zero (the default) adds nothing. The server
    /// throughput bench uses this to measure how much latency a
    /// multi-session runtime can overlap.
    pub send_latency: Duration,
    /// Seed for the deterministic fault stream.
    pub seed: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            delay_prob: 0.0,
            send_latency: Duration::ZERO,
            seed: 0xFA17,
        }
    }
}

impl FaultConfig {
    /// The salt conventionally used for the miner endpoint's fault stream
    /// (providers use `position + 1`).
    pub const MINER_SALT: u64 = 0x31;

    /// Derives the per-endpoint fault stream for one session role: same
    /// fault model, seed decorrelated by `salt`. Both the solo session
    /// runner and the server wrap a session's endpoints through this one
    /// helper, so a faulted session behaves identically in either.
    #[must_use]
    pub fn salted_for(&self, salt: u64) -> FaultConfig {
        FaultConfig {
            seed: self.seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            ..*self
        }
    }

    /// Checks that every probability is a number within `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Names the first probability that is NaN or out of range.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("drop_prob", self.drop_prob),
            ("duplicate_prob", self.duplicate_prob),
            ("delay_prob", self.delay_prob),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0,1], got {p}"));
            }
        }
        Ok(())
    }
}

/// A transport decorator injecting deterministic faults on the send path.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    config: FaultConfig,
    state: Mutex<FaultState>,
}

struct FaultState {
    rng: u64,
    held: VecDeque<(PartyId, Bytes)>,
    dropped: u64,
    duplicated: u64,
    delayed: u64,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps a transport with the given fault model.
    ///
    /// # Panics
    ///
    /// Panics on invalid probabilities ([`FaultConfig::validate`]);
    /// sessions check their configuration before wrapping an endpoint.
    pub fn new(inner: T, config: FaultConfig) -> Self {
        if let Err(why) = config.validate() {
            panic!("invalid fault config: {why}");
        }
        FaultyTransport {
            inner,
            config,
            state: Mutex::new(FaultState {
                rng: config.seed.max(1),
                held: VecDeque::new(),
                dropped: 0,
                duplicated: 0,
                delayed: 0,
            }),
        }
    }

    /// `(dropped, duplicated, delayed)` counters, for test assertions.
    pub fn fault_counts(&self) -> (u64, u64, u64) {
        let s = self.state.lock();
        (s.dropped, s.duplicated, s.delayed)
    }

    /// Flushes any held-back (delayed) messages.
    ///
    /// # Errors
    ///
    /// Propagates the inner transport's send errors.
    pub fn flush(&self) -> Result<(), TransportError> {
        let mut s = self.state.lock();
        while let Some((to, payload)) = s.held.pop_front() {
            self.inner.send(to, payload)?;
        }
        Ok(())
    }
}

fn next_unit(rng: &mut u64) -> f64 {
    // xorshift64*; uniform in [0, 1).
    let mut x = *rng;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *rng = x;
    (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
}

impl<T: Transport> Transport for FaultyTransport<T> {
    fn local_id(&self) -> PartyId {
        self.inner.local_id()
    }

    fn send(&self, to: PartyId, payload: Bytes) -> Result<(), TransportError> {
        if !self.config.send_latency.is_zero() {
            std::thread::sleep(self.config.send_latency);
        }
        let mut s = self.state.lock();
        // Release anything held from a previous delayed send *after* this
        // message to realize the reordering.
        let release: Vec<(PartyId, Bytes)> = s.held.drain(..).collect();

        let u = next_unit(&mut s.rng);
        if u < self.config.drop_prob {
            s.dropped += 1;
        } else if u < self.config.drop_prob + self.config.duplicate_prob {
            s.duplicated += 1;
            self.inner.send(to, payload.clone())?;
            self.inner.send(to, payload)?;
        } else if u < self.config.drop_prob + self.config.duplicate_prob + self.config.delay_prob {
            s.delayed += 1;
            s.held.push_back((to, payload));
        } else {
            self.inner.send(to, payload)?;
        }

        for (rto, rpayload) in release {
            self.inner.send(rto, rpayload)?;
        }
        Ok(())
    }

    fn recv(&self) -> Result<(PartyId, Bytes), TransportError> {
        self.inner.recv()
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(PartyId, Bytes), TransportError> {
        self.inner.recv_timeout(timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::InMemoryHub;

    fn pair() -> (
        InMemoryHub,
        crate::transport::Endpoint,
        crate::transport::Endpoint,
    ) {
        let hub = InMemoryHub::new();
        let a = hub.endpoint(PartyId(1));
        let b = hub.endpoint(PartyId(2));
        (hub, a, b)
    }

    #[test]
    fn no_faults_is_transparent() {
        let (_hub, a, b) = pair();
        let ft = FaultyTransport::new(a, FaultConfig::default());
        for i in 0..20u8 {
            ft.send(PartyId(2), Bytes::copy_from_slice(&[i])).unwrap();
        }
        for i in 0..20u8 {
            assert_eq!(b.recv().unwrap().1[0], i);
        }
        assert_eq!(ft.fault_counts(), (0, 0, 0));
    }

    #[test]
    fn drops_roughly_at_rate() {
        let (_hub, a, b) = pair();
        let ft = FaultyTransport::new(
            a,
            FaultConfig {
                drop_prob: 0.3,
                ..FaultConfig::default()
            },
        );
        let n = 2000;
        for i in 0..n {
            ft.send(
                PartyId(2),
                Bytes::copy_from_slice(&(i as u32).to_le_bytes()),
            )
            .unwrap();
        }
        let mut received = 0;
        while b.recv_timeout(Duration::from_millis(1)).is_ok() {
            received += 1;
        }
        let (dropped, _, _) = ft.fault_counts();
        assert_eq!(received + dropped as usize, n);
        let rate = dropped as f64 / n as f64;
        assert!((rate - 0.3).abs() < 0.05, "drop rate {rate}");
    }

    #[test]
    fn duplicates_deliver_twice() {
        let (_hub, a, b) = pair();
        let ft = FaultyTransport::new(
            a,
            FaultConfig {
                duplicate_prob: 1.0,
                ..FaultConfig::default()
            },
        );
        ft.send(PartyId(2), Bytes::from_static(b"x")).unwrap();
        assert!(b.recv_timeout(Duration::from_millis(50)).is_ok());
        assert!(b.recv_timeout(Duration::from_millis(50)).is_ok());
        assert_eq!(ft.fault_counts().1, 1);
    }

    #[test]
    fn delay_reorders_pairs() {
        let (_hub, a, b) = pair();
        // Delay every message: message i is released right after message
        // i+1's send processes its hold queue.
        let ft = FaultyTransport::new(
            a,
            FaultConfig {
                delay_prob: 1.0,
                ..FaultConfig::default()
            },
        );
        ft.send(PartyId(2), Bytes::from_static(b"1")).unwrap();
        ft.send(PartyId(2), Bytes::from_static(b"2")).unwrap();
        ft.flush().unwrap();
        let first = b.recv().unwrap().1;
        let second = b.recv().unwrap().1;
        assert_eq!(&first[..], b"1", "held message released by next send");
        assert_eq!(&second[..], b"2");
    }

    #[test]
    fn flush_releases_held() {
        let (_hub, a, b) = pair();
        let ft = FaultyTransport::new(
            a,
            FaultConfig {
                delay_prob: 1.0,
                ..FaultConfig::default()
            },
        );
        ft.send(PartyId(2), Bytes::from_static(b"z")).unwrap();
        assert!(b.recv_timeout(Duration::from_millis(10)).is_err());
        ft.flush().unwrap();
        assert_eq!(&b.recv().unwrap().1[..], b"z");
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn invalid_probability_panics() {
        let (_hub, a, _b) = pair();
        let _ = FaultyTransport::new(
            a,
            FaultConfig {
                drop_prob: 1.5,
                ..FaultConfig::default()
            },
        );
    }

    #[test]
    fn deterministic_fault_stream() {
        let run = |seed: u64| -> u64 {
            let (_hub, a, _b) = pair();
            let ft = FaultyTransport::new(
                a,
                FaultConfig {
                    drop_prob: 0.5,
                    seed,
                    ..FaultConfig::default()
                },
            );
            for _ in 0..100 {
                let _ = ft.send(PartyId(2), Bytes::new());
            }
            ft.fault_counts().0
        };
        assert_eq!(run(7), run(7));
    }
}
