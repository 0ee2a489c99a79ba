//! Session-wide liveness: one deadline/cancellation token per session,
//! and the roster every role filters peer-failure events against.
//!
//! Before this module, every blocking `recv_*` in the role loops had its
//! own independent [`crate::session::SapConfig::timeout`] and nothing
//! else: a hung role held its pool worker until the server's age-based GC
//! swept the session minutes later, and a role whose *sibling* had
//! already failed kept waiting out its own timeout for messages that
//! would never come. The [`Deadline`] token fixes both:
//!
//! * it carries the **session budget** — one wall-clock allowance shared
//!   by every role of the session ([`crate::session::SapConfig::session_budget`]);
//! * it is **cancelled** the moment any sibling role fails (or the owner
//!   aborts), and every blocking receive polls it on a short slice, so
//!   the whole gang unwinds cooperatively in O(poll slice), freeing its
//!   workers for the next queued session.
//!
//! The [`Roster`] names the parties of one session. When a shared
//! transport reports a dead peer ([`sap_net::TransportError::PeerDown`]),
//! every session multiplexed over it hears about the death — the roster
//! is how a role decides whether the dead party is *its* problem
//! (fail with [`crate::error::SapError::PeerFailure`]) or a stranger's
//! (keep receiving).

use sap_net::PartyId;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often a blocking receive re-checks cancellation while waiting.
/// Bounds the latency of cooperative session unwind.
pub const CANCEL_POLL: Duration = Duration::from_millis(50);

struct DeadlineInner {
    expires: Option<Instant>,
    cancelled: AtomicBool,
}

/// A cloneable session-wide budget and cancellation token.
///
/// All clones observe the same state; cancelling any clone cancels the
/// session for every role polling it.
#[derive(Clone)]
pub struct Deadline {
    inner: Arc<DeadlineInner>,
}

impl Deadline {
    /// A deadline `budget` from now.
    pub fn after(budget: Duration) -> Self {
        Deadline {
            inner: Arc::new(DeadlineInner {
                expires: Instant::now().checked_add(budget),
                cancelled: AtomicBool::new(false),
            }),
        }
    }

    /// A token with no time budget — it only ever trips via
    /// [`Deadline::cancel`]. The default for standalone role drivers and
    /// tests.
    pub fn unbounded() -> Self {
        Deadline {
            inner: Arc::new(DeadlineInner {
                expires: None,
                cancelled: AtomicBool::new(false),
            }),
        }
    }

    /// Cancels the session: every blocking receive observing this token
    /// returns [`crate::error::SapError::Cancelled`] within one
    /// [`CANCEL_POLL`] slice. Idempotent.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// Whether the token was cancelled.
    pub fn is_cancelled(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// Time left in the session budget: `None` for an unbounded token,
    /// `Some(Duration::ZERO)` once expired.
    pub fn remaining(&self) -> Option<Duration> {
        self.inner
            .expires
            .map(|e| e.saturating_duration_since(Instant::now()))
    }
}

impl std::fmt::Debug for Deadline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Deadline")
            .field("remaining", &self.remaining())
            .field("cancelled", &self.is_cancelled())
            .finish()
    }
}

/// The parties of one session: every provider (coordinator last, the
/// brief's `DP_k` convention) plus the miner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Roster {
    /// Provider ids in position order; the last doubles as coordinator.
    pub providers: Vec<PartyId>,
    /// The mining service provider.
    pub miner: PartyId,
}

impl Roster {
    /// Builds a roster. `providers` must list the coordinator last.
    pub fn new(providers: Vec<PartyId>, miner: PartyId) -> Self {
        Roster { providers, miner }
    }

    /// Number of providers `k`.
    pub fn k(&self) -> usize {
        self.providers.len()
    }

    /// The coordinator (the last provider).
    ///
    /// # Panics
    ///
    /// Panics on an empty roster (a construction bug, not a runtime
    /// condition — sessions validate `k ≥ 3` before any roster exists).
    pub fn coordinator(&self) -> PartyId {
        *self.providers.last().expect("roster has providers")
    }

    /// Whether `party` plays any role in this session — the filter that
    /// keeps a shared-transport peer-death broadcast from aborting
    /// sessions the dead party was never part of.
    pub fn contains(&self, party: PartyId) -> bool {
        party == self.miner || self.providers.contains(&party)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_budget_counts_down() {
        let d = Deadline::after(Duration::from_millis(40));
        let left = d.remaining().unwrap();
        assert!(left > Duration::ZERO && left <= Duration::from_millis(40));
        std::thread::sleep(Duration::from_millis(60));
        assert_eq!(d.remaining(), Some(Duration::ZERO));
        assert!(!d.is_cancelled(), "expiry is not cancellation");
    }

    #[test]
    fn cancellation_is_shared_across_clones() {
        let d = Deadline::unbounded();
        let clone = d.clone();
        assert!(!clone.is_cancelled());
        assert_eq!(d.remaining(), None);
        d.cancel();
        assert!(clone.is_cancelled());
    }

    #[test]
    fn roster_membership() {
        let r = Roster::new(vec![PartyId(0), PartyId(1), PartyId(2)], PartyId(100));
        assert_eq!(r.k(), 3);
        assert_eq!(r.coordinator(), PartyId(2));
        assert!(r.contains(PartyId(0)));
        assert!(r.contains(PartyId(100)));
        assert!(!r.contains(PartyId(7)));
    }
}
