//! Protocol-level errors.

use sap_net::node::NodeError;
use sap_net::PartyId;
use sap_privacy::optimize::OptimizeError;
use std::fmt;
use std::time::Duration;

/// Failures of a SAP session.
#[derive(Debug)]
pub enum SapError {
    /// A role timed out waiting for a message — a party crashed silently
    /// or the network lost the message for good. When the transport can
    /// *name* the dead party, sessions fail with the faster, more precise
    /// [`SapError::PeerFailure`] instead.
    Timeout {
        /// The role that was waiting.
        waiting: PartyId,
        /// Human-readable phase description.
        phase: &'static str,
    },
    /// A peer of this session was detected dead (socket closed, process
    /// gone, or heartbeats stopped) while a role was waiting on it — the
    /// typed fast-failure the liveness layer converts hang-forever bugs
    /// into. Detected in O(heartbeat budget), not O(session timeout).
    PeerFailure {
        /// The dead party.
        party: PartyId,
        /// The protocol phase the observing role was in.
        phase: &'static str,
    },
    /// The role was cancelled cooperatively because a sibling role of the
    /// same session already failed (or the owner aborted) — a *cascade*
    /// error, never the root cause. Harvest reports the first
    /// non-cascade error of the session in role order.
    Cancelled {
        /// The protocol phase the cancelled role was in.
        phase: &'static str,
    },
    /// The session-wide wall-clock budget
    /// ([`crate::session::SapConfig::session_budget`]) ran out — the
    /// cooperative replacement for being reclaimed by a server's
    /// age-based GC sweep minutes later.
    DeadlineExceeded {
        /// The protocol phase that exhausted the budget.
        phase: &'static str,
    },
    /// The messaging layer failed (transport, crypto, or wire format).
    Messaging(NodeError),
    /// A protocol invariant was violated (unexpected message, wrong
    /// dimensionality, duplicate slot, …).
    Protocol(String),
    /// A party thread panicked.
    PartyPanicked(PartyId),
    /// The session was configured with too few providers (SAP needs ≥ 3:
    /// with 2, the only non-coordinator receiver identifies every source).
    TooFewProviders {
        /// Providers supplied.
        got: usize,
    },
    /// Provider datasets disagree on dimensionality or class count.
    InconsistentInputs(String),
    /// The session configuration cannot be run (zero `block_rows`, a
    /// fault probability outside `[0, 1]`), caught before any role or
    /// route exists ([`crate::session::SapConfig::validate`]).
    InvalidConfig(String),
    /// The session's optimizer configuration is malformed (zero
    /// candidates, empty dataset). A typed error instead of a panic so a
    /// bad client config fails *its* session instead of killing a
    /// server-side role thread.
    Optimizer(OptimizeError),
    /// The session was aborted by its owner (server shutdown, GC of an
    /// overdue session, or an explicit
    /// [`crate::runtime::SessionHandle::abort`]).
    Aborted,
    /// Deadline-aware admission shed the session while it was still
    /// queued: its remaining [`crate::session::SapConfig::session_budget`]
    /// provably could not cover even the fastest gang service time the
    /// pool has observed, so running it would only burn a gang slot on a
    /// guaranteed [`SapError::DeadlineExceeded`]. No role ever ran.
    AdmissionShed {
        /// Time the session spent queued before being shed.
        waited: Duration,
        /// Deadline budget remaining at shed time (zero when expired).
        remaining: Duration,
        /// The optimistic service bound the budget could not cover.
        floor: Duration,
    },
    /// The session's role gang does not fit the worker pool — a sizing
    /// error caught at spawn, before any role runs.
    Capacity {
        /// Workers the session needs (one per role).
        needed: usize,
        /// Workers the pool has in total.
        available: usize,
    },
}

impl fmt::Display for SapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SapError::Timeout { waiting, phase } => {
                write!(f, "{waiting} timed out during {phase}")
            }
            SapError::PeerFailure { party, phase } => {
                write!(f, "{party} failed during {phase}")
            }
            SapError::Cancelled { phase } => {
                write!(
                    f,
                    "role cancelled during {phase} (sibling failed or owner aborted)"
                )
            }
            SapError::DeadlineExceeded { phase } => {
                write!(f, "session budget exhausted during {phase}")
            }
            SapError::Messaging(e) => write!(f, "messaging failure: {e}"),
            SapError::Protocol(what) => write!(f, "protocol violation: {what}"),
            SapError::PartyPanicked(p) => write!(f, "{p} panicked"),
            SapError::TooFewProviders { got } => {
                write!(f, "SAP needs at least 3 providers, got {got}")
            }
            SapError::InconsistentInputs(what) => write!(f, "inconsistent inputs: {what}"),
            SapError::InvalidConfig(what) => write!(f, "invalid session configuration: {what}"),
            SapError::Optimizer(e) => write!(f, "optimizer rejected the configuration: {e}"),
            SapError::Aborted => write!(f, "session aborted by its owner"),
            SapError::AdmissionShed {
                waited,
                remaining,
                floor,
            } => {
                write!(
                    f,
                    "session shed at admission after queueing {waited:?}: \
                     {remaining:?} budget left vs {floor:?} observed service floor"
                )
            }
            SapError::Capacity { needed, available } => {
                write!(
                    f,
                    "session needs {needed} workers but the pool has {available}"
                )
            }
        }
    }
}

impl std::error::Error for SapError {}

impl From<OptimizeError> for SapError {
    fn from(e: OptimizeError) -> Self {
        SapError::Optimizer(e)
    }
}

impl From<NodeError> for SapError {
    fn from(e: NodeError) -> Self {
        match e {
            // Framing violations (duplicate/reordered/orphan frames) are
            // protocol violations: SAP has no retransmission and must
            // abort loudly rather than guess.
            NodeError::Frame(frame) => SapError::Protocol(format!("framing violation: {frame}")),
            other => SapError::Messaging(other),
        }
    }
}

impl SapError {
    // `or_timeout` (the old per-call-site starvation rewriter) is gone:
    // every blocking role receive now goes through the governed path
    // (`crate::link::recv_message_ctx` / `recv_flow_ctx`), which owns the
    // Timeout/PeerDown conversions *and* the roster filtering a bare
    // rewriter could not apply.

    /// Whether this error is a *cascade* — a consequence of another
    /// role's failure rather than a root cause. Harvest skips cascades
    /// when picking the error to report for a failed session.
    #[must_use]
    pub fn is_cascade(&self) -> bool {
        matches!(self, SapError::Cancelled { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let errs: Vec<SapError> = vec![
            SapError::Timeout {
                waiting: PartyId(3),
                phase: "adaptor collection",
            },
            SapError::Protocol("duplicate slot".into()),
            SapError::PartyPanicked(PartyId(1)),
            SapError::TooFewProviders { got: 2 },
            SapError::InconsistentInputs("dim 3 vs 4".into()),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
        }
        assert!(SapError::TooFewProviders { got: 2 }
            .to_string()
            .contains("at least 3"));
    }
}
