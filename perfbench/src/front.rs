//! The one face the load generators see of whatever serves sessions: a
//! single `SapServer` (either mesh) or a `Fleet`. Only public calls —
//! the benchmark adds nothing inside the program.

use sap_core::session::{SapConfig, SapOutcome};
use sap_core::SessionStatus;
use sap_datasets::Dataset;
use sap_fleet::Fleet;
use sap_net::{SessionId, Transport};
use sap_server::SapServer;
use std::time::{Duration, Instant};

/// Pause between two sweeps over the outstanding sessions' statuses:
/// the resolution of every session latency measured by polling (the
/// shortest sessions take 8 ms). Shorter pauses buy nothing but CPU
/// time that `cpu_ms_per_session` would then charge to the service.
const POLL_PAUSE: Duration = Duration::from_micros(500);

/// Longest a harvest may block before the session counts as failed.
const WAIT_LIMIT: Duration = Duration::from_secs(120);

/// The front's own counters, flattened to what the per-layer table
/// reports. A front without a counter (the fleet exposes no per-node
/// server metrics) leaves it zero.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    pub bytes_sealed: f64,
    pub frames_routed: f64,
    pub shed_frames: f64,
    pub unknown_session_dropped: f64,
    pub gangs_promoted: f64,
    pub task_steals: f64,
    pub sessions_rejected: f64,
    pub sessions_shed: f64,
    pub sessions_failed: f64,
    /// Per QoS class (interactive, batch), from the server's histograms.
    pub queue_wait_p50_s: [f64; 2],
    pub service_p50_s: [f64; 2],
    /// Service time summed over every accounted session.
    pub service_total_s: f64,
    pub registrations_forwarded: f64,
    pub frames_forwarded: f64,
}

/// What a load generator needs from a session service.
pub trait Front {
    fn submit(&self, locals: Vec<Dataset>, config: &SapConfig) -> Result<SessionId, String>;

    /// Blocks until one of `ids` (oldest first) has finished or `until`
    /// passes, and returns its position. A front that cannot tell
    /// without blocking names the oldest at once; [`Front::wait`] then
    /// does the blocking.
    fn next_finished(&self, ids: &[SessionId], until: Option<Instant>) -> Option<usize>;

    /// Harvests a session's outcome (once).
    fn wait(&self, id: SessionId) -> Result<SapOutcome, String>;

    fn counters(&self) -> Counters;
}

impl<T: Transport + 'static> Front for SapServer<T> {
    fn submit(&self, locals: Vec<Dataset>, config: &SapConfig) -> Result<SessionId, String> {
        SapServer::submit(self, locals, config).map_err(|e| e.to_string())
    }

    fn next_finished(&self, ids: &[SessionId], until: Option<Instant>) -> Option<usize> {
        loop {
            // An id the server no longer knows has an answer too (an
            // error): hand it to `wait`, which reports it.
            let done = ids
                .iter()
                .position(|&id| !matches!(self.poll(id), Ok(SessionStatus::Running { .. })));
            if done.is_some() {
                return done;
            }
            let pause = match until {
                None => POLL_PAUSE,
                Some(t) => match t.checked_duration_since(Instant::now()) {
                    None => return None,
                    Some(left) => left.min(POLL_PAUSE),
                },
            };
            std::thread::sleep(pause);
        }
    }

    fn wait(&self, id: SessionId) -> Result<SapOutcome, String> {
        SapServer::wait(self, id, Some(WAIT_LIMIT)).map_err(|e| e.to_string())
    }

    fn counters(&self) -> Counters {
        let m = self.metrics();
        let classes = [&m.latency_histogram.interactive, &m.latency_histogram.batch];
        Counters {
            bytes_sealed: m.bytes_sealed as f64,
            frames_routed: m.frames_routed as f64,
            shed_frames: m.shed_frames as f64,
            unknown_session_dropped: m.unknown_session_dropped as f64,
            gangs_promoted: m.gangs_promoted as f64,
            task_steals: m.task_steals as f64,
            sessions_rejected: m.sessions_rejected as f64,
            sessions_shed: m.sessions_shed as f64,
            sessions_failed: m.sessions_failed as f64,
            queue_wait_p50_s: classes.map(|c| c.queue_wait.p50().as_secs_f64()),
            service_p50_s: classes.map(|c| c.service.p50().as_secs_f64()),
            service_total_s: classes
                .iter()
                .map(|c| c.service.mean().as_secs_f64() * c.service.count() as f64)
                .sum(),
            ..Counters::default()
        }
    }
}

impl Front for Fleet {
    fn submit(&self, locals: Vec<Dataset>, config: &SapConfig) -> Result<SessionId, String> {
        Fleet::submit(self, locals, config).map_err(|e| e.to_string())
    }

    fn next_finished(&self, ids: &[SessionId], _until: Option<Instant>) -> Option<usize> {
        // The fleet has no status call; a fleet client waits on its
        // oldest session, so that is what gets timed.
        (!ids.is_empty()).then_some(0)
    }

    fn wait(&self, id: SessionId) -> Result<SapOutcome, String> {
        Fleet::wait(self, id, Some(WAIT_LIMIT)).map_err(|e| e.to_string())
    }

    fn counters(&self) -> Counters {
        let m = self.metrics();
        Counters {
            sessions_failed: m.sessions_failed as f64,
            registrations_forwarded: m.registrations_forwarded as f64,
            frames_forwarded: m.frames_forwarded as f64,
            ..Counters::default()
        }
    }
}
