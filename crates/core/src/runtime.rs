//! The pooled actor scheduler and the session lifecycle it drives.
//!
//! The seed runtime spawned `k + 1` dedicated OS threads per session and
//! joined them inline — fine for one session, fatal for a server running
//! hundreds (`N × (k + 2)` threads). This module replaces that with:
//!
//! * [`ActorPool`] — a **fixed** pool of worker threads that executes role
//!   tasks. Sessions submit their roles as a *gang* ([`Gang`]): the pool
//!   admits a gang only when enough workers are free to run **every** role
//!   of the session concurrently. Gang admission is what makes a fixed
//!   pool safe for blocking protocol actors — admitting half a session
//!   would park a provider on a worker waiting for a coordinator that
//!   never gets scheduled.
//! * a **QoS scheduler** in front of admission: gangs carry a
//!   [`QosClass`] and queue per class. [`QosClass::Interactive`] gangs are
//!   admitted with strict priority over [`QosClass::Batch`] ones, so one
//!   queued batch backlog never head-of-line-blocks an interactive
//!   session. Starvation is prevented by **aging**: a batch gang that has
//!   queued longer than [`SchedulerConfig::batch_aging`] is promoted into
//!   the interactive queue. **Deadline-aware admission** sheds queued
//!   gangs whose [`Deadline`] budget provably cannot cover even the
//!   fastest gang service time the pool has observed — a typed
//!   [`SapError::AdmissionShed`] instead of burning workers on a session
//!   that will die of `DeadlineExceeded` anyway.
//! * **one FIFO ready queue**: admission appends a gang's tasks to it and
//!   idle workers pop from its front under the state lock. Gang admission
//!   keeps at least as many idle workers as ready tasks, so no task ever
//!   waits behind a blocked role.
//! * [`SessionHandle`] — one session's lifecycle: spawn (via
//!   [`crate::session::spawn_session`]), [`SessionHandle::poll`],
//!   [`SessionHandle::abort`], and [`SessionHandle::harvest`]. Role
//!   results accumulate behind the handle; harvest assembles the
//!   [`SapOutcome`] exactly as the old inline join did — including
//!   preferring the first *role* error over panics, which are caught per
//!   task so a panicking role degrades one session, never a pool worker.
//!
//! The safety invariant: **committed tasks never exceed workers**, so every admitted role holds a worker
//! until it finishes and a gang can never deadlock on its own siblings.

use crate::audit::AuditLog;
use crate::error::SapError;
use crate::liveness::Deadline;
use crate::miner::MinerOutput;
use crate::session::{ProviderReport, SapOutcome};
use parking_lot::{Condvar, Mutex};
use sap_net::{PartyId, SessionId};
use sap_perturb::Perturbation;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A role task: runs one protocol actor to completion.
pub(crate) type RoleTask = Box<dyn FnOnce() + Send + 'static>;

/// Scheduling class of a session's gang. Carried on
/// [`crate::session::SapConfig::qos`] and threaded through
/// [`crate::session::spawn_session`] into the pool's per-class queues.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QosClass {
    /// Latency-sensitive: admitted with strict priority over queued batch
    /// gangs. The default — an unconfigured client is somebody waiting.
    #[default]
    Interactive,
    /// Throughput work that tolerates queueing delay. Never starved: a
    /// batch gang older than [`SchedulerConfig::batch_aging`] is promoted
    /// into the interactive queue.
    Batch,
}

impl QosClass {
    /// Queue index of the class (interactive first — admission order).
    /// Also handy for callers keeping per-class arrays.
    pub fn index(self) -> usize {
        match self {
            QosClass::Interactive => 0,
            QosClass::Batch => 1,
        }
    }
}

/// How long a batch gang may queue before aging promotes it into the
/// interactive queue (default of [`SchedulerConfig::batch_aging`]).
pub const DEFAULT_BATCH_AGING: Duration = Duration::from_secs(2);

/// Scheduler knobs of an [`ActorPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulerConfig {
    /// Age at which a queued batch gang is promoted to the interactive
    /// queue — the anti-starvation bound.
    pub batch_aging: Duration,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            batch_aging: DEFAULT_BATCH_AGING,
        }
    }
}

/// Why a queued gang was shed at admission: the budget left could not
/// cover even the pool's optimistic service bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedInfo {
    /// How long the gang had queued when it was shed.
    pub waited: Duration,
    /// Deadline budget remaining at shed time (zero when the deadline had
    /// expired or was already cancelled).
    pub remaining: Duration,
    /// The optimistic service bound the budget failed: the fastest gang
    /// service time observed by the pool (zero while unobserved — then
    /// only an expired budget sheds).
    pub floor: Duration,
}

/// A session's role tasks plus their scheduling metadata, submitted to
/// [`ActorPool::submit`] as one unit. All tasks of a gang are admitted
/// together or not at all.
pub struct Gang {
    tasks: Vec<RoleTask>,
    class: QosClass,
    deadline: Option<Deadline>,
    on_admit: Option<Box<dyn FnOnce(Duration) + Send>>,
    on_shed: Option<Box<dyn FnOnce(ShedInfo) + Send>>,
}

impl Gang {
    /// An empty gang of the given class.
    pub fn new(class: QosClass) -> Self {
        Gang {
            tasks: Vec::new(),
            class,
            deadline: None,
            on_admit: None,
            on_shed: None,
        }
    }

    /// Appends one role task.
    pub fn push(&mut self, task: impl FnOnce() + Send + 'static) {
        self.tasks.push(Box::new(task));
    }

    /// Number of role tasks in the gang.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the gang holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Attaches the session deadline admission checks against. A queued
    /// gang whose remaining budget provably cannot cover the fastest
    /// observed gang service time is shed with [`ShedInfo`] instead of
    /// admitted. Gangs without a deadline are never shed.
    pub fn set_deadline(&mut self, deadline: Deadline) {
        self.deadline = Some(deadline);
    }

    /// Installs the admission callback, invoked once when the gang is
    /// admitted, with the time it spent queued.
    pub fn set_on_admit(&mut self, hook: impl FnOnce(Duration) + Send + 'static) {
        self.on_admit = Some(Box::new(hook));
    }

    /// Installs the shed callback, invoked once if deadline-aware
    /// admission sheds the gang (its tasks then never run).
    pub fn set_on_shed(&mut self, hook: impl FnOnce(ShedInfo) + Send + 'static) {
        self.on_shed = Some(Box::new(hook));
    }
}

/// A point-in-time snapshot of the pool's scheduler counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Gangs admitted to workers since pool creation.
    pub gangs_admitted: u64,
    /// Gangs shed by deadline-aware admission (tasks never ran).
    pub gangs_shed: u64,
    /// Batch gangs promoted to the interactive queue by aging.
    pub gangs_promoted: u64,
    /// Tasks of gangs still queued for admission.
    pub queued_tasks: usize,
    /// Tasks admitted and not yet finished (ready or running).
    pub running_tasks: usize,
    /// Fastest gang service time observed — the optimistic bound
    /// deadline shedding compares budgets against.
    pub service_floor: Option<Duration>,
}

struct QueuedGang {
    gang: Gang,
    enqueued: Instant,
}

/// Per-gang completion tracker: the last finishing task records the
/// gang's service time (admission → all roles done).
struct GangCtl {
    remaining: AtomicUsize,
    admitted_at: Instant,
}

struct RunTask {
    task: RoleTask,
    gang: Arc<GangCtl>,
}

/// Scheduler bookkeeping mutated only under the pool state lock.
#[derive(Default)]
struct SchedCounters {
    admitted: u64,
    shed: u64,
    promoted: u64,
    /// Fastest observed gang service, µs; `u64::MAX` = nothing observed.
    service_floor_us: u64,
}

impl SchedCounters {
    fn new() -> Self {
        SchedCounters {
            service_floor_us: u64::MAX,
            ..SchedCounters::default()
        }
    }

    fn record_service(&mut self, service: Duration) {
        // Floor of 1µs so instantaneous test gangs cannot collapse the
        // optimistic bound to zero (which would disable floor-based
        // shedding entirely — it already only triggers with evidence).
        let us = (service.as_micros().min(u64::MAX as u128) as u64).max(1);
        self.service_floor_us = self.service_floor_us.min(us);
    }
}

struct PoolState {
    /// Admission queues, indexed by [`QosClass::index`].
    pending: [VecDeque<QueuedGang>; 2],
    /// Admitted tasks no worker has picked up yet, in admission order.
    ready: VecDeque<RunTask>,
    /// Tasks admitted but not yet finished (ready or running). The
    /// admission invariant `committed ≤ workers` guarantees every ready
    /// task an idle worker, so none waits behind a blocked gang-mate.
    committed: usize,
    sched: SchedCounters,
    shutdown: bool,
}

/// Deferred effects of an admission pass, run after the state lock is
/// released — the hooks take session and transport locks of their own.
enum PromoteEffect {
    Admit {
        hook: Box<dyn FnOnce(Duration) + Send>,
        waited: Duration,
    },
    Shed {
        hook: Option<Box<dyn FnOnce(ShedInfo) + Send>>,
        info: ShedInfo,
    },
}

fn run_effects(effects: Vec<PromoteEffect>) {
    for effect in effects {
        match effect {
            PromoteEffect::Admit { hook, waited } => hook(waited),
            PromoteEffect::Shed { hook, info } => {
                if let Some(hook) = hook {
                    hook(info);
                }
            }
        }
    }
}

struct PoolInner {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    workers: usize,
    cfg: SchedulerConfig,
}

impl PoolInner {
    /// One admission pass: ages queued batch gangs, sheds provably
    /// unmeetable ones, and admits from the class queues in strict
    /// priority order while gangs fit the free capacity. Called with the
    /// state lock held; the returned effects must be run after release.
    fn promote(&self, state: &mut PoolState) -> Vec<PromoteEffect> {
        let mut effects = Vec::new();
        let now = Instant::now();

        // Aging: the batch queue is FIFO, so its front is its oldest
        // member — promote from the front until the residue is young.
        while state.pending[1]
            .front()
            .is_some_and(|q| now.duration_since(q.enqueued) >= self.cfg.batch_aging)
        {
            match state.pending[1].pop_front() {
                Some(aged) => {
                    state.pending[0].push_back(aged);
                    state.sched.promoted += 1;
                }
                None => break,
            }
        }

        'classes: for class in 0..2 {
            loop {
                let free = self.workers - state.committed;
                let (fits, verdict) = match state.pending[class].front() {
                    None => break,
                    Some(front) => (
                        front.gang.tasks.len() <= free,
                        shed_verdict(front, now, state.sched.service_floor_us),
                    ),
                };
                // Shed before the fit check: a doomed gang should not
                // even wait for capacity.
                if let Some(info) = verdict {
                    if let Some(shed) = state.pending[class].pop_front() {
                        state.sched.shed += 1;
                        effects.push(PromoteEffect::Shed {
                            hook: shed.gang.on_shed,
                            info,
                        });
                    }
                    continue;
                }
                if !fits {
                    // Strict priority: while a higher-class gang waits for
                    // capacity, nothing from a lower class may jump it.
                    break 'classes;
                }
                let Some(admitted) = state.pending[class].pop_front() else {
                    break;
                };
                effects.extend(self.admit(state, admitted, now));
            }
        }
        effects
    }

    /// Commits one gang: appends its tasks to the ready queue and wakes
    /// sleepers. Called under the state lock.
    fn admit(
        &self,
        state: &mut PoolState,
        mut queued: QueuedGang,
        now: Instant,
    ) -> Option<PromoteEffect> {
        let n = queued.gang.tasks.len();
        state.committed += n;
        state.sched.admitted += 1;
        let ctl = Arc::new(GangCtl {
            remaining: AtomicUsize::new(n),
            admitted_at: now,
        });
        state
            .ready
            .extend(queued.gang.tasks.drain(..).map(|task| RunTask {
                task,
                gang: Arc::clone(&ctl),
            }));
        self.work_ready.notify_all();
        let waited = now.duration_since(queued.enqueued);
        queued
            .gang
            .on_admit
            .take()
            .map(|hook| PromoteEffect::Admit { hook, waited })
    }
}

/// Conservative unmeetability check: shed only when the remaining budget
/// is provably insufficient — already expired/cancelled, or smaller than
/// the *fastest* gang service time the pool has ever observed. A gang
/// with no deadline (or an unbounded one) is never shed.
fn shed_verdict(queued: &QueuedGang, now: Instant, floor_us: u64) -> Option<ShedInfo> {
    let deadline = queued.gang.deadline.as_ref()?;
    let remaining = if deadline.is_cancelled() {
        Duration::ZERO
    } else {
        deadline.remaining()?
    };
    let floor = if floor_us == u64::MAX {
        Duration::ZERO
    } else {
        Duration::from_micros(floor_us)
    };
    let unmeetable = remaining.is_zero() || (!floor.is_zero() && remaining < floor);
    unmeetable.then(|| ShedInfo {
        waited: now.duration_since(queued.enqueued),
        remaining,
        floor,
    })
}

/// A fixed-size worker pool executing session role gangs under the QoS
/// admission scheduler (see the module docs for the full discipline).
///
/// Dropping the pool asks workers to finish their current task and exit;
/// queued gangs that never started are discarded (their sessions see
/// [`SapError::Aborted`] if harvested — the tasks never ran, so the
/// session reports zero finished roles forever; abort such sessions
/// before dropping their pool).
pub struct ActorPool {
    inner: Arc<PoolInner>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

impl ActorPool {
    /// Creates a pool with `workers` threads and the default
    /// [`SchedulerConfig`].
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero.
    pub fn new(workers: usize) -> Self {
        Self::with_config(workers, SchedulerConfig::default())
    }

    /// Creates a pool with `workers` threads and an explicit scheduler
    /// configuration.
    ///
    /// # Panics
    ///
    /// Panics when `workers` is zero.
    pub fn with_config(workers: usize, cfg: SchedulerConfig) -> Self {
        assert!(workers > 0, "pool needs at least one worker");
        let inner = Arc::new(PoolInner {
            state: Mutex::new(PoolState {
                pending: [VecDeque::new(), VecDeque::new()],
                ready: VecDeque::new(),
                committed: 0,
                sched: SchedCounters::new(),
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            workers,
            cfg,
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("sap-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn pool worker")
            })
            .collect();
        ActorPool { inner, handles }
    }

    /// Number of worker threads.
    pub fn capacity(&self) -> usize {
        self.inner.workers
    }

    /// Submits a gang of role tasks. The gang starts — all members
    /// together — once enough workers are free and every queued gang of a
    /// higher or equal priority ahead of it has been admitted or shed.
    ///
    /// # Errors
    ///
    /// Returns [`SapError::Capacity`] when the gang is larger than the
    /// pool and therefore could never start, and [`SapError::Aborted`]
    /// when the pool is shutting down.
    pub fn submit(&self, gang: Gang) -> Result<(), SapError> {
        if gang.tasks.len() > self.inner.workers {
            return Err(SapError::Capacity {
                needed: gang.tasks.len(),
                available: self.inner.workers,
            });
        }
        let effects = {
            let mut state = self.inner.state.lock();
            if state.shutdown {
                return Err(SapError::Aborted);
            }
            state.pending[gang.class.index()].push_back(QueuedGang {
                gang,
                enqueued: Instant::now(),
            });
            self.inner.promote(&mut state)
        };
        run_effects(effects);
        Ok(())
    }

    /// A snapshot of the scheduler's counters and gauges.
    pub fn stats(&self) -> SchedStats {
        let state = self.inner.state.lock();
        SchedStats {
            gangs_admitted: state.sched.admitted,
            gangs_shed: state.sched.shed,
            gangs_promoted: state.sched.promoted,
            queued_tasks: state
                .pending
                .iter()
                .flatten()
                .map(|q| q.gang.tasks.len())
                .sum(),
            running_tasks: state.committed,
            service_floor: (state.sched.service_floor_us != u64::MAX)
                .then(|| Duration::from_micros(state.sched.service_floor_us)),
        }
    }
}

impl Drop for ActorPool {
    fn drop(&mut self) {
        // Discarded tasks are dropped outside the lock: releasing a TCP
        // transport touches sockets.
        let discarded = {
            let mut state = self.inner.state.lock();
            state.shutdown = true;
            self.inner.work_ready.notify_all();
            (
                std::mem::take(&mut state.pending),
                std::mem::take(&mut state.ready),
            )
        };
        drop(discarded);
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(inner: &PoolInner) {
    let mut state = inner.state.lock();
    loop {
        if state.shutdown {
            return;
        }
        let Some(run) = state.ready.pop_front() else {
            state = inner.work_ready.wait(state);
            continue;
        };
        drop(state);
        (run.task)();
        // Last finisher of the gang records its service time — the
        // sample feeding the admission shed bound.
        let service = (run.gang.remaining.fetch_sub(1, Ordering::SeqCst) == 1)
            .then(|| run.gang.admitted_at.elapsed());
        state = inner.state.lock();
        state.committed -= 1;
        if let Some(service) = service {
            state.sched.record_service(service);
        }
        if state.shutdown {
            return;
        }
        let effects = inner.promote(&mut state);
        if !effects.is_empty() {
            drop(state);
            run_effects(effects);
            state = inner.state.lock();
        }
    }
}

// ---------------------------------------------------------------------------
// Session lifecycle
// ---------------------------------------------------------------------------

/// Where a session stands, as reported by [`SessionHandle::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Roles are still queued or running.
    Running {
        /// Roles that have finished (ok or err).
        finished: usize,
        /// Total roles in the session.
        total: usize,
    },
    /// Every role finished without error; the outcome awaits harvest.
    Complete,
    /// At least one role failed; harvest returns the first error.
    Failed,
    /// The session was aborted by its owner; harvest returns
    /// [`SapError::Aborted`].
    Aborted,
    /// Deadline-aware admission shed the session before any role ran;
    /// harvest returns [`SapError::AdmissionShed`].
    Shed,
    /// The outcome (or error) was already harvested.
    Harvested,
}

/// Queue-wait and service timings of one session, as observed by the
/// pool scheduler ([`SessionHandle::timings`]). A server folds these into
/// its latency histograms.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SessionTimings {
    /// Submit → admission (time spent in a class queue). Also set for
    /// shed sessions (submit → shed).
    pub queue_wait: Option<Duration>,
    /// Admission → last role finished. `None` until the session ends
    /// (and forever for shed sessions — they never ran).
    pub service: Option<Duration>,
}

pub(crate) struct SessionCollect {
    pub(crate) reports: Vec<Option<ProviderReport>>,
    pub(crate) target: Option<Perturbation>,
    pub(crate) miner: Option<MinerOutput>,
    /// One slot per role, in role order (providers by position, then the
    /// coordinator, then the miner). Harvest reports the first error *in
    /// role order*, not in wall-time order — a failing role usually drags
    /// siblings down with `Disconnected` cascades, and role order keeps
    /// the root cause deterministic.
    pub(crate) role_errors: Vec<Option<SapError>>,
    pub(crate) finished_roles: usize,
    pub(crate) total_roles: usize,
    pub(crate) aborted: bool,
    /// Set by the scheduler's shed callback: the gang never ran.
    pub(crate) shed: Option<ShedInfo>,
    pub(crate) harvested: bool,
    /// Scheduler timings (set by the admission/shed callbacks and the
    /// last role's record).
    pub(crate) queue_wait: Option<Duration>,
    pub(crate) admitted_at: Option<Instant>,
    pub(crate) finished_at: Option<Instant>,
    /// Transports of finished roles, parked here until harvest or abort.
    /// A role returning must NOT drop its transport while siblings still
    /// run: over TCP that closes live sockets, and a peer's graceful
    /// completion would be indistinguishable from its death at the
    /// liveness layer (EOF ⇒ `PeerDown`). Real crashes still close
    /// sockets mid-protocol and are detected as before.
    pub(crate) retained: Vec<Box<dyn std::any::Any + Send>>,
}

impl SessionCollect {
    /// The error harvest reports, by root-cause strength:
    /// [`SapError::PeerFailure`] first (a detected peer death is the
    /// strongest signal — the dead peer's own role typically errors with
    /// a secondary `Disconnected` at the same instant, and which role
    /// records first is a wall-clock race), then the first non-cascade
    /// error, then cascades ([`SapError::Cancelled`] — roles unwound
    /// because a sibling already failed). Within each class, role order
    /// keeps the pick deterministic.
    fn first_error_mut(&mut self) -> Option<&mut Option<SapError>> {
        let peer_failure = self.role_errors.iter().position(|e| {
            e.as_ref()
                .is_some_and(|e| matches!(e, SapError::PeerFailure { .. }))
        });
        let root = peer_failure.or_else(|| {
            self.role_errors
                .iter()
                .position(|e| e.as_ref().is_some_and(|e| !e.is_cascade()))
        });
        match root {
            Some(i) => self.role_errors.get_mut(i),
            None => self.role_errors.iter_mut().find(|e| e.is_some()),
        }
    }
}

pub(crate) struct SessionShared {
    pub(crate) state: Mutex<SessionCollect>,
    pub(crate) progress: Condvar,
    pub(crate) session: SessionId,
    pub(crate) num_classes: usize,
    pub(crate) k: usize,
    pub(crate) audit: AuditLog,
    pub(crate) monitor: crate::stream::StreamMonitor,
    /// The session-wide budget/cancellation token every role's blocking
    /// receives observe. Cancelled the moment any role fails or the
    /// owner aborts, so siblings unwind cooperatively instead of waiting
    /// out their own timeouts.
    pub(crate) deadline: Deadline,
    /// Invoked once on abort — the owner's lever for tearing down the
    /// session's transport (e.g. closing its mux routes) so blocked roles
    /// fail fast instead of waiting out their timeouts.
    pub(crate) on_abort: Mutex<Option<Box<dyn FnOnce() + Send>>>,
}

impl SessionShared {
    pub(crate) fn record(&self, update: impl FnOnce(&mut SessionCollect)) {
        let mut state = self.state.lock();
        update(&mut state);
        state.finished_roles += 1;
        if state.finished_roles == state.total_roles {
            state.finished_at = Some(Instant::now());
        }
        self.progress.notify_all();
    }

    /// Parks a finished role's transport until harvest/abort (see
    /// [`SessionCollect::retained`]). When the session was already
    /// harvested (the final role racing a concurrent harvest), the item
    /// is simply dropped — every role is done by then.
    pub(crate) fn retain(&self, item: Box<dyn std::any::Any + Send>) {
        let mut state = self.state.lock();
        if !state.harvested {
            state.retained.push(item);
        }
    }

    /// Runs one role body, recording a panic as [`SapError::PartyPanicked`]
    /// instead of poisoning a pool worker. `role` is the gang position
    /// (providers by position, coordinator, miner last). Any failure
    /// cancels the session deadline so sibling roles stop waiting for
    /// messages that will never come.
    pub(crate) fn run_role(
        &self,
        role: usize,
        pid: PartyId,
        body: impl FnOnce() -> Result<(), SapError>,
    ) {
        match catch_unwind(AssertUnwindSafe(body)) {
            Ok(Ok(())) => {}
            Ok(Err(e)) => {
                self.deadline.cancel();
                self.record(|s| {
                    s.role_errors[role] = Some(e);
                });
            }
            Err(_) => {
                self.deadline.cancel();
                self.record(|s| {
                    s.role_errors[role] = Some(SapError::PartyPanicked(pid));
                });
            }
        }
    }
}

/// One running (or finished) session's lifecycle handle. Cloneable; all
/// clones observe the same session.
#[derive(Clone)]
pub struct SessionHandle {
    pub(crate) shared: Arc<SessionShared>,
}

impl SessionHandle {
    /// The session's id.
    pub fn session(&self) -> SessionId {
        self.shared.session
    }

    /// Installs the hook [`SessionHandle::abort`] runs once (replacing any
    /// previous hook). A server points this at its transport teardown —
    /// e.g. closing the session's mux routes so blocked roles see
    /// `Disconnected` immediately instead of waiting out their timeouts.
    pub fn set_abort_hook(&self, hook: impl FnOnce() + Send + 'static) {
        *self.shared.on_abort.lock() = Some(Box::new(hook));
    }

    /// Non-blocking status check.
    pub fn poll(&self) -> SessionStatus {
        let state = self.shared.state.lock();
        if state.harvested {
            SessionStatus::Harvested
        } else if state.shed.is_some() {
            SessionStatus::Shed
        } else if state.aborted {
            SessionStatus::Aborted
        } else if state.finished_roles < state.total_roles {
            SessionStatus::Running {
                finished: state.finished_roles,
                total: state.total_roles,
            }
        } else if state.role_errors.iter().any(Option::is_some) {
            SessionStatus::Failed
        } else {
            SessionStatus::Complete
        }
    }

    /// The session's scheduler timings: queue wait (submit → admission
    /// or shed) and service time (admission → last role finished).
    pub fn timings(&self) -> SessionTimings {
        let state = self.shared.state.lock();
        SessionTimings {
            queue_wait: state.queue_wait,
            service: match (state.admitted_at, state.finished_at) {
                (Some(admitted), Some(finished)) => {
                    Some(finished.saturating_duration_since(admitted))
                }
                _ => None,
            },
        }
    }

    /// Aborts the session: cancels its deadline token (so every blocking
    /// role receive unwinds within one poll slice, on any transport),
    /// runs the owner's abort hook (tearing down the session's transport
    /// routes), and marks the session so harvest reports
    /// [`SapError::Aborted`] unless it already completed.
    pub fn abort(&self) {
        self.shared.deadline.cancel();
        let hook = self.shared.on_abort.lock().take();
        let retained = {
            let mut state = self.shared.state.lock();
            if state.finished_roles < state.total_roles {
                state.aborted = true;
            }
            self.shared.progress.notify_all();
            std::mem::take(&mut state.retained)
        };
        // Dropped outside the lock: releasing a TCP transport touches
        // sockets.
        drop(retained);
        if let Some(hook) = hook {
            hook();
        }
    }

    /// Waits for every role to finish and assembles the outcome. Pass
    /// `None` to wait indefinitely.
    ///
    /// The outcome can be harvested exactly once; later calls (and calls
    /// after the deadline passes) return an error without consuming
    /// anything.
    ///
    /// # Errors
    ///
    /// * The first role error **in role order**, if any role failed.
    /// * [`SapError::AdmissionShed`] when the scheduler shed the session.
    /// * [`SapError::Aborted`] when aborted before completion.
    /// * [`SapError::Timeout`] when `timeout` elapsed first.
    /// * [`SapError::Protocol`] when already harvested.
    pub fn harvest(&self, timeout: Option<Duration>) -> Result<SapOutcome, SapError> {
        // A timeout too long to represent waits without a limit.
        let deadline = timeout.and_then(|t| Instant::now().checked_add(t));
        let mut state = self.shared.state.lock();
        while state.finished_roles < state.total_roles && !state.aborted && state.shed.is_none() {
            match deadline {
                None => {
                    state = self.shared.progress.wait(state);
                }
                Some(deadline) => {
                    if Instant::now() >= deadline {
                        return Err(SapError::Timeout {
                            waiting: PartyId(u64::MAX),
                            phase: "session harvest",
                        });
                    }
                    state = self.shared.progress.wait_until(state, deadline);
                }
            }
        }
        if state.harvested {
            return Err(SapError::Protocol("session already harvested".into()));
        }
        state.harvested = true;
        // Parked role transports are released now that the session is
        // consumed — outside the lock, since dropping a TCP transport
        // touches sockets.
        let retained = std::mem::take(&mut state.retained);
        let result = self.assemble(&mut state);
        drop(state);
        drop(retained);
        result
    }

    /// Builds the harvest verdict from a finished (or aborted/shed)
    /// session's collected state. Called exactly once, under the session
    /// lock.
    fn assemble(&self, state: &mut SessionCollect) -> Result<SapOutcome, SapError> {
        // A shed verdict precedes everything: the roles never ran, so any
        // other state is vacuous.
        if let Some(info) = state.shed {
            return Err(SapError::AdmissionShed {
                waited: info.waited,
                remaining: info.remaining,
                floor: info.floor,
            });
        }
        // The abort verdict wins over role errors: aborting tears down the
        // session's transport, so the roles' Disconnected cascades are a
        // consequence, not a cause.
        if state.aborted {
            return Err(SapError::Aborted);
        }
        if let Some(err) = state.first_error_mut().and_then(Option::take) {
            return Err(err);
        }
        // All roles finished cleanly: assemble, preferring loud failure
        // over silent partial results (these are invariants, not inputs).
        let miner_out = state
            .miner
            .take()
            .ok_or_else(|| SapError::Protocol("miner finished without output".into()))?;
        let target = state
            .target
            .take()
            .ok_or_else(|| SapError::Protocol("coordinator finished without target".into()))?;
        let mut reports = Vec::with_capacity(state.reports.len());
        for (pos, slot) in state.reports.iter_mut().enumerate() {
            reports.push(slot.take().ok_or_else(|| {
                SapError::Protocol(format!("provider {pos} finished without report"))
            })?);
        }
        let k = self.shared.k;
        Ok(SapOutcome {
            unified: miner_out.unified.with_class_count(self.shared.num_classes),
            reports,
            identifiability: 1.0 / (k - 1) as f64,
            audit: self.shared.audit.clone(),
            forwarder_of_slot: miner_out.forwarder_of_slot,
            relayed_blocks: miner_out.relayed_blocks,
            stream: self.shared.monitor.snapshot(),
            target,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn gang_of(
        n: usize,
        class: QosClass,
        counter: &Arc<AtomicUsize>,
        body: impl Fn() + Send + Sync + 'static,
    ) -> Gang {
        let body = Arc::new(body);
        let mut gang = Gang::new(class);
        for _ in 0..n {
            let c = Arc::clone(counter);
            let body = Arc::clone(&body);
            gang.push(move || {
                body();
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        gang
    }

    fn wait_for(counter: &AtomicUsize, target: usize) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while counter.load(Ordering::SeqCst) < target && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn pool_runs_tasks() {
        let pool = ActorPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        pool.submit(gang_of(2, QosClass::Interactive, &counter, || {}))
            .unwrap();
        wait_for(&counter, 2);
        assert_eq!(counter.load(Ordering::SeqCst), 2);
        assert_eq!(pool.stats().gangs_admitted, 1);
    }

    #[test]
    fn oversized_gang_is_capacity_error() {
        let pool = ActorPool::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        let gang = gang_of(3, QosClass::Interactive, &counter, || {});
        assert!(matches!(
            pool.submit(gang),
            Err(SapError::Capacity {
                needed: 3,
                available: 2
            })
        ));
    }

    #[test]
    fn gangs_are_admitted_whole_never_split() {
        // Pool of 2; a gang of 2 whose members rendezvous (each blocks
        // until the other runs). If the pool ever admitted a partial gang
        // this would deadlock; gang admission makes it finish.
        let pool = ActorPool::new(2);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let done = Arc::new(AtomicUsize::new(0));
        pool.submit(gang_of(2, QosClass::Interactive, &done, move || {
            barrier.wait();
        }))
        .unwrap();
        wait_for(&done, 2);
        assert_eq!(done.load(Ordering::SeqCst), 2, "gang must run together");
    }

    #[test]
    fn queued_gang_starts_after_running_gang_finishes() {
        let pool = ActorPool::new(2);
        let release = Arc::new(std::sync::Barrier::new(3)); // 2 workers + test
        let first_ran = Arc::new(AtomicUsize::new(0));
        let second_ran = Arc::new(AtomicUsize::new(0));

        let gate = Arc::clone(&release);
        pool.submit(gang_of(2, QosClass::Interactive, &first_ran, move || {
            gate.wait();
        }))
        .unwrap();
        pool.submit(gang_of(1, QosClass::Interactive, &second_ran, || {}))
            .unwrap();
        // While the first gang occupies both workers, the second waits.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(second_ran.load(Ordering::SeqCst), 0);
        let stats = pool.stats();
        assert_eq!(stats.queued_tasks, 1, "second gang still pending");
        assert_eq!(stats.running_tasks, 2, "first gang occupies the pool");
        release.wait();
        wait_for(&second_ran, 1);
        assert_eq!(second_ran.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn interactive_gang_jumps_queued_batch_backlog() {
        // One slot; a running gang holds it while a batch backlog and an
        // interactive gang queue behind. On release, the interactive gang
        // must be admitted before any batch gang.
        let pool = ActorPool::new(1);
        let release = Arc::new(std::sync::Barrier::new(2));
        let blocker_done = Arc::new(AtomicUsize::new(0));
        let batch_done = Arc::new(AtomicUsize::new(0));
        let interactive_done = Arc::new(AtomicUsize::new(0));

        let gate = Arc::clone(&release);
        pool.submit(gang_of(
            1,
            QosClass::Interactive,
            &blocker_done,
            move || {
                gate.wait();
            },
        ))
        .unwrap();
        let batch_done_seen = Arc::clone(&batch_done);
        let interactive = {
            let i = Arc::clone(&interactive_done);
            let mut gang = Gang::new(QosClass::Interactive);
            gang.push(move || {
                assert_eq!(
                    batch_done_seen.load(Ordering::SeqCst),
                    0,
                    "interactive ran after a batch gang"
                );
                i.fetch_add(1, Ordering::SeqCst);
            });
            gang
        };
        for _ in 0..3 {
            pool.submit(gang_of(1, QosClass::Batch, &batch_done, || {}))
                .unwrap();
        }
        pool.submit(interactive).unwrap();
        release.wait();
        wait_for(&batch_done, 3);
        assert_eq!(interactive_done.load(Ordering::SeqCst), 1);
        assert_eq!(batch_done.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn aged_batch_gang_is_promoted_not_starved() {
        let pool = ActorPool::with_config(
            1,
            SchedulerConfig {
                batch_aging: Duration::from_millis(30),
            },
        );
        let release = Arc::new(std::sync::Barrier::new(2));
        let blocker = Arc::new(AtomicUsize::new(0));
        let batch_done = Arc::new(AtomicUsize::new(0));

        let gate = Arc::clone(&release);
        pool.submit(gang_of(1, QosClass::Interactive, &blocker, move || {
            gate.wait();
        }))
        .unwrap();
        pool.submit(gang_of(1, QosClass::Batch, &batch_done, || {}))
            .unwrap();
        std::thread::sleep(Duration::from_millis(40));
        release.wait();
        wait_for(&batch_done, 1);
        assert_eq!(batch_done.load(Ordering::SeqCst), 1);
        assert_eq!(pool.stats().gangs_promoted, 1, "aged gang promoted");
    }

    #[test]
    fn expired_deadline_gang_is_shed_without_running() {
        let pool = ActorPool::new(2);
        let ran = Arc::new(AtomicUsize::new(0));
        let shed = Arc::new(AtomicUsize::new(0));
        let mut gang = gang_of(1, QosClass::Interactive, &ran, || {});
        gang.set_deadline(Deadline::after(Duration::ZERO));
        let s = Arc::clone(&shed);
        gang.set_on_shed(move |info| {
            assert_eq!(info.remaining, Duration::ZERO);
            s.fetch_add(1, Ordering::SeqCst);
        });
        pool.submit(gang).unwrap();
        wait_for(&shed, 1);
        assert_eq!(shed.load(Ordering::SeqCst), 1);
        assert_eq!(ran.load(Ordering::SeqCst), 0, "shed gang must never run");
        let stats = pool.stats();
        assert_eq!(stats.gangs_shed, 1);
        assert_eq!(stats.gangs_admitted, 0);
    }

    #[test]
    fn unbounded_deadline_gang_is_never_shed() {
        let pool = ActorPool::new(1);
        let ran = Arc::new(AtomicUsize::new(0));
        let mut gang = gang_of(1, QosClass::Batch, &ran, || {});
        gang.set_deadline(Deadline::unbounded());
        pool.submit(gang).unwrap();
        wait_for(&ran, 1);
        assert_eq!(ran.load(Ordering::SeqCst), 1);
        assert_eq!(pool.stats().gangs_shed, 0);
    }

    #[test]
    fn idle_worker_steals_from_a_busy_workers_queue() {
        // The first gang holds both workers; one of them blocks. The
        // second gang's task must run on the other worker, idle after its
        // fast task, while the blocked one still waits.
        let pool = ActorPool::new(2);
        let release = Arc::new(std::sync::Barrier::new(2));
        let slow = Arc::new(AtomicUsize::new(0));
        let fast = Arc::new(AtomicUsize::new(0));
        let stolen = Arc::new(AtomicUsize::new(0));

        let gate = Arc::clone(&release);
        let mut first = Gang::new(QosClass::Interactive);
        {
            let s = Arc::clone(&slow);
            first.push(move || {
                gate.wait();
                s.fetch_add(1, Ordering::SeqCst);
            });
        }
        {
            let f = Arc::clone(&fast);
            first.push(move || {
                f.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.submit(first).unwrap();
        wait_for(&fast, 1);
        // Pool full (committed 2 of 2): this queues, then enters the
        // ready queue when the fast task frees capacity.
        pool.submit(gang_of(1, QosClass::Interactive, &stolen, || {}))
            .unwrap();
        wait_for(&stolen, 1);
        assert_eq!(
            stolen.load(Ordering::SeqCst),
            1,
            "queued task must run while the slow role still blocks"
        );
        assert_eq!(slow.load(Ordering::SeqCst), 0, "slow role still blocked");
        release.wait();
        wait_for(&slow, 1);
    }
}
