//! Session orchestration: run every role of a session, collect the
//! outcome.
//!
//! [`run_session`] is the batteries-included entry point over the
//! in-memory hub (with optional fault injection). [`run_session_over`] is
//! the generic spine beneath it: hand it any set of [`Transport`]
//! endpoints (hub, TCP, mux-virtual, fault-wrapped, …) and the same
//! protocol code runs unchanged. Both are thin wrappers over
//! [`spawn_session`], which launches the session's roles as a gang on an
//! [`ActorPool`] and returns a [`SessionHandle`] — the multi-session
//! building block `sap-server` drives: `N` concurrent sessions share one
//! fixed pool instead of spawning `N × (k + 1)` dedicated threads.

use crate::audit::AuditLog;
use crate::coordinator::run_coordinator;
use crate::error::SapError;
use crate::link::DEFAULT_BLOCK_ROWS;
use crate::liveness::{Deadline, Roster};
use crate::messages::SlotTag;
use crate::miner::run_miner;
use crate::party::run_provider;
use crate::runtime::{ActorPool, Gang, QosClass, SessionCollect, SessionHandle, SessionShared};
use crate::stream::StreamMonitor;
use parking_lot::{Condvar, Mutex};
use sap_datasets::Dataset;
use sap_net::node::Node;
use sap_net::sim::{FaultConfig, FaultyTransport};
use sap_net::transport::InMemoryHub;
use sap_net::{PartyId, SessionId, Transport};
use sap_perturb::Perturbation;
use sap_privacy::optimize::OptimizerConfig;
use std::sync::Arc;
use std::time::Duration;

/// Session-wide configuration.
#[derive(Debug, Clone)]
pub struct SapConfig {
    /// Noise level σ of every provider's perturbation (the brief's *common
    /// noise component* `Δ` policy).
    pub noise_sigma: f64,
    /// Settings for each provider's local randomized optimizer.
    pub optimizer: OptimizerConfig,
    /// Shared session secret for the sealed channels.
    pub session_secret: u64,
    /// Master seed; each role derives its own stream.
    pub seed: u64,
    /// Per-receive timeout for every role.
    pub timeout: Duration,
    /// Session-wide wall-clock budget shared by every role (the
    /// [`crate::liveness::Deadline`] threaded through all blocking
    /// receives). Generous by design — the per-receive `timeout` catches
    /// ordinary starvation long before this trips; the budget is the
    /// cooperative backstop that replaces being reclaimed by a server's
    /// age GC.
    pub session_budget: Duration,
    /// Rows per dataset stream block (the chunking grain of the exchange).
    pub block_rows: usize,
    /// Optional fault model applied to every party's *send* path (chaos
    /// testing). SAP has no retransmission layer, so any lost frame makes
    /// the session abort with a timeout instead of completing — the safety
    /// property the failure-injection tests assert.
    pub fault_config: Option<FaultConfig>,
    /// Scheduling class of the session's gang
    /// ([`QosClass::Interactive`] by default): interactive gangs are
    /// admitted with strict priority over queued batch gangs; batch gangs
    /// age into the interactive queue instead of starving.
    pub qos: QosClass,
}

impl Default for SapConfig {
    fn default() -> Self {
        SapConfig {
            noise_sigma: 0.05,
            optimizer: OptimizerConfig::default(),
            session_secret: 0x5A9_u64 ^ 0x1234_5678,
            seed: 0xD15E,
            timeout: Duration::from_secs(30),
            session_budget: Duration::from_secs(300),
            block_rows: DEFAULT_BLOCK_ROWS,
            fault_config: None,
            qos: QosClass::default(),
        }
    }
}

impl SapConfig {
    /// A small/fast configuration for tests: few optimizer candidates, small
    /// evaluation samples, short timeout.
    pub fn quick_test() -> Self {
        SapConfig {
            noise_sigma: 0.05,
            optimizer: OptimizerConfig {
                candidates: 4,
                noise_sigma: 0.05,
                known_points: 4,
                eval_sample: 80,
                use_ica: false,
                ..OptimizerConfig::default()
            },
            session_secret: 42,
            seed: 7,
            timeout: Duration::from_secs(10),
            session_budget: Duration::from_secs(120),
            block_rows: 64,
            fault_config: None,
            qos: QosClass::default(),
        }
    }

    /// Checks the settings no session can run with: `block_rows` must be
    /// positive and every fault probability a number within `[0, 1]`.
    /// Every spawn runs this before a role, an endpoint wrapper or a
    /// server route exists, so a bad client config fails its own
    /// submission instead of panicking a thread that holds shared state.
    ///
    /// # Errors
    ///
    /// [`SapError::InvalidConfig`] naming the offending setting.
    pub fn validate(&self) -> Result<(), SapError> {
        if self.block_rows == 0 {
            return Err(SapError::InvalidConfig("block_rows is 0".into()));
        }
        match &self.fault_config {
            Some(faults) => faults.validate().map_err(SapError::InvalidConfig),
            None => Ok(()),
        }
    }
}

/// Per-provider result of a session.
#[derive(Debug, Clone)]
pub struct ProviderReport {
    /// The provider.
    pub provider: PartyId,
    /// Locally optimized privacy guarantee `ρᵢ`.
    pub rho_local: f64,
    /// Guarantee of the provider's data under the unified space, `ρᵢᴳ`.
    pub rho_unified: f64,
    /// Satisfaction level `sᵢ = ρᵢᴳ / ρᵢ`.
    pub satisfaction: f64,
    /// Privacy guarantee of every optimizer candidate (for Figure 2).
    /// Under the staged schedule, pruned candidates carry cheap-stage
    /// scores (see [`sap_privacy::optimize::OptimizedPerturbation::history`]).
    pub optimizer_history: Vec<f64>,
    /// Per-stage telemetry of this provider's optimizer run (wall times,
    /// candidates evaluated/pruned, ICA applications).
    pub optimizer: sap_privacy::EngineStats,
}

/// Outcome of a completed session.
#[derive(Debug)]
pub struct SapOutcome {
    /// The miner's pooled dataset, all partitions in the unified space.
    pub unified: Dataset,
    /// One report per provider, in provider order (coordinator last).
    pub reports: Vec<ProviderReport>,
    /// Source identifiability from the miner's view, `1/(k−1)`.
    pub identifiability: f64,
    /// The audit ledger of every delivery (for information-flow checks).
    pub audit: AuditLog,
    /// Which provider forwarded each slot — everything the miner knows about
    /// provenance.
    pub forwarder_of_slot: Vec<(SlotTag, PartyId)>,
    /// Row blocks the miner received through the anonymizing relay hop
    /// (feeds the server's `blocks_relayed` metric).
    pub relayed_blocks: u64,
    /// Streaming data-plane statistics. Timing-dependent observability —
    /// excluded from the determinism contract (the golden outcomes).
    pub stream: crate::stream::StreamStats,
    /// The unified target space (exposed by the test harness for analysis;
    /// in deployment only providers and the coordinator hold it).
    pub target: Perturbation,
}

/// Session-wide optimizer telemetry: every provider's engine run summed
/// up — what `sap-server` folds into its `ServerMetrics` counters
/// (optimizer wall time, candidates evaluated/pruned).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OptimizerSummary {
    /// Total optimizer wall time across the session's providers (seconds).
    pub wall_s: f64,
    /// Candidates scored by the cheap stage, all providers.
    pub candidates_evaluated: u64,
    /// Candidates pruned before the expensive stage, all providers.
    pub candidates_pruned: u64,
    /// Survivors on which the ICA reconstruction applied, all providers.
    pub ica_applied: u64,
}

impl SapOutcome {
    /// Number of providers `k`.
    pub fn num_providers(&self) -> usize {
        self.reports.len()
    }

    /// Aggregates every provider's optimizer telemetry.
    pub fn optimizer_summary(&self) -> OptimizerSummary {
        let mut s = OptimizerSummary::default();
        for r in &self.reports {
            s.wall_s += r.optimizer.total_s;
            s.candidates_evaluated += r.optimizer.candidates as u64;
            s.candidates_pruned += r.optimizer.pruned as u64;
            s.ica_applied += r.optimizer.ica_applied as u64;
        }
        s
    }

    /// Per-provider overall SAP risk (eq. 2 of the brief), using the
    /// best **full-suite** guarantee the provider observed as the
    /// empirical bound `b̂`: `rho_local` is by construction the maximum
    /// full-suite score of the optimizer run, and `rho_unified` the
    /// unified space's full-suite score. The per-candidate history is
    /// deliberately *not* folded in — under the staged schedule pruned
    /// candidates carry cheap-stage upper bounds that no full evaluation
    /// ever measured, which would silently inflate `b̂`.
    /// Degenerate runs (all-zero guarantees) yield risk `1.0`.
    pub fn risk_summary(&self) -> Vec<f64> {
        let k = self.num_providers();
        self.reports
            .iter()
            .map(|r| {
                let bound = r.rho_local.max(r.rho_unified);
                if bound <= 1e-12 {
                    1.0
                } else {
                    sap_privacy::risk::sap_risk(bound, r.rho_local, r.satisfaction, k)
                }
            })
            .collect()
    }
}

/// Party id assigned to the miner.
pub const MINER_ID: PartyId = PartyId(1_000);

/// An owned context bundle for driving a single role **outside**
/// [`spawn_session`] — protocol test harnesses and standalone drivers.
/// [`StandaloneCtx::ctx`] borrows it as the [`RoleCtx`] the role
/// functions take. Defaults to an unbounded deadline (the driver owns
/// pacing) and fresh audit/monitor handles.
pub struct StandaloneCtx {
    /// The session's parties.
    pub roster: Roster,
    /// Session configuration.
    pub config: SapConfig,
    /// Delivery ledger (cloneable shared handle).
    pub audit: AuditLog,
    /// Streaming telemetry (cloneable shared handle).
    pub monitor: StreamMonitor,
    /// Budget/cancellation token.
    pub deadline: Deadline,
}

impl StandaloneCtx {
    /// Bundles a roster and config with fresh audit/monitor handles and
    /// an unbounded deadline.
    pub fn new(roster: Roster, config: SapConfig) -> Self {
        StandaloneCtx {
            roster,
            config,
            audit: AuditLog::new(),
            monitor: StreamMonitor::new(),
            deadline: Deadline::unbounded(),
        }
    }

    /// Borrows the bundle as the [`RoleCtx`] the role functions take.
    pub fn ctx(&self) -> RoleCtx<'_> {
        RoleCtx {
            roster: &self.roster,
            config: &self.config,
            audit: &self.audit,
            monitor: &self.monitor,
            deadline: &self.deadline,
        }
    }
}

/// Everything a role shares with its session beyond its node and data:
/// configuration, observability, and the liveness regime (roster +
/// deadline token). One borrowed bundle instead of a parameter per
/// concern — every blocking receive in the role loops goes through it
/// ([`crate::link::recv_message_ctx`] / [`crate::link::recv_flow_ctx`]).
pub struct RoleCtx<'a> {
    /// The session's parties (providers in position order, coordinator
    /// last) plus the miner.
    pub roster: &'a Roster,
    /// Session configuration.
    pub config: &'a SapConfig,
    /// The shared delivery ledger.
    pub audit: &'a AuditLog,
    /// Streaming data-plane telemetry.
    pub monitor: &'a StreamMonitor,
    /// The session-wide budget and cancellation token.
    pub deadline: &'a Deadline,
}

fn validate_inputs(locals: &[Dataset], config: &SapConfig) -> Result<(usize, usize), SapError> {
    config.validate()?;
    let k = locals.len();
    if k < 3 {
        return Err(SapError::TooFewProviders { got: k });
    }
    let dim = locals[0].dim();
    let num_classes = locals
        .iter()
        .map(Dataset::num_classes)
        .max()
        .expect("k >= 3");
    for (i, d) in locals.iter().enumerate() {
        if d.dim() != dim {
            return Err(SapError::InconsistentInputs(format!(
                "provider {i} has dim {} but provider 0 has {dim}",
                d.dim()
            )));
        }
        // A NaN or infinity would poison every attack's estimate and the
        // privacy score with it (an infinite guarantee, a NaN
        // satisfaction) instead of failing.
        for (r, record) in d.records().iter().enumerate() {
            if let Some(a) = record.iter().position(|v| !v.is_finite()) {
                return Err(SapError::InconsistentInputs(format!(
                    "provider {i} record {r} attribute {a} is not finite ({})",
                    record[a]
                )));
            }
        }
    }
    Ok((dim, num_classes))
}

/// Runs a complete SAP session over an in-memory network: providers
/// `DP₀..DP_{k−1}` (the last one doubles as coordinator) plus the miner,
/// each on its own thread.
///
/// `locals[i]` is provider `i`'s private dataset; all must share
/// dimensionality and class count.
///
/// # Errors
///
/// * [`SapError::TooFewProviders`] for `k < 3`.
/// * [`SapError::InconsistentInputs`] when local datasets disagree.
/// * [`SapError::InvalidConfig`] when [`SapConfig::validate`] fails.
/// * Any role's protocol/timeout error, propagated.
pub fn run_session(locals: Vec<Dataset>, config: &SapConfig) -> Result<SapOutcome, SapError> {
    validate_inputs(&locals, config)?;
    let k = locals.len();
    let hub = InMemoryHub::new();
    let providers: Vec<PartyId> = (0..k as u64).map(PartyId).collect();

    // Endpoints must be created before any thread starts sending.
    let endpoints: Vec<_> = providers.iter().map(|&p| hub.endpoint(p)).collect();
    let miner_endpoint = hub.endpoint(MINER_ID);

    match config.fault_config {
        None => run_session_over(locals, config, endpoints, miner_endpoint),
        Some(faults) => {
            // Same generic path, transports wrapped in the fault injector
            // with a distinct deterministic stream per party.
            let wrapped: Vec<_> = endpoints
                .into_iter()
                .enumerate()
                .map(|(pos, endpoint)| {
                    FaultyTransport::new(endpoint, faults.salted_for(pos as u64 + 1))
                })
                .collect();
            let miner_wrapped =
                FaultyTransport::new(miner_endpoint, faults.salted_for(FaultConfig::MINER_SALT));
            run_session_over(locals, config, wrapped, miner_wrapped)
        }
    }
}

/// Runs a complete SAP session over caller-supplied transports —
/// the transport-agnostic spine behind [`run_session`].
///
/// `provider_transports[i]` must be the endpoint whose
/// [`Transport::local_id`] is provider `i`; the last provider doubles as
/// coordinator. `miner_transport` carries the miner role. Every endpoint
/// must be able to reach every other (full mesh), as with
/// [`InMemoryHub`] endpoints or a [`sap_net::tcp::local_mesh`].
///
/// Internally this is [`spawn_session`] on a session-private
/// [`ActorPool`] of exactly `k + 1` workers, harvested inline — the same
/// thread budget the old dedicated-thread orchestration used, now
/// expressed through the pooled runtime a server shares across sessions.
///
/// # Errors
///
/// As [`run_session`].
pub fn run_session_over<T>(
    locals: Vec<Dataset>,
    config: &SapConfig,
    provider_transports: Vec<T>,
    miner_transport: T,
) -> Result<SapOutcome, SapError>
where
    T: Transport + 'static,
{
    validate_inputs(&locals, config)?;
    let pool = ActorPool::new(locals.len() + 1);
    let handle = spawn_session(
        &pool,
        SessionId::SOLO,
        locals,
        config,
        provider_transports,
        miner_transport,
    )?;
    handle.harvest(None)
}

/// Launches every role of one session as a gang on `pool` and returns its
/// lifecycle handle — the primitive a multi-session server builds on. The
/// gang starts once the pool has `k + 1` free workers; queued sessions
/// start in QoS order (class priority with batch aging) as capacity
/// frees up, and a queued session whose budget provably can no longer be
/// met is shed with [`SapError::AdmissionShed`].
///
/// All of the session's nodes are stamped with `session`: over a
/// [`sap_net::mux::SessionMux`] mesh, that is what isolates this
/// session's frames from every sibling sharing the physical transports.
///
/// # Errors
///
/// * [`SapError::TooFewProviders`] / [`SapError::InconsistentInputs`] /
///   [`SapError::InvalidConfig`] on invalid inputs (checked before
///   anything is spawned).
/// * [`SapError::Capacity`] when `k + 1` exceeds the pool size.
pub fn spawn_session<T>(
    pool: &ActorPool,
    session: SessionId,
    locals: Vec<Dataset>,
    config: &SapConfig,
    provider_transports: Vec<T>,
    miner_transport: T,
) -> Result<SessionHandle, SapError>
where
    T: Transport + 'static,
{
    let (_dim, num_classes) = validate_inputs(&locals, config)?;
    let k = locals.len();
    if provider_transports.len() != k {
        return Err(SapError::InconsistentInputs(format!(
            "{} transports for {k} providers",
            provider_transports.len()
        )));
    }
    let providers: Vec<PartyId> = provider_transports
        .iter()
        .map(Transport::local_id)
        .collect();
    let coordinator = providers[k - 1];
    let audit = AuditLog::new();
    let monitor = StreamMonitor::new();
    let roster = Arc::new(Roster::new(providers.clone(), MINER_ID));
    // One deadline per session: budget from the config, cancelled the
    // moment any role fails or the owner aborts, observed by every
    // blocking receive of every role.
    let deadline = Deadline::after(config.session_budget);

    let shared = Arc::new(SessionShared {
        state: Mutex::new(SessionCollect {
            reports: (0..k).map(|_| None).collect(),
            target: None,
            miner: None,
            role_errors: (0..=k).map(|_| None).collect(),
            finished_roles: 0,
            total_roles: k + 1,
            aborted: false,
            shed: None,
            harvested: false,
            queue_wait: None,
            admitted_at: None,
            finished_at: None,
            retained: Vec::new(),
        }),
        progress: Condvar::new(),
        session,
        num_classes,
        k,
        audit: audit.clone(),
        monitor: monitor.clone(),
        deadline: deadline.clone(),
        on_abort: Mutex::new(None),
    });

    // Roles share the locals through `Arc` — the session runs k roles
    // without cloning a single `Dataset`.
    let locals: Vec<Arc<Dataset>> = locals.into_iter().map(Arc::new).collect();
    let mut transports: Vec<Option<T>> = provider_transports.into_iter().map(Some).collect();
    let mut gang = Gang::new(config.qos);

    // Providers 0..k−1 (all but the coordinator).
    for pos in 0..k - 1 {
        let transport = transports[pos]
            .take()
            .ok_or_else(|| SapError::Protocol("endpoint consumed twice".into()))?;
        let node = Node::for_session(transport, config.session_secret, session);
        let data = Arc::clone(&locals[pos]);
        let cfg = config.clone();
        let audit = audit.clone();
        let pid = providers[pos];
        let shared = Arc::clone(&shared);
        let monitor = monitor.clone();
        let roster = Arc::clone(&roster);
        let deadline = deadline.clone();
        gang.push(move || {
            shared.run_role(pos, pid, || {
                let ctx = RoleCtx {
                    roster: &roster,
                    config: &cfg,
                    audit: &audit,
                    monitor: &monitor,
                    deadline: &deadline,
                };
                let report = run_provider(&node, &data, &ctx)?;
                shared.record(|s| s.reports[pos] = Some(report));
                Ok(())
            });
            // Park the transport until harvest: dropping it here would
            // close live TCP sockets and make this role's graceful
            // completion look like a peer death to its siblings.
            shared.retain(Box::new(node));
        });
    }

    // Coordinator (last provider).
    {
        let transport = transports[k - 1]
            .take()
            .ok_or_else(|| SapError::Protocol("coordinator endpoint consumed".into()))?;
        let node = Node::for_session(transport, config.session_secret, session);
        let data = Arc::clone(&locals[k - 1]);
        let cfg = config.clone();
        let audit = audit.clone();
        let shared = Arc::clone(&shared);
        let monitor = monitor.clone();
        let roster = Arc::clone(&roster);
        let deadline = deadline.clone();
        gang.push(move || {
            shared.run_role(k - 1, coordinator, || {
                let ctx = RoleCtx {
                    roster: &roster,
                    config: &cfg,
                    audit: &audit,
                    monitor: &monitor,
                    deadline: &deadline,
                };
                let (report, target) = run_coordinator(&node, &data, &ctx)?;
                shared.record(|s| {
                    s.reports[k - 1] = Some(report);
                    s.target = Some(target);
                });
                Ok(())
            });
            shared.retain(Box::new(node));
        });
    }

    // Miner.
    {
        let node = Node::for_session(miner_transport, config.session_secret, session);
        let cfg = config.clone();
        let audit = audit.clone();
        let shared = Arc::clone(&shared);
        let monitor = monitor.clone();
        let roster = Arc::clone(&roster);
        let deadline = deadline.clone();
        gang.push(move || {
            shared.run_role(k, MINER_ID, || {
                let ctx = RoleCtx {
                    roster: &roster,
                    config: &cfg,
                    audit: &audit,
                    monitor: &monitor,
                    deadline: &deadline,
                };
                let out = run_miner(&node, k, &ctx)?;
                shared.record(|s| s.miner = Some(out));
                Ok(())
            });
            shared.retain(Box::new(node));
        });
    }

    // Scheduler wiring: the gang checks the session's own deadline at
    // admission time, reports its queue wait when admitted, and — if
    // shed — cancels the deadline, marks the session, and runs the
    // owner's abort hook so any transport routes opened for the session
    // are torn down even though no role ever ran.
    gang.set_deadline(deadline.clone());
    {
        let shared = Arc::clone(&shared);
        gang.set_on_admit(move |waited| {
            let mut state = shared.state.lock();
            state.queue_wait = Some(waited);
            state.admitted_at = Some(std::time::Instant::now());
        });
    }
    {
        let shared = Arc::clone(&shared);
        gang.set_on_shed(move |info| {
            shared.deadline.cancel();
            let hook = shared.on_abort.lock().take();
            {
                let mut state = shared.state.lock();
                state.queue_wait = Some(info.waited);
                state.shed = Some(info);
            }
            shared.progress.notify_all();
            if let Some(hook) = hook {
                hook();
            }
        });
    }

    pool.submit(gang)?;
    Ok(SessionHandle { shared })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_datasets::partition::{partition, PartitionScheme};
    use sap_datasets::registry::UciDataset;

    #[test]
    fn session_runs_end_to_end() {
        let pooled = UciDataset::Iris.generate(1);
        let locals = partition(&pooled, 4, PartitionScheme::Uniform, 2);
        let outcome = run_session(locals, &SapConfig::quick_test()).unwrap();

        assert_eq!(outcome.unified.len(), pooled.len());
        assert_eq!(outcome.unified.dim(), pooled.dim());
        assert_eq!(outcome.reports.len(), 4);
        assert!((outcome.identifiability - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(outcome.forwarder_of_slot.len(), 4);
        for r in &outcome.reports {
            assert!(r.rho_local >= 0.0);
            assert!(r.satisfaction >= 0.0);
        }
    }

    #[test]
    fn audit_flow_invariants_hold() {
        let pooled = UciDataset::Iris.generate(2);
        let locals = partition(&pooled, 5, PartitionScheme::Uniform, 3);
        let outcome = run_session(locals, &SapConfig::quick_test()).unwrap();

        let providers: Vec<PartyId> = (0..5).map(PartyId).collect();
        let coordinator = PartyId(4);
        outcome
            .audit
            .verify_flow(coordinator, MINER_ID, &providers)
            .unwrap();
        assert!(!outcome.audit.party_saw_data(coordinator));
        assert!(outcome.audit.party_saw_data(MINER_ID));
        assert!(
            !outcome.audit.party_saw_parameters(MINER_ID) || {
                // The adaptor table is a parameter-class payload the miner is
                // *supposed* to see; verify nothing else parameter-like arrived.
                outcome
                    .audit
                    .events()
                    .iter()
                    .filter(|e| e.to == MINER_ID && e.carries_parameters)
                    .all(|e| e.kind == "adaptor-table")
            }
        );
    }

    #[test]
    fn coordinator_never_forwards_to_miner() {
        let pooled = UciDataset::Wine.generate(3);
        let locals = partition(&pooled, 4, PartitionScheme::ClassSkewed, 4);
        let outcome = run_session(locals, &SapConfig::quick_test()).unwrap();
        let coordinator = PartyId(3);
        for (_, forwarder) in &outcome.forwarder_of_slot {
            assert_ne!(*forwarder, coordinator, "coordinator must never relay data");
        }
    }

    #[test]
    fn fully_lossy_network_aborts_with_timeout() {
        use sap_net::sim::FaultConfig;
        let pooled = UciDataset::Iris.generate(8);
        let locals = partition(&pooled, 4, PartitionScheme::Uniform, 9);
        let config = SapConfig {
            fault_config: Some(FaultConfig {
                drop_prob: 1.0,
                ..FaultConfig::default()
            }),
            timeout: std::time::Duration::from_millis(200),
            ..SapConfig::quick_test()
        };
        let err = run_session(locals, &config).unwrap_err();
        assert!(
            matches!(err, SapError::Timeout { .. }),
            "lossy network must abort, got {err}"
        );
    }

    #[test]
    fn duplicating_network_never_returns_wrong_result() {
        use sap_net::sim::FaultConfig;
        // Duplicated frames either trip the framing/slot duplicate checks
        // (abort) or are absorbed where idempotent; a success must still be
        // correct.
        let pooled = UciDataset::Iris.generate(9);
        let locals = partition(&pooled, 4, PartitionScheme::Uniform, 10);
        let config = SapConfig {
            fault_config: Some(FaultConfig {
                duplicate_prob: 0.5,
                ..FaultConfig::default()
            }),
            timeout: std::time::Duration::from_millis(500),
            ..SapConfig::quick_test()
        };
        match run_session(locals, &config) {
            Ok(outcome) => assert_eq!(outcome.unified.len(), pooled.len()),
            Err(e) => assert!(
                matches!(e, SapError::Protocol(_) | SapError::Timeout { .. }),
                "unexpected failure mode: {e}"
            ),
        }
    }

    #[test]
    fn risk_summary_is_bounded_and_sized() {
        let pooled = UciDataset::Iris.generate(7);
        let locals = partition(&pooled, 4, PartitionScheme::Uniform, 8);
        let outcome = run_session(locals, &SapConfig::quick_test()).unwrap();
        let risks = outcome.risk_summary();
        assert_eq!(risks.len(), outcome.num_providers());
        for r in risks {
            assert!((0.0..=1.0).contains(&r), "risk {r} out of [0,1]");
        }
    }

    #[test]
    fn too_few_providers_rejected() {
        let pooled = UciDataset::Iris.generate(4);
        let locals = partition(&pooled, 2, PartitionScheme::Uniform, 5);
        assert!(matches!(
            run_session(locals, &SapConfig::quick_test()),
            Err(SapError::TooFewProviders { got: 2 })
        ));
    }

    #[test]
    fn inconsistent_dimensions_rejected() {
        let a = UciDataset::Iris.generate(5);
        let b = UciDataset::Wine.generate(5); // 13-dim vs 4-dim
        let locals = vec![a.clone(), a.clone(), b];
        assert!(matches!(
            run_session(locals, &SapConfig::quick_test()),
            Err(SapError::InconsistentInputs(_))
        ));
    }

    #[test]
    fn non_finite_attribute_rejected() {
        let pooled = UciDataset::Iris.generate(9);
        let mut locals = partition(&pooled, 3, PartitionScheme::Uniform, 10);
        for bad in [f64::NAN, f64::INFINITY] {
            let mut records = locals[1].records().to_vec();
            records[7][2] = bad;
            let poisoned = Dataset::with_num_classes(
                records,
                locals[1].labels().to_vec(),
                locals[1].num_classes(),
            );
            let original = std::mem::replace(&mut locals[1], poisoned);
            match run_session(locals.clone(), &SapConfig::quick_test()) {
                Err(SapError::InconsistentInputs(what)) => assert!(
                    what.contains("provider 1 record 7 attribute 2"),
                    "unexpected message: {what}"
                ),
                other => panic!(
                    "{bad} attribute accepted: {:?}",
                    other.map(|o| o.unified.len())
                ),
            }
            locals[1] = original;
        }
    }

    #[test]
    fn invalid_config_is_a_typed_error() {
        use sap_net::sim::FaultConfig;
        let pooled = UciDataset::Iris.generate(11);
        let locals = partition(&pooled, 3, PartitionScheme::Uniform, 12);
        let zero_blocks = SapConfig {
            block_rows: 0,
            ..SapConfig::quick_test()
        };
        let bad_faults = SapConfig {
            fault_config: Some(FaultConfig {
                drop_prob: f64::NAN,
                ..FaultConfig::default()
            }),
            ..SapConfig::quick_test()
        };
        for (config, what) in [(zero_blocks, "block_rows"), (bad_faults, "drop_prob")] {
            match run_session(locals.clone(), &config) {
                Err(SapError::InvalidConfig(why)) => assert!(why.contains(what), "{why}"),
                other => panic!(
                    "{what}: expected InvalidConfig, got {:?}",
                    other.map(|o| o.unified.len())
                ),
            }
        }
    }

    #[test]
    fn transport_count_mismatch_rejected() {
        let pooled = UciDataset::Iris.generate(6);
        let locals = partition(&pooled, 3, PartitionScheme::Uniform, 7);
        let hub = InMemoryHub::new();
        let endpoints = vec![hub.endpoint(PartyId(0)), hub.endpoint(PartyId(1))];
        let miner = hub.endpoint(MINER_ID);
        assert!(matches!(
            run_session_over(locals, &SapConfig::quick_test(), endpoints, miner),
            Err(SapError::InconsistentInputs(_))
        ));
    }
}
