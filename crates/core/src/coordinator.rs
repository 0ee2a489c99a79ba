//! The coordinator actor.
//!
//! The coordinator is itself a data provider (`DP_k` in the brief) with two
//! extra duties: it selects the unified target space and orchestrates the
//! anonymizing exchange. Crucially it **never receives a dataset** — it will
//! hold every space adaptor, and an adaptor plus a dataset would let it
//! rebase the data into a space whose parameters it knows, undoing the
//! owner's perturbation. A dataset stream arriving here is a hard protocol
//! error, raised the moment its header lands: no block is ever received,
//! let alone decoded.

use crate::error::SapError;
use crate::link::{self, FlowInbound};
use crate::messages::{SapMessage, SlotTag};
use crate::permutation::ExchangePlan;
use crate::session::{ProviderReport, RoleCtx};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sap_datasets::Dataset;
use sap_net::node::Node;
use sap_net::{PartyId, Transport};
use sap_perturb::{GeometricPerturbation, Perturbation, SpaceAdaptor};
use sap_privacy::engine;
use sap_privacy::optimize::evaluate_perturbation;
use std::collections::HashMap;

/// Runs the coordinator role (provider duties included) to completion.
///
/// `ctx.roster.providers` lists every provider id in position order; the
/// coordinator must be the **last** entry (the brief's `DP_k`
/// convention). Every blocking receive observes the session's liveness
/// regime (deadline token, roster-filtered peer failures).
///
/// # Errors
///
/// Returns [`SapError`] on timeout, peer failure, cancellation,
/// messaging failure, or protocol violations (duplicate/unknown adaptor
/// senders, an adaptor whose dimension is not the target space's).
#[allow(clippy::too_many_lines)]
pub fn run_coordinator<T: Transport>(
    node: &Node<T>,
    data: &Dataset,
    ctx: &RoleCtx<'_>,
) -> Result<(ProviderReport, Perturbation), SapError> {
    let me = node.id();
    let config = ctx.config;
    let providers = ctx.roster.providers.as_slice();
    let miner = ctx.roster.miner;
    let k = providers.len();
    if k < 3 {
        return Err(SapError::TooFewProviders { got: k });
    }
    if providers.last() != Some(&me) {
        return Err(SapError::Protocol(format!(
            "coordinator {me} must be the last provider"
        )));
    }
    let coord_pos = k - 1;
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC00D);

    // Provider duty: local optimization on own data, through the
    // exact engine.
    let x = data.to_column_matrix();
    let engine_out = engine::run(&x, &config.optimizer, &mut rng)?;
    let opt = engine_out.result;
    let g_local = opt.perturbation.clone();
    let rho_local = opt.privacy_guarantee;

    // Coordination: target space (no noise), exchange plan, slot tags.
    let target = Perturbation::random(data.dim(), &mut rng);
    let plan = ExchangePlan::random(k, coord_pos, &mut rng);
    let mut slot_of: Vec<SlotTag> = Vec::with_capacity(k);
    let mut used = std::collections::HashSet::new();
    for _ in 0..k {
        loop {
            let tag = SlotTag(rng.random_range(0..u64::MAX));
            if used.insert(tag) {
                slot_of.push(tag);
                break;
            }
        }
    }

    // Send setup to every other provider.
    for (pos, &pid) in providers.iter().enumerate() {
        if pos == coord_pos {
            continue;
        }
        node.send_msg(
            pid,
            &SapMessage::Setup {
                target: target.clone(),
                slot: slot_of[pos],
                send_data_to: providers[plan.receiver_of(pos)],
                expect_incoming: plan.incoming_count(pos) as u32,
            },
        )
        .map_err(SapError::from)?;
    }

    // Provider duty: perturb own data and stream it to the assigned
    // receiver, each block's math overlapping the previous block's
    // transmission.
    let delta = g_local.noise().sample(x.rows(), x.cols(), &mut rng);
    link::send_perturbed_dataset(
        node,
        providers[plan.receiver_of(coord_pos)],
        miner,
        slot_of[coord_pos],
        &g_local,
        &x,
        &delta,
        data.labels(),
        data.num_classes(),
        config.block_rows,
    )?;

    // Collect adaptors from the other k−1 providers; add our own.
    let mut adaptor_of: HashMap<PartyId, SpaceAdaptor> = HashMap::new();
    let own_adaptor = SpaceAdaptor::between(g_local.base(), &target)
        .map_err(|e| SapError::Protocol(format!("own adaptor failed: {e}")))?;
    adaptor_of.insert(me, own_adaptor);
    while adaptor_of.len() < k {
        match recv_control(node, ctx, "adaptor collection")? {
            (from, SapMessage::Adaptor { adaptor }) => {
                if !providers.contains(&from) {
                    return Err(SapError::Protocol(format!("adaptor from unknown {from}")));
                }
                if adaptor.dim() != target.dim() {
                    return Err(SapError::Protocol(format!(
                        "adaptor from {from} has dim {} but the target space has dim {}",
                        adaptor.dim(),
                        target.dim()
                    )));
                }
                if adaptor_of.insert(from, adaptor).is_some() {
                    return Err(SapError::Protocol(format!("duplicate adaptor from {from}")));
                }
            }
            (_, other) => {
                return Err(SapError::Protocol(format!(
                    "coordinator received unexpected {}",
                    other.kind()
                )))
            }
        }
    }

    // Map adaptors to slot tags and forward to the miner. The miner joins
    // (slot → dataset) with (slot → adaptor) without learning owners: the
    // table goes sorted by slot, since in provider order its positions
    // would name each slot's owner.
    let mut entries: Vec<(SlotTag, SpaceAdaptor)> = providers
        .iter()
        .enumerate()
        .map(|(pos, pid)| (slot_of[pos], adaptor_of[pid].clone()))
        .collect();
    entries.sort_unstable_by_key(|(slot, _)| *slot);
    node.send_msg(miner, &SapMessage::AdaptorTable { entries })
        .map_err(SapError::from)?;

    // Wait for the miner's completion ack so the session has a clean end.
    match recv_control(node, ctx, "mining completion")? {
        (from, SapMessage::MiningComplete { .. }) if from == miner => {}
        (from, other) => {
            return Err(SapError::Protocol(format!(
                "expected mining-complete from miner, got {} from {from}",
                other.kind()
            )))
        }
    }

    // Satisfaction for the coordinator's own data.
    let g_unified = GeometricPerturbation::new(target.clone(), g_local.noise());
    let rho_unified = evaluate_perturbation(&x, &g_unified, &config.optimizer, &mut rng);
    let satisfaction = if rho_local > 1e-12 {
        rho_unified / rho_local
    } else {
        1.0
    };

    Ok((
        ProviderReport {
            provider: me,
            rho_local,
            rho_unified,
            satisfaction,
            optimizer: engine_out.stats,
        },
        target,
    ))
}

/// Receives the next control message and records it on the audit ledger.
///
/// The information-flow invariant: data must never reach the
/// coordinator. A dataset stream is recorded and refused the moment its
/// header arrives — the header is enough to know, and to abort, before a
/// single block is received.
fn recv_control<T: Transport>(
    node: &Node<T>,
    ctx: &RoleCtx<'_>,
    phase: &'static str,
) -> Result<(PartyId, SapMessage), SapError> {
    let (from, inbound) = link::recv_flow_ctx(node, ctx, phase)?;
    let kind = match inbound {
        FlowInbound::Msg(msg) => {
            ctx.audit.record(from, node.id(), &msg);
            return Ok((from, msg));
        }
        FlowInbound::StreamStart { header, .. } => {
            ctx.audit
                .record_kind(from, node.id(), header.kind(), true, false);
            header.kind()
        }
        // Unreachable in practice: a block follows its header, which
        // already aborted the role.
        FlowInbound::StreamBlock { .. } => "row block",
    };
    Err(SapError::Protocol(format!(
        "coordinator received unexpected {kind}"
    )))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::liveness::Roster;
    use crate::session::{SapConfig, StandaloneCtx};
    use sap_net::transport::InMemoryHub;
    use std::time::Duration;

    fn tiny_dataset() -> Dataset {
        let records: Vec<Vec<f64>> = (0..24)
            .map(|i| vec![(i % 6) as f64 / 6.0, (i % 4) as f64 / 4.0])
            .collect();
        let labels: Vec<usize> = (0..24).map(|i| i % 2).collect();
        Dataset::new(records, labels)
    }

    fn harness(providers: Vec<PartyId>, config: SapConfig) -> StandaloneCtx {
        StandaloneCtx::new(Roster::new(providers, PartyId(100)), config)
    }

    #[test]
    fn rejects_too_few_providers() {
        let hub = InMemoryHub::new();
        let node = Node::new(hub.endpoint(PartyId(1)), 7);
        let sc = harness(vec![PartyId(0), PartyId(1)], SapConfig::quick_test());
        let err = run_coordinator(&node, &tiny_dataset(), &sc.ctx()).unwrap_err();
        assert!(matches!(err, SapError::TooFewProviders { got: 2 }));
    }

    #[test]
    fn rejects_coordinator_not_last() {
        let hub = InMemoryHub::new();
        let node = Node::new(hub.endpoint(PartyId(0)), 7);
        let sc = harness(
            vec![PartyId(0), PartyId(1), PartyId(2)],
            SapConfig::quick_test(),
        );
        let err = run_coordinator(&node, &tiny_dataset(), &sc.ctx()).unwrap_err();
        assert!(matches!(err, SapError::Protocol(_)), "{err}");
    }

    #[test]
    fn coordinator_rejects_incoming_data() {
        // A confused/malicious provider streams data to the coordinator:
        // the coordinator must abort with a protocol error, never decode it.
        let hub = InMemoryHub::new();
        let coord_node = Node::new(hub.endpoint(PartyId(2)), 7);
        let p0 = Node::new(hub.endpoint(PartyId(0)), 7);
        let _p1 = hub.endpoint(PartyId(1));
        let _miner = hub.endpoint(PartyId(100));
        let sc = harness(
            vec![PartyId(0), PartyId(1), PartyId(2)],
            SapConfig {
                timeout: Duration::from_millis(500),
                ..SapConfig::quick_test()
            },
        );

        link::tests::send_dataset(&p0, PartyId(2), false, SlotTag(9), &tiny_dataset(), 8).unwrap();

        let err = run_coordinator(&coord_node, &tiny_dataset(), &sc.ctx()).unwrap_err();
        assert!(
            err.to_string().contains("unexpected perturbed-data"),
            "{err}"
        );
    }

    /// A stream opened toward the coordinator is refused at its header:
    /// the error arrives before any block does, well within the receive
    /// timeout, and the ledger shows the attempt.
    #[test]
    fn coordinator_rejects_stream_at_its_header() {
        use crate::link::DataHeader;
        use sap_net::SessionId;

        let hub = InMemoryHub::new();
        let coord_node = Node::new(hub.endpoint(PartyId(2)), 7);
        let p0 = Node::new(hub.endpoint(PartyId(0)), 7);
        let _p1 = hub.endpoint(PartyId(1));
        let _miner = hub.endpoint(PartyId(100));
        let timeout = Duration::from_secs(2);
        let sc = harness(
            vec![PartyId(0), PartyId(1), PartyId(2)],
            SapConfig {
                timeout,
                ..SapConfig::quick_test()
            },
        );
        let header = DataHeader {
            session: SessionId::SOLO,
            relay: false,
            slot: SlotTag(9),
            rows: 24,
            dim: 2,
            num_classes: 2,
        };
        // The header goes out; no block ever follows it.
        let _stream = p0.begin_stream(PartyId(2), &header, false).unwrap();

        let start = std::time::Instant::now();
        let err = run_coordinator(&coord_node, &tiny_dataset(), &sc.ctx()).unwrap_err();
        assert!(
            matches!(&err, SapError::Protocol(what) if what.contains("unexpected perturbed-data")),
            "{err}"
        );
        assert!(
            start.elapsed() < timeout,
            "refused after {:?}: the header alone must abort",
            start.elapsed()
        );
        assert!(sc.audit.party_saw_data(PartyId(2)));
    }

    /// An adaptor whose dimension is not the target space's is refused on
    /// arrival instead of being forwarded to the miner.
    #[test]
    fn rejects_adaptor_of_wrong_dim() {
        let hub = InMemoryHub::new();
        let coord_node = Node::new(hub.endpoint(PartyId(2)), 7);
        let p0 = Node::new(hub.endpoint(PartyId(0)), 7);
        let _p1 = hub.endpoint(PartyId(1));
        let _miner = hub.endpoint(PartyId(100));
        let sc = harness(
            vec![PartyId(0), PartyId(1), PartyId(2)],
            SapConfig {
                timeout: Duration::from_millis(500),
                ..SapConfig::quick_test()
            },
        );
        let mut rng = StdRng::seed_from_u64(3);
        let wide = SpaceAdaptor::between(
            &Perturbation::random(3, &mut rng),
            &Perturbation::random(3, &mut rng),
        )
        .unwrap();
        p0.send_msg(PartyId(2), &SapMessage::Adaptor { adaptor: wide })
            .unwrap();

        let err = run_coordinator(&coord_node, &tiny_dataset(), &sc.ctx()).unwrap_err();
        assert!(
            matches!(&err, SapError::Protocol(what) if what.contains("dim 3")),
            "{err}"
        );
    }

    /// The adaptor table reaches the miner sorted by slot, so its order
    /// says nothing about which provider owns which slot.
    #[test]
    fn adaptor_table_reaches_the_miner_sorted_by_slot() {
        let providers: Vec<PartyId> = (0..5).map(PartyId).collect();
        for seed in 1..=3 {
            let hub = InMemoryHub::new();
            let coord_node = Node::new(hub.endpoint(PartyId(4)), 7);
            let miner = Node::new(hub.endpoint(PartyId(100)), 7);
            let mut rng = StdRng::seed_from_u64(seed);
            let peers: Vec<_> = providers[..4]
                .iter()
                .map(|&p| Node::new(hub.endpoint(p), 7))
                .collect();
            for peer in &peers {
                let adaptor = SpaceAdaptor::between(
                    &Perturbation::random(2, &mut rng),
                    &Perturbation::random(2, &mut rng),
                )
                .unwrap();
                peer.send_msg(PartyId(4), &SapMessage::Adaptor { adaptor })
                    .unwrap();
            }
            let sc = harness(
                providers.clone(),
                SapConfig {
                    seed,
                    timeout: Duration::from_secs(5),
                    ..SapConfig::quick_test()
                },
            );
            let table = std::thread::scope(|scope| {
                let coordinator =
                    scope.spawn(|| run_coordinator(&coord_node, &tiny_dataset(), &sc.ctx()));
                let (from, table): (PartyId, SapMessage) = miner.recv_msg().unwrap();
                assert_eq!(from, PartyId(4));
                miner
                    .send_msg(
                        PartyId(4),
                        &SapMessage::MiningComplete { unified_records: 0 },
                    )
                    .unwrap();
                coordinator.join().unwrap().unwrap();
                table
            });
            let SapMessage::AdaptorTable { entries } = table else {
                panic!("expected the adaptor table");
            };
            let slots: Vec<SlotTag> = entries.iter().map(|(slot, _)| *slot).collect();
            assert_eq!(slots.len(), 5);
            assert!(
                slots.windows(2).all(|w| w[0] < w[1]),
                "seed {seed}: table in slot order {slots:?}"
            );
        }
    }

    #[test]
    fn times_out_when_adaptors_missing() {
        let hub = InMemoryHub::new();
        let coord_node = Node::new(hub.endpoint(PartyId(2)), 7);
        let _p0 = hub.endpoint(PartyId(0));
        let _p1 = hub.endpoint(PartyId(1));
        let _miner = hub.endpoint(PartyId(100));
        let sc = harness(
            vec![PartyId(0), PartyId(1), PartyId(2)],
            SapConfig {
                timeout: Duration::from_millis(50),
                ..SapConfig::quick_test()
            },
        );
        let err = run_coordinator(&coord_node, &tiny_dataset(), &sc.ctx()).unwrap_err();
        assert!(
            matches!(
                err,
                SapError::Timeout {
                    phase: "adaptor collection",
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn cancellation_unwinds_waiting_coordinator() {
        // A coordinator blocked in adaptor collection observes the
        // session token's cancellation within a poll slice — long before
        // its own 30 s receive timeout.
        let hub = InMemoryHub::new();
        let coord_node = Node::new(hub.endpoint(PartyId(2)), 7);
        let _p0 = hub.endpoint(PartyId(0));
        let _p1 = hub.endpoint(PartyId(1));
        let _miner = hub.endpoint(PartyId(100));
        let sc = harness(
            vec![PartyId(0), PartyId(1), PartyId(2)],
            SapConfig {
                timeout: Duration::from_secs(30),
                ..SapConfig::quick_test()
            },
        );
        let deadline = sc.deadline.clone();
        let canceller = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(100));
            deadline.cancel();
        });
        let start = std::time::Instant::now();
        let err = run_coordinator(&coord_node, &tiny_dataset(), &sc.ctx()).unwrap_err();
        canceller.join().unwrap();
        assert!(matches!(err, SapError::Cancelled { .. }), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "cancellation must beat the 30 s receive timeout"
        );
    }
}
