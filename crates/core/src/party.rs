//! The data-provider actor.
//!
//! Each provider runs [`run_provider`] on its own thread with its private
//! local dataset. The provider:
//!
//! 1. locally optimizes its geometric perturbation `Gᵢ` (randomized
//!    optimizer over the attack suite),
//! 2. waits for the coordinator's [`SapMessage::Setup`] (target space `G_t`,
//!    slot tag, exchange assignment),
//! 3. perturbs its data with `Gᵢ` and streams it to the assigned receiver
//!    as row blocks,
//! 4. relays every dataset stream it receives to the miner **without
//!    opening it** (its owner sealed each row block toward the miner),
//! 5. sends its space adaptor `A_it` to the coordinator,
//! 6. evaluates its satisfaction `sᵢ = ρᵢᴳ / ρᵢ` locally.
//!
//! The actor is generic over the transport, so the same code
//! runs over the in-memory hub, the fault injector, and real TCP.

use crate::error::SapError;
use crate::link::{self, DataHeader, FlowInbound};
use crate::messages::{SapMessage, SlotTag};
use crate::session::{ProviderReport, RoleCtx};
use crate::stream::StreamMonitor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sap_datasets::Dataset;
use sap_linalg::Matrix;
use sap_net::frame::SealedBlock;
use sap_net::node::{Node, StreamHandle};
use sap_net::{PartyId, Transport};
use sap_perturb::{GeometricPerturbation, Perturbation, SpaceAdaptor};
use sap_privacy::engine;
use sap_privacy::optimize::evaluate_perturbation;
use std::collections::{HashMap, HashSet};

/// Runs the provider role to completion. The [`RoleCtx`] carries the
/// session's configuration, roster, observability, and liveness regime —
/// every blocking receive observes the session-wide deadline and fails
/// fast with [`SapError::PeerFailure`] when a roster peer dies.
///
/// # Errors
///
/// Returns [`SapError`] on timeout, peer failure, cancellation,
/// messaging failure, or protocol violation (wrong message kind,
/// dimension mismatch).
pub fn run_provider<T: Transport>(
    node: &Node<T>,
    data: &Dataset,
    ctx: &RoleCtx<'_>,
) -> Result<ProviderReport, SapError> {
    let me = node.id();
    let config = ctx.config;
    let coordinator = ctx.roster.coordinator();
    let x = data.to_column_matrix();
    let mut rng = StdRng::seed_from_u64(config.seed ^ me.0.wrapping_mul(0x9E37_79B9_7F4A_7C15));

    // Phase 1: local optimization through the exact engine.
    let engine_out = engine::run(&x, &config.optimizer, &mut rng)?;
    let opt = engine_out.result;
    let g_local = opt.perturbation.clone();
    let rho_local = opt.privacy_guarantee;

    // Phases 2–4: setup, own-data send, relay.
    let target = exchange(node, data, &x, &g_local, ctx, &mut rng)?;

    // Phase 5: space adaptor to the coordinator.
    let adaptor = SpaceAdaptor::between(g_local.base(), &target)
        .map_err(|e| SapError::Protocol(format!("adaptor construction failed: {e}")))?;
    node.send_msg(coordinator, &SapMessage::Adaptor { adaptor })
        .map_err(SapError::from)?;

    // Phase 6: satisfaction — privacy of my data under the unified space
    // (target rotation/translation with the inherited noise level).
    let g_unified = GeometricPerturbation::new(target, g_local.noise());
    let rho_unified = evaluate_perturbation(&x, &g_unified, &config.optimizer, &mut rng);
    let satisfaction = if rho_local > 1e-12 {
        rho_unified / rho_local
    } else {
        1.0
    };

    Ok(ProviderReport {
        provider: me,
        rho_local,
        rho_unified,
        satisfaction,
        optimizer: engine_out.stats,
    })
}

/// Phases 2–4: one event loop that forwards incoming row blocks to the
/// miner **as they arrive** (the relay pump), perturbs the provider's own
/// data block-by-block while sending, and accepts setup whenever the
/// coordinator's frame lands — the relay hop is pipelined instead of
/// store-and-forward.
fn exchange<T: Transport>(
    node: &Node<T>,
    data: &Dataset,
    x: &Matrix,
    g_local: &GeometricPerturbation,
    ctx: &RoleCtx<'_>,
    rng: &mut StdRng,
) -> Result<Perturbation, SapError> {
    let me = node.id();
    let config = ctx.config;
    let audit = ctx.audit;
    let coordinator = ctx.roster.coordinator();
    let miner = ctx.roster.miner;
    let mut pump = RelayPump::new(node, miner, ctx.monitor);
    let mut setup: Option<(Perturbation, SlotTag, PartyId, u32)> = None;
    let mut sent_own = false;
    loop {
        if let Some((_, slot, send_data_to, expect)) = &setup {
            if !sent_own {
                // Phase 3, block-streamed: the noise is drawn up front for
                // the whole dataset (the RNG order of a whole-matrix
                // `perturb`), but the affine math runs one block at a
                // time, overlapped with the transport.
                let delta = g_local.noise().sample(x.rows(), x.cols(), rng);
                link::send_perturbed_dataset(
                    node,
                    *send_data_to,
                    miner,
                    *slot,
                    g_local,
                    x,
                    &delta,
                    data.labels(),
                    data.num_classes(),
                    config.block_rows,
                )?;
                sent_own = true;
                continue;
            }
            if pump.relayed() >= *expect && pump.idle() {
                break;
            }
        }
        let phase = if setup.is_some() {
            "data exchange"
        } else {
            "setup"
        };
        let (from, event) = link::recv_flow_ctx(node, ctx, phase)?;
        match event {
            FlowInbound::Msg(msg) => {
                audit.record(from, me, &msg);
                match msg {
                    SapMessage::Setup {
                        target,
                        slot,
                        send_data_to,
                        expect_incoming,
                    } if setup.is_none() => {
                        if from != coordinator {
                            return Err(SapError::Protocol(format!(
                                "setup from non-coordinator {from}"
                            )));
                        }
                        if target.dim() != data.dim() {
                            return Err(SapError::Protocol(format!(
                                "target dimension {} != local dimension {}",
                                target.dim(),
                                data.dim()
                            )));
                        }
                        setup = Some((target, slot, send_data_to, expect_incoming));
                    }
                    other => {
                        return Err(SapError::Protocol(format!(
                            "unexpected {} {}",
                            other.kind(),
                            if setup.is_some() {
                                "during data exchange"
                            } else {
                                "before setup"
                            }
                        )))
                    }
                }
            }
            FlowInbound::StreamStart {
                stream,
                header,
                last,
            } => {
                audit.record_kind(from, me, header.kind(), true, false);
                if header.relay {
                    return Err(SapError::Protocol(
                        "provider received a relayed-data stream".into(),
                    ));
                }
                pump.start(from, stream, header, last)?;
            }
            FlowInbound::StreamBlock {
                stream,
                block,
                last,
            } => pump.block(from, stream, block, last)?,
        }
    }
    Ok(setup.expect("loop exits only after setup").0)
}

/// Forwards inbound dataset streams to the miner block-by-block, while
/// they are still arriving: each inbound stream opens its own outbound
/// stream to the miner the moment its header lands, and every block goes
/// out, unopened, the moment it arrives, however the streams interleave.
struct RelayPump<'n, T: Transport> {
    node: &'n Node<T>,
    miner: PartyId,
    monitor: &'n StreamMonitor,
    /// The open outbound stream of each inbound `(sender, stream)`.
    live: HashMap<(PartyId, u64), StreamHandle>,
    /// Senders whose data stream has opened here.
    senders: HashSet<PartyId>,
    relayed: u32,
}

impl<'n, T: Transport> RelayPump<'n, T> {
    fn new(node: &'n Node<T>, miner: PartyId, monitor: &'n StreamMonitor) -> Self {
        RelayPump {
            node,
            miner,
            monitor,
            live: HashMap::new(),
            senders: HashSet::new(),
            relayed: 0,
        }
    }

    /// Streams fully forwarded to the miner.
    fn relayed(&self) -> u32 {
        self.relayed
    }

    /// `true` when no stream is being forwarded.
    fn idle(&self) -> bool {
        self.live.is_empty()
    }

    /// An inbound stream opened at this provider: open its outbound
    /// stream to the miner.
    fn start(
        &mut self,
        from: PartyId,
        stream: u64,
        header: DataHeader,
        last: bool,
    ) -> Result<(), SapError> {
        self.monitor.stream_opened();
        // Every owner's dataset is exchanged once, so an honest sender
        // streams here at most once; abort like the other protocol
        // violations.
        if !self.senders.insert(from) {
            return Err(SapError::Protocol(format!(
                "second data stream from {from}"
            )));
        }
        if last {
            // Empty stream (the miner will reject it, but the relay's job
            // is to forward unchanged).
            self.monitor.stream_closed();
        }
        let relay_header = DataHeader {
            relay: true,
            ..header
        };
        let handle = self.node.begin_stream(self.miner, &relay_header, last)?;
        if last {
            self.relayed += 1;
        } else {
            self.live.insert((from, stream), handle);
        }
        Ok(())
    }

    /// One inbound block arrived: forward it on its outbound stream.
    fn block(
        &mut self,
        from: PartyId,
        stream: u64,
        block: SealedBlock,
        last: bool,
    ) -> Result<(), SapError> {
        self.monitor.block_received();
        if last {
            self.monitor.stream_closed();
        }
        let handle = self
            .live
            .get_mut(&(from, stream))
            .ok_or_else(|| SapError::Protocol("stream block without an open stream".into()))?;
        self.node.forward_block(handle, block, last)?;
        self.monitor.block_pipelined();
        if last {
            self.live.remove(&(from, stream));
            self.relayed += 1;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditLog;
    use crate::link::tests::{decode, recv_stream};
    use crate::liveness::Roster;
    use crate::messages::SlotTag;
    use crate::session::{SapConfig, StandaloneCtx};
    use sap_net::transport::InMemoryHub;
    use sap_perturb::Perturbation;
    use std::time::Duration;

    /// A provider-0 harness: coordinator 1 (roster-last), peer 2,
    /// miner 100.
    fn harness(config: SapConfig) -> StandaloneCtx {
        StandaloneCtx::new(
            Roster::new(vec![PartyId(0), PartyId(2), PartyId(1)], PartyId(100)),
            config,
        )
    }

    fn tiny_dataset() -> Dataset {
        let records: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                vec![
                    (i % 7) as f64 / 7.0,
                    (i % 5) as f64 / 5.0,
                    (i % 3) as f64 / 3.0,
                ]
            })
            .collect();
        let labels: Vec<usize> = (0..30).map(|i| i % 2).collect();
        Dataset::new(records, labels)
    }

    fn quick_config() -> SapConfig {
        SapConfig {
            timeout: Duration::from_millis(500),
            ..SapConfig::quick_test()
        }
    }

    /// Drives a single provider through the protocol by hand from a fake
    /// coordinator + receiver + miner.
    #[test]
    fn provider_full_happy_path() {
        let hub = InMemoryHub::new();
        let secret = 7;
        let provider_node = Node::new(hub.endpoint(PartyId(0)), secret);
        let coord = Node::new(hub.endpoint(PartyId(1)), secret);
        let receiver = Node::new(hub.endpoint(PartyId(2)), secret);
        let miner = Node::new(hub.endpoint(PartyId(100)), secret);
        let audit = AuditLog::new();
        let data = tiny_dataset();
        let config = quick_config();

        let audit_p = audit.clone();
        let data_p = data.clone();
        let config_p = config.clone();
        let handle = std::thread::spawn(move || {
            let mut sc = harness(config_p);
            sc.audit = audit_p;
            run_provider(&provider_node, &data_p, &sc.ctx())
        });

        // Coordinator sends setup: provider 0 relays one incoming dataset.
        let mut rng = StdRng::seed_from_u64(3);
        let target = Perturbation::random(3, &mut rng);
        coord
            .send_msg(
                PartyId(0),
                &SapMessage::Setup {
                    target,
                    slot: SlotTag(11),
                    send_data_to: PartyId(2),
                    expect_incoming: 1,
                },
            )
            .unwrap();

        // The receiver gets the provider's perturbed data stream.
        let (_, header, blocks) = recv_stream(&receiver, config.timeout);
        assert_eq!(header.slot, SlotTag(11));
        assert!(!header.relay);
        let perturbed = decode(header, &blocks).unwrap();
        assert_eq!(perturbed.len(), data.len());
        assert_eq!(perturbed.labels(), data.labels());
        // Perturbed values differ from the original.
        assert_ne!(perturbed.record(0), data.record(0));

        // Feed the provider one dataset stream to relay.
        link::tests::send_dataset(
            &receiver,
            PartyId(0),
            false,
            SlotTag(22),
            &tiny_dataset(),
            8,
        )
        .unwrap();

        // Miner receives the relayed stream, bytes identical to the
        // original perturbed payload.
        let (from, relayed, blocks) = recv_stream(&miner, config.timeout);
        assert_eq!(from, PartyId(0));
        assert!(relayed.relay);
        assert_eq!(relayed.slot, SlotTag(22));
        assert_eq!(decode(relayed, &blocks).unwrap(), tiny_dataset());

        // Coordinator receives the adaptor.
        let (from, msg): (PartyId, SapMessage) = coord.recv_msg().unwrap();
        assert_eq!(from, PartyId(0));
        assert!(matches!(msg, SapMessage::Adaptor { .. }));

        let report = handle.join().unwrap().unwrap();
        assert_eq!(report.provider, PartyId(0));
        assert!(report.rho_local >= 0.0);
        assert!(report.satisfaction >= 0.0);
        assert_eq!(report.optimizer.candidates, config.optimizer.candidates);
    }

    #[test]
    fn provider_times_out_without_setup() {
        let hub = InMemoryHub::new();
        let provider_node = Node::new(hub.endpoint(PartyId(0)), 7);
        let sc = harness(SapConfig {
            timeout: Duration::from_millis(30),
            ..SapConfig::quick_test()
        });
        let err = run_provider(&provider_node, &tiny_dataset(), &sc.ctx()).unwrap_err();
        assert!(
            matches!(err, SapError::Timeout { phase: "setup", .. }),
            "{err}"
        );
    }

    #[test]
    fn provider_rejects_setup_from_impostor() {
        let hub = InMemoryHub::new();
        let provider_node = Node::new(hub.endpoint(PartyId(0)), 7);
        let impostor = Node::new(hub.endpoint(PartyId(5)), 7);
        let sc = harness(quick_config());

        let mut rng = StdRng::seed_from_u64(4);
        impostor
            .send_msg(
                PartyId(0),
                &SapMessage::Setup {
                    target: Perturbation::random(3, &mut rng),
                    slot: SlotTag(1),
                    send_data_to: PartyId(5),
                    expect_incoming: 0,
                },
            )
            .unwrap();
        let err = run_provider(&provider_node, &tiny_dataset(), &sc.ctx()).unwrap_err();
        assert!(matches!(err, SapError::Protocol(_)), "{err}");
    }

    #[test]
    fn provider_rejects_dimension_mismatch() {
        let hub = InMemoryHub::new();
        let provider_node = Node::new(hub.endpoint(PartyId(0)), 7);
        let coord = Node::new(hub.endpoint(PartyId(1)), 7);
        let sc = harness(quick_config());

        let mut rng = StdRng::seed_from_u64(5);
        coord
            .send_msg(
                PartyId(0),
                &SapMessage::Setup {
                    target: Perturbation::random(5, &mut rng), // data is 3-dim
                    slot: SlotTag(1),
                    send_data_to: PartyId(1),
                    expect_incoming: 0,
                },
            )
            .unwrap();
        let err = run_provider(&provider_node, &tiny_dataset(), &sc.ctx()).unwrap_err();
        assert!(err.to_string().contains("dimension"), "{err}");
    }

    #[test]
    fn provider_fails_fast_when_roster_peer_dies() {
        // The provider is blocked waiting for setup on a long timeout;
        // its coordinator dies. The typed PeerFailure must arrive in
        // O(detection), not O(timeout) — and a stranger's death first
        // must be ignored.
        let hub = InMemoryHub::new();
        let provider_node = Node::new(hub.endpoint(PartyId(0)), 7);
        let _coord = hub.endpoint(PartyId(1));
        let _stranger = hub.endpoint(PartyId(77));
        let sc = harness(SapConfig {
            timeout: Duration::from_secs(60),
            ..SapConfig::quick_test()
        });
        let hub_clone = hub.clone();
        let killer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            hub_clone.kill(PartyId(77)); // not on the roster: ignored
            hub_clone.kill(PartyId(1)); // the coordinator: fatal
        });
        let start = std::time::Instant::now();
        let err = run_provider(&provider_node, &tiny_dataset(), &sc.ctx()).unwrap_err();
        killer.join().unwrap();
        assert!(
            matches!(
                err,
                SapError::PeerFailure {
                    party: PartyId(1),
                    phase: "setup"
                }
            ),
            "{err}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "peer failure must beat the 60 s receive timeout"
        );
    }

    /// A sender opening a second data stream must abort with a protocol
    /// error — never open a second outbound stream or panic the role.
    #[test]
    fn relay_pump_rejects_second_stream_from_queued_sender() {
        let hub = InMemoryHub::new();
        let node = Node::new(hub.endpoint(PartyId(0)), 7);
        let sender = Node::new(hub.endpoint(PartyId(2)), 7);
        let _miner = hub.endpoint(PartyId(100));
        let monitor = StreamMonitor::new();
        let mut pump = RelayPump::new(&node, PartyId(100), &monitor);
        // Parties 1 and 2 both stream; party 2 finishes its stream.
        pump.start(PartyId(1), 1, header(SlotTag(1)), false)
            .unwrap();
        let mut out = sender
            .begin_stream(PartyId(0), &header(SlotTag(2)), false)
            .unwrap();
        let seal = sender.seal_toward(PartyId(100), 2);
        sender
            .stream_block_with(&mut out, seal, 4, true, |o| {
                o.extend_from_slice(&[1, 0, 0, 0])
            })
            .unwrap();
        for _ in 0..2 {
            match link::recv_flow(&node, Duration::from_secs(2)).unwrap() {
                (
                    from,
                    FlowInbound::StreamStart {
                        stream,
                        header,
                        last,
                    },
                ) => pump.start(from, stream, header, last).unwrap(),
                (
                    from,
                    FlowInbound::StreamBlock {
                        stream,
                        block,
                        last,
                    },
                ) => pump.block(from, stream, block, last).unwrap(),
                (_, other) => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(pump.relayed(), 1);
        // Party 2 opens another stream.
        let err = pump
            .start(PartyId(2), 2, header(SlotTag(3)), false)
            .unwrap_err();
        assert!(err.to_string().contains("second data stream"), "{err}");
    }

    fn header(slot: SlotTag) -> DataHeader {
        DataHeader {
            session: sap_net::SessionId::SOLO,
            relay: false,
            slot,
            rows: 8,
            dim: 2,
            num_classes: 2,
        }
    }

    /// Two inbound streams whose blocks interleave one by one leave as two
    /// outbound streams open at once: each block is forwarded the moment
    /// it arrives, and the miner's node reassembles both streams
    /// byte-identically.
    #[test]
    fn relay_pump_forwards_interleaved_streams_live() {
        let hub = InMemoryHub::new();
        let relay = Node::new(hub.endpoint(PartyId(0)), 7);
        let senders = [
            Node::new(hub.endpoint(PartyId(1)), 7),
            Node::new(hub.endpoint(PartyId(2)), 7),
        ];
        let miner = Node::new(hub.endpoint(PartyId(100)), 7);
        let monitor = StreamMonitor::new();
        let mut pump = RelayPump::new(&relay, PartyId(100), &monitor);
        let timeout = Duration::from_secs(2);
        let block = |sender: usize, i: u8| vec![sender as u8 * 16 + i; 4 + usize::from(i)];

        let mut outbound: Vec<StreamHandle> = senders
            .iter()
            .enumerate()
            .map(|(s, node)| {
                node.begin_stream(PartyId(0), &header(SlotTag(s as u64 + 1)), false)
                    .unwrap()
            })
            .collect();
        for i in 0..3u8 {
            for (s, node) in senders.iter().enumerate() {
                let seal = node.seal_toward(PartyId(100), s as u64 + 1);
                node.stream_block_with(&mut outbound[s], seal, 8, i == 2, |out| {
                    out.extend_from_slice(&block(s, i))
                })
                .unwrap();
            }
        }

        // The miner's view of each forwarded stream, by its stream id.
        let mut at_miner: HashMap<u64, (DataHeader, Vec<Vec<u8>>, bool)> = HashMap::new();
        for _ in 0..senders.len() * 4 {
            match link::recv_flow(&relay, timeout).unwrap() {
                (
                    from,
                    FlowInbound::StreamStart {
                        stream,
                        header,
                        last,
                    },
                ) => {
                    pump.start(from, stream, header, last).unwrap();
                }
                (
                    from,
                    FlowInbound::StreamBlock {
                        stream,
                        block,
                        last,
                    },
                ) => {
                    pump.block(from, stream, block, last).unwrap();
                }
                (_, other) => panic!("unexpected {other:?}"),
            }
            // Forwarded live: each inbound frame has already left.
            let (from, flow) = link::recv_flow(&miner, timeout).unwrap();
            assert_eq!(from, PartyId(0));
            match flow {
                FlowInbound::StreamStart {
                    stream,
                    header,
                    last,
                } => {
                    assert!(at_miner
                        .insert(stream, (header, Vec::new(), last))
                        .is_none());
                }
                FlowInbound::StreamBlock {
                    stream,
                    block,
                    last,
                } => {
                    let (header, blocks, done) = at_miner.get_mut(&stream).unwrap();
                    assert!(!*done);
                    let seal = miner.seal_toward(PartyId(100), header.slot.0);
                    blocks.push(miner.open_block(block, seal).unwrap().to_vec());
                    *done = last;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(pump.idle());
        assert_eq!(pump.relayed(), 2);
        let stats = monitor.snapshot();
        assert_eq!((stats.blocks_streamed, stats.pipelined_blocks), (6, 6));
        assert_eq!(stats.max_streams_in_flight, 2);

        let mut forwarded: Vec<_> = at_miner.into_values().collect();
        forwarded.sort_by_key(|(header, ..)| header.slot);
        for (s, (header, blocks, done)) in forwarded.into_iter().enumerate() {
            assert!(done && header.relay);
            assert_eq!(header.slot, SlotTag(s as u64 + 1));
            assert_eq!(blocks, (0..3).map(|i| block(s, i)).collect::<Vec<_>>());
        }
    }

    #[test]
    fn provider_rejects_relayed_stream() {
        let hub = InMemoryHub::new();
        let provider_node = Node::new(hub.endpoint(PartyId(0)), 7);
        let peer = Node::new(hub.endpoint(PartyId(2)), 7);
        let sc = harness(quick_config());

        link::tests::send_dataset(&peer, PartyId(0), true, SlotTag(2), &tiny_dataset(), 8).unwrap();
        let err = run_provider(&provider_node, &tiny_dataset(), &sc.ctx()).unwrap_err();
        assert!(err.to_string().contains("relayed-data"), "{err}");
    }
}
