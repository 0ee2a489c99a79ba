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
//!    decoding it** (the anonymizing hop forwards sealed row blocks),
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
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sap_datasets::Dataset;
use sap_linalg::Matrix;
use sap_net::node::{Node, StreamHandle};
use sap_net::{PartyId, Transport};
use sap_perturb::{GeometricPerturbation, Perturbation, SpaceAdaptor};
use sap_privacy::engine;
use sap_privacy::optimize::evaluate_perturbation;
use std::collections::{HashMap, VecDeque};

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

    // Phase 1: local optimization through the staged, parallel engine.
    let engine_out = engine::run(&x, &config.optimizer, &mut rng)?;
    let opt = engine_out.result;
    let g_local = opt.perturbation.clone();
    let rho_local = opt.privacy_guarantee;

    // Phases 2–4: setup, own-data send, relay.
    let target = exchange(node, data, &x, &g_local, ctx, &mut rng)?;

    // Phase 5: space adaptor to the coordinator.
    let adaptor = SpaceAdaptor::between(g_local.base(), &target)
        .map_err(|e| SapError::Protocol(format!("adaptor construction failed: {e}")))?;
    link::send_message(
        node,
        coordinator,
        &SapMessage::Adaptor { adaptor },
        config.block_rows,
    )?;

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
        optimizer_history: opt.history,
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
            FlowInbound::StreamStart { header, last } => {
                audit.record_kind(
                    from,
                    me,
                    if header.relay {
                        "relayed-data"
                    } else {
                        "perturbed-data"
                    },
                    true,
                    false,
                );
                if header.relay {
                    return Err(SapError::Protocol(
                        "provider received a relayed-data stream".into(),
                    ));
                }
                pump.start(from, header, last)?;
            }
            FlowInbound::StreamBlock { bytes, last } => pump.block(from, bytes, last)?,
        }
    }
    Ok(setup.expect("loop exits only after setup").0)
}

/// State of one inbound stream waiting for (or buffered behind) the
/// single outbound relay lane to the miner.
struct PendingRelay {
    header: DataHeader,
    blocks: Vec<Bytes>,
    done: bool,
}

/// Forwards inbound dataset streams to the miner block-by-block, while
/// they are still arriving. One outbound stream per peer may be open at a
/// time (receivers reassemble per sender), so when several inbound
/// streams interleave, the first goes through *live* and the rest buffer
/// until the lane frees — still overlapping their tails once promoted.
struct RelayPump<'n, T: Transport> {
    node: &'n Node<T>,
    miner: PartyId,
    monitor: &'n StreamMonitor,
    /// The inbound sender whose blocks are being forwarded live, and the
    /// open outbound stream carrying them.
    live: Option<(PartyId, StreamHandle)>,
    /// Senders whose streams wait for the lane, FIFO.
    waiting: VecDeque<PartyId>,
    pending: HashMap<PartyId, PendingRelay>,
    relayed: u32,
}

impl<'n, T: Transport> RelayPump<'n, T> {
    fn new(node: &'n Node<T>, miner: PartyId, monitor: &'n StreamMonitor) -> Self {
        RelayPump {
            node,
            miner,
            monitor,
            live: None,
            waiting: VecDeque::new(),
            pending: HashMap::new(),
            relayed: 0,
        }
    }

    /// Streams fully forwarded to the miner.
    fn relayed(&self) -> u32 {
        self.relayed
    }

    /// `true` when nothing is being forwarded or waiting.
    fn idle(&self) -> bool {
        self.live.is_none() && self.waiting.is_empty()
    }

    /// An inbound stream opened at this provider.
    fn start(&mut self, from: PartyId, header: DataHeader, last: bool) -> Result<(), SapError> {
        self.monitor.stream_opened();
        // A sender opening a new stream while its previous one is still
        // queued or live would corrupt the pending buffer (the frame
        // layer only rejects a new header *mid*-stream). Honest senders
        // stream once; abort like the other protocol violations.
        if self.pending.contains_key(&from)
            || self
                .live
                .as_ref()
                .is_some_and(|(sender, _)| *sender == from)
        {
            return Err(SapError::Protocol(format!(
                "second data stream from {from} while its first is still relaying"
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
        if self.live.is_none() && self.waiting.is_empty() {
            if last {
                self.node.begin_stream(self.miner, &relay_header, true)?;
                self.relayed += 1;
            } else {
                let handle = self.node.begin_stream(self.miner, &relay_header, false)?;
                self.live = Some((from, handle));
            }
        } else {
            self.pending.insert(
                from,
                PendingRelay {
                    header,
                    blocks: Vec::new(),
                    done: last,
                },
            );
            self.waiting.push_back(from);
        }
        Ok(())
    }

    /// One inbound block arrived; forward it live or buffer it.
    fn block(&mut self, from: PartyId, bytes: Bytes, last: bool) -> Result<(), SapError> {
        self.monitor.block_received();
        if last {
            self.monitor.stream_closed();
        }
        if let Some((sender, handle)) = self.live.as_mut() {
            if *sender == from {
                self.node.stream_block(handle, bytes, last)?;
                self.monitor.block_pipelined();
                if last {
                    self.live = None;
                    self.relayed += 1;
                    self.drain_waiting()?;
                }
                return Ok(());
            }
        }
        let pending = self
            .pending
            .get_mut(&from)
            .ok_or_else(|| SapError::Protocol("stream block without an open stream".into()))?;
        pending.blocks.push(bytes);
        if last {
            pending.done = true;
        }
        if self.live.is_none() {
            self.drain_waiting()?;
        }
        Ok(())
    }

    /// Promotes waiting streams onto the free lane: complete ones are
    /// sent whole; the first incomplete one is flushed and goes live for
    /// the rest of its blocks.
    fn drain_waiting(&mut self) -> Result<(), SapError> {
        while self.live.is_none() {
            let Some(front) = self.waiting.pop_front() else {
                break;
            };
            let pending = self
                .pending
                .remove(&front)
                .expect("waiting senders have pending state");
            let relay_header = DataHeader {
                relay: true,
                ..pending.header
            };
            if pending.done {
                self.node
                    .send_stream(self.miner, &relay_header, pending.blocks)?;
                self.relayed += 1;
            } else {
                let mut handle = self.node.begin_stream(self.miner, &relay_header, false)?;
                for block in pending.blocks {
                    // None of these is the stream's last block (the
                    // stream is not done), so the lane stays open.
                    self.node.stream_block(&mut handle, block, false)?;
                }
                self.live = Some((front, handle));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::AuditLog;
    use crate::link::Inbound;
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
        let (_, inbound) = link::recv_message(&receiver, config.timeout).unwrap();
        let Inbound::Data(stream) = inbound else {
            panic!("expected perturbed data stream");
        };
        assert_eq!(stream.header.slot, SlotTag(11));
        assert!(!stream.header.relay);
        let perturbed = stream.into_dataset().unwrap();
        assert_eq!(perturbed.len(), data.len());
        assert_eq!(perturbed.labels(), data.labels());
        // Perturbed values differ from the original.
        assert_ne!(perturbed.record(0), data.record(0));

        // Feed the provider one dataset stream to relay.
        link::send_dataset(
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
        let (from, inbound) = link::recv_message(&miner, config.timeout).unwrap();
        assert_eq!(from, PartyId(0));
        let Inbound::Data(relayed) = inbound else {
            panic!("expected relayed stream");
        };
        assert!(relayed.header.relay);
        assert_eq!(relayed.header.slot, SlotTag(22));
        assert_eq!(relayed.into_dataset().unwrap(), tiny_dataset());

        // Coordinator receives the adaptor.
        let (from, msg): (PartyId, SapMessage) = coord.recv_msg().unwrap();
        assert_eq!(from, PartyId(0));
        assert!(matches!(msg, SapMessage::Adaptor { .. }));

        let report = handle.join().unwrap().unwrap();
        assert_eq!(report.provider, PartyId(0));
        assert!(report.rho_local >= 0.0);
        assert!(report.satisfaction >= 0.0);
        assert_eq!(report.optimizer_history.len(), config.optimizer.candidates);
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

    /// A sender opening a second stream while its first still waits for
    /// the relay lane must abort with a protocol error — never corrupt
    /// the pending buffer or panic the role.
    #[test]
    fn relay_pump_rejects_second_stream_from_queued_sender() {
        use sap_net::SessionId;

        let hub = InMemoryHub::new();
        let node = Node::new(hub.endpoint(PartyId(0)), 7);
        let _miner = hub.endpoint(PartyId(100));
        let monitor = StreamMonitor::new();
        let mut pump = RelayPump::new(&node, PartyId(100), &monitor);
        let header = |slot| DataHeader {
            session: SessionId::SOLO,
            relay: false,
            slot,
            rows: 8,
            dim: 2,
            num_classes: 2,
        };
        // Party 1's stream takes the lane; party 2 queues behind it and
        // finishes its inbound stream while waiting.
        pump.start(PartyId(1), header(SlotTag(1)), false).unwrap();
        pump.start(PartyId(2), header(SlotTag(2)), false).unwrap();
        pump.block(PartyId(2), Bytes::from_static(b"\x01\x00\x00\x00"), true)
            .unwrap();
        // Party 2 opens another stream while its first is still queued.
        let err = pump
            .start(PartyId(2), header(SlotTag(3)), false)
            .unwrap_err();
        assert!(err.to_string().contains("second data stream"), "{err}");
    }

    #[test]
    fn provider_rejects_relayed_stream() {
        let hub = InMemoryHub::new();
        let provider_node = Node::new(hub.endpoint(PartyId(0)), 7);
        let peer = Node::new(hub.endpoint(PartyId(2)), 7);
        let sc = harness(quick_config());

        link::send_dataset(&peer, PartyId(0), true, SlotTag(2), &tiny_dataset(), 8).unwrap();
        let err = run_provider(&provider_node, &tiny_dataset(), &sc.ctx()).unwrap_err();
        assert!(err.to_string().contains("relayed-data"), "{err}");
    }
}
