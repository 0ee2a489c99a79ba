//! The replay: each production entry point on the sessions' blocking
//! path is called directly, repeatedly, on the first session's real
//! inputs, with a span around every call. The list of entry points is
//! fixed (README, "Entry points the replay may call"); nothing is
//! instrumented inside the crates.

use crate::check::Utility;
use crate::inputs::Inputs;
use crate::load::Tracer;
use crate::report::{ratio as rate, Values};
use crate::stats;
use bytes::Bytes;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sap_core::link::{self, DataHeader};
use sap_core::messages::{SapMessage, SlotTag};
use sap_core::session::{run_session, SapConfig, SapOutcome};
use sap_core::stream::{AdaptStage, BlockBuf, DatasetSink, StreamPipeline};
use sap_datasets::Dataset;
use sap_ica::fastica::{FastIca, FastIcaConfig};
use sap_linalg::eigen::SymmetricEigen;
use sap_net::crypto::ChannelKey;
use sap_net::frame::{self, Frame, FrameKind};
use sap_net::tcp::local_mesh;
use sap_net::{InMemoryHub, Node, NodeFlow, PartyId, SessionId, Transport};
use sap_perturb::{GeometricPerturbation, SpaceAdaptor};
use sap_privacy::optimize::optimize;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Repetitions per entry point: at least `MIN_REPS`, then more until the
/// entry's time budget is spent or `MAX_REPS` is reached.
const MIN_REPS: usize = 5;
const MAX_REPS: usize = 30;

/// Round trips of the small-message ping-pong per repetition.
const PING_PONGS: usize = 100;

const RECV_TIMEOUT: Duration = Duration::from_secs(30);
const MIB: f64 = 1024.0 * 1024.0;

struct Replay<'a> {
    tracer: &'a mut Tracer,
    root: Option<usize>,
    budget: Duration,
    /// The first entry point that returned an error, and the error.
    failure: Option<String>,
}

impl Replay<'_> {
    /// [`Replay::time`] for a call that can fail: the first failure is
    /// kept (a replay that errors measured nothing useful).
    fn time_fallible<R, E: std::fmt::Display>(
        &mut self,
        name: &'static str,
        mut call: impl FnMut() -> Result<R, E>,
    ) -> f64 {
        let mut failure = None;
        let median = self.time(name, || match call() {
            Ok(value) => Some(value),
            Err(e) => {
                failure.get_or_insert_with(|| format!("{name}: {e}"));
                None
            }
        });
        self.failure = self.failure.take().or(failure);
        median
    }

    /// Median wall time of `call`, one span per repetition.
    fn time<R>(&mut self, name: &'static str, mut call: impl FnMut() -> R) -> f64 {
        let began = Instant::now();
        let mut samples = Vec::with_capacity(MAX_REPS);
        while samples.len() < MIN_REPS
            || (samples.len() < MAX_REPS && began.elapsed() < self.budget)
        {
            let start = Instant::now();
            black_box(call());
            let end = Instant::now();
            self.tracer.record(name, start, end, self.root, 0);
            samples.push((end - start).as_secs_f64());
        }
        stats::median(&samples)
    }
}

/// Sends `blocks` as one stream from `a` to `b` and drains it there —
/// what a provider→receiver hop does, minus the maths.
fn stream_once<T: Transport>(
    a: &Node<T>,
    b: &Node<T>,
    header: &DataHeader,
    blocks: &[Bytes],
) -> Result<(), String> {
    std::thread::scope(|scope| {
        let receiver = scope.spawn(move || -> Result<(), String> {
            loop {
                let (_, flow) = b
                    .recv_flow_timeout::<SapMessage, DataHeader>(RECV_TIMEOUT)
                    .map_err(|e| e.to_string())?;
                match flow {
                    NodeFlow::StreamStart { last: true, .. }
                    | NodeFlow::StreamBlock { last: true, .. } => return Ok(()),
                    NodeFlow::Msg(_) => return Err("message inside a stream".into()),
                    _ => {}
                }
            }
        });
        let sent = a
            .send_stream(b.id(), header, blocks.iter().cloned())
            .map_err(|e| e.to_string());
        let received = receiver
            .join()
            .map_err(|_| "stream receiver panicked".to_string())?;
        sent.and(received)
    })
}

/// `PING_PONGS` request/reply pairs of the protocol's smallest message.
fn ping_pong<T: Transport>(a: &Node<T>, b: &Node<T>) -> Result<(), String> {
    let ping = SapMessage::MiningComplete { unified_records: 1 };
    std::thread::scope(|scope| {
        let echo = scope.spawn(move || -> Result<(), String> {
            for _ in 0..PING_PONGS {
                let (from, msg) = b
                    .recv_msg_timeout::<SapMessage>(RECV_TIMEOUT)
                    .map_err(|e| e.to_string())?;
                b.send_msg(from, &msg).map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        let mut result = Ok(());
        for _ in 0..PING_PONGS {
            result = a
                .send_msg(b.id(), &ping)
                .and_then(|()| a.recv_msg_timeout::<SapMessage>(RECV_TIMEOUT).map(drop))
                .map_err(|e| e.to_string());
            if result.is_err() {
                break;
            }
        }
        let echoed = echo
            .join()
            .map_err(|_| "echo thread panicked".to_string())?;
        result.and(echoed)
    })
}

/// Replays the entry points on `inputs` (the first session's data) under
/// `config` (its protocol settings) and returns the replay's per-layer
/// metrics. `served` is that session's outcome, `utility` its mining
/// check. `budget` bounds the time spent per entry point.
pub fn run(
    inputs: &Inputs,
    config: &SapConfig,
    served: &SapOutcome,
    utility: &Utility,
    host_cores: usize,
    budget: Duration,
    tracer: &mut Tracer,
) -> Result<Values, String> {
    let began = Instant::now();
    let root = tracer.open("replay", began, None, 0);
    let mut replay = Replay {
        tracer,
        root,
        budget,
        failure: None,
    };
    let mut v = Values::default();
    let mut rng = StdRng::seed_from_u64(config.seed);

    // One provider's share of the session.
    let local: &Dataset = &inputs.locals[0];
    let (n, d) = (local.len(), local.dim());
    let providers = inputs.locals.len();
    let x = local.to_column_matrix(); // d × n
    let block_rows = config.block_rows.max(1);
    let blocks: Vec<(usize, usize)> = (0..n)
        .step_by(block_rows)
        .map(|start| (start, (start + block_rows).min(n)))
        .collect();

    // linalg: rows×d · d×d is the data plane's regime, d×d · d×N the
    // optimizer's (N = its evaluation sample).
    let eval = config.optimizer.eval_sample.clamp(2, n);
    let x_eval = x.submatrix(0..d, 0..eval);
    let x_tall = x.transpose();
    let rotation = served.target.rotation().clone();
    let tall_s = replay.time("linalg.matmul_tall", || x_tall.matmul(&rotation));
    v.set(
        "linalg.matmul_tall_gflops",
        rate(2.0 * (n * d * d) as f64 / 1e9, tall_s),
    );
    let wide_s = replay.time("linalg.matmul_wide", || rotation.matmul(&x_eval));
    v.set(
        "linalg.matmul_wide_gflops",
        rate(2.0 * (eval * d * d) as f64 / 1e9, wide_s),
    );
    v.set(
        "linalg.covariance_s",
        replay.time("linalg.covariance", || x_eval.column_covariance()),
    );
    let covariance = x_eval.column_covariance();
    v.set(
        "linalg.eigen_s",
        replay.time("linalg.eigen", || SymmetricEigen::new(&covariance)),
    );
    // A fit that does not converge still costs its iterations; only the
    // time is of interest here.
    let ica_config = FastIcaConfig::default();
    v.set(
        "ica.fastica_fit_s",
        replay.time("ica.fastica_fit", || {
            FastIca::fit(&x_eval, &ica_config, &mut rng).is_ok()
        }),
    );

    // privacy: one provider's optimizer run.
    let optimize_s = replay.time("privacy.optimize", || {
        optimize(&x, &config.optimizer, &mut rng).map(|o| o.privacy_guarantee)
    });
    v.set("privacy.optimize_s", optimize_s);

    // perturb → encode → seal → open → decode → adapt, block by block as
    // the streaming data plane does it.
    let g = GeometricPerturbation::random(d, config.noise_sigma, &mut rng);
    let delta = g.noise().sample(d, n, &mut rng);
    let mut scratch = Vec::new();
    let perturb_s = replay.time("perturb.perturb_records", || {
        for &(start, end) in &blocks {
            g.perturb_records_into(&x, &delta, start..end, &mut scratch);
        }
        scratch.len()
    });
    v.set("perturb.perturb_rows_per_s", rate(n as f64, perturb_s));

    let mut wire = Vec::new();
    let encode_s = replay.time("core.encode_block", || {
        for &(start, end) in &blocks {
            wire.clear();
            link::encode_block_into(local, start, end, &mut wire);
        }
        wire.len()
    });
    v.set("core.encode_rows_per_s", rate(n as f64, encode_s));

    let encoded: Vec<Bytes> = blocks
        .iter()
        .map(|&(start, end)| link::encode_block(local, start, end))
        .collect();
    let payload_bytes: usize = encoded.iter().map(Bytes::len).sum();
    let key = ChannelKey::derive(config.session_secret, 0, 1);
    let frames: Vec<Frame> = encoded
        .iter()
        .enumerate()
        .map(|(seq, payload)| Frame {
            kind: FrameKind::StreamBlock,
            msg_id: 1,
            seq: seq as u32,
            last: seq + 1 == encoded.len(),
            payload: payload.clone(),
        })
        .collect();
    let seal_s = replay.time("net.seal_frame", || {
        frames
            .iter()
            .enumerate()
            .map(|(nonce, f)| frame::seal_frame(key, nonce as u64, SessionId::SOLO, f).len())
            .sum::<usize>()
    });
    v.set("net.seal_mibps", rate(payload_bytes as f64 / MIB, seal_s));
    let sealed: Vec<Bytes> = frames
        .iter()
        .enumerate()
        .map(|(nonce, f)| frame::seal_frame(key, nonce as u64, SessionId::SOLO, f))
        .collect();
    let open_s = replay.time("net.open_frame", || {
        sealed
            .iter()
            .filter(|s| frame::open_frame(key, s).is_ok())
            .count()
    });
    v.set("net.open_mibps", rate(payload_bytes as f64 / MIB, open_s));

    let num_classes = local.num_classes();
    let mut buf = BlockBuf::default();
    let decode_s = replay.time("core.block_decode", || {
        encoded
            .iter()
            .filter(|b| buf.decode(b, d, num_classes).is_ok())
            .count()
    });
    v.set("core.decode_rows_per_s", rate(n as f64, decode_s));

    let adaptor = SpaceAdaptor::between(g.base(), &served.target).map_err(|e| e.to_string())?;
    let records: Vec<f64> = local.records().iter().flatten().copied().collect();
    let mut adapted = vec![0.0; records.len()];
    let adapt_s = replay.time("perturb.adapt_records", || {
        for &(start, end) in &blocks {
            adaptor.adapt_records(
                &records[start * d..end * d],
                &mut adapted[start * d..end * d],
            );
        }
        adapted.len()
    });
    v.set("perturb.adapt_rows_per_s", rate(n as f64, adapt_s));

    let header = DataHeader {
        session: SessionId::SOLO,
        relay: true,
        slot: SlotTag(1),
        rows: n as u64,
        dim: d as u32,
        num_classes: num_classes as u32,
    };
    let pipeline_s = replay.time_fallible(
        "core.stream_pipeline",
        || -> Result<usize, sap_core::SapError> {
            let stage = Box::new(AdaptStage::new(adaptor.clone()));
            let mut pipeline = StreamPipeline::open(header, vec![stage], DatasetSink::new())?;
            for block in &encoded {
                pipeline.push(block)?;
            }
            Ok(pipeline.finish()?.rows())
        },
    );
    v.set("core.pipeline_rows_per_s", rate(n as f64, pipeline_s));

    // net: the same blocks as one sealed stream over the hub and over
    // localhost TCP, and the small-message round trip over TCP.
    let hub = InMemoryHub::new();
    let (hub_a, hub_b) = (
        Node::new(hub.endpoint(PartyId(0)), config.session_secret),
        Node::new(hub.endpoint(PartyId(1)), config.session_secret),
    );
    let hub_s = replay.time_fallible("net.hub_stream", || {
        stream_once(&hub_a, &hub_b, &header, &encoded)
    });
    v.set(
        "net.hub_stream_mibps",
        rate(payload_bytes as f64 / MIB, hub_s),
    );

    let mut lanes = local_mesh(&[PartyId(0), PartyId(1)]).map_err(|e| e.to_string())?;
    let tcp_b = Node::new(lanes.pop().expect("two lanes"), config.session_secret);
    let tcp_a = Node::new(lanes.pop().expect("two lanes"), config.session_secret);
    let tcp_s = replay.time_fallible("net.tcp_stream", || {
        stream_once(&tcp_a, &tcp_b, &header, &encoded)
    });
    v.set(
        "net.tcp_stream_mibps",
        rate(payload_bytes as f64 / MIB, tcp_s),
    );
    let rtt_s = replay.time_fallible("net.small_msg_ping_pong", || ping_pong(&tcp_a, &tcp_b));
    v.set("net.small_msg_rtt_s", rtt_s / PING_PONGS as f64);

    // core: the whole session, alone on the hub — the floor under the
    // workload's session latency.
    let solo_s = replay.time_fallible("core.run_session", || {
        run_session(inputs.locals.clone(), config).map(|outcome| outcome.unified.len())
    });
    v.set("core.solo_session_s", solo_s);

    // The outside-in ledger: one provider's chain of stages (two sealed
    // hops: provider → receiver → miner), scaled by how many providers
    // must share a core, over the solo session's wall time.
    let chain_s = optimize_s
        + perturb_s
        + encode_s
        + 2.0 * (seal_s + open_s)
        + pipeline_s
        + 2.0 * blocks.len() as f64 * config_latency_s(config);
    let sharing = providers as f64 / providers.min(host_cores.max(1)) as f64;
    v.set("core.stage_sum_share", rate(chain_s * sharing, solo_s));

    // classify: measured once by the correctness gate's utility check.
    v.set("classify.knn_train_s", utility.train_s);
    v.set(
        "classify.knn_predict_rows_per_s",
        rate(utility.predicted_rows as f64, utility.predict_s),
    );
    v.set("classify.accuracy_original", utility.accuracy_original);
    v.set("classify.accuracy_delta", utility.delta());

    replay.tracer.close(root, Instant::now());
    match replay.failure {
        Some(why) => Err(format!("replay of {why}")),
        None => Ok(v),
    }
}

/// Injected one-way latency per send, if the session models a WAN link.
fn config_latency_s(config: &SapConfig) -> f64 {
    config
        .fault_config
        .map_or(0.0, |f| f.send_latency.as_secs_f64())
}
