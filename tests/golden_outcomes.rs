//! Golden session outcomes: the cross-commit oracle of the determinism
//! invariant (an outcome is a function of the providers' locals and the
//! `SapConfig`, whatever carries the session).
//!
//! A fixed grid of 48 quick sessions — Iris (d = 4), Wine (d = 13) and a
//! random d = 2 dataset; k ∈ {3, 4, 5}; `block_rows` ∈ {1, 16, 10 000};
//! ICA on/off; uniform and class-skewed partitions; both QoS classes — is
//! run and every input-determined field of each `SapOutcome` is hashed
//! bit for bit: the unified records and labels, the target space, the
//! forwarder of every slot, the relayed block count, identifiability,
//! and per report the guarantees, satisfaction and the optimizer's
//! candidate counts. Wall times and the streaming statistics measure the
//! schedule, not the result, and are left out.
//!
//! Every point runs on the in-memory hub; subsets also run over localhost
//! TCP and through `SapServer`. The literals were recorded once and have
//! no update switch: a PR that changes one must say why.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sap_repro::core::runtime::QosClass;
use sap_repro::core::session::{run_session, run_session_over, SapConfig, SapOutcome, MINER_ID};
use sap_repro::datasets::partition::{partition, PartitionScheme};
use sap_repro::datasets::registry::UciDataset;
use sap_repro::datasets::Dataset;
use sap_repro::linalg::Matrix;
use sap_repro::net::tcp::local_mesh;
use sap_repro::net::PartyId;
use sap_repro::server::{SapServer, ServerConfig};
use std::time::Duration;

#[derive(Debug, Clone, Copy)]
enum Source {
    Iris,
    Wine,
    Random2,
}

/// One grid point. The index `n` seeds the data and the session.
#[derive(Debug, Clone, Copy)]
struct Point {
    n: usize,
    source: Source,
    k: usize,
    block_rows: usize,
    ica: bool,
    scheme: PartitionScheme,
    qos: QosClass,
}

const BLOCK_ROWS: [usize; 3] = [1, 16, 10_000];

/// The 48 points. Each parameter cycles at its own period, so every
/// (dataset, k, `block_rows`) triple occurs, and so does every pairing of
/// the dataset with ICA, partition scheme and k — except that Wine runs
/// ICA only at k = 3: its 13-dimensional FastICA fits run to `max_iter`
/// and would dominate a debug build.
fn grid() -> Vec<Point> {
    (0..48)
        .map(|n| {
            let source = [Source::Iris, Source::Wine, Source::Random2][n % 3];
            let k = 3 + (n / 3) % 3;
            Point {
                n,
                source,
                k,
                block_rows: BLOCK_ROWS[(n / 9) % 3],
                ica: n % 2 == 1 && !(matches!(source, Source::Wine) && k > 3),
                scheme: if (n / 2) % 2 == 0 {
                    PartitionScheme::Uniform
                } else {
                    PartitionScheme::ClassSkewed
                },
                qos: if (n / 4) % 2 == 0 {
                    QosClass::Interactive
                } else {
                    QosClass::Batch
                },
            }
        })
        .collect()
}

impl Point {
    fn label(&self) -> String {
        format!(
            "{:02} {:?} k={} rows={} ica={} {:?} {:?}",
            self.n, self.source, self.k, self.block_rows, self.ica, self.scheme, self.qos
        )
    }

    fn locals(&self) -> Vec<Dataset> {
        let seed = self.n as u64 + 1;
        let pooled = match self.source {
            Source::Iris => UciDataset::Iris.generate(seed),
            Source::Wine => UciDataset::Wine.generate(seed),
            Source::Random2 => {
                let m = sap_repro::linalg::randn_matrix(2, 120, &mut StdRng::seed_from_u64(seed));
                Dataset::from_column_matrix(&m, (0..120).map(|i| i % 3).collect(), 3)
            }
        };
        partition(&pooled, self.k, self.scheme, seed ^ 0x5EED)
    }

    fn config(&self) -> SapConfig {
        let mut config = SapConfig {
            seed: 0x601D_0000 + self.n as u64,
            block_rows: self.block_rows,
            timeout: Duration::from_secs(30),
            qos: self.qos,
            ..SapConfig::quick_test()
        };
        // A small evaluation sample keeps the ICA attack affordable in a
        // debug build.
        config.optimizer.use_ica = self.ica;
        config.optimizer.eval_sample = 48;
        config
    }
}

/// FNV-1a over 64-bit words. Lengths are hashed before slices so shape
/// changes show.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    fn f64s(&mut self, xs: &[f64]) {
        self.word(xs.len() as u64);
        for x in xs {
            self.word(x.to_bits());
        }
    }

    fn matrix(&mut self, m: &Matrix) {
        self.word(m.rows() as u64);
        self.f64s(m.as_slice());
    }
}

fn outcome_digest(o: &SapOutcome) -> u64 {
    let mut h = Digest::new();
    h.word(o.unified.len() as u64);
    h.word(o.unified.dim() as u64);
    h.word(o.unified.num_classes() as u64);
    for record in o.unified.records() {
        h.f64s(record);
    }
    for &label in o.unified.labels() {
        h.word(label as u64);
    }
    h.matrix(o.target.rotation());
    h.f64s(o.target.translation());
    h.word(o.forwarder_of_slot.len() as u64);
    for (slot, forwarder) in &o.forwarder_of_slot {
        h.word(slot.0);
        h.word(forwarder.0);
    }
    h.word(o.relayed_blocks);
    h.word(o.identifiability.to_bits());
    h.word(o.reports.len() as u64);
    for r in &o.reports {
        h.word(r.provider.0);
        h.word(r.rho_local.to_bits());
        h.word(r.rho_unified.to_bits());
        h.word(r.satisfaction.to_bits());
        let s = &r.optimizer;
        for count in [s.candidates, s.pruned, s.ica_applied] {
            h.word(count as u64);
        }
        h.word(u64::from(s.ica));
    }
    h.0
}

fn golden(label: &str) -> u64 {
    GOLDEN
        .iter()
        .find(|(l, _)| *l == label)
        .map(|&(_, d)| d)
        .unwrap_or_else(|| panic!("{label} is not in the golden table"))
}

/// Runs `points` through `run` and compares each digest with the table,
/// printing every computed line on a mismatch.
fn check(points: &[Point], mut run: impl FnMut(&Point) -> SapOutcome) {
    let got: Vec<(String, u64)> = points
        .iter()
        .map(|p| (p.label(), outcome_digest(&run(p))))
        .collect();
    let table: String = got
        .iter()
        .map(|(label, d)| format!("    (\"{label}\", {d:#018x}),\n"))
        .collect();
    for (label, d) in &got {
        assert_eq!(
            *d,
            golden(label),
            "outcome of {label} changed; computed:\n{table}"
        );
    }
}

#[test]
fn hub_sessions_match_golden() {
    let points = grid();
    assert_eq!(
        points.iter().map(Point::label).collect::<Vec<_>>(),
        GOLDEN.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
        "golden grid changed"
    );
    let mut rho_unified = Digest::new();
    check(&points, |p| {
        let outcome =
            run_session(p.locals(), &p.config()).unwrap_or_else(|e| panic!("{}: {e}", p.label()));
        for r in &outcome.reports {
            rho_unified.word(r.rho_unified.to_bits());
        }
        outcome
    });
    assert_eq!(
        rho_unified.0, GOLDEN_RHO_UNIFIED,
        "rho_unified changed: {:#018x}",
        rho_unified.0
    );
}

/// Every report's `rho_unified` over the whole grid, in grid order. It
/// depends on the caller-RNG draws of the optimizer and of the
/// satisfaction score, and on the winner only through the noise level
/// all candidates share, so it held across the change to an exact
/// optimizer that moved the outcome digests.
const GOLDEN_RHO_UNIFIED: u64 = 0x6648_fa86_86e1_2028;

#[test]
fn tcp_sessions_match_golden() {
    let points: Vec<Point> = grid().into_iter().filter(|p| p.n % 5 == 0).collect();
    check(&points, |p| {
        let mut ids: Vec<PartyId> = (0..p.k as u64).map(PartyId).collect();
        ids.push(MINER_ID);
        let mut mesh = local_mesh(&ids).expect("bind localhost sockets");
        let miner = mesh.pop().expect("miner lane");
        run_session_over(p.locals(), &p.config(), mesh, miner)
            .unwrap_or_else(|e| panic!("{}: {e}", p.label()))
    });
}

#[test]
fn server_sessions_match_golden() {
    let points: Vec<Point> = grid().into_iter().filter(|p| p.n % 5 == 2).collect();
    let server = SapServer::in_memory(ServerConfig {
        max_parties: 5,
        ..ServerConfig::default()
    })
    .expect("server");
    check(&points, |p| {
        let id = server
            .submit(p.locals(), &p.config())
            .unwrap_or_else(|e| panic!("{}: {e}", p.label()));
        server
            .wait(id, None)
            .unwrap_or_else(|e| panic!("{}: {e}", p.label()))
    });
}

/// Recorded before the JSON codec, the buffered data plane, the threaded
/// TCP backend and the FIFO scheduler were deleted; at that commit every
/// point matched on all of them.
const GOLDEN: &[(&str, u64)] = &[
    (
        "00 Iris k=3 rows=1 ica=false Uniform Interactive",
        0x60747515bfd38853,
    ),
    (
        "01 Wine k=3 rows=1 ica=true Uniform Interactive",
        0x09c1619ed3911787,
    ),
    (
        "02 Random2 k=3 rows=1 ica=false ClassSkewed Interactive",
        0x9b53d7fac90aabd2,
    ),
    (
        "03 Iris k=4 rows=1 ica=true ClassSkewed Interactive",
        0x43a2d5c8e93fa3bb,
    ),
    (
        "04 Wine k=4 rows=1 ica=false Uniform Batch",
        0x4f7a850571b1dd79,
    ),
    (
        "05 Random2 k=4 rows=1 ica=true Uniform Batch",
        0x205010893aa18356,
    ),
    (
        "06 Iris k=5 rows=1 ica=false ClassSkewed Batch",
        0x14c42144113b441d,
    ),
    (
        "07 Wine k=5 rows=1 ica=false ClassSkewed Batch",
        0x9ce4f5cc6dc74049,
    ),
    (
        "08 Random2 k=5 rows=1 ica=false Uniform Interactive",
        0x216de6be64fe868c,
    ),
    (
        "09 Iris k=3 rows=16 ica=true Uniform Interactive",
        0xedb02da4ec3e9dda,
    ),
    (
        "10 Wine k=3 rows=16 ica=false ClassSkewed Interactive",
        0x5dece4a62efe06e2,
    ),
    (
        "11 Random2 k=3 rows=16 ica=true ClassSkewed Interactive",
        0x1b213e94d8d44a74,
    ),
    (
        "12 Iris k=4 rows=16 ica=false Uniform Batch",
        0x01b70dbd39684e82,
    ),
    (
        "13 Wine k=4 rows=16 ica=false Uniform Batch",
        0xde7c2ecf24e45a9b,
    ),
    (
        "14 Random2 k=4 rows=16 ica=false ClassSkewed Batch",
        0x36b62f2a46162806,
    ),
    (
        "15 Iris k=5 rows=16 ica=true ClassSkewed Batch",
        0x7c4c58d5a4d6f4b3,
    ),
    (
        "16 Wine k=5 rows=16 ica=false Uniform Interactive",
        0xddc3ca450d94d75d,
    ),
    (
        "17 Random2 k=5 rows=16 ica=true Uniform Interactive",
        0xd3a7d7e4d1e3edfa,
    ),
    (
        "18 Iris k=3 rows=10000 ica=false ClassSkewed Interactive",
        0xf81934bfe4bed387,
    ),
    (
        "19 Wine k=3 rows=10000 ica=true ClassSkewed Interactive",
        0x346c86c42f8c6139,
    ),
    (
        "20 Random2 k=3 rows=10000 ica=false Uniform Batch",
        0x9d78fd9690f5dcf3,
    ),
    (
        "21 Iris k=4 rows=10000 ica=true Uniform Batch",
        0xc0960bddbda2e29a,
    ),
    (
        "22 Wine k=4 rows=10000 ica=false ClassSkewed Batch",
        0x57994837d75b4f05,
    ),
    (
        "23 Random2 k=4 rows=10000 ica=true ClassSkewed Batch",
        0x3baee3667632d9f6,
    ),
    (
        "24 Iris k=5 rows=10000 ica=false Uniform Interactive",
        0x8f0fb6ad0384fa6d,
    ),
    (
        "25 Wine k=5 rows=10000 ica=false Uniform Interactive",
        0xb45c82256152f739,
    ),
    (
        "26 Random2 k=5 rows=10000 ica=false ClassSkewed Interactive",
        0x0c46af4ec08ee582,
    ),
    (
        "27 Iris k=3 rows=1 ica=true ClassSkewed Interactive",
        0xf8a431a0e70b6b52,
    ),
    (
        "28 Wine k=3 rows=1 ica=false Uniform Batch",
        0xe5319052d08d38e2,
    ),
    (
        "29 Random2 k=3 rows=1 ica=true Uniform Batch",
        0x20aa33938fd847ff,
    ),
    (
        "30 Iris k=4 rows=1 ica=false ClassSkewed Batch",
        0x13796121b9a4a0f0,
    ),
    (
        "31 Wine k=4 rows=1 ica=false ClassSkewed Batch",
        0xe58d5b735fb630a3,
    ),
    (
        "32 Random2 k=4 rows=1 ica=false Uniform Interactive",
        0x676e8cfa8399d99c,
    ),
    (
        "33 Iris k=5 rows=1 ica=true Uniform Interactive",
        0xc97b672fac835475,
    ),
    (
        "34 Wine k=5 rows=1 ica=false ClassSkewed Interactive",
        0x5749622a9d07a170,
    ),
    (
        "35 Random2 k=5 rows=1 ica=true ClassSkewed Interactive",
        0xd0802f136791b238,
    ),
    (
        "36 Iris k=3 rows=16 ica=false Uniform Batch",
        0x49c60113caf20f1c,
    ),
    (
        "37 Wine k=3 rows=16 ica=true Uniform Batch",
        0xb000e99670dc9090,
    ),
    (
        "38 Random2 k=3 rows=16 ica=false ClassSkewed Batch",
        0x67234613abcfaa98,
    ),
    (
        "39 Iris k=4 rows=16 ica=true ClassSkewed Batch",
        0xbed46afb265f3be0,
    ),
    (
        "40 Wine k=4 rows=16 ica=false Uniform Interactive",
        0x92e98b6d4e060296,
    ),
    (
        "41 Random2 k=4 rows=16 ica=true Uniform Interactive",
        0x4cbe22311ea4b132,
    ),
    (
        "42 Iris k=5 rows=16 ica=false ClassSkewed Interactive",
        0xf9f4c0f0e22b20e8,
    ),
    (
        "43 Wine k=5 rows=16 ica=false ClassSkewed Interactive",
        0x5d2fd921651921e4,
    ),
    (
        "44 Random2 k=5 rows=16 ica=false Uniform Batch",
        0x6d6fa531102fb2db,
    ),
    (
        "45 Iris k=3 rows=10000 ica=true Uniform Batch",
        0x08283fd84c32e2a2,
    ),
    (
        "46 Wine k=3 rows=10000 ica=false ClassSkewed Batch",
        0xdf62205780d93146,
    ),
    (
        "47 Random2 k=3 rows=10000 ica=true ClassSkewed Batch",
        0xfaee95387c224192,
    ),
];
