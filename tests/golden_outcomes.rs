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
//! and per report the guarantees, satisfaction, optimizer history and
//! the optimizer's candidate counts. Wall times, the worker-thread count
//! and the streaming statistics measure the schedule, not the result, and
//! are left out.
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
        // One survivor of the cheap stage and a small evaluation sample
        // keep the expensive ICA stage affordable in a debug build while
        // still exercising pruning.
        config.optimizer.use_ica = self.ica;
        config.optimizer.eval_sample = 48;
        config.optimizer.staged.min_survivors = 1;
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
        h.f64s(&r.optimizer_history);
        let s = &r.optimizer;
        for count in [s.candidates, s.survivors, s.pruned, s.ica_applied] {
            h.word(count as u64);
        }
        h.word(u64::from(s.staged));
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
    check(&points, |p| {
        run_session(p.locals(), &p.config()).unwrap_or_else(|e| panic!("{}: {e}", p.label()))
    });
}

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
        0xf2a20ec83923ec10,
    ),
    (
        "01 Wine k=3 rows=1 ica=true Uniform Interactive",
        0xb8654db96f80d240,
    ),
    (
        "02 Random2 k=3 rows=1 ica=false ClassSkewed Interactive",
        0x0441dceb529e02ec,
    ),
    (
        "03 Iris k=4 rows=1 ica=true ClassSkewed Interactive",
        0x974776fda9489b38,
    ),
    (
        "04 Wine k=4 rows=1 ica=false Uniform Batch",
        0xe905b9c701e8ae32,
    ),
    (
        "05 Random2 k=4 rows=1 ica=true Uniform Batch",
        0xbec8378c6b67fe10,
    ),
    (
        "06 Iris k=5 rows=1 ica=false ClassSkewed Batch",
        0x9de93082ebb30b42,
    ),
    (
        "07 Wine k=5 rows=1 ica=false ClassSkewed Batch",
        0x9cbe7fa0152a1413,
    ),
    (
        "08 Random2 k=5 rows=1 ica=false Uniform Interactive",
        0xcf631e6e9d26d180,
    ),
    (
        "09 Iris k=3 rows=16 ica=true Uniform Interactive",
        0x8aa64c5b3eef9c0d,
    ),
    (
        "10 Wine k=3 rows=16 ica=false ClassSkewed Interactive",
        0xc854ad20083ce36a,
    ),
    (
        "11 Random2 k=3 rows=16 ica=true ClassSkewed Interactive",
        0xbc69708c9ce7cae2,
    ),
    (
        "12 Iris k=4 rows=16 ica=false Uniform Batch",
        0x6f1f0d7f59582330,
    ),
    (
        "13 Wine k=4 rows=16 ica=false Uniform Batch",
        0x207f6ad0d5cf30b4,
    ),
    (
        "14 Random2 k=4 rows=16 ica=false ClassSkewed Batch",
        0x19973e4da169e3a8,
    ),
    (
        "15 Iris k=5 rows=16 ica=true ClassSkewed Batch",
        0xfe47430094bb86fa,
    ),
    (
        "16 Wine k=5 rows=16 ica=false Uniform Interactive",
        0x0029b8fad6395200,
    ),
    (
        "17 Random2 k=5 rows=16 ica=true Uniform Interactive",
        0x5133f32bbb2b71da,
    ),
    (
        "18 Iris k=3 rows=10000 ica=false ClassSkewed Interactive",
        0x38b173fa7ec53636,
    ),
    (
        "19 Wine k=3 rows=10000 ica=true ClassSkewed Interactive",
        0xb4b3e35a69719881,
    ),
    (
        "20 Random2 k=3 rows=10000 ica=false Uniform Batch",
        0x0b77a94287d6fc10,
    ),
    (
        "21 Iris k=4 rows=10000 ica=true Uniform Batch",
        0xeb602ddff4aed940,
    ),
    (
        "22 Wine k=4 rows=10000 ica=false ClassSkewed Batch",
        0xe408df186cd29cc5,
    ),
    (
        "23 Random2 k=4 rows=10000 ica=true ClassSkewed Batch",
        0xd9f8b5f7bbf26f44,
    ),
    (
        "24 Iris k=5 rows=10000 ica=false Uniform Interactive",
        0xd6e1c299680f57ae,
    ),
    (
        "25 Wine k=5 rows=10000 ica=false Uniform Interactive",
        0x2663c6b670b84bd8,
    ),
    (
        "26 Random2 k=5 rows=10000 ica=false ClassSkewed Interactive",
        0x0790a6e74559425d,
    ),
    (
        "27 Iris k=3 rows=1 ica=true ClassSkewed Interactive",
        0xfad335cafa1ba12e,
    ),
    (
        "28 Wine k=3 rows=1 ica=false Uniform Batch",
        0x7c408eba0e2096e7,
    ),
    (
        "29 Random2 k=3 rows=1 ica=true Uniform Batch",
        0x5c8675d3eecde2d0,
    ),
    (
        "30 Iris k=4 rows=1 ica=false ClassSkewed Batch",
        0x63cd71ecd9d32edf,
    ),
    (
        "31 Wine k=4 rows=1 ica=false ClassSkewed Batch",
        0x020607512b8cf761,
    ),
    (
        "32 Random2 k=4 rows=1 ica=false Uniform Interactive",
        0x5cf3ee655d035825,
    ),
    (
        "33 Iris k=5 rows=1 ica=true Uniform Interactive",
        0x08d6028f34bfa5a9,
    ),
    (
        "34 Wine k=5 rows=1 ica=false ClassSkewed Interactive",
        0x5bbbdf478ca93061,
    ),
    (
        "35 Random2 k=5 rows=1 ica=true ClassSkewed Interactive",
        0x451060651d1c177f,
    ),
    (
        "36 Iris k=3 rows=16 ica=false Uniform Batch",
        0x5b02eecbf145357b,
    ),
    (
        "37 Wine k=3 rows=16 ica=true Uniform Batch",
        0xf7ede5f9fa3afa99,
    ),
    (
        "38 Random2 k=3 rows=16 ica=false ClassSkewed Batch",
        0x91f2a996c028a8d5,
    ),
    (
        "39 Iris k=4 rows=16 ica=true ClassSkewed Batch",
        0x58b4c5e02c6f8970,
    ),
    (
        "40 Wine k=4 rows=16 ica=false Uniform Interactive",
        0xae5d61d5aebda95e,
    ),
    (
        "41 Random2 k=4 rows=16 ica=true Uniform Interactive",
        0x1d82dd856def7e71,
    ),
    (
        "42 Iris k=5 rows=16 ica=false ClassSkewed Interactive",
        0xebe18c5e3b4c5e58,
    ),
    (
        "43 Wine k=5 rows=16 ica=false ClassSkewed Interactive",
        0xfe9dc0df3cd07491,
    ),
    (
        "44 Random2 k=5 rows=16 ica=false Uniform Batch",
        0x75757b07bcf3f653,
    ),
    (
        "45 Iris k=3 rows=10000 ica=true Uniform Batch",
        0x70e0abb0a152392e,
    ),
    (
        "46 Wine k=3 rows=10000 ica=false ClassSkewed Batch",
        0xb156e40958a11681,
    ),
    (
        "47 Random2 k=3 rows=10000 ica=true ClassSkewed Batch",
        0x9b958e63eb0d8b9d,
    ),
];
