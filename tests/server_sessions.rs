//! Multi-session server runtime, end to end: concurrent sessions over one
//! shared mesh must behave exactly like solo runs — byte-identical
//! outcomes, and fault isolation between sessions.

use sap_repro::core::session::{run_session, SapConfig};
use sap_repro::core::SapError;
use sap_repro::datasets::normalize::min_max_normalize;
use sap_repro::datasets::partition::{partition, PartitionScheme};
use sap_repro::datasets::registry::UciDataset;
use sap_repro::datasets::Dataset;
use sap_repro::net::sim::FaultConfig;
use sap_repro::server::{SapServer, ServerConfig, ServerError};
use std::time::Duration;

/// Per-session protocol config: generous timeout so role scheduling under
/// one shared CPU never turns into a spurious protocol timeout.
fn session_config(seed: u64) -> SapConfig {
    SapConfig {
        timeout: Duration::from_secs(120),
        seed,
        ..SapConfig::quick_test()
    }
}

fn session_locals(seed: u64, k: usize) -> Vec<Dataset> {
    let (pooled, _) = min_max_normalize(&UciDataset::Iris.generate(seed));
    partition(&pooled, k, PartitionScheme::Uniform, seed ^ 0xA5)
}

const WAIT: Option<Duration> = Some(Duration::from_secs(300));

/// The acceptance scenario: 8 concurrent sessions through one TCP-backed
/// `SapServer`, every outcome byte-identical to its solo-run equivalent.
#[test]
fn eight_concurrent_tcp_sessions_match_solo_runs() {
    let k = 4;
    let server = SapServer::local_tcp(ServerConfig {
        max_parties: k,
        max_concurrent: 8,
        ..ServerConfig::default()
    })
    .expect("bind TCP lanes");

    let ids: Vec<_> = (0..8u64)
        .map(|i| {
            server
                .submit(session_locals(100 + i, k), &session_config(1000 + i))
                .expect("admit session")
        })
        .collect();

    let outcomes: Vec<_> = ids
        .iter()
        .map(|&id| server.wait(id, WAIT).expect("concurrent session completes"))
        .collect();

    for (i, outcome) in outcomes.iter().enumerate() {
        let solo = run_session(
            session_locals(100 + i as u64, k),
            &session_config(1000 + i as u64),
        )
        .expect("solo session completes");
        assert_eq!(
            outcome.unified, solo.unified,
            "session {i}: concurrent outcome must be byte-identical to solo"
        );
        assert_eq!(outcome.forwarder_of_slot, solo.forwarder_of_slot);
        assert_eq!(outcome.reports.len(), solo.reports.len());
    }

    let metrics = server.metrics();
    assert_eq!(metrics.sessions_started, 8);
    assert_eq!(metrics.sessions_completed, 8);
    assert_eq!(metrics.sessions_failed, 0);
    assert!(metrics.blocks_relayed >= 8 * k as u64);
    assert!(metrics.bytes_sealed > 0);
    assert!(metrics.frames_routed > 0);
}

/// Fault isolation: of 4 concurrent sessions, one runs under total packet
/// loss. It must abort; the other three must complete byte-identical to
/// their solo equivalents.
#[test]
fn faulty_session_is_isolated_from_siblings() {
    let k = 3;
    let server = SapServer::in_memory(ServerConfig {
        max_parties: k,
        max_concurrent: 4,
        ..ServerConfig::default()
    })
    .expect("build hub server");

    let lossy = SapConfig {
        fault_config: Some(FaultConfig {
            drop_prob: 1.0,
            ..FaultConfig::default()
        }),
        timeout: Duration::from_secs(2),
        ..session_config(500)
    };

    let healthy_ids: Vec<_> = (0..3u64)
        .map(|i| {
            server
                .submit(session_locals(200 + i, k), &session_config(2000 + i))
                .expect("admit healthy session")
        })
        .collect();
    let lossy_id = server
        .submit(session_locals(500, k), &lossy)
        .expect("admit lossy session");

    // The lossy session aborts with a timeout…
    let err = server
        .wait(lossy_id, WAIT)
        .expect_err("lossy session must abort");
    assert!(
        matches!(err, ServerError::Session(SapError::Timeout { .. })),
        "lossy session must time out, got: {err}"
    );

    // …while its siblings complete, byte-identical to solo runs.
    for (i, id) in healthy_ids.iter().enumerate() {
        let outcome = server.wait(*id, WAIT).expect("healthy session completes");
        let solo = run_session(
            session_locals(200 + i as u64, k),
            &session_config(2000 + i as u64),
        )
        .expect("solo run");
        assert_eq!(
            outcome.unified, solo.unified,
            "session {i} must be untouched by its lossy sibling"
        );
        assert_eq!(outcome.forwarder_of_slot, solo.forwarder_of_slot);
    }

    let metrics = server.metrics();
    assert_eq!(metrics.sessions_completed, 3);
    assert_eq!(metrics.sessions_failed, 1);
}

/// Sessions queue when the pool is smaller than the offered load, and
/// still all complete correctly (gang scheduling, FIFO admission).
#[test]
fn sessions_queue_for_a_small_pool_and_still_complete() {
    let k = 3;
    let server = SapServer::in_memory(ServerConfig {
        max_parties: k,
        max_concurrent: 8,
        // One gang's worth of workers: sessions run strictly one at a time.
        worker_threads: k + 1,
        ..ServerConfig::default()
    })
    .expect("build hub server");
    assert_eq!(server.pool_capacity(), k + 1);

    let ids: Vec<_> = (0..4u64)
        .map(|i| {
            server
                .submit(session_locals(300 + i, k), &session_config(3000 + i))
                .expect("admit")
        })
        .collect();
    for (i, id) in ids.iter().enumerate() {
        let outcome = server.wait(*id, WAIT).expect("queued session completes");
        let solo = run_session(
            session_locals(300 + i as u64, k),
            &session_config(3000 + i as u64),
        )
        .expect("solo run");
        assert_eq!(outcome.unified, solo.unified);
    }
}

/// A config no session can run with is refused at submit with a typed
/// error, and the server stays healthy: the next good submission on the
/// same server completes and the server drops cleanly.
#[test]
fn invalid_config_is_refused_without_poisoning_the_server() {
    let server = SapServer::in_memory(ServerConfig {
        max_parties: 3,
        ..ServerConfig::default()
    })
    .expect("in-memory server");
    let bad_configs = [
        SapConfig {
            fault_config: Some(FaultConfig {
                drop_prob: 1.5,
                ..FaultConfig::default()
            }),
            ..session_config(7)
        },
        SapConfig {
            fault_config: Some(FaultConfig {
                delay_prob: f64::NAN,
                ..FaultConfig::default()
            }),
            ..session_config(7)
        },
        SapConfig {
            block_rows: 0,
            ..session_config(7)
        },
    ];
    for bad in &bad_configs {
        match server.submit(session_locals(8, 3), bad) {
            Err(ServerError::Session(SapError::InvalidConfig(_))) => {}
            other => panic!("bad config admitted or misreported: {other:?}"),
        }
    }
    let id = server
        .submit(session_locals(8, 3), &session_config(7))
        .expect("a good submission after the refused ones");
    let outcome = server.wait(id, WAIT).expect("good session completes");
    assert_eq!(outcome.unified.len(), 150);
    assert_eq!(server.metrics().sessions_completed, 1);
}
