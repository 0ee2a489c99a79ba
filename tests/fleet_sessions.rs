//! End-to-end fleet sessions: parties may attach to **any** node — the
//! outcome must be byte-identical whether the gateway owns the session
//! or forwards its registration across the ring. A `kill -9`'d node
//! must fail its sessions fast with the typed fleet error while
//! siblings on surviving nodes complete untouched, and a graceful
//! leaver must hand its unfinished sessions to the new owners.

use sap_repro::core::session::{run_session, SapConfig};
use sap_repro::datasets::normalize::min_max_normalize;
use sap_repro::datasets::partition::{partition, PartitionScheme};
use sap_repro::datasets::registry::UciDataset;
use sap_repro::datasets::Dataset;
use sap_repro::fleet::{Fleet, FleetConfig, FleetError};
use sap_repro::net::sim::FaultConfig;
use sap_repro::server::ServerConfig;
use std::time::{Duration, Instant};

/// Per-session protocol config: generous timeout so role scheduling
/// under one shared CPU never turns into a spurious protocol timeout.
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

fn quick_fleet(nodes: usize, k: usize) -> Fleet {
    Fleet::in_memory(FleetConfig {
        server: ServerConfig {
            max_parties: k,
            max_concurrent: 8,
            ..ServerConfig::default()
        },
        ..FleetConfig::quick(nodes)
    })
    .expect("build fleet")
}

const WAIT: Option<Duration> = Some(Duration::from_secs(300));

/// The tentpole equivalence: sessions submitted through every gateway of
/// a 3-node fleet — some owned by their gateway, some forwarded across
/// the ring — all complete byte-identical to their solo-run equivalents.
#[test]
fn sessions_complete_identically_via_any_gateway() {
    let k = 3;
    let fleet = quick_fleet(3, k);

    let mut submissions = Vec::new();
    for gateway in 0..3usize {
        for i in 0..2u64 {
            let seed = 100 + 10 * gateway as u64 + i;
            let id = fleet
                .submit_via(gateway, session_locals(seed, k), &session_config(seed))
                .expect("admit via gateway");
            submissions.push((gateway, seed, id));
        }
    }

    let mut direct = 0u32;
    let mut forwarded = 0u32;
    for &(gateway, seed, id) in &submissions {
        let outcome = fleet.wait(id, WAIT).expect("fleet session completes");
        let solo = run_session(session_locals(seed, k), &session_config(seed))
            .expect("solo session completes");
        assert_eq!(
            outcome.unified, solo.unified,
            "gateway {gateway}, seed {seed}: fleet outcome must be \
             byte-identical to solo, owner or not"
        );
        assert_eq!(outcome.forwarder_of_slot, solo.forwarder_of_slot);
        if fleet.owner_of(id) == Some(gateway) {
            direct += 1;
        } else {
            forwarded += 1;
        }
    }
    // Placement is deterministic (fixed minters, fixed ring), and this
    // schedule exercises both paths.
    assert!(direct >= 1, "no session was owned by its gateway");
    assert!(forwarded >= 1, "no session crossed the ring");

    let m = fleet.metrics();
    assert_eq!(m.nodes_alive, 3);
    assert_eq!(m.sessions_completed, submissions.len() as u64);
    assert_eq!(m.sessions_failed, 0);
    assert_eq!(m.registrations_forwarded, u64::from(forwarded));
    assert_eq!(m.node_deaths_detected, 0);
}

/// `kill -9` semantics: the dead node's sessions fail fast with the
/// typed fleet error (not the 60 s protocol timeout), siblings on
/// surviving nodes complete byte-identical to solo, and the liveness
/// plane repairs the membership view.
#[test]
fn killed_node_fails_fast_and_spares_siblings() {
    let k = 3;
    let fleet = quick_fleet(3, k);

    // A session that can never finish on its own: total packet loss
    // inside its party mesh, with a long protocol timeout. Only the
    // kill can end it — so the error's arrival time measures fail-fast.
    let doomed_config = SapConfig {
        fault_config: Some(FaultConfig {
            drop_prob: 1.0,
            ..FaultConfig::default()
        }),
        timeout: Duration::from_secs(60),
        ..session_config(500)
    };
    let doomed = fleet
        .submit(session_locals(500, k), &doomed_config)
        .expect("admit doomed session");
    let victim = fleet.owner_of(doomed).expect("doomed session has an owner");

    let siblings: Vec<(u64, _)> = (0..6u64)
        .map(|i| {
            let seed = 700 + i;
            let id = fleet
                .submit(session_locals(seed, k), &session_config(seed))
                .expect("admit sibling");
            (seed, id)
        })
        .collect();

    // Kill only once the owner has admitted the doomed session. An
    // un-acked registration is not aborted by the kill: its origin
    // re-places it on a survivor (see `Fleet::kill`), where total
    // packet loss would run out the 60 s timeout.
    let admit_deadline = Instant::now() + Duration::from_secs(5);
    while fleet.placement(doomed).is_none() {
        assert!(
            Instant::now() < admit_deadline,
            "doomed registration was never admitted"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        fleet.placement(doomed),
        Some(victim),
        "the doomed session must be admitted by the node we kill"
    );

    let killed_at = Instant::now();
    fleet.kill(victim).expect("kill the owner");

    let err = fleet
        .wait(doomed, WAIT)
        .expect_err("doomed session must fail");
    let elapsed = killed_at.elapsed();
    assert!(
        matches!(err, FleetError::NodeDown(n) if n == victim),
        "doomed session must surface the dead node, got: {err}"
    );
    assert!(
        elapsed < Duration::from_secs(10),
        "kill must fail the session fast, not after the 60 s protocol \
         timeout (took {elapsed:?})"
    );

    let mut survived = 0u32;
    for &(seed, id) in &siblings {
        match fleet.wait(id, WAIT) {
            Ok(outcome) => {
                let solo =
                    run_session(session_locals(seed, k), &session_config(seed)).expect("solo run");
                assert_eq!(
                    outcome.unified, solo.unified,
                    "seed {seed}: sibling on a survivor must be untouched"
                );
                survived += 1;
            }
            Err(FleetError::NodeDown(n)) => {
                assert_eq!(n, victim, "only the killed node may take sessions down");
            }
            Err(e) => panic!("sibling failed with a non-kill error: {e}"),
        }
    }
    assert!(survived >= 1, "some sibling must have lived on a survivor");

    // The liveness plane detects the silence and repairs membership.
    let deadline = Instant::now() + Duration::from_secs(30);
    while fleet.alive().contains(&victim) {
        assert!(
            Instant::now() < deadline,
            "survivors never declared node {victim} dead"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(fleet.alive().len(), 2);
    assert!(fleet.metrics().node_deaths_detected >= 1);
    // The repaired ring re-homes the dead node's arc.
    assert_ne!(fleet.owner_of(doomed), Some(victim));
}

/// Graceful departure: a leaver hands its unfinished sessions to the
/// new owners (same client-facing ids) and every session still
/// completes byte-identical to solo.
#[test]
fn graceful_leave_hands_sessions_over_and_all_complete() {
    let k = 3;
    let fleet = quick_fleet(2, k);

    // Slowed sessions (per-send latency) so some are still mid-flight
    // when the node departs; latency never changes bytes, so solo
    // equivalence still holds.
    let slow = |seed: u64| SapConfig {
        fault_config: Some(FaultConfig {
            send_latency: Duration::from_millis(3),
            ..FaultConfig::default()
        }),
        ..session_config(seed)
    };
    let ids: Vec<(u64, _)> = (0..4u64)
        .map(|i| {
            let seed = 900 + i;
            let id = fleet
                .submit(session_locals(seed, k), &slow(seed))
                .expect("admit slow session");
            (seed, id)
        })
        .collect();
    std::thread::sleep(Duration::from_millis(150));

    let leaver = fleet.alive()[0];
    let handed = fleet.leave(leaver).expect("graceful leave");
    assert_eq!(fleet.alive(), vec![1 - leaver]);

    for &(seed, id) in &ids {
        let outcome = fleet.wait(id, WAIT).expect("session survives the leave");
        let solo = run_session(session_locals(seed, k), &slow(seed)).expect("solo run completes");
        assert_eq!(
            outcome.unified, solo.unified,
            "seed {seed}: outcome must survive the ownership handoff"
        );
    }
    // A graceful leave is not a death.
    assert_eq!(fleet.metrics().node_deaths_detected, 0);
    assert_eq!(fleet.metrics().registrations_replaced, handed as u64);
}
