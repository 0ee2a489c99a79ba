//! End-to-end fleet sessions: parties may attach to **any** node — the
//! outcome must be byte-identical whether the gateway owns the session
//! or forwards its registration to the owner. A `kill -9`'d node
//! must fail its sessions fast with the typed fleet error while
//! siblings on surviving nodes complete untouched, a graceful leaver
//! must hand its unfinished sessions to the new owners, a dead node
//! must not swallow registrations meant for other nodes, and an owner
//! admits sessions in the order they were submitted.
//!
//! Placement decides which node owns an id, so a test that needs a
//! session at a chosen owner computes it with [`Fleet::owner_of`] and
//! never hard-codes it.

use sap_repro::core::session::{run_session, SapConfig};
use sap_repro::datasets::normalize::min_max_normalize;
use sap_repro::datasets::partition::{partition, PartitionScheme};
use sap_repro::datasets::registry::UciDataset;
use sap_repro::datasets::Dataset;
use sap_repro::fleet::{Fleet, FleetConfig, FleetError};
use sap_repro::net::sim::FaultConfig;
use sap_repro::net::SessionId;
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

/// The id that gateway `gateway` of a fresh `nodes`-node fleet mints for
/// its `k`-th submission: node `j` mints `j + 1, j + 1 + nodes, …`
/// (`IdMinter` residue classes).
fn minted(gateway: usize, k: u64, nodes: usize) -> SessionId {
    SessionId(gateway as u64 + 1 + k * nodes as u64)
}

/// How many ids gateway `gateway` of a fresh fleet mints before one
/// that placement gives `owner`.
fn ids_before_owned(fleet: &Fleet, gateway: usize, owner: usize) -> u64 {
    let nodes = fleet.alive().len();
    (0..64)
        .find(|&k| fleet.owner_of(minted(gateway, k, nodes)) == Some(owner))
        .expect("placement gives every node some of a gateway's ids")
}

/// Runs `count` filler sessions through `gateway`, each to its
/// verdict, so that the gateway's next id is the one a test wants.
fn run_fillers(fleet: &Fleet, gateway: usize, count: u64, k: usize) {
    for i in 0..count {
        let seed = 1500 + i;
        let id = fleet
            .submit_via(gateway, session_locals(seed, k), &session_config(seed))
            .expect("admit filler");
        fleet.wait(id, WAIT).expect("filler completes");
    }
}

/// The tentpole equivalence: sessions submitted through every gateway of
/// a 3-node fleet — some owned by their gateway, some forwarded to
/// another node — all complete byte-identical to their solo-run equivalents.
#[test]
fn sessions_complete_identically_via_any_gateway() {
    let k = 3;
    let fleet = quick_fleet(3, k);

    // Round-robin over the gateways, at least twice round, until both
    // paths have run: placement decides which ids their gateways own.
    let mut submissions = Vec::new();
    let (mut direct, mut forwarded) = (0u32, 0u32);
    'rounds: for round in 0..4u64 {
        for gateway in 0..3usize {
            if round >= 2 && direct >= 1 && forwarded >= 1 {
                break 'rounds;
            }
            let seed = 100 + 10 * gateway as u64 + round;
            let id = fleet
                .submit_via(gateway, session_locals(seed, k), &session_config(seed))
                .expect("admit via gateway");
            if fleet.owner_of(id) == Some(gateway) {
                direct += 1;
            } else {
                forwarded += 1;
            }
            submissions.push((gateway, seed, id));
        }
    }
    // Placement is deterministic (fixed minters, fixed membership), and
    // this schedule exercises both paths.
    assert!(direct >= 1, "no session was owned by its gateway");
    assert!(forwarded >= 1, "no session was forwarded");

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
    }

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
    // Repaired placement re-homes the dead node's sessions.
    assert_ne!(fleet.owner_of(doomed), Some(victim));
}

/// Graceful departure hands the leaver's running sessions to the new
/// owner under the same ids. Node 0 leaves owning two sessions: one it
/// admitted as its own gateway, and one gateway 1 forwarded to it. Each
/// send sleeps, so both are still running when `leave` is called, and
/// the new owner re-runs both from the fleet's registration records.
/// Both complete byte-identical to solo, and each id counts once in
/// `sessions_started`, however often it was handed off.
#[test]
fn graceful_leave_hands_sessions_over_and_all_complete() {
    let k = 3;
    let fleet = quick_fleet(2, k);
    let (leaver, survivor) = (0, 1);

    // Per-send latency keeps a session running for about 0.4 s, far
    // longer than the leave takes; latency never changes bytes, so solo
    // equivalence still holds.
    let slow = |seed: u64| SapConfig {
        fault_config: Some(FaultConfig {
            send_latency: Duration::from_millis(40),
            ..FaultConfig::default()
        }),
        ..session_config(seed)
    };
    // Fillers run first, so that each gateway's next id is one that
    // placement gives the leaver. A forwarded submission returns once its
    // owner admitted it.
    let gateways = [(leaver, 910u64), (survivor, 911)];
    let skips = gateways.map(|(gateway, _)| ids_before_owned(&fleet, gateway, leaver));
    for (&(gateway, _), &skip) in gateways.iter().zip(&skips) {
        run_fillers(&fleet, gateway, skip, k);
    }
    let sessions: Vec<(u64, _)> = gateways
        .into_iter()
        .zip(skips)
        .map(|((gateway, seed), skip)| {
            let id = fleet
                .submit_via(gateway, session_locals(seed, k), &slow(seed))
                .expect("admit slow session");
            assert_eq!(id, minted(gateway, skip, 2), "seed {seed}");
            assert_eq!(fleet.placement(id), Some(leaver), "seed {seed}");
            (seed, id)
        })
        .collect();

    // `leave` hands off only sessions still running on the leaver.
    let handed = fleet.leave(leaver).expect("graceful leave");
    assert_eq!(handed, 2, "both running sessions must be handed off");
    assert_eq!(fleet.alive(), vec![survivor]);

    for &(seed, id) in &sessions {
        let deadline = Instant::now() + Duration::from_secs(10);
        while fleet.placement(id) != Some(survivor) {
            assert!(
                Instant::now() < deadline,
                "seed {seed}: the new owner never admitted the handed-off session"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    for &(seed, id) in &sessions {
        let outcome = fleet.wait(id, WAIT).expect("session survives the leave");
        let solo = run_session(session_locals(seed, k), &slow(seed)).expect("solo run completes");
        assert_eq!(
            outcome.unified, solo.unified,
            "seed {seed}: outcome must survive the ownership handoff"
        );
        assert_eq!(outcome.forwarder_of_slot, solo.forwarder_of_slot);
    }
    // A graceful leave is not a death.
    let m = fleet.metrics();
    assert_eq!(m.node_deaths_detected, 0);
    assert_eq!(m.registrations_replaced, 2);
    // Each id counts once: the fillers and the two sessions, not once
    // more per handoff. No record outlives its verdict.
    assert_eq!(m.sessions_started, skips.iter().sum::<u64>() + 2);
    assert_eq!(m.registrations_live, 0);
}

/// Registrations keep reaching their owners while a killed node is
/// still in the membership view. A node other than gateway 0 is killed
/// and, before the survivors detect the death, six sessions enter
/// through gateway 0. Those owned by the third node go straight to it
/// rather than through the dead node, those owned by the dead node are
/// re-placed once its death is detected, and every one completes
/// byte-identical to solo.
#[test]
fn registrations_bypass_a_dead_ring_successor() {
    let k = 3;
    let fleet = quick_fleet(3, k);

    // The third node is the one that owns more of gateway 0's next six
    // ids; the other is killed. Only the dead node's ids move, so the
    // third node owns the same ids before and after the death is seen.
    let owned_of_six = |j: usize| {
        (0..6)
            .filter(|&i| fleet.owner_of(minted(0, i, 3)) == Some(j))
            .count()
    };
    let third = (1..3).max_by_key(|&j| owned_of_six(j)).expect("two nodes");
    let victim = 3 - third;
    fleet
        .kill(victim)
        .expect("kill a node other than gateway 0");

    let ids: Vec<(u64, _)> = (0..6u64)
        .map(|i| {
            let seed = 1100 + i;
            let id = fleet
                .submit_via(0, session_locals(seed, k), &session_config(seed))
                .expect("admit via gateway 0");
            (seed, id)
        })
        .collect();
    assert!(
        ids.iter().any(|&(_, id)| fleet.owner_of(id) == Some(third)),
        "no session is owned by node {third}, so none would have crossed node {victim}"
    );

    for &(seed, id) in &ids {
        let outcome = fleet
            .wait(id, WAIT)
            .unwrap_or_else(|e| panic!("seed {seed}: session must complete, got: {e}"));
        let solo = run_session(session_locals(seed, k), &session_config(seed)).expect("solo run");
        assert_eq!(
            outcome.unified, solo.unified,
            "seed {seed}: outcome changed"
        );
    }
}

/// An owner admits sessions in submission order, whichever gateway they
/// entered through. The first session enters through gateway 1 and is
/// forwarded to node 0; the second is node 0's own, which node 0 admits
/// at once. So the first submission must not return while its
/// registration is still on the lane.
#[test]
fn owner_admits_in_submission_order_across_gateways() {
    let k = 3;
    let fleet = quick_fleet(2, k);

    // Fillers run first, so that both gateways' next ids are ones that
    // placement gives node 0.
    for gateway in [1, 0] {
        let skip = ids_before_owned(&fleet, gateway, 0);
        run_fillers(&fleet, gateway, skip, k);
    }
    let first = fleet
        .submit_via(1, session_locals(1300, k), &session_config(1300))
        .expect("admit via gateway 1");
    assert_eq!(fleet.owner_of(first), Some(0), "first must be forwarded");
    assert_eq!(
        fleet.placement(first),
        Some(0),
        "a forwarded submission returned before its owner admitted it"
    );
    let second = fleet
        .submit_via(0, session_locals(1301, k), &session_config(1301))
        .expect("admit via gateway 0");
    assert_eq!(fleet.owner_of(second), Some(0), "second must be local");

    for (seed, id) in [(1300, first), (1301, second)] {
        let outcome = fleet.wait(id, WAIT).expect("fleet session completes");
        let solo = run_session(session_locals(seed, k), &session_config(seed)).expect("solo run");
        assert_eq!(
            outcome.unified, solo.unified,
            "seed {seed}: outcome changed"
        );
    }
}

/// A waited session leaves the fleet: its placement goes with the
/// verdict, whether the gateway forwarded it or ran it, and a second
/// wait finds nothing to harvest.
#[test]
fn waited_session_leaves_the_fleet() {
    let k = 3;
    let fleet = quick_fleet(2, k);
    for (gateway, seed) in [(1, 1400), (0, 1401)] {
        let id = fleet
            .submit_via(gateway, session_locals(seed, k), &session_config(seed))
            .expect("admit");
        fleet.wait(id, WAIT).expect("fleet session completes");
        assert_eq!(fleet.placement(id), None, "seed {seed}: placement kept");
        match fleet.wait(id, WAIT) {
            Err(FleetError::UnknownSession(got)) => assert_eq!(got, id),
            other => panic!("seed {seed}: second wait returned {other:?}"),
        }
    }
}

/// `NodeDown` is a verdict too: the session of a killed owner leaves the
/// fleet with it, and its record is not kept.
#[test]
fn node_down_verdict_leaves_the_fleet() {
    let k = 3;
    let fleet = quick_fleet(2, k);
    // Total packet loss with a long protocol timeout: only the kill can
    // end this session.
    let doomed_config = SapConfig {
        fault_config: Some(FaultConfig {
            drop_prob: 1.0,
            ..FaultConfig::default()
        }),
        timeout: Duration::from_secs(60),
        ..session_config(1600)
    };
    let id = fleet
        .submit_via(0, session_locals(1600, k), &doomed_config)
        .expect("admit doomed session");
    // A local submission is admitted at once, a forwarded one by the
    // time `submit_via` returns; wait for it all the same.
    let admit_deadline = Instant::now() + Duration::from_secs(5);
    let victim = loop {
        if let Some(owner) = fleet.placement(id) {
            break owner;
        }
        assert!(Instant::now() < admit_deadline, "never admitted");
        std::thread::sleep(Duration::from_millis(5));
    };
    fleet.kill(victim).expect("kill the owner");

    match fleet.wait(id, WAIT) {
        Err(FleetError::NodeDown(n)) => assert_eq!(n, victim),
        other => panic!("first wait returned {other:?}"),
    }
    match fleet.wait(id, WAIT) {
        Err(FleetError::UnknownSession(got)) => assert_eq!(got, id),
        other => panic!("second wait returned {other:?}"),
    }
    assert_eq!(fleet.placement(id), None, "placement kept after NodeDown");
    let m = fleet.metrics();
    assert_eq!(m.registrations_live, 0);
    assert_eq!((m.sessions_started, m.sessions_failed), (1, 1));
}

/// Liveness clocks start when the fleet is built: a node killed right
/// away is dropped from the survivors' membership within one heartbeat
/// budget and a scan.
#[test]
fn node_killed_at_start_leaves_membership_within_a_second() {
    let fleet = Fleet::in_memory(FleetConfig {
        heartbeat_interval: Duration::from_millis(50),
        liveness_misses: 3,
        ..FleetConfig::quick(3)
    })
    .expect("build fleet");
    fleet.kill(2).expect("kill node 2");
    let killed = Instant::now();
    while fleet.alive().contains(&2) && killed.elapsed() < Duration::from_secs(1) {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        !fleet.alive().contains(&2),
        "killed node still alive after {:?}",
        killed.elapsed()
    );
}
