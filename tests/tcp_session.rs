//! Full SAP sessions over real localhost TCP — the proof that the
//! transport abstraction holds: the identical protocol code that runs
//! over the in-memory hub runs over sockets.

use sap_repro::core::session::{run_session_over, SapConfig, MINER_ID};
use sap_repro::datasets::normalize::min_max_normalize;
use sap_repro::datasets::partition::{partition, PartitionScheme};
use sap_repro::datasets::registry::UciDataset;
use sap_repro::net::tcp::local_mesh;
use sap_repro::net::{PartyId, ReactorTransport};

fn quick() -> SapConfig {
    SapConfig {
        timeout: std::time::Duration::from_secs(20),
        ..SapConfig::quick_test()
    }
}

/// Builds TCP endpoints for `k` providers plus the miner, fully meshed on
/// localhost, and splits them into (providers, miner).
fn tcp_parties(k: usize) -> (Vec<ReactorTransport>, ReactorTransport) {
    let mut ids: Vec<PartyId> = (0..k as u64).map(PartyId).collect();
    ids.push(MINER_ID);
    let mut mesh = local_mesh(&ids).expect("bind localhost sockets");
    let miner = mesh.pop().expect("miner endpoint");
    (mesh, miner)
}

#[test]
fn full_sap_session_over_tcp() {
    let (data, _) = min_max_normalize(&UciDataset::Iris.generate(21));
    let locals = partition(&data, 4, PartitionScheme::Uniform, 22);
    let (providers, miner) = tcp_parties(4);

    let outcome = run_session_over(locals, &quick(), providers, miner)
        .expect("session over TCP must complete");

    assert_eq!(outcome.unified.len(), data.len());
    assert_eq!(outcome.unified.dim(), data.dim());
    assert_eq!(outcome.reports.len(), 4);
    assert_eq!(outcome.forwarder_of_slot.len(), 4);
    assert!((outcome.identifiability - 1.0 / 3.0).abs() < 1e-12);

    // Full information-flow audit, as over the in-memory hub.
    let provider_ids: Vec<PartyId> = (0..4).map(PartyId).collect();
    outcome
        .audit
        .verify_flow(PartyId(3), MINER_ID, &provider_ids)
        .expect("flow invariants over TCP");
    assert!(!outcome.audit.party_saw_data(PartyId(3)));
    assert!(outcome.audit.party_saw_data(MINER_ID));
}

#[test]
fn tcp_and_hub_sessions_agree() {
    // Same inputs, same config ⇒ byte-identical unified datasets: the
    // transport layer must be invisible to the protocol's results.
    use sap_repro::core::session::run_session;

    let (data, _) = min_max_normalize(&UciDataset::Wine.generate(25));
    let locals = partition(&data, 3, PartitionScheme::Uniform, 26);
    let config = quick();

    let hub_outcome = run_session(locals.clone(), &config).expect("hub session");
    let (providers, miner) = tcp_parties(3);
    let tcp_outcome = run_session_over(locals, &config, providers, miner).expect("tcp session");

    assert_eq!(hub_outcome.unified, tcp_outcome.unified);
    assert_eq!(hub_outcome.forwarder_of_slot, tcp_outcome.forwarder_of_slot);
}
