//! A full SAP session over real localhost TCP sockets.
//!
//! The protocol actors are generic over the transport, so the only
//! difference from `quickstart` is the setup: bind one TCP endpoint per
//! party, mesh them, and hand them to `run_session_over`.
//!
//! ```text
//! cargo run --example tcp_session --release
//! ```

use sap_repro::core::session::{run_session_over, SapConfig, MINER_ID};
use sap_repro::datasets::normalize::min_max_normalize;
use sap_repro::datasets::partition::{partition, PartitionScheme};
use sap_repro::datasets::registry::UciDataset;
use sap_repro::net::tcp::local_mesh;
use sap_repro::net::{PartyId, Transport};

fn main() {
    let k = 4;

    // Horizontal partitions of a normalized synthetic Iris.
    let (data, _) = min_max_normalize(&UciDataset::Iris.generate(42));
    let locals = partition(&data, k, PartitionScheme::Uniform, 7);
    println!("dataset: {} records over {k} providers", data.len());

    // One TCP endpoint per provider plus the miner, meshed on localhost.
    let mut ids: Vec<PartyId> = (0..k as u64).map(PartyId).collect();
    ids.push(MINER_ID);
    let mut mesh = local_mesh(&ids).expect("bind localhost sockets");
    let miner = mesh.pop().expect("miner endpoint");
    for t in &mesh {
        println!("  {} listening on {}", t.local_id(), t.local_addr());
    }

    let config = SapConfig::quick_test();
    let outcome = run_session_over(locals, &config, mesh, miner).expect("session over TCP");

    println!(
        "unified: {} records in the target space; identifiability 1/(k-1) = {:.3}",
        outcome.unified.len(),
        outcome.identifiability
    );
    for r in &outcome.reports {
        println!(
            "  {}: rho_local={:.3} rho_unified={:.3} satisfaction={:.2}",
            r.provider, r.rho_local, r.rho_unified, r.satisfaction
        );
    }
    println!(
        "audit: {} deliveries recorded; coordinator saw data: {}",
        outcome.audit.len(),
        outcome.audit.party_saw_data(PartyId(k as u64 - 1))
    );
}
